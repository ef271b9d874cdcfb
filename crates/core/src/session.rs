//! The [`FederatedSession`] round engine: long-lived experiment state plus
//! the builder that materialises it from a configuration.
//!
//! A session owns everything that persists across communication rounds —
//! client states, network links, the global model, RNG streams and the time
//! accumulators — and advances one round at a time via
//! [`FederatedSession::run_round`] (the staged loop lives in
//! [`crate::round`]). [`crate::runner::run_experiment`] is now a thin wrapper
//! that builds a session and drives it to the configured horizon.
//!
//! ```
//! use fl_core::session::SessionBuilder;
//! use fl_core::{Algorithm, ExperimentConfig};
//!
//! let mut config = ExperimentConfig::quick(Algorithm::TopK);
//! config.rounds = 2;
//! let mut session = SessionBuilder::from_config(&config).build();
//! let first = session.run_round();
//! assert_eq!(first.record.round, 0);
//! let result = session.run(); // finishes the remaining rounds
//! assert_eq!(result.records.len(), 2);
//! ```

use crate::client::{build_model, segment_defs};
use crate::config::ExperimentConfig;
use crate::eval::Evaluation;
use crate::roster::ClientRoster;
use crate::runner::{ExperimentResult, RoundRecord};
use fl_compress::{CodecCtx, CodecRegistry, DownlinkChannel};
use fl_data::{dirichlet_partition, Dataset, PartitionStats};
use fl_netsim::{CommModel, FleetState, Link, RoundBreakdown, RoundTiming};
use fl_nn::{flatten_params, ParamLayout, Sequential};
use fl_tensor::parallel::default_threads;
use fl_tensor::rng::Xoshiro256;
use std::sync::Arc;

/// Builds a [`FederatedSession`] from a configuration, optionally overriding
/// the datasets (shared generation in sweeps), the codec registry and the
/// worker-thread count.
pub struct SessionBuilder {
    config: ExperimentConfig,
    data: Option<(Arc<Dataset>, Arc<Dataset>)>,
    registry: Option<CodecRegistry>,
    threads: Option<usize>,
}

impl SessionBuilder {
    /// Start from a configuration.
    pub fn from_config(config: &ExperimentConfig) -> Self {
        Self {
            config: config.clone(),
            data: None,
            registry: None,
            threads: None,
        }
    }

    /// Use pre-generated train/test datasets instead of generating them from
    /// the config's seed. The datasets must match the config's preset shape
    /// (feature dimension and class count). They are shared: sweeps generate
    /// each distinct dataset once and hand the same `Arc`s to every session
    /// in the grid instead of deep-cloning per run.
    pub fn with_shared_data(mut self, train: Arc<Dataset>, test: Arc<Dataset>) -> Self {
        self.data = Some((train, test));
        self
    }

    /// Use a custom codec registry when resolving the configuration's codec
    /// plans — custom [`fl_compress::UpdateCodec`]s registered by name become
    /// usable from `config.compressor` or any plan rule (see
    /// `examples/custom_compressor.rs` for registering one).
    pub fn codec_registry(mut self, registry: CodecRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Override the client-training worker-thread count without touching the
    /// configuration (`0` = auto). The sweep driver uses this to split the
    /// machine's parallelism between concurrent sessions while leaving
    /// `config.max_threads` — and thus the reported result config — intact.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Materialise the session: check the configuration, which derives each
    /// leg's codec plan and builds the scenario's fleet once, then generate
    /// (or adopt) the data, partition it, initialise the global model, the
    /// per-client states, the network links and the RNG streams, adopting
    /// those plans and that fleet. Panics on a configuration that fails
    /// [`ExperimentConfig::validate`]'s checks (custom codecs resolving
    /// through this builder's registry), matching the historical
    /// `run_experiment` behaviour.
    pub fn build(self) -> FederatedSession {
        let config = self.config;
        let compiled = config
            .compile(&self.registry.unwrap_or_else(CodecRegistry::with_builtins))
            .unwrap_or_else(|e| panic!("invalid experiment config: {e}"));
        let registry = compiled.registry;

        // --- Data -------------------------------------------------------------
        let (train, test) = match self.data {
            Some(d) => d,
            None => {
                let spec = config.dataset.spec(config.dataset_scale);
                let (train, test) = spec.generate(config.seed);
                (Arc::new(train), Arc::new(test))
            }
        };
        // Guarantee every client a fraction of a batch — until the population
        // outgrows the dataset (train.len()/N < 2), where forcing a floor is
        // impossible and `min_samples = 0` lets the raw Dirichlet draw stand
        // (clients may legitimately own zero samples at 10^5+ clients). The
        // partition draws once and tops up clients below the floor from the
        // largest ones. The floor is capped at the mean shard; where it
        // reaches it (e.g. 2,000 clients over 20,000 samples) the top-up
        // levels every shard to exactly the floor.
        let per_client_cap = (train.len() / config.num_clients).max(1);
        let min_samples = if per_client_cap < 2 {
            0
        } else {
            (config.batch_size / 4).clamp(2, per_client_cap)
        };
        let partitions = dirichlet_partition(
            &train,
            config.num_clients,
            config.beta,
            min_samples,
            config.seed ^ 0xD1A1,
        );
        let partition_stats = PartitionStats::from_partition(&partitions, &train);

        // --- Model ------------------------------------------------------------
        let mut model_rng = Xoshiro256::new(config.seed);
        let global_model = build_model(
            &config.model,
            train.feature_dim(),
            train.num_classes(),
            &mut model_rng,
        );
        let global_params = flatten_params(&global_model);
        let model_params = global_params.len();
        let model_bytes = model_params * 4;
        let layout = ParamLayout::of(&global_model);

        // --- Clients and network ----------------------------------------------
        // Clients are virtualized: the roster keeps only each client's
        // persistent RNG stream (forked here, in the same order the eager
        // engine used) plus the shared inputs, and materializes a full
        // `ClientState` per selected client per round. Peak client memory is
        // O(cohort), not O(population).
        let mut root_rng = Xoshiro256::new(config.seed ^ 0xC11E);
        let roster = ClientRoster::new(
            Arc::clone(&train),
            Arc::new(partitions),
            config.clone(),
            registry.clone(),
            compiled.uplink,
            &mut root_rng,
        );
        let links: Vec<Link> = config
            .links
            .generate(config.num_clients, config.seed ^ 0x11C5);
        let comm = CommModel::paper_default().with_cost_basis(config.cost_basis);

        // --- Downlink (broadcast) channel --------------------------------------
        // Dedicated seeds keep the broadcast codec's randomness off the
        // selection and uplink streams, so enabling the downlink leg never
        // perturbs an otherwise-identical run's trajectory. The downlink plan
        // resolves against the same layout the uplink plans use, so a mixed
        // plan's broadcast ships `Segmented` frames and the per-layer
        // downlink byte split in the records is honest.
        let downlink = compiled.downlink.map(|plan| {
            let ctx = CodecCtx::new(model_params, config.seed ^ 0xD0C0);
            let codec = plan
                .resolve(&registry, &segment_defs(&layout), &ctx)
                .expect("compile resolved every downlink rule and covered every segment");
            DownlinkChannel::new(
                codec,
                &global_params,
                config.compression_ratio,
                config.seed ^ 0xD011,
            )
        });

        let selection_rng = Xoshiro256::new(config.seed ^ 0x5E1E);
        let threads = match self.threads.unwrap_or(config.max_threads) {
            0 => default_threads(),
            n => n,
        };
        let cohort = config.clients_per_round();

        FederatedSession {
            config,
            test,
            partition_stats,
            roster,
            links,
            comm,
            global_model,
            global_params,
            model_params,
            model_bytes,
            layout,
            last_gradient_mass: None,
            downlink,
            // Built by `compile` only when configured: with `scenario: None`
            // no fleet exists, no extra RNG stream is consumed and cohorts
            // are drawn from all N clients — records stay bit-identical to
            // pre-scenario builds.
            scenario: compiled.fleet,
            selection_rng,
            time_total: RoundTiming::default(),
            breakdown_total: RoundBreakdown::default(),
            threads,
            cohort,
            // Not reserved up front: `rounds` is only a horizon, and a
            // manual stepper's "no horizon" is `usize::MAX`.
            records: Vec::new(),
            last_eval: None,
            next_round: 0,
        }
    }
}

/// The long-lived state of one federated-learning experiment: everything
/// Algorithm 1 carries from round to round.
///
/// Construct via [`SessionBuilder`] (or [`FederatedSession::from_config`] for
/// the config-implied defaults), then either call
/// [`run`](FederatedSession::run) for the whole configured horizon or
/// [`run_round`](FederatedSession::run_round) to step manually.
pub struct FederatedSession {
    pub(crate) config: ExperimentConfig,
    pub(crate) test: Arc<Dataset>,
    pub(crate) partition_stats: PartitionStats,
    pub(crate) roster: ClientRoster,
    pub(crate) links: Vec<Link>,
    pub(crate) comm: CommModel,
    pub(crate) global_model: Sequential,
    pub(crate) global_params: Vec<f32>,
    pub(crate) model_params: usize,
    pub(crate) model_bytes: usize,
    pub(crate) layout: ParamLayout,
    /// Per-segment L1 mass of the previous round's aggregated update
    /// (layout order) — the telemetry the next round's plan decision reads.
    pub(crate) last_gradient_mass: Option<Vec<f64>>,
    pub(crate) downlink: Option<DownlinkChannel>,
    pub(crate) scenario: Option<FleetState>,
    pub(crate) selection_rng: Xoshiro256,
    /// Running sums of every round's Actual / Max / Min times.
    pub(crate) time_total: RoundTiming,
    pub(crate) breakdown_total: RoundBreakdown,
    pub(crate) threads: usize,
    pub(crate) cohort: usize,
    pub(crate) records: Vec<RoundRecord>,
    pub(crate) last_eval: Option<Evaluation>,
    pub(crate) next_round: usize,
}

impl FederatedSession {
    /// Session built from the configuration alone.
    pub fn from_config(config: &ExperimentConfig) -> Self {
        SessionBuilder::from_config(config).build()
    }

    /// The configuration this session runs.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Index of the next round to run (also the number of completed rounds).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// True once the configured number of rounds has completed.
    pub fn is_finished(&self) -> bool {
        self.next_round >= self.config.rounds
    }

    /// Current flat global parameters.
    pub fn global_params(&self) -> &[f32] {
        &self.global_params
    }

    /// Number of trainable model parameters.
    pub fn model_params(&self) -> usize {
        self.model_params
    }

    /// Dense model size in bytes (`V` of the communication model).
    pub fn model_bytes(&self) -> usize {
        self.model_bytes
    }

    /// The named layout of the flat parameter vector (ordered segments like
    /// `linear0.weight`), against which layer plans resolve and per-layer
    /// byte breakdowns are reported.
    pub fn param_layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Records of the rounds completed so far.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The parameters the clients actually train from: the downlink channel's
    /// decoded view when a broadcast codec is active (lossy broadcasts drift
    /// from [`global_params`](Self::global_params)), the global parameters
    /// themselves otherwise.
    pub fn broadcast_params(&self) -> &[f32] {
        match &self.downlink {
            Some(channel) => channel.view(),
            None => &self.global_params,
        }
    }

    /// The virtualized client population behind this session: checkout
    /// counters, residency high-water marks and the error-feedback residual
    /// store (see [`ClientRoster`]). The scaling harness and the O(cohort)
    /// memory tests read their evidence from here.
    pub fn roster(&self) -> &ClientRoster {
        &self.roster
    }

    /// The fleet driving this session's dynamics (`None` for the paper's
    /// static fleet). Exposes the current reachable-client set and per-round
    /// telemetry to external drivers.
    pub fn scenario(&self) -> Option<&FleetState> {
        self.scenario.as_ref()
    }

    /// L2 norm of the downlink codec's server-side residual state (0 when no
    /// downlink codec is configured or the codec is stateless).
    pub fn downlink_residual_norm(&self) -> f64 {
        self.downlink
            .as_ref()
            .map(|c| c.residual_norm())
            .unwrap_or(0.0)
    }

    /// The held-out test dataset.
    pub fn test_dataset(&self) -> &Dataset {
        &self.test
    }

    /// Run all remaining rounds, invoking `on_round` after each one, and
    /// return the final result.
    pub fn run_with<F: FnMut(&RoundRecord)>(mut self, mut on_round: F) -> ExperimentResult {
        while !self.is_finished() {
            let output = self.step();
            on_round(&output.record);
            self.records.push(output.record);
        }
        self.into_result()
    }

    /// Run all remaining rounds and return the final result.
    pub fn run(self) -> ExperimentResult {
        self.run_with(|_| {})
    }

    /// Package the rounds completed so far into an [`ExperimentResult`].
    pub fn into_result(self) -> ExperimentResult {
        let final_accuracy = self.records.last().map(|r| r.test_accuracy).unwrap_or(0.0);
        let best_accuracy = self
            .records
            .iter()
            .map(|r| r.test_accuracy)
            .fold(0.0f64, f64::max);
        ExperimentResult {
            config: self.config,
            breakdown: self
                .breakdown_total
                .averaged_over(self.records.len().max(1)),
            final_accuracy,
            best_accuracy,
            model_params: self.model_params,
            model_bytes: self.model_bytes,
            partition: self.partition_stats,
            records: self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::runner::run_experiment;

    fn quick(algorithm: Algorithm) -> ExperimentConfig {
        let mut c = ExperimentConfig::quick(algorithm);
        c.rounds = 4;
        c.max_threads = 1;
        c
    }

    #[test]
    fn session_run_matches_run_experiment() {
        let config = quick(Algorithm::BcrsOpwa);
        let via_session = FederatedSession::from_config(&config).run();
        let via_runner = run_experiment(&config);
        assert_eq!(via_session.records, via_runner.records);
        assert_eq!(via_session.final_accuracy, via_runner.final_accuracy);
    }

    #[test]
    fn stepping_rounds_matches_running_to_completion() {
        let config = quick(Algorithm::TopK);
        let mut stepped = FederatedSession::from_config(&config);
        let mut seen = Vec::new();
        while !stepped.is_finished() {
            seen.push(stepped.run_round().record);
        }
        let whole = FederatedSession::from_config(&config).run();
        assert_eq!(seen, whole.records);
        assert_eq!(stepped.records(), whole.records.as_slice());
    }

    #[test]
    fn builder_accepts_pregenerated_data() {
        let config = quick(Algorithm::TopK);
        let (train, test) = config
            .dataset
            .spec(config.dataset_scale)
            .generate(config.seed);
        let shared = SessionBuilder::from_config(&config)
            .with_shared_data(Arc::new(train), Arc::new(test))
            .build()
            .run();
        let fresh = run_experiment(&config);
        assert_eq!(shared.records, fresh.records);
    }

    #[test]
    fn empty_custom_selector_is_backstopped_by_the_engine() {
        // A trace that takes the whole fleet down before round 0: no client
        // is reachable in any round, yet every round runs on one uniformly
        // drawn client instead of panicking or poisoning the averages.
        let mut config = quick(Algorithm::TopK);
        config.rounds = 3;
        let mut trace = format!("bwfl-trace-v1 clients={}\n", config.num_clients);
        for client in 0..config.num_clients {
            trace.push_str(&format!("0 down {client}\n"));
        }
        let path = std::env::temp_dir().join(format!(
            "bwfl_session_all_down_{}.trace",
            std::process::id()
        ));
        std::fs::write(&path, trace).expect("trace file writes");
        config.scenario = Some(
            format!("trace:{}", path.display())
                .parse()
                .expect("trace spec parses"),
        );
        let result = FederatedSession::from_config(&config).run();
        let _ = std::fs::remove_file(&path);
        for r in &result.records {
            assert_eq!(r.scenario.expect("scenario telemetry").available, 0);
            assert_eq!(r.selected_clients.len(), 1);
            assert!(r.selected_clients[0] < config.num_clients);
            assert!(r.train_loss.is_finite());
        }
    }

    #[test]
    fn eval_every_skips_intermediate_evaluations() {
        let mut every = quick(Algorithm::TopK);
        every.rounds = 6;
        let mut sparse_eval = every.clone();
        sparse_eval.eval_every = 3;
        let dense = run_experiment(&every);
        let sparse = run_experiment(&sparse_eval);
        // Training is unaffected: the final (always-evaluated) accuracy matches.
        assert_eq!(dense.final_accuracy, sparse.final_accuracy);
        // Skipped rounds repeat the previous evaluation (NaN before the first).
        assert!(sparse.records[0].test_accuracy.is_nan());
        assert_eq!(
            sparse.records[2].test_accuracy, dense.records[2].test_accuracy,
            "round 3 is an evaluation point"
        );
        assert_eq!(
            sparse.records[3].test_accuracy, sparse.records[2].test_accuracy,
            "round 4 repeats round 3's evaluation"
        );
    }

    #[test]
    fn custom_codec_registry_reaches_the_round_engine() {
        use fl_compress::{CodecCtx, CodecRegistry, CompressorSpec, SpecError, UpdateCodec};

        // Register the built-in Top-K codec under a custom name: the spec
        // resolves only through the custom registry.
        fn my_topk(_arg: Option<&str>, ctx: &CodecCtx) -> Result<Box<dyn UpdateCodec>, SpecError> {
            CodecRegistry::with_builtins().build(&CompressorSpec::topk(), ctx)
        }
        let mut registry = CodecRegistry::with_builtins();
        registry.register("my-topk", my_topk);

        let mut config = quick(Algorithm::TopK);
        config.rounds = 2;
        config.compressor = Some("my-topk".parse().unwrap());
        // The built-in-only validation rejects the custom name…
        assert!(config.validate().is_err());
        assert!(config.compile(&registry).is_ok());
        // …but a builder configured with the registry runs it end to end,
        // identically to the built-in Top-K (same codec, different name).
        let custom = SessionBuilder::from_config(&config)
            .codec_registry(registry)
            .build()
            .run();
        let mut builtin_config = config.clone();
        builtin_config.compressor = Some("topk".parse().unwrap());
        let builtin = FederatedSession::from_config(&builtin_config).run();
        assert_eq!(custom.records, builtin.records);
    }

    #[test]
    fn an_unbounded_horizon_builds_and_steps() {
        let mut config = quick(Algorithm::TopK);
        config.rounds = usize::MAX;
        let mut session = FederatedSession::from_config(&config);
        session.run_round();
        assert_eq!(session.records().len(), 1);
        assert!(!session.is_finished());
    }

    /// The contract of `compile`: every configuration it accepts builds a
    /// session that runs a round. Each row sets values at the far end of
    /// what it accepts.
    #[test]
    fn every_compiled_config_runs_one_round() {
        type Set = fn(&mut ExperimentConfig);
        let edges: [(Algorithm, Set); 5] = [
            (Algorithm::BcrsOpwa, |c| c.overlap_threshold = usize::MAX),
            (Algorithm::TopK, |c| c.eval_every = usize::MAX),
            (Algorithm::TopK, |c| c.batch_size = usize::MAX),
            (Algorithm::BcrsOpwa, |c| {
                (c.gamma, c.alpha) = (f32::MAX, 1e300)
            }),
            (Algorithm::BcrsOpwa, |c| {
                (c.beta, c.compression_ratio) = (1e-300, 1e-300)
            }),
        ];
        let builtins = CodecRegistry::with_builtins();
        for (algorithm, set) in edges {
            let mut config = quick(algorithm);
            set(&mut config);
            if let Err(e) = config.compile(&builtins) {
                panic!("{config:?} rejected: {e}");
            }
            let output = FederatedSession::from_config(&config).run_round();
            assert_eq!(output.record.round, 0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid experiment config")]
    fn invalid_config_panics_at_build() {
        let mut config = quick(Algorithm::TopK);
        config.rounds = 0;
        let _ = FederatedSession::from_config(&config);
    }
}
