//! Parallel experiment sweeps: run a grid of [`ExperimentConfig`]s across
//! threads with shared dataset generation.
//!
//! The paper's evaluation is dozens of experiment variants (Tables 2–4,
//! Figs. 1–12); running them one at a time wastes both wall clock and the
//! repeated synthetic-dataset generation. [`run_sweep`] executes any list of
//! configurations concurrently, generating each distinct dataset
//! (preset × scale × seed) exactly once and sharing it across the runs, and
//! returns results in input order. [`SweepGrid`] builds the common
//! cartesian-product grids.
//!
//! Results are bit-identical to running each configuration through
//! [`crate::runner::run_experiment`] sequentially, regardless of the sweep's
//! thread count.
//!
//! ```
//! use fl_core::sweep::SweepGrid;
//! use fl_core::{Algorithm, ExperimentConfig};
//!
//! let mut base = ExperimentConfig::quick(Algorithm::TopK);
//! base.rounds = 2;
//! let grid = SweepGrid::new(base)
//!     .algorithms([Algorithm::FedAvg, Algorithm::TopK])
//!     .compression_ratios([0.1, 0.01]);
//! assert_eq!(grid.len(), 4);
//! let results = grid.run();
//! assert_eq!(results.len(), 4);
//! ```

use crate::algorithm::Algorithm;
use crate::config::ExperimentConfig;
use crate::policy::AdaptivePlanSpec;
use crate::runner::ExperimentResult;
use crate::session::SessionBuilder;
use fl_compress::{CompressorSpec, LayerPlan};
use fl_data::{Dataset, DatasetPreset};
use fl_netsim::ScenarioSpec;
use fl_tensor::parallel::{default_threads, parallel_map};
use std::collections::HashMap;
use std::sync::Arc;

/// Key identifying one generated dataset pair: preset name, scale bits, seed.
type DataKey = (&'static str, u64, u64);

/// A shared train/test dataset pair.
type SharedData = (Arc<Dataset>, Arc<Dataset>);

fn data_key(config: &ExperimentConfig) -> DataKey {
    (
        config.dataset.name(),
        config.dataset_scale.to_bits(),
        config.seed,
    )
}

/// Run every configuration, in parallel across `sweep_threads` worker threads
/// (`0` = the machine's available parallelism), sharing dataset generation
/// between configurations that use the same preset, scale and seed. Results
/// are returned in the same order as `configs`.
pub fn run_sweep_threaded(
    configs: &[ExperimentConfig],
    sweep_threads: usize,
) -> Vec<ExperimentResult> {
    run_sweep_threaded_progress(configs, sweep_threads, false)
}

/// [`run_sweep_threaded`] with opt-in progress reporting: when `progress` is
/// true, one `# sweep i/total: …` line is printed to stderr as each run
/// completes (completion order, not input order — runs finish as the workers
/// drain the grid). Stdout is untouched, so `--csv` output stays clean.
pub fn run_sweep_threaded_progress(
    configs: &[ExperimentConfig],
    sweep_threads: usize,
    progress: bool,
) -> Vec<ExperimentResult> {
    let threads = if sweep_threads == 0 {
        default_threads()
    } else {
        sweep_threads
    };
    // With several experiments in flight the machine's parallelism budget is
    // split between the sweep workers and each session's client-training
    // pool: auto-threaded configs (`max_threads == 0`) get an explicit inner
    // cap so outer × inner ≈ available cores instead of oversubscribing
    // quadratically. Explicit `max_threads` values are respected as-is, and
    // the inner pool is deterministic regardless of its size.
    let concurrent = threads.min(configs.len()).max(1);
    let inner_threads = (default_threads() / concurrent).max(1);

    // Generate each distinct dataset once (in parallel), keyed by
    // preset × scale × seed — the only inputs of `SyntheticSpec::generate` —
    // and share it across the grid behind an `Arc` (no per-run deep clones).
    let mut specs: Vec<(DataKey, DatasetPreset, f64, u64)> = Vec::new();
    for c in configs {
        let key = data_key(c);
        if !specs.iter().any(|(k, _, _, _)| *k == key) {
            specs.push((key, c.dataset, c.dataset_scale, c.seed));
        }
    }
    let generated: Vec<(DataKey, SharedData)> =
        parallel_map(specs, threads, |(key, preset, scale, seed)| {
            let (train, test) = preset.spec(scale).generate(seed);
            (key, (Arc::new(train), Arc::new(test)))
        });
    let cache: HashMap<DataKey, SharedData> = generated.into_iter().collect();

    let total = configs.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let done = &done;
    parallel_map(configs.to_vec(), threads, move |config| {
        let start = std::time::Instant::now();
        let (train, test) = cache
            .get(&data_key(&config))
            .expect("every config's dataset was pre-generated")
            .clone();
        let mut builder = SessionBuilder::from_config(&config).with_shared_data(train, test);
        if config.max_threads == 0 {
            builder = builder.threads(inner_threads);
        }
        let result = builder.build().run();
        if progress {
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            let codec = match (&config.compressor, &config.layer_compressors) {
                (Some(spec), _) => format!(" codec={spec}"),
                (None, Some(plan)) => format!(" plan={plan}"),
                (None, None) => String::new(),
            };
            eprintln!(
                "# sweep {n}/{total}: {} {} beta={} cr={}{codec} done in {:.1}s",
                config.algorithm.name(),
                config.dataset.name(),
                config.beta,
                config.compression_ratio,
                start.elapsed().as_secs_f64(),
            );
        }
        result
    })
}

/// [`run_sweep_threaded`] with the default thread count.
pub fn run_sweep(configs: &[ExperimentConfig]) -> Vec<ExperimentResult> {
    run_sweep_threaded(configs, 0)
}

/// A cartesian grid of experiment configurations over the axes the paper
/// sweeps — dataset × heterogeneity `β` × compression ratio × algorithm ×
/// codec × fleet scenario × seed. Unset axes stay at the base
/// configuration's value.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    base: ExperimentConfig,
    client_counts: Vec<usize>,
    datasets: Vec<DatasetPreset>,
    betas: Vec<f64>,
    compression_ratios: Vec<f64>,
    algorithms: Vec<Algorithm>,
    compressors: Vec<Option<CompressorSpec>>,
    layer_plans: Vec<Option<LayerPlan>>,
    adaptive_plans: Vec<Option<AdaptivePlanSpec>>,
    downlink_compressors: Vec<Option<CompressorSpec>>,
    scenarios: Vec<Option<ScenarioSpec>>,
    seeds: Vec<u64>,
}

impl SweepGrid {
    /// A single-point grid at the base configuration.
    pub fn new(base: ExperimentConfig) -> Self {
        Self {
            client_counts: vec![base.num_clients],
            datasets: vec![base.dataset],
            betas: vec![base.beta],
            compression_ratios: vec![base.compression_ratio],
            algorithms: vec![base.algorithm],
            compressors: vec![base.compressor.clone()],
            layer_plans: vec![base.layer_compressors.clone()],
            adaptive_plans: vec![base.adaptive_plan.clone()],
            downlink_compressors: vec![base.downlink_compressor.clone()],
            scenarios: vec![base.scenario.clone()],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sweep over these population sizes `N` (each becomes the
    /// configuration's `num_clients`; `participation` stays at the base
    /// value, so the cohort grows with `N`). The outermost axis: the session
    /// roster virtualizes client state, so grids over 10^5+ clients cost
    /// O(population) only in partition bookkeeping, not client state.
    pub fn client_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.client_counts = counts.into_iter().collect();
        self
    }

    /// Sweep over these datasets.
    pub fn datasets(mut self, datasets: impl IntoIterator<Item = DatasetPreset>) -> Self {
        self.datasets = datasets.into_iter().collect();
        self
    }

    /// Sweep over these Dirichlet heterogeneity levels.
    pub fn betas(mut self, betas: impl IntoIterator<Item = f64>) -> Self {
        self.betas = betas.into_iter().collect();
        self
    }

    /// Sweep over these base compression ratios.
    pub fn compression_ratios(mut self, ratios: impl IntoIterator<Item = f64>) -> Self {
        self.compression_ratios = ratios.into_iter().collect();
        self
    }

    /// Sweep over these algorithms.
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = Algorithm>) -> Self {
        self.algorithms = algorithms.into_iter().collect();
        self
    }

    /// Sweep over these codec specs (each becomes the configuration's
    /// `compressor` override; see [`crate::policy::resolve_codec_spec`]).
    pub fn compressors(mut self, specs: impl IntoIterator<Item = CompressorSpec>) -> Self {
        self.compressors = specs.into_iter().map(Some).collect();
        self
    }

    /// Sweep over these layer-aware codec plans (each becomes the
    /// configuration's `layer_compressors`; the base's flat `compressor`
    /// override must be `None` — the two knobs are mutually exclusive).
    /// Takes plans or `Option`s, so a grid can put the flat-codec baseline
    /// (`None`) beside layer-aware plans.
    pub fn layer_plans(
        mut self,
        plans: impl IntoIterator<Item = impl Into<Option<LayerPlan>>>,
    ) -> Self {
        self.layer_plans = plans.into_iter().map(Into::into).collect();
        self
    }

    /// Sweep over these adaptive plan policies (each becomes the
    /// configuration's `adaptive_plan`; the knob is mutually exclusive with
    /// the static `compressor` / `layer_compressors` overrides, so keep those
    /// axes at `None` when this one is set). Takes specs or `Option`s, so a
    /// grid can put the static baseline (`None`) beside adaptive policies.
    pub fn adaptive_plans(
        mut self,
        specs: impl IntoIterator<Item = impl Into<Option<AdaptivePlanSpec>>>,
    ) -> Self {
        self.adaptive_plans = specs.into_iter().map(Into::into).collect();
        self
    }

    /// Sweep over these broadcast codec specs (each becomes the
    /// configuration's `downlink_compressor`). Takes specs or `Option`s, so a
    /// grid can put the paper's free-broadcast baseline (`None`) beside
    /// compressed broadcasts.
    pub fn downlink_compressors(
        mut self,
        specs: impl IntoIterator<Item = impl Into<Option<CompressorSpec>>>,
    ) -> Self {
        self.downlink_compressors = specs.into_iter().map(Into::into).collect();
        self
    }

    /// Sweep over these fleet scenarios (each becomes the configuration's
    /// `scenario`). Takes specs or `Option`s, so a grid can put the paper's
    /// static fleet (`None`) beside dynamic fleets.
    pub fn scenarios(
        mut self,
        specs: impl IntoIterator<Item = impl Into<Option<ScenarioSpec>>>,
    ) -> Self {
        self.scenarios = specs.into_iter().map(Into::into).collect();
        self
    }

    /// Sweep over these master seeds (for repeated trials).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.client_counts.len()
            * self.datasets.len()
            * self.betas.len()
            * self.compression_ratios.len()
            * self.algorithms.len()
            * self.compressors.len()
            * self.layer_plans.len()
            * self.adaptive_plans.len()
            * self.downlink_compressors.len()
            * self.scenarios.len()
            * self.seeds.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialise the grid, nested population → dataset → β → ratio →
    /// algorithm → codec → layer plan → adaptive plan → downlink codec →
    /// scenario → seed (the paper's table ordering, with populations, codecs,
    /// plans and fleet scenarios as extra rows).
    pub fn configs(&self) -> Vec<ExperimentConfig> {
        let mut out = Vec::with_capacity(self.len());
        for &num_clients in &self.client_counts {
            for &dataset in &self.datasets {
                for &beta in &self.betas {
                    for &compression_ratio in &self.compression_ratios {
                        for &algorithm in &self.algorithms {
                            for compressor in &self.compressors {
                                for plan in &self.layer_plans {
                                    for adaptive in &self.adaptive_plans {
                                        for downlink in &self.downlink_compressors {
                                            for scenario in &self.scenarios {
                                                for &seed in &self.seeds {
                                                    let mut c = self.base.clone();
                                                    c.num_clients = num_clients;
                                                    c.dataset = dataset;
                                                    c.beta = beta;
                                                    c.compression_ratio = compression_ratio;
                                                    c.algorithm = algorithm;
                                                    c.compressor = compressor.clone();
                                                    c.layer_compressors = plan.clone();
                                                    c.adaptive_plan = adaptive.clone();
                                                    c.downlink_compressor = downlink.clone();
                                                    c.scenario = scenario.clone();
                                                    c.seed = seed;
                                                    out.push(c);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Run the whole grid with the default thread count.
    pub fn run(&self) -> Vec<ExperimentResult> {
        run_sweep(&self.configs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;

    fn quick_base() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick(Algorithm::TopK);
        c.rounds = 3;
        c.max_threads = 1;
        c
    }

    #[test]
    fn grid_covers_the_cartesian_product_in_order() {
        let grid = SweepGrid::new(quick_base())
            .algorithms([Algorithm::FedAvg, Algorithm::TopK])
            .betas([0.1, 0.5])
            .compression_ratios([0.1, 0.01]);
        assert_eq!(grid.len(), 8);
        let configs = grid.configs();
        assert_eq!(configs.len(), 8);
        // beta is the outer axis, then ratio, then algorithm.
        assert_eq!(configs[0].beta, 0.1);
        assert_eq!(configs[0].compression_ratio, 0.1);
        assert_eq!(configs[0].algorithm, Algorithm::FedAvg);
        assert_eq!(configs[1].algorithm, Algorithm::TopK);
        assert_eq!(configs[2].compression_ratio, 0.01);
        assert_eq!(configs[4].beta, 0.5);
    }

    #[test]
    fn client_count_axis_is_the_outermost_loop() {
        let grid = SweepGrid::new(quick_base())
            .client_counts([10, 1_000])
            .algorithms([Algorithm::FedAvg, Algorithm::TopK]);
        assert_eq!(grid.len(), 4);
        let configs = grid.configs();
        assert_eq!(configs[0].num_clients, 10);
        assert_eq!(configs[1].num_clients, 10);
        assert_eq!(configs[2].num_clients, 1_000);
        assert_eq!(configs[2].algorithm, Algorithm::FedAvg);
        assert_eq!(configs[3].algorithm, Algorithm::TopK);
        // Participation is untouched, so the cohort scales with N.
        assert_eq!(configs[0].participation, configs[2].participation);
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // The default grid keeps the base population.
        assert_eq!(
            SweepGrid::new(quick_base()).configs()[0].num_clients,
            quick_base().num_clients
        );
    }

    #[test]
    fn sweep_matches_sequential_runs() {
        let grid = SweepGrid::new(quick_base()).algorithms([Algorithm::FedAvg, Algorithm::TopK]);
        let configs = grid.configs();
        let swept = run_sweep_threaded(&configs, 4);
        for (config, result) in configs.iter().zip(swept.iter()) {
            let sequential = run_experiment(config);
            assert_eq!(result.records, sequential.records, "{:?}", config.algorithm);
        }
    }

    #[test]
    fn sweep_thread_count_does_not_change_results() {
        let configs = SweepGrid::new(quick_base())
            .compression_ratios([0.1, 0.05])
            .configs();
        let serial = run_sweep_threaded(&configs, 1);
        let parallel = run_sweep_threaded(&configs, 4);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn sweep_does_not_mutate_the_reported_config() {
        // The inner thread cap is applied through the session builder, not by
        // rewriting the config, so reported results match the input grid.
        let mut base = quick_base();
        base.max_threads = 0;
        base.rounds = 2;
        let results = run_sweep_threaded(std::slice::from_ref(&base), 2);
        assert_eq!(results[0].config.max_threads, 0);
    }

    #[test]
    fn compressor_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .compressors(["topk+qsgd:4".parse().unwrap(), "qsgd:8".parse().unwrap()])
            .compression_ratios([0.1, 0.05]);
        assert_eq!(grid.len(), 4);
        let configs = grid.configs();
        assert_eq!(
            configs[0].compressor.as_ref().unwrap().to_string(),
            "topk+qsgd:4"
        );
        assert_eq!(
            configs[1].compressor.as_ref().unwrap().to_string(),
            "qsgd:8"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // The default grid keeps the base's (absent) override.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .compressor
            .is_none());
    }

    #[test]
    fn layer_plan_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .layer_plans([
                None,
                Some("*.bias=dense;*=topk".parse().unwrap()),
                Some("*=topk+qsgd:4".parse().unwrap()),
            ])
            .compression_ratios([0.1, 0.05]);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        assert!(configs[0].layer_compressors.is_none());
        assert_eq!(
            configs[1].layer_compressors.as_ref().unwrap().to_string(),
            "*.bias=dense;*=topk"
        );
        assert_eq!(
            configs[2].layer_compressors.as_ref().unwrap().to_string(),
            "*=topk+qsgd:4"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // Bare plans need the item type spelled out.
        let owned = SweepGrid::new(quick_base())
            .layer_plans(["*=topk".parse::<fl_compress::LayerPlan>().unwrap()]);
        assert!(owned.configs()[0].layer_compressors.is_some());
        // The default grid keeps the base's (absent) plan.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .layer_compressors
            .is_none());
    }

    #[test]
    fn adaptive_plan_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .adaptive_plans([
                None,
                Some("layer-bcrs".parse().unwrap()),
                Some("static:*=topk".parse().unwrap()),
            ])
            .compression_ratios([0.1, 0.05]);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        assert!(configs[0].adaptive_plan.is_none());
        assert_eq!(
            configs[1].adaptive_plan.as_ref().unwrap().to_string(),
            "layer-bcrs"
        );
        assert_eq!(
            configs[2].adaptive_plan.as_ref().unwrap().to_string(),
            "static:*=topk"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // Bare specs need the item type spelled out.
        let owned = SweepGrid::new(quick_base())
            .adaptive_plans(["layer-bcrs".parse::<AdaptivePlanSpec>().unwrap()]);
        assert!(owned.configs()[0].adaptive_plan.is_some());
        // The default grid keeps the base's (absent) adaptive policy.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .adaptive_plan
            .is_none());
    }

    #[test]
    fn downlink_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .downlink_compressors([
                None,
                Some("topk".parse().unwrap()),
                Some("ef-topk".parse().unwrap()),
            ])
            .compression_ratios([0.1, 0.05]);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        assert!(configs[0].downlink_compressor.is_none());
        assert_eq!(
            configs[1].downlink_compressor.as_ref().unwrap().to_string(),
            "topk"
        );
        assert_eq!(
            configs[2].downlink_compressor.as_ref().unwrap().to_string(),
            "ef-topk"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // The default grid keeps the base's (absent) downlink codec.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .downlink_compressor
            .is_none());
    }

    #[test]
    fn scenario_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .scenarios([
                None,
                Some("diurnal".parse().unwrap()),
                Some("churn:leave=0.1".parse().unwrap()),
            ])
            .algorithms([Algorithm::FedAvg, Algorithm::TopK]);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        // Scenario is the innermost axis above seeds: the static baseline
        // and both dynamic fleets appear per algorithm.
        assert!(configs[0].scenario.is_none());
        assert_eq!(configs[1].scenario.as_ref().unwrap().name(), "diurnal");
        assert_eq!(configs[2].scenario.as_ref().unwrap().name(), "churn");
        assert_eq!(configs[3].algorithm, Algorithm::TopK);
        assert!(configs[3].scenario.is_none());
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // Bare specs need the item type spelled out; the default grid keeps
        // the base's (absent) scenario.
        let owned =
            SweepGrid::new(quick_base()).scenarios(["towers".parse::<ScenarioSpec>().unwrap()]);
        assert!(owned.configs()[0].scenario.is_some());
        assert!(SweepGrid::new(quick_base()).configs()[0].scenario.is_none());
    }

    #[test]
    fn shared_dataset_generation_deduplicates() {
        // Two configs differing only in algorithm share one dataset key; a
        // third with a different seed does not.
        let base = quick_base();
        let mut other_seed = base.clone();
        other_seed.seed = base.seed + 1;
        let mut other_alg = base.clone();
        other_alg.algorithm = Algorithm::FedAvg;
        assert_eq!(data_key(&base), data_key(&other_alg));
        assert_ne!(data_key(&base), data_key(&other_seed));
    }
}
