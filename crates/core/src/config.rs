//! Experiment configuration: one struct that fully determines a run.

use crate::algorithm::{Algorithm, RatioRule};
use crate::policy::{downlink_plan, uplink_plan};
use crate::scenario::build_scenario;
use fl_compress::{CodecRegistry, CompressorSpec, LayerPlan};
use fl_data::DatasetPreset;
use fl_netsim::{CostBasis, FleetState, LinkGenerator, ScenarioSpec};

/// Which model architecture the clients train.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelPreset {
    /// Multi-layer perceptron with two hidden layers (default; it stands in
    /// for the paper's ResNet-18, as the synthetic datasets of `fl-data`
    /// stand in for its image datasets).
    Mlp {
        /// First hidden layer width.
        hidden1: usize,
        /// Second hidden layer width.
        hidden2: usize,
    },
    /// Single linear layer (logistic regression) — cheapest, used in tests.
    Linear,
}

impl ModelPreset {
    /// The default MLP used by the experiment suite.
    pub fn default_mlp() -> Self {
        ModelPreset::Mlp {
            hidden1: 128,
            hidden2: 64,
        }
    }

    /// The segment names of this preset's [`fl_nn::ParamLayout`]. They depend
    /// only on the architecture, not the dataset dimensions, so
    /// [`ExperimentConfig::validate`] can check a layer plan's coverage before
    /// any data exists: the check derives each leg's plan and builds the
    /// scenario's fleet once, and the session adopts both (a probe model with
    /// unit dimensions is built to stay aligned with the real layout
    /// derivation).
    pub fn segment_names(&self) -> Vec<String> {
        let mut rng = fl_tensor::rng::Xoshiro256::new(0);
        let probe = crate::client::build_model(self, 1, 1, &mut rng);
        fl_nn::ParamLayout::of(&probe)
            .names()
            .map(String::from)
            .collect()
    }
}

/// Everything needed to run one federated-learning experiment.
///
/// ```
/// use fl_core::{Algorithm, ExperimentConfig};
/// use fl_data::DatasetPreset;
///
/// // The paper's Table-2 cell "BCRS+OPWA, CIFAR-10, beta = 0.1, CR = 0.01".
/// let config = ExperimentConfig::paper_setting(
///     Algorithm::BcrsOpwa,
///     DatasetPreset::Cifar10Like,
///     0.1,
///     0.01,
/// );
/// assert!(config.validate().is_ok());
/// assert_eq!(config.rounds, 200);
/// assert_eq!(config.clients_per_round(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Algorithm under evaluation.
    pub algorithm: Algorithm,
    /// Dataset preset (CIFAR-10-like, CIFAR-100-like, SVHN-like).
    pub dataset: DatasetPreset,
    /// Dataset scale factor (1.0 = full synthetic size; smaller for quick
    /// runs), in `[0.01, 10]`.
    pub dataset_scale: f64,
    /// Model architecture.
    pub model: ModelPreset,
    /// Total number of clients `N` (paper: 10, 16, 20).
    pub num_clients: usize,
    /// Fraction of clients selected per round `C` (paper: 0.5).
    pub participation: f64,
    /// Number of communication rounds `T` (paper: 200).
    pub rounds: usize,
    /// Local epochs per round `E` (paper: 1).
    pub local_epochs: usize,
    /// Mini-batch size (paper: 64).
    pub batch_size: usize,
    /// Local SGD learning rate `η`.
    pub local_lr: f32,
    /// Local SGD momentum.
    pub momentum: f32,
    /// Local weight decay.
    pub weight_decay: f32,
    /// Server learning rate applied to the aggregated update.
    pub server_lr: f32,
    /// Dirichlet heterogeneity level `β` (paper: 0.1 severe, 0.5 moderate).
    pub beta: f64,
    /// Base/uniform compression ratio `CR` (paper: 0.1 or 0.01).
    pub compression_ratio: f64,
    /// BCRS averaging-coefficient scale `α` (Eq. 6; paper tunes over
    /// {0.01, 0.03, 0.1, 0.3, 1}).
    pub alpha: f64,
    /// OPWA enlarge rate `γ` (Alg. 3; paper explores 1..N).
    pub gamma: f32,
    /// OPWA overlap threshold `D`: coordinates retained by at most `D`
    /// clients are enlarged (paper default: 1).
    pub overlap_threshold: usize,
    /// Ablation switch: disable the Eq. 6 coefficient clamp and use plain
    /// data-fraction weights with BCRS.
    pub disable_coefficient_adjustment: bool,
    /// Network link generator (paper Section 5.2 defaults).
    pub links: LinkGenerator,
    /// Master seed; every random decision in the run derives from it.
    pub seed: u64,
    /// Maximum worker threads for parallel client training (0 = auto).
    pub max_threads: usize,
    /// Record the overlap-degree histogram every round (costs a little time;
    /// needed only by the Fig. 4 experiment).
    pub record_overlap: bool,
    /// Evaluate the global model every this many rounds (1 = every round,
    /// the paper's setting). The final round is always evaluated; skipped
    /// rounds repeat the most recent evaluation in their records (NaN before
    /// the first evaluation point). Larger values speed up long sweeps.
    pub eval_every: usize,
    /// Codec override for the clients' uplink compression. `None` (default)
    /// uses the algorithm-implied codec (`topk`, `ef-topk` or `randk`, see
    /// [`crate::Algorithm::codec_spec`]); any parseable
    /// [`CompressorSpec`] — `"qsgd:8"`, `"threshold:0.01"`, `"topk+qsgd:4"`,
    /// … — runs the same algorithm over that codec instead. It is the uniform
    /// plan `"*=<spec>"` of [`crate::policy::uplink_plan`].
    pub compressor: Option<CompressorSpec>,
    /// Layer-aware codec plan for the clients' uplink compression: one codec
    /// per named parameter segment of the model's [`fl_nn::ParamLayout`] via
    /// first-match glob rules —
    /// `"linear0.weight=topk;*.bias=dense;*=ef-topk+qsgd:4"` — resolved through
    /// the session's [`CodecRegistry`]. Mutually exclusive with
    /// [`compressor`](Self::compressor). A uniform plan (`"*=topk"`)
    /// collapses to the flat codec and reproduces its records bit for bit; a
    /// genuinely mixed plan frames per-segment payloads into the `Segmented`
    /// wire kind, `RoundRecord` gains a per-layer byte breakdown, and the
    /// framing overhead is charged exactly under [`CostBasis::Encoded`]. Any
    /// uplink rule that never sparsifies (pure quantizers) is rejected in
    /// combination with OPWA algorithms or `record_overlap`.
    pub layer_compressors: Option<LayerPlan>,
    /// Codec for the server→client broadcast (downlink) leg. `None` (default,
    /// the paper's setting) teleports the global model to the clients for
    /// free. `Some(spec)` simulates the broadcast honestly: each round the
    /// aggregated global delta is encoded once through this codec (at the
    /// base `compression_ratio`), clients train from the decoded — lossy —
    /// view, `RoundRecord` reports the encoded buffer's length as
    /// `downlink_bytes`, and the per-client download time joins the round's
    /// straggler bound. Error-feedback specs (`"ef-topk"`, …) keep their
    /// residual server-side. Dense-decoding specs (`"qsgd:8"`) are fine here
    /// even with OPWA algorithms — the overlap machinery concerns the
    /// *uplink* updates only. It is the uniform plan `"*=<spec>"` of
    /// [`crate::policy::downlink_plan`].
    pub downlink_compressor: Option<CompressorSpec>,
    /// How the network simulator prices transfers:
    /// [`CostBasis::Analytic`] (default) charges the paper's `2·V·CR`
    /// formula on both legs, [`CostBasis::Encoded`] charges the encoded wire
    /// bytes exactly.
    pub cost_basis: CostBasis,
    /// Fleet-dynamics scenario layered on top of the static link draw.
    /// `None` (default) keeps the paper's static fleet — every client always
    /// reachable over its up-front link — and is bit-identical to builds
    /// without the scenario engine. `Some(spec)` drives per-round
    /// [`fl_netsim::FleetEvent`]s (diurnal participation waves, Poisson
    /// churn, tiered link jitter, correlated tower outages, or a recorded
    /// `trace:<file>` replay; see [`ScenarioSpec`]): the session draws its
    /// cohorts from the currently reachable clients, prices transfers over the
    /// scenario's per-round link overrides, and reports participation/churn
    /// telemetry in each [`crate::runner::RoundRecord`]. Scenario randomness
    /// draws from a dedicated seed stream
    /// ([`crate::scenario::scenario_seed`]), so enabling a scenario never
    /// perturbs the training/data/selection streams.
    pub scenario: Option<ScenarioSpec>,
    /// Layer-aware codec plan for the server→client broadcast (downlink)
    /// leg, exactly like [`layer_compressors`](Self::layer_compressors) but
    /// for the broadcast, and mutually exclusive with
    /// [`downlink_compressor`](Self::downlink_compressor). A uniform plan
    /// (`"*=ef-topk"`) collapses to the flat codec and reproduces the
    /// `downlink_compressor` run record for record, with no per-layer split;
    /// a genuinely mixed plan frames the broadcast as a `Segmented` wire
    /// buffer, so [`crate::runner::RoundRecord::layer_bytes`] reports honest
    /// per-layer downlink splits. Dense-decoding rules are fine here even
    /// with OPWA algorithms.
    pub downlink_layer_compressors: Option<LayerPlan>,
    /// Adaptive per-layer plan for the clients' uplink compression (see
    /// [`crate::policy::AdaptivePlanSpec`]), decided every round in the
    /// select stage: `layer-bcrs` re-splits the round's coordinate budget by
    /// observed per-layer gradient mass through the BCRS scheduler. A fixed
    /// per-layer plan is [`layer_compressors`](Self::layer_compressors).
    /// Mutually exclusive with [`compressor`](Self::compressor) and
    /// [`layer_compressors`](Self::layer_compressors).
    pub adaptive_plan: Option<crate::policy::AdaptivePlanSpec>,
}

/// What [`ExperimentConfig::compile`] derives from a valid configuration,
/// for [`crate::session::SessionBuilder::build`] to adopt.
pub(crate) struct CompiledConfig {
    /// The registry both plans were checked against, and so resolve
    /// through.
    pub(crate) registry: CodecRegistry,
    /// The clients' uplink plan ([`uplink_plan`]).
    pub(crate) uplink: LayerPlan,
    /// The broadcast plan ([`downlink_plan`]), when the downlink leg is
    /// simulated.
    pub(crate) downlink: Option<LayerPlan>,
    /// The scenario's fleet at round 0; `None` for the paper's static fleet.
    pub(crate) fleet: Option<FleetState>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::BcrsOpwa,
            dataset: DatasetPreset::Cifar10Like,
            dataset_scale: 1.0,
            model: ModelPreset::default_mlp(),
            num_clients: 10,
            participation: 0.5,
            rounds: 200,
            local_epochs: 1,
            batch_size: 64,
            local_lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            server_lr: 1.0,
            beta: 0.5,
            compression_ratio: 0.1,
            alpha: 0.3,
            gamma: 5.0,
            overlap_threshold: 1,
            disable_coefficient_adjustment: false,
            links: LinkGenerator::paper_default(),
            seed: 42,
            max_threads: 0,
            record_overlap: false,
            eval_every: 1,
            compressor: None,
            layer_compressors: None,
            downlink_compressor: None,
            cost_basis: CostBasis::Analytic,
            scenario: None,
            downlink_layer_compressors: None,
            adaptive_plan: None,
        }
    }
}

impl ExperimentConfig {
    /// The paper's main-table setting for a given algorithm, dataset,
    /// heterogeneity and compression ratio.
    pub fn paper_setting(
        algorithm: Algorithm,
        dataset: DatasetPreset,
        beta: f64,
        compression_ratio: f64,
    ) -> Self {
        Self {
            algorithm,
            dataset,
            beta,
            compression_ratio,
            ..Default::default()
        }
    }

    /// A small, fast configuration used by tests and `--quick` benches:
    /// 10 rounds, a tenth-scale synthetic dataset and an MLP with hidden
    /// layers of 32 and 16 units.
    pub fn quick(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            dataset_scale: 0.1,
            model: ModelPreset::Mlp {
                hidden1: 32,
                hidden2: 16,
            },
            rounds: 10,
            batch_size: 32,
            // The quick dataset is tiny, so a slightly larger local learning
            // rate keeps short smoke runs informative.
            local_lr: 0.1,
            ..Default::default()
        }
    }

    /// Number of clients selected each round (`max(1, round(N · C))`).
    pub fn clients_per_round(&self) -> usize {
        ((self.num_clients as f64 * self.participation).round() as usize).clamp(1, self.num_clients)
    }

    /// The uplink codec override as one label: the adaptive policy, the
    /// layer plan or the flat spec, whichever is set (they are mutually
    /// exclusive), or `""` for the algorithm's own codec.
    pub fn codec_label(&self) -> String {
        match (
            &self.adaptive_plan,
            &self.layer_compressors,
            &self.compressor,
        ) {
            (Some(policy), _, _) => policy.to_string(),
            (None, Some(plan), _) => plan.to_string(),
            (None, None, spec) => spec.as_ref().map(ToString::to_string).unwrap_or_default(),
        }
    }

    /// Validate parameter ranges, codec specs, the scenario and the codec
    /// knobs' combinations against the built-in codecs, returning a
    /// description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        self.compile(&CodecRegistry::with_builtins()).map(drop)
    }

    /// Check the configuration and derive, once, what a session is built
    /// from: each leg's codec plan, resolvable through `registry`, and the
    /// scenario's fleet. [`crate::session::SessionBuilder::build`] adopts the
    /// result; [`validate`](Self::validate) drops it. Every configuration
    /// this accepts builds a session that runs.
    pub(crate) fn compile(&self, registry: &CodecRegistry) -> Result<CompiledConfig, String> {
        if self.num_clients == 0 {
            return Err("num_clients must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.participation) || self.participation == 0.0 {
            return Err("participation must be in (0, 1]".into());
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
        }
        if self.local_epochs == 0 {
            return Err("local_epochs must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        match self.model {
            ModelPreset::Mlp { hidden1: 0, .. } => {
                return Err("Mlp hidden1 must be positive".into())
            }
            ModelPreset::Mlp { hidden2: 0, .. } => {
                return Err("Mlp hidden2 must be positive".into())
            }
            _ => {}
        }
        if !(self.compression_ratio > 0.0 && self.compression_ratio <= 1.0) {
            return Err("compression_ratio must be in (0, 1]".into());
        }
        // Every comparison below is false for NaN, and `is_finite` also
        // rejects the infinities (β = +∞ would hang the Gamma sampler).
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.beta) {
            return Err("beta must be positive and finite".into());
        }
        if !positive(self.alpha) {
            return Err("alpha must be positive and finite".into());
        }
        if !(self.gamma.is_finite() && self.gamma >= 1.0) {
            return Err("gamma must be finite and >= 1".into());
        }
        if self.overlap_threshold == 0 {
            return Err("overlap_threshold must be positive".into());
        }
        if !(positive(self.local_lr.into()) && positive(self.server_lr.into())) {
            return Err("learning rates must be positive and finite".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err("momentum must be in [0, 1)".into());
        }
        if !(self.weight_decay.is_finite() && self.weight_decay >= 0.0) {
            return Err("weight_decay must be finite and non-negative".into());
        }
        // `DatasetPreset::spec` clamps to this range; outside it two scales
        // would build one dataset under two names.
        if !(0.01..=10.0).contains(&self.dataset_scale) {
            return Err("dataset_scale must be in [0.01, 10]".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be positive".into());
        }
        self.links
            .validate()
            .map_err(|e| format!("invalid links: {e}"))?;
        // Building is the one check: it validates the parameters, rejects
        // towers beyond the fleet and opens a trace file to match its header.
        let fleet = self
            .scenario
            .as_ref()
            .map(|spec| build_scenario(self, spec))
            .transpose()?
            .map(|scenario| FleetState::new(scenario, self.num_clients));
        let (uplink, downlink) = self.codec_plans(registry)?;
        Ok(CompiledConfig {
            registry: registry.clone(),
            uplink,
            downlink,
            fleet,
        })
    }

    /// The codec fields' mutual exclusions, then each leg's one plan
    /// ([`uplink_plan`], [`downlink_plan`]): every rule resolvable through
    /// `registry` and every model segment covered — a validation error, not
    /// a construction panic. On the uplink, whose updates the overlap
    /// machinery reads, no rule may be a pure quantizer under OPWA or
    /// `record_overlap`, and a BCRS algorithm needs at least one segment
    /// whose rule reads the ratio it schedules; a flat `compressor` spec is
    /// its uniform plan's one rule.
    fn codec_plans(
        &self,
        registry: &CodecRegistry,
    ) -> Result<(LayerPlan, Option<LayerPlan>), String> {
        if self.layer_compressors.is_some() && self.compressor.is_some() {
            return Err(
                "layer_compressors and compressor are mutually exclusive: a layer plan \
                 is the uplink codec assignment (use a uniform \"*=<spec>\" plan for a \
                 single codec)"
                    .into(),
            );
        }
        if self.adaptive_plan.is_some()
            && (self.compressor.is_some() || self.layer_compressors.is_some())
        {
            return Err("adaptive_plan is mutually exclusive with compressor and \
                 layer_compressors: the plan policy owns the uplink codec \
                 assignment (set a fixed plan through layer_compressors alone)"
                .into());
        }
        if self.downlink_layer_compressors.is_some() && self.downlink_compressor.is_some() {
            return Err(
                "downlink_layer_compressors and downlink_compressor are mutually \
                 exclusive: a downlink layer plan is the broadcast codec assignment \
                 (use a uniform \"*=<spec>\" plan for a single codec)"
                    .into(),
            );
        }
        let (uplink, downlink) = (uplink_plan(self), downlink_plan(self));
        let segments = self.model.segment_names();
        let legs = [("uplink", Some(&uplink)), ("downlink", downlink.as_ref())];
        for (leg, plan) in legs {
            let Some(plan) = plan else { continue };
            plan.validate(registry)
                .map_err(|e| format!("invalid {leg} plan {plan}: {e}"))?;
            if let Some(name) = segments.iter().find(|name| plan.spec_for(name).is_none()) {
                return Err(format!(
                    "{leg} plan {plan} leaves segment {name:?} without a matching rule \
                     (add a catch-all \"*=<spec>\")"
                ));
            }
        }
        for rule in &uplink.rules {
            if rule.spec.produces_dense() && self.algorithm.uses_opwa() {
                return Err(format!(
                    "algorithm {} applies the OPWA overlap mask, but uplink rule \
                     {}={} never sparsifies, so there is nothing to overlap-weight",
                    self.algorithm.name(),
                    rule.pattern,
                    rule.spec
                ));
            }
            if rule.spec.produces_dense() && self.record_overlap {
                return Err(format!(
                    "record_overlap is set, but uplink rule {}={} never \
                     sparsifies, so there is nothing to overlap-weight",
                    rule.pattern, rule.spec
                ));
            }
        }
        // With no ratio read anywhere, the BCRS schedule changes no byte and
        // its Eq. 6 coefficients `α · f_i / max(f_i, Norm(CR_i))` only
        // inflate the aggregated step.
        if self.algorithm.ratio_rule() == RatioRule::Bcrs
            && segments.iter().all(|name| {
                uplink
                    .spec_for(name)
                    .is_some_and(CompressorSpec::ignores_ratio)
            })
        {
            return Err(format!(
                "algorithm {} schedules per-client compression ratios, but every \
                 segment's rule in uplink plan {uplink} ignores the ratio (use a \
                 ratio-driven codec such as topk, or an algorithm with a uniform ratio)",
                self.algorithm.name()
            ));
        }
        Ok((uplink, downlink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = ExperimentConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_clients, 10);
        assert_eq!(c.rounds, 200);
        assert_eq!(c.local_epochs, 1);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.clients_per_round(), 5);
    }

    #[test]
    fn quick_config_is_valid() {
        assert!(ExperimentConfig::quick(Algorithm::TopK).validate().is_ok());
    }

    #[test]
    fn clients_per_round_bounds() {
        let mut c = ExperimentConfig {
            num_clients: 20,
            participation: 0.5,
            ..Default::default()
        };
        assert_eq!(c.clients_per_round(), 10);
        c.participation = 0.01;
        assert_eq!(c.clients_per_round(), 1);
        c.participation = 1.0;
        assert_eq!(c.clients_per_round(), 20);
    }

    #[test]
    fn validation_catches_bad_values() {
        // The last three would otherwise panic in round 0: the OPWA mask's
        // threshold and a matmul over a zero-width layer.
        fn mlp(hidden1: usize, hidden2: usize) -> ModelPreset {
            ModelPreset::Mlp { hidden1, hidden2 }
        }
        type Set = fn(&mut ExperimentConfig);
        let rows: [(Set, &str); 8] = [
            (
                |c| c.compression_ratio = 0.0,
                "compression_ratio must be in (0, 1]",
            ),
            (|c| c.gamma = 0.5, "gamma must be finite and >= 1"),
            (|c| c.participation = 0.0, "participation must be in (0, 1]"),
            (|c| c.rounds = 0, "rounds must be positive"),
            (|c| c.eval_every = 0, "eval_every must be positive"),
            (
                |c| c.overlap_threshold = 0,
                "overlap_threshold must be positive",
            ),
            (|c| c.model = mlp(0, 64), "Mlp hidden1 must be positive"),
            (|c| c.model = mlp(128, 0), "Mlp hidden2 must be positive"),
        ];
        for (set, message) in rows {
            let mut c = ExperimentConfig::default();
            set(&mut c);
            assert_eq!(c.validate().unwrap_err(), message);
        }
    }

    #[test]
    fn scenario_knobs_default_to_paper_behaviour() {
        let c = ExperimentConfig::default();
        assert_eq!(c.eval_every, 1);
        let c = ExperimentConfig {
            eval_every: 5,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scenario_knob_defaults_to_none_and_is_validated() {
        let c = ExperimentConfig::default();
        assert!(c.scenario.is_none());
        let good = ExperimentConfig {
            scenario: Some("diurnal".parse().unwrap()),
            ..Default::default()
        };
        assert!(good.validate().is_ok());
        // Out-of-range parameters are caught with a pointed message (a spec
        // constructed directly — the string form rejects these at parse time).
        let bad = ExperimentConfig {
            scenario: Some(ScenarioSpec::Diurnal {
                period: 8.0,
                min_up: 0.9,
                max_up: 0.1,
            }),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("invalid scenario spec"), "{err}");
    }

    #[test]
    fn towers_groups_beyond_the_fleet_are_rejected() {
        let towers = |num_clients: usize, spec: &str| ExperimentConfig {
            num_clients,
            scenario: Some(spec.parse().unwrap()),
            ..Default::default()
        };
        for groups in ["100000000000", "18446744073709551615"] {
            let err = towers(16, &format!("towers:groups={groups}"))
                .validate()
                .unwrap_err();
            assert!(err.contains("groups"), "{err}");
        }
        assert!(towers(16, "towers:groups=17").validate().is_err());
        assert!(towers(16, "towers:groups=16").validate().is_ok());
        // The `engine/towers` fingerprint row and the `scenarios` figure.
        assert!(towers(16, "towers").validate().is_ok());
        assert!(towers(32, "towers:groups=4").validate().is_ok());
        // A trace spec fails here, not when the session builds: a missing
        // file, and a 16-client recording under a 10-client fleet.
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/towers_n16_seed7.trace"
        );
        for spec in [
            "trace:/nonexistent.trace".to_string(),
            format!("trace:{fixture}"),
        ] {
            let err = towers(10, &spec).validate().unwrap_err();
            assert!(err.contains("invalid scenario spec"), "{err}");
        }
        let mut replay = ExperimentConfig::quick(Algorithm::TopK);
        replay.num_clients = 16;
        replay.scenario = Some(format!("trace:{fixture}").parse().unwrap());
        assert!(replay.validate().is_ok());
        crate::FederatedSession::from_config(&replay).run_round();
    }

    #[test]
    fn codec_knobs_default_to_paper_behaviour() {
        let c = ExperimentConfig::default();
        assert_eq!(c.compressor, None);
        assert_eq!(c.downlink_compressor, None);
        assert_eq!(c.cost_basis, CostBasis::Analytic);
    }

    #[test]
    fn downlink_spec_is_validated_but_exempt_from_overlap_rules() {
        // Unresolvable downlink specs fail validation with a pointed message.
        let bad = ExperimentConfig {
            downlink_compressor: Some("no-such-codec".parse().unwrap()),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("downlink"), "{err}");
        // A dense-decoding broadcast codec is fine even under OPWA — the
        // overlap machinery analyses the *uplink* updates only.
        let dense_downlink = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            downlink_compressor: Some("qsgd:8".parse().unwrap()),
            ..Default::default()
        };
        assert!(dense_downlink.validate().is_ok());
        // EF broadcast codecs validate too.
        let ef = ExperimentConfig {
            downlink_compressor: Some("ef-topk".parse().unwrap()),
            cost_basis: CostBasis::Encoded,
            ..Default::default()
        };
        assert!(ef.validate().is_ok());
    }

    #[test]
    fn compressor_override_is_validated() {
        let good = ExperimentConfig {
            compressor: Some("topk+qsgd:4".parse().unwrap()),
            cost_basis: CostBasis::Encoded,
            ..Default::default()
        };
        assert!(good.validate().is_ok());
        // Parseable but unresolvable specs are caught at validation time.
        let bad = ExperimentConfig {
            compressor: Some("no-such-codec".parse().unwrap()),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("no-such-codec"), "{err}");
    }

    #[test]
    fn a_quantizer_first_composition_fails_validation_not_round_zero() {
        let config = ExperimentConfig {
            compressor: Some("qsgd:4+qsgd:4".parse().unwrap()),
            ..Default::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.contains("unsupported codec composition"), "{err}");
    }

    #[test]
    fn dense_codecs_cannot_pair_with_overlap_machinery() {
        // Pure quantizers never sparsify — there is nothing to overlap-weight,
        // so OPWA algorithms and overlap recording reject them up front.
        let opwa = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            compressor: Some("qsgd:8".parse().unwrap()),
            ..Default::default()
        };
        assert!(opwa.validate().unwrap_err().contains("OPWA"));
        let recording = ExperimentConfig {
            algorithm: Algorithm::TopK,
            record_overlap: true,
            compressor: Some("qsgd:8".parse().unwrap()),
            ..Default::default()
        };
        assert!(recording.validate().unwrap_err().contains("record_overlap"));
        // The composed sparsify+quantize form keeps overlap structure.
        let composed = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            compressor: Some("topk+qsgd:4".parse().unwrap()),
            ..Default::default()
        };
        assert!(composed.validate().is_ok());
    }

    #[test]
    fn layer_plan_knob_is_validated() {
        // A well-formed plan with resolvable specs passes.
        let good = ExperimentConfig {
            algorithm: Algorithm::TopK,
            layer_compressors: Some("*.bias=dense;*=topk".parse().unwrap()),
            ..Default::default()
        };
        assert!(good.validate().is_ok());
        // Unresolvable rule specs are caught with a pointed message.
        let bad = ExperimentConfig {
            layer_compressors: Some("*=no-such-codec".parse().unwrap()),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("uplink plan"), "{err}");
        assert!(err.contains("no-such-codec"), "{err}");
    }

    #[test]
    fn layer_plan_without_full_coverage_fails_validation() {
        // A plan that leaves model segments unmatched must fail `validate()`
        // up front — not panic later inside session construction (a sweep
        // worker thread is the worst place to discover it).
        let gap = ExperimentConfig {
            algorithm: Algorithm::TopK,
            layer_compressors: Some("conv*=topk".parse().unwrap()),
            ..Default::default()
        };
        let err = gap.validate().unwrap_err();
        assert!(err.contains("without a matching rule"), "{err}");
        assert!(err.contains("linear0"), "{err}");
        // Preset segment names follow the architecture.
        assert_eq!(
            ModelPreset::default_mlp().segment_names(),
            [
                "linear0.weight",
                "linear0.bias",
                "linear1.weight",
                "linear1.bias",
                "linear2.weight",
                "linear2.bias",
            ]
        );
        assert_eq!(
            ModelPreset::Linear.segment_names(),
            ["linear0.weight", "linear0.bias"]
        );
    }

    #[test]
    fn layer_plan_is_mutually_exclusive_with_the_flat_compressor() {
        let both = ExperimentConfig {
            algorithm: Algorithm::TopK,
            compressor: Some("topk".parse().unwrap()),
            layer_compressors: Some("*=topk".parse().unwrap()),
            ..Default::default()
        };
        let err = both.validate().unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn layer_plan_dense_rules_cannot_pair_with_overlap_machinery() {
        // Per-rule restriction: a quantizer rule anywhere in the plan is
        // rejected under OPWA algorithms and overlap recording …
        let opwa = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            layer_compressors: Some("conv*=topk;*=qsgd:8".parse().unwrap()),
            ..Default::default()
        };
        assert!(opwa.validate().unwrap_err().contains("OPWA"));
        let recording = ExperimentConfig {
            algorithm: Algorithm::TopK,
            record_overlap: true,
            layer_compressors: Some("*.bias=qsgd:4;*=topk".parse().unwrap()),
            ..Default::default()
        };
        assert!(recording.validate().unwrap_err().contains("record_overlap"));
        // … while every other plan (the raw-f32 "dense" codec included)
        // keeps the overlap structure.
        let sparse = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            layer_compressors: Some("*.bias=dense;*=topk+qsgd:4".parse().unwrap()),
            ..Default::default()
        };
        assert!(sparse.validate().is_ok());
    }

    #[test]
    fn downlink_layer_plan_is_validated_per_rule_with_opwa_exemption() {
        // Satellite bugfix: the downlink plan gets the same per-rule registry
        // and coverage validation as uplink plans …
        let bad = ExperimentConfig {
            downlink_layer_compressors: Some("*=no-such-codec".parse().unwrap()),
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("downlink plan"), "{err}");
        let gap = ExperimentConfig {
            downlink_layer_compressors: Some("conv*=topk".parse().unwrap()),
            ..Default::default()
        };
        let err = gap.validate().unwrap_err();
        assert!(err.contains("downlink plan"), "{err}");
        assert!(err.contains("without a matching rule"), "{err}");
        // … while only the OPWA exemption stays: dense-decoding broadcast
        // rules are fine even under OPWA algorithms.
        let dense = ExperimentConfig {
            algorithm: Algorithm::BcrsOpwa,
            downlink_layer_compressors: Some("*.bias=qsgd:8;*=ef-topk".parse().unwrap()),
            cost_basis: CostBasis::Encoded,
            ..Default::default()
        };
        assert!(dense.validate().is_ok());
        // Mutually exclusive with the flat downlink codec.
        let both = ExperimentConfig {
            downlink_compressor: Some("topk".parse().unwrap()),
            downlink_layer_compressors: Some("*=topk".parse().unwrap()),
            ..Default::default()
        };
        let err = both.validate().unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn adaptive_plan_knob_is_validated() {
        let c = ExperimentConfig::default();
        assert!(c.adaptive_plan.is_none());
        let good = ExperimentConfig {
            algorithm: Algorithm::TopK,
            adaptive_plan: Some("layer-bcrs".parse().unwrap()),
            cost_basis: CostBasis::Encoded,
            ..Default::default()
        };
        assert!(good.validate().is_ok());
        // Mutually exclusive with both fixed uplink codec knobs.
        let with_compressor = ExperimentConfig {
            algorithm: Algorithm::TopK,
            compressor: Some("topk".parse().unwrap()),
            adaptive_plan: Some("layer-bcrs".parse().unwrap()),
            ..Default::default()
        };
        assert!(with_compressor
            .validate()
            .unwrap_err()
            .contains("mutually exclusive"));
        let with_plan = ExperimentConfig {
            algorithm: Algorithm::TopK,
            layer_compressors: Some("*=topk".parse().unwrap()),
            adaptive_plan: Some("layer-bcrs".parse().unwrap()),
            ..Default::default()
        };
        assert!(with_plan
            .validate()
            .unwrap_err()
            .contains("mutually exclusive"));
    }

    #[test]
    fn bcrs_needs_an_uplink_rule_that_reads_the_ratio() {
        let with = |algorithm, compressor: Option<&str>, plan: Option<&str>| ExperimentConfig {
            algorithm,
            compressor: compressor.map(|s| s.parse().unwrap()),
            layer_compressors: plan.map(|s| s.parse().unwrap()),
            ..ExperimentConfig::quick(algorithm)
        };
        let err = with(Algorithm::Bcrs, Some("qsgd:2"), None)
            .validate()
            .unwrap_err();
        assert!(err.contains("*=qsgd:2"), "{err}");
        assert!(err.contains("ignores the ratio"), "{err}");
        let err = with(Algorithm::Bcrs, None, Some("*.bias=dense;*=threshold:0.01"))
            .validate()
            .unwrap_err();
        assert!(err.contains("ignores the ratio"), "{err}");
        // One segment whose rule reads the ratio is enough …
        assert!(with(Algorithm::Bcrs, None, Some("*.bias=dense;*=topk"))
            .validate()
            .is_ok());
        // … and a uniform ratio has nothing to schedule.
        assert!(with(Algorithm::TopK, Some("qsgd:2"), None)
            .validate()
            .is_ok());
    }

    #[test]
    fn non_finite_and_out_of_range_values_fail_validation() {
        type Set = fn(&mut ExperimentConfig, f64);
        let fields: [(&str, Set); 8] = [
            ("beta", |c, x| c.beta = x),
            ("alpha", |c, x| c.alpha = x),
            ("gamma", |c, x| c.gamma = x as f32),
            ("local_lr", |c, x| c.local_lr = x as f32),
            ("server_lr", |c, x| c.server_lr = x as f32),
            ("dataset_scale", |c, x| c.dataset_scale = x),
            ("momentum", |c, x| c.momentum = x as f32),
            ("weight_decay", |c, x| c.weight_decay = x as f32),
        ];
        assert!(ExperimentConfig::quick(Algorithm::TopK).validate().is_ok());
        for (name, set) in fields {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut c = ExperimentConfig::quick(Algorithm::TopK);
                set(&mut c, x);
                assert!(c.validate().is_err(), "{name} = {x} validated");
            }
        }
        let mean_bw: Set = |c, x| c.links.bandwidth_mean_mbps = x;
        let latency_lo: Set = |c, x| c.links.latency_lo_ms = x;
        for (name, set, x) in [
            ("momentum", fields[6].1, 1.0),
            ("momentum", fields[6].1, -0.1),
            ("weight_decay", fields[7].1, -1e-4),
            ("links.bandwidth_mean_mbps", mean_bw, f64::NAN),
            ("links.latency_lo_ms", latency_lo, -10.0),
            ("dataset_scale", fields[5].1, 20.0),
            ("dataset_scale", fields[5].1, 0.001),
            ("dataset_scale", fields[5].1, 0.0),
        ] {
            let mut c = ExperimentConfig::quick(Algorithm::TopK);
            set(&mut c, x);
            assert!(c.validate().is_err(), "{name} = {x} validated");
        }
        let mut c = ExperimentConfig::quick(Algorithm::TopK);
        c.dataset_scale = 20.0;
        assert_eq!(
            c.validate().unwrap_err(),
            "dataset_scale must be in [0.01, 10]"
        );
        for x in [0.01, 10.0] {
            c.dataset_scale = x;
            assert!(c.validate().is_ok(), "dataset_scale = {x} rejected");
        }
    }

    #[test]
    fn paper_setting_overrides() {
        let c =
            ExperimentConfig::paper_setting(Algorithm::TopK, DatasetPreset::SvhnLike, 0.1, 0.01);
        assert_eq!(c.algorithm, Algorithm::TopK);
        assert_eq!(c.beta, 0.1);
        assert_eq!(c.compression_ratio, 0.01);
    }
}
