//! The per-round rules of the [`crate::session::FederatedSession`] round
//! engine, as plain functions of the configuration and the round's inputs:
//!
//! * [`select_cohort`] — who participates (Alg. 1 line 3): uniform sampling
//!   without replacement from the scenario's reachable clients (all `N` on
//!   the paper's static fleet);
//! * [`assign_ratios`] — each selected client's compression ratio, by the
//!   algorithm's [`RatioRule`]: 1 when dense, the base ratio when uniform,
//!   the BCRS schedule (Alg. 2) otherwise;
//! * [`layer_bcrs_plan`] — the per-layer codec plan the cohort encodes
//!   under when [`ExperimentConfig::adaptive_plan`] is set, re-split every
//!   round by observed gradient mass and checked against the BCRS straggler
//!   envelope;
//! * [`uplink_plan`] / [`downlink_plan`] — the one [`LayerPlan`] each leg's
//!   codec fields resolve to.

use crate::algorithm::RatioRule;
use crate::bcrs::{BcrsSchedule, BcrsScheduler};
use crate::config::ExperimentConfig;
use fl_compress::{CompressorSpec, LayerPlan, SegmentDef, SpecError};
use fl_netsim::{CommModel, Link};
use fl_tensor::rng::{Rng, Xoshiro256};

/// Draw a round's cohort of at most `cohort` distinct client ids.
///
/// The pool is `active` (the scenario's reachable clients, ascending) or,
/// without a scenario, all `num_clients` clients: the scenario is the one
/// availability mechanism. The cohort is drawn uniformly without
/// replacement from the pool, shrinking below `cohort` when too few clients
/// are up; if nobody is, one client is drawn uniformly from all
/// `num_clients`, so a round always has a participant.
///
/// Without a scenario this is one partial Fisher–Yates over `N` indices —
/// O(N) per round, and only the selected clients are ever materialised. A
/// pool holding every client draws exactly alike.
pub fn select_cohort(
    rng: &mut Xoshiro256,
    num_clients: usize,
    cohort: usize,
    active: Option<Vec<usize>>,
) -> Vec<usize> {
    let Some(pool) = active else {
        return rng.sample_without_replacement(num_clients, cohort);
    };
    if pool.is_empty() {
        return vec![rng.next_below(num_clients)];
    }
    rng.sample_without_replacement(pool.len(), cohort.min(pool.len()))
        .into_iter()
        .map(|i| pool[i])
        .collect()
}

/// Each selected client's compression ratio, in cohort order (one per entry
/// of `links`), and the BCRS schedule when the algorithm schedules ratios
/// (used for Eq. 6 coefficient adjustment).
///
/// A [`RatioRule::Dense`] algorithm transmits at ratio 1.0, a
/// [`RatioRule::Uniform`] one at `config.compression_ratio` for everyone, and
/// [`RatioRule::Bcrs`] gives every client the largest ratio that still
/// finishes within the slowest client's compressed upload time (Alg. 2).
pub fn assign_ratios(
    config: &ExperimentConfig,
    comm: CommModel,
    links: &[Link],
    model_bytes: f64,
) -> (Vec<f64>, Option<BcrsSchedule>) {
    match config.algorithm.ratio_rule() {
        RatioRule::Dense => (vec![1.0; links.len()], None),
        RatioRule::Uniform => (vec![config.compression_ratio; links.len()], None),
        RatioRule::Bcrs => {
            let schedule =
                BcrsScheduler::new(comm).schedule(links, model_bytes, config.compression_ratio);
            (schedule.ratios.clone(), Some(schedule))
        }
    }
}

/// The flat codec spec a configuration resolves to: the explicit
/// [`ExperimentConfig::compressor`] override when present, the algorithm's
/// [`crate::Algorithm::codec_spec`] otherwise.
pub fn resolve_codec_spec(config: &ExperimentConfig) -> CompressorSpec {
    config
        .compressor
        .clone()
        .unwrap_or_else(|| config.algorithm.codec_spec())
}

/// The one plan the clients' uplink codecs resolve from:
/// [`ExperimentConfig::layer_compressors`], else the uniform plan over
/// [`resolve_codec_spec`] (which [`LayerPlan::resolve`] collapses to that
/// flat codec, bit for bit). A `layer-bcrs` policy replaces it round by
/// round.
pub fn uplink_plan(config: &ExperimentConfig) -> LayerPlan {
    config
        .layer_compressors
        .clone()
        .unwrap_or_else(|| LayerPlan::uniform(resolve_codec_spec(config)))
}

/// The one plan the server's broadcast codec resolves from, when the
/// downlink leg is simulated: [`ExperimentConfig::downlink_compressor`] as a
/// uniform plan, else [`ExperimentConfig::downlink_layer_compressors`].
pub fn downlink_plan(config: &ExperimentConfig) -> Option<LayerPlan> {
    match &config.downlink_compressor {
        Some(spec) => Some(LayerPlan::uniform(spec.clone())),
        None => config.downlink_layer_compressors.clone(),
    }
}

/// Parseable description of the adaptive per-layer plan (the
/// [`ExperimentConfig::adaptive_plan`] knob and the bench harness
/// `--adaptive-plan` flag).
///
/// Grammar (round-trips through `Display`): `layer-bcrs` or
/// `layer-bcrs:efficiency=<f>` — the telemetry-driven [`layer_bcrs_plan`];
/// `efficiency ∈ (0, 1]` defaults to
/// [`AdaptivePlanSpec::DEFAULT_EFFICIENCY`]. A fixed per-layer plan is not a
/// policy: it is [`ExperimentConfig::layer_compressors`].
#[derive(Clone, Debug, PartialEq)]
pub enum AdaptivePlanSpec {
    /// Mass-proportional per-layer budgets through the BCRS scheduler.
    LayerBcrs {
        /// Fraction of the uniform plan's coordinate budget the allocator
        /// spends, in `(0, 1]`. Keeping it below 1 is what guarantees a
        /// strict uplink-byte win over the uniform plan at the same base
        /// ratio.
        efficiency: f64,
    },
}

impl AdaptivePlanSpec {
    /// Default budget fraction of [`AdaptivePlanSpec::LayerBcrs`].
    pub const DEFAULT_EFFICIENCY: f64 = 0.9;

    /// Short policy name (`"layer-bcrs"`).
    pub fn name(&self) -> &'static str {
        "layer-bcrs"
    }
}

impl std::str::FromStr for AdaptivePlanSpec {
    type Err = SpecError;

    /// Parse a spec string (`"layer-bcrs"`, `"layer-bcrs:efficiency=0.8"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        if trimmed.starts_with("static:") {
            return Err(SpecError::Parse(format!(
                "{s}: a fixed layer plan is set through layer_compressors, not adaptive_plan"
            )));
        }
        let (head, opts) = match trimmed.split_once(':') {
            Some((head, opts)) => (head, Some(opts)),
            None => (trimmed, None),
        };
        if head != "layer-bcrs" {
            return Err(SpecError::Parse(s.to_string()));
        }
        let mut efficiency = Self::DEFAULT_EFFICIENCY;
        if let Some(opts) = opts {
            for kv in opts.split(',') {
                match kv.split_once('=') {
                    Some(("efficiency", v)) => {
                        efficiency = v
                            .trim()
                            .parse()
                            .map_err(|_| SpecError::Parse(s.to_string()))?;
                    }
                    _ => return Err(SpecError::Parse(s.to_string())),
                }
            }
        }
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(SpecError::Parse(s.to_string()));
        }
        Ok(Self::LayerBcrs { efficiency })
    }
}

impl std::fmt::Display for AdaptivePlanSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LayerBcrs { efficiency } => {
                if *efficiency == Self::DEFAULT_EFFICIENCY {
                    write!(f, "layer-bcrs")
                } else {
                    write!(f, "layer-bcrs:efficiency={efficiency}")
                }
            }
        }
    }
}

/// What a round's plan decision reads: the model's segment layout, the
/// round's cohort links and the previous round's gradient mass.
pub struct PlanCtx<'a> {
    /// The model's parameter segments (names + lengths, layout order) — the
    /// `fl-nn` `ParamLayout` bridged through [`SegmentDef`].
    pub segments: &'a [SegmentDef],
    /// Links of the *selected* clients, in cohort order.
    pub links: &'a [Link],
    /// Dense model size in bytes (`V` of the communication model).
    pub model_bytes: f64,
    /// The run's base compression ratio `CR*`.
    pub base_ratio: f64,
    /// Previous round's per-segment gradient mass — the L1 norm of the
    /// aggregated delta restricted to each segment, in layout order (`None`
    /// on round 0).
    pub gradient_mass: Option<&'a [f64]>,
}

/// One segment's resolved assignment inside a [`PlanDecision`] — recorded
/// into the round telemetry so per-layer decisions are inspectable.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanAssignment {
    /// Segment name (`linear0.weight`, …).
    pub segment: String,
    /// The codec spec string assigned to the segment (`ef-topk+qsgd:8`, …).
    pub spec: String,
    /// The effective compression ratio the segment encodes at when a client
    /// uploads at the cohort base ratio.
    pub ratio: f64,
}

/// A round's plan decision.
pub struct PlanDecision {
    /// The plan the cohort's codecs resolve against this round.
    pub plan: LayerPlan,
    /// Per-segment multipliers on each client's assigned ratio, in layout
    /// order; the plan resolves through `LayerPlan::resolve_scaled`, so its
    /// frames are always segment-framed.
    pub scales: Vec<f64>,
    /// The resolved per-segment assignments, for telemetry.
    pub assignments: Vec<PlanAssignment>,
}

/// Normalized per-segment weights [`layer_bcrs_plan`] splits the round's
/// coordinate budget by: the observed per-segment gradient mass when it is
/// usable — one finite, non-negative entry per segment with a positive
/// finite sum — and segment lengths otherwise (round 0, a dead model, or a
/// diverging run whose aggregate overflowed).
pub fn plan_weights(lens: &[usize], gradient_mass: Option<&[f64]>) -> Vec<f64> {
    assert!(!lens.is_empty(), "plan weights need at least one segment");
    let usable = |m: &&[f64]| {
        let sum: f64 = m.iter().sum();
        m.len() == lens.len()
            && m.iter().all(|x| x.is_finite() && *x >= 0.0)
            && sum > 0.0
            && sum.is_finite()
    };
    let raw: Vec<f64> = match gradient_mass.filter(usable) {
        Some(mass) => mass.to_vec(),
        None => lens.iter().map(|&l| l as f64).collect(),
    };
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Split the round's coordinate budget — `efficiency · base_ratio · Σ len`
/// coordinates — across segments in proportion to `weights`, flooring every
/// segment at one coordinate and capping at the segment length.
///
/// The floor keeps tiny budgets valid (a budget smaller than one coordinate
/// per segment still ships one coordinate per segment — the per-segment
/// framing overhead is the price of a layer-aware plan, not this
/// allocator's concern), and the cap stops a dominant segment from being
/// "compressed" above dense.
pub fn allocate_layer_budgets(
    lens: &[usize],
    weights: &[f64],
    base_ratio: f64,
    efficiency: f64,
) -> Vec<usize> {
    assert_eq!(lens.len(), weights.len(), "one weight per segment");
    assert!(!lens.is_empty(), "budget allocation needs segments");
    assert!(
        base_ratio > 0.0 && base_ratio <= 1.0,
        "base ratio must be in (0, 1], got {base_ratio}"
    );
    assert!(
        efficiency > 0.0 && efficiency <= 1.0,
        "efficiency must be in (0, 1], got {efficiency}"
    );
    let total: usize = lens.iter().sum();
    let wsum: f64 = weights.iter().sum();
    let budget = efficiency * base_ratio * total as f64;
    lens.iter()
        .zip(weights.iter())
        .map(|(&len, &w)| (((w / wsum) * budget).floor() as usize).clamp(1, len.max(1)))
        .collect()
}

/// The `layer-bcrs` decision: spend the bandwidth budget where the gradient
/// mass is, layer by layer, round by round.
///
/// It (1) splits `efficiency · CR* · num_params` coordinates across segments
/// in proportion to the previous round's per-segment gradient mass
/// ([`plan_weights`] / [`allocate_layer_budgets`]; segment lengths stand in
/// on round 0), (2) runs the [`BcrsScheduler`] over `comm` for each layer's
/// byte budget and trims any layer whose straggler upload time would exceed
/// its mass-proportional share of the uniform plan's BCRS envelope, and (3)
/// assigns `qsgd` bit widths by mass rank — the heaviest third of segments
/// quantize at 8 bits, the middle at 6, the lightest at 4 — emitting one
/// exact-name `<segment>=ef-topk+qsgd:<bits>` rule per segment plus
/// per-segment ratio scales.
pub fn layer_bcrs_plan(ctx: &PlanCtx<'_>, comm: CommModel, efficiency: f64) -> PlanDecision {
    let n = ctx.segments.len();
    assert!(n > 0, "a plan decision needs at least one segment");
    let scheduler = BcrsScheduler::new(comm);
    let lens: Vec<usize> = ctx.segments.iter().map(|s| s.len).collect();
    let weights = plan_weights(&lens, ctx.gradient_mass);
    let budgets = allocate_layer_budgets(&lens, &weights, ctx.base_ratio, efficiency);

    // Bit widths by mass rank: heaviest third 8 bits, middle 6, rest 4.
    // Ties break on layout order so the decision is deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let mut bits = vec![4u8; n];
    for (rank, &i) in order.iter().enumerate() {
        bits[i] = if rank * 3 < n {
            8
        } else if rank * 3 < 2 * n {
            6
        } else {
            4
        };
    }

    // The straggler envelope the uniform plan would spend: any layer whose
    // slowest-client upload time exceeds its mass share of it gets trimmed
    // back, so the adaptive plan never worsens the round's straggler beyond
    // BCRS's own discipline.
    let envelope = (!ctx.links.is_empty())
        .then(|| {
            scheduler
                .schedule(ctx.links, ctx.model_bytes, ctx.base_ratio)
                .t_bench
        })
        .filter(|t| *t > 0.0);

    let mut rules = String::new();
    let mut scales = Vec::with_capacity(n);
    let mut assignments = Vec::with_capacity(n);
    for (i, seg) in ctx.segments.iter().enumerate() {
        let len = seg.len.max(1);
        let floor = 1.0 / len as f64;
        let mut ratio = budgets[i] as f64 / len as f64;
        if let Some(envelope) = envelope {
            let layer_bytes = len as f64 * 4.0;
            let straggler = scheduler
                .schedule(ctx.links, layer_bytes, ratio.clamp(floor, 1.0))
                .t_bench;
            let share = weights[i] * envelope;
            if straggler > share && straggler > 0.0 {
                ratio = (ratio * share / straggler).clamp(floor, 1.0);
            }
        }
        let ratio = ratio.clamp(floor, 1.0);
        let spec = format!("ef-topk+qsgd:{}", bits[i]);
        if i > 0 {
            rules.push(';');
        }
        rules.push_str(&seg.name);
        rules.push('=');
        rules.push_str(&spec);
        scales.push(ratio / ctx.base_ratio);
        assignments.push(PlanAssignment {
            segment: seg.name.clone(),
            spec,
            ratio,
        });
    }
    let plan = LayerPlan::parse(&rules).expect("generated rules always parse");
    PlanDecision {
        plan,
        scales,
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;

    fn links(n: usize) -> Vec<Link> {
        (0..n)
            .map(|i| Link::from_mbps_ms(1.0 + i as f64, 50.0))
            .collect()
    }

    /// Half of a 10-client fleet, the quick config's cohort.
    fn draw(rng: &mut Xoshiro256, active: Option<Vec<usize>>) -> Vec<usize> {
        select_cohort(rng, 10, 5, active)
    }

    fn assert_valid_cohort(picked: &[usize], cohort: usize, num_clients: usize) {
        assert!(!picked.is_empty() && picked.len() <= cohort);
        assert!(picked.iter().all(|&c| c < num_clients));
        let mut dedup = picked.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), picked.len(), "duplicate client in {picked:?}");
    }

    #[test]
    fn uniform_selector_matches_raw_sampling() {
        // No scenario: one draw over all N — the same draw, and the same
        // stream state after it, as an explicit full pool.
        let mut raw_rng = Xoshiro256::new(99);
        let raw = raw_rng.sample_without_replacement(10, 5);
        for active in [None, Some((0..10).collect())] {
            let mut rng = Xoshiro256::new(99);
            assert_eq!(draw(&mut rng, active), raw);
            assert_eq!(rng, raw_rng);
        }
    }

    #[test]
    fn availability_selector_is_deterministic_and_valid() {
        let up = || Some(vec![0, 2, 3, 5, 6, 8, 9]);
        let mut a = Xoshiro256::new(3);
        let mut b = Xoshiro256::new(3);
        let pa = draw(&mut a, up());
        assert_eq!(pa, draw(&mut b, up()));
        assert_valid_cohort(&pa, 5, 10);
        assert!(pa.iter().all(|c| up().unwrap().contains(c)), "{pa:?}");
    }

    #[test]
    fn availability_selector_shrinks_cohort_under_heavy_dropout() {
        // A scenario that leaves three of ten clients reachable: the cohort
        // is all three, never padded back to five.
        let mut rng = Xoshiro256::new(5);
        for _ in 0..50 {
            let mut picked = draw(&mut rng, Some(vec![1, 4, 8]));
            picked.sort_unstable();
            assert_eq!(picked, [1, 4, 8]);
        }
    }

    #[test]
    fn near_certain_dropout_still_yields_a_participant_every_round() {
        // Regression: when the scenario leaves nobody reachable the round
        // must still produce exactly one valid participant, drawn from the
        // whole fleet — never an empty cohort (which would break the round's
        // straggler max and per-client byte averages downstream) and never
        // a full target-size fallback.
        let mut rng = Xoshiro256::new(17);
        let mut seen = [false; 10];
        for _ in 0..300 {
            let picked = draw(&mut rng, Some(Vec::new()));
            assert_valid_cohort(&picked, 5, 10);
            assert_eq!(picked.len(), 1);
            seen[picked[0]] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "fallback covers the fleet: {seen:?}"
        );
    }

    #[test]
    fn uniform_ratio_decision() {
        let links = links(4);
        let mut c = ExperimentConfig::quick(Algorithm::TopK);
        let comm = CommModel::paper_default();
        let (ratios, schedule) = assign_ratios(&c, comm, &links, 1e5);
        assert_eq!(ratios, vec![c.compression_ratio; 4]);
        assert!(schedule.is_none());
        c.algorithm = Algorithm::FedAvg;
        let (ratios, schedule) = assign_ratios(&c, comm, &links, 1e5);
        assert_eq!(ratios, vec![1.0; 4]);
        assert!(schedule.is_none());
    }

    #[test]
    fn bcrs_policy_produces_schedule() {
        let links = vec![
            Link::from_mbps_ms(4.0, 40.0),
            Link::from_mbps_ms(0.5, 150.0),
        ];
        let mut c = ExperimentConfig::quick(Algorithm::Bcrs);
        c.compression_ratio = 0.05;
        let (ratios, schedule) = assign_ratios(&c, CommModel::paper_default(), &links, 1e5);
        let s = schedule.expect("BCRS must emit a schedule");
        assert_eq!(ratios, s.ratios);
        assert!(ratios[0] > ratios[1], "fast client gets a larger ratio");
    }

    #[test]
    fn codec_specs_follow_algorithm_and_override() {
        assert_eq!(Algorithm::FedAvg.codec_spec().to_string(), "topk");
        assert_eq!(Algorithm::TopK.codec_spec().to_string(), "topk");
        assert_eq!(Algorithm::EfTopK.codec_spec().to_string(), "ef-topk");
        assert_eq!(Algorithm::RandK.codec_spec().to_string(), "randk");
        assert_eq!(Algorithm::Bcrs.codec_spec().to_string(), "topk");
        assert_eq!(Algorithm::BcrsOpwa.codec_spec().to_string(), "topk");
        assert_eq!(Algorithm::TopKOpwa.codec_spec().to_string(), "topk");

        let mut c = ExperimentConfig::quick(Algorithm::EfTopK);
        assert_eq!(resolve_codec_spec(&c).to_string(), "ef-topk");
        c.compressor = Some("qsgd:8".parse().unwrap());
        assert_eq!(resolve_codec_spec(&c).to_string(), "qsgd:8");
    }

    #[test]
    fn defaults_follow_config() {
        // Every uplink codec field lands in one plan; no field set is the
        // algorithm's own codec as a uniform plan.
        let mut c = ExperimentConfig::quick(Algorithm::EfTopK);
        assert_eq!(uplink_plan(&c).to_string(), "*=ef-topk");
        c.compressor = Some("topk+qsgd:4".parse().unwrap());
        assert_eq!(uplink_plan(&c).to_string(), "*=topk+qsgd:4");
        c.compressor = None;
        c.layer_compressors = Some("*.bias=dense;*=topk".parse().unwrap());
        assert_eq!(uplink_plan(&c).to_string(), "*.bias=dense;*=topk");
        c.layer_compressors = None;
        c.adaptive_plan = Some("layer-bcrs".parse().unwrap());
        assert_eq!(uplink_plan(&c).to_string(), "*=ef-topk");

        // The downlink leg exists only when a downlink field is set.
        assert_eq!(downlink_plan(&c), None);
        c.downlink_compressor = Some("ef-topk+qsgd:8".parse().unwrap());
        assert_eq!(downlink_plan(&c).unwrap().to_string(), "*=ef-topk+qsgd:8");
        c.downlink_compressor = None;
        c.downlink_layer_compressors = Some("*.bias=dense;*=ef-topk".parse().unwrap());
        let plan = downlink_plan(&c).unwrap();
        assert_eq!(plan.to_string(), "*.bias=dense;*=ef-topk");
    }

    fn segs(defs: &[(&str, usize)]) -> Vec<SegmentDef> {
        defs.iter().map(|&(n, l)| SegmentDef::new(n, l)).collect()
    }

    fn plan_ctx<'a>(
        segments: &'a [SegmentDef],
        links: &'a [Link],
        mass: Option<&'a [f64]>,
        base_ratio: f64,
    ) -> PlanCtx<'a> {
        PlanCtx {
            segments,
            links,
            model_bytes: segments.iter().map(|s| s.len as f64 * 4.0).sum(),
            base_ratio,
            gradient_mass: mass,
        }
    }

    #[test]
    fn adaptive_plan_spec_parses_and_round_trips() {
        let d: AdaptivePlanSpec = "layer-bcrs".parse().unwrap();
        assert_eq!(d.name(), "layer-bcrs");
        assert_eq!(
            d,
            AdaptivePlanSpec::LayerBcrs {
                efficiency: AdaptivePlanSpec::DEFAULT_EFFICIENCY
            }
        );
        assert_eq!(d.to_string(), "layer-bcrs");

        let e: AdaptivePlanSpec = "layer-bcrs:efficiency=0.75".parse().unwrap();
        assert_eq!(e, AdaptivePlanSpec::LayerBcrs { efficiency: 0.75 });
        assert_eq!(e.to_string(), "layer-bcrs:efficiency=0.75");
        assert_eq!(e.to_string().parse::<AdaptivePlanSpec>().unwrap(), e);
    }

    #[test]
    fn adaptive_plan_spec_rejects_garbage() {
        for bad in [
            "",
            "static",
            "bcrs-layer",
            "layer-bcrs:efficiency=0",
            "layer-bcrs:efficiency=1.5",
            "layer-bcrs:eta=0.5",
            "layer-bcrs:efficiency",
        ] {
            assert!(bad.parse::<AdaptivePlanSpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn a_fixed_plan_is_not_an_adaptive_policy() {
        let err = "static:*=topk".parse::<AdaptivePlanSpec>().unwrap_err();
        assert!(err.to_string().contains("layer_compressors"), "{err}");
    }

    #[test]
    fn plan_weights_use_mass_and_fall_back_to_lengths() {
        // All-zero gradient mass (round 0 / dead model) degrades to a
        // length-proportional split instead of dividing by zero.
        let lens = [300usize, 100];
        let w = plan_weights(&lens, Some(&[0.0, 0.0]));
        assert!((w[0] - 0.75).abs() < 1e-12 && (w[1] - 0.25).abs() < 1e-12);
        let w = plan_weights(&lens, None);
        assert!((w[0] - 0.75).abs() < 1e-12);
        // Real mass wins over lengths.
        let w = plan_weights(&lens, Some(&[1.0, 3.0]));
        assert!((w[0] - 0.25).abs() < 1e-12 && (w[1] - 0.75).abs() < 1e-12);
        // Length mismatch is ignored (stale telemetry after a layout change).
        let w = plan_weights(&lens, Some(&[1.0]));
        assert!((w[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn non_finite_gradient_mass_falls_back_to_lengths() {
        // Regression: a diverging run's aggregate overflows, its segment L1
        // mass is ∞, and ∞/∞ made the weights NaN — which then panicked the
        // layer-bcrs bit-width ranking.
        let lens = [300usize, 100];
        for mass in [
            [f64::INFINITY, 1.0],
            [f64::NAN, 1.0],
            [f64::MAX, f64::MAX],
            [-1.0, 2.0],
        ] {
            let w = plan_weights(&lens, Some(&mass));
            assert_eq!(w, vec![0.75, 0.25], "{mass:?}");
        }
        let segments = segs(&[("a", 300), ("b", 100)]);
        let links = links(3);
        let mass = [f64::INFINITY, 1.0];
        let d = layer_bcrs_plan(
            &plan_ctx(&segments, &links, Some(&mass), 0.1),
            CommModel::paper_default(),
            0.9,
        );
        assert!(d
            .assignments
            .iter()
            .all(|a| a.ratio > 0.0 && a.ratio <= 1.0));
        assert_eq!(d.assignments[0].spec, "ef-topk+qsgd:8");
    }

    #[test]
    fn allocator_is_mass_proportional_with_floor_and_cap() {
        let lens = [1000usize, 1000, 10];
        let weights = plan_weights(&lens, Some(&[9.0, 1.0, 0.0]));
        let budgets = allocate_layer_budgets(&lens, &weights, 0.1, 1.0);
        // 201 coordinates split 9:1:0 → heavy layer gets ~9× the light one,
        // the zero-mass layer still ships its one-coordinate floor.
        assert!(budgets[0] > 5 * budgets[1], "{budgets:?}");
        assert_eq!(budgets[2], 1);
        assert!(budgets.iter().sum::<usize>() <= 201);
        // A dominant weight cannot push a segment above dense.
        let budgets = allocate_layer_budgets(&[10, 1000], &[0.99, 0.01], 1.0, 1.0);
        assert_eq!(budgets[0], 10, "capped at the segment length");
    }

    #[test]
    fn allocator_single_segment_gets_the_whole_budget() {
        let lens = [500usize];
        let weights = plan_weights(&lens, None);
        assert_eq!(allocate_layer_budgets(&lens, &weights, 0.1, 1.0), vec![50]);
        assert_eq!(allocate_layer_budgets(&lens, &weights, 0.1, 0.9), vec![45]);
    }

    #[test]
    fn allocator_floors_budgets_smaller_than_the_framing_overhead() {
        // 4 segments but a budget of ~2 coordinates: every segment still
        // ships at least one coordinate, so the plan stays encodable even
        // when the budget is smaller than the per-segment framing overhead.
        let lens = [100usize, 100, 100, 100];
        let weights = plan_weights(&lens, None);
        let budgets = allocate_layer_budgets(&lens, &weights, 0.005, 1.0);
        assert_eq!(budgets, vec![1, 1, 1, 1]);
    }

    #[test]
    fn layer_bcrs_policy_emits_covering_rules_scales_and_bits() {
        let segments = segs(&[("l0.weight", 784), ("l0.bias", 16), ("l1.weight", 160)]);
        let links = links(4);
        let mass = [50.0, 0.5, 5.0];
        let d = layer_bcrs_plan(
            &plan_ctx(&segments, &links, Some(&mass), 0.1),
            CommModel::paper_default(),
            0.9,
        );

        // Every segment is covered by an exact-name rule.
        for seg in &segments {
            assert!(
                d.plan.spec_for(&seg.name).is_some(),
                "{} uncovered",
                seg.name
            );
        }
        assert_eq!(d.scales.len(), 3);
        assert_eq!(d.assignments.len(), 3);
        // Heaviest segment gets the widest quantizer and the largest ratio.
        assert_eq!(d.assignments[0].spec, "ef-topk+qsgd:8");
        assert_eq!(d.assignments[1].spec, "ef-topk+qsgd:4");
        assert_eq!(d.assignments[2].spec, "ef-topk+qsgd:6");
        assert!(d.assignments[0].ratio > d.assignments[2].ratio);
        assert!(d
            .assignments
            .iter()
            .all(|a| a.ratio > 0.0 && a.ratio <= 1.0));
        // The spent coordinate budget stays below the uniform plan's.
        let spent: f64 = d
            .assignments
            .iter()
            .zip(segments.iter())
            .map(|(a, s)| a.ratio * s.len as f64)
            .sum();
        assert!(spent < 0.1 * 960.0, "spent {spent} of {}", 0.1 * 960.0);
    }

    /// What lets a parked residual restore verbatim across plan epochs:
    /// whatever the gradient mass, the cohort's links, the base ratio and
    /// the efficiency, `layer_bcrs_plan` gives every segment an
    /// error-feedback rule (one residual part each).
    #[test]
    fn plans_keep_one_residual_part_per_segment() {
        use fl_tensor::Uniform;
        let mut rng = Xoshiro256::new(1);
        for _ in 0..64 {
            let segs: Vec<(usize, f64)> = (0..rng.next_range(1, 8))
                .map(|_| {
                    (
                        rng.next_range(1, 500),
                        Uniform::new(0.0, 100.0).sample(&mut rng),
                    )
                })
                .collect();
            let use_mass = rng.next_bool(0.5);
            let mbps: Vec<f64> = (0..rng.next_below(10))
                .map(|_| Uniform::new(0.05, 20.0).sample(&mut rng))
                .collect();
            let base_ratio = Uniform::new(0.001, 1.0).sample(&mut rng);
            let efficiency = Uniform::new(0.01, 1.0).sample(&mut rng);
            let segments: Vec<SegmentDef> = segs
                .iter()
                .enumerate()
                .map(|(i, &(len, _))| SegmentDef::new(format!("linear{i}.weight"), len))
                .collect();
            let mass: Vec<f64> = segs.iter().map(|&(_, m)| m).collect();
            let links: Vec<Link> = mbps.iter().map(|&m| Link::from_mbps_ms(m, 50.0)).collect();
            let ctx = plan_ctx(&segments, &links, use_mass.then_some(&mass[..]), base_ratio);
            let d = layer_bcrs_plan(&ctx, CommModel::paper_default(), efficiency);
            for seg in &segments {
                let spec = d
                    .plan
                    .spec_for(&seg.name)
                    .expect("every segment is covered");
                assert!(
                    spec.error_feedback,
                    "{}: {spec} keeps no residual",
                    seg.name
                );
            }
        }
    }

    #[test]
    fn layer_bcrs_policy_is_deterministic() {
        let segments = segs(&[("a", 100), ("b", 200)]);
        let links = links(3);
        let mass = [1.0, 2.0];
        let ctx = plan_ctx(&segments, &links, Some(&mass), 0.2);
        let d1 = layer_bcrs_plan(&ctx, CommModel::paper_default(), 0.9);
        let d2 = layer_bcrs_plan(&ctx, CommModel::paper_default(), 0.9);
        assert_eq!(d1.plan, d2.plan);
        assert_eq!(d1.scales, d2.scales);
        assert_eq!(d1.assignments, d2.assignments);
    }
}
