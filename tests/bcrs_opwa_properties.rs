//! Property-based integration tests of the paper's two algorithms.
//!
//! These use `proptest` to check the invariants that make BCRS and OPWA
//! correct over randomly drawn networks, cohorts and updates — not just the
//! hand-picked cases of the unit tests.

use bwfl::compress::topk;
use bwfl::prelude::*;
// Explicit import so the `Rng` trait resolves to ours rather than the one in
// proptest's prelude (both preludes are glob-imported).
use bwfl::tensor::Rng;
use proptest::prelude::*;

/// Strategy: a plausible client link.
fn link_strategy() -> impl Strategy<Value = Link> {
    (0.1f64..5.0, 1.0f64..500.0).prop_map(|(mbps, ms)| Link::from_mbps_ms(mbps, ms))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BCRS invariant 1 (Fig. 1 / Alg. 2): no client's scheduled upload ever
    /// takes longer than the uniform-compression straggler, for any network.
    #[test]
    fn bcrs_never_exceeds_uniform_straggler(
        links in proptest::collection::vec(link_strategy(), 1..16),
        model_kb in 1.0f64..2000.0,
        base_ratio in 0.001f64..1.0,
    ) {
        let sched = BcrsScheduler::new(CommModel::paper_default())
            .schedule(&links, model_kb * 1024.0, base_ratio);
        let uniform_straggler = sched.uniform_times.iter().cloned().fold(0.0, f64::max);
        prop_assert!(sched.makespan() <= uniform_straggler + 1e-9);
        prop_assert!((sched.t_bench - uniform_straggler).abs() < 1e-9);
    }

    /// BCRS invariant 2: every scheduled ratio lies in [base_ratio, 1] and the
    /// slowest client keeps the base ratio.
    #[test]
    fn bcrs_ratios_bounded_and_monotone_in_bandwidth(
        links in proptest::collection::vec(link_strategy(), 2..12),
        model_kb in 10.0f64..500.0,
        base_ratio in 0.005f64..0.5,
    ) {
        let sched = BcrsScheduler::new(CommModel::paper_default())
            .schedule(&links, model_kb * 1024.0, base_ratio);
        for &r in &sched.ratios {
            prop_assert!(r >= base_ratio - 1e-12);
            prop_assert!(r <= 1.0 + 1e-12);
        }
        prop_assert!((sched.ratios[sched.benchmark_client] - base_ratio).abs() < 1e-9
            || sched.ratios[sched.benchmark_client] >= base_ratio);
        // Among clients with equal latency, higher bandwidth never gets a
        // smaller ratio.
        for i in 0..links.len() {
            for j in 0..links.len() {
                if (links[i].latency_s - links[j].latency_s).abs() < 1e-12
                    && links[i].bandwidth_bps > links[j].bandwidth_bps
                {
                    prop_assert!(sched.ratios[i] >= sched.ratios[j] - 1e-9);
                }
            }
        }
    }

    /// Eq. 6 invariant: adjusted coefficients are positive, bounded by alpha,
    /// and equal to alpha exactly when the client's CR share does not exceed
    /// its data share.
    #[test]
    fn adjusted_coefficients_bounded(
        links in proptest::collection::vec(link_strategy(), 2..10),
        alpha in 0.01f64..1.0,
    ) {
        let n = links.len();
        let sched = BcrsScheduler::new(CommModel::paper_default())
            .schedule(&links, 100_000.0, 0.05);
        let fractions = vec![1.0 / n as f64; n];
        let coeffs = sched.adjusted_coefficients(&fractions, alpha);
        let norm = sched.normalized_ratios();
        for ((&c, &f), &nr) in coeffs.iter().zip(fractions.iter()).zip(norm.iter()) {
            prop_assert!(c > 0.0);
            prop_assert!(c <= alpha + 1e-12);
            if nr <= f {
                prop_assert!((c - alpha).abs() < 1e-9);
            }
        }
    }

    /// OPWA invariant: masked aggregation differs from plain aggregation only
    /// on coordinates whose overlap degree is at most the threshold, where it
    /// is exactly gamma times larger.
    #[test]
    fn opwa_only_touches_low_overlap_coordinates(
        seed in 0u64..1000,
        gamma in 1.0f32..8.0,
        cohort in 2usize..6,
    ) {
        let mut rng = Xoshiro256::new(seed);
        let len = 200usize;
        let updates: Vec<SparseUpdate> = (0..cohort)
            .map(|_| {
                let dense: Vec<f32> = (0..len).map(|_| rng.next_f32() - 0.5).collect();
                topk::select(&dense, 0.1)
            })
            .collect();
        let refs: Vec<&SparseUpdate> = updates.iter().collect();
        let counts = OverlapCounts::from_updates(&refs);
        let mask = OpwaMask::from_overlap(&counts, gamma, 1);
        let coeffs = vec![1.0 / cohort as f64; cohort];
        let plain = fl_core::aggregate::aggregate_sparse(&refs, &coeffs, None);
        let masked = fl_core::aggregate::aggregate_sparse(&refs, &coeffs, Some(&mask));
        for i in 0..len {
            match counts.degree(i) {
                0 => {
                    prop_assert_eq!(plain[i], 0.0);
                    prop_assert_eq!(masked[i], 0.0);
                }
                1 => prop_assert!((masked[i] - plain[i] * gamma).abs() < 1e-4),
                _ => prop_assert!((masked[i] - plain[i]).abs() < 1e-5),
            }
        }
    }

    /// Overlap statistics invariants: fractions sum to one, total equals the
    /// number of distinct retained coordinates, and no degree exceeds the
    /// cohort size.
    #[test]
    fn overlap_stats_are_a_distribution(
        seed in 0u64..500,
        cohort in 1usize..8,
        ratio in 0.01f64..0.5,
    ) {
        let mut rng = Xoshiro256::new(seed);
        let len = 500usize;
        let updates: Vec<SparseUpdate> = (0..cohort)
            .map(|_| {
                let dense: Vec<f32> = (0..len).map(|_| rng.next_f32() - 0.5).collect();
                topk::select(&dense, ratio)
            })
            .collect();
        let refs: Vec<&SparseUpdate> = updates.iter().collect();
        let counts = OverlapCounts::from_updates(&refs);
        let stats = counts.stats();
        prop_assert_eq!(stats.cohort_size, cohort);
        prop_assert_eq!(stats.histogram_counts.len(), cohort);
        prop_assert_eq!(stats.total_retained as usize, counts.retained_coordinates());
        let total: u64 = stats.histogram_counts.iter().sum();
        prop_assert_eq!(total, stats.total_retained);
        if stats.total_retained > 0 {
            let frac_sum: f64 = stats.fractions.iter().sum();
            prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        }
    }
}

/// A deterministic (non-proptest) sanity check that the whole experiment
/// pipeline honours the BCRS timing invariant round after round.
#[test]
fn experiment_level_bcrs_invariant() {
    let mut config = ExperimentConfig::quick(Algorithm::Bcrs);
    config.rounds = 5;
    config.compression_ratio = 0.02;
    let result = run_experiment(&config);
    for r in &result.records {
        assert!(r.comm_actual_s <= r.comm_max_s + 1e-9);
        assert!(r.mean_compression_ratio >= config.compression_ratio - 1e-12);
    }
}
