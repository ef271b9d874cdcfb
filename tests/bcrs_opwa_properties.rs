//! Property-based integration tests of the paper's two algorithms.
//!
//! Each test checks an invariant that makes BCRS and OPWA correct over
//! randomly drawn networks, cohorts and updates — a fixed-seed stream of
//! cases, not just the hand-picked ones of the unit tests.

use bwfl::compress::topk;
use bwfl::prelude::*;
use bwfl::tensor::Uniform;

/// A plausible client link.
fn link(rng: &mut Xoshiro256) -> Link {
    let mbps = Uniform::new(0.1, 5.0).sample(rng);
    Link::from_mbps_ms(mbps, Uniform::new(1.0, 500.0).sample(rng))
}

/// BCRS invariant 1 (Fig. 1 / Alg. 2): no client's scheduled upload ever
/// takes longer than the uniform-compression straggler, for any network.
#[test]
fn bcrs_never_exceeds_uniform_straggler() {
    let mut rng = Xoshiro256::new(1);
    for _ in 0..64 {
        let links: Vec<Link> = (0..rng.next_range(1, 16)).map(|_| link(&mut rng)).collect();
        let model_kb = Uniform::new(1.0, 2000.0).sample(&mut rng);
        let base_ratio = Uniform::new(0.001, 1.0).sample(&mut rng);
        let sched = BcrsScheduler::new(CommModel::paper_default()).schedule(
            &links,
            model_kb * 1024.0,
            base_ratio,
        );
        let uniform_straggler = sched.uniform_times.iter().cloned().fold(0.0, f64::max);
        assert!(sched.makespan() <= uniform_straggler + 1e-9);
        assert!((sched.t_bench - uniform_straggler).abs() < 1e-9);
    }
}

/// BCRS invariant 2: every scheduled ratio lies in [base_ratio, 1] and the
/// slowest client keeps the base ratio.
#[test]
fn bcrs_ratios_bounded_and_monotone_in_bandwidth() {
    let mut rng = Xoshiro256::new(2);
    for _ in 0..64 {
        let links: Vec<Link> = (0..rng.next_range(2, 12)).map(|_| link(&mut rng)).collect();
        let model_kb = Uniform::new(10.0, 500.0).sample(&mut rng);
        let base_ratio = Uniform::new(0.005, 0.5).sample(&mut rng);
        let sched = BcrsScheduler::new(CommModel::paper_default()).schedule(
            &links,
            model_kb * 1024.0,
            base_ratio,
        );
        for &r in &sched.ratios {
            assert!(r >= base_ratio - 1e-12);
            assert!(r <= 1.0 + 1e-12);
        }
        assert!(
            (sched.ratios[sched.benchmark_client] - base_ratio).abs() < 1e-9
                || sched.ratios[sched.benchmark_client] >= base_ratio
        );
        // Among clients with equal latency, higher bandwidth never gets a
        // smaller ratio.
        for i in 0..links.len() {
            for j in 0..links.len() {
                if (links[i].latency_s - links[j].latency_s).abs() < 1e-12
                    && links[i].bandwidth_bps > links[j].bandwidth_bps
                {
                    assert!(sched.ratios[i] >= sched.ratios[j] - 1e-9);
                }
            }
        }
    }
}

/// Eq. 6 invariant: adjusted coefficients are positive, bounded by alpha,
/// and equal to alpha exactly when the client's CR share does not exceed
/// its data share.
#[test]
fn adjusted_coefficients_bounded() {
    let mut rng = Xoshiro256::new(3);
    for _ in 0..64 {
        let links: Vec<Link> = (0..rng.next_range(2, 10)).map(|_| link(&mut rng)).collect();
        let alpha = Uniform::new(0.01, 1.0).sample(&mut rng);
        let n = links.len();
        let sched =
            BcrsScheduler::new(CommModel::paper_default()).schedule(&links, 100_000.0, 0.05);
        let fractions = vec![1.0 / n as f64; n];
        let coeffs = sched.adjusted_coefficients(&fractions, alpha);
        let norm = sched.normalized_ratios();
        for ((&c, &f), &nr) in coeffs.iter().zip(fractions.iter()).zip(norm.iter()) {
            assert!(c > 0.0);
            assert!(c <= alpha + 1e-12);
            if nr <= f {
                assert!((c - alpha).abs() < 1e-9);
            }
        }
    }
}

/// OPWA invariant: masked aggregation differs from plain aggregation only
/// on coordinates whose overlap degree is at most the threshold, where it
/// is exactly gamma times larger.
#[test]
fn opwa_only_touches_low_overlap_coordinates() {
    let mut rng = Xoshiro256::new(4);
    for _ in 0..64 {
        let gamma = Uniform::new(1.0, 8.0).sample(&mut rng) as f32;
        let cohort = rng.next_range(2, 6);
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
                    assert_eq!(plain[i], 0.0);
                    assert_eq!(masked[i], 0.0);
                }
                1 => assert!((masked[i] - plain[i] * gamma).abs() < 1e-4),
                _ => assert!((masked[i] - plain[i]).abs() < 1e-5),
            }
        }
    }
}

/// Overlap statistics invariants: fractions sum to one, total equals the
/// number of distinct retained coordinates, and no degree exceeds the
/// cohort size.
#[test]
fn overlap_stats_are_a_distribution() {
    let mut rng = Xoshiro256::new(5);
    for _ in 0..64 {
        let cohort = rng.next_range(1, 8);
        let ratio = Uniform::new(0.01, 0.5).sample(&mut rng);
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
        assert_eq!(stats.cohort_size, cohort);
        assert_eq!(stats.histogram_counts.len(), cohort);
        assert_eq!(stats.total_retained as usize, counts.retained_coordinates());
        let total: u64 = stats.histogram_counts.iter().sum();
        assert_eq!(total, stats.total_retained);
        if stats.total_retained > 0 {
            let frac_sum: f64 = stats.fractions.iter().sum();
            assert!((frac_sum - 1.0).abs() < 1e-9);
        }
    }
}

/// A deterministic sanity check that the whole experiment
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
