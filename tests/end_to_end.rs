//! End-to-end integration tests: full experiments through the public `bwfl`
//! API, spanning every crate in the workspace.

use bwfl::prelude::*;

fn quick(algorithm: Algorithm) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(algorithm);
    c.rounds = 8;
    c.dataset_scale = 0.15;
    c.max_threads = 2;
    c
}

/// The suite builds at the root manifest's `[profile.dev]` (`opt-level = 1`),
/// whose debug assertions must stay on: the test fails if a profile edit
/// turns them off. Tier-1 runs this file in that profile only.
#[test]
#[should_panic(expected = "debug assertions are on")]
fn debug_assertions_are_on() {
    debug_assert!(false, "debug assertions are on");
}

#[test]
fn full_pipeline_produces_consistent_records() {
    let config = quick(Algorithm::BcrsOpwa);
    let result = run_experiment(&config);
    assert_eq!(result.records.len(), config.rounds);
    for (i, r) in result.records.iter().enumerate() {
        assert_eq!(r.round, i);
        assert!(r.test_accuracy >= 0.0 && r.test_accuracy <= 1.0);
        assert!(r.comm_actual_s > 0.0);
        assert!(r.comm_max_s >= r.comm_min_s);
        assert_eq!(r.selected_clients.len(), config.clients_per_round());
        // Selected clients are distinct and in range.
        let mut s = r.selected_clients.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), config.clients_per_round());
        assert!(s.iter().all(|&c| c < config.num_clients));
    }
    // Cumulative series are non-decreasing.
    for w in result.records.windows(2) {
        assert!(w[1].cumulative_actual_s >= w[0].cumulative_actual_s);
        assert!(w[1].cumulative_max_s >= w[0].cumulative_max_s);
    }
}

#[test]
fn training_beats_random_initialization() {
    let mut config = quick(Algorithm::FedAvg);
    config.rounds = 15;
    let result = run_experiment(&config);
    // 10-class problem: random guessing is ~0.1.
    assert!(
        result.best_accuracy > 0.25,
        "FedAvg should learn well above chance, got {}",
        result.best_accuracy
    );
}

#[test]
fn compression_reduces_communication_time_with_modest_accuracy_cost() {
    let fedavg = run_experiment(&quick(Algorithm::FedAvg));
    let topk = run_experiment(&quick(Algorithm::TopK));
    let t_fedavg = fedavg.records.last().unwrap().cumulative_actual_s;
    let t_topk = topk.records.last().unwrap().cumulative_actual_s;
    // The quick config's model is small enough that latency (incompressible)
    // is a large share of the round time, so the saving is well below the
    // 10x payload reduction; it must still be clearly faster.
    assert!(
        t_topk < t_fedavg * 0.8,
        "Top-K at CR=0.1 should clearly cut communication time ({t_topk} vs {t_fedavg})"
    );
}

#[test]
fn bcrs_equalizes_client_upload_times() {
    let result = run_experiment(&quick(Algorithm::Bcrs));
    for r in &result.records {
        // BCRS actual time never exceeds the uncompressed straggler.
        assert!(r.comm_actual_s <= r.comm_max_s + 1e-9);
        // And the gap between the fastest and slowest scheduled client is
        // small relative to the uniform-compression spread (equal-pace goal).
        assert!(r.comm_min_s <= r.comm_actual_s);
    }
    // BCRS ships more data per round than the base ratio.
    assert!(
        result.records[0].mean_compression_ratio >= result.config.compression_ratio,
        "BCRS mean CR should be at least the base ratio"
    );
}

#[test]
fn bcrs_opwa_beats_uniform_topk_at_high_compression() {
    // The paper's headline qualitative claim (Table 2): under severe
    // compression, BCRS+OPWA retains much more accuracy than uniform Top-K.
    let mut topk = quick(Algorithm::TopK);
    let mut ours = quick(Algorithm::BcrsOpwa);
    for c in [&mut topk, &mut ours] {
        c.compression_ratio = 0.01;
        c.beta = 0.1;
        c.rounds = 12;
        c.seed = 7;
    }
    let acc_topk = run_experiment(&topk).best_accuracy;
    let acc_ours = run_experiment(&ours).best_accuracy;
    assert!(
        acc_ours >= acc_topk,
        "BCRS+OPWA ({acc_ours}) should not lose to uniform Top-K ({acc_topk}) at CR=0.01"
    );
}

#[test]
fn error_feedback_improves_or_matches_plain_topk_over_time() {
    let mut plain = quick(Algorithm::TopK);
    let mut ef = quick(Algorithm::EfTopK);
    for c in [&mut plain, &mut ef] {
        c.compression_ratio = 0.02;
        c.rounds = 12;
        c.seed = 3;
    }
    let p = run_experiment(&plain);
    let e = run_experiment(&ef);
    // EF accumulates dropped mass, so its final model should not be
    // drastically worse; allow a small tolerance for noise on tiny runs.
    assert!(
        e.best_accuracy >= p.best_accuracy - 0.1,
        "EF-Top-K {} collapsed versus Top-K {}",
        e.best_accuracy,
        p.best_accuracy
    );
}

#[test]
fn opwa_composes_with_plain_topk() {
    // The paper argues OPWA is independent of the compression scheduler; the
    // TopK+OPWA variant must run and apply the mask (overlap stats recorded)
    // while using uniform ratios.
    let mut c = quick(Algorithm::TopKOpwa);
    c.rounds = 3;
    let r = run_experiment(&c);
    assert_eq!(r.records.len(), 3);
    assert!(r.records[0].overlap.is_some());
    assert!((r.records[0].mean_compression_ratio - c.compression_ratio).abs() < 1e-12);
}

#[test]
fn coefficient_adjustment_ablation_changes_trajectory() {
    // Disabling the Eq. 6 clamp is an ablation of BCRS; it must produce a
    // valid but different run from standard BCRS.
    let mut with = quick(Algorithm::Bcrs);
    with.rounds = 4;
    let mut without = with.clone();
    without.disable_coefficient_adjustment = true;
    let a = run_experiment(&with);
    let b = run_experiment(&without);
    assert_eq!(a.records.len(), b.records.len());
    assert_ne!(
        a.accuracy_series(),
        b.accuracy_series(),
        "the ablation should change the aggregation weights and thus the trajectory"
    );
}

#[test]
fn different_seeds_give_different_trajectories_same_seed_identical() {
    let mut a = quick(Algorithm::TopK);
    a.rounds = 4;
    let mut b = a.clone();
    b.seed = a.seed + 1;
    let ra1 = run_experiment(&a);
    let ra2 = run_experiment(&a);
    let rb = run_experiment(&b);
    assert_eq!(ra1.accuracy_series(), ra2.accuracy_series());
    assert_ne!(ra1.accuracy_series(), rb.accuracy_series());
}

#[test]
fn scaling_client_count_works() {
    for n in [10usize, 16, 20] {
        let mut c = quick(Algorithm::BcrsOpwa);
        c.num_clients = n;
        c.rounds = 2;
        c.gamma = (n / 2) as f32;
        let r = run_experiment(&c);
        assert_eq!(r.records[0].selected_clients.len(), n / 2);
    }
}

#[test]
fn all_three_dataset_presets_run() {
    for preset in [
        DatasetPreset::Cifar10Like,
        DatasetPreset::Cifar100Like,
        DatasetPreset::SvhnLike,
    ] {
        let mut c = quick(Algorithm::Bcrs);
        c.dataset = preset;
        c.rounds = 2;
        c.dataset_scale = 0.1;
        let r = run_experiment(&c);
        assert_eq!(r.records.len(), 2, "{preset:?}");
    }
}

#[test]
fn session_engine_reproduces_run_experiment_through_the_facade() {
    // A hand-built session and the convenience wrapper must agree through
    // the public bwfl API. (The 1-vs-4-thread full-record determinism gate
    // lives in fl-core's runner tests.)
    let mut config = quick(Algorithm::BcrsOpwa);
    config.max_threads = 4;
    let via_runner = run_experiment(&config);
    let via_session = SessionBuilder::from_config(&config).build().run();
    assert_eq!(via_session.records, via_runner.records);
}

#[test]
fn sweep_driver_matches_individual_runs() {
    let mut base = quick(Algorithm::TopK);
    base.rounds = 3;
    let configs = SweepGrid::new(base)
        .axis([Algorithm::FedAvg, Algorithm::TopK], |c, &a| {
            c.algorithm = a
        })
        .configs();
    let swept = run_sweep_threaded(&configs, 2);
    assert_eq!(swept.len(), 2);
    for (config, result) in configs.iter().zip(swept.iter()) {
        assert_eq!(result.records, run_experiment(config).records);
    }
}

#[test]
fn manual_round_stepping_exposes_round_outputs() {
    let mut config = quick(Algorithm::Bcrs);
    config.rounds = 2;
    let mut session = SessionBuilder::from_config(&config).build();
    let out = session.run_round();
    assert_eq!(out.record.round, 0);
    assert!(out.schedule.is_some(), "BCRS rounds carry their schedule");
    let result = session.run();
    assert_eq!(result.records.len(), 2);
}

#[test]
fn partition_stats_reflect_heterogeneity() {
    let mut severe = quick(Algorithm::TopK);
    severe.beta = 0.1;
    severe.rounds = 1;
    let mut moderate = severe.clone();
    moderate.beta = 5.0;
    let skew_severe = run_experiment(&severe).partition.label_skew();
    let skew_moderate = run_experiment(&moderate).partition.label_skew();
    assert!(skew_severe > skew_moderate);
}
