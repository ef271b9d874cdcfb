//! Smoke test of the `bwfl::prelude` re-export surface: everything a typical
//! program needs must be reachable from the single prelude import, and a
//! quick BCRS+OPWA experiment must run end-to-end through it.
//!
//! Unlike `end_to_end.rs` (which mixes prelude and direct crate paths), this
//! file deliberately imports *only* the prelude, so a broken or missing
//! re-export fails here even if the underlying crates still work.

use bwfl::prelude::*;

#[test]
fn quick_bcrs_opwa_runs_two_rounds_through_the_prelude() {
    let mut config = ExperimentConfig::quick(Algorithm::BcrsOpwa);
    config.rounds = 2;
    let result = run_experiment(&config);

    assert_eq!(result.records.len(), 2);
    assert!(result.final_accuracy >= 0.0 && result.final_accuracy <= 1.0);
    assert!(result.model_params > 0);
    // BCRS+OPWA records overlap statistics every round.
    assert!(result.records.iter().all(|r| r.overlap.is_some()));
    // Communication accounting is monotone across rounds.
    assert!(
        result.records[1].cumulative_actual_s >= result.records[0].cumulative_actual_s,
        "cumulative communication time must not decrease"
    );
}

#[test]
fn prelude_exposes_the_building_blocks() {
    // Exercise one representative type from each re-exported crate, touching
    // them only through the prelude names.
    let mut rng = Xoshiro256::new(7);
    let dense: Vec<f32> = (0..100).map(|_| rng.next_f32() - 0.5).collect();

    // fl-compress via prelude.
    let mut codec = CodecRegistry::with_builtins()
        .build(&"topk".parse().unwrap(), &CodecCtx::new(dense.len(), 0))
        .expect("builtin codec");
    let wire = codec.encode(&dense, 0.1, &mut rng);
    let sparse = codec.decode(&wire).expect("own encoding");
    assert_eq!(sparse.nnz(), 10);

    // fl-netsim + fl-core via prelude.
    let links = LinkGenerator::paper_default().generate(4, 3);
    let schedule = BcrsScheduler::new(CommModel::paper_default()).schedule(&links, 4000.0, 0.1);
    assert_eq!(schedule.ratios.len(), 4);

    // fl-data via prelude.
    let (train, _test) = DatasetPreset::Cifar10Like.spec(0.05).generate(1);
    let parts = dirichlet_partition(&train, 4, 0.5, 2, 11);
    assert_eq!(parts.len(), 4);

    // fl-nn via prelude.
    let model = mlp(train.feature_dim(), &[16], train.num_classes(), &mut rng);
    let flat = flatten_params(&model);
    assert!(!flat.is_empty());
}
