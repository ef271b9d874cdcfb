//! Scale-out guarantees of the virtualized round engine: the sharded
//! aggregation tree is thread-count invariant for every algorithm, the
//! work-pulling scheduler leaves no trace in the records on skewed shards
//! (flat and segmented codec paths) or in a sweep's result order, client
//! instantiation is O(cohort) — not O(population) — at 10^5 clients, and
//! error-feedback residuals survive in the roster's store across
//! non-consecutive selections.

use bwfl::prelude::*;

fn quick(algorithm: Algorithm) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(algorithm);
    c.rounds = 3;
    c
}

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::TopKOpwa,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
];

#[test]
fn records_are_thread_count_invariant_for_every_algorithm() {
    // The fixed-shard aggregation tree must make every algorithm's records —
    // losses, accuracies, byte counts, timings, all of it — bit-identical
    // between a serial and a heavily threaded run.
    for algorithm in ALL_ALGORITHMS {
        let mut config = quick(algorithm);
        config.num_clients = 16;
        let serial = SessionBuilder::from_config(&config)
            .threads(1)
            .build()
            .run();
        let threaded = SessionBuilder::from_config(&config)
            .threads(8)
            .build()
            .run();
        assert_eq!(
            serial.records,
            threaded.records,
            "{} diverges across thread counts",
            algorithm.name()
        );
    }
}

#[test]
fn records_are_thread_count_invariant_across_shard_boundaries() {
    // A cohort larger than one aggregation shard (32 clients) exercises the
    // partial-sum merge: 80 clients at 50% participation is a 40-client
    // cohort, i.e. two shards.
    let mut config = quick(Algorithm::TopK);
    config.num_clients = 80;
    let serial = SessionBuilder::from_config(&config)
        .threads(1)
        .build()
        .run();
    let threaded = SessionBuilder::from_config(&config)
        .threads(8)
        .build()
        .run();
    assert_eq!(serial.records, threaded.records);
}

/// Run `config` at 1, 2, 3, 5 and 8 worker threads: every run must produce
/// the 1-thread records and never hold more clients resident than it has
/// workers. Which worker pulls which client, and in what order they finish,
/// differs from run to run; nothing recorded may. Returns those records.
fn assert_schedule_leaves_no_trace(config: &ExperimentConfig) -> Vec<RoundRecord> {
    let mut reference: Option<Vec<RoundRecord>> = None;
    for threads in [1, 2, 3, 5, 8] {
        let mut session = SessionBuilder::from_config(config).threads(threads).build();
        while !session.is_finished() {
            session.run_round();
        }
        let roster = session.roster();
        assert!(
            roster.peak_resident() <= threads,
            "{} clients resident on {threads} threads",
            roster.peak_resident()
        );
        assert_eq!(roster.resident(), 0, "clients leaked past checkin");
        match &reference {
            None => reference = Some(session.records().to_vec()),
            Some(reference) => assert_eq!(
                reference.as_slice(),
                session.records(),
                "records differ between 1 and {threads} threads (N = {})",
                config.num_clients
            ),
        }
    }
    reference.expect("at least one run")
}

/// β = 0.1 shards (a few large clients, many small ones — what the
/// largest-first hand-out reorders) at cohorts of 5 and 40: below one
/// `AGG_SHARD` and across two.
fn skewed(algorithm: Algorithm, num_clients: usize) -> ExperimentConfig {
    let mut config = quick(algorithm);
    config.beta = 0.1;
    config.num_clients = num_clients;
    config
}

#[test]
fn skewed_shards_on_a_flat_codec_are_thread_count_invariant() {
    for num_clients in [10, 80] {
        assert_schedule_leaves_no_trace(&skewed(Algorithm::BcrsOpwa, num_clients));
    }
}

#[test]
fn skewed_shards_on_an_adaptive_plan_under_churn_are_thread_count_invariant() {
    // Segmented frames, per-round re-planning, residual migration and a
    // fleet that changes under the selector.
    for num_clients in [10, 80] {
        let mut config = skewed(Algorithm::EfTopK, num_clients);
        config.adaptive_plan = Some("layer-bcrs".parse().expect("valid spec"));
        config.scenario = Some("churn:leave=0.05".parse().expect("valid spec"));
        config.cost_basis = CostBasis::Encoded;
        config.rounds = 4;
        let records = assert_schedule_leaves_no_trace(&config);
        assert!(records
            .iter()
            .all(|r| r.plan.is_some() && r.layer_bytes.is_some()));
    }
}

#[test]
fn sweep_results_keep_input_order_when_the_first_cells_are_the_slowest() {
    // Two workers pull six cells; the first two run ten times the rounds of
    // the rest, so the others finish (and their slots fill) long before.
    let configs: Vec<ExperimentConfig> = (0..6u64)
        .map(|i| {
            let mut config = ExperimentConfig::quick(Algorithm::TopK);
            config.model = ModelPreset::Linear;
            config.rounds = if i < 2 { 20 } else { 2 };
            config.seed = 100 + i;
            config.max_threads = 1;
            config
        })
        .collect();
    let threaded = run_sweep_threaded(&configs, 2);
    let serial = run_sweep_threaded(&configs, 1);
    assert_eq!(threaded.len(), configs.len());
    for ((config, threaded), serial) in configs.iter().zip(&threaded).zip(&serial) {
        assert_eq!(threaded.config.seed, config.seed);
        assert_eq!(threaded.records.len(), config.rounds);
        assert_eq!(threaded.records, serial.records);
    }
}

#[test]
fn client_instantiation_is_bounded_by_the_cohort_at_1e5_clients() {
    // 10^5 clients, 64 selected per round: the roster must materialise
    // exactly the cohort each round and never hold more resident than that.
    let mut config = ExperimentConfig::quick(Algorithm::EfTopK);
    config.model = ModelPreset::Linear;
    config.num_clients = 100_000;
    config.participation = 64.0 / 100_000.0;
    config.rounds = 2;
    config.eval_every = 2;
    assert_eq!(config.clients_per_round(), 64);

    let mut session = SessionBuilder::from_config(&config).build();
    while !session.is_finished() {
        session.run_round();
    }
    let roster = session.roster();
    assert_eq!(roster.len(), 100_000);
    let selected = session.records().last().unwrap().selected_clients.len();
    assert_eq!(
        roster.round_instantiated(),
        selected,
        "the final round instantiated clients it did not select"
    );
    assert!(
        roster.peak_resident() <= 64,
        "peak resident clients {} exceeded the cohort",
        roster.peak_resident()
    );
    assert_eq!(roster.resident(), 0, "clients leaked past checkin");
    assert_eq!(roster.total_instantiated(), 2 * 64);
}

#[test]
fn residuals_persist_across_non_consecutive_selections() {
    // Error-feedback residuals belong to the *client*, not to the round: a
    // client selected in rounds 0 and 2 (but not 1) must resume round 2 from
    // the residual it accumulated in round 0.
    // The committed trace keeps exactly {0, 1} up in rounds 0 and 2 and
    // exactly {2, 3} in round 1; a cohort of 2 takes whoever is up.
    let mut config = quick(Algorithm::EfTopK);
    config.num_clients = 4;
    config.rounds = 3;
    config.scenario = Some(ScenarioSpec::Trace {
        path: concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/alternating_n4.trace"
        )
        .into(),
    });
    let cohort = |session: &FederatedSession| {
        let mut ids = session.records().last().unwrap().selected_clients.clone();
        ids.sort_unstable();
        ids
    };

    let mut session = SessionBuilder::from_config(&config).build();

    session.run_round();
    assert_eq!(cohort(&session), [0, 1]);
    let roster_norm_after_0 = session.roster().residual_total_norm();
    assert_eq!(
        session.roster().residual_clients(),
        2,
        "both round-0 clients should have parked a residual"
    );
    assert!(roster_norm_after_0 > 0.0);

    session.run_round();
    assert_eq!(cohort(&session), [2, 3]);
    // Round 1 selected {2, 3}; clients 0 and 1's residuals are untouched and
    // still parked in the store alongside the new ones.
    assert_eq!(session.roster().residual_clients(), 4);

    session.run_round();
    assert_eq!(cohort(&session), [0, 1]);
    // Round 2 re-selected {0, 1}: their residuals were taken out, updated and
    // re-parked — the store still covers all four clients but the total norm
    // moved, which it could only do if checkout restored the old state.
    assert_eq!(session.roster().residual_clients(), 4);
    assert_ne!(session.roster().residual_total_norm(), roster_norm_after_0);
}

#[test]
fn sweep_grid_population_axis_runs_end_to_end() {
    // A small population sweep through the shared-data driver: same dataset,
    // growing N, cohort growing with it (participation fixed).
    let mut base = ExperimentConfig::quick(Algorithm::TopK);
    base.model = ModelPreset::Linear;
    base.rounds = 2;
    base.eval_every = 2;
    let grid = SweepGrid::new(base).client_counts([10, 200]);
    let results = run_sweep_threaded(&grid.configs(), 2);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].config.num_clients, 10);
    assert_eq!(results[1].config.num_clients, 200);
    assert_eq!(results[0].records.len(), 2);
    assert_eq!(results[1].records.len(), 2);
    // 50% participation: cohorts of 5 and 100 respectively.
    assert_eq!(results[0].records[0].selected_clients.len(), 5);
    assert_eq!(results[1].records[0].selected_clients.len(), 100);
}
