//! Integration tests of the trace-driven scenario engine: thread-count
//! invariance of dynamic-fleet runs, the `bwfl-trace-v1` format's round-trip
//! and rejection properties, and the golden-fixture replay that pins the
//! generators' byte output.
//!
//! To re-capture the golden fixture after an *intentional* generator change:
//! `GOLDEN_PRINT=1 cargo test --release --test scenario_engine golden -- --nocapture`
//! and paste the output into `tests/fixtures/towers_n16_seed7.trace`.

use bwfl::prelude::*;
use proptest::prelude::*;
use std::io::Cursor;

const GOLDEN_FIXTURE: &str = include_str!("fixtures/towers_n16_seed7.trace");

fn golden_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 6;
    config.num_clients = 16;
    config.seed = 7;
    config.max_threads = 1;
    config.scenario = Some("towers:groups=4,outage=0.3,repair=0.4".parse().unwrap());
    config
}

fn fixture_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/towers_n16_seed7.trace"
    )
    .to_string()
}

/// The per-round fleet-size trajectory of a finished run.
fn trajectory(records: &[RoundRecord], num_clients: usize) -> Vec<usize> {
    records
        .iter()
        .map(|r| r.scenario.map(|t| t.available).unwrap_or(num_clients))
        .collect()
}

// --- Determinism across thread counts -------------------------------------

#[test]
fn scenario_sessions_are_thread_count_invariant() {
    for spec in ["diurnal:period=4", "churn:leave=0.15,join=0.4"] {
        let mut config = ExperimentConfig::quick(Algorithm::BcrsOpwa);
        config.rounds = 3;
        config.num_clients = 16;
        config.scenario = Some(spec.parse().unwrap());
        let serial = SessionBuilder::from_config(&config)
            .threads(1)
            .build()
            .run();
        let threaded = SessionBuilder::from_config(&config)
            .threads(8)
            .build()
            .run();
        assert_eq!(serial.records, threaded.records, "{spec}");
    }
}

#[test]
fn scenario_sweeps_are_thread_count_invariant_and_match_direct_runs() {
    let mut base = ExperimentConfig::quick(Algorithm::TopK);
    base.rounds = 3;
    base.num_clients = 16;
    base.max_threads = 1;
    let configs = SweepGrid::new(base)
        .algorithms([Algorithm::FedAvg, Algorithm::Bcrs])
        .scenarios([
            None,
            Some("diurnal:period=4".parse().unwrap()),
            Some("towers:groups=4,outage=0.3,repair=0.4".parse().unwrap()),
        ])
        .configs();
    let serial = run_sweep_threaded(&configs, 1);
    let threaded = run_sweep_threaded(&configs, 8);
    for ((config, a), b) in configs.iter().zip(&serial).zip(&threaded) {
        assert_eq!(a.records, b.records, "sweep threads changed {config:?}");
        let direct = run_experiment(config);
        assert_eq!(a.records, direct.records, "sweep diverged from {config:?}");
    }
}

#[test]
fn scenarios_produce_distinct_fleet_trajectories_under_one_seed() {
    let specs = [
        "diurnal:period=4,min_up=0.2,max_up=0.9",
        "churn:leave=0.2,join=0.4",
        "towers:groups=4,outage=0.3,repair=0.4",
    ];
    let mut trajectories = Vec::new();
    for spec in specs {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 6;
        config.num_clients = 16;
        config.scenario = Some(spec.parse().unwrap());
        let result = run_experiment(&config);
        trajectories.push(trajectory(&result.records, 16));
    }
    for (i, a) in trajectories.iter().enumerate() {
        for b in &trajectories[i + 1..] {
            assert_ne!(a, b, "two scenarios share a fleet trajectory");
        }
    }
}

// --- Record-then-replay ----------------------------------------------------

#[test]
fn recorded_runs_replay_bit_identically_from_the_trace_file() {
    let mut config = ExperimentConfig::quick(Algorithm::EfTopK);
    config.rounds = 4;
    config.num_clients = 16;
    config.scenario = Some("churn:leave=0.2,join=0.5".parse().unwrap());
    let trace = record_scenario_trace(&config, config.rounds).expect("recording succeeds");
    let path = std::env::temp_dir().join("bwfl_scenario_engine_replay.trace");
    std::fs::write(&path, &trace).expect("trace file writes");

    let generated = run_experiment(&config);
    let mut replayed_config = config.clone();
    replayed_config.scenario = Some(
        format!("trace:{}", path.display())
            .parse()
            .expect("trace spec parses"),
    );
    let replayed = run_experiment(&replayed_config);
    let _ = std::fs::remove_file(&path);
    assert_eq!(generated.records, replayed.records);
}

#[test]
fn golden_fixture_is_what_the_towers_generator_emits() {
    let config = golden_config();
    let trace = record_scenario_trace(&config, config.rounds).expect("recording succeeds");
    if std::env::var("GOLDEN_PRINT").is_ok() {
        print!("{trace}");
        return;
    }
    assert_eq!(
        trace, GOLDEN_FIXTURE,
        "the towers generator no longer reproduces the committed fixture"
    );
}

#[test]
fn golden_fixture_replays_like_the_generator() {
    let config = golden_config();
    let generated = run_experiment(&config);
    let mut replayed_config = config.clone();
    replayed_config.scenario = Some(ScenarioSpec::Trace {
        path: fixture_path(),
    });
    let replayed = run_experiment(&replayed_config);
    assert_eq!(generated.records, replayed.records);
    // The dynamic fleet actually did something in this window.
    assert!(trajectory(&generated.records, 16).iter().any(|&n| n < 16));
}

// --- Trace-format properties ----------------------------------------------

/// Strategy: one fleet event over an 8-client fleet, with arbitrary finite
/// positive link parameters.
fn event_strategy() -> impl Strategy<Value = FleetEvent> {
    (0usize..5, 0usize..8, 1e-3f64..1e12, 0.0f64..100.0).prop_map(
        |(kind, client, bandwidth_bps, latency_s)| {
            let link = Link {
                bandwidth_bps,
                latency_s,
            };
            match kind {
                0 => FleetEvent::Down { client },
                1 => FleetEvent::Up { client },
                2 => FleetEvent::Leave { client },
                3 => FleetEvent::LinkSet { client, link },
                _ => FleetEvent::Join { client, link },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any event stream with non-decreasing rounds survives the
    /// render → parse round trip exactly, including float bit patterns.
    #[test]
    fn trace_text_round_trips(
        steps in proptest::collection::vec((0usize..3, event_strategy()), 0..40),
    ) {
        let mut round = 0;
        let mut events = Vec::new();
        let mut text = String::from("bwfl-trace-v1 clients=8\n");
        for (gap, event) in steps {
            round += gap;
            let timed = TimedEvent { round, event };
            text.push_str(&timed.to_string());
            text.push('\n');
            events.push(timed);
        }
        let reader = TraceReader::new(Cursor::new(text.into_bytes())).unwrap();
        let parsed: Vec<TimedEvent> = reader.map(|e| e.unwrap()).collect();
        prop_assert_eq!(parsed, events);
    }
}

#[test]
fn corrupt_traces_are_rejected() {
    // Header corruption fails at construction.
    for (text, why) in [
        ("", "empty input"),
        ("not-a-trace clients=8\n", "wrong magic"),
        ("bwfl-trace-v1\n", "missing clients"),
        ("bwfl-trace-v1 clients=0\n", "empty fleet"),
        ("bwfl-trace-v1 clients=8 extra\n", "trailing header token"),
    ] {
        assert!(
            TraceScenario::from_reader(Cursor::new(text.as_bytes().to_vec())).is_err(),
            "{why}: {text:?}"
        );
    }
    // Event corruption fails at the offending line.
    for (body, why) in [
        ("0 explode 1", "unknown verb"),
        ("0 down 99", "client out of range"),
        ("0 link 1 -5.0 0.1", "negative bandwidth"),
        ("0 join 1 1e6 nan", "non-finite latency"),
        ("3 down 1\n1 up 1", "out-of-order rounds"),
    ] {
        let text = format!("bwfl-trace-v1 clients=8\n{body}\n");
        let reader = TraceReader::new(Cursor::new(text.into_bytes())).unwrap();
        let results: Vec<_> = reader.collect();
        assert!(
            results.iter().any(|r| r.is_err()),
            "{why}: {body:?} parsed cleanly"
        );
    }
    // A missing trace file surfaces as an I/O error when the spec builds.
    let spec = ScenarioSpec::Trace {
        path: "/nonexistent/bwfl.trace".to_string(),
    };
    assert!(spec.build(8, 0).is_err());
}
