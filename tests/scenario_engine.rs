//! Integration tests of the trace-driven scenario engine: thread-count
//! invariance of dynamic-fleet runs, the `bwfl-trace-v1` format's round-trip
//! and rejection properties, and the golden-fixture replay that pins the
//! generators' byte output.
//!
//! To re-capture the golden fixture after an *intentional* generator change:
//! `GOLDEN_PRINT=1 cargo test --release --test scenario_engine golden -- --nocapture`
//! and paste the output into `tests/fixtures/towers_n16_seed7.trace`.

use bwfl::prelude::*;
use bwfl::tensor::Uniform;

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
        .axis([Algorithm::FedAvg, Algorithm::Bcrs], |c, &a| {
            c.algorithm = a
        })
        .axis(
            [
                None,
                Some("diurnal:period=4".parse().unwrap()),
                Some("towers:groups=4,outage=0.3,repair=0.4".parse().unwrap()),
            ],
            |c, s| c.scenario = s.clone(),
        )
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
        // The fleet stream is seeded apart from the algorithm, so another
        // algorithm sees the same fleet under the same spec.
        config.algorithm = Algorithm::BcrsOpwa;
        let other = run_experiment(&config);
        assert_eq!(
            trajectory(&other.records, 16),
            trajectories[trajectories.len() - 1],
            "{spec}"
        );
    }
    for (i, a) in trajectories.iter().enumerate() {
        for b in &trajectories[i + 1..] {
            assert_ne!(a, b, "two scenarios share a fleet trajectory");
        }
    }
    // The diurnal wave actually moves the fleet size.
    let mut diurnal = trajectories[0].clone();
    diurnal.dedup();
    assert!(
        diurnal.len() >= 2,
        "diurnal fleet never changed: {:?}",
        trajectories[0]
    );
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

/// One fleet event over an 8-client fleet, with arbitrary finite positive
/// link parameters.
fn event(rng: &mut Xoshiro256) -> FleetEvent {
    let (kind, client) = (rng.next_below(5), rng.next_below(8));
    let link = Link {
        bandwidth_bps: Uniform::new(1e-3, 1e12).sample(rng),
        latency_s: Uniform::new(0.0, 100.0).sample(rng),
    };
    match kind {
        0 => FleetEvent::Down { client },
        1 => FleetEvent::Up { client },
        2 => FleetEvent::Leave { client },
        3 => FleetEvent::LinkSet { client, link },
        _ => FleetEvent::Join { client, link },
    }
}

/// Any event stream with non-decreasing rounds survives the
/// render → parse round trip exactly, including float bit patterns.
#[test]
fn trace_text_round_trips() {
    let mut rng = Xoshiro256::new(1);
    for _ in 0..64 {
        let steps: Vec<(usize, FleetEvent)> = (0..rng.next_below(40))
            .map(|_| (rng.next_below(3), event(&mut rng)))
            .collect();
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
        let parsed: TraceScenario = text.parse().unwrap();
        assert_eq!(parsed.events(), events);
    }
}

#[test]
fn corrupt_traces_are_rejected() {
    // Header corruption fails.
    for (text, why) in [
        ("", "empty input"),
        ("not-a-trace clients=8\n", "wrong magic"),
        ("bwfl-trace-v1\n", "missing clients"),
        ("bwfl-trace-v1 clients=0\n", "empty fleet"),
        ("bwfl-trace-v1 clients=8 extra\n", "trailing header token"),
    ] {
        assert!(text.parse::<TraceScenario>().is_err(), "{why}: {text:?}");
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
        assert!(
            text.parse::<TraceScenario>().is_err(),
            "{why}: {body:?} parsed cleanly"
        );
    }
    // A missing trace file surfaces as an I/O error when the spec builds.
    let spec = ScenarioSpec::Trace {
        path: "/nonexistent/bwfl.trace".to_string(),
    };
    assert!(spec.build(8, 0, &LinkGenerator::paper_default()).is_err());
}

/// A valid header over a corrupt body fails `validate()` naming the line,
/// before any run starts.
#[test]
fn validate_rejects_a_corrupt_trace_body() {
    for (name, body, why) in [
        ("verb", "0 down 1\n2 explode 3", "unknown event verb"),
        ("client", "0 down 1\n2 down 8", "out of range"),
        ("order", "2 down 1\n0 up 1", "non-decreasing"),
    ] {
        let file = format!("bwfl_bad_{name}_{}.trace", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, format!("bwfl-trace-v1 clients=8\n{body}\n")).unwrap();
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.num_clients = 8;
        config.scenario = Some(format!("trace:{}", path.display()).parse().unwrap());
        let result = config.validate();
        let _ = std::fs::remove_file(&path);
        let err = result.expect_err(name);
        assert!(
            err.contains("trace line 3") && err.contains(why),
            "{name}: {err}"
        );
    }
}

/// Every prefix and every single-bit flip of the golden trace parses to
/// `Ok` or `Err` without panicking, and whatever parses re-renders to text
/// that parses back to the same trace.
#[test]
fn trace_parser_survives_truncation_and_bit_flips() {
    let bytes = GOLDEN_FIXTURE.as_bytes();
    let prefixes = (0..=bytes.len()).map(|end| bytes[..end].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut b = bytes.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        b
    });
    for input in prefixes.chain(flips) {
        let text = String::from_utf8_lossy(&input);
        if let Ok(trace) = text.parse::<TraceScenario>() {
            assert_eq!(trace.to_string().parse::<TraceScenario>(), Ok(trace));
        }
    }
}
