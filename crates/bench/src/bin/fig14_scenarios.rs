//! Fig. 14 (repo extension): the seven algorithms under dynamic fleets.
//!
//! The paper evaluates every algorithm on a static always-on fleet. This
//! harness re-runs the full algorithm roster through the scenario engine
//! (`fl_netsim::scenario` driven by `fl_core::scenario`) and emits one
//! machine-readable JSON document (`BENCH_scenarios.json` in the repository
//! root is a committed run):
//!
//! * one sweep row per fleet scenario — the static baseline, a diurnal
//!   participation wave, Poisson churn, correlated tower outages, and
//!   (outside `--quick`) tiered link-class jitter — each crossed with all
//!   seven algorithms through the sweep driver's scenario axis;
//! * per scenario the per-round `available_clients` trajectory (identical
//!   across algorithms by construction: the fleet stream is seeded from
//!   `scenario_seed`, not the algorithm), asserted — when running the
//!   default roster — to give ≥ 3 distinct trajectories under the one
//!   master seed;
//! * an embedded record-then-replay check: the diurnal generator is recorded
//!   to a `bwfl-trace-v1` file, replayed through `trace:PATH`, and the replay
//!   run's records must be bit-identical to the generator run's;
//! * an embedded thread-identity check: the busiest configuration
//!   (BCRS+OPWA under churn) must produce identical records with 1 and 8
//!   worker threads.
//!
//! `--scenario SPEC` replaces the dynamic rows with the given spec (the
//! static baseline row is kept for reference). `--csv` prints one line per
//! round per run instead of prose; the JSON document still goes to `--out`
//! when given.
//!
//! `cargo run --release -p fl-bench --bin fig14_scenarios -- [--quick|--full]
//!  [--scenario SPEC] [--rounds N] [--out FILE] [--csv]`

use fl_bench::{bench_config, BenchArgs};
use fl_core::{
    record_scenario_trace, run_experiment, run_sweep_threaded_progress, Algorithm,
    ExperimentConfig, ModelPreset, RoundRecord, SessionBuilder, SweepGrid,
};
use fl_data::DatasetPreset;
use fl_netsim::ScenarioSpec;

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::TopKOpwa,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
];

/// Render an `f64` as a JSON number (finite values only).
fn json_f64(x: f64) -> String {
    assert!(x.is_finite(), "cannot serialise {x} as a JSON number");
    format!("{x:.6}")
}

/// The per-round fleet size, falling back to the full population for
/// static-fleet records (which carry no scenario telemetry).
fn available(record: &RoundRecord, num_clients: usize) -> usize {
    record.scenario.map(|t| t.available).unwrap_or(num_clients)
}

fn base_config(args: &BenchArgs) -> ExperimentConfig {
    let mut config = bench_config(
        Algorithm::FedAvg,
        DatasetPreset::Cifar10Like,
        0.5,
        0.1,
        args,
    );
    config.rounds = args.effective_rounds(40);
    config.dataset_scale = args.effective_scale(0.4);
    config.num_clients = 32;
    config.participation = 0.5;
    config.model = ModelPreset::Mlp {
        hidden1: 32,
        hidden2: 16,
    };
    config
}

fn main() {
    let args = BenchArgs::parse();
    let base = base_config(&args);
    let rounds = base.rounds;
    let num_clients = base.num_clients;

    // --- The scenario rows --------------------------------------------------
    let mut rows: Vec<Option<ScenarioSpec>> = vec![None];
    if let Some(spec) = &args.scenario {
        rows.push(Some(spec.clone()));
    } else {
        rows.push(Some(
            "diurnal:period=8,min_up=0.25,max_up=0.95".parse().unwrap(),
        ));
        rows.push(Some("churn:leave=0.08,join=0.3".parse().unwrap()));
        rows.push(Some(
            "towers:groups=4,outage=0.25,repair=0.5".parse().unwrap(),
        ));
        if !args.quick {
            rows.push(Some("tiered:resample=0.3,sigma=0.3".parse().unwrap()));
        }
    }
    let row_label = |row: &Option<ScenarioSpec>| match row {
        Some(spec) => spec.name().to_string(),
        None => "static".to_string(),
    };

    // --- Record-then-replay: the diurnal generator, recorded to a trace
    // file, must replay bit-identically through `trace:PATH`. ----------------
    let mut recorded = base.clone();
    recorded.scenario = Some("diurnal:period=8,min_up=0.25,max_up=0.95".parse().unwrap());
    let trace = record_scenario_trace(&recorded, rounds)
        .unwrap_or_else(|e| panic!("cannot record the diurnal trace: {e}"));
    let trace_path = std::env::temp_dir().join(format!("bwfl_fig14_replay_{}.trace", args.seed));
    let trace_path = trace_path.to_str().expect("temp path is UTF-8").to_string();
    std::fs::write(&trace_path, &trace)
        .unwrap_or_else(|e| panic!("cannot write {trace_path}: {e}"));
    let mut replayed = base.clone();
    replayed.scenario = Some(ScenarioSpec::Trace {
        path: trace_path.clone(),
    });
    let generated_run = run_experiment(&recorded);
    let replayed_run = run_experiment(&replayed);
    // `{:?}` round-trips every float exactly, so string equality here is bit
    // equality of the full record set.
    let trace_replay_identical =
        format!("{:?}", generated_run.records) == format!("{:?}", replayed_run.records);
    assert!(
        trace_replay_identical,
        "replaying the recorded diurnal trace diverged from the generator run"
    );
    let _ = std::fs::remove_file(&trace_path);
    if !args.csv {
        eprintln!(
            "# replay check: recorded diurnal trace ({} rounds) replays bit-identically",
            rounds
        );
    }

    // --- Thread identity: the scenario driver must not perturb the engine's
    // thread-count invariance. ----------------------------------------------
    let mut identity = base.clone();
    identity.algorithm = Algorithm::BcrsOpwa;
    identity.scenario = Some("churn:leave=0.08,join=0.3".parse().unwrap());
    identity.rounds = rounds.min(4);
    let serial = SessionBuilder::from_config(&identity)
        .threads(1)
        .build()
        .run();
    let threaded = SessionBuilder::from_config(&identity)
        .threads(8)
        .build()
        .run();
    let threads_identical = format!("{:?}", serial.records) == format!("{:?}", threaded.records);
    assert!(
        threads_identical,
        "records diverge between 1 and 8 worker threads under churn"
    );
    if !args.csv {
        eprintln!("# identity check: 1-thread and 8-thread records identical under churn");
    }

    // --- The grid: every algorithm × every scenario row ---------------------
    let grid = SweepGrid::new(base.clone())
        .algorithms(ALL_ALGORITHMS)
        .scenarios(rows.clone());
    let configs = grid.configs();
    let results = run_sweep_threaded_progress(&configs, args.sweep_threads, args.progress);

    // The scenario axis is inner to the algorithm axis, so run index is
    // `alg_idx * rows.len() + row_idx`.
    let run = |alg_idx: usize, row_idx: usize| &results[alg_idx * rows.len() + row_idx];

    // --- Distinct trajectories: the per-round fleet sizes must actually
    // differ between scenarios (same master seed throughout). ----------------
    let trajectories: Vec<Vec<usize>> = (0..rows.len())
        .map(|row_idx| {
            let records = &run(0, row_idx).records;
            records.iter().map(|r| available(r, num_clients)).collect()
        })
        .collect();
    for (row_idx, row) in rows.iter().enumerate() {
        for alg_idx in 1..ALL_ALGORITHMS.len() {
            let got: Vec<usize> = run(alg_idx, row_idx)
                .records
                .iter()
                .map(|r| available(r, num_clients))
                .collect();
            assert_eq!(
                got,
                trajectories[row_idx],
                "{}: fleet trajectory depends on the algorithm",
                row_label(row)
            );
        }
    }
    let mut distinct: Vec<&Vec<usize>> = Vec::new();
    for t in &trajectories {
        if !distinct.contains(&t) {
            distinct.push(t);
        }
    }
    // Only the default roster promises >= 3 distinct trajectories; a
    // `--scenario` override runs two rows, and a link-only spec (tiered)
    // legitimately shares the static availability trajectory.
    if args.scenario.is_none() {
        assert!(
            distinct.len() >= 3,
            "expected >= 3 distinct fleet trajectories, got {}",
            distinct.len()
        );
    }
    if !args.csv {
        eprintln!(
            "# {} scenarios produced {} distinct fleet trajectories",
            rows.len(),
            distinct.len()
        );
    }

    // --- CSV: one line per round per run ------------------------------------
    if args.csv {
        println!(
            "scenario,algorithm,round,available_clients,selected,joined,departed,link_changes,\
             comm_actual_s,cum_actual_s,test_accuracy"
        );
        for (row_idx, row) in rows.iter().enumerate() {
            for (alg_idx, algorithm) in ALL_ALGORITHMS.iter().enumerate() {
                for r in &run(alg_idx, row_idx).records {
                    let t = r.scenario.unwrap_or(fl_netsim::ScenarioTelemetry {
                        available: num_clients,
                        joined: 0,
                        departed: 0,
                        link_changes: 0,
                    });
                    println!(
                        "{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4}",
                        row_label(row),
                        algorithm.name(),
                        r.round,
                        t.available,
                        r.selected_clients.len(),
                        t.joined,
                        t.departed,
                        t.link_changes,
                        r.comm_actual_s,
                        r.cumulative_actual_s,
                        r.test_accuracy,
                    );
                }
            }
        }
    }

    // --- JSON ---------------------------------------------------------------
    let scenario_blocks: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(row_idx, row)| {
            let spec = match row {
                Some(s) => format!("\"{s}\""),
                None => "null".to_string(),
            };
            let trajectory = trajectories[row_idx]
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let runs: Vec<String> = ALL_ALGORITHMS
                .iter()
                .enumerate()
                .map(|(alg_idx, algorithm)| {
                    let result = run(alg_idx, row_idx);
                    let last = result.records.last().expect("runs have records");
                    let (joined, departed, link_changes) = result.records.iter().fold(
                        (0usize, 0usize, 0usize),
                        |(j, d, l), r| match r.scenario {
                            Some(t) => (j + t.joined, d + t.departed, l + t.link_changes),
                            None => (j, d, l),
                        },
                    );
                    format!(
                        "        {{\"algorithm\": \"{}\", \"final_accuracy\": {}, \
                         \"best_accuracy\": {}, \"cum_actual_s\": {}, \"uplink_bytes\": {}, \
                         \"total_joined\": {joined}, \"total_departed\": {departed}, \
                         \"total_link_changes\": {link_changes}}}",
                        algorithm.name(),
                        json_f64(result.final_accuracy),
                        json_f64(result.best_accuracy),
                        json_f64(last.cumulative_actual_s),
                        result.records.iter().map(|r| r.uplink_bytes).sum::<usize>(),
                    )
                })
                .collect();
            format!(
                "    {{\"scenario\": \"{}\", \"spec\": {spec}, \
                 \"available_per_round\": [{trajectory}],\n      \"runs\": [\n{}\n      ]}}",
                row_label(row),
                runs.join(",\n"),
            )
        })
        .collect();
    let mode = if args.quick {
        "quick"
    } else if args.full {
        "full"
    } else {
        "default"
    };
    let json = format!(
        "{{\n  \"schema\": \"bwfl-scenarios-v1\",\n  \"generated_by\": \"fig14_scenarios\",\n  \
         \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"rounds\": {rounds},\n  \
         \"num_clients\": {num_clients},\n  \"cohort\": {cohort},\n  \
         \"dataset\": \"cifar10-like\",\n  \"dataset_scale\": {scale},\n  \
         \"trace_replay_identical\": {trace_replay_identical},\n  \
         \"threads_compared\": [1, 8],\n  \"records_identical\": {threads_identical},\n  \
         \"distinct_trajectories\": {distinct},\n  \"scenarios\": [\n{blocks}\n  ]\n}}\n",
        seed = args.seed,
        cohort = base.clients_per_round(),
        scale = json_f64(base.dataset_scale),
        distinct = distinct.len(),
        blocks = scenario_blocks.join(",\n"),
    );
    match args.flag_value("--out") {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            if !args.csv {
                eprintln!("# wrote {path}");
            }
        }
        None => {
            if !args.csv {
                print!("{json}");
            }
        }
    }
}
