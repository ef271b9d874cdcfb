//! The untraced run: the end-to-end metrics of one workload, measured with
//! tracing and allocation counting off.
//!
//! The load is closed-loop: one session steps `run_round()` back to back.
//! After a short untimed warm-up the repeats run at 1 worker thread, then
//! again at `T = min(nproc, 4)`; the two passes must produce the same records.

use crate::machine::{mt_threads, peak_rss_mb};
use crate::report::{Gate, Outcome};
use crate::stats::{first_reaching, mean, median, Fnv};
use crate::workloads::{Shape, Workload};
use bwfl::prelude::*;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Everything a record must satisfy whatever the workload: finite fields
/// (the NaN placeholders before the first evaluation are by design) and a
/// fastest client no slower than the straggler.
fn record_ok(r: &RoundRecord, eval_every: usize) -> bool {
    let evaluated = r.round + 1 >= eval_every;
    let timing = [
        r.train_loss,
        r.mean_compression_ratio,
        r.comm_actual_s,
        r.comm_max_s,
        r.comm_min_s,
        r.cumulative_actual_s,
        r.cumulative_max_s,
        r.cumulative_min_s,
    ];
    timing.iter().all(|v| v.is_finite())
        && (!evaluated || (r.test_accuracy.is_finite() && r.test_loss.is_finite()))
        && r.comm_min_s <= r.comm_actual_s
}

fn fingerprint(records: &[RoundRecord]) -> u64 {
    let mut h = Fnv::default();
    for r in records {
        h.debug(r);
    }
    h.0
}

/// What the quality metrics need from a finished trajectory.
struct Trajectory {
    fingerprint: u64,
    accuracy: Vec<f64>,
    sim_s: Vec<f64>,
    bytes_per_round: f64,
}

impl Trajectory {
    fn of(records: &[RoundRecord]) -> Self {
        Self {
            fingerprint: fingerprint(records),
            accuracy: records.iter().map(|r| r.test_accuracy).collect(),
            sim_s: records.iter().map(|r| r.cumulative_actual_s).collect(),
            bytes_per_round: mean(
                &records
                    .iter()
                    .map(|r| (r.uplink_bytes + r.downlink_bytes) as f64)
                    .collect::<Vec<_>>(),
            ),
        }
    }

    fn final_accuracy(&self) -> f64 {
        *self
            .accuracy
            .last()
            .expect("a session runs at least one round")
    }
}

struct SessionRun {
    setup_s: f64,
    round_s: Vec<f64>,
    trajectory: Trajectory,
}

/// Build one session, step it to its horizon, and gate every round.
fn run_session(config: &ExperimentConfig, threads: usize, gate: &mut Gate) -> SessionRun {
    let start = Instant::now();
    let mut session = SessionBuilder::from_config(config).threads(threads).build();
    let setup_s = start.elapsed().as_secs_f64();
    let mut round_s = Vec::with_capacity(config.rounds);
    let mut roster_ok = Vec::with_capacity(config.rounds);
    while !session.is_finished() {
        let start = Instant::now();
        let out = black_box(session.run_round());
        round_s.push(start.elapsed().as_secs_f64());
        let roster = session.roster();
        roster_ok.push(
            roster.resident() == 0
                && roster.round_instantiated() == out.record.selected_clients.len(),
        );
    }
    for (r, roster_ok) in session.records().iter().zip(roster_ok) {
        gate.op(roster_ok && record_ok(r, config.eval_every), || {
            format!(
                "seed {} round {}: record or roster check",
                config.seed, r.round
            )
        });
    }
    SessionRun {
        setup_s,
        round_s,
        trajectory: Trajectory::of(session.records()),
    }
}

/// The seed-dependent metrics of one federation (or one grid).
struct Quality {
    host_time_to_acc_s: f64,
    sim_time_to_acc_s: f64,
    final_accuracy: f64,
    wire_bytes_per_round: f64,
}

/// One repeat at one thread count.
struct Repeat {
    /// One sample per session built (per grid on the sweep).
    setup_s: Vec<f64>,
    rounds_per_s: f64,
    /// One per session (per cell on the sweep): what the other thread count
    /// must reproduce.
    fingerprints: Vec<u64>,
    /// One per session (one per grid on the sweep).
    quality: Vec<Quality>,
}

fn repeat_of_sessions(
    configs: &[ExperimentConfig],
    target: f64,
    threads: usize,
    gate: &mut Gate,
) -> Repeat {
    let runs: Vec<SessionRun> = configs
        .iter()
        .map(|c| run_session(c, threads, gate))
        .collect();
    let rounds: usize = runs.iter().map(|r| r.round_s.len()).sum();
    let loop_s: f64 = runs.iter().flat_map(|r| &r.round_s).sum();
    let quality = configs
        .iter()
        .zip(&runs)
        .map(|(config, run)| {
            let t = &run.trajectory;
            // A session that never gets there is a failed operation, and
            // enters the means at its full length.
            let hit = first_reaching(&t.accuracy, target);
            gate.op(hit.is_some(), || {
                format!("seed {}: accuracy {target} never reached", config.seed)
            });
            let hit = hit.unwrap_or(t.accuracy.len() - 1);
            Quality {
                host_time_to_acc_s: run.setup_s + run.round_s[..=hit].iter().sum::<f64>(),
                sim_time_to_acc_s: t.sim_s[hit],
                final_accuracy: t.final_accuracy(),
                wire_bytes_per_round: t.bytes_per_round,
            }
        })
        .collect();
    Repeat {
        setup_s: runs.iter().map(|r| r.setup_s).collect(),
        rounds_per_s: rounds as f64 / loop_s,
        fingerprints: runs.iter().map(|r| r.trajectory.fingerprint).collect(),
        quality,
    }
}

/// What a user pays before a sweep's first round: the grid's distinct
/// datasets, then every session built over them.
fn sweep_setup_s(configs: &[ExperimentConfig]) -> f64 {
    let start = Instant::now();
    let mut data: BTreeMap<u64, (Arc<Dataset>, Arc<Dataset>)> = BTreeMap::new();
    for c in configs {
        data.entry(c.seed).or_insert_with(|| {
            let (train, test) = c.dataset.spec(c.dataset_scale).generate(c.seed);
            (Arc::new(train), Arc::new(test))
        });
    }
    for c in configs {
        let (train, test) = data[&c.seed].clone();
        black_box(
            SessionBuilder::from_config(c)
                .with_shared_data(train, test)
                .build(),
        );
    }
    start.elapsed().as_secs_f64()
}

fn repeat_of_sweep(configs: &[ExperimentConfig], threads: usize, gate: &mut Gate) -> Repeat {
    let setup_s = sweep_setup_s(configs);
    let start = Instant::now();
    let results = run_sweep_threaded(configs, threads);
    let wall_s = start.elapsed().as_secs_f64();
    let grid: Vec<Trajectory> = configs
        .iter()
        .zip(&results)
        .map(|(config, result)| {
            gate.op(
                result.records.len() == config.rounds
                    && result
                        .records
                        .iter()
                        .all(|r| record_ok(r, config.eval_every)),
                || {
                    format!(
                        "{} beta {} CR {} seed {}: bad record",
                        config.algorithm.name(),
                        config.beta,
                        config.compression_ratio,
                        config.seed
                    )
                },
            );
            Trajectory::of(&result.records)
        })
        .collect();
    let rounds: usize = configs.iter().map(|c| c.rounds).sum();
    let grid_mean = |f: &dyn Fn(&Trajectory) -> f64| mean(&grid.iter().map(f).collect::<Vec<_>>());
    Repeat {
        setup_s: vec![setup_s],
        rounds_per_s: rounds as f64 / wall_s,
        fingerprints: grid.iter().map(|t| t.fingerprint).collect(),
        // No one accuracy target fits 84 cells (the CR = 0.01 cells never
        // approach the others), so the grid's "time to target" is the time to
        // finish the grid, on the host and on the simulated clock.
        quality: vec![Quality {
            host_time_to_acc_s: setup_s + wall_s,
            sim_time_to_acc_s: grid_mean(&|t| *t.sim_s.last().expect("rounds > 0")),
            final_accuracy: grid_mean(&|t| t.final_accuracy()),
            wire_bytes_per_round: grid_mean(&|t| t.bytes_per_round),
        }],
    }
}

/// The configs of one repeat, and of the short untimed warm-up.
fn repeat_configs(workload: &Workload, seed: u64, repeat: usize) -> Vec<ExperimentConfig> {
    match workload.shape {
        Shape::Sessions { per_repeat, .. } => (0..per_repeat)
            .map(|j| workload.session(seed, repeat * per_repeat + j))
            .collect(),
        Shape::Sweep => workload.grid(seed, repeat),
    }
}

fn run_repeat(
    workload: &Workload,
    configs: &[ExperimentConfig],
    threads: usize,
    gate: &mut Gate,
) -> Repeat {
    match workload.shape {
        Shape::Sessions { target, .. } => repeat_of_sessions(configs, target, threads, gate),
        Shape::Sweep => repeat_of_sweep(configs, threads, gate),
    }
}

fn warm_up(workload: &Workload, seed: u64, threads: usize) {
    let mut configs = repeat_configs(workload, seed, 0);
    configs.truncate(2 * threads);
    for c in &mut configs {
        c.rounds = c.rounds.min(3);
    }
    // Its target misses and timings are nobody's business.
    run_repeat(workload, &configs, threads, &mut Gate::default());
}

/// All repeats at 1 thread, then all again at `T`. Timed metrics are medians
/// over repeats; quality metrics are means over the run's federations (or
/// grids), which differ in seed.
///
/// `peak_rss_mb` is read between the two passes, before any worker thread
/// exists: with threads, glibc's per-thread arenas move the high-water mark
/// by 10% from run to run at one seed.
pub fn run(workload: &Workload, seed: u64, repeats: usize) -> Outcome {
    let threads = mt_threads();
    let mut gate = Gate::default();
    let mut pass = |threads: usize| -> Vec<Repeat> {
        warm_up(workload, seed, threads);
        (0..repeats)
            .map(|r| {
                run_repeat(
                    workload,
                    &repeat_configs(workload, seed, r),
                    threads,
                    &mut gate,
                )
            })
            .collect()
    };
    let single = pass(1);
    let peak_rss_mb = peak_rss_mb().expect("VmHWM in /proc/self/status (Linux only)");
    let multi = pass(threads);

    let mut fingerprint = Fnv::default();
    for (r, (one, many)) in single.iter().zip(&multi).enumerate() {
        for (i, (a, b)) in one.fingerprints.iter().zip(&many.fingerprints).enumerate() {
            gate.op(a == b, || {
                format!("repeat {r} unit {i}: records differ between 1 and {threads} threads")
            });
            fingerprint.bytes(&a.to_le_bytes());
        }
    }
    let timed = |pass: &[Repeat], f: &dyn Fn(&Repeat) -> f64| {
        median(&pass.iter().map(f).collect::<Vec<_>>())
    };
    let quality = |f: &dyn Fn(&Quality) -> f64| {
        mean(
            &single
                .iter()
                .flat_map(|r| &r.quality)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let setup_s: Vec<f64> = single
        .iter()
        .chain(&multi)
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    Outcome {
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("rounds_per_s", timed(&single, &|r| r.rounds_per_s)),
            ("rounds_per_s_mt", timed(&multi, &|r| r.rounds_per_s)),
            ("host_time_to_acc_s", quality(&|q| q.host_time_to_acc_s)),
            ("sim_time_to_acc_s", quality(&|q| q.sim_time_to_acc_s)),
            ("final_accuracy", quality(&|q| q.final_accuracy)),
            ("wire_bytes_per_round", quality(&|q| q.wire_bytes_per_round)),
            ("peak_rss_mb", peak_rss_mb),
        ],
        gate,
        fingerprint: Some(fingerprint.0),
    }
}
