//! The traced run: the per-layer metrics of one workload, at 1 worker thread.
//!
//! The library has no tracing hooks, so every span is recorded here, around
//! public calls. Each traced round spans the real `session.run_round()` and
//! then replays that round's cohort stage by stage, one span per call:
//! checkout, local update, encode, decode, checkin, overlap count, OPWA mask,
//! sharded aggregation, evaluation. `trace.coverage` says how much of the real
//! round the replayed stages add up to.
//!
//! The replay goes through the session's own roster, so it advances the
//! cohort's RNG streams and error-feedback residuals a second time: the traced
//! session's trajectory is deterministic in `--seed` but is not the untraced
//! one. Stages the session does not run on this workload (say the OPWA mask
//! under plain Top-K) are still timed for their per-layer metric, under an
//! `extra.` span name that coverage and the shares leave out.

use crate::alloc;
use crate::machine::mt_threads;
use crate::report::{Gate, Outcome};
use crate::stats::{mean, median, percentile};
use crate::trace::{self_time_table, totals_by_name, write_jsonl, Tracer};
use crate::workloads::{derive_seed, Shape, Workload};
use bwfl::compress::{CodecCtx, KIND_ENTROPY};
use bwfl::core::aggregate::{
    aggregate_compressed_sharded, aggregate_sparse_sharded, apply_update,
    data_fractions_or_uniform, AGG_SHARD,
};
use bwfl::core::client::build_model;
use bwfl::core::eval::evaluate_with_threads;
use bwfl::nn::{unflatten_params, ParamLayout, Sgd, SoftmaxCrossEntropy, Workspace};
use bwfl::prelude::*;
use bwfl::tensor::kernels::axpy;
use bwfl::tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use bwfl::tensor::{Shape as Dims, Tensor, Xoshiro256};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Span names of the replayed stages. Index 1 is the name when the session
/// runs the stage too, index 0 the `extra.` name when it does not.
const DOWNLINK: [&str; 2] = ["extra.downlink.broadcast", "downlink.broadcast"];
const BCRS: [&str; 2] = ["extra.bcrs.schedule", "bcrs.schedule"];
const OVERLAP: [&str; 2] = ["extra.overlap.count", "overlap.count"];
const OPWA: [&str; 2] = ["extra.opwa.mask", "opwa.mask"];
const RESIDUAL_NORM: &str = "roster.residual_norm";
const CHECKOUT: &str = "roster.checkout";
const CHECKIN: &str = "roster.checkin";
const TRAIN: &str = "client.train";
const ENCODE: &str = "client.encode";
const DECODE: &str = "client.decode";
const AGGREGATE: &str = "aggregate.fold";
const EVAL: &str = "eval";

/// The stage groups behind `share.*`; every mirrored stage is in one.
const SHARES: [(&str, &[&str]); 5] = [
    ("share.train", &[TRAIN]),
    ("share.codec", &[ENCODE, DECODE, DOWNLINK[1]]),
    ("share.roster", &[CHECKOUT, CHECKIN, RESIDUAL_NORM]),
    ("share.eval", &[EVAL]),
    (
        "share.aggregate",
        &[OVERLAP[1], OPWA[1], AGGREGATE, BCRS[1]],
    ),
];

/// Counts taken at the stage boundaries, summed over the traced rounds.
#[derive(Default)]
struct Counts {
    rounds: usize,
    run_round_ns: Vec<f64>,
    allocations: u64,
    allocated_bytes: u64,
    coords_coded: f64,
    wire_bytes: f64,
    kept_coords: f64,
    rc_encodes: f64,
    rc_fallbacks: f64,
    batches: f64,
    samples: f64,
    straggler_frac: Vec<f64>,
    bcrs_mean_ratio: Vec<f64>,
    singleton_frac: Vec<f64>,
    enlarged_frac: Vec<f64>,
    shards: Vec<f64>,
    eval_samples: f64,
    plan_epochs: f64,
    available: Vec<f64>,
    sim_round_s: Vec<f64>,
}

/// Step `config` untraced and return the `run_round` walls in seconds, with
/// the finished session for its roster counters.
fn reference(config: &ExperimentConfig, threads: usize) -> (Vec<f64>, FederatedSession) {
    let mut session = SessionBuilder::from_config(config).threads(threads).build();
    let walls = (0..config.rounds)
        .map(|_| {
            let start = Instant::now();
            black_box(session.run_round());
            start.elapsed().as_secs_f64()
        })
        .collect();
    (walls, session)
}

/// Trace `config.rounds` rounds of one session: the real round, then its
/// replay. `first_round` numbers the spans across sessions.
fn trace_session(
    config: &ExperimentConfig,
    first_round: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
    gate: &mut Gate,
) {
    let mut session = SessionBuilder::from_config(config).threads(1).build();
    let params = session.model_params();
    let registry = CodecRegistry::with_builtins();
    let layout: ParamLayout = session.param_layout().clone();

    // Standalone twins of the two server-side stages the session keeps
    // private: the broadcast channel and the BCRS scheduler.
    let downlink_ctx = CodecCtx::new(params, config.seed);
    let downlink_codec = match (
        &config.downlink_compressor,
        &config.downlink_layer_compressors,
    ) {
        (Some(spec), _) => registry.build(spec, &downlink_ctx),
        (None, Some(plan)) => plan.resolve(&registry, &segment_defs(&layout), &downlink_ctx),
        (None, None) => registry.build(&resolve_codec_spec(config), &downlink_ctx),
    }
    .expect("the workload's codec specs are valid");
    let has_downlink =
        config.downlink_compressor.is_some() || config.downlink_layer_compressors.is_some();
    let mut channel = DownlinkChannel::new(
        downlink_codec,
        session.global_params(),
        config.compression_ratio,
        config.seed,
    );
    let comm = CommModel::paper_default().with_cost_basis(config.cost_basis);
    let scheduler = BcrsScheduler::new(comm);
    let links = config.links.generate(config.num_clients, config.seed);

    let rc_spec = config.adaptive_plan.is_none()
        && config.layer_compressors.is_none()
        && resolve_codec_spec(config).to_string().contains(":rc");
    let uses_opwa = config.algorithm.uses_opwa();
    let mut eval_model = build_model(
        &config.model,
        session.test_dataset().feature_dim(),
        session.test_dataset().num_classes(),
        &mut Xoshiro256::new(config.seed),
    );
    let mut global_scratch = session.global_params().to_vec();

    for local_round in 0..config.rounds {
        let round = first_round + local_round;
        let round_span = tracer.open("round", round, None);

        alloc::set_counting(true);
        let before = alloc::counters();
        let (out, run_ns) = tracer.leaf("run_round", round, None, || session.run_round());
        alloc::set_counting(false);
        let after = alloc::counters();
        counts.rounds += 1;
        counts.run_round_ns.push(run_ns as f64);
        counts.allocations += after.0 - before.0;
        counts.allocated_bytes += after.1 - before.1;

        let replay = tracer.open("replay", round, None);
        let roster = session.roster();
        if config.adaptive_plan.is_some() {
            // The plan stage reads the fleet's parked residual norm each round.
            tracer.leaf(RESIDUAL_NORM, round, None, || roster.residual_total_norm());
        }
        tracer.leaf(DOWNLINK[has_downlink as usize], round, None, || {
            black_box(channel.broadcast(session.global_params()));
        });
        let cohort = &out.record.selected_clients;
        let cohort_links: Vec<Link> = cohort.iter().map(|&id| links[id]).collect();
        let (schedule, _) = tracer.leaf(
            BCRS[config.algorithm.uses_bcrs() as usize],
            round,
            None,
            || scheduler.schedule(&cohort_links, (params * 4) as f64, config.compression_ratio),
        );
        counts.bcrs_mean_ratio.push(schedule.mean_ratio());

        let global = session.broadcast_params();
        let mut updates = Vec::with_capacity(cohort.len());
        let mut sample_counts = Vec::with_capacity(cohort.len());
        let mut client_ns = Vec::with_capacity(cohort.len());
        for (slot, &id) in cohort.iter().enumerate() {
            let ratio = out
                .schedule
                .as_ref()
                .map_or(out.record.mean_compression_ratio, |s| s.ratios[slot]);
            let (mut client, _) = tracer.leaf(CHECKOUT, round, Some(id), || roster.checkout(id));
            let (trained, train_ns) =
                tracer.leaf(TRAIN, round, Some(id), || client.local_update(global));
            let (wire, encode_ns) = tracer.leaf(ENCODE, round, Some(id), || {
                client.encode(&trained.delta, ratio)
            });
            let (decoded, decode_ns) =
                tracer.leaf(DECODE, round, Some(id), || client.decode(&wire));
            let samples = client.num_samples();
            tracer.leaf(CHECKIN, round, Some(id), || roster.checkin(client));

            gate.op(
                decoded.as_ref().is_ok_and(|u| u.dense_len() == params),
                || {
                    format!(
                        "round {round} client {id}: decode(encode(delta)) failed or changed length"
                    )
                },
            );
            counts.coords_coded += params as f64;
            counts.wire_bytes += wire.len() as f64;
            if rc_spec {
                counts.rc_encodes += 1.0;
                counts.rc_fallbacks += (wire.kind().ok() != Some(KIND_ENTROPY)) as u8 as f64;
            }
            counts.batches += (samples.div_ceil(config.batch_size) * config.local_epochs) as f64;
            counts.samples += (samples * config.local_epochs) as f64;
            client_ns.push((train_ns + encode_ns + decode_ns) as f64);
            sample_counts.push(samples);
            if let Ok(update) = decoded {
                counts.kept_coords += update.as_sparse().map_or(params, |s| s.nnz()) as f64;
                updates.push(update);
            }
        }
        let slowest = client_ns.iter().copied().fold(0.0, f64::max);
        counts
            .straggler_frac
            .push(slowest / client_ns.iter().sum::<f64>());

        if updates.len() == cohort.len() {
            let fractions = data_fractions_or_uniform(&sample_counts);
            let coefficients = match (&out.schedule, config.disable_coefficient_adjustment) {
                (Some(s), false) => s.adjusted_coefficients(&fractions, config.alpha),
                _ => fractions,
            };
            let sparse: Option<Vec<&SparseUpdate>> =
                updates.iter().map(|u| u.as_sparse()).collect();
            let aggregated = match &sparse {
                Some(sparse) => {
                    let counted = uses_opwa || config.record_overlap;
                    let (overlap, _) = tracer.leaf(OVERLAP[counted as usize], round, None, || {
                        OverlapCounts::from_updates(sparse)
                    });
                    let (mask, _) = tracer.leaf(OPWA[uses_opwa as usize], round, None, || {
                        OpwaMask::from_overlap(&overlap, config.gamma, config.overlap_threshold)
                    });
                    counts
                        .singleton_frac
                        .push(overlap.stats().singleton_fraction());
                    counts
                        .enlarged_frac
                        .push(mask.enlarged_count() as f64 / params as f64);
                    let mask = uses_opwa.then_some(&mask);
                    tracer.leaf(AGGREGATE, round, None, || {
                        let sum = aggregate_sparse_sharded(sparse, &coefficients, mask, 1);
                        apply_update(&mut global_scratch, &sum, config.server_lr);
                        sum
                    })
                }
                None => {
                    let refs: Vec<&CompressedUpdate> = updates.iter().collect();
                    tracer.leaf(AGGREGATE, round, None, || {
                        let sum = aggregate_compressed_sharded(&refs, &coefficients, None, 1);
                        apply_update(&mut global_scratch, &sum, config.server_lr);
                        sum
                    })
                }
            };
            black_box(aggregated);
            counts.shards.push(cohort.len().div_ceil(AGG_SHARD) as f64);
        }

        let evaluated =
            (local_round + 1) % config.eval_every == 0 || local_round + 1 == config.rounds;
        if evaluated {
            let test = session.test_dataset();
            tracer.leaf(EVAL, round, None, || {
                unflatten_params(&mut eval_model, session.global_params());
                black_box(evaluate_with_threads(
                    &eval_model,
                    test,
                    config.batch_size.max(64),
                    1,
                ));
            });
            counts.eval_samples += test.len() as f64;
        }
        tracer.close(replay);
        tracer.close(round_span);

        counts.plan_epochs = out.record.plan.as_ref().map_or(0.0, |p| p.epoch as f64);
        counts.available.push(
            out.record
                .scenario
                .map_or(config.num_clients, |s| s.available) as f64,
        );
        counts.sim_round_s.push(out.record.comm_actual_s);
    }
}

/// Mean seconds per call of `work`, called for at least 50 ms after one
/// warm-up call.
fn time_calls(mut work: impl FnMut()) -> f64 {
    work();
    let start = Instant::now();
    let mut calls = 0u32;
    while start.elapsed().as_secs_f64() < 0.05 {
        work();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// Kernel, training-step and data isolates on the workload's own shapes:
/// the first layer's `k x n` weight and the mean batch of the traced rounds.
fn isolates(
    config: &ExperimentConfig,
    batch_rows: usize,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let mut rng = Xoshiro256::new(config.seed);
    let spec = config.dataset.spec(config.dataset_scale);
    let start = Instant::now();
    let (train, _) = spec.generate(config.seed);
    metrics.insert("data.generate_s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    let partitions = dirichlet_partition(&train, config.num_clients, config.beta, 0, config.seed);
    metrics.insert("data.partition_s", start.elapsed().as_secs_f64());
    let cohort = config.clients_per_round();
    let mut next = 0;
    let subset_s = time_calls(|| {
        black_box(partitions[next % cohort].dataset(&train));
        next += 1;
    });
    metrics.insert("data.subset_us", subset_s * 1e6);

    let m = batch_rows.clamp(1, train.len());
    let indices: Vec<usize> = (0..m).map(|i| (i * 7919) % train.len()).collect();
    let (mut x, mut y) = (Tensor::empty(), Vec::new());
    let gather_s = time_calls(|| train.gather_batch_into(&indices, &mut x, &mut y));
    metrics.insert("data.gather_us", gather_s * 1e6);

    let mut model = build_model(
        &config.model,
        train.feature_dim(),
        train.num_classes(),
        &mut rng,
    );
    let weight = model.params()[0].shape().dims().to_vec();
    let (k, n) = (weight[0], weight[1]);
    let gflops = |seconds: f64| 2.0 * (m * k * n) as f64 / seconds / 1e9;
    let mut normal = |rows, cols| Tensor::rand_normal(Dims::matrix(rows, cols), 0.0, 1.0, &mut rng);
    let (input, grad_out, w) = (normal(m, k), normal(m, n), normal(k, n));
    let (mut out, mut scratch) = (Tensor::empty(), Tensor::empty());
    let s = time_calls(|| matmul_into(&input, &w, &mut out));
    metrics.insert("tensor.matmul_gflops", gflops(s));
    let s = time_calls(|| matmul_at_b_into(&input, &grad_out, &mut out));
    metrics.insert("tensor.matmul_at_b_gflops", gflops(s));
    let s = time_calls(|| matmul_a_bt_into(&grad_out, &w, &mut scratch, &mut out));
    metrics.insert("tensor.matmul_a_bt_gflops", gflops(s));

    let len = model.num_params();
    let (xs, mut ys) = (vec![1.0f32; len], vec![0.5f32; len]);
    let s = time_calls(|| axpy(0.5, &xs, black_box(&mut ys)));
    // Two reads and one write of `len` floats per call.
    metrics.insert("tensor.axpy_gbps", (3 * 4 * len) as f64 / s / 1e9);

    // One fused training step, split at the calls `local_update` makes.
    let mut ws = Workspace::new();
    let mut loss = SoftmaxCrossEntropy::new();
    let mut grad = Tensor::empty();
    let mut optimizer = Sgd::new(config.local_lr, config.momentum, config.weight_decay);
    let (mut forward_s, mut backward_s, mut optim_s, mut steps) = (0.0, 0.0, 0.0, 0u32);
    let start = Instant::now();
    while steps < 3 || start.elapsed().as_secs_f64() < 0.1 {
        let t0 = Instant::now();
        model.zero_grad();
        let logits = model.forward_in(&x, &mut ws);
        black_box(loss.forward(logits, &y));
        let t1 = Instant::now();
        loss.backward_in(&mut grad);
        model.backward_in(&grad, &mut ws);
        let t2 = Instant::now();
        optimizer.step(&mut model);
        let t3 = Instant::now();
        // The first steps size the workspaces; steady state is what rounds pay.
        if steps >= 2 {
            forward_s += (t1 - t0).as_secs_f64();
            backward_s += (t2 - t1).as_secs_f64();
            optim_s += (t3 - t2).as_secs_f64();
        }
        steps += 1;
    }
    let per_step_ms = |s: f64| s * 1e3 / (steps - 2) as f64;
    metrics.insert("nn.forward_ms", per_step_ms(forward_s));
    metrics.insert("nn.backward_ms", per_step_ms(backward_s));
    metrics.insert("nn.optim_ms", per_step_ms(optim_s));
    metrics.insert("nn.step_ms", per_step_ms(forward_s + backward_s + optim_s));
}

/// The sweep layer on this workload: its own grid on `sweep_grid`, elsewhere
/// `2T` three-round copies of its session at distinct seeds.
fn sweep_layer(workload: &Workload, seed: u64, metrics: &mut BTreeMap<&'static str, f64>) {
    let threads = mt_threads();
    let configs: Vec<ExperimentConfig> = match workload.shape {
        Shape::Sweep => workload.grid(seed, 0),
        Shape::Sessions { .. } => (0..2 * threads)
            .map(|i| {
                let mut c = workload.session(seed, 1000 + i);
                c.rounds = 3;
                c.max_threads = 1;
                c
            })
            .collect(),
    };
    let start = Instant::now();
    black_box(run_sweep_threaded(&configs, 1));
    let single_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    black_box(run_sweep_threaded(&configs, threads));
    let multi_s = start.elapsed().as_secs_f64();
    metrics.insert("core.sweep.configs_per_s", configs.len() as f64 / single_s);
    metrics.insert("core.sweep.mt_speedup", single_s / multi_s);
}

pub fn run(workload: &Workload, seed: u64) -> Outcome {
    let sessions = workload.traced_sessions(seed);
    let threads = mt_threads();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Untraced references in this same process: what tracing is compared to,
    // and the thread scaling of the round.
    let mut warm_up = sessions[0].clone();
    warm_up.rounds = 3;
    reference(&warm_up, 1);
    let (mut walls, mut walls_mt) = (Vec::new(), Vec::new());
    let (mut checkouts, mut residual_clients, mut peak_resident) = (0, 0, 0);
    for config in &sessions {
        let (w, session) = reference(config, 1);
        walls.extend(w);
        checkouts += session.roster().total_instantiated();
        residual_clients += session.roster().residual_clients();
        let (w, session) = reference(config, threads);
        walls_mt.extend(w);
        peak_resident = peak_resident.max(session.roster().peak_resident());
    }
    m.insert("core.round.p50_ms", median(&walls) * 1e3);
    m.insert("core.round.p95_ms", percentile(&walls, 95.0) * 1e3);
    m.insert(
        "core.round.mt_speedup",
        walls.iter().sum::<f64>() / walls_mt.iter().sum::<f64>(),
    );
    m.insert("core.roster.checkouts", checkouts as f64);
    m.insert("core.roster.residual_clients", residual_clients as f64);
    m.insert("core.roster.peak_resident", peak_resident as f64);

    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut gate = Gate::default();
    let mut first_round = 0;
    for config in &sessions {
        trace_session(config, first_round, &mut tracer, &mut counts, &mut gate);
        first_round += config.rounds;
    }

    let totals = totals_by_name(tracer.spans());
    let rounds = counts.rounds as f64;
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ns = |names: &[&str]| names.iter().map(|n| total(n).self_ns as f64).sum::<f64>();
    let ms_per_round = |names: &[&str]| ns(names) / 1e6 / rounds;

    m.insert("core.roster.checkout_ms", ms_per_round(&[CHECKOUT]));
    m.insert("core.roster.checkin_ms", ms_per_round(&[CHECKIN]));
    m.insert("core.client.train_ms", ms_per_round(&[TRAIN]));
    m.insert("core.client.encode_ms", ms_per_round(&[ENCODE]));
    m.insert("core.client.decode_ms", ms_per_round(&[DECODE]));
    m.insert("core.client.batches", counts.batches / rounds);
    m.insert(
        "core.client.samples_per_s",
        counts.samples / (ns(&[TRAIN]) / 1e9),
    );
    m.insert(
        "compress.encode_mcoord_per_s",
        counts.coords_coded / (ns(&[ENCODE]) / 1e9) / 1e6,
    );
    m.insert(
        "compress.decode_mcoord_per_s",
        counts.coords_coded / (ns(&[DECODE]) / 1e9) / 1e6,
    );
    m.insert(
        "compress.bits_per_kept_coord",
        counts.wire_bytes * 8.0 / counts.kept_coords,
    );
    m.insert(
        "compress.wire_ratio",
        counts.wire_bytes / (counts.coords_coded * 4.0),
    );
    m.insert(
        "compress.rc_fallback_rate",
        if counts.rc_encodes > 0.0 {
            counts.rc_fallbacks / counts.rc_encodes
        } else {
            0.0
        },
    );
    m.insert("compress.downlink.broadcast_ms", ms_per_round(&DOWNLINK));
    m.insert("core.bcrs.schedule_us", ms_per_round(&BCRS) * 1e3);
    m.insert("core.bcrs.mean_ratio", mean(&counts.bcrs_mean_ratio));
    m.insert("core.overlap.count_ms", ms_per_round(&OVERLAP));
    m.insert("core.overlap.singleton_frac", mean(&counts.singleton_frac));
    m.insert("core.opwa.mask_ms", ms_per_round(&OPWA));
    m.insert("core.opwa.enlarged_frac", mean(&counts.enlarged_frac));
    m.insert("core.aggregate.fold_ms", ms_per_round(&[AGGREGATE]));
    m.insert("core.aggregate.shards", mean(&counts.shards));
    m.insert("core.eval.eval_ms", ms_per_round(&[EVAL]));
    m.insert(
        "core.eval.samples_per_s",
        counts.eval_samples / (ns(&[EVAL]) / 1e9),
    );
    m.insert("core.policy.plan_epochs", counts.plan_epochs);
    m.insert("core.scenario.available_mean", mean(&counts.available));
    m.insert("netsim.sim_round_s", mean(&counts.sim_round_s));
    m.insert("core.round.straggler_frac", mean(&counts.straggler_frac));
    m.insert("alloc.count_per_round", counts.allocations as f64 / rounds);
    m.insert(
        "alloc.mb_per_round",
        counts.allocated_bytes as f64 / 1e6 / rounds,
    );

    // Mirrored stages are the replay's children without the `extra.` prefix.
    let stage_sum_ns: f64 = SHARES.iter().map(|(_, names)| ns(names)).sum();
    let run_round_ns = total("run_round");
    m.insert(
        "trace.round_ms",
        run_round_ns.total_ns as f64 / 1e6 / rounds,
    );
    m.insert("trace.stage_sum_ms", stage_sum_ns / 1e6 / rounds);
    m.insert(
        "trace.coverage",
        stage_sum_ns / run_round_ns.total_ns as f64,
    );
    m.insert(
        "trace.overhead",
        median(&counts.run_round_ns) / 1e9 / median(&walls),
    );
    for (name, names) in SHARES {
        m.insert(name, ns(names) / stage_sum_ns);
    }

    let batch_rows = (counts.samples / counts.batches).round() as usize;
    isolates(&sessions[0], batch_rows, &mut m);
    sweep_layer(workload, derive_seed(seed, 0), &mut m);

    print!("{}", self_time_table(tracer.spans(), counts.rounds));
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.jsonl", workload.name));
    match write_jsonl(tracer.spans(), &path) {
        Ok(()) => println!(
            "# trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => gate.op(false, || format!("cannot write {}: {e}", path.display())),
    }

    Outcome {
        metrics: crate::spec::PER_LAYER
            .iter()
            .map(|decl| {
                let value = m
                    .get(decl.name)
                    .unwrap_or_else(|| panic!("{} was not measured", decl.name));
                (decl.name, *value)
            })
            .collect(),
        gate,
        fingerprint: None,
    }
}
