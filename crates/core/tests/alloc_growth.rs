//! Roster memory smoke test: a large virtualized population must run in
//! O(cohort) heap, and steady-state rounds must not grow the heap.
//!
//! A counting `#[global_allocator]` tracks net live bytes (allocations minus
//! frees). After the first rounds warm the session up (records vector,
//! evaluation scratch, codec buffers, the pooled client shell's training
//! buffers), every later round must land within a small fixed slack of the
//! previous one — the round loop reuses its buffers instead of accumulating
//! per-round garbage, so the only durable growth is the appended
//! `RoundRecord` itself. The same allocator asserts the allocation-free hot
//! paths: a warm training batch allocates nothing, a warm error-feedback
//! encode allocates nothing model-sized, and a second round's checkouts
//! rebind a pooled shell instead of making clients.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fl_core::{Algorithm, ExperimentConfig, FederatedSession};

// The counters are per thread: the harness runs this binary's tests
// concurrently, and each test must see only the traffic of the thread it
// measures on (every measured region below is single-threaded). They are
// const-initialised `Cell`s with no destructor, so touching them from inside
// the allocator neither allocates nor registers a thread-exit hook.
thread_local! {
    /// Net live heap bytes allocated minus freed by this thread.
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Monotonic count of this thread's `alloc` calls — allocation
    /// *traffic*, not just net growth, so buffers that are allocated and
    /// immediately freed still show up.
    static TOTAL_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Largest single allocation this thread has requested since the cell
    /// was last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

fn net_bytes() -> isize {
    NET_BYTES.with(Cell::get)
}

fn total_allocs() -> usize {
    TOTAL_ALLOCS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are the only
// added behaviour. `realloc` is left on the default implementation, which
// routes through `alloc`/`dealloc` and therefore keeps the counters exact.
// `try_with` makes an allocation during thread teardown skip the counters
// instead of panicking inside the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let size = layout.size();
            let _ = NET_BYTES.try_with(|c| c.set(c.get() + size as isize));
            let _ = TOTAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(size)));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = NET_BYTES.try_with(|c| c.set(c.get() - layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_rounds_do_not_grow_the_heap() {
    // 100k virtual clients, 32-client cohorts, stateless Top-K: the roster
    // must instantiate only the touched clients, and the round loop must not
    // leak scratch. Single-threaded so worker-pool bring-up cannot masquerade
    // as round-loop growth.
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.num_clients = 100_000;
    config.participation = 32.0 / 100_000.0;
    config.rounds = 16;
    config.max_threads = 1;

    let mut net_after_round: Vec<isize> = Vec::with_capacity(config.rounds);
    let mut first_trained = None;
    let session = FederatedSession::from_config(&config);
    let result = session.run_with(|record| {
        if record.train_loss > 0.0 {
            first_trained.get_or_insert(record.round);
        }
        net_after_round.push(net_bytes());
    });
    assert_eq!(net_after_round.len(), 16);
    assert!(result.final_accuracy.is_finite());

    // Rounds 0–2 may allocate durable state (records vector, lazily built
    // evaluation scratch, codec buffer pools), and so may the round in which
    // the first non-empty shard trains — nearly all of 100k shards over the
    // quick dataset are empty — because it grows the pooled client shell's
    // workspace, batch and velocity buffers, which the shell then keeps.
    // After both, each round may add at most the round record plus a little
    // vector-doubling slack — far below the multi-hundred-kB per-round
    // traffic a leak of even one update buffer would show up as.
    let warm = first_trained.expect("some selected client had data");
    let steady = &net_after_round[warm.max(3)..];
    assert!(
        steady.len() >= 6,
        "too few steady-state rounds left to judge"
    );
    const PER_ROUND_SLACK: isize = 32 * 1024;
    for w in steady.windows(2) {
        let growth = w[1] - w[0];
        assert!(
            growth <= PER_ROUND_SLACK,
            "steady-state round grew the heap by {growth} bytes \
             (net per round: {net_after_round:?})"
        );
    }
}

#[test]
fn steady_state_training_batches_allocate_nothing() {
    // The allocation-free hot path, asserted at its strongest: once the
    // workspace and batch buffers are warm, a training batch must perform
    // ZERO heap allocations — not merely zero net growth. This replicates
    // `ClientState::local_update`'s inner loop through the same public APIs.
    use fl_data::Dataset;
    use fl_nn::{mlp, Sgd, SoftmaxCrossEntropy, Workspace};
    use fl_tensor::rng::{Rng, Xoshiro256};
    use fl_tensor::Tensor;

    let mut rng = Xoshiro256::new(11);
    let feature_dim = 32;
    let classes = 4;
    let n = 64;
    let batch = 16; // divides n: every batch has the same shape
    let mut features = Vec::with_capacity(n * feature_dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        labels.push(i % classes);
        for _ in 0..feature_dim {
            features.push(rng.next_f32() - 0.5);
        }
    }
    let dataset = Dataset::new(features, labels, feature_dim, classes);

    let mut model = mlp(feature_dim, &[24, 16], classes, &mut rng);
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut loss_fn = SoftmaxCrossEntropy::new();
    let mut ws = Workspace::new();
    let mut grad = Tensor::empty();
    let mut x = Tensor::empty();
    let mut y = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    let mut step =
        |s: usize, e: usize, order: &[usize], model: &mut fl_nn::Sequential, ws: &mut Workspace| {
            dataset.gather_batch_into(&order[s..e], &mut x, &mut y);
            model.zero_grad();
            let logits = model.forward_in(&x, ws);
            loss_fn.forward(logits, &y);
            loss_fn.backward_in(&mut grad);
            model.backward_params_in(&grad, ws);
            opt.step(model);
        };

    // Warm-up: two full batches grow every buffer to steady-state size
    // (including the momentum velocity allocated on the first step).
    step(0, batch, &order, &mut model, &mut ws);
    step(batch, 2 * batch, &order, &mut model, &mut ws);

    let before = total_allocs();
    for round in 0..5 {
        for b in 0..n / batch {
            step(b * batch, (b + 1) * batch, &order, &mut model, &mut ws);
        }
        let _ = round;
    }
    let allocs = total_allocs() - before;
    assert_eq!(
        allocs, 0,
        "steady-state training batches performed {allocs} heap allocations"
    );
}

#[test]
fn warm_ef_encode_allocates_nothing_model_sized() {
    // The codec lifecycle of a virtualized client: build, restore the parked
    // residual, encode, take the residual back. Once the residual exists
    // (the first encode creates it), no step of a later cycle may request a
    // buffer of `4 * dense_len` bytes or more — no zero-filled residual at
    // construction or at take, no corrected-vector scratch, no index
    // permutation for Top-K, no densified copy of what was sent.
    use fl_compress::{CodecCtx, CodecRegistry, CompressorSpec};
    use fl_tensor::rng::{Rng, Xoshiro256};

    let dense_len = 40_000;
    let model_sized = 4 * dense_len;
    let mut rng = Xoshiro256::new(5);
    let delta: Vec<f32> = (0..dense_len)
        .map(|_| (rng.next_f32() - 0.5) * 0.02)
        .collect();
    let registry = CodecRegistry::with_builtins();
    for raw in ["ef-topk", "ef-topk+qsgd:4:rc", "ef-topk+qsgd:8"] {
        let spec: CompressorSpec = raw.parse().expect("spec parses");
        let build = || {
            registry
                .build(&spec, &CodecCtx::new(dense_len, 1))
                .expect("spec resolves")
        };
        let mut codec = build();
        let _ = codec.encode(&delta, 0.05, &mut rng);
        assert!(codec.residual_norm() > 0.0, "{raw}: the codec is warm");

        LARGEST_ALLOC.with(|c| c.set(0));
        let _ = codec.encode(&delta, 0.05, &mut rng);
        let parked = codec.take_residual();
        let mut next = build();
        next.restore_residual(parked);
        let _ = next.encode(&delta, 0.05, &mut rng);
        let largest = LARGEST_ALLOC.with(Cell::get);
        assert!(
            largest < model_sized,
            "{raw}: a warm encode cycle requested {largest} bytes at once \
             (model-sized is {model_sized})"
        );
        assert!(next.residual_norm() > 0.0);
    }
}

#[test]
fn second_round_checkouts_allocate_no_model_workspace_velocity_or_delta() {
    // Round 1 makes one shell and grows its buffers; from then on a
    // checkout is a rebind — ZERO allocations on the static path, nothing but
    // a (small) codec across a plan change — and a local update runs in the
    // shell's own model, workspace, optimizer velocity, batch and delta
    // buffers.
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.num_clients = 8;
    config.max_threads = 1;
    assert!(config.momentum > 0.0, "the velocity buffers must exist");
    let session = FederatedSession::from_config(&config);
    let (roster, global) = (session.roster(), session.global_params());
    let probe = roster.checkout(0);
    let segments = fl_core::segment_defs(probe.layout());
    drop(probe); // not checked in: the pool starts empty

    // Any model replica, velocity set, delta or first-layer activation holds
    // a buffer at least as large as the smallest weight matrix.
    let smallest_weight_bytes = segments
        .iter()
        .filter(|s| s.name.ends_with(".weight"))
        .map(|s| 4 * s.len)
        .min()
        .expect("the model has weight matrices");

    /// What one round's checkouts and local updates asked of the allocator.
    struct Asked {
        checkout_allocs: usize,
        checkout_largest: usize,
        update_largest: usize,
    }
    let cohort = [5usize, 0, 3, 6];
    let round = || {
        let mut asked = Asked {
            checkout_allocs: 0,
            checkout_largest: 0,
            update_largest: 0,
        };
        for &id in &cohort {
            let before = total_allocs();
            LARGEST_ALLOC.with(|c| c.set(0));
            let mut client = roster.checkout(id);
            asked.checkout_allocs += total_allocs() - before;
            asked.checkout_largest = asked.checkout_largest.max(LARGEST_ALLOC.with(Cell::get));
            LARGEST_ALLOC.with(|c| c.set(0));
            let out = client.local_update(global);
            asked.update_largest = asked.update_largest.max(LARGEST_ALLOC.with(Cell::get));
            let _ = client.encode(&out.delta, 0.1);
            client.recycle_delta(out.delta);
            roster.checkin(client);
        }
        asked
    };

    let first = round();
    assert!(
        first.checkout_largest >= smallest_weight_bytes
            && first.update_largest >= smallest_weight_bytes,
        "round 1 makes the shell and grows its buffers"
    );
    let second = round();
    assert_eq!(second.checkout_allocs, 0, "round 2's checkouts are rebinds");
    assert!(
        second.update_largest < smallest_weight_bytes,
        "a round-2 local update requested {} bytes at once",
        second.update_largest
    );

    // Same plan and scales again: still nothing. New scales: each shell's
    // codec is rebuilt once — and only the codec.
    let plan = || "*.bias=topk;*=topk+qsgd:8".parse().unwrap();
    let scales = |s: f64| Some(vec![s; segments.len()]);
    roster.set_plan_override(plan(), scales(0.5), &segments);
    round();
    roster.set_plan_override(plan(), scales(0.5), &segments);
    assert_eq!(
        round().checkout_allocs,
        0,
        "an unchanged plan key keeps the codec"
    );
    roster.set_plan_override(plan(), scales(0.25), &segments);
    let rescaled = round();
    assert!(rescaled.checkout_allocs > 0, "new scales need a new codec");
    assert!(
        rescaled.checkout_largest < smallest_weight_bytes,
        "a scale change made a checkout request {} bytes at once: \
         a model was rebuilt, not just a codec",
        rescaled.checkout_largest
    );
}
