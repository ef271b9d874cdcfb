//! Virtualized client population: [`ClientState`]s bound on demand by client
//! id, so a session over 10^5–10^6 clients holds only as many as its worker
//! threads train at once.
//!
//! The legacy engine materialized every client's [`ClientState`] — model
//! replica, data shard, codec instance — up front, making session memory
//! O(population). But almost none of that state actually persists across
//! rounds: a client entering a round overwrites its model replica from the
//! broadcast parameters, zeroes its optimizer's momentum, and re-reads its
//! immutable data shard. Only two things carry over:
//!
//! 1. **the client's RNG stream** (batch shuffling, Rand-K draws, QSGD
//!    rounding) — tiny: four `u64`s per client;
//! 2. **its error-feedback residual** — present only for clients that have
//!    been selected under an EF codec and carried mass: an all-zero
//!    snapshot restores identically to a fresh codec, so it is dropped.
//!
//! [`ClientRoster`] keeps exactly those two, side by side in one slot per
//! client, plus the shared immutable inputs (training data, partitions,
//! config, codec registry), the one codec plan in force — the
//! configuration's [`uplink_plan`](crate::policy::uplink_plan) until the
//! round engine installs an adaptive one — and a pool of spent
//! [`ClientState`] *shells*:
//!
//! * [`checkout`](ClientRoster::checkout) pops a shell and **rebinds** it —
//!   new id, the client's persistent RNG stream, its shard copied into the
//!   shell's own dataset buffers, its parked residual restored — verbatim,
//!   even when the plan changed since it was parked: `layer-bcrs` gives
//!   every segment an `ef-…` codec of one residual part, whatever its bit
//!   width, so the part layout a snapshot was taken under is the one it is
//!   restored into. What the shell owns stays: model replica and layout,
//!   workspace, batch and gradient buffers, the optimizer (its velocity is
//!   zero-filled in place by the next local update) and the delta buffer
//!   handed back after encoding. When the pool is empty — the first
//!   `threads` checkouts of a session — the shell rebound is a new, empty
//!   one: there is one way to make a client;
//! * the shell's **codec is kept** when it declares itself
//!   [`reusable`](fl_compress::UpdateCodec::reusable) (every built-in does:
//!   once its residual is taken it holds nothing of its last client) *and*
//!   the plan key — 0 for the configuration's plan, bumped by every
//!   [`set_plan_override`] that changes the plan or its ratio scales — is
//!   the one it was built under. Otherwise the codec alone is rebuilt from
//!   the plan in force, with this client's own `CodecCtx` (`seed ^ id`).
//!   Rebuilding it at every checkout instead was measured: `adaptive_churn`
//!   ran 9 % fewer rounds per second, in 10 of 10 alternating pairs (a plan
//!   codec is six parsed, boxed segment codecs and their warm scratch);
//! * [`checkin`](ClientRoster::checkin) writes the (advanced) stream and the
//!   codec's residual snapshot back into the client's slot and returns the
//!   shell to the pool. A shell enters the pool only here and every checkout
//!   takes one if there is one, so the pool never holds more shells than
//!   were checked out at once; it has no size to configure.
//!
//! Because neither building nor rebinding draws from the client's own
//! stream, and everything a shell keeps is overwritten or reset before it is
//! read, a checkout/train/checkin cycle replays the exact draw sequence of a
//! permanently resident client: the virtualized engine's records are
//! bit-identical to the eager engine's.
//!
//! The roster also counts checkouts (see
//! [`round_instantiated`](ClientRoster::round_instantiated) and
//! [`peak_resident`](ClientRoster::peak_resident)) so tests and the scaling
//! harness can assert the O(cohort) property instead of trusting it.
//!
//! [`set_plan_override`]: ClientRoster::set_plan_override

use crate::client::ClientState;
use crate::config::ExperimentConfig;
use fl_compress::{CodecRegistry, LayerPlan, ResidualState};
use fl_data::{ClientPartition, Dataset};
use fl_tensor::rng::Xoshiro256;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The codec plan every [`ClientRoster::checkout`] resolves against: the
/// configuration's [`uplink_plan`](crate::policy::uplink_plan) with no ratio
/// scales (epoch 0, key 0) until the round engine installs an adaptive plan
/// when `config.adaptive_plan` is set.
#[derive(Clone)]
struct CurrentPlan {
    plan: LayerPlan,
    /// Per-segment ratio scales: `None` resolves through
    /// [`LayerPlan::resolve`], where a uniform plan collapses to its flat
    /// codec bit for bit; installed plans always carry them.
    scales: Option<Vec<f64>>,
    /// Bumped every time an installed *plan* changes (scale-only updates
    /// keep it): the plan epoch a round's telemetry reports.
    epoch: u64,
    /// Bumped every time the plan *or* its scales change, i.e. whenever a
    /// codec built under it would come out different: the key a pooled
    /// shell's codec is kept or rebuilt by.
    codec_key: u64,
}

/// Everything of one client that outlives a round.
struct ClientSlot {
    /// The client's persistent RNG stream.
    rng: Xoshiro256,
    /// The error-feedback residual parked at the client's last check-in, if
    /// it carried mass.
    residual: Option<Parked>,
}

/// A parked residual snapshot.
struct Parked {
    state: ResidualState,
    /// Sum of squares of `state`, filled in by the first
    /// [`ClientRoster::residual_total_norm`] that sees it: a parked residual
    /// is scanned at most once, and a roster nobody asks pays nothing.
    norm_sq: Option<f64>,
}

/// Lock `m`, ignoring poison: no critical section in the roster can leave
/// its data half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The persistent, population-wide client substrate of a
/// [`crate::session::FederatedSession`]: one slot per client holding its
/// RNG stream and parked error-feedback residual, and everything needed to
/// rebuild a [`ClientState`] deterministically when its id is selected.
pub struct ClientRoster {
    train: Arc<Dataset>,
    partitions: Arc<Vec<ClientPartition>>,
    config: ExperimentConfig,
    registry: CodecRegistry,
    /// One slot per client, indexed by id. The streams are forked from the
    /// session's client root in id order at build time (the same fork loop
    /// — and therefore the same streams — as the legacy eager construction).
    slots: Vec<Mutex<ClientSlot>>,
    /// The plan in force. Written only between rounds by the engine's
    /// single-threaded select stage; checkout takes a handle to it.
    plan: Mutex<Arc<CurrentPlan>>,
    /// Spent [`ClientState`] shells waiting to be rebound. Shells enter only
    /// through [`checkin`](Self::checkin) and every checkout takes one when
    /// there is one, so the pool never holds more than were checked out at
    /// once — the worker-thread count inside the round engine.
    pool: Mutex<Vec<ClientState>>,
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
    round_instantiated: AtomicUsize,
    total_instantiated: AtomicUsize,
}

impl ClientRoster {
    /// Build the roster for a population, checking clients out under `plan`
    /// (the configuration's uplink plan) until the round engine installs
    /// another. `root_rng` is the session's client root stream
    /// (`seed ^ 0xC11E`); each client's persistent stream is forked from it
    /// in partition order, exactly as the eager engine did.
    pub fn new(
        train: Arc<Dataset>,
        partitions: Arc<Vec<ClientPartition>>,
        config: ExperimentConfig,
        registry: CodecRegistry,
        plan: LayerPlan,
        root_rng: &mut Xoshiro256,
    ) -> Self {
        let slots = partitions
            .iter()
            .map(|p| {
                Mutex::new(ClientSlot {
                    rng: root_rng.fork(p.client_id as u64),
                    residual: None,
                })
            })
            .collect();
        let plan = CurrentPlan {
            plan,
            scales: None,
            epoch: 0,
            codec_key: 0,
        };
        Self {
            train,
            partitions,
            config,
            registry,
            slots,
            plan: Mutex::new(Arc::new(plan)),
            pool: Mutex::new(Vec::new()),
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            round_instantiated: AtomicUsize::new(0),
            total_instantiated: AtomicUsize::new(0),
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True for an empty population (never the case in a valid session).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Number of training samples in client `id`'s shard — what its local
    /// update costs in proportion to, known without checking it out.
    pub(crate) fn shard_len(&self, id: usize) -> usize {
        self.partitions[id].indices.len()
    }

    /// Materialise client `id` for one round of work: rebind a pooled shell
    /// (a new, empty one when the pool has none) to it — its shard, its
    /// persistent RNG stream, its codec — and restore its parked
    /// error-feedback residual (if any).
    ///
    /// Every checkout must be paired with a [`checkin`](Self::checkin);
    /// checking the same id out twice concurrently would fork its stream and
    /// is a caller bug (cohorts are selected without replacement).
    pub fn checkout(&self, id: usize) -> ClientState {
        let (stream, parked) = {
            let mut slot = lock(&self.slots[id]);
            (slot.rng.clone(), slot.residual.take())
        };
        let plan = lock(&self.plan).clone();
        let (config, train) = (&self.config, &self.train);
        let shell = lock(&self.pool).pop();
        let mut client = shell.unwrap_or_else(|| {
            ClientState::shell(config, train.feature_dim(), train.num_classes())
        });
        client.rebind(id, stream, train, &self.partitions[id].indices);
        client.resolve_codec(
            config.seed,
            &self.registry,
            &plan.plan,
            plan.scales.as_deref(),
            plan.codec_key,
        );
        if let Some(parked) = parked {
            client.restore_residual(parked.state);
        }
        let resident = self.resident.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_resident.fetch_max(resident, Ordering::SeqCst);
        self.round_instantiated.fetch_add(1, Ordering::SeqCst);
        self.total_instantiated.fetch_add(1, Ordering::SeqCst);
        client
    }

    /// Return a client after its round of work: write the advanced RNG
    /// stream and the codec's residual snapshot back into its slot (an
    /// all-zero snapshot is dropped), and keep the rest as a shell for the
    /// next checkout to rebind.
    pub fn checkin(&self, mut client: ClientState) {
        let state = client.take_residual();
        let residual = (!state.is_trivial()).then_some(Parked {
            state,
            norm_sq: None,
        });
        *lock(&self.slots[client.id]) = ClientSlot {
            rng: client.rng().clone(),
            residual,
        };
        lock(&self.pool).push(client);
        self.resident.fetch_sub(1, Ordering::SeqCst);
    }

    /// Install (or refresh) the adaptive codec plan every subsequent
    /// [`checkout`](Self::checkout) resolves against, with its per-segment
    /// ratio scales, returning the plan epoch now in force: the same
    /// installed plan → the same epoch (scale-only updates are applied in
    /// place), anything else → the next epoch, so the first install is
    /// epoch 1. Parked residuals restore verbatim across an epoch change
    /// (see the [module docs](self)). Called by the round engine's
    /// select stage, between rounds — never concurrently with checkouts.
    pub fn set_plan_override(&self, plan: LayerPlan, scales: Vec<f64>) -> u64 {
        let mut current = lock(&self.plan);
        let scales = Some(scales);
        if current.epoch > 0 && current.plan == plan {
            if current.scales != scales {
                let c = Arc::make_mut(&mut current);
                c.scales = scales;
                c.codec_key += 1;
            }
        } else {
            *current = Arc::new(CurrentPlan {
                plan,
                scales,
                epoch: current.epoch + 1,
                codec_key: current.codec_key + 1,
            });
        }
        current.epoch
    }

    /// Number of `ClientState`s currently checked out (resident in memory).
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently resident `ClientState`s over the
    /// session's lifetime — bounded by the worker-thread count, never the
    /// population.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident.load(Ordering::SeqCst)
    }

    /// Number of checkouts since the last
    /// [`begin_round`](Self::begin_round) — equal to the cohort size after a
    /// round completes (each selected client is instantiated exactly once).
    pub fn round_instantiated(&self) -> usize {
        self.round_instantiated.load(Ordering::SeqCst)
    }

    /// Total checkouts over the session's lifetime.
    pub fn total_instantiated(&self) -> usize {
        self.total_instantiated.load(Ordering::SeqCst)
    }

    /// Reset the per-round instantiation counter (called by the round engine
    /// at the start of each local phase).
    pub fn begin_round(&self) {
        self.round_instantiated.store(0, Ordering::SeqCst);
    }

    /// Number of clients with a parked error-feedback residual.
    pub fn residual_clients(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| lock(slot).residual.is_some())
            .count()
    }

    /// L2 norm over every parked residual scalar (the population's total
    /// carried-over compression error). The per-client squared norms are
    /// summed in id order, each computed once per parked snapshot.
    pub fn residual_total_norm(&self) -> f64 {
        self.slots
            .iter()
            .filter_map(|slot| {
                let mut slot = lock(slot);
                let parked = slot.residual.as_mut()?;
                Some(*parked.norm_sq.get_or_insert_with(|| parked.state.norm_sq()))
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use fl_data::dirichlet_partition;
    use fl_nn::flatten_params;

    fn build_roster(algorithm: Algorithm, num_clients: usize) -> (ClientRoster, Vec<f32>) {
        let mut config = ExperimentConfig::quick(algorithm);
        config.num_clients = num_clients;
        build_roster_from(config, CodecRegistry::with_builtins())
    }

    fn build_roster_from(
        config: ExperimentConfig,
        registry: CodecRegistry,
    ) -> (ClientRoster, Vec<f32>) {
        let (train, _) = config
            .dataset
            .spec(config.dataset_scale)
            .generate(config.seed);
        let train = Arc::new(train);
        let partitions = Arc::new(dirichlet_partition(
            &train,
            config.num_clients,
            config.beta,
            2,
            config.seed ^ 0xD1A1,
        ));
        let mut model_rng = Xoshiro256::new(config.seed);
        let model = crate::client::build_model(
            &config.model,
            train.feature_dim(),
            train.num_classes(),
            &mut model_rng,
        );
        let global = flatten_params(&model);
        let mut root_rng = Xoshiro256::new(config.seed ^ 0xC11E);
        let plan = crate::policy::uplink_plan(&config);
        let roster = ClientRoster::new(train, partitions, config, registry, plan, &mut root_rng);
        (roster, global)
    }

    #[test]
    fn checkout_checkin_replays_a_resident_client_exactly() {
        // Two checkout/train/encode/checkin cycles of the same client must
        // produce the same wire bytes as one client living through both
        // rounds — stream handback and residual persistence are exact.
        let (roster, global) = build_roster(Algorithm::EfTopK, 4);
        let mut resident = roster.checkout(1);
        let mut resident_wires = Vec::new();
        for _ in 0..2 {
            let out = resident.local_update(&global);
            resident_wires.push(resident.encode(&out.delta, 0.05).as_bytes().to_vec());
        }
        drop(resident); // never checked in: the roster's stream is untouched

        let (roster2, _) = build_roster(Algorithm::EfTopK, 4);
        for expected in &resident_wires {
            let mut client = roster2.checkout(1);
            let out = client.local_update(&global);
            let wire = client.encode(&out.delta, 0.05);
            assert_eq!(wire.as_bytes(), expected.as_slice());
            roster2.checkin(client);
        }
        assert_eq!(roster2.residual_clients(), 1, "EF residual persisted");
        assert!(roster2.residual_total_norm() > 0.0);
    }

    #[test]
    fn one_shell_rebound_across_clients_replays_fresh_clients_byte_for_byte() {
        // Reference: every client built from nothing, living through both of
        // its rounds, never checked in — no shell is ever pooled.
        let ids = [1usize, 3, 0];
        let (fresh, global) = build_roster(Algorithm::EfTopK, 4);
        let expected: Vec<Vec<Vec<u8>>> = ids
            .iter()
            .map(|&id| {
                let mut resident = fresh.checkout(id);
                (0..2)
                    .map(|_| {
                        let out = resident.local_update(&global);
                        resident.encode(&out.delta, 0.05).as_bytes().to_vec()
                    })
                    .collect()
            })
            .collect();
        assert!(lock(&fresh.pool).is_empty());

        // One shell, rebound to a different id at every checkout, with the
        // delta buffer travelling along.
        let (pooled, _) = build_roster(Algorithm::EfTopK, 4);
        for round in 0..2 {
            for (&id, expected) in ids.iter().zip(&expected) {
                let mut client = pooled.checkout(id);
                assert_eq!(client.id, id);
                let out = client.local_update(&global);
                let wire = client.encode(&out.delta, 0.05);
                assert_eq!(wire.as_bytes(), expected[round].as_slice(), "client {id}");
                client.recycle_delta(out.delta);
                pooled.checkin(client);
                assert_eq!(lock(&pooled.pool).len(), 1, "one shell serves them all");
            }
        }
        assert_eq!(pooled.total_instantiated(), 6);
        assert_eq!(pooled.residual_clients(), 3);
    }

    #[test]
    fn pool_never_exceeds_concurrent_checkouts() {
        let (roster, _) = build_roster(Algorithm::TopK, 6);
        let pooled = || lock(&roster.pool).len();
        for _ in 0..3 {
            let a = roster.checkout(0);
            let b = roster.checkout(1);
            assert_eq!(pooled(), 0, "both shells are out");
            roster.checkin(a);
            roster.checkin(b);
            assert_eq!(pooled(), 2);
        }
        // Sequential checkouts afterwards keep drawing on the same two.
        for id in 0..6 {
            let c = roster.checkout(id);
            assert_eq!(pooled(), 1);
            roster.checkin(c);
        }
        assert_eq!(pooled(), roster.peak_resident());
        // A client dropped instead of checked in takes its shell with it.
        drop(roster.checkout(2));
        assert_eq!(pooled(), 1);
    }

    /// Seeds the `seeded` test codec's factory was called with (a factory is
    /// a plain `fn`, so it cannot capture; one test uses it).
    static SEEDS_SEEN: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

    /// A custom codec that says nothing about reuse (`reusable()` stays
    /// `false`): Top-K that remembers the seed it was built with.
    struct Seeded(u64);

    impl fl_compress::UpdateCodec for Seeded {
        fn name(&self) -> String {
            format!("seeded:{}", self.0)
        }
        fn encode_sent(
            &mut self,
            dense: &[f32],
            ratio: f64,
            _rng: &mut Xoshiro256,
        ) -> (fl_compress::WireUpdate, fl_compress::SparseUpdate) {
            let sent = fl_compress::topk::select(dense, ratio);
            (fl_compress::wire::encode_sparse(&sent), sent)
        }
    }

    #[test]
    fn non_reusable_custom_codec_is_rebuilt_for_every_checkout_with_its_own_seed() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.num_clients = 4;
        config.compressor = Some("ef-seeded".parse().unwrap());
        let mut registry = CodecRegistry::with_builtins();
        registry.register("seeded", |_arg, ctx| {
            SEEDS_SEEN.lock().unwrap().push(ctx.seed);
            Ok(Box::new(Seeded(ctx.seed)))
        });
        let (roster, _) = build_roster_from(config.clone(), registry);
        let ids = [2usize, 0, 2, 3];
        for &id in &ids {
            let client = roster.checkout(id);
            assert_eq!(
                client.codec_name(),
                format!("ef-seeded:{}", config.seed ^ id as u64)
            );
            roster.checkin(client);
        }
        assert_eq!(lock(&roster.pool).len(), 1, "the shell itself was reused");
        let seen = SEEDS_SEEN.lock().unwrap().clone();
        let want: Vec<u64> = ids.iter().map(|&id| config.seed ^ id as u64).collect();
        assert_eq!(seen, want, "one build per checkout, each with its own seed");
    }

    #[test]
    fn scale_change_rebuilds_the_codec_of_a_pooled_shell() {
        // What a kept codec would get wrong: it would go on encoding at the
        // scales it was built with. (That the model is *not* rebuilt along
        // with it is `tests/alloc_growth.rs`'s to show.)
        let (roster, global) = build_roster(Algorithm::TopK, 4);
        let probe = roster.checkout(0);
        let segments = crate::client::segment_defs(probe.layout());
        roster.checkin(probe);
        let plan = || "*.bias=topk;*=topk+qsgd:8".parse::<LayerPlan>().unwrap();
        let kept_at = |scale: f64, id: usize| {
            let epoch = roster.set_plan_override(plan(), vec![scale; segments.len()]);
            let mut client = roster.checkout(id);
            let out = client.local_update(&global);
            let wire = client.encode(&out.delta, 0.2);
            let kept = client.decode(&wire).unwrap().nnz();
            roster.checkin(client);
            (kept, epoch)
        };
        let (half, epoch) = kept_at(0.5, 1);
        assert_eq!(kept_at(0.5, 2), (half, epoch), "same plan key, same budget");
        let (quarter, scaled_epoch) = kept_at(0.25, 3);
        assert_eq!(scaled_epoch, epoch, "a scale change is no new epoch");
        assert!(
            quarter < half * 2 / 3,
            "the shell's codec must follow the new scales ({half} -> {quarter})"
        );
        assert_eq!(lock(&roster.pool).len(), 1);
    }

    #[test]
    fn counters_track_residency_and_instantiation() {
        let (roster, _) = build_roster(Algorithm::TopK, 4);
        roster.begin_round();
        let a = roster.checkout(0);
        let b = roster.checkout(2);
        assert_eq!(roster.resident(), 2);
        roster.checkin(a);
        roster.checkin(b);
        assert_eq!(roster.resident(), 0);
        assert_eq!(roster.peak_resident(), 2);
        assert_eq!(roster.round_instantiated(), 2);
        roster.begin_round();
        assert_eq!(roster.round_instantiated(), 0);
        assert_eq!(roster.total_instantiated(), 2);
        assert_eq!(roster.residual_clients(), 0, "top-k stores no residual");
    }

    #[test]
    fn plan_change_restores_parked_residuals_verbatim() {
        // The plans `layer-bcrs` installs: an `ef-…` codec on every segment,
        // resolved with ratio scales. A new bit width is a new epoch, and the
        // snapshot parked under the old one comes back bit for bit.
        let (roster, global) = build_roster(Algorithm::TopK, 4);
        let probe = roster.checkout(0);
        let scales = vec![1.0; crate::client::segment_defs(probe.layout()).len()];
        roster.checkin(probe);
        let install =
            |plan: &str, scales: Vec<f64>| roster.set_plan_override(plan.parse().unwrap(), scales);
        assert_eq!(install("*=ef-topk+qsgd:8", scales.clone()), 1);
        let mut client = roster.checkout(1);
        let out = client.local_update(&global);
        let _ = client.encode(&out.delta, 0.05);
        let parked = client.take_residual();
        assert!(!parked.is_trivial(), "EF segments must carry dropped mass");
        client.restore_residual(parked.clone());
        roster.checkin(client);
        assert_eq!(roster.residual_clients(), 1);

        // Fresh ratio scales on the same plan keep the epoch.
        assert_eq!(install("*=ef-topk+qsgd:8", vec![0.5; scales.len()]), 1);
        // A bit-width change is a new plan and a new epoch.
        assert_eq!(install("*.bias=ef-topk+qsgd:4;*=ef-topk+qsgd:6", scales), 2);
        let mut client = roster.checkout(1);
        assert_eq!(client.take_residual(), parked);
        roster.checkin(client);
        assert_eq!(roster.residual_clients(), 0, "the residual was taken");
    }

    #[test]
    fn all_zero_residual_is_not_parked() {
        // An `ef-topk` client encoded at ratio 1 sends its whole accumulator
        // and keeps nothing back; its snapshot replaces the one it restored.
        let (roster, global) = build_roster(Algorithm::EfTopK, 4);
        let round = |ratio: f64| {
            let mut client = roster.checkout(2);
            let out = client.local_update(&global);
            let _ = client.encode(&out.delta, ratio);
            roster.checkin(client);
        };
        round(0.05);
        assert_eq!(roster.residual_clients(), 1);
        round(1.0);
        assert_eq!(roster.residual_clients(), 0);
        assert_eq!(roster.residual_total_norm(), 0.0);
    }

    #[test]
    fn residual_total_norm_sums_in_id_order() {
        // One large term at id 0 and twelve tiny ones: in id order the tiny
        // ones are each lost against the large one, summed the other way
        // they add up to more than its rounding. Parked in descending order.
        let (roster, global) = build_roster(Algorithm::EfTopK, 13);
        let planted = |v: f32| ResidualState {
            parts: vec![vec![v; global.len()]],
        };
        let park = |id: usize, v: f32| {
            let mut client = roster.checkout(id);
            client.restore_residual(planted(v));
            roster.checkin(client);
        };
        let mut values = [1e-8f32; 13];
        values[0] = 1.0;
        for id in (0..13).rev() {
            park(id, values[id]);
        }
        let terms = |values: &[f32]| {
            values
                .iter()
                .map(|&v| planted(v).norm_sq())
                .collect::<Vec<_>>()
        };
        let id_order = |values: &[f32]| terms(values).iter().sum::<f64>().sqrt();
        let norm = roster.residual_total_norm();
        assert_eq!(roster.residual_clients(), 13);
        assert_eq!(norm.to_bits(), id_order(&values).to_bits());
        let descending = terms(&values).iter().rev().sum::<f64>().sqrt();
        assert_ne!(norm.to_bits(), descending.to_bits());
        assert_eq!(norm.to_bits(), roster.residual_total_norm().to_bits());
        // Re-parking a client replaces its cached term.
        values[0] = 9.0;
        park(0, values[0]);
        assert_eq!(
            roster.residual_total_norm().to_bits(),
            id_order(&values).to_bits()
        );
    }

    #[test]
    fn streams_are_the_legacy_fork_sequence() {
        // The roster forks client streams exactly like the eager engine:
        // root.fork(0), root.fork(1), … in partition order.
        let (roster, _) = build_roster(Algorithm::TopK, 3);
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.num_clients = 3;
        let mut root = Xoshiro256::new(config.seed ^ 0xC11E);
        for id in 0..3 {
            let expected = root.fork(id as u64);
            assert_eq!(lock(&roster.slots[id as usize]).rng, expected);
        }
    }
}
