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
//! 2. **error-feedback residuals** — stored in a sharded
//!    [`fl_compress::ResidualStore`] keyed by client id, populated only for
//!    clients that have been selected under an EF codec and carried mass.
//!
//! [`ClientRoster`] keeps exactly those two, plus the shared immutable
//! inputs (training data, partitions, config, codec registry, the
//! configuration's [`uplink_plan`]) and a pool of spent [`ClientState`]
//! *shells*:
//!
//! * [`checkout`](ClientRoster::checkout) pops a shell and **rebinds** it —
//!   new id, the client's persistent RNG stream, its shard copied into the
//!   shell's own dataset buffers, its stored residual restored. What the
//!   shell owns stays: model replica and layout, workspace, batch and
//!   gradient buffers, the optimizer (its velocity is zero-filled in place
//!   by the next local update) and the delta buffer handed back after
//!   encoding. When the pool is empty — the first `threads` checkouts of a
//!   session — the shell rebound is a new, empty one: there is one way to
//!   make a client;
//! * the shell's **codec is kept** when it declares itself
//!   [`reusable`](fl_compress::UpdateCodec::reusable) (every built-in does:
//!   once its residual is taken it holds nothing of its last client) *and*
//!   the plan key — bumped by every [`set_plan_override`] that changes the
//!   plan or its ratio scales, 0 on the static path — is the one it was
//!   built under. Otherwise the codec alone is rebuilt from the plan in
//!   force (the override, else the static plan), with this client's own
//!   `CodecCtx` (`seed ^ id`). Rebuilding it at every checkout instead
//!   was measured: `adaptive_churn` ran 9 % fewer rounds per second, in 10
//!   of 10 alternating pairs (a plan codec is six parsed, boxed segment
//!   codecs and their warm scratch);
//! * [`checkin`](ClientRoster::checkin) takes the (advanced) stream and the
//!   codec's residual snapshot back and returns the shell to the pool. A
//!   shell enters the pool only here and every checkout takes one if there
//!   is one, so the pool never holds more shells than were checked out at
//!   once; it has no size to configure.
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
use crate::policy::uplink_plan;
use fl_compress::{
    migrate_planned_residual, CodecRegistry, LayerPlan, ResidualState, ResidualStore, SegmentDef,
};
use fl_data::{ClientPartition, Dataset};
use fl_tensor::rng::Xoshiro256;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The roster's current round-scoped codec plan, installed by the round
/// engine when `config.adaptive_plan` is set. While an override is set,
/// [`ClientRoster::checkout`] resolves codecs against it instead of the
/// configuration's static plan.
#[derive(Clone)]
struct PlanOverride {
    plan: LayerPlan,
    scales: Option<Vec<f64>>,
    /// Bumped every time the *plan* (and therefore the residual part
    /// structure a codec snapshot carries) changes; scale-only updates keep
    /// the epoch, because segment-aligned residual parts survive a ratio
    /// change untouched.
    epoch: u64,
    /// Bumped every time the plan *or* its scales change, i.e. whenever a
    /// codec built under the override would come out different: the key a
    /// pooled shell's codec is kept or rebuilt by (0 is the static path).
    codec_key: u64,
    part_counts: Vec<usize>,
    segment_lens: Vec<usize>,
}

/// The persistent, population-wide client substrate of a
/// [`crate::session::FederatedSession`]: per-client RNG streams, the
/// error-feedback [`ResidualStore`], and everything needed to rebuild a
/// [`ClientState`] deterministically when its id is selected.
pub struct ClientRoster {
    train: Arc<Dataset>,
    partitions: Arc<Vec<ClientPartition>>,
    config: ExperimentConfig,
    registry: CodecRegistry,
    /// The configuration's [`uplink_plan`], resolved once.
    plan: LayerPlan,
    /// One persistent RNG stream per client, forked from the session's client
    /// root in id order at build time (the same fork loop — and therefore the
    /// same streams — as the legacy eager construction).
    streams: Vec<Mutex<Xoshiro256>>,
    residuals: ResidualStore,
    /// The adaptive plan currently in force (`None` on the static path —
    /// checkout then resolves codecs from `plan`, bit-identically to
    /// pre-adaptive builds). Written only between rounds by the engine's
    /// single-threaded select stage; checkout takes a handle to it.
    plan_override: Mutex<Option<Arc<PlanOverride>>>,
    /// Residual part counts of every plan epoch ever installed, for lazy
    /// migration: a parked snapshot from epoch `e` is re-shaped against the
    /// current epoch's counts the next time its client is checked out.
    epoch_counts: Mutex<HashMap<u64, Vec<usize>>>,
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
    /// Build the roster for a population. `root_rng` is the session's client
    /// root stream (`seed ^ 0xC11E`); each client's persistent stream is
    /// forked from it in partition order, exactly as the eager engine did.
    pub fn new(
        train: Arc<Dataset>,
        partitions: Arc<Vec<ClientPartition>>,
        config: ExperimentConfig,
        registry: CodecRegistry,
        root_rng: &mut Xoshiro256,
    ) -> Self {
        let streams = partitions
            .iter()
            .map(|p| Mutex::new(root_rng.fork(p.client_id as u64)))
            .collect();
        Self {
            train,
            partitions,
            plan: uplink_plan(&config),
            config,
            registry,
            streams,
            residuals: ResidualStore::new(),
            plan_override: Mutex::new(None),
            epoch_counts: Mutex::new(HashMap::new()),
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
    /// persistent RNG stream, its codec — and restore its stored
    /// error-feedback residual (if any).
    ///
    /// Every checkout must be paired with a [`checkin`](Self::checkin);
    /// checking the same id out twice concurrently would fork its stream and
    /// is a caller bug (cohorts are selected without replacement).
    pub fn checkout(&self, id: usize) -> ClientState {
        let stream = self.streams[id].lock().clone();
        let over = self.plan_override.lock().clone();
        let (plan, scales, codec_key) = match over.as_deref() {
            Some(o) => (&o.plan, o.scales.as_deref(), o.codec_key),
            None => (&self.plan, None, 0),
        };
        let (config, train) = (&self.config, &self.train);
        let shell = self.pool.lock().pop();
        let mut client = shell.unwrap_or_else(|| {
            ClientState::shell(config, train.feature_dim(), train.num_classes())
        });
        client.rebind(id, stream, train, &self.partitions[id].indices);
        client.resolve_codec(config.seed, &self.registry, plan, scales, codec_key);
        if let Some((state, epoch)) = self.residuals.take_epoch(id as u64) {
            let state = match over.as_deref() {
                Some(o) if epoch != o.epoch => {
                    match self.epoch_counts.lock().get(&epoch) {
                        Some(old_counts) => migrate_planned_residual(
                            state,
                            old_counts,
                            &o.part_counts,
                            &o.segment_lens,
                        ),
                        // A snapshot from before the first plan decision has
                        // no per-segment part structure to migrate (it came
                        // from a flat codec); the adaptive codec starts from
                        // zero accumulated error instead.
                        None => ResidualState::empty(),
                    }
                }
                _ => state,
            };
            client.restore_residual(state);
        }
        let resident = self.resident.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_resident.fetch_max(resident, Ordering::SeqCst);
        self.round_instantiated.fetch_add(1, Ordering::SeqCst);
        self.total_instantiated.fetch_add(1, Ordering::SeqCst);
        client
    }

    /// Return a client after its round of work: persist the codec's residual
    /// snapshot into the store (all-zero snapshots are dropped, and the
    /// snapshot is tagged with the plan epoch it was taken under), write the
    /// advanced RNG stream back, and keep the rest as a shell for the next
    /// checkout to rebind.
    pub fn checkin(&self, mut client: ClientState) {
        let id = client.id;
        let epoch = self.plan_epoch();
        self.residuals
            .put_epoch(id as u64, client.take_residual(), epoch);
        *self.streams[id].lock() = client.rng().clone();
        self.pool.lock().push(client);
        self.resident.fetch_sub(1, Ordering::SeqCst);
    }

    /// Install (or refresh) the adaptive codec plan every subsequent
    /// [`checkout`](Self::checkout) resolves against, returning the plan
    /// epoch now in force. Same plan → same epoch (scale-only updates are
    /// applied in place); a changed plan bumps the epoch, which drives the
    /// lazy migration of parked error-feedback residuals on their owners'
    /// next checkout. Called by the round engine's select stage, between
    /// rounds — never concurrently with checkouts.
    pub fn set_plan_override(
        &self,
        plan: LayerPlan,
        scales: Option<Vec<f64>>,
        segments: &[SegmentDef],
    ) -> u64 {
        let mut over = self.plan_override.lock();
        let codec_key = over.as_ref().map_or(0, |o| o.codec_key) + 1;
        match over.as_mut().map(Arc::make_mut) {
            Some(o) if o.plan == plan => {
                if o.scales != scales {
                    o.scales = scales;
                    o.codec_key = codec_key;
                }
                o.epoch
            }
            _ => {
                let part_counts = plan.part_counts(segments).unwrap_or_else(|e| {
                    panic!("adaptive plan {plan} does not cover the layout: {e}")
                });
                let epoch = over.as_ref().map(|o| o.epoch).unwrap_or(0) + 1;
                self.epoch_counts.lock().insert(epoch, part_counts.clone());
                *over = Some(Arc::new(PlanOverride {
                    plan,
                    scales,
                    epoch,
                    codec_key,
                    part_counts,
                    segment_lens: segments.iter().map(|s| s.len).collect(),
                }));
                epoch
            }
        }
    }

    /// The plan epoch currently in force (0 when no adaptive override is
    /// installed — the static path tags residuals with epoch 0 forever).
    pub fn plan_epoch(&self) -> u64 {
        self.plan_override
            .lock()
            .as_ref()
            .map(|o| o.epoch)
            .unwrap_or(0)
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

    /// Number of clients with a stored error-feedback residual.
    pub fn residual_clients(&self) -> usize {
        self.residuals.len()
    }

    /// L2 norm over every stored residual scalar (the population's total
    /// carried-over compression error).
    pub fn residual_total_norm(&self) -> f64 {
        self.residuals.total_norm()
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
        let roster = ClientRoster::new(train, partitions, config, registry, &mut root_rng);
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
        assert!(fresh.pool.lock().is_empty());

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
                assert_eq!(pooled.pool.lock().len(), 1, "one shell serves them all");
            }
        }
        assert_eq!(pooled.total_instantiated(), 6);
        assert_eq!(pooled.residual_clients(), 3);
    }

    #[test]
    fn pool_never_exceeds_concurrent_checkouts() {
        let (roster, _) = build_roster(Algorithm::TopK, 6);
        let pooled = || roster.pool.lock().len();
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
            rng: &mut Xoshiro256,
        ) -> (fl_compress::WireUpdate, fl_compress::CompressedUpdate) {
            fl_compress::TopKCodec.encode_sent(dense, ratio, rng)
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
        assert_eq!(roster.pool.lock().len(), 1, "the shell itself was reused");
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
            roster.set_plan_override(plan(), Some(vec![scale; segments.len()]), &segments);
            let mut client = roster.checkout(id);
            let out = client.local_update(&global);
            let wire = client.encode(&out.delta, 0.2);
            let kept = client.decode(&wire).unwrap().as_sparse().unwrap().nnz();
            roster.checkin(client);
            kept
        };
        let half = kept_at(0.5, 1);
        assert_eq!(kept_at(0.5, 2), half, "same plan key, same budget");
        let epoch = roster.plan_epoch();
        let quarter = kept_at(0.25, 3);
        assert_eq!(roster.plan_epoch(), epoch, "a scale change is no new epoch");
        assert!(
            quarter < half * 2 / 3,
            "the shell's codec must follow the new scales ({half} -> {quarter})"
        );
        assert_eq!(roster.pool.lock().len(), 1);
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
    fn plan_override_migrates_residuals_across_plan_changes() {
        let (roster, global) = build_roster(Algorithm::TopK, 4);
        // A mixed plan (never collapses): EF on the weights, stateless bias.
        let segments = {
            let probe = roster.checkout(0);
            let s = crate::client::segment_defs(probe.layout());
            roster.checkin(probe);
            s
        };
        let e1 = roster.set_plan_override(
            "*.bias=topk;*=ef-topk+qsgd:8".parse().unwrap(),
            None,
            &segments,
        );
        assert_eq!(e1, 1);
        assert_eq!(roster.plan_epoch(), 1);
        let mut client = roster.checkout(1);
        let out = client.local_update(&global);
        let _ = client.encode(&out.delta, 0.05);
        let norm = client.residual_norm();
        assert!(norm > 0.0, "EF segments must carry dropped mass");
        roster.checkin(client);
        assert_eq!(roster.residual_clients(), 1);

        // Re-installing the same plan (even with fresh ratio scales) keeps
        // the epoch: the parked snapshot restores verbatim.
        let scales = vec![0.5; segments.len()];
        let e_same = roster.set_plan_override(
            "*.bias=topk;*=ef-topk+qsgd:8".parse().unwrap(),
            Some(scales),
            &segments,
        );
        assert_eq!(e_same, 1);
        let client = roster.checkout(1);
        assert!((client.residual_norm() - norm).abs() < 1e-12);
        roster.checkin(client);

        // A bit-width change is a new plan: the epoch bumps and the EF→EF
        // migration carries every residual coordinate across unchanged.
        let e2 = roster.set_plan_override(
            "*.bias=topk;*=ef-topk+qsgd:4".parse().unwrap(),
            None,
            &segments,
        );
        assert_eq!(e2, 2);
        let client = roster.checkout(1);
        assert!(
            (client.residual_norm() - norm).abs() < 1e-12,
            "EF→EF migration must carry the residual verbatim"
        );
        roster.checkin(client);

        // EF → stateless drops the carried mass (nowhere to hold it).
        let e3 = roster.set_plan_override("*=topk;*.bias=topk".parse().unwrap(), None, &segments);
        assert_eq!(e3, 3);
        let client = roster.checkout(1);
        assert_eq!(client.residual_norm(), 0.0);
        roster.checkin(client);
        assert_eq!(roster.residual_clients(), 0);
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
            assert_eq!(*roster.streams[id as usize].lock(), expected);
        }
    }
}
