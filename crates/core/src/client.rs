//! Simulated federated client: local dataset, local model replica, local SGD
//! and the update codec (with any cross-round state, e.g. error-feedback
//! residuals) the client encodes its uplink with.

use crate::config::{ExperimentConfig, ModelPreset};
use crate::policy::uplink_plan;
use fl_compress::{
    CodecCtx, CodecRegistry, CompressedUpdate, DenseCodec, LayerPlan, ResidualState, SegmentDef,
    UpdateCodec, WireError, WireUpdate,
};
use fl_data::{BatchLoader, Dataset};
use fl_nn::{mlp, unflatten_params, ParamLayout, Sequential, Sgd, SoftmaxCrossEntropy, Workspace};
use fl_tensor::rng::Xoshiro256;
use fl_tensor::Tensor;

/// The result of one client's local training in one round.
#[derive(Clone, Debug)]
pub struct LocalTrainOutput {
    /// Client id of the producer.
    pub client_id: usize,
    /// The model delta `w_t − w_{t,local}` (descent direction) as a flat vector.
    pub delta: Vec<f32>,
    /// Mean training loss over the local epochs.
    pub train_loss: f64,
    /// Number of local training samples (the `n_k` of FedAvg's weights).
    pub num_samples: usize,
    /// Wall-clock seconds spent in local training.
    pub train_time_s: f64,
}

/// One simulated client — and, between two clients, the reusable shell the
/// [`crate::roster::ClientRoster`] rebinds: everything below except `id`,
/// `rng`, the dataset's *contents* and the codec's residual is either
/// overwritten before it is read (model parameters, gradients, batch and
/// workspace buffers, the delta) or reset in place (optimizer velocity).
pub struct ClientState {
    /// Client id in `[0, N)`.
    pub id: usize,
    dataset: Dataset,
    model: Sequential,
    layout: ParamLayout,
    loader: BatchLoader,
    rng: Xoshiro256,
    codec: Box<dyn UpdateCodec>,
    /// The roster's plan key ([`crate::roster::ClientRoster`] bumps it with
    /// every plan or scale change; 0 on the static path) `codec` was built
    /// under; `None` while the shell has never been bound.
    codec_key: Option<u64>,
    optimizer: Sgd,
    local_epochs: usize,
    // Reusable training buffers: after the first batch warms them up, a
    // steady-state local-training batch performs no heap allocation.
    ws: Workspace,
    loss_fn: SoftmaxCrossEntropy,
    grad: Tensor,
    order: Vec<usize>,
    batch_x: Tensor,
    batch_y: Vec<usize>,
    /// The buffer the next [`local_update`](Self::local_update) returns its
    /// delta in, when the previous one was handed back through
    /// [`recycle_delta`](Self::recycle_delta).
    delta: Vec<f32>,
}

impl ClientState {
    /// Create a client from the experiment configuration and its local shard.
    /// The uplink codec is resolved from the configuration's
    /// [`uplink_plan`] (one codec per parameter segment, or one flat codec
    /// when the plan is uniform) through the built-in [`CodecRegistry`].
    pub fn new(id: usize, dataset: Dataset, config: &ExperimentConfig, rng: Xoshiro256) -> Self {
        // The one way to make a client, at the price of copying `dataset`
        // once: nothing on a hot path comes through here.
        let mut client = Self::shell(config, dataset.feature_dim(), dataset.num_classes());
        let all: Vec<usize> = (0..dataset.len()).collect();
        client.rebind(id, rng, &dataset, &all);
        let registry = CodecRegistry::with_builtins();
        client.resolve_codec(config.seed, &registry, &uplink_plan(config), None, 0);
        client
    }

    /// A shell bound to no client yet: everything a client keeps between
    /// bindings, sized by nothing but the model preset and the data's
    /// dimensions. [`rebind`](Self::rebind) makes it a client.
    pub(crate) fn shell(config: &ExperimentConfig, feature_dim: usize, num_classes: usize) -> Self {
        // The replica's parameters are always overwritten by the broadcast
        // global vector before training (`local_update` starts with
        // `unflatten_params`), so a zero init is bit-identical to the
        // server-seeded random init — and skips ~`num_params` normal draws.
        let model = build_model_zeroed(&config.model, feature_dim, num_classes);
        let layout = ParamLayout::of(&model);
        Self {
            id: usize::MAX,
            dataset: Dataset::empty(feature_dim, num_classes),
            model,
            layout,
            loader: BatchLoader::new(config.batch_size, false),
            rng: Xoshiro256::new(0),
            codec: Box::new(DenseCodec),
            codec_key: None,
            optimizer: Sgd::new(config.local_lr, config.momentum, config.weight_decay),
            local_epochs: config.local_epochs,
            ws: Workspace::new(),
            loss_fn: SoftmaxCrossEntropy::new(),
            grad: Tensor::empty(),
            order: Vec::new(),
            batch_x: Tensor::empty(),
            batch_y: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Turn a shell into client `id`: its shard is copied out of `train` into
    /// the shell's own dataset buffers and its RNG stream installed; model,
    /// layout, workspaces and optimizer stay (see the struct docs for why
    /// that is exact). Follow with [`resolve_codec`](Self::resolve_codec).
    pub(crate) fn rebind(&mut self, id: usize, rng: Xoshiro256, train: &Dataset, shard: &[usize]) {
        self.id = id;
        self.rng = rng;
        train.subset_into(shard, &mut self.dataset);
    }

    /// Give the client its codec. A codec left by the shell's last client is
    /// kept when it is [`UpdateCodec::reusable`] and was built under the same
    /// `codec_key`; otherwise `plan` is resolved against the client's layout
    /// with its own [`CodecCtx`] (`seed ^ id`) through `registry` (the seam
    /// [`crate::session::SessionBuilder::codec_registry`] uses to run custom
    /// codecs through the round engine). With `scales: None` a uniform plan
    /// collapses to its flat codec; with per-segment ratio scales the codec
    /// is always segment-framed, so per-layer byte telemetry stays
    /// available. `seed` and `registry` must be the same at every call on
    /// one shell, and `codec_key` must change whenever `plan` or `scales` do.
    pub(crate) fn resolve_codec(
        &mut self,
        seed: u64,
        registry: &CodecRegistry,
        plan: &LayerPlan,
        scales: Option<&[f64]>,
        codec_key: u64,
    ) {
        if !(self.codec.reusable() && self.codec_key == Some(codec_key)) {
            let ctx = CodecCtx::new(self.layout.total_len(), seed ^ self.id as u64);
            let segments = segment_defs(&self.layout);
            let codec = match scales {
                Some(scales) => plan.resolve_scaled(registry, &segments, &ctx, scales),
                None => plan.resolve(registry, &segments, &ctx),
            };
            self.codec = codec.unwrap_or_else(|e| panic!("invalid uplink plan {plan}: {e}"));
            self.codec_key = Some(codec_key);
        }
    }

    /// Number of local training samples.
    pub fn num_samples(&self) -> usize {
        self.dataset.len()
    }

    /// Borrow the local dataset (used by evaluation helpers and tests).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The named layout of this client's flat parameter vector (identical to
    /// the server's — every replica is built from the same preset and seed).
    pub fn layout(&self) -> &ParamLayout {
        &self.layout
    }

    /// Run `E` local epochs of SGD starting from the given global parameters
    /// and return the flat model delta (`global − local`).
    pub fn local_update(&mut self, global_params: &[f32]) -> LocalTrainOutput {
        let start = std::time::Instant::now();
        unflatten_params(&mut self.model, global_params);
        self.optimizer.reset_velocity();
        let mut loss_acc = 0.0f64;
        let mut loss_count = 0usize;
        for _ in 0..self.local_epochs {
            // One shuffle per epoch, same draw order and batch boundaries as
            // `BatchLoader::epoch_batches`, but gathered into reusable
            // buffers: the steady-state batch loop below allocates nothing.
            self.loader
                .shuffle_epoch(&self.dataset, &mut self.rng, &mut self.order);
            for (s, e) in self.loader.batch_ranges(self.dataset.len()) {
                self.dataset.gather_batch_into(
                    &self.order[s..e],
                    &mut self.batch_x,
                    &mut self.batch_y,
                );
                let logits = self.model.forward_in(&self.batch_x, &mut self.ws);
                let loss = self.loss_fn.forward(logits, &self.batch_y);
                self.loss_fn.backward_in(&mut self.grad);
                // Nothing reads the gradient with respect to the batch.
                self.model.backward_params_in(&self.grad, &mut self.ws);
                self.optimizer.step(&mut self.model);
                loss_acc += loss as f64;
                loss_count += 1;
            }
        }
        // `global − local` in one walk over the parameter tensors, in the
        // flat vector's order (that of `flatten_params`).
        let mut delta = std::mem::take(&mut self.delta);
        delta.clear();
        delta.reserve(global_params.len());
        for p in self.model.params() {
            let global = &global_params[delta.len()..][..p.numel()];
            delta.extend(global.iter().zip(p.data()).map(|(g, l)| g - l));
        }
        LocalTrainOutput {
            client_id: self.id,
            delta,
            train_loss: if loss_count == 0 {
                0.0
            } else {
                loss_acc / loss_count as f64
            },
            num_samples: self.dataset.len(),
            train_time_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Hand a delta produced by [`local_update`](Self::local_update) back
    /// once it has been encoded, so the next local update (of this client or
    /// of the next one bound to this shell) reuses its buffer.
    pub fn recycle_delta(&mut self, delta: Vec<f32>) {
        self.delta = delta;
    }

    /// Encode a delta at the given ratio with this client's codec, producing
    /// the real wire bytes. Per-round randomness (Rand-K coordinate draws,
    /// QSGD stochastic rounding) comes from the client's RNG stream, and any
    /// codec state (error-feedback residuals) advances.
    pub fn encode(&mut self, delta: &[f32], ratio: f64) -> WireUpdate {
        self.codec.encode(delta, ratio, &mut self.rng)
    }

    /// Decode a wire buffer with this client's codec (what the server does on
    /// receipt).
    pub fn decode(&self, wire: &WireUpdate) -> Result<CompressedUpdate, WireError> {
        self.codec.decode(wire)
    }

    /// Name of this client's codec (the resolved spec string).
    pub fn codec_name(&self) -> String {
        self.codec.name()
    }

    /// Current L2 norm of the codec's residual state (0 for stateless codecs).
    pub fn residual_norm(&self) -> f64 {
        self.codec.residual_norm()
    }

    /// Take the codec's residual snapshot, resetting it to zero — the
    /// check-in half of the [`crate::roster::ClientRoster`] seam. Stateless
    /// codecs return an empty (trivial) snapshot.
    pub fn take_residual(&mut self) -> ResidualState {
        self.codec.take_residual()
    }

    /// Restore a residual snapshot taken from an earlier instance of this
    /// client's codec — the checkout half of the
    /// [`crate::roster::ClientRoster`] seam. An empty snapshot is a no-op.
    pub fn restore_residual(&mut self, state: ResidualState) {
        self.codec.restore_residual(state);
    }

    /// The client's (advanced) RNG stream, for a roster to persist across
    /// rounds.
    pub(crate) fn rng(&self) -> &Xoshiro256 {
        &self.rng
    }
}

/// Bridge a model's [`ParamLayout`] into the `(name, len)` segment form
/// [`fl_compress::LayerPlan::resolve`] consumes — `fl-core` is the one crate
/// that sees both sides, so this is the single conversion point.
pub fn segment_defs(layout: &ParamLayout) -> Vec<SegmentDef> {
    layout
        .segments()
        .iter()
        .map(|s| SegmentDef::new(s.name.clone(), s.len))
        .collect()
}

/// Build the model described by a [`ModelPreset`].
pub fn build_model(
    preset: &ModelPreset,
    input_dim: usize,
    classes: usize,
    rng: &mut Xoshiro256,
) -> Sequential {
    match preset {
        ModelPreset::Mlp { hidden1, hidden2 } => {
            mlp(input_dim, &[*hidden1, *hidden2], classes, rng)
        }
        ModelPreset::Linear => fl_nn::model::logistic_regression(input_dim, classes, rng),
    }
}

/// Build the model described by a [`ModelPreset`] with all-zero parameters —
/// for replicas whose parameters are immediately overwritten (client
/// checkouts), where the random init would only burn normal draws.
pub fn build_model_zeroed(preset: &ModelPreset, input_dim: usize, classes: usize) -> Sequential {
    match preset {
        ModelPreset::Mlp { hidden1, hidden2 } => {
            fl_nn::mlp_zeroed(input_dim, &[*hidden1, *hidden2], classes)
        }
        ModelPreset::Linear => fl_nn::model::logistic_regression_zeroed(input_dim, classes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use fl_nn::flatten_params;

    fn quick_client(algorithm: Algorithm) -> (ClientState, Vec<f32>, ExperimentConfig) {
        let config = ExperimentConfig::quick(algorithm);
        let (train, _) = config
            .dataset
            .spec(config.dataset_scale)
            .generate(config.seed);
        let local = train.subset(&(0..64).collect::<Vec<_>>());
        let mut rng = Xoshiro256::new(config.seed);
        let global_model = build_model(
            &config.model,
            local.feature_dim(),
            local.num_classes(),
            &mut rng,
        );
        let global = flatten_params(&global_model);
        let client = ClientState::new(0, local, &config, Xoshiro256::new(7));
        (client, global, config)
    }

    #[test]
    fn local_update_produces_matching_delta_length() {
        let (mut client, global, _) = quick_client(Algorithm::TopK);
        let out = client.local_update(&global);
        assert_eq!(out.delta.len(), global.len());
        assert_eq!(out.num_samples, 64);
        assert!(out.train_loss > 0.0);
        assert!(
            out.delta.iter().any(|&d| d != 0.0),
            "training should move the model"
        );
    }

    #[test]
    fn delta_direction_reduces_local_loss() {
        // Applying the delta (w - eta*delta ... here directly w_local = w - delta)
        // must give a model with lower local loss than the global one.
        let (mut client, global, _) = quick_client(Algorithm::TopK);
        let out = client.local_update(&global);
        let local_params: Vec<f32> = global
            .iter()
            .zip(out.delta.iter())
            .map(|(g, d)| g - d)
            .collect();
        let mut rng = Xoshiro256::new(1);
        let mut probe = build_model(
            &ExperimentConfig::quick(Algorithm::TopK).model,
            client.dataset().feature_dim(),
            client.dataset().num_classes(),
            &mut rng,
        );
        let mut loss_fn = SoftmaxCrossEntropy::new();
        let (x, y) = client.dataset().full_batch();
        unflatten_params(&mut probe, &global);
        let loss_global = loss_fn.forward(&probe.forward(&x), &y);
        unflatten_params(&mut probe, &local_params);
        let loss_local = loss_fn.forward(&probe.forward(&x), &y);
        assert!(
            loss_local < loss_global,
            "local training should reduce local loss ({loss_global} -> {loss_local})"
        );
    }

    #[test]
    fn ef_client_keeps_residual_state() {
        let (mut client, global, _) = quick_client(Algorithm::EfTopK);
        assert_eq!(client.codec_name(), "ef-topk");
        let out = client.local_update(&global);
        assert_eq!(client.residual_norm(), 0.0);
        let _ = client.encode(&out.delta, 0.05);
        assert!(
            client.residual_norm() > 0.0,
            "EF residual should be non-empty"
        );
    }

    #[test]
    fn non_ef_client_has_zero_residual() {
        let (mut client, global, _) = quick_client(Algorithm::TopK);
        assert_eq!(client.codec_name(), "topk");
        let out = client.local_update(&global);
        let _ = client.encode(&out.delta, 0.05);
        assert_eq!(client.residual_norm(), 0.0);
    }

    #[test]
    fn encode_decode_respects_ratio() {
        let (mut client, global, _) = quick_client(Algorithm::TopK);
        let out = client.local_update(&global);
        let wire = client.encode(&out.delta, 0.1);
        let decoded = client.decode(&wire).unwrap();
        let nnz = decoded.as_sparse().unwrap().nnz();
        let expected = (0.1 * global.len() as f64).ceil() as usize;
        assert_eq!(nnz, expected);
        // The wire buffer is a real byte payload: smaller than the analytic
        // 8 bytes/coordinate thanks to varint-delta index coding.
        assert!(wire.len() < nnz * 8 + 16);
        assert!(wire.len() > nnz * 4);
    }

    #[test]
    fn randk_client_differs_from_topk() {
        let (mut client, global, _) = quick_client(Algorithm::RandK);
        assert_eq!(client.codec_name(), "randk");
        let out = client.local_update(&global);
        let topk = fl_compress::topk::select(&out.delta, 0.1);
        let wire = client.encode(&out.delta, 0.1);
        let randk = client.decode(&wire).unwrap();
        assert_ne!(topk.indices(), randk.as_sparse().unwrap().indices());
    }

    #[test]
    fn compressor_override_changes_the_wire_format() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.compressor = Some("topk+qsgd:4".parse().unwrap());
        let (train, _) = config
            .dataset
            .spec(config.dataset_scale)
            .generate(config.seed);
        let local = train.subset(&(0..64).collect::<Vec<_>>());
        let mut client = ClientState::new(0, local, &config, Xoshiro256::new(7));
        assert_eq!(client.codec_name(), "topk+qsgd:4");
        let mut rng = Xoshiro256::new(1);
        let global = {
            let model = build_model(
                &config.model,
                client.dataset().feature_dim(),
                client.dataset().num_classes(),
                &mut rng,
            );
            flatten_params(&model)
        };
        let out = client.local_update(&global);
        let wire = client.encode(&out.delta, 0.1);
        let k = (0.1 * global.len() as f64).ceil() as usize;
        assert!(
            wire.len() < k * 8 / 2,
            "4-bit quantized values should beat the f32 sparse format"
        );
        assert_eq!(client.decode(&wire).unwrap().as_sparse().unwrap().nnz(), k);
    }
}
