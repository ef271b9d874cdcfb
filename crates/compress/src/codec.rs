//! The [`UpdateCodec`] trait — stateful encoder/decoders producing the
//! byte-level [`WireUpdate`] format — and the built-in codec implementations.
//!
//! * **A codec emits real bytes** — [`UpdateCodec::encode_sent`] returns a
//!   versioned [`WireUpdate`] buffer (varint-delta sparse indices, bit-packed
//!   QSGD levels) whose length is what the network simulator can charge.
//! * **It owns its cross-round state** — encoding takes `&mut self`, so
//!   error-feedback residuals ([`EfCodec`]) live inside the codec instead of
//!   being special-cased in the client.
//! * **Encoding is one forward pass** — `encode_sent` returns the bytes *and*
//!   the lossy update those bytes stand for, built from the selection and
//!   quantization levels the encoder already holds. Wrappers that need to
//!   know what was sent (error feedback, composition, the downlink channel)
//!   take it from there; nothing on the encode side ever decodes its own
//!   bytes. The only decode of a round is the receiver's.
//! * **Per-round randomness is explicit** — encoding draws from the caller's
//!   [`Xoshiro256`] stream (one stream per simulated client), so experiment
//!   replays stay bit-exact no matter which codec runs.
//!
//! Codecs are normally built from a parsed [`crate::spec::CompressorSpec`]
//! through the [`crate::registry::CodecRegistry`]; the types here are public
//! so custom codecs can wrap or compose them.

use crate::quantize::{max_level_for_bits, qsgd_dequantize, qsgd_levels};
use crate::rans::RansEncoder;
use crate::sparse::SparseUpdate;
use crate::update::CompressedUpdate;
use crate::wire::{
    encode_dense, encode_quantized, encode_quantized_rc, encode_sparse, encode_sparse_quantized,
    encode_sparse_quantized_rc, WireError, WireUpdate,
};
use crate::{randk, threshold, topk};
use fl_tensor::rng::{Rng, Xoshiro256};

/// Everything a codec factory may consult when instantiating a codec.
#[derive(Clone, Copy, Debug)]
pub struct CodecCtx {
    /// Length of the dense update vectors the codec will see (the model's
    /// flat parameter count). Stateful codecs size their buffers from this.
    pub dense_len: usize,
    /// Deterministic seed for codecs that keep private RNG state. The
    /// built-ins instead draw from the stream passed to
    /// [`UpdateCodec::encode_sent`], but custom codecs may want a
    /// construction seed.
    pub seed: u64,
}

impl CodecCtx {
    /// Context for a model with `dense_len` parameters.
    pub fn new(dense_len: usize, seed: u64) -> Self {
        Self { dense_len, seed }
    }
}

/// A snapshot of a codec's cross-round residual state, detached from the
/// codec instance that produced it.
///
/// This is the seam that lets a simulator keep millions of clients *virtual*:
/// instead of holding one live codec per client forever (each
/// [`EfCodec`] owns a model-sized residual vector), the engine extracts the
/// state with [`UpdateCodec::take_residual`] when a client leaves the active
/// cohort, parks it in a [`crate::residual_store::ResidualStore`] keyed by
/// client id, and re-injects it with [`UpdateCodec::restore_residual`] the
/// next time the client is selected — into a freshly built codec, or into
/// another client's drained one when it is [`UpdateCodec::reusable`].
///
/// The snapshot is an ordered list of residual vectors — one per stateful
/// component, in the codec's canonical component order (a flat [`EfCodec`]
/// contributes one part; a [`crate::plan::PlannedCodec`] concatenates its
/// segments' parts in segment order). Stateless codecs produce an empty
/// snapshot. A zero-length part stands for an all-zero residual of its
/// component's length — what a component that has not encoded yet holds — so
/// a fresh codec can be snapshotted without materialising model-sized zeros.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResidualState {
    /// Residual vectors in canonical component order.
    pub parts: Vec<Vec<f32>>,
}

impl ResidualState {
    /// A snapshot with no stateful components.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when the snapshot carries no information: no parts, or every
    /// coordinate of every part exactly zero. Restoring such a snapshot is a
    /// no-op, so stores drop it instead of keeping dead weight.
    pub fn is_trivial(&self) -> bool {
        self.parts.iter().all(|p| p.iter().all(|&v| v == 0.0))
    }

    /// Squared L2 norm over all parts, accumulated in part order.
    pub fn norm_sq(&self) -> f64 {
        self.parts
            .iter()
            .flat_map(|p| p.iter())
            .map(|&v| (v as f64).powi(2))
            .sum()
    }

    /// L2 norm over all parts (0 for a trivial snapshot).
    pub fn l2_norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Total number of `f32` scalars held (the snapshot's memory footprint
    /// in 4-byte units).
    pub fn num_scalars(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
}

/// A stateful encoder/decoder of model updates with a byte-level wire format.
///
/// Implementations must be deterministic given the same inputs, internal
/// state and RNG stream, so experiments replay exactly.
pub trait UpdateCodec: Send {
    /// Name used in reports (normally the spec string that built the codec).
    fn name(&self) -> String;

    /// Encode a dense update at the target `ratio` into wire bytes, drawing
    /// any per-round randomness from `rng` and updating internal state
    /// (error-feedback residuals, …). Returns the bytes together with what
    /// was sent: the lossy update [`decode`](Self::decode) reconstructs from
    /// those bytes, bit for bit.
    ///
    /// Error feedback, codec composition and the downlink channel need the
    /// sent update, and an encoder already holds it (the selected
    /// coordinates, the quantization levels) before it writes a byte — so
    /// nothing on the sending side decodes its own bytes.
    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate);

    /// The wire bytes of [`encode_sent`](Self::encode_sent) alone. State and
    /// RNG advance exactly as there.
    fn encode(&mut self, dense: &[f32], ratio: f64, rng: &mut Xoshiro256) -> WireUpdate {
        self.encode_sent(dense, ratio, rng).0
    }

    /// Reconstruct the lossy update an encoded buffer represents. The default
    /// decodes the standard wire format; codecs with private payload layouts
    /// override this.
    fn decode(&self, wire: &WireUpdate) -> Result<CompressedUpdate, WireError> {
        wire.decode()
    }

    /// L2 norm of any accumulated residual state (0 for stateless codecs).
    fn residual_norm(&self) -> f64 {
        0.0
    }

    /// Move the codec's cross-round residual state out, leaving the codec in
    /// its freshly constructed (all-zero) state. Stateless codecs return an
    /// empty snapshot; a component that has not encoded since construction
    /// contributes a zero-length part (see [`ResidualState`]). Taking the
    /// state and immediately
    /// [`restore_residual`](Self::restore_residual)-ing it must round-trip
    /// bit-exactly — the session engine relies on this to keep virtualized
    /// clients indistinguishable from always-resident ones.
    fn take_residual(&mut self) -> ResidualState {
        ResidualState::empty()
    }

    /// Re-inject a residual snapshot previously produced by
    /// [`take_residual`](Self::take_residual) on an identically configured
    /// codec. Restoring an empty snapshot is a no-op (the codec keeps its
    /// fresh all-zero state). Implementations panic on a structurally
    /// incompatible snapshot — that is a wiring bug, not a runtime condition.
    fn restore_residual(&mut self, state: ResidualState) {
        assert!(
            state.parts.is_empty(),
            "stateless codec {} cannot restore a {}-part residual snapshot",
            self.name(),
            state.parts.len()
        );
    }

    /// True when an instance whose residual has just been
    /// [taken](Self::take_residual) is indistinguishable from one newly built
    /// for *any* client: it keeps nothing from its [`CodecCtx`] but the
    /// update length and nothing across encodes but the residual. The engine
    /// then hands such an instance from client to client instead of building
    /// one per checkout. The default is `false` — a custom codec that seeds
    /// itself from [`CodecCtx::seed`] or keeps other per-client state is
    /// rebuilt every time without having to say so. Every built-in returns
    /// `true` (wrappers: when what they wrap does).
    fn reusable(&self) -> bool {
        false
    }
}

/// Debug-build check of the [`UpdateCodec::encode_sent`] contract at the
/// point a built-in assembles its answer: the bytes must decode to exactly
/// the update returned beside them.
pub(crate) fn debug_assert_sent(wire: &WireUpdate, sent: &CompressedUpdate) {
    debug_assert!(
        wire.decode().is_ok_and(|decoded| decoded.bit_eq(sent)),
        "encode_sent returned an update its own bytes do not decode to"
    );
}

/// `encode_sent` of a sparsifier: the `KIND_SPARSE` bytes and the selection
/// they carry verbatim.
fn sparse_sent(sparse: SparseUpdate) -> (WireUpdate, CompressedUpdate) {
    let wire = encode_sparse(&sparse);
    let sent = CompressedUpdate::Sparse(sparse);
    debug_assert_sent(&wire, &sent);
    (wire, sent)
}

/// `encode_sent` of an uncompressed upload: the `KIND_DENSE` bytes, which
/// decode to the full-density sparse form.
fn dense_sent(dense: &[f32]) -> (WireUpdate, CompressedUpdate) {
    let wire = encode_dense(dense);
    let sent = CompressedUpdate::Sparse(SparseUpdate::new(
        (0..dense.len() as u32).collect(),
        dense.to_vec(),
        dense.len(),
    ));
    debug_assert_sent(&wire, &sent);
    (wire, sent)
}

/// Magnitude Top-K sparsification (the paper's primary compressor).
#[derive(Clone, Copy, Debug, Default)]
pub struct TopKCodec;

impl UpdateCodec for TopKCodec {
    fn name(&self) -> String {
        "topk".into()
    }

    fn reusable(&self) -> bool {
        true
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        _rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        // A ratio-1.0 upload retains everything: ship the dense wire format
        // (raw f32s, no per-coordinate index overhead) so uncompressed
        // baselines like FedAvg are charged honest dense bytes.
        if topk::k_for(dense.len(), ratio) == dense.len() {
            return dense_sent(dense);
        }
        sparse_sent(topk::select(dense, ratio))
    }
}

/// The explicit "don't compress this" codec: every coordinate ships as a raw
/// f32 in the dense wire kind, ignoring the target ratio. Layer plans use it
/// for segments that collapse under sparsification (biases, norm scales) —
/// `"*.bias=dense"` keeps those few coordinates exact while the big layers
/// stay aggressively compressed.
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseCodec;

impl UpdateCodec for DenseCodec {
    fn name(&self) -> String {
        "dense".into()
    }

    fn reusable(&self) -> bool {
        true
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        _ratio: f64,
        _rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        dense_sent(dense)
    }
}

/// Uniform Rand-K sparsification, rescaled by `len/k` (unbiased). Draws one
/// `u64` seed per round from the session stream — the same draw order the
/// pre-codec engine used, so Rand-K trajectories replay bit-identically.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandKCodec;

impl UpdateCodec for RandKCodec {
    fn name(&self) -> String {
        "randk".into()
    }

    fn reusable(&self) -> bool {
        true
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        sparse_sent(randk::select(dense, ratio, rng.next_u64()))
    }
}

/// Hard-threshold sparsification. With an absolute `tau` the target ratio is
/// ignored; without one the threshold is derived from the `1 − ratio`
/// magnitude quantile ([`threshold::threshold_for`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThresholdCodec {
    /// Optional absolute magnitude threshold (`"threshold:0.01"`).
    pub tau: Option<f32>,
}

impl UpdateCodec for ThresholdCodec {
    fn name(&self) -> String {
        match self.tau {
            Some(t) => format!("threshold:{t}"),
            None => "threshold".into(),
        }
    }

    fn reusable(&self) -> bool {
        true
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        _rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        sparse_sent(match self.tau {
            Some(tau) => threshold::select_at(dense, tau),
            None => threshold::select(dense, ratio),
        })
    }
}

/// QSGD stochastic quantization at a fixed bit width: every coordinate is
/// transmitted as a sign plus `bits − 1` level bits, bit-packed on the wire
/// — or, with the `:rc` suffix (`"qsgd:4:rc"`), entropy-coded through the
/// adaptive-CDF rANS coder, which never expands past the bit-packed size.
/// The target ratio is ignored (the compression factor is `32 / bits`).
#[derive(Clone, Debug)]
pub struct QsgdCodec {
    /// Bits per coordinate including the sign bit, in `2..=16`.
    pub bits: u8,
    /// Entropy-code the levels ([`crate::wire::KIND_ENTROPY`]) instead of
    /// bit-packing them. Quantization itself — levels, norm, RNG draws — is
    /// identical either way; only the byte layout (and count) changes.
    pub entropy: bool,
    /// The entropy coder's scratch, kept so warm encodes allocate nothing
    /// for it; empty (and never touched) while `entropy` is false.
    coder: RansEncoder,
}

impl QsgdCodec {
    /// New bit-packing QSGD codec at the given bit width. Panics unless
    /// `bits ∈ 2..=16`.
    pub fn new(bits: u8) -> Self {
        let _ = max_level_for_bits(bits); // validates the range
        Self {
            bits,
            entropy: false,
            coder: RansEncoder::default(),
        }
    }

    /// New entropy-coding QSGD codec (`"qsgd:<bits>:rc"`).
    pub fn new_entropy(bits: u8) -> Self {
        Self {
            entropy: true,
            ..Self::new(bits)
        }
    }

    /// Quantize a value slice, returning `(norm, signed levels)`.
    pub fn quantize(&self, values: &[f32], rng: &mut Xoshiro256) -> (f32, Vec<i32>) {
        qsgd_levels(values, max_level_for_bits(self.bits), rng)
    }

    /// The dense quantized frame for `levels`, in this codec's byte layout.
    fn dense_wire(&mut self, norm: f32, levels: &[i32]) -> WireUpdate {
        if self.entropy {
            encode_quantized_rc(&mut self.coder, levels.len(), self.bits, norm, levels)
        } else {
            encode_quantized(levels.len(), self.bits, norm, levels)
        }
    }

    /// The sparse quantized frame for `levels` at `indices`, in this codec's
    /// byte layout.
    fn sparse_wire(
        &mut self,
        dense_len: usize,
        indices: &[u32],
        norm: f32,
        levels: &[i32],
    ) -> WireUpdate {
        if self.entropy {
            let bits = self.bits;
            encode_sparse_quantized_rc(&mut self.coder, dense_len, indices, bits, norm, levels)
        } else {
            encode_sparse_quantized(dense_len, indices, self.bits, norm, levels)
        }
    }
}

impl UpdateCodec for QsgdCodec {
    fn name(&self) -> String {
        if self.entropy {
            format!("qsgd:{}:rc", self.bits)
        } else {
            format!("qsgd:{}", self.bits)
        }
    }

    fn reusable(&self) -> bool {
        true
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        _ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        let (norm, levels) = self.quantize(dense, rng);
        let wire = self.dense_wire(norm, &levels);
        // The same `norm * level / max_level` both decoders evaluate, on the
        // levels just written.
        let sent = CompressedUpdate::Quantized {
            values: qsgd_dequantize(norm, max_level_for_bits(self.bits), &levels),
        };
        debug_assert_sent(&wire, &sent);
        (wire, sent)
    }
}

/// Sparsify-then-quantize composition (`"topk+qsgd:4"`): the first stage
/// picks the retained coordinates, the second bit-packs their values, so the
/// wire carries varint-delta indices plus `bits`-wide levels instead of full
/// `f32`s. The selection passes between the stages in memory, through the
/// first stage's [`encode_sent`](UpdateCodec::encode_sent): the first stage's
/// own bytes are never decoded, and never sent.
pub struct ComposedCodec {
    sparsifier: Box<dyn UpdateCodec>,
    quantizer: QsgdCodec,
}

impl ComposedCodec {
    /// Compose a sparsifying codec with a QSGD value quantizer.
    pub fn new(sparsifier: Box<dyn UpdateCodec>, quantizer: QsgdCodec) -> Self {
        Self {
            sparsifier,
            quantizer,
        }
    }
}

impl UpdateCodec for ComposedCodec {
    fn name(&self) -> String {
        format!("{}+{}", self.sparsifier.name(), self.quantizer.name())
    }

    fn reusable(&self) -> bool {
        self.sparsifier.reusable()
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        // Only the first stage's selection is used; its own bytes never
        // reach the wire.
        let (_, selection) = self.sparsifier.encode_sent(dense, ratio, rng);
        let mut sparse = selection
            .into_sparse()
            .expect("the first stage of a composed codec must produce a sparse update");
        let (norm, levels) = self.quantizer.quantize(sparse.values(), rng);
        let wire = self
            .quantizer
            .sparse_wire(sparse.dense_len(), sparse.indices(), norm, &levels);
        // What was sent keeps the selection's indices; its values become the
        // dequantized levels (the arithmetic of `qsgd_dequantize`, in place).
        let max_level = max_level_for_bits(self.quantizer.bits) as f32;
        for (v, &level) in sparse.values_mut().iter_mut().zip(&levels) {
            *v = norm * level as f32 / max_level;
        }
        let sent = CompressedUpdate::Sparse(sparse);
        debug_assert_sent(&wire, &sent);
        (wire, sent)
    }

    fn residual_norm(&self) -> f64 {
        self.sparsifier.residual_norm()
    }

    fn take_residual(&mut self) -> ResidualState {
        self.sparsifier.take_residual()
    }

    fn restore_residual(&mut self, state: ResidualState) {
        self.sparsifier.restore_residual(state);
    }
}

/// Error-feedback wrapper around any codec: the part of the update the inner
/// codec's lossy encode did not send is remembered and added back before the
/// next round's encode (`ef-topk` is the paper's EFTOPK baseline).
///
/// What was sent comes from the inner codec's
/// [`encode_sent`](UpdateCodec::encode_sent), never from decoding the bytes
/// just written. The residual is the only model-sized buffer: it is empty
/// (meaning all-zero) until the first encode, is corrected and reduced in
/// place, and moves in and out of the codec by
/// [`restore_residual`](UpdateCodec::restore_residual) /
/// [`take_residual`](UpdateCodec::take_residual) without a copy or a refill.
pub struct EfCodec {
    inner: Box<dyn UpdateCodec>,
    /// Empty while all-zero (fresh, or just taken); `dense_len` long after.
    residual: Vec<f32>,
    dense_len: usize,
}

impl EfCodec {
    /// Wrap `inner` for updates of length `dense_len`.
    pub fn new(inner: Box<dyn UpdateCodec>, dense_len: usize) -> Self {
        Self {
            inner,
            residual: Vec::new(),
            dense_len,
        }
    }

    /// The current residual vector; an empty slice while it is all-zero
    /// (before the first encode, or after
    /// [`take_residual`](UpdateCodec::take_residual)).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }
}

impl UpdateCodec for EfCodec {
    fn name(&self) -> String {
        format!("ef-{}", self.inner.name())
    }

    fn reusable(&self) -> bool {
        self.inner.reusable()
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        assert_eq!(
            dense.len(),
            self.dense_len,
            "update length changed between rounds"
        );
        // Corrected = dense + residual, written over the residual. An empty
        // residual still adds its `+0.0` (which turns a `-0.0` coordinate
        // into `+0.0`), so the corrected vector has the same bits either way.
        if self.residual.is_empty() {
            self.residual.extend(dense.iter().map(|&d| d + 0.0));
        } else {
            for (r, &d) in self.residual.iter_mut().zip(dense) {
                *r += d;
            }
        }
        let (wire, sent) = self.inner.encode_sent(&self.residual, ratio, rng);
        // New residual = corrected − sent.
        sent.subtract_from(&mut self.residual);
        (wire, sent)
    }

    fn decode(&self, wire: &WireUpdate) -> Result<CompressedUpdate, WireError> {
        self.inner.decode(wire)
    }

    fn residual_norm(&self) -> f64 {
        self.residual
            .iter()
            .map(|&v| (v as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    fn take_residual(&mut self) -> ResidualState {
        ResidualState {
            parts: vec![std::mem::take(&mut self.residual)],
        }
    }

    fn restore_residual(&mut self, state: ResidualState) {
        if state.parts.is_empty() {
            return;
        }
        assert_eq!(
            state.parts.len(),
            1,
            "ef codec residual snapshot must have exactly one part"
        );
        let part = state.parts.into_iter().next().unwrap();
        assert!(
            part.is_empty() || part.len() == self.dense_len,
            "ef codec residual snapshot length changed between checkouts"
        );
        self.residual = part;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(7)
    }

    fn delta(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37).sin() * 0.1).collect()
    }

    #[test]
    fn topk_codec_roundtrip_is_exact_on_retained() {
        let d = delta(500);
        let wire = TopKCodec.encode(&d, 0.1, &mut rng());
        let s = wire.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 50);
        for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
            assert_eq!(v, d[i as usize]);
        }
    }

    #[test]
    fn topk_codec_ships_dense_format_at_full_ratio() {
        use crate::wire::{KIND_DENSE, KIND_SPARSE};
        let d = delta(100);
        let full = TopKCodec.encode(&d, 1.0, &mut rng());
        assert_eq!(full.kind().unwrap(), KIND_DENSE);
        // Header + varint + 4 bytes/coordinate: honest dense accounting.
        assert!(full.len() <= 100 * 4 + 16);
        let s = full.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 100);
        assert_eq!(s.to_dense(), d);
        // A genuinely sparse ratio still uses the sparse format.
        let sparse = TopKCodec.encode(&d, 0.5, &mut rng());
        assert_eq!(sparse.kind().unwrap(), KIND_SPARSE);
    }

    #[test]
    fn randk_codec_draw_matches_legacy_seed_order() {
        // The codec must consume exactly one u64 from the stream and seed
        // the Rand-K draw with it the way the pre-codec client did.
        let d = delta(200);
        let mut stream = rng();
        let wire = RandKCodec.encode(&d, 0.1, &mut stream);
        let legacy = randk::select(&d, 0.1, rng().next_u64());
        assert_eq!(wire.decode().unwrap().into_sparse().unwrap(), legacy);
        // Exactly one draw: the stream's next value matches a twice-advanced
        // fresh stream.
        let mut fresh = rng();
        fresh.next_u64();
        assert_eq!(stream.next_u64(), fresh.next_u64());
    }

    #[test]
    fn threshold_codec_absolute_tau() {
        let d = vec![0.005, 0.5, -0.02, 0.0, -0.8];
        let mut c = ThresholdCodec { tau: Some(0.1) };
        let s = c
            .encode(&d, 1.0, &mut rng())
            .decode()
            .unwrap()
            .into_sparse()
            .unwrap();
        assert_eq!(s.indices(), &[1, 4]);
    }

    #[test]
    fn qsgd_codec_bounds_error_and_beats_dense() {
        let d = delta(1000);
        let norm = d.iter().map(|v| v * v).sum::<f32>().sqrt();
        let mut c = QsgdCodec::new(8); // 127 levels
        let wire = c.encode(&d, 1.0, &mut rng());
        assert!(wire.len() < 1000 * 4 / 2, "8-bit wire beats f32 by >2x");
        let rec = wire.decode().unwrap().into_dense();
        for (a, b) in d.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= norm / 127.0 + 1e-5);
        }
    }

    #[test]
    fn composed_codec_quantizes_retained_values() {
        let d = delta(2000);
        let mut c = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(6));
        let wire = c.encode(&d, 0.05, &mut rng());
        // 100 retained coords: ≤ ~2 bytes of index + 6 bits of value each,
        // far below the 8 bytes/coord of the f32 sparse format.
        assert!(wire.len() < 100 * 8 / 2);
        let s = wire.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.nnz(), 100);
        let retained_norm = s.values().iter().map(|v| v * v).sum::<f32>().sqrt();
        for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
            assert!((v - d[i as usize]).abs() <= retained_norm / 31.0 + 1e-5);
        }
    }

    #[test]
    fn ef_codec_matches_legacy_error_feedback() {
        // The dense textbook recurrence: corrected = d + r, sent =
        // topk(corrected), r = corrected − sent.
        let d = delta(300);
        let mut residual = vec![0.0f32; d.len()];
        let mut codec = EfCodec::new(Box::new(TopKCodec), d.len());
        for _ in 0..4 {
            let corrected: Vec<f32> = d.iter().zip(&residual).map(|(d, r)| d + r).collect();
            let sent_legacy = topk::select(&corrected, 0.1).to_dense();
            for ((r, c), s) in residual.iter_mut().zip(&corrected).zip(&sent_legacy) {
                *r = c - s;
            }
            let sent_codec = codec
                .encode(&d, 0.1, &mut rng())
                .decode()
                .unwrap()
                .into_dense();
            assert_eq!(sent_legacy, sent_codec);
            assert_eq!(codec.residual(), residual);
        }
    }

    #[test]
    fn ef_codec_conservation() {
        let d = delta(64);
        let mut codec = EfCodec::new(Box::new(TopKCodec), d.len());
        let mut stream = rng();
        for _ in 0..3 {
            // An empty residual is all-zero (nothing encoded yet).
            let mut before = codec.residual().to_vec();
            before.resize(d.len(), 0.0);
            let sent = codec
                .encode(&d, 0.2, &mut stream)
                .decode()
                .unwrap()
                .into_dense();
            for i in 0..d.len() {
                let lhs = sent[i] + codec.residual()[i];
                let rhs = d[i] + before[i];
                assert!((lhs - rhs).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn error_feedback_sees_what_a_private_decode_says_was_sent() {
        // A codec with a private `decode` (receivers negate what the
        // standard format says) reports that from `encode_sent`, and error
        // feedback on top of it must see exactly that.
        struct Negating;
        impl UpdateCodec for Negating {
            fn name(&self) -> String {
                "negating".into()
            }
            fn encode_sent(
                &mut self,
                dense: &[f32],
                _ratio: f64,
                _rng: &mut Xoshiro256,
            ) -> (WireUpdate, CompressedUpdate) {
                let wire = encode_dense(dense);
                let sent = self.decode(&wire).expect("own encoding");
                (wire, sent)
            }
            fn decode(&self, wire: &WireUpdate) -> Result<CompressedUpdate, WireError> {
                let mut sparse = wire.decode()?.into_sparse().expect("dense kind");
                sparse.values_mut().iter_mut().for_each(|v| *v = -*v);
                Ok(CompressedUpdate::Sparse(sparse))
            }
        }
        let d = vec![1.0f32, -2.0, 0.5];
        // residual = corrected − sent = d − (−d).
        let mut ef = EfCodec::new(Box::new(Negating), d.len());
        let wire = ef.encode(&d, 1.0, &mut rng());
        assert_eq!(ef.residual(), &[2.0, -4.0, 1.0]);
        assert_eq!(
            ef.decode(&wire).unwrap().into_dense(),
            vec![-1.0, 2.0, -0.5]
        );
    }

    #[test]
    fn ef_residual_snapshot_moves_between_instances() {
        // take → restore into a fresh codec must continue the trajectory
        // bit-for-bit: this is the contract client virtualization relies on.
        let d = delta(200);
        let mut persistent = EfCodec::new(Box::new(TopKCodec), d.len());
        let _ = persistent.encode(&d, 0.05, &mut rng());
        let _ = persistent.encode(&d, 0.05, &mut rng());

        let mut first = EfCodec::new(Box::new(TopKCodec), d.len());
        let _ = first.encode(&d, 0.05, &mut rng());
        let snapshot = first.take_residual();
        assert_eq!(snapshot.parts.len(), 1);
        assert!(first.residual().iter().all(|&v| v == 0.0), "take resets");
        let mut second = EfCodec::new(Box::new(TopKCodec), d.len());
        second.restore_residual(snapshot);
        let wire_resumed = second.encode(&d, 0.05, &mut rng());
        let wire_straight = {
            let mut reference = EfCodec::new(Box::new(TopKCodec), d.len());
            let _ = reference.encode(&d, 0.05, &mut rng());
            reference.encode(&d, 0.05, &mut rng())
        };
        assert_eq!(wire_resumed.as_bytes(), wire_straight.as_bytes());
        assert!((second.residual_norm() - persistent.residual_norm()).abs() < 1e-12);
    }

    #[test]
    fn stateless_codecs_snapshot_empty() {
        let mut codec = TopKCodec;
        assert!(codec.take_residual().parts.is_empty());
        codec.restore_residual(ResidualState::empty());
        let mut composed = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(8));
        assert!(composed.take_residual().parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "stateless codec")]
    fn stateless_codecs_reject_nontrivial_snapshots() {
        TopKCodec.restore_residual(ResidualState {
            parts: vec![vec![1.0]],
        });
    }

    #[test]
    fn composed_codec_delegates_residual_to_sparsifier() {
        let d = delta(120);
        let mut composed = ComposedCodec::new(
            Box::new(EfCodec::new(Box::new(TopKCodec), d.len())),
            QsgdCodec::new(8),
        );
        let mut stream = rng();
        let _ = composed.encode(&d, 0.1, &mut stream);
        let snap = composed.take_residual();
        assert_eq!(snap.parts.len(), 1);
        assert!(
            (composed.residual_norm() - 0.0).abs() < 1e-12,
            "take resets"
        );
        composed.restore_residual(snap);
        assert!(composed.residual_norm() > 0.0);
    }

    #[test]
    fn names_compose() {
        assert_eq!(TopKCodec.name(), "topk");
        assert_eq!(QsgdCodec::new(4).name(), "qsgd:4");
        assert_eq!(QsgdCodec::new_entropy(4).name(), "qsgd:4:rc");
        assert_eq!(
            ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(4)).name(),
            "topk+qsgd:4"
        );
        assert_eq!(
            ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new_entropy(6)).name(),
            "topk+qsgd:6:rc"
        );
        assert_eq!(EfCodec::new(Box::new(TopKCodec), 1).name(), "ef-topk");
    }

    #[test]
    fn entropy_qsgd_shrinks_bytes_without_changing_values() {
        // Same bit width, same RNG stream: the entropy codec must produce
        // the same lossy values as the bit-packing codec (quantization is
        // identical) in strictly fewer bytes on gradient-like data.
        let d = delta(4096);
        let packed = QsgdCodec::new(4).encode(&d, 1.0, &mut rng());
        let entropy = QsgdCodec::new_entropy(4).encode(&d, 1.0, &mut rng());
        assert_eq!(entropy.kind().unwrap(), crate::wire::KIND_ENTROPY);
        assert!(
            entropy.len() < packed.len(),
            "entropy {} >= packed {}",
            entropy.len(),
            packed.len()
        );
        let a = packed.decode().unwrap().into_dense();
        let b = entropy.decode().unwrap().into_dense();
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn composed_entropy_qsgd_shrinks_sparse_quantized_bytes() {
        let d = delta(4096);
        let mut packed = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new(6));
        let mut entropy = ComposedCodec::new(Box::new(TopKCodec), QsgdCodec::new_entropy(6));
        let wp = packed.encode(&d, 0.05, &mut rng());
        let we = entropy.encode(&d, 0.05, &mut rng());
        assert_eq!(we.kind().unwrap(), crate::wire::KIND_ENTROPY);
        assert!(
            we.len() < wp.len(),
            "entropy {} >= packed {}",
            we.len(),
            wp.len()
        );
        let a = wp.decode().unwrap().into_sparse().unwrap();
        let b = we.decode().unwrap().into_sparse().unwrap();
        assert_eq!(a.indices(), b.indices());
        assert!(a
            .values()
            .iter()
            .zip(b.values().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
