//! The [`UpdateCodec`] trait — stateful encoder/decoders producing the
//! byte-level [`WireUpdate`] format — and `Pipeline`, the one codec every
//! built-in spec builds.
//!
//! * **A codec emits real bytes** — [`UpdateCodec::encode_sent`] returns a
//!   versioned [`WireUpdate`] buffer (varint-delta sparse indices, bit-packed
//!   QSGD levels) whose length is what the network simulator can charge.
//! * **It owns its cross-round state** — encoding takes `&mut self`, so
//!   error-feedback residuals live inside the codec instead of being
//!   special-cased in the client.
//! * **Encoding is one forward pass** — `encode_sent` returns the bytes *and*
//!   the lossy update those bytes stand for, built from the selection and
//!   quantization levels the encoder already holds. Whatever needs to know
//!   what was sent (error feedback, layer plans, the downlink channel) takes
//!   it from there; nothing on the encode side ever decodes its own bytes.
//!   The only decode of a round is the receiver's.
//! * **Per-round randomness is explicit** — encoding draws from the caller's
//!   [`Xoshiro256`] stream (one stream per simulated client), so experiment
//!   replays stay bit-exact no matter which codec runs.
//!
//! A `Pipeline` is the paper's uplink as one struct: optional error
//! feedback, one selection stage, then an optional QSGD quantizer. It is
//! built from a parsed [`crate::spec::CompressorSpec`] by
//! [`crate::registry::CodecRegistry::build`]. Custom codecs implement
//! [`UpdateCodec`] and take the selection stage's place.

use crate::quantize::{max_level_for_bits, qsgd_dequantize, qsgd_levels};
use crate::rans::RansEncoder;
use crate::sparse::SparseUpdate;
use crate::spec::{CodecStage, CompressorSpec};
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
/// instead of holding one live codec per client forever (each `ef-`
/// pipeline owns a model-sized residual vector), the engine extracts the
/// state with [`UpdateCodec::take_residual`] when a client leaves the active
/// cohort, parks it in that client's slot of the population table (fl-core's
/// `ClientRoster`), and re-injects it with
/// [`UpdateCodec::restore_residual`] the next time the client is selected —
/// into a freshly built codec, or into another client's drained one when it
/// is [`UpdateCodec::reusable`].
///
/// The snapshot is an ordered list of residual vectors — one per stateful
/// component, in the codec's canonical component order (a flat `ef-`
/// pipeline contributes one part; a [`crate::plan::PlannedCodec`]
/// concatenates its segments' parts in segment order). Stateless codecs
/// produce an empty snapshot. A zero-length part stands for an all-zero
/// residual of its component's length — what a component that has not
/// encoded yet holds — so a fresh codec can be snapshotted without
/// materialising model-sized zeros.
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
    /// Error feedback, a quantizer stage and the downlink channel need the
    /// sent update, and an encoder already holds it (the selected
    /// coordinates, the quantization levels) before it writes a byte — so
    /// nothing on the sending side decodes its own bytes.
    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, SparseUpdate);

    /// The wire bytes of [`encode_sent`](Self::encode_sent) alone. State and
    /// RNG advance exactly as there.
    fn encode(&mut self, dense: &[f32], ratio: f64, rng: &mut Xoshiro256) -> WireUpdate {
        self.encode_sent(dense, ratio, rng).0
    }

    /// Reconstruct the lossy update an encoded buffer represents. The default
    /// decodes the standard wire format; codecs with private payload layouts
    /// override this.
    fn decode(&self, wire: &WireUpdate) -> Result<SparseUpdate, WireError> {
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
    /// rebuilt every time without having to say so. A built-in pipeline
    /// returns `true` unless its custom stage says otherwise.
    fn reusable(&self) -> bool {
        false
    }
}

/// Debug-build check of the [`UpdateCodec::encode_sent`] contract at the
/// point a codec assembles its answer: the bytes must decode to exactly the
/// update returned beside them.
pub(crate) fn debug_assert_sent(wire: &WireUpdate, sent: &SparseUpdate) {
    debug_assert!(
        wire.decode().is_ok_and(|decoded| decoded.bit_eq(sent)),
        "encode_sent returned an update its own bytes do not decode to"
    );
}

/// The selection stage of a [`Pipeline`]. `C` is what a custom stage holds:
/// the built codec in a pipeline, the parsed stage while a spec is read.
pub(crate) enum Select<C> {
    /// Magnitude Top-K, the paper's primary compressor.
    TopK,
    /// Uniform Rand-K, rescaled by `len/k` (unbiased). Draws one `u64` seed
    /// per round, before any quantizer draw.
    RandK,
    /// Hard threshold: keep `|x| >= tau`, or, without a `tau`, the
    /// `1 − ratio` magnitude quantile ([`threshold::threshold_for`]).
    Threshold(Option<f32>),
    /// Every coordinate, whatever the ratio. Layer plans use it for
    /// segments that collapse under sparsification (`"*.bias=dense"`).
    Dense,
    /// No selection: the pure quantizer (`"qsgd:<bits>"`) codes every
    /// coordinate in the dense quantized kinds.
    None,
    /// A registered codec. Its selection is reachable only through its own
    /// [`UpdateCodec::encode_sent`].
    Custom(C),
}

/// The QSGD stage of a [`Pipeline`]: a sign plus `bits − 1` level bits per
/// coordinate, bit-packed or, with `rc` (`"qsgd:4:rc"`), entropy-coded by the
/// adaptive-CDF rANS coder, which never expands past the bit-packed size.
/// The levels, the norm and the RNG draws are the same either way. Alone it
/// codes every coordinate (the dense quantized kinds); behind a selection
/// stage it sends only the selected coordinates of nonzero level
/// ([`quantize_selected`](Self::quantize_selected)).
pub(crate) struct Quant {
    bits: u8,
    rc: bool,
    /// The entropy coder's scratch, kept so warm encodes allocate nothing
    /// for it; never touched while `rc` is false.
    coder: RansEncoder,
}

impl Quant {
    /// A quantizer of `bits ∈ 2..=16` (the spec parse checks the range).
    pub(crate) fn new(bits: u8, rc: bool) -> Self {
        Self {
            bits,
            rc,
            coder: RansEncoder::default(),
        }
    }

    /// The dense quantized frame of every coordinate of `x`.
    fn quantize_all(&mut self, x: &[f32], rng: &mut Xoshiro256) -> (WireUpdate, SparseUpdate) {
        let max_level = max_level_for_bits(self.bits);
        let (norm, levels) = qsgd_levels(x, max_level, rng);
        let wire = if self.rc {
            encode_quantized_rc(&mut self.coder, x.len(), self.bits, norm, &levels)
        } else {
            encode_quantized(x.len(), self.bits, norm, &levels)
        };
        let values = qsgd_dequantize(norm, max_level, &levels);
        (wire, SparseUpdate::full(values))
    }

    /// The sparse quantized frame of a selection's values, carrying only
    /// the coordinates that dequantize to something other than zero.
    ///
    /// Each selected value becomes its dequantized level (the arithmetic of
    /// `qsgd_dequantize`, in place), and every coordinate that comes out
    /// `0.0` — level 0 under a finite norm — is dropped from the selection
    /// and its level from the frame. Nothing downstream can tell: the
    /// receiver decodes an absent coordinate as `+0.0`, subtracting `0.0`
    /// leaves an error-feedback residual bitwise unchanged, and aggregation
    /// accumulates from `+0.0`, so a scaled zero adds nothing. The norm the
    /// frame carries, the levels and the RNG draws are those of the whole
    /// selection.
    fn quantize_selected(
        &mut self,
        mut sel: SparseUpdate,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, SparseUpdate) {
        let max_level = max_level_for_bits(self.bits);
        let (norm, mut levels) = qsgd_levels(sel.values(), max_level, rng);
        let dequantize = |level: i32| norm * level as f32 / max_level as f32;
        let mut drawn = levels.iter();
        sel.retain(|v| {
            *v = dequantize(*drawn.next().expect("one level per selected value"));
            *v != 0.0
        });
        levels.retain(|&level| dequantize(level) != 0.0);
        let (n, indices, bits) = (sel.dense_len(), sel.indices(), self.bits);
        let wire = if self.rc {
            encode_sparse_quantized_rc(&mut self.coder, n, indices, bits, norm, &levels)
        } else {
            encode_sparse_quantized(n, indices, bits, norm, &levels)
        };
        (wire, sel)
    }
}

/// The codec of every built-in spec: optional error feedback (`ef-`), one
/// selection stage, and an optional QSGD stage (`+qsgd:<bits>[:rc]`), in one
/// encode pass.
///
/// Error feedback (`ef-topk` is the paper's EFTOPK baseline) remembers the
/// part of the update the lossy stages did not send and adds it back before
/// the next encode: `corrected = d + r`, then `r = corrected − sent`, both in
/// place over the residual. The residual is the only model-sized buffer: it
/// is empty (meaning all-zero) until the first encode, and moves in and out
/// by [`restore_residual`](UpdateCodec::restore_residual) /
/// [`take_residual`](UpdateCodec::take_residual) without a copy or a refill.
///
/// The quantizer codes the selected values, so the wire carries varint-delta
/// indices plus `bits`-wide levels instead of full `f32`s — and only for the
/// selected coordinates whose level is not 0. Only a custom
/// first stage writes a frame of its own; when a quantizer follows it, that
/// frame is discarded.
pub(crate) struct Pipeline {
    /// The spec string, with a custom stage spelled by its codec's `name()`.
    name: String,
    /// `Some` iff the spec has `ef-`: empty while all-zero (fresh, or just
    /// taken), `dense_len` long after.
    residual: Option<Vec<f32>>,
    dense_len: usize,
    select: Select<Box<dyn UpdateCodec>>,
    quant: Option<Quant>,
}

impl Pipeline {
    /// The pipeline `spec` reads as, for updates of length `dense_len`.
    pub(crate) fn new(
        spec: &CompressorSpec,
        select: Select<Box<dyn UpdateCodec>>,
        quant: Option<Quant>,
        dense_len: usize,
    ) -> Self {
        let mut name = spec.clone();
        if let Select::Custom(codec) = &select {
            name.stages[0] = CodecStage::new(codec.name());
        }
        Self {
            name: name.to_string(),
            residual: spec.error_feedback.then(Vec::new),
            dense_len,
            select,
            quant,
        }
    }
}

/// The selection and quantizer stages of [`Pipeline::encode_sent`], over the
/// error-corrected update `x`.
fn encode_stages(
    select: &mut Select<Box<dyn UpdateCodec>>,
    quant: Option<&mut Quant>,
    x: &[f32],
    ratio: f64,
    rng: &mut Xoshiro256,
) -> (WireUpdate, SparseUpdate) {
    let n = x.len();
    let every = || Some(SparseUpdate::full(x.to_vec()));
    // `whole` selections keep every coordinate and, unquantized, ship the
    // dense kind (raw f32s, no per-coordinate index overhead), so
    // uncompressed baselines like FedAvg are charged honest dense bytes.
    let (selection, whole) = match select {
        Select::TopK if topk::k_for(n, ratio) == n => (every(), true),
        Select::TopK => (Some(topk::select(x, ratio)), false),
        Select::RandK => (Some(randk::select(x, ratio, rng.next_u64())), false),
        Select::Threshold(Some(tau)) => (Some(threshold::select_at(x, *tau)), false),
        Select::Threshold(None) => (Some(threshold::select(x, ratio)), false),
        Select::Dense => (every(), true),
        Select::None => (None, false),
        Select::Custom(codec) => {
            let (wire, sent) = codec.encode_sent(x, ratio, rng);
            if quant.is_none() {
                return (wire, sent);
            }
            (Some(sent), false)
        }
    };
    let (wire, sent) = match (selection, quant) {
        (None, quant) => quant
            .expect("a pipeline without a selection stage quantizes")
            .quantize_all(x, rng),
        (Some(sel), Some(quant)) => quant.quantize_selected(sel, rng),
        (Some(sel), None) if whole => (encode_dense(x), sel),
        (Some(sel), None) => (encode_sparse(&sel), sel),
    };
    debug_assert_sent(&wire, &sent);
    (wire, sent)
}

impl UpdateCodec for Pipeline {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn reusable(&self) -> bool {
        match &self.select {
            Select::Custom(codec) => codec.reusable(),
            _ => true,
        }
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, SparseUpdate) {
        let Some(residual) = &mut self.residual else {
            return encode_stages(&mut self.select, self.quant.as_mut(), dense, ratio, rng);
        };
        assert_eq!(
            dense.len(),
            self.dense_len,
            "update length changed between rounds"
        );
        // Corrected = dense + residual, written over the residual. An empty
        // residual still adds its `+0.0` (which turns a `-0.0` coordinate
        // into `+0.0`), so the corrected vector has the same bits either way.
        if residual.is_empty() {
            residual.extend(dense.iter().map(|&d| d + 0.0));
        } else {
            for (r, &d) in residual.iter_mut().zip(dense) {
                *r += d;
            }
        }
        let (wire, sent) =
            encode_stages(&mut self.select, self.quant.as_mut(), residual, ratio, rng);
        // New residual = corrected − sent.
        sent.subtract_from(residual);
        (wire, sent)
    }

    fn decode(&self, wire: &WireUpdate) -> Result<SparseUpdate, WireError> {
        match (&self.select, &self.quant) {
            // An unquantized custom stage's bytes are its own.
            (Select::Custom(codec), None) => codec.decode(wire),
            _ => wire.decode(),
        }
    }

    fn residual_norm(&self) -> f64 {
        match (&self.residual, &self.select) {
            (Some(r), _) => r.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt(),
            (None, Select::Custom(codec)) => codec.residual_norm(),
            (None, _) => 0.0,
        }
    }

    fn take_residual(&mut self) -> ResidualState {
        match (&mut self.residual, &mut self.select) {
            (Some(r), _) => ResidualState {
                parts: vec![std::mem::take(r)],
            },
            (None, Select::Custom(codec)) => codec.take_residual(),
            (None, _) => ResidualState::empty(),
        }
    }

    fn restore_residual(&mut self, state: ResidualState) {
        match (&mut self.residual, &mut self.select) {
            (Some(_), _) if state.parts.is_empty() => {}
            (Some(residual), _) => {
                let [part]: [Vec<f32>; 1] = state
                    .parts
                    .try_into()
                    .expect("ef codec residual snapshot must have exactly one part");
                assert!(
                    part.is_empty() || part.len() == self.dense_len,
                    "ef codec residual snapshot length changed between checkouts"
                );
                *residual = part;
            }
            (None, Select::Custom(codec)) => codec.restore_residual(state),
            (None, _) => assert!(
                state.parts.is_empty(),
                "stateless codec {} cannot restore a {}-part residual snapshot",
                self.name,
                state.parts.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CodecRegistry;
    use crate::spec::SpecError;

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(7)
    }

    fn delta(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37).sin() * 0.1).collect()
    }

    /// A codec with a private `decode`: receivers negate what the standard
    /// format says, and `encode_sent` reports exactly that.
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
        ) -> (WireUpdate, SparseUpdate) {
            let wire = encode_dense(dense);
            let sent = self.decode(&wire).expect("own encoding");
            (wire, sent)
        }
        fn decode(&self, wire: &WireUpdate) -> Result<SparseUpdate, WireError> {
            let mut sparse = wire.decode()?;
            sparse.values_mut().iter_mut().for_each(|v| *v = -*v);
            Ok(sparse)
        }
    }

    /// The built-ins plus `neg` (a [`Negating`]), `inner-ef` (an `ef-topk`
    /// pipeline as a custom stage) and `myq` (a `qsgd:4` pipeline, which
    /// sends a full-density update).
    fn registry() -> CodecRegistry {
        fn builtin(spec: &str, ctx: &CodecCtx) -> Result<Box<dyn UpdateCodec>, SpecError> {
            CodecRegistry::with_builtins().build(&spec.parse()?, ctx)
        }
        let mut r = CodecRegistry::with_builtins();
        r.register("neg", |_, _| Ok(Box::new(Negating)));
        r.register("inner-ef", |_, ctx| builtin("ef-topk", ctx));
        r.register("myq", |_, ctx| builtin("qsgd:4", ctx));
        r
    }

    fn build(spec: &str, n: usize) -> Box<dyn UpdateCodec> {
        registry()
            .build(&spec.parse().unwrap(), &CodecCtx::new(n, 1))
            .unwrap()
    }

    /// The residual of an `ef-` codec, left in place.
    fn residual(codec: &mut dyn UpdateCodec) -> Vec<f32> {
        let state = codec.take_residual();
        let part = state.parts[0].clone();
        codec.restore_residual(state);
        part
    }

    #[test]
    fn topk_codec_roundtrip_is_exact_on_retained() {
        let d = delta(500);
        let wire = build("topk", 500).encode(&d, 0.1, &mut rng());
        let s = wire.decode().unwrap();
        assert_eq!(s.nnz(), 50);
        for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
            assert_eq!(v, d[i as usize]);
        }
    }

    #[test]
    fn topk_codec_ships_dense_format_at_full_ratio() {
        use crate::wire::{KIND_DENSE, KIND_SPARSE, KIND_SPARSE_QUANTIZED};
        let d = delta(100);
        let full = build("topk", 100).encode(&d, 1.0, &mut rng());
        assert_eq!(full.kind().unwrap(), KIND_DENSE);
        // Header + varint + 4 bytes/coordinate: honest dense accounting.
        assert!(full.len() <= 100 * 4 + 16);
        let s = full.decode().unwrap();
        assert_eq!(s.nnz(), 100);
        assert_eq!(s.to_dense(), d);
        // A genuinely sparse ratio still uses the sparse format.
        let sparse = build("topk", 100).encode(&d, 0.5, &mut rng());
        assert_eq!(sparse.kind().unwrap(), KIND_SPARSE);
        // Quantized, a full selection is sparse-quantized over the indices
        // whose level is not 0: the same levels the whole vector draws.
        let (_, levels) = qsgd_levels(&d, max_level_for_bits(4), &mut rng());
        let nonzero = levels.iter().filter(|&&l| l != 0).count();
        assert!(0 < nonzero && nonzero < 100, "{nonzero} nonzero levels");
        for spec in ["topk+qsgd:4", "dense+qsgd:4"] {
            let (wire, sent) = build(spec, 100).encode_sent(&d, 1.0, &mut rng());
            assert_eq!(wire.kind().unwrap(), KIND_SPARSE_QUANTIZED, "{spec}");
            let decoded = wire.decode().unwrap();
            assert_eq!(decoded.nnz(), nonzero, "{spec}");
            assert!(decoded.values().iter().all(|&v| v != 0.0), "{spec}");
            assert_eq!(decoded.to_dense(), sent.to_dense(), "{spec}");
        }
    }

    #[test]
    fn randk_codec_draw_matches_legacy_seed_order() {
        // The codec must consume exactly one u64 from the stream and seed
        // the Rand-K draw with it the way the pre-codec client did.
        let d = delta(200);
        let mut stream = rng();
        let wire = build("randk", 200).encode(&d, 0.1, &mut stream);
        let legacy = randk::select(&d, 0.1, rng().next_u64());
        assert_eq!(wire.decode().unwrap(), legacy);
        // Exactly one draw: the stream's next value matches a twice-advanced
        // fresh stream.
        let mut fresh = rng();
        fresh.next_u64();
        assert_eq!(stream.next_u64(), fresh.next_u64());
    }

    #[test]
    fn threshold_codec_absolute_tau() {
        let d = vec![0.005, 0.5, -0.02, 0.0, -0.8];
        let s = build("threshold:0.1", 5)
            .encode(&d, 1.0, &mut rng())
            .decode()
            .unwrap();
        assert_eq!(s.indices(), &[1, 4]);
    }

    #[test]
    fn qsgd_codec_bounds_error_and_beats_dense() {
        let d = delta(1000);
        let norm = d.iter().map(|v| v * v).sum::<f32>().sqrt();
        let wire = build("qsgd:8", 1000).encode(&d, 1.0, &mut rng()); // 127 levels
        assert!(wire.len() < 1000 * 4 / 2, "8-bit wire beats f32 by >2x");
        let rec = wire.decode().unwrap().to_dense();
        for (a, b) in d.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= norm / 127.0 + 1e-5);
        }
    }

    #[test]
    fn composed_codec_quantizes_retained_values() {
        let d = delta(2000);
        let wire = build("topk+qsgd:6", 2000).encode(&d, 0.05, &mut rng());
        // 100 retained coords: ≤ ~2 bytes of index + 6 bits of value each,
        // far below the 8 bytes/coord of the f32 sparse format.
        assert!(wire.len() < 100 * 8 / 2);
        let s = wire.decode().unwrap();
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
        let mut residual_legacy = vec![0.0f32; d.len()];
        let mut codec = build("ef-topk", d.len());
        for _ in 0..4 {
            let corrected: Vec<f32> = d.iter().zip(&residual_legacy).map(|(d, r)| d + r).collect();
            let sent_legacy = topk::select(&corrected, 0.1).to_dense();
            for ((r, c), s) in residual_legacy.iter_mut().zip(&corrected).zip(&sent_legacy) {
                *r = c - s;
            }
            let sent_codec = codec
                .encode(&d, 0.1, &mut rng())
                .decode()
                .unwrap()
                .to_dense();
            assert_eq!(sent_legacy, sent_codec);
            assert_eq!(residual(codec.as_mut()), residual_legacy);
        }
    }

    #[test]
    fn ef_codec_conservation() {
        let d = delta(64);
        let mut codec = build("ef-topk", d.len());
        let mut stream = rng();
        for _ in 0..3 {
            // An empty residual is all-zero (nothing encoded yet).
            let mut before = residual(codec.as_mut());
            before.resize(d.len(), 0.0);
            let sent = codec
                .encode(&d, 0.2, &mut stream)
                .decode()
                .unwrap()
                .to_dense();
            let after = residual(codec.as_mut());
            for i in 0..d.len() {
                let lhs = sent[i] + after[i];
                let rhs = d[i] + before[i];
                assert!((lhs - rhs).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn error_feedback_sees_what_a_private_decode_says_was_sent() {
        // Error feedback over a codec with a private `decode` must see what
        // its `encode_sent` reports, and decode through it.
        let d = vec![1.0f32, -2.0, 0.5];
        // residual = corrected − sent = d − (−d).
        let mut ef = build("ef-neg", d.len());
        let wire = ef.encode(&d, 1.0, &mut rng());
        assert_eq!(residual(ef.as_mut()), [2.0, -4.0, 1.0]);
        assert_eq!(ef.decode(&wire).unwrap().to_dense(), vec![-1.0, 2.0, -0.5]);
    }

    #[test]
    fn ef_residual_snapshot_moves_between_instances() {
        // take → restore into a fresh codec must continue the trajectory
        // bit-for-bit: this is the contract client virtualization relies on.
        let d = delta(200);
        let mut persistent = build("ef-topk", d.len());
        let _ = persistent.encode(&d, 0.05, &mut rng());
        let _ = persistent.encode(&d, 0.05, &mut rng());

        let mut first = build("ef-topk", d.len());
        let _ = first.encode(&d, 0.05, &mut rng());
        let snapshot = first.take_residual();
        assert_eq!(snapshot.parts.len(), 1);
        assert_eq!(first.residual_norm(), 0.0, "take resets");
        let mut second = build("ef-topk", d.len());
        second.restore_residual(snapshot);
        let wire_resumed = second.encode(&d, 0.05, &mut rng());
        let wire_straight = {
            let mut reference = build("ef-topk", d.len());
            let _ = reference.encode(&d, 0.05, &mut rng());
            reference.encode(&d, 0.05, &mut rng())
        };
        assert_eq!(wire_resumed.as_bytes(), wire_straight.as_bytes());
        assert!((second.residual_norm() - persistent.residual_norm()).abs() < 1e-12);
    }

    #[test]
    fn stateless_codecs_snapshot_empty() {
        let mut codec = build("topk", 4);
        assert!(codec.take_residual().parts.is_empty());
        codec.restore_residual(ResidualState::empty());
        assert!(build("topk+qsgd:8", 4).take_residual().parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "stateless codec")]
    fn stateless_codecs_reject_nontrivial_snapshots() {
        build("topk", 1).restore_residual(ResidualState {
            parts: vec![vec![1.0]],
        });
    }

    #[test]
    fn composed_codec_delegates_residual_to_sparsifier() {
        // A custom first stage keeps its own residual behind the quantizer.
        let d = delta(120);
        let mut composed = build("inner-ef+qsgd:8", d.len());
        let _ = composed.encode(&d, 0.1, &mut rng());
        let snap = composed.take_residual();
        assert_eq!(snap.parts.len(), 1);
        assert_eq!(composed.residual_norm(), 0.0, "take resets");
        composed.restore_residual(snap);
        assert!(composed.residual_norm() > 0.0);
    }

    #[test]
    fn a_custom_stage_sending_a_full_update_is_quantized() {
        // `myq` sends every coordinate; the quantizer behind it codes them
        // again and keeps those of nonzero level.
        let (wire, sent) = build("myq+qsgd:4", 64).encode_sent(&delta(64), 0.5, &mut rng());
        assert_eq!(wire.kind().unwrap(), crate::wire::KIND_SPARSE_QUANTIZED);
        assert!(wire.decode().unwrap().bit_eq(&sent));
        assert!(0 < sent.nnz() && sent.nnz() < 64, "{}", sent.nnz());
        assert!(sent.values().iter().all(|&v| v != 0.0));
    }

    #[test]
    fn names_compose() {
        for spec in ["topk", "qsgd:4", "qsgd:4:rc", "topk+qsgd:6:rc", "ef-topk"] {
            assert_eq!(build(spec, 1).name(), spec);
        }
        // A custom stage is spelled by its codec's name.
        assert_eq!(build("neg", 1).name(), "negating");
        assert_eq!(build("ef-neg+qsgd:4", 1).name(), "ef-negating+qsgd:4");
    }

    #[test]
    fn entropy_qsgd_shrinks_bytes_without_changing_values() {
        // Same bit width, same RNG stream: the entropy codec must produce
        // the same lossy values as the bit-packing codec (quantization is
        // identical) in strictly fewer bytes on gradient-like data.
        let d = delta(4096);
        let packed = build("qsgd:4", 4096).encode(&d, 1.0, &mut rng());
        let entropy = build("qsgd:4:rc", 4096).encode(&d, 1.0, &mut rng());
        assert_eq!(entropy.kind().unwrap(), crate::wire::KIND_ENTROPY);
        assert!(
            entropy.len() < packed.len(),
            "entropy {} >= packed {}",
            entropy.len(),
            packed.len()
        );
        let a = packed.decode().unwrap().to_dense();
        let b = entropy.decode().unwrap().to_dense();
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn composed_entropy_qsgd_shrinks_sparse_quantized_bytes() {
        let d = delta(4096);
        let wp = build("topk+qsgd:6", 4096).encode(&d, 0.05, &mut rng());
        let we = build("topk+qsgd:6:rc", 4096).encode(&d, 0.05, &mut rng());
        assert_eq!(we.kind().unwrap(), crate::wire::KIND_ENTROPY);
        assert!(
            we.len() < wp.len(),
            "entropy {} >= packed {}",
            we.len(),
            wp.len()
        );
        let a = wp.decode().unwrap();
        let b = we.decode().unwrap();
        assert_eq!(a.indices(), b.indices());
        assert!(a
            .values()
            .iter()
            .zip(b.values().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
