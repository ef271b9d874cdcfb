//! The versioned byte-level wire format every [`crate::codec::UpdateCodec`]
//! emits.
//!
//! A [`WireUpdate`] is a real, self-describing byte buffer — what a client
//! would actually put on the network — rather than an in-memory struct with
//! an asserted size. The layout (version 1) is:
//!
//! ```text
//! [0xB3 0xF1]          magic
//! [u8]                 format version (currently 1)
//! [u8]                 payload kind (0 sparse, 1 quantized,
//!                      2 sparse+quantized, 3 dense, 4 segmented,
//!                      6 entropy)
//! [varint]             dense_len
//! ── kind 0 (sparse) ──────────────────────────────────────────────
//! [varint]             nnz
//! [varint × nnz]       delta-encoded indices (first absolute, then gaps ≥ 1)
//! [f32 LE × nnz]       values
//! ── kind 1 (quantized) ───────────────────────────────────────────
//! [u8]                 bits per coordinate (sign + level), 2..=16
//! [f32 LE]             L2 norm of the vector
//! [packed]             dense_len × bits, MSB-first
//! ── kind 2 (sparse + quantized) ──────────────────────────────────
//! [varint]             nnz (the built-in encoders send only nonzero
//!                      levels; a level-0 entry still decodes, to +0.0)
//! [varint × nnz]       delta-encoded indices
//! [u8]                 bits per coordinate
//! [f32 LE]             L2 norm of the selected values, sent or not
//! [packed]             nnz × bits, MSB-first
//! ── kind 3 (dense) ───────────────────────────────────────────────
//! [f32 LE × dense_len] values (ratio-1.0 uploads: no index overhead)
//! ── kind 4 (segmented) ───────────────────────────────────────────
//! [varint]             number of segments (≥ 1)
//! [per segment]        varint byte length, then a complete nested
//!                      wire update (any kind except segmented) whose
//!                      dense lengths must tile dense_len exactly
//! ── kind 5 ───────────────────────────────────────────────────────
//!                      retired (the adaptive binary range coder's frame);
//!                      rejected as an unknown kind
//! ── kind 6 (entropy) ─────────────────────────────────────────────
//! [u8]                 flags (bit 0: sparse — indices beside the levels)
//! [u8]                 bits per coordinate (sign + level), 2..=16
//! [f32 LE]             L2 norm of the quantized values (sparse: of the
//!                      selected values, sent or not, as in kind 2)
//! [varint]             nnz (present only when the sparse flag is set;
//!                      as in kind 2, the built-in encoders count only
//!                      nonzero levels)
//! [varint]             byte length of the rANS stream
//! [rANS stream]        two little-endian u32 states, then renormalisation
//!                      bytes. Modelled symbols alternate between the two
//!                      states. Per coordinate, in order: (sparse only) the
//!                      bit-length class of `gap + 1` under an adaptive CDF
//!                      over `bitlen(dense_len)` classes; then the
//!                      magnitude under an adaptive CDF — the level itself
//!                      for bits <= 5, else its bit-length class
//! [raw bits]           to the end of the buffer, LSB-first, zero-padded to
//!                      a byte. Per coordinate, in order: the gap's bits
//!                      under its leading one, the magnitude's bits under
//!                      its leading one (bits >= 6), and a sign bit if the
//!                      magnitude is non-zero
//! ```
//!
//! Varints are LEB128 over `u64`. Each packed coordinate stores a sign bit
//! followed by `bits − 1` magnitude-level bits; the dequantized value is
//! `sign · norm · level / max_level` with `max_level = 2^(bits−1) − 1`.
//! Kind 6 carries the same `(norm, signed level)` information as kinds 1/2
//! but entropy-codes it with the adaptive-CDF rANS coder in [`crate::rans`];
//! the [`encode_quantized_rc`] / [`encode_sparse_quantized_rc`] entry points
//! fall back to the bit-packed kinds whenever the coded frame would not be
//! strictly smaller, so the entropy path never expands an update. A kind-6
//! frame checks itself: the decoder requires both rANS states to end where
//! the encoder started them and both sections to be consumed to the byte, so
//! a truncated or spliced frame is an error, never a different update.
//!
//! The header bytes are pinned by a golden-bytes test so accidental format
//! drift fails CI; bump [`WIRE_VERSION`] for any intentional layout change.

use crate::quantize::max_level_for_bits;
use crate::rans::{AdaptiveCdf, BitReader, RansDecoder, RansEncoder};
use crate::sparse::SparseUpdate;
use crate::update::CompressedUpdate;

/// First two bytes of every encoded update.
pub const WIRE_MAGIC: [u8; 2] = [0xB3, 0xF1];

/// Current wire-format version.
pub const WIRE_VERSION: u8 = 1;

/// Payload kind tag: COO sparse indices + f32 values.
pub const KIND_SPARSE: u8 = 0;
/// Payload kind tag: dense bit-packed QSGD levels.
pub const KIND_QUANTIZED: u8 = 1;
/// Payload kind tag: sparse indices + bit-packed QSGD levels.
pub const KIND_SPARSE_QUANTIZED: u8 = 2;
/// Payload kind tag: every coordinate as a raw f32 (ratio-1.0 uploads; no
/// index overhead, so a dense transmission costs dense bytes).
pub const KIND_DENSE: u8 = 3;
/// Payload kind tag: length-prefixed per-segment wire updates whose dense
/// lengths tile the full vector — the frame a layer-aware
/// [`crate::plan::PlannedCodec`] emits, so per-layer codecs keep honest
/// byte accounting (the framing overhead is part of the buffer).
pub const KIND_SEGMENTED: u8 = 4;
/// Payload kind tag: rANS-coded quantized levels (optionally with sparse
/// indices). Same information as kinds 1/2, entropy-coded; produced only
/// when strictly smaller than the equivalent bit-packed buffer. (Byte 5 was
/// the adaptive binary range coder's frame; it is retired, not reused.)
pub const KIND_ENTROPY: u8 = 6;

/// Allocation guard for the entropy kind: one coded coordinate costs at
/// least one modelled symbol. Every symbol of an
/// [`AdaptiveCdf`] keeps at least [`PROB_FLOOR`](crate::rans::PROB_FLOOR)
/// `= 16` of the `32768` scale, so the likeliest symbol of a two-or-more
/// symbol alphabet has probability at most `1 − 16/32768` and costs at least
/// `−log2(1 − 16/32768) ≈ 7.0e-4` bits; a rANS step with states at or above
/// `2^23` realises at least `255/256` of that. No valid stream therefore
/// holds more than `8 / 7.0e-4 · 256/255 ≈ 11,400` symbols per byte of rANS
/// stream (its 8 state bytes included). A one-symbol alphabet costs nothing,
/// but only a `dense_len` of 1 has one. A declared count above this bound is
/// rejected before any allocation.
const MAX_DECISIONS_PER_BYTE: usize = 16_384;

/// A decoding failure: the buffer is not a valid version-1 wire update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the fixed header or a declared payload requires.
    Truncated,
    /// The buffer does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The version byte is newer than this decoder understands.
    UnsupportedVersion(u8),
    /// The kind byte is not one of the defined payload kinds.
    UnknownKind(u8),
    /// Structurally invalid payload (bad index ordering, bit width, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire update"),
            WireError::BadMagic => write!(f, "bad wire magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown wire payload kind {k}"),
            WireError::Corrupt(what) => write!(f, "corrupt wire payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One encoded model update: the exact bytes a client ships, plus decoding.
///
/// Produced by [`crate::codec::UpdateCodec::encode`]; [`WireUpdate::len`] is
/// what the network simulator charges under
/// [`CostBasis::Encoded`](https://docs.rs/fl-netsim) instead of the paper's
/// analytic `2·V·CR` formula.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireUpdate {
    bytes: Vec<u8>,
}

impl WireUpdate {
    /// Wrap raw bytes (validated lazily by [`WireUpdate::decode`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Size on the wire in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True for a zero-length buffer (never produced by the encoders).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The payload kind byte, if the header is present and valid.
    pub fn kind(&self) -> Result<u8, WireError> {
        check_header(self.as_bytes())
    }

    /// Decode the buffer into the lossy in-memory update it represents.
    pub fn decode(&self) -> Result<CompressedUpdate, WireError> {
        decode_slice(self.as_bytes(), true)
    }

    /// For a [`KIND_SEGMENTED`] buffer, the per-segment payload byte lengths
    /// in frame order (excluding the outer header and length prefixes — the
    /// bytes each segment's own wire update occupies). `None` for any other
    /// or structurally invalid buffer. This is how the round engine breaks a
    /// planned upload's honest total down per layer without re-decoding.
    pub fn segment_byte_lens(&self) -> Option<Vec<usize>> {
        if self.kind().ok()? != KIND_SEGMENTED {
            return None;
        }
        let b = self.as_bytes();
        let mut cur = 4usize;
        read_varint(b, &mut cur).ok()?; // dense_len
        let n = read_varint(b, &mut cur).ok()? as usize;
        if n > b.len() - cur {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let plen = read_varint(b, &mut cur).ok()? as usize;
            if plen > b.len() - cur {
                return None;
            }
            out.push(plen);
            cur += plen;
        }
        Some(out)
    }
}

fn check_header(b: &[u8]) -> Result<u8, WireError> {
    if b.len() < 4 {
        return Err(WireError::Truncated);
    }
    if b[0..2] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    if b[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(b[2]));
    }
    Ok(b[3])
}

/// Decode one complete wire update from a borrowed slice. This is the single
/// decode path: [`WireUpdate::decode`] passes its whole buffer, and the
/// segmented decoder passes each part's sub-slice directly — no copy and no
/// second header validation per part. `allow_segmented` is false for nested
/// parts, which is what makes recursion bombs impossible.
fn decode_slice(b: &[u8], allow_segmented: bool) -> Result<CompressedUpdate, WireError> {
    let kind = check_header(b)?;
    let mut cur = 4usize;
    let declared_len = read_varint(b, &mut cur)?;
    // Wire indices are u32, so no valid buffer can describe a longer
    // vector; checking the raw varint (before any `as usize` cast, which
    // would itself truncate on 32-bit targets) keeps a crafted
    // `dense_len` from silently wrapping into `0..dense_len as u32`.
    if declared_len > u32::MAX as u64 {
        return Err(WireError::Corrupt("dense length exceeds u32 index range"));
    }
    let dense_len = declared_len as usize;
    match kind {
        KIND_SPARSE => {
            let (indices, values) = decode_sparse_body(b, &mut cur, dense_len)?;
            Ok(CompressedUpdate::Sparse(SparseUpdate::new(
                indices, values, dense_len,
            )))
        }
        KIND_QUANTIZED => {
            let (_norm, values) = decode_quantized_body(b, &mut cur, dense_len)?;
            Ok(CompressedUpdate::Quantized { values })
        }
        KIND_SPARSE_QUANTIZED => {
            let indices = decode_indices(b, &mut cur, dense_len)?;
            let (_norm, values) = decode_quantized_body(b, &mut cur, indices.len())?;
            Ok(CompressedUpdate::Sparse(SparseUpdate::new(
                indices, values, dense_len,
            )))
        }
        KIND_DENSE => {
            if dense_len > (b.len() - cur) / 4 {
                return Err(WireError::Truncated);
            }
            let values: Vec<f32> = b[cur..cur + dense_len * 4]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            // Decode to the full-density sparse form: downstream overlap
            // analysis and aggregation treat a ratio-1.0 upload exactly
            // like a sparse update that retained every coordinate.
            let indices = (0..dense_len as u32).collect();
            Ok(CompressedUpdate::Sparse(SparseUpdate::new(
                indices, values, dense_len,
            )))
        }
        KIND_ENTROPY => decode_entropy_body(b, &mut cur, dense_len),
        KIND_SEGMENTED if allow_segmented => decode_segmented_body(b, &mut cur, dense_len),
        KIND_SEGMENTED => Err(WireError::Corrupt("nested segmented payload")),
        other => Err(WireError::UnknownKind(other)),
    }
}

fn header(kind: u8, dense_len: usize, capacity_hint: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 10 + capacity_hint);
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(kind);
    put_varint(&mut buf, dense_len as u64);
    buf
}

fn put_indices(buf: &mut Vec<u8>, indices: &[u32]) {
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "wire indices must be strictly increasing"
    );
    put_varint(buf, indices.len() as u64);
    // Delta varints staged through a fixed stack block: a u32 gap is at most
    // five varint bytes, so flushing whenever fewer than five slots remain
    // keeps every write in-bounds while appending in block-sized slices
    // instead of one bounds-checked push per byte.
    let mut block = [0u8; 256];
    let mut fill = 0usize;
    let mut prev = 0u64;
    for (pos, &i) in indices.iter().enumerate() {
        let i = i as u64;
        let mut v = if pos == 0 { i } else { i - prev };
        prev = i;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                block[fill] = byte;
                fill += 1;
                break;
            }
            block[fill] = byte | 0x80;
            fill += 1;
        }
        if fill + 5 > block.len() {
            buf.extend_from_slice(&block[..fill]);
            fill = 0;
        }
    }
    buf.extend_from_slice(&block[..fill]);
}

/// Append `values` as little-endian f32s in fixed 16-value blocks: one
/// bounds-checked append per block instead of per value, which is what lets
/// the dense and sparse encoders run at memcpy-like speed.
fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    let mut block = [0u8; 64];
    for chunk in values.chunks(16) {
        for (slot, &v) in block.chunks_exact_mut(4).zip(chunk) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&block[..chunk.len() * 4]);
    }
}

/// Encode a sparse update as a `KIND_SPARSE` buffer.
pub fn encode_sparse(update: &SparseUpdate) -> WireUpdate {
    let mut buf = header(KIND_SPARSE, update.dense_len(), update.nnz() * 7);
    put_indices(&mut buf, update.indices());
    put_f32s(&mut buf, update.values());
    WireUpdate::from_bytes(buf)
}

/// Encode an uncompressed (ratio-1.0) update as a `KIND_DENSE` buffer: raw
/// f32 values with no per-coordinate index overhead.
pub fn encode_dense(values: &[f32]) -> WireUpdate {
    let mut buf = header(KIND_DENSE, values.len(), values.len() * 4);
    put_f32s(&mut buf, values);
    WireUpdate::from_bytes(buf)
}

/// Encode a dense quantized vector as a `KIND_QUANTIZED` buffer. `levels`
/// holds signed levels (`±level`, magnitude ≤ `2^(bits−1) − 1`).
pub fn encode_quantized(dense_len: usize, bits: u8, norm: f32, levels: &[i32]) -> WireUpdate {
    assert_eq!(levels.len(), dense_len, "one level per dense coordinate");
    let mut buf = header(
        KIND_QUANTIZED,
        dense_len,
        5 + (dense_len * bits as usize).div_ceil(8),
    );
    put_quantized_body(&mut buf, bits, norm, levels);
    WireUpdate::from_bytes(buf)
}

/// Encode a sparsified-then-quantized update as a `KIND_SPARSE_QUANTIZED`
/// buffer: `indices` are the retained coordinates, `levels` their signed
/// quantization levels.
pub fn encode_sparse_quantized(
    dense_len: usize,
    indices: &[u32],
    bits: u8,
    norm: f32,
    levels: &[i32],
) -> WireUpdate {
    assert_eq!(indices.len(), levels.len(), "one level per retained index");
    let mut buf = header(
        KIND_SPARSE_QUANTIZED,
        dense_len,
        indices.len() * 3 + 5 + (indices.len() * bits as usize).div_ceil(8),
    );
    put_indices(&mut buf, indices);
    put_quantized_body(&mut buf, bits, norm, levels);
    WireUpdate::from_bytes(buf)
}

/// Encode per-segment wire updates into one framed `KIND_SEGMENTED` buffer.
/// `dense_len` is the full vector's length; the parts' dense lengths must
/// tile it exactly (checked on decode) and no part may itself be segmented.
pub fn encode_segmented(dense_len: usize, parts: &[WireUpdate]) -> WireUpdate {
    assert!(!parts.is_empty(), "a segmented update needs >= 1 segment");
    let payload: usize = parts.iter().map(|p| p.len() + 5).sum();
    let mut buf = header(KIND_SEGMENTED, dense_len, payload);
    put_varint(&mut buf, parts.len() as u64);
    for p in parts {
        // Hard check, not a debug_assert: decode rejects nested frames, so a
        // nested part would produce a buffer that cannot decode its own
        // encoding. One byte compare per part keeps the failure at the
        // encoder with a pointed message.
        assert_ne!(
            p.kind(),
            Ok(KIND_SEGMENTED),
            "segmented payloads do not nest"
        );
        put_varint(&mut buf, p.len() as u64);
        buf.extend_from_slice(p.as_bytes());
    }
    WireUpdate::from_bytes(buf)
}

/// Append one segment's update, which starts at dense coordinate `offset`,
/// to the spliced whole-vector `(indices, values)`: a sparse segment's
/// indices shift by the offset, a quantized segment becomes a full-density
/// run over its coordinates. Shared by the `Segmented` decoder and
/// [`crate::plan::PlannedCodec`]'s encode side, so both assemble the same
/// update from the same parts.
pub(crate) fn splice_segment(
    update: CompressedUpdate,
    offset: usize,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    match update {
        CompressedUpdate::Sparse(s) => {
            indices.extend(s.indices().iter().map(|&i| offset as u32 + i));
            values.extend_from_slice(s.values());
        }
        CompressedUpdate::Quantized { values: run } => {
            indices.extend(offset as u32..(offset + run.len()) as u32);
            values.extend_from_slice(&run);
        }
    }
}

/// Decode the body of a `KIND_SEGMENTED` buffer: parse and decode every
/// nested segment, then splice them into one update over the full vector.
/// The result is always sparse — a quantized segment (whose coordinate count
/// is bounded by its own byte length) becomes a full-density run at its
/// offset — so a crafted buffer can never force an allocation larger than
/// its segments' own decode guards admit.
fn decode_segmented_body(
    b: &[u8],
    cur: &mut usize,
    dense_len: usize,
) -> Result<CompressedUpdate, WireError> {
    let n = read_varint(b, cur)? as usize;
    if n == 0 {
        return Err(WireError::Corrupt("segmented update with no segments"));
    }
    // Every segment needs at least its one-byte length prefix; reject a
    // declared count the remaining buffer cannot hold before allocating.
    if n > b.len() - *cur {
        return Err(WireError::Truncated);
    }
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let mut covered = 0usize;
    for _ in 0..n {
        let plen_raw = read_varint(b, cur)?;
        if plen_raw > (b.len() - *cur) as u64 {
            return Err(WireError::Truncated);
        }
        let plen = plen_raw as usize;
        // Decode the part straight out of the parent buffer: no per-part
        // copy, and the part's header is validated exactly once (inside
        // `decode_slice`, which also rejects nested segmented frames).
        let update = decode_slice(&b[*cur..*cur + plen], false)?;
        let part_len = update.dense_len();
        if part_len > dense_len - covered {
            return Err(WireError::Corrupt("segment lengths exceed dense length"));
        }
        // A quantized part's length is bounded by its own byte length (its
        // decode guard), so the splice never over-allocates.
        splice_segment(update, covered, &mut indices, &mut values);
        covered += part_len;
        *cur += plen;
    }
    if covered != dense_len {
        return Err(WireError::Corrupt(
            "segment lengths do not cover the dense vector",
        ));
    }
    Ok(CompressedUpdate::Sparse(SparseUpdate::new(
        indices, values, dense_len,
    )))
}

fn put_quantized_body(buf: &mut Vec<u8>, bits: u8, norm: f32, levels: &[i32]) {
    assert!((2..=16).contains(&bits), "bits must be in 2..=16");
    let max_level = max_level_for_bits(bits) as i32;
    buf.push(bits);
    buf.extend_from_slice(&norm.to_le_bytes());
    // MSB-first bit packing: sign bit, then bits-1 magnitude bits, staged
    // through a fixed stack block so the stream appends in block-sized
    // slices instead of one bounds-checked push per byte. A field is at most
    // 16 bits (two flushed bytes per level), so checking for two free slots
    // after each level keeps every write in-bounds.
    let mut block = [0u8; 256];
    let mut fill = 0usize;
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for &l in levels {
        let sign = (l < 0) as u64;
        let mag = l.unsigned_abs().min(max_level as u32) as u64;
        let field = (sign << (bits - 1)) | mag;
        acc = (acc << bits) | field;
        acc_bits += bits as u32;
        while acc_bits >= 8 {
            acc_bits -= 8;
            block[fill] = (acc >> acc_bits) as u8;
            fill += 1;
        }
        if fill + 2 > block.len() {
            buf.extend_from_slice(&block[..fill]);
            fill = 0;
        }
    }
    if acc_bits > 0 {
        block[fill] = (acc << (8 - acc_bits)) as u8;
        fill += 1;
    }
    buf.extend_from_slice(&block[..fill]);
}

/// Flag bit: the entropy payload carries sparse indices beside the levels.
const ENTROPY_FLAG_SPARSE: u8 = 1;

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Model of one coordinate's QSGD magnitude (`0..=max_level`): the symbol
/// itself while the alphabet `2^(bits−1)` fits 16 symbols, otherwise its
/// bit-length class (0 for a zero magnitude) with the bits under the leading
/// one sent raw.
type MagCdf = AdaptiveCdf<16>;

/// Model of one index gap's bit-length class: `gap + 1` has `class + 1`
/// significant bits and `class` raw bits under the leading one. A gap is
/// below `dense_len`, so the alphabet is `bitlen(dense_len) <= 32`.
type GapCdf = AdaptiveCdf<32>;

fn bitlen(v: usize) -> usize {
    (usize::BITS - v.leading_zeros()) as usize
}

/// How a `bits`-wide magnitude splits into one modelled symbol and raw bits.
#[derive(Clone, Copy)]
struct MagCoding {
    /// The magnitude is the symbol (`bits <= 5`).
    direct: bool,
    /// `2^(bits−1) − 1`: the clamp, and the dequantisation scale.
    max_level: u32,
}

impl MagCoding {
    fn new(bits: u8) -> Self {
        Self {
            direct: bits <= 5,
            max_level: max_level_for_bits(bits),
        }
    }

    fn cdf(self) -> MagCdf {
        MagCdf::new(if self.direct {
            self.max_level as usize + 1
        } else {
            bitlen(self.max_level as usize) + 1
        })
    }

    /// Raw bits that follow `symbol`.
    #[inline(always)]
    fn low_bits(self, symbol: usize) -> u32 {
        if self.direct {
            0
        } else {
            (symbol as u32).saturating_sub(1)
        }
    }

    /// `(symbol, raw bits, raw bit count)` of `mag <= max_level`.
    #[inline(always)]
    fn split(self, mag: u32) -> (usize, u32, u32) {
        if self.direct {
            (mag as usize, 0, 0)
        } else {
            let class = 32 - mag.leading_zeros();
            let nlow = class.saturating_sub(1);
            (class as usize, mag & ((1 << nlow) - 1), nlow)
        }
    }

    /// Inverse of [`split`](Self::split).
    #[inline(always)]
    fn join(self, symbol: usize, low: u32) -> u32 {
        if self.direct || symbol == 0 {
            symbol as u32
        } else {
            1 << (symbol - 1) | low
        }
    }
}

/// Assemble a [`KIND_ENTROPY`] frame of `total` bytes around the coder's
/// `(rANS stream, raw section)`; `nnz` is present for the sparse flavour.
fn entropy_frame(
    dense_len: usize,
    total: usize,
    bits: u8,
    norm: f32,
    nnz: Option<usize>,
    (stream, raw): (&[u8], &[u8]),
) -> WireUpdate {
    let mut buf = header(KIND_ENTROPY, dense_len, total);
    buf.push(if nnz.is_some() {
        ENTROPY_FLAG_SPARSE
    } else {
        0
    });
    buf.push(bits);
    buf.extend_from_slice(&norm.to_le_bytes());
    if let Some(nnz) = nnz {
        put_varint(&mut buf, nnz as u64);
    }
    put_varint(&mut buf, stream.len() as u64);
    buf.extend_from_slice(stream);
    buf.extend_from_slice(raw);
    debug_assert_eq!(buf.len(), total);
    WireUpdate::from_bytes(buf)
}

/// Encode a dense quantized vector with the adaptive-CDF rANS coder, falling
/// back to the bit-packed [`KIND_QUANTIZED`] layout whenever the coded frame
/// would not be strictly smaller — the entropy path never expands. `coder`
/// is scratch: any [`RansEncoder`], reused across calls to avoid allocating.
pub fn encode_quantized_rc(
    coder: &mut RansEncoder,
    dense_len: usize,
    bits: u8,
    norm: f32,
    levels: &[i32],
) -> WireUpdate {
    assert_eq!(levels.len(), dense_len, "one level per dense coordinate");
    let mags = MagCoding::new(bits);
    let mut mag_cdf = mags.cdf();
    coder.begin(dense_len, dense_len * (bits as usize - 1));
    for &l in levels {
        let mag = l.unsigned_abs().min(mags.max_level);
        let (symbol, low, nlow) = mags.split(mag);
        coder.symbol(&mut mag_cdf, symbol);
        // A zero magnitude carries no sign: the bit-packed kinds decode `±0`
        // to level 0 either way, so dropping it is lossless.
        let word = low as u64 | ((l < 0) as u64) << nlow;
        coder.raw(word, nlow + (mag != 0) as u32);
    }
    let (stream, raw) = coder.finish();
    let shared = 4 + varint_len(dense_len as u64);
    let entropy_total = shared + 2 + 4 + varint_len(stream.len() as u64) + stream.len() + raw.len();
    let packed_total = shared + 1 + 4 + (dense_len * bits as usize).div_ceil(8);
    if entropy_total >= packed_total {
        return encode_quantized(dense_len, bits, norm, levels);
    }
    entropy_frame(dense_len, entropy_total, bits, norm, None, (stream, raw))
}

/// Encode a sparsified-then-quantized update with the adaptive-CDF rANS
/// coder (one gap symbol and one magnitude symbol per retained coordinate,
/// on alternating states), falling back to the bit-packed
/// [`KIND_SPARSE_QUANTIZED`] layout whenever that would be no larger.
/// `coder` is scratch, as for [`encode_quantized_rc`].
pub fn encode_sparse_quantized_rc(
    coder: &mut RansEncoder,
    dense_len: usize,
    indices: &[u32],
    bits: u8,
    norm: f32,
    levels: &[i32],
) -> WireUpdate {
    assert_eq!(indices.len(), levels.len(), "one level per retained index");
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "wire indices must be strictly increasing"
    );
    assert!(
        indices.last().is_none_or(|&i| (i as usize) < dense_len),
        "wire indices must be below the dense length"
    );
    let nnz = indices.len();
    let mags = MagCoding::new(bits);
    let mut mag_cdf = mags.cdf();
    let gap_classes = bitlen(dense_len).max(1);
    let mut gap_cdf = GapCdf::new(gap_classes);
    coder.begin(2 * nnz, nnz * (gap_classes - 1 + bits as usize - 1));
    let mut next = 0u32;
    let mut packed_index_bytes = 0usize;
    for (&i, &l) in indices.iter().zip(levels) {
        // `gap + 1`: the first index counts from −1, the rest from their
        // predecessor, so it is never zero and its leading one is implicit.
        let step = i - next + 1;
        // The bit-packed layout's varint: the first index, then `i − previous`.
        packed_index_bytes += varint_len(if next == 0 { i } else { step } as u64);
        next = i + 1;
        let class = 31 - step.leading_zeros();
        coder.symbol(&mut gap_cdf, class as usize);
        let mag = l.unsigned_abs().min(mags.max_level);
        let (symbol, low, nlow) = mags.split(mag);
        coder.symbol(&mut mag_cdf, symbol);
        let word = (step - (1 << class)) as u64
            | (low as u64) << class
            | ((l < 0) as u64) << (class + nlow);
        coder.raw(word, class + nlow + (mag != 0) as u32);
    }
    let (stream, raw) = coder.finish();
    let shared = 4 + varint_len(dense_len as u64) + varint_len(nnz as u64);
    let entropy_total = shared + 2 + 4 + varint_len(stream.len() as u64) + stream.len() + raw.len();
    let packed_total = shared + packed_index_bytes + 1 + 4 + (nnz * bits as usize).div_ceil(8);
    if entropy_total >= packed_total {
        return encode_sparse_quantized(dense_len, indices, bits, norm, levels);
    }
    entropy_frame(
        dense_len,
        entropy_total,
        bits,
        norm,
        Some(nnz),
        (stream, raw),
    )
}

/// Decode the body of a [`KIND_ENTROPY`] buffer. The coordinate count is
/// bounded by [`MAX_DECISIONS_PER_BYTE`] before any allocation; the rANS
/// stream and the raw section each error the moment they run dry and must
/// both be consumed exactly, with the two rANS states back at their origin —
/// a crafted buffer can neither over-allocate nor fabricate data, and a
/// truncated one never decodes.
fn decode_entropy_body(
    b: &[u8],
    cur: &mut usize,
    dense_len: usize,
) -> Result<CompressedUpdate, WireError> {
    if b.len() < *cur + 6 {
        return Err(WireError::Truncated);
    }
    let flags = b[*cur];
    *cur += 1;
    if flags & !ENTROPY_FLAG_SPARSE != 0 {
        return Err(WireError::Corrupt("unknown entropy flags"));
    }
    let sparse = flags & ENTROPY_FLAG_SPARSE != 0;
    let bits = b[*cur];
    *cur += 1;
    if !(2..=16).contains(&bits) {
        return Err(WireError::Corrupt("bits out of range"));
    }
    let norm = read_f32_le(b, cur)?;
    let count = if sparse {
        let nnz = read_varint(b, cur)?;
        if nnz > dense_len as u64 {
            return Err(WireError::Corrupt("nnz exceeds dense length"));
        }
        nnz as usize
    } else {
        dense_len
    };
    let stream_len = read_varint(b, cur)?;
    if stream_len > (b.len() - *cur) as u64 {
        return Err(WireError::Truncated);
    }
    let (stream, raw) = b[*cur..].split_at(stream_len as usize);
    if count > stream.len().saturating_mul(MAX_DECISIONS_PER_BYTE) {
        return Err(WireError::Corrupt("count exceeds rANS stream capacity"));
    }
    *cur = b.len();
    // Adversarial cap on up-front reservations: grow amortized beyond it.
    let capacity = count.min((stream.len() + raw.len()).saturating_mul(8).max(64));
    let mut dec = RansDecoder::new(stream)?;
    let mut raw = BitReader::new(raw);
    let mags = MagCoding::new(bits);
    let mut mag_cdf = mags.cdf();
    let scale = mags.max_level as f32;
    // The same fused `norm * level / max_level` as the bit-packed decoder.
    let value = |symbol: usize, word: u64| {
        let nlow = mags.low_bits(symbol);
        let mag = mags.join(symbol, (word & ((1 << nlow) - 1)) as u32) as i32;
        let level = if word >> nlow & 1 != 0 { -mag } else { mag };
        norm * level as f32 / scale
    };
    let mut values = Vec::with_capacity(capacity);
    let update = if sparse {
        let mut gap_cdf = GapCdf::new(bitlen(dense_len).max(1));
        let mut indices = Vec::with_capacity(capacity);
        let mut next = 0u64;
        for _ in 0..count {
            let class = dec.symbol::<0, 32>(&mut gap_cdf)? as u32;
            let symbol = dec.symbol::<1, 16>(&mut mag_cdf)?;
            let word = raw.take(class + mags.low_bits(symbol) + (symbol != 0) as u32)?;
            let index = next + (1 << class | word & ((1 << class) - 1)) - 1;
            if index >= dense_len as u64 {
                return Err(WireError::Corrupt("index out of range"));
            }
            next = index + 1;
            indices.push(index as u32);
            values.push(value(symbol, word >> class));
        }
        CompressedUpdate::Sparse(SparseUpdate::new(indices, values, dense_len))
    } else {
        let mut coordinate = |symbol: usize| -> Result<(), WireError> {
            let word = raw.take(mags.low_bits(symbol) + (symbol != 0) as u32)?;
            values.push(value(symbol, word));
            Ok(())
        };
        for _ in 0..count / 2 {
            coordinate(dec.symbol::<0, 16>(&mut mag_cdf)?)?;
            coordinate(dec.symbol::<1, 16>(&mut mag_cdf)?)?;
        }
        if count % 2 == 1 {
            coordinate(dec.symbol::<0, 16>(&mut mag_cdf)?)?;
        }
        CompressedUpdate::Quantized { values }
    };
    dec.finish()?;
    raw.finish()?;
    Ok(update)
}

fn decode_indices(b: &[u8], cur: &mut usize, dense_len: usize) -> Result<Vec<u32>, WireError> {
    let nnz = read_varint(b, cur)? as usize;
    if nnz > dense_len {
        return Err(WireError::Corrupt("nnz exceeds dense length"));
    }
    // Every index occupies at least one varint byte; reject a declared count
    // the remaining buffer cannot possibly hold before allocating for it
    // (a crafted header must not drive a huge allocation).
    if nnz > b.len() - *cur {
        return Err(WireError::Truncated);
    }
    let mut indices = Vec::with_capacity(nnz);
    let mut prev: u64 = 0;
    for pos in 0..nnz {
        // Gaps between retained coordinates are almost always < 128, so the
        // common case is a single continuation-free byte; fall back to the
        // general varint reader otherwise.
        let raw = match b.get(*cur) {
            Some(&byte) if byte < 0x80 => {
                *cur += 1;
                byte as u64
            }
            _ => read_varint(b, cur)?,
        };
        let idx = if pos == 0 {
            raw
        } else {
            if raw == 0 {
                return Err(WireError::Corrupt("indices not strictly increasing"));
            }
            prev + raw
        };
        if idx >= dense_len as u64 {
            return Err(WireError::Corrupt("index out of range"));
        }
        indices.push(idx as u32);
        prev = idx;
    }
    Ok(indices)
}

fn decode_sparse_body(
    b: &[u8],
    cur: &mut usize,
    dense_len: usize,
) -> Result<(Vec<u32>, Vec<f32>), WireError> {
    let indices = decode_indices(b, cur, dense_len)?;
    if b.len() < *cur + indices.len().saturating_mul(4) {
        return Err(WireError::Truncated);
    }
    let values: Vec<f32> = b[*cur..*cur + indices.len() * 4]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    *cur += indices.len() * 4;
    Ok((indices, values))
}

/// Decode a bit-packed quantized body straight to dequantized `f32`s. The
/// unpack and the dequantize are fused — no intermediate level vector — but
/// each value is still computed as `norm * level / max_level` in exactly the
/// order the two-pass decoder used, so the output is bit-identical.
fn decode_quantized_body(
    b: &[u8],
    cur: &mut usize,
    count: usize,
) -> Result<(f32, Vec<f32>), WireError> {
    if b.len() < *cur + 5 {
        return Err(WireError::Truncated);
    }
    let bits = b[*cur];
    *cur += 1;
    if !(2..=16).contains(&bits) {
        return Err(WireError::Corrupt("bits out of range"));
    }
    let norm = read_f32_le(b, cur)?;
    // Bound the declared coordinate count by what the remaining bytes can
    // hold before any multiplication or allocation: a crafted dense_len must
    // neither overflow `count * bits` nor reserve gigabytes.
    if count > (b.len() - *cur).saturating_mul(8) / bits as usize {
        return Err(WireError::Truncated);
    }
    let packed_bytes = (count * bits as usize).div_ceil(8);
    let packed = &b[*cur..*cur + packed_bytes];
    let s = max_level_for_bits(bits) as f32;
    let sign_bit = 1u64 << (bits - 1);
    let mag_mask = sign_bit - 1;
    let values = if bits == 8 {
        // One byte per field: the unpack collapses to a branch-free byte map
        // (select sign, convert, multiply, divide) the compiler vectorizes.
        packed[..count]
            .iter()
            .map(|&f| {
                let mag = (f & 0x7f) as i32;
                let level = if f & 0x80 != 0 { -mag } else { mag };
                norm * level as f32 / s
            })
            .collect()
    } else {
        let mut values = Vec::with_capacity(count);
        let mut acc: u64 = 0;
        let mut acc_bits: u32 = 0;
        let mut bytes_in = packed.iter();
        for _ in 0..count {
            while acc_bits < bits as u32 {
                acc = (acc << 8) | *bytes_in.next().expect("guard sized the slice") as u64;
                acc_bits += 8;
            }
            let field = (acc >> (acc_bits - bits as u32)) & ((1u64 << bits) - 1);
            acc_bits -= bits as u32;
            let mag = (field & mag_mask) as i32;
            let level = if field & sign_bit != 0 { -mag } else { mag };
            values.push(norm * level as f32 / s);
        }
        values
    };
    *cur += packed_bytes;
    Ok((norm, values))
}

fn read_f32_le(b: &[u8], cur: &mut usize) -> Result<f32, WireError> {
    if b.len() < *cur + 4 {
        return Err(WireError::Truncated);
    }
    let v = f32::from_le_bytes([b[*cur], b[*cur + 1], b[*cur + 2], b[*cur + 3]]);
    *cur += 4;
    Ok(v)
}

/// Append an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an LEB128 varint, advancing `cur`.
pub fn read_varint(b: &[u8], cur: &mut usize) -> Result<u64, WireError> {
    let mut out: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        if *cur >= b.len() {
            return Err(WireError::Truncated);
        }
        if shift >= 64 {
            return Err(WireError::Corrupt("varint overflow"));
        }
        let byte = b[*cur];
        *cur += 1;
        out |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut cur = 0;
            assert_eq!(read_varint(&b, &mut cur).unwrap(), v);
            assert_eq!(cur, b.len());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut cur = 0;
        assert_eq!(read_varint(&[0x80], &mut cur), Err(WireError::Truncated));
    }

    #[test]
    fn sparse_wire_roundtrip_is_exact() {
        let s = SparseUpdate::new(vec![0, 7, 300, 5000], vec![1.5, -2.25, 0.125, 9.0], 10_000);
        let w = encode_sparse(&s);
        let back = w.decode().unwrap();
        assert_eq!(back.as_sparse().unwrap(), &s);
    }

    #[test]
    fn empty_sparse_update_encodes() {
        let s = SparseUpdate::empty(42);
        let back = encode_sparse(&s).decode().unwrap();
        assert_eq!(back.as_sparse().unwrap().nnz(), 0);
        assert_eq!(back.dense_len(), 42);
    }

    #[test]
    fn quantized_wire_roundtrip_recovers_levels() {
        // bits = 4 → max_level 7; signed levels survive packing exactly.
        let levels = vec![0, 7, -7, 3, -1, 2, 0, -5, 6];
        let w = encode_quantized(levels.len(), 4, 2.0, &levels);
        let back = w.decode().unwrap();
        let values = match back {
            CompressedUpdate::Quantized { values } => values,
            _ => panic!("expected quantized payload"),
        };
        for (&l, &v) in levels.iter().zip(values.iter()) {
            let expected = 2.0 * l as f32 / 7.0;
            assert!((v - expected).abs() < 1e-6, "level {l} decoded to {v}");
        }
    }

    #[test]
    fn sparse_quantized_wire_roundtrip() {
        let indices = vec![3u32, 10, 11, 99];
        let levels = vec![1, -3, 3, 2];
        let w = encode_sparse_quantized(100, &indices, 3, 1.0, &levels);
        let back = w.decode().unwrap();
        let s = back.as_sparse().unwrap();
        assert_eq!(s.indices(), &indices[..]);
        assert_eq!(s.dense_len(), 100);
        for (&l, &v) in levels.iter().zip(s.values().iter()) {
            assert!((v - l as f32 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn header_is_pinned() {
        // Golden bytes: any change to the header layout must be deliberate
        // (bump WIRE_VERSION and update this fixture).
        let s = SparseUpdate::new(vec![2, 5], vec![1.0, -1.0], 300);
        let w = encode_sparse(&s);
        let b = w.as_bytes();
        assert_eq!(&b[0..2], &WIRE_MAGIC);
        assert_eq!(b[2], 1, "wire version");
        assert_eq!(b[3], KIND_SPARSE);
        // dense_len 300 = varint [0xAC, 0x02], nnz 2, first index 2, gap 3.
        assert_eq!(&b[4..9], &[0xAC, 0x02, 0x02, 0x02, 0x03]);
        // Then two f32 LE values.
        assert_eq!(b.len(), 9 + 8);
        assert_eq!(&b[9..13], &1.0f32.to_le_bytes());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            WireUpdate::from_bytes(vec![1, 2]).decode(),
            Err(WireError::Truncated)
        );
        assert_eq!(
            WireUpdate::from_bytes(vec![0, 0, 1, 0, 0]).decode(),
            Err(WireError::BadMagic)
        );
        assert_eq!(
            WireUpdate::from_bytes(vec![0xB3, 0xF1, 99, 0, 0]).decode(),
            Err(WireError::UnsupportedVersion(99))
        );
        assert_eq!(
            WireUpdate::from_bytes(vec![0xB3, 0xF1, 1, 9, 0]).decode(),
            Err(WireError::UnknownKind(9))
        );
        // Kind 5 is retired (the binary range coder's frame), not reassigned.
        assert_eq!(
            WireUpdate::from_bytes(vec![0xB3, 0xF1, 1, 5, 0]).decode(),
            Err(WireError::UnknownKind(5))
        );
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let s = SparseUpdate::new(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 8);
        let w = encode_sparse(&s);
        let cut = WireUpdate::from_bytes(w.as_bytes()[..w.len() - 5].to_vec());
        assert_eq!(cut.decode(), Err(WireError::Truncated));
    }

    #[test]
    fn dense_wire_roundtrip_is_exact_without_index_overhead() {
        let values = vec![1.5f32, -2.0, 0.0, 4.25];
        let w = encode_dense(&values);
        // header (4) + varint dense_len (1) + 4 × f32: dense bytes, not 2×.
        assert_eq!(w.len(), 5 + 16);
        assert_eq!(w.kind().unwrap(), KIND_DENSE);
        let s = w.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.indices(), &[0, 1, 2, 3]);
        assert_eq!(s.values(), &values[..]);
    }

    #[test]
    fn crafted_huge_counts_are_rejected_without_allocating() {
        // Quantized payload declaring u32::MAX coordinates: must error, not
        // overflow `count * bits` or reserve gigabytes.
        let mut buf = header(KIND_QUANTIZED, u32::MAX as usize, 0);
        buf.push(8); // bits
        buf.extend_from_slice(&1.0f32.to_le_bytes()); // norm
        buf.push(0xAB); // one stray payload byte
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Truncated)
        );

        // Sparse payload declaring a huge dense_len and nnz with a tiny body.
        let mut buf = header(KIND_SPARSE, u32::MAX as usize, 0);
        put_varint(&mut buf, (u32::MAX - 1) as u64); // nnz
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Truncated)
        );

        // Dense payload declaring more values than the buffer holds.
        assert_eq!(
            WireUpdate::from_bytes(header(KIND_DENSE, u32::MAX as usize, 0)).decode(),
            Err(WireError::Truncated)
        );

        // Entropy payloads, dense and sparse, declaring more coordinates
        // than `MAX_DECISIONS_PER_BYTE` lets their rANS stream hold — with
        // well-formed initial states, so only the guard can refuse them, and
        // its own error says it did.
        for sparse in [false, true] {
            let mut buf = header(KIND_ENTROPY, u32::MAX as usize, 0);
            buf.push(sparse as u8); // flags
            buf.push(2); // bits
            buf.extend_from_slice(&1.0f32.to_le_bytes()); // norm
            if sparse {
                put_varint(&mut buf, (u32::MAX - 1) as u64); // nnz
            }
            put_varint(&mut buf, 8); // rANS stream length
            buf.extend_from_slice(&[0, 0, 0x80, 0, 0, 0, 0x80, 0]); // two states at 2^23
            assert_eq!(
                WireUpdate::from_bytes(buf).decode(),
                Err(WireError::Corrupt("count exceeds rANS stream capacity")),
                "sparse {sparse}"
            );
        }
    }

    #[test]
    fn dense_len_beyond_u32_is_corrupt_for_every_kind() {
        // Indices are u32 on the wire, so a varint dense_len above u32::MAX
        // can never be valid. The old decoder reconstructed dense indices via
        // `0..dense_len as u32`, silently truncating such buffers; now every
        // payload kind rejects them up front.
        for kind in [
            KIND_SPARSE,
            KIND_QUANTIZED,
            KIND_SPARSE_QUANTIZED,
            KIND_DENSE,
            KIND_SEGMENTED,
            KIND_ENTROPY,
        ] {
            for dense_len in [u32::MAX as u64 + 1, 1u64 << 62, u64::MAX] {
                let mut buf = Vec::new();
                buf.extend_from_slice(&WIRE_MAGIC);
                buf.extend_from_slice(&[WIRE_VERSION, kind]);
                put_varint(&mut buf, dense_len);
                // Enough trailing bytes that a truncating decoder would have
                // happily read a small body instead of erroring.
                buf.extend_from_slice(&[0u8; 64]);
                assert_eq!(
                    WireUpdate::from_bytes(buf).decode(),
                    Err(WireError::Corrupt("dense length exceeds u32 index range")),
                    "kind {kind} dense_len {dense_len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn encode_sparse_quantized_rejects_unsorted_indices() {
        encode_sparse_quantized(100, &[5, 3], 4, 1.0, &[1, 2]);
    }

    #[test]
    fn segmented_roundtrip_splices_sparse_parts_with_offsets() {
        let a = encode_sparse(&SparseUpdate::new(vec![1, 3], vec![1.0, 2.0], 5));
        let b = encode_sparse(&SparseUpdate::new(vec![0, 6], vec![-1.0, 4.0], 7));
        let w = encode_segmented(12, &[a.clone(), b.clone()]);
        assert_eq!(w.kind().unwrap(), KIND_SEGMENTED);
        // Exact framing: header + varint(dense_len) + varint(n) + per part
        // (varint(len) + len) — the overhead is part of the honest byte count.
        assert_eq!(w.len(), 4 + 1 + 1 + (1 + a.len()) + (1 + b.len()));
        assert_eq!(w.segment_byte_lens().unwrap(), vec![a.len(), b.len()]);
        let s = w.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.dense_len(), 12);
        assert_eq!(s.indices(), &[1, 3, 5, 11]);
        assert_eq!(s.values(), &[1.0, 2.0, -1.0, 4.0]);
    }

    #[test]
    fn segmented_quantized_part_becomes_a_full_density_run() {
        let sparse = encode_sparse(&SparseUpdate::new(vec![2], vec![9.0], 4));
        let quant = encode_quantized(3, 4, 7.0, &[7, -7, 0]);
        let w = encode_segmented(7, &[sparse, quant]);
        let s = w.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.dense_len(), 7);
        // Segment 1 contributes its retained coordinate; segment 2 every
        // coordinate of its run (indices 4..7).
        assert_eq!(s.indices(), &[2, 4, 5, 6]);
        assert_eq!(s.values()[0], 9.0);
        assert!((s.values()[1] - 7.0).abs() < 1e-6);
        assert!((s.values()[2] + 7.0).abs() < 1e-6);
        assert_eq!(s.values()[3], 0.0);
    }

    #[test]
    fn segmented_rejects_crafted_frames() {
        let part = encode_sparse(&SparseUpdate::new(vec![0], vec![1.0], 3));

        // Lengths that do not tile the dense vector.
        let short = encode_segmented(5, std::slice::from_ref(&part));
        assert_eq!(
            short.decode(),
            Err(WireError::Corrupt(
                "segment lengths do not cover the dense vector"
            ))
        );
        let long = encode_segmented(2, std::slice::from_ref(&part));
        assert_eq!(
            long.decode(),
            Err(WireError::Corrupt("segment lengths exceed dense length"))
        );

        // Nested segmented payloads are rejected (no recursion bombs). The
        // encoder debug-asserts against this, so hand-build the frame.
        let inner = encode_segmented(3, std::slice::from_ref(&part));
        let mut buf = header(KIND_SEGMENTED, 3, 0);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, inner.len() as u64);
        buf.extend_from_slice(inner.as_bytes());
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Corrupt("nested segmented payload"))
        );

        // Zero segments.
        let mut buf = header(KIND_SEGMENTED, 3, 0);
        put_varint(&mut buf, 0);
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Corrupt("segmented update with no segments"))
        );

        // A declared segment count the buffer cannot hold: must error before
        // any allocation.
        let mut buf = header(KIND_SEGMENTED, 3, 0);
        put_varint(&mut buf, u32::MAX as u64);
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Truncated)
        );

        // A segment length prefix pointing past the end of the buffer.
        let mut buf = header(KIND_SEGMENTED, 3, 0);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 1000);
        buf.push(0xAB);
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Truncated)
        );

        // Truncating the last segment mid-payload is caught by the nested
        // decode.
        let full = encode_segmented(3, &[part]);
        let cut = WireUpdate::from_bytes(full.as_bytes()[..full.len() - 3].to_vec());
        assert_eq!(cut.decode(), Err(WireError::Truncated));
        assert_eq!(cut.segment_byte_lens(), None);
    }

    /// Gradient-like values: the distribution QSGD levels actually follow in
    /// training (most coordinates far below the vector's L2 norm).
    fn gradient_like(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.37).sin() * ((i as f32) * 0.011).cos() * 0.1)
            .collect()
    }

    fn qsgd_levels_for(values: &[f32], bits: u8) -> (f32, Vec<i32>) {
        use fl_tensor::rng::SplitMix64;
        let mut rng = SplitMix64::new(42);
        crate::quantize::qsgd_levels(values, max_level_for_bits(bits), &mut rng)
    }

    #[test]
    fn entropy_quantized_decodes_bit_identically_to_packed() {
        for bits in [2u8, 4, 6, 8, 12, 16] {
            let (norm, levels) = qsgd_levels_for(&gradient_like(4096), bits);
            let rc = encode_quantized_rc(
                &mut RansEncoder::default(),
                levels.len(),
                bits,
                norm,
                &levels,
            );
            let packed = encode_quantized(levels.len(), bits, norm, &levels);
            assert_eq!(rc.kind().unwrap(), KIND_ENTROPY, "bits {bits}");
            let rc_values = match rc.decode().unwrap() {
                CompressedUpdate::Quantized { values } => values,
                _ => panic!("expected quantized payload"),
            };
            let packed_values = packed.decode().unwrap().into_dense();
            assert!(
                rc_values
                    .iter()
                    .zip(packed_values.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "bits {bits}: entropy decode differs from bit-packed decode"
            );
        }
    }

    #[test]
    fn entropy_beats_bitpacked_on_every_benchmark_level_distribution() {
        // The acceptance claim: on each level distribution the benchmarks
        // exercise — dense quantization at several widths, and the
        // sparsify-then-quantize composition — the entropy-coded buffer is
        // strictly smaller than the bit-packed one.
        for bits in [2u8, 4, 6, 8] {
            let (norm, levels) = qsgd_levels_for(&gradient_like(8192), bits);
            let rc = encode_quantized_rc(
                &mut RansEncoder::default(),
                levels.len(),
                bits,
                norm,
                &levels,
            );
            let packed = encode_quantized(levels.len(), bits, norm, &levels);
            assert_eq!(rc.kind().unwrap(), KIND_ENTROPY);
            assert!(
                rc.len() < packed.len(),
                "bits {bits}: entropy {} >= packed {}",
                rc.len(),
                packed.len()
            );
        }
        for bits in [4u8, 6, 8] {
            // Top-K-style retained subset: every 17th coordinate.
            let dense = gradient_like(8192);
            let indices: Vec<u32> = (0..8192u32).step_by(17).collect();
            let retained: Vec<f32> = indices.iter().map(|&i| dense[i as usize]).collect();
            let (norm, levels) = qsgd_levels_for(&retained, bits);
            let rc = encode_sparse_quantized_rc(
                &mut RansEncoder::default(),
                8192,
                &indices,
                bits,
                norm,
                &levels,
            );
            let packed = encode_sparse_quantized(8192, &indices, bits, norm, &levels);
            assert_eq!(rc.kind().unwrap(), KIND_ENTROPY);
            assert!(
                rc.len() < packed.len(),
                "sparse bits {bits}: entropy {} >= packed {}",
                rc.len(),
                packed.len()
            );
        }
    }

    #[test]
    fn entropy_sparse_roundtrip_matches_packed_decode() {
        let indices = vec![3u32, 10, 11, 99, 512, 513, 2000];
        let levels = vec![1, -3, 3, 2, 0, -1, 7];
        let rc = encode_sparse_quantized_rc(
            &mut RansEncoder::default(),
            4096,
            &indices,
            4,
            1.5,
            &levels,
        );
        let packed = encode_sparse_quantized(4096, &indices, 4, 1.5, &levels);
        let a = rc.decode().unwrap().into_sparse().unwrap();
        let b = packed.decode().unwrap().into_sparse().unwrap();
        assert_eq!(a.indices(), b.indices());
        assert_eq!(a.dense_len(), b.dense_len());
        assert!(a
            .values()
            .iter()
            .zip(b.values().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn entropy_falls_back_to_bitpacked_instead_of_expanding() {
        // Incompressible levels: a full-range pseudo-random pattern at a
        // tiny length, where the rANS stream's two 4-byte states alone outweigh
        // the packed payload. The encoder must ship the packed kind.
        let levels: Vec<i32> = (0..8).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let w = encode_quantized_rc(&mut RansEncoder::default(), 8, 2, 1.0, &levels);
        assert_eq!(w.kind().unwrap(), KIND_QUANTIZED);
        assert_eq!(
            w.as_bytes(),
            encode_quantized(8, 2, 1.0, &levels).as_bytes()
        );

        let indices: Vec<u32> = (0..4).collect();
        let w = encode_sparse_quantized_rc(
            &mut RansEncoder::default(),
            100,
            &indices,
            2,
            1.0,
            &[1, -1, 1, -1],
        );
        assert_eq!(w.kind().unwrap(), KIND_SPARSE_QUANTIZED);

        // The never-expand property across widths and lengths: the entropy
        // entry point is never larger than the bit-packed encoder's output.
        for bits in [2u8, 5, 9] {
            for n in [0usize, 1, 7, 100, 2048] {
                let (norm, levels) = qsgd_levels_for(&gradient_like(n), bits);
                let rc = encode_quantized_rc(&mut RansEncoder::default(), n, bits, norm, &levels);
                let packed = encode_quantized(n, bits, norm, &levels);
                assert!(
                    rc.len() <= packed.len(),
                    "bits {bits} n {n}: {} > {}",
                    rc.len(),
                    packed.len()
                );
            }
        }
    }

    #[test]
    fn entropy_golden_bytes_are_pinned() {
        // Golden fixture for the kind-6 layout: header, flags, bits, norm,
        // (nnz,) the rANS stream's length, the stream, the raw bits. Any
        // drift in the models' initialisation, adaptation schedule or floor,
        // the state interleave, or the payload order changes these bytes and
        // must be a deliberate format bump.
        let levels: Vec<i32> = (0..64)
            .map(|i| match i % 16 {
                0 => 1,
                8 => -1,
                _ => 0,
            })
            .collect();
        let w = encode_quantized_rc(&mut RansEncoder::default(), 64, 4, 2.0, &levels);
        assert_eq!(w.kind().unwrap(), KIND_ENTROPY);
        let b = w.as_bytes();
        assert_eq!(&b[0..2], &WIRE_MAGIC);
        assert_eq!(b[2], WIRE_VERSION);
        assert_eq!(b[3], 6, "the entropy kind byte");
        assert_eq!(b[4], 64, "dense_len varint");
        assert_eq!(b[5], 0, "flags: dense");
        assert_eq!(b[6], 4, "bits");
        assert_eq!(&b[7..11], &2.0f32.to_le_bytes());
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("dense stream: {:02X?}", &b[11..]);
        }
        assert_eq!(
            &b[11..],
            &[
                // 15 stream bytes: two u32 states, seven renormalisation bytes.
                0x0F, 0x12, 0x13, 0x52, 0x01, 0xF4, 0x81, 0x60, 0x1A, 0x23, 0x1E, 0xC6, 0x86, 0xED,
                0xE2, 0x54, // Raw section: eight signs, + then − alternating.
                0xAA,
            ],
            "entropy-coded dense payload drifted"
        );

        let indices: Vec<u32> = (0..100u32).map(|i| i * 9 + (i % 5)).collect();
        let slevels: Vec<i32> = (0..100)
            .map(|i| match i % 5 {
                0 => 1,
                3 => -1,
                _ => 1,
            })
            .collect();
        let sw = encode_sparse_quantized_rc(
            &mut RansEncoder::default(),
            1000,
            &indices,
            4,
            1.0,
            &slevels,
        );
        assert_eq!(sw.kind().unwrap(), KIND_ENTROPY);
        let sb = sw.as_bytes();
        assert_eq!(sb[3], 6, "the entropy kind byte");
        assert_eq!(&sb[4..6], &[0xE8, 0x07], "dense_len 1000 varint");
        assert_eq!(sb[6], 1, "flags: sparse");
        assert_eq!(sb[7], 4, "bits");
        assert_eq!(&sb[8..12], &1.0f32.to_le_bytes());
        assert_eq!(sb[12], 100, "nnz varint");
        if std::env::var("GOLDEN_PRINT").is_ok() {
            println!("sparse stream: {:02X?}", &sb[13..]);
        }
        assert_eq!(
            &sb[13..],
            &[
                // 25 stream bytes, then 48 bytes of gap low bits and signs.
                0x19, 0x12, 0x82, 0x73, 0x07, 0x12, 0x1C, 0x57, 0x01, 0xB8, 0xFB, 0x5B, 0x3F, 0x1A,
                0x94, 0xD5, 0xBA, 0x5E, 0x5B, 0xB6, 0x19, 0xDB, 0x61, 0x69, 0x0F, 0xCB, 0x44, 0x54,
                0x22, 0xA2, 0x12, 0x11, 0x95, 0x88, 0xA8, 0x44, 0x44, 0x25, 0x22, 0x2A, 0x11, 0x51,
                0x89, 0x88, 0x4A, 0x44, 0x54, 0x22, 0xA2, 0x12, 0x11, 0x95, 0x88, 0xA8, 0x44, 0x44,
                0x25, 0x22, 0x2A, 0x11, 0x51, 0x89, 0x88, 0x4A, 0x44, 0x54, 0x22, 0xA2, 0x12, 0x11,
                0x95, 0x88, 0xA8, 0x00,
            ],
            "entropy-coded sparse payload drifted"
        );

        // Byte 5 — the retired range coder's kind — is not an alias of the
        // new kind: the same payload under it is refused outright.
        for frame in [b, sb] {
            let mut old = frame.to_vec();
            old[3] = 5;
            assert_eq!(
                WireUpdate::from_bytes(old).decode(),
                Err(WireError::UnknownKind(5))
            );
        }
    }

    #[test]
    fn entropy_rejects_crafted_and_truncated_streams() {
        // dense_len 100 keeps the varint to one byte, so the flags and bits
        // offsets below are fixed at 5 and 6.
        let (norm, levels) = qsgd_levels_for(&gradient_like(100), 4);
        let w = encode_quantized_rc(&mut RansEncoder::default(), 100, 4, norm, &levels);
        assert_eq!(w.kind().unwrap(), KIND_ENTROPY);

        // Truncating at any prefix — header, rANS stream or raw bits — is a
        // hard error, for the dense and the sparse flavour alike.
        let indices: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let sw = encode_sparse_quantized_rc(
            &mut RansEncoder::default(),
            300,
            &indices,
            4,
            norm,
            &levels,
        );
        assert_eq!(sw.kind().unwrap(), KIND_ENTROPY);
        for frame in [&w, &sw] {
            for cut in 0..frame.len() {
                let t = WireUpdate::from_bytes(frame.as_bytes()[..cut].to_vec());
                assert_eq!(t.decode(), Err(WireError::Truncated), "cut at {cut}");
            }
            // So is anything after the end: the raw section is consumed
            // to the byte.
            let mut padded = frame.as_bytes().to_vec();
            padded.push(0);
            assert_eq!(
                WireUpdate::from_bytes(padded).decode(),
                Err(WireError::Corrupt("trailing bits in raw section"))
            );
        }

        // A stream length that claims the raw section's bytes too leaves the
        // rANS decoder with bytes it never needed.
        let mut raw = w.as_bytes().to_vec();
        assert!((raw[11] as usize) < raw.len() - 12, "a raw section follows");
        raw[11] = (raw.len() - 12) as u8;
        assert!(matches!(
            WireUpdate::from_bytes(raw).decode(),
            Err(WireError::Truncated | WireError::Corrupt(_))
        ));

        // Unknown flag bits are corrupt, not silently ignored.
        let mut raw = w.as_bytes().to_vec();
        raw[5] = 0x82;
        assert_eq!(
            WireUpdate::from_bytes(raw).decode(),
            Err(WireError::Corrupt("unknown entropy flags"))
        );

        // Out-of-range bit width.
        let mut raw = w.as_bytes().to_vec();
        raw[6] = 17;
        assert_eq!(
            WireUpdate::from_bytes(raw).decode(),
            Err(WireError::Corrupt("bits out of range"))
        );

        // Sparse flavour: nnz larger than dense_len is corrupt.
        let mut buf = header(KIND_ENTROPY, 10, 0);
        buf.push(1); // flags: sparse
        buf.push(4); // bits
        buf.extend_from_slice(&1.0f32.to_le_bytes()); // norm
        put_varint(&mut buf, 11); // nnz > dense_len
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Corrupt("nnz exceeds dense length"))
        );

        // Arbitrary byte soup in the stream either decodes to in-range
        // levels or errors — never panics, never over-allocates. (The gap
        // decoder can produce an out-of-range index, which must be Corrupt.)
        for seed in 0u8..32 {
            let mut buf = header(KIND_ENTROPY, 64, 0);
            buf.push(1); // flags: sparse
            buf.push(4); // bits
            buf.extend_from_slice(&1.0f32.to_le_bytes()); // norm
            put_varint(&mut buf, 32); // nnz
            put_varint(&mut buf, 16); // rANS stream length; 8 raw bytes follow
            let mut soup: Vec<u8> = (0u8..24)
                .map(|i| seed.wrapping_mul(37).wrapping_add(i.wrapping_mul(91)))
                .collect();
            // Both initial states inside the normalised interval, so the
            // soup reaches the symbol decoder.
            for state in [3, 7] {
                soup[state] = soup[state] & 0x7F | 0x01;
            }
            buf.extend_from_slice(&soup);
            match WireUpdate::from_bytes(buf).decode() {
                Ok(update) => {
                    let s = update.into_sparse().unwrap();
                    assert!(s.indices().iter().all(|&i| i < 64));
                }
                Err(WireError::Truncated | WireError::Corrupt(_)) => {}
                Err(e) => panic!("unexpected error class: {e}"),
            }
        }
    }

    #[test]
    fn segmented_frames_carry_entropy_parts() {
        let (norm, levels) = qsgd_levels_for(&gradient_like(512), 4);
        let rc = encode_quantized_rc(&mut RansEncoder::default(), 512, 4, norm, &levels);
        assert_eq!(rc.kind().unwrap(), KIND_ENTROPY);
        let sparse = encode_sparse(&SparseUpdate::new(vec![2], vec![9.0], 4));
        let w = encode_segmented(516, &[sparse, rc.clone()]);
        let s = w.decode().unwrap().into_sparse().unwrap();
        assert_eq!(s.dense_len(), 516);
        assert_eq!(s.nnz(), 1 + 512);
        assert_eq!(w.segment_byte_lens().unwrap()[1], rc.len());
    }

    #[test]
    fn decode_rejects_out_of_range_index() {
        // Hand-built sparse buffer with an index beyond dense_len.
        let mut buf = header(KIND_SPARSE, 4, 0);
        put_varint(&mut buf, 1); // nnz
        put_varint(&mut buf, 9); // index 9 >= 4
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            WireUpdate::from_bytes(buf).decode(),
            Err(WireError::Corrupt("index out of range"))
        );
    }
}
