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
//!                      2 sparse+quantized, 3 dense)
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
//! [varint]             nnz
//! [varint × nnz]       delta-encoded indices
//! [u8]                 bits per coordinate
//! [f32 LE]             L2 norm of the retained values
//! [packed]             nnz × bits, MSB-first
//! ── kind 3 (dense) ───────────────────────────────────────────────
//! [f32 LE × dense_len] values (ratio-1.0 uploads: no index overhead)
//! ── kind 4 (segmented) ───────────────────────────────────────────
//! [varint]             number of segments (≥ 1)
//! [per segment]        varint byte length, then a complete nested
//!                      wire update (any kind except segmented) whose
//!                      dense lengths must tile dense_len exactly
//! ── kind 5 (entropy) ─────────────────────────────────────────────
//! [u8]                 flags (bit 0: sparse — indices precede levels)
//! [u8]                 bits per coordinate (sign + level), 2..=16
//! [f32 LE]             L2 norm of the coded values
//! [varint]             nnz (present only when the sparse flag is set)
//! [rc stream]          range-coded payload to the end of the buffer:
//!                      index gaps first (sparse only; bit-length via an
//!                      adaptive 5-bit tree + direct low bits), then per
//!                      coordinate an adaptive magnitude tree (context:
//!                      previous magnitude zero/non-zero) and, for
//!                      non-zero magnitudes, an adaptive sign bit
//!                      (context: previous coded sign)
//! ```
//!
//! Varints are LEB128 over `u64`. Each packed coordinate stores a sign bit
//! followed by `bits − 1` magnitude-level bits; the dequantized value is
//! `sign · norm · level / max_level` with `max_level = 2^(bits−1) − 1`.
//! Kind 5 carries the same `(norm, signed level)` information as kinds 1/2
//! but entropy-codes it with the adaptive range coder in [`crate::rc`]; the
//! [`encode_quantized_rc`] / [`encode_sparse_quantized_rc`] entry points fall
//! back to the bit-packed kinds whenever the coded stream would not be
//! strictly smaller, so the entropy path never expands an update.
//!
//! The header bytes are pinned by a golden-bytes test so accidental format
//! drift fails CI; bump [`WIRE_VERSION`] for any intentional layout change.

use crate::quantize::max_level_for_bits;
use crate::rc::{BitTree, RangeDecoder, RangeEncoder, PROB_INIT};
use crate::sparse::SparseUpdate;
use crate::update::CompressedUpdate;
use bytes::{BufMut, Bytes, BytesMut};

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
/// Payload kind tag: range-coded quantized levels (optionally with sparse
/// indices). Same information as kinds 1/2, entropy-coded; produced only
/// when strictly smaller than the equivalent bit-packed buffer.
pub const KIND_ENTROPY: u8 = 5;

/// Allocation guard for the entropy kind: one coded coordinate costs at
/// least one adaptive binary decision, and a decision consumes at least
/// `log2(2048/2017) ≈ 0.022` bits of the stream (the adaptive probabilities
/// are bounded away from certainty), so no valid stream packs more than
/// ~372 coordinates into a byte. A declared count above this bound is
/// rejected before any allocation.
const MAX_DECISIONS_PER_BYTE: usize = 512;

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
    bytes: Bytes,
}

impl WireUpdate {
    /// Wrap raw bytes (validated lazily by [`WireUpdate::decode`]).
    pub fn from_bytes(bytes: Bytes) -> Self {
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

fn header(kind: u8, dense_len: usize, capacity_hint: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(4 + 10 + capacity_hint);
    buf.put_slice(&WIRE_MAGIC);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(kind);
    put_varint(&mut buf, dense_len as u64);
    buf
}

fn put_indices(buf: &mut BytesMut, indices: &[u32]) {
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
            buf.put_slice(&block[..fill]);
            fill = 0;
        }
    }
    buf.put_slice(&block[..fill]);
}

/// Append `values` as little-endian f32s in fixed 16-value blocks: one
/// bounds-checked append per block instead of per value, which is what lets
/// the dense and sparse encoders run at memcpy-like speed.
fn put_f32s(buf: &mut BytesMut, values: &[f32]) {
    let mut block = [0u8; 64];
    for chunk in values.chunks(16) {
        for (slot, &v) in block.chunks_exact_mut(4).zip(chunk) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(&block[..chunk.len() * 4]);
    }
}

/// Encode a sparse update as a `KIND_SPARSE` buffer.
pub fn encode_sparse(update: &SparseUpdate) -> WireUpdate {
    let mut buf = header(KIND_SPARSE, update.dense_len(), update.nnz() * 7);
    put_indices(&mut buf, update.indices());
    put_f32s(&mut buf, update.values());
    WireUpdate::from_bytes(buf.freeze())
}

/// Encode an uncompressed (ratio-1.0) update as a `KIND_DENSE` buffer: raw
/// f32 values with no per-coordinate index overhead.
pub fn encode_dense(values: &[f32]) -> WireUpdate {
    let mut buf = header(KIND_DENSE, values.len(), values.len() * 4);
    put_f32s(&mut buf, values);
    WireUpdate::from_bytes(buf.freeze())
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
    WireUpdate::from_bytes(buf.freeze())
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
    WireUpdate::from_bytes(buf.freeze())
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
        buf.put_slice(p.as_bytes());
    }
    WireUpdate::from_bytes(buf.freeze())
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

fn put_quantized_body(buf: &mut BytesMut, bits: u8, norm: f32, levels: &[i32]) {
    assert!((2..=16).contains(&bits), "bits must be in 2..=16");
    let max_level = max_level_for_bits(bits) as i32;
    buf.put_u8(bits);
    buf.put_f32_le(norm);
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
            buf.put_slice(&block[..fill]);
            fill = 0;
        }
    }
    if acc_bits > 0 {
        block[fill] = (acc << (8 - acc_bits)) as u8;
        fill += 1;
    }
    buf.put_slice(&block[..fill]);
}

/// Flag bit: the entropy payload carries sparse indices before the levels.
const ENTROPY_FLAG_SPARSE: u8 = 1;

/// Width of the adaptive tree coding index-gap bit-lengths (symbols 0..=31
/// cover every possible u32 gap).
const GAP_TREE_BITS: u32 = 5;

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Range-code a non-negative number as an adaptive bit-length symbol plus
/// the direct bits below the (implicit) leading one of `x + 1`.
fn rc_encode_num(enc: &mut RangeEncoder, tree: &mut BitTree, x: u32) {
    let y = x as u64 + 1;
    let bitlen = 64 - y.leading_zeros(); // 1..=32
    tree.encode(enc, bitlen - 1);
    enc.encode_direct((y & ((1u64 << (bitlen - 1)) - 1)) as u32, bitlen - 1);
}

fn rc_decode_num(dec: &mut RangeDecoder<'_>, tree: &mut BitTree) -> Result<u32, WireError> {
    let bitlen = tree.decode(dec)? + 1;
    let low = dec.decode_direct(bitlen - 1)? as u64;
    let y = (1u64 << (bitlen - 1)) | low;
    Ok((y - 1) as u32)
}

/// Range-code signed QSGD levels: per coordinate an adaptive magnitude tree
/// (two contexts keyed on whether the previous magnitude was non-zero) and,
/// for non-zero magnitudes only, an adaptive sign bit (context: previous
/// coded sign). A zero magnitude carries no sign — the bit-packed kinds
/// decode `±0` to level 0 either way, so dropping it is lossless.
fn rc_encode_levels(enc: &mut RangeEncoder, bits: u8, levels: &[i32]) {
    let tree_bits = bits as u32 - 1;
    let mut mag_trees = [BitTree::new(tree_bits), BitTree::new(tree_bits)];
    let mut sign_probs = [PROB_INIT; 2];
    let max_level = max_level_for_bits(bits);
    let mut ctx = 0usize;
    let mut prev_sign = 0usize;
    for &l in levels {
        let mag = l.unsigned_abs().min(max_level);
        mag_trees[ctx].encode(enc, mag);
        if mag != 0 {
            let neg = l < 0;
            enc.encode_bit(&mut sign_probs[prev_sign], neg);
            prev_sign = neg as usize;
        }
        ctx = (mag != 0) as usize;
    }
}

/// Decode `count` range-coded levels straight to dequantized values (same
/// fused `norm * level / max_level` arithmetic as the bit-packed decoder).
fn rc_decode_values(
    dec: &mut RangeDecoder<'_>,
    bits: u8,
    norm: f32,
    count: usize,
    cap_hint: usize,
) -> Result<Vec<f32>, WireError> {
    let tree_bits = bits as u32 - 1;
    let mut mag_trees = [BitTree::new(tree_bits), BitTree::new(tree_bits)];
    let mut sign_probs = [PROB_INIT; 2];
    let s = max_level_for_bits(bits) as f32;
    let mut values = Vec::with_capacity(count.min(cap_hint));
    let mut ctx = 0usize;
    let mut prev_sign = 0usize;
    for _ in 0..count {
        let mag = mag_trees[ctx].decode(dec)? as i32;
        let level = if mag != 0 {
            let neg = dec.decode_bit(&mut sign_probs[prev_sign])?;
            prev_sign = neg as usize;
            if neg {
                -mag
            } else {
                mag
            }
        } else {
            0
        };
        ctx = (mag != 0) as usize;
        values.push(norm * level as f32 / s);
    }
    Ok(values)
}

/// Encode a dense quantized vector with the adaptive range coder, falling
/// back to the bit-packed [`KIND_QUANTIZED`] layout whenever the coded
/// stream would not be strictly smaller — the entropy path never expands.
pub fn encode_quantized_rc(dense_len: usize, bits: u8, norm: f32, levels: &[i32]) -> WireUpdate {
    assert_eq!(levels.len(), dense_len, "one level per dense coordinate");
    let _ = max_level_for_bits(bits); // validates the range
    let mut enc = RangeEncoder::new();
    rc_encode_levels(&mut enc, bits, levels);
    let stream = enc.finish();
    let shared = 4 + varint_len(dense_len as u64);
    let entropy_total = shared + 2 + 4 + stream.len();
    let packed_total = shared + 1 + 4 + (dense_len * bits as usize).div_ceil(8);
    if entropy_total >= packed_total {
        return encode_quantized(dense_len, bits, norm, levels);
    }
    let mut buf = header(KIND_ENTROPY, dense_len, 6 + stream.len());
    buf.put_u8(0);
    buf.put_u8(bits);
    buf.put_f32_le(norm);
    buf.put_slice(&stream);
    WireUpdate::from_bytes(buf.freeze())
}

/// Encode a sparsified-then-quantized update with the adaptive range coder
/// (gaps and levels share one stream), falling back to the bit-packed
/// [`KIND_SPARSE_QUANTIZED`] layout whenever that would be no larger.
pub fn encode_sparse_quantized_rc(
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
    let _ = max_level_for_bits(bits); // validates the range
    let mut enc = RangeEncoder::new();
    let mut gap_tree = BitTree::new(GAP_TREE_BITS);
    let mut prev = 0u64;
    let mut packed_index_bytes = 0usize;
    for (pos, &i) in indices.iter().enumerate() {
        let gap = if pos == 0 {
            i as u64
        } else {
            i as u64 - prev - 1
        };
        rc_encode_num(&mut enc, &mut gap_tree, gap as u32);
        packed_index_bytes += varint_len(if pos == 0 { i as u64 } else { i as u64 - prev });
        prev = i as u64;
    }
    rc_encode_levels(&mut enc, bits, levels);
    let stream = enc.finish();
    let nnz = indices.len();
    let shared = 4 + varint_len(dense_len as u64) + varint_len(nnz as u64);
    let entropy_total = shared + 2 + 4 + stream.len();
    let packed_total = shared + packed_index_bytes + 1 + 4 + (nnz * bits as usize).div_ceil(8);
    if entropy_total >= packed_total {
        return encode_sparse_quantized(dense_len, indices, bits, norm, levels);
    }
    let mut buf = header(KIND_ENTROPY, dense_len, 8 + stream.len());
    buf.put_u8(ENTROPY_FLAG_SPARSE);
    buf.put_u8(bits);
    buf.put_f32_le(norm);
    put_varint(&mut buf, nnz as u64);
    buf.put_slice(&stream);
    WireUpdate::from_bytes(buf.freeze())
}

/// Decode the body of a [`KIND_ENTROPY`] buffer. The coordinate count is
/// bounded by [`MAX_DECISIONS_PER_BYTE`] before any allocation, and the
/// range decoder errors with [`WireError::Truncated`] the moment the stream
/// runs dry — a crafted buffer can neither over-allocate nor fabricate data.
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
    let stream = &b[*cur..];
    if count > stream.len().saturating_mul(MAX_DECISIONS_PER_BYTE) {
        return Err(WireError::Truncated);
    }
    // Adversarial cap on up-front reservations: grow amortized beyond it.
    let cap_hint = stream.len().saturating_mul(8).max(64);
    let mut dec = RangeDecoder::new(stream)?;
    *cur = b.len();
    if sparse {
        let mut gap_tree = BitTree::new(GAP_TREE_BITS);
        let mut indices = Vec::with_capacity(count.min(cap_hint));
        let mut prev = 0u64;
        for pos in 0..count {
            let gap = rc_decode_num(&mut dec, &mut gap_tree)? as u64;
            let idx = if pos == 0 { gap } else { prev + gap + 1 };
            if idx >= dense_len as u64 {
                return Err(WireError::Corrupt("index out of range"));
            }
            indices.push(idx as u32);
            prev = idx;
        }
        let values = rc_decode_values(&mut dec, bits, norm, count, cap_hint)?;
        Ok(CompressedUpdate::Sparse(SparseUpdate::new(
            indices, values, dense_len,
        )))
    } else {
        let values = rc_decode_values(&mut dec, bits, norm, count, cap_hint)?;
        Ok(CompressedUpdate::Quantized { values })
    }
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
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
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
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let b = buf.freeze();
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
            WireUpdate::from_bytes(Bytes::from_static(&[1, 2])).decode(),
            Err(WireError::Truncated)
        );
        assert_eq!(
            WireUpdate::from_bytes(Bytes::from_static(&[0, 0, 1, 0, 0])).decode(),
            Err(WireError::BadMagic)
        );
        assert_eq!(
            WireUpdate::from_bytes(Bytes::from_static(&[0xB3, 0xF1, 99, 0, 0])).decode(),
            Err(WireError::UnsupportedVersion(99))
        );
        assert_eq!(
            WireUpdate::from_bytes(Bytes::from_static(&[0xB3, 0xF1, 1, 9, 0])).decode(),
            Err(WireError::UnknownKind(9))
        );
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let s = SparseUpdate::new(vec![0, 1, 2], vec![1.0, 2.0, 3.0], 8);
        let w = encode_sparse(&s);
        let cut = WireUpdate::from_bytes(Bytes::copy_from_slice(&w.as_bytes()[..w.len() - 5]));
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
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_QUANTIZED);
        put_varint(&mut buf, u32::MAX as u64); // dense_len
        buf.put_u8(8); // bits
        buf.put_f32_le(1.0); // norm
        buf.put_u8(0xAB); // one stray payload byte
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Truncated)
        );

        // Sparse payload declaring a huge dense_len and nnz with a tiny body.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_SPARSE);
        put_varint(&mut buf, u32::MAX as u64); // dense_len
        put_varint(&mut buf, (u32::MAX - 1) as u64); // nnz
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Truncated)
        );

        // Dense payload declaring more values than the buffer holds.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_DENSE);
        put_varint(&mut buf, u32::MAX as u64);
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Truncated)
        );
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
                let mut buf = BytesMut::new();
                buf.put_slice(&WIRE_MAGIC);
                buf.put_u8(WIRE_VERSION);
                buf.put_u8(kind);
                put_varint(&mut buf, dense_len);
                // Enough trailing bytes that a truncating decoder would have
                // happily read a small body instead of erroring.
                buf.put_slice(&[0u8; 64]);
                assert_eq!(
                    WireUpdate::from_bytes(buf.freeze()).decode(),
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
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_SEGMENTED);
        put_varint(&mut buf, 3);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, inner.len() as u64);
        buf.put_slice(inner.as_bytes());
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Corrupt("nested segmented payload"))
        );

        // Zero segments.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_SEGMENTED);
        put_varint(&mut buf, 3);
        put_varint(&mut buf, 0);
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Corrupt("segmented update with no segments"))
        );

        // A declared segment count the buffer cannot hold: must error before
        // any allocation.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_SEGMENTED);
        put_varint(&mut buf, 3);
        put_varint(&mut buf, u32::MAX as u64);
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Truncated)
        );

        // A segment length prefix pointing past the end of the buffer.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_SEGMENTED);
        put_varint(&mut buf, 3);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 1000);
        buf.put_u8(0xAB);
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Truncated)
        );

        // Truncating the last segment mid-payload is caught by the nested
        // decode.
        let full = encode_segmented(3, &[part]);
        let cut =
            WireUpdate::from_bytes(Bytes::copy_from_slice(&full.as_bytes()[..full.len() - 3]));
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
            let rc = encode_quantized_rc(levels.len(), bits, norm, &levels);
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
        // sparsify-then-quantize composition — the range-coded buffer is
        // strictly smaller than the bit-packed one.
        for bits in [2u8, 4, 6, 8] {
            let (norm, levels) = qsgd_levels_for(&gradient_like(8192), bits);
            let rc = encode_quantized_rc(levels.len(), bits, norm, &levels);
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
            let rc = encode_sparse_quantized_rc(8192, &indices, bits, norm, &levels);
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
        let rc = encode_sparse_quantized_rc(4096, &indices, 4, 1.5, &levels);
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
        // tiny length, where the range coder's 5-byte flush alone outweighs
        // the packed payload. The encoder must ship the packed kind.
        let levels: Vec<i32> = (0..8).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let w = encode_quantized_rc(8, 2, 1.0, &levels);
        assert_eq!(w.kind().unwrap(), KIND_QUANTIZED);
        assert_eq!(
            w.as_bytes(),
            encode_quantized(8, 2, 1.0, &levels).as_bytes()
        );

        let indices: Vec<u32> = (0..4).collect();
        let w = encode_sparse_quantized_rc(100, &indices, 2, 1.0, &[1, -1, 1, -1]);
        assert_eq!(w.kind().unwrap(), KIND_SPARSE_QUANTIZED);

        // The never-expand property across widths and lengths: the entropy
        // entry point is never larger than the bit-packed encoder's output.
        for bits in [2u8, 5, 9] {
            for n in [0usize, 1, 7, 100, 2048] {
                let (norm, levels) = qsgd_levels_for(&gradient_like(n), bits);
                let rc = encode_quantized_rc(n, bits, norm, &levels);
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
        // Golden fixture for the kind-5 layout: header, flags, bits, norm,
        // then the range-coded stream. Any drift in the range coder's
        // initialisation, adaptation rate, or payload order changes these
        // bytes and must be a deliberate format bump.
        let levels: Vec<i32> = (0..64)
            .map(|i| match i % 16 {
                0 => 1,
                8 => -1,
                _ => 0,
            })
            .collect();
        let w = encode_quantized_rc(64, 4, 2.0, &levels);
        assert_eq!(w.kind().unwrap(), KIND_ENTROPY);
        let b = w.as_bytes();
        assert_eq!(&b[0..2], &WIRE_MAGIC);
        assert_eq!(b[2], WIRE_VERSION);
        assert_eq!(b[3], KIND_ENTROPY);
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
                0x00, 0x1F, 0xFF, 0xFC, 0x98, 0x7D, 0x5E, 0x56, 0x8D, 0x3C, 0x66, 0x76, 0xAA, 0xA7,
                0x4E, 0x15, 0xDA, 0x3D, 0x00,
            ],
            "range-coded stream drifted"
        );

        let indices: Vec<u32> = (0..100u32).map(|i| i * 9 + (i % 5)).collect();
        let slevels: Vec<i32> = (0..100)
            .map(|i| match i % 5 {
                0 => 1,
                3 => -1,
                _ => 1,
            })
            .collect();
        let sw = encode_sparse_quantized_rc(1000, &indices, 4, 1.0, &slevels);
        assert_eq!(sw.kind().unwrap(), KIND_ENTROPY);
        let sb = sw.as_bytes();
        assert_eq!(sb[3], KIND_ENTROPY);
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
                0x00, 0x00, 0xE6, 0xC5, 0xF7, 0x89, 0xB3, 0x01, 0x8D, 0xDD, 0x21, 0x54, 0xD0, 0x47,
                0x08, 0xCD, 0xD3, 0x2A, 0x41, 0xC7, 0x6D, 0x73, 0x2E, 0x4B, 0xA7, 0x51, 0x52, 0x14,
                0x98, 0x92, 0x03, 0xB6, 0x5A, 0x04, 0x42, 0x11, 0xCF, 0x6C, 0xED, 0xAB, 0xB8, 0x0B,
                0x92, 0x05, 0x0B, 0xAE, 0x0C, 0x6B, 0x3F, 0xF5, 0x6C, 0xD8, 0xA0, 0xAA, 0x23, 0x7B,
                0xF7, 0x39, 0x86, 0xB0, 0xB9, 0x27, 0x26, 0x45, 0xB2, 0xE7, 0x43, 0x36, 0xD9, 0xDF,
                0x64, 0xDD, 0xD6, 0xA7, 0x69, 0x58, 0x7F, 0x9E, 0x91, 0xA1, 0xFA, 0xAE, 0x21, 0x00,
            ],
            "range-coded sparse stream drifted"
        );
    }

    #[test]
    fn entropy_rejects_crafted_and_truncated_streams() {
        // dense_len 100 keeps the varint to one byte, so the flags and bits
        // offsets below are fixed at 5 and 6.
        let (norm, levels) = qsgd_levels_for(&gradient_like(100), 4);
        let w = encode_quantized_rc(100, 4, norm, &levels);
        assert_eq!(w.kind().unwrap(), KIND_ENTROPY);

        // Truncating anywhere inside the stream is a hard error.
        for cut in [5, 6, 10, 12, w.len() / 2, w.len() - 1] {
            let t = WireUpdate::from_bytes(Bytes::copy_from_slice(&w.as_bytes()[..cut]));
            assert_eq!(t.decode(), Err(WireError::Truncated), "cut at {cut}");
        }

        // Unknown flag bits are corrupt, not silently ignored.
        let mut raw = w.as_bytes().to_vec();
        raw[5] = 0x82;
        assert_eq!(
            WireUpdate::from_bytes(Bytes::from(raw)).decode(),
            Err(WireError::Corrupt("unknown entropy flags"))
        );

        // Out-of-range bit width.
        let mut raw = w.as_bytes().to_vec();
        raw[6] = 17;
        assert_eq!(
            WireUpdate::from_bytes(Bytes::from(raw)).decode(),
            Err(WireError::Corrupt("bits out of range"))
        );

        // A huge declared dense_len with a tiny stream must be rejected by
        // the decisions-per-byte bound before any allocation happens.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_ENTROPY);
        put_varint(&mut buf, u32::MAX as u64); // dense_len
        buf.put_u8(0); // flags: dense
        buf.put_u8(4); // bits
        buf.put_f32_le(1.0); // norm
        buf.put_slice(&[0xAB; 8]); // tiny stream
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Truncated)
        );

        // Sparse flavour: nnz larger than dense_len is corrupt.
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_ENTROPY);
        put_varint(&mut buf, 10); // dense_len
        buf.put_u8(1); // flags: sparse
        buf.put_u8(4); // bits
        buf.put_f32_le(1.0); // norm
        put_varint(&mut buf, 11); // nnz > dense_len
        buf.put_slice(&[0u8; 16]);
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Corrupt("nnz exceeds dense length"))
        );

        // Arbitrary byte soup in the stream either decodes to in-range
        // levels or errors — never panics, never over-allocates. (The gap
        // decoder can produce an out-of-range index, which must be Corrupt.)
        for seed in 0u8..32 {
            let mut buf = BytesMut::new();
            buf.put_slice(&WIRE_MAGIC);
            buf.put_u8(WIRE_VERSION);
            buf.put_u8(KIND_ENTROPY);
            put_varint(&mut buf, 64); // dense_len
            buf.put_u8(1); // flags: sparse
            buf.put_u8(4); // bits
            buf.put_f32_le(1.0); // norm
            put_varint(&mut buf, 32); // nnz
            let soup: Vec<u8> = (0u8..24)
                .map(|i| seed.wrapping_mul(37).wrapping_add(i.wrapping_mul(91)))
                .collect();
            buf.put_slice(&soup);
            match WireUpdate::from_bytes(buf.freeze()).decode() {
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
        let rc = encode_quantized_rc(512, 4, norm, &levels);
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
        let mut buf = BytesMut::new();
        buf.put_slice(&WIRE_MAGIC);
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(KIND_SPARSE);
        put_varint(&mut buf, 4); // dense_len
        put_varint(&mut buf, 1); // nnz
        put_varint(&mut buf, 9); // index 9 >= 4
        buf.put_f32_le(1.0);
        assert_eq!(
            WireUpdate::from_bytes(buf.freeze()).decode(),
            Err(WireError::Corrupt("index out of range"))
        );
    }
}
