//! No-panic mutation test for the entropy wire kind.
//!
//! Hostile bytes must be *rejected*: never a panic, never an allocation out
//! of proportion to the frame, and — for a frame cut short at any prefix —
//! never an update. A deterministic [`Xoshiro256`]-driven mutator works over
//! a corpus of sparse, dense and `Segmented`-nested [`KIND_ENTROPY`] frames:
//! truncation at every prefix, every single-bit flip, and 20,000 random
//! mutations (bit flips, byte insert / delete, varint splices at the frame's
//! length fields and at random offsets, cross-overs between corpus frames).
//! Every decode runs under `catch_unwind` with this thread's allocation
//! counter armed. An input that breaks the decoder gets a named case below,
//! next to the fix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::catch_unwind;

use fl_compress::rans::RansEncoder;
use fl_compress::wire::{
    encode_quantized_rc, encode_segmented, encode_sparse, encode_sparse_quantized_rc, put_varint,
    read_varint, KIND_ENTROPY, KIND_SEGMENTED,
};
use fl_compress::{CompressedUpdate, SparseUpdate, WireError, WireUpdate};
use fl_tensor::rng::{Rng, Xoshiro256};

// Per-thread, const-initialised and destructor-free, as in
// `crates/core/tests/alloc_growth.rs`: the harness runs tests concurrently and
// each must see only its own traffic.
thread_local! {
    /// Bytes this thread has requested from the allocator since the last reset.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every operation is `System`'s; the counter is the only addition.
// `realloc` stays on the default implementation, which goes through `alloc`
// and so counts a grown buffer's full new size. `try_with` lets an allocation
// during thread teardown skip the counter instead of panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes a decode may request per unit of `max(frame length, coordinates
/// decoded)`: 8 bytes per coordinate (index + value), doubled by amortised
/// growth, again for a `Segmented` splice, with room for the up-front
/// reservation of a frame that then fails.
const BYTES_PER_UNIT: usize = 128;

/// QSGD-like signed levels: mostly small, a few large, about half negative.
fn levels(rng: &mut Xoshiro256, n: usize, max_level: i32) -> Vec<i32> {
    (0..n)
        .map(|_| {
            let r = rng.next_f32();
            let mag = ((r * r * r * r) * (max_level + 1) as f32) as i32;
            if rng.next_f32() < 0.5 {
                -mag.min(max_level)
            } else {
                mag.min(max_level)
            }
        })
        .collect()
}

fn sparse_frame(rng: &mut Xoshiro256, dense_len: usize, nnz: usize, bits: u8) -> WireUpdate {
    let mut indices: Vec<u32> = (0..dense_len as u32).collect();
    rng.shuffle(&mut indices);
    indices.truncate(nnz);
    indices.sort_unstable();
    let levels = levels(rng, nnz, (1 << (bits - 1)) - 1);
    let w = encode_sparse_quantized_rc(
        &mut RansEncoder::default(),
        dense_len,
        &indices,
        bits,
        0.75,
        &levels,
    );
    assert_eq!(w.kind(), Ok(KIND_ENTROPY), "corpus frame fell back");
    w
}

fn dense_frame(rng: &mut Xoshiro256, dense_len: usize, bits: u8) -> WireUpdate {
    let levels = levels(rng, dense_len, (1 << (bits - 1)) - 1);
    let w = encode_quantized_rc(&mut RansEncoder::default(), dense_len, bits, 1.5, &levels);
    assert_eq!(w.kind(), Ok(KIND_ENTROPY), "corpus frame fell back");
    w
}

/// The corpus: both flavours, both magnitude codings (the level itself at
/// 4 bits, bit-length class plus raw low bits at 8 and 16), and a
/// `Segmented` frame nesting entropy parts beside a plain sparse one.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = Xoshiro256::new(0xF1EE7);
    let sparse4 = sparse_frame(&mut rng, 4096, 300, 4);
    let sparse8 = sparse_frame(&mut rng, 70_000, 120, 8);
    let dense4 = dense_frame(&mut rng, 700, 4);
    let dense16 = dense_frame(&mut rng, 90, 16);
    let plain = encode_sparse(&SparseUpdate::new(vec![1, 5], vec![0.5, -2.0], 9));
    let segmented = encode_segmented(4096 + 9 + 700, &[sparse4.clone(), plain, dense4.clone()]);
    assert_eq!(segmented.kind(), Ok(KIND_SEGMENTED));
    [
        ("sparse4", sparse4),
        ("sparse8", sparse8),
        ("dense4", dense4),
        ("dense16", dense16),
        ("segmented", segmented),
    ]
    .into_iter()
    .map(|(name, w)| (name, w.as_bytes().to_vec()))
    .collect()
}

/// Offsets of the varint length fields of a well-formed frame: `dense_len`,
/// an entropy frame's `nnz` and stream length, a segmented frame's part count
/// and part lengths, and the same fields of every nested part.
fn length_fields(frame: &[u8], base: usize, out: &mut Vec<usize>) {
    let mut cur = 4;
    out.push(base + cur);
    read_varint(frame, &mut cur).unwrap();
    match frame[3] {
        KIND_ENTROPY => {
            let sparse = frame[cur] & 1 != 0;
            cur += 6;
            if sparse {
                out.push(base + cur);
                read_varint(frame, &mut cur).unwrap();
            }
            out.push(base + cur);
        }
        KIND_SEGMENTED => {
            out.push(base + cur);
            let parts = read_varint(frame, &mut cur).unwrap();
            for _ in 0..parts {
                out.push(base + cur);
                let len = read_varint(frame, &mut cur).unwrap() as usize;
                length_fields(&frame[cur..cur + len], base + cur, out);
                cur += len;
            }
        }
        _ => {}
    }
}

/// Replace the varint starting at `at` with the encoding of `value`.
fn splice_varint(frame: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut end = at;
    while end < frame.len() && frame[end] & 0x80 != 0 {
        end += 1;
    }
    let end = (end + 1).min(frame.len());
    let mut varint = bytes::BytesMut::new();
    put_varint(&mut varint, value);
    let varint = varint.freeze();
    [&frame[..at], &varint[..], &frame[end..]].concat()
}

/// Values worth putting in a length field.
const SPLICE_VALUES: [u64; 12] = [
    0,
    1,
    2,
    0x7F,
    0x80,
    0x3FFF,
    0x4000,
    1 << 20,
    u32::MAX as u64 - 1,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    u64::MAX,
];

#[derive(Default)]
struct Tally {
    decoded: usize,
    rejected: usize,
    panics: Vec<String>,
    over_budget: Vec<String>,
}

impl Tally {
    /// Decode `bytes` under `catch_unwind` and the allocation budget.
    fn decode(
        &mut self,
        what: &str,
        bytes: Vec<u8>,
    ) -> Option<Result<CompressedUpdate, WireError>> {
        let len = bytes.len();
        let wire = WireUpdate::from_bytes(bytes.into());
        REQUESTED.with(|c| c.set(0));
        let outcome = catch_unwind(|| wire.decode());
        let requested = REQUESTED.with(Cell::get);
        let Ok(result) = outcome else {
            self.panics
                .push(format!("{what}: {:02X?}", wire.as_bytes()));
            return None;
        };
        let coordinates = match &result {
            Ok(CompressedUpdate::Sparse(s)) => s.nnz(),
            Ok(CompressedUpdate::Quantized { values }) => values.len(),
            Err(_) => 0,
        };
        if requested > BYTES_PER_UNIT * len.max(coordinates).max(64) {
            self.over_budget.push(format!(
                "{what}: {requested} bytes requested for a {len}-byte frame \
                 ({coordinates} coordinates): {:02X?}",
                wire.as_bytes()
            ));
        }
        match result {
            Ok(_) => self.decoded += 1,
            Err(_) => self.rejected += 1,
        }
        Some(result)
    }

    fn assert_clean(&self) {
        assert!(
            self.panics.is_empty(),
            "{} decodes panicked, first: {}",
            self.panics.len(),
            self.panics[0]
        );
        assert!(
            self.over_budget.is_empty(),
            "{} decodes over the allocation budget, first: {}",
            self.over_budget.len(),
            self.over_budget[0]
        );
    }
}

#[test]
fn corpus_frames_decode_within_budget() {
    let mut tally = Tally::default();
    for (name, frame) in corpus() {
        assert!(
            matches!(tally.decode(name, frame), Some(Ok(_))),
            "{name}: the unmutated frame decodes"
        );
    }
    tally.assert_clean();
}

#[test]
fn a_frame_truncated_at_any_prefix_is_an_error() {
    let mut tally = Tally::default();
    for (name, frame) in corpus() {
        for cut in 0..frame.len() {
            let result = tally.decode(&format!("{name} cut at {cut}"), frame[..cut].to_vec());
            assert!(
                matches!(result, None | Some(Err(_))),
                "{name} cut at {cut} of {} decoded to an update",
                frame.len()
            );
        }
    }
    tally.assert_clean();
}

#[test]
fn every_single_bit_flip_is_decoded_or_rejected() {
    let mut tally = Tally::default();
    for (name, frame) in corpus() {
        // The rANS stream of a plain entropy frame checks itself (both
        // states must return to their origin): no flip inside it may decode.
        // Flips in the norm or the raw section are other valid updates.
        let stream = (frame[3] == KIND_ENTROPY).then(|| {
            let mut fields = Vec::new();
            length_fields(&frame, 0, &mut fields);
            let mut cur = *fields.last().expect("an entropy frame has fields");
            let len = read_varint(&frame, &mut cur).unwrap() as usize;
            cur..cur + len
        });
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let result = tally.decode(&format!("{name} bit {bit}"), flipped);
            if stream.as_ref().is_some_and(|s| s.contains(&(bit / 8))) {
                assert!(
                    matches!(result, None | Some(Err(_))),
                    "{name}: flipping bit {bit} of the rANS stream still decoded"
                );
            }
        }
    }
    tally.assert_clean();
    assert!(tally.decoded > 0 && tally.rejected > tally.decoded);
}

#[test]
fn length_field_splices_are_decoded_or_rejected() {
    let mut tally = Tally::default();
    for (name, frame) in corpus() {
        let mut fields = Vec::new();
        length_fields(&frame, 0, &mut fields);
        assert!(fields.len() >= 2, "{name}: found its length fields");
        for at in fields {
            for value in SPLICE_VALUES {
                let what = format!("{name} varint at {at} := {value}");
                tally.decode(&what, splice_varint(&frame, at, value));
            }
        }
    }
    tally.assert_clean();
}

#[test]
fn random_mutations_are_decoded_or_rejected() {
    let corpus = corpus();
    let mut rng = Xoshiro256::new(0x0BAD_F00D);
    let mut tally = Tally::default();
    for round in 0..20_000 {
        let (name, frame) = &corpus[rng.next_below(corpus.len())];
        let mut bytes = frame.clone();
        let mut what = format!("{name} round {round}:");
        for _ in 0..1 + rng.next_below(3) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.next_below(bytes.len());
            match rng.next_below(6) {
                0 => {
                    bytes[at] ^= 1 << rng.next_below(8);
                    what += &format!(" flip@{at}");
                }
                1 => {
                    bytes.insert(at, rng.next_u64() as u8);
                    what += &format!(" insert@{at}");
                }
                2 => {
                    bytes.remove(at);
                    what += &format!(" delete@{at}");
                }
                3 => {
                    let value = SPLICE_VALUES[rng.next_below(SPLICE_VALUES.len())];
                    bytes = splice_varint(&bytes, at, value);
                    what += &format!(" varint@{at}:={value}");
                }
                4 => {
                    bytes[at] = rng.next_u64() as u8;
                    what += &format!(" set@{at}");
                }
                _ => {
                    // Cross-over: this frame's head, another's tail.
                    let (_, other) = &corpus[rng.next_below(corpus.len())];
                    let tail = rng.next_below(other.len());
                    bytes.truncate(at);
                    bytes.extend_from_slice(&other[tail..]);
                    what += &format!(" cross@{at}/{tail}");
                }
            }
        }
        tally.decode(&what, bytes);
    }
    tally.assert_clean();
    assert_eq!(tally.decoded + tally.rejected, 20_000);
}
