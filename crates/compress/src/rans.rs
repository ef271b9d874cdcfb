//! Adaptive-CDF rANS — the entropy back end of the
//! [`KIND_ENTROPY`](crate::wire::KIND_ENTROPY) wire kind.
//!
//! Three pieces, all integer-only (the bytes cannot depend on the build
//! profile or the target CPU):
//!
//! * [`AdaptiveCdf`] — a multi-symbol adaptive model over at most `N` symbols.
//!   The cumulative frequencies live in a fixed `[u16; N]` so the decoder's
//!   symbol search (count the lanes `<= slot`) and the update (move every lane
//!   a fraction of the way to its target) are straight-line vector code. The
//!   scale is [`SCALE_BITS`] = 15 bits. The update is
//!   `lane += (target − lane) >> rate`, where the target CDF puts
//!   [`PROB_FLOOR`] on every symbol except the one just coded; because the
//!   floor is part of the targets (and of the initial uniform CDF) no symbol's
//!   frequency ever drops below it, so the coder needs no escape path and the
//!   wire decoder can bound the symbols a byte may hold. `rate` starts at 4 and
//!   steps to 5 and 6 as the model has seen [`RATE_STEPS`] symbols: fast while
//!   it knows nothing, precise once it does.
//! * Two interleaved 32-bit rANS states ([`RANS_L`] = 2^23, byte
//!   renormalisation) sharing one byte stream: symbol `k` of a frame is coded
//!   on state `k & 1`, so consecutive symbols — the index-gap class and the
//!   magnitude of one coordinate — sit on independent dependency chains.
//!   rANS is last-in-first-out, so [`RansEncoder`] records `(start, freq)` per
//!   symbol while the models adapt *forward*, then codes the records in
//!   reverse; [`RansDecoder`] adapts forward as it reads. Both final decoder
//!   states must return to [`RANS_L`] and the stream must be consumed exactly
//!   ([`RansDecoder::finish`]) — a 46-bit check that the bytes are the ones
//!   the encoder wrote.
//! * A raw bit section ([`RansEncoder::raw`] / [`BitReader`]) for bits that
//!   modelling cannot shrink: the low bits under a bit-length class, and signs.
//!
//! # Why adaptive CDFs and no frequency tables
//!
//! rANS is Duda's range variant of asymmetric numeral systems
//! (arXiv:1311.2540). Three replacements for the adaptive *binary* range
//! coder that used to sit here were prototyped for ISSUE 21 on 64 real
//! `fleet_codec` frames (`ef-topk+qsgd:4:rc`,
//! 3,361 kept coordinates of 67k; the old coder: 5.602 bits per kept
//! coordinate, encode 158 µs, decode 172 µs per frame):
//!
//! | back end                                      | bits / kept coord | encode   | decode |
//! |-----------------------------------------------|-------------------|----------|--------|
//! | binary range coder, tuned kernel (same bytes) | 5.602             | 1.3–1.5× | 0.9×   |
//! | rANS, static per-frame frequency tables       | 5.762 (+2.85 %)   | 3×       | 3×     |
//! | rANS, adaptive CDFs, interleaved              | 5.538 (−1.1 %)    | 2.3×     | 2.3×   |
//!
//! The binary coder pays ≈ 13 serial `prob → bound → compare → range` steps
//! per coordinate, and its decoder cannot be made branch-free without losing
//! what the branch predictor was hiding. Static tables are the fastest but
//! ship the tables in every frame and lose adaptivity — too many bytes for a
//! 2 KB frame. Adaptive CDFs code one symbol where the binary coder coded
//! three to five decisions, need nothing in the frame, and track drift within
//! it. This module is the third row; as built, on 96 frames captured the same
//! way, it takes 5.504 bits per kept coordinate where the old coder took
//! 5.576 (−1.3 %), and a whole-frame encode / decode of 67 / 72 µs where the
//! old one took 183–199 / 217–228 µs. The old coder's previous-magnitude and
//! previous-sign contexts bought 0.0003 bits each in the prototypes and were
//! dropped.
//!
//! Those frames coded every selected coordinate, level 0 included. A sparse
//! frame now carries only the coordinates of nonzero level (see
//! `Quant::quantize_selected` in [`crate::codec`]): on `fleet_codec` about
//! 300 of the 3,361 selected coordinates, so the per-coordinate figures
//! above describe a magnitude distribution the sparse path no longer sees.
//! Each remaining coordinate costs more bits — a larger gap, no cheap zero
//! — while the frame costs far fewer.

use crate::wire::WireError;

/// Probability scale: cumulative frequencies run from 0 to `1 << SCALE_BITS`.
pub const SCALE_BITS: u32 = 15;
const SCALE: u32 = 1 << SCALE_BITS;

/// Lower bound of the normalised rANS state interval `[RANS_L, RANS_L << 8)`,
/// and the value both states start from (encoder) and must end on (decoder).
pub const RANS_L: u32 = 1 << 23;

/// The least frequency any symbol of an [`AdaptiveCdf`] can have, out of
/// `1 << SCALE_BITS`. With at least two symbols the most probable one has
/// frequency at most `32768 − PROB_FLOOR`, so a symbol costs at least
/// `−log2(1 − 16/32768) ≈ 7.0e-4` bits: no stream holds more than ≈ 11,400
/// symbols per byte (see `MAX_DECISIONS_PER_BYTE` in [`crate::wire`]).
pub const PROB_FLOOR: u16 = 16;

/// Symbols seen by a model before its adaptation shift steps 4 → 5 → 6.
pub const RATE_STEPS: [u32; 2] = [24, 96];

/// The widest [`AdaptiveCdf`].
const MAX_SYMBOLS: usize = 32;

/// `BELOW[MAX_SYMBOLS - s..][i]` is all ones exactly when `i < s`: the lanes
/// below symbol `s`, as a window into ones followed by zeros.
static BELOW: [u16; 2 * MAX_SYMBOLS] = {
    let mut lanes = [0; 2 * MAX_SYMBOLS];
    let mut i = 0;
    while i < MAX_SYMBOLS {
        lanes[i] = u16::MAX;
        i += 1;
    }
    lanes
};

/// A multi-symbol adaptive model: the CDF of `n <= N` symbols at 15-bit
/// scale, adapting after every coded symbol (see the module docs).
#[derive(Clone)]
pub struct AdaptiveCdf<const N: usize> {
    /// `upper[i]`: cumulative frequency of symbols `0..=i`. Lanes from
    /// `n − 1` on hold the full scale and never move.
    upper: [u16; N],
    /// Update target of lane `i` when the coded symbol is above `i`.
    lo: [u16; N],
    /// Update target of lane `i` when the coded symbol is `i` or below.
    hi: [u16; N],
    /// Symbols coded so far, saturating at the last of [`RATE_STEPS`].
    seen: u32,
}

impl<const N: usize> AdaptiveCdf<N> {
    /// A fresh, uniform model over symbols `0..n`. Panics unless
    /// `1 <= n <= N`.
    pub fn new(n: usize) -> Self {
        assert!((1..=N).contains(&n), "alphabet size out of range");
        const { assert!(N <= MAX_SYMBOLS && N * PROB_FLOOR as usize <= SCALE as usize) };
        let mut cdf = Self {
            upper: [SCALE as u16; N],
            lo: [SCALE as u16; N],
            hi: [SCALE as u16; N],
            seen: 0,
        };
        for i in 0..n - 1 {
            cdf.upper[i] = ((i + 1) * SCALE as usize / n) as u16;
            cdf.lo[i] = (i + 1) as u16 * PROB_FLOOR;
            cdf.hi[i] = SCALE as u16 - (n - 1 - i) as u16 * PROB_FLOOR;
        }
        cdf
    }

    /// `(start, freq)` of `symbol` under the current model.
    #[inline(always)]
    fn range(&self, symbol: usize) -> (u32, u32) {
        let start = if symbol == 0 {
            0
        } else {
            self.upper[symbol - 1] as u32
        };
        (start, self.upper[symbol] as u32 - start)
    }

    /// The symbol whose range contains `slot` (`< 1 << SCALE_BITS`): the
    /// number of upper edges at or below it.
    #[inline(always)]
    fn find(&self, slot: u32) -> usize {
        let slot = slot as u16;
        self.upper.iter().map(|&edge| (edge <= slot) as usize).sum()
    }

    /// Move every lane `1 / 2^rate` of the way to its target for `symbol`.
    /// A lane's step is an `i16` because `target − lane` always fits one: both
    /// lie in `[PROB_FLOOR, 32768]` and lanes at 32768 have target 32768.
    #[inline(always)]
    fn update(&mut self, symbol: usize) {
        let rate = 4 + (self.seen >= RATE_STEPS[0]) as u32 + (self.seen >= RATE_STEPS[1]) as u32;
        self.seen += (self.seen < RATE_STEPS[1]) as u32;
        // Lane masks by one unaligned load instead of N compares.
        let below: &[u16; N] = BELOW[MAX_SYMBOLS - symbol..][..N]
            .try_into()
            .expect("a window of N lanes");
        let targets = self.lo.iter().zip(&self.hi).zip(below);
        for (lane, ((&lo, &hi), &below)) in self.upper.iter_mut().zip(targets) {
            let target = (lo & below) | (hi & !below);
            let step = (target.wrapping_sub(*lane) as i16) >> rate;
            *lane = lane.wrapping_add(step as u16);
        }
    }
}

/// The sending half: a forward modelling pass ([`symbol`](Self::symbol),
/// [`raw`](Self::raw)) followed by one reverse rANS pass
/// ([`finish`](Self::finish)). The three buffers are reused across frames, so
/// a codec that keeps its `RansEncoder` stops allocating once they are warm.
#[derive(Clone, Debug, Default)]
pub struct RansEncoder {
    /// One `start | freq << 16` record per modelled symbol, in coding order.
    records: Vec<u32>,
    /// The raw bit section, written through 8-byte stores at `raw_len`.
    raw: Vec<u8>,
    raw_len: usize,
    acc: u64,
    acc_bits: u32,
    /// The rANS byte stream, written from the back.
    stream: Vec<u8>,
}

impl RansEncoder {
    /// Start a frame of at most `max_symbols` modelled symbols and
    /// `max_raw_bits` raw bits.
    pub fn begin(&mut self, max_symbols: usize, max_raw_bits: usize) {
        self.records.clear();
        self.records.reserve(max_symbols);
        // 8 bytes of slack: every raw write stores a whole word.
        let raw_bytes = max_raw_bits.div_ceil(8) + 8;
        if self.raw.len() < raw_bytes {
            self.raw.resize(raw_bytes, 0);
        }
        self.raw_len = 0;
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Code `symbol` under `cdf` and adapt the model.
    #[inline(always)]
    pub fn symbol<const N: usize>(&mut self, cdf: &mut AdaptiveCdf<N>, symbol: usize) {
        let (start, freq) = cdf.range(symbol);
        self.records.push(start | freq << 16);
        cdf.update(symbol);
    }

    /// Append the low `nbits <= 56` bits of `value` (which must have no
    /// higher bits set) to the raw section, least significant bit first.
    #[inline(always)]
    pub fn raw(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 56 && value >> nbits == 0);
        self.acc |= value << self.acc_bits;
        self.acc_bits += nbits;
        self.raw[self.raw_len..self.raw_len + 8].copy_from_slice(&self.acc.to_le_bytes());
        let whole = self.acc_bits / 8;
        self.raw_len += whole as usize;
        self.acc >>= whole * 8;
        self.acc_bits -= whole * 8;
    }

    /// Run the reverse rANS pass and return `(rANS stream, raw section)`.
    /// Symbol `k` goes on state `k & 1`; the stream opens with the two final
    /// states (little-endian, state 0 first) and continues with the
    /// renormalisation bytes in the order the decoder will want them.
    pub fn finish(&mut self) -> (&[u8], &[u8]) {
        // A symbol shifts out at most two bytes: `freq >= PROB_FLOOR` bounds
        // its cost by 15 − 4 = 11 bits.
        let capacity = 2 * self.records.len() + 8;
        if self.stream.len() < capacity {
            self.stream.resize(capacity, 0);
        }
        let out = &mut self.stream[..];
        let mut pos = out.len();
        let mut put = |x: &mut u32, record: u32| {
            let (start, freq) = (record & 0xFFFF, record >> 16);
            // ((RANS_L >> SCALE_BITS) << 8) * freq
            let x_max = freq << 16;
            while *x >= x_max {
                pos -= 1;
                out[pos] = *x as u8;
                *x >>= 8;
            }
            *x = ((*x / freq) << SCALE_BITS) + (*x % freq) + start;
        };
        let (mut x0, mut x1) = (RANS_L, RANS_L);
        let mut pairs = self.records.chunks_exact(2);
        if let [last] = pairs.remainder() {
            put(&mut x0, *last);
        }
        while let Some(pair) = pairs.next_back() {
            put(&mut x1, pair[1]);
            put(&mut x0, pair[0]);
        }
        out[pos - 4..pos].copy_from_slice(&x1.to_le_bytes());
        out[pos - 8..pos - 4].copy_from_slice(&x0.to_le_bytes());
        pos -= 8;
        let raw_len = self.raw_len + (self.acc_bits > 0) as usize;
        (&self.stream[pos..], &self.raw[..raw_len])
    }
}

/// The receiving half of the rANS stream: decodes symbols forward, adapting
/// the models exactly as the encoder's forward pass did. Running out of bytes
/// is [`WireError::Truncated`], never a fabricated symbol.
pub struct RansDecoder<'a> {
    x: [u32; 2],
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RansDecoder<'a> {
    /// Read the two initial states off the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        let Some((head, _)) = bytes.split_first_chunk::<8>() else {
            return Err(WireError::Truncated);
        };
        let x = [
            u32::from_le_bytes([head[0], head[1], head[2], head[3]]),
            u32::from_le_bytes([head[4], head[5], head[6], head[7]]),
        ];
        if x.iter().any(|x| !(RANS_L..RANS_L << 8).contains(x)) {
            return Err(WireError::Corrupt("rANS state out of range"));
        }
        Ok(Self { x, bytes, pos: 8 })
    }

    /// Decode one symbol from state `LANE` under `cdf` and adapt the model.
    /// The caller alternates lanes the way the encoder did: symbol `k` of the
    /// frame is on lane `k & 1`.
    #[inline(always)]
    pub fn symbol<const LANE: usize, const N: usize>(
        &mut self,
        cdf: &mut AdaptiveCdf<N>,
    ) -> Result<usize, WireError> {
        let x = self.x[LANE];
        let slot = x & (SCALE - 1);
        let symbol = cdf.find(slot);
        let (start, freq) = cdf.range(symbol);
        // No overflow even from a corrupt state: x >> 15 < 2^17, freq <= 2^15.
        let mut x = freq * (x >> SCALE_BITS) + slot - start;
        while x < RANS_L {
            let &byte = self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            x = x << 8 | byte as u32;
        }
        self.x[LANE] = x;
        cdf.update(symbol);
        Ok(symbol)
    }

    /// The stream's self-check: both states are back at [`RANS_L`] and every
    /// byte was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.x != [RANS_L; 2] {
            return Err(WireError::Corrupt("rANS final state mismatch"));
        }
        if self.pos != self.bytes.len() {
            return Err(WireError::Corrupt("trailing bytes in rANS stream"));
        }
        Ok(())
    }
}

/// Reader of the raw bit section [`RansEncoder::raw`] wrote.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    acc_bits: u32,
}

impl<'a> BitReader<'a> {
    /// A reader at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Top the accumulator up to at least 56 bits, or to the end of input.
    #[inline(always)]
    fn refill(&mut self) {
        // Drop what the last whole-word load left above the valid bits.
        self.acc &= (1 << self.acc_bits) - 1;
        if let Some(word) = self.bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            self.acc |= word << self.acc_bits;
            let whole = (63 - self.acc_bits) / 8;
            self.pos += whole as usize;
            self.acc_bits += whole * 8;
        } else {
            while self.acc_bits <= 56 && self.pos < self.bytes.len() {
                self.acc |= (self.bytes[self.pos] as u64) << self.acc_bits;
                self.pos += 1;
                self.acc_bits += 8;
            }
        }
    }

    /// The next `nbits <= 56` bits, least significant first.
    #[inline(always)]
    pub fn take(&mut self, nbits: u32) -> Result<u64, WireError> {
        debug_assert!(nbits <= 56);
        if self.acc_bits < nbits {
            self.refill();
            if self.acc_bits < nbits {
                return Err(WireError::Truncated);
            }
        }
        let value = self.acc & ((1 << nbits) - 1);
        self.acc >>= nbits;
        self.acc_bits -= nbits;
        Ok(value)
    }

    /// The section's self-check: every byte was needed, and the padding bits
    /// of the last one are zero.
    pub fn finish(self) -> Result<(), WireError> {
        let padding = self.acc & ((1 << self.acc_bits) - 1);
        if self.pos != self.bytes.len() || self.acc_bits >= 8 || padding != 0 {
            return Err(WireError::Corrupt("trailing bits in raw section"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Code `symbols` over an `n`-symbol alphabet, alternating lanes.
    fn encode<const N: usize>(n: usize, symbols: &[usize]) -> Vec<u8> {
        let mut enc = RansEncoder::default();
        enc.begin(symbols.len(), 0);
        let mut cdf = AdaptiveCdf::<N>::new(n);
        for &s in symbols {
            enc.symbol(&mut cdf, s);
        }
        enc.finish().0.to_vec()
    }

    fn decode<const N: usize>(
        n: usize,
        count: usize,
        bytes: &[u8],
    ) -> Result<Vec<usize>, WireError> {
        let mut dec = RansDecoder::new(bytes)?;
        let mut cdf = AdaptiveCdf::<N>::new(n);
        let mut out = Vec::with_capacity(count);
        for k in 0..count {
            out.push(if k % 2 == 0 {
                dec.symbol::<0, N>(&mut cdf)?
            } else {
                dec.symbol::<1, N>(&mut cdf)?
            });
        }
        dec.finish()?;
        Ok(out)
    }

    #[test]
    fn symbols_and_raw_bits_roundtrip_exactly() {
        // A mixed frame: two models on two lanes, raw bits of every width
        // beside them, and both self-checks at the end.
        let gaps: Vec<usize> = (0..4001).map(|i| (i * 7) % 13).collect();
        let mags: Vec<usize> = (0..4001).map(|i| (i * i) % 5).collect();
        let mut enc = RansEncoder::default();
        enc.begin(2 * gaps.len(), 57 * gaps.len());
        let mut gap_cdf = AdaptiveCdf::<32>::new(17);
        let mut mag_cdf = AdaptiveCdf::<16>::new(8);
        for (i, (&g, &m)) in gaps.iter().zip(&mags).enumerate() {
            enc.symbol(&mut gap_cdf, g);
            enc.symbol(&mut mag_cdf, m);
            let nbits = (i % 57) as u32;
            enc.raw(0xDEAD_BEEF_F00D_u64 & ((1 << nbits) - 1), nbits);
        }
        let (stream, raw) = enc.finish();
        let mut dec = RansDecoder::new(stream).unwrap();
        let mut bits = BitReader::new(raw);
        let mut gap_cdf = AdaptiveCdf::<32>::new(17);
        let mut mag_cdf = AdaptiveCdf::<16>::new(8);
        for (i, (&g, &m)) in gaps.iter().zip(&mags).enumerate() {
            assert_eq!(dec.symbol::<0, 32>(&mut gap_cdf).unwrap(), g);
            assert_eq!(dec.symbol::<1, 16>(&mut mag_cdf).unwrap(), m);
            let nbits = (i % 57) as u32;
            assert_eq!(
                bits.take(nbits).unwrap(),
                0xDEAD_BEEF_F00D_u64 & ((1 << nbits) - 1)
            );
        }
        dec.finish().unwrap();
        bits.finish().unwrap();
    }

    #[test]
    fn skewed_symbols_compress_below_one_bit_each() {
        // 4096 symbols that are almost always 0: the adaptive model should
        // push the cost far below the 512 bytes of a raw bitmap.
        let symbols: Vec<usize> = (0..4096).map(|i| (i % 128 == 0) as usize).collect();
        let bytes = encode::<16>(2, &symbols);
        assert!(
            bytes.len() < 100,
            "skewed stream took {} bytes",
            bytes.len()
        );
        assert_eq!(decode::<16>(2, symbols.len(), &bytes).unwrap(), symbols);
    }

    #[test]
    fn every_symbol_of_every_alphabet_size_roundtrips() {
        for n in 1..=32usize {
            let symbols: Vec<usize> = (0..500).map(|i| (i * i + i / 7) % n).collect();
            let bytes = encode::<32>(n, &symbols);
            assert_eq!(
                decode::<32>(n, symbols.len(), &bytes).unwrap(),
                symbols,
                "{n} symbols"
            );
        }
        for n in 1..=16usize {
            let symbols: Vec<usize> = (0..501).map(|i| (i * 3 + i / 5) % n).collect();
            let bytes = encode::<16>(n, &symbols);
            assert_eq!(decode::<16>(n, symbols.len(), &bytes).unwrap(), symbols);
        }
        // Nothing coded: the stream is the two untouched states.
        assert_eq!(encode::<16>(4, &[]).len(), 8);
        assert_eq!(decode::<16>(4, 0, &encode::<16>(4, &[])).unwrap(), vec![]);
    }

    #[test]
    fn truncated_and_padded_streams_error_instead_of_fabricating_symbols() {
        let symbols: Vec<usize> = (0..512).map(|i| (i % 3 == 0) as usize + i % 2).collect();
        let bytes = encode::<16>(3, &symbols);
        for cut in 0..bytes.len() {
            assert!(
                decode::<16>(3, symbols.len(), &bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Cuts inside the stream run dry before the last symbol.
        for cut in [0, 2, 7, 8, bytes.len() / 2] {
            assert_eq!(
                decode::<16>(3, symbols.len(), &bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode::<16>(3, symbols.len(), &padded),
            Err(WireError::Corrupt("trailing bytes in rANS stream"))
        );
        // Asking for fewer symbols than were coded leaves the states off
        // their origin.
        assert!(decode::<16>(3, symbols.len() - 2, &bytes).is_err());
        // A state outside the normalised interval is refused up front.
        let mut low = bytes.clone();
        low[..4].copy_from_slice(&(RANS_L - 1).to_le_bytes());
        assert_eq!(
            decode::<16>(3, symbols.len(), &low),
            Err(WireError::Corrupt("rANS state out of range"))
        );

        let mut enc = RansEncoder::default();
        enc.begin(0, 24);
        enc.raw(0x5A5A5, 20);
        let raw = enc.finish().1.to_vec();
        assert_eq!(raw.len(), 3);
        assert_eq!(
            BitReader::new(&raw[..2]).take(20),
            Err(WireError::Truncated)
        );
        let mut reader = BitReader::new(&raw);
        assert_eq!(reader.take(20), Ok(0x5A5A5));
        reader.finish().unwrap();
        for bad in [
            vec![raw[0], raw[1], raw[2] | 0x80],
            [&raw[..], &[0u8][..]].concat(),
        ] {
            let mut reader = BitReader::new(&bad);
            reader.take(20).unwrap();
            assert_eq!(
                reader.finish(),
                Err(WireError::Corrupt("trailing bits in raw section"))
            );
        }
    }

    #[test]
    fn long_runs_pin_the_model_at_the_probability_floor() {
        // 10,000 repeats of one symbol drive every other symbol to the
        // floor; the run costs almost nothing, and the symbol that finally
        // breaks it is still codable — at about 15 − log2(floor) = 11 bits.
        for n in [2usize, 8, 16] {
            let mut symbols = vec![n - 1; 10_000];
            let run_only = encode::<16>(n, &symbols).len();
            assert!(run_only < 64, "{n} symbols: run took {run_only} bytes");
            symbols.push(0);
            symbols.extend(std::iter::repeat_n(n / 2, 10_000));
            let bytes = encode::<16>(n, &symbols);
            assert_eq!(decode::<16>(n, symbols.len(), &bytes).unwrap(), symbols);
        }
        let mut cdf = AdaptiveCdf::<16>::new(16);
        for _ in 0..10_000 {
            cdf.update(5);
        }
        for s in 0..16 {
            let (_, freq) = cdf.range(s);
            assert!(freq >= PROB_FLOOR as u32, "symbol {s} fell to {freq}");
        }
        let (_, top) = cdf.range(5);
        assert!(top <= SCALE - 15 * PROB_FLOOR as u32);
        assert!(top >= SCALE - 15 * PROB_FLOOR as u32 - 64);
    }
}
