//! Magnitude-based Top-K sparsification — the paper's primary compressor.

use crate::sparse::SparseUpdate;

/// Retain the `k = ceil(ratio * len)` coordinates with the largest absolute
/// value (ties broken towards lower indices), zeroing the rest.
///
/// ```
/// use fl_compress::topk;
///
/// let delta = vec![0.1, -5.0, 0.3, 4.0, -0.2];
/// let sparse = topk::select(&delta, 0.4); // keep 2 of 5
/// assert_eq!(sparse.indices(), &[1, 3]);
/// assert_eq!(sparse.values(), &[-5.0, 4.0]);
/// assert_eq!(sparse.wire_size_bytes(), 16); // 8 bytes per retained coord
/// ```
pub fn select(dense: &[f32], ratio: f64) -> SparseUpdate {
    let indices = select_indices(dense, k_for(dense.len(), ratio));
    let values = indices.iter().map(|&i| dense[i as usize]).collect();
    SparseUpdate::new(indices, values, dense.len())
}

/// Number of coordinates retained for a vector of length `len` at `ratio`.
/// At least one coordinate is kept for any positive ratio and non-empty
/// vector; the ratio is clamped to `[0, 1]`.
pub fn k_for(len: usize, ratio: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let ratio = ratio.clamp(0.0, 1.0);
    if ratio == 0.0 {
        return 0;
    }
    ((ratio * len as f64).ceil() as usize).clamp(1, len)
}

/// Select the indices of the `k` largest-magnitude entries, returned in
/// increasing index order.
///
/// The order is **total**: magnitudes compare as `f32::total_cmp` over
/// absolute values, ties broken towards lower indices. `|NaN|` therefore
/// orders above every finite magnitude and `+∞`, so NaN entries are
/// deterministically retained first — they stay visible to the server
/// instead of being silently dropped or scrambling the selection.
///
/// Selection is by threshold, in time linear in `dense.len()`. The
/// ordering key is the value's bit pattern with the sign cleared
/// (unsigned order on it *is* `total_cmp` on absolute values): a
/// histogram of the keys' top bits brackets the `k`-th largest key, one
/// ascending scan gathers every coordinate at or above that bracket
/// (already in index order, a little more than `k` of them), and a
/// partial selection over just those settles the exact threshold and the
/// tie-break. No model-sized permutation is built or sorted. Short
/// vectors — per-segment plans run Top-K on 10–128-coordinate bias
/// segments — skip the histogram, whose fixed cost would dominate, and
/// trim the whole index range instead.
pub fn select_indices(dense: &[f32], k: usize) -> Vec<u32> {
    let k = k.min(dense.len());
    if k == 0 {
        return Vec::new();
    }
    if k == dense.len() {
        return (0..dense.len() as u32).collect();
    }
    let mut picked = candidates(dense, k);
    if picked.len() > k {
        trim_to_k(dense, &mut picked, k);
    }
    picked
}

/// The `k`-th largest magnitude of `dense` in the order [`select_indices`]
/// selects by, for `1 <= k <= dense.len()`: the smallest magnitude a Top-`k`
/// selection retains. Found the same way — histogram bracket, then a partial
/// selection over the bracket's candidates — so it is linear-time too.
pub(crate) fn kth_largest_magnitude(dense: &[f32], k: usize) -> f32 {
    let picked = candidates(dense, k);
    f32::from_bits(kth_key(dense, &picked, k).0)
}

/// Ascending indices of a superset of the top `k` (`1 <= k <= dense.len()`):
/// everything at or above the histogram bucket of the `k`-th largest key, or
/// the whole index range of a short vector.
fn candidates(dense: &[f32], k: usize) -> Vec<u32> {
    if dense.len() < HISTOGRAM_MIN_LEN {
        return (0..dense.len() as u32).collect();
    }
    let (floor, at_least) = histogram_floor(dense, k);
    gather_at_least(dense, floor, at_least)
}

/// Below this length [`select_indices`] skips the histogram: zeroing
/// and walking its 2048 buckets costs more than selecting over the whole
/// (short) vector. Measured crossover on the reference box is ~200
/// coordinates.
const HISTOGRAM_MIN_LEN: usize = 256;

/// Histogram resolution: the top 11 bits of a [`magnitude_key`] — the
/// exponent and three mantissa bits, i.e. eighth-of-an-octave buckets, 8 KiB
/// of counters on the stack.
const BUCKET_BITS: u32 = 11;
const BUCKET_SHIFT: u32 = 31 - BUCKET_BITS;

/// The ordering key of Top-K: the value's bit pattern with the sign cleared.
/// Unsigned integer order on keys is exactly `f32::total_cmp` on absolute
/// values (subnormals below normals below `∞` below NaN payloads, `±0`
/// equal), which is what lets selection run on plain integers.
#[inline]
fn magnitude_key(v: f32) -> u32 {
    v.to_bits() & 0x7fff_ffff
}

/// The smallest key of the histogram bucket holding the `k`-th largest key,
/// and how many coordinates have a key at least that large (`>= k`).
fn histogram_floor(dense: &[f32], k: usize) -> (u32, usize) {
    let mut buckets = [0u32; 1 << BUCKET_BITS];
    for &v in dense {
        buckets[(magnitude_key(v) >> BUCKET_SHIFT) as usize] += 1;
    }
    let mut at_least = 0usize;
    let mut bucket = buckets.len();
    while at_least < k {
        bucket -= 1;
        at_least += buckets[bucket] as usize;
    }
    ((bucket as u32) << BUCKET_SHIFT, at_least)
}

/// Indices of every coordinate whose key is `>= floor`, ascending. Each
/// 64-coordinate block is reduced to a bitmask by a branch-free compare loop
/// the compiler vectorizes; only the (sparse) set bits are then visited.
fn gather_at_least(dense: &[f32], floor: u32, count: usize) -> Vec<u32> {
    let mut picked = Vec::with_capacity(count);
    for (block, chunk) in dense.chunks(64).enumerate() {
        let mut mask = 0u64;
        for (lane, &v) in chunk.iter().enumerate() {
            mask |= ((magnitude_key(v) >= floor) as u64) << lane;
        }
        let base = (block * 64) as u32;
        while mask != 0 {
            picked.push(base + mask.trailing_zeros());
            mask &= mask - 1;
        }
    }
    picked
}

/// The `k`-th largest key among the candidates `picked` (which contain the
/// top `k`), and how many candidate keys are strictly larger.
fn kth_key(dense: &[f32], picked: &[u32], k: usize) -> (u32, usize) {
    let mut keys: Vec<u32> = picked
        .iter()
        .map(|&i| magnitude_key(dense[i as usize]))
        .collect();
    let (above, &mut threshold, _) = keys.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    let above = above.iter().filter(|&&key| key > threshold).count();
    (threshold, above)
}

/// Reduce an ascending candidate list that contains the top `k` (and
/// `picked.len() > k`) to exactly the top `k`, still ascending: find the
/// `k`-th largest key among the candidates, keep everything above it, and
/// hand the remaining slots to the lowest-index coordinates that tie it.
fn trim_to_k(dense: &[f32], picked: &mut Vec<u32>, k: usize) {
    let (threshold, above) = kth_key(dense, picked, k);
    let mut ties = k - above;
    picked.retain(|&i| {
        let key = magnitude_key(dense[i as usize]);
        key > threshold
            || (key == threshold && ties > 0 && {
                ties -= 1;
                true
            })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selector this module shipped before the threshold rewrite, kept
    /// as the differential oracle: partial selection over an index
    /// permutation through an indirect `total_cmp` + index comparator.
    fn select_indices_oracle(dense: &[f32], k: usize) -> Vec<u32> {
        let k = k.min(dense.len());
        if k == 0 {
            return Vec::new();
        }
        if k == dense.len() {
            return (0..dense.len() as u32).collect();
        }
        let mut idx: Vec<u32> = (0..dense.len() as u32).collect();
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            let va = dense[a as usize].abs();
            let vb = dense[b as usize].abs();
            vb.total_cmp(&va).then(a.cmp(&b))
        });
        let mut selected = idx[..k].to_vec();
        selected.sort_unstable();
        selected
    }

    /// Lengths on both sides of the small-vector switch, and of the 64-lane
    /// gather blocks.
    const ORACLE_LENS: [usize; 9] = [
        1,
        2,
        63,
        HISTOGRAM_MIN_LEN - 1,
        HISTOGRAM_MIN_LEN,
        HISTOGRAM_MIN_LEN + 1,
        320,
        1000,
        4133,
    ];

    fn assert_matches_oracle(dense: &[f32], what: &str) {
        let n = dense.len();
        for k in [1, 2, n / 20, n / 2, n.saturating_sub(1), n, n + 3] {
            assert_eq!(
                select_indices(dense, k),
                select_indices_oracle(dense, k),
                "{what}: n = {n}, k = {k}"
            );
        }
    }

    /// A deterministic pool of awkward values: both zeros, subnormals, the
    /// extremes, infinities and NaN payloads of both signs.
    fn awkward(i: usize) -> f32 {
        const POOL: [u32; 14] = [
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x8000_0001,
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
            0x3f80_0000, // 1.0
            0xbf80_0000, // -1.0
            0x7f7f_ffff, // f32::MAX
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x7fc0_0000, // canonical NaN
            0xffc0_0001, // negative NaN with a payload
            0x7f80_0001, // signalling NaN
        ];
        f32::from_bits(POOL[(i * 7 + i / 5) % POOL.len()])
    }

    #[test]
    fn threshold_selector_matches_the_indirect_oracle_on_awkward_inputs() {
        for n in ORACLE_LENS {
            let all_equal = vec![0.25f32; n];
            assert_matches_oracle(&all_equal, "all equal");
            let zeros: Vec<f32> = (0..n)
                .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                .collect();
            assert_matches_oracle(&zeros, "signed zeros");
            // Three distinct magnitudes: almost every comparison is a tie.
            let heavy_ties: Vec<f32> = (0..n)
                .map(|i| [0.5f32, -0.5, 2.0, -0.125][(i * 31 + i / 7) % 4])
                .collect();
            assert_matches_oracle(&heavy_ties, "heavy ties");
            let subnormals: Vec<f32> = (0..n)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2_654_435_761);
                    f32::from_bits((h >> 9) | (h << 31))
                })
                .collect();
            assert_matches_oracle(&subnormals, "subnormals");
            let pool: Vec<f32> = (0..n).map(awkward).collect();
            assert_matches_oracle(&pool, "awkward pool");
            // One bucket of the histogram holds everything: the trim does
            // all the work.
            let one_bucket: Vec<f32> = (0..n)
                .map(|i| 1.0 + ((i * 37) % 101) as f32 * 1e-6)
                .collect();
            assert_matches_oracle(&one_bucket, "single histogram bucket");
        }
    }

    #[test]
    fn keeps_largest_magnitudes() {
        let dense = vec![0.1, -5.0, 0.3, 4.0, -0.2];
        let s = select(&dense, 0.4); // k = 2
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.values(), &[-5.0, 4.0]);
    }

    #[test]
    fn k_for_boundaries() {
        assert_eq!(k_for(100, 0.1), 10);
        assert_eq!(k_for(100, 0.001), 1); // at least one retained
        assert_eq!(k_for(100, 0.0), 0);
        assert_eq!(k_for(100, 1.5), 100);
        assert_eq!(k_for(0, 0.5), 0);
        assert_eq!(k_for(7, 0.5), 4); // ceil(3.5)
    }

    #[test]
    fn ratio_one_keeps_everything() {
        let dense = vec![1.0, 0.0, -2.0];
        assert_eq!(select(&dense, 1.0).to_dense(), dense);
    }

    #[test]
    fn zero_ratio_keeps_nothing() {
        let dense = vec![1.0, 2.0];
        assert_eq!(select(&dense, 0.0).nnz(), 0);
    }

    #[test]
    fn nan_entries_are_retained_deterministically() {
        // A NaN gradient must not scramble the selection: total_cmp ranks
        // |NaN| above every finite magnitude, so the NaN coordinate is
        // retained first and the rest of the selection is the usual Top-K.
        let dense = vec![0.1, f32::NAN, 0.3, -4.0, 0.2];
        let a = select_indices(&dense, 2);
        let b = select_indices(&dense, 2);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 3], "NaN first, then the largest finite entry");
        // Full compression round-trips without panicking.
        assert_eq!(select(&dense, 0.4).nnz(), 2);
    }

    #[test]
    fn all_nan_input_selects_lowest_indices() {
        let dense = vec![f32::NAN; 6];
        let sel = select_indices(&dense, 3);
        assert_eq!(sel, vec![0, 1, 2], "index tie-break orders equal NaNs");
    }

    #[test]
    fn negative_nan_is_ordered_like_positive_nan() {
        // abs() clears the sign bit, so -NaN and NaN compare identically and
        // the index tie-break decides.
        let dense = vec![f32::from_bits(0xFFC0_0000), 1.0, f32::NAN];
        let sel = select_indices(&dense, 2);
        assert_eq!(sel, vec![0, 2]);
    }

    #[test]
    fn deterministic_under_ties() {
        let dense = vec![1.0, 1.0, 1.0, 1.0];
        let a = select(&dense, 0.5);
        let b = select(&dense, 0.5);
        assert_eq!(a.indices(), b.indices());
        assert_eq!(a.nnz(), 2);
    }

    proptest! {
        #[test]
        fn prop_threshold_selector_matches_the_indirect_oracle(
            bits in proptest::collection::vec(0u64..1u64 << 32, 1..700),
            quantize in 0u32..24,
            k_frac in 0.0f64..1.0,
        ) {
            // Arbitrary bit patterns (every class of float), with the low
            // mantissa bits optionally cleared to force ties.
            let dense: Vec<f32> = bits
                .iter()
                .map(|&b| f32::from_bits(b as u32 & !((1u32 << quantize) - 1)))
                .collect();
            let k = ((dense.len() as f64 * k_frac) as usize).max(1);
            prop_assert_eq!(
                select_indices(&dense, k),
                select_indices_oracle(&dense, k)
            );
        }

        #[test]
        fn prop_retained_dominate_dropped(
            dense in proptest::collection::vec(-100.0f32..100.0, 2..300),
            ratio in 0.01f64..1.0,
        ) {
            let s = select(&dense, ratio);
            prop_assert_eq!(s.nnz(), k_for(dense.len(), ratio));
            // Every retained magnitude >= every dropped magnitude.
            let retained: std::collections::HashSet<u32> = s.indices().iter().cloned().collect();
            let min_kept = s
                .values()
                .iter()
                .map(|v| v.abs())
                .fold(f32::INFINITY, f32::min);
            for (i, &v) in dense.iter().enumerate() {
                if !retained.contains(&(i as u32)) {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }

        #[test]
        fn prop_error_norm_not_larger_than_input(
            dense in proptest::collection::vec(-10.0f32..10.0, 1..200),
            ratio in 0.01f64..1.0,
        ) {
            // Top-K is a contraction: ||x - C(x)|| <= ||x||.
            let rec = select(&dense, ratio).to_dense();
            let err: f32 = dense.iter().zip(rec.iter()).map(|(a, b)| (a - b).powi(2)).sum();
            let norm: f32 = dense.iter().map(|a| a * a).sum();
            prop_assert!(err <= norm + 1e-4);
        }
    }
}
