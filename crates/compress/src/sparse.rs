//! Sparse (COO) representation of a compressed model update.

/// A sparse model update: the retained coordinates of a dense vector of
/// length `dense_len`, stored as parallel `indices` / `values` arrays.
///
/// This is what a client "transmits" in the simulation, and what every
/// [`crate::wire::WireUpdate`] decodes to: a frame that codes every
/// coordinate (a dense f32 frame, a pure quantizer's frame) decodes to the
/// full-density update [`SparseUpdate::full`], so overlap analysis and
/// aggregation see one form. The analytic wire size is
/// `indices.len() * (4 + 4)` bytes (a `u32` index plus an `f32` value per
/// retained coordinate) — the factor-of-two overhead relative to pure values
/// is exactly the `2 × V × CR` term in the paper's communication model
/// (Alg. 2, line 7).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseUpdate {
    indices: Vec<u32>,
    values: Vec<f32>,
    dense_len: usize,
}

impl SparseUpdate {
    /// Build from parallel arrays. Indices must be strictly increasing and in
    /// range (this keeps overlap computation and aggregation linear-time).
    pub fn new(indices: Vec<u32>, values: Vec<f32>, dense_len: usize) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!((last as usize) < dense_len, "index {last} out of range");
        }
        Self {
            indices,
            values,
            dense_len,
        }
    }

    /// Every coordinate of `values`, in order: indices `0..values.len()`.
    pub fn full(values: Vec<f32>) -> Self {
        let n = u32::try_from(values.len()).expect("indices are u32");
        Self {
            indices: (0..n).collect(),
            dense_len: values.len(),
            values,
        }
    }

    /// An empty update of a given dense length.
    pub fn empty(dense_len: usize) -> Self {
        Self {
            indices: Vec::new(),
            values: Vec::new(),
            dense_len,
        }
    }

    /// Build from a dense vector, retaining the coordinates where `keep` is true.
    pub fn from_dense_mask(dense: &[f32], keep: impl Fn(usize, f32) -> bool) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if keep(i, v) {
                indices.push(i as u32);
                values.push(v);
            }
        }
        Self {
            indices,
            values,
            dense_len: dense.len(),
        }
    }

    /// Retained coordinate indices (strictly increasing).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Retained values, aligned with `indices`.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable view of the retained values (the OPWA mask scales these).
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Keep only the coordinates whose value `keep` accepts, in order and in
    /// place (no allocation). `keep` sees each value once, front to back,
    /// and may rewrite it first.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut f32) -> bool) {
        let mut kept = 0;
        for at in 0..self.values.len() {
            if keep(&mut self.values[at]) {
                self.indices[kept] = self.indices[at];
                self.values[kept] = self.values[at];
                kept += 1;
            }
        }
        self.indices.truncate(kept);
        self.values.truncate(kept);
    }

    /// Length of the original dense vector.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// Number of retained coordinates.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Achieved compression ratio `nnz / dense_len` (0 for an empty vector).
    pub fn compression_ratio(&self) -> f64 {
        if self.dense_len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.dense_len as f64
        }
    }

    /// Bytes on the wire: 4 (index) + 4 (value) per retained coordinate.
    pub fn wire_size_bytes(&self) -> usize {
        self.nnz() * 8
    }

    /// Expand into a dense vector (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
        out
    }

    /// `target += scale * self` scattered into a dense buffer.
    pub fn add_scaled_into(&self, target: &mut [f32], scale: f32) {
        assert_eq!(target.len(), self.dense_len, "dense length mismatch");
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            target[i as usize] += scale * v;
        }
    }

    /// `target -= self`, coordinate by coordinate. A coordinate the update
    /// does not carry is left untouched, which is what subtracting its
    /// implicit `0.0` would do anyway (`x − 0.0` is bitwise `x`), so the
    /// result equals subtracting [`to_dense`](Self::to_dense) without
    /// densifying.
    pub fn subtract_from(&self, target: &mut [f32]) {
        assert_eq!(target.len(), self.dense_len, "dense length mismatch");
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            target[i as usize] -= v;
        }
    }

    /// Bitwise equality: same dense length, same coordinates, and every
    /// value equal by `to_bits` — so NaNs compare equal to themselves and
    /// `-0.0` differs from `+0.0`, unlike `==`. This is the sense in which
    /// `UpdateCodec::encode_sent` must agree with `decode`.
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.dense_len == other.dense_len
            && self.indices == other.indices
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Always `Some(self)`. Kept only because `benchmark/README.md` lists
    /// `CompressedUpdate::as_sparse` among the names the benchmark calls.
    pub fn as_sparse(&self) -> Option<&Self> {
        Some(self)
    }
}

/// Another name for [`SparseUpdate`], kept only because
/// `benchmark/README.md` lists it among the names the benchmark calls;
/// workspace code names [`SparseUpdate`].
pub type CompressedUpdate = SparseUpdate;

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::{Rng, Uniform, Xoshiro256};

    #[test]
    fn roundtrip_dense() {
        let dense = vec![0.0, 1.5, 0.0, -2.0, 0.0];
        let s = SparseUpdate::from_dense_mask(&dense, |_, v| v != 0.0);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.to_dense(), dense);
    }

    #[test]
    fn wire_size_accounting() {
        let s = SparseUpdate::new(vec![0, 5, 9], vec![1.0, 2.0, 3.0], 10);
        assert_eq!(s.wire_size_bytes(), 24);
        assert!((s.compression_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn add_scaled_into_accumulates() {
        let s = SparseUpdate::new(vec![1, 3], vec![2.0, -1.0], 4);
        let mut target = vec![1.0; 4];
        s.add_scaled_into(&mut target, 0.5);
        assert_eq!(target, vec![1.0, 2.0, 1.0, 0.5]);
    }

    #[test]
    fn retain_compacts_in_order_after_rewriting() {
        let mut s = SparseUpdate::new(vec![1, 4, 6, 9], vec![1.0, -2.0, 3.0, -4.0], 10);
        s.retain(|v| {
            *v *= 2.0;
            *v > 0.0
        });
        assert_eq!(s, SparseUpdate::new(vec![1, 6], vec![2.0, 6.0], 10));
        s.retain(|_| false);
        assert_eq!(s, SparseUpdate::empty(10));
    }

    #[test]
    fn full_keeps_every_coordinate() {
        let s = SparseUpdate::full(vec![1.0, -0.0, 2.5]);
        assert_eq!(s, SparseUpdate::new(vec![0, 1, 2], vec![1.0, -0.0, 2.5], 3));
        assert_eq!(s.to_dense(), vec![1.0, -0.0, 2.5]);
        assert_eq!(SparseUpdate::full(Vec::new()), SparseUpdate::empty(0));
    }

    #[test]
    fn subtract_from_matches_dense_subtraction() {
        let s = SparseUpdate::new(vec![1, 3], vec![5.0, -2.0], 4);
        let mut target = vec![1.0, 1.0, -0.0, 1.0];
        s.subtract_from(&mut target);
        assert_eq!(target, vec![1.0, -4.0, 0.0, 3.0]);
        assert!(
            target[2].is_sign_negative(),
            "untouched coordinates keep their bits"
        );
        let mut target = vec![1.0, 1.0];
        SparseUpdate::full(vec![0.5, 0.25]).subtract_from(&mut target);
        assert_eq!(target, vec![0.5, 0.75]);
    }

    #[test]
    fn bit_eq_tells_negative_zero_from_positive_zero() {
        let plus = SparseUpdate::full(vec![1.0, 0.0]);
        let minus = SparseUpdate::full(vec![1.0, -0.0]);
        assert_eq!(plus, minus);
        assert!(!plus.bit_eq(&minus));
        assert!(plus.bit_eq(&plus.clone()));
        let nan = SparseUpdate::full(vec![f32::NAN]);
        assert!(nan.bit_eq(&nan.clone()));
        // Same values over other coordinates, or another dense length.
        let a = SparseUpdate::new(vec![0], vec![1.0], 2);
        assert!(!a.bit_eq(&SparseUpdate::new(vec![1], vec![1.0], 2)));
        assert!(!a.bit_eq(&SparseUpdate::new(vec![0], vec![1.0], 3)));
    }

    #[test]
    #[should_panic]
    fn unsorted_indices_rejected() {
        SparseUpdate::new(vec![3, 1], vec![1.0, 2.0], 5);
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_rejected() {
        SparseUpdate::new(vec![10], vec![1.0], 5);
    }

    #[test]
    fn empty_update_behaves() {
        let s = SparseUpdate::empty(7);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.to_dense(), vec![0.0; 7]);
        assert_eq!(s.compression_ratio(), 0.0);
    }

    #[test]
    fn prop_dense_roundtrip() {
        let mut rng = Xoshiro256::new(1);
        for _ in 0..256 {
            let dense: Vec<f32> = (0..rng.next_range(1, 200))
                .map(|_| Uniform::new(-100.0, 100.0).sample(&mut rng) as f32)
                .collect();
            let s = SparseUpdate::from_dense_mask(&dense, |_, v| v.abs() > 1.0);
            let back = s.to_dense();
            for (i, (&orig, &rec)) in dense.iter().zip(back.iter()).enumerate() {
                if orig.abs() > 1.0 {
                    assert_eq!(orig, rec, "index {}", i);
                } else {
                    assert_eq!(rec, 0.0f32);
                }
            }
        }
    }
}
