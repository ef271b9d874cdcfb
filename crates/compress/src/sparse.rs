//! Sparse (COO) representation of a compressed model update.

/// A sparse model update: the retained coordinates of a dense vector of
/// length `dense_len`, stored as parallel `indices` / `values` arrays.
///
/// This is what a client "transmits" in the simulation. The wire size is
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

    /// Bytes a dense transmission of the same vector would need.
    pub fn dense_size_bytes(&self) -> usize {
        self.dense_len * 4
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

    /// Squared L2 norm of the retained values.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(s.dense_size_bytes(), 40);
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

    proptest! {
        #[test]
        fn prop_dense_roundtrip(dense in proptest::collection::vec(-100.0f32..100.0, 1..200)) {
            let s = SparseUpdate::from_dense_mask(&dense, |_, v| v.abs() > 1.0);
            let back = s.to_dense();
            for (i, (&orig, &rec)) in dense.iter().zip(back.iter()).enumerate() {
                if orig.abs() > 1.0 {
                    prop_assert_eq!(orig, rec, "index {}", i);
                } else {
                    prop_assert_eq!(rec, 0.0f32);
                }
            }
        }
    }
}
