//! [`CompressedUpdate`] — the lossy in-memory update a wire buffer stands for.

use crate::sparse::SparseUpdate;

/// The result of compressing one client's dense model delta.
///
/// Sparsifiers produce [`CompressedUpdate::Sparse`]; quantizers keep every
/// coordinate but at reduced precision, so they produce
/// [`CompressedUpdate::Quantized`]. What either costs on the wire is the
/// length of the [`crate::wire::WireUpdate`] it was decoded from.
#[derive(Clone, Debug, PartialEq)]
pub enum CompressedUpdate {
    /// A sparsified update (Top-K, Rand-K, Threshold, …).
    Sparse(SparseUpdate),
    /// A dense but quantized update.
    Quantized {
        /// Dequantized (lossy) values, same length as the original vector.
        values: Vec<f32>,
    },
}

impl CompressedUpdate {
    /// Reconstruct the (lossy) dense update.
    pub fn to_dense(&self) -> Vec<f32> {
        match self {
            CompressedUpdate::Sparse(s) => s.to_dense(),
            CompressedUpdate::Quantized { values } => values.clone(),
        }
    }

    /// Consume the update and return the (lossy) dense vector. The quantized
    /// path moves its value buffer instead of cloning it (the decode side of
    /// the codec pipeline and error feedback both take ownership this way,
    /// mirroring [`CompressedUpdate::into_sparse`]).
    pub fn into_dense(self) -> Vec<f32> {
        match self {
            CompressedUpdate::Sparse(s) => s.to_dense(),
            CompressedUpdate::Quantized { values } => values,
        }
    }

    /// Length of the original dense vector.
    pub fn dense_len(&self) -> usize {
        match self {
            CompressedUpdate::Sparse(s) => s.dense_len(),
            CompressedUpdate::Quantized { values } => values.len(),
        }
    }

    /// `target -= self`, coordinate by coordinate. A coordinate a sparse
    /// update does not carry is left untouched, which is what subtracting its
    /// implicit `0.0` would do anyway (`x − 0.0` is bitwise `x`), so the
    /// result equals subtracting [`to_dense`](Self::to_dense) without
    /// densifying.
    pub fn subtract_from(&self, target: &mut [f32]) {
        assert_eq!(target.len(), self.dense_len(), "dense length mismatch");
        match self {
            CompressedUpdate::Sparse(s) => {
                for (&i, &v) in s.indices().iter().zip(s.values()) {
                    target[i as usize] -= v;
                }
            }
            CompressedUpdate::Quantized { values } => {
                for (t, &v) in target.iter_mut().zip(values) {
                    *t -= v;
                }
            }
        }
    }

    /// Bitwise equality: same variant, same coordinates, and every value
    /// equal by `to_bits` — so NaNs compare equal to themselves and `-0.0`
    /// differs from `+0.0`, unlike `==`. This is the sense in which
    /// `UpdateCodec::encode_sent` must agree with `decode`.
    pub fn bit_eq(&self, other: &Self) -> bool {
        let same_bits = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match (self, other) {
            (CompressedUpdate::Sparse(a), CompressedUpdate::Sparse(b)) => {
                a.dense_len() == b.dense_len()
                    && a.indices() == b.indices()
                    && same_bits(a.values(), b.values())
            }
            (
                CompressedUpdate::Quantized { values: a },
                CompressedUpdate::Quantized { values: b },
            ) => same_bits(a, b),
            _ => false,
        }
    }

    /// The sparse payload, if this is a sparsified update.
    pub fn as_sparse(&self) -> Option<&SparseUpdate> {
        match self {
            CompressedUpdate::Sparse(s) => Some(s),
            CompressedUpdate::Quantized { .. } => None,
        }
    }

    /// Consume the update and return the sparse payload, if this is a
    /// sparsified update. Lets aggregation take ownership of the indices and
    /// values instead of cloning them (the federated round loop moves every
    /// cohort update this way).
    pub fn into_sparse(self) -> Option<SparseUpdate> {
        match self {
            CompressedUpdate::Sparse(s) => Some(s),
            CompressedUpdate::Quantized { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_len_and_as_sparse_dispatch() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![0, 1], vec![1.0, 2.0], 4));
        assert_eq!(s.dense_len(), 4);
        let q = CompressedUpdate::Quantized {
            values: vec![0.0; 4],
        };
        assert_eq!(q.dense_len(), 4);
        assert!(s.as_sparse().is_some());
        assert!(q.as_sparse().is_none());
    }

    #[test]
    fn into_sparse_moves_the_payload() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![0, 1], vec![1.0, 2.0], 4));
        let expected = s.as_sparse().unwrap().clone();
        assert_eq!(s.into_sparse(), Some(expected));
        let q = CompressedUpdate::Quantized {
            values: vec![0.0; 4],
        };
        assert!(q.into_sparse().is_none());
    }

    #[test]
    fn into_dense_moves_the_quantized_buffer() {
        let q = CompressedUpdate::Quantized {
            values: vec![1.0, -2.0],
        };
        assert_eq!(q.into_dense(), vec![1.0, -2.0]);
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![1], vec![5.0], 3));
        assert_eq!(s.into_dense(), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn subtract_from_matches_dense_subtraction() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![1, 3], vec![5.0, -2.0], 4));
        let mut target = vec![1.0, 1.0, -0.0, 1.0];
        s.subtract_from(&mut target);
        assert_eq!(target, vec![1.0, -4.0, 0.0, 3.0]);
        assert!(
            target[2].is_sign_negative(),
            "untouched coordinates keep their bits"
        );
        let q = CompressedUpdate::Quantized {
            values: vec![0.5, 0.25],
        };
        let mut target = vec![1.0, 1.0];
        q.subtract_from(&mut target);
        assert_eq!(target, vec![0.5, 0.75]);
    }

    #[test]
    fn to_dense_dispatch() {
        let s = CompressedUpdate::Sparse(SparseUpdate::new(vec![1], vec![5.0], 3));
        assert_eq!(s.to_dense(), vec![0.0, 5.0, 0.0]);
        let q = CompressedUpdate::Quantized {
            values: vec![1.0, 2.0],
        };
        assert_eq!(q.to_dense(), vec![1.0, 2.0]);
    }
}
