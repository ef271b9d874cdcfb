//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// Largest rank a [`Shape`] holds. The code builds vectors and matrices;
/// rank 3 leaves room for a batch of matrices.
pub const MAX_RANK: usize = 3;

/// The shape of a dense tensor: `[len]` for vectors, `[rows, cols]` for
/// matrices, at most [`MAX_RANK`] dimensions.
///
/// The dimensions are held inline, so creating or changing a shape never
/// touches the heap: [`Tensor::empty`](crate::Tensor::empty) and a workspace
/// tensor cycling through shapes allocate nothing for them.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The first `rank` entries are the dimensions; the rest stay zero, so
    /// the derived comparisons see only the dimensions.
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Create a shape from its dimensions. Empty shapes (scalars) are
    /// allowed; more than [`MAX_RANK`] dimensions panic.
    pub fn new(dims: &[usize]) -> Self {
        let mut shape = Self {
            dims: [0; MAX_RANK],
            rank: 0,
        };
        shape.set_dims(dims);
        shape
    }

    /// A 1-D shape of length `n`.
    pub fn vector(n: usize) -> Self {
        Self::new(&[n])
    }

    /// A 2-D shape `[rows, cols]`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Self::new(&[rows, cols])
    }

    /// Dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Replace the dimensions in place; more than [`MAX_RANK`] panic.
    pub fn set_dims(&mut self, dims: &[usize]) {
        assert!(
            dims.len() <= MAX_RANK,
            "shape {dims:?} has rank {}, above the inline bound of {MAX_RANK}",
            dims.len()
        );
        self.dims = [0; MAX_RANK];
        self.dims[..dims.len()].copy_from_slice(dims);
        self.rank = dims.len();
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index. Panics if the index is out
    /// of range or has the wrong rank.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank,
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank
        );
        let mut off = 0usize;
        for (i, (&ix, &d)) in index.iter().zip(self.dims()).enumerate() {
            assert!(ix < d, "index {ix} out of range for dim {i} of size {d}");
            off = off * d + ix;
        }
        off
    }

    /// True if both shapes hold the same number of elements (reshape-compatible).
    pub fn same_numel(&self, other: &Shape) -> bool {
        self.numel() == other.numel()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(d: Vec<usize>) -> Self {
        Shape::new(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic]
    fn offset_out_of_range_panics() {
        let s = Shape::new(&[2, 2]);
        s.offset(&[2, 0]);
    }

    #[test]
    fn matrix_and_vector_helpers() {
        assert_eq!(Shape::matrix(3, 5).dims(), &[3, 5]);
        assert_eq!(Shape::vector(7).dims(), &[7]);
    }

    #[test]
    fn shapes_compare_by_their_dimensions_only() {
        let mut s = Shape::new(&[2, 3, 4]);
        s.set_dims(&[6]);
        assert_eq!(s, Shape::vector(6));
        assert_eq!(format!("{s:?}"), "Shape[6]");
        assert_eq!(Shape::from(vec![2, 3]), Shape::matrix(2, 3));
    }

    #[test]
    #[should_panic(expected = "above the inline bound")]
    fn rank_above_the_inline_bound_panics() {
        Shape::new(&[1, 2, 3, 4]);
    }

    #[test]
    fn same_numel_reshape_compat() {
        assert!(Shape::new(&[2, 6]).same_numel(&Shape::new(&[3, 4])));
        assert!(!Shape::new(&[2, 6]).same_numel(&Shape::new(&[5])));
    }
}
