//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// The shape of a dense tensor (up to 4 dimensions are used in practice:
/// `[batch, channels, height, width]` for images, `[rows, cols]` for
/// matrices, `[len]` for vectors).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Create a shape from its dimensions. Empty shapes (scalars) are allowed.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
        }
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
        &self.dims
    }

    /// Replace the dimensions in place, reusing the existing `Vec` capacity.
    /// Once a shape has held its maximum rank, later `set_dims` calls never
    /// touch the heap — this is what keeps workspace tensors that cycle
    /// through several shapes per batch allocation-free.
    pub fn set_dims(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Row-major strides.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index. Panics if the index is out
    /// of range or has the wrong rank.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut off = 0usize;
        let strides = self.strides();
        for (i, (&ix, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            assert!(ix < d, "index {ix} out of range for dim {i} of size {d}");
            off += ix * strides[i];
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
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(d: Vec<usize>) -> Self {
        Shape { dims: d }
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
    fn same_numel_reshape_compat() {
        assert!(Shape::new(&[2, 6]).same_numel(&Shape::new(&[3, 4])));
        assert!(!Shape::new(&[2, 6]).same_numel(&Shape::new(&[5])));
    }
}
