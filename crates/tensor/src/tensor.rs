//! Dense row-major `f32` tensors.

use crate::rng::Rng;
use crate::shape::Shape;

/// A dense, row-major tensor of `f32` values.
///
/// This is the only numeric container used by the neural-network engine and
/// the federated-learning simulator. It deliberately supports just the
/// operations required by a feed-forward training loop; anything fancier
/// (views, broadcasting beyond scalars) is out of scope.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// The empty tensor (see [`Tensor::empty`]).
    fn default() -> Self {
        Self::empty()
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={}, numel={})", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Tensor of zeros with the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Self {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Tensor filled with a constant value.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel();
        Self {
            shape,
            data: vec![value; n],
        }
    }

    /// Build a tensor from raw data; the data length must match the shape.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {} incompatible with data of length {}",
            shape,
            data.len()
        );
        Self { shape, data }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self::from_vec(Shape::vector(data.len()), data.to_vec())
    }

    /// Tensor with entries drawn i.i.d. from `U(lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: Shape, lo: f32, hi: f32, rng: &mut R) -> Self {
        let n = shape.numel();
        let data = (0..n).map(|_| lo + (hi - lo) * rng.next_f32()).collect();
        Self { shape, data }
    }

    /// Tensor with entries drawn i.i.d. from `N(mean, std^2)` (Box–Muller).
    pub fn rand_normal<R: Rng>(shape: Shape, mean: f32, std: f32, rng: &mut R) -> Self {
        let n = shape.numel();
        let normal = crate::dist::Normal::new(mean as f64, std as f64);
        let data = (0..n).map(|_| normal.sample(rng) as f32).collect();
        Self { shape, data }
    }

    /// Kaiming/He-style initialisation for a layer with `fan_in` inputs.
    pub fn kaiming<R: Rng>(shape: Shape, fan_in: usize, rng: &mut R) -> Self {
        let std = (2.0 / fan_in.max(1) as f64).sqrt() as f32;
        Self::rand_normal(shape, 0.0, std, rng)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshape in place; the element count must be preserved.
    pub fn reshape(&mut self, shape: Shape) {
        assert!(
            self.shape.same_numel(&shape),
            "cannot reshape {} into {}",
            self.shape,
            shape
        );
        self.shape = shape;
    }

    /// Value at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Set the value at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// An empty (zero-element) tensor, the initial state of a reusable
    /// workspace buffer before its first [`Tensor::resize_to`].
    pub fn empty() -> Self {
        Self {
            shape: Shape::vector(0),
            data: Vec::new(),
        }
    }

    /// Resize this tensor in place to `dims`, reusing the existing buffer
    /// capacity. Newly exposed elements are zero; existing elements up to the
    /// new length keep their values. When `dims` already matches the current
    /// shape this is a no-op, so steady-state reuse performs no heap
    /// allocation at all.
    pub fn resize_to(&mut self, dims: &[usize]) {
        if self.shape.dims() != dims {
            self.shape.set_dims(dims);
        }
        let n = self.shape.numel();
        if self.data.len() != n {
            self.data.resize(n, 0.0);
        }
    }

    /// Make this tensor an exact copy of `src` (shape and data), reusing the
    /// existing buffer capacity — the allocation-free analogue of
    /// `*self = src.clone()`.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.resize_to(src.shape.dims());
        self.data.copy_from_slice(&src.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::new(&[2, 3]));
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(Shape::vector(4), 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(Shape::new(&[2, 2]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_and_reshape() {
        let mut a = Tensor::zeros(Shape::new(&[2, 3]));
        a.set(&[1, 2], 7.0);
        assert_eq!(a.at(&[1, 2]), 7.0);
        a.reshape(Shape::new(&[3, 2]));
        assert_eq!(a.shape().dims(), &[3, 2]);
        assert_eq!(a.at(&[2, 1]), 7.0);
    }

    #[test]
    fn resize_to_reuses_capacity_and_zeroes_growth() {
        let mut t = Tensor::empty();
        t.resize_to(&[2, 3]);
        assert_eq!(t.shape().dims(), &[2, 3]);
        assert!(t.data().iter().all(|&x| x == 0.0));
        t.fill(5.0);
        t.resize_to(&[4]);
        assert_eq!(t.data(), &[5.0, 5.0, 5.0, 5.0]);
        let cap_ptr = t.data().as_ptr();
        t.resize_to(&[2, 3]);
        assert_eq!(
            t.data().as_ptr(),
            cap_ptr,
            "shrink-then-grow must not realloc"
        );
        assert_eq!(t.data(), &[5.0, 5.0, 5.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Tensor::from_vec(Shape::new(&[2, 2]), vec![1.0, -2.0, 3.5, 0.25]);
        let mut dst = Tensor::empty();
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn random_init_is_deterministic() {
        let mut r1 = SplitMix64::new(42);
        let mut r2 = SplitMix64::new(42);
        let a = Tensor::rand_normal(Shape::vector(100), 0.0, 1.0, &mut r1);
        let b = Tensor::rand_normal(Shape::vector(100), 0.0, 1.0, &mut r2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn kaiming_scale_shrinks_with_fan_in() {
        let mut rng = SplitMix64::new(7);
        let small = Tensor::kaiming(Shape::vector(10_000), 10, &mut rng);
        let large = Tensor::kaiming(Shape::vector(10_000), 1000, &mut rng);
        let var = |t: &Tensor| t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        assert!(var(&small) > var(&large) * 5.0);
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SplitMix64::new(3);
        let t = Tensor::rand_uniform(Shape::vector(1000), -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.5..=0.5).contains(&x)));
    }
}
