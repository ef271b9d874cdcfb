//! Fully-connected (dense) layer: the one layer kind of
//! [`crate::model::Sequential`].

use fl_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_bias_into, sum_rows_into};
use fl_tensor::rng::Rng;
use fl_tensor::{Shape, Tensor};

/// `y = x @ W + b` with `W: [in, out]`, `b: [out]`.
pub(crate) struct Linear {
    pub(crate) weight: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) grad_weight: Tensor,
    pub(crate) grad_bias: Tensor,
}

impl Linear {
    /// New layer with Kaiming-initialised weights and zero bias.
    pub(crate) fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let weight = Tensor::kaiming(Shape::matrix(in_features, out_features), in_features, rng);
        Self {
            weight,
            bias: Tensor::zeros(Shape::vector(out_features)),
            grad_weight: Tensor::zeros(Shape::matrix(in_features, out_features)),
            grad_bias: Tensor::zeros(Shape::vector(out_features)),
        }
    }

    /// Forward pass over a `[batch, in]` input, written into `out`, with
    /// ReLU applied when `relu` (a hidden layer): `x @ W`, then `+ b`, then
    /// the ReLU — each separately rounded, in that order — in one pass over
    /// the output (the matmul tile's epilogue).
    pub(crate) fn forward_in(&self, input: &Tensor, relu: bool, out: &mut Tensor) {
        assert_eq!(
            input.shape().dims()[1],
            self.weight.shape().dims()[0],
            "Linear forward: input feature count"
        );
        matmul_bias_into(input, &self.weight, &self.bias, relu, out);
    }

    /// Parameter gradients of the pass that read `input`: `dW = X^T @ dY`
    /// and `db` = column sums of `dY`, each written over the previous
    /// gradient.
    pub(crate) fn backward_params_in(&mut self, input: &Tensor, grad_output: &Tensor) {
        matmul_at_b_into(input, grad_output, &mut self.grad_weight);
        sum_rows_into(grad_output, &mut self.grad_bias);
    }

    /// `dL/d(input) = dY @ W^T`, written into `grad_input`.
    pub(crate) fn backward_input_in(&self, grad_output: &Tensor, grad_input: &mut Tensor) {
        // The kernel never touches its scratch argument, and an empty
        // tensor does not allocate.
        matmul_a_bt_into(grad_output, &self.weight, &mut Tensor::empty(), grad_input);
    }

    /// Zero both gradient buffers.
    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    /// The parameter tensors, in flat-vector order.
    pub(crate) fn params(&self) -> [&Tensor; 2] {
        [&self.weight, &self.bias]
    }

    /// The gradient tensors, aligned with [`params`](Self::params).
    pub(crate) fn grads(&self) -> [&Tensor; 2] {
        [&self.grad_weight, &self.grad_bias]
    }

    /// Each parameter with its gradient, in [`params`](Self::params) order.
    pub(crate) fn params_and_grads_mut(&mut self) -> [(&mut Tensor, &Tensor); 2] {
        [
            (&mut self.weight, &self.grad_weight),
            (&mut self.bias, &self.grad_bias),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::Xoshiro256;

    /// `forward_in` into a fresh output tensor.
    fn forward_out(layer: &Linear, x: &Tensor) -> Tensor {
        let mut y = Tensor::empty();
        layer.forward_in(x, false, &mut y);
        y
    }

    /// Both backward halves; returns `dL/d(input)`.
    fn backward_out(layer: &mut Linear, x: &Tensor, g: &Tensor) -> Tensor {
        let mut dx = Tensor::empty();
        layer.backward_params_in(x, g);
        layer.backward_input_in(g, &mut dx);
        dx
    }

    fn sum(t: &Tensor) -> f32 {
        t.data().iter().sum()
    }

    fn numerical_grad_check(in_f: usize, out_f: usize) {
        let mut rng = Xoshiro256::new(42);
        let mut layer = Linear::new(in_f, out_f, &mut rng);
        let x = Tensor::rand_normal(Shape::matrix(3, in_f), 0.0, 1.0, &mut rng);
        // Loss = sum(forward(x)); dL/dy = ones.
        let y = forward_out(&layer, &x);
        let ones = Tensor::full(y.shape().clone(), 1.0);
        backward_out(&mut layer, &x, &ones);
        let analytic = layer.grad_weight.clone();

        let eps = 1e-3f32;
        // Check a handful of weight coordinates numerically.
        for &idx in &[0usize, in_f * out_f / 2, in_f * out_f - 1] {
            let orig = layer.weight.data()[idx];
            layer.weight.data_mut()[idx] = orig + eps;
            let lp = sum(&forward_out(&layer, &x));
            layer.weight.data_mut()[idx] = orig - eps;
            let lm = sum(&forward_out(&layer, &x));
            layer.weight.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "grad mismatch at {idx}: analytic {a}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn forward_shape() {
        let mut rng = Xoshiro256::new(1);
        let l = Linear::new(4, 7, &mut rng);
        let y = forward_out(&l, &Tensor::zeros(Shape::matrix(5, 4)));
        assert_eq!(y.shape().dims(), &[5, 7]);
        // Zero input + zero bias => zero output.
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn known_small_case() {
        let mut rng = Xoshiro256::new(1);
        let mut l = Linear::new(2, 1, &mut rng);
        l.weight.data_mut().copy_from_slice(&[2.0, 3.0]);
        l.bias.data_mut().copy_from_slice(&[0.5]);
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]);
        assert_eq!(forward_out(&l, &x).data(), &[5.5]);
    }

    #[test]
    fn gradient_check_small() {
        numerical_grad_check(3, 2);
    }

    #[test]
    fn gradient_check_larger() {
        numerical_grad_check(10, 6);
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut rng = Xoshiro256::new(2);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::rand_normal(Shape::matrix(4, 3), 0.0, 1.0, &mut rng);
        backward_out(&mut l, &x, &Tensor::full(Shape::matrix(4, 2), 1.0));
        // db = sum over batch of dY = 4.
        assert!(l.grad_bias.data().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = Xoshiro256::new(3);
        let mut l = Linear::new(3, 3, &mut rng);
        let x = Tensor::rand_normal(Shape::matrix(2, 3), 0.0, 1.0, &mut rng);
        backward_out(&mut l, &x, &Tensor::full(Shape::matrix(2, 3), 1.0));
        let nonzero = |t: &Tensor| t.data().iter().any(|&v| v != 0.0);
        assert!(l.grads().iter().all(|g| nonzero(g)));
        l.zero_grad();
        assert!(l.grads().iter().all(|g| !nonzero(g)));
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = Xoshiro256::new(4);
        let l = Linear::new(8, 5, &mut rng);
        let count: usize = l.params().iter().map(|p| p.numel()).sum();
        assert_eq!(count, 8 * 5 + 5);
    }
}
