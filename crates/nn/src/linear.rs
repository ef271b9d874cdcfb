//! Fully-connected (dense) layer.

use crate::layer::Layer;
use crate::workspace::LayerWs;
use fl_tensor::matmul::{
    add_bias_rows, matmul_a_bt_into, matmul_at_b_into, matmul_into, sum_rows_into,
};
use fl_tensor::rng::Rng;
use fl_tensor::{Shape, Tensor};

// Workspace scratch channels.
const WS_INPUT: usize = 0; // cached forward input
const WS_WT: usize = 1; // `matmul_a_bt_into`'s unused scratch argument (stays empty)

/// `y = x @ W + b` with `W: [in, out]`, `b: [out]`.
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_features: usize,
    out_features: usize,
    fallback: LayerWs,
}

impl Linear {
    /// New layer with Kaiming-initialised weights and zero bias.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let weight = Tensor::kaiming(Shape::matrix(in_features, out_features), in_features, rng);
        let bias = Tensor::zeros(Shape::vector(out_features));
        Self {
            grad_weight: Tensor::zeros(Shape::matrix(in_features, out_features)),
            grad_bias: Tensor::zeros(Shape::vector(out_features)),
            weight,
            bias,
            in_features,
            out_features,
            fallback: LayerWs::new(),
        }
    }

    /// New layer with all-zero weights and bias — for replicas whose
    /// parameters are immediately overwritten (e.g. a federated client
    /// receiving the global model), where a random init would only burn
    /// normal draws.
    pub fn zeroed(in_features: usize, out_features: usize) -> Self {
        Self {
            weight: Tensor::zeros(Shape::matrix(in_features, out_features)),
            bias: Tensor::zeros(Shape::vector(out_features)),
            grad_weight: Tensor::zeros(Shape::matrix(in_features, out_features)),
            grad_bias: Tensor::zeros(Shape::vector(out_features)),
            in_features,
            out_features,
            fallback: LayerWs::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, ws: &mut LayerWs) {
        assert_eq!(
            input.shape().dims()[1],
            self.in_features,
            "Linear forward: expected {} input features",
            self.in_features
        );
        matmul_into(input, &self.weight, out);
        add_bias_rows(out, &self.bias);
        ws.ensure_bufs(WS_WT + 1);
        ws.bufs[WS_INPUT].copy_from(input);
        ws.ready = true;
    }

    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ws: &mut LayerWs) {
        self.backward_params_in(grad_output, grad_input, ws);
        // grad_output: [batch, out], weight: [in, out] => dX = dY @ W^T : [batch, in]
        matmul_a_bt_into(grad_output, &self.weight, &mut ws.bufs[WS_WT], grad_input);
    }

    fn backward_params_in(
        &mut self,
        grad_output: &Tensor,
        _grad_input: &mut Tensor,
        ws: &mut LayerWs,
    ) {
        assert!(ws.ready, "Linear backward called before forward");
        // dW = X^T @ dY ; db = column sums of dY, each written over the
        // previous gradient (both kernels zero-fill their output first).
        matmul_at_b_into(&ws.bufs[WS_INPUT], grad_output, &mut self.grad_weight);
        sum_rows_into(grad_output, &mut self.grad_bias);
    }

    fn fallback_ws(&mut self) -> &mut LayerWs {
        &mut self.fallback
    }

    fn visit_params_and_grads(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.weight, &self.grad_weight);
        f(&mut self.bias, &self.grad_bias);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn param_names(&self) -> Vec<String> {
        vec!["weight".into(), "bias".into()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::Xoshiro256;

    fn numerical_grad_check(in_f: usize, out_f: usize) {
        let mut rng = Xoshiro256::new(42);
        let mut layer = Linear::new(in_f, out_f, &mut rng);
        let x = Tensor::rand_normal(Shape::matrix(3, in_f), 0.0, 1.0, &mut rng);
        // Loss = sum(forward(x)); dL/dy = ones.
        let y = layer.forward(&x);
        let ones = Tensor::full(y.shape().clone(), 1.0);
        layer.zero_grad();
        layer.forward(&x);
        layer.backward(&ones);
        let analytic = layer.grads()[0].clone();

        let eps = 1e-3f32;
        // Check a handful of weight coordinates numerically.
        for &idx in &[0usize, in_f * out_f / 2, in_f * out_f - 1] {
            let orig = layer.params()[0].data()[idx];
            layer.params_mut()[0].data_mut()[idx] = orig + eps;
            let lp = layer.forward(&x).sum();
            layer.params_mut()[0].data_mut()[idx] = orig - eps;
            let lm = layer.forward(&x).sum();
            layer.params_mut()[0].data_mut()[idx] = orig;
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
        let mut l = Linear::new(4, 7, &mut rng);
        let x = Tensor::zeros(Shape::matrix(5, 4));
        let y = l.forward(&x);
        assert_eq!(y.shape().dims(), &[5, 7]);
        // Zero input + zero bias => zero output.
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn known_small_case() {
        let mut rng = Xoshiro256::new(1);
        let mut l = Linear::new(2, 1, &mut rng);
        l.params_mut()[0].data_mut().copy_from_slice(&[2.0, 3.0]); // W
        l.params_mut()[1].data_mut().copy_from_slice(&[0.5]); // b
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[5.5]);
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
        l.forward(&x);
        let g = Tensor::full(Shape::matrix(4, 2), 1.0);
        l.backward(&g);
        // db = sum over batch of dY = 4.
        assert!(l.grads()[1].data().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = Xoshiro256::new(3);
        let mut l = Linear::new(3, 3, &mut rng);
        let x = Tensor::rand_normal(Shape::matrix(2, 3), 0.0, 1.0, &mut rng);
        l.forward(&x);
        l.backward(&Tensor::full(Shape::matrix(2, 3), 1.0));
        assert!(l.grads()[0].norm_l2() > 0.0);
        l.zero_grad();
        assert_eq!(l.grads()[0].norm_l2(), 0.0);
        assert_eq!(l.grads()[1].norm_l2(), 0.0);
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = Xoshiro256::new(4);
        let l = Linear::new(8, 5, &mut rng);
        assert_eq!(l.num_params(), 8 * 5 + 5);
    }
}
