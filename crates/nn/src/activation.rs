//! The parameter-free activation layer.

use crate::layer::Layer;
use crate::workspace::LayerWs;
use fl_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Default)]
pub struct Relu;

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Relu {
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, ws: &mut LayerWs) {
        out.resize_to(input.shape().dims());
        ws.mask.resize(input.numel(), false);
        for ((o, &x), keep) in out
            .data_mut()
            .iter_mut()
            .zip(input.data())
            .zip(ws.mask.iter_mut())
        {
            *keep = x > 0.0;
            *o = if *keep { x } else { 0.0 };
        }
        ws.ready = true;
    }

    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ws: &mut LayerWs) {
        assert!(ws.ready, "Relu backward called before forward");
        assert_eq!(
            ws.mask.len(),
            grad_output.numel(),
            "Relu backward size mismatch"
        );
        grad_input.resize_to(grad_output.shape().dims());
        for ((gi, &go), &keep) in grad_input
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(&ws.mask)
        {
            *gi = if keep { go } else { 0.0 };
        }
    }

    fn visit_params_and_grads(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    fn params(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let mut y = Tensor::empty();
        Relu::new().forward_in(&x, &mut y, &mut LayerWs::new());
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        let (mut ws, mut y, mut g) = (LayerWs::new(), Tensor::empty(), Tensor::empty());
        r.forward_in(&Tensor::from_slice(&[-1.0, 0.5, 2.0]), &mut y, &mut ws);
        r.backward_in(&Tensor::from_slice(&[10.0, 10.0, 10.0]), &mut g, &mut ws);
        assert_eq!(g.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn relu_has_no_params() {
        let r = Relu::new();
        assert!(r.params().is_empty());
        assert_eq!(r.num_params(), 0);
    }
}
