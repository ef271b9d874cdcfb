//! Sequential model container and the model presets used by the experiments.

use crate::activation::Relu;
use crate::layer::Layer;
use crate::linear::Linear;
use crate::workspace::Workspace;
use fl_tensor::rng::Rng;
use fl_tensor::Tensor;

/// A plain sequential stack of layers.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Allocation-free forward pass: activations ping-pong between the
    /// workspace's two buffers, per-layer backward state lands in the
    /// workspace's layer slots, and the returned reference points into the
    /// workspace. Takes `&self` — a shared model can run concurrent forward
    /// passes over per-thread workspaces.
    pub fn forward_in<'w>(&self, input: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        ws.ensure_layers(self.layers.len());
        if self.layers.is_empty() {
            ws.x_a.copy_from(input);
            return &ws.x_a;
        }
        self.layers[0].forward_in(input, &mut ws.x_a, &mut ws.layers[0]);
        for i in 1..self.layers.len() {
            self.layers[i].forward_in(&ws.x_a, &mut ws.x_b, &mut ws.layers[i]);
            std::mem::swap(&mut ws.x_a, &mut ws.x_b);
        }
        &ws.x_a
    }

    /// Allocation-free backward pass through the same workspace the forward
    /// pass used; returns `dL/d(input)` as a reference into the workspace.
    pub fn backward_in<'w>(&mut self, grad_output: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        self.backward_through(grad_output, ws, true);
        &ws.g_a
    }

    /// [`backward_in`](Self::backward_in) for a training step: every
    /// parameter gradient is written bit-identically, but the first
    /// layer is told nobody reads `dL/d(input)` (its input is data) and may
    /// skip computing it.
    pub fn backward_params_in(&mut self, grad_output: &Tensor, ws: &mut Workspace) {
        self.backward_through(grad_output, ws, false);
    }

    /// The backward loop behind both entry points: gradients ping-pong
    /// between the workspace's two buffers and end in `g_a`.
    fn backward_through(&mut self, grad_output: &Tensor, ws: &mut Workspace, input_grad: bool) {
        ws.ensure_layers(self.layers.len());
        let Workspace {
            g_a, g_b, layers, ..
        } = ws;
        if self.layers.is_empty() {
            g_a.copy_from(grad_output);
            return;
        }
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let grad = if i == last { grad_output } else { &*g_a };
            if i == 0 && !input_grad {
                layer.backward_params_in(grad, g_b, &mut layers[i]);
            } else {
                layer.backward_in(grad, g_b, &mut layers[i]);
            }
            std::mem::swap(g_a, g_b);
        }
    }

    /// Zero every layer's gradient buffers.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visit each `(param, grad)` pair in [`params`](Self::params) order with
    /// simultaneous mutable parameter / immutable gradient access (the
    /// allocation-free accessor behind the fused optimizer step).
    pub fn visit_params_and_grads(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params_and_grads(f);
        }
    }

    /// All trainable parameters, layer by layer.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All trainable parameters, mutable.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// All gradients, aligned with `params`.
    pub fn grads(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Iterate over the layers themselves (used by
    /// [`crate::params::ParamLayout`] to derive named parameter segments).
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|l| l.as_ref())
    }
}

/// Multi-layer perceptron: `input -> hidden (ReLU) x N -> classes`.
///
/// This is the default experiment model; with the synthetic datasets a
/// two-hidden-layer MLP gives the same qualitative compression/overlap
/// behaviour as the paper's ResNet-18 at a small fraction of the compute.
pub fn mlp<R: Rng>(input_dim: usize, hidden: &[usize], classes: usize, rng: &mut R) -> Sequential {
    let mut model = Sequential::new();
    let mut prev = input_dim;
    for &h in hidden {
        model = model
            .push(Box::new(Linear::new(prev, h, rng)))
            .push(Box::new(Relu::new()));
        prev = h;
    }
    model.push(Box::new(Linear::new(prev, classes, rng)))
}

/// A logistic-regression model (single linear layer); the cheapest preset,
/// used by quick tests.
pub fn logistic_regression<R: Rng>(input_dim: usize, classes: usize, rng: &mut R) -> Sequential {
    Sequential::new().push(Box::new(Linear::new(input_dim, classes, rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::SoftmaxCrossEntropy;
    use crate::optim::Sgd;
    use fl_tensor::rng::Xoshiro256;
    use fl_tensor::Shape;

    #[test]
    fn mlp_shapes_and_param_count() {
        let mut rng = Xoshiro256::new(1);
        let m = mlp(8, &[16, 16], 4, &mut rng);
        assert_eq!(m.num_params(), 8 * 16 + 16 + 16 * 16 + 16 + 16 * 4 + 4);
        let x = Tensor::zeros(Shape::matrix(5, 8));
        let mut ws = Workspace::new();
        assert_eq!(m.forward_in(&x, &mut ws).shape().dims(), &[5, 4]);
    }

    #[test]
    fn params_and_grads_aligned() {
        let mut rng = Xoshiro256::new(3);
        let m = mlp(4, &[8], 3, &mut rng);
        let p = m.params();
        let g = m.grads();
        assert_eq!(p.len(), g.len());
        for (pi, gi) in p.iter().zip(g.iter()) {
            assert_eq!(pi.numel(), gi.numel());
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        // Two well-separated Gaussian blobs; a small MLP must fit them.
        let mut rng = Xoshiro256::new(4);
        let n = 64;
        let dim = 5;
        let mut xs = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            labels.push(class);
            for _ in 0..dim {
                let centre = if class == 0 { -2.0 } else { 2.0 };
                xs.push(centre + 0.5 * (rng.next_f32() - 0.5));
            }
        }
        let x = Tensor::from_vec(Shape::matrix(n, dim), xs);
        let mut model = mlp(dim, &[16], 2, &mut rng);
        let mut loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let (mut ws, mut g) = (Workspace::new(), Tensor::empty());
        let initial = loss.forward(model.forward_in(&x, &mut ws), &labels);
        for _ in 0..30 {
            let logits = model.forward_in(&x, &mut ws);
            loss.forward(logits, &labels);
            loss.backward_in(&mut g);
            model.backward_in(&g, &mut ws);
            opt.step(&mut model);
        }
        let fin = loss.forward(model.forward_in(&x, &mut ws), &labels);
        assert!(
            fin < initial * 0.5,
            "training did not reduce loss: {initial} -> {fin}"
        );
        let acc = SoftmaxCrossEntropy::accuracy(model.forward_in(&x, &mut ws), &labels);
        assert!(acc > 0.9, "accuracy after training was {acc}");
    }

    #[test]
    fn logistic_regression_single_layer() {
        let mut rng = Xoshiro256::new(5);
        let m = logistic_regression(10, 3, &mut rng);
        assert_eq!(m.len(), 1);
        assert_eq!(m.num_params(), 33);
    }

    #[test]
    fn empty_model_is_identity() {
        let m = Sequential::new();
        assert!(m.is_empty());
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(m.forward_in(&x, &mut Workspace::new()).data(), x.data());
    }
}
