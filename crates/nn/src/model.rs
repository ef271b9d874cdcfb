//! The experiment model: a multi-layer perceptron.

use crate::linear::Linear;
use crate::workspace::Workspace;
use fl_tensor::rng::Rng;
use fl_tensor::Tensor;

/// A stack of fully-connected layers with ReLU after every layer but the
/// last: `input -> Linear -> ReLU -> … -> Linear -> logits`. Built by
/// [`mlp`]; it always has at least one layer.
pub struct Sequential {
    pub(crate) layers: Vec<Linear>,
}

impl Sequential {
    /// Allocation-free forward pass: the batch is copied into the
    /// workspace, every layer writes its output into the next activation
    /// slot, and the returned reference (the logits) points into the
    /// workspace. Takes `&self` — a shared model can run concurrent forward
    /// passes over per-thread workspaces.
    pub fn forward_in<'w>(&self, input: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        let n = self.layers.len();
        if ws.acts.len() <= n {
            ws.acts.resize_with(n + 1, Tensor::empty);
        }
        ws.acts[0].copy_from(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = ws.acts.split_at_mut(i + 1);
            layer.forward_in(&inputs[i], i + 1 < n, &mut outputs[0]);
        }
        &ws.acts[n]
    }

    /// Allocation-free backward pass through the same workspace the forward
    /// pass used; returns `dL/d(input)` as a reference into the workspace.
    pub fn backward_in<'w>(&mut self, grad_output: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        self.backward_through(grad_output, ws, true);
        &ws.g_a
    }

    /// [`backward_in`](Self::backward_in) for a training step: every
    /// parameter gradient is written bit-identically, but `dL/d(input)` —
    /// which nobody reads, the input being data — is not computed.
    pub fn backward_params_in(&mut self, grad_output: &Tensor, ws: &mut Workspace) {
        self.backward_through(grad_output, ws, false);
    }

    /// The backward loop behind both entry points: each layer reads its
    /// input from the stored activations, and the gradient ping-pongs
    /// between the workspace's two buffers, ending in `g_a`.
    fn backward_through(&mut self, grad_output: &Tensor, ws: &mut Workspace, input_grad: bool) {
        let Workspace { acts, g_a, g_b } = ws;
        let last = self.layers.len() - 1;
        assert!(acts.len() > last + 1, "backward called before forward");
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let grad = if i == last {
                grad_output
            } else {
                relu_backward_in_place(g_a, &acts[i + 1]);
                &*g_a
            };
            layer.backward_params_in(&acts[i], grad);
            if i > 0 || input_grad {
                layer.backward_input_in(grad, g_b);
                std::mem::swap(g_a, g_b);
            }
        }
    }

    /// Zero every layer's gradient buffers.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Every parameter tensor in flat-vector order (each layer's weight,
    /// then its bias) — the one parameter walk, which allocates nothing.
    pub fn params_iter(&self) -> impl Iterator<Item = &Tensor> {
        self.layers.iter().flat_map(Linear::params)
    }

    /// Each parameter with its gradient, in [`params_iter`](Self::params_iter)
    /// order.
    pub(crate) fn params_and_grads_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(Linear::params_and_grads_mut)
    }

    /// All trainable parameters, collected for indexing.
    pub fn params(&self) -> Vec<&Tensor> {
        self.params_iter().collect()
    }

    /// All gradients, aligned with [`params`](Self::params).
    pub fn grads(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(Linear::grads).collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.params_iter().map(Tensor::numel).sum()
    }
}

/// ReLU's backward pass in place: keep the gradient where the ReLU's output
/// `act` is positive — exactly where its forward pass kept its input.
fn relu_backward_in_place(grad: &mut Tensor, act: &Tensor) {
    debug_assert_eq!(grad.numel(), act.numel(), "ReLU backward size mismatch");
    for (g, &a) in grad.data_mut().iter_mut().zip(act.data()) {
        *g = if a > 0.0 { *g } else { 0.0 };
    }
}

/// Multi-layer perceptron: `input -> hidden (ReLU) x N -> classes`. With no
/// hidden layer it is a single linear layer (logistic regression).
///
/// This is the default experiment model; with the synthetic datasets a
/// two-hidden-layer MLP gives the same qualitative compression/overlap
/// behaviour as the paper's ResNet-18 at a small fraction of the compute.
pub fn mlp<R: Rng>(input_dim: usize, hidden: &[usize], classes: usize, rng: &mut R) -> Sequential {
    let mut layers = Vec::with_capacity(hidden.len() + 1);
    let mut prev = input_dim;
    for &h in hidden.iter().chain([&classes]) {
        layers.push(Linear::new(prev, h, rng));
        prev = h;
    }
    Sequential { layers }
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
    fn mlp_without_hidden_layers_is_one_linear_layer() {
        let mut rng = Xoshiro256::new(5);
        let m = mlp(10, &[], 3, &mut rng);
        assert_eq!(m.layers.len(), 1);
        assert_eq!(m.num_params(), 33);
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
    fn relu_forward_clamps_negatives() {
        // A 1 -> 1 hidden layer with weight 1e-30 and bias -0.0: the inputs
        // give a negative, an underflowed -0.0 (`fma(-1e-30, 1e-30, +0.0)`
        // rounds once, to -0.0, and -0.0 + -0.0 stays -0.0), +0.0, NaN and a
        // positive pre-activation, and the ReLU in the tile's epilogue maps
        // all but the last to +0.0.
        let mut m = mlp(1, &[1], 1, &mut Xoshiro256::new(9));
        m.layers[0].weight.data_mut()[0] = 1e-30;
        m.layers[0].bias.data_mut()[0] = -0.0;
        let x = Tensor::from_vec(Shape::matrix(5, 1), vec![-1.0, -1e-30, 0.0, f32::NAN, 2.0]);
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        let mut pre = Tensor::empty();
        m.layers[0].forward_in(&x, false, &mut pre);
        assert_eq!(pre.data()[1].to_bits(), (-0.0f32).to_bits());
        assert!(pre.data()[3].is_nan());
        let mut ws = Workspace::new();
        m.forward_in(&x, &mut ws);
        let want: Vec<u32> = [0.0f32, 0.0, 0.0, 0.0, 2.0 * 1e-30]
            .map(f32::to_bits)
            .into();
        assert_eq!(bits(&ws.acts[1]), want, "-0.0 and NaN become +0.0");
    }

    #[test]
    fn relu_backward_masks_gradient() {
        // A post-ReLU activation: zero wherever the forward pass clamped.
        let act = Tensor::from_slice(&[0.0, 0.5, 0.0, 0.0, 2.0]);
        let mut g = Tensor::from_slice(&[10.0; 5]);
        relu_backward_in_place(&mut g, &act);
        assert_eq!(g.data(), &[0.0, 10.0, 0.0, 0.0, 10.0]);
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
}
