//! The [`Layer`] trait: forward and backward passes that write into
//! caller-owned tensors and a caller-owned [`LayerWs`] slot (there is no
//! allocating form), with per-layer parameter and gradient accessors.

use crate::workspace::LayerWs;
use fl_tensor::Tensor;

/// A differentiable layer.
///
/// The contract is the classic two-pass one, expressed allocation-free:
/// * `forward_in` maps an input batch to an output batch written into a
///   caller-provided tensor, caching whatever the backward pass needs in the
///   caller-provided [`LayerWs`] scratch slot;
/// * `backward_in` receives `dL/d(output)` and writes `dL/d(input)` into a
///   caller-provided tensor, while writing `dL/d(params)` into the layer's
///   gradient buffers (over whatever they held: no `zero_grad` is needed
///   between batches);
/// * `params` / `params_mut` / `grads` / `visit_params_and_grads` expose the
///   trainable state so the optimizer and the federated-learning parameter
///   flattening can reach it.
///
/// Inputs are rank-2 tensors `[batch, features]`.
///
/// `forward_in` takes `&self`: all cross-pass state lives in the workspace, so
/// a shared model can run concurrent forward passes over per-thread
/// workspaces (the parallel evaluation path relies on this).
pub trait Layer: Send + Sync {
    /// Forward pass over a batch, writing the output into `out` (resized as
    /// needed) and caching backward state in `ws`.
    fn forward_in(&self, input: &Tensor, out: &mut Tensor, ws: &mut LayerWs);

    /// Backward pass. `grad_output` is `dL/d(output)` for the most recent
    /// `forward_in` through `ws`; writes `dL/d(input)` into `grad_input` and
    /// the parameter gradients into the layer's gradient buffers.
    fn backward_in(&mut self, grad_output: &Tensor, grad_input: &mut Tensor, ws: &mut LayerWs);

    /// [`backward_in`](Layer::backward_in) for a caller that will not read
    /// `dL/d(input)` — the first layer of a training step, whose input is
    /// data. Parameter gradients are written exactly as in `backward_in`;
    /// `grad_input` is scratch whose contents are unspecified afterwards.
    /// The default runs the full backward; layers override it to skip the
    /// input-gradient work.
    fn backward_params_in(
        &mut self,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
        ws: &mut LayerWs,
    ) {
        self.backward_in(grad_output, grad_input, ws);
    }

    /// Immutable references to the trainable parameter tensors (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable references to the trainable parameter tensors (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Immutable references to the gradient tensors, aligned with `params`.
    fn grads(&self) -> Vec<&Tensor>;

    /// Visit each `(param, grad)` pair in [`params`](Self::params) order with
    /// simultaneous mutable parameter / immutable gradient access — the
    /// allocation-free accessor behind the fused optimizer step. Layers
    /// without parameters implement this as a no-op.
    fn visit_params_and_grads(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor));

    /// Reset all gradient buffers to zero.
    fn zero_grad(&mut self);

    /// Human-readable layer name for debugging and reports.
    fn name(&self) -> &'static str;

    /// Names of the trainable parameter tensors, aligned with
    /// [`params`](Self::params). Layers with the classic weight + bias pair
    /// override this (`["weight", "bias"]`); the default names parameters
    /// positionally (`p0`, `p1`, …). [`crate::params::ParamLayout`] combines
    /// these with a per-kind layer counter into segment names like
    /// `linear0.weight` or `linear1.bias`.
    fn param_names(&self) -> Vec<String> {
        (0..self.params().len()).map(|i| format!("p{i}")).collect()
    }

    /// Total number of trainable scalars in this layer.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }
}
