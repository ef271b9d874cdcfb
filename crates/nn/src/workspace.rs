//! Reusable scratch arena for the allocation-free training hot path.
//!
//! A [`Workspace`] owns every intermediate buffer a forward/backward pass of
//! [`crate::model::Sequential`] needs: one activation tensor per layer
//! boundary (the copied batch, then each layer's output, after its ReLU for
//! hidden layers) and two gradient buffers. The backward pass
//! reads each layer's input, and each hidden ReLU's mask, from the stored
//! activations. Buffers are grown on first use and reused verbatim
//! afterwards, so a steady-state training batch performs no heap allocation
//! at all.
//!
//! Ownership: the *caller* of the `_in` training API owns the workspace and
//! threads it through `forward_in` / `backward_in`; the model holds no
//! cross-pass state of its own. A workspace is reusable across models and
//! batch shapes: every buffer is resized and overwritten before it is read,
//! so a reused workspace computes what a fresh one does.

use fl_tensor::Tensor;

/// Scratch arena for one model. Create one per training context (it makes
/// no allocation until first use) and reuse it for every batch.
#[derive(Default)]
pub struct Workspace {
    /// `acts[0]` is the batch; `acts[i + 1]` is layer `i`'s output.
    pub(crate) acts: Vec<Tensor>,
    pub(crate) g_a: Tensor,
    pub(crate) g_b: Tensor,
}

impl Workspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}
