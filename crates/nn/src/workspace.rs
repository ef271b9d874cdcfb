//! Reusable scratch arenas for the allocation-free training hot path.
//!
//! A [`Workspace`] owns every intermediate buffer a forward/backward pass
//! needs — the activation and gradient ping-pong buffers threaded between
//! layers by [`crate::model::Sequential`], plus one [`LayerWs`] slot per layer
//! holding that layer's cross-pass state (cached inputs, ReLU masks).
//! Buffers are grown on first use and reused verbatim afterwards, so a
//! steady-state training batch performs no heap allocation at all.
//!
//! Ownership: the *caller* of the `_in` training API owns the workspace and
//! threads it through `forward_in` / `backward_in`; layers never allocate
//! cross-pass state of their own on that path. The allocating `forward` /
//! `backward` wrappers keep a private fallback workspace per layer/model so
//! existing callers observe identical behaviour.

use fl_tensor::Tensor;

/// Per-layer scratch slot: reusable tensors and a boolean mask (ReLU), both
/// owned by the enclosing [`Workspace`] rather than the layer.
#[derive(Default)]
pub struct LayerWs {
    /// Generic tensor scratch, indexed by a layer-private channel number.
    pub bufs: Vec<Tensor>,
    /// Boolean element mask (ReLU keeps its activation mask here).
    pub mask: Vec<bool>,
    /// Set by `forward_in` once this slot holds a valid cached state;
    /// `backward_in` asserts it for a clear backward-before-forward panic.
    pub ready: bool,
}

impl LayerWs {
    /// Fresh, empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the scratch-tensor vector to at least `n` (empty) tensors.
    pub fn ensure_bufs(&mut self, n: usize) {
        if self.bufs.len() < n {
            self.bufs.resize_with(n, Tensor::empty);
        }
    }
}

/// Scratch arena for one model: activation/gradient ping-pong buffers plus a
/// [`LayerWs`] per layer slot. Create one per training context (it is cheap
/// and empty until first use) and reuse it for every batch.
#[derive(Default)]
pub struct Workspace {
    pub(crate) x_a: Tensor,
    pub(crate) x_b: Tensor,
    pub(crate) g_a: Tensor,
    pub(crate) g_b: Tensor,
    pub(crate) layers: Vec<LayerWs>,
}

impl Workspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the per-layer slot vector to at least `n` slots.
    pub(crate) fn ensure_layers(&mut self, n: usize) {
        if self.layers.len() < n {
            self.layers.resize_with(n, LayerWs::default);
        }
    }
}
