//! `fl-nn` — a minimal neural-network training engine for the bwfl
//! federated-learning simulator.
//!
//! The paper trains ResNet-18 with PyTorch; this crate is the from-scratch
//! substitute for the flat feature vectors `fl-data` generates: one model
//! type, [`model::Sequential`] — a stack of fully-connected layers with ReLU
//! between them, built by [`model::mlp`] — a softmax cross-entropy loss,
//! plain SGD with momentum/weight decay, and utilities for flattening a
//! model's parameters into the single dense vector that the compression
//! pipeline operates on.
//!
//! The training path is allocation-free and there is only that one: a
//! [`workspace::Workspace`] owns every intermediate buffer, and the
//! `forward_in` / `backward_in` methods on [`model::Sequential`] reuse those
//! buffers batch after batch. Every parameter walk (flattening, the
//! optimizer step, [`model::Sequential::params_iter`]) goes straight over
//! the layers' tensors and allocates nothing.

#![forbid(unsafe_code)]

mod linear;
pub mod loss;
pub mod model;
pub mod optim;
pub mod params;
pub mod workspace;

pub use loss::SoftmaxCrossEntropy;
pub use model::{mlp, Sequential};
pub use optim::Sgd;
pub use params::{
    flatten_params, segment_l1_masses, try_unflatten_params, unflatten_params, LayoutError,
    ParamLayout, ParamSegment,
};
pub use workspace::Workspace;
