//! `fl-nn` — a minimal neural-network training engine for the bwfl
//! federated-learning simulator.
//!
//! The paper trains ResNet-18 with PyTorch; this crate is the from-scratch
//! substitute for the flat feature vectors `fl-data` generates: fully-connected
//! and ReLU layers, a softmax cross-entropy loss, plain SGD with
//! momentum/weight decay, and utilities for flattening a model's parameters
//! into the single dense vector that the compression pipeline operates on.
//!
//! Layers follow a classic explicit forward/backward contract
//! ([`layer::Layer`]); models are built with [`model::Sequential`] or the
//! convenience constructor [`model::mlp`].
//!
//! The training path is allocation-free and there is only that one: a
//! [`workspace::Workspace`] owns every intermediate buffer, and the
//! `forward_in` / `backward_in` methods on [`model::Sequential`] and
//! [`layer::Layer`] reuse those buffers batch after batch.

#![forbid(unsafe_code)]

pub mod activation;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod model;
pub mod optim;
pub mod params;
pub mod workspace;

pub use layer::Layer;
pub use loss::SoftmaxCrossEntropy;
pub use model::{mlp, Sequential};
pub use optim::Sgd;
pub use params::{
    flatten_params, num_params, segment_l1_masses, try_unflatten_params, unflatten_params,
    LayoutError, ParamLayout, ParamSegment,
};
pub use workspace::{LayerWs, Workspace};
