//! `fl-tensor` — dense tensors, deterministic random number generation and
//! sampling primitives used throughout the bwfl federated-learning simulator.
//!
//! The crate intentionally re-implements a small, fully deterministic numeric
//! substrate instead of binding to an external ML framework: every experiment
//! in the paper reproduction must be exactly replayable from a single `u64`
//! seed, across platforms, with no global state.
//!
//! # Overview
//!
//! * [`Shape`] / [`Tensor`] — row-major dense `f32` tensors with the small set
//!   of operations a feed-forward training loop needs (element-wise ops,
//!   matrix multiplication, reductions).
//! * [`rng::SplitMix64`] / [`rng::Xoshiro256`] — counter-seedable PRNGs.
//! * [`dist`] — Uniform, Normal, Gamma, Dirichlet and categorical samplers
//!   (the Dirichlet sampler drives the paper's non-IID label-skew partition).
//! * [`stats`] — mean / variance / histogram helpers used by the overlap
//!   analysis and the experiment reports.
//! * [`parallel`] — a work-pulling `parallel_map` (and friends) on scoped threads.
//! * [`kernels`] — fused in-place element-wise update kernels (axpy,
//!   SGD steps) behind the allocation-free training hot path.

#![forbid(unsafe_code)]

pub mod dist;
pub mod kernels;
pub mod matmul;
pub mod parallel;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use dist::{Categorical, Dirichlet, Gamma, Normal, Uniform};
pub use rng::{Rng, SplitMix64, Xoshiro256};
pub use shape::Shape;
pub use tensor::Tensor;
