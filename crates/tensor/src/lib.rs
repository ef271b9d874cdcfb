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
//! * [`Shape`] / [`Tensor`] — row-major dense `f32` tensors: construction,
//!   random initialisation and the reusable-buffer resizing the
//!   allocation-free training path needs; the arithmetic lives in
//!   [`matmul`] and [`kernels`].
//! * [`rng::SplitMix64`] / [`rng::Xoshiro256`] — counter-seedable PRNGs.
//! * [`dist`] — Uniform, Normal, Gamma and Dirichlet samplers (the Dirichlet
//!   sampler drives the paper's non-IID label-skew partition).
//! * [`stats`] — the histogram behind the overlap-degree distribution.
//! * [`parallel`] — [`parallel::parallel_map`], a work-pulling map on scoped
//!   threads, and [`parallel::parallel_fixed_shards`] over it. Callers fan
//!   out clients, batches, shards and sweep cells; the matmul kernels run on
//!   the calling thread.
//! * [`kernels`] — fused in-place element-wise update kernels (axpy, the
//!   momentum SGD step) behind the allocation-free training hot path.

#![forbid(unsafe_code)]

pub mod dist;
pub mod kernels;
pub mod matmul;
pub mod parallel;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use dist::{Dirichlet, Gamma, Normal, Uniform};
pub use rng::{Rng, SplitMix64, Xoshiro256};
pub use shape::Shape;
pub use tensor::Tensor;
