//! `fl-data` — synthetic federated datasets and non-IID partitioning.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100 and SVHN partitioned across
//! clients with a Dirichlet label-skew (`p_k ~ Dir(beta)`, Li et al.'s
//! protocol). Real image datasets are not available in this offline
//! environment, so this crate provides *synthetic class-conditional
//! datasets* with matching class counts and configurable difficulty, plus the
//! identical Dirichlet partitioner.
//!
//! * [`dataset::Dataset`] — a flat feature matrix plus integer labels.
//! * [`synthetic`] — class-conditional Gaussian generators and the
//!   `cifar10_like` / `cifar100_like` / `svhn_like` presets.
//! * [`partition`] — Dirichlet label-skew partitioning into client shards and
//!   the client × class count matrix of Fig. 5.
//! * [`loader`] — shuffled mini-batch iteration.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod loader;
pub mod partition;
pub mod synthetic;

pub use dataset::Dataset;
pub use loader::BatchLoader;
pub use partition::{dirichlet_partition, ClientPartition, PartitionStats};
pub use synthetic::{DatasetPreset, SyntheticSpec};
