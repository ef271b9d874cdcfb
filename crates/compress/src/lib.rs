//! `fl-compress` — compression of federated model updates.
//!
//! The paper's framework is built around *uplink sparsification*: each client
//! compresses its model delta before transmission, and the BCRS scheduler
//! chooses a per-client compression ratio. This crate provides two layers:
//!
//! **The codec pipeline** (the API the round engine uses):
//!
//! * [`spec::CompressorSpec`] — parseable descriptions like `"topk"`,
//!   `"qsgd:8"`, `"threshold:0.01"`, `"ef-topk"` and the composed
//!   `"topk+qsgd:4"`;
//! * [`registry::CodecRegistry`] — resolves a spec into a boxed
//!   [`codec::UpdateCodec`], with custom codecs pluggable by name;
//! * [`codec::UpdateCodec`] — stateful
//!   `encode_sent(&mut self, dense, ratio, rng)` producing a real
//!   [`wire::WireUpdate`] byte buffer (varint-delta sparse indices,
//!   bit-packed QSGD levels — or, under an `:rc` spec, the same levels and
//!   index gaps entropy-coded by the adaptive-CDF rANS coder in [`rans`])
//!   together with the lossy update those bytes
//!   decode to, so nothing on the sending side decodes its own bytes;
//!   `encode` is its bytes-only projection and `decode` the receiver's side.
//!   Error-feedback residuals live inside [`codec::EfCodec`];
//! * [`downlink::DownlinkChannel`] — the server-side broadcast wrapper: one
//!   codec encodes the global-parameter delta per round, recipients share the
//!   view those bytes carry, and error-feedback residuals live server-side;
//! * [`plan::LayerPlan`] — layer-aware codec plans: first-match
//!   `pattern=spec` rules (`"linear0.weight=topk;*.bias=dense;*=qsgd:8"`) assign one
//!   codec per named parameter segment, resolved into a
//!   [`plan::PlannedCodec`] that frames per-segment payloads into the
//!   [`wire::KIND_SEGMENTED`] wire kind (uniform plans collapse to the flat
//!   codec, bit for bit);
//! * [`residual_store::ResidualStore`] — sharded, population-scale
//!   persistence of error-feedback residuals keyed by client id. Codecs
//!   snapshot their residuals through
//!   [`codec::UpdateCodec::take_residual`]/`restore_residual`, so a round
//!   engine can rebuild a client's codec from scratch on selection and hand
//!   its carried-over mass back, keeping per-client state O(selected), not
//!   O(population).
//!
//! **The primitives** codecs are built from:
//!
//! * [`sparse::SparseUpdate`] — the COO (index + value) representation with
//!   the paper's analytic wire-size accounting, and
//!   [`update::CompressedUpdate`], what a wire buffer decodes to;
//! * the selection functions [`topk::select`], [`randk::select`] and
//!   [`threshold::select`], each returning the [`sparse::SparseUpdate`] it
//!   keeps, and the QSGD quantizer [`quantize::qsgd_levels`] /
//!   [`quantize::qsgd_dequantize`].

#![forbid(unsafe_code)]

pub mod codec;
pub mod downlink;
pub mod plan;
pub mod quantize;
pub mod randk;
pub mod rans;
pub mod registry;
pub mod residual_store;
pub mod sparse;
pub mod spec;
pub mod threshold;
pub mod topk;
pub mod update;
pub mod wire;

pub use codec::{
    CodecCtx, ComposedCodec, DenseCodec, EfCodec, QsgdCodec, RandKCodec, ResidualState,
    ThresholdCodec, TopKCodec, UpdateCodec,
};
pub use downlink::DownlinkChannel;
pub use plan::{
    glob_match, migrate_planned_residual, LayerPlan, PlanRule, PlannedCodec, SegmentDef,
};
pub use registry::{CodecFactory, CodecRegistry};
pub use residual_store::ResidualStore;
pub use sparse::SparseUpdate;
pub use spec::{CodecStage, CompressorSpec, SpecError};
pub use update::CompressedUpdate;
pub use wire::{WireError, WireUpdate};

pub use rans::RansEncoder;
pub use wire::{encode_quantized_rc, encode_sparse_quantized_rc, KIND_ENTROPY};
