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
//!   [`codec::UpdateCodec`]: every built-in spec into one `Pipeline`
//!   (optional error feedback, one selection stage, an optional QSGD
//!   quantizer), with custom codecs pluggable by name in the selection
//!   stage's place;
//! * [`codec::UpdateCodec`] — stateful
//!   `encode_sent(&mut self, dense, ratio, rng)` producing a real
//!   [`wire::WireUpdate`] byte buffer (varint-delta sparse indices,
//!   bit-packed QSGD levels — or, under an `:rc` spec, the same levels and
//!   index gaps entropy-coded by the adaptive-CDF rANS coder in [`rans`])
//!   together with the lossy update those bytes
//!   decode to, so nothing on the sending side decodes its own bytes;
//!   `encode` is its bytes-only projection and `decode` the receiver's side.
//!   Error-feedback residuals live inside the `ef-` pipeline;
//! * [`downlink::DownlinkChannel`] — the server-side broadcast wrapper: one
//!   codec encodes the global-parameter delta per round, recipients share the
//!   view those bytes carry, and error-feedback residuals live server-side;
//! * [`plan::LayerPlan`] — layer-aware codec plans: first-match
//!   `pattern=spec` rules (`"linear0.weight=topk;*.bias=dense;*=qsgd:8"`) assign one
//!   codec per named parameter segment, resolved into a
//!   [`plan::PlannedCodec`] that frames per-segment payloads into the
//!   [`wire::KIND_SEGMENTED`] wire kind (uniform plans collapse to the flat
//!   codec, bit for bit);
//! * [`codec::ResidualState`] — a codec's error-feedback residuals detached
//!   from it by [`codec::UpdateCodec::take_residual`] and handed back by
//!   `restore_residual`, so a round engine can park a client's carried-over
//!   mass beside the client's other persistent state (fl-core's roster keeps
//!   one slot per client) and rebuild or reuse codecs freely.
//!
//! **The primitives** codecs are built from:
//!
//! * [`sparse::SparseUpdate`] — the COO (index + value) representation with
//!   the paper's analytic wire-size accounting, and what every wire buffer
//!   decodes to (a frame that codes every coordinate decodes to the
//!   full-density [`sparse::SparseUpdate::full`]);
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
pub mod sparse;
pub mod spec;
pub mod threshold;
pub mod topk;
pub mod wire;

pub use codec::{CodecCtx, ResidualState, UpdateCodec};
pub use downlink::DownlinkChannel;
pub use plan::{glob_match, LayerPlan, PlanRule, PlannedCodec, SegmentDef};
pub use registry::{CodecFactory, CodecRegistry};
pub use sparse::{CompressedUpdate, SparseUpdate};
pub use spec::{CodecStage, CompressorSpec, SpecError};
pub use wire::{WireError, WireUpdate};

pub use rans::RansEncoder;
pub use wire::{encode_quantized_rc, encode_sparse_quantized_rc, KIND_ENTROPY};
