//! Layer-aware codec plans: one codec per named parameter segment.
//!
//! The flat codec pipeline treats a model delta as one anonymous vector, but
//! real models are wildly heterogeneous per layer — a weight matrix
//! tolerates aggressive Top-K while a handful of bias coordinates collapses
//! under it. A [`LayerPlan`] assigns a [`CompressorSpec`] per segment of a
//! named parameter layout with a small first-match rule grammar:
//!
//! ```text
//! plan := rule ( ";" rule )*
//! rule := pattern "=" spec
//! ```
//!
//! where `pattern` is a glob over segment names (`*` any run, `?` one
//! character) and `spec` is any [`CompressorSpec`] the registry resolves —
//! so `"linear0.weight=topk;*.bias=dense;*=ef-topk+qsgd:4"` sparsifies the
//! first layer's weights, ships biases raw, and error-feedback-quantizes
//! everything else. Rules are
//! tried in order; the first matching pattern wins, and a segment with no
//! matching rule is an error (add a catch-all `*=<spec>`).
//!
//! [`LayerPlan::resolve`] turns a plan into an [`UpdateCodec`]:
//!
//! * when every segment resolves to the **same** spec the plan collapses to
//!   that flat codec over the whole vector — a uniform plan (`"*=topk"`) is
//!   bit-identical to the flat `topk` path, wire bytes and all;
//! * otherwise a [`PlannedCodec`] encodes every segment with its own codec
//!   instance (per-segment error-feedback residuals, per-segment RNG draws in
//!   segment order) and frames the pieces into one
//!   [`crate::wire::KIND_SEGMENTED`] buffer, so encoded byte counts — framing
//!   overhead included — stay honest.
//!
//! Like [`CompressorSpec`], plans parse and [`Display`](std::fmt::Display)
//! round-trip, so they travel through configuration freely without consulting
//! the registry.

use crate::codec::{debug_assert_sent, CodecCtx, ResidualState, UpdateCodec};
use crate::registry::CodecRegistry;
use crate::sparse::SparseUpdate;
use crate::spec::{CompressorSpec, SpecError};
use crate::update::CompressedUpdate;
use crate::wire::{encode_segmented, splice_segment, WireUpdate};
use fl_tensor::rng::Xoshiro256;

/// One `pattern=spec` rule of a [`LayerPlan`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanRule {
    /// Glob over segment names (`*` matches any run, `?` one character).
    pub pattern: String,
    /// The codec spec segments matching the pattern use.
    pub spec: CompressorSpec,
}

/// A named segment a plan resolves against: the bridge from a model's
/// parameter layout (e.g. `fl-nn`'s `ParamLayout`) into this crate, which
/// only needs names and lengths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentDef {
    /// Segment name the plan's patterns match against (`linear0.weight`, …).
    pub name: String,
    /// Number of scalars in the segment.
    pub len: usize,
}

impl SegmentDef {
    /// A named segment of `len` scalars.
    pub fn new(name: impl Into<String>, len: usize) -> Self {
        Self {
            name: name.into(),
            len,
        }
    }
}

/// An ordered list of first-match `pattern=spec` rules assigning one codec
/// spec to every segment of a parameter layout.
///
/// ```
/// use fl_compress::plan::LayerPlan;
///
/// let plan: LayerPlan = "linear0.weight=topk;*.bias=dense;*=ef-topk+qsgd:4".parse().unwrap();
/// assert_eq!(plan.rules.len(), 3);
/// assert_eq!(plan.to_string(), "linear0.weight=topk;*.bias=dense;*=ef-topk+qsgd:4");
/// assert_eq!(plan.spec_for("linear0.weight").unwrap().to_string(), "topk");
/// assert_eq!(plan.spec_for("linear1.bias").unwrap().to_string(), "dense");
/// assert_eq!(plan.spec_for("linear1.weight").unwrap().to_string(), "ef-topk+qsgd:4");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LayerPlan {
    /// The rules, tried in order; the first matching pattern wins.
    pub rules: Vec<PlanRule>,
}

impl LayerPlan {
    /// Parse a plan string (`"linear0.weight=topk;*=qsgd:8"`).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let trimmed = s.trim();
        if trimmed.is_empty() {
            return Err(SpecError::Parse(s.to_string()));
        }
        let mut rules = Vec::new();
        for part in trimmed.split(';') {
            let part = part.trim();
            let (pattern, spec) = part
                .split_once('=')
                .ok_or_else(|| SpecError::Parse(s.to_string()))?;
            let pattern = pattern.trim();
            if pattern.is_empty()
                || !pattern.chars().all(|c| {
                    c.is_ascii_alphanumeric()
                        || c == '*'
                        || c == '?'
                        || c == '.'
                        || c == '_'
                        || c == '-'
                })
            {
                return Err(SpecError::Parse(s.to_string()));
            }
            rules.push(PlanRule {
                pattern: pattern.to_string(),
                spec: CompressorSpec::parse(spec)?,
            });
        }
        Ok(Self { rules })
    }

    /// A single catch-all rule (`"*=<spec>"`): the uniform plan.
    pub fn uniform(spec: CompressorSpec) -> Self {
        Self {
            rules: vec![PlanRule {
                pattern: "*".into(),
                spec,
            }],
        }
    }

    /// The spec of the first rule matching `segment`, if any.
    pub fn spec_for(&self, segment: &str) -> Option<&CompressorSpec> {
        self.rules
            .iter()
            .find(|r| glob_match(&r.pattern, segment))
            .map(|r| &r.spec)
    }

    /// Check that every rule's spec resolves through `registry` without
    /// instantiating per-model state.
    pub fn validate(&self, registry: &CodecRegistry) -> Result<(), SpecError> {
        if self.rules.is_empty() {
            return Err(SpecError::Parse(String::new()));
        }
        for rule in &self.rules {
            registry.validate(&rule.spec)?;
        }
        Ok(())
    }

    /// Resolve the plan against a layout into a ready-to-use codec.
    ///
    /// Every segment is matched against the rules (an unmatched segment is a
    /// [`SpecError::UnmatchedSegment`]). When all segments resolve to the
    /// same spec, that spec is built flat over the whole vector — a uniform
    /// plan is bit-identical to the equivalent flat codec. Otherwise each
    /// segment gets its own codec instance (deterministically seeded from
    /// `ctx.seed` and the segment index) inside a [`PlannedCodec`].
    ///
    /// `ctx.dense_len` must equal the sum of the segment lengths.
    pub fn resolve(
        &self,
        registry: &CodecRegistry,
        segments: &[SegmentDef],
        ctx: &CodecCtx,
    ) -> Result<Box<dyn UpdateCodec>, SpecError> {
        let specs = self.segment_specs(segments, ctx)?;
        if specs.iter().all(|s| *s == specs[0]) {
            // Uniform plan: collapse to the flat codec over the whole vector
            // (same construction context, so the trajectory, the wire bytes
            // and any error-feedback state are bit-identical to the flat
            // pipeline).
            return registry.build(&specs[0], ctx);
        }
        self.build_planned(registry, segments, ctx, &specs, None)
    }

    /// Resolve the plan with a per-segment ratio multiplier, as emitted by an
    /// adaptive plan policy: segment `i` encodes at
    /// `clamp(ratio · scales[i], ε, 1)` instead of the caller's flat ratio.
    ///
    /// Unlike [`LayerPlan::resolve`] this never collapses to a flat codec —
    /// even a uniform plan keeps one codec instance per segment, because the
    /// scales make the segments genuinely different — so the wire format is
    /// always the `Segmented` frame and per-layer byte telemetry is always
    /// available. `scales` must have one entry per segment.
    pub fn resolve_scaled(
        &self,
        registry: &CodecRegistry,
        segments: &[SegmentDef],
        ctx: &CodecCtx,
        scales: &[f64],
    ) -> Result<Box<dyn UpdateCodec>, SpecError> {
        let specs = self.segment_specs(segments, ctx)?;
        assert_eq!(
            scales.len(),
            segments.len(),
            "one ratio scale per segment ({} segments, {} scales)",
            segments.len(),
            scales.len()
        );
        self.build_planned(registry, segments, ctx, &specs, Some(scales))
    }

    /// The spec of every segment, in layout order: the lookup
    /// [`LayerPlan::resolve`] and [`LayerPlan::resolve_scaled`] share. An
    /// empty layout or an unmatched segment is an error; a layout that does
    /// not cover `ctx.dense_len` scalars is a caller bug.
    fn segment_specs(
        &self,
        segments: &[SegmentDef],
        ctx: &CodecCtx,
    ) -> Result<Vec<CompressorSpec>, SpecError> {
        if segments.is_empty() {
            return Err(SpecError::UnmatchedSegment("<empty layout>".into()));
        }
        let total: usize = segments.iter().map(|s| s.len).sum();
        assert_eq!(
            total, ctx.dense_len,
            "layout covers {total} scalars but the codec context expects {}",
            ctx.dense_len
        );
        segments
            .iter()
            .map(|seg| {
                self.spec_for(&seg.name)
                    .cloned()
                    .ok_or_else(|| SpecError::UnmatchedSegment(seg.name.clone()))
            })
            .collect()
    }

    /// Shared `PlannedCodec` construction for [`LayerPlan::resolve`] (scales
    /// absent → every segment encodes at the caller's ratio) and
    /// [`LayerPlan::resolve_scaled`].
    fn build_planned(
        &self,
        registry: &CodecRegistry,
        segments: &[SegmentDef],
        ctx: &CodecCtx,
        specs: &[CompressorSpec],
        scales: Option<&[f64]>,
    ) -> Result<Box<dyn UpdateCodec>, SpecError> {
        let mut planned = Vec::with_capacity(segments.len());
        let mut offset = 0usize;
        for (i, (seg, spec)) in segments.iter().zip(specs.iter()).enumerate() {
            let seg_ctx = CodecCtx::new(
                seg.len,
                ctx.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            planned.push(PlannedSegment {
                name: seg.name.clone(),
                offset,
                len: seg.len,
                ratio_scale: scales.map(|s| s[i]).unwrap_or(1.0),
                codec: registry.build(spec, &seg_ctx)?,
            });
            offset += seg.len;
        }
        Ok(Box::new(PlannedCodec {
            segments: planned,
            dense_len: segments.iter().map(|s| s.len).sum(),
            plan_display: self.to_string(),
        }))
    }
}

impl std::fmt::Display for LayerPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{}={}", rule.pattern, rule.spec)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for LayerPlan {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Glob match over segment names: `*` matches any (possibly empty) run of
/// characters, `?` exactly one; everything else is literal.
///
/// Iterative single-backtrack matching — `O(len(pattern) · len(name))` even
/// for pathological star-heavy patterns (plans arrive from CLI flags and
/// config files, so validation must not be exponential in `*` count).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p = pattern.as_bytes();
    let n = name.as_bytes();
    let (mut pi, mut ni) = (0usize, 0usize);
    // Most recent star: (pattern index after it, name index it last matched).
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi + 1, ni));
            pi += 1;
        } else if let Some((after_star, matched)) = star {
            // Backtrack: let the star swallow one more character.
            pi = after_star;
            ni = matched + 1;
            star = Some((after_star, matched + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// One resolved segment of a [`PlannedCodec`].
struct PlannedSegment {
    name: String,
    offset: usize,
    len: usize,
    /// Per-segment ratio multiplier (1.0 for statically resolved plans).
    ratio_scale: f64,
    codec: Box<dyn UpdateCodec>,
}

impl PlannedSegment {
    /// This segment's share of the caller's `ratio`. `ratio_scale` is exactly
    /// 1.0 on the static path, so the clamp reproduces the caller's ratio
    /// bit-for-bit there.
    fn ratio(&self, ratio: f64) -> f64 {
        (ratio * self.ratio_scale).clamp(MIN_SEGMENT_RATIO, 1.0)
    }
}

/// Floor for a scaled per-segment ratio: a scale can shrink a segment's
/// budget but never to zero (every sparsifier needs a strictly positive
/// ratio).
const MIN_SEGMENT_RATIO: f64 = 1e-9;

/// A layer-aware codec: one codec instance per layout segment, framing the
/// per-segment wire buffers into a single [`crate::wire::KIND_SEGMENTED`]
/// update whose length is the honest bidirectional byte count (framing
/// overhead included).
///
/// Segments encode in layout order, drawing from the caller's RNG stream in
/// that order, so planned runs replay exactly. Per-segment codec state
/// (error-feedback residuals) lives inside each segment's codec. Segment
/// codecs must emit the standard wire kinds — the frame's decode path relies
/// on [`WireUpdate::decode`] understanding every nested payload.
pub struct PlannedCodec {
    segments: Vec<PlannedSegment>,
    dense_len: usize,
    plan_display: String,
}

impl UpdateCodec for PlannedCodec {
    fn name(&self) -> String {
        self.plan_display.clone()
    }

    fn reusable(&self) -> bool {
        self.segments.iter().all(|s| s.codec.reusable())
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        rng: &mut Xoshiro256,
    ) -> (WireUpdate, CompressedUpdate) {
        assert_eq!(
            dense.len(),
            self.dense_len,
            "planned codec built for {} parameters got {}",
            self.dense_len,
            dense.len()
        );
        // Splice what each segment sent with the routine the `Segmented`
        // decoder splices what each part decodes to.
        let mut parts = Vec::with_capacity(self.segments.len());
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        for seg in &mut self.segments {
            let seg_ratio = seg.ratio(ratio);
            let (wire, sent) =
                seg.codec
                    .encode_sent(&dense[seg.offset..seg.offset + seg.len], seg_ratio, rng);
            parts.push(wire);
            splice_segment(sent, seg.offset, &mut indices, &mut values);
        }
        let wire = encode_segmented(self.dense_len, &parts);
        let sent = CompressedUpdate::Sparse(SparseUpdate::new(indices, values, self.dense_len));
        debug_assert_sent(&wire, &sent);
        (wire, sent)
    }

    fn residual_norm(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.codec.residual_norm().powi(2))
            .sum::<f64>()
            .sqrt()
    }

    fn take_residual(&mut self) -> ResidualState {
        // Concatenate every segment codec's parts in layout order; restore
        // walks the same order, so the flattened list is unambiguous.
        let mut parts = Vec::new();
        for seg in &mut self.segments {
            parts.extend(seg.codec.take_residual().parts);
        }
        ResidualState { parts }
    }

    fn restore_residual(&mut self, state: ResidualState) {
        if state.parts.is_empty() {
            return;
        }
        let mut remaining = state.parts.into_iter();
        for seg in &mut self.segments {
            // Probe how many parts this segment codec owns by taking its
            // pristine residual state — harmless, since restore only runs on
            // codecs that are new or have just had their residual taken —
            // then feed it that many parts from the flattened snapshot.
            let want = seg.codec.take_residual().parts.len();
            if want == 0 {
                continue;
            }
            let parts: Vec<Vec<f32>> = remaining.by_ref().take(want).collect();
            assert_eq!(
                parts.len(),
                want,
                "planned codec residual snapshot ran out of parts for segment {}",
                seg.name
            );
            seg.codec.restore_residual(ResidualState { parts });
        }
        let leftover = remaining.count();
        assert_eq!(
            leftover, 0,
            "planned codec residual snapshot has {leftover} unconsumed parts"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk;
    use crate::wire::KIND_SEGMENTED;
    use fl_tensor::rng::Rng;

    fn rng() -> Xoshiro256 {
        Xoshiro256::new(7)
    }

    fn delta(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37).sin() * 0.1).collect()
    }

    fn segs(lens: &[(&str, usize)]) -> Vec<SegmentDef> {
        lens.iter().map(|&(n, l)| SegmentDef::new(n, l)).collect()
    }

    #[test]
    fn parse_display_roundtrip() {
        for raw in [
            "*=topk",
            "conv*=topk;*.bias=dense;*=ef-topk+qsgd:4",
            "linear0.weight=randk;*=threshold:0.01",
            "??nv*=qsgd:8;*=topk",
            "a_b-c.d*=dense;*=topk",
        ] {
            let plan: LayerPlan = raw.parse().unwrap_or_else(|e| panic!("{raw}: {e}"));
            assert_eq!(plan.to_string(), raw);
            assert_eq!(raw.parse::<LayerPlan>().unwrap(), plan);
        }
    }

    #[test]
    fn rejects_malformed_plans() {
        for raw in [
            "",
            ";",
            "topk",           // no '='
            "=topk",          // empty pattern
            "*=topk;",        // trailing empty rule
            "co nv=topk",     // space inside a pattern
            "conv*=",         // empty spec
            "conv*=+topk",    // malformed spec
            "c(onv)*=topk",   // bad pattern chars
            "conv*=topk;;*=", // empty middle rule
        ] {
            assert!(LayerPlan::parse(raw).is_err(), "{raw:?} should not parse");
        }
    }

    #[test]
    fn glob_matching_semantics() {
        assert!(glob_match("*", "anything.at.all"));
        assert!(glob_match("conv*", "conv2d0.weight"));
        assert!(!glob_match("conv*", "linear0.weight"));
        assert!(glob_match("*.bias", "linear3.bias"));
        assert!(!glob_match("*.bias", "linear3.weight"));
        assert!(glob_match("linear?.weight", "linear0.weight"));
        assert!(!glob_match("linear?.weight", "linear10.weight"));
        assert!(glob_match("*0.w*t", "conv2d0.weight"));
        assert!(glob_match("**", "x"));
        assert!(glob_match("**", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("", ""));
        // Star-heavy patterns stay linear-ish, not exponential: this returns
        // (quickly) instead of hanging validation.
        let evil = "*a*a*a*a*a*a*a*a*a*a*x";
        assert!(!glob_match(evil, &"a".repeat(64)));
        assert!(glob_match(evil, &("a".repeat(64) + "x")));
    }

    #[test]
    fn first_match_wins() {
        let plan: LayerPlan = "*.bias=dense;conv*=topk;*=qsgd:8".parse().unwrap();
        assert_eq!(plan.spec_for("conv2d0.bias").unwrap().to_string(), "dense");
        assert_eq!(plan.spec_for("conv2d0.weight").unwrap().to_string(), "topk");
        assert_eq!(
            plan.spec_for("linear0.weight").unwrap().to_string(),
            "qsgd:8"
        );
        assert_eq!(plan.spec_for(""), Some(&"qsgd:8".parse().unwrap()));
        let narrow: LayerPlan = "conv*=topk".parse().unwrap();
        assert_eq!(narrow.spec_for("linear0.weight"), None);
    }

    #[test]
    fn uniform_plan_collapses_to_the_flat_codec() {
        let plan = LayerPlan::uniform("topk".parse().unwrap());
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 80), ("a.bias", 20)]);
        let mut codec = plan
            .resolve(&registry, &layout, &CodecCtx::new(100, 5))
            .unwrap();
        assert_eq!(codec.name(), "topk");
        let d = delta(100);
        let wire = codec.encode(&d, 0.1, &mut rng());
        // Bit-identical to the flat path: same bytes, no segmented frame.
        let mut flat = registry
            .build(&"topk".parse().unwrap(), &CodecCtx::new(100, 5))
            .unwrap();
        assert_eq!(wire.as_bytes(), flat.encode(&d, 0.1, &mut rng()).as_bytes());
        assert_eq!(wire.segment_byte_lens(), None);
        // Multiple rules that resolve every segment to the same spec also
        // collapse.
        let aliased: LayerPlan = "*.bias=topk;*=topk".parse().unwrap();
        let codec = aliased
            .resolve(&registry, &layout, &CodecCtx::new(100, 5))
            .unwrap();
        assert_eq!(codec.name(), "topk");
    }

    #[test]
    fn mixed_plan_encodes_a_segmented_frame_with_exact_framing() {
        let plan: LayerPlan = "*.bias=dense;*=topk".parse().unwrap();
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 200), ("a.bias", 8), ("b.weight", 100)]);
        let mut codec = plan
            .resolve(&registry, &layout, &CodecCtx::new(308, 5))
            .unwrap();
        assert_eq!(codec.name(), "*.bias=dense;*=topk");
        let d = delta(308);
        let wire = codec.encode(&d, 0.1, &mut rng());
        assert_eq!(wire.kind().unwrap(), KIND_SEGMENTED);
        let seg_lens = wire.segment_byte_lens().unwrap();
        assert_eq!(seg_lens.len(), 3);
        // Framing overhead is charged exactly: outer header (4) + varint
        // dense_len + varint segment count + one length varint per segment
        // (all lengths here fit one byte).
        let framing = 4 + 2 + 1 + seg_lens.len();
        assert_eq!(wire.len(), framing + seg_lens.iter().sum::<usize>());

        // Per-segment behaviour: top-k within each weight segment, the bias
        // segment shipped exact.
        let s = wire.decode().unwrap().into_sparse().unwrap();
        let in_a = s.indices().iter().filter(|&&i| i < 200).count();
        let bias: Vec<f32> = s
            .indices()
            .iter()
            .zip(s.values().iter())
            .filter(|(&i, _)| (200..208).contains(&(i as usize)))
            .map(|(_, &v)| v)
            .collect();
        let in_b = s.indices().iter().filter(|&&i| i >= 208).count();
        assert_eq!(in_a, topk::k_for(200, 0.1));
        assert_eq!(in_b, topk::k_for(100, 0.1));
        assert_eq!(bias, d[200..208].to_vec());
        // The decoded values of retained weight coordinates match the input.
        for (&i, &v) in s.indices().iter().zip(s.values().iter()) {
            assert_eq!(v, d[i as usize], "index {i}");
        }

        // Compare against the flat codec: the plan retains each layer's
        // share, the flat codec retains a global top-k.
        let flat = topk::select(&d, 0.1);
        assert_ne!(flat.indices(), s.indices());
    }

    #[test]
    fn entropy_rule_resolves_and_matches_bitpacked_plan_values() {
        // An `:rc` spec inside a plan rule resolves through the registry like
        // any other, frames entropy-coded segments, and (same bit width, same RNG)
        // dequantizes bit-identically to the bit-packed plan in fewer bytes.
        let rc_plan: LayerPlan = "*.weight=qsgd:4:rc;*=dense".parse().unwrap();
        assert_eq!(rc_plan.to_string(), "*.weight=qsgd:4:rc;*=dense");
        let packed_plan: LayerPlan = "*.weight=qsgd:4;*=dense".parse().unwrap();
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 3000), ("a.bias", 8)]);
        let ctx = CodecCtx::new(3008, 5);
        let mut rc = rc_plan.resolve(&registry, &layout, &ctx).unwrap();
        assert_eq!(rc.name(), "*.weight=qsgd:4:rc;*=dense");
        let mut packed = packed_plan.resolve(&registry, &layout, &ctx).unwrap();
        let d = delta(3008);
        let wr = rc.encode(&d, 1.0, &mut rng());
        let wp = packed.encode(&d, 1.0, &mut rng());
        assert_eq!(wr.kind().unwrap(), KIND_SEGMENTED);
        assert!(
            wr.len() < wp.len(),
            "rc {} >= packed {}",
            wr.len(),
            wp.len()
        );
        let a = wr.decode().unwrap().into_dense();
        let b = wp.decode().unwrap().into_dense();
        assert!(a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn planned_ef_segments_keep_their_own_residuals() {
        let plan: LayerPlan = "*.bias=dense;*=ef-topk".parse().unwrap();
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 100), ("a.bias", 4)]);
        let mut codec = plan
            .resolve(&registry, &layout, &CodecCtx::new(104, 5))
            .unwrap();
        assert_eq!(codec.residual_norm(), 0.0);
        let d = delta(104);
        let mut stream = rng();
        let _ = codec.encode(&d, 0.05, &mut stream);
        assert!(codec.residual_norm() > 0.0, "EF segment accumulates");
        // The dense bias segment contributes nothing to the residual, so the
        // planned residual equals a standalone ef-topk over the weight
        // segment fed the same stream (segments draw in order; neither the
        // dense nor the top-k stage consumes randomness).
        let mut ef = registry
            .build(&"ef-topk".parse().unwrap(), &CodecCtx::new(100, 5))
            .unwrap();
        let _ = ef.encode(&d[..100], 0.05, &mut rng());
        assert!((codec.residual_norm() - ef.residual_norm()).abs() < 1e-12);
    }

    #[test]
    fn unmatched_segments_and_unknown_codecs_are_reported() {
        let registry = CodecRegistry::with_builtins();
        let plan: LayerPlan = "conv*=topk".parse().unwrap();
        let err = plan
            .resolve(
                &registry,
                &segs(&[("linear0.weight", 10)]),
                &CodecCtx::new(10, 0),
            )
            .err()
            .expect("unmatched segment must be rejected");
        assert_eq!(err, SpecError::UnmatchedSegment("linear0.weight".into()));
        assert!(err.to_string().contains("catch-all"));

        let bad: LayerPlan = "*=no-such-codec".parse().unwrap();
        assert_eq!(
            bad.validate(&registry),
            Err(SpecError::UnknownCodec("no-such-codec".into()))
        );
    }

    #[test]
    fn planned_residual_snapshot_moves_between_instances() {
        // Two EF segments around a stateless dense one: the flattened
        // snapshot must carry both parts, in segment order, and restoring it
        // into a freshly resolved codec must continue the trajectory
        // bit-for-bit.
        let plan: LayerPlan = "*.bias=dense;*=ef-topk".parse().unwrap();
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 100), ("a.bias", 4), ("b.weight", 50)]);
        let build = || {
            plan.resolve(&registry, &layout, &CodecCtx::new(154, 5))
                .unwrap()
        };
        let d = delta(154);

        let mut persistent = build();
        let _ = persistent.encode(&d, 0.05, &mut rng());
        let second_wire = persistent.encode(&d, 0.05, &mut rng());

        let mut first = build();
        let _ = first.encode(&d, 0.05, &mut rng());
        let snap = first.take_residual();
        assert_eq!(snap.parts.len(), 2, "one part per EF segment");
        assert_eq!(snap.parts[0].len(), 100);
        assert_eq!(snap.parts[1].len(), 50);
        let mut resumed = build();
        resumed.restore_residual(snap);
        let resumed_wire = resumed.encode(&d, 0.05, &mut rng());
        assert_eq!(resumed_wire.as_bytes(), second_wire.as_bytes());
    }

    #[test]
    fn scaled_resolve_applies_per_segment_ratios() {
        // A *uniform* plan with scales still resolves to a segmented codec
        // (no flat collapse) and each segment sparsifies at its own scaled
        // ratio.
        let plan = LayerPlan::uniform("topk".parse().unwrap());
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 200), ("b.weight", 100)]);
        let mut codec = plan
            .resolve_scaled(&registry, &layout, &CodecCtx::new(300, 5), &[0.5, 2.0])
            .unwrap();
        let d = delta(300);
        let wire = codec.encode(&d, 0.1, &mut rng());
        assert_eq!(wire.kind().unwrap(), KIND_SEGMENTED);
        let s = wire.decode().unwrap().into_sparse().unwrap();
        let in_a = s.indices().iter().filter(|&&i| i < 200).count();
        let in_b = s.indices().iter().filter(|&&i| i >= 200).count();
        assert_eq!(in_a, topk::k_for(200, 0.05));
        assert_eq!(in_b, topk::k_for(100, 0.2));
        // All-1.0 scales still frame segments (no flat collapse).
        let mut unscaled = plan
            .resolve_scaled(&registry, &layout, &CodecCtx::new(300, 5), &[1.0, 1.0])
            .unwrap();
        let w1 = unscaled.encode(&d, 0.1, &mut rng());
        assert_eq!(w1.segment_byte_lens().unwrap().len(), 2);
        // Scales saturate at ratio 1.0 instead of over-shooting.
        let mut maxed = plan
            .resolve_scaled(&registry, &layout, &CodecCtx::new(300, 5), &[50.0, 50.0])
            .unwrap();
        let all = maxed
            .encode(&d, 0.1, &mut rng())
            .decode()
            .unwrap()
            .into_sparse()
            .unwrap();
        assert_eq!(all.indices().len(), 300, "ratio clamps at 1.0");
    }

    #[test]
    fn planned_encode_is_deterministic_and_draws_in_segment_order() {
        let plan: LayerPlan = "*.bias=dense;*=randk".parse().unwrap();
        let registry = CodecRegistry::with_builtins();
        let layout = segs(&[("a.weight", 60), ("a.bias", 4), ("b.weight", 40)]);
        let build = || {
            plan.resolve(&registry, &layout, &CodecCtx::new(104, 9))
                .unwrap()
        };
        let d = delta(104);
        let w1 = build().encode(&d, 0.2, &mut rng());
        let w2 = build().encode(&d, 0.2, &mut rng());
        assert_eq!(w1.as_bytes(), w2.as_bytes());
        // Two rand-k segments consume two u64 draws, in segment order.
        let mut stream = rng();
        let _ = build().encode(&d, 0.2, &mut stream);
        let mut fresh = rng();
        fresh.next_u64();
        fresh.next_u64();
        assert_eq!(stream.next_u64(), fresh.next_u64());
    }
}
