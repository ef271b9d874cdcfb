//! Parameter flattening — the bridge between the model and the compression
//! pipeline — and the [`ParamLayout`] that preserves the layer structure the
//! flat vector erases.
//!
//! Federated compression operates on a single flat vector per client
//! (the model *delta* `w_t - w_{t,k,E}`); these helpers pack a model's
//! parameters into that vector and scatter a vector back into the model.
//! [`ParamLayout`] records, for the same packing order, which slice of the
//! flat vector belongs to which named parameter tensor (`linear0.weight`,
//! `linear1.bias`, …), so layer-aware codecs can treat each segment
//! differently without changing the wire-level contract.

use crate::model::Sequential;

/// One named slice of the flat parameter vector: a single parameter tensor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSegment {
    /// Segment name, `"{kind}{index}.{param}"` — e.g. `linear0.weight`:
    /// the lowercased layer kind, a per-kind counter over the layers that
    /// carry parameters, and the layer's name for the tensor.
    pub name: String,
    /// Offset of the segment's first scalar in the flat vector.
    pub offset: usize,
    /// Number of scalars in the segment (the tensor's `numel`).
    pub len: usize,
}

impl ParamSegment {
    /// The segment's index range within the flat vector.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// The ordered, named segmentation of a model's flat parameter vector,
/// aligned with [`flatten_params`] / [`unflatten_params`] (layer order, then
/// tensor order within the layer).
///
/// ```
/// use fl_nn::{mlp, ParamLayout};
/// use fl_tensor::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::new(1);
/// let model = mlp(6, &[10], 4, &mut rng);
/// let layout = ParamLayout::of(&model);
/// let names: Vec<&str> = layout.names().collect();
/// assert_eq!(
///     names,
///     ["linear0.weight", "linear0.bias", "linear1.weight", "linear1.bias"]
/// );
/// assert_eq!(layout.total_len(), model.num_params());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParamLayout {
    segments: Vec<ParamSegment>,
    total_len: usize,
}

impl ParamLayout {
    /// Derive the layout of a model's flat parameter vector. Layers without
    /// trainable parameters (activations) contribute no segments;
    /// layers of the same kind are numbered in model order (`linear0`,
    /// `linear1`, …), counting only parameterised layers.
    pub fn of(model: &Sequential) -> Self {
        let mut segments = Vec::new();
        let mut offset = 0usize;
        let mut kind_counts: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for layer in model.layers() {
            let params = layer.params();
            if params.is_empty() {
                continue;
            }
            let kind = layer.name().to_ascii_lowercase();
            let index = kind_counts.entry(kind.clone()).or_insert(0);
            let names = layer.param_names();
            for (i, p) in params.iter().enumerate() {
                let n = p.numel();
                if n == 0 {
                    continue;
                }
                let pname = names.get(i).cloned().unwrap_or_else(|| format!("p{i}"));
                segments.push(ParamSegment {
                    name: format!("{kind}{index}.{pname}"),
                    offset,
                    len: n,
                });
                offset += n;
            }
            *index += 1;
        }
        Self {
            segments,
            total_len: offset,
        }
    }

    /// Build a layout from explicit `(name, len)` pairs (tests and custom
    /// models). Offsets are cumulative in iteration order; zero-length
    /// segments are skipped.
    pub fn from_segments(segments: impl IntoIterator<Item = (String, usize)>) -> Self {
        let mut out = Vec::new();
        let mut offset = 0usize;
        for (name, len) in segments {
            if len == 0 {
                continue;
            }
            out.push(ParamSegment { name, offset, len });
            offset += len;
        }
        Self {
            segments: out,
            total_len: offset,
        }
    }

    /// The segments, in flat-vector order.
    pub fn segments(&self) -> &[ParamSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// True when the model has no trainable parameters.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total scalars covered (the model's flat parameter count).
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Segment names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.segments.iter().map(|s| s.name.as_str())
    }

    /// Check that a flat vector matches this layout's total length.
    pub fn check(&self, flat: &[f32]) -> Result<(), LayoutError> {
        if flat.len() == self.total_len {
            Ok(())
        } else {
            Err(LayoutError {
                expected: self.total_len,
                got: flat.len(),
            })
        }
    }

    /// The slice of `flat` belonging to segment `i`. Panics if `flat` is
    /// shorter than the layout or `i` is out of range.
    pub fn slice<'a>(&self, flat: &'a [f32], i: usize) -> &'a [f32] {
        let seg = &self.segments[i];
        &flat[seg.range()]
    }
}

impl std::fmt::Display for ParamLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}[{}]", s.name, s.len)?;
        }
        Ok(())
    }
}

/// A flat parameter vector does not match the model's layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutError {
    /// The model's flat parameter count.
    pub expected: usize,
    /// The offered vector's length.
    pub got: usize,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flat vector has {} entries but the model layout has {} parameters",
            self.got, self.expected
        )
    }
}

impl std::error::Error for LayoutError {}

/// Total number of trainable scalars of the model.
pub fn num_params(model: &Sequential) -> usize {
    model.num_params()
}

/// Concatenate every parameter tensor into one flat `Vec<f32>` (layer order,
/// then tensor order within the layer — the same order `unflatten_params`
/// expects and [`ParamLayout`] names).
pub fn flatten_params(model: &Sequential) -> Vec<f32> {
    let mut out = Vec::with_capacity(model.num_params());
    for p in model.params() {
        out.extend_from_slice(p.data());
    }
    out
}

/// Write a flat vector back into the model's parameters, rejecting a
/// length-mismatched vector with a typed [`LayoutError`] instead of writing
/// anything.
pub fn try_unflatten_params(model: &mut Sequential, flat: &[f32]) -> Result<(), LayoutError> {
    let expected = model.num_params();
    if flat.len() != expected {
        return Err(LayoutError {
            expected,
            got: flat.len(),
        });
    }
    unflatten_params(model, flat);
    Ok(())
}

/// Write a flat vector back into the model's parameters. The length check is
/// a `debug_assert` only — callers on the hot path (the round engine) uphold
/// the invariant by construction; code accepting externally supplied vectors
/// should use [`try_unflatten_params`] and surface the [`LayoutError`].
pub fn unflatten_params(model: &mut Sequential, flat: &[f32]) {
    debug_assert_eq!(
        flat.len(),
        model.num_params(),
        "flat vector has {} entries but the model has {} parameters",
        flat.len(),
        model.num_params()
    );
    let mut offset = 0usize;
    for p in model.params_mut() {
        let n = p.numel();
        p.data_mut().copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    }
}

/// Per-segment L1 mass of a flat vector under a layout: one `Σ|xᵢ|` per
/// segment, in layout order. The round engine feeds the aggregated update
/// through this to observe where the model's gradient signal concentrates —
/// the telemetry an adaptive plan policy splits its byte budget by.
pub fn segment_l1_masses(layout: &ParamLayout, flat: &[f32]) -> Vec<f64> {
    debug_assert!(layout.check(flat).is_ok(), "{:?}", layout.check(flat));
    (0..layout.num_segments())
        .map(|i| layout.slice(flat, i).iter().map(|&x| x.abs() as f64).sum())
        .collect()
}

/// Concatenate every gradient tensor into one flat vector, aligned with
/// [`flatten_params`].
pub fn flatten_grads(model: &Sequential) -> Vec<f32> {
    let mut out = Vec::with_capacity(model.num_params());
    for g in model.grads() {
        out.extend_from_slice(g.data());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mlp;
    use fl_tensor::rng::Xoshiro256;

    #[test]
    fn flatten_roundtrip() {
        let mut rng = Xoshiro256::new(1);
        let mut model = mlp(6, &[10], 4, &mut rng);
        let flat = flatten_params(&model);
        assert_eq!(flat.len(), num_params(&model));
        let mut modified = flat.clone();
        for (i, x) in modified.iter_mut().enumerate() {
            *x = i as f32;
        }
        unflatten_params(&mut model, &modified);
        let flat2 = flatten_params(&model);
        assert_eq!(flat2, modified);
    }

    #[test]
    fn flatten_preserves_layer_order() {
        let mut rng = Xoshiro256::new(2);
        let model = mlp(3, &[2], 2, &mut rng);
        let flat = flatten_params(&model);
        // First parameter tensor is the first Linear's weight [3,2].
        assert_eq!(&flat[..6], model.params()[0].data());
    }

    #[test]
    #[should_panic]
    fn unflatten_rejects_wrong_length_in_debug() {
        let mut rng = Xoshiro256::new(3);
        let mut model = mlp(3, &[2], 2, &mut rng);
        unflatten_params(&mut model, &[0.0; 3]);
    }

    #[test]
    fn try_unflatten_reports_a_typed_layout_error() {
        let mut rng = Xoshiro256::new(3);
        let mut model = mlp(3, &[2], 2, &mut rng);
        let expected = model.num_params();
        let before = flatten_params(&model);
        let err = try_unflatten_params(&mut model, &[0.0; 3]).unwrap_err();
        assert_eq!(err, LayoutError { expected, got: 3 });
        assert!(err.to_string().contains("3 entries"));
        // Nothing was written.
        assert_eq!(flatten_params(&model), before);
        // The matching length succeeds.
        let ok = vec![0.5; expected];
        try_unflatten_params(&mut model, &ok).unwrap();
        assert_eq!(flatten_params(&model), ok);
    }

    #[test]
    fn flatten_grads_matches_param_layout() {
        let mut rng = Xoshiro256::new(4);
        let model = mlp(5, &[7], 3, &mut rng);
        let grads = flatten_grads(&model);
        assert_eq!(grads.len(), num_params(&model));
        assert!(grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn segment_l1_masses_sum_per_segment() {
        let layout =
            ParamLayout::from_segments([("a.weight".to_string(), 3), ("a.bias".to_string(), 2)]);
        let flat = [1.0f32, -2.0, 3.0, -0.5, 0.5];
        let masses = segment_l1_masses(&layout, &flat);
        assert_eq!(masses, vec![6.0, 1.0]);
        // A zero vector yields all-zero masses (the allocator's fallback case).
        assert_eq!(segment_l1_masses(&layout, &[0.0; 5]), vec![0.0, 0.0],);
    }

    #[test]
    fn layout_names_and_offsets_align_with_flatten() {
        let mut rng = Xoshiro256::new(5);
        let model = mlp(4, &[3, 2], 2, &mut rng);
        let layout = ParamLayout::of(&model);
        let names: Vec<&str> = layout.names().collect();
        assert_eq!(
            names,
            [
                "linear0.weight",
                "linear0.bias",
                "linear1.weight",
                "linear1.bias",
                "linear2.weight",
                "linear2.bias",
            ]
        );
        assert_eq!(layout.total_len(), model.num_params());
        // Segments tile the vector: contiguous, in order, no gaps.
        let mut offset = 0;
        for seg in layout.segments() {
            assert_eq!(seg.offset, offset);
            offset += seg.len;
        }
        assert_eq!(offset, layout.total_len());
        // Each segment's slice is exactly the corresponding tensor's data.
        let flat = flatten_params(&model);
        for (i, p) in model.params().iter().enumerate() {
            assert_eq!(layout.slice(&flat, i), p.data());
        }
    }

    #[test]
    fn layout_check_and_from_segments() {
        let layout =
            ParamLayout::from_segments([("a.weight".to_string(), 4), ("a.bias".to_string(), 2)]);
        assert_eq!(layout.num_segments(), 2);
        assert_eq!(layout.total_len(), 6);
        assert_eq!(layout.segments()[1].range(), 4..6);
        assert!(layout.check(&[0.0; 6]).is_ok());
        assert_eq!(
            layout.check(&[0.0; 5]),
            Err(LayoutError {
                expected: 6,
                got: 5
            })
        );
        assert_eq!(layout.to_string(), "a.weight[4] a.bias[2]");
        // Zero-length segments are dropped.
        let trimmed = ParamLayout::from_segments([("x".to_string(), 0), ("y".to_string(), 3)]);
        assert_eq!(trimmed.num_segments(), 1);
        assert_eq!(trimmed.total_len(), 3);
    }

    #[test]
    fn empty_model_has_empty_layout() {
        let layout = ParamLayout::of(&Sequential::new());
        assert!(layout.is_empty());
        assert_eq!(layout.total_len(), 0);
    }
}
