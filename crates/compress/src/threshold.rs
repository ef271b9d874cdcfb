//! Hard-threshold sparsification: keep coordinates whose magnitude exceeds a
//! multiple of the vector's RMS value.

use crate::compressor::{CompressedUpdate, Compressor};
use crate::sparse::SparseUpdate;

/// Keep every coordinate with `|x_i| >= tau`, where `tau` is chosen from the
/// target ratio via the vector's magnitude distribution.
///
/// Unlike Top-K, the achieved ratio is only approximately the target — the
/// threshold is derived from the `1 - ratio` quantile of magnitudes — but
/// compression is a single pass and the retained set is "all coordinates that
/// matter at least this much", which some FL systems prefer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Threshold;

impl Threshold {
    /// New threshold compressor.
    pub fn new() -> Self {
        Self
    }

    /// The magnitude threshold corresponding to a retention `ratio`.
    pub fn threshold_for(dense: &[f32], ratio: f64) -> f32 {
        if dense.is_empty() {
            return 0.0;
        }
        let ratio = ratio.clamp(0.0, 1.0);
        if ratio >= 1.0 {
            return 0.0;
        }
        if ratio <= 0.0 {
            return f32::INFINITY;
        }
        let mut mags: Vec<f32> = dense.iter().map(|v| v.abs()).collect();
        // `total_cmp` orders magnitudes exactly as `partial_cmp` does and
        // puts NaN past infinity, so a diverged delta sorts instead of
        // panicking.
        mags.sort_unstable_by(f32::total_cmp);
        let cut = ((1.0 - ratio) * dense.len() as f64).floor() as usize;
        mags[cut.min(dense.len() - 1)]
    }
}

impl Compressor for Threshold {
    fn compress(&self, dense: &[f32], ratio: f64) -> CompressedUpdate {
        let tau = Self::threshold_for(dense, ratio);
        let sparse = SparseUpdate::from_dense_mask(dense, |_, v| v.abs() >= tau && v != 0.0);
        CompressedUpdate::Sparse(sparse)
    }

    fn name(&self) -> &'static str {
        "threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_large_magnitudes_only() {
        let dense = vec![0.1, 5.0, -0.2, -6.0, 0.05];
        let c = Threshold::new().compress(&dense, 0.4);
        let s = c.as_sparse().unwrap();
        assert_eq!(s.indices(), &[1, 3]);
    }

    #[test]
    fn achieved_ratio_close_to_target() {
        let dense: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let c = Threshold::new().compress(&dense, 0.1);
        let achieved = c.as_sparse().unwrap().compression_ratio();
        assert!((achieved - 0.1).abs() < 0.02, "achieved {achieved}");
    }

    #[test]
    fn ratio_one_keeps_all_nonzero() {
        let dense = vec![1.0, 0.0, 2.0];
        let c = Threshold::new().compress(&dense, 1.0);
        assert_eq!(c.as_sparse().unwrap().nnz(), 2);
    }

    #[test]
    fn ratio_zero_keeps_nothing() {
        let dense = vec![1.0, 2.0, 3.0];
        let c = Threshold::new().compress(&dense, 0.0);
        assert_eq!(c.as_sparse().unwrap().nnz(), 0);
    }

    #[test]
    fn non_finite_input_is_thresholded_without_panicking() {
        let dense = vec![0.1, f32::NAN, -6.0, f32::INFINITY, 0.05, f32::NEG_INFINITY];
        // NaN sorts last, so a cut inside the finite range still compares.
        assert_eq!(Threshold::threshold_for(&dense, 0.5), f32::INFINITY);
        let c = Threshold::new().compress(&dense, 0.5);
        assert_eq!(c.as_sparse().unwrap().indices(), &[3, 5]);
        // A NaN threshold keeps nothing rather than panicking.
        assert!(Threshold::threshold_for(&dense, 0.1).is_nan());
        assert_eq!(
            Threshold::new()
                .compress(&dense, 0.1)
                .as_sparse()
                .unwrap()
                .nnz(),
            0
        );
    }

    #[test]
    fn finite_input_selects_what_a_partial_cmp_sort_selects() {
        let dense: Vec<f32> = (0..500)
            .map(|i| ((i * 131) % 251) as f32 / 17.0 - 7.0)
            .chain([0.0, -0.0, f32::MIN_POSITIVE, -1e-40])
            .collect();
        let mut mags: Vec<f32> = dense.iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for ratio in [0.001, 0.01, 0.1, 0.37, 0.5, 0.9, 0.999] {
            let cut = ((1.0 - ratio) * dense.len() as f64).floor() as usize;
            let tau = Threshold::threshold_for(&dense, ratio);
            assert_eq!(tau.to_bits(), mags[cut.min(dense.len() - 1)].to_bits());
        }
    }

    #[test]
    fn empty_input_ok() {
        let c = Threshold::new().compress(&[], 0.5);
        assert_eq!(c.as_sparse().unwrap().nnz(), 0);
    }
}
