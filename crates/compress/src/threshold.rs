//! Hard-threshold sparsification: keep coordinates whose magnitude reaches a
//! threshold read off the vector's magnitude distribution.

use crate::sparse::SparseUpdate;
use crate::topk;

/// Keep every coordinate with `|x_i| >= tau`, where `tau` is
/// [`threshold_for`] the target ratio.
///
/// Unlike Top-K, the achieved ratio is only approximately the target — the
/// threshold is the `1 - ratio` quantile of magnitudes, and every coordinate
/// that ties it is kept — but the retained set is "all coordinates that
/// matter at least this much", which some FL systems prefer.
pub fn select(dense: &[f32], ratio: f64) -> SparseUpdate {
    select_at(dense, threshold_for(dense, ratio))
}

/// Keep every non-zero coordinate with `|x_i| >= tau` (an absolute
/// threshold, `"threshold:0.01"`). A NaN `tau` keeps nothing.
pub(crate) fn select_at(dense: &[f32], tau: f32) -> SparseUpdate {
    SparseUpdate::from_dense_mask(dense, |_, v| v.abs() >= tau && v != 0.0)
}

/// The magnitude threshold corresponding to a retention `ratio`: the
/// `floor((1 - ratio) * len)`-th smallest magnitude under `total_cmp`, which
/// puts NaN past infinity, so a diverged delta yields a (possibly
/// non-finite) threshold instead of a panic. That order statistic is the
/// `(len - cut)`-th *largest* magnitude, which Top-K's linear-time selection
/// finds without sorting.
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
    let cut = ((1.0 - ratio) * dense.len() as f64).floor() as usize;
    topk::kth_largest_magnitude(dense, dense.len() - cut.min(dense.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort this module shipped before it borrowed Top-K's selection,
    /// kept as the differential oracle.
    fn threshold_for_oracle(dense: &[f32], ratio: f64) -> f32 {
        let mut mags: Vec<f32> = dense.iter().map(|v| v.abs()).collect();
        mags.sort_unstable_by(f32::total_cmp);
        let cut = ((1.0 - ratio) * dense.len() as f64).floor() as usize;
        mags[cut.min(dense.len() - 1)]
    }

    #[test]
    fn keeps_large_magnitudes_only() {
        let dense = vec![0.1, 5.0, -0.2, -6.0, 0.05];
        assert_eq!(select(&dense, 0.4).indices(), &[1, 3]);
    }

    #[test]
    fn achieved_ratio_close_to_target() {
        let dense: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let achieved = select(&dense, 0.1).compression_ratio();
        assert!((achieved - 0.1).abs() < 0.02, "achieved {achieved}");
    }

    #[test]
    fn ratio_one_keeps_all_nonzero() {
        assert_eq!(select(&[1.0, 0.0, 2.0], 1.0).nnz(), 2);
    }

    #[test]
    fn ratio_zero_keeps_nothing() {
        assert_eq!(select(&[1.0, 2.0, 3.0], 0.0).nnz(), 0);
    }

    #[test]
    fn non_finite_input_is_thresholded_without_panicking() {
        let dense = vec![0.1, f32::NAN, -6.0, f32::INFINITY, 0.05, f32::NEG_INFINITY];
        // NaN orders last, so a cut inside the finite range still compares.
        assert_eq!(threshold_for(&dense, 0.5), f32::INFINITY);
        assert_eq!(select(&dense, 0.5).indices(), &[3, 5]);
        // A NaN threshold keeps nothing rather than panicking.
        assert!(threshold_for(&dense, 0.1).is_nan());
        assert_eq!(select(&dense, 0.1).nnz(), 0);
    }

    #[test]
    fn selection_matches_the_sort_oracle_bit_for_bit() {
        const RATIOS: [f64; 9] = [1e-12, 0.001, 0.01, 0.1, 0.37, 0.5, 0.9, 0.999, 1.0 - 1e-12];
        // Both sides of Top-K's histogram switch (256) and of its 64-lane
        // gather blocks.
        for n in [1usize, 2, 63, 255, 256, 257, 320, 1000, 4133] {
            let inputs: [(&str, Vec<f32>); 6] = [
                ("all equal", vec![0.25; n]),
                (
                    "signed zeros",
                    (0..n)
                        .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                        .collect(),
                ),
                (
                    "heavy ties",
                    (0..n)
                        .map(|i| [0.5f32, -0.5, 2.0, -0.125][(i * 31 + i / 7) % 4])
                        .collect(),
                ),
                (
                    "subnormals",
                    (0..n)
                        .map(|i| f32::from_bits((i as u32).wrapping_mul(2_654_435_761) >> 9))
                        .collect(),
                ),
                (
                    "non-finite mix",
                    (0..n)
                        .map(|i| {
                            [
                                f32::NAN,
                                -f32::NAN,
                                f32::INFINITY,
                                f32::NEG_INFINITY,
                                f32::MAX,
                                -1e-40,
                                0.0,
                                1.0,
                            ][(i * 7 + i / 5) % 8]
                        })
                        .collect(),
                ),
                (
                    "spread",
                    (0..n)
                        .map(|i| ((i * 131) % 251) as f32 / 17.0 - 7.0)
                        .collect(),
                ),
            ];
            for (what, dense) in &inputs {
                for ratio in RATIOS {
                    assert_eq!(
                        threshold_for(dense, ratio).to_bits(),
                        threshold_for_oracle(dense, ratio).to_bits(),
                        "{what}: n = {n}, ratio = {ratio}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_ok() {
        assert_eq!(select(&[], 0.5).nnz(), 0);
    }
}
