//! Uniform random-K sparsification (an unbiased alternative to Top-K).

use crate::sparse::SparseUpdate;
use crate::topk;
use fl_tensor::rng::{Rng, SplitMix64};

/// Retain `k = ceil(ratio * len)` uniformly random coordinates, rescaled by
/// `len / k` so the compressed update is an unbiased estimator of the
/// original.
///
/// The coordinate choice is drawn from `seed` combined with a hash of the
/// input — the same input and seed always compress identically (replayable
/// experiments), while different rounds see different coordinate sets.
pub fn select(dense: &[f32], ratio: f64, seed: u64) -> SparseUpdate {
    let k = topk::k_for(dense.len(), ratio);
    if k == 0 {
        return SparseUpdate::empty(dense.len());
    }
    let mut rng = SplitMix64::new(seed ^ input_fingerprint(dense));
    let mut chosen = rng.sample_without_replacement(dense.len(), k);
    chosen.sort_unstable();
    let scale = dense.len() as f32 / k as f32;
    let indices: Vec<u32> = chosen.iter().map(|&i| i as u32).collect();
    let values: Vec<f32> = chosen.iter().map(|&i| dense[i] * scale).collect();
    SparseUpdate::new(indices, values, dense.len())
}

fn input_fingerprint(dense: &[f32]) -> u64 {
    // Cheap FNV-style fold over the bit patterns; only needs to vary
    // between rounds, not be cryptographic.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in dense.iter().step_by((dense.len() / 64).max(1)) {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^= dense.len() as u64;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_requested_count() {
        let dense: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(select(&dense, 0.1, 1).nnz(), 10);
    }

    #[test]
    fn same_input_same_output() {
        let dense: Vec<f32> = (0..50).map(|i| (i as f32).sin()).collect();
        let a = select(&dense, 0.2, 7);
        let b = select(&dense, 0.2, 7);
        assert_eq!(a.indices(), b.indices());
    }

    #[test]
    fn different_inputs_pick_different_coordinates() {
        let d1: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let d2: Vec<f32> = (0..200).map(|i| (i as f32).cos()).collect();
        let a = select(&d1, 0.1, 7);
        let b = select(&d2, 0.1, 7);
        assert_ne!(a.indices(), b.indices());
    }

    #[test]
    fn unbiased_scaling_preserves_mean_value() {
        // Expectation over the randomness equals the original sum; with a
        // constant vector this holds exactly per draw.
        let dense = vec![2.0f32; 100];
        let sum: f32 = select(&dense, 0.25, 3).to_dense().iter().sum();
        let orig: f32 = dense.iter().sum();
        assert!((sum - orig).abs() < 1e-3);
    }

    #[test]
    fn nan_entries_do_not_poison_selection() {
        // Rand-K never compares values (coordinates are drawn by index and
        // the fingerprint folds raw bit patterns), so NaN gradients must pass
        // through untouched: same count, deterministic coordinate choice.
        let mut dense: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        dense[17] = f32::NAN;
        let a = select(&dense, 0.1, 7);
        let b = select(&dense, 0.1, 7);
        assert_eq!(a.nnz(), 10);
        assert_eq!(a.indices(), b.indices());
    }
}
