//! Overlap-aware Parameter Weighted Averaging (OPWA) — Algorithm 3 / Eq. 7.
//!
//! OPWA builds a parameter-level mask `M` from the overlap counts of the
//! round's sparse updates: coordinates retained by at most `D` clients
//! (default `D = 1`) get weight `γ`, all others weight 1. The server update
//! then becomes `w_{t+1} = w_t − η Σ_i p'_i · M ⊙ Δw^sparse_i`.

use crate::overlap::OverlapCounts;
use fl_compress::SparseUpdate;

/// The OPWA parameter mask for one round.
///
/// ```
/// use fl_compress::SparseUpdate;
/// use fl_core::{OpwaMask, OverlapCounts};
///
/// // Two clients retain overlapping coordinate sets after Top-K.
/// let a = SparseUpdate::new(vec![0, 1], vec![1.0, 1.0], 4);
/// let b = SparseUpdate::new(vec![0, 2], vec![1.0, 1.0], 4);
/// let counts = OverlapCounts::from_updates(&[&a, &b]);
/// let mask = OpwaMask::from_overlap(&counts, 3.0, 1);
/// // Coordinate 0 overlaps (weight 1); coordinates 1 and 2 are singletons
/// // and get the enlarge rate gamma = 3.
/// assert_eq!(mask.weights(), &[1.0, 3.0, 3.0, 1.0]);
/// assert_eq!(mask.apply(&a).values(), &[1.0, 3.0]);
/// ```
#[derive(Clone, Debug)]
pub struct OpwaMask {
    weights: Vec<f32>,
    gamma: f32,
    threshold: usize,
}

impl OpwaMask {
    /// Build the mask from a round's overlap counts (Alg. 3 `GenerateMask`).
    ///
    /// * `gamma` — enlarge rate `γ >= 1`;
    /// * `threshold` — required degree of overlap `D`; coordinates with
    ///   `1 <= overlap <= D` are enlarged. Coordinates retained by nobody get
    ///   weight 1 (they contribute nothing anyway).
    pub fn from_overlap(counts: &OverlapCounts, gamma: f32, threshold: usize) -> Self {
        assert!(gamma >= 1.0, "gamma must be >= 1");
        assert!(threshold >= 1, "threshold must be >= 1");
        let weights = counts
            .counts()
            .iter()
            .map(|&c| {
                if c > 0 && (c as usize) <= threshold {
                    gamma
                } else {
                    1.0
                }
            })
            .collect();
        Self {
            weights,
            gamma,
            threshold,
        }
    }

    /// A mask of all ones (no-op), used when OPWA is disabled.
    pub fn identity(len: usize) -> Self {
        Self {
            weights: vec![1.0; len],
            gamma: 1.0,
            threshold: 1,
        }
    }

    /// The enlarge rate this mask was built with.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// The overlap threshold this mask was built with.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Per-coordinate weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Number of coordinates that will be enlarged.
    pub fn enlarged_count(&self) -> usize {
        self.weights.iter().filter(|&&w| w != 1.0).count()
    }

    /// Apply the mask to a sparse update, returning a new update with the
    /// masked values (Eq. 7's `M(Δw^sparse_i)`).
    pub fn apply(&self, update: &SparseUpdate) -> SparseUpdate {
        assert_eq!(
            update.dense_len(),
            self.weights.len(),
            "mask length does not match update length"
        );
        let mut masked = update.clone();
        for (slot, &idx) in masked.values_mut().iter_mut().zip(update.indices().iter()) {
            *slot *= self.weights[idx as usize];
        }
        masked
    }

    /// Apply the mask in place to a dense accumulation buffer.
    pub fn apply_dense(&self, dense: &mut [f32]) {
        assert_eq!(dense.len(), self.weights.len(), "length mismatch");
        for (d, &w) in dense.iter_mut().zip(self.weights.iter()) {
            *d *= w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::{Rng, Uniform, Xoshiro256};

    fn sparse(indices: Vec<u32>, values: Vec<f32>, len: usize) -> SparseUpdate {
        SparseUpdate::new(indices, values, len)
    }

    fn two_client_counts() -> OverlapCounts {
        // Coordinate 0 retained by both clients, 1 and 2 by one each.
        let a = sparse(vec![0, 1], vec![1.0, 1.0], 4);
        let b = sparse(vec![0, 2], vec![1.0, 1.0], 4);
        OverlapCounts::from_updates(&[&a, &b])
    }

    #[test]
    fn mask_enlarges_low_overlap_only() {
        let mask = OpwaMask::from_overlap(&two_client_counts(), 3.0, 1);
        assert_eq!(mask.weights(), &[1.0, 3.0, 3.0, 1.0]);
        assert_eq!(mask.enlarged_count(), 2);
    }

    #[test]
    fn threshold_two_enlarges_everything_retained() {
        let mask = OpwaMask::from_overlap(&two_client_counts(), 2.0, 2);
        assert_eq!(mask.weights(), &[2.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn apply_scales_sparse_values() {
        let mask = OpwaMask::from_overlap(&two_client_counts(), 5.0, 1);
        let u = sparse(vec![0, 1], vec![2.0, 2.0], 4);
        let m = mask.apply(&u);
        assert_eq!(m.values(), &[2.0, 10.0]);
        assert_eq!(m.indices(), u.indices());
    }

    #[test]
    fn gamma_one_is_identity() {
        let mask = OpwaMask::from_overlap(&two_client_counts(), 1.0, 1);
        let u = sparse(vec![1, 3], vec![4.0, -2.0], 4);
        assert_eq!(mask.apply(&u), u);
    }

    #[test]
    fn identity_mask_is_noop() {
        let mask = OpwaMask::identity(4);
        let u = sparse(vec![0, 2], vec![1.5, -0.5], 4);
        assert_eq!(mask.apply(&u), u);
        let mut dense = vec![1.0, 2.0, 3.0, 4.0];
        mask.apply_dense(&mut dense);
        assert_eq!(dense, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn opwa_restores_singleton_magnitude_after_averaging() {
        // The motivating example (Fig. 3): a coordinate retained by a single
        // client out of 5 is shrunk 5x by uniform averaging; with gamma = 5
        // the averaged magnitude matches the original update.
        let cohort = 5usize;
        let updates: Vec<SparseUpdate> = (0..cohort)
            .map(|c| sparse(vec![c as u32], vec![1.0], cohort))
            .collect();
        let refs: Vec<&SparseUpdate> = updates.iter().collect();
        let counts = OverlapCounts::from_updates(&refs);
        let mask = OpwaMask::from_overlap(&counts, cohort as f32, 1);
        let p = 1.0 / cohort as f32;
        let mut plain = vec![0.0f32; cohort];
        let mut weighted = vec![0.0f32; cohort];
        for u in &updates {
            u.add_scaled_into(&mut plain, p);
            mask.apply(u).add_scaled_into(&mut weighted, p);
        }
        for i in 0..cohort {
            assert!((plain[i] - 0.2).abs() < 1e-6);
            assert!((weighted[i] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_update_length_rejected() {
        let mask = OpwaMask::identity(4);
        mask.apply(&sparse(vec![0], vec![1.0], 5));
    }

    #[test]
    #[should_panic]
    fn gamma_below_one_rejected() {
        OpwaMask::from_overlap(&two_client_counts(), 0.5, 1);
    }

    #[test]
    fn prop_masked_values_scaled_by_gamma_or_one() {
        let mut rng = Xoshiro256::new(1);
        for _ in 0..256 {
            let gamma = Uniform::new(1.0, 10.0).sample(&mut rng) as f32;
            let values: Vec<f32> = (0..rng.next_range(1, 30))
                .map(|_| Uniform::new(-5.0, 5.0).sample(&mut rng) as f32)
                .collect();
            let len = values.len();
            let indices: Vec<u32> = (0..len as u32).collect();
            let u = SparseUpdate::new(indices, values.clone(), len);
            // Single-client cohort: every retained coordinate is a singleton.
            let counts = OverlapCounts::from_updates(&[&u]);
            let mask = OpwaMask::from_overlap(&counts, gamma, 1);
            let m = mask.apply(&u);
            for (orig, masked) in values.iter().zip(m.values().iter()) {
                assert!((masked - orig * gamma).abs() < 1e-4);
            }
        }
    }
}
