//! Server-side aggregation of client updates (Alg. 1 lines 14–18).
//!
//! Two aggregation shapes coexist:
//!
//! * the **serial** folds ([`aggregate_sparse`], [`aggregate_compressed`]) —
//!   the reference left-to-right accumulation;
//! * the **sharded** folds ([`aggregate_sparse_sharded`],
//!   [`aggregate_compressed_sharded`]) — the cohort is cut into fixed
//!   [`AGG_SHARD`]-client shards, each shard folds serially into its own
//!   zero-initialized partial sum (possibly on different threads), and the
//!   partials merge left to right. Because the shard boundaries depend only
//!   on [`AGG_SHARD`] — never on the thread count — the reduction tree is
//!   deterministic, and for cohorts of at most [`AGG_SHARD`] clients it *is*
//!   the serial fold, bit for bit.

use crate::opwa::OpwaMask;
use fl_compress::{CompressedUpdate, SparseUpdate};
use fl_tensor::parallel::parallel_fixed_shards;

/// Clients per aggregation shard. Fixed (not derived from the thread count)
/// so the floating-point reduction tree is identical on every machine;
/// cohorts of at most this size reduce exactly like the serial fold.
pub const AGG_SHARD: usize = 32;

/// Plain FedAvg data-fraction coefficients `f_i = |D_i| / Σ_j |D_j|` over the
/// selected cohort.
pub fn data_fractions(sample_counts: &[usize]) -> Vec<f64> {
    let total: usize = sample_counts.iter().sum();
    assert!(total > 0, "cohort holds no samples");
    sample_counts
        .iter()
        .map(|&n| n as f64 / total as f64)
        .collect()
}

/// [`data_fractions`], but an all-empty cohort degrades to uniform weights
/// instead of panicking. At populations of 10^5+ over a bounded synthetic
/// dataset many clients legitimately own zero samples, and a round whose
/// whole cohort is empty must still aggregate (every update is zero anyway).
pub fn data_fractions_or_uniform(sample_counts: &[usize]) -> Vec<f64> {
    assert!(!sample_counts.is_empty(), "empty cohort");
    let total: usize = sample_counts.iter().sum();
    if total == 0 {
        return vec![1.0 / sample_counts.len() as f64; sample_counts.len()];
    }
    data_fractions(sample_counts)
}

/// Serially fold `updates[start..end]` (weighted, optionally masked) into a
/// zero-initialized accumulator of `dense_len` scalars.
fn fold_sparse_shard(
    updates: &[&SparseUpdate],
    coefficients: &[f64],
    mask: Option<&OpwaMask>,
    dense_len: usize,
    start: usize,
    end: usize,
) -> Vec<f32> {
    let mut acc = vec![0.0f32; dense_len];
    for i in start..end {
        match mask {
            Some(m) => m
                .apply(updates[i])
                .add_scaled_into(&mut acc, coefficients[i] as f32),
            None => updates[i].add_scaled_into(&mut acc, coefficients[i] as f32),
        }
    }
    acc
}

/// Merge per-shard partial sums left to right. The first partial becomes the
/// accumulator, so a single shard merges to itself — exactly the serial fold.
fn merge_partials(mut partials: Vec<Vec<f32>>) -> Vec<f32> {
    let mut acc = partials.remove(0);
    for p in partials {
        for (a, v) in acc.iter_mut().zip(p.iter()) {
            *a += v;
        }
    }
    acc
}

/// [`aggregate_sparse`] over a deterministic sharded reduction tree.
///
/// The cohort folds in fixed [`AGG_SHARD`]-client shards whose partial sums
/// compute independently (parallel across up to `max_threads` workers) and
/// merge left to right. Bit-identical to [`aggregate_sparse`] whenever the
/// cohort has at most [`AGG_SHARD`] clients, and invariant to `max_threads`
/// always.
pub fn aggregate_sparse_sharded(
    updates: &[&SparseUpdate],
    coefficients: &[f64],
    mask: Option<&OpwaMask>,
    max_threads: usize,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "nothing to aggregate");
    assert_eq!(
        updates.len(),
        coefficients.len(),
        "one coefficient per update required"
    );
    let dense_len = updates[0].dense_len();
    assert!(
        updates.iter().all(|u| u.dense_len() == dense_len),
        "updates have mismatched lengths"
    );
    let partials = parallel_fixed_shards(updates.len(), AGG_SHARD, max_threads, |start, end| {
        fold_sparse_shard(updates, coefficients, mask, dense_len, start, end)
    });
    merge_partials(partials)
}

/// [`aggregate_compressed`] over the same deterministic sharded reduction
/// tree as [`aggregate_sparse_sharded`].
pub fn aggregate_compressed_sharded(
    updates: &[&CompressedUpdate],
    coefficients: &[f64],
    mask: Option<&OpwaMask>,
    max_threads: usize,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "nothing to aggregate");
    assert_eq!(
        updates.len(),
        coefficients.len(),
        "coefficient count mismatch"
    );
    if updates.iter().all(|u| u.as_sparse().is_some()) {
        let sparse: Vec<&SparseUpdate> = updates.iter().map(|u| u.as_sparse().unwrap()).collect();
        return aggregate_sparse_sharded(&sparse, coefficients, mask, max_threads);
    }
    let dense_len = updates[0].dense_len();
    let partials = parallel_fixed_shards(updates.len(), AGG_SHARD, max_threads, |start, end| {
        let mut acc = vec![0.0f32; dense_len];
        for i in start..end {
            let mut dense = updates[i].to_dense();
            if let Some(m) = mask {
                m.apply_dense(&mut dense);
            }
            for (a, d) in acc.iter_mut().zip(dense.iter()) {
                *a += coefficients[i] as f32 * d;
            }
        }
        acc
    });
    merge_partials(partials)
}

/// Weighted aggregation of sparse updates into a dense delta:
/// `Σ_i coeff_i · (mask ⊙ update_i)` (Alg. 1 line 14/16/18).
pub fn aggregate_sparse(
    updates: &[&SparseUpdate],
    coefficients: &[f64],
    mask: Option<&OpwaMask>,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "nothing to aggregate");
    assert_eq!(
        updates.len(),
        coefficients.len(),
        "one coefficient per update required"
    );
    let dense_len = updates[0].dense_len();
    assert!(
        updates.iter().all(|u| u.dense_len() == dense_len),
        "updates have mismatched lengths"
    );
    let mut acc = vec![0.0f32; dense_len];
    for (u, &c) in updates.iter().zip(coefficients.iter()) {
        match mask {
            Some(m) => m.apply(u).add_scaled_into(&mut acc, c as f32),
            None => u.add_scaled_into(&mut acc, c as f32),
        }
    }
    acc
}

/// Weighted aggregation of arbitrary compressed updates (sparse or quantized).
pub fn aggregate_compressed(
    updates: &[&CompressedUpdate],
    coefficients: &[f64],
    mask: Option<&OpwaMask>,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "nothing to aggregate");
    assert_eq!(
        updates.len(),
        coefficients.len(),
        "coefficient count mismatch"
    );
    // Fast path: all sparse.
    if updates.iter().all(|u| u.as_sparse().is_some()) {
        let sparse: Vec<&SparseUpdate> = updates.iter().map(|u| u.as_sparse().unwrap()).collect();
        return aggregate_sparse(&sparse, coefficients, mask);
    }
    let dense_len = updates[0].dense_len();
    let mut acc = vec![0.0f32; dense_len];
    for (u, &c) in updates.iter().zip(coefficients.iter()) {
        let mut dense = u.to_dense();
        if let Some(m) = mask {
            m.apply_dense(&mut dense);
        }
        for (a, d) in acc.iter_mut().zip(dense.iter()) {
            *a += c as f32 * d;
        }
    }
    acc
}

/// Apply the aggregated delta to the global parameters:
/// `w_{t+1} = w_t − η_server · Σ_i coeff_i Δw_i`.
pub fn apply_update(global: &mut [f32], aggregated_delta: &[f32], server_lr: f32) {
    assert_eq!(
        global.len(),
        aggregated_delta.len(),
        "parameter length mismatch"
    );
    for (w, d) in global.iter_mut().zip(aggregated_delta.iter()) {
        *w -= server_lr * d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::OverlapCounts;
    use fl_tensor::{Rng, Uniform, Xoshiro256};

    fn sparse(indices: Vec<u32>, values: Vec<f32>, len: usize) -> SparseUpdate {
        SparseUpdate::new(indices, values, len)
    }

    #[test]
    fn data_fractions_sum_to_one() {
        let f = data_fractions(&[100, 300, 600]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.1).abs() < 1e-12);
        assert!((f[2] - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_cohort_fractions_rejected() {
        data_fractions(&[0, 0]);
    }

    #[test]
    fn sparse_aggregation_weighted_sum() {
        let a = sparse(vec![0, 2], vec![1.0, 2.0], 4);
        let b = sparse(vec![2, 3], vec![4.0, 8.0], 4);
        let agg = aggregate_sparse(&[&a, &b], &[0.5, 0.25], None);
        assert_eq!(agg, vec![0.5, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn aggregation_with_mask_enlarges_singletons() {
        let a = sparse(vec![0, 1], vec![1.0, 1.0], 3);
        let b = sparse(vec![1, 2], vec![1.0, 1.0], 3);
        let counts = OverlapCounts::from_updates(&[&a, &b]);
        let mask = OpwaMask::from_overlap(&counts, 2.0, 1);
        let agg = aggregate_sparse(&[&a, &b], &[0.5, 0.5], Some(&mask));
        // Coordinates 0 and 2 are singletons (enlarged 2x), coordinate 1 overlaps.
        assert_eq!(agg, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn apply_update_descends() {
        let mut w = vec![1.0, 1.0, 1.0];
        apply_update(&mut w, &[0.5, -0.5, 0.0], 1.0);
        assert_eq!(w, vec![0.5, 1.5, 1.0]);
        apply_update(&mut w, &[1.0, 1.0, 1.0], 0.1);
        assert!((w[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn compressed_aggregation_mixes_sparse_and_quantized() {
        let s = CompressedUpdate::Sparse(sparse(vec![0], vec![2.0], 2));
        let q = CompressedUpdate::Quantized {
            values: vec![1.0, 1.0],
        };
        let agg = aggregate_compressed(&[&s, &q], &[0.5, 0.5], None);
        assert_eq!(agg, vec![1.5, 0.5]);
    }

    #[test]
    #[should_panic]
    fn coefficient_mismatch_rejected() {
        let a = sparse(vec![0], vec![1.0], 2);
        aggregate_sparse(&[&a], &[0.5, 0.5], None);
    }

    #[test]
    fn uniform_fallback_only_fires_on_empty_cohorts() {
        let f = data_fractions_or_uniform(&[0, 0, 0, 0]);
        assert_eq!(f, vec![0.25; 4]);
        assert_eq!(
            data_fractions_or_uniform(&[100, 300, 600]),
            data_fractions(&[100, 300, 600])
        );
    }

    fn cohort(n: usize, dense_len: usize) -> (Vec<SparseUpdate>, Vec<f64>) {
        let updates: Vec<SparseUpdate> = (0..n)
            .map(|i| {
                let indices: Vec<u32> = (0..dense_len as u32)
                    .filter(|x| !(x + i as u32).is_multiple_of(3))
                    .collect();
                let values: Vec<f32> = indices
                    .iter()
                    .map(|&x| ((x as f32) * 0.13 + i as f32 * 0.7).sin())
                    .collect();
                sparse(indices, values, dense_len)
            })
            .collect();
        let coefficients: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        (updates, coefficients)
    }

    #[test]
    fn sharded_aggregation_matches_serial_bitwise_for_small_cohorts() {
        // Up to AGG_SHARD clients there is exactly one shard, so the sharded
        // fold must reproduce the serial fold bit for bit at any thread cap.
        for n in [1usize, 7, AGG_SHARD] {
            let (updates, coefficients) = cohort(n, 40);
            let refs: Vec<&SparseUpdate> = updates.iter().collect();
            let serial = aggregate_sparse(&refs, &coefficients, None);
            for threads in [1, 4] {
                let sharded = aggregate_sparse_sharded(&refs, &coefficients, None, threads);
                assert_eq!(
                    serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    sharded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sharded_aggregation_is_thread_count_invariant_beyond_one_shard() {
        let (updates, coefficients) = cohort(3 * AGG_SHARD + 5, 24);
        let refs: Vec<&SparseUpdate> = updates.iter().collect();
        let reference = aggregate_sparse_sharded(&refs, &coefficients, None, 1);
        for threads in [2, 4, 16] {
            let got = aggregate_sparse_sharded(&refs, &coefficients, None, threads);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        // And numerically indistinguishable from the serial fold.
        let serial = aggregate_sparse(&refs, &coefficients, None);
        for (a, b) in serial.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn sharded_compressed_aggregation_handles_quantized_updates() {
        let s = CompressedUpdate::Sparse(sparse(vec![0], vec![2.0], 2));
        let q = CompressedUpdate::Quantized {
            values: vec![1.0, 1.0],
        };
        let serial = aggregate_compressed(&[&s, &q], &[0.5, 0.5], None);
        let sharded = aggregate_compressed_sharded(&[&s, &q], &[0.5, 0.5], None, 4);
        assert_eq!(serial, sharded);
    }

    #[test]
    fn prop_aggregation_linear_in_coefficients() {
        let mut rng = Xoshiro256::new(1);
        for _ in 0..256 {
            let values: Vec<f32> = (0..rng.next_range(4, 32))
                .map(|_| Uniform::new(-5.0, 5.0).sample(&mut rng) as f32)
                .collect();
            let coeff = Uniform::new(0.01, 2.0).sample(&mut rng);
            // aggregate([u], [c]) == c * dense(u)
            let len = values.len();
            let indices: Vec<u32> = (0..len as u32).collect();
            let u = SparseUpdate::new(indices, values.clone(), len);
            let agg = aggregate_sparse(&[&u], &[coeff], None);
            for (a, v) in agg.iter().zip(values.iter()) {
                assert!((a - coeff as f32 * v).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn prop_uncompressed_aggregate_preserves_weighted_mean() {
        let mut rng = Xoshiro256::new(2);
        let mut draw = || -> Vec<f32> {
            (0..8)
                .map(|_| Uniform::new(-1.0, 1.0).sample(&mut rng) as f32)
                .collect()
        };
        for _ in 0..256 {
            let (d1, d2) = (draw(), draw());
            // With CR = 1 updates, aggregation equals the dense weighted mean.
            let u1 = SparseUpdate::from_dense_mask(&d1, |_, _| true);
            let u2 = SparseUpdate::from_dense_mask(&d2, |_, _| true);
            let agg = aggregate_sparse(&[&u1, &u2], &[0.5, 0.5], None);
            for i in 0..8 {
                assert!((agg[i] - 0.5 * (d1[i] + d2[i])).abs() < 1e-5);
            }
        }
    }
}
