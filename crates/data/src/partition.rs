//! Dirichlet label-skew partitioning of a dataset across federated clients.
//!
//! This reproduces the distribution-based label-skew protocol the paper uses
//! (Section 5.1, Fig. 5): for every class `k`, a proportion vector
//! `p_k ~ Dir(beta)` over the `N` clients is drawn and the class's samples are
//! split accordingly. Lower `beta` produces more severe heterogeneity.

use crate::dataset::Dataset;
use fl_tensor::dist::Dirichlet;
use fl_tensor::rng::{Rng, Xoshiro256};

/// One client's shard of the training data.
#[derive(Clone, Debug)]
pub struct ClientPartition {
    /// Client index in `[0, N)`.
    pub client_id: usize,
    /// Indices into the source dataset owned by this client.
    pub indices: Vec<usize>,
}

impl ClientPartition {
    /// Number of samples on this client.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if this client received no samples.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Materialise this client's local dataset.
    pub fn dataset(&self, source: &Dataset) -> Dataset {
        source.subset(&self.indices)
    }
}

/// Summary statistics of a partition (the client × class matrix of Fig. 5).
#[derive(Clone, Debug)]
pub struct PartitionStats {
    /// `counts[client][class]` = number of samples of `class` on `client`.
    pub counts: Vec<Vec<usize>>,
}

impl PartitionStats {
    /// Compute the matrix from a partition and its source dataset.
    pub fn from_partition(parts: &[ClientPartition], source: &Dataset) -> Self {
        let mut counts = vec![vec![0usize; source.num_classes()]; parts.len()];
        for p in parts {
            for &i in &p.indices {
                counts[p.client_id][source.labels()[i]] += 1;
            }
        }
        Self { counts }
    }

    /// Total samples per client.
    pub fn client_totals(&self) -> Vec<usize> {
        self.counts.iter().map(|row| row.iter().sum()).collect()
    }

    /// A scalar heterogeneity measure: the mean, over clients, of the maximum
    /// class share on that client (1.0 = every client holds a single class,
    /// 1/num_classes = perfectly uniform).
    pub fn label_skew(&self) -> f64 {
        let mut acc = 0.0;
        let mut counted = 0usize;
        for row in &self.counts {
            let total: usize = row.iter().sum();
            if total == 0 {
                continue;
            }
            let max = *row.iter().max().unwrap();
            acc += max as f64 / total as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            acc / counted as f64
        }
    }

    /// Render the matrix as CSV rows (`client_id, count_class0, count_class1, …`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (client, row) in self.counts.iter().enumerate() {
            out.push_str(&client.to_string());
            for c in row {
                out.push(',');
                out.push_str(&c.to_string());
            }
            out.push('\n');
        }
        out
    }
}

/// Split `dataset` across `num_clients` clients with Dirichlet label skew
/// `beta`. Every client is guaranteed at least `min_samples` samples
/// (re-sampling the allocation if needed, as is standard in non-IID FL
/// benchmarks), so no client ends up untrainable.
pub fn dirichlet_partition(
    dataset: &Dataset,
    num_clients: usize,
    beta: f64,
    min_samples: usize,
    seed: u64,
) -> Vec<ClientPartition> {
    assert!(num_clients >= 1, "need at least one client");
    assert!(beta > 0.0, "beta must be positive");
    assert!(
        dataset.len() >= num_clients * min_samples,
        "dataset too small to guarantee {min_samples} samples per client"
    );
    let mut rng = Xoshiro256::new(seed);
    let dirichlet = Dirichlet::new(beta, num_clients);

    // Group sample indices by class.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); dataset.num_classes()];
    for (i, &y) in dataset.labels().iter().enumerate() {
        by_class[y].push(i);
    }

    const MAX_TRIES: usize = 100;
    for attempt in 0..MAX_TRIES {
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
        for class_indices in by_class.iter() {
            if class_indices.is_empty() {
                continue;
            }
            let mut shuffled = class_indices.clone();
            rng.shuffle(&mut shuffled);
            let props = dirichlet.sample(&mut rng);
            // Convert proportions into split points over this class's samples.
            let n = shuffled.len();
            let mut cum = 0.0f64;
            let mut start = 0usize;
            for (client, &p) in props.iter().enumerate() {
                cum += p;
                let end = if client + 1 == num_clients {
                    n
                } else {
                    ((cum * n as f64).round() as usize).min(n)
                };
                if end > start {
                    assignment[client].extend_from_slice(&shuffled[start..end]);
                }
                start = end;
            }
        }
        let smallest = assignment.iter().map(Vec::len).min().unwrap_or(0);
        if smallest >= min_samples || attempt + 1 == MAX_TRIES {
            if smallest < min_samples {
                // Last resort: steal samples from the largest clients so every
                // client can run at least one mini-batch.
                rebalance_minimum(&mut assignment, min_samples);
            }
            return assignment
                .into_iter()
                .enumerate()
                .map(|(client_id, indices)| ClientPartition { client_id, indices })
                .collect();
        }
    }
    unreachable!("partition loop always returns within MAX_TRIES");
}

fn rebalance_minimum(assignment: &mut [Vec<usize>], min_samples: usize) {
    loop {
        let (small_idx, small_len) = assignment
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.len()))
            .min_by_key(|&(_, l)| l)
            .unwrap();
        if small_len >= min_samples {
            break;
        }
        let (big_idx, big_len) = assignment
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.len()))
            .max_by_key(|&(_, l)| l)
            .unwrap();
        if big_len <= min_samples {
            break; // nothing left to steal without violating the donor
        }
        let moved = assignment[big_idx].pop().unwrap();
        assignment[small_idx].push(moved);
    }
}

/// IID (uniform random) partition, used as a control in tests and ablations.
pub fn iid_partition(dataset: &Dataset, num_clients: usize, seed: u64) -> Vec<ClientPartition> {
    assert!(num_clients >= 1, "need at least one client");
    let mut rng = Xoshiro256::new(seed);
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    rng.shuffle(&mut indices);
    let mut parts: Vec<ClientPartition> = (0..num_clients)
        .map(|client_id| ClientPartition {
            client_id,
            indices: Vec::new(),
        })
        .collect();
    for (i, idx) in indices.into_iter().enumerate() {
        parts[i % num_clients].indices.push(idx);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DatasetPreset;

    fn toy_dataset() -> Dataset {
        let spec = DatasetPreset::Cifar10Like.spec(0.2);
        spec.generate(3).0
    }

    #[test]
    fn partition_covers_every_sample_exactly_once() {
        let ds = toy_dataset();
        let parts = dirichlet_partition(&ds, 10, 0.5, 2, 1);
        let mut all: Vec<usize> = parts.iter().flat_map(|p| p.indices.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..ds.len()).collect::<Vec<_>>());
    }

    #[test]
    fn every_client_has_minimum_samples() {
        let ds = toy_dataset();
        for &beta in &[0.1, 0.5] {
            let parts = dirichlet_partition(&ds, 10, beta, 10, 2);
            assert!(parts.iter().all(|p| p.len() >= 10));
        }
    }

    #[test]
    fn lower_beta_is_more_skewed() {
        let ds = toy_dataset();
        let severe = dirichlet_partition(&ds, 10, 0.1, 2, 5);
        let moderate = dirichlet_partition(&ds, 10, 5.0, 2, 5);
        let skew_severe = PartitionStats::from_partition(&severe, &ds).label_skew();
        let skew_moderate = PartitionStats::from_partition(&moderate, &ds).label_skew();
        assert!(
            skew_severe > skew_moderate,
            "beta=0.1 skew {skew_severe} should exceed beta=5 skew {skew_moderate}"
        );
    }

    #[test]
    fn partition_is_deterministic() {
        let ds = toy_dataset();
        let a = dirichlet_partition(&ds, 8, 0.5, 2, 9);
        let b = dirichlet_partition(&ds, 8, 0.5, 2, 9);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.indices, y.indices);
        }
    }

    #[test]
    fn stats_matrix_dimensions_and_totals() {
        let ds = toy_dataset();
        let parts = dirichlet_partition(&ds, 10, 0.5, 2, 11);
        let stats = PartitionStats::from_partition(&parts, &ds);
        assert_eq!(stats.counts.len(), 10);
        assert_eq!(stats.counts[0].len(), ds.num_classes());
        assert_eq!(stats.client_totals().iter().sum::<usize>(), ds.len());
        let csv = stats.to_csv();
        assert_eq!(csv.lines().count(), 10);
    }

    #[test]
    fn iid_partition_is_balanced() {
        let ds = toy_dataset();
        let parts = iid_partition(&ds, 10, 4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        let skew = PartitionStats::from_partition(&parts, &ds).label_skew();
        assert!(
            skew < 0.25,
            "IID skew should be near 1/num_classes, got {skew}"
        );
    }

    #[test]
    fn client_dataset_materialisation() {
        let ds = toy_dataset();
        let parts = dirichlet_partition(&ds, 5, 0.5, 2, 12);
        let local = parts[0].dataset(&ds);
        assert_eq!(local.len(), parts[0].len());
        assert_eq!(local.feature_dim(), ds.feature_dim());
    }

    #[test]
    #[should_panic]
    fn too_small_dataset_rejected() {
        let ds = Dataset::new(vec![0.0; 8], vec![0, 0, 1, 1], 2, 2);
        dirichlet_partition(&ds, 10, 0.5, 5, 1);
    }
}
