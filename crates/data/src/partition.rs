//! Dirichlet label-skew partitioning of a dataset across federated clients.
//!
//! This reproduces the distribution-based label-skew protocol the paper uses
//! (Section 5.1, Fig. 5): for every class `k`, a proportion vector
//! `p_k ~ Dir(beta)` over the `N` clients is drawn and the class's samples are
//! split accordingly. Lower `beta` produces more severe heterogeneity.

use crate::dataset::Dataset;
use fl_tensor::dist::Dirichlet;
use fl_tensor::rng::{Rng, Xoshiro256};
use std::collections::BTreeSet;

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
/// `beta`, then guarantee every client at least `min_samples` samples so no
/// client ends up untrainable.
///
/// The allocation is drawn once: each class's indices are shuffled and split
/// by one `p_k ~ Dir(beta)` draw, class by class. Clients left below the
/// floor are then topped up one sample at a time: the smallest client (lowest
/// id on ties) takes the last index of the largest client (highest id on
/// ties), until the smallest meets the floor. A draw that already meets the
/// floor is returned untouched. Redrawing instead, as NIID-Bench does, cannot
/// succeed once the floor nears the mean shard, and each redraw is distributed
/// exactly like the first.
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

    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for class_indices in by_class.iter_mut() {
        if class_indices.is_empty() {
            continue;
        }
        rng.shuffle(class_indices);
        let props = dirichlet.sample(&mut rng);
        // Convert proportions into split points over this class's samples.
        let n = class_indices.len();
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
                assignment[client].extend_from_slice(&class_indices[start..end]);
            }
            start = end;
        }
    }
    top_up_minimum(&mut assignment, min_samples);
    assignment
        .into_iter()
        .enumerate()
        .map(|(client_id, indices)| ClientPartition { client_id, indices })
        .collect()
}

/// Move samples from the largest clients to the smallest until every client
/// holds `min_samples` (or no donor could give one without dropping to the
/// floor). Each move takes the smallest client, lowest id on ties, and the
/// largest, highest id on ties, from a set ordered by `(len, id)`: O(log N)
/// per move instead of two scans of all N clients.
fn top_up_minimum(assignment: &mut [Vec<usize>], min_samples: usize) {
    if assignment.iter().all(|v| v.len() >= min_samples) {
        return;
    }
    let mut by_len: BTreeSet<(usize, usize)> = assignment
        .iter()
        .enumerate()
        .map(|(id, v)| (v.len(), id))
        .collect();
    loop {
        let (small_len, small) = *by_len.first().unwrap();
        let (big_len, big) = *by_len.last().unwrap();
        if small_len >= min_samples || big_len <= min_samples {
            break;
        }
        by_len.pop_first();
        by_len.pop_last();
        let moved = assignment[big].pop().unwrap();
        assignment[small].push(moved);
        by_len.insert((small_len + 1, small));
        by_len.insert((big_len - 1, big));
    }
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
        for seed in 0..6 {
            for &(clients, beta, floor) in &[(10, 0.1, 10), (10, 0.5, 10), (40, 0.5, 8)] {
                let parts = dirichlet_partition(&ds, clients, beta, floor, seed);
                assert_valid(&parts, ds.len(), floor);
            }
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
        // The second configuration's floor forces a top-up.
        for &(clients, floor) in &[(8, 2), (40, 8)] {
            let a = dirichlet_partition(&ds, clients, 0.5, floor, 9);
            let b = dirichlet_partition(&ds, clients, 0.5, floor, 9);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.indices, y.indices);
            }
        }
    }

    #[test]
    fn stats_matrix_dimensions_and_totals() {
        let ds = toy_dataset();
        let parts = dirichlet_partition(&ds, 10, 0.5, 2, 11);
        let stats = PartitionStats::from_partition(&parts, &ds);
        assert_eq!(stats.counts.len(), 10);
        assert_eq!(stats.counts[0].len(), ds.num_classes());
        assert_eq!(stats.counts.iter().flatten().sum::<usize>(), ds.len());
        let csv = stats.to_csv();
        assert_eq!(csv.lines().count(), 10);
    }

    #[test]
    fn client_dataset_materialisation() {
        let ds = toy_dataset();
        let parts = dirichlet_partition(&ds, 5, 0.5, 2, 12);
        let local = parts[0].dataset(&ds);
        assert_eq!(local.len(), parts[0].len());
        assert_eq!(local.feature_dim(), ds.feature_dim());
    }

    /// The linear-scan top-up the ordered set replaced: two scans of every
    /// client per moved sample. Kept as the oracle for `top_up_minimum`.
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
                break;
            }
            let moved = assignment[big_idx].pop().unwrap();
            assignment[small_idx].push(moved);
        }
    }

    fn assert_valid(parts: &[ClientPartition], len: usize, min_samples: usize) {
        let mut seen = vec![false; len];
        for p in parts {
            assert!(
                p.len() >= min_samples,
                "client {} holds {}",
                p.client_id,
                p.len()
            );
            for &i in &p.indices {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "an index was dropped");
    }

    #[test]
    fn top_up_makes_the_linear_scans_moves() {
        let mut rng = Xoshiro256::new(17);
        for case in 0..300 {
            let clients = 1 + rng.next_below(40);
            // Lengths from a narrow range, so ties on both ends are common.
            let mut next = 0usize;
            let assignment: Vec<Vec<usize>> = (0..clients)
                .map(|_| {
                    let len = rng.next_below(12);
                    next += len;
                    (next - len..next).collect()
                })
                .collect();
            let min_samples = rng.next_below(10);
            let mut oracle = assignment.clone();
            rebalance_minimum(&mut oracle, min_samples);
            let mut subject = assignment;
            top_up_minimum(&mut subject, min_samples);
            assert_eq!(
                subject, oracle,
                "case {case}: {clients} clients, floor {min_samples}"
            );
        }
    }

    #[test]
    fn a_draw_that_meets_the_floor_is_returned_untouched() {
        let ds = toy_dataset();
        let raw = dirichlet_partition(&ds, 10, 0.5, 0, 21);
        let smallest = raw.iter().map(ClientPartition::len).min().unwrap();
        assert!(smallest > 0, "seed 21 should give every client a sample");
        let floored = dirichlet_partition(&ds, 10, 0.5, smallest, 21);
        assert!(raw
            .iter()
            .zip(&floored)
            .all(|(x, y)| x.indices == y.indices));
        // One more than the smallest shard forces a top-up, which moves only
        // the donors' tails onto the recipients' ends.
        let topped = dirichlet_partition(&ds, 10, 0.5, smallest + 1, 21);
        assert!(raw.iter().zip(&topped).any(|(x, y)| x.indices != y.indices));
        for (x, y) in raw.iter().zip(&topped) {
            let keep = x.len().min(y.len());
            assert_eq!(x.indices[..keep], y.indices[..keep]);
        }
    }

    #[test]
    fn fleet_scale_floor_at_the_mean_shard() {
        // 20,000 samples over 2,000 clients with a floor of 10: only a
        // perfectly even draw meets it, so the top-up levels every shard.
        let labels: Vec<usize> = (0..20_000).map(|i| i % 10).collect();
        let ds = Dataset::new(vec![0.0; labels.len()], labels, 1, 10);
        let parts = dirichlet_partition(&ds, 2_000, 0.5, 10, 42);
        assert_valid(&parts, ds.len(), 10);
        assert!(parts.iter().all(|p| p.len() == 10));
    }

    #[test]
    #[should_panic]
    fn too_small_dataset_rejected() {
        let ds = Dataset::new(vec![0.0; 8], vec![0, 0, 1, 1], 2, 2);
        dirichlet_partition(&ds, 10, 0.5, 5, 1);
    }
}
