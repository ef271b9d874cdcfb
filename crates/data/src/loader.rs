//! Shuffled mini-batch loading.

use crate::dataset::Dataset;
use fl_tensor::rng::Rng;

/// Iterates over a dataset in shuffled mini-batches.
///
/// Shuffling happens once per epoch via [`BatchLoader::shuffle_epoch`]; the
/// caller supplies the RNG so the full experiment stays seed-deterministic,
/// and gathers each [`batch_ranges`](BatchLoader::batch_ranges) slice of the
/// shuffled order with [`Dataset::gather_batch_into`]. A trailing partial
/// batch is kept, so every sample is seen once per epoch.
#[derive(Clone, Debug)]
pub struct BatchLoader {
    batch_size: usize,
}

impl BatchLoader {
    /// Create a loader of `batch_size`-sample batches.
    pub fn new(batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { batch_size }
    }

    /// Configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Shuffle one epoch's sample order into the caller's reusable `order`
    /// buffer. The caller walks the returned order in `batch_size` strides
    /// (via [`batch_ranges`](Self::batch_ranges)) and gathers each slice with
    /// [`Dataset::gather_batch_into`].
    pub fn shuffle_epoch<R: Rng>(&self, dataset: &Dataset, rng: &mut R, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..dataset.len());
        rng.shuffle(order);
    }

    /// Iterator over the `[start, end)` index ranges of one epoch's batches.
    pub fn batch_ranges(&self, n: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let bs = self.batch_size;
        (0..n.div_ceil(bs)).map(move |b| (b * bs, ((b + 1) * bs).min(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::Xoshiro256;
    use fl_tensor::Tensor;

    fn toy() -> Dataset {
        let features = (0..10).map(|i| i as f32).collect();
        Dataset::new(features, (0..10).map(|i| i % 2).collect(), 1, 2)
    }

    /// One epoch's batches, gathered into fresh tensors.
    fn epoch(loader: &BatchLoader, d: &Dataset, rng: &mut Xoshiro256) -> Vec<(Tensor, Vec<usize>)> {
        let mut order = Vec::new();
        loader.shuffle_epoch(d, rng, &mut order);
        let batch = |(s, e): (usize, usize)| {
            let (mut x, mut y) = (Tensor::empty(), Vec::new());
            d.gather_batch_into(&order[s..e], &mut x, &mut y);
            (x, y)
        };
        loader.batch_ranges(d.len()).map(batch).collect()
    }

    #[test]
    fn batches_cover_all_samples() {
        let loader = BatchLoader::new(3);
        let mut rng = Xoshiro256::new(1);
        let batches = epoch(&loader, &toy(), &mut rng);
        assert_eq!(batches.len(), 4);
        let total: usize = batches.iter().map(|(_, y)| y.len()).sum();
        assert_eq!(total, 10);
        let mut seen: Vec<f32> = batches
            .iter()
            .flat_map(|(x, _)| x.data().to_vec())
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(seen, (0..10).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn shuffling_depends_on_rng() {
        let loader = BatchLoader::new(10);
        let first = |seed: u64| {
            epoch(&loader, &toy(), &mut Xoshiro256::new(seed))[0]
                .0
                .clone()
        };
        assert_ne!(first(1).data(), first(2).data());
        // Same seed, same order.
        assert_eq!(first(1).data(), first(1).data());
    }

    #[test]
    #[should_panic]
    fn zero_batch_size_rejected() {
        BatchLoader::new(0);
    }

    #[test]
    fn batch_ranges_honours_drop_last() {
        // The trailing partial batch is kept.
        let l = BatchLoader::new(4);
        assert_eq!(
            l.batch_ranges(10).collect::<Vec<_>>(),
            vec![(0, 4), (4, 8), (8, 10)]
        );
        assert_eq!(l.batch_ranges(0).count(), 0);
    }
}
