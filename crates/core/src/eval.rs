//! Model evaluation on a held-out test set.

use fl_data::Dataset;
use fl_nn::{Sequential, SoftmaxCrossEntropy, Workspace};
use fl_tensor::parallel::parallel_map;
use fl_tensor::Tensor;

/// Loss and accuracy of a model on a dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Evaluation {
    /// Mean cross-entropy loss.
    pub loss: f64,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
}

/// Evaluate `model` on `dataset` in batches of `batch_size` (the dataset may
/// be too large for a single forward pass), on up to `max_threads` worker
/// threads.
///
/// Batch boundaries are fixed ranges `[i*batch_size, (i+1)*batch_size)` of the
/// dataset, each batch's loss/accuracy pair is computed independently on a
/// per-thread [`Workspace`], and the per-batch partial sums are folded left to
/// right in batch order — exactly the serial loop's reduction — so the result
/// is bit-identical for every thread count.
pub fn evaluate_with_threads(
    model: &Sequential,
    dataset: &Dataset,
    batch_size: usize,
    max_threads: usize,
) -> Evaluation {
    assert!(batch_size > 0, "batch size must be positive");
    if dataset.is_empty() {
        return Evaluation {
            loss: 0.0,
            accuracy: 0.0,
        };
    }
    let n = dataset.len();
    let num_batches = n.div_ceil(batch_size);
    let workers = max_threads.max(1).min(num_batches);
    let chunk = num_batches.div_ceil(workers);
    // Each work item is a contiguous run of batch indices; one worker thread
    // walks its run with a single reusable workspace and batch buffer.
    let work: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(num_batches)))
        .filter(|&(s, e)| s < e)
        .collect();
    let partials: Vec<Vec<(f64, f64, usize)>> = parallel_map(work, workers, |(first, last)| {
        let mut ws = Workspace::new();
        let mut loss_fn = SoftmaxCrossEntropy::new();
        let mut x = Tensor::empty();
        let mut y = Vec::new();
        (first..last)
            .map(|b| {
                let start = b * batch_size;
                let end = (start + batch_size).min(n);
                dataset.gather_range_into(start, end, &mut x, &mut y);
                let logits = model.forward_in(&x, &mut ws);
                let batch_loss = loss_fn.forward(logits, &y) as f64;
                let batch_acc = SoftmaxCrossEntropy::accuracy(logits, &y);
                (batch_loss, batch_acc, end - start)
            })
            .collect()
    });
    // Deterministic reduction: batch order, left to right, independent of how
    // the batches were grouped onto threads.
    let mut total_loss = 0.0f64;
    let mut total_correct = 0.0f64;
    let mut seen = 0usize;
    for (batch_loss, batch_acc, count) in partials.into_iter().flatten() {
        total_loss += batch_loss * count as f64;
        total_correct += batch_acc * count as f64;
        seen += count;
    }
    Evaluation {
        loss: total_loss / seen as f64,
        accuracy: total_correct / seen as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_nn::{mlp, unflatten_params};
    use fl_tensor::rng::Xoshiro256;

    fn toy_dataset() -> Dataset {
        // Two trivially separable classes along the first coordinate.
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let features = labels
            .iter()
            .flat_map(|&class| [if class == 0 { -1.0 } else { 1.0 }, 0.0])
            .collect();
        Dataset::new(features, labels, 2, 2)
    }

    #[test]
    fn random_model_near_chance() {
        let mut rng = Xoshiro256::new(1);
        let model = mlp(2, &[], 2, &mut rng);
        let e = evaluate_with_threads(&model, &toy_dataset(), 8, 1);
        assert!(e.accuracy >= 0.0 && e.accuracy <= 1.0);
        assert!((e.loss - (2.0f64).ln()).abs() < 0.5);
    }

    #[test]
    fn perfect_model_perfect_accuracy() {
        let mut rng = Xoshiro256::new(1);
        let mut model = mlp(2, &[], 2, &mut rng);
        // Set weights so class 1 wins when x0 > 0.
        unflatten_params(&mut model, &[-10.0, 10.0, 0.0, 0.0, 0.0, 0.0]);
        let e = evaluate_with_threads(&model, &toy_dataset(), 7, 1);
        assert_eq!(e.accuracy, 1.0);
        assert!(e.loss < 0.01);
    }

    #[test]
    fn batched_equals_full_batch() {
        let mut rng = Xoshiro256::new(2);
        let model = mlp(2, &[], 2, &mut rng);
        let ds = toy_dataset();
        let small = evaluate_with_threads(&model, &ds, 3, 1);
        let full = evaluate_with_threads(&model, &ds, 100, 1);
        assert!((small.loss - full.loss).abs() < 1e-6);
        assert!((small.accuracy - full.accuracy).abs() < 1e-12);
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let mut rng = Xoshiro256::new(4);
        let model = mlp(2, &[], 2, &mut rng);
        let ds = toy_dataset();
        let serial = evaluate_with_threads(&model, &ds, 3, 1);
        for threads in [2, 4, 7, 32] {
            let par = evaluate_with_threads(&model, &ds, 3, threads);
            assert_eq!(par.loss.to_bits(), serial.loss.to_bits());
            assert_eq!(par.accuracy.to_bits(), serial.accuracy.to_bits());
        }
    }

    #[test]
    fn empty_dataset_is_zero() {
        let mut rng = Xoshiro256::new(3);
        let model = mlp(2, &[], 2, &mut rng);
        let e = evaluate_with_threads(&model, &Dataset::empty(2, 2), 4, 1);
        assert_eq!(e.accuracy, 0.0);
        assert_eq!(e.loss, 0.0);
    }
}
