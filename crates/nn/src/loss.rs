//! Softmax cross-entropy loss for classification.

use fl_tensor::Tensor;

/// Combined softmax + cross-entropy over integer class labels.
///
/// `forward` returns the mean loss over the batch; `backward_in` writes
/// `dL/d(logits)` already divided by the batch size, so it can be fed straight
/// into the last layer's `backward_in`.
#[derive(Default)]
pub struct SoftmaxCrossEntropy {
    probs: Tensor,
    labels: Vec<usize>,
    ready: bool,
}

impl SoftmaxCrossEntropy {
    /// New loss instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Numerically stable softmax over the rows of a `[batch, classes]`
    /// tensor, written into the reusable `out` tensor.
    pub fn softmax_into(logits: &Tensor, out: &mut Tensor) {
        let dims = logits.shape().dims();
        assert_eq!(dims.len(), 2, "softmax expects [batch, classes]");
        let (b, c) = (dims[0], dims[1]);
        let ld = logits.data();
        out.resize_to(&[b, c]);
        let od = out.data_mut();
        for i in 0..b {
            let row = &ld[i * c..(i + 1) * c];
            let maxv = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (j, &x) in row.iter().enumerate() {
                let e = (x - maxv).exp();
                od[i * c + j] = e;
                denom += e;
            }
            for j in 0..c {
                od[i * c + j] /= denom;
            }
        }
    }

    /// Mean cross-entropy loss; caches what `backward_in` needs in reusable
    /// internal buffers (steady-state calls perform no heap allocation).
    pub fn forward(&mut self, logits: &Tensor, labels: &[usize]) -> f32 {
        let dims = logits.shape().dims();
        let (b, c) = (dims[0], dims[1]);
        assert_eq!(labels.len(), b, "label count must equal batch size");
        assert!(
            labels.iter().all(|&y| y < c),
            "label out of range for {c} classes"
        );
        Self::softmax_into(logits, &mut self.probs);
        let pd = self.probs.data();
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            loss -= pd[i * c + y].max(1e-12).ln();
        }
        self.labels.clear();
        self.labels.extend_from_slice(labels);
        self.ready = true;
        loss / b as f32
    }

    /// Gradient of the mean loss w.r.t. the logits, written into the reusable
    /// `out` tensor.
    pub fn backward_in(&self, out: &mut Tensor) {
        assert!(self.ready, "loss backward called before forward");
        let dims = self.probs.shape().dims();
        let (b, c) = (dims[0], dims[1]);
        out.copy_from(&self.probs);
        let gd = out.data_mut();
        for (i, &y) in self.labels.iter().enumerate() {
            gd[i * c + y] -= 1.0;
        }
        let scale = 1.0 / b as f32;
        gd.iter_mut().for_each(|x| *x *= scale);
    }

    /// Classification accuracy of logits against labels.
    pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
        let dims = logits.shape().dims();
        let (b, c) = (dims[0], dims[1]);
        assert_eq!(labels.len(), b);
        if b == 0 {
            return 0.0;
        }
        let ld = logits.data();
        let mut correct = 0usize;
        for (i, &y) in labels.iter().enumerate() {
            let row = &ld[i * c..(i + 1) * c];
            let mut best = 0usize;
            let mut best_v = f32::NEG_INFINITY;
            for (j, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = j;
                }
            }
            if best == y {
                correct += 1;
            }
        }
        correct as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::Shape;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let mut p = Tensor::empty();
        SoftmaxCrossEntropy::softmax_into(&logits, &mut p);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(Shape::matrix(1, 3), vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(Shape::matrix(1, 3), vec![101.0, 102.0, 103.0]);
        let (mut pa, mut pb) = (Tensor::empty(), Tensor::empty());
        SoftmaxCrossEntropy::softmax_into(&a, &mut pa);
        SoftmaxCrossEntropy::softmax_into(&b, &mut pb);
        for (x, y) in pa.data().iter().zip(pb.data().iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_logits_loss_is_log_classes() {
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(Shape::matrix(4, 10));
        let labels = [0usize, 3, 7, 9];
        let l = loss.forward(&logits, &labels);
        assert!((l - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_loss_near_zero() {
        let mut loss = SoftmaxCrossEntropy::new();
        let mut logits = Tensor::zeros(Shape::matrix(2, 3));
        logits.set(&[0, 1], 100.0);
        logits.set(&[1, 2], 100.0);
        let l = loss.forward(&logits, &[1, 2]);
        assert!(l < 1e-4);
    }

    #[test]
    fn gradient_matches_numerical() {
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(Shape::matrix(2, 3), vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        loss.forward(&logits, &labels);
        let mut analytic = Tensor::empty();
        loss.backward_in(&mut analytic);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let mut tmp = SoftmaxCrossEntropy::new();
            let fp = tmp.forward(&lp, &labels);
            let fm = tmp.forward(&lm, &labels);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (analytic.data()[idx] - numeric).abs() < 1e-3,
                "idx {idx}: analytic {} vs numeric {numeric}",
                analytic.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(
            Shape::matrix(2, 4),
            vec![1.0, 2.0, 0.5, -1.0, 0.0, 0.0, 3.0, 1.0],
        );
        loss.forward(&logits, &[0, 2]);
        let mut g = Tensor::empty();
        loss.backward_in(&mut g);
        for i in 0..2 {
            let s: f32 = g.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(Shape::matrix(3, 2), vec![2.0, 1.0, 0.0, 5.0, 1.0, 0.0]);
        let acc = SoftmaxCrossEntropy::accuracy(&logits, &[0, 1, 1]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(Shape::matrix(1, 3));
        loss.forward(&logits, &[3]);
    }
}
