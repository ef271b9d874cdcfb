//! In-memory classification dataset.

use fl_tensor::Tensor;

/// A classification dataset: a dense `[n, feature_dim]` feature matrix plus
/// integer class labels.
#[derive(Clone, Debug)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    feature_dim: usize,
    num_classes: usize,
}

impl Dataset {
    /// Build a dataset; `features.len()` must equal `labels.len() * feature_dim`
    /// and every label must be `< num_classes`.
    pub fn new(
        features: Vec<f32>,
        labels: Vec<usize>,
        feature_dim: usize,
        num_classes: usize,
    ) -> Self {
        assert!(feature_dim > 0, "feature_dim must be positive");
        assert_eq!(
            features.len(),
            labels.len() * feature_dim,
            "feature buffer size does not match label count"
        );
        assert!(
            labels.iter().all(|&y| y < num_classes),
            "label out of range for {num_classes} classes"
        );
        Self {
            features,
            labels,
            feature_dim,
            num_classes,
        }
    }

    /// Empty dataset with the given dimensions.
    pub fn empty(feature_dim: usize, num_classes: usize) -> Self {
        Self::new(Vec::new(), Vec::new(), feature_dim, num_classes)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality of every sample.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Labels of every sample.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature vector of sample `i`.
    pub fn sample(&self, i: usize) -> &[f32] {
        &self.features[i * self.feature_dim..(i + 1) * self.feature_dim]
    }

    /// Gather the given sample indices into reusable buffers: `x` becomes the
    /// `[k, feature_dim]` batch tensor and `y` the label vector. Steady-state
    /// calls with a same-sized batch perform no heap allocation.
    pub fn gather_batch_into(&self, indices: &[usize], x: &mut Tensor, y: &mut Vec<usize>) {
        x.resize_to(&[indices.len(), self.feature_dim]);
        let xd = x.data_mut();
        y.clear();
        y.reserve(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            xd[row * self.feature_dim..(row + 1) * self.feature_dim]
                .copy_from_slice(self.sample(i));
            y.push(self.labels[i]);
        }
    }

    /// The batch over the contiguous index range `start..end`, into reusable
    /// buffers — a single `memcpy` of the feature rows instead of a
    /// per-sample gather. Used by evaluation's sequential scan.
    pub fn gather_range_into(&self, start: usize, end: usize, x: &mut Tensor, y: &mut Vec<usize>) {
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds for {} samples",
            self.len()
        );
        x.resize_to(&[end - start, self.feature_dim]);
        x.data_mut()
            .copy_from_slice(&self.features[start * self.feature_dim..end * self.feature_dim]);
        y.clear();
        y.extend_from_slice(&self.labels[start..end]);
    }

    /// Dataset restricted to the given sample indices (copies the data).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::empty(self.feature_dim, self.num_classes);
        self.subset_into(indices, &mut out);
        out
    }

    /// [`subset`](Self::subset) into a reusable dataset: `out` is overwritten
    /// (its previous samples and dimensions are forgotten) and keeps its
    /// buffers, so no allocation happens once they have grown to the largest
    /// subset.
    pub fn subset_into(&self, indices: &[usize], out: &mut Dataset) {
        out.feature_dim = self.feature_dim;
        out.num_classes = self.num_classes;
        out.features.clear();
        out.labels.clear();
        out.features.reserve(indices.len() * self.feature_dim);
        out.labels.reserve(indices.len());
        for &i in indices {
            out.features.extend_from_slice(self.sample(i));
            out.labels.push(self.labels[i]);
        }
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &y in &self.labels {
            counts[y] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1], vec![0, 1, 1], 2, 3)
    }

    fn gather(d: &Dataset, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let (mut x, mut y) = (Tensor::empty(), Vec::new());
        d.gather_batch_into(indices, &mut x, &mut y);
        (x, y)
    }

    fn range(d: &Dataset, start: usize, end: usize) -> (Tensor, Vec<usize>) {
        let (mut x, mut y) = (Tensor::empty(), Vec::new());
        d.gather_range_into(start, end, &mut x, &mut y);
        (x, y)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.sample(1), &[1.0, 1.1]);
        assert_eq!(d.labels(), &[0, 1, 1]);
    }

    #[test]
    fn class_counts_counted() {
        assert_eq!(toy().class_counts(), vec![1, 2, 0]);
    }

    #[test]
    fn gather_batch_shapes() {
        let d = toy();
        let (x, y) = gather(&d, &[2, 0]);
        assert_eq!(x.shape().dims(), &[2, 2]);
        assert_eq!(x.data(), &[2.0, 2.1, 0.0, 0.1]);
        assert_eq!(y, vec![1, 0]);
    }

    #[test]
    fn gather_range_matches_indexed_gather() {
        let d = toy();
        for (start, end) in [(0, 3), (1, 3), (0, 0), (2, 2), (1, 2)] {
            let indices: Vec<usize> = (start..end).collect();
            let (xi, yi) = gather(&d, &indices);
            let (xr, yr) = range(&d, start, end);
            assert_eq!(xr.shape().dims(), xi.shape().dims());
            assert_eq!(xr.data(), xi.data());
            assert_eq!(yr, yi);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_range_rejects_overrun() {
        range(&toy(), 1, 4);
    }

    #[test]
    fn gather_batch_into_reuses_buffers() {
        let d = toy();
        let mut x = Tensor::empty();
        let mut y = Vec::new();
        d.gather_batch_into(&[2, 0], &mut x, &mut y);
        assert_eq!(x.data(), &[2.0, 2.1, 0.0, 0.1]);
        assert_eq!(y, vec![1, 0]);
        let ptr = x.data().as_ptr();
        d.gather_batch_into(&[1, 2], &mut x, &mut y);
        assert_eq!(x.data(), &[1.0, 1.1, 2.0, 2.1]);
        assert_eq!(y, vec![1, 1]);
        assert_eq!(
            ptr,
            x.data().as_ptr(),
            "same-size regather must not realloc"
        );
    }

    #[test]
    fn subset_copies_requested_samples() {
        let d = toy();
        let s = d.subset(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sample(0), &[1.0, 1.1]);
        assert_eq!(s.labels(), &[1]);
    }

    #[test]
    fn subset_into_overwrites_a_used_dataset_without_reallocating() {
        let d = toy();
        // A target of other dimensions holding stale samples.
        let mut out = Dataset::new(vec![9.0; 12], vec![0; 4], 3, 1);
        d.subset_into(&[2, 0, 1], &mut out);
        assert_eq!(out.feature_dim(), 2);
        assert_eq!(out.num_classes(), 3);
        assert_eq!(out.labels(), &[1, 0, 1]);
        assert_eq!(out.sample(0), &[2.0, 2.1]);
        let ptr = out.sample(0).as_ptr();
        d.subset_into(&[1], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.sample(0), d.subset(&[1]).sample(0));
        assert_eq!(ptr, out.sample(0).as_ptr(), "a smaller subset reuses");
    }

    #[test]
    #[should_panic]
    fn mismatched_feature_buffer_rejected() {
        Dataset::new(vec![0.0; 5], vec![0, 1], 2, 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_rejected() {
        Dataset::new(vec![0.0; 4], vec![0, 5], 2, 2);
    }
}
