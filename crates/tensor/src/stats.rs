//! The integer-bucket histogram behind the overlap-degree distribution of
//! Fig. 4.

/// An integer-bucket histogram over values `1..=max_value`, used to summarise
/// the degree-of-overlap distribution (how many clients retained each
/// parameter after Top-K).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// Histogram with buckets for values `1..=max_value`.
    pub fn new(max_value: usize) -> Self {
        Self {
            counts: vec![0; max_value],
        }
    }

    /// Record one observation of `value` (1-based). Values outside the range
    /// are clamped into the last bucket.
    pub fn record(&mut self, value: usize) {
        if self.counts.is_empty() {
            return;
        }
        let idx = value.clamp(1, self.counts.len()) - 1;
        self.counts[idx] += 1;
    }

    /// Raw bucket counts, index `i` holds the count for value `i + 1`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of observations in each bucket (empty histogram gives zeros).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_fractions() {
        let mut h = Histogram::new(5);
        for v in [1, 1, 1, 2, 3, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[3, 1, 1, 0, 2]); // 9 clamps into last bucket
        assert_eq!(h.total(), 7);
        let f = h.fractions();
        assert!((f[0] - 3.0 / 7.0).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_zero_buckets_is_noop() {
        let mut h = Histogram::new(0);
        h.record(1);
        assert_eq!(h.total(), 0);
    }
}
