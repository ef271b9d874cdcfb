//! Small statistics helpers used by the experiment reports: running means,
//! histograms (for the overlap-degree distribution of Fig. 4) and simple
//! summary statistics.

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance of a slice (0 when fewer than 2 elements).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum of a slice (+inf when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice (-inf when empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Current population variance.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Current population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

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
    fn basic_stats() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 4.0);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert!(min(&[]).is_infinite());
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-12);
        assert!((rs.std_dev() - 2.0).abs() < 1e-12);
    }

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
