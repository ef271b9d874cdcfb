//! Small estimators the benchmark reports with: median, percentile, mean,
//! the accuracy-target search and the record fingerprint.

/// Median of `values` (mean of the two middle order statistics for an even
/// count). Panics on an empty slice: every caller reports at least one sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]` (the "inclusive" method:
/// `p = 0` is the minimum, `p = 100` the maximum).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Arithmetic mean (0 for an empty slice, so per-round means of stages that
/// never ran read as zero).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Index of the first evaluation that reaches `target`. NaN entries (rounds
/// that repeat "no evaluation yet") never match.
pub fn first_reaching(accuracies: &[f64], target: f64) -> Option<usize> {
    accuracies.iter().position(|&a| a >= target)
}

/// FNV-1a over a byte stream; the record fingerprint folds each record's
/// `Debug` text through it. `f64`'s `Debug` is the shortest string that
/// round-trips, so two records hash equal exactly when every field is
/// bit-identical (NaN placeholders included), and a field added to
/// `RoundRecord` later is covered without touching this file.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn debug<T: std::fmt::Debug>(&mut self, value: &T) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&v, 95.0) - 4.8).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn target_search_finds_the_first_crossing_and_skips_nan() {
        let acc = [f64::NAN, 0.2, 0.5, 0.4, 0.7, 0.9];
        assert_eq!(first_reaching(&acc, 0.1), Some(1));
        assert_eq!(first_reaching(&acc, 0.5), Some(2));
        assert_eq!(first_reaching(&acc, 0.6), Some(4));
        assert_eq!(first_reaching(&acc, 0.95), None);
        assert_eq!(first_reaching(&[f64::NAN], 0.0), None);
    }

    #[test]
    fn fingerprint_separates_bit_patterns() {
        let hash = |v: f64| {
            let mut h = Fnv::default();
            h.debug(&v);
            h.0
        };
        assert_eq!(hash(0.1 + 0.2), hash(0.1 + 0.2));
        assert_ne!(hash(0.1 + 0.2), hash(0.3));
        assert_ne!(hash(0.0), hash(-0.0));
    }
}
