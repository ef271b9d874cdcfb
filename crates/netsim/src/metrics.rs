//! The paper's three communication-time metrics (Section 5.2). A session
//! keeps their running sums in one [`RoundTiming`] (Table 3's cumulative
//! Actual / Max / Min).

/// Per-round communication timing.
///
/// * `actual` — the time the round actually took under the algorithm being
///   evaluated (for synchronous algorithms this is the slowest client's time
///   *with that algorithm's compression*);
/// * `max` — the slowest client's time under uniform compression — the
///   straggler-bound duration that plain FedAvg would experience;
/// * `min` — the fastest client's time, the unattainable ideal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundTiming {
    /// Actual communication time of this round (seconds).
    pub actual: f64,
    /// Maximum (straggler) communication time of this round (seconds).
    pub max: f64,
    /// Minimum (fastest-client) communication time of this round (seconds).
    pub min: f64,
}

impl RoundTiming {
    /// Build a round timing from per-client communication times.
    ///
    /// * `algorithm_times` — each selected client's uplink time under the
    ///   algorithm being evaluated (its compression / scheduling applied);
    /// * `dense_times` — each client's uplink time for the uncompressed model
    ///   (what plain FedAvg would pay).
    ///
    /// `actual` is the straggler under the algorithm, `max` the straggler of
    /// the uncompressed transfer, `min` the fastest client under the
    /// algorithm. Both slices must be non-empty and the same length.
    pub fn from_client_times(algorithm_times: &[f64], dense_times: &[f64]) -> Self {
        assert!(!algorithm_times.is_empty(), "no client times provided");
        assert_eq!(
            algorithm_times.len(),
            dense_times.len(),
            "client count mismatch between algorithm and dense times"
        );
        let actual = algorithm_times.iter().cloned().fold(0.0f64, f64::max);
        let max = dense_times.iter().cloned().fold(0.0f64, f64::max);
        let min = algorithm_times
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        Self { actual, max, min }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_client_times_extremes() {
        let t = RoundTiming::from_client_times(&[1.0, 2.0, 1.5], &[3.0, 5.0, 4.0]);
        assert_eq!(t.actual, 2.0);
        assert_eq!(t.max, 5.0);
        assert_eq!(t.min, 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_client_times_rejected() {
        RoundTiming::from_client_times(&[], &[]);
    }
}
