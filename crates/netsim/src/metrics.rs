//! The paper's three communication-time metrics (Section 5.2) and their
//! accumulation across rounds.

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

/// Accumulates [`RoundTiming`] values over the course of training, yielding
/// the cumulative Actual / Max / Min times the paper reports in Table 3.
#[derive(Clone, Debug, Default)]
pub struct TimeAccumulator {
    rounds: Vec<RoundTiming>,
    cumulative_actual: Vec<f64>,
    cumulative_max: Vec<f64>,
    cumulative_min: Vec<f64>,
}

impl TimeAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one round.
    pub fn push(&mut self, timing: RoundTiming) {
        let prev_actual = self.cumulative_actual.last().copied().unwrap_or(0.0);
        let prev_max = self.cumulative_max.last().copied().unwrap_or(0.0);
        let prev_min = self.cumulative_min.last().copied().unwrap_or(0.0);
        self.cumulative_actual.push(prev_actual + timing.actual);
        self.cumulative_max.push(prev_max + timing.max);
        self.cumulative_min.push(prev_min + timing.min);
        self.rounds.push(timing);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True if no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Per-round timings.
    pub fn rounds(&self) -> &[RoundTiming] {
        &self.rounds
    }

    /// Cumulative actual time after each round.
    pub fn cumulative_actual(&self) -> &[f64] {
        &self.cumulative_actual
    }

    /// Cumulative maximum (straggler) time after each round.
    pub fn cumulative_max(&self) -> &[f64] {
        &self.cumulative_max
    }

    /// Cumulative minimum (fastest-client) time after each round.
    pub fn cumulative_min(&self) -> &[f64] {
        &self.cumulative_min
    }

    /// Total actual time so far.
    pub fn total_actual(&self) -> f64 {
        self.cumulative_actual.last().copied().unwrap_or(0.0)
    }

    /// Total maximum (straggler) time so far.
    pub fn total_max(&self) -> f64 {
        self.cumulative_max.last().copied().unwrap_or(0.0)
    }

    /// Total minimum time so far.
    pub fn total_min(&self) -> f64 {
        self.cumulative_min.last().copied().unwrap_or(0.0)
    }

    /// The cumulative *actual* time at the first round whose `reached`
    /// predicate is true — used for "time to reach X% accuracy" (Table 3).
    /// Returns `None` if the predicate never fires.
    pub fn time_to<F: Fn(usize) -> bool>(&self, reached: F) -> Option<f64> {
        (0..self.rounds.len())
            .find(|&r| reached(r))
            .map(|r| self.cumulative_actual[r])
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

    #[test]
    fn accumulation_is_prefix_sum() {
        let mut acc = TimeAccumulator::new();
        acc.push(RoundTiming {
            actual: 1.0,
            max: 2.0,
            min: 0.5,
        });
        acc.push(RoundTiming {
            actual: 1.5,
            max: 3.0,
            min: 0.25,
        });
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.cumulative_actual(), &[1.0, 2.5]);
        assert_eq!(acc.cumulative_max(), &[2.0, 5.0]);
        assert_eq!(acc.cumulative_min(), &[0.5, 0.75]);
        assert_eq!(acc.total_actual(), 2.5);
        assert_eq!(acc.total_max(), 5.0);
        assert_eq!(acc.total_min(), 0.75);
    }

    #[test]
    fn time_to_predicate() {
        let mut acc = TimeAccumulator::new();
        for i in 0..5 {
            acc.push(RoundTiming {
                actual: 1.0 + i as f64,
                max: 0.0,
                min: 0.0,
            });
        }
        // Accuracy reaches the target at round index 2.
        let t = acc.time_to(|r| r >= 2);
        assert_eq!(t, Some(1.0 + 2.0 + 3.0));
        assert_eq!(acc.time_to(|_| false), None);
    }

    #[test]
    fn empty_accumulator_totals_zero() {
        let acc = TimeAccumulator::new();
        assert!(acc.is_empty());
        assert_eq!(acc.total_actual(), 0.0);
    }
}
