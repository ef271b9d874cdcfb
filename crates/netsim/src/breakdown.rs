//! Per-round time breakdown (the four bars of the paper's Fig. 6).

/// How one FL round's wall-clock time splits across phases.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundBreakdown {
    /// Time spent compressing and decompressing updates (seconds).
    pub compress_s: f64,
    /// Time spent on local training across the cohort (seconds, straggler view).
    pub training_s: f64,
    /// Communication time without compression (seconds).
    pub uncompressed_comm_s: f64,
    /// Communication time with the evaluated scheduler (seconds). When a
    /// downlink codec is active this is the full bidirectional straggler
    /// bound (download + upload per client).
    pub scheduled_comm_s: f64,
    /// Portion of the round spent on the server→client broadcast (straggler
    /// view; 0 when the downlink is not simulated).
    pub downlink_comm_s: f64,
}

impl RoundBreakdown {
    /// Element-wise accumulation of another breakdown.
    pub fn accumulate(&mut self, other: &RoundBreakdown) {
        self.compress_s += other.compress_s;
        self.training_s += other.training_s;
        self.uncompressed_comm_s += other.uncompressed_comm_s;
        self.scheduled_comm_s += other.scheduled_comm_s;
        self.downlink_comm_s += other.downlink_comm_s;
    }

    /// Divide every component by `n` (producing a per-round average).
    pub fn averaged_over(&self, n: usize) -> RoundBreakdown {
        if n == 0 {
            return *self;
        }
        let d = n as f64;
        RoundBreakdown {
            compress_s: self.compress_s / d,
            training_s: self.training_s / d,
            uncompressed_comm_s: self.uncompressed_comm_s / d,
            scheduled_comm_s: self.scheduled_comm_s / d,
            downlink_comm_s: self.downlink_comm_s / d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_average() {
        let mut total = RoundBreakdown::default();
        for _ in 0..4 {
            total.accumulate(&RoundBreakdown {
                compress_s: 0.25,
                training_s: 10.0,
                uncompressed_comm_s: 48.0,
                scheduled_comm_s: 1.0,
                downlink_comm_s: 0.5,
            });
        }
        assert_eq!(total.training_s, 40.0);
        assert_eq!(total.downlink_comm_s, 2.0);
        let avg = total.averaged_over(4);
        assert_eq!(avg.compress_s, 0.25);
        assert_eq!(avg.uncompressed_comm_s, 48.0);
        assert_eq!(avg.downlink_comm_s, 0.5);
    }

    #[test]
    fn average_over_zero_is_identity() {
        let b = RoundBreakdown {
            compress_s: 1.0,
            ..Default::default()
        };
        assert_eq!(b.averaged_over(0), b);
    }
}
