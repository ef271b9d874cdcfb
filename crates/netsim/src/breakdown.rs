//! Per-round time breakdown: the compress and training bars of the paper's
//! Fig. 6 and the broadcast's share. The two communication bars (without
//! compression, and under the evaluated scheduler) are the round records'
//! cumulative Max and Actual times.

/// How one FL round's time splits across the phases no round record sums.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundBreakdown {
    /// Time spent compressing and decompressing updates (seconds).
    pub compress_s: f64,
    /// Time spent on local training across the cohort (seconds, straggler view).
    pub training_s: f64,
    /// Portion of the round spent on the server→client broadcast (straggler
    /// view; 0 when the downlink is not simulated).
    pub downlink_comm_s: f64,
}

impl RoundBreakdown {
    /// Element-wise accumulation of another breakdown.
    pub fn accumulate(&mut self, other: &RoundBreakdown) {
        self.compress_s += other.compress_s;
        self.training_s += other.training_s;
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
                downlink_comm_s: 0.5,
            });
        }
        assert_eq!(total.training_s, 40.0);
        assert_eq!(total.downlink_comm_s, 2.0);
        let avg = total.averaged_over(4);
        assert_eq!(avg.compress_s, 0.25);
        assert_eq!(avg.training_s, 10.0);
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
