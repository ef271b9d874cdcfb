//! Bandwidth-aware Compression Ratio Scheduling (BCRS) — Algorithm 2 and
//! Eq. 5–6 of the paper.
//!
//! Given the links of the selected clients and a base compression ratio
//! `CR*`, BCRS:
//!
//! 1. computes every client's uplink time under *uniform* compression,
//!    `T_i = L_i + 2·V·CR*/B_i`;
//! 2. takes the slowest of those as the benchmark `T_bench` (Eq. 5);
//! 3. gives every client the largest ratio that still finishes by `T_bench`,
//!    `CR_i = (T_bench − L_i)/(2·V) · B_i` (clamped to `[CR*, 1]`);
//! 4. adjusts the averaging coefficient of client `i` to
//!    `p'_i = f_i / max(f_i, Norm(CR_i)) · α` (Eq. 6), where `Norm(CR_i)` is
//!    the client's share of the cohort's total ratio.

use fl_netsim::{CommModel, Link};

/// The per-round output of the BCRS scheduler.
#[derive(Clone, Debug)]
pub struct BcrsSchedule {
    /// Benchmark time `T_bench` (seconds): the slowest client's compressed
    /// uplink time under the uniform base ratio.
    pub t_bench: f64,
    /// Index (within the selected cohort) of the benchmark (slowest) client.
    pub benchmark_client: usize,
    /// Scheduled compression ratio per selected client.
    pub ratios: Vec<f64>,
    /// Uplink time per client under the scheduled ratios (seconds).
    pub scheduled_times: Vec<f64>,
    /// Uplink time per client under the uniform base ratio (seconds).
    pub uniform_times: Vec<f64>,
}

impl BcrsSchedule {
    /// Normalised compression ratios (`CR_i / Σ_j CR_j`), the `Norm(CR_i)`
    /// term of Eq. 6.
    pub fn normalized_ratios(&self) -> Vec<f64> {
        let total: f64 = self.ratios.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.ratios.len()];
        }
        self.ratios.iter().map(|r| r / total).collect()
    }

    /// Adjusted averaging coefficients `p'_i = f_i / max(f_i, Norm(CR_i)) · α`
    /// (Eq. 6). `data_fractions` are the `f_i` (sample shares of the cohort).
    pub fn adjusted_coefficients(&self, data_fractions: &[f64], alpha: f64) -> Vec<f64> {
        assert_eq!(
            data_fractions.len(),
            self.ratios.len(),
            "data fraction count must match cohort size"
        );
        assert!(alpha > 0.0, "alpha must be positive");
        let norm = self.normalized_ratios();
        data_fractions
            .iter()
            .zip(norm.iter())
            .map(|(&f, &n)| {
                let denom = f.max(n);
                if denom <= 0.0 {
                    0.0
                } else {
                    f / denom * alpha
                }
            })
            .collect()
    }

    /// Worst-case scheduled uplink time (should not exceed `t_bench` by more
    /// than numerical noise).
    pub fn makespan(&self) -> f64 {
        self.scheduled_times.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean scheduled compression ratio across the cohort.
    pub fn mean_ratio(&self) -> f64 {
        if self.ratios.is_empty() {
            0.0
        } else {
            self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
        }
    }
}

/// The BCRS scheduler (Algorithm 2).
///
/// ```
/// use fl_core::BcrsScheduler;
/// use fl_netsim::{CommModel, Link};
///
/// let links = vec![
///     Link::from_mbps_ms(2.0, 60.0),   // fast client
///     Link::from_mbps_ms(0.5, 180.0),  // straggler
/// ];
/// let schedule = BcrsScheduler::new(CommModel::paper_default())
///     .schedule(&links, 100_000.0, 0.05);
/// // The fast client is given a larger compression ratio (more retained
/// // parameters) while still finishing within the straggler's budget.
/// assert!(schedule.ratios[0] > schedule.ratios[1]);
/// assert!(schedule.makespan() <= schedule.t_bench + 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct BcrsScheduler {
    comm: CommModel,
    /// If true (default), per-client ratios never drop below the base ratio
    /// and never exceed 1.
    pub clamp_ratios: bool,
}

impl BcrsScheduler {
    /// Scheduler using the paper's communication model.
    pub fn new(comm: CommModel) -> Self {
        Self {
            comm,
            clamp_ratios: true,
        }
    }

    /// Compute the schedule for one round.
    ///
    /// * `links` — the selected clients' uplinks;
    /// * `model_bytes` — dense model update size `V` in bytes;
    /// * `base_ratio` — the uniform compression ratio `CR*`.
    pub fn schedule(&self, links: &[Link], model_bytes: f64, base_ratio: f64) -> BcrsSchedule {
        assert!(!links.is_empty(), "BCRS needs at least one selected client");
        assert!(model_bytes > 0.0, "model size must be positive");
        assert!(
            base_ratio > 0.0 && base_ratio <= 1.0,
            "base ratio must be in (0, 1]"
        );

        // Step 1–2: uniform-compression times and the benchmark (Eq. 5).
        let uniform_times: Vec<f64> = links
            .iter()
            .map(|l| self.comm.sparse_uplink_time(l, model_bytes, base_ratio))
            .collect();
        let (benchmark_client, &t_bench) = uniform_times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty cohort");

        // Step 3: per-client ratios filling the benchmark budget (Alg. 2 l.13).
        let ratios: Vec<f64> = links
            .iter()
            .map(|l| {
                let r = self.comm.ratio_for_budget(l, model_bytes, t_bench);
                if self.clamp_ratios {
                    r.clamp(base_ratio, 1.0)
                } else {
                    r.max(0.0)
                }
            })
            .collect();

        let scheduled_times: Vec<f64> = links
            .iter()
            .zip(ratios.iter())
            .map(|(l, &r)| self.comm.sparse_uplink_time(l, model_bytes, r))
            .collect();

        BcrsSchedule {
            t_bench,
            benchmark_client,
            ratios,
            scheduled_times,
            uniform_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_netsim::LinkGenerator;

    fn three_links() -> Vec<Link> {
        vec![
            Link::from_mbps_ms(2.0, 60.0),  // fast
            Link::from_mbps_ms(1.0, 100.0), // medium
            Link::from_mbps_ms(0.5, 180.0), // slow (straggler)
        ]
    }

    #[test]
    fn benchmark_is_slowest_uniform_client() {
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let s = sched.schedule(&three_links(), 100_000.0, 0.1);
        assert_eq!(s.benchmark_client, 2);
        assert!((s.t_bench - s.uniform_times[2]).abs() < 1e-12);
    }

    #[test]
    fn faster_clients_get_higher_ratios() {
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let s = sched.schedule(&three_links(), 100_000.0, 0.05);
        assert!(s.ratios[0] > s.ratios[1]);
        assert!(s.ratios[1] > s.ratios[2] - 1e-12);
        // The slowest client keeps (at least) the base ratio.
        assert!((s.ratios[2] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn makespan_never_exceeds_benchmark() {
        let sched = BcrsScheduler::new(CommModel::paper_default());
        for seed in 0..20 {
            let links = LinkGenerator::paper_default().generate(5, seed);
            for &cr in &[0.01, 0.1, 0.5] {
                let s = sched.schedule(&links, 101_672.0, cr);
                assert!(
                    s.makespan() <= s.t_bench + 1e-9,
                    "seed {seed} cr {cr}: makespan {} > bench {}",
                    s.makespan(),
                    s.t_bench
                );
            }
        }
    }

    #[test]
    fn ratios_clamped_to_one() {
        // A very fast client with a huge budget cannot exceed CR = 1.
        let links = vec![
            Link::from_mbps_ms(100.0, 1.0),
            Link::from_mbps_ms(0.1, 500.0),
        ];
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let s = sched.schedule(&links, 10_000.0, 0.5);
        assert!(s.ratios.iter().all(|&r| r <= 1.0));
        assert_eq!(s.ratios[0], 1.0);
    }

    #[test]
    fn homogeneous_links_give_uniform_ratios() {
        let links = vec![Link::from_mbps_ms(1.0, 100.0); 4];
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let s = sched.schedule(&links, 100_000.0, 0.1);
        for &r in &s.ratios {
            assert!((r - 0.1).abs() < 1e-9);
        }
        // Coefficients collapse to alpha when CR shares equal data shares.
        let coeffs = s.adjusted_coefficients(&[0.25; 4], 0.3);
        for &c in &coeffs {
            assert!((c - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn normalized_ratios_sum_to_one() {
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let s = sched.schedule(&three_links(), 100_000.0, 0.1);
        let sum: f64 = s.normalized_ratios().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adjusted_coefficients_bounded_by_alpha() {
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let s = sched.schedule(&three_links(), 100_000.0, 0.01);
        let f = vec![1.0 / 3.0; 3];
        let coeffs = s.adjusted_coefficients(&f, 0.3);
        for (&c, _) in coeffs.iter().zip(f.iter()) {
            assert!(c <= 0.3 + 1e-12, "coefficient {c} exceeds alpha");
            assert!(c > 0.0);
        }
        // The client contributing the largest CR share is down-weighted.
        let norm = s.normalized_ratios();
        let biggest = norm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(coeffs[biggest] < 0.3);
    }

    #[test]
    fn nan_uplink_time_schedules_without_panicking() {
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let mut links = three_links();
        links[1].latency_s = f64::NAN;
        let s = sched.schedule(&links, 100_000.0, 0.01);
        assert!(s.uniform_times[1].is_nan());
        assert_eq!(s.ratios.len(), 3);
        assert!(s.ratios.iter().all(|r| (0.01..=1.0).contains(r)));
    }

    #[test]
    fn finite_times_pick_the_benchmark_partial_cmp_picked() {
        // Ties included: `max_by` keeps the last maximum under either order.
        let sched = BcrsScheduler::new(CommModel::paper_default());
        let mut links = LinkGenerator::paper_default().generate(40, 3);
        links[7] = links[31];
        let s = sched.schedule(&links, 250_000.0, 0.05);
        let expected = s
            .uniform_times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(s.benchmark_client, expected.0);
        assert_eq!(s.t_bench.to_bits(), expected.1.to_bits());
    }

    #[test]
    #[should_panic]
    fn empty_cohort_rejected() {
        BcrsScheduler::new(CommModel::paper_default()).schedule(&[], 1000.0, 0.1);
    }

    #[test]
    #[should_panic]
    fn zero_ratio_rejected() {
        BcrsScheduler::new(CommModel::paper_default()).schedule(&three_links(), 1000.0, 0.0);
    }
}
