//! Per-client network link parameters and their random generation.

use fl_tensor::dist::{Normal, Uniform};
use fl_tensor::rng::Xoshiro256;

/// The uplink of one client: bandwidth in bits per second and latency in
/// seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Uplink bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl Link {
    /// Construct a link; bandwidth must be positive and latency non-negative.
    pub fn new(bandwidth_bps: f64, latency_s: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        Self {
            bandwidth_bps,
            latency_s,
        }
    }

    /// Convenience constructor from Mbit/s and milliseconds.
    pub fn from_mbps_ms(bandwidth_mbps: f64, latency_ms: f64) -> Self {
        Self::new(bandwidth_mbps * 1e6, latency_ms * 1e-3)
    }

    /// Bandwidth in Mbit/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_bps / 1e6
    }

    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_s * 1e3
    }
}

/// Random generator of client links following the paper's Section 5.2:
/// bandwidth `~ N(mean, std)` truncated to stay positive, latency
/// `~ U(lo, hi]`.
#[derive(Clone, Debug)]
pub struct LinkGenerator {
    /// Mean bandwidth in Mbit/s (paper: 1.0).
    pub bandwidth_mean_mbps: f64,
    /// Bandwidth standard deviation in Mbit/s (paper: 0.2).
    pub bandwidth_std_mbps: f64,
    /// Lower latency bound in milliseconds (paper: 50, exclusive).
    pub latency_lo_ms: f64,
    /// Upper latency bound in milliseconds (paper: 200, inclusive).
    pub latency_hi_ms: f64,
}

impl Default for LinkGenerator {
    fn default() -> Self {
        Self {
            bandwidth_mean_mbps: 1.0,
            bandwidth_std_mbps: 0.2,
            latency_lo_ms: 50.0,
            latency_hi_ms: 200.0,
        }
    }
}

impl LinkGenerator {
    /// Truncation floor for the bandwidth draw, as a fraction of
    /// [`bandwidth_mean_mbps`](Self::bandwidth_mean_mbps). The normal draw is
    /// redrawn (then clamped) so no client falls below
    /// `bandwidth_mean_mbps * BANDWIDTH_FLOOR_FRAC` — "truncated normal"
    /// practice that keeps every simulated link usable. Scenario tier
    /// classes reuse the same floor when jittering links (see
    /// [`floor_mbps`](Self::floor_mbps)).
    pub const BANDWIDTH_FLOOR_FRAC: f64 = 0.05;

    /// The paper's configuration (`N(1, 0.2)` Mbit/s, `U(50, 200]` ms).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The absolute bandwidth floor in Mbit/s implied by
    /// [`BANDWIDTH_FLOOR_FRAC`](Self::BANDWIDTH_FLOOR_FRAC): no generated or
    /// jittered link drops below this value.
    pub fn floor_mbps(&self) -> f64 {
        self.bandwidth_mean_mbps * Self::BANDWIDTH_FLOOR_FRAC
    }

    /// Draw one link from an externally managed RNG stream (bandwidth draw
    /// first, then latency — the order [`generate`](Self::generate) has always
    /// used). Scenario generators use this to mint links for joining clients
    /// or tier resamples without materialising a whole fleet.
    pub fn sample_with(&self, rng: &mut Xoshiro256) -> Link {
        let bw_dist = Normal::new(self.bandwidth_mean_mbps, self.bandwidth_std_mbps);
        let lat_dist = Uniform::new(self.latency_lo_ms, self.latency_hi_ms);
        let bw = bw_dist.sample_truncated_below(rng, self.floor_mbps());
        let lat = lat_dist.sample(rng);
        Link::from_mbps_ms(bw, lat)
    }

    /// Check that every draw yields a valid [`Link`]: all parameters
    /// finite, a positive mean bandwidth, a non-negative standard deviation
    /// and a non-empty latency range starting at or above 0 ms.
    pub fn validate(&self) -> Result<(), String> {
        let params = [
            self.bandwidth_mean_mbps,
            self.bandwidth_std_mbps,
            self.latency_lo_ms,
            self.latency_hi_ms,
        ];
        if !params.iter().all(|x| x.is_finite()) {
            return Err("link parameters must be finite".into());
        }
        if self.bandwidth_mean_mbps <= 0.0 {
            return Err("mean bandwidth must be positive".into());
        }
        if self.bandwidth_std_mbps < 0.0 {
            return Err("bandwidth std must be non-negative".into());
        }
        if self.latency_lo_ms < 0.0 || self.latency_hi_ms <= self.latency_lo_ms {
            return Err("latency range must be non-empty and non-negative".into());
        }
        Ok(())
    }

    /// Generate `n` client links deterministically from a seed. Panics on a
    /// generator that fails [`validate`](Self::validate).
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Link> {
        if let Err(e) = self.validate() {
            panic!("invalid link generator: {e}");
        }
        let mut rng = Xoshiro256::new(seed);
        (0..n).map(|_| self.sample_with(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let l = Link::from_mbps_ms(1.0, 100.0);
        assert_eq!(l.bandwidth_bps, 1e6);
        assert!((l.latency_s - 0.1).abs() < 1e-12);
        assert!((l.bandwidth_mbps() - 1.0).abs() < 1e-12);
        assert!((l.latency_ms() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        Link::new(0.0, 0.1);
    }

    #[test]
    fn generator_matches_paper_statistics() {
        let gen = LinkGenerator::paper_default();
        let links = gen.generate(5000, 42);
        assert_eq!(links.len(), 5000);
        let mean_bw: f64 =
            links.iter().map(|l| l.bandwidth_mbps()).sum::<f64>() / links.len() as f64;
        assert!((mean_bw - 1.0).abs() < 0.02, "mean bandwidth {mean_bw}");
        let lat_in_range = links
            .iter()
            .all(|l| l.latency_ms() >= 50.0 && l.latency_ms() <= 200.0);
        assert!(lat_in_range);
        assert!(links.iter().all(|l| l.bandwidth_bps > 0.0));
    }

    #[test]
    fn generator_is_deterministic() {
        let gen = LinkGenerator::paper_default();
        assert_eq!(gen.generate(10, 7), gen.generate(10, 7));
        assert_ne!(gen.generate(10, 7), gen.generate(10, 8));
    }

    #[test]
    fn sample_with_matches_generate_stream() {
        let gen = LinkGenerator::paper_default();
        let batch = gen.generate(8, 21);
        let mut rng = Xoshiro256::new(21);
        let singles: Vec<Link> = (0..8).map(|_| gen.sample_with(&mut rng)).collect();
        assert_eq!(batch, singles);
    }

    #[test]
    fn bandwidth_floor_is_exposed_and_respected() {
        let gen = LinkGenerator {
            bandwidth_mean_mbps: 1.0,
            bandwidth_std_mbps: 5.0, // wild std so the floor actually binds
            ..LinkGenerator::paper_default()
        };
        assert!((gen.floor_mbps() - 0.05).abs() < 1e-12);
        let links = gen.generate(2000, 13);
        assert!(links.iter().all(|l| l.bandwidth_mbps() >= 0.05));
    }

    #[test]
    fn heterogeneity_exists() {
        let gen = LinkGenerator::paper_default();
        let links = gen.generate(20, 3);
        let min = links
            .iter()
            .map(|l| l.bandwidth_bps)
            .fold(f64::INFINITY, f64::min);
        let max = links.iter().map(|l| l.bandwidth_bps).fold(0.0, f64::max);
        assert!(max > min * 1.1, "links should be heterogeneous");
    }
}
