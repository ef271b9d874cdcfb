//! Built-in scenario generators: diurnal participation waves, Poisson
//! churn, tiered link classes with lognormal jitter, and spatially
//! correlated (shared-tower) dropout.
//!
//! All generators are pure functions of their constructor inputs: every random
//! decision flows through either a private [`Xoshiro256`] stream or a
//! per-client [`SplitMix64`] hash, so the same constructor inputs emit the
//! same event stream forever — the property the trace recorder and the
//! fingerprint tests rely on.

use super::{FleetEvent, Scenario};
use crate::link::{Link, LinkGenerator};
use fl_tensor::dist::{Normal, Uniform};
use fl_tensor::rng::{Rng, SplitMix64, Xoshiro256};

/// Stream constants separating the per-client hash domains of the different
/// generators (same trick as the session's seed-xor stream constants).
const STREAM_DIURNAL: u64 = 0xD1_u64;
const STREAM_TIER: u64 = 0x71E2;
const STREAM_TOWER: u64 = 0x70E2;

/// One stable 64-bit hash per `(seed, client, stream)` triple.
fn client_hash(seed: u64, client: usize, stream: u64) -> u64 {
    let mixed = seed
        ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
        ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    SplitMix64::new(mixed).next_u64()
}

/// The hash mapped to a unit uniform in `[0, 1)`.
fn client_unit(seed: u64, client: usize, stream: u64) -> f64 {
    (client_hash(seed, client, stream) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Poisson draw. Knuth's product method below `lambda = 64`, a rounded
/// normal approximation above (the product method underflows), zero for a
/// non-positive rate.
fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 64.0 {
        let draw = Normal::new(lambda, lambda.sqrt()).sample(rng);
        return draw.round().max(0.0) as usize;
    }
    let limit = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// Mean-one lognormal multiplier with shape `sigma`:
/// `exp(N(-sigma^2 / 2, sigma))`.
fn lognormal_jitter<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    Normal::new(-0.5 * sigma * sigma, sigma).sample(rng).exp()
}

/// Diurnal participation wave: the fraction of clients that are up follows
/// `min_up + (max_up - min_up) · (1 + sin(2π·round/period)) / 2`.
///
/// Each client holds a fixed hash position `u_i ∈ [0, 1)`; client `i` is up
/// whenever `u_i` lies below the current fraction. Rounds therefore only
/// emit events for clients whose position *crosses* the moving threshold —
/// the event stream is sparse even though the wave sweeps the whole fleet.
pub struct DiurnalScenario {
    num_clients: usize,
    seed: u64,
    period: f64,
    min_up: f64,
    max_up: f64,
    prev_frac: Option<f64>,
}

impl DiurnalScenario {
    /// Create a wave over `num_clients` clients: one full cycle every
    /// `period` rounds, participation oscillating between `min_up` and
    /// `max_up` (fractions of the fleet).
    pub fn new(num_clients: usize, seed: u64, period: f64, min_up: f64, max_up: f64) -> Self {
        assert!(period >= 2.0, "diurnal period must be at least 2 rounds");
        assert!(
            (0.0..=1.0).contains(&min_up) && (0.0..=1.0).contains(&max_up) && min_up < max_up,
            "diurnal fractions must satisfy 0 <= min_up < max_up <= 1"
        );
        Self {
            num_clients,
            seed,
            period,
            min_up,
            max_up,
            prev_frac: None,
        }
    }

    /// The target up-fraction at `round`.
    pub fn up_fraction(&self, round: usize) -> f64 {
        let phase = std::f64::consts::TAU * round as f64 / self.period;
        self.min_up + (self.max_up - self.min_up) * 0.5 * (1.0 + phase.sin())
    }
}

impl Scenario for DiurnalScenario {
    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>) {
        let frac = self.up_fraction(round);
        let prev = self.prev_frac;
        self.prev_frac = Some(frac);
        for client in 0..self.num_clients {
            let u = client_unit(self.seed, client, STREAM_DIURNAL);
            let was_up = match prev {
                // The fleet starts fully up; round 0 establishes the wave.
                None => true,
                Some(p) => u < p,
            };
            let is_up = u < frac;
            if was_up && !is_up {
                out.push(FleetEvent::Down { client });
            } else if !was_up && is_up {
                out.push(FleetEvent::Up { client });
            }
        }
    }
}

/// Poisson device churn: every round, `Poisson(leave_rate · present)`
/// enrolled clients leave and `Poisson(join_rate · departed)` departed
/// clients re-join with a link freshly drawn from the fleet's own
/// [`LinkGenerator`].
///
/// `leave_rate` is a per-capita per-round departure probability;
/// `join_rate` governs how quickly the departed pool drains back in, so the
/// population hovers around `join / (join + leave)` of the fleet.
pub struct ChurnScenario {
    num_clients: usize,
    leave_rate: f64,
    join_rate: f64,
    links: LinkGenerator,
    rng: Xoshiro256,
    departed: Vec<usize>,
}

impl ChurnScenario {
    /// Create a churn process with the given per-capita rates (both in
    /// `[0, 1]`); re-joining clients draw their links from `links`.
    pub fn new(
        num_clients: usize,
        seed: u64,
        leave_rate: f64,
        join_rate: f64,
        links: LinkGenerator,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&leave_rate) && (0.0..=1.0).contains(&join_rate),
            "churn rates must lie in [0, 1]"
        );
        Self {
            num_clients,
            leave_rate,
            join_rate,
            links,
            rng: Xoshiro256::new(seed),
            departed: Vec::new(),
        }
    }
}

impl Scenario for ChurnScenario {
    fn events_for_round(&mut self, _round: usize, out: &mut Vec<FleetEvent>) {
        // Re-joins draw from the pool as it stood at round start, so a
        // client cannot leave and re-join within one round.
        let rejoin_pool = self.departed.clone();

        let present: Vec<usize> = (0..self.num_clients)
            .filter(|c| !self.departed.contains(c))
            .collect();
        // Keep at least one client enrolled; an empty fleet has no rounds.
        let max_leaves = present.len().saturating_sub(1);
        let leaves = poisson(&mut self.rng, self.leave_rate * present.len() as f64).min(max_leaves);
        let leavers = self.rng.sample_without_replacement(present.len(), leaves);
        for &slot in &leavers {
            let client = present[slot];
            out.push(FleetEvent::Leave { client });
            self.departed.push(client);
        }

        let joins = poisson(&mut self.rng, self.join_rate * rejoin_pool.len() as f64)
            .min(rejoin_pool.len());
        let joiners = self
            .rng
            .sample_without_replacement(rejoin_pool.len(), joins);
        for &slot in &joiners {
            let client = rejoin_pool[slot];
            let link = self.links.sample_with(&mut self.rng);
            out.push(FleetEvent::Join { client, link });
            self.departed.retain(|&c| c != client);
        }
        self.departed.sort_unstable();
    }
}

/// One network tier: a link-quality class with a population weight.
struct TierClass {
    links: LinkGenerator,
    weight: f64,
}

/// Tiered links with lognormal jitter: each client is hashed into one of
/// three tiers — half cellular (0.5 Mbit/s, 80–300 ms), a third wifi
/// (2 Mbit/s, 20–100 ms), the rest datacenter (100 Mbit/s, 1–10 ms). Round 0
/// rebinds every link to its tier draw, and every later round resamples a
/// `resample` fraction of the fleet — new bandwidth is the client's
/// tier-base value times a mean-one lognormal with shape `sigma`, clamped at
/// the tier's [`LinkGenerator::floor_mbps`], with latency redrawn from the
/// tier's range.
pub struct TieredScenario {
    num_clients: usize,
    seed: u64,
    resample: f64,
    sigma: f64,
    tiers: [TierClass; 3],
    rng: Xoshiro256,
}

impl TieredScenario {
    /// Create the three-tier fleet.
    pub fn new(num_clients: usize, seed: u64, resample: f64, sigma: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&resample),
            "resample fraction must lie in [0, 1]"
        );
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be finite and >= 0"
        );
        let tier = |mean, std, lo, hi, weight| TierClass {
            links: LinkGenerator {
                bandwidth_mean_mbps: mean,
                bandwidth_std_mbps: std,
                latency_lo_ms: lo,
                latency_hi_ms: hi,
            },
            weight,
        };
        Self {
            num_clients,
            seed,
            resample,
            sigma,
            // Cellular, wifi, datacenter.
            tiers: [
                tier(0.5, 0.15, 80.0, 300.0, 0.5),
                tier(2.0, 0.5, 20.0, 100.0, 0.35),
                tier(100.0, 10.0, 1.0, 10.0, 0.15),
            ],
            rng: Xoshiro256::new(seed),
        }
    }

    /// The index of the tier `client` is permanently assigned to.
    fn tier_of(&self, client: usize) -> usize {
        let total: f64 = self.tiers.iter().map(|t| t.weight).sum();
        let u = client_unit(self.seed, client, STREAM_TIER) * total;
        let mut acc = 0.0;
        for (i, tier) in self.tiers.iter().enumerate() {
            acc += tier.weight;
            if u < acc {
                return i;
            }
        }
        self.tiers.len() - 1
    }

    /// The client's stable tier-base link (pure function of seed + client,
    /// so it is never stored).
    fn base_link(&self, client: usize) -> Link {
        let tier = &self.tiers[self.tier_of(client)];
        let mut rng = Xoshiro256::new(client_hash(self.seed, client, STREAM_TIER ^ 0xBA5E));
        tier.links.sample_with(&mut rng)
    }
}

impl Scenario for TieredScenario {
    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>) {
        if round == 0 {
            for client in 0..self.num_clients {
                let link = self.base_link(client);
                out.push(FleetEvent::LinkSet { client, link });
            }
            return;
        }
        let count = (self.resample * self.num_clients as f64).round() as usize;
        let count = count.min(self.num_clients);
        if count == 0 {
            return;
        }
        let chosen = self.rng.sample_without_replacement(self.num_clients, count);
        for client in chosen {
            let tier_links = self.tiers[self.tier_of(client)].links.clone();
            let base = self.base_link(client);
            let jitter = lognormal_jitter(&mut self.rng, self.sigma);
            let bw_mbps = (base.bandwidth_mbps() * jitter).max(tier_links.floor_mbps());
            let lat_ms = Uniform::new(tier_links.latency_lo_ms, tier_links.latency_hi_ms)
                .sample(&mut self.rng);
            out.push(FleetEvent::LinkSet {
                client,
                link: Link::from_mbps_ms(bw_mbps, lat_ms),
            });
        }
    }
}

/// Spatially correlated dropout: clients are hashed into `groups` shared
/// towers, and a tower outage takes its whole membership down at once.
///
/// Every round each up tower fails with probability `outage` and each down
/// tower recovers with probability `repair`, so outages last
/// `1 / repair` rounds on average and the long-run fraction of towers down
/// is `outage / (outage + repair)`.
pub struct CorrelatedDropoutScenario {
    num_clients: usize,
    seed: u64,
    groups: usize,
    outage: f64,
    repair: f64,
    rng: Xoshiro256,
    down_towers: Vec<bool>,
}

impl CorrelatedDropoutScenario {
    /// Create a tower-outage process over `groups` towers.
    pub fn new(num_clients: usize, seed: u64, groups: usize, outage: f64, repair: f64) -> Self {
        assert!(groups >= 1, "need at least one tower group");
        assert!(
            (0.0..=1.0).contains(&outage) && (0.0..=1.0).contains(&repair),
            "outage/repair probabilities must lie in [0, 1]"
        );
        Self {
            num_clients,
            seed,
            groups,
            outage,
            repair,
            rng: Xoshiro256::new(seed),
            down_towers: vec![false; groups],
        }
    }

    /// The tower `client` is attached to.
    pub fn tower_of(&self, client: usize) -> usize {
        (client_hash(self.seed, client, STREAM_TOWER) % self.groups as u64) as usize
    }
}

impl Scenario for CorrelatedDropoutScenario {
    fn events_for_round(&mut self, _round: usize, out: &mut Vec<FleetEvent>) {
        for tower in 0..self.groups {
            let flip = if self.down_towers[tower] {
                self.rng.next_bool(self.repair)
            } else {
                self.rng.next_bool(self.outage)
            };
            if !flip {
                continue;
            }
            let going_down = !self.down_towers[tower];
            self.down_towers[tower] = going_down;
            for client in 0..self.num_clients {
                if self.tower_of(client) != tower {
                    continue;
                }
                out.push(if going_down {
                    FleetEvent::Down { client }
                } else {
                    FleetEvent::Up { client }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FleetState;

    fn drive(mut s: impl Scenario, num_clients: usize, rounds: usize) -> Vec<Vec<FleetEvent>> {
        let mut all = Vec::new();
        for round in 0..rounds {
            let mut buf = Vec::new();
            s.events_for_round(round, &mut buf);
            assert!(buf.iter().all(|ev| ev.client() < num_clients));
            all.push(buf);
        }
        all
    }

    fn churn(num_clients: usize, seed: u64, leave: f64, join: f64) -> ChurnScenario {
        ChurnScenario::new(
            num_clients,
            seed,
            leave,
            join,
            LinkGenerator::paper_default(),
        )
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = Xoshiro256::new(1);
        for &lambda in &[0.5, 4.0, 30.0, 200.0] {
            let n = 20_000;
            let total: usize = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "lambda={lambda}, mean={mean}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }

    #[test]
    fn lognormal_jitter_has_mean_one() {
        let mut rng = Xoshiro256::new(2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| lognormal_jitter(&mut rng, 0.25)).sum();
        let mean = total / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn diurnal_wave_tracks_the_sine() {
        let num = 400;
        let wave = DiurnalScenario::new(num, 7, 8.0, 0.3, 0.95);
        let mut state =
            FleetState::new(Box::new(DiurnalScenario::new(num, 7, 8.0, 0.3, 0.95)), num);
        let mut fracs = Vec::new();
        for round in 0..16 {
            let expected = wave.up_fraction(round);
            state.advance(round);
            let got = state.active_count() as f64 / num as f64;
            assert!(
                (got - expected).abs() < 0.08,
                "round {round}: active {got}, wave {expected}"
            );
            fracs.push(state.active_count());
        }
        let distinct: std::collections::BTreeSet<_> = fracs.iter().collect();
        assert!(distinct.len() > 4, "participation should actually vary");
    }

    #[test]
    fn diurnal_is_deterministic_and_sparse_after_round_zero() {
        let a = drive(DiurnalScenario::new(50, 3, 24.0, 0.3, 0.95), 50, 30);
        let b = drive(DiurnalScenario::new(50, 3, 24.0, 0.3, 0.95), 50, 30);
        assert_eq!(a, b);
        // Adjacent rounds move the threshold slightly; events per round
        // should be far below the fleet size.
        let later_max = a[1..].iter().map(|v| v.len()).max().unwrap();
        assert!(
            later_max < 25,
            "crossing deltas, not snapshots ({later_max})"
        );
    }

    #[test]
    fn churn_departs_and_rejoins() {
        let num = 60;
        let mut state = FleetState::new(Box::new(churn(num, 11, 0.1, 0.3)), num);
        let mut saw_leave = false;
        let mut saw_join = false;
        for round in 0..40 {
            state.advance(round);
            saw_leave |= state.telemetry().departed > 0;
            saw_join |= state.telemetry().joined > 0;
            assert!(state.active_count() >= 1, "fleet never fully empties");
        }
        assert!(saw_leave && saw_join);
        let again = drive(churn(num, 11, 0.1, 0.3), num, 40);
        let first = drive(churn(num, 11, 0.1, 0.3), num, 40);
        assert_eq!(again, first, "churn is deterministic");
    }

    #[test]
    fn tiers_produce_distinct_bandwidth_scales() {
        let num = 300;
        let mut s = TieredScenario::new(num, 5, 0.2, 0.25);
        let mut buf = Vec::new();
        s.events_for_round(0, &mut buf);
        assert_eq!(buf.len(), num, "round 0 rebinds every client");
        let mut by_tier: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        let tiers: Vec<usize> = (0..num).map(|c| s.tier_of(c)).collect();
        for (ev, tier) in buf.iter().zip(&tiers) {
            if let FleetEvent::LinkSet { link, .. } = ev {
                by_tier
                    .entry(*tier)
                    .or_default()
                    .push(link.bandwidth_mbps());
            }
        }
        assert_eq!(by_tier.len(), 3, "all three default tiers populated");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (cellular, wifi, datacenter) = (&by_tier[&0], &by_tier[&1], &by_tier[&2]);
        assert!(mean(datacenter) > 10.0 * mean(wifi));
        assert!(mean(wifi) > 2.0 * mean(cellular));
    }

    #[test]
    fn tiered_jitter_resamples_a_fraction() {
        let num = 100;
        let a = drive(TieredScenario::new(num, 9, 0.2, 0.25), num, 10);
        let b = drive(TieredScenario::new(num, 9, 0.2, 0.25), num, 10);
        assert_eq!(a, b, "tiered is deterministic");
        for round_events in &a[1..] {
            assert_eq!(round_events.len(), 20, "resample=0.2 of 100 clients");
        }
    }

    #[test]
    fn tower_outages_are_correlated() {
        let num = 120;
        let mut s = CorrelatedDropoutScenario::new(num, 13, 4, 0.3, 0.5);
        let towers: Vec<usize> = (0..num).map(|c| s.tower_of(c)).collect();
        let mut buf = Vec::new();
        let mut saw_group_down = false;
        for round in 0..30 {
            buf.clear();
            s.events_for_round(round, &mut buf);
            let downs: Vec<usize> = buf
                .iter()
                .filter_map(|e| match e {
                    FleetEvent::Down { client } => Some(*client),
                    _ => None,
                })
                .collect();
            if !downs.is_empty() {
                // Every Down in one round belongs to a whole tower: the
                // affected tower set fully covers its membership.
                let affected: std::collections::BTreeSet<usize> =
                    downs.iter().map(|&c| towers[c]).collect();
                let expected: usize = towers.iter().filter(|t| affected.contains(t)).count();
                // Some members may already be down from a previous outage of
                // another tower? No: towers are disjoint, so counts match.
                assert_eq!(downs.len(), expected, "round {round}");
                saw_group_down = true;
            }
        }
        assert!(saw_group_down, "0.3 outage over 30 rounds should fire");
        let a = drive(
            CorrelatedDropoutScenario::new(num, 13, 4, 0.3, 0.5),
            num,
            30,
        );
        let b = drive(
            CorrelatedDropoutScenario::new(num, 13, 4, 0.3, 0.5),
            num,
            30,
        );
        assert_eq!(a, b);
    }
}
