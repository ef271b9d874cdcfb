//! Scenario-driven fleet dynamics wired into the round engine.
//!
//! The `fl-netsim` [`Scenario`] machinery produces per-round
//! [`FleetEvent`] streams; this module connects them to the round engine:
//!
//! * [`ScenarioHandle`] — owns the scenario and the materialised
//!   [`FleetState`], advanced exactly once per round by the round engine
//!   (idempotently, so no round's events are ever applied twice). The
//!   engine draws each cohort from its
//!   [`active_clients`](ScenarioHandle::active_clients) (see
//!   [`crate::policy::select_cohort`]) and prices transfers over its
//!   [`link_for`](ScenarioHandle::link_for) overrides;
//! * [`scenario_seed`] / [`record_scenario_trace`] — the dedicated seed
//!   stream and the trace-capture helper used to replay a run's exact fleet
//!   evolution from a text file.
//!
//! The handle's state is `O(cohort + deviations)`: the fleet view stores only
//! the down/departed sets and link overrides, never per-client state, so
//! scenarios stay practical at roster-scale populations.

use crate::config::ExperimentConfig;
use fl_netsim::scenario::FleetEvent;
use fl_netsim::{FleetState, Link, RecordingScenario, Scenario, ScenarioTelemetry};

/// The dedicated seed stream for scenario randomness: `config.seed ^ 0x5CE0`.
///
/// Scenario generators never touch the partition, roster, link, downlink or
/// selection streams, so `scenario: None` runs are bit-identical to builds
/// that predate the scenario engine.
pub fn scenario_seed(config: &ExperimentConfig) -> u64 {
    config.seed ^ 0x5CE0
}

/// A running scenario: the event source, the materialised fleet view, and
/// the last advanced round's telemetry.
pub struct ScenarioHandle {
    scenario: Box<dyn Scenario>,
    fleet: FleetState,
    buf: Vec<FleetEvent>,
    next_round: usize,
    last: ScenarioTelemetry,
}

impl ScenarioHandle {
    /// Wrap a scenario for a `num_clients`-client fleet (initially fully up).
    pub fn new(scenario: Box<dyn Scenario>, num_clients: usize) -> Self {
        let fleet = FleetState::new(num_clients);
        let last = ScenarioTelemetry {
            available: fleet.active_count(),
            ..ScenarioTelemetry::default()
        };
        Self {
            scenario,
            fleet,
            buf: Vec::new(),
            next_round: 0,
            last,
        }
    }

    /// Advance the fleet through every round up to and including `round`,
    /// applying each round's events in order. Idempotent: rounds already
    /// advanced are skipped, so calling this twice for the same round (or
    /// for an earlier one) is a no-op. Panics on a corrupt event stream
    /// (an event naming a client outside the fleet), matching the engine's
    /// fail-fast posture on invalid configuration.
    pub fn advance(&mut self, round: usize) {
        while self.next_round <= round {
            let r = self.next_round;
            self.buf.clear();
            self.scenario.events_for_round(r, &mut self.buf);
            let mut telemetry = ScenarioTelemetry::default();
            for event in &self.buf {
                match event {
                    FleetEvent::Join { .. } => telemetry.joined += 1,
                    FleetEvent::Leave { .. } => telemetry.departed += 1,
                    FleetEvent::LinkSet { .. } => telemetry.link_changes += 1,
                    FleetEvent::Down { .. } | FleetEvent::Up { .. } => {}
                }
                self.fleet
                    .apply(event)
                    .unwrap_or_else(|e| panic!("invalid scenario event at round {r}: {e}"));
            }
            telemetry.available = self.fleet.active_count();
            self.last = telemetry;
            self.next_round = r + 1;
        }
    }

    /// The link `client` communicates over right now: the scenario's override
    /// when one is in force, the static `base` draw otherwise.
    pub fn link_for(&self, client: usize, base: &[Link]) -> Link {
        self.fleet.link_for(client, base)
    }

    /// Telemetry of the most recently advanced round.
    pub fn telemetry(&self) -> ScenarioTelemetry {
        self.last
    }

    /// Indices of the currently reachable clients, ascending.
    pub fn active_clients(&self) -> Vec<usize> {
        self.fleet.active_clients()
    }
}

/// Record the exact fleet-event trace a configuration's scenario will replay
/// over the first `rounds` rounds, as `bwfl-trace-v1` text.
///
/// The generator is rebuilt from the config's [`ScenarioSpec`]
/// (`config.scenario`) with the session's exact [`scenario_seed`], so a run
/// driven from the returned trace (`scenario: "trace:<file>"`) reproduces the
/// original run's fleet evolution bit for bit.
///
/// [`ScenarioSpec`]: fl_netsim::ScenarioSpec
pub fn record_scenario_trace(config: &ExperimentConfig, rounds: usize) -> Result<String, String> {
    let spec = config
        .scenario
        .as_ref()
        .ok_or_else(|| "config has no scenario to record".to_string())?;
    let inner = spec
        .build(config.num_clients, scenario_seed(config))
        .map_err(|e| format!("invalid scenario spec {spec}: {e}"))?;
    let mut recorder = RecordingScenario::new(inner, config.num_clients);
    let mut buf = Vec::new();
    for round in 0..rounds {
        buf.clear();
        recorder.events_for_round(round, &mut buf);
    }
    Ok(recorder.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::select_cohort;
    use fl_netsim::{DiurnalScenario, TraceScenario};
    use fl_tensor::rng::{Rng, Xoshiro256};

    fn diurnal(n: usize, seed: u64) -> Box<dyn Scenario> {
        Box::new(DiurnalScenario::new(n, seed, 8.0, 0.25, 0.95))
    }

    #[test]
    fn advance_is_idempotent() {
        let mut handle = ScenarioHandle::new(diurnal(16, 7), 16);
        handle.advance(3);
        let active = handle.active_clients();
        let telemetry = handle.telemetry();
        // Re-advancing the same (or an earlier) round changes nothing.
        handle.advance(3);
        handle.advance(1);
        assert_eq!(handle.active_clients(), active);
        assert_eq!(handle.telemetry(), telemetry);
    }

    #[test]
    fn advance_catches_up_skipped_rounds() {
        let mut a = ScenarioHandle::new(diurnal(16, 7), 16);
        let mut b = ScenarioHandle::new(diurnal(16, 7), 16);
        for r in 0..=5 {
            a.advance(r);
        }
        b.advance(5); // one jump applies rounds 0..=5 in order
        assert_eq!(a.active_clients(), b.active_clients());
    }

    #[test]
    fn telemetry_counts_available_after_events() {
        let mut handle = ScenarioHandle::new(diurnal(32, 3), 32);
        handle.advance(0);
        let t = handle.telemetry();
        assert_eq!(t.available, handle.active_clients().len());
        assert!(t.available <= 32);
    }

    #[test]
    fn selector_samples_only_active_clients() {
        let mut handle = ScenarioHandle::new(diurnal(32, 11), 32);
        handle.advance(4);
        let active = handle.active_clients();
        assert!(
            active.len() < 32,
            "the diurnal trough should take some down"
        );
        let mut rng = Xoshiro256::new(5);
        let picked = select_cohort(&mut rng, 32, 8, Some(active.clone()), 0.0);
        assert!(!picked.is_empty() && picked.len() <= 8);
        assert!(picked.iter().all(|c| active.contains(c)));
        let mut dedup = picked.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), picked.len());
    }

    #[test]
    fn nobody_reachable_draws_one_client_from_the_whole_fleet() {
        // min_up ≈ max_up ≈ 0 keeps the whole fleet down once the wave is
        // established; the cohort falls back to one uniformly drawn client.
        let mut handle =
            ScenarioHandle::new(Box::new(DiurnalScenario::new(8, 1, 4.0, 1e-9, 2e-9)), 8);
        handle.advance(0);
        assert!(handle.active_clients().is_empty());
        let mut rng = Xoshiro256::new(1);
        let picked = select_cohort(&mut rng, 8, 4, Some(handle.active_clients()), 0.0);
        assert_eq!(picked, vec![Xoshiro256::new(1).next_below(8)]);
    }

    #[test]
    fn recorded_trace_replays_the_generator_exactly() {
        let mut config = ExperimentConfig::quick(crate::Algorithm::TopK);
        config.num_clients = 16;
        config.scenario = Some("churn:leave=0.2,join=0.5".parse().unwrap());
        let trace = record_scenario_trace(&config, 6).unwrap();

        let mut live = config
            .scenario
            .as_ref()
            .unwrap()
            .build(16, scenario_seed(&config))
            .unwrap();
        let mut replay =
            TraceScenario::from_reader(std::io::BufReader::new(trace.as_bytes())).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for round in 0..6 {
            a.clear();
            b.clear();
            live.events_for_round(round, &mut a);
            replay.events_for_round(round, &mut b);
            assert_eq!(a, b, "round {round}");
        }
    }

    #[test]
    fn recording_requires_a_scenario() {
        let config = ExperimentConfig::quick(crate::Algorithm::TopK);
        assert!(record_scenario_trace(&config, 4).is_err());
    }

    #[test]
    fn scenario_seed_is_a_dedicated_stream() {
        let config = ExperimentConfig::quick(crate::Algorithm::TopK);
        let s = scenario_seed(&config);
        for other in [
            config.seed,
            config.seed ^ 0xD1A1,
            config.seed ^ 0xC11E,
            config.seed ^ 0x11C5,
            config.seed ^ 0xD0C0,
            config.seed ^ 0xD011,
            config.seed ^ 0x5E1E,
        ] {
            assert_ne!(s, other);
        }
    }
}
