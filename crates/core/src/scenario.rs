//! Scenario plumbing between the configuration and the fleet driver.
//!
//! A session's fleet dynamics run in one [`fl_netsim::FleetState`], built
//! from [`ExperimentConfig::scenario`] and advanced exactly once per round
//! by the round engine, which draws each cohort from its reachable clients
//! (see [`crate::policy::select_cohort`]) and prices transfers over its
//! link overrides. This module holds what the configuration adds on top:
//!
//! * [`scenario_seed`] — the dedicated seed stream of every scenario;
//! * [`record_scenario_trace`] — the trace-capture helper used to replay a
//!   run's exact fleet evolution from a text file.

use crate::config::ExperimentConfig;
use fl_netsim::{Scenario, ScenarioSpec, TraceScenario};

/// The dedicated seed stream for scenario randomness: `config.seed ^ 0x5CE0`.
///
/// Scenario generators never touch the partition, roster, link, downlink or
/// selection streams, so `scenario: None` runs are bit-identical to builds
/// that predate the scenario engine.
pub fn scenario_seed(config: &ExperimentConfig) -> u64 {
    config.seed ^ 0x5CE0
}

/// Build `spec`'s generator over `config`'s fleet size, [`scenario_seed`]
/// and link generator: the one place a session's scenario is built.
pub(crate) fn build_scenario(
    config: &ExperimentConfig,
    spec: &ScenarioSpec,
) -> Result<Box<dyn Scenario>, String> {
    spec.build(config.num_clients, scenario_seed(config), &config.links)
        .map_err(|e| format!("invalid scenario spec {spec}: {e}"))
}

/// Record the exact fleet-event trace a configuration's scenario will replay
/// over the first `rounds` rounds, as `bwfl-trace-v1` text (the
/// [`TraceScenario`] form).
///
/// The generator is rebuilt from the config's [`ScenarioSpec`]
/// (`config.scenario`) with the session's exact [`scenario_seed`] and link
/// generator, so a run driven from the returned trace
/// (`scenario: "trace:<file>"`) reproduces the original run's fleet
/// evolution bit for bit.
pub fn record_scenario_trace(config: &ExperimentConfig, rounds: usize) -> Result<String, String> {
    let spec = config
        .scenario
        .as_ref()
        .ok_or_else(|| "config has no scenario to record".to_string())?;
    let mut scenario = build_scenario(config, spec)?;
    Ok(TraceScenario::record(scenario.as_mut(), config.num_clients, rounds).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::select_cohort;
    use fl_netsim::{DiurnalScenario, FleetEvent, FleetState, LinkGenerator};
    use fl_tensor::rng::{Rng, Xoshiro256};

    #[test]
    fn selector_samples_only_active_clients() {
        let mut fleet =
            FleetState::new(Box::new(DiurnalScenario::new(32, 11, 8.0, 0.25, 0.95)), 32);
        fleet.advance(4);
        let active = fleet.active_clients();
        assert!(
            active.len() < 32,
            "the diurnal trough should take some down"
        );
        let mut rng = Xoshiro256::new(5);
        let picked = select_cohort(&mut rng, 32, 8, Some(active.clone()));
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
        let mut fleet = FleetState::new(Box::new(DiurnalScenario::new(8, 1, 4.0, 1e-9, 2e-9)), 8);
        fleet.advance(0);
        assert!(fleet.active_clients().is_empty());
        let mut rng = Xoshiro256::new(1);
        let picked = select_cohort(&mut rng, 8, 4, Some(fleet.active_clients()));
        assert_eq!(picked, vec![Xoshiro256::new(1).next_below(8)]);
    }

    #[test]
    fn recording_then_replaying_reproduces_events() {
        // Tiered links carry arbitrary floats, rounds with no events leave
        // gaps: the text must still replay event for event.
        let mut config = ExperimentConfig::quick(crate::Algorithm::TopK);
        config.num_clients = 4;
        config.scenario = Some("tiered:resample=0.25".parse().unwrap());
        let trace = record_scenario_trace(&config, 5).unwrap();
        assert!(trace.starts_with("bwfl-trace-v1 clients=4\n"), "{trace}");

        let mut live = config
            .scenario
            .as_ref()
            .unwrap()
            .build(4, scenario_seed(&config), &config.links)
            .unwrap();
        let mut replay: TraceScenario = trace.parse().unwrap();
        assert_eq!(replay.num_clients(), 4);
        let mut events = 0;
        for round in 0..5 {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            live.events_for_round(round, &mut a);
            replay.events_for_round(round, &mut b);
            assert_eq!(a, b, "round {round} (trace:\n{trace})");
            events += a.len();
        }
        assert_eq!(trace.lines().count(), 1 + events, "one line per event");
    }

    #[test]
    fn churn_rejoins_draw_from_the_configured_links() {
        let mut config = ExperimentConfig::quick(crate::Algorithm::TopK);
        config.links = LinkGenerator {
            bandwidth_mean_mbps: 100.0,
            ..LinkGenerator::paper_default()
        };
        config.scenario = Some("churn:leave=0.3,join=0.8".parse().unwrap());
        let trace = record_scenario_trace(&config, 12).unwrap();
        let floor = config.links.floor_mbps();
        let rejoins: Vec<f64> = trace
            .parse::<TraceScenario>()
            .unwrap()
            .events()
            .iter()
            .filter_map(|ev| match ev.event {
                FleetEvent::Join { link, .. } => Some(link.bandwidth_mbps()),
                _ => None,
            })
            .collect();
        assert!(
            !rejoins.is_empty(),
            "join=0.8 over 12 rounds re-joins someone"
        );
        assert!(
            rejoins.iter().all(|&mbps| mbps >= floor),
            "re-join links {rejoins:?} below the {floor} Mbit/s floor"
        );
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
            .build(16, scenario_seed(&config), &config.links)
            .unwrap();
        let mut replay: TraceScenario = trace.parse().unwrap();
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
