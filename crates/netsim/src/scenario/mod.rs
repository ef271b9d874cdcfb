//! Trace-driven fleet scenarios: dynamic availability, churn and link
//! quality over the lifetime of an experiment.
//!
//! The static simulator draws one [`Link`] per client up front and keeps
//! every client reachable. Real federated fleets do not
//! behave like that: participation follows diurnal waves, devices join and
//! leave mid-experiment, link quality jitters and is tiered
//! (cellular/wifi/datacenter), and outages are *correlated* — a shared tower
//! takes its whole neighbourhood down at once. This module models all of
//! that as a stream of per-round [`FleetEvent`]s produced by a [`Scenario`]:
//!
//! ```text
//! Scenario (generator or trace file)
//!     │  events_for_round(r, &mut buf)        — streaming, O(events/round)
//!     ▼
//! FleetEvent  { Down | Up | LinkSet | Join | Leave }
//!     │  FleetState::advance(r)               — once per round, O(deviations) state
//!     ▼
//! FleetState  { scenario, down set, departed set, link overrides, telemetry }
//!     │  active_clients / link_for / telemetry
//!     ▼
//! round engine: client selection + per-round CommModel pricing
//! ```
//!
//! Scenarios are deterministic functions of their constructor inputs: the same
//! inputs replay the same event stream forever, and a recorded trace (see
//! [`trace`]) replays bit-identically through [`TraceScenario`].
//!
//! * [`Scenario`] — the event-source trait; [`FleetEvent`] its vocabulary;
//! * [`FleetState`] — the one fleet driver: it owns the scenario, advances
//!   it exactly once per round and is the fleet view the round engine
//!   queries;
//! * [`generators`] — built-in diurnal / churn / tiered / correlated-dropout
//!   sources;
//! * [`trace`] — the `bwfl-trace-v1` text format, parsed whole and replayed;
//! * [`spec`] — the `name[:k=v,...]` string form used by experiment configs
//!   and CLI flags.

use crate::link::Link;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub mod generators;
pub mod spec;
pub mod trace;

pub use generators::{ChurnScenario, CorrelatedDropoutScenario, DiurnalScenario, TieredScenario};
pub use spec::{ScenarioError, ScenarioSpec};
pub use trace::{TimedEvent, TraceError, TraceScenario};

/// One mutation of the fleet, effective at the round it is emitted for.
///
/// Events speak in deltas, not snapshots: a round with no events means the
/// fleet is exactly as it was. `Down`/`Up` toggle temporary unavailability
/// (device asleep, tower outage); `Join`/`Leave` are churn — a departed
/// client holds no link override and cannot come back except via `Join`;
/// `LinkSet` rebinds a client's link (tier move, jitter resample).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FleetEvent {
    /// Client becomes unavailable (stays enrolled).
    Down {
        /// Index of the affected client.
        client: usize,
    },
    /// Client becomes available again.
    Up {
        /// Index of the affected client.
        client: usize,
    },
    /// Client's link changes to `link` from this round on.
    LinkSet {
        /// Index of the affected client.
        client: usize,
        /// The new link parameters.
        link: Link,
    },
    /// Client (re-)enrols with a fresh link, clearing any down/departed
    /// state it held.
    Join {
        /// Index of the joining client.
        client: usize,
        /// The link the client joins with.
        link: Link,
    },
    /// Client de-enrols; it is unavailable until a future `Join`.
    Leave {
        /// Index of the leaving client.
        client: usize,
    },
}

impl FleetEvent {
    /// The client index the event concerns.
    pub fn client(&self) -> usize {
        match *self {
            FleetEvent::Down { client }
            | FleetEvent::Up { client }
            | FleetEvent::LinkSet { client, .. }
            | FleetEvent::Join { client, .. }
            | FleetEvent::Leave { client } => client,
        }
    }
}

impl fmt::Display for FleetEvent {
    /// The event's trace-line form (sans round number): `down 3`, `up 3`,
    /// `link 3 1250000.0 0.07`, `join 3 1250000.0 0.07`, `leave 3`. Floats
    /// print via `{:?}` so parsing them back is exact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetEvent::Down { client } => write!(f, "down {client}"),
            FleetEvent::Up { client } => write!(f, "up {client}"),
            FleetEvent::LinkSet { client, link } => {
                write!(
                    f,
                    "link {client} {:?} {:?}",
                    link.bandwidth_bps, link.latency_s
                )
            }
            FleetEvent::Join { client, link } => {
                write!(
                    f,
                    "join {client} {:?} {:?}",
                    link.bandwidth_bps, link.latency_s
                )
            }
            FleetEvent::Leave { client } => write!(f, "leave {client}"),
        }
    }
}

/// A deterministic source of per-round fleet events.
///
/// The driver visits rounds in order, exactly once each, starting at 0;
/// implementations may therefore replay a trace front to back or advance
/// internal RNG state without rewind support. Events are appended to `out` (which the
/// caller clears) in a deterministic order — fleet evolution must be a pure
/// function of the constructor inputs.
pub trait Scenario: Send {
    /// Append the events effective at `round` to `out`.
    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>);
}

/// The fleet as of the last advanced round: the scenario driving it, which
/// clients are reachable, which links deviate from the static base draw,
/// and that round's telemetry.
///
/// State is O(deviations) — a fleet of a million clients where a thousand
/// are down stores a thousand set entries, not a million flags. Iteration
/// everywhere uses `BTree` collections so the order (and therefore every
/// downstream RNG consumption) is deterministic.
pub struct FleetState {
    scenario: Box<dyn Scenario>,
    num_clients: usize,
    down: BTreeSet<usize>,
    departed: BTreeSet<usize>,
    overrides: BTreeMap<usize, Link>,
    buf: Vec<FleetEvent>,
    next_round: usize,
    last: ScenarioTelemetry,
}

impl FleetState {
    /// A fully-up fleet of `num_clients` clients with no link overrides,
    /// driven by `scenario` from round 0.
    pub fn new(scenario: Box<dyn Scenario>, num_clients: usize) -> Self {
        Self {
            scenario,
            num_clients,
            down: BTreeSet::new(),
            departed: BTreeSet::new(),
            overrides: BTreeMap::new(),
            buf: Vec::new(),
            next_round: 0,
            last: ScenarioTelemetry {
                available: num_clients,
                ..ScenarioTelemetry::default()
            },
        }
    }

    /// Fleet size (fixed index space; churn toggles membership within it).
    pub fn num_clients(&self) -> usize {
        self.num_clients
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
            let mut buf = std::mem::take(&mut self.buf);
            buf.clear();
            self.scenario.events_for_round(r, &mut buf);
            let mut telemetry = ScenarioTelemetry::default();
            for event in &buf {
                match event {
                    FleetEvent::Join { .. } => telemetry.joined += 1,
                    FleetEvent::Leave { .. } => telemetry.departed += 1,
                    FleetEvent::LinkSet { .. } => telemetry.link_changes += 1,
                    FleetEvent::Down { .. } | FleetEvent::Up { .. } => {}
                }
                self.apply(event);
            }
            self.buf = buf;
            telemetry.available = self.active_count();
            self.last = telemetry;
            self.next_round = r + 1;
        }
    }

    /// Apply one event, mutating the state.
    fn apply(&mut self, event: &FleetEvent) {
        let client = event.client();
        assert!(
            client < self.num_clients,
            "invalid scenario event: client {client} but the fleet has {} clients",
            self.num_clients
        );
        match event {
            FleetEvent::Down { client } => {
                self.down.insert(*client);
            }
            FleetEvent::Up { client } => {
                self.down.remove(client);
            }
            FleetEvent::LinkSet { client, link } => {
                self.overrides.insert(*client, *link);
            }
            FleetEvent::Join { client, link } => {
                self.departed.remove(client);
                self.down.remove(client);
                self.overrides.insert(*client, *link);
            }
            FleetEvent::Leave { client } => {
                self.departed.insert(*client);
                self.overrides.remove(client);
            }
        }
    }

    /// Telemetry of the most recently advanced round.
    pub fn telemetry(&self) -> ScenarioTelemetry {
        self.last
    }

    /// Is `client` currently reachable (enrolled and up)?
    pub fn is_active(&self, client: usize) -> bool {
        client < self.num_clients
            && !self.down.contains(&client)
            && !self.departed.contains(&client)
    }

    /// Indices of all currently reachable clients, ascending.
    pub fn active_clients(&self) -> Vec<usize> {
        (0..self.num_clients)
            .filter(|&c| self.is_active(c))
            .collect()
    }

    /// Number of currently reachable clients.
    pub fn active_count(&self) -> usize {
        let unavailable = self.down.union(&self.departed).count();
        self.num_clients - unavailable
    }

    /// The link `client` communicates over right now: its scenario override
    /// if one is set, else its entry in the static `base` draw.
    pub fn link_for(&self, client: usize, base: &[Link]) -> Link {
        self.overrides.get(&client).copied().unwrap_or(base[client])
    }
}

/// Per-round participation/churn counters derived from a round's events,
/// surfaced as `RoundRecord` telemetry columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScenarioTelemetry {
    /// Reachable clients after this round's events: the pool the cohort
    /// is drawn from.
    pub available: usize,
    /// `Join` events this round.
    pub joined: usize,
    /// `Leave` events this round.
    pub departed: usize,
    /// `LinkSet` events this round (link quality churn).
    pub link_changes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scenario that never emits: the tests below drive `apply` by hand.
    struct Quiet;

    impl Scenario for Quiet {
        fn events_for_round(&mut self, _round: usize, _out: &mut Vec<FleetEvent>) {}
    }

    fn quiet(num_clients: usize) -> FleetState {
        FleetState::new(Box::new(Quiet), num_clients)
    }

    fn diurnal(n: usize, seed: u64) -> FleetState {
        FleetState::new(Box::new(DiurnalScenario::new(n, seed, 8.0, 0.25, 0.95)), n)
    }

    fn link(mbps: f64) -> Link {
        Link::from_mbps_ms(mbps, 50.0)
    }

    #[test]
    fn fresh_fleet_is_fully_active() {
        let s = quiet(5);
        assert_eq!(s.active_count(), 5);
        assert_eq!(s.active_clients(), vec![0, 1, 2, 3, 4]);
        assert!(s.is_active(4));
        assert!(!s.is_active(5));
        assert_eq!(s.telemetry().available, 5);
    }

    #[test]
    fn down_up_round_trip() {
        let mut s = quiet(4);
        s.apply(&FleetEvent::Down { client: 2 });
        assert!(!s.is_active(2));
        assert_eq!(s.active_count(), 3);
        s.apply(&FleetEvent::Up { client: 2 });
        assert!(s.is_active(2));
        assert_eq!(s.active_count(), 4);
    }

    #[test]
    fn leave_then_join_resets_everything() {
        let mut s = quiet(4);
        let base = vec![link(1.0); 4];
        s.apply(&FleetEvent::LinkSet {
            client: 1,
            link: link(9.0),
        });
        s.apply(&FleetEvent::Down { client: 1 });
        s.apply(&FleetEvent::Leave { client: 1 });
        assert!(!s.is_active(1));
        // Leaving discards the override: a future naive query sees base.
        assert_eq!(s.link_for(1, &base), link(1.0));
        s.apply(&FleetEvent::Join {
            client: 1,
            link: link(3.0),
        });
        assert!(s.is_active(1), "join clears both departed and down");
        assert_eq!(s.link_for(1, &base), link(3.0));
    }

    #[test]
    fn down_and_departed_overlap_counts_once() {
        let mut s = quiet(3);
        s.apply(&FleetEvent::Down { client: 0 });
        s.apply(&FleetEvent::Leave { client: 0 });
        assert_eq!(s.active_count(), 2, "one client, one unavailability");
    }

    #[test]
    #[should_panic(expected = "client 3 but the fleet has 3 clients")]
    fn out_of_range_rejected() {
        quiet(3).apply(&FleetEvent::Down { client: 3 });
    }

    #[test]
    fn advance_is_idempotent() {
        let mut fleet = diurnal(16, 7);
        fleet.advance(3);
        let active = fleet.active_clients();
        let telemetry = fleet.telemetry();
        // Re-advancing the same (or an earlier) round changes nothing.
        fleet.advance(3);
        fleet.advance(1);
        assert_eq!(fleet.active_clients(), active);
        assert_eq!(fleet.telemetry(), telemetry);
    }

    #[test]
    fn advance_catches_up_skipped_rounds() {
        let mut a = diurnal(16, 7);
        let mut b = diurnal(16, 7);
        for r in 0..=5 {
            a.advance(r);
        }
        b.advance(5); // one jump applies rounds 0..=5 in order
        assert_eq!(a.active_clients(), b.active_clients());
    }

    #[test]
    fn telemetry_counts_available_after_events() {
        let mut fleet = diurnal(32, 3);
        fleet.advance(0);
        let t = fleet.telemetry();
        assert_eq!(t.available, fleet.active_clients().len());
        assert!(t.available <= 32);
    }

    #[test]
    fn event_display_forms() {
        assert_eq!(FleetEvent::Down { client: 3 }.to_string(), "down 3");
        assert_eq!(FleetEvent::Up { client: 0 }.to_string(), "up 0");
        assert_eq!(FleetEvent::Leave { client: 7 }.to_string(), "leave 7");
        let e = FleetEvent::LinkSet {
            client: 2,
            link: Link {
                bandwidth_bps: 1_250_000.0,
                latency_s: 0.07,
            },
        };
        assert_eq!(e.to_string(), "link 2 1250000.0 0.07");
    }
}
