//! Trace-driven fleet scenarios: dynamic availability, churn and link
//! quality over the lifetime of an experiment.
//!
//! The static simulator draws one [`Link`] per client up front
//! and flips one i.i.d. dropout coin per round. Real federated fleets do not
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
//!     │  FleetState::apply                    — O(deviations) state
//!     ▼
//! FleetState  { down set, departed set, link overrides }
//!     │  is_active / link_for
//!     ▼
//! round engine: client selection + per-round CommModel pricing
//! ```
//!
//! Scenarios are deterministic functions of `(num_clients, seed)`: the same
//! inputs replay the same event stream forever, and a recorded trace (see
//! [`trace`]) replays bit-identically through [`TraceScenario`].
//!
//! * [`Scenario`] — the event-source trait; [`FleetEvent`] its vocabulary;
//! * [`FleetState`] — the materialised fleet view the round engine queries;
//! * [`generators`] — built-in diurnal / churn / tiered / correlated-dropout
//!   sources;
//! * [`trace`] — the `bwfl-trace-v1` text format, streaming reader and
//!   recording wrapper;
//! * [`spec`] — the `name[:k=v,...]` string form used by experiment configs
//!   and CLI flags.

use crate::link::Link;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub mod generators;
pub mod spec;
pub mod trace;

pub use generators::{
    ChurnScenario, CorrelatedDropoutScenario, DiurnalScenario, TierClass, TieredScenario,
};
pub use spec::{ScenarioError, ScenarioSpec};
pub use trace::{RecordingScenario, TimedEvent, TraceError, TraceReader, TraceScenario};

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
/// implementations may therefore stream from a file or advance internal RNG
/// state without rewind support. Events are appended to `out` (which the
/// caller clears) in a deterministic order — fleet evolution must be a pure
/// function of the constructor inputs.
pub trait Scenario: Send {
    /// Short stable identifier (used in logs and telemetry).
    fn name(&self) -> &'static str;

    /// Append the events effective at `round` to `out`.
    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>);
}

impl Scenario for Box<dyn Scenario> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>) {
        (**self).events_for_round(round, out)
    }
}

/// Error applying a [`FleetEvent`] to a [`FleetState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetError {
    /// The event names a client index `>= num_clients`.
    ClientOutOfRange {
        /// The offending client index.
        client: usize,
        /// The fleet size the index must stay below.
        num_clients: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::ClientOutOfRange {
                client,
                num_clients,
            } => write!(
                f,
                "event targets client {client} but the fleet has {num_clients} clients"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// The materialised fleet view: which clients are reachable right now and
/// which links deviate from the static base draw.
///
/// State is O(deviations) — a fleet of a million clients where a thousand
/// are down stores a thousand set entries, not a million flags. Iteration
/// everywhere uses `BTree` collections so the order (and therefore every
/// downstream RNG consumption) is deterministic.
#[derive(Clone, Debug)]
pub struct FleetState {
    num_clients: usize,
    down: BTreeSet<usize>,
    departed: BTreeSet<usize>,
    overrides: BTreeMap<usize, Link>,
}

impl FleetState {
    /// A fully-up fleet of `num_clients` clients with no link overrides.
    pub fn new(num_clients: usize) -> Self {
        Self {
            num_clients,
            down: BTreeSet::new(),
            departed: BTreeSet::new(),
            overrides: BTreeMap::new(),
        }
    }

    /// Fleet size (fixed index space; churn toggles membership within it).
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Apply one event, mutating the state.
    pub fn apply(&mut self, event: &FleetEvent) -> Result<(), FleetError> {
        let client = event.client();
        if client >= self.num_clients {
            return Err(FleetError::ClientOutOfRange {
                client,
                num_clients: self.num_clients,
            });
        }
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
        Ok(())
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
    /// Reachable clients after this round's events (before any i.i.d.
    /// dropout the selector may add on top).
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

    fn link(mbps: f64) -> Link {
        Link::from_mbps_ms(mbps, 50.0)
    }

    #[test]
    fn fresh_fleet_is_fully_active() {
        let s = FleetState::new(5);
        assert_eq!(s.active_count(), 5);
        assert_eq!(s.active_clients(), vec![0, 1, 2, 3, 4]);
        assert!(s.is_active(4));
        assert!(!s.is_active(5));
    }

    #[test]
    fn down_up_round_trip() {
        let mut s = FleetState::new(4);
        s.apply(&FleetEvent::Down { client: 2 }).unwrap();
        assert!(!s.is_active(2));
        assert_eq!(s.active_count(), 3);
        s.apply(&FleetEvent::Up { client: 2 }).unwrap();
        assert!(s.is_active(2));
        assert_eq!(s.active_count(), 4);
    }

    #[test]
    fn leave_then_join_resets_everything() {
        let mut s = FleetState::new(4);
        let base = vec![link(1.0); 4];
        s.apply(&FleetEvent::LinkSet {
            client: 1,
            link: link(9.0),
        })
        .unwrap();
        s.apply(&FleetEvent::Down { client: 1 }).unwrap();
        s.apply(&FleetEvent::Leave { client: 1 }).unwrap();
        assert!(!s.is_active(1));
        // Leaving discards the override: a future naive query sees base.
        assert_eq!(s.link_for(1, &base), link(1.0));
        s.apply(&FleetEvent::Join {
            client: 1,
            link: link(3.0),
        })
        .unwrap();
        assert!(s.is_active(1), "join clears both departed and down");
        assert_eq!(s.link_for(1, &base), link(3.0));
    }

    #[test]
    fn down_and_departed_overlap_counts_once() {
        let mut s = FleetState::new(3);
        s.apply(&FleetEvent::Down { client: 0 }).unwrap();
        s.apply(&FleetEvent::Leave { client: 0 }).unwrap();
        assert_eq!(s.active_count(), 2, "one client, one unavailability");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = FleetState::new(3);
        let err = s.apply(&FleetEvent::Down { client: 3 }).unwrap_err();
        assert_eq!(
            err,
            FleetError::ClientOutOfRange {
                client: 3,
                num_clients: 3
            }
        );
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
