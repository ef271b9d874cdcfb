//! `fl-netsim` — the communication-time simulator used by the paper's
//! evaluation.
//!
//! The paper models the uplink of every client with the classic latency +
//! bandwidth cost model of Thakur et al. (`T = L + V / B`, Eq. 4), doubles
//! the payload for sparse transfers (`2 × V × CR`, Alg. 2 — an index and a
//! value per retained coordinate) and draws each client's bandwidth from
//! `N(1 Mbit/s, 0.2)` and latency from `U(50 ms, 200 ms]` (Section 5.2).
//!
//! * [`link::Link`] / [`link::LinkGenerator`] — per-client network parameters;
//! * [`cost::CommModel`] — the uplink/downlink time model;
//! * [`metrics::RoundTiming`] / [`metrics::TimeAccumulator`] — the paper's
//!   Actual / Maximum / Minimum time metrics (Section 5.2) accumulated over
//!   rounds;
//! * [`timeline`] — per-client round timelines (waiting vs. transmitting),
//!   the data behind Fig. 1;
//! * [`breakdown::RoundBreakdown`] — compress / train / communicate time
//!   split of Fig. 6;
//! * [`scenario`] — trace-driven fleet dynamics (diurnal participation,
//!   churn, tiered links, correlated dropout) layered on top of the static
//!   link draw.

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod cost;
pub mod link;
pub mod metrics;
pub mod scenario;
pub mod timeline;

pub use breakdown::RoundBreakdown;
pub use cost::{CommModel, CostBasis, SATURATED_TRANSFER_S};
pub use link::{Link, LinkGenerator};
pub use metrics::{RoundTiming, TimeAccumulator};
pub use scenario::{
    ChurnScenario, CorrelatedDropoutScenario, DiurnalScenario, FleetError, FleetEvent, FleetState,
    RecordingScenario, Scenario, ScenarioError, ScenarioSpec, ScenarioTelemetry, TierClass,
    TieredScenario, TimedEvent, TraceError, TraceReader, TraceScenario,
};
pub use timeline::{ClientTimeline, RoundTimeline};
