//! The `bwfl-trace-v1` text trace format: recording, strict validation and
//! replay.
//!
//! A trace is a plain-text file:
//!
//! ```text
//! bwfl-trace-v1 clients=16
//! # comments and blank lines are skipped
//! 0 down 3
//! 0 link 5 1250000.0 0.07
//! 2 join 3 800000.0 0.12
//! 5 leave 9
//! ```
//!
//! Each event line is `<round> <verb> <args>` with rounds non-decreasing.
//! [`TraceScenario`] owns the format: it parses a whole trace when it is
//! opened, checking every line before a run starts, holds the events in a
//! `Vec` (40 bytes per event) and replays them in order through the
//! [`Scenario`] trait. Each line is a [`TimedEvent`]'s `Display` form
//! (floats via `{:?}`), so a recorded run replays bit-identically.

use super::{FleetEvent, Scenario};
use crate::link::Link;
use std::fmt;
use std::path::Path;

/// Magic first token of a trace header line.
const TRACE_MAGIC: &str = "bwfl-trace-v1";

/// A [`FleetEvent`] stamped with the round it takes effect in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedEvent {
    /// Round the event applies to (0-based).
    pub round: usize,
    /// The event itself.
    pub event: FleetEvent,
}

impl fmt::Display for TimedEvent {
    /// One trace line: `"<round> <event>"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.round, self.event)
    }
}

fn parse_client(tok: Option<&str>) -> Result<usize, String> {
    tok.ok_or_else(|| "missing client index".to_string())?
        .parse::<usize>()
        .map_err(|_| "client index is not an unsigned integer".to_string())
}

fn parse_link(bw: Option<&str>, lat: Option<&str>) -> Result<Link, String> {
    let bw: f64 = bw
        .ok_or_else(|| "missing bandwidth".to_string())?
        .parse()
        .map_err(|_| "bandwidth is not a number".to_string())?;
    let lat: f64 = lat
        .ok_or_else(|| "missing latency".to_string())?
        .parse()
        .map_err(|_| "latency is not a number".to_string())?;
    if !bw.is_finite() || bw <= 0.0 {
        return Err(format!("bandwidth must be finite and positive (got {bw})"));
    }
    if !lat.is_finite() || lat < 0.0 {
        return Err(format!(
            "latency must be finite and non-negative (got {lat})"
        ));
    }
    Ok(Link {
        bandwidth_bps: bw,
        latency_s: lat,
    })
}

impl std::str::FromStr for TimedEvent {
    type Err = String;

    /// Parse one trace line, e.g. `"2 join 3 800000.0 0.12"`. The error is a
    /// human-readable reason (wrapped into [`TraceError::Line`] with its line
    /// number by [`TraceScenario`]'s parser).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut toks = s.split_whitespace();
        let round: usize = toks
            .next()
            .ok_or_else(|| "empty event line".to_string())?
            .parse()
            .map_err(|_| "round is not an unsigned integer".to_string())?;
        let verb = toks
            .next()
            .ok_or_else(|| "missing event verb".to_string())?;
        let event = match verb {
            "down" => FleetEvent::Down {
                client: parse_client(toks.next())?,
            },
            "up" => FleetEvent::Up {
                client: parse_client(toks.next())?,
            },
            "leave" => FleetEvent::Leave {
                client: parse_client(toks.next())?,
            },
            "link" => FleetEvent::LinkSet {
                client: parse_client(toks.next())?,
                link: parse_link(toks.next(), toks.next())?,
            },
            "join" => FleetEvent::Join {
                client: parse_client(toks.next())?,
                link: parse_link(toks.next(), toks.next())?,
            },
            other => return Err(format!("unknown event verb {other:?}")),
        };
        if let Some(extra) = toks.next() {
            return Err(format!("trailing token {extra:?}"));
        }
        Ok(TimedEvent { round, event })
    }
}

/// Error reading or validating a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Underlying I/O failure (message of the `std::io::Error`).
    Io(String),
    /// The input is empty — not even a header line.
    MissingHeader,
    /// The header line is present but malformed.
    Header(String),
    /// An event line failed to parse or validate.
    Line {
        /// 1-based line number in the input.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// An event's round is smaller than a previously seen round.
    OutOfOrder {
        /// 1-based line number of the offending event.
        line: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(msg) => write!(f, "trace I/O error: {msg}"),
            TraceError::MissingHeader => {
                write!(f, "trace is empty (expected a `{TRACE_MAGIC}` header)")
            }
            TraceError::Header(msg) => write!(f, "bad trace header: {msg}"),
            TraceError::Line { line, msg } => write!(f, "trace line {line}: {msg}"),
            TraceError::OutOfOrder { line } => {
                write!(f, "trace line {line}: event rounds must be non-decreasing")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Parse a header line, `bwfl-trace-v1 clients=N`, into the fleet size.
fn parse_header(header: &str) -> Result<usize, TraceError> {
    let mut toks = header.split_whitespace();
    let magic = toks.next().unwrap_or_default();
    if magic != TRACE_MAGIC {
        return Err(TraceError::Header(format!(
            "expected `{TRACE_MAGIC}`, found {magic:?}"
        )));
    }
    let clients_tok = toks
        .next()
        .ok_or_else(|| TraceError::Header("missing `clients=N`".to_string()))?;
    let n = clients_tok
        .strip_prefix("clients=")
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| TraceError::Header(format!("bad clients token {clients_tok:?}")))?;
    if n == 0 {
        return Err(TraceError::Header(
            "fleet must have at least one client".into(),
        ));
    }
    match toks.next() {
        Some(extra) => Err(TraceError::Header(format!("trailing token {extra:?}"))),
        None => Ok(n),
    }
}

/// A whole trace, held in memory and replayed as a [`Scenario`]: the one
/// owner of the `bwfl-trace-v1` format.
///
/// `FromStr` parses and validates every line, [`Display`](fmt::Display)
/// writes the text back, and [`record`](Self::record) captures any
/// scenario's events, so a trace that opens replays to its end.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceScenario {
    num_clients: usize,
    events: Vec<TimedEvent>,
    /// Index of the first event not yet replayed.
    next: usize,
}

impl TraceScenario {
    /// Read and validate a whole trace file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        std::fs::read_to_string(path)
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?
            .parse()
    }

    /// Capture the events `scenario` emits over rounds `0..rounds` for a
    /// `num_clients` fleet.
    pub fn record(scenario: &mut dyn Scenario, num_clients: usize, rounds: usize) -> Self {
        let mut events = Vec::new();
        let mut buf = Vec::new();
        for round in 0..rounds {
            buf.clear();
            scenario.events_for_round(round, &mut buf);
            events.extend(buf.iter().map(|&event| TimedEvent { round, event }));
        }
        Self {
            num_clients,
            events,
            next: 0,
        }
    }

    /// The fleet size declared by the trace header.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Every event of the trace, in file order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }
}

impl std::str::FromStr for TraceScenario {
    type Err = TraceError;

    /// Parse trace text: the header, then every event line, checking its
    /// syntax, that rounds do not decrease and that its client is in range.
    /// Blank lines and `#` comments are skipped; errors carry 1-based line
    /// numbers.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut lines = (1..)
            .zip(text.lines().map(str::trim))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let (_, header) = lines.next().ok_or(TraceError::MissingHeader)?;
        let num_clients = parse_header(header)?;
        let mut events: Vec<TimedEvent> = Vec::new();
        for (line, l) in lines {
            let ev: TimedEvent = l.parse().map_err(|msg| TraceError::Line { line, msg })?;
            if events.last().is_some_and(|last| ev.round < last.round) {
                return Err(TraceError::OutOfOrder { line });
            }
            let client = ev.event.client();
            if client >= num_clients {
                let msg = format!("client {client} out of range for a {num_clients}-client fleet");
                return Err(TraceError::Line { line, msg });
            }
            events.push(ev);
        }
        Ok(Self {
            num_clients,
            events,
            next: 0,
        })
    }
}

impl fmt::Display for TraceScenario {
    /// The trace text: the `bwfl-trace-v1 clients=N` header, then one
    /// [`TimedEvent`] line per event.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{TRACE_MAGIC} clients={}", self.num_clients)?;
        self.events.iter().try_for_each(|ev| writeln!(f, "{ev}"))
    }
}

impl Scenario for TraceScenario {
    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>) {
        // Rounds are visited in order, so every event up to `round` is due
        // now (the driver visits every round, none is skipped over).
        let pending = &self.events[self.next..];
        let due = pending.partition_point(|ev| ev.round <= round);
        out.extend(pending[..due].iter().map(|ev| ev.event));
        self.next += due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<TraceScenario, TraceError> {
        text.parse()
    }

    #[test]
    fn parses_a_well_formed_trace() {
        let text = "bwfl-trace-v1 clients=8\n\
                    # a comment\n\
                    \n\
                    0 down 3\n\
                    0 link 5 1250000.0 0.07\n\
                    2 join 3 800000.0 0.12\n\
                    5 leave 7\n";
        let trace = parse(text).unwrap();
        assert_eq!(trace.num_clients(), 8);
        let events = trace.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].round, 0);
        assert_eq!(events[0].event, FleetEvent::Down { client: 3 });
        assert_eq!(
            events[2].event,
            FleetEvent::Join {
                client: 3,
                link: Link {
                    bandwidth_bps: 800000.0,
                    latency_s: 0.12
                }
            }
        );
    }

    #[test]
    fn timed_event_display_parse_round_trip() {
        let cases = [
            TimedEvent {
                round: 0,
                event: FleetEvent::Down { client: 3 },
            },
            TimedEvent {
                round: 17,
                event: FleetEvent::LinkSet {
                    client: 2,
                    link: Link {
                        bandwidth_bps: 123456.789,
                        latency_s: 0.012345678901234567,
                    },
                },
            },
        ];
        for ev in cases {
            let line = ev.to_string();
            let back: TimedEvent = line.parse().unwrap();
            assert_eq!(back, ev, "line {line:?}");
        }
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(parse("").unwrap_err(), TraceError::MissingHeader);
        assert!(matches!(
            parse("0 down 1\n").unwrap_err(),
            TraceError::Header(_)
        ));
    }

    #[test]
    fn rejects_bad_header_fields() {
        assert!(matches!(
            parse("bwfl-trace-v1\n").unwrap_err(),
            TraceError::Header(_)
        ));
        assert!(matches!(
            parse("bwfl-trace-v1 clients=zero\n").unwrap_err(),
            TraceError::Header(_)
        ));
        assert!(matches!(
            parse("bwfl-trace-v1 clients=0\n").unwrap_err(),
            TraceError::Header(_)
        ));
    }

    #[test]
    fn rejects_out_of_order_rounds() {
        assert_eq!(
            parse("bwfl-trace-v1 clients=4\n3 down 1\n1 up 1\n").unwrap_err(),
            TraceError::OutOfOrder { line: 3 }
        );
    }

    #[test]
    fn rejects_bad_event_lines() {
        for bad in [
            "0 explode 1",
            "0 down",
            "0 down x",
            "0 down 1 extra",
            "x down 1",
            "0 link 1 nan 0.1",
            "0 link 1 0.0 0.1",
            "0 link 1 -5.0 0.1",
            "0 join 1 1e6 -0.1",
            "0 link 1 1e6",
        ] {
            let result = parse(&format!("bwfl-trace-v1 clients=4\n{bad}\n"));
            assert!(
                matches!(result, Err(TraceError::Line { line: 2, .. })),
                "line {bad:?} should be rejected, got {result:?}"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_client() {
        assert!(matches!(
            parse("bwfl-trace-v1 clients=4\n0 down 4\n"),
            Err(TraceError::Line { line: 2, .. })
        ));
    }

    #[test]
    fn trace_scenario_buckets_events_by_round() {
        let text = "bwfl-trace-v1 clients=8\n0 down 3\n0 down 4\n2 up 3\n2 up 4\n";
        let mut s = parse(text).unwrap();
        let mut buf = Vec::new();
        s.events_for_round(0, &mut buf);
        assert_eq!(buf.len(), 2);
        buf.clear();
        s.events_for_round(1, &mut buf);
        assert!(buf.is_empty());
        s.events_for_round(2, &mut buf);
        assert_eq!(buf.len(), 2);
        buf.clear();
        s.events_for_round(3, &mut buf);
        assert!(buf.is_empty());
    }
}
