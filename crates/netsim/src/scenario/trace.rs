//! The `bwfl-trace-v1` text trace format: recording, streaming replay and
//! strict validation.
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
//! Each event line is `<round> <verb> <args>` with rounds non-decreasing, so
//! a replay never needs to look ahead more than one line: [`TraceReader`]
//! streams events from any [`BufRead`] without loading the file, and
//! [`TraceScenario`] adapts that stream to the [`Scenario`] trait with a
//! single-event peek buffer. Each line is a [`TimedEvent`]'s `Display` form
//! (floats via `{:?}`), so a recorded run replays bit-identically.

use super::{FleetEvent, Scenario};
use crate::link::Link;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Magic first token of a trace header line.
pub const TRACE_MAGIC: &str = "bwfl-trace-v1";

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
    /// number by [`TraceReader`]).
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

/// Streaming trace parser: pulls one line at a time from a [`BufRead`],
/// validating order and client range as it goes, so arbitrarily long traces
/// replay in constant memory.
///
/// Iteration yields `Result<TimedEvent, TraceError>`; after the first error
/// the iterator is fused to `None`.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    input: R,
    num_clients: usize,
    line_no: usize,
    last_round: usize,
    failed: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Wrap a reader, consuming and validating the header line.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut reader = Self {
            input,
            num_clients: 0,
            line_no: 0,
            last_round: 0,
            failed: false,
        };
        let header = match reader.next_content_line()? {
            None => return Err(TraceError::MissingHeader),
            Some(line) => line,
        };
        let mut toks = header.split_whitespace();
        match toks.next() {
            Some(TRACE_MAGIC) => {}
            Some(other) => {
                return Err(TraceError::Header(format!(
                    "expected `{TRACE_MAGIC}`, found {other:?}"
                )))
            }
            None => return Err(TraceError::MissingHeader),
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
        if let Some(extra) = toks.next() {
            return Err(TraceError::Header(format!("trailing token {extra:?}")));
        }
        reader.num_clients = n;
        Ok(reader)
    }

    /// The fleet size declared by the trace header.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Next non-blank, non-comment line, or `None` at EOF.
    fn next_content_line(&mut self) -> Result<Option<String>, TraceError> {
        loop {
            let mut buf = String::new();
            let n = self
                .input
                .read_line(&mut buf)
                .map_err(|e| TraceError::Io(e.to_string()))?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = buf.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Ok(Some(trimmed.to_string()));
        }
    }

    fn next_event(&mut self) -> Result<Option<TimedEvent>, TraceError> {
        let line = match self.next_content_line()? {
            None => return Ok(None),
            Some(l) => l,
        };
        let ev: TimedEvent = line.parse().map_err(|msg| TraceError::Line {
            line: self.line_no,
            msg,
        })?;
        if ev.round < self.last_round {
            return Err(TraceError::OutOfOrder { line: self.line_no });
        }
        self.last_round = ev.round;
        if ev.event.client() >= self.num_clients {
            return Err(TraceError::Line {
                line: self.line_no,
                msg: format!(
                    "client {} out of range for a {}-client fleet",
                    ev.event.client(),
                    self.num_clients
                ),
            });
        }
        Ok(Some(ev))
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TimedEvent, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_event() {
            Ok(Some(ev)) => Some(Ok(ev)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// Replays a recorded trace as a [`Scenario`], streaming events round by
/// round with a one-event peek buffer (the reader never rewinds, the whole
/// trace is never resident).
///
/// Construction validates the header eagerly; a corrupt line *mid-replay*
/// panics — by then the session is running and silently dropping tail events
/// would diverge from the recorded run.
pub struct TraceScenario<R: BufRead> {
    reader: TraceReader<R>,
    pending: Option<TimedEvent>,
}

impl TraceScenario<BufReader<File>> {
    /// Open a trace file for streaming replay.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let file = File::open(path.as_ref())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_reader(BufReader::new(file))
    }
}

impl<R: BufRead> TraceScenario<R> {
    /// Wrap any buffered reader holding trace text.
    pub fn from_reader(input: R) -> Result<Self, TraceError> {
        Ok(Self {
            reader: TraceReader::new(input)?,
            pending: None,
        })
    }

    /// The fleet size declared by the trace header.
    pub fn num_clients(&self) -> usize {
        self.reader.num_clients()
    }

    fn pull(&mut self) -> Option<TimedEvent> {
        if let Some(ev) = self.pending.take() {
            return Some(ev);
        }
        match self.reader.next() {
            None => None,
            Some(Ok(ev)) => Some(ev),
            Some(Err(e)) => panic!("corrupt scenario trace: {e}"),
        }
    }
}

impl<R: BufRead + Send> Scenario for TraceScenario<R> {
    fn events_for_round(&mut self, round: usize, out: &mut Vec<FleetEvent>) {
        while let Some(ev) = self.pull() {
            if ev.round > round {
                self.pending = Some(ev);
                return;
            }
            // Rounds are visited in order, so `ev.round <= round` means the
            // event is due now (events for skipped-over rounds cannot exist:
            // the driver visits every round).
            out.push(ev.event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> Result<TraceReader<Cursor<&[u8]>>, TraceError> {
        TraceReader::new(Cursor::new(text.as_bytes()))
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
        let r = reader(text).unwrap();
        assert_eq!(r.num_clients(), 8);
        let events: Vec<TimedEvent> = r.map(|e| e.unwrap()).collect();
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
        assert_eq!(reader("").unwrap_err(), TraceError::MissingHeader);
        assert!(matches!(
            reader("0 down 1\n").unwrap_err(),
            TraceError::Header(_)
        ));
    }

    #[test]
    fn rejects_bad_header_fields() {
        assert!(matches!(
            reader("bwfl-trace-v1\n").unwrap_err(),
            TraceError::Header(_)
        ));
        assert!(matches!(
            reader("bwfl-trace-v1 clients=zero\n").unwrap_err(),
            TraceError::Header(_)
        ));
        assert!(matches!(
            reader("bwfl-trace-v1 clients=0\n").unwrap_err(),
            TraceError::Header(_)
        ));
    }

    #[test]
    fn rejects_out_of_order_rounds() {
        let r = reader("bwfl-trace-v1 clients=4\n3 down 1\n1 up 1\n").unwrap();
        let results: Vec<_> = r.collect();
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(TraceError::OutOfOrder { line: 3 }));
        assert_eq!(results.len(), 2, "iterator fuses after the first error");
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
            let text = format!("bwfl-trace-v1 clients=4\n{bad}\n");
            let r = reader(&text).unwrap();
            let results: Vec<_> = r.collect();
            assert!(
                matches!(results[0], Err(TraceError::Line { .. })),
                "line {bad:?} should be rejected, got {:?}",
                results[0]
            );
        }
    }

    #[test]
    fn rejects_out_of_range_client() {
        let r = reader("bwfl-trace-v1 clients=4\n0 down 4\n").unwrap();
        let results: Vec<_> = r.collect();
        assert!(matches!(results[0], Err(TraceError::Line { line: 2, .. })));
    }

    #[test]
    fn trace_scenario_buckets_events_by_round() {
        let text = "bwfl-trace-v1 clients=8\n0 down 3\n0 down 4\n2 up 3\n2 up 4\n";
        let mut s = TraceScenario::from_reader(Cursor::new(text.as_bytes())).unwrap();
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
