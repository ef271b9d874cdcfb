//! String-form scenario specifications: `name[:key=value,...]`.
//!
//! Mirrors the compressor-spec grammar style: a compact text form that
//! `ExperimentConfig`, sweep axes and the `--scenario` CLI flag all share.
//! Examples:
//!
//! ```text
//! diurnal                                  — all defaults
//! diurnal:period=8,min_up=0.25             — partial override
//! churn:leave=0.08,join=0.3
//! tiered:resample=0.2,sigma=0.25
//! towers:groups=4,outage=0.25,repair=0.5
//! trace:runs/fleet.trace                   — replay a recorded trace file
//! ```
//!
//! `Display` prints the canonical fully-parameterised form (floats via
//! `{:?}`), so `parse(display(spec)) == spec` exactly.

use super::generators::{
    ChurnScenario, CorrelatedDropoutScenario, DiurnalScenario, TieredScenario,
};
use super::trace::{TraceError, TraceScenario};
use super::Scenario;
use crate::link::LinkGenerator;
use std::fmt;
use std::str::FromStr;

/// Error parsing, validating or building a [`ScenarioSpec`].
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The string form is malformed (unknown name, bad `k=v` syntax).
    Parse(String),
    /// A parameter failed to parse or is out of range.
    BadParam {
        /// The parameter key.
        key: String,
        /// Why its value was rejected.
        reason: String,
    },
    /// The parsed spec is semantically invalid.
    Invalid(String),
    /// Opening or validating a trace file failed.
    Trace(TraceError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(msg) => write!(f, "cannot parse scenario spec: {msg}"),
            ScenarioError::BadParam { key, reason } => {
                write!(f, "bad scenario parameter `{key}`: {reason}")
            }
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Trace(e) => write!(f, "scenario trace: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A parsed, validated-on-demand scenario description — the form experiment
/// configs store and sweep axes enumerate. [`build`](Self::build) turns it
/// into a live [`Scenario`] for one session.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioSpec {
    /// Diurnal sine-wave participation
    /// ([`DiurnalScenario`]).
    Diurnal {
        /// Rounds per full day/night cycle.
        period: f64,
        /// Trough participation fraction.
        min_up: f64,
        /// Peak participation fraction.
        max_up: f64,
    },
    /// Poisson join/leave churn ([`ChurnScenario`]).
    Churn {
        /// Per-capita per-round departure probability.
        leave: f64,
        /// Per-capita per-round re-join probability.
        join: f64,
    },
    /// Tiered link classes with lognormal jitter ([`TieredScenario`]).
    Tiered {
        /// Fraction of the fleet whose link is resampled each round.
        resample: f64,
        /// Lognormal jitter shape.
        sigma: f64,
    },
    /// Correlated shared-tower dropout ([`CorrelatedDropoutScenario`]).
    Towers {
        /// Number of tower groups.
        groups: usize,
        /// Per-round tower outage probability.
        outage: f64,
        /// Per-round tower repair probability.
        repair: f64,
    },
    /// Replay a recorded `bwfl-trace-v1` file ([`TraceScenario`]).
    Trace {
        /// Path to the trace file.
        path: String,
    },
}

impl ScenarioSpec {
    /// Short stable name of the scenario family.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioSpec::Diurnal { .. } => "diurnal",
            ScenarioSpec::Churn { .. } => "churn",
            ScenarioSpec::Tiered { .. } => "tiered",
            ScenarioSpec::Towers { .. } => "towers",
            ScenarioSpec::Trace { .. } => "trace",
        }
    }

    /// Check parameter ranges without building (used by
    /// `ExperimentConfig::validate`, where a panic would be hostile).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let finite_unit = |key: &str, v: f64| {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(ScenarioError::BadParam {
                    key: key.to_string(),
                    reason: format!("must lie in [0, 1] (got {v})"),
                })
            }
        };
        match self {
            ScenarioSpec::Diurnal {
                period,
                min_up,
                max_up,
            } => {
                if !period.is_finite() || *period < 2.0 {
                    return Err(ScenarioError::BadParam {
                        key: "period".into(),
                        reason: format!("must be a finite number of rounds >= 2 (got {period})"),
                    });
                }
                finite_unit("min_up", *min_up)?;
                finite_unit("max_up", *max_up)?;
                if min_up >= max_up {
                    return Err(ScenarioError::Invalid(format!(
                        "diurnal needs min_up < max_up (got {min_up} >= {max_up})"
                    )));
                }
                Ok(())
            }
            ScenarioSpec::Churn { leave, join } => {
                finite_unit("leave", *leave)?;
                finite_unit("join", *join)
            }
            ScenarioSpec::Tiered { resample, sigma } => {
                finite_unit("resample", *resample)?;
                if !sigma.is_finite() || *sigma < 0.0 {
                    return Err(ScenarioError::BadParam {
                        key: "sigma".into(),
                        reason: format!("must be finite and >= 0 (got {sigma})"),
                    });
                }
                Ok(())
            }
            ScenarioSpec::Towers {
                groups,
                outage,
                repair,
            } => {
                if *groups == 0 {
                    return Err(ScenarioError::BadParam {
                        key: "groups".into(),
                        reason: "must be at least 1".into(),
                    });
                }
                finite_unit("outage", *outage)?;
                finite_unit("repair", *repair)
            }
            ScenarioSpec::Trace { path } => {
                if path.is_empty() {
                    return Err(ScenarioError::Invalid("trace path is empty".into()));
                }
                Ok(())
            }
        }
    }

    /// Instantiate the scenario for a `num_clients`-client fleet seeded by
    /// `seed`, whose links are drawn from `links` (churn re-joins draw from
    /// it too). Everything the fleet size decides is checked here: towers
    /// may not outnumber the clients, and trace specs read and validate the
    /// whole file and insist its header matches the fleet size.
    pub fn build(
        &self,
        num_clients: usize,
        seed: u64,
        links: &LinkGenerator,
    ) -> Result<Box<dyn Scenario>, ScenarioError> {
        self.validate()?;
        match self {
            ScenarioSpec::Diurnal {
                period,
                min_up,
                max_up,
            } => Ok(Box::new(DiurnalScenario::new(
                num_clients,
                seed,
                *period,
                *min_up,
                *max_up,
            ))),
            ScenarioSpec::Churn { leave, join } => Ok(Box::new(ChurnScenario::new(
                num_clients,
                seed,
                *leave,
                *join,
                links.clone(),
            ))),
            ScenarioSpec::Tiered { resample, sigma } => Ok(Box::new(TieredScenario::new(
                num_clients,
                seed,
                *resample,
                *sigma,
            ))),
            ScenarioSpec::Towers { groups, .. } if *groups > num_clients => {
                Err(ScenarioError::BadParam {
                    key: "groups".into(),
                    reason: format!(
                        "{groups} exceeds num_clients = {num_clients} \
                         (a tower beyond the fleet holds no client)"
                    ),
                })
            }
            ScenarioSpec::Towers {
                groups,
                outage,
                repair,
            } => Ok(Box::new(CorrelatedDropoutScenario::new(
                num_clients,
                seed,
                *groups,
                *outage,
                *repair,
            ))),
            ScenarioSpec::Trace { path } => {
                let scenario = TraceScenario::open(path).map_err(ScenarioError::Trace)?;
                if scenario.num_clients() != num_clients {
                    return Err(ScenarioError::Invalid(format!(
                        "trace {path:?} was recorded for {} clients but the experiment has {num_clients}",
                        scenario.num_clients()
                    )));
                }
                Ok(Box::new(scenario))
            }
        }
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioSpec::Diurnal {
                period,
                min_up,
                max_up,
            } => write!(
                f,
                "diurnal:period={period:?},min_up={min_up:?},max_up={max_up:?}"
            ),
            ScenarioSpec::Churn { leave, join } => {
                write!(f, "churn:leave={leave:?},join={join:?}")
            }
            ScenarioSpec::Tiered { resample, sigma } => {
                write!(f, "tiered:resample={resample:?},sigma={sigma:?}")
            }
            ScenarioSpec::Towers {
                groups,
                outage,
                repair,
            } => write!(
                f,
                "towers:groups={groups},outage={outage:?},repair={repair:?}"
            ),
            ScenarioSpec::Trace { path } => write!(f, "trace:{path}"),
        }
    }
}

fn parse_f64(key: &str, value: &str) -> Result<f64, ScenarioError> {
    value.parse().map_err(|_| ScenarioError::BadParam {
        key: key.to_string(),
        reason: format!("{value:?} is not a number"),
    })
}

fn parse_usize(key: &str, value: &str) -> Result<usize, ScenarioError> {
    value.parse().map_err(|_| ScenarioError::BadParam {
        key: key.to_string(),
        reason: format!("{value:?} is not an unsigned integer"),
    })
}

impl FromStr for ScenarioSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (name, params) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        if name == "trace" {
            let path = params.unwrap_or("").to_string();
            if path.is_empty() {
                return Err(ScenarioError::Parse(
                    "trace spec needs a path: `trace:FILE`".into(),
                ));
            }
            return Ok(ScenarioSpec::Trace { path });
        }
        let mut spec = match name {
            "diurnal" => ScenarioSpec::Diurnal {
                period: 24.0,
                min_up: 0.3,
                max_up: 0.95,
            },
            "churn" => ScenarioSpec::Churn {
                leave: 0.05,
                join: 0.25,
            },
            "tiered" => ScenarioSpec::Tiered {
                resample: 0.2,
                sigma: 0.25,
            },
            "towers" => ScenarioSpec::Towers {
                groups: 8,
                outage: 0.1,
                repair: 0.5,
            },
            other => {
                return Err(ScenarioError::Parse(format!(
                    "unknown scenario {other:?} (expected diurnal, churn, tiered, towers or trace)"
                )))
            }
        };
        for pair in params.into_iter().flat_map(|p| p.split(',')) {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                ScenarioError::Parse(format!("expected key=value, found {pair:?}"))
            })?;
            let unknown = || {
                Err(ScenarioError::Parse(format!(
                    "scenario {name:?} has no parameter {key:?}"
                )))
            };
            match &mut spec {
                ScenarioSpec::Diurnal {
                    period,
                    min_up,
                    max_up,
                } => match key {
                    "period" => *period = parse_f64(key, value)?,
                    "min_up" => *min_up = parse_f64(key, value)?,
                    "max_up" => *max_up = parse_f64(key, value)?,
                    _ => return unknown(),
                },
                ScenarioSpec::Churn { leave, join } => match key {
                    "leave" => *leave = parse_f64(key, value)?,
                    "join" => *join = parse_f64(key, value)?,
                    _ => return unknown(),
                },
                ScenarioSpec::Tiered { resample, sigma } => match key {
                    "resample" => *resample = parse_f64(key, value)?,
                    "sigma" => *sigma = parse_f64(key, value)?,
                    _ => return unknown(),
                },
                ScenarioSpec::Towers {
                    groups,
                    outage,
                    repair,
                } => match key {
                    "groups" => *groups = parse_usize(key, value)?,
                    "outage" => *outage = parse_f64(key, value)?,
                    "repair" => *repair = parse_f64(key, value)?,
                    _ => return unknown(),
                },
                ScenarioSpec::Trace { .. } => unreachable!("trace handled above"),
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_parse_to_defaults() {
        assert_eq!(
            "diurnal".parse::<ScenarioSpec>().unwrap(),
            ScenarioSpec::Diurnal {
                period: 24.0,
                min_up: 0.3,
                max_up: 0.95
            }
        );
        assert_eq!(
            "towers".parse::<ScenarioSpec>().unwrap(),
            ScenarioSpec::Towers {
                groups: 8,
                outage: 0.1,
                repair: 0.5
            }
        );
    }

    #[test]
    fn partial_params_override_defaults() {
        let spec: ScenarioSpec = "diurnal:period=8,min_up=0.25".parse().unwrap();
        assert_eq!(
            spec,
            ScenarioSpec::Diurnal {
                period: 8.0,
                min_up: 0.25,
                max_up: 0.95
            }
        );
    }

    #[test]
    fn display_parse_round_trip() {
        for text in [
            "diurnal",
            "diurnal:period=7.5,min_up=0.125,max_up=0.875",
            "churn:leave=0.08,join=0.3",
            "tiered:resample=0.2,sigma=0.25",
            "towers:groups=4,outage=0.25,repair=0.5",
            "trace:runs/fleet.trace",
        ] {
            let spec: ScenarioSpec = text.parse().unwrap();
            let canon = spec.to_string();
            let back: ScenarioSpec = canon.parse().unwrap();
            assert_eq!(back, spec, "canonical form {canon:?}");
        }
    }

    #[test]
    fn trace_path_keeps_colons() {
        let spec: ScenarioSpec = "trace:a:b/c.trace".parse().unwrap();
        assert_eq!(
            spec,
            ScenarioSpec::Trace {
                path: "a:b/c.trace".into()
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "meteor",
            "diurnal:period",
            "diurnal:period=fast",
            "diurnal:tempo=3",
            "diurnal:period=1",
            "diurnal:min_up=0.9,max_up=0.5",
            "churn:leave=1.5",
            "towers:groups=0",
            "tiered:sigma=-1",
            "trace:",
            "trace",
        ] {
            assert!(
                bad.parse::<ScenarioSpec>().is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn build_produces_named_scenarios() {
        for (text, name) in [
            ("diurnal", "diurnal"),
            ("churn", "churn"),
            ("tiered", "tiered"),
            ("towers", "towers"),
        ] {
            let spec: ScenarioSpec = text.parse().unwrap();
            assert_eq!(spec.name(), name);
            assert!(spec.build(16, 42, &LinkGenerator::paper_default()).is_ok());
        }
    }

    #[test]
    fn build_rejects_missing_trace_file() {
        let spec = ScenarioSpec::Trace {
            path: "/nonexistent/definitely-not-here.trace".into(),
        };
        let err = match spec.build(4, 1, &LinkGenerator::paper_default()) {
            Err(e) => e,
            Ok(_) => panic!("missing trace file must not build"),
        };
        assert!(matches!(err, ScenarioError::Trace(TraceError::Io(_))));
    }
}
