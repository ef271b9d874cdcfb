//! What one run of one workload produced, how it is printed, and how the
//! suite reads a child's printout back.

use crate::spec;
use std::collections::BTreeMap;

/// Counts operations against violations of the correctness gate.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Gate {
    /// Count one operation; `ok == false` makes it a failed one.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The first few say what broke; the count says how much.
            if self.messages.len() < 10 {
                self.messages.push(what());
            }
        }
    }
}

/// Metrics and gate of one workload run, untraced or traced.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub gate: Gate,
    /// Hash of every record of the run (untraced runs only).
    pub fingerprint: Option<u64>,
}

impl Outcome {
    /// Print `metric NAME VALUE UNIT` lines, the gate, and as the last line
    /// the JSON object the driver reads. Returns whether the run was correct.
    pub fn print(mut self, traced: bool) -> bool {
        let declared: Vec<(&str, &str)> = if traced {
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let emitted: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        let names: Vec<&str> = declared.iter().map(|d| d.0).collect();
        assert_eq!(
            emitted, names,
            "emitted metrics differ from the declaration"
        );

        let mut json = Vec::new();
        for ((name, value), (_, unit)) in self.metrics.iter().zip(&declared) {
            let value = if value.is_finite() {
                *value
            } else {
                self.gate.op(false, || format!("metric {name} is {value}"));
                0.0
            };
            println!("metric {name} {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some(fp) = self.fingerprint {
            println!("fingerprint {fp:016x}");
        }
        for message in &self.gate.messages {
            println!("violation {message}");
        }
        println!(
            "ops attempted {} failed {}",
            self.gate.attempted, self.gate.failed
        );
        let correct = self.gate.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.attempted.max(1),
            self.gate.failed,
            json.join(", ")
        );
        correct
    }
}

/// A child's printout, read back by the suite.
#[derive(Debug, Default, PartialEq)]
pub struct Parsed {
    /// Values keep their printed text, so exact metrics compare bit for bit.
    pub metrics: BTreeMap<String, String>,
    pub fingerprint: Option<String>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn parse(stdout: &str) -> Parsed {
    let mut parsed = Parsed::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, _unit] => {
                parsed.metrics.insert(name.to_string(), value.to_string());
            }
            ["fingerprint", fp] => parsed.fingerprint = Some(fp.to_string()),
            ["ops", "attempted", attempted, "failed", failed] => {
                parsed.attempted = attempted.parse().unwrap_or(0);
                parsed.failed = failed.parse().unwrap_or(0);
            }
            _ => {}
        }
    }
    parsed
}

/// Disagreements between two untraced runs of one workload at one seed:
/// exact metrics and the fingerprint must be equal, timed metrics must agree
/// within their bound (relative to the first run).
pub fn disagreements(workload: &str, first: &Parsed, second: &Parsed) -> Vec<String> {
    let mut out = Vec::new();
    if first.fingerprint != second.fingerprint {
        out.push(format!("{workload}: record fingerprints differ"));
    }
    for m in &spec::END_TO_END {
        let (Some(a), Some(b)) = (first.metrics.get(m.name), second.metrics.get(m.name)) else {
            out.push(format!("{workload}: {} missing from a run", m.name));
            continue;
        };
        if m.exact {
            if a != b {
                out.push(format!(
                    "{workload}: exact metric {} read {a} then {b}",
                    m.name
                ));
            }
            continue;
        }
        let (x, y): (f64, f64) = (a.parse().unwrap_or(f64::NAN), b.parse().unwrap_or(f64::NAN));
        let drift = (y - x).abs() / x.abs();
        // An unreadable value makes the drift NaN, which disagrees too.
        if drift.is_nan() || drift > m.bound {
            out.push(format!(
                "{workload}: {} read {a} then {b}, {:.1}% apart (bound {:.0}%)",
                m.name,
                drift * 100.0,
                m.bound * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn printed(rounds_per_s: &str, final_accuracy: &str) -> String {
        let mut text = String::from("# comment\nfingerprint 00ff\nops attempted 10 failed 0\n");
        for m in &spec::END_TO_END {
            let value = match m.name {
                "rounds_per_s" => rounds_per_s,
                "final_accuracy" => final_accuracy,
                _ => "1.5",
            };
            text.push_str(&format!("metric {} {value} {}\n", m.name, m.unit));
        }
        text
    }

    #[test]
    fn parse_reads_back_what_print_writes() {
        let parsed = parse(&printed("26.25", "0.91"));
        assert_eq!(parsed.metrics.len(), spec::END_TO_END.len());
        assert_eq!(parsed.metrics["rounds_per_s"], "26.25");
        assert_eq!(parsed.fingerprint.as_deref(), Some("00ff"));
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
    }

    #[test]
    fn repeat_check_is_exact_on_exact_metrics_and_bounded_on_timed_ones() {
        let base = parse(&printed("100", "0.91"));
        assert!(disagreements("w", &base, &parse(&printed("100", "0.91"))).is_empty());
        // Within the rounds_per_s bound: fine. Outside: reported.
        let bound = spec::END_TO_END
            .iter()
            .find(|m| m.name == "rounds_per_s")
            .expect("declared")
            .bound;
        let near = format!("{}", 100.0 * (1.0 - bound / 2.0));
        let far = format!("{}", 100.0 * (1.0 - bound * 2.0));
        assert!(disagreements("w", &base, &parse(&printed(&near, "0.91"))).is_empty());
        assert_eq!(
            disagreements("w", &base, &parse(&printed(&far, "0.91"))).len(),
            1
        );
        // Any change of an exact metric is reported, however small.
        let moved = disagreements("w", &base, &parse(&printed("100", "0.9100000000000001")));
        assert_eq!(moved.len(), 1);
        assert!(moved[0].contains("final_accuracy"));
    }
}
