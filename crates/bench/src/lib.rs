//! `fl-bench` — shared plumbing for the experiment binaries that regenerate
//! every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artifact (the README's
//! "Benchmarks and paper artifacts" section lists them). They all accept the
//! same flags, parsed by [`BenchArgs`]:
//!
//! * `--rounds N`        — communication rounds per run (default: per-binary);
//! * `--scale F`         — synthetic dataset scale factor (default: per-binary);
//! * `--seed N`          — master seed (default 42);
//! * `--quick`           — very small settings for smoke runs;
//! * `--full`            — the paper's full settings (200 rounds, scale 1.0);
//! * `--csv`             — print machine-readable CSV only (no prose);
//! * `--eval-every N`    — evaluate the global model every N rounds;
//! * `--sweep-threads N` — worker threads for the parallel sweep driver
//!   (0 = auto). Grid binaries run their experiments through
//!   `fl_core::sweep::run_sweep_threaded`, which also shares dataset
//!   generation across the grid;
//! * `--cost-basis analytic|encoded` — how the simulator prices transfers:
//!   the paper's closed-form `2·V·CR` accounting (default) or the bytes each
//!   codec actually encoded;
//! * `--downlink SPEC`   — simulate the server→client broadcast through the
//!   given codec spec (e.g. `topk`, `ef-topk`, `qsgd:8`) instead of
//!   teleporting it for free;
//! * `--layer-compressors PLAN` — assign uplink codecs per model layer with a
//!   first-match glob plan (e.g.
//!   `'linear0.weight=topk;*.bias=dense;*=qsgd:8'`). Applied to every run
//!   `bench_config` builds; `table2_main` instead adds dedicated plan rows
//!   so its OPWA grid rows stay valid;
//! * `--adaptive-plan SPEC` — let a plan policy re-resolve the per-layer
//!   codec assignment every round (`layer-bcrs`,
//!   `layer-bcrs:efficiency=0.8`, or `static:PLAN` for the pinned
//!   fallback). Mutually exclusive with `--layer-compressors`;
//! * `--layer-csv`        — with `--csv`, append the per-layer byte
//!   breakdown (`round,layer,uplink_bytes,downlink_bytes,spec,ratio` rows)
//!   after the per-round table, separated by a blank line;
//! * `--scenario SPEC`   — run the fleet through a dynamic scenario
//!   (`diurnal`, `churn:leave=0.1`, `towers:groups=4`, `tiered`,
//!   `trace:path.trace`, …) instead of the paper's static always-on fleet.
//!   `fig14_scenarios` instead uses it to replace its dynamic scenario rows.
//!
//! The Criterion benches under `benches/` cover the micro-performance of the
//! building blocks (compression, aggregation, scheduling, training step).

#![forbid(unsafe_code)]

use fl_compress::{CompressorSpec, LayerPlan};
use fl_core::{AdaptivePlanSpec, Algorithm, ExperimentConfig, ExperimentResult, ModelPreset};
use fl_data::DatasetPreset;
use fl_netsim::{CostBasis, ScenarioSpec};

/// Command-line arguments shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Number of communication rounds (overrides the binary's default).
    pub rounds: Option<usize>,
    /// Dataset scale factor (overrides the binary's default).
    pub scale: Option<f64>,
    /// Master seed.
    pub seed: u64,
    /// Reduced smoke-test settings.
    pub quick: bool,
    /// Paper-scale settings.
    pub full: bool,
    /// Emit CSV only.
    pub csv: bool,
    /// Print one stderr line per completed sweep run (`--progress`); long
    /// grids otherwise run silently until the whole table is ready.
    pub progress: bool,
    /// Evaluate the global model every N rounds (None = config default).
    pub eval_every: Option<usize>,
    /// Worker threads for the parallel sweep driver (0 = auto).
    pub sweep_threads: usize,
    /// Transfer pricing override (`--cost-basis analytic|encoded`); `None`
    /// keeps each binary's default basis.
    pub cost_basis: Option<CostBasis>,
    /// Broadcast codec for the downlink leg (`--downlink SPEC`); `None`
    /// keeps the paper's free broadcast.
    pub downlink: Option<CompressorSpec>,
    /// Layer-aware uplink codec plan (`--layer-compressors PLAN`); `None`
    /// keeps the flat codec path.
    pub layer_compressors: Option<LayerPlan>,
    /// Adaptive per-round plan policy (`--adaptive-plan SPEC`, e.g.
    /// `layer-bcrs` or `static:*=topk`); `None` keeps static plans.
    pub adaptive_plan: Option<AdaptivePlanSpec>,
    /// With `--csv`, also emit the per-layer byte breakdown (`--layer-csv`).
    pub layer_csv: bool,
    /// Fleet scenario (`--scenario NAME[:k=v,...]`, e.g. `diurnal:period=8`
    /// or `trace:runs/fleet.trace`); `None` keeps the static fleet.
    pub scenario: Option<ScenarioSpec>,
    /// Extra flags not recognised by the common parser (binary-specific).
    pub extra: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            rounds: None,
            scale: None,
            seed: 42,
            quick: false,
            full: false,
            csv: false,
            progress: false,
            eval_every: None,
            sweep_threads: 0,
            cost_basis: None,
            downlink: None,
            layer_compressors: None,
            adaptive_plan: None,
            layer_csv: false,
            scenario: None,
            extra: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parse from `std::env::args()` (skipping the program name).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (used by tests).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--rounds" => out.rounds = Some(number(&arg, it.next())),
                "--scale" => out.scale = Some(number(&arg, it.next())),
                "--seed" => out.seed = number(&arg, it.next()),
                "--quick" => out.quick = true,
                "--full" => out.full = true,
                "--csv" => out.csv = true,
                "--progress" => out.progress = true,
                "--eval-every" => out.eval_every = Some(number(&arg, it.next())),
                "--sweep-threads" => out.sweep_threads = number(&arg, it.next()),
                "--cost-basis" => {
                    let value = it
                        .next()
                        .unwrap_or_else(|| panic!("--cost-basis needs a value: analytic|encoded"));
                    out.cost_basis = Some(match value.as_str() {
                        "analytic" => CostBasis::Analytic,
                        "encoded" => CostBasis::Encoded,
                        other => panic!("--cost-basis: expected analytic|encoded, got {other:?}"),
                    });
                }
                "--downlink" => {
                    let value = it.next().unwrap_or_else(|| {
                        panic!("--downlink needs a codec spec, e.g. topk or ef-topk")
                    });
                    out.downlink = Some(
                        value
                            .parse()
                            .unwrap_or_else(|e| panic!("--downlink: cannot parse {value:?}: {e}")),
                    );
                }
                "--layer-compressors" => {
                    let value = it.next().unwrap_or_else(|| {
                        panic!(
                            "--layer-compressors needs a plan, e.g. 'linear0.weight=topk;*=qsgd:8'"
                        )
                    });
                    out.layer_compressors = Some(value.parse().unwrap_or_else(|e| {
                        panic!("--layer-compressors: cannot parse {value:?}: {e}")
                    }));
                }
                "--adaptive-plan" => {
                    let value = it.next().unwrap_or_else(|| {
                        panic!("--adaptive-plan needs a spec, e.g. layer-bcrs or static:*=topk")
                    });
                    out.adaptive_plan = Some(value.parse().unwrap_or_else(|e| {
                        panic!("--adaptive-plan: cannot parse {value:?}: {e}")
                    }));
                }
                "--layer-csv" => out.layer_csv = true,
                "--scenario" => {
                    let value = it.next().unwrap_or_else(|| {
                        panic!("--scenario needs a spec, e.g. diurnal or churn:leave=0.1")
                    });
                    out.scenario = Some(
                        value
                            .parse()
                            .unwrap_or_else(|e| panic!("--scenario: cannot parse {value:?}: {e}")),
                    );
                }
                other => out.extra.push(other.to_string()),
            }
        }
        out
    }

    /// True if a binary-specific flag was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extra.iter().any(|f| f == flag)
    }

    /// The value following a binary-specific `--flag value` pair, if present.
    pub fn flag_value(&self, flag: &str) -> Option<&str> {
        self.extra
            .iter()
            .position(|f| f == flag)
            .and_then(|i| self.extra.get(i + 1))
            .map(String::as_str)
    }

    /// Resolve the effective number of rounds given the binary's default.
    pub fn effective_rounds(&self, default_rounds: usize) -> usize {
        if let Some(r) = self.rounds {
            return r;
        }
        if self.full {
            200
        } else if self.quick {
            (default_rounds / 4).max(2)
        } else {
            default_rounds
        }
    }

    /// Resolve the effective dataset scale given the binary's default.
    pub fn effective_scale(&self, default_scale: f64) -> f64 {
        if let Some(s) = self.scale {
            return s;
        }
        if self.full {
            1.0
        } else if self.quick {
            (default_scale / 2.0).max(0.05)
        } else {
            default_scale
        }
    }
}

/// The value of a numeric `flag`. A missing or unparsable value panics, as a
/// bad spec flag does: a run with a mistyped `--seed` must not look like a run
/// with the default one.
fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T
where
    T::Err: std::fmt::Display,
{
    let value = value.unwrap_or_else(|| panic!("{flag} needs a number"));
    value
        .parse()
        .unwrap_or_else(|e| panic!("{flag}: cannot parse {value:?}: {e}"))
}

/// The benchmark-suite default configuration: the paper's hyper-parameters
/// with a reduced round count and dataset scale so the entire suite runs on a
/// single CPU core in minutes (pass `--full` for the paper's 200-round runs).
pub fn bench_config(
    algorithm: Algorithm,
    dataset: DatasetPreset,
    beta: f64,
    compression_ratio: f64,
    args: &BenchArgs,
) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_setting(algorithm, dataset, beta, compression_ratio);
    config.rounds = args.effective_rounds(40);
    config.dataset_scale = args.effective_scale(0.3);
    config.model = ModelPreset::Mlp {
        hidden1: 128,
        hidden2: 64,
    };
    config.seed = args.seed;
    if let Some(eval_every) = args.eval_every {
        config.eval_every = eval_every.max(1);
    }
    if let Some(basis) = args.cost_basis {
        config.cost_basis = basis;
    }
    if let Some(downlink) = &args.downlink {
        config.downlink_compressor = Some(downlink.clone());
    }
    if let Some(plan) = &args.layer_compressors {
        config.layer_compressors = Some(plan.clone());
    }
    if let Some(spec) = &args.adaptive_plan {
        config.adaptive_plan = Some(spec.clone());
    }
    if let Some(spec) = &args.scenario {
        config.scenario = Some(spec.clone());
    }
    config
}

/// Format a table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// A compact one-line summary of a finished run.
pub fn summarize(result: &ExperimentResult) -> String {
    let last = result.records.last();
    format!(
        "{:<10} beta={:<4} CR={:<5} final_acc={:.4} best_acc={:.4} comm={:.1}s (max {:.1}s)",
        result.config.algorithm.name(),
        result.config.beta,
        result.config.compression_ratio,
        result.final_accuracy,
        result.best_accuracy,
        last.map(|r| r.cumulative_actual_s).unwrap_or(0.0),
        last.map(|r| r.cumulative_max_s).unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_common_flags() {
        let a = parse(&["--rounds", "17", "--scale", "0.5", "--seed", "9", "--csv"]);
        assert_eq!(a.rounds, Some(17));
        assert_eq!(a.scale, Some(0.5));
        assert_eq!(a.seed, 9);
        assert!(a.csv);
        assert!(!a.quick);
    }

    #[test]
    fn unknown_flags_go_to_extra() {
        let a = parse(&["--ablation", "--quick"]);
        assert!(a.has_flag("--ablation"));
        assert!(!a.has_flag("--other"));
        assert!(a.quick);
    }

    #[test]
    fn flag_values_read_from_extra() {
        let a = parse(&["--compressors", "qsgd:8,topk+qsgd:4", "--quick"]);
        assert_eq!(a.flag_value("--compressors"), Some("qsgd:8,topk+qsgd:4"));
        assert_eq!(a.flag_value("--missing"), None);
        let b = parse(&["--compressors"]);
        assert_eq!(b.flag_value("--compressors"), None);
    }

    #[test]
    fn effective_rounds_precedence() {
        assert_eq!(parse(&["--rounds", "7", "--full"]).effective_rounds(40), 7);
        assert_eq!(parse(&["--full"]).effective_rounds(40), 200);
        assert_eq!(parse(&["--quick"]).effective_rounds(40), 10);
        assert_eq!(parse(&[]).effective_rounds(40), 40);
    }

    #[test]
    fn effective_scale_precedence() {
        assert_eq!(parse(&["--scale", "0.9"]).effective_scale(0.3), 0.9);
        assert_eq!(parse(&["--full"]).effective_scale(0.3), 1.0);
        assert_eq!(parse(&[]).effective_scale(0.3), 0.3);
    }

    #[test]
    fn parses_sweep_and_eval_flags() {
        let a = parse(&["--eval-every", "5", "--sweep-threads", "3"]);
        assert_eq!(a.eval_every, Some(5));
        assert_eq!(a.sweep_threads, 3);
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &a);
        assert_eq!(c.eval_every, 5);
        let d = parse(&[]);
        assert_eq!(d.eval_every, None);
        assert_eq!(d.sweep_threads, 0);
    }

    #[test]
    fn parses_cost_basis_and_downlink_flags() {
        let a = parse(&["--cost-basis", "encoded", "--downlink", "ef-topk"]);
        assert_eq!(a.cost_basis, Some(CostBasis::Encoded));
        assert_eq!(a.downlink.as_ref().unwrap().to_string(), "ef-topk");
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &a);
        assert_eq!(c.cost_basis, CostBasis::Encoded);
        assert_eq!(
            c.downlink_compressor.as_ref().unwrap().to_string(),
            "ef-topk"
        );
        assert!(c.validate().is_ok());

        let b = parse(&["--cost-basis", "analytic"]);
        assert_eq!(b.cost_basis, Some(CostBasis::Analytic));

        // Unset flags leave the binary's defaults alone.
        let d = parse(&[]);
        assert_eq!(d.cost_basis, None);
        assert_eq!(d.downlink, None);
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &d);
        assert_eq!(c.cost_basis, CostBasis::Analytic);
        assert_eq!(c.downlink_compressor, None);
    }

    #[test]
    fn parses_layer_compressors_flag() {
        let a = parse(&["--layer-compressors", "linear0.weight=topk;*=qsgd:8"]);
        assert_eq!(
            a.layer_compressors.as_ref().unwrap().to_string(),
            "linear0.weight=topk;*=qsgd:8"
        );
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &a);
        assert_eq!(
            c.layer_compressors.as_ref().unwrap().to_string(),
            "linear0.weight=topk;*=qsgd:8"
        );
        assert!(c.validate().is_ok());
        // Unset leaves the flat path alone.
        let d = parse(&[]);
        assert_eq!(d.layer_compressors, None);
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &d);
        assert_eq!(c.layer_compressors, None);
    }

    #[test]
    fn parses_adaptive_plan_and_layer_csv_flags() {
        let a = parse(&["--adaptive-plan", "layer-bcrs", "--csv", "--layer-csv"]);
        assert_eq!(a.adaptive_plan.as_ref().unwrap().to_string(), "layer-bcrs");
        assert!(a.layer_csv);
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &a);
        assert_eq!(c.adaptive_plan.as_ref().unwrap().to_string(), "layer-bcrs");
        assert!(c.validate().is_ok());

        let b = parse(&["--adaptive-plan", "static:*.bias=dense;*=topk"]);
        assert_eq!(
            b.adaptive_plan.as_ref().unwrap().to_string(),
            "static:*.bias=dense;*=topk"
        );

        // Unset keeps static plans and the per-round-only CSV.
        let d = parse(&[]);
        assert_eq!(d.adaptive_plan, None);
        assert!(!d.layer_csv);
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &d);
        assert_eq!(c.adaptive_plan, None);
    }

    #[test]
    #[should_panic(expected = "--adaptive-plan")]
    fn bad_adaptive_plan_spec_panics() {
        parse(&["--adaptive-plan", "magic"]);
    }

    #[test]
    fn parses_scenario_flag() {
        let a = parse(&["--scenario", "churn:leave=0.1,join=0.4"]);
        assert_eq!(
            a.scenario.as_ref().unwrap().to_string(),
            "churn:leave=0.1,join=0.4"
        );
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &a);
        assert_eq!(
            c.scenario.as_ref().unwrap().to_string(),
            "churn:leave=0.1,join=0.4"
        );
        assert!(c.validate().is_ok());
        // Unset keeps the static fleet.
        let d = parse(&[]);
        assert_eq!(d.scenario, None);
        let c = bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, &d);
        assert_eq!(c.scenario, None);
    }

    #[test]
    #[should_panic(expected = "--scenario")]
    fn bad_scenario_spec_panics() {
        parse(&["--scenario", "blizzard"]);
    }

    #[test]
    #[should_panic(expected = "--layer-compressors")]
    fn bad_layer_plan_panics() {
        parse(&["--layer-compressors", "not-a-plan"]);
    }

    #[test]
    #[should_panic(expected = "--cost-basis")]
    fn bad_cost_basis_value_panics() {
        parse(&["--cost-basis", "bogus"]);
    }

    #[test]
    #[should_panic(expected = "--downlink")]
    fn bad_downlink_spec_panics() {
        parse(&["--downlink", "+nope"]);
    }

    #[test]
    fn bad_or_missing_numeric_values_panic() {
        let message = |args: &[&str]| -> String {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let payload = std::panic::catch_unwind(|| BenchArgs::from_args(args))
                .expect_err("a bad numeric value must not be ignored");
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        for (flag, bad) in [
            ("--rounds", "abc"),
            ("--rounds", "-3"),
            ("--scale", "x"),
            ("--seed", "1.5"),
            ("--eval-every", "often"),
            ("--sweep-threads", "two"),
        ] {
            let expected = format!("{flag}: cannot parse {bad:?}");
            let got = message(&[flag, bad]);
            assert!(got.starts_with(&expected), "{flag} {bad}: {got:?}");
            assert_eq!(
                message(&["--quick", flag]),
                format!("{flag} needs a number")
            );
        }
    }

    #[test]
    fn bench_config_is_valid() {
        let args = parse(&["--quick"]);
        let c = bench_config(
            Algorithm::Bcrs,
            DatasetPreset::Cifar10Like,
            0.1,
            0.01,
            &args,
        );
        assert!(c.validate().is_ok());
        assert_eq!(c.beta, 0.1);
        assert_eq!(c.compression_ratio, 0.01);
    }

    #[test]
    fn row_formatting_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
