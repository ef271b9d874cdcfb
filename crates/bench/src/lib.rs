//! `fl-bench` — the `figures` driver that regenerates every table and figure
//! of the paper: `cargo run --release -p fl-bench -- <figure> [flags]`.
//!
//! [`figures::FIGURES`] is the whole driver: one row per figure, naming the
//! paper artifacts it regenerates and the function that builds it. Output is
//! always CSV on stdout. Every figure takes the flags of [`BenchArgs`] (each
//! field names its flag); an unknown flag or figure name, or a missing or
//! unparsable value, is an error. [`bench_config`] applies every flag but
//! `--compressors` to every run, and every run is validated before the first
//! one starts, so an invalid combination (say a dense-decoding plan rule on
//! `paper`'s OPWA rows) fails with the validator's message.

#![forbid(unsafe_code)]

pub mod figures;

use figures::{Figure, FIGURES};
use fl_compress::{CompressorSpec, LayerPlan};
use fl_core::{AdaptivePlanSpec, Algorithm, ExperimentConfig, ModelPreset};
use fl_data::DatasetPreset;
use fl_netsim::{CostBasis, ScenarioSpec};

/// The parsed command line of the `figures` driver.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// The figure to build (the one positional argument); `None` lists them.
    pub figure: Option<&'static Figure>,
    /// `--rounds N`: communication rounds per run (default: per figure).
    pub rounds: Option<usize>,
    /// `--scale F`: synthetic dataset scale (default: per figure).
    pub scale: Option<f64>,
    /// `--seed N`: master seed ([`BenchArgs::seed`] when unset).
    pub seed: Option<u64>,
    /// `--quick`: small smoke-run settings (exclusive with `--full`).
    pub quick: bool,
    /// `--full`: the paper's settings (200 rounds, scale 1.0, all datasets).
    pub full: bool,
    /// `--progress`: one stderr line per finished run.
    pub progress: bool,
    /// `--eval-every N`: evaluate the global model every N rounds.
    pub eval_every: Option<usize>,
    /// `--sweep-threads N`: sweep worker threads (0 = auto).
    pub sweep_threads: usize,
    /// `--cost-basis analytic|encoded`: price transfers by the paper's
    /// `2·V·CR` formula or by the encoded bytes (default: per figure).
    pub cost_basis: Option<CostBasis>,
    /// `--downlink SPEC`: send the broadcast through a codec (`ef-topk`, …);
    /// `None` keeps the paper's free broadcast.
    pub downlink: Option<CompressorSpec>,
    /// `--layer-compressors PLAN`: per-layer uplink codecs by first-match
    /// glob rules (`'linear0.weight=topk;*.bias=dense;*=qsgd:8'`).
    pub layer_compressors: Option<LayerPlan>,
    /// `--adaptive-plan SPEC`: re-plan the per-layer codecs every round
    /// (`layer-bcrs`, `layer-bcrs:efficiency=0.8`); a fixed plan is
    /// `--layer-compressors`.
    pub adaptive_plan: Option<AdaptivePlanSpec>,
    /// `--layer-csv`: append the per-layer byte rows after a blank line.
    pub layer_csv: bool,
    /// `--scenario SPEC`: a dynamic fleet (`diurnal`, `churn:leave=0.1`,
    /// `towers:groups=4`, `tiered`, `trace:PATH`); `None` keeps it static.
    pub scenario: Option<ScenarioSpec>,
    /// `--compressors SPEC,SPEC,…`: the codec rows of the `codecs` figure.
    pub compressors: Vec<CompressorSpec>,
}

impl BenchArgs {
    /// Parse the arguments that follow the program name.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            match flag {
                "--rounds" => out.rounds = Some(value(flag, it.next(), "a number")),
                "--scale" => out.scale = Some(value(flag, it.next(), "a number")),
                "--seed" => out.seed = Some(value(flag, it.next(), "a number")),
                "--quick" => out.quick = true,
                "--full" => out.full = true,
                "--progress" => out.progress = true,
                "--eval-every" => out.eval_every = Some(value(flag, it.next(), "a number")),
                "--sweep-threads" => out.sweep_threads = value(flag, it.next(), "a number"),
                "--cost-basis" => {
                    let basis: String = value(flag, it.next(), "a value: analytic|encoded");
                    out.cost_basis = Some(match basis.as_str() {
                        "analytic" => CostBasis::Analytic,
                        "encoded" => CostBasis::Encoded,
                        other => panic!("--cost-basis: expected analytic|encoded, got {other:?}"),
                    });
                }
                "--downlink" => out.downlink = Some(value(flag, it.next(), "a codec spec")),
                "--layer-compressors" => {
                    out.layer_compressors = Some(value(flag, it.next(), "a plan, e.g. '*=topk'"))
                }
                "--adaptive-plan" => {
                    out.adaptive_plan = Some(value(flag, it.next(), "a spec, e.g. layer-bcrs"))
                }
                "--layer-csv" => out.layer_csv = true,
                "--scenario" => out.scenario = Some(value(flag, it.next(), "a spec, e.g. diurnal")),
                "--compressors" => {
                    let list: String = value(flag, it.next(), "codec specs, e.g. qsgd:4,topk");
                    let specs = list
                        .split(',')
                        .map(|s| value(flag, Some(s.to_string()), ""));
                    out.compressors = specs.collect();
                }
                name if !name.starts_with('-') && out.figure.is_none() => {
                    let figure = FIGURES.iter().find(|f| f.name == name);
                    out.figure = Some(figure.unwrap_or_else(|| {
                        panic!("unknown figure {name:?}; figures: {}", figure_names())
                    }));
                }
                other => panic!(
                    "unknown flag {other:?}; usage: figures <figure> [flags], figures: {}",
                    figure_names()
                ),
            }
        }
        if out.quick && out.full {
            panic!("--quick and --full are exclusive: pick the smoke run or the paper's settings");
        }
        out
    }

    /// The master seed: `--seed`, or 42.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Resolve the effective number of rounds given the figure's default.
    pub fn effective_rounds(&self, default_rounds: usize) -> usize {
        match self.rounds {
            Some(r) => r,
            None if self.full => 200,
            None if self.quick => (default_rounds / 4).max(2),
            None => default_rounds,
        }
    }

    /// Resolve the effective dataset scale given the figure's default.
    pub fn effective_scale(&self, default_scale: f64) -> f64 {
        match self.scale {
            Some(s) => s,
            None if self.full => 1.0,
            None if self.quick => (default_scale / 2.0).max(0.05),
            None => default_scale,
        }
    }
}

/// Every figure name, comma-separated, for the error messages.
fn figure_names() -> String {
    FIGURES
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The parsed value of `flag`. A missing or unparsable value panics: a run
/// with a mistyped `--seed` must not look like a run with the default one.
fn value<T: std::str::FromStr>(flag: &str, value: Option<String>, what: &str) -> T
where
    T::Err: std::fmt::Display,
{
    let value = value.unwrap_or_else(|| panic!("{flag} needs {what}"));
    value
        .parse()
        .unwrap_or_else(|e| panic!("{flag}: cannot parse {value:?}: {e}"))
}

/// The benchmark-suite default configuration: the paper's hyper-parameters
/// with a reduced round count and dataset scale so the entire suite runs on a
/// single CPU core in minutes (pass `--full` for the paper's 200-round runs),
/// with every common flag applied.
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
    config.seed = args.seed();
    config.eval_every = args.eval_every.unwrap_or(config.eval_every);
    config.cost_basis = args.cost_basis.unwrap_or(config.cost_basis);
    config.downlink_compressor = args.downlink.clone();
    config.layer_compressors = args.layer_compressors.clone();
    config.adaptive_plan = args.adaptive_plan.clone();
    config.scenario = args.scenario.clone();
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    /// The panic message of parsing `args`.
    fn message(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let payload = std::panic::catch_unwind(|| BenchArgs::from_args(args))
            .expect_err("a bad argument must not be ignored");
        *payload.downcast::<String>().expect("a formatted message")
    }

    /// `args` applied to a Top-K config by [`bench_config`].
    fn config(args: &BenchArgs) -> ExperimentConfig {
        bench_config(Algorithm::TopK, DatasetPreset::Cifar10Like, 0.5, 0.1, args)
    }

    fn text<T: ToString>(x: &Option<T>) -> Option<String> {
        x.as_ref().map(T::to_string)
    }

    #[test]
    fn parses_common_flags() {
        let a = parse(&["paper", "--rounds", "17", "--scale", "0.5", "--seed", "9"]);
        assert_eq!(a.figure.unwrap().name, "paper");
        assert_eq!(
            (a.rounds, a.scale, a.seed(), a.quick),
            (Some(17), Some(0.5), 9, false)
        );
        assert!(parse(&[]).figure.is_none());
        assert_eq!(parse(&[]).seed(), 42);
    }

    #[test]
    fn parses_compressors_flag() {
        let a = parse(&["codecs", "--compressors", "qsgd:8,topk+qsgd:4", "--quick"]);
        let specs: Vec<String> = a.compressors.iter().map(|s| s.to_string()).collect();
        assert_eq!(specs, ["qsgd:8", "topk+qsgd:4"]);
        assert!(a.quick && parse(&[]).compressors.is_empty());
        assert!(message(&["--compressors", "qsgd:8,+no"]).starts_with("--compressors: cannot"));
        assert_eq!(
            message(&["--compressors"]),
            "--compressors needs codec specs, e.g. qsgd:4,topk"
        );
    }

    #[test]
    #[should_panic(expected = "--quick and --full are exclusive")]
    fn quick_and_full_together_panic() {
        parse(&["scenarios", "--full", "--rounds", "3", "--quick"]);
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
        assert_eq!((a.eval_every, a.sweep_threads), (Some(5), 3));
        assert_eq!(config(&a).eval_every, 5);
        let d = parse(&[]);
        assert_eq!((d.eval_every, d.sweep_threads), (None, 0));
        // Passed through, so the driver's validation stops a typo.
        let zero = config(&parse(&["--eval-every", "0"]));
        assert_eq!(zero.validate().unwrap_err(), "eval_every must be positive");
    }

    #[test]
    fn parses_cost_basis_and_downlink_flags() {
        let a = parse(&["--cost-basis", "encoded", "--downlink", "ef-topk"]);
        assert_eq!(a.cost_basis, Some(CostBasis::Encoded));
        let c = config(&a);
        assert_eq!(c.cost_basis, CostBasis::Encoded);
        assert_eq!(text(&c.downlink_compressor).as_deref(), Some("ef-topk"));
        assert!(c.validate().is_ok());
        let b = parse(&["--cost-basis", "analytic"]);
        assert_eq!(b.cost_basis, Some(CostBasis::Analytic));
        // Unset flags leave the figure's defaults alone.
        let c = config(&parse(&[]));
        assert_eq!(
            (c.cost_basis, c.downlink_compressor),
            (CostBasis::Analytic, None)
        );
    }

    #[test]
    fn parses_layer_compressors_flag() {
        let plan = "linear0.weight=topk;*=qsgd:8";
        let c = config(&parse(&["--layer-compressors", plan]));
        assert_eq!(text(&c.layer_compressors).as_deref(), Some(plan));
        assert!(c.validate().is_ok());
        // Unset leaves the flat path alone.
        assert_eq!(config(&parse(&[])).layer_compressors, None);
    }

    #[test]
    fn parses_adaptive_plan_and_layer_csv_flags() {
        let a = parse(&["--adaptive-plan", "layer-bcrs", "--layer-csv"]);
        assert!(a.layer_csv);
        let c = config(&a);
        assert_eq!(text(&c.adaptive_plan).as_deref(), Some("layer-bcrs"));
        assert!(c.validate().is_ok());
        let b = parse(&["--adaptive-plan", "layer-bcrs:efficiency=0.8"]);
        assert_eq!(
            text(&b.adaptive_plan).as_deref(),
            Some("layer-bcrs:efficiency=0.8")
        );
        // Unset keeps the configuration's plan and the per-round-only CSV.
        let d = parse(&[]);
        assert!(!d.layer_csv && config(&d).adaptive_plan.is_none());
    }

    #[test]
    #[should_panic(expected = "--adaptive-plan")]
    fn bad_adaptive_plan_spec_panics() {
        parse(&["--adaptive-plan", "magic"]);
    }

    #[test]
    fn parses_scenario_flag() {
        let spec = "churn:leave=0.1,join=0.4";
        let c = config(&parse(&["--scenario", spec]));
        assert_eq!(text(&c.scenario).as_deref(), Some(spec));
        assert!(c.validate().is_ok());
        // Unset keeps the static fleet.
        assert_eq!(config(&parse(&[])).scenario, None);
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
        for (flag, bad) in [
            ("--rounds", "abc"),
            ("--rounds", "-3"),
            ("--scale", "x"),
            ("--seed", "1.5"),
            ("--eval-every", "often"),
            ("--sweep-threads", "two"),
        ] {
            let expected = format!("{flag}: cannot parse {bad:?}");
            assert!(message(&[flag, bad]).starts_with(&expected), "{flag} {bad}");
            assert_eq!(
                message(&["--quick", flag]),
                format!("{flag} needs a number")
            );
        }
    }

    #[test]
    fn unknown_flags_and_figures_panic() {
        let names = figure_names();
        assert!(names.starts_with("timeline, schedule, overlap"), "{names}");
        for (args, expected) in [
            (
                ["paper", "--ablation"],
                "unknown flag \"--ablation\"; usage",
            ),
            (["--quick", "--csv"], "unknown flag \"--csv\"; usage"),
            (["paper", "gamma"], "unknown flag \"gamma\"; usage"),
            (["tabel2", "--quick"], "unknown figure \"tabel2\"; figures"),
        ] {
            let got = message(&args);
            assert!(got.starts_with(expected) && got.ends_with(&names), "{got}");
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
        assert_eq!((c.beta, c.compression_ratio), (0.1, 0.01));
    }
}
