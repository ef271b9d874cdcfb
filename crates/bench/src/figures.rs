//! The figure table and the one CSV emitter.
//!
//! A sweep figure is a plain list of [`ExperimentConfig`]s. [`run`]
//! validates every config before the first run starts, runs the list through
//! [`run_sweep_threaded_progress`] and prints every run with [`runs_csv`]:
//! the [`KEY_COLUMNS`] taken from the config, then
//! [`ExperimentResult::to_csv`]'s columns, one row per round. Reading the
//! paper's tables off those rows:
//!
//! * Table 2 (and Table 4, from `gamma`) is each run's last row;
//! * Table 3 is each run's first row with `test_accuracy >= 0.40`, at its
//!   `cum_actual_s` / `cum_max_s` / `cum_min_s` (the paper leaves Max / Min
//!   blank for BCRS, which equalises client upload times);
//! * the curve figures plot `test_accuracy` against `round` or
//!   `cum_actual_s`.
//!
//! `overlap` and `breakdown` print their own per-run rows instead, and
//! `timeline`, `schedule` and `partition` run no rounds at all.

use crate::{bench_config, BenchArgs};
use fl_compress::CompressorSpec;
use fl_core::Algorithm::{self, *};
use fl_core::{run_sweep_threaded_progress, BcrsScheduler, ExperimentConfig, ExperimentResult};
use fl_core::{ModelPreset, SweepGrid};
use fl_data::DatasetPreset::{Cifar100Like, Cifar10Like, SvhnLike};
use fl_data::{dirichlet_partition, PartitionStats};
use fl_netsim::{CommModel, CostBasis, Link, LinkGenerator, RoundTimeline, ScenarioSpec};

/// One row of the driver's table.
#[derive(Debug)]
pub struct Figure {
    /// The positional argument that selects the figure.
    pub name: &'static str,
    /// The paper tables and figures it regenerates.
    pub artifacts: &'static str,
    /// Builds the figure's runs, or its CSV, from the flags.
    pub build: Build,
}

/// What a figure prints.
pub enum Output {
    /// Runs printed by the one emitter, [`runs_csv`].
    Runs(Vec<ExperimentConfig>),
    /// Runs printed as a CSV header, then the rows the function gives per run.
    Rows(
        Vec<ExperimentConfig>,
        &'static str,
        fn(&ExperimentResult) -> String,
    ),
    /// The CSV of a figure that runs no rounds.
    Csv(String),
}

impl Output {
    /// The runs the figure makes (none for an [`Output::Csv`] figure).
    pub fn configs(&self) -> &[ExperimentConfig] {
        match self {
            Output::Runs(configs) | Output::Rows(configs, ..) => configs,
            Output::Csv(_) => &[],
        }
    }
}

/// How a figure is built from the flags.
pub type Build = fn(&BenchArgs) -> Output;

const fn figure(name: &'static str, artifacts: &'static str, build: Build) -> Figure {
    Figure {
        name,
        artifacts,
        build,
    }
}

/// Every figure, in paper order.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    figure("timeline", "Fig. 1: round timelines, uncompressed / uniform / BCRS", timeline),
    figure("schedule", "Fig. 2: BCRS ratios by bandwidth, and the benchmark ablation", schedule),
    figure("overlap", "Fig. 4: degree-of-overlap histogram of Top-K updates", overlap),
    figure("partition", "Fig. 5: Dirichlet client x class allocation", partition),
    figure("breakdown", "Fig. 6: time breakdown of one round", breakdown),
    figure("paper", "Tables 2-3, Figs. 7-10 and 13-15: lineup x dataset x beta x CR", paper),
    figure("gamma", "Table 4, Fig. 11: the OPWA enlarge rate gamma", gamma),
    figure("gamma-scale", "Fig. 12: gamma at N = 16 and 20 clients", gamma_scale),
    figure("scenarios", "extension: all 7 algorithms under dynamic fleets", scenarios),
    figure("adaptive", "extension: the layer-bcrs plan against static uniform plans", adaptive),
    figure("codecs", "extension: the paper grid per --compressors / --layer-compressors", codecs),
];

/// The columns every emitted row starts with, taken from the run's config.
pub const KEY_COLUMNS: &str = "dataset,num_clients,beta,cr,algorithm,gamma,codec,scenario";

/// Build the figure `args` names, run it and print its CSV to stdout. With
/// no figure, list the figures instead.
pub fn run(args: &BenchArgs) {
    let Some(figure) = args.figure else {
        FIGURES
            .iter()
            .for_each(|f| println!("{:<12} {}", f.name, f.artifacts));
        return;
    };
    let output = (figure.build)(args);
    for c in output.configs() {
        c.validate()
            .unwrap_or_else(|e| panic!("{}: invalid run config: {e}", figure.name));
    }
    let results = run_sweep_threaded_progress(output.configs(), args.sweep_threads, args.progress);
    match output {
        Output::Runs(_) => print!("{}", runs_csv(&results, args.layer_csv)),
        Output::Rows(_, header, rows) => {
            println!("{header}");
            results.iter().for_each(|r| print!("{}", rows(r)));
        }
        Output::Csv(csv) => print!("{csv}"),
    }
}

/// The one emitter: every run's [`ExperimentResult::to_csv`] rows behind its
/// [`KEY_COLUMNS`], then — with `layer_csv` — a blank line and every run's
/// [`ExperimentResult::to_layer_csv`] rows keyed the same way. The scenario
/// column is the spec's name, since specs contain commas.
pub fn runs_csv(results: &[ExperimentResult], layer_csv: bool) -> String {
    let mut out = keyed(results, ExperimentResult::to_csv);
    if layer_csv {
        out.push('\n');
        out.push_str(&keyed(results, ExperimentResult::to_layer_csv));
    }
    out
}

fn keyed(results: &[ExperimentResult], csv: fn(&ExperimentResult) -> String) -> String {
    let mut out = String::new();
    for (i, result) in results.iter().enumerate() {
        let c = &result.config;
        let codec = c.codec_label();
        let scenario = c.scenario.as_ref().map_or("static", ScenarioSpec::name);
        let (dataset, algorithm) = (c.dataset.name(), c.algorithm.name());
        let keys = format!(
            "{dataset},{},{},{},{algorithm},{},{codec},{scenario}",
            c.num_clients, c.beta, c.compression_ratio, c.gamma
        );
        let csv = csv(result);
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or_default();
        if i == 0 {
            out.push_str(&format!("{KEY_COLUMNS},{header}\n"));
        }
        lines.for_each(|line| out.push_str(&format!("{keys},{line}\n")));
    }
    out
}

/// β {0.1, 0.5} × `ratios` over the paper's datasets (CIFAR-10-like only,
/// unless `--full`).
fn paper_grid(base: ExperimentConfig, args: &BenchArgs, ratios: &[f64]) -> SweepGrid {
    let datasets = if args.full {
        vec![Cifar10Like, SvhnLike, Cifar100Like]
    } else {
        vec![Cifar10Like]
    };
    SweepGrid::new(base)
        .axis(datasets, |c, &d| c.dataset = d)
        .axis([0.1, 0.5], |c, &b| c.beta = b)
        .axis(ratios.to_vec(), |c, &cr| c.compression_ratio = cr)
}

fn paper(args: &BenchArgs) -> Output {
    let base = bench_config(FedAvg, Cifar10Like, 0.1, 0.1, args);
    Output::Runs(
        paper_grid(base, args, &[0.1, 0.01])
            .axis(Algorithm::paper_lineup(), |c, &a| c.algorithm = a)
            .configs(),
    )
}

/// Table 2's grid as Top-K rows per `--compressors` spec, then for the
/// `--layer-compressors` plan, priced from the encoded bytes unless
/// `--cost-basis` says otherwise. A codec that ignores the target ratio
/// ([`CompressorSpec::ignores_ratio`], or a plan of only those) runs at CR 0.1
/// only.
fn codecs(args: &BenchArgs) -> Output {
    let mut base = bench_config(TopK, Cifar10Like, 0.1, 0.1, args);
    base.cost_basis = args.cost_basis.unwrap_or(CostBasis::Encoded);
    base.layer_compressors = None;
    let ratios = |free: bool| if free { vec![0.1] } else { vec![0.1, 0.01] };
    let (free, bound): (Vec<_>, Vec<_>) = args
        .compressors
        .iter()
        .cloned()
        .partition(CompressorSpec::ignores_ratio);
    let mut configs = Vec::new();
    for (specs, free) in [(bound, false), (free, true)] {
        if !specs.is_empty() {
            configs.extend(
                paper_grid(base.clone(), args, &ratios(free))
                    .axis(specs, |c, s| c.compressor = Some(s.clone()))
                    .configs(),
            );
        }
    }
    if let Some(plan) = &args.layer_compressors {
        let segments = base.model.segment_names();
        let free = segments.iter().all(|name| {
            plan.spec_for(name)
                .is_some_and(CompressorSpec::ignores_ratio)
        });
        base.compressor = None;
        base.layer_compressors = Some(plan.clone());
        configs.extend(paper_grid(base, args, &ratios(free)).configs());
    }
    Output::Runs(configs)
}

/// Per (β, CR): BCRS+OPWA at γ ∈ {1, 3, 5, 7, 8}, then the FedAvg reference.
fn gamma(args: &BenchArgs) -> Output {
    let mut configs = Vec::new();
    for beta in [0.1, 0.5] {
        for cr in [0.1, 0.01] {
            for gamma in [1.0f32, 3.0, 5.0, 7.0, 8.0] {
                let mut c = bench_config(BcrsOpwa, Cifar10Like, beta, cr, args);
                c.gamma = gamma;
                configs.push(c);
            }
            configs.push(bench_config(FedAvg, Cifar10Like, beta, cr, args));
        }
    }
    Output::Runs(configs)
}

/// Per population N: γ at 0.5–1.5 × the N/2 selected clients, then the
/// FedAvg and Top-K baselines.
fn gamma_scale(args: &BenchArgs) -> Output {
    let mut configs = Vec::new();
    for n in [16usize, 20] {
        let cell = |algorithm, gamma: Option<f32>| {
            let mut c = bench_config(algorithm, Cifar10Like, 0.1, 0.1, args);
            c.num_clients = n;
            c.gamma = gamma.unwrap_or(c.gamma);
            c
        };
        for f in [0.5f32, 0.8, 1.0, 1.25, 1.5] {
            configs.push(cell(BcrsOpwa, Some((f * n as f32 / 2.0).round().max(1.0))));
        }
        configs.extend([cell(FedAvg, None), cell(TopK, None)]);
    }
    Output::Runs(configs)
}

fn overlap(args: &BenchArgs) -> Output {
    let mut base = bench_config(TopK, Cifar10Like, 0.1, 0.01, args);
    base.rounds = args.effective_rounds(10);
    base.record_overlap = true;
    let configs = SweepGrid::new(base)
        .axis([0.1, 0.5], |c, &b| c.beta = b)
        .axis([0.01, 0.1], |c, &cr| c.compression_ratio = cr)
        .configs();
    Output::Rows(configs, "beta,cr,degree,count,fraction", |result| {
        let (beta, cr) = (result.config.beta, result.config.compression_ratio);
        let o = result
            .merged_overlap()
            .expect("overlap recording was enabled");
        let rows = o.histogram_counts.iter().zip(&o.fractions).enumerate();
        rows.map(|(i, (count, frac))| format!("{beta},{cr},{},{count},{frac:.4}\n", i + 1))
            .collect()
    })
}

/// Per CR: the measured compress / training bars and the simulated
/// uncompressed and BCRS communication. `downlink_comm_s` (non-zero under
/// `--downlink`) is the broadcast's share of the two communication columns,
/// not an extra bar.
fn breakdown(args: &BenchArgs) -> Output {
    let mut base = bench_config(Bcrs, Cifar10Like, 0.1, 0.01, args);
    base.rounds = args.effective_rounds(10);
    let configs = SweepGrid::new(base)
        .axis([0.01, 0.1], |c, &cr| c.compression_ratio = cr)
        .configs();
    let header = "cr,compress_s,training_s,uncompressed_comm_s,bcrs_comm_s,downlink_comm_s";
    Output::Rows(configs, header, |result| {
        let b = result.breakdown;
        let cr = result.config.compression_ratio;
        let last = result.records.last().expect("a run has rounds");
        let rounds = result.records.len() as f64;
        let uncompressed = last.cumulative_max_s / rounds;
        let scheduled = last.cumulative_actual_s / rounds;
        let (compress, training, downlink) = (b.compress_s, b.training_s, b.downlink_comm_s);
        format!("{cr},{compress:.4},{training:.4},{uncompressed:.4},{scheduled:.4},{downlink:.4}\n")
    })
}

/// 32 clients at half participation and a 32×16 MLP: the fleet of the
/// extension figures.
fn small_fleet(mut config: ExperimentConfig, args: &BenchArgs, rounds: usize) -> ExperimentConfig {
    config.rounds = args.effective_rounds(rounds);
    config.dataset_scale = args.effective_scale(0.4);
    config.num_clients = 32;
    config.participation = 0.5;
    config.model = ModelPreset::Mlp {
        hidden1: 32,
        hidden2: 16,
    };
    config
}

/// All 7 algorithms × the static fleet and the dynamic ones (`tiered` only
/// outside `--quick`); `--scenario` replaces the dynamic rows.
fn scenarios(args: &BenchArgs) -> Output {
    let dynamic = [
        "diurnal:period=8,min_up=0.25,max_up=0.95",
        "churn:leave=0.08,join=0.3",
        "towers:groups=4,outage=0.25,repair=0.5",
        "tiered:resample=0.3,sigma=0.3",
    ];
    let dynamic = dynamic.iter().take(if args.quick { 3 } else { 4 });
    let dynamic = dynamic.map(|spec| spec.parse().expect("scenario row parses"));
    let mut rows = vec![None];
    match &args.scenario {
        Some(spec) => rows.push(Some(spec.clone())),
        None => rows.extend(dynamic.map(Some)),
    }
    let base = small_fleet(bench_config(FedAvg, Cifar10Like, 0.5, 0.1, args), args, 40);
    let algorithms = [FedAvg, TopK, EfTopK, RandK, TopKOpwa, Bcrs, BcrsOpwa];
    Output::Runs(
        SweepGrid::new(base)
            .axis(algorithms, |c, &a| c.algorithm = a)
            .axis(rows, |c, s| c.scenario = s.clone())
            .configs(),
    )
}

/// The uniform EF Top-K plans at full precision and at 8 bits, then the
/// adaptive policy (`layer-bcrs` unless `--adaptive-plan`), on encoded bytes.
fn adaptive(args: &BenchArgs) -> Output {
    let mut base = small_fleet(bench_config(TopK, Cifar10Like, 0.5, 0.1, args), args, 24);
    base.cost_basis = CostBasis::Encoded;
    base.layer_compressors = None;
    base.adaptive_plan = None;
    let mut configs: Vec<ExperimentConfig> = ["*=ef-topk", "*=ef-topk+qsgd:8"]
        .iter()
        .map(|plan| {
            let mut c = base.clone();
            c.layer_compressors = Some(plan.parse().expect("static plan parses"));
            c
        })
        .collect();
    let policy = args.adaptive_plan.clone();
    base.adaptive_plan =
        Some(policy.unwrap_or_else(|| "layer-bcrs".parse().expect("policy parses")));
    configs.push(base);
    Output::Runs(configs)
}

/// The analytic round of three clients (B1 > B2 > B3), per scheme. The
/// download leg is a
/// flat 0.5 s unless `--downlink` is given; its presence then prices it per
/// link (dense, or `2·V·CR` for the compressed schemes), whatever the spec.
fn timeline(args: &BenchArgs) -> Output {
    let links =
        [(1.6, 60.0), (1.0, 100.0), (0.5, 180.0)].map(|(mbps, ms)| Link::from_mbps_ms(mbps, ms));
    let (bytes, ratio, comm) = (101_672.0, 0.1, CommModel::paper_default()); // the default MLP
    let sparse = CommModel::analytic_bytes(bytes, ratio);
    let time = |payload: f64| links.map(|l| comm.transfer_time(&l, payload)).to_vec();
    let download = |payload: f64| match args.downlink {
        Some(_) => time(payload),
        None => vec![0.5; 3],
    };
    let bcrs = BcrsScheduler::new(comm)
        .schedule(&links, bytes, ratio)
        .scheduled_times;
    let schemes = [
        ("uncompressed", download(bytes), time(bytes)),
        ("uniform-compression", download(sparse), time(sparse)),
        ("adaptive-compression (BCRS)", download(sparse), bcrs),
    ];
    let mut out = String::new();
    for (name, download_s, upload_s) in schemes {
        let tl = RoundTimeline::synchronous(&download_s, &[10.0; 3], &upload_s);
        out.push_str(&format!(
            "# {name}: round_s = {:.3}\n{}",
            tl.duration_s(),
            tl.to_csv()
        ));
    }
    Output::Csv(out)
}

/// BCRS's per-client ratios on 10 generated links at both base ratios, then
/// the ablation: the paper's benchmark (slowest compressed client) against
/// scheduling to the mean uniform time.
fn schedule(args: &BenchArgs) -> Output {
    let (bytes, comm) = (101_672.0, CommModel::paper_default());
    let mut links = LinkGenerator::paper_default().generate(10, args.seed());
    links.sort_by(|a, b| b.bandwidth_bps.partial_cmp(&a.bandwidth_bps).unwrap());
    let mut out = String::from(
        "base_ratio,client,bandwidth_mbps,latency_ms,scheduled_ratio,scheduled_time_s,t_bench_s\n",
    );
    for base in [0.01, 0.1] {
        let s = BcrsScheduler::new(comm).schedule(&links, bytes, base);
        for (i, l) in links.iter().enumerate() {
            let (mbps, ms, t_bench) = (l.bandwidth_mbps(), l.latency_ms(), s.t_bench);
            let (ratio, time) = (s.ratios[i], s.scheduled_times[i]);
            out.push_str(&format!(
                "{base},{i},{mbps:.3},{ms:.1},{ratio:.4},{time:.3},{t_bench:.3}\n"
            ));
        }
    }
    out.push_str(
        "\n# ablation: benchmark = slowest compressed client (paper) vs mean client time\n",
    );
    out.push_str("benchmark,base_ratio,mean_ratio,makespan_s,straggler_uniform_s\n");
    for base in [0.01, 0.1] {
        let paper = BcrsScheduler::new(comm).schedule(&links, bytes, base);
        let straggler = paper.uniform_times.iter().cloned().fold(0.0f64, f64::max);
        let (mean_ratio, makespan) = (paper.mean_ratio(), paper.makespan());
        out.push_str(&format!(
            "slowest,{base},{mean_ratio:.4},{makespan:.3},{straggler:.3}\n"
        ));
        let budget = paper.uniform_times.iter().sum::<f64>() / paper.uniform_times.len() as f64;
        let ratios: Vec<f64> = links
            .iter()
            .map(|l| comm.ratio_for_budget(l, bytes, budget).clamp(0.0, 1.0))
            .collect();
        let times = links
            .iter()
            .zip(&ratios)
            .map(|(l, &r)| comm.transfer_time(l, CommModel::analytic_bytes(bytes, r.max(1e-6))));
        let makespan = times.fold(0.0f64, f64::max);
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        out.push_str(&format!(
            "mean,{base},{mean_ratio:.4},{makespan:.3},{straggler:.3}\n"
        ));
    }
    Output::Csv(out)
}

/// The client × class counts of the CIFAR-10-like training set split over
/// 10 clients at β = 0.5 and β = 0.1.
fn partition(args: &BenchArgs) -> Output {
    let (train, _) = Cifar10Like
        .spec(args.effective_scale(1.0))
        .generate(args.seed());
    let mut out = String::new();
    for beta in [0.5, 0.1] {
        let parts = dirichlet_partition(&train, 10, beta, 8, args.seed());
        let stats = PartitionStats::from_partition(&parts, &train);
        out.push_str(&format!("# beta = {beta}\n{}", stats.to_csv()));
    }
    Output::Csv(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> BenchArgs {
        BenchArgs::from_args(
            line.split_whitespace()
                .map(|a| a.trim_matches('\'').to_string()),
        )
    }

    fn configs(line: &str) -> Vec<ExperimentConfig> {
        let args = parse(line);
        (args.figure.unwrap().build)(&args).configs().to_vec()
    }

    #[test]
    fn every_figure_builds_valid_configs() {
        // Runs per figure under --quick, the default and --full.
        let expected: [(&str, [usize; 3]); 11] = [
            ("timeline", [0; 3]),
            ("schedule", [0; 3]),
            ("overlap", [4; 3]),
            ("partition", [0; 3]),
            ("breakdown", [2; 3]),
            ("paper", [20, 20, 60]),
            ("gamma", [24; 3]),
            ("gamma-scale", [14; 3]),
            ("scenarios", [28, 35, 35]),
            ("adaptive", [3; 3]),
            ("codecs", [0; 3]),
        ];
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names, expected.map(|(name, _)| name));
        for (mode, flag) in ["--quick", "", "--full"].into_iter().enumerate() {
            for (figure, runs) in expected {
                let configs = configs(&format!("{figure} {flag}"));
                assert_eq!(configs.len(), runs[mode], "{figure} {flag}");
                for c in configs {
                    c.validate()
                        .unwrap_or_else(|e| panic!("{figure} {flag}: {e}"));
                }
            }
        }
        let codecs = configs(
            "codecs --compressors qsgd:4,qsgd:4:rc,topk --layer-compressors *.bias=dense;*=qsgd:8",
        );
        // topk over β × CR; both quantizers and the ratio-free plan over β.
        assert_eq!(codecs.len(), 4 + 4 + 2);
        assert!(codecs.iter().all(|c| c.validate().is_ok()));
        // `dense` and an absolute threshold ignore the ratio too: one CR grid
        // each, against Top-K's two.
        let codecs = configs("codecs --compressors dense,threshold:0.01,topk");
        let grids = |spec: &str| {
            let runs = codecs
                .iter()
                .filter(|c| c.compressor.as_ref().unwrap().to_string() == spec);
            let mut crs: Vec<f64> = runs.map(|c| c.compression_ratio).collect();
            crs.sort_by(f64::total_cmp);
            crs.dedup();
            crs.len()
        };
        assert_eq!(
            [grids("dense"), grids("threshold:0.01"), grids("topk")],
            [1, 1, 2]
        );
        assert_eq!(codecs.len(), 2 * (1 + 1 + 2), "each grid over β");
    }

    #[test]
    #[should_panic(expected = "paper: invalid run config")]
    fn an_invalid_combination_fails_before_the_first_run() {
        run(&parse("paper --quick --layer-compressors *=qsgd:8"));
    }

    #[test]
    fn emitted_rows_carry_the_key_columns() {
        let mut config = ExperimentConfig::quick(TopK);
        config.rounds = 2;
        config.max_threads = 1;
        config.scenario = Some("churn:leave=0.1,join=0.4".parse().unwrap());
        config.layer_compressors = Some("*.bias=dense;*=topk".parse().unwrap());
        let csv = runs_csv(&[fl_core::run_experiment(&config)], true);
        let (rounds, layers) = csv
            .split_once("\n\n")
            .expect("a blank line before the layers");
        for table in [rounds, layers] {
            let columns = table.lines().next().unwrap().split(',').count();
            assert!(
                table.lines().all(|l| l.split(',').count() == columns),
                "{table}"
            );
        }
        assert_eq!(rounds.lines().count(), 1 + 2);
        assert!(rounds.starts_with(&format!("{KEY_COLUMNS},round,test_accuracy,")));
        let keys = "cifar10-like,10,0.5,0.1,topk,5,*.bias=dense;*=topk,churn";
        let first_row = |table: &str| table.lines().nth(1).unwrap().to_string();
        assert!(first_row(rounds).starts_with(&format!("{keys},0,")));
        assert!(first_row(layers).starts_with(&format!("{keys},0,linear0.weight,")));
    }

    /// Every `cargo run … -p fl-bench -- …` line of the docs names a figure
    /// and parses, and each of its plan rules matches a segment of the MLP.
    #[test]
    fn documented_commands_parse() {
        let docs = [
            include_str!("../../../README.md"),
            include_str!("../../../ARCHITECTURE.md"),
            include_str!("../../../BENCHMARKS.md"),
            include_str!("../../../.claude/skills/verify/SKILL.md"),
        ]
        .map(|doc| doc.replace("\\\n", " "));
        let segments = configs("paper")[0].model.segment_names();
        let mut commands = 0;
        for line in docs.iter().flat_map(|doc| doc.lines()) {
            let Some((cargo, rest)) = line.split_once(" -- ") else {
                continue;
            };
            if !(cargo.contains("cargo run") && cargo.contains("-p fl-bench")) {
                continue;
            }
            let args = parse(rest.split(['`', '#']).next().unwrap());
            assert!(args.figure.is_some(), "names no figure: {line}");
            for rule in args.layer_compressors.iter().flat_map(|p| &p.rules) {
                let hit = segments
                    .iter()
                    .any(|s| fl_compress::glob_match(&rule.pattern, s));
                assert!(hit, "{} matches no segment: {line}", rule.pattern);
            }
            commands += 1;
        }
        assert!(commands >= 5, "only {commands} documented commands found");
    }
}
