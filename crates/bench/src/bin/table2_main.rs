//! Table 2 — final test accuracy of FedAvg, Top-K, EF-Top-K, BCRS and
//! BCRS+OPWA across datasets × heterogeneity (β) × compression ratio (CR).
//!
//! The whole grid is built with `fl_core::sweep::SweepGrid` and executed in
//! parallel by the sweep driver (shared dataset generation, worker count set
//! by `--sweep-threads`, results in table order).
//!
//! Defaults to a reduced grid (CIFAR-10-like only, shortened runs); pass
//! `--all-datasets` for all three datasets and `--full` for the paper's
//! 200-round, full-scale settings. `--with-ef-bcrs` adds the
//! error-feedback-under-BCRS ablation row.
//!
//! `--compressors spec1,spec2,…` appends extra scenario rows sweeping the
//! listed codec specs (e.g. `qsgd:8,topk+qsgd:4,ef-topk`) through the same
//! dataset × β × CR grid. These rows default to `CostBasis::Encoded`, so
//! their communication times are priced from the bytes each codec actually
//! encoded; `--cost-basis analytic|encoded` overrides the basis for *every*
//! row (main grid and codec rows alike), and `--downlink SPEC` simulates the
//! server→client broadcast through a codec instead of teleporting it.
//!
//! `--layer-compressors PLAN` likewise appends layer-aware scenario rows
//! (e.g. `'linear0.weight=topk;*=qsgd:8'`): the plan runs through the grid
//! as Top-K rows under the encoded basis (the main grid keeps the flat path
//! — its OPWA rows reject dense-decoding plan rules), with the per-layer
//! byte breakdown summarised on stderr.
//!
//! `cargo run --release -p fl-bench --bin table2_main [-- --all-datasets --full]`

use fl_bench::{bench_config, summarize, BenchArgs};
use fl_compress::CompressorSpec;
use fl_core::sweep::{run_sweep_threaded_progress, SweepGrid};
use fl_core::Algorithm;
use fl_data::DatasetPreset;
use fl_netsim::CostBasis;

fn main() {
    let args = BenchArgs::parse();
    // The main grid always runs the flat codec path: a layer plan with
    // dense-decoding rules (e.g. `*=qsgd:8`) is invalid for the OPWA rows,
    // so `--layer-compressors` becomes dedicated scenario rows below instead.
    let mut grid_args = args.clone();
    grid_args.layer_compressors = None;
    let datasets: Vec<DatasetPreset> = if args.has_flag("--all-datasets") || args.full {
        vec![
            DatasetPreset::Cifar10Like,
            DatasetPreset::SvhnLike,
            DatasetPreset::Cifar100Like,
        ]
    } else {
        vec![DatasetPreset::Cifar10Like]
    };
    let betas = [0.1, 0.5];
    let ratios = [0.1, 0.01];
    let algorithms = Algorithm::paper_lineup();

    // Grid nesting (dataset → β → CR → algorithm) matches the table order.
    let grid = SweepGrid::new(bench_config(
        algorithms[0],
        datasets[0],
        betas[0],
        ratios[0],
        &grid_args,
    ))
    .datasets(datasets.clone())
    .betas(betas)
    .compression_ratios(ratios)
    .algorithms(algorithms);
    let configs = grid.configs();
    let results = run_sweep_threaded_progress(&configs, args.sweep_threads, args.progress);

    // The ablation reruns EF-Top-K at each BCRS run's achieved mean CR, so it
    // depends on the main grid; collect its configs and sweep them too.
    let ablation_results = if args.has_flag("--with-ef-bcrs") {
        let ef_configs: Vec<_> = results
            .iter()
            .filter(|r| r.config.algorithm == Algorithm::Bcrs)
            .map(|bcrs_probe| {
                // Ablation: BCRS scheduling with error-feedback residuals is
                // approximated by running EF-Top-K at the BCRS mean CR.
                let mean_cr = bcrs_probe.records[0].mean_compression_ratio.min(1.0);
                let mut ef = bcrs_probe.config.clone();
                ef.algorithm = Algorithm::EfTopK;
                ef.compression_ratio = mean_cr;
                ef
            })
            .collect();
        run_sweep_threaded_progress(&ef_configs, args.sweep_threads, args.progress)
    } else {
        Vec::new()
    };
    let mut ablation_iter = ablation_results.iter();

    println!("dataset,beta,cr,algorithm,final_accuracy,best_accuracy,cum_comm_s,uplink_bytes");
    // One (dataset, beta, cr) block per `algorithms.len()` results.
    for block in results.chunks(algorithms.len()) {
        let (dataset, beta, cr) = (
            block[0].config.dataset,
            block[0].config.beta,
            block[0].config.compression_ratio,
        );
        for result in block {
            let last = result.records.last().unwrap();
            println!(
                "{},{beta},{cr},{},{:.4},{:.4},{:.1},{}",
                dataset.name(),
                result.config.algorithm.name(),
                result.final_accuracy,
                result.best_accuracy,
                last.cumulative_actual_s,
                total_uplink_bytes(result)
            );
            if !args.csv {
                eprintln!("# {}", summarize(result));
                if let Some(spec) = &result.config.downlink_compressor {
                    let down_kb = result
                        .records
                        .iter()
                        .map(|r| r.downlink_bytes as f64)
                        .sum::<f64>()
                        / 1e3;
                    eprintln!("#   downlink {spec}: {down_kb:.1} kB total encoded broadcast");
                }
            }
        }
        if let Some(result) = ablation_iter.next() {
            println!(
                "{},{beta},{cr},eftopk@bcrs-cr,{:.4},{:.4},{:.1},{}",
                dataset.name(),
                result.final_accuracy,
                result.best_accuracy,
                result.records.last().unwrap().cumulative_actual_s,
                total_uplink_bytes(result)
            );
        }
    }

    // Extra scenario rows: sweep the requested codec specs through the same
    // grid as first-class rows, priced from the bytes each codec encoded.
    // Pure quantizers (`qsgd:<bits>`) ignore the target ratio, so they run
    // once per (dataset, β) instead of once per ratio, with `-` in the CR
    // column.
    if let Some(list) = args.flag_value("--compressors") {
        let specs: Vec<CompressorSpec> = list
            .split(',')
            .map(|s| {
                s.parse().unwrap_or_else(|e| {
                    panic!("--compressors: cannot parse {s:?}: {e}");
                })
            })
            .collect();
        let (ratio_free, ratio_bound): (Vec<CompressorSpec>, Vec<CompressorSpec>) =
            specs.into_iter().partition(|s| s.produces_dense());
        let mut base = configs[0].clone();
        base.algorithm = Algorithm::TopK;
        base.cost_basis = args.cost_basis.unwrap_or(CostBasis::Encoded);
        let basis_tag = basis_tag(base.cost_basis);
        let mut codec_configs = Vec::new();
        if !ratio_bound.is_empty() {
            codec_configs.extend(
                SweepGrid::new(base.clone())
                    .datasets(datasets.clone())
                    .betas(betas)
                    .compression_ratios(ratios)
                    .compressors(ratio_bound)
                    .configs(),
            );
        }
        if !ratio_free.is_empty() {
            codec_configs.extend(
                SweepGrid::new(base)
                    .datasets(datasets.clone())
                    .betas(betas)
                    .compressors(ratio_free)
                    .configs(),
            );
        }
        let codec_results =
            run_sweep_threaded_progress(&codec_configs, args.sweep_threads, args.progress);
        for result in &codec_results {
            let last = result.records.last().unwrap();
            let spec = result
                .config
                .compressor
                .as_ref()
                .expect("codec rows always carry a spec");
            let cr_cell = if spec.produces_dense() {
                "-".to_string()
            } else {
                result.config.compression_ratio.to_string()
            };
            println!(
                "{},{},{cr_cell},{spec}@{basis_tag},{:.4},{:.4},{:.1},{}",
                result.config.dataset.name(),
                result.config.beta,
                result.final_accuracy,
                result.best_accuracy,
                last.cumulative_actual_s,
                total_uplink_bytes(result)
            );
            if !args.csv {
                let total_mb = result
                    .records
                    .iter()
                    .map(|r| r.uplink_bytes as f64)
                    .sum::<f64>()
                    / 1e6;
                eprintln!(
                    "# codec {spec}: {} | {total_mb:.2} MB total encoded uplink",
                    summarize(result)
                );
            }
        }
    }

    // Layer-aware scenario rows: run the requested plan through the same
    // dataset × β × CR grid as Top-K rows priced from the encoded bytes, and
    // summarise the per-layer breakdown a mixed plan records. A plan that
    // resolves every segment of the model to a ratio-ignoring codec (pure
    // quantizers and the raw-f32 `dense` codec) runs once per (dataset, β)
    // with `-` in the CR column, like the ratio-free codec rows above.
    if let Some(plan) = &args.layer_compressors {
        let ratio_free = configs[0]
            .model
            .segment_names()
            .iter()
            .all(|name| plan.spec_for(name).is_some_and(spec_ignores_ratio));
        let mut base = configs[0].clone();
        base.algorithm = Algorithm::TopK;
        base.compressor = None;
        base.cost_basis = args.cost_basis.unwrap_or(CostBasis::Encoded);
        let basis_tag = basis_tag(base.cost_basis);
        let mut grid = SweepGrid::new(base)
            .datasets(datasets.clone())
            .betas(betas)
            .layer_plans([plan.clone()]);
        if !ratio_free {
            grid = grid.compression_ratios(ratios);
        }
        let plan_configs = grid.configs();
        let plan_results =
            run_sweep_threaded_progress(&plan_configs, args.sweep_threads, args.progress);
        for result in &plan_results {
            let last = result.records.last().unwrap();
            let cr_cell = if ratio_free {
                "-".to_string()
            } else {
                result.config.compression_ratio.to_string()
            };
            println!(
                "{},{},{cr_cell},{plan}@{basis_tag},{:.4},{:.4},{:.1},{}",
                result.config.dataset.name(),
                result.config.beta,
                result.final_accuracy,
                result.best_accuracy,
                last.cumulative_actual_s,
                total_uplink_bytes(result)
            );
            if !args.csv {
                eprintln!("# plan {plan}: {}", summarize(result));
                // Sum the per-layer uplink bytes over the run (present only
                // for genuinely mixed plans — uniform plans collapse to the
                // flat codec and record no breakdown).
                let mut per_layer: Vec<(String, usize)> = Vec::new();
                for r in &result.records {
                    if let Some(layers) = &r.layer_bytes {
                        if per_layer.is_empty() {
                            per_layer = layers
                                .iter()
                                .map(|l| (l.layer.clone(), l.uplink_bytes))
                                .collect();
                        } else {
                            for (acc, l) in per_layer.iter_mut().zip(layers.iter()) {
                                acc.1 += l.uplink_bytes;
                            }
                        }
                    }
                }
                for (layer, bytes) in &per_layer {
                    eprintln!("#   {layer}: {:.1} kB encoded uplink", *bytes as f64 / 1e3);
                }
            }
        }
    }
}

/// Total uplink bytes a run transferred, summed over its rounds — the
/// trailing CSV column. Under `CostBasis::Encoded` this is the exact encoded
/// byte count, which is what the CI smoke step compares across codecs.
fn total_uplink_bytes(result: &fl_core::ExperimentResult) -> u64 {
    result.records.iter().map(|r| r.uplink_bytes as u64).sum()
}

/// The label suffix naming the basis a scenario row's times were priced
/// under (`--cost-basis` may override the encoded default).
fn basis_tag(basis: CostBasis) -> &'static str {
    match basis {
        CostBasis::Encoded => "encoded",
        CostBasis::Analytic => "analytic",
    }
}

/// True when a spec's encode ignores the target ratio entirely: pure
/// quantizers (`qsgd:<bits>`) and the raw-f32 `dense` codec.
fn spec_ignores_ratio(spec: &CompressorSpec) -> bool {
    spec.produces_dense() || (spec.stages.len() == 1 && spec.stages[0].name == "dense")
}
