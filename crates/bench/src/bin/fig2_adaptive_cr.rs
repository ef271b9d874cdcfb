//! Fig. 2 — adaptive compression ratios as a function of client bandwidth:
//! higher-bandwidth clients retain more information while nobody exceeds the
//! uniform-compression round time.
//!
//! `--measured` additionally runs short BCRS experiments at both base ratios
//! through the parallel sweep driver (`fl_core::sweep`) and reports the mean
//! compression ratio the scheduler actually achieved in every round (the
//! static schedule table stays instant without it).
//!
//! `--ablation` additionally compares the paper's benchmark choice (slowest
//! client's compressed time) against a mean-time benchmark.
//!
//! `cargo run --release -p fl-bench --bin fig2_adaptive_cr [-- --ablation --measured]`

use fl_bench::{bench_config, BenchArgs};
use fl_core::sweep::run_sweep_threaded_progress;
use fl_core::{Algorithm, BcrsScheduler};
use fl_data::DatasetPreset;
use fl_netsim::{CommModel, LinkGenerator};

fn main() {
    let args = BenchArgs::parse();
    let model_bytes = 101_672.0;
    let comm = CommModel::paper_default();
    let links = LinkGenerator::paper_default().generate(10, args.seed);
    let mut sorted = links.clone();
    sorted.sort_by(|a, b| b.bandwidth_bps.partial_cmp(&a.bandwidth_bps).unwrap());

    println!(
        "base_ratio,client,bandwidth_mbps,latency_ms,scheduled_ratio,scheduled_time_s,t_bench_s"
    );
    for &base_ratio in &[0.01, 0.1] {
        let schedule = BcrsScheduler::new(comm).schedule(&sorted, model_bytes, base_ratio);
        for (i, link) in sorted.iter().enumerate() {
            println!(
                "{base_ratio},{i},{:.3},{:.1},{:.4},{:.3},{:.3}",
                link.bandwidth_mbps(),
                link.latency_ms(),
                schedule.ratios[i],
                schedule.scheduled_times[i],
                schedule.t_bench
            );
        }
    }

    // Measured counterpart (opt-in): actual BCRS experiments at both base
    // ratios, run concurrently by the sweep driver. The per-round mean CR
    // shows the scheduler adapting to whichever cohort was selected.
    if args.has_flag("--measured") {
        let configs: Vec<_> = [0.01, 0.1]
            .iter()
            .map(|&base_ratio| {
                let mut c = bench_config(
                    Algorithm::Bcrs,
                    DatasetPreset::Cifar10Like,
                    0.1,
                    base_ratio,
                    &args,
                );
                c.rounds = args.effective_rounds(8);
                c
            })
            .collect();
        let results = run_sweep_threaded_progress(&configs, args.sweep_threads, args.progress);
        if !args.csv {
            eprintln!("# measured per-round mean CR from BCRS experiments (sweep driver)");
        }
        println!();
        println!("base_ratio,round,measured_mean_cr");
        for result in &results {
            for record in &result.records {
                println!(
                    "{},{},{:.4}",
                    result.config.compression_ratio, record.round, record.mean_compression_ratio
                );
            }
        }
    }

    if args.has_flag("--ablation") {
        println!();
        println!("# ablation: benchmark = slowest compressed client (paper) vs mean client time");
        println!("benchmark,base_ratio,mean_ratio,makespan_s,straggler_uniform_s");
        for &base_ratio in &[0.01, 0.1] {
            let paper = BcrsScheduler::new(comm).schedule(&sorted, model_bytes, base_ratio);
            let uniform_straggler = paper.uniform_times.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "slowest,{base_ratio},{:.4},{:.3},{:.3}",
                paper.mean_ratio(),
                paper.makespan(),
                uniform_straggler
            );
            // Mean-time benchmark: schedule against the mean uniform time.
            let mean_budget =
                paper.uniform_times.iter().sum::<f64>() / paper.uniform_times.len() as f64;
            let ratios: Vec<f64> = sorted
                .iter()
                .map(|l| {
                    comm.ratio_for_budget(l, model_bytes, mean_budget)
                        .clamp(0.0, 1.0)
                })
                .collect();
            let times: Vec<f64> = sorted
                .iter()
                .zip(ratios.iter())
                .map(|(l, &r)| comm.sparse_uplink_time(l, model_bytes, r.max(1e-6)))
                .collect();
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
            println!(
                "mean,{base_ratio},{:.4},{:.3},{:.3}",
                mean_ratio,
                times.iter().cloned().fold(0.0f64, f64::max),
                uniform_straggler
            );
        }
        println!("# the mean benchmark ships less data and starves slow clients (ratio -> 0),");
        println!("# which is why the paper anchors on the slowest client's compressed time.");
    }
}
