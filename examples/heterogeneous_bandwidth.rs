//! Heterogeneous-bandwidth walkthrough: how BCRS turns straggler wait time
//! into extra transmitted information.
//!
//! This example does not train a model; it exercises the network simulator
//! and the BCRS scheduler directly (the mechanics behind the paper's Fig. 1
//! and Fig. 2), printing a per-client table of bandwidth, latency, the
//! scheduled compression ratio and the resulting upload times.
//!
//! Run with `cargo run --release --example heterogeneous_bandwidth`.

use bwfl::prelude::*;

fn main() {
    // A 25 000-parameter model (~100 KB) and ten clients drawn from the
    // paper's link distribution: bandwidth ~ N(1 Mbit/s, 0.2), latency ~
    // U(50 ms, 200 ms].
    let model_bytes = 25_418.0 * 4.0;
    let links = LinkGenerator::paper_default().generate(10, 7);
    let comm = CommModel::paper_default();
    let base_ratio = 0.05;

    println!(
        "model size: {:.0} bytes, base compression ratio CR* = {base_ratio}",
        model_bytes
    );
    println!();

    // Uniform compression: every client uses CR*, the round ends when the
    // slowest client finishes.
    let uniform_bytes = CommModel::analytic_bytes(model_bytes, base_ratio);
    let uniform: Vec<f64> = links
        .iter()
        .map(|l| comm.transfer_time(l, uniform_bytes))
        .collect();
    let uniform_straggler = uniform.iter().cloned().fold(0.0, f64::max);

    // BCRS: the slowest client's time becomes the budget for everyone.
    let schedule = BcrsScheduler::new(comm).schedule(&links, model_bytes, base_ratio);

    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "client", "bw (Mbit/s)", "lat (ms)", "uniform s", "BCRS ratio", "BCRS s", "extra info"
    );
    for (i, link) in links.iter().enumerate() {
        println!(
            "{:>6} {:>12.3} {:>12.1} {:>10.3} {:>12.4} {:>12.3} {:>9.1}x",
            i,
            link.bandwidth_mbps(),
            link.latency_ms(),
            uniform[i],
            schedule.ratios[i],
            schedule.scheduled_times[i],
            schedule.ratios[i] / base_ratio,
        );
    }

    println!();
    println!("uniform-compression round time (straggler): {uniform_straggler:.3} s");
    println!(
        "BCRS round time (makespan):                 {:.3} s",
        schedule.makespan()
    );
    println!(
        "BCRS benchmark T_bench:                     {:.3} s",
        schedule.t_bench
    );
    println!(
        "mean compression ratio: uniform {:.4} vs BCRS {:.4} ({:.1}x more parameters shipped per round)",
        base_ratio,
        schedule.mean_ratio(),
        schedule.mean_ratio() / base_ratio
    );
    println!();
    println!("BCRS never exceeds the uniform round time, but fast clients use the");
    println!("time they would have spent waiting to upload more of their update.");

    // Eq. 6: the adjusted averaging coefficients.
    let fractions = vec![1.0 / links.len() as f64; links.len()];
    let coeffs = schedule.adjusted_coefficients(&fractions, 0.3);
    println!();
    println!(
        "adjusted averaging coefficients (alpha = 0.3): {:?}",
        coeffs
            .iter()
            .map(|c| (c * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
}
