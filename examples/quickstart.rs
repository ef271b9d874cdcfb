//! Quickstart: train BCRS+OPWA on the CIFAR-10-like synthetic benchmark and
//! compare it against uniform Top-K and uncompressed FedAvg.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart           # reduced-size run (~1 min)
//! cargo run --release --example quickstart -- --full # paper-scale settings
//! ```

use bwfl::prelude::*;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (rounds, scale) = if full { (200, 1.0) } else { (25, 0.25) };

    println!("bwfl quickstart — β = 0.1 (severe non-IID), CR = 0.1");
    println!("{:-<68}", "");

    let mut results = Vec::new();
    for algorithm in [Algorithm::FedAvg, Algorithm::TopK, Algorithm::BcrsOpwa] {
        let mut config = ExperimentConfig::paper_setting(
            algorithm,
            DatasetPreset::Cifar10Like,
            0.1, // beta: severe heterogeneity
            0.1, // compression ratio
        );
        config.rounds = rounds;
        config.dataset_scale = scale;

        print!("{:>10}: ", algorithm.name());
        let session = SessionBuilder::from_config(&config).build();
        let result = session.run_with(|r| {
            if (r.round + 1) % 5 == 0 {
                print!("[r{} acc {:.2}] ", r.round + 1, r.test_accuracy);
            }
        });
        println!();
        println!(
            "{:>10}  final acc {:.3} | best {:.3} | cumulative comm {:.1}s (uncompressed would be {:.1}s)",
            algorithm.name(),
            result.final_accuracy,
            result.best_accuracy,
            result.records.last().unwrap().cumulative_actual_s,
            result.records.last().unwrap().cumulative_max_s,
        );
        results.push((algorithm, result));
    }

    println!("{:-<68}", "");
    println!("accuracy-vs-communication-time (final round):");
    for (alg, r) in &results {
        let last = r.records.last().unwrap();
        println!(
            "  {:>10}: {:.3} accuracy after {:.1} s of communication",
            alg.name(),
            last.test_accuracy,
            last.cumulative_actual_s
        );
    }
    println!("\nThe BCRS+OPWA run should reach comparable-or-better accuracy than");
    println!("FedAvg while spending a small fraction of its communication time,");
    println!("and should beat uniform Top-K at equal communication budget.");
}
