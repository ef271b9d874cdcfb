//! Fig. 12 — optimal enlarge rate γ at larger system scales (N = 16 and
//! N = 20 clients, selection fraction 0.5): the best γ grows roughly in
//! proportion to the number of selected clients.
//!
//! `cargo run --release -p fl-bench --bin fig12_scale`

use fl_bench::{bench_config, BenchArgs};
use fl_core::{run_experiment, Algorithm};
use fl_data::DatasetPreset;

fn main() {
    let args = BenchArgs::parse();
    println!("num_clients,gamma,final_accuracy,best_accuracy");
    for &n in &[16usize, 20] {
        let gammas: Vec<f32> = [0.5f32, 0.8, 1.0, 1.25, 1.5]
            .iter()
            .map(|f| (f * n as f32 / 2.0).round().max(1.0))
            .collect();
        let mut best: Option<(f32, f64)> = None;
        for &gamma in &gammas {
            let mut config = bench_config(
                Algorithm::BcrsOpwa,
                DatasetPreset::Cifar10Like,
                0.1,
                0.1,
                &args,
            );
            config.num_clients = n;
            config.gamma = gamma;
            let result = run_experiment(&config);
            println!(
                "{n},{gamma},{:.4},{:.4}",
                result.final_accuracy, result.best_accuracy
            );
            if best
                .map(|(_, acc)| result.best_accuracy > acc)
                .unwrap_or(true)
            {
                best = Some((gamma, result.best_accuracy));
            }
        }
        // Baselines for reference: FedAvg and uniform Top-K at this scale.
        for alg in [Algorithm::FedAvg, Algorithm::TopK] {
            let mut config = bench_config(alg, DatasetPreset::Cifar10Like, 0.1, 0.1, &args);
            config.num_clients = n;
            let result = run_experiment(&config);
            println!(
                "{n},{},{:.4},{:.4}",
                alg.name(),
                result.final_accuracy,
                result.best_accuracy
            );
        }
        if let Some((gamma, acc)) = best {
            if !args.csv {
                eprintln!(
                    "# N={n}: best gamma {gamma} (selected clients: {}), best accuracy {acc:.3}",
                    n / 2
                );
            }
        }
    }
}
