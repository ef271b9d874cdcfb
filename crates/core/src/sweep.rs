//! Parallel experiment sweeps: run a grid of [`ExperimentConfig`]s across
//! threads with shared dataset generation.
//!
//! The paper's evaluation is dozens of experiment variants (Tables 2–4,
//! Figs. 1–12); running them one at a time wastes both wall clock and the
//! repeated synthetic-dataset generation. [`run_sweep_threaded`] executes any
//! list of configurations concurrently, generating each distinct dataset
//! (preset × scale × seed) exactly once and sharing it across the runs, and
//! returns results in input order. [`SweepGrid`] builds cartesian-product
//! grids, one [`SweepGrid::axis`] per swept field.
//!
//! Results are bit-identical to running each configuration through
//! [`crate::runner::run_experiment`] sequentially, regardless of the sweep's
//! thread count.
//!
//! ```
//! use fl_core::sweep::SweepGrid;
//! use fl_core::{Algorithm, ExperimentConfig};
//!
//! let mut base = ExperimentConfig::quick(Algorithm::TopK);
//! base.rounds = 2;
//! let grid = SweepGrid::new(base)
//!     .axis([0.1, 0.01], |c, &cr| c.compression_ratio = cr)
//!     .axis([Algorithm::FedAvg, Algorithm::TopK], |c, &a| c.algorithm = a);
//! assert_eq!(grid.len(), 4);
//! let results = grid.run();
//! assert_eq!(results.len(), 4);
//! ```

use crate::config::ExperimentConfig;
use crate::runner::ExperimentResult;
use crate::session::SessionBuilder;
use fl_data::{Dataset, DatasetPreset};
use fl_tensor::parallel::{default_threads, parallel_map};
use std::collections::HashMap;
use std::sync::Arc;

/// Key identifying one generated dataset pair: preset name, scale bits, seed.
type DataKey = (&'static str, u64, u64);

/// A shared train/test dataset pair.
type SharedData = (Arc<Dataset>, Arc<Dataset>);

fn data_key(config: &ExperimentConfig) -> DataKey {
    (
        config.dataset.name(),
        config.dataset_scale.to_bits(),
        config.seed,
    )
}

/// Run every configuration, in parallel across `sweep_threads` worker threads
/// (`0` = the machine's available parallelism), sharing dataset generation
/// between configurations that use the same preset, scale and seed. Results
/// are returned in the same order as `configs`.
pub fn run_sweep_threaded(
    configs: &[ExperimentConfig],
    sweep_threads: usize,
) -> Vec<ExperimentResult> {
    run_sweep_threaded_progress(configs, sweep_threads, false)
}

/// [`run_sweep_threaded`] with opt-in progress reporting: when `progress` is
/// true, one `# sweep i/total: …` line is printed to stderr as each run
/// completes (completion order, not input order — runs finish as the workers
/// drain the grid). Stdout is untouched, so `--csv` output stays clean.
pub fn run_sweep_threaded_progress(
    configs: &[ExperimentConfig],
    sweep_threads: usize,
    progress: bool,
) -> Vec<ExperimentResult> {
    let threads = if sweep_threads == 0 {
        default_threads()
    } else {
        sweep_threads
    };
    // With several experiments in flight the machine's parallelism budget is
    // split between the sweep workers and each session's client-training
    // pool: auto-threaded configs (`max_threads == 0`) get an explicit inner
    // cap so outer × inner ≈ available cores instead of oversubscribing
    // quadratically. Explicit `max_threads` values are respected as-is, and
    // the inner pool is deterministic regardless of its size.
    let concurrent = threads.min(configs.len()).max(1);
    let inner_threads = (default_threads() / concurrent).max(1);

    // Generate each distinct dataset once (in parallel), keyed by
    // preset × scale × seed — the only inputs of `SyntheticSpec::generate` —
    // and share it across the grid behind an `Arc` (no per-run deep clones).
    let mut specs: Vec<(DataKey, DatasetPreset, f64, u64)> = Vec::new();
    for c in configs {
        let key = data_key(c);
        if !specs.iter().any(|(k, _, _, _)| *k == key) {
            specs.push((key, c.dataset, c.dataset_scale, c.seed));
        }
    }
    let generated: Vec<(DataKey, SharedData)> =
        parallel_map(specs, threads, |(key, preset, scale, seed)| {
            let (train, test) = preset.spec(scale).generate(seed);
            (key, (Arc::new(train), Arc::new(test)))
        });
    let cache: HashMap<DataKey, SharedData> = generated.into_iter().collect();

    let total = configs.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let done = &done;
    parallel_map(configs.to_vec(), threads, move |config| {
        let start = std::time::Instant::now();
        let (train, test) = cache
            .get(&data_key(&config))
            .expect("every config's dataset was pre-generated")
            .clone();
        let mut builder = SessionBuilder::from_config(&config).with_shared_data(train, test);
        if config.max_threads == 0 {
            builder = builder.threads(inner_threads);
        }
        let result = builder.build().run();
        if progress {
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            let (run, secs) = (progress_label(&config), start.elapsed().as_secs_f64());
            eprintln!("# sweep {n}/{total}: {run} done in {secs:.1}s");
        }
        result
    })
}

/// What a `--progress` line says about the run: algorithm, dataset, β, CR
/// and, when one is set, the uplink codec override.
fn progress_label(config: &ExperimentConfig) -> String {
    let codec = config.codec_label();
    let codec = if codec.is_empty() {
        codec
    } else {
        format!(" codec={codec}")
    };
    format!(
        "{} {} beta={} cr={}{codec}",
        config.algorithm.name(),
        config.dataset.name(),
        config.beta,
        config.compression_ratio,
    )
}

/// A cartesian grid of experiment configurations. Each [`axis`](Self::axis)
/// call expands every configuration so far into one per value, so the first
/// axis is the outermost loop and the nesting order is the call order (the
/// paper's tables read population → dataset → β → CR → algorithm → codec →
/// … → seed). Fields no axis sets keep the base configuration's value.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    configs: Vec<ExperimentConfig>,
}

impl SweepGrid {
    /// A single-point grid at the base configuration.
    pub fn new(base: ExperimentConfig) -> Self {
        Self {
            configs: vec![base],
        }
    }

    /// Sweep one field: every configuration so far becomes one per value,
    /// with `set` writing the value into it (`.axis([0.1, 0.5], |c, &b|
    /// c.beta = b)`). An empty axis empties the grid.
    pub fn axis<T>(
        mut self,
        values: impl IntoIterator<Item = T>,
        set: fn(&mut ExperimentConfig, &T),
    ) -> Self {
        let values: Vec<T> = values.into_iter().collect();
        let expand = |config: ExperimentConfig| {
            values.iter().map(move |value| {
                let mut c = config.clone();
                set(&mut c, value);
                c
            })
        };
        self.configs = self.configs.into_iter().flat_map(expand).collect();
        self
    }

    /// Number of configurations in the grid.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when some axis was empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The grid's configurations, outermost axis first.
    pub fn configs(&self) -> Vec<ExperimentConfig> {
        self.configs.clone()
    }

    /// Run the whole grid with the default thread count.
    pub fn run(&self) -> Vec<ExperimentResult> {
        run_sweep_threaded(&self.configs, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm::{FedAvg, TopK};
    use crate::policy::AdaptivePlanSpec;
    use crate::runner::run_experiment;
    use fl_compress::{CompressorSpec, LayerPlan};
    use fl_netsim::ScenarioSpec;

    fn quick_base() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick(TopK);
        c.rounds = 3;
        c.max_threads = 1;
        c
    }

    /// The fields the axes below set, as `N β CR algorithm server_lr codec
    /// scenario`.
    fn key(c: &ExperimentConfig) -> String {
        let scenario = c.scenario.as_ref().map_or("static", |s| s.name());
        format!(
            "{} {} {} {} {} {} {scenario}",
            c.num_clients,
            c.beta,
            c.compression_ratio,
            c.algorithm.name(),
            c.server_lr,
            c.codec_label(),
        )
    }

    #[test]
    fn axes_nest_in_call_order_over_the_base() {
        let grid = || SweepGrid::new(quick_base());
        let algorithms = |g: SweepGrid| g.axis([FedAvg, TopK], |c, &a| c.algorithm = a);
        let populations = |g: SweepGrid| g.axis([10, 1_000], |c, &n| c.num_clients = n);
        let cases: Vec<(SweepGrid, &[usize], &[&str])> = vec![
            // No axes: exactly the base.
            (grid(), &[], &["10 0.5 0.1 topk 1  static"]),
            // The first axis is the outermost loop...
            (
                algorithms(populations(grid())),
                &[2, 2],
                &[
                    "10 0.5 0.1 fedavg 1  static",
                    "10 0.5 0.1 topk 1  static",
                    "1000 0.5 0.1 fedavg 1  static",
                    "1000 0.5 0.1 topk 1  static",
                ],
            ),
            // ...whichever axis that is.
            (
                populations(algorithms(grid())),
                &[2, 2],
                &[
                    "10 0.5 0.1 fedavg 1  static",
                    "1000 0.5 0.1 fedavg 1  static",
                    "10 0.5 0.1 topk 1  static",
                    "1000 0.5 0.1 topk 1  static",
                ],
            ),
            (
                grid()
                    .axis([0.1, 0.5], |c, &b| c.beta = b)
                    .axis([0.1, 0.01], |c, &cr| c.compression_ratio = cr)
                    .axis([1.0, 0.5, 0.25], |c, &lr| c.server_lr = lr),
                &[2, 2, 3],
                &[
                    "10 0.1 0.1 topk 1  static",
                    "10 0.1 0.1 topk 0.5  static",
                    "10 0.1 0.1 topk 0.25  static",
                    "10 0.1 0.01 topk 1  static",
                    "10 0.1 0.01 topk 0.5  static",
                    "10 0.1 0.01 topk 0.25  static",
                    "10 0.5 0.1 topk 1  static",
                    "10 0.5 0.1 topk 0.5  static",
                    "10 0.5 0.1 topk 0.25  static",
                    "10 0.5 0.01 topk 1  static",
                    "10 0.5 0.01 topk 0.5  static",
                    "10 0.5 0.01 topk 0.25  static",
                ],
            ),
            // Option-valued fields take `None` beside specs.
            (
                algorithms(grid())
                    .axis([None, Some("topk+qsgd:4".parse().unwrap())], |c, s| {
                        c.compressor = s.clone()
                    })
                    .axis([None, Some("churn:leave=0.1".parse().unwrap())], |c, s| {
                        c.scenario = s.clone()
                    }),
                &[2, 2, 2],
                &[
                    "10 0.5 0.1 fedavg 1  static",
                    "10 0.5 0.1 fedavg 1  churn",
                    "10 0.5 0.1 fedavg 1 topk+qsgd:4 static",
                    "10 0.5 0.1 fedavg 1 topk+qsgd:4 churn",
                    "10 0.5 0.1 topk 1  static",
                    "10 0.5 0.1 topk 1  churn",
                    "10 0.5 0.1 topk 1 topk+qsgd:4 static",
                    "10 0.5 0.1 topk 1 topk+qsgd:4 churn",
                ],
            ),
            // An empty axis empties the grid, wherever it comes.
            (
                algorithms(grid().axis([], |c, &b: &f64| c.beta = b)),
                &[0, 2],
                &[],
            ),
        ];
        let base = quick_base();
        for (grid, sizes, expected) in cases {
            let configs = grid.configs();
            let keys: Vec<String> = configs.iter().map(key).collect();
            assert_eq!(keys, expected);
            assert_eq!(grid.len(), sizes.iter().product::<usize>());
            assert_eq!(grid.is_empty(), expected.is_empty());
            // Every field no axis set keeps the base value.
            for mut c in configs {
                c.num_clients = base.num_clients;
                c.beta = base.beta;
                c.compression_ratio = base.compression_ratio;
                c.algorithm = base.algorithm;
                c.server_lr = base.server_lr;
                c.compressor = None;
                c.scenario = None;
                assert_eq!(format!("{c:?}"), format!("{base:?}"));
            }
        }
    }

    #[test]
    fn grid_covers_the_cartesian_product_in_order() {
        let grid = SweepGrid::new(quick_base())
            .axis([0.1, 0.5], |c, &b| c.beta = b)
            .axis([0.1, 0.01], |c, &cr| c.compression_ratio = cr)
            .axis([FedAvg, TopK], |c, &a| c.algorithm = a);
        assert_eq!(grid.len(), 8);
        let configs = grid.configs();
        assert_eq!(configs.len(), 8);
        // beta is the outer axis, then ratio, then algorithm.
        assert_eq!(configs[0].beta, 0.1);
        assert_eq!(configs[0].compression_ratio, 0.1);
        assert_eq!(configs[0].algorithm, FedAvg);
        assert_eq!(configs[1].algorithm, TopK);
        assert_eq!(configs[2].compression_ratio, 0.01);
        assert_eq!(configs[4].beta, 0.5);
    }

    #[test]
    fn client_count_axis_is_the_outermost_loop() {
        let grid = SweepGrid::new(quick_base())
            .axis([10, 1_000], |c, &n| c.num_clients = n)
            .axis([FedAvg, TopK], |c, &a| c.algorithm = a);
        assert_eq!(grid.len(), 4);
        let configs = grid.configs();
        assert_eq!(configs[0].num_clients, 10);
        assert_eq!(configs[1].num_clients, 10);
        assert_eq!(configs[2].num_clients, 1_000);
        assert_eq!(configs[2].algorithm, FedAvg);
        assert_eq!(configs[3].algorithm, TopK);
        // Participation is untouched, so the cohort scales with N.
        assert_eq!(configs[0].participation, configs[2].participation);
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // The default grid keeps the base population.
        assert_eq!(
            SweepGrid::new(quick_base()).configs()[0].num_clients,
            quick_base().num_clients
        );
    }

    #[test]
    fn compressor_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .axis(
                [
                    "topk+qsgd:4".parse::<CompressorSpec>().unwrap(),
                    "qsgd:8".parse().unwrap(),
                ],
                |c, s| c.compressor = Some(s.clone()),
            )
            .axis([0.1, 0.05], |c, &cr| c.compression_ratio = cr);
        assert_eq!(grid.len(), 4);
        let configs = grid.configs();
        assert_eq!(
            configs[0].compressor.as_ref().unwrap().to_string(),
            "topk+qsgd:4"
        );
        assert_eq!(
            configs[2].compressor.as_ref().unwrap().to_string(),
            "qsgd:8"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // The default grid keeps the base's (absent) override.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .compressor
            .is_none());
    }

    #[test]
    fn layer_plan_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .axis(
                [
                    None,
                    Some("*.bias=dense;*=topk".parse().unwrap()),
                    Some("*=topk+qsgd:4".parse().unwrap()),
                ],
                |c, p| c.layer_compressors = p.clone(),
            )
            .axis([0.1, 0.05], |c, &cr| c.compression_ratio = cr);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        assert!(configs[0].layer_compressors.is_none());
        assert_eq!(
            configs[2].layer_compressors.as_ref().unwrap().to_string(),
            "*.bias=dense;*=topk"
        );
        assert_eq!(
            configs[4].layer_compressors.as_ref().unwrap().to_string(),
            "*=topk+qsgd:4"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // A bare-plan axis wraps each value itself.
        let owned = SweepGrid::new(quick_base())
            .axis(["*=topk".parse::<LayerPlan>().unwrap()], |c, p| {
                c.layer_compressors = Some(p.clone())
            });
        assert!(owned.configs()[0].layer_compressors.is_some());
        // The default grid keeps the base's (absent) plan.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .layer_compressors
            .is_none());
    }

    #[test]
    fn adaptive_plan_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .axis(
                [
                    None,
                    Some("layer-bcrs".parse().unwrap()),
                    Some("layer-bcrs:efficiency=0.5".parse().unwrap()),
                ],
                |c, p| c.adaptive_plan = p.clone(),
            )
            .axis([0.1, 0.05], |c, &cr| c.compression_ratio = cr);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        assert!(configs[0].adaptive_plan.is_none());
        assert_eq!(
            configs[2].adaptive_plan.as_ref().unwrap().to_string(),
            "layer-bcrs"
        );
        assert_eq!(
            configs[4].adaptive_plan.as_ref().unwrap().to_string(),
            "layer-bcrs:efficiency=0.5"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // A bare-spec axis wraps each value itself.
        let owned = SweepGrid::new(quick_base()).axis(
            ["layer-bcrs".parse::<AdaptivePlanSpec>().unwrap()],
            |c, p| c.adaptive_plan = Some(p.clone()),
        );
        assert!(owned.configs()[0].adaptive_plan.is_some());
        // The default grid keeps the base's (absent) adaptive policy.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .adaptive_plan
            .is_none());
    }

    #[test]
    fn downlink_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .axis(
                [
                    None,
                    Some("topk".parse().unwrap()),
                    Some("ef-topk".parse().unwrap()),
                ],
                |c, s| c.downlink_compressor = s.clone(),
            )
            .axis([0.1, 0.05], |c, &cr| c.compression_ratio = cr);
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        assert!(configs[0].downlink_compressor.is_none());
        assert_eq!(
            configs[2].downlink_compressor.as_ref().unwrap().to_string(),
            "topk"
        );
        assert_eq!(
            configs[4].downlink_compressor.as_ref().unwrap().to_string(),
            "ef-topk"
        );
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // The default grid keeps the base's (absent) downlink codec.
        assert!(SweepGrid::new(quick_base()).configs()[0]
            .downlink_compressor
            .is_none());
    }

    #[test]
    fn scenario_axis_expands_the_grid() {
        let grid = SweepGrid::new(quick_base())
            .axis([FedAvg, TopK], |c, &a| c.algorithm = a)
            .axis(
                [
                    None,
                    Some("diurnal".parse().unwrap()),
                    Some("churn:leave=0.1".parse().unwrap()),
                ],
                |c, s| c.scenario = s.clone(),
            );
        assert_eq!(grid.len(), 6);
        let configs = grid.configs();
        // Scenario is the inner axis: the static baseline and both dynamic
        // fleets appear per algorithm.
        assert!(configs[0].scenario.is_none());
        assert_eq!(configs[1].scenario.as_ref().unwrap().name(), "diurnal");
        assert_eq!(configs[2].scenario.as_ref().unwrap().name(), "churn");
        assert_eq!(configs[3].algorithm, TopK);
        assert!(configs[3].scenario.is_none());
        assert!(configs.iter().all(|c| c.validate().is_ok()));
        // A bare-spec axis wraps each value itself; the default grid keeps
        // the base's (absent) scenario.
        let owned = SweepGrid::new(quick_base())
            .axis(["towers".parse::<ScenarioSpec>().unwrap()], |c, s| {
                c.scenario = Some(s.clone())
            });
        assert!(owned.configs()[0].scenario.is_some());
        assert!(SweepGrid::new(quick_base()).configs()[0].scenario.is_none());
    }

    #[test]
    fn progress_label_names_every_codec_knob() {
        let label = |set: fn(&mut ExperimentConfig)| {
            let mut c = quick_base();
            set(&mut c);
            progress_label(&c)
        };
        let prefix = "topk cifar10-like beta=0.5 cr=0.1";
        assert_eq!(label(|_| {}), prefix);
        for (set, codec) in [
            (
                (|c| c.compressor = Some("qsgd:8".parse().unwrap())) as fn(&mut ExperimentConfig),
                "qsgd:8",
            ),
            (
                |c| c.layer_compressors = Some("*=topk".parse().unwrap()),
                "*=topk",
            ),
            (
                |c| c.adaptive_plan = Some("layer-bcrs".parse().unwrap()),
                "layer-bcrs",
            ),
        ] {
            assert_eq!(label(set), format!("{prefix} codec={codec}"));
        }
    }

    #[test]
    fn sweep_matches_sequential_runs() {
        let configs = SweepGrid::new(quick_base())
            .axis([FedAvg, TopK], |c, &a| c.algorithm = a)
            .configs();
        let swept = run_sweep_threaded(&configs, 4);
        for (config, result) in configs.iter().zip(swept.iter()) {
            let sequential = run_experiment(config);
            assert_eq!(result.records, sequential.records, "{:?}", config.algorithm);
        }
    }

    #[test]
    fn sweep_thread_count_does_not_change_results() {
        let configs = SweepGrid::new(quick_base())
            .axis([0.1, 0.05], |c, &cr| c.compression_ratio = cr)
            .configs();
        let serial = run_sweep_threaded(&configs, 1);
        let parallel = run_sweep_threaded(&configs, 4);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn sweep_does_not_mutate_the_reported_config() {
        // The inner thread cap is applied through the session builder, not by
        // rewriting the config, so reported results match the input grid.
        let mut base = quick_base();
        base.max_threads = 0;
        base.rounds = 2;
        let results = SweepGrid::new(base).run();
        assert_eq!(results[0].config.max_threads, 0);
    }

    #[test]
    fn shared_dataset_generation_deduplicates() {
        // Configs differing only in algorithm share one dataset key; one with
        // a different seed does not.
        let configs = SweepGrid::new(quick_base())
            .axis([FedAvg, TopK], |c, &a| c.algorithm = a)
            .axis([42, 43], |c, &s| c.seed = s)
            .configs();
        let keys: Vec<DataKey> = configs.iter().map(data_key).collect();
        assert_eq!(keys[0], keys[2]);
        assert_ne!(keys[0], keys[1]);
    }
}
