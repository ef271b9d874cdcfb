//! Experiment entry points and result types.
//!
//! The round-by-round mechanics live in the [`crate::session`] /
//! [`crate::round`] engine; this module keeps the stable public surface —
//! [`run_experiment`], the per-round [`RoundRecord`] and the aggregate
//! [`ExperimentResult`] — as thin wrappers over a [`crate::session::FederatedSession`] built
//! from the configuration.

use crate::client::build_model;
use crate::config::ExperimentConfig;
use crate::eval::evaluate;
use crate::overlap::OverlapStats;
use crate::session::SessionBuilder;
use fl_data::{Dataset, PartitionStats};
use fl_netsim::{RoundBreakdown, ScenarioTelemetry};
use fl_nn::{try_unflatten_params, LayoutError, Sequential};
use fl_tensor::rng::Xoshiro256;

/// One layer's share of a round's encoded traffic, reported when the uplink
/// (or downlink) codec framed its payload per segment — i.e. when a genuinely
/// mixed [`fl_compress::LayerPlan`] is active. Byte counts are the nested
/// per-segment wire payloads; the `Segmented` framing overhead is the
/// difference to the record's total and stays charged on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerBytes {
    /// Segment name from the model's [`fl_nn::ParamLayout`]
    /// (`linear0.weight`, …).
    pub layer: String,
    /// Total encoded uplink bytes this round's cohort spent on the segment.
    pub uplink_bytes: usize,
    /// Encoded bytes of the segment in this round's broadcast buffer (0
    /// unless the downlink codec also framed per segment).
    pub downlink_bytes: usize,
}

/// The plan decision an adaptive plan policy made for one round, recorded
/// into [`RoundRecord::plan`] so per-layer decisions are inspectable
/// (`None` whenever `config.adaptive_plan` is `None` — the static,
/// fingerprint-pinned path records exactly what it always has).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanTelemetry {
    /// The deciding policy's name (`"static"` / `"layer-bcrs"`).
    pub policy: String,
    /// The resolved plan string (`"linear0.weight=ef-topk+qsgd:8;…"`).
    pub plan: String,
    /// The plan epoch the cohort encoded under. Bumped whenever the decision
    /// changes the codec layout, driving lazy error-feedback residual
    /// migration; a `static:` plan stays at epoch 1 for the whole run.
    pub epoch: u64,
    /// Per-segment assignments (spec + effective ratio), in layout order.
    pub assignments: Vec<crate::policy::PlanAssignment>,
}

/// Everything recorded about one communication round.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Global-model accuracy on the held-out test set after this round
    /// (the most recent evaluation when `eval_every > 1`; NaN before the
    /// first evaluation point).
    pub test_accuracy: f64,
    /// Global-model loss on the test set after this round.
    pub test_loss: f64,
    /// Mean local training loss over the selected clients.
    pub train_loss: f64,
    /// Mean compression ratio actually used by the cohort this round.
    pub mean_compression_ratio: f64,
    /// Total bytes the cohort's encoded (wire-format) uploads occupied this
    /// round — the honest byte count the codec pipeline produced, recorded
    /// under both cost bases. Under `CostBasis::Encoded` the communication
    /// times are priced from exactly these buffers.
    pub uplink_bytes: usize,
    /// Bytes of this round's encoded server→client broadcast buffer (the
    /// downlink leg; every recipient receives the same buffer, so this is the
    /// buffer length, not a per-client sum). 0 when no
    /// `downlink_compressor` is configured — the broadcast is then teleported
    /// for free, exactly as the paper's analytic model assumes. Under
    /// `CostBasis::Encoded` each selected client's download of exactly these
    /// bytes joins the round's straggler bound.
    pub downlink_bytes: usize,
    /// This round's communication time under the evaluated algorithm (straggler).
    pub comm_actual_s: f64,
    /// This round's straggler time for an uncompressed transfer.
    pub comm_max_s: f64,
    /// This round's fastest client time under the evaluated algorithm.
    pub comm_min_s: f64,
    /// Cumulative actual communication time up to and including this round.
    pub cumulative_actual_s: f64,
    /// Cumulative uncompressed straggler time.
    pub cumulative_max_s: f64,
    /// Cumulative fastest-client time.
    pub cumulative_min_s: f64,
    /// Clients selected this round.
    pub selected_clients: Vec<usize>,
    /// Degree-of-overlap distribution of this round's sparse updates (present
    /// when OPWA is active or `record_overlap` is set).
    pub overlap: Option<OverlapStats>,
    /// Per-layer breakdown of this round's encoded bytes, present when a
    /// mixed layer plan framed the uploads per segment (`None` on the flat
    /// codec path — including uniform plans, which collapse to it).
    pub layer_bytes: Option<Vec<LayerBytes>>,
    /// Participation/churn telemetry of the fleet scenario, present when the
    /// configuration runs one (`config.scenario`); `None` under the paper's
    /// static fleet.
    pub scenario: Option<ScenarioTelemetry>,
    /// The adaptive plan policy's decision for this round, present when
    /// `config.adaptive_plan` is set; `None` on every static path.
    pub plan: Option<PlanTelemetry>,
}

impl PartialEq for RoundRecord {
    /// Bitwise equality: floating-point fields compare by their bit pattern,
    /// so NaN placeholders from `eval_every`-skipped rounds compare equal
    /// between two identical runs (the determinism regression tests rely on
    /// `records == records` meaning "bit-identical trajectories"). Both sides
    /// are destructured without a rest pattern so adding a field to
    /// `RoundRecord` is a compile error here instead of a silently untested
    /// field.
    fn eq(&self, other: &Self) -> bool {
        fn bits(x: f64) -> u64 {
            x.to_bits()
        }
        let RoundRecord {
            round,
            test_accuracy,
            test_loss,
            train_loss,
            mean_compression_ratio,
            uplink_bytes,
            downlink_bytes,
            comm_actual_s,
            comm_max_s,
            comm_min_s,
            cumulative_actual_s,
            cumulative_max_s,
            cumulative_min_s,
            selected_clients,
            overlap,
            layer_bytes,
            scenario,
            plan,
        } = other;
        self.round == *round
            && bits(self.test_accuracy) == bits(*test_accuracy)
            && bits(self.test_loss) == bits(*test_loss)
            && bits(self.train_loss) == bits(*train_loss)
            && bits(self.mean_compression_ratio) == bits(*mean_compression_ratio)
            && self.uplink_bytes == *uplink_bytes
            && self.downlink_bytes == *downlink_bytes
            && bits(self.comm_actual_s) == bits(*comm_actual_s)
            && bits(self.comm_max_s) == bits(*comm_max_s)
            && bits(self.comm_min_s) == bits(*comm_min_s)
            && bits(self.cumulative_actual_s) == bits(*cumulative_actual_s)
            && bits(self.cumulative_max_s) == bits(*cumulative_max_s)
            && bits(self.cumulative_min_s) == bits(*cumulative_min_s)
            && self.selected_clients == *selected_clients
            && self.overlap == *overlap
            && self.layer_bytes == *layer_bytes
            && self.scenario == *scenario
            && self.plan == *plan
    }
}

/// The outcome of a full experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Per-round records, one per communication round.
    pub records: Vec<RoundRecord>,
    /// Test accuracy after the final round.
    pub final_accuracy: f64,
    /// Best test accuracy observed in any round.
    pub best_accuracy: f64,
    /// Number of trainable model parameters.
    pub model_params: usize,
    /// Dense model size in bytes (`V` of the communication model).
    pub model_bytes: usize,
    /// Average per-round time breakdown (the bars of Fig. 6).
    pub breakdown: RoundBreakdown,
    /// Client × class allocation of the training data (Fig. 5).
    pub partition: PartitionStats,
    /// Total wall-clock seconds the simulation itself took.
    pub wall_time_s: f64,
}

impl ExperimentResult {
    /// Test-accuracy series over rounds.
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.test_accuracy).collect()
    }

    /// Cumulative actual communication-time series over rounds.
    pub fn comm_time_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.cumulative_actual_s).collect()
    }

    /// First round (and the cumulative actual / max / min communication time
    /// at that round) where test accuracy reaches `target`. `None` if never.
    /// This is the quantity reported in Table 3.
    pub fn time_to_accuracy(&self, target: f64) -> Option<(usize, f64, f64, f64)> {
        self.records
            .iter()
            .find(|r| r.test_accuracy >= target)
            .map(|r| {
                (
                    r.round,
                    r.cumulative_actual_s,
                    r.cumulative_max_s,
                    r.cumulative_min_s,
                )
            })
    }

    /// Merge the per-round overlap statistics into a single distribution.
    pub fn merged_overlap(&self) -> Option<OverlapStats> {
        let mut merged: Option<OverlapStats> = None;
        for r in &self.records {
            if let Some(o) = &r.overlap {
                match &mut merged {
                    Some(m) => m.merge(o),
                    None => merged = Some(o.clone()),
                }
            }
        }
        merged
    }

    /// CSV dump of the round records
    /// (`round,test_accuracy,test_loss,train_loss,mean_cr,uplink_bytes,downlink_bytes,comm_actual_s,cum_actual_s,cum_max_s,cum_min_s,available_clients,joined,departed,link_changes,plan_policy,plan`).
    /// The `available_clients..link_changes` columns carry the fleet
    /// scenario's telemetry; under the paper's static fleet
    /// (`scenario: None`) they report the full population as available with
    /// zero churn. The trailing two columns carry the adaptive plan policy's
    /// decision (empty whenever `adaptive_plan: None`); plan strings use
    /// `;`/`=` separators only, so rows stay comma-splittable.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,test_accuracy,test_loss,train_loss,mean_cr,uplink_bytes,downlink_bytes,comm_actual_s,cum_actual_s,cum_max_s,cum_min_s,available_clients,joined,departed,link_changes,plan_policy,plan\n",
        );
        for r in &self.records {
            let fleet = r.scenario.unwrap_or(ScenarioTelemetry {
                available: self.config.num_clients,
                joined: 0,
                departed: 0,
                link_changes: 0,
            });
            let (plan_policy, plan) = match &r.plan {
                Some(p) => (p.policy.as_str(), p.plan.as_str()),
                None => ("", ""),
            };
            out.push_str(&format!(
                "{},{:.4},{:.4},{:.4},{:.4},{},{},{:.4},{:.4},{:.4},{:.4},{},{},{},{},{},{}\n",
                r.round,
                r.test_accuracy,
                r.test_loss,
                r.train_loss,
                r.mean_compression_ratio,
                r.uplink_bytes,
                r.downlink_bytes,
                r.comm_actual_s,
                r.cumulative_actual_s,
                r.cumulative_max_s,
                r.cumulative_min_s,
                fleet.available,
                fleet.joined,
                fleet.departed,
                fleet.link_changes,
                plan_policy,
                plan
            ));
        }
        out
    }

    /// Per-layer CSV dump
    /// (`round,layer,uplink_bytes,downlink_bytes,spec,ratio`): one row per
    /// segment per round that recorded a [`RoundRecord::layer_bytes`]
    /// breakdown (rounds on the flat codec path emit nothing). The `spec` and
    /// `ratio` columns carry the adaptive plan policy's per-segment
    /// assignment when one was recorded, and are empty under a static mixed
    /// plan. This is the `--layer-csv` bench output — per-layer decisions
    /// become inspectable without custom parsing.
    pub fn to_layer_csv(&self) -> String {
        let mut out = String::from("round,layer,uplink_bytes,downlink_bytes,spec,ratio\n");
        for r in &self.records {
            let Some(layers) = &r.layer_bytes else {
                continue;
            };
            for lb in layers {
                let assignment = r
                    .plan
                    .as_ref()
                    .and_then(|p| p.assignments.iter().find(|a| a.segment == lb.layer));
                let (spec, ratio) = match assignment {
                    Some(a) => (a.spec.clone(), format!("{:.6}", a.ratio)),
                    None => (String::new(), String::new()),
                };
                out.push_str(&format!(
                    "{},{},{},{},{},{}\n",
                    r.round, lb.layer, lb.uplink_bytes, lb.downlink_bytes, spec, ratio
                ));
            }
        }
        out
    }
}

/// Run an experiment, invoking `on_round` after every communication round.
///
/// This is a thin loop over a [`crate::session::FederatedSession`] built with
/// the configuration's default policies; use [`SessionBuilder`] directly to
/// plug in custom selection, ratio or server-optimizer policies.
pub fn run_experiment_with<F: FnMut(&RoundRecord)>(
    config: &ExperimentConfig,
    on_round: F,
) -> ExperimentResult {
    SessionBuilder::from_config(config)
        .build()
        .run_with(on_round)
}

/// Run an experiment to completion and return its result.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    run_experiment_with(config, |_| {})
}

/// Evaluate an externally trained flat parameter vector on a dataset
/// (convenience for tests and examples that manipulate parameters directly).
/// A vector that does not match the configuration's model layout is rejected
/// with a typed [`LayoutError`] instead of a panic.
pub fn evaluate_params(
    config: &ExperimentConfig,
    params: &[f32],
    dataset: &Dataset,
) -> Result<f64, LayoutError> {
    let mut rng = Xoshiro256::new(config.seed);
    let mut model: Sequential = build_model(
        &config.model,
        dataset.feature_dim(),
        dataset.num_classes(),
        &mut rng,
    );
    try_unflatten_params(&mut model, params)?;
    Ok(evaluate(&model, dataset, config.batch_size.max(64)).accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;

    fn quick(algorithm: Algorithm) -> ExperimentConfig {
        let mut c = ExperimentConfig::quick(algorithm);
        c.rounds = 6;
        c.max_threads = 1;
        c
    }

    #[test]
    fn fedavg_learns_on_quick_config() {
        let mut config = quick(Algorithm::FedAvg);
        config.rounds = 10;
        let result = run_experiment(&config);
        assert_eq!(result.records.len(), 10);
        // 10-class task: random guessing sits at ~0.1; a short FedAvg run must
        // clear it comfortably even on the reduced quick dataset.
        assert!(
            result.best_accuracy > 0.2,
            "accuracy should clear chance level, best was {}",
            result.best_accuracy
        );
        assert!(result.model_params > 0);
        assert_eq!(result.model_bytes, result.model_params * 4);
    }

    #[test]
    fn every_algorithm_runs() {
        for alg in [
            Algorithm::FedAvg,
            Algorithm::TopK,
            Algorithm::EfTopK,
            Algorithm::RandK,
            Algorithm::Bcrs,
            Algorithm::BcrsOpwa,
        ] {
            let mut c = quick(alg);
            c.rounds = 2;
            let r = run_experiment(&c);
            assert_eq!(r.records.len(), 2, "{:?}", alg);
            assert!(r.final_accuracy >= 0.0 && r.final_accuracy <= 1.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let c = quick(Algorithm::BcrsOpwa);
        let a = run_experiment(&c);
        let b = run_experiment(&c);
        assert_eq!(a.accuracy_series(), b.accuracy_series());
        assert_eq!(
            a.records.last().unwrap().cumulative_actual_s,
            b.records.last().unwrap().cumulative_actual_s
        );
    }

    #[test]
    fn thread_count_does_not_change_round_records() {
        // Determinism regression gate: every field of every record must be
        // identical between a sequential and a parallel run of the same seed,
        // for every paper algorithm — including Rand-K, whose per-round
        // coordinate draws now flow through the codec pipeline.
        for alg in [
            Algorithm::FedAvg,
            Algorithm::TopK,
            Algorithm::EfTopK,
            Algorithm::RandK,
            Algorithm::Bcrs,
            Algorithm::BcrsOpwa,
            Algorithm::TopKOpwa,
        ] {
            let mut c = quick(alg);
            c.rounds = 3;
            c.max_threads = 1;
            let sequential = run_experiment(&c);
            c.max_threads = 4;
            let parallel = run_experiment(&c);
            assert_eq!(sequential.records, parallel.records, "{alg:?}");
        }
    }

    #[test]
    fn records_with_nan_placeholders_still_compare_equal() {
        // eval_every = 2 leaves round 0 unevaluated (NaN); bitwise record
        // equality must still hold between two identical runs.
        let mut c = quick(Algorithm::TopK);
        c.rounds = 4;
        c.eval_every = 2;
        let a = run_experiment(&c);
        let b = run_experiment(&c);
        assert!(a.records[0].test_accuracy.is_nan());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn bcrs_round_time_not_worse_than_uniform_topk() {
        // The core BCRS claim: its per-round communication time never exceeds
        // the uniform-compression straggler time at the same base ratio.
        let bcrs = run_experiment(&quick(Algorithm::Bcrs));
        for r in &bcrs.records {
            assert!(
                r.comm_actual_s <= r.comm_max_s + 1e-9,
                "BCRS actual {} should not exceed uncompressed straggler {}",
                r.comm_actual_s,
                r.comm_max_s
            );
        }
        // And its mean CR is at least the base ratio (fast clients send more).
        let mean_cr = bcrs.records[0].mean_compression_ratio;
        assert!(mean_cr >= bcrs.config.compression_ratio - 1e-12);
    }

    #[test]
    fn compressed_algorithms_have_lower_comm_time_than_fedavg() {
        let fedavg = run_experiment(&quick(Algorithm::FedAvg));
        let topk = run_experiment(&quick(Algorithm::TopK));
        assert!(
            topk.records.last().unwrap().cumulative_actual_s
                < fedavg.records.last().unwrap().cumulative_actual_s
        );
    }

    #[test]
    fn opwa_records_overlap_stats() {
        let r = run_experiment(&quick(Algorithm::BcrsOpwa));
        assert!(r.records[0].overlap.is_some());
        let merged = r.merged_overlap().unwrap();
        assert!(merged.total_retained > 0);
        assert_eq!(merged.cohort_size, r.config.clients_per_round());
    }

    #[test]
    fn time_to_accuracy_reports_cumulative_time() {
        let r = run_experiment(&quick(Algorithm::FedAvg));
        // A trivially low target is reached in the first round.
        let hit = r.time_to_accuracy(0.0).unwrap();
        assert_eq!(hit.0, 0);
        assert!(hit.1 > 0.0);
        assert!(r.time_to_accuracy(2.0).is_none());
    }

    #[test]
    fn csv_has_one_row_per_round_plus_header() {
        let r = run_experiment(&quick(Algorithm::TopK));
        assert_eq!(r.to_csv().lines().count(), r.records.len() + 1);
    }

    #[test]
    fn csv_header_names_every_column() {
        let r = run_experiment(&quick(Algorithm::TopK));
        let csv = r.to_csv();
        let header = csv.lines().next().unwrap();
        assert_eq!(
            header,
            "round,test_accuracy,test_loss,train_loss,mean_cr,uplink_bytes,downlink_bytes,comm_actual_s,cum_actual_s,cum_max_s,cum_min_s,available_clients,joined,departed,link_changes,plan_policy,plan"
        );
        // Every row has exactly as many cells as the header.
        let columns = header.split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), columns, "malformed row: {line}");
        }
    }

    #[test]
    fn static_fleet_csv_reports_full_population_and_no_churn() {
        let r = run_experiment(&quick(Algorithm::TopK));
        assert!(r.records.iter().all(|rec| rec.scenario.is_none()));
        let csv = r.to_csv();
        let n = r.config.num_clients;
        for line in csv.lines().skip(1) {
            // Scenario columns report the static fleet; the trailing plan
            // columns are empty without an adaptive plan.
            assert!(line.ends_with(&format!(",{n},0,0,0,,")), "{line}");
        }
    }

    #[test]
    fn layer_csv_is_empty_on_the_flat_codec_path() {
        let r = run_experiment(&quick(Algorithm::TopK));
        assert!(r.records.iter().all(|rec| rec.layer_bytes.is_none()));
        let csv = r.to_layer_csv();
        assert_eq!(csv.lines().count(), 1, "header only: {csv}");
        assert_eq!(
            csv.lines().next().unwrap(),
            "round,layer,uplink_bytes,downlink_bytes,spec,ratio"
        );
    }

    #[test]
    fn layer_csv_rows_match_the_header_column_count() {
        let mut c = quick(Algorithm::TopK);
        c.rounds = 2;
        c.layer_compressors = Some("*.bias=randk;*=topk".parse().unwrap());
        let r = run_experiment(&c);
        assert!(r.records.iter().all(|rec| rec.layer_bytes.is_some()));
        let csv = r.to_layer_csv();
        let header = csv.lines().next().unwrap();
        let columns = header.split(',').count();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        // One row per segment per round.
        let segments = r.records[0].layer_bytes.as_ref().unwrap().len();
        assert_eq!(rows.len(), segments * r.records.len());
        for line in &rows {
            assert_eq!(line.split(',').count(), columns, "malformed row: {line}");
        }
    }

    #[test]
    fn parallel_and_sequential_training_agree() {
        let mut c = quick(Algorithm::TopK);
        c.rounds = 3;
        c.max_threads = 1;
        let seq = run_experiment(&c);
        c.max_threads = 4;
        let par = run_experiment(&c);
        assert_eq!(seq.accuracy_series(), par.accuracy_series());
    }
}
