//! One communication round of the [`FederatedSession`] engine, decomposed
//! into explicit stages (Alg. 1 lines 3–19):
//!
//! 1. **select** — [`crate::policy::select_cohort`] draws the cohort from the
//!    reachable, non-dropped clients (never empty: with nobody up it falls
//!    back to one uniformly drawn client so the round's averages and
//!    stragglers stay defined), and an adaptive plan, when configured,
//!    decides the cohort's per-layer codec plan;
//! 2. **downlink phase** — when a broadcast codec is configured, the server
//!    encodes the global-parameter delta since the last broadcast once into
//!    a [`fl_compress::WireUpdate`]; the selected clients decode it before
//!    training (one shared decode — every recipient gets the same bytes);
//! 3. **local phase** — [`crate::policy::assign_ratios`] gives each client
//!    its ratio, then every selected client trains (from the broadcast view)
//!    and compresses in parallel;
//! 4. **aggregate phase** — overlap analysis, optional OPWA mask, weighted
//!    aggregation and the [`crate::policy::server_step`] global update;
//! 5. **timing phase** — the network simulator prices the round's transfers:
//!    every client's upload, plus its download of the broadcast when the
//!    downlink leg is simulated (the straggler bound covers both legs);
//! 6. **eval phase** — the global model is evaluated on the held-out test set
//!    (every `eval_every` rounds) and the [`RoundRecord`] is assembled.
//!
//! [`FederatedSession::run_round`] threads the stage outputs through in
//! order and returns a [`RoundOutput`].

use crate::aggregate::{
    aggregate_compressed_sharded, aggregate_sparse_sharded, data_fractions_or_uniform,
};
use crate::algorithm::Algorithm;
use crate::bcrs::BcrsSchedule;
use crate::client::{segment_defs, LocalTrainOutput};
use crate::eval::{evaluate_with_threads, Evaluation};
use crate::opwa::OpwaMask;
use crate::overlap::OverlapCounts;
use crate::policy::{
    assign_ratios, layer_bcrs_plan, select_cohort, server_step, static_plan, AdaptivePlanSpec,
    PlanCtx,
};
use crate::runner::{LayerBytes, PlanTelemetry, RoundRecord};
use crate::session::FederatedSession;
use fl_compress::{CompressedUpdate, SparseUpdate};
use fl_netsim::{CostBasis, Link, RoundBreakdown, RoundTiming};
use fl_nn::unflatten_params;
use fl_tensor::parallel::parallel_map;
use std::cmp::Reverse;

/// Everything produced by one round beyond the global-state mutation.
#[derive(Clone, Debug)]
pub struct RoundOutput {
    /// The round's record (also appended to the session's history).
    pub record: RoundRecord,
    /// The BCRS schedule, when the algorithm schedules ratios.
    pub schedule: Option<BcrsSchedule>,
    /// Slowest selected client's local training wall time (seconds).
    pub train_time_s: f64,
    /// Total codec (encode + decode) wall time across the cohort (seconds).
    pub compress_time_s: f64,
    /// Encoded wire size of every selected client's upload, in cohort order
    /// (what [`CostBasis::Encoded`] charges).
    pub uplink_wire_bytes: Vec<usize>,
    /// Encoded wire size of this round's server→client broadcast buffer
    /// (0 when no downlink codec is configured — the broadcast is then
    /// teleported for free, the paper's analytic setting).
    pub downlink_wire_bytes: usize,
}

/// Stage 1 output: the cohort, its links and the adaptive plan's decision.
struct Selection {
    selected: Vec<usize>,
    links: Vec<Link>,
    plan: Option<PlanTelemetry>,
}

/// Stage 2 output: the broadcast leg. `wire_bytes` is `None` when no
/// downlink codec is configured (the broadcast is teleported for free);
/// `segment_bytes` carries the broadcast buffer's per-segment payload sizes
/// when the downlink codec framed it per layer.
struct DownlinkPhase {
    wire_bytes: Option<usize>,
    segment_bytes: Option<Vec<usize>>,
    codec_time_s: f64,
}

/// Stage 3 output: the cohort's decoded updates plus training metrics.
/// `segment_bytes` sums the per-segment payload sizes across the cohort's
/// `Segmented` uploads (present only under a genuinely mixed layer plan).
struct LocalPhase {
    updates: Vec<CompressedUpdate>,
    wire_bytes: Vec<usize>,
    segment_bytes: Option<Vec<usize>>,
    sample_counts: Vec<usize>,
    train_loss: f64,
    max_train_time: f64,
    total_compress_time: f64,
    ratios: Vec<f64>,
    schedule: Option<BcrsSchedule>,
}

/// Stage 4 output: the overlap analysis retained for the record.
struct AggregatePhase {
    overlap: Option<OverlapCounts>,
}

impl FederatedSession {
    /// Execute the next communication round and return its output (a copy of
    /// the record is appended to the session's history). The round counter
    /// advances even past `config.rounds`, so callers may run longer horizons
    /// than the configuration by stepping manually.
    pub fn run_round(&mut self) -> RoundOutput {
        let output = self.step();
        self.records.push(output.record.clone());
        output
    }

    /// Run the round stages without touching the history — the internal
    /// driver for both [`run_round`](Self::run_round) (which clones the
    /// record into the history) and the session's `run_with` loop (which
    /// moves it there after the callback, avoiding a per-round clone).
    pub(crate) fn step(&mut self) -> RoundOutput {
        let round = self.next_round;
        let selection = self.select(round);
        let downlink = self.downlink_phase();
        let local = self.local_phase(&selection);
        let aggregate = self.aggregate_phase(&local);
        let timing = self.timing_phase(&selection, &local, &downlink);
        let output = self.eval_phase(round, selection, local, aggregate, downlink, timing);
        self.next_round += 1;
        output
    }

    /// Stage 1: advance the scenario's fleet to this round, draw the cohort
    /// (see [`select_cohort`]) and snapshot its links, then let the adaptive
    /// plan (if any) decide the round's codec plan.
    fn select(&mut self, round: usize) -> Selection {
        let active = self.scenario.as_mut().map(|handle| {
            handle.advance(round);
            handle.active_clients()
        });
        let selected = select_cohort(
            &mut self.selection_rng,
            self.config.num_clients,
            self.cohort,
            active,
            self.config.dropout_rate,
        );
        // Cohort links honour the scenario's per-round overrides (tier
        // resampling, rejoin links); without a scenario this is exactly the
        // static draw.
        let links: Vec<Link> = match &self.scenario {
            Some(handle) => selected
                .iter()
                .map(|&i| handle.link_for(i, &self.links))
                .collect(),
            None => selected.iter().map(|&i| self.links[i]).collect(),
        };
        let plan = self.plan_phase(&links);
        Selection {
            selected,
            links,
            plan,
        }
    }

    /// Decide the round's plan when `config.adaptive_plan` is set: hand the
    /// round's link snapshot and the previous round's gradient mass to the
    /// configured rule, install the decision as the roster's codec plan for
    /// this round's checkouts, and return it for the record. A no-op on the
    /// static path — no override, no telemetry, bit-identical to
    /// pre-adaptive runs.
    fn plan_phase(&self, links: &[Link]) -> Option<PlanTelemetry> {
        let spec = self.config.adaptive_plan.as_ref()?;
        let segments = segment_defs(&self.layout);
        let ctx = PlanCtx {
            segments: &segments,
            links,
            model_bytes: self.model_bytes as f64,
            base_ratio: self.config.compression_ratio,
            gradient_mass: self.last_gradient_mass.as_deref(),
        };
        let decision = match spec {
            AdaptivePlanSpec::Static(plan) => static_plan(plan, &ctx),
            AdaptivePlanSpec::LayerBcrs { efficiency } => {
                layer_bcrs_plan(&ctx, self.comm, *efficiency)
            }
        };
        let epoch =
            self.roster
                .set_plan_override(decision.plan.clone(), decision.scales, &segments);
        Some(PlanTelemetry {
            policy: spec.name().to_string(),
            plan: decision.plan.to_string(),
            epoch,
            assignments: decision.assignments,
        })
    }

    /// Stage 2: broadcast the global parameters. With a downlink codec the
    /// delta since the previous broadcast is encoded once into real wire
    /// bytes and decoded back into the clients' shared view (error-feedback
    /// state advancing server-side); without one the stage is a no-op and
    /// clients read the server's parameters directly, exactly as the paper's
    /// analytic model assumes.
    fn downlink_phase(&mut self) -> DownlinkPhase {
        match self.downlink.as_mut() {
            Some(channel) => {
                let start = std::time::Instant::now();
                let wire = channel.broadcast(&self.global_params);
                DownlinkPhase {
                    wire_bytes: Some(wire.len()),
                    segment_bytes: wire.segment_byte_lens(),
                    codec_time_s: start.elapsed().as_secs_f64(),
                }
            }
            None => DownlinkPhase {
                wire_bytes: None,
                segment_bytes: None,
                codec_time_s: 0.0,
            },
        }
    }

    /// Stage 3: assign per-client ratios, then train, encode and decode the
    /// cohort in parallel. Clients start from the broadcast view of the
    /// global parameters (identical to the server's parameters unless a
    /// lossy downlink codec is active). Every client encodes its update into
    /// its codec's byte-level wire format in one forward pass (the encoder
    /// never decodes its own bytes); the `decode` below is the server's — the
    /// only decode of that buffer — so the (lossy) update that is aggregated
    /// is what the bytes say, and the encoded length is what
    /// [`CostBasis::Encoded`] charges.
    ///
    /// Two orders are in play. The *hand-out order* — the order
    /// [`parallel_map`]'s workers pull clients in — is descending shard
    /// length (stable, ties by cohort position): local training costs in
    /// proportion to the shard, so the big clients start first and the small
    /// ones fill the tail instead of one worker finishing a straggler alone.
    /// The *cohort order* — the draw's — is what ratios, links, sample
    /// counts, wire sizes and the aggregation's coefficients are indexed by;
    /// the outputs are put back into it before anything reads them, and a
    /// client's work depends on nothing but its own id, stream and residual,
    /// so the hand-out order changes when a client runs and nothing else.
    fn local_phase(&mut self, selection: &Selection) -> LocalPhase {
        let (ratios, schedule) = assign_ratios(
            &self.config,
            self.comm,
            &selection.links,
            self.model_bytes as f64,
        );

        let roster = &self.roster;
        let mut work: Vec<(usize, usize, f64)> = selection
            .selected
            .iter()
            .zip(ratios.iter())
            .enumerate()
            .map(|(pos, (&client_idx, &ratio))| (pos, client_idx, ratio))
            .collect();
        work.sort_by_key(|&(_, client_idx, _)| Reverse(roster.shard_len(client_idx)));
        let global_ref: &[f32] = match &self.downlink {
            Some(channel) => channel.view(),
            None => &self.global_params,
        };
        // Each selected client is materialized from the roster only for its
        // own train/encode/decode slice of the round and checked back in
        // immediately, so at most `threads` full `ClientState`s exist at any
        // instant — the cohort streams through, the population never loads.
        roster.begin_round();
        let mut outputs = parallel_map(work, self.threads, move |(pos, client_idx, ratio)| {
            let mut client = roster.checkout(client_idx);
            let LocalTrainOutput {
                delta,
                train_loss,
                num_samples,
                train_time_s,
                ..
            } = client.local_update(global_ref);
            let c_start = std::time::Instant::now();
            let wire = client.encode(&delta, ratio);
            // The dense delta goes back to its shell here rather than living
            // until the cohort finishes; only the (sparse) update is kept.
            client.recycle_delta(delta);
            let wire_len = wire.len();
            let seg_lens = wire.segment_byte_lens();
            // Server side: reconstruct the update from the received bytes.
            let update = client
                .decode(&wire)
                .expect("a codec must decode its own encoding");
            let compress_time = c_start.elapsed().as_secs_f64();
            roster.checkin(client);
            let trained = (num_samples, train_loss, train_time_s);
            (pos, trained, update, wire_len, seg_lens, compress_time)
        });
        // Back to cohort order before anything below indexes by position.
        outputs.sort_unstable_by_key(|output| output.0);

        let cohort_len = outputs.len();
        let mut updates = Vec::with_capacity(cohort_len);
        let mut wire_bytes = Vec::with_capacity(cohort_len);
        let mut segment_bytes: Option<Vec<usize>> = None;
        let mut sample_counts = Vec::with_capacity(cohort_len);
        let mut loss_sum = 0.0f64;
        let mut max_train_time = 0.0f64;
        let mut total_compress_time = 0.0f64;
        for (_, trained, update, wire_len, seg_lens, compress_time) in outputs {
            let (num_samples, train_loss, train_time_s) = trained;
            sample_counts.push(num_samples);
            loss_sum += train_loss;
            max_train_time = max_train_time.max(train_time_s);
            total_compress_time += compress_time;
            updates.push(update);
            wire_bytes.push(wire_len);
            if let Some(lens) = seg_lens {
                // Every client runs the same plan, so the frames align; sum
                // each segment's payload bytes across the cohort.
                match &mut segment_bytes {
                    Some(acc) if acc.len() == lens.len() => {
                        for (a, l) in acc.iter_mut().zip(lens.iter()) {
                            *a += l;
                        }
                    }
                    Some(_) => {}
                    None => segment_bytes = Some(lens),
                }
            }
        }

        LocalPhase {
            updates,
            wire_bytes,
            segment_bytes,
            sample_counts,
            train_loss: loss_sum / cohort_len as f64,
            max_train_time,
            total_compress_time,
            ratios,
            schedule,
        }
    }

    /// Stage 4: compute averaging coefficients (Eq. 6 under BCRS), apply the
    /// OPWA mask when active, aggregate, and take the server step on the
    /// global parameters. Overlap analysis and OPWA apply when the whole
    /// cohort decoded to sparse updates (quantized codecs retain every
    /// coordinate, so overlap degrees are not defined for them).
    ///
    /// Aggregation reduces over a fixed-shard tree
    /// ([`crate::aggregate::AGG_SHARD`] clients per shard): shard partials
    /// compute in parallel and merge in shard order, so the result is
    /// invariant to the thread count and — for cohorts of at most one shard —
    /// bit-identical to the legacy serial fold.
    fn aggregate_phase(&mut self, local: &LocalPhase) -> AggregatePhase {
        // At population scale whole cohorts can own zero samples (bounded
        // synthetic dataset, 10^5+ clients); they fall back to uniform
        // weights instead of 0/0.
        let fractions = data_fractions_or_uniform(&local.sample_counts);
        let coefficients: Vec<f64> =
            match (&local.schedule, self.config.disable_coefficient_adjustment) {
                (Some(s), false) => s.adjusted_coefficients(&fractions, self.config.alpha),
                _ => fractions,
            };

        let all_sparse = local.updates.iter().all(|u| u.as_sparse().is_some());
        let (overlap, aggregated) = if all_sparse {
            let sparse_refs: Vec<&SparseUpdate> = local
                .updates
                .iter()
                .map(|u| u.as_sparse().expect("checked all_sparse"))
                .collect();
            let need_overlap = self.config.algorithm.uses_opwa() || self.config.record_overlap;
            let overlap = if need_overlap {
                Some(OverlapCounts::from_updates(&sparse_refs))
            } else {
                None
            };
            let mask = if self.config.algorithm.uses_opwa() {
                overlap.as_ref().map(|c| {
                    OpwaMask::from_overlap(c, self.config.gamma, self.config.overlap_threshold)
                })
            } else {
                None
            };
            let aggregated =
                aggregate_sparse_sharded(&sparse_refs, &coefficients, mask.as_ref(), self.threads);
            (overlap, aggregated)
        } else {
            let refs: Vec<&CompressedUpdate> = local.updates.iter().collect();
            (
                None,
                aggregate_compressed_sharded(&refs, &coefficients, None, self.threads),
            )
        };
        // Telemetry for the next round's plan decision: where the aggregated
        // update's mass concentrated, per layout segment. Computed only when
        // `layer-bcrs` reads it — every other path does no extra work.
        if let Some(AdaptivePlanSpec::LayerBcrs { .. }) = self.config.adaptive_plan {
            self.last_gradient_mass = Some(fl_nn::segment_l1_masses(&self.layout, &aggregated));
        }
        server_step(
            &mut self.global_params,
            &mut self.server_velocity,
            &aggregated,
            self.config.server_momentum,
            self.config.server_lr,
        );
        AggregatePhase { overlap }
    }

    /// Stage 5: price the round's transfers under the evaluated algorithm and
    /// under uncompressed transmission, and accumulate the running totals.
    /// Under [`CostBasis::Analytic`] compressed uploads cost the paper's
    /// `2·V·CR` formula (or the BCRS schedule's times); under
    /// [`CostBasis::Encoded`] each upload costs exactly its encoded length.
    ///
    /// When the downlink leg is simulated, every selected client additionally
    /// pays for downloading the broadcast before it can train — analytically
    /// the symmetric `2·V·CR` formula at the base ratio, or the encoded
    /// broadcast buffer's exact length under [`CostBasis::Encoded`] — and the
    /// uncompressed reference pays a dense download, so both sides of the
    /// straggler comparison stay bidirectional.
    fn timing_phase(
        &mut self,
        selection: &Selection,
        local: &LocalPhase,
        downlink: &DownlinkPhase,
    ) -> RoundTiming {
        let model_bytes = self.model_bytes as f64;
        let mut dense_times: Vec<f64> = selection
            .links
            .iter()
            .map(|l| self.comm.dense_uplink_time(l, model_bytes))
            .collect();
        let mut algorithm_times: Vec<f64> = match self.comm.cost_basis {
            CostBasis::Encoded => selection
                .links
                .iter()
                .zip(local.wire_bytes.iter())
                .map(|(l, &b)| self.comm.transfer_time(l, b as f64))
                .collect(),
            CostBasis::Analytic => match &local.schedule {
                Some(s) => s.scheduled_times.clone(),
                None if self.config.algorithm == Algorithm::FedAvg => dense_times.clone(),
                None => selection
                    .links
                    .iter()
                    .zip(local.ratios.iter())
                    .map(|(l, &r)| self.comm.sparse_uplink_time(l, model_bytes, r))
                    .collect(),
            },
        };
        let mut downlink_straggler_s = 0.0f64;
        if let Some(bytes) = downlink.wire_bytes {
            for ((alg, dense), link) in algorithm_times
                .iter_mut()
                .zip(dense_times.iter_mut())
                .zip(selection.links.iter())
            {
                let down = match self.comm.cost_basis {
                    CostBasis::Encoded => self.comm.transfer_time(link, bytes as f64),
                    CostBasis::Analytic => self.comm.sparse_downlink_time(
                        link,
                        model_bytes,
                        self.config.compression_ratio,
                    ),
                };
                *alg += down;
                *dense += self.comm.dense_downlink_time(link, model_bytes);
                downlink_straggler_s = downlink_straggler_s.max(down);
            }
        }
        let timing = RoundTiming::from_client_times(&algorithm_times, &dense_times);
        self.time_acc.push(timing);
        self.breakdown_total.accumulate(&RoundBreakdown {
            compress_s: local.total_compress_time + downlink.codec_time_s,
            training_s: local.max_train_time,
            uncompressed_comm_s: timing.max,
            scheduled_comm_s: timing.actual,
            downlink_comm_s: downlink_straggler_s,
        });
        timing
    }

    /// Stage 6: evaluate the new global model (every `eval_every` rounds and
    /// always on the final configured round; skipped rounds repeat the most
    /// recent evaluation, NaN before the first) and assemble the record.
    fn eval_phase(
        &mut self,
        round: usize,
        selection: Selection,
        local: LocalPhase,
        aggregate: AggregatePhase,
        downlink: DownlinkPhase,
        timing: RoundTiming,
    ) -> RoundOutput {
        let eval_every = self.config.eval_every.max(1);
        let should_eval = (round + 1).is_multiple_of(eval_every) || round + 1 == self.config.rounds;
        if should_eval {
            unflatten_params(&mut self.global_model, &self.global_params);
            self.last_eval = Some(evaluate_with_threads(
                &self.global_model,
                &self.test,
                self.config.batch_size.max(64),
                self.threads,
            ));
        }
        let eval = self.last_eval.unwrap_or(Evaluation {
            loss: f64::NAN,
            accuracy: f64::NAN,
        });

        // Per-layer byte breakdown, present when any of this round's wires
        // was a `Segmented` frame whose parts align with the model layout
        // (i.e. a genuinely mixed layer plan ran on that leg).
        let names: Vec<&str> = self.layout.names().collect();
        let aligned = |v: &Option<Vec<usize>>| -> Option<Vec<usize>> {
            v.as_ref().filter(|v| v.len() == names.len()).cloned()
        };
        let layer_bytes = match (
            aligned(&local.segment_bytes),
            aligned(&downlink.segment_bytes),
        ) {
            (None, None) => None,
            (up, down) => Some(
                names
                    .iter()
                    .enumerate()
                    .map(|(i, name)| LayerBytes {
                        layer: (*name).to_string(),
                        uplink_bytes: up.as_ref().map_or(0, |v| v[i]),
                        downlink_bytes: down.as_ref().map_or(0, |v| v[i]),
                    })
                    .collect(),
            ),
        };

        let record = RoundRecord {
            round,
            test_accuracy: eval.accuracy,
            test_loss: eval.loss,
            train_loss: local.train_loss,
            mean_compression_ratio: local.ratios.iter().sum::<f64>() / local.ratios.len() as f64,
            uplink_bytes: local.wire_bytes.iter().sum(),
            downlink_bytes: downlink.wire_bytes.unwrap_or(0),
            comm_actual_s: timing.actual,
            comm_max_s: timing.max,
            comm_min_s: timing.min,
            cumulative_actual_s: self.time_acc.total_actual(),
            cumulative_max_s: self.time_acc.total_max(),
            cumulative_min_s: self.time_acc.total_min(),
            selected_clients: selection.selected,
            overlap: aggregate.overlap.map(|c| c.stats()),
            layer_bytes,
            scenario: self.scenario.as_ref().map(|h| h.telemetry()),
            plan: selection.plan,
        };
        RoundOutput {
            record,
            schedule: local.schedule,
            train_time_s: local.max_train_time,
            compress_time_s: local.total_compress_time + downlink.codec_time_s,
            uplink_wire_bytes: local.wire_bytes,
            downlink_wire_bytes: downlink.wire_bytes.unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithm::Algorithm;
    use crate::config::ExperimentConfig;
    use crate::session::FederatedSession;
    use fl_netsim::CostBasis;

    #[test]
    fn record_reports_the_exact_encoded_bytes() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 2;
        config.max_threads = 1;
        config.cost_basis = CostBasis::Encoded;
        let mut session = FederatedSession::from_config(&config);
        let out = session.run_round();
        // The record's uplink byte count is exactly the sum of the encoded
        // buffers' lengths.
        assert_eq!(
            out.record.uplink_bytes,
            out.uplink_wire_bytes.iter().sum::<usize>()
        );
        assert_eq!(
            out.uplink_wire_bytes.len(),
            out.record.selected_clients.len()
        );
        assert!(out.uplink_wire_bytes.iter().all(|&b| b > 0));
        // Under the encoded basis, every timing quantity is priced from those
        // buffers: the straggler time is the max per-client transfer time of
        // the actual wire lengths.
        let times: Vec<f64> = out
            .record
            .selected_clients
            .iter()
            .zip(out.uplink_wire_bytes.iter())
            .map(|(&cid, &bytes)| {
                session
                    .comm
                    .transfer_time(&session.links[cid], bytes as f64)
            })
            .collect();
        let expected_max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let expected_min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(out.record.comm_actual_s.to_bits(), expected_max.to_bits());
        assert_eq!(out.record.comm_min_s.to_bits(), expected_min.to_bits());
    }

    #[test]
    fn cost_basis_changes_timing_but_not_training() {
        let mut analytic = ExperimentConfig::quick(Algorithm::TopK);
        analytic.rounds = 3;
        analytic.max_threads = 1;
        let mut encoded = analytic.clone();
        encoded.cost_basis = CostBasis::Encoded;
        let a = FederatedSession::from_config(&analytic).run();
        let e = FederatedSession::from_config(&encoded).run();
        for (ra, re) in a.records.iter().zip(e.records.iter()) {
            // Same trajectory and same honest byte accounting either way…
            assert_eq!(ra.test_accuracy.to_bits(), re.test_accuracy.to_bits());
            assert_eq!(ra.selected_clients, re.selected_clients);
            assert_eq!(ra.uplink_bytes, re.uplink_bytes);
            // …but the priced time differs: the analytic 2·V·CR formula vs
            // the varint-compressed real buffers.
            assert_ne!(ra.comm_actual_s.to_bits(), re.comm_actual_s.to_bits());
        }
    }

    #[test]
    fn quantized_codec_runs_through_the_round_engine() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 2;
        config.max_threads = 1;
        config.compressor = Some("qsgd:8".parse().unwrap());
        config.cost_basis = CostBasis::Encoded;
        let mut session = FederatedSession::from_config(&config);
        let out = session.run_round();
        // 8 bits/coordinate: the dense quantized upload is about a quarter of
        // the f32 model per client.
        let per_client = out.record.uplink_bytes / out.record.selected_clients.len();
        let dense = session.model_bytes();
        assert!(per_client < dense / 3, "{per_client} vs dense {dense}");
        assert!(per_client > dense / 8);
        // And the session keeps training (a second round works).
        let out2 = session.run_round();
        assert_eq!(out2.record.round, 1);
    }

    #[test]
    fn composed_codec_keeps_opwa_overlap_analysis() {
        // A sparsify+quantize codec still decodes to sparse updates, so the
        // OPWA overlap histogram stays available.
        let mut config = ExperimentConfig::quick(Algorithm::TopKOpwa);
        config.rounds = 1;
        config.max_threads = 1;
        config.compressor = Some("topk+qsgd:6".parse().unwrap());
        let out = FederatedSession::from_config(&config).run_round();
        assert!(out.record.overlap.is_some());

        // A dense quantized codec has no overlap degrees to analyse, so the
        // OPWA combination is rejected up front instead of silently degrading
        // to plain averaging.
        config.compressor = Some("qsgd:8".parse().unwrap());
        let err = config.validate().unwrap_err();
        assert!(err.contains("OPWA"), "{err}");
    }

    #[test]
    fn fedavg_encoded_bytes_are_dense_not_sparse() {
        // The ratio-1.0 upload ships the dense wire kind: ~4 bytes per
        // coordinate plus a fixed header, never the ~5+ bytes/coordinate of
        // the sparse index+value format — so under the encoded basis FedAvg
        // is charged honest dense bytes and stays at its own straggler bound.
        let mut config = ExperimentConfig::quick(Algorithm::FedAvg);
        config.rounds = 1;
        config.max_threads = 1;
        config.cost_basis = CostBasis::Encoded;
        let mut session = FederatedSession::from_config(&config);
        let dense = session.model_bytes();
        let out = session.run_round();
        for &bytes in &out.uplink_wire_bytes {
            assert!(bytes >= dense && bytes <= dense + 16, "{bytes} vs {dense}");
        }
        assert!(
            out.record.comm_actual_s <= out.record.comm_max_s * 1.001,
            "FedAvg must not appear slower than its own dense transmission"
        );
    }

    #[test]
    fn no_downlink_codec_records_zero_downlink_bytes() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 1;
        config.max_threads = 1;
        let out = FederatedSession::from_config(&config).run_round();
        assert_eq!(out.record.downlink_bytes, 0);
        assert_eq!(out.downlink_wire_bytes, 0);
    }

    #[test]
    fn encoded_downlink_bytes_match_the_broadcast_buffer_and_the_clock() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 2;
        config.max_threads = 1;
        config.downlink_compressor = Some("topk".parse().unwrap());
        config.cost_basis = CostBasis::Encoded;
        let mut session = FederatedSession::from_config(&config);
        let out = session.run_round();
        // The record's downlink byte count is exactly the encoded broadcast
        // buffer's length (one buffer — a broadcast, not a per-client sum).
        assert_eq!(out.record.downlink_bytes, out.downlink_wire_bytes);
        assert!(out.record.downlink_bytes > 0);
        // Under the encoded basis each selected client pays its upload plus
        // the download of exactly those broadcast bytes; the record's actual
        // time is the bidirectional straggler, bit for bit.
        let times: Vec<f64> = out
            .record
            .selected_clients
            .iter()
            .zip(out.uplink_wire_bytes.iter())
            .map(|(&cid, &up)| {
                let link = &session.links[cid];
                let up_s = session.comm.transfer_time(link, up as f64);
                up_s + session
                    .comm
                    .transfer_time(link, out.record.downlink_bytes as f64)
            })
            .collect();
        let expected_max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(out.record.comm_actual_s.to_bits(), expected_max.to_bits());
        // The next round broadcasts the freshly aggregated delta: non-empty
        // again, and the session keeps training.
        let out2 = session.run_round();
        assert!(out2.record.downlink_bytes > 0);
        assert_eq!(out2.record.round, 1);
    }

    #[test]
    fn analytic_downlink_charges_the_symmetric_paper_formula() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 1;
        config.max_threads = 1;
        config.downlink_compressor = Some("topk".parse().unwrap());
        let mut session = FederatedSession::from_config(&config);
        let model_bytes = session.model_bytes() as f64;
        let out = session.run_round();
        // downlink_bytes still reports the honest encoded buffer…
        assert!(out.record.downlink_bytes > 0);
        // …but the clock charges the paper's 2·V·CR formula on both legs.
        let times: Vec<f64> = out
            .record
            .selected_clients
            .iter()
            .map(|&cid| {
                let link = &session.links[cid];
                let up_s =
                    session
                        .comm
                        .sparse_uplink_time(link, model_bytes, config.compression_ratio);
                up_s + session.comm.sparse_downlink_time(
                    link,
                    model_bytes,
                    config.compression_ratio,
                )
            })
            .collect();
        let expected_max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(out.record.comm_actual_s.to_bits(), expected_max.to_bits());
        // The uncompressed reference is bidirectional too, so compression
        // still shows a saving.
        assert!(out.record.comm_actual_s < out.record.comm_max_s);
    }

    #[test]
    fn downlink_leg_only_adds_time_and_bytes_under_a_lossless_broadcast() {
        // At compression_ratio 1.0 the Top-K broadcast ships the dense delta
        // exactly, so the clients' view equals the server's parameters and
        // the training trajectory matches the free-broadcast run — only the
        // byte accounting and the clock change.
        let mut free = ExperimentConfig::quick(Algorithm::FedAvg);
        free.rounds = 3;
        free.max_threads = 1;
        free.compression_ratio = 1.0;
        let mut paid = free.clone();
        paid.downlink_compressor = Some("topk".parse().unwrap());
        let a = FederatedSession::from_config(&free).run();
        let b = FederatedSession::from_config(&paid).run();
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.test_accuracy.to_bits(), rb.test_accuracy.to_bits());
            assert_eq!(ra.selected_clients, rb.selected_clients);
            assert_eq!(ra.uplink_bytes, rb.uplink_bytes);
            assert_eq!(ra.downlink_bytes, 0);
            assert!(rb.downlink_bytes > 0);
            assert!(rb.comm_actual_s > ra.comm_actual_s);
        }
    }

    #[test]
    fn lossy_downlink_drifts_but_ef_downlink_still_learns() {
        let mut base = ExperimentConfig::quick(Algorithm::TopK);
        base.rounds = 6;
        base.max_threads = 1;
        let mut lossy = base.clone();
        lossy.downlink_compressor = Some("topk".parse().unwrap());
        let mut ef = base.clone();
        ef.downlink_compressor = Some("ef-topk".parse().unwrap());

        let free_run = FederatedSession::from_config(&base).run();
        let lossy_run = FederatedSession::from_config(&lossy).run();
        let mut ef_session = FederatedSession::from_config(&ef);
        while !ef_session.is_finished() {
            ef_session.run_round();
        }
        // A 10% Top-K broadcast is lossy: clients train from a drifted view,
        // so the trajectory genuinely differs from the free broadcast.
        assert_ne!(
            free_run.accuracy_series(),
            lossy_run
                .records
                .iter()
                .map(|r| r.test_accuracy)
                .collect::<Vec<_>>()
        );
        // The EF broadcast keeps its dropped coordinates server-side…
        assert!(
            ef_session.downlink_residual_norm() > 0.0,
            "EF downlink must accumulate a residual"
        );
        // …and training still works under both lossy broadcasts.
        let ef_run = ef_session.into_result();
        for run in [&lossy_run, &ef_run] {
            assert!(run.final_accuracy > 0.15, "{}", run.final_accuracy);
        }
    }

    #[test]
    fn round_output_carries_schedule_for_bcrs_only() {
        let mut config = ExperimentConfig::quick(Algorithm::Bcrs);
        config.rounds = 1;
        config.max_threads = 1;
        let out = FederatedSession::from_config(&config).run_round();
        assert!(out.schedule.is_some());
        assert!(out.train_time_s >= 0.0);
        assert!(out.compress_time_s >= 0.0);

        config.algorithm = Algorithm::TopK;
        let out = FederatedSession::from_config(&config).run_round();
        assert!(out.schedule.is_none());
    }

    #[test]
    fn uniform_layer_plan_is_bit_identical_to_the_flat_codec() {
        // `"*=S"` collapses to the flat codec `S` on either leg: every field
        // of every record — bytes, times, trajectory — matches the flat path
        // exactly, and no per-layer breakdown appears.
        let mut flat = ExperimentConfig::quick(Algorithm::TopK);
        flat.rounds = 3;
        flat.max_threads = 1;
        flat.cost_basis = CostBasis::Encoded;
        flat.compressor = Some("topk".parse().unwrap());
        flat.downlink_compressor = Some("ef-topk".parse().unwrap());
        let mut uplink = flat.clone();
        uplink.compressor = None;
        uplink.layer_compressors = Some("*=topk".parse().unwrap());
        let mut downlink = flat.clone();
        downlink.downlink_compressor = None;
        downlink.downlink_layer_compressors = Some("*=ef-topk".parse().unwrap());
        let a = FederatedSession::from_config(&flat).run();
        assert!(a.records.iter().all(|r| r.downlink_bytes > 0));
        for planned in [uplink, downlink] {
            let b = FederatedSession::from_config(&planned).run();
            assert_eq!(a.records, b.records);
            assert!(b.records.iter().all(|r| r.layer_bytes.is_none()));
        }
    }

    #[test]
    fn mixed_layer_plan_reports_a_per_layer_breakdown() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 2;
        config.max_threads = 1;
        config.layer_compressors = Some("*.bias=dense;*=topk".parse().unwrap());
        config.cost_basis = CostBasis::Encoded;
        let mut session = FederatedSession::from_config(&config);
        let layout_names: Vec<String> = session.param_layout().names().map(String::from).collect();
        let out = session.run_round();
        let breakdown = out.record.layer_bytes.as_ref().expect("mixed plan");
        // One entry per layout segment, in order, with the uplink totals
        // summing to less than the honest wire total (the difference is the
        // segmented framing overhead, which stays charged on the wire).
        assert_eq!(
            breakdown
                .iter()
                .map(|l| l.layer.clone())
                .collect::<Vec<_>>(),
            layout_names
        );
        let segments_total: usize = breakdown.iter().map(|l| l.uplink_bytes).sum();
        assert!(segments_total > 0);
        assert!(segments_total < out.record.uplink_bytes);
        // No downlink codec: the downlink side of the breakdown is zero.
        assert!(breakdown.iter().all(|l| l.downlink_bytes == 0));
        // Each client's wire carries its framing: overhead grows with the
        // cohort but stays tiny (a few bytes per segment per client).
        let overhead = out.record.uplink_bytes - segments_total;
        let cohort = out.record.selected_clients.len();
        let per_client = overhead / cohort;
        assert!(
            per_client >= 6 && per_client <= 8 + 6 * layout_names.len(),
            "framing overhead {per_client} bytes/client for {} segments",
            layout_names.len()
        );
        // Bias segments ship dense: 4 bytes per coordinate plus a header.
        let layout = session.param_layout().clone();
        for (seg, l) in layout.segments().iter().zip(breakdown.iter()) {
            if l.layer.ends_with(".bias") {
                assert!(
                    l.uplink_bytes >= cohort * seg.len * 4,
                    "{}: {} bytes for {} coords × {cohort} clients",
                    l.layer,
                    l.uplink_bytes,
                    seg.len
                );
            }
        }
    }

    #[test]
    fn mixed_layer_plan_encoded_basis_charges_the_framed_bytes_exactly() {
        // Under the encoded basis every timing quantity is priced from the
        // exact segmented buffers — framing overhead included (asserted
        // against `WireUpdate::len()` via the engine's recorded wire sizes).
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 1;
        config.max_threads = 1;
        config.layer_compressors = Some("*.bias=dense;*=topk".parse().unwrap());
        config.cost_basis = CostBasis::Encoded;
        let mut session = FederatedSession::from_config(&config);
        let out = session.run_round();
        assert_eq!(
            out.record.uplink_bytes,
            out.uplink_wire_bytes.iter().sum::<usize>()
        );
        let times: Vec<f64> = out
            .record
            .selected_clients
            .iter()
            .zip(out.uplink_wire_bytes.iter())
            .map(|(&cid, &bytes)| {
                session
                    .comm
                    .transfer_time(&session.links[cid], bytes as f64)
            })
            .collect();
        let expected_max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(out.record.comm_actual_s.to_bits(), expected_max.to_bits());
    }

    #[test]
    fn mixed_layer_plan_keeps_opwa_overlap_analysis() {
        // All-sparse plans (dense codec segments decode to full-density
        // *sparse* runs) keep the overlap machinery available under OPWA.
        let mut config = ExperimentConfig::quick(Algorithm::TopKOpwa);
        config.rounds = 1;
        config.max_threads = 1;
        config.layer_compressors = Some("*.bias=dense;*=topk".parse().unwrap());
        assert!(config.validate().is_ok());
        let out = FederatedSession::from_config(&config).run_round();
        assert!(out.record.overlap.is_some());
        assert!(out.record.layer_bytes.is_some());
    }

    #[test]
    fn static_adaptive_plan_matches_layer_compressors_bit_for_bit() {
        // `adaptive_plan: static:<plan>` routes every checkout through the
        // plan-override path, but with no ratio scales the codec resolution
        // is exactly the static `layer_compressors` one — every record field
        // except the new plan telemetry must match bit for bit.
        let plan = "*.bias=dense;*=ef-topk";
        let mut fixed = ExperimentConfig::quick(Algorithm::TopK);
        fixed.rounds = 3;
        fixed.max_threads = 1;
        fixed.cost_basis = CostBasis::Encoded;
        fixed.layer_compressors = Some(plan.parse().unwrap());
        let mut adaptive = fixed.clone();
        adaptive.layer_compressors = None;
        adaptive.adaptive_plan = Some(format!("static:{plan}").parse().unwrap());
        let a = FederatedSession::from_config(&fixed).run();
        let b = FederatedSession::from_config(&adaptive).run();
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert!(ra.plan.is_none());
            let telemetry = rb.plan.as_ref().expect("adaptive runs record the plan");
            assert_eq!(telemetry.policy, "static");
            assert_eq!(telemetry.plan, plan);
            assert_eq!(telemetry.epoch, 1, "one plan for the whole run");
            assert_eq!(telemetry.assignments.len(), 6);
            let mut rb = rb.clone();
            rb.plan = None;
            assert_eq!(*ra, rb, "round {}", ra.round);
        }
    }

    #[test]
    fn layer_bcrs_plan_beats_the_uniform_plan_on_encoded_bytes() {
        // The telemetry loop pays off: under the encoded cost basis the
        // adaptive policy's mass-proportional budgets upload strictly fewer
        // bytes than the same run on the uniform EF plan, at equal rounds.
        let mut uniform = ExperimentConfig::quick(Algorithm::TopK);
        uniform.rounds = 4;
        uniform.max_threads = 1;
        uniform.cost_basis = CostBasis::Encoded;
        uniform.layer_compressors = Some("*=ef-topk".parse().unwrap());
        let mut adaptive = uniform.clone();
        adaptive.layer_compressors = None;
        adaptive.adaptive_plan = Some("layer-bcrs".parse().unwrap());
        let u = FederatedSession::from_config(&uniform).run();
        let a = FederatedSession::from_config(&adaptive).run();
        let u_bytes: usize = u.records.iter().map(|r| r.uplink_bytes).sum();
        let a_bytes: usize = a.records.iter().map(|r| r.uplink_bytes).sum();
        assert!(
            a_bytes < u_bytes,
            "adaptive {a_bytes} must beat uniform {u_bytes}"
        );
        // Decisions are visible: per-layer telemetry plus per-layer bytes in
        // every record (scaled plans always frame segments).
        for r in &a.records {
            let telemetry = r.plan.as_ref().expect("plan telemetry");
            assert_eq!(telemetry.policy, "layer-bcrs");
            assert_eq!(telemetry.assignments.len(), 6);
            assert!(telemetry.assignments.iter().all(|s| s.ratio > 0.0));
            assert!(r.layer_bytes.is_some(), "scaled plans are segment-framed");
        }
        // And the model still learns (above the 10-class chance rate after
        // only four heavily quantized rounds).
        assert!(a.final_accuracy > 0.1, "{}", a.final_accuracy);
    }

    #[test]
    fn adaptive_run_is_deterministic() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 3;
        config.max_threads = 1;
        config.cost_basis = CostBasis::Encoded;
        config.adaptive_plan = Some("layer-bcrs:efficiency=0.8".parse().unwrap());
        let a = FederatedSession::from_config(&config).run();
        let b = FederatedSession::from_config(&config).run();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn stepping_past_the_configured_horizon_keeps_going() {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 1;
        config.max_threads = 1;
        let mut session = FederatedSession::from_config(&config);
        let a = session.run_round();
        assert!(session.is_finished());
        let b = session.run_round(); // beyond config.rounds — allowed
        assert_eq!(a.record.round, 0);
        assert_eq!(b.record.round, 1);
        assert_eq!(session.records().len(), 2);
    }
}
