//! Round-record fingerprint regression: the full training + compression +
//! communication trajectory of every algorithm, under both the flat codec
//! path and a genuinely mixed layer plan (`Segmented` framing), plus four
//! codec-path rows, thirteen round-engine rows (scenarios, a
//! replayed trace, an error-feedback layer plan, plan-driven downlinks,
//! `randk` and `threshold:τ` specs, `eval_every`, three pricing arms) and
//! eight 30-round `long/*` rows that reach a trained model, hashed field by
//! field and pinned by name in `tests/fixtures/pins.txt`.
//!
//! Any change to training numerics, codec bytes, aggregation order, or the
//! simulated communication model shows up here as a hash mismatch. Each run
//! pins four things that move for different reasons: [`fingerprint`] (every
//! record field), [`schedule_fingerprint`] (who was selected, at which ratio,
//! plan epochs, analytic times — nothing a float kernel reaches), the final
//! accuracy to within [`pins::ACCURACY_TOLERANCE`], and
//! [`training_fingerprint`] (accuracy, losses, ratios and selection, no
//! bytes). A change to training arithmetic may move the full and training
//! hashes, never the schedule hash; a change to what goes on the wire may
//! move the full hash, never the training hash. The entropy-coded rows also
//! pin [`trajectory_fingerprint`], which their byte layout cannot move. The
//! hashes hold in debug and release and with or without hardware FMA (CI runs
//! all three): the matmul tile's fused step is exactly specified.
//!
//! To re-pin after an *intentional* change, run every pinning test with the
//! one switch and review the diff:
//!
//! ```sh
//! PIN_BLESS=1 cargo test --release -p bwfl -p fl-compress -p fl-data --test fingerprints --test roundtrip_prop --test generator_digest
//! git diff tests/fixtures/pins.txt
//! ```

#[path = "common/pins.rs"]
mod pins;

use bwfl::prelude::*;
use pins::{Fnv, Row};

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::TopKOpwa,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
];

fn hash_selected(h: &mut Fnv, clients: &[usize]) {
    h.usize(clients.len());
    for &c in clients {
        h.usize(c);
    }
}

fn hash_overlap(h: &mut Fnv, overlap: &Option<OverlapStats>) {
    match overlap {
        None => h.u64(0),
        Some(o) => {
            h.u64(1);
            h.usize(o.cohort_size);
            h.u64(o.total_retained);
            h.usize(o.histogram_counts.len());
            for &c in &o.histogram_counts {
                h.u64(c);
            }
            for &f in &o.fractions {
                h.f64(f);
            }
        }
    }
}

/// Hash every field of every record. Destructured without a rest pattern so
/// that adding a `RoundRecord` field is a compile error here rather than a
/// silently unfingerprinted field (same trick as the struct's `PartialEq`).
fn fingerprint(records: &[RoundRecord]) -> u64 {
    let mut h = Fnv::new();
    h.usize(records.len());
    for r in records {
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
        } = r;
        h.usize(*round);
        h.f64(*test_accuracy);
        h.f64(*test_loss);
        h.f64(*train_loss);
        h.f64(*mean_compression_ratio);
        h.usize(*uplink_bytes);
        h.usize(*downlink_bytes);
        h.f64(*comm_actual_s);
        h.f64(*comm_max_s);
        h.f64(*comm_min_s);
        h.f64(*cumulative_actual_s);
        h.f64(*cumulative_max_s);
        h.f64(*cumulative_min_s);
        hash_selected(&mut h, selected_clients);
        hash_overlap(&mut h, overlap);
        match layer_bytes {
            None => h.u64(0),
            Some(layers) => {
                h.u64(1);
                h.usize(layers.len());
                for l in layers {
                    h.bytes(l.layer.as_bytes());
                    h.usize(l.uplink_bytes);
                    h.usize(l.downlink_bytes);
                }
            }
        }
        // Unlike the tags above, `scenario: None` hashes *nothing*: the
        // field postdates the first pins, and static-fleet runs
        // must keep their original fingerprints.
        if let Some(t) = scenario {
            h.u64(1);
            h.usize(t.available);
            h.usize(t.joined);
            h.usize(t.departed);
            h.usize(t.link_changes);
        }
        // Same post-pin rule as `scenario`: `plan: None` (every static run)
        // hashes nothing, so the pins predating adaptive plans stay
        // valid.
        if let Some(p) = plan {
            h.u64(1);
            h.bytes(p.policy.as_bytes());
            h.bytes(p.plan.as_bytes());
            h.u64(p.epoch);
            h.usize(p.assignments.len());
            for a in &p.assignments {
                h.bytes(a.segment.as_bytes());
                h.bytes(a.spec.as_bytes());
                h.f64(a.ratio);
            }
        }
    }
    h.0
}

/// Hash only the fields that do not depend on how many bytes an update took
/// on the wire: what was trained, what was selected, what the server
/// decoded. Two codecs that quantize identically but lay the bytes out
/// differently (`qsgd:4` vs `qsgd:4:rc`, or two entropy back ends) share this
/// hash while their full [`fingerprint`]s differ.
fn trajectory_fingerprint(records: &[RoundRecord]) -> u64 {
    let mut h = Fnv::new();
    h.usize(records.len());
    for r in records {
        h.usize(r.round);
        h.f64(r.test_accuracy);
        h.f64(r.test_loss);
        h.f64(r.train_loss);
        h.f64(r.mean_compression_ratio);
        hash_selected(&mut h, &r.selected_clients);
        hash_overlap(&mut h, &r.overlap);
        h.usize(r.downlink_bytes);
    }
    h.0
}

/// Hash only what training produced: per round, the test accuracy and loss,
/// the train loss, the mean compression ratio and the selected clients — no
/// bytes, no times priced from bytes, no overlap counts. A change to how an
/// update is laid out on the wire, or to which of its coordinates the wire
/// carries when the dropped ones decode to `0.0` anyway, moves
/// [`fingerprint`] and must leave this untouched.
fn training_fingerprint(records: &[RoundRecord]) -> u64 {
    let mut h = Fnv::new();
    h.usize(records.len());
    for r in records {
        h.usize(r.round);
        h.f64(r.test_accuracy);
        h.f64(r.test_loss);
        h.f64(r.train_loss);
        h.f64(r.mean_compression_ratio);
        hash_selected(&mut h, &r.selected_clients);
    }
    h.0
}

/// Hash only what no floating-point kernel can reach: who was selected, at
/// which ratio, the scenario and plan-epoch telemetry, and — when the run is
/// priced analytically, from link draws and ratios alone — the simulated
/// times. A change to training arithmetic moves [`fingerprint`] and must
/// leave this untouched.
fn schedule_fingerprint(records: &[RoundRecord], analytic: bool) -> u64 {
    let mut h = Fnv::new();
    h.usize(records.len());
    for r in records {
        h.usize(r.round);
        hash_selected(&mut h, &r.selected_clients);
        h.f64(r.mean_compression_ratio);
        if let Some(t) = &r.scenario {
            h.u64(1);
            h.usize(t.available);
            h.usize(t.joined);
            h.usize(t.departed);
            h.usize(t.link_changes);
        }
        if let Some(p) = &r.plan {
            h.u64(1);
            h.bytes(p.policy.as_bytes());
            h.u64(p.epoch);
        }
        if analytic {
            h.f64(r.comm_actual_s);
            h.f64(r.comm_max_s);
            h.f64(r.comm_min_s);
            h.f64(r.cumulative_actual_s);
            h.f64(r.cumulative_max_s);
            h.f64(r.cumulative_min_s);
        }
    }
    h.0
}

fn parse<T: std::str::FromStr>(spec: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    spec.parse().expect("pinned spec parses")
}

/// Every pinned session run, by its manifest name.
fn cases() -> Vec<(String, ExperimentConfig)> {
    let mut cases = Vec::new();
    // The static matrix: each algorithm on its own codec (`flat`), then
    // through a mixed all-sparse layer plan (`planned`), which pins the
    // `Segmented` wire kind and per-layer bytes too. The plan *is* the
    // uplink codec, so the three plain sparsifier algorithms share one
    // planned trajectory — pinned anyway, as three routes into that path.
    for (path, plan) in [("flat", None), ("planned", Some("*.bias=randk;*=topk"))] {
        for algorithm in ALL_ALGORITHMS {
            let mut c = ExperimentConfig::quick(algorithm);
            c.rounds = 3;
            c.num_clients = 16;
            c.layer_compressors = plan.map(parse);
            cases.push((format!("{}/{path}", algorithm.name()), c));
        }
    }

    // The codec paths the static matrix never reaches: `EfTopK` quick runs
    // at `CostBasis::Encoded`, long enough (and with few enough clients)
    // that error-feedback residuals parked by one round are restored and
    // re-selected by a later one.
    fn codec(
        name: &str,
        num_clients: usize,
        rounds: usize,
        set: fn(&mut ExperimentConfig),
    ) -> (String, ExperimentConfig) {
        let mut c = ExperimentConfig::quick(Algorithm::EfTopK);
        c.num_clients = num_clients;
        c.participation = 0.5;
        c.rounds = rounds;
        c.cost_basis = CostBasis::Encoded;
        set(&mut c);
        (name.to_string(), c)
    }
    cases.extend([
        // Entropy-coded composed EF uplink, quantized EF downlink, and a
        // cohort of 40 > AGG_SHARD so the sharded aggregation tree has two
        // shards.
        codec(
            "codec/ef-topk+qsgd:4:rc|down=ef-topk+qsgd:8|cohort40",
            80,
            4,
            |c| {
                c.compressor = Some(parse("ef-topk+qsgd:4:rc"));
                c.downlink_compressor = Some(parse("ef-topk+qsgd:8"));
            },
        ),
        // Adaptive per-layer plan (segmented frames, plan epochs, residuals
        // parked under one epoch restored under the next) with a segmented
        // EF downlink; 8 of 16 clients a round for 8 rounds, so every
        // client's residual is restored several times.
        codec(
            "codec/layer-bcrs|down=*.bias=dense;*=ef-topk+qsgd:8",
            16,
            8,
            |c| {
                c.downlink_layer_compressors = Some(parse("*.bias=dense;*=ef-topk+qsgd:8"));
                c.adaptive_plan = Some(parse("layer-bcrs"));
            },
        ),
        // Error feedback over a pure quantizer, whose sent update keeps every
        // coordinate.
        codec("codec/ef-qsgd:4:rc", 16, 4, |c| {
            c.compressor = Some(parse("ef-qsgd:4:rc"))
        }),
        // Quantile threshold sparsifier under a bit-packed quantizer.
        codec("codec/ef-threshold+qsgd:6", 16, 4, |c| {
            c.compressor = Some(parse("ef-threshold+qsgd:6"))
        }),
    ]);

    // The round-engine paths the first two never reach — scenario-driven
    // cohorts (every generator and a replayed trace), an error-feedback
    // `layer_compressors` plan beside dense biases, plan-driven and flat downlinks, `randk` and
    // `threshold:τ` as `compressor` specs, a sparse evaluation schedule and
    // BCRS priced on encoded bytes: 16-client, 6-round quick runs, `encoded`
    // ones priced on encoded bytes.
    fn engine(
        name: &str,
        algorithm: Algorithm,
        encoded: bool,
        set: fn(&mut ExperimentConfig),
    ) -> (String, ExperimentConfig) {
        let mut c = ExperimentConfig::quick(algorithm);
        c.num_clients = 16;
        c.rounds = 6;
        if encoded {
            c.cost_basis = CostBasis::Encoded;
        }
        set(&mut c);
        (name.to_string(), c)
    }
    use Algorithm::*;
    cases.extend([
        engine("engine/diurnal", BcrsOpwa, false, |c| {
            c.scenario = Some(parse("diurnal"))
        }),
        engine("engine/churn:leave=0.05", EfTopK, false, |c| {
            c.scenario = Some(parse("churn:leave=0.05"))
        }),
        engine(
            "engine/layer_compressors=*.bias=dense;*=ef-topk",
            TopK,
            false,
            |c| c.layer_compressors = Some(parse("*.bias=dense;*=ef-topk")),
        ),
        engine(
            "engine/topk+qsgd:4|down=*=ef-topk|encoded",
            TopK,
            true,
            |c| {
                c.compressor = Some(parse("topk+qsgd:4"));
                c.downlink_layer_compressors = Some(parse("*=ef-topk"));
            },
        ),
        engine("engine/tiered", Bcrs, false, |c| {
            c.scenario = Some(parse("tiered"))
        }),
        engine("engine/towers", BcrsOpwa, false, |c| {
            c.scenario = Some(parse("towers"))
        }),
        // The committed golden trace, replayed (16 clients, 6 rounds).
        engine("engine/trace:towers_n16_seed7", TopK, false, |c| {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/towers_n16_seed7.trace"
            );
            c.scenario = Some(parse(&format!("trace:{path}")));
        }),
        engine("engine/compressor=randk", TopK, false, |c| {
            c.compressor = Some(parse("randk"))
        }),
        engine(
            "engine/compressor=threshold:0.01|encoded",
            TopK,
            true,
            |c| c.compressor = Some(parse("threshold:0.01")),
        ),
        engine("engine/eval_every=2", BcrsOpwa, false, |c| c.eval_every = 2),
        // A dense upload plus an analytic downlink.
        engine("engine/fedavg|down=ef-topk", FedAvg, false, |c| {
            c.downlink_compressor = Some(parse("ef-topk"))
        }),
        engine("engine/bcrs+opwa|down=topk+qsgd:8", BcrsOpwa, false, |c| {
            c.downlink_compressor = Some(parse("topk+qsgd:8"))
        }),
        engine("engine/bcrs|encoded", Bcrs, true, |_| {}),
    ]);

    // Trained models: every algorithm, and the adaptive per-layer plan, for
    // 30 rounds on 64 clients — long enough to reach the late rounds (and
    // accuracies of 0.4–0.85) that the short rows above never get to.
    fn long(algorithm: Algorithm) -> ExperimentConfig {
        let mut c = ExperimentConfig::quick(algorithm);
        c.num_clients = 64;
        c.participation = 0.25;
        c.dataset_scale = 0.4;
        c.local_lr = 0.2;
        c.compression_ratio = 0.05;
        c.rounds = 30;
        c.seed = 42;
        c
    }
    for algorithm in ALL_ALGORITHMS {
        cases.push((format!("long/{}", algorithm.name()), long(algorithm)));
    }
    let mut layer_bcrs = long(EfTopK);
    layer_bcrs.adaptive_plan = Some(parse("layer-bcrs"));
    cases.push(("long/layer-bcrs".to_string(), layer_bcrs));
    cases
}

/// Run the cases `owns` accepts and check their rows against the manifest.
fn check_cases(owns: fn(&str) -> bool) {
    let got: Vec<Row> = cases()
        .into_iter()
        .filter(|(name, _)| owns(name))
        .map(|(name, config)| {
            let records = SessionBuilder::from_config(&config)
                .threads(1)
                .build()
                .run()
                .records;
            let analytic = config.cost_basis == CostBasis::Analytic;
            let accuracy = records.last().expect("a run has records").test_accuracy;
            let row = Row::new(&name)
                .hash("full", fingerprint(&records))
                .hash("schedule", schedule_fingerprint(&records, analytic))
                .hash("training", training_fingerprint(&records))
                .accuracy(accuracy);
            // The entropy-coded rows also pin what their bytes cannot move.
            if name.contains(":rc") {
                row.hash("trajectory", trajectory_fingerprint(&records))
            } else {
                row
            }
        })
        .collect();
    pins::check(owns, &got);
}

/// The static matrix owns every manifest row no other test claims, so a
/// stray row fails here.
#[test]
fn round_record_fingerprints_are_pinned() {
    check_cases(|name| {
        !["codec/", "engine/", "shape/", "digest/", "kaiming/"]
            .iter()
            .any(|prefix| name.starts_with(prefix))
    });
}

#[test]
fn codec_path_fingerprints_are_pinned() {
    check_cases(|name| name.starts_with("codec/"));
}

#[test]
fn engine_path_fingerprints_are_pinned() {
    check_cases(|name| name.starts_with("engine/"));
}

#[test]
fn entropy_coded_session_matches_bit_packed_session_in_fewer_bytes() {
    // The session-level twin of `fl-compress`'s
    // `entropy_quantized_decodes_bit_identically_to_packed`: same quantizer,
    // two byte layouts, priced on encoded bytes. Every round trains, selects
    // and evaluates identically; only the uplink byte count — strictly
    // smaller under `:rc` — and the times priced from it may differ.
    let run = |spec: &str| {
        let mut config = ExperimentConfig::quick(Algorithm::EfTopK);
        config.num_clients = 16;
        config.participation = 0.5;
        config.rounds = 4;
        config.cost_basis = CostBasis::Encoded;
        config.compressor = Some(spec.parse().expect("spec parses"));
        config.validate().expect("config is valid");
        SessionBuilder::from_config(&config)
            .threads(1)
            .build()
            .run()
            .records
    };
    let rc = run("ef-topk+qsgd:4:rc");
    let packed = run("ef-topk+qsgd:4");
    assert_eq!(rc.len(), packed.len());
    for (a, b) in rc.iter().zip(&packed) {
        assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits());
        assert_eq!(a.test_loss.to_bits(), b.test_loss.to_bits());
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        assert_eq!(a.selected_clients, b.selected_clients);
        assert!(
            a.uplink_bytes < b.uplink_bytes,
            "round {}: entropy-coded uplink {} >= bit-packed {}",
            a.round,
            a.uplink_bytes,
            b.uplink_bytes
        );
    }
    assert_eq!(trajectory_fingerprint(&rc), trajectory_fingerprint(&packed));
}

/// The manifest helper's comparison and rewrite, on an in-memory manifest.
mod manifest {
    use super::pins::{bless, compare, Row, MANIFEST};

    const PINNED: &str = "# a comment\n\
                          a/one full=0x0000000000000001 accuracy=0.13\n\
                          other/row full=0x00000000000000ff\n\
                          a/two full=0x0000000000000002 accuracy=0.5\n";

    fn owns(name: &str) -> bool {
        name.starts_with("a/")
    }

    fn got() -> Vec<Row> {
        vec![
            Row::new("a/one").hash("full", 1).accuracy(0.13),
            Row::new("a/two").hash("full", 2).accuracy(0.5),
        ]
    }

    #[test]
    fn matching_rows_pass() {
        assert_eq!(compare(PINNED, owns, &got()), Vec::<String>::new());
    }

    #[test]
    fn a_missing_row_fails_by_name() {
        let mut got = got();
        got.push(Row::new("a/three").hash("full", 3));
        assert_eq!(
            compare(PINNED, owns, &got),
            ["a/three: computed, not pinned"]
        );
    }

    #[test]
    fn an_extra_row_fails_by_name() {
        let problems = compare(PINNED, owns, &got()[..1]);
        assert_eq!(problems, ["a/two: pinned, not computed"]);
    }

    #[test]
    fn a_mismatched_hash_fails_by_name() {
        let mut got = got();
        got[1] = Row::new("a/two").hash("full", 3).accuracy(0.5);
        assert_eq!(
            compare(PINNED, owns, &got),
            ["a/two: full is 0x0000000000000003, pinned 0x0000000000000002"]
        );
    }

    #[test]
    fn a_duplicate_name_fails_by_name() {
        let twice = format!("{PINNED}a/one full=0x0000000000000001 accuracy=0.13\n");
        assert_eq!(compare(&twice, owns, &got()), ["a/one: pinned twice"]);
    }

    #[test]
    fn accuracy_holds_to_the_tolerance() {
        let at = |accuracy: f64| {
            let mut got = got();
            got[0] = Row::new("a/one").hash("full", 1).accuracy(accuracy);
            compare(PINNED, owns, &got)
        };
        assert!(at(0.15).is_empty(), "0.02 away is inside");
        assert!(at(0.11).is_empty(), "0.02 away is inside");
        assert_eq!(at(0.1501), ["a/one: accuracy is 0.1501, pinned 0.13"]);
    }

    #[test]
    fn bless_rewrites_only_what_moved() {
        let got = vec![
            Row::new("a/new").hash("full", 9),
            Row::new("a/one").hash("full", 7).accuracy(0.14),
        ];
        assert_eq!(
            bless(PINNED, owns, &got),
            "# a comment\n\
             a/one full=0x0000000000000007 accuracy=0.13\n\
             other/row full=0x00000000000000ff\n\
             a/new full=0x0000000000000009\n"
        );
    }

    #[test]
    fn the_committed_manifest_rewrites_byte_identically() {
        let rows: Vec<Row> = MANIFEST.lines().filter_map(Row::parse).collect();
        assert_eq!(compare(MANIFEST, |_| true, &rows), Vec::<String>::new());
        assert_eq!(bless(MANIFEST, |_| true, &rows), MANIFEST);
    }
}
