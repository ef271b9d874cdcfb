//! Round-record fingerprint regression: the full training + compression +
//! communication trajectory of every algorithm, under both the flat codec
//! path and a genuinely mixed layer plan (`Segmented` framing), plus four
//! codec-path rows and sixteen round-engine rows (dropout, server momentum,
//! scenarios, a replayed trace, an error-feedback layer plan, plan-driven
//! downlinks, `randk` and `threshold:τ` specs, `eval_every`, three pricing
//! arms), hashed field by field and pinned.
//!
//! Any change to training numerics, codec bytes, aggregation order, or the
//! simulated communication model shows up here as a hash mismatch. The float
//! hashes were last re-captured when the matmul register tile fused its
//! multiply and add (`f32::mul_add`): every trajectory moved once, by that
//! step's single rounding. What that change could *not* move is pinned
//! separately and was captured before it — [`schedule_fingerprint`] (who was
//! selected, at which ratio, plan epochs, analytic times) and each run's
//! final accuracy to within [`ACCURACY_TOLERANCE`] — so a re-capture of the
//! float hashes is checked against something that did not move with them.
//! The hashes hold in debug and release and with or without hardware FMA (CI
//! runs all three): the fused step is exactly specified. Every run also pins
//! a [`training_fingerprint`] — accuracy, losses, ratios and selection, no
//! bytes — so a change that only moves what goes on the wire re-pins the
//! full hashes against something that did not move with them.
//!
//! To re-capture after an *intentional* trajectory change:
//! `FP_PRINT=1 cargo test --release --test fingerprints -- --nocapture`

use bwfl::prelude::*;

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::TopKOpwa,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
];

/// FNV-1a, folded over a canonical little-endian byte stream. Float fields
/// enter via `to_bits`, so the hash pins bit patterns, not approximations.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn selected(&mut self, clients: &[usize]) {
        self.usize(clients.len());
        for &c in clients {
            self.usize(c);
        }
    }
    fn overlap(&mut self, overlap: &Option<OverlapStats>) {
        match overlap {
            None => self.u64(0),
            Some(o) => {
                self.u64(1);
                self.usize(o.cohort_size);
                self.u64(o.total_retained);
                self.usize(o.histogram_counts.len());
                for &c in &o.histogram_counts {
                    self.u64(c);
                }
                for &f in &o.fractions {
                    self.f64(f);
                }
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
        h.selected(selected_clients);
        h.overlap(overlap);
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
        // field postdates the pinned EXPECTED table, and static-fleet runs
        // must keep their original fingerprints.
        if let Some(t) = scenario {
            h.u64(1);
            h.usize(t.available);
            h.usize(t.joined);
            h.usize(t.departed);
            h.usize(t.link_changes);
        }
        // Same post-pin rule as `scenario`: `plan: None` (every static run)
        // hashes nothing, so the EXPECTED table predating adaptive plans
        // stays valid.
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
        h.selected(&r.selected_clients);
        h.overlap(&r.overlap);
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
        h.selected(&r.selected_clients);
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
        h.selected(&r.selected_clients);
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

/// How far a pinned final accuracy may move when the training arithmetic
/// (not the algorithm) changes: two of the quick test set's 100 samples. The
/// `1e-9` keeps `0.13 − 0.11` (not exactly `0.02` in binary) inside.
const ACCURACY_TOLERANCE: f64 = 0.02 + 1e-9;

/// [`training_fingerprint`] of every pinned run, by name: the 14
/// [`EXPECTED`] rows, the 4 [`CODEC_CASES`] and the 16 [`ENGINE_CASES`].
const EXPECTED_TRAINING: &[(&str, u64)] = &[
    ("fedavg/flat", 0x4bd033388251b501),
    ("topk/flat", 0x11e6564c1f0feb92),
    ("eftopk/flat", 0xd224469577e13b2f),
    ("randk/flat", 0x7e49f8ea39d784e3),
    ("topk+opwa/flat", 0xb02b199ca465b0ec),
    ("bcrs/flat", 0x52284fe75689a7c2),
    ("bcrs+opwa/flat", 0x5f89f99dccf0be95),
    ("fedavg/planned", 0xa8c150548ec8e418),
    ("topk/planned", 0x7f2633397f4bbdca),
    ("eftopk/planned", 0x7f2633397f4bbdca),
    ("randk/planned", 0x7f2633397f4bbdca),
    ("topk+opwa/planned", 0x91b6c2a10f89fb29),
    ("bcrs/planned", 0x9b75e5d50947c7f8),
    ("bcrs+opwa/planned", 0xe43ddd4d39dcdb05),
    (
        "codec/ef-topk+qsgd:4:rc|down=ef-topk+qsgd:8|cohort40",
        0xcb07c38943af978e,
    ),
    (
        "codec/layer-bcrs|down=*.bias=dense;*=ef-topk+qsgd:8",
        0x6d8c80743160ae13,
    ),
    ("codec/ef-qsgd:4:rc", 0xf60e81db17cf1acc),
    ("codec/ef-threshold+qsgd:6", 0x3415567dd9314180),
    ("engine/dropout=0.3", 0xb2065737a88860ea),
    ("engine/dropout=0.999", 0x21a9dae36eadb1e5),
    ("engine/server_momentum=0.9", 0x9c969008485436cb),
    ("engine/diurnal|dropout=0.2", 0x8175ea51fa53d38f),
    ("engine/churn:leave=0.05", 0x989276bcd109db37),
    (
        "engine/layer_compressors=*.bias=dense;*=ef-topk",
        0x272113d2c6f8d583,
    ),
    (
        "engine/topk+qsgd:4|down=*=ef-topk|encoded",
        0xdaf16ccb5bfd66ed,
    ),
    ("engine/tiered", 0xbeb9ea75469d4d1f),
    ("engine/towers", 0x3ee931a47a401e43),
    ("engine/trace:towers_n16_seed7", 0xaa3c886d72b43630),
    ("engine/compressor=randk", 0xd69ede3d22555728),
    (
        "engine/compressor=threshold:0.01|encoded",
        0x02308599454825bf,
    ),
    ("engine/eval_every=2", 0x4fab05d07e1a7795),
    ("engine/fedavg|down=ef-topk", 0x0cd60b3f61210b9b),
    ("engine/bcrs+opwa|down=topk+qsgd:8", 0x077ea71bc496538b),
    ("engine/bcrs|encoded", 0xd135ffae21d4cc27),
];

/// Check one run against its [`EXPECTED_TRAINING`] pin.
fn assert_training_pinned(name: &str, records: &[RoundRecord]) {
    let &(_, pin) = EXPECTED_TRAINING
        .iter()
        .find(|(pinned, _)| *pinned == name)
        .unwrap_or_else(|| panic!("{name}: no training pin"));
    assert_eq!(
        training_fingerprint(records),
        pin,
        "{name}: accuracy, loss, ratio or selection moved"
    );
}

/// Print one run's [`EXPECTED_TRAINING`] row under `FP_PRINT`.
fn print_training_pin(name: &str, records: &[RoundRecord]) {
    println!("    ({name:?}, {:#018x}),", training_fingerprint(records));
}

/// Check one run against its `(schedule hash, final test accuracy)` pin.
fn assert_schedule_pinned(name: &str, records: &[RoundRecord], analytic: bool, pin: (u64, f64)) {
    assert_eq!(
        schedule_fingerprint(records, analytic),
        pin.0,
        "{name}: selection, ratios, epochs or analytic times moved"
    );
    let accuracy = records.last().expect("a run has records").test_accuracy;
    assert!(
        (accuracy - pin.1).abs() <= ACCURACY_TOLERANCE,
        "{name}: final accuracy {accuracy} left {} ± 0.02",
        pin.1
    );
}

fn run(algorithm: Algorithm, plan: Option<&str>) -> Vec<RoundRecord> {
    let mut config = ExperimentConfig::quick(algorithm);
    config.rounds = 3;
    config.num_clients = 16;
    if let Some(p) = plan {
        config.layer_compressors = Some(p.parse().expect("fingerprint plan parses"));
    }
    SessionBuilder::from_config(&config)
        .threads(1)
        .build()
        .run()
        .records
}

/// `flat` is the algorithm's own codec; `planned` drives the same algorithm
/// through a mixed all-sparse layer plan, so the `Segmented` wire kind and
/// per-layer byte breakdown are pinned too. Re-captured with the fused
/// matmul tile (see module docs).
const EXPECTED: &[(&str, u64)] = &[
    ("fedavg/flat", 0xe8a6d8ea3df297e4),
    ("topk/flat", 0x39c0d29d18be935c),
    ("eftopk/flat", 0xc02cc5ce0bbc36f3),
    ("randk/flat", 0xa5e532bf5551e276),
    ("topk+opwa/flat", 0x30205b8feb7b2683),
    ("bcrs/flat", 0xe2883127dbaa3e2d),
    ("bcrs+opwa/flat", 0x0c286837df6bbfb0),
    ("fedavg/planned", 0xb148ed5e8c72cefc),
    // The plan *is* the uplink codec, so the three plain sparsifier
    // algorithms collapse to the same planned trajectory — pinned anyway,
    // as three independent routes into the Segmented path.
    ("topk/planned", 0x33a73c6b0388e8d1),
    ("eftopk/planned", 0x33a73c6b0388e8d1),
    ("randk/planned", 0x33a73c6b0388e8d1),
    ("topk+opwa/planned", 0x80299cfee50a5d5c),
    ("bcrs/planned", 0xd5da76cb2c645e58),
    ("bcrs+opwa/planned", 0xd28d48b54a7337d2),
];

const PLAN: &str = "*.bias=randk;*=topk";

/// Second pinned matrix: the codec paths the static 14 never reach. Every row
/// is an `EfTopK` quick run at `CostBasis::Encoded`, long enough (and with
/// few enough clients) that error-feedback residuals parked by one round are
/// restored and re-selected by a later one.
struct CodecCase {
    name: &'static str,
    num_clients: usize,
    participation: f64,
    rounds: usize,
    compressor: Option<&'static str>,
    downlink: Option<&'static str>,
    downlink_plan: Option<&'static str>,
    adaptive_plan: Option<&'static str>,
}

const CODEC_CASES: &[CodecCase] = &[
    // Entropy-coded composed EF uplink, quantized EF downlink, and a cohort
    // of 40 > AGG_SHARD so the sharded aggregation tree has two shards.
    CodecCase {
        name: "codec/ef-topk+qsgd:4:rc|down=ef-topk+qsgd:8|cohort40",
        num_clients: 80,
        participation: 0.5,
        rounds: 4,
        compressor: Some("ef-topk+qsgd:4:rc"),
        downlink: Some("ef-topk+qsgd:8"),
        downlink_plan: None,
        adaptive_plan: None,
    },
    // Adaptive per-layer plan (segmented frames, plan epochs, residuals
    // parked under one epoch restored under the next) with a segmented EF
    // downlink; 8 of 16 clients a round for 8 rounds, so every client's
    // residual is restored several times.
    CodecCase {
        name: "codec/layer-bcrs|down=*.bias=dense;*=ef-topk+qsgd:8",
        num_clients: 16,
        participation: 0.5,
        rounds: 8,
        compressor: None,
        downlink: None,
        downlink_plan: Some("*.bias=dense;*=ef-topk+qsgd:8"),
        adaptive_plan: Some("layer-bcrs"),
    },
    // Error feedback over a dense quantizer: the `Quantized` residual arm.
    CodecCase {
        name: "codec/ef-qsgd:4:rc",
        num_clients: 16,
        participation: 0.5,
        rounds: 4,
        compressor: Some("ef-qsgd:4:rc"),
        downlink: None,
        downlink_plan: None,
        adaptive_plan: None,
    },
    // Quantile threshold sparsifier under a bit-packed quantizer.
    CodecCase {
        name: "codec/ef-threshold+qsgd:6",
        num_clients: 16,
        participation: 0.5,
        rounds: 4,
        compressor: Some("ef-threshold+qsgd:6"),
        downlink: None,
        downlink_plan: None,
        adaptive_plan: None,
    },
];

fn run_codec_case(case: &CodecCase) -> Vec<RoundRecord> {
    let mut config = ExperimentConfig::quick(Algorithm::EfTopK);
    config.num_clients = case.num_clients;
    config.participation = case.participation;
    config.rounds = case.rounds;
    config.cost_basis = CostBasis::Encoded;
    config.compressor = case.compressor.map(|s| s.parse().expect("spec parses"));
    config.downlink_compressor = case.downlink.map(|s| s.parse().expect("spec parses"));
    config.downlink_layer_compressors = case.downlink_plan.map(|s| s.parse().expect("plan parses"));
    config.adaptive_plan = case
        .adaptive_plan
        .map(|s| s.parse().expect("policy parses"));
    config
        .validate()
        .expect("codec fingerprint config is valid");
    SessionBuilder::from_config(&config)
        .threads(1)
        .build()
        .run()
        .records
}

/// Re-captured with the fused matmul tile (see module docs). Before that the
/// two `:rc` rows had moved once on their own, when adaptive-CDF rANS (wire
/// kind 6) replaced the binary range coder (kind 5): their encoded byte
/// counts, and the simulated times priced from them, changed;
/// [`EXPECTED_RC_TRAJECTORY`] did not. The cohort-40 row was re-captured
/// once more, with its trajectory hash and final accuracy but not its
/// schedule hash, when `dirichlet_partition` stopped redrawing: its first
/// draw misses the floor, and the top-up now levels that draw rather than
/// the 100th. The three rows with a sparse quantized leg (all but
/// `ef-qsgd:4:rc`) moved once more, alone, when those frames stopped
/// carrying coordinates of level 0: their byte counts and the times priced
/// from them changed, their [`EXPECTED_TRAINING`] rows did not.
const EXPECTED_CODEC: &[u64] = &[
    0x707f80ddf8fdcadd,
    0x140fb47049917fc1,
    0x65059a0711c22be8,
    0x34d2e91045a3d5ff,
];

/// The `:rc` rows' [`trajectory_fingerprint`]s. The entropy back end may
/// change the bytes — and with them the full hashes above — but never these:
/// quantization, RNG draws and dequantized values do not depend on the byte
/// layout. (They are float hashes all the same, re-captured with the fused
/// matmul tile.) Each also hashes `downlink_bytes`, so the cohort-40 row,
/// with its sparse quantized downlink, moved with its full hash when those
/// frames stopped carrying coordinates of level 0.
const EXPECTED_RC_TRAJECTORY: &[(&str, u64)] = &[
    (
        "codec/ef-topk+qsgd:4:rc|down=ef-topk+qsgd:8|cohort40",
        0x9f8c6a84afb01c33,
    ),
    ("codec/ef-qsgd:4:rc", 0x511a87c14c26ec0c),
];

/// `(schedule hash, final test accuracy)` of the [`EXPECTED`] rows, in their
/// order, captured at 4c39746 — before the matmul tile fused its multiply and
/// add. See [`schedule_fingerprint`].
const EXPECTED_SCHEDULE: &[(u64, f64)] = &[
    (0xcf3ddccc6ad72b7f, 0.13), // fedavg/flat
    (0x9214e1f1f8f74a5e, 0.12), // topk/flat
    (0x9214e1f1f8f74a5e, 0.12), // eftopk/flat
    (0x9214e1f1f8f74a5e, 0.13), // randk/flat
    (0x9214e1f1f8f74a5e, 0.15), // topk+opwa/flat
    (0x404f1561fd43f211, 0.13), // bcrs/flat
    (0x404f1561fd43f211, 0.14), // bcrs+opwa/flat
    (0xcf3ddccc6ad72b7f, 0.12), // fedavg/planned
    (0x9214e1f1f8f74a5e, 0.12), // topk/planned
    (0x9214e1f1f8f74a5e, 0.12), // eftopk/planned
    (0x9214e1f1f8f74a5e, 0.12), // randk/planned
    (0x9214e1f1f8f74a5e, 0.14), // topk+opwa/planned
    (0x404f1561fd43f211, 0.15), // bcrs/planned
    (0x404f1561fd43f211, 0.14), // bcrs+opwa/planned
];

/// The same pins for [`CODEC_CASES`] (priced on encoded bytes, so their
/// simulated times stay out of the hash).
const EXPECTED_CODEC_SCHEDULE: &[(u64, f64)] = &[
    (0x1030fbca7621ae6d, 0.11), // codec/ef-topk+qsgd:4:rc|down=ef-topk+qsgd:8|cohort40
    (0x5cda96196f1737c7, 0.16), // codec/layer-bcrs|down=*.bias=dense;*=ef-topk+qsgd:8
    (0x3b78daed6ef64177, 0.08), // codec/ef-qsgd:4:rc
    (0x3b78daed6ef64177, 0.13), // codec/ef-threshold+qsgd:6
];

/// Third pinned matrix: the round-engine paths the first two never reach —
/// client dropout (at 0.999 the whole fleet is down in most rounds and the
/// cohort falls back to one uniformly drawn client), server momentum,
/// scenario-driven cohorts (every generator and a replayed trace), an
/// error-feedback `layer_compressors` plan beside dense biases, plan-driven
/// and flat downlinks, `randk` and `threshold:τ` as `compressor` specs, a
/// sparse evaluation schedule and BCRS priced on encoded bytes. Every row is
/// a 16-client, 6-round quick run of `algorithm` with `configure` applied;
/// `encoded` rows are priced on encoded bytes.
struct EngineCase {
    name: &'static str,
    algorithm: Algorithm,
    encoded: bool,
    configure: fn(&mut ExperimentConfig),
}

const ENGINE_CASES: &[EngineCase] = &[
    EngineCase {
        name: "engine/dropout=0.3",
        algorithm: Algorithm::Bcrs,
        encoded: false,
        configure: |c| c.dropout_rate = 0.3,
    },
    EngineCase {
        name: "engine/dropout=0.999",
        algorithm: Algorithm::TopK,
        encoded: false,
        configure: |c| c.dropout_rate = 0.999,
    },
    EngineCase {
        name: "engine/server_momentum=0.9",
        algorithm: Algorithm::TopKOpwa,
        encoded: false,
        configure: |c| c.server_momentum = 0.9,
    },
    EngineCase {
        name: "engine/diurnal|dropout=0.2",
        algorithm: Algorithm::BcrsOpwa,
        encoded: false,
        configure: |c| {
            c.scenario = Some("diurnal".parse().expect("scenario parses"));
            c.dropout_rate = 0.2;
        },
    },
    EngineCase {
        name: "engine/churn:leave=0.05",
        algorithm: Algorithm::EfTopK,
        encoded: false,
        configure: |c| c.scenario = Some("churn:leave=0.05".parse().expect("scenario parses")),
    },
    EngineCase {
        name: "engine/layer_compressors=*.bias=dense;*=ef-topk",
        algorithm: Algorithm::TopK,
        encoded: false,
        configure: |c| {
            c.layer_compressors = Some("*.bias=dense;*=ef-topk".parse().expect("plan parses"))
        },
    },
    EngineCase {
        name: "engine/topk+qsgd:4|down=*=ef-topk|encoded",
        algorithm: Algorithm::TopK,
        encoded: true,
        configure: |c| {
            c.compressor = Some("topk+qsgd:4".parse().expect("spec parses"));
            c.downlink_layer_compressors = Some("*=ef-topk".parse().expect("plan parses"));
        },
    },
    EngineCase {
        name: "engine/tiered",
        algorithm: Algorithm::Bcrs,
        encoded: false,
        configure: |c| c.scenario = Some("tiered".parse().expect("scenario parses")),
    },
    EngineCase {
        name: "engine/towers",
        algorithm: Algorithm::BcrsOpwa,
        encoded: false,
        configure: |c| c.scenario = Some("towers".parse().expect("scenario parses")),
    },
    // The committed golden trace, replayed (16 clients, 6 rounds).
    EngineCase {
        name: "engine/trace:towers_n16_seed7",
        algorithm: Algorithm::TopK,
        encoded: false,
        configure: |c| {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/towers_n16_seed7.trace"
            );
            c.scenario = Some(format!("trace:{path}").parse().expect("scenario parses"));
        },
    },
    EngineCase {
        name: "engine/compressor=randk",
        algorithm: Algorithm::TopK,
        encoded: false,
        configure: |c| c.compressor = Some("randk".parse().expect("spec parses")),
    },
    EngineCase {
        name: "engine/compressor=threshold:0.01|encoded",
        algorithm: Algorithm::TopK,
        encoded: true,
        configure: |c| c.compressor = Some("threshold:0.01".parse().expect("spec parses")),
    },
    EngineCase {
        name: "engine/eval_every=2",
        algorithm: Algorithm::BcrsOpwa,
        encoded: false,
        configure: |c| c.eval_every = 2,
    },
    // A dense upload plus an analytic downlink.
    EngineCase {
        name: "engine/fedavg|down=ef-topk",
        algorithm: Algorithm::FedAvg,
        encoded: false,
        configure: |c| c.downlink_compressor = Some("ef-topk".parse().expect("spec parses")),
    },
    EngineCase {
        name: "engine/bcrs+opwa|down=topk+qsgd:8",
        algorithm: Algorithm::BcrsOpwa,
        encoded: false,
        configure: |c| c.downlink_compressor = Some("topk+qsgd:8".parse().expect("spec parses")),
    },
    EngineCase {
        name: "engine/bcrs|encoded",
        algorithm: Algorithm::Bcrs,
        encoded: true,
        configure: |_| {},
    },
];

fn run_engine_case(case: &EngineCase) -> Vec<RoundRecord> {
    let mut config = ExperimentConfig::quick(case.algorithm);
    config.num_clients = 16;
    config.rounds = 6;
    if case.encoded {
        config.cost_basis = CostBasis::Encoded;
    }
    (case.configure)(&mut config);
    config
        .validate()
        .expect("engine fingerprint config is valid");
    SessionBuilder::from_config(&config)
        .threads(1)
        .build()
        .run()
        .records
}

/// `(full hash, schedule hash, final test accuracy)` of [`ENGINE_CASES`], in
/// their order, captured while cohort selection, ratio assignment, the server
/// step and plan choice were still trait-object policies. The two rows with a
/// sparse quantized leg (`topk+qsgd:4` up, `topk+qsgd:8` down) re-pinned their
/// full hashes alone when those frames stopped carrying coordinates of
/// level 0. The `layer_compressors` row was first pinned as the same fixed
/// plan spelled through `adaptive_plan`; when that spelling was retired it
/// re-pinned its full and schedule hashes alone, which had hashed the
/// spelling's plan telemetry — its training hash did not move.
const EXPECTED_ENGINE: &[(u64, u64, f64)] = &[
    (0x55e13ef654e48a47, 0x0604d15401392a02, 0.15), // engine/dropout=0.3
    (0x81517cd897066e16, 0x3a28bab5aa147e65, 0.12), // engine/dropout=0.999
    (0x7aa5825de57f1f1e, 0x62145d1ca90a5f59, 0.21), // engine/server_momentum=0.9
    (0x9143ba6776f7f38b, 0xd5ba940842e2a137, 0.19), // engine/diurnal|dropout=0.2
    (0x87633024a217fff1, 0xfb4fdbfbf02c4751, 0.1),  // engine/churn:leave=0.05
    (0x6449da53e185eaa7, 0x62145d1ca90a5f59, 0.13), // engine/layer_compressors=*.bias=dense;*=ef-topk
    (0x599d771638cab0f5, 0x1ca3ced6df284db1, 0.09), // engine/topk+qsgd:4|down=*=ef-topk|encoded
    (0x8ac2cc0cd7d30035, 0xb019a5e72b39734c, 0.21), // engine/tiered
    (0x43611ed61e33e3ca, 0xee6b39b966231df6, 0.17), // engine/towers
    (0x14e178c16d226508, 0x0660842b3d9ac53d, 0.11), // engine/trace:towers_n16_seed7
    (0x3e440c74dbe2af84, 0x62145d1ca90a5f59, 0.11), // engine/compressor=randk
    (0xfc17ff4dd16c5639, 0x1ca3ced6df284db1, 0.13), // engine/compressor=threshold:0.01|encoded
    (0xd27a63586a185b30, 0x16ff6185a02fbbc9, 0.22), // engine/eval_every=2
    (0x175589bca3685d33, 0x617715aa7081fbd1, 0.12), // engine/fedavg|down=ef-topk
    (0xf718d1a53feb32d3, 0xca2314338d5c97b5, 0.21), // engine/bcrs+opwa|down=topk+qsgd:8
    (0x6cc375eee7313ba6, 0x8c12ea3090a27b7f, 0.21), // engine/bcrs|encoded
];

/// Print one run's `(schedule hash, final accuracy)` pin under `FP_PRINT`.
fn print_schedule_pin(name: &str, records: &[RoundRecord], analytic: bool) {
    println!(
        "    ({:#018x}, {:?}), // {name}",
        schedule_fingerprint(records, analytic),
        records.last().expect("a run has records").test_accuracy
    );
}

#[test]
fn round_record_fingerprints_are_pinned() {
    let mut got = Vec::new();
    for algorithm in ALL_ALGORITHMS {
        got.push((format!("{}/flat", algorithm.name()), run(algorithm, None)));
    }
    for algorithm in ALL_ALGORITHMS {
        got.push((
            format!("{}/planned", algorithm.name()),
            run(algorithm, Some(PLAN)),
        ));
    }
    if std::env::var("FP_PRINT").is_ok() {
        for (name, records) in &got {
            println!("    (\"{name}\", {:#018x}),", fingerprint(records));
        }
        for (name, records) in &got {
            print_schedule_pin(name, records, true);
        }
        for (name, records) in &got {
            print_training_pin(name, records);
        }
        return;
    }
    assert_eq!(got.len(), EXPECTED.len());
    assert_eq!(got.len(), EXPECTED_SCHEDULE.len());
    for (((name, records), (exp_name, exp_fp)), pin) in
        got.iter().zip(EXPECTED).zip(EXPECTED_SCHEDULE)
    {
        assert_eq!(name, exp_name, "fingerprint matrix order changed");
        assert_schedule_pinned(name, records, true, *pin);
        assert_training_pinned(name, records);
        assert_eq!(
            fingerprint(records),
            *exp_fp,
            "{name}: round-record trajectory is no longer bit-identical"
        );
    }
}

#[test]
fn codec_path_fingerprints_are_pinned() {
    let got: Vec<Vec<RoundRecord>> = CODEC_CASES.iter().map(run_codec_case).collect();
    if std::env::var("FP_PRINT").is_ok() {
        for (case, records) in CODEC_CASES.iter().zip(&got) {
            println!("    {:#018x}, // {}", fingerprint(records), case.name);
        }
        for (case, records) in CODEC_CASES.iter().zip(&got) {
            if case.name.contains(":rc") {
                let trajectory = trajectory_fingerprint(records);
                println!("    (\"{}\", {trajectory:#018x}),", case.name);
            }
        }
        for (case, records) in CODEC_CASES.iter().zip(&got) {
            print_schedule_pin(case.name, records, false);
        }
        for (case, records) in CODEC_CASES.iter().zip(&got) {
            print_training_pin(case.name, records);
        }
        return;
    }
    assert_eq!(got.len(), EXPECTED_CODEC.len());
    assert_eq!(got.len(), EXPECTED_CODEC_SCHEDULE.len());
    for (((case, records), exp), pin) in CODEC_CASES
        .iter()
        .zip(&got)
        .zip(EXPECTED_CODEC)
        .zip(EXPECTED_CODEC_SCHEDULE)
    {
        assert_schedule_pinned(case.name, records, false, *pin);
        assert_training_pinned(case.name, records);
        assert_eq!(
            fingerprint(records),
            *exp,
            "{}: round-record trajectory is no longer bit-identical",
            case.name
        );
    }
    for (name, exp) in EXPECTED_RC_TRAJECTORY {
        let at = CODEC_CASES
            .iter()
            .position(|c| c.name == *name)
            .expect("pinned trajectory names a codec case");
        assert_eq!(
            trajectory_fingerprint(&got[at]),
            *exp,
            "{name}: the byte-independent trajectory moved"
        );
    }
}

#[test]
fn engine_path_fingerprints_are_pinned() {
    let got: Vec<Vec<RoundRecord>> = ENGINE_CASES.iter().map(run_engine_case).collect();
    if std::env::var("FP_PRINT").is_ok() {
        for (case, records) in ENGINE_CASES.iter().zip(&got) {
            println!(
                "    ({:#018x}, {:#018x}, {:?}), // {}",
                fingerprint(records),
                schedule_fingerprint(records, !case.encoded),
                records.last().expect("a run has records").test_accuracy,
                case.name
            );
        }
        for (case, records) in ENGINE_CASES.iter().zip(&got) {
            print_training_pin(case.name, records);
        }
        return;
    }
    assert_eq!(got.len(), EXPECTED_ENGINE.len());
    for ((case, records), &(full, schedule, accuracy)) in
        ENGINE_CASES.iter().zip(&got).zip(EXPECTED_ENGINE)
    {
        assert_schedule_pinned(case.name, records, !case.encoded, (schedule, accuracy));
        assert_training_pinned(case.name, records);
        assert_eq!(
            fingerprint(records),
            full,
            "{}: round-record trajectory is no longer bit-identical",
            case.name
        );
    }
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
