//! Integration tests of the layer-aware codec path: `LayerPlan` grammar
//! round-trips, `Segmented` wire round-trips (including crafted-corrupt
//! frames), the uniform-plan ≡ flat-codec fingerprint regression for all
//! seven algorithms, and the per-layer byte accounting through the round
//! engine.

use bwfl::compress::wire::{
    encode_dense, encode_segmented, encode_sparse, KIND_SEGMENTED, WIRE_MAGIC, WIRE_VERSION,
};
use bwfl::prelude::*;
use proptest::prelude::*;

fn registry() -> CodecRegistry {
    CodecRegistry::with_builtins()
}

const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::FedAvg,
    Algorithm::TopK,
    Algorithm::EfTopK,
    Algorithm::RandK,
    Algorithm::Bcrs,
    Algorithm::BcrsOpwa,
    Algorithm::TopKOpwa,
];

/// The acceptance-criterion regression: a uniform plan (`"*=<spec>"`) is
/// bit-identical to the flat `<spec>` codec path — every field of every
/// record, for all seven algorithms, under the Analytic basis.
#[test]
fn uniform_plan_records_match_flat_codec_for_all_seven_algorithms() {
    for alg in ALL_ALGORITHMS {
        let mut flat = ExperimentConfig::quick(alg);
        flat.rounds = 3;
        flat.max_threads = 1;
        flat.compressor = Some("topk".parse().unwrap());
        let mut planned = flat.clone();
        planned.compressor = None;
        planned.layer_compressors = Some("*=topk".parse().unwrap());
        let a = run_experiment(&flat);
        let b = run_experiment(&planned);
        assert_eq!(a.records, b.records, "{alg:?}");
        assert!(
            b.records.iter().all(|r| r.layer_bytes.is_none()),
            "{alg:?}: uniform plans must not record a per-layer breakdown"
        );
    }
}

/// The same identity holds for a stateful (error-feedback) uniform plan.
#[test]
fn uniform_ef_plan_matches_flat_ef_codec() {
    let mut flat = ExperimentConfig::quick(Algorithm::TopK);
    flat.rounds = 3;
    flat.max_threads = 1;
    flat.compressor = Some("ef-topk".parse().unwrap());
    let mut planned = flat.clone();
    planned.compressor = None;
    planned.layer_compressors = Some("*=ef-topk".parse().unwrap());
    assert_eq!(
        run_experiment(&flat).records,
        run_experiment(&planned).records
    );
}

/// Mixed plans stay deterministic across thread counts (the per-segment RNG
/// draws happen inside each client's own stream, in segment order).
#[test]
fn mixed_plan_is_deterministic_across_thread_counts() {
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 3;
    config.layer_compressors = Some("*.bias=dense;*=randk".parse().unwrap());
    config.max_threads = 1;
    let sequential = run_experiment(&config);
    config.max_threads = 4;
    let parallel = run_experiment(&config);
    assert_eq!(sequential.records, parallel.records);
    assert!(sequential.records[0].layer_bytes.is_some());
}

/// Per-layer uplink bytes plus the per-client framing overhead reproduce the
/// honest wire total exactly, asserted against `WireUpdate::len()` by
/// re-encoding the same plan outside the engine.
#[test]
fn per_layer_breakdown_plus_framing_equals_the_wire_total() {
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 2;
    config.max_threads = 1;
    config.cost_basis = CostBasis::Encoded;
    config.layer_compressors = Some("*.bias=dense;*=topk".parse().unwrap());
    let mut session = FederatedSession::from_config(&config);
    let num_segments = session.param_layout().num_segments();
    let out = session.run_round();
    let breakdown = out.record.layer_bytes.as_ref().expect("mixed plan");
    assert_eq!(breakdown.len(), num_segments);
    let segments_total: usize = breakdown.iter().map(|l| l.uplink_bytes).sum();
    // Each client's frame: 4-byte header + varint(dense_len) + varint(n
    // segments) + one length varint per segment.
    let total: usize = out.uplink_wire_bytes.iter().sum();
    assert_eq!(out.record.uplink_bytes, total);
    let framing = total - segments_total;
    // Framing is positive and small: bounded by (4 + 5 + 5 + 5·segments) per
    // client, far below one f32 per model coordinate.
    let cohort = out.record.selected_clients.len();
    assert!(framing > 0);
    assert!(
        framing <= cohort * (14 + 5 * num_segments),
        "framing {framing}"
    );

    // Re-encode an identical delta with the same plan directly: the frame's
    // length equals header + varints + Σ(len-prefix + part len) exactly.
    let plan: LayerPlan = "*.bias=dense;*=topk".parse().unwrap();
    let layout = session.param_layout().clone();
    let mut codec = plan
        .resolve(
            &registry(),
            &segment_defs(&layout),
            &CodecCtx::new(layout.total_len(), 3),
        )
        .unwrap();
    let delta: Vec<f32> = (0..layout.total_len())
        .map(|i| ((i as f32) * 0.13).sin())
        .collect();
    let wire = codec.encode(&delta, 0.1, &mut Xoshiro256::new(1));
    let seg_lens = wire.segment_byte_lens().unwrap();
    let varint_len = |v: usize| -> usize {
        let mut n = 1;
        let mut v = v as u64 >> 7;
        while v > 0 {
            n += 1;
            v >>= 7;
        }
        n
    };
    let expected = 4
        + varint_len(layout.total_len())
        + varint_len(seg_lens.len())
        + seg_lens.iter().map(|&l| varint_len(l) + l).sum::<usize>();
    assert_eq!(wire.len(), expected, "framing overhead must be exact");
}

/// `LayerPlan` parse → Display → parse identity over a deterministic corpus.
#[test]
fn plan_display_roundtrips_for_a_spec_corpus() {
    let mut corpus = vec![
        "*=topk".to_string(),
        "conv*=topk;*.bias=dense;*=ef-topk+qsgd:4".to_string(),
        "linear?.weight=randk;*=threshold:0.01".to_string(),
        "*.bias=dense;linear2*=ef-topk;*=randk".to_string(),
    ];
    // Every registered codec name, alone and wrapped, as a catch-all rule.
    for name in registry().names() {
        let arged = match name {
            "qsgd" => "qsgd:8".to_string(),
            "threshold" => "threshold:0.01".to_string(),
            other => other.to_string(),
        };
        corpus.push(format!("*={arged}"));
        corpus.push(format!("first*={arged};*=topk"));
        corpus.push(format!("*=ef-{arged}"));
    }
    for raw in corpus {
        let plan: LayerPlan = raw.parse().unwrap_or_else(|e| panic!("{raw}: {e}"));
        assert_eq!(plan.to_string(), raw);
        let reparsed: LayerPlan = plan.to_string().parse().unwrap();
        assert_eq!(reparsed, plan, "{raw}");
    }
}

proptest! {
    /// Randomised plan shapes survive Display → parse unchanged.
    #[test]
    fn prop_plan_display_parse_is_the_identity(
        pattern_picks in proptest::collection::vec(0usize..6, 1..5),
        spec_picks in proptest::collection::vec(0usize..6, 1..5),
    ) {
        const PATTERNS: [&str; 6] = ["*", "conv*", "*.bias", "linear?.weight", "a_b-c*", "??nv2d*"];
        const SPECS: [&str; 6] = ["topk", "dense", "qsgd:8", "ef-topk", "topk+qsgd:4", "threshold:0.01"];
        let rules: Vec<String> = pattern_picks
            .iter()
            .zip(spec_picks.iter().cycle())
            .map(|(&p, &s)| format!("{}={}", PATTERNS[p % PATTERNS.len()], SPECS[s % SPECS.len()]))
            .collect();
        let raw = rules.join(";");
        let plan: LayerPlan = raw.parse().expect("constructed plans parse");
        prop_assert_eq!(plan.to_string(), raw.clone());
        let reparsed: LayerPlan = plan.to_string().parse().unwrap();
        prop_assert_eq!(&reparsed, &plan, "{}", raw);
    }
}

proptest! {
    /// Segmented wire buffers round-trip: random segment splits, mixed codecs
    /// per segment, decode reproduces every segment's own decode spliced at
    /// its offset.
    #[test]
    fn prop_segmented_encode_decode_roundtrip(
        seg_lens in proptest::collection::vec(1usize..40, 2..6),
        dense_seed in 0u64..500,
        codec_picks in proptest::collection::vec(0usize..3, 2..6),
    ) {
        const SPECS: [&str; 3] = ["topk", "dense", "qsgd:4"];
        let total: usize = seg_lens.iter().sum();
        let mut rng = Xoshiro256::new(dense_seed);
        let dense: Vec<f32> = (0..total).map(|_| rng.next_f32() * 2.0 - 1.0).collect();

        // Encode each segment with its own codec, frame, decode, compare.
        let reg = registry();
        let mut parts = Vec::new();
        let mut offset = 0usize;
        let mut expected: Vec<(u32, f32)> = Vec::new();
        for (i, &len) in seg_lens.iter().enumerate() {
            let spec: CompressorSpec = SPECS[codec_picks[i % codec_picks.len()] % SPECS.len()]
                .parse()
                .unwrap();
            let mut codec = reg.build(&spec, &CodecCtx::new(len, 7)).unwrap();
            let mut stream = Xoshiro256::new(1000 + i as u64);
            let wire = codec.encode(&dense[offset..offset + len], 0.3, &mut stream);
            let part_decoded = wire.decode().unwrap();
            match part_decoded {
                CompressedUpdate::Sparse(s) => {
                    for (&pi, &v) in s.indices().iter().zip(s.values().iter()) {
                        expected.push((offset as u32 + pi, v));
                    }
                }
                CompressedUpdate::Quantized { values } => {
                    for (j, &v) in values.iter().enumerate() {
                        expected.push(((offset + j) as u32, v));
                    }
                }
            }
            parts.push(wire);
            offset += len;
        }
        let framed = encode_segmented(total, &parts);
        prop_assert_eq!(framed.kind().unwrap(), KIND_SEGMENTED);
        prop_assert_eq!(
            framed.segment_byte_lens().unwrap(),
            parts.iter().map(|p| p.len()).collect::<Vec<_>>()
        );
        let merged = framed.decode().expect("framed buffers decode");
        let s = merged.as_sparse().expect("segmented decodes sparse");
        prop_assert_eq!(s.dense_len(), total);
        let got: Vec<(u32, f32)> = s
            .indices()
            .iter()
            .zip(s.values().iter())
            .map(|(&i, &v)| (i, v))
            .collect();
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    /// Crafted-corrupt segmented frames never panic or over-allocate — every
    /// mutation either still decodes or returns a typed `WireError`.
    #[test]
    fn prop_corrupted_segmented_frames_error_cleanly(
        flip_pos in 0usize..200,
        flip_bits in 1u8..255,
        truncate in 0usize..60,
    ) {
        let a = encode_sparse(&SparseUpdate::new(vec![1, 5], vec![1.0, -2.0], 30));
        let b = encode_dense(&[0.5, -0.25, 4.0]);
        let good = encode_segmented(33, &[a, b]);
        let mut bytes = good.as_bytes().to_vec();
        if truncate > 0 {
            let keep = bytes.len().saturating_sub(truncate);
            bytes.truncate(keep);
        }
        if !bytes.is_empty() {
            let pos = flip_pos % bytes.len();
            bytes[pos] ^= flip_bits;
        }
        // Must not panic; errors are typed.
        let _ = WireUpdate::from_bytes(bytes::Bytes::from(bytes)).decode();
    }
}

#[test]
fn hand_built_corrupt_segmented_frames_are_rejected() {
    let part = encode_sparse(&SparseUpdate::new(vec![0], vec![1.0], 3));

    // Lengths that do not tile the vector, nested frames, zero segments and
    // absurd counts are covered in-crate; here pin the end-to-end behaviour
    // of a frame whose inner part is itself corrupt.
    let mut buf = Vec::new();
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(KIND_SEGMENTED);
    buf.push(3); // varint dense_len
    buf.push(1); // varint segment count
    buf.push(part.len() as u8); // varint segment byte length (< 128)
    let mut inner = part.as_bytes().to_vec();
    inner[2] = 99; // corrupt the nested version byte
    buf.extend_from_slice(&inner);
    assert_eq!(
        WireUpdate::from_bytes(bytes::Bytes::from(buf)).decode(),
        Err(WireError::UnsupportedVersion(99))
    );
}

/// The typed layout error reaches the public session-level API.
#[test]
fn evaluate_params_surfaces_a_layout_error() {
    let config = ExperimentConfig::quick(Algorithm::TopK);
    let (_, test) = config
        .dataset
        .spec(config.dataset_scale)
        .generate(config.seed);
    let err = bwfl::core::runner::evaluate_params(&config, &[0.0; 3], &test).unwrap_err();
    assert_eq!(err.got, 3);
    assert!(err.expected > 3);
    assert!(err.to_string().contains("3 entries"));
    // A correctly sized vector evaluates fine.
    let ok = vec![0.0; err.expected];
    let acc = bwfl::core::runner::evaluate_params(&config, &ok, &test).unwrap();
    assert!((0.0..=1.0).contains(&acc));
}
