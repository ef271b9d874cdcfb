//! Integration tests of the spec-driven codec pipeline: encode→decode round
//! trips for every registered codec, the pinned wire header, and the
//! end-to-end honest-byte accounting through the experiment engine.

use bwfl::prelude::*;
use bwfl::tensor::Uniform;

fn registry() -> CodecRegistry {
    CodecRegistry::with_builtins()
}

/// One representative spec per registered codec family, plus the wrapper and
/// composition forms. Kept in sync with the registry by the test below.
fn representative_specs() -> Vec<CompressorSpec> {
    vec![
        "topk".parse().unwrap(),
        "randk".parse().unwrap(),
        "threshold".parse().unwrap(),
        "threshold:0.05".parse().unwrap(),
        "qsgd:8".parse().unwrap(),
        "dense".parse().unwrap(),
        "ef-topk".parse().unwrap(),
        "topk+qsgd:6".parse().unwrap(),
        "ef-randk+qsgd:8".parse().unwrap(),
    ]
}

#[test]
fn every_registered_codec_has_a_representative_spec() {
    let covered: Vec<String> = representative_specs()
        .iter()
        .flat_map(|s| s.stages.iter().map(|st| st.name.clone()))
        .collect();
    for name in registry().names() {
        assert!(
            covered.iter().any(|c| c == name),
            "registered codec {name:?} missing from the round-trip suite"
        );
    }
}

/// Sparse codecs reproduce the retained coordinates exactly; quantized
/// codecs reconstruct every coordinate within one level of the norm.
#[test]
fn prop_encode_decode_roundtrip_for_every_codec() {
    let mut rng = Xoshiro256::new(1);
    for _ in 0..256 {
        let dense: Vec<f32> = (0..rng.next_range(16, 200))
            .map(|_| Uniform::new(-5.0, 5.0).sample(&mut rng) as f32)
            .collect();
        let ratio = Uniform::new(0.05, 1.0).sample(&mut rng);
        let stream_seed = rng.next_below(1000) as u64;
        for spec in representative_specs() {
            let mut codec = registry()
                .build(&spec, &CodecCtx::new(dense.len(), 7))
                .expect("representative specs resolve");
            let mut rng = Xoshiro256::new(stream_seed);
            let wire = codec.encode(&dense, ratio, &mut rng);
            assert!(!wire.is_empty(), "{spec}: empty wire buffer");
            let decoded = codec.decode(&wire).expect("self-encoded bytes decode");
            assert_eq!(decoded.dense_len(), dense.len(), "{}", &spec);

            let is_quantized = spec.stages.iter().any(|s| s.name == "qsgd");
            // Rand-K rescales retained values by len/k for unbiasedness, so
            // only its coordinate structure (not the values) matches the
            // input.
            let rescaled = spec.stages[0].name == "randk";
            if !is_quantized {
                // Exact round trip (error feedback sends delta+residual,
                // where the residual starts at zero, so values still match
                // the input on the first round).
                for (&i, &v) in decoded.indices().iter().zip(decoded.values()) {
                    if rescaled {
                        continue;
                    }
                    assert_eq!(v, dense[i as usize], "{} index {}", &spec, i);
                }
            } else {
                // Quantized payloads: within one level of the encoded group's
                // norm (coarsest representative codec is qsgd:6, 31 levels; a
                // norm/3 bound is comfortably loose).
                let norm = dense
                    .iter()
                    .map(|v| (*v as f64).powi(2))
                    .sum::<f64>()
                    .sqrt();
                let tol = norm / 3.0 + 1e-4;
                for (i, &r) in decoded.to_dense().iter().enumerate() {
                    if r != 0.0 && !rescaled {
                        assert!(
                            (r - dense[i]).abs() <= tol as f32,
                            "{} coordinate {} decoded {} vs {}",
                            &spec,
                            i,
                            r,
                            dense[i]
                        );
                    }
                }
            }

            // A second encode with identical inputs and stream state is
            // byte-identical for stateless codecs; stateful (EF) codecs may
            // differ, but must still decode.
            if !spec.error_feedback {
                let mut codec2 = registry()
                    .build(&spec, &CodecCtx::new(dense.len(), 7))
                    .unwrap();
                let mut rng2 = Xoshiro256::new(stream_seed);
                let wire2 = codec2.encode(&dense, ratio, &mut rng2);
                assert_eq!(
                    wire.as_bytes(),
                    wire2.as_bytes(),
                    "{} not deterministic",
                    &spec
                );
            }
        }
    }
}

#[test]
fn golden_bytes_pin_the_wire_header() {
    // Format drift must fail CI: the first bytes of every encoded update are
    // magic 0xB3F1, version 1, then the payload kind.
    let dense = [0.0f32, 3.0, 0.0, -1.0];
    let mut rng = Xoshiro256::new(1);

    let mut topk = registry()
        .build(&"topk".parse().unwrap(), &CodecCtx::new(4, 0))
        .unwrap();
    let wire = topk.encode(&dense, 0.5, &mut rng);
    // kind 0 (sparse), dense_len 4, nnz 2, indices 1 and +2, f32 values.
    assert_eq!(
        wire.as_bytes(),
        [
            0xB3, 0xF1, 0x01, 0x00, // magic, version, kind
            0x04, 0x02, 0x01, 0x02, // dense_len, nnz, delta indices
            0x00, 0x00, 0x40, 0x40, // 3.0f32 LE
            0x00, 0x00, 0x80, 0xBF, // -1.0f32 LE
        ]
    );

    let mut qsgd = registry()
        .build(&"qsgd:8".parse().unwrap(), &CodecCtx::new(4, 0))
        .unwrap();
    let wire = qsgd.encode(&dense, 1.0, &mut rng);
    assert_eq!(&wire.as_bytes()[..4], [0xB3, 0xF1, 0x01, 0x01]);
    assert_eq!(wire.as_bytes()[5], 8, "bits byte");

    let mut composed = registry()
        .build(&"topk+qsgd:6".parse().unwrap(), &CodecCtx::new(4, 0))
        .unwrap();
    let wire = composed.encode(&dense, 0.5, &mut rng);
    assert_eq!(&wire.as_bytes()[..4], [0xB3, 0xF1, 0x01, 0x02]);
}

#[test]
fn encoded_cost_basis_charges_real_bytes_end_to_end() {
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 3;
    config.max_threads = 1;
    config.compressor = Some("topk+qsgd:4".parse().unwrap());
    config.cost_basis = CostBasis::Encoded;
    let result = run_experiment(&config);
    let analytic_bytes_per_round = (2.0 * result.model_bytes as f64 * config.compression_ratio)
        as usize
        * config.clients_per_round();
    for r in &result.records {
        assert!(r.uplink_bytes > 0);
        // 4-bit quantized values + varint indices are far below the analytic
        // 2·V·CR sparse accounting.
        assert!(
            r.uplink_bytes < analytic_bytes_per_round / 2,
            "round {}: encoded {} vs analytic {}",
            r.round,
            r.uplink_bytes,
            analytic_bytes_per_round
        );
    }
    // Determinism holds through the encoded path too.
    let again = run_experiment(&config);
    assert_eq!(result.records, again.records);
}

#[test]
fn csv_exposes_the_uplink_and_downlink_byte_columns() {
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 2;
    config.max_threads = 1;
    config.downlink_compressor = Some("topk".parse().unwrap());
    let result = run_experiment(&config);
    let csv = result.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains("uplink_bytes"));
    assert!(header.contains("downlink_bytes"));
    let first_row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
    let up: usize = first_row[5].parse().expect("uplink_bytes cell is integral");
    assert_eq!(up, result.records[0].uplink_bytes);
    let down: usize = first_row[6]
        .parse()
        .expect("downlink_bytes cell is integral");
    assert_eq!(down, result.records[0].downlink_bytes);
    assert!(down > 0);
}

#[test]
fn csv_rows_always_match_the_header_width() {
    // Column-count invariant: every row of `RoundRecord::to_csv` has exactly
    // as many cells as the header names — including the downlink_bytes
    // column — whether or not the downlink leg is simulated and whether or
    // not evaluations were skipped (NaN placeholders).
    for downlink in [None, Some("ef-topk".parse().unwrap())] {
        let mut config = ExperimentConfig::quick(Algorithm::TopK);
        config.rounds = 3;
        config.max_threads = 1;
        config.eval_every = 2;
        config.downlink_compressor = downlink;
        let csv = run_experiment(&config).to_csv();
        let mut lines = csv.lines();
        let columns = lines.next().unwrap().split(',').count();
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), columns, "malformed row: {line}");
            rows += 1;
        }
        assert_eq!(rows, config.rounds);
    }
}

#[test]
fn bidirectional_accounting_runs_end_to_end() {
    // The full bidirectional path: EF broadcast downlink + composed uplink
    // codec, both priced from real encoded bytes.
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 3;
    config.max_threads = 1;
    config.compressor = Some("topk+qsgd:4".parse().unwrap());
    config.downlink_compressor = Some("ef-topk".parse().unwrap());
    config.cost_basis = CostBasis::Encoded;
    let result = run_experiment(&config);
    for r in &result.records {
        assert!(r.uplink_bytes > 0);
        assert!(r.downlink_bytes > 0);
        assert!(r.comm_actual_s > 0.0);
    }
    // The broadcast is one buffer, not a per-client sum: far below the
    // cohort's total uplink traffic would be at the same ratio, and bounded
    // by one dense model plus framing.
    assert!(result.records[0].downlink_bytes <= result.model_bytes + 64);
    // Determinism holds through the bidirectional path.
    let again = run_experiment(&config);
    assert_eq!(result.records, again.records);
}

/// Deterministic corpus: `parse → Display → parse` is the identity for every
/// registered codec name, alone and in every supported wrapper/composition
/// shape.
#[test]
fn spec_display_roundtrips_for_every_registered_shape() {
    let registry = registry();
    for name in registry.names() {
        let arged = |n: &str| match n {
            "qsgd" => format!("{n}:8"),
            "threshold" => format!("{n}:0.01"),
            other => other.to_string(),
        };
        let mut shapes = vec![name.to_string(), arged(name), format!("ef-{}", arged(name))];
        if name != "qsgd" {
            shapes.push(format!("{}+qsgd:4", arged(name)));
            shapes.push(format!("ef-{}+qsgd:4", arged(name)));
        }
        for raw in shapes {
            let spec: CompressorSpec = raw.parse().unwrap_or_else(|e| panic!("{raw}: {e}"));
            assert_eq!(spec.to_string(), raw);
            let reparsed: CompressorSpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec, "{raw}");
        }
    }
}

/// Randomised spec shapes — arbitrary stage names (registered or not:
/// parsing never consults the registry), optional arguments and the
/// `ef-` wrapper — survive `Display → parse` unchanged.
#[test]
fn prop_spec_display_parse_is_the_identity() {
    let mut rng = Xoshiro256::new(2);
    for _ in 0..256 {
        let error_feedback = rng.next_bool(0.5);
        let name_picks: Vec<usize> = (0..rng.next_range(1, 4))
            .map(|_| rng.next_below(8))
            .collect();
        let arg_picks: Vec<usize> = (0..rng.next_range(1, 4))
            .map(|_| rng.next_below(5))
            .collect();
        const NAMES: [&str; 8] = [
            "topk",
            "randk",
            "threshold",
            "qsgd",
            "my-codec",
            "seg_mented",
            "x2",
            "a-b_c3",
        ];
        const ARGS: [Option<&str>; 5] =
            [None, Some("8"), Some("0.01"), Some("x-y_z"), Some("1e-3")];
        let stages: Vec<CodecStage> = name_picks
            .iter()
            .zip(arg_picks.iter().cycle())
            .map(|(&n, &a)| match ARGS[a % ARGS.len()] {
                Some(arg) => CodecStage::with_arg(NAMES[n % NAMES.len()], arg),
                None => CodecStage::new(NAMES[n % NAMES.len()]),
            })
            .collect();
        let spec = CompressorSpec {
            error_feedback,
            stages,
        };
        let printed = spec.to_string();
        let reparsed: CompressorSpec = printed.parse().expect("printed specs reparse");
        assert_eq!(&reparsed, &spec, "{}", printed);
        assert_eq!(reparsed.to_string(), printed);
    }
}
