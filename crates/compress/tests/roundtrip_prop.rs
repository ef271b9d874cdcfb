//! Property-based encode → decode round-trips over the public codec surface.
//!
//! Random gradients are pushed through every wire kind the stack can emit —
//! sparse, bit-packed quantized, composed sparse+quantized, raw dense, the
//! entropy-coded kind 6, and `Segmented` frames from layer plans — and the
//! decoded updates are checked against the exactness guarantees each format
//! makes. Error-feedback plans additionally check the take/restore residual
//! snapshot contract the session engine relies on, and every built-in is held
//! to the single-pass contract: what `encode_sent` says it sent is, bit for
//! bit, what its bytes decode to.

#[path = "../../../tests/common/pins.rs"]
mod pins;

use fl_compress::wire::{KIND_ENTROPY, KIND_QUANTIZED, KIND_SPARSE_QUANTIZED};
use fl_compress::{
    CodecCtx, CodecRegistry, CompressorSpec, LayerPlan, SegmentDef, UpdateCodec, WireUpdate,
};
use fl_tensor::rng::{Rng, Xoshiro256};
use pins::{Fnv, Row};

/// Build a flat codec for `spec` sized for `n` coordinates.
fn build(spec: &str, n: usize) -> Box<dyn UpdateCodec> {
    let spec: CompressorSpec = spec.parse().expect("test spec parses");
    CodecRegistry::with_builtins()
        .build(&spec, &CodecCtx::new(n, 1))
        .expect("test spec resolves")
}

/// A gradient-shaped vector: zero-mean, mixed magnitudes, fully finite.
fn gradient(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = Xoshiro256::new(seed);
    (0..n)
        .map(|_| (rng.next_f32() - 0.5) * (1.0 + rng.next_f32() * 9.0))
        .collect()
}

/// Inputs that stress the reconstruction arithmetic rather than the
/// selection: non-finite norms, nothing to send, level-0 coordinates, signed
/// zeros, and sign patterns the entropy coder cannot compress.
fn awkward_gradient(seed: u64, n: usize, flavour: u8) -> Vec<f32> {
    let mut d = gradient(seed, n);
    let mut rng = Xoshiro256::new(seed ^ 0xA3);
    match flavour % 7 {
        0 => {}
        1 => d.iter_mut().for_each(|v| *v = 0.0),
        2 => d[rng.next_below(n)] = f32::NAN,
        3 => {
            d[rng.next_below(n)] = f32::INFINITY;
            d[rng.next_below(n)] = f32::NEG_INFINITY;
        }
        // One dominant coordinate: almost everything else quantizes to
        // level 0.
        4 => d[rng.next_below(n)] = 1.0e6,
        5 => {
            for (i, v) in d.iter_mut().enumerate() {
                *v = match i % 4 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => f32::from_bits(1 + i as u32),
                    _ => *v,
                };
            }
        }
        // Equal magnitudes, random signs: top level everywhere, one
        // incompressible sign bit each.
        _ => d
            .iter_mut()
            .for_each(|v| *v = if rng.next_f32() < 0.5 { 1.0 } else { -1.0 }),
    }
    d
}

/// Drive `codec` through `encode_sent` for a few rounds and hold each answer
/// to the receiver's decode of the bytes beside it, by `to_bits`.
fn assert_encode_sent_is_decode(
    what: &str,
    codec: &mut dyn UpdateCodec,
    seed: u64,
    n: usize,
    flavour: u8,
    ratio: f64,
) {
    let mut rng = Xoshiro256::new(seed ^ 9);
    for round in 0..3u64 {
        // Rounds 0 and 2 are awkward, round 1 is an ordinary gradient, so
        // error-feedback state crosses between the two regimes.
        let d = if round == 1 {
            gradient(seed ^ 77, n)
        } else {
            awkward_gradient(seed.wrapping_add(round), n, flavour)
        };
        let (wire, reconstruction) = codec.encode_sent(&d, ratio, &mut rng);
        let decoded = wire.decode().expect("own bytes decode");
        assert!(
            decoded.bit_eq(&reconstruction),
            "{}: encode_sent disagrees with decode(wire) in round {} (flavour {})",
            what,
            round,
            flavour % 7
        );
    }
}

/// Every built-in spec shape: each sparsifier, both quantizer layouts, every
/// composition, and error feedback over each family.
const BUILTIN_SPECS: [&str; 19] = [
    "topk",
    "randk",
    "threshold",
    "threshold:0.5",
    "dense",
    "qsgd:2",
    "qsgd:8",
    "qsgd:4:rc",
    "qsgd:16:rc",
    "topk+qsgd:4",
    "topk+qsgd:6:rc",
    "randk+qsgd:8",
    "threshold:0.5+qsgd:3:rc",
    "ef-topk",
    "ef-randk",
    "ef-qsgd:4:rc",
    "ef-topk+qsgd:4:rc",
    "ef-topk+qsgd:8",
    "ef-threshold:0.5+qsgd:6",
];

/// The spec shapes no session pin reaches otherwise, pinned beside
/// [`BUILTIN_SPECS`].
const MORE_SHAPES: [&str; 4] = [
    "dense+qsgd:4",
    "ef-dense",
    "ef-threshold",
    "randk+qsgd:6:rc",
];

/// Every spec shape's bytes, sent updates and residuals, bit for bit: over
/// n ∈ {1, 255, 256, 700, 4133}, ratio ∈ {0.01, 0.3, 1.0} and every
/// `awkward_gradient` flavour, three rounds on one codec instance each (so
/// error-feedback state carries). Each shape pins three hashes, as
/// `shape/<spec>` in the pin manifest: the wire `bytes` with the sent
/// update's indices, the `sent` update's dense `to_bits`, and the `residual`
/// snapshot. A change to which coordinates a frame carries may move the
/// first and leave the other two alone.
#[test]
fn spec_shapes_are_pinned() {
    let mut got = Vec::new();
    for spec in BUILTIN_SPECS.into_iter().chain(MORE_SHAPES) {
        let [mut bytes, mut sent_values, mut residual] = [Fnv::new(), Fnv::new(), Fnv::new()];
        for n in [1usize, 255, 256, 700, 4133] {
            for ratio in [0.01, 0.3, 1.0] {
                for flavour in 0..7u8 {
                    let mut codec = build(spec, n);
                    let mut rng = Xoshiro256::new(n as u64 ^ ((flavour as u64) << 20));
                    for round in 0..3u64 {
                        let d = awkward_gradient(round * 31 + flavour as u64, n, flavour);
                        let (wire, sent) = codec.encode_sent(&d, ratio, &mut rng);
                        bytes.bytes(wire.as_bytes());
                        for i in sent.indices() {
                            bytes.bytes(&i.to_le_bytes());
                        }
                        sent_values.f32s(&sent.to_dense());
                        let state = codec.take_residual();
                        state.parts.iter().for_each(|p| residual.f32s(p));
                        codec.restore_residual(state);
                    }
                }
            }
        }
        got.push(
            Row::new(format!("shape/{spec}"))
                .hash("bytes", bytes.0)
                .hash("sent", sent_values.0)
                .hash("residual", residual.0),
        );
    }
    pins::check(|name| name.starts_with("shape/"), &got);
}

/// The single-pass contract, for every built-in: the update `encode_sent`
/// returns equals `decode` of the bytes it returns, compared by
/// `to_bits` — NaN and infinite norms, the all-zero vector, level-0
/// coordinates and the `:rc` never-expand fallback included.
#[test]
fn prop_encode_sent_equals_decode_of_wire() {
    let mut rng = Xoshiro256::new(1);
    for _ in 0..40 {
        let seed = rng.next_u64() >> 32;
        let n = rng.next_range(1, 700);
        let flavour = rng.next_below(7) as u8;
        let ratio = rng.next_range(1, 101) as f64 / 100.0;
        for spec in BUILTIN_SPECS {
            let mut codec = build(spec, n);
            assert_encode_sent_is_decode(spec, codec.as_mut(), seed, n, flavour, ratio);
        }
    }
}

/// A sparse quantized frame carries only coordinates of nonzero level:
/// every decoded value is nonzero (NaN counts, as under a non-finite
/// norm), and the indices are a subset of what the same selection stage
/// picks unquantized from the same stream — so `nnz ≤ k`.
#[test]
fn prop_sparse_quantized_frames_carry_only_nonzero_levels() {
    let mut rng = Xoshiro256::new(2);
    for _ in 0..40 {
        let seed = rng.next_u64() >> 32;
        let n = rng.next_range(1, 700);
        let flavour = rng.next_below(7) as u8;
        let ratio = rng.next_range(1, 101) as f64 / 100.0;
        let d = awkward_gradient(seed, n, flavour);
        for spec in BUILTIN_SPECS.into_iter().filter(|s| s.contains("+qsgd")) {
            let selection = spec.split('+').next().expect("a selection stage");
            let (wire, _) = build(spec, n).encode_sent(&d, ratio, &mut Xoshiro256::new(seed));
            let (picked, _) =
                build(selection, n).encode_sent(&d, ratio, &mut Xoshiro256::new(seed));
            let carried = wire.decode().expect("own bytes decode");
            let picked = picked.decode().expect("own bytes decode");
            assert!(
                carried.values().iter().all(|&v| v != 0.0),
                "{}: a zero coordinate went on the wire (flavour {})",
                spec,
                flavour
            );
            assert!(carried.nnz() <= picked.nnz(), "{}: nnz above k", spec);
            assert!(
                carried
                    .indices()
                    .iter()
                    .all(|i| picked.indices().binary_search(i).is_ok()),
                "{}: an index outside the selection",
                spec
            );
        }
    }
}

/// The same contract through a mixed layer plan: the spliced update a
/// `PlannedCodec` returns equals the decode of its `Segmented` frame,
/// with error-feedback, dense, quantized and entropy-coded segments side
/// by side.
#[test]
fn prop_planned_encode_sent_equals_decode_of_frame() {
    let mut rng = Xoshiro256::new(3);
    for _ in 0..40 {
        let seed = rng.next_u64() >> 32;
        let w0 = rng.next_range(8, 400);
        let b0 = rng.next_range(1, 40);
        let w1 = rng.next_range(8, 400);
        let flavour = rng.next_below(7) as u8;
        let ratio = rng.next_range(1, 101) as f64 / 100.0;
        let layout = vec![
            SegmentDef::new("l0.weight", w0),
            SegmentDef::new("l0.bias", b0),
            SegmentDef::new("l1.weight", w1),
            SegmentDef::new("l1.bias", b0),
        ];
        let n = w0 + b0 + w1 + b0;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();
        let plan: LayerPlan = "l0.bias=dense;*.bias=qsgd:6:rc;l0*=ef-topk+qsgd:4:rc;*=ef-randk"
            .parse()
            .expect("plan parses");
        let mut codec = plan
            .resolve(&registry, &layout, &ctx)
            .expect("plan resolves");
        assert_encode_sent_is_decode("mixed plan", codec.as_mut(), seed, n, flavour, ratio);
    }
}

/// The `:rc` specs in the differential property must actually reach both of
/// their layouts: the entropy kind, and the bit-packed fallback taken when
/// the coded stream would not be strictly smaller.
#[test]
fn rc_specs_reach_the_entropy_kind_and_the_never_expand_fallback() {
    for (spec, fallback_kind) in [
        ("qsgd:4:rc", KIND_QUANTIZED),
        ("topk+qsgd:6:rc", KIND_SPARSE_QUANTIZED),
    ] {
        let kind_at = |n: usize, flavour: u8| {
            let mut codec = build(spec, n);
            let d = awkward_gradient(5, n, flavour);
            codec
                .encode_sent(&d, 0.5, &mut Xoshiro256::new(3))
                .0
                .kind()
                .expect("valid header")
        };
        assert_eq!(kind_at(600, 0), KIND_ENTROPY, "{spec} on a long gradient");
        assert_eq!(kind_at(3, 6), fallback_kind, "{spec} on three coordinates");
    }
}

/// Every flat builtin spec round-trips through bytes: re-parsing the
/// encoded buffer decodes to the same update the producing codec frames,
/// with the dense length preserved and every value finite.
#[test]
fn prop_flat_specs_roundtrip() {
    let mut rng = Xoshiro256::new(4);
    for _ in 0..48 {
        let seed = rng.next_u64() >> 32;
        let n = rng.next_range(1, 600);
        let ratio = rng.next_range(1, 100) as f64 / 100.0;
        let d = gradient(seed, n);
        for spec in [
            "topk",
            "randk",
            "qsgd:4",
            "qsgd:8",
            "qsgd:8:rc",
            "topk+qsgd:6",
            "topk+qsgd:6:rc",
            "ef-topk",
            "dense",
        ] {
            let mut codec = build(spec, n);
            let wire = codec.encode(&d, ratio, &mut Xoshiro256::new(seed ^ 1));
            let reparsed = WireUpdate::from_bytes(wire.as_bytes().to_vec());
            assert_eq!(&reparsed, &wire, "byte re-parse differs for {}", spec);
            let dense = wire.decode().expect("own bytes decode").to_dense();
            assert_eq!(dense.len(), n, "length drift for {}", spec);
            assert!(
                dense.iter().all(|v| v.is_finite()),
                "non-finite decode for {}",
                spec
            );
            if spec == "dense" {
                assert!(
                    dense
                        .iter()
                        .zip(d.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "dense codec must be lossless"
                );
            }
        }
    }
}

/// The entropy twin of a bit-packed quantizer decodes bit-identically
/// (same levels, same dequantization) and its frame is never larger:
/// when the entropy coder cannot beat bit-packing it falls back to it.
#[test]
fn prop_entropy_twin_bit_identical_never_larger() {
    let mut rng = Xoshiro256::new(5);
    for _ in 0..48 {
        let seed = rng.next_u64() >> 32;
        let n = rng.next_range(1, 2000);
        let bits = rng.next_range(2, 9) as u8;
        let d = gradient(seed, n);
        let mut rc = build(&format!("qsgd:{bits}:rc"), n);
        let mut packed = build(&format!("qsgd:{bits}"), n);
        let wr = rc.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 2));
        let wp = packed.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 2));
        assert!(
            wr.len() <= wp.len(),
            "entropy frame expanded: {} > {}",
            wr.len(),
            wp.len()
        );
        let a = wr.decode().expect("rc decodes").to_dense();
        let b = wp.decode().expect("packed decodes").to_dense();
        assert!(
            a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "entropy decode drifted from bit-packed twin"
        );
    }
}

/// Same twin property through the sparse composed path: identical
/// retained indices, bit-identical values, never more bytes.
#[test]
fn prop_sparse_entropy_twin() {
    let mut rng = Xoshiro256::new(6);
    for _ in 0..48 {
        let seed = rng.next_u64() >> 32;
        let n = rng.next_range(20, 2000);
        let bits = rng.next_range(2, 9) as u8;
        let ratio = rng.next_range(1, 100) as f64 / 100.0;
        let d = gradient(seed, n);
        let mut rc = build(&format!("topk+qsgd:{bits}:rc"), n);
        let mut packed = build(&format!("topk+qsgd:{bits}"), n);
        let wr = rc.encode(&d, ratio, &mut Xoshiro256::new(seed ^ 3));
        let wp = packed.encode(&d, ratio, &mut Xoshiro256::new(seed ^ 3));
        assert!(wr.len() <= wp.len(), "sparse entropy frame expanded");
        let a = wr.decode().expect("rc decodes");
        let b = wp.decode().expect("packed decodes");
        assert_eq!(a.indices(), b.indices());
        assert!(
            a.values()
                .iter()
                .zip(b.values().iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "sparse entropy values drifted from bit-packed twin"
        );
    }
}

/// Mixed layer plans frame `Segmented` updates whose decode preserves the
/// total length, keeps dense-coded segments bit-exact, and round-trips
/// through a byte re-parse. Entropy rules inside a plan stay bit-identical
/// to their bit-packed twin plan.
#[test]
fn prop_segmented_plan_roundtrip() {
    let mut rng = Xoshiro256::new(7);
    for _ in 0..32 {
        let seed = rng.next_u64() >> 32;
        let w0 = rng.next_range(8, 400);
        let b0 = rng.next_range(1, 40);
        let w1 = rng.next_range(8, 400);
        let bits = rng.next_range(2, 9) as u8;
        let layout = vec![
            SegmentDef::new("l0.weight", w0),
            SegmentDef::new("l0.bias", b0),
            SegmentDef::new("l1.weight", w1),
        ];
        let n = w0 + b0 + w1;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();
        let rc_plan: LayerPlan = format!("*.bias=dense;*=qsgd:{bits}:rc")
            .parse()
            .expect("plan parses");
        let packed_plan: LayerPlan = format!("*.bias=dense;*=qsgd:{bits}")
            .parse()
            .expect("plan parses");
        let mut rc = rc_plan
            .resolve(&registry, &layout, &ctx)
            .expect("plan resolves");
        let mut packed = packed_plan
            .resolve(&registry, &layout, &ctx)
            .expect("plan resolves");
        let d = gradient(seed, n);
        let wr = rc.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 4));
        let wp = packed.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 4));
        assert!(wr.len() <= wp.len(), "segmented entropy plan expanded");
        let reparsed = WireUpdate::from_bytes(wr.as_bytes().to_vec());
        assert_eq!(&reparsed, &wr);
        let a = wr.decode().expect("rc plan decodes").to_dense();
        let b = wp.decode().expect("packed plan decodes").to_dense();
        assert_eq!(a.len(), n);
        assert!(
            a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "segmented entropy decode drifted from bit-packed twin plan"
        );
        // The dense-coded bias segment is lossless in both plans.
        assert!(
            a[w0..w0 + b0]
                .iter()
                .zip(d[w0..w0 + b0].iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "dense bias segment must round-trip exactly"
        );
    }
}

/// Error-feedback plans: taking the residual snapshot and restoring it
/// between rounds is invisible — a twin codec fed the same inputs without
/// the snapshot round-trip emits byte-identical frames every round.
#[test]
fn prop_ef_plan_snapshot_roundtrip() {
    let mut rng = Xoshiro256::new(8);
    for _ in 0..32 {
        let seed = rng.next_u64() >> 32;
        let w = rng.next_range(8, 300);
        let b = rng.next_range(1, 30);
        let rounds = rng.next_range(1, 4);
        let layout = vec![SegmentDef::new("l.weight", w), SegmentDef::new("l.bias", b)];
        let n = w + b;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();
        let plan: LayerPlan = "*.bias=dense;*=ef-topk".parse().expect("plan parses");
        let mut snapshotted = plan
            .resolve(&registry, &layout, &ctx)
            .expect("plan resolves");
        let mut straight = plan
            .resolve(&registry, &layout, &ctx)
            .expect("plan resolves");
        let mut rng_a = Xoshiro256::new(seed ^ 5);
        let mut rng_b = Xoshiro256::new(seed ^ 5);
        for round in 0..rounds {
            let d = gradient(seed.wrapping_add(round as u64), n);
            let state = snapshotted.take_residual();
            snapshotted.restore_residual(state);
            let wa = snapshotted.encode(&d, 0.25, &mut rng_a);
            let wb = straight.encode(&d, 0.25, &mut rng_b);
            assert_eq!(
                &wa, &wb,
                "snapshot round-trip changed round {} frame",
                round
            );
        }
        assert!(snapshotted.residual_norm().is_finite());
        assert_eq!(snapshotted.residual_norm(), straight.residual_norm());
    }
}

/// What an adaptive re-plan relies on: a `layer-bcrs` plan gives every
/// segment an `ef-topk+qsgd:<bits>` codec of one residual part, so a
/// snapshot parked under one bit assignment restores verbatim into the
/// codec of another — every coordinate carried, none dropped, none
/// zeroed — with no re-shaping in between.
#[test]
fn prop_ef_snapshot_restores_verbatim_across_bit_widths() {
    let mut rng = Xoshiro256::new(9);
    for _ in 0..32 {
        let seed = rng.next_u64() >> 32;
        let w0 = rng.next_range(8, 300);
        let b0 = rng.next_range(1, 30);
        let w1 = rng.next_range(8, 300);
        let bits: Vec<u8> = (0..6).map(|_| rng.next_range(2, 9) as u8).collect();
        let layout = vec![
            SegmentDef::new("l0.weight", w0),
            SegmentDef::new("l0.bias", b0),
            SegmentDef::new("l1.weight", w1),
        ];
        let n = w0 + b0 + w1;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();
        let resolve = |bits: &[u8]| {
            let rules: Vec<String> = layout
                .iter()
                .zip(bits)
                .map(|(seg, b)| format!("{}=ef-topk+qsgd:{b}", seg.name))
                .collect();
            let plan: LayerPlan = rules.join(";").parse().expect("plan parses");
            plan.resolve_scaled(&registry, &layout, &ctx, &[0.5, 2.0, 1.0])
                .expect("plan resolves")
        };

        let mut old = resolve(&bits[..3]);
        old.encode(&gradient(seed, n), 0.05, &mut Xoshiro256::new(seed ^ 6));
        let snapshot = old.take_residual();
        assert_eq!(snapshot.parts.len(), 3, "one part per EF segment");
        let mut new = resolve(&bits[3..]);
        new.restore_residual(snapshot.clone());
        assert_eq!(
            new.take_residual(),
            snapshot,
            "a re-plan altered the residual"
        );
    }
}
