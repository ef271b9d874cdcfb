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

use fl_compress::wire::{KIND_ENTROPY, KIND_QUANTIZED, KIND_SPARSE_QUANTIZED};
use fl_compress::{
    migrate_planned_residual, CodecCtx, CodecRegistry, CompressorSpec, LayerPlan, SegmentDef,
    UpdateCodec, WireUpdate,
};
use fl_tensor::rng::{Rng, Xoshiro256};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

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
        let decoded = codec.decode(&wire).expect("own bytes decode");
        prop_assert!(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The single-pass contract, for every built-in: the update `encode_sent`
    /// returns equals `decode` of the bytes it returns, compared by
    /// `to_bits` — NaN and infinite norms, the all-zero vector, level-0
    /// coordinates and the `:rc` never-expand fallback included.
    #[test]
    fn prop_encode_sent_equals_decode_of_wire(
        seed in 0u64..1 << 32,
        n in 1usize..700,
        flavour in 0u8..7,
        ratio_pct in 1u32..101,
    ) {
        let ratio = ratio_pct as f64 / 100.0;
        for spec in BUILTIN_SPECS {
            let mut codec = build(spec, n);
            assert_encode_sent_is_decode(spec, codec.as_mut(), seed, n, flavour, ratio);
        }
    }

    /// The same contract through a mixed layer plan: the spliced update a
    /// `PlannedCodec` returns equals the decode of its `Segmented` frame,
    /// with error-feedback, dense, quantized and entropy-coded segments side
    /// by side.
    #[test]
    fn prop_planned_encode_sent_equals_decode_of_frame(
        seed in 0u64..1 << 32,
        w0 in 8usize..400,
        b0 in 1usize..40,
        w1 in 8usize..400,
        flavour in 0u8..7,
        ratio_pct in 1u32..101,
    ) {
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
        let mut codec = plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        assert_encode_sent_is_decode(
            "mixed plan",
            codec.as_mut(),
            seed,
            n,
            flavour,
            ratio_pct as f64 / 100.0,
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every flat builtin spec round-trips through bytes: re-parsing the
    /// encoded buffer decodes to the same update the producing codec frames,
    /// with the dense length preserved and every value finite.
    #[test]
    fn prop_flat_specs_roundtrip(seed in 0u64..1 << 32, n in 1usize..600, ratio_pct in 1u32..100) {
        let ratio = ratio_pct as f64 / 100.0;
        let d = gradient(seed, n);
        for spec in [
            "topk", "randk", "qsgd:4", "qsgd:8", "qsgd:8:rc",
            "topk+qsgd:6", "topk+qsgd:6:rc", "ef-topk", "dense",
        ] {
            let mut codec = build(spec, n);
            let wire = codec.encode(&d, ratio, &mut Xoshiro256::new(seed ^ 1));
            let reparsed = WireUpdate::from_bytes(wire.as_bytes().to_vec().into());
            prop_assert_eq!(&reparsed, &wire, "byte re-parse differs for {}", spec);
            let dense = wire.decode().expect("own bytes decode").into_dense();
            prop_assert_eq!(dense.len(), n, "length drift for {}", spec);
            prop_assert!(dense.iter().all(|v| v.is_finite()), "non-finite decode for {}", spec);
            if spec == "dense" {
                prop_assert!(
                    dense.iter().zip(d.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "dense codec must be lossless"
                );
            }
        }
    }

    /// The entropy twin of a bit-packed quantizer decodes bit-identically
    /// (same levels, same dequantization) and its frame is never larger:
    /// when the entropy coder cannot beat bit-packing it falls back to it.
    #[test]
    fn prop_entropy_twin_bit_identical_never_larger(
        seed in 0u64..1 << 32,
        n in 1usize..2000,
        bits in 2u8..9,
    ) {
        let d = gradient(seed, n);
        let mut rc = build(&format!("qsgd:{bits}:rc"), n);
        let mut packed = build(&format!("qsgd:{bits}"), n);
        let wr = rc.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 2));
        let wp = packed.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 2));
        prop_assert!(wr.len() <= wp.len(), "entropy frame expanded: {} > {}", wr.len(), wp.len());
        let a = wr.decode().expect("rc decodes").into_dense();
        let b = wp.decode().expect("packed decodes").into_dense();
        prop_assert!(
            a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "entropy decode drifted from bit-packed twin"
        );
    }

    /// Same twin property through the sparse composed path: identical
    /// retained indices, bit-identical values, never more bytes.
    #[test]
    fn prop_sparse_entropy_twin(
        seed in 0u64..1 << 32,
        n in 20usize..2000,
        bits in 2u8..9,
        ratio_pct in 1u32..100,
    ) {
        let ratio = ratio_pct as f64 / 100.0;
        let d = gradient(seed, n);
        let mut rc = build(&format!("topk+qsgd:{bits}:rc"), n);
        let mut packed = build(&format!("topk+qsgd:{bits}"), n);
        let wr = rc.encode(&d, ratio, &mut Xoshiro256::new(seed ^ 3));
        let wp = packed.encode(&d, ratio, &mut Xoshiro256::new(seed ^ 3));
        prop_assert!(wr.len() <= wp.len(), "sparse entropy frame expanded");
        let a = wr.decode().expect("rc decodes").into_sparse().expect("sparse kind");
        let b = wp.decode().expect("packed decodes").into_sparse().expect("sparse kind");
        prop_assert_eq!(a.indices(), b.indices());
        prop_assert!(
            a.values().iter().zip(b.values().iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "sparse entropy values drifted from bit-packed twin"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed layer plans frame `Segmented` updates whose decode preserves the
    /// total length, keeps dense-coded segments bit-exact, and round-trips
    /// through a byte re-parse. Entropy rules inside a plan stay bit-identical
    /// to their bit-packed twin plan.
    #[test]
    fn prop_segmented_plan_roundtrip(
        seed in 0u64..1 << 32,
        w0 in 8usize..400,
        b0 in 1usize..40,
        w1 in 8usize..400,
        bits in 2u8..9,
    ) {
        let layout = vec![
            SegmentDef::new("l0.weight", w0),
            SegmentDef::new("l0.bias", b0),
            SegmentDef::new("l1.weight", w1),
        ];
        let n = w0 + b0 + w1;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();
        let rc_plan: LayerPlan =
            format!("*.bias=dense;*=qsgd:{bits}:rc").parse().expect("plan parses");
        let packed_plan: LayerPlan =
            format!("*.bias=dense;*=qsgd:{bits}").parse().expect("plan parses");
        let mut rc = rc_plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        let mut packed = packed_plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        let d = gradient(seed, n);
        let wr = rc.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 4));
        let wp = packed.encode(&d, 1.0, &mut Xoshiro256::new(seed ^ 4));
        prop_assert!(wr.len() <= wp.len(), "segmented entropy plan expanded");
        let reparsed = WireUpdate::from_bytes(wr.as_bytes().to_vec().into());
        prop_assert_eq!(&reparsed, &wr);
        let a = wr.decode().expect("rc plan decodes").into_dense();
        let b = wp.decode().expect("packed plan decodes").into_dense();
        prop_assert_eq!(a.len(), n);
        prop_assert!(
            a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "segmented entropy decode drifted from bit-packed twin plan"
        );
        // The dense-coded bias segment is lossless in both plans.
        prop_assert!(
            a[w0..w0 + b0].iter().zip(d[w0..w0 + b0].iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "dense bias segment must round-trip exactly"
        );
    }

    /// Error-feedback plans: taking the residual snapshot and restoring it
    /// between rounds is invisible — a twin codec fed the same inputs without
    /// the snapshot round-trip emits byte-identical frames every round.
    #[test]
    fn prop_ef_plan_snapshot_roundtrip(
        seed in 0u64..1 << 32,
        w in 8usize..300,
        b in 1usize..30,
        rounds in 1usize..4,
    ) {
        let layout = vec![SegmentDef::new("l.weight", w), SegmentDef::new("l.bias", b)];
        let n = w + b;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();
        let plan: LayerPlan = "*.bias=dense;*=ef-topk".parse().expect("plan parses");
        let mut snapshotted = plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        let mut straight = plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        let mut rng_a = Xoshiro256::new(seed ^ 5);
        let mut rng_b = Xoshiro256::new(seed ^ 5);
        for round in 0..rounds {
            let d = gradient(seed.wrapping_add(round as u64), n);
            let state = snapshotted.take_residual();
            snapshotted.restore_residual(state);
            let wa = snapshotted.encode(&d, 0.25, &mut rng_a);
            let wb = straight.encode(&d, 0.25, &mut rng_b);
            prop_assert_eq!(&wa, &wb, "snapshot round-trip changed round {} frame", round);
        }
        prop_assert!(snapshotted.residual_norm().is_finite());
        prop_assert_eq!(snapshotted.residual_norm(), straight.residual_norm());
    }

    /// Residual migration across an adaptive re-plan: a bit-width change on
    /// an error-feedback rule carries every accumulated coordinate verbatim —
    /// none dropped, none duplicated, none zeroed — and the migrated snapshot
    /// restores cleanly into the new plan's codec. EF → stateless drops the
    /// segment's residual; stateless → EF inserts an exact-length zero part.
    #[test]
    fn prop_residual_migration_preserves_ef_coordinates(
        seed in 0u64..1 << 32,
        w0 in 8usize..300,
        b0 in 1usize..30,
        w1 in 8usize..300,
        new_bits in 2u8..8,
    ) {
        let layout = vec![
            SegmentDef::new("l0.weight", w0),
            SegmentDef::new("l0.bias", b0),
            SegmentDef::new("l1.weight", w1),
        ];
        let lens = [w0, b0, w1];
        let n = w0 + b0 + w1;
        let ctx = CodecCtx::new(n, 1);
        let registry = CodecRegistry::with_builtins();

        // Park a residual under EF weights + a stateless bias rule.
        let old_plan: LayerPlan = "*.bias=topk;*=ef-topk+qsgd:8".parse().expect("plan parses");
        let old_counts = old_plan.part_counts(&layout).expect("plan covers layout");
        prop_assert_eq!(&old_counts[..], &[1, 0, 1]);
        let mut old = old_plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        old.encode(&gradient(seed, n), 0.05, &mut Xoshiro256::new(seed ^ 6));
        let snapshot = old.take_residual();
        let before: Vec<u32> =
            snapshot.parts.iter().flatten().map(|v| v.to_bits()).collect();
        prop_assert_eq!(snapshot.parts.len(), 2);

        // Bit-width change, same part structure: coordinates carried verbatim.
        let new_plan: LayerPlan = format!("*.bias=topk;*=ef-topk+qsgd:{new_bits}")
            .parse()
            .expect("plan parses");
        let new_counts = new_plan.part_counts(&layout).expect("plan covers layout");
        let migrated =
            migrate_planned_residual(snapshot.clone(), &old_counts, &new_counts, &lens);
        let after: Vec<u32> =
            migrated.parts.iter().flatten().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&after, &before, "bit-width migration altered residual coordinates");
        let mut new = new_plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
        let norm_before = {
            let mut probe = old_plan.resolve(&registry, &layout, &ctx).expect("plan resolves");
            probe.restore_residual(snapshot.clone());
            probe.residual_norm()
        };
        new.restore_residual(migrated);
        prop_assert_eq!(new.residual_norm(), norm_before, "restored norm drifted");

        // EF everywhere: the bias segment gains a fresh all-zero part of
        // exactly its length; the weight parts still carry verbatim.
        let wide_plan: LayerPlan = "*=ef-topk".parse().expect("plan parses");
        let wide_counts = wide_plan.part_counts(&layout).expect("plan covers layout");
        prop_assert_eq!(&wide_counts[..], &[1, 1, 1]);
        let widened =
            migrate_planned_residual(snapshot.clone(), &old_counts, &wide_counts, &lens);
        prop_assert_eq!(widened.parts.len(), 3);
        prop_assert_eq!(widened.parts[1].len(), b0);
        prop_assert!(widened.parts[1].iter().all(|&v| v == 0.0), "fresh EF part must be zero");
        let widened_coords: Vec<u32> = widened.parts[0]
            .iter()
            .chain(&widened.parts[2])
            .map(|v| v.to_bits())
            .collect();
        prop_assert_eq!(&widened_coords, &before, "widening migration altered EF coordinates");

        // Fully stateless: every residual part is dropped, none re-applied.
        let stateless_plan: LayerPlan = "*=topk".parse().expect("plan parses");
        let stateless_counts =
            stateless_plan.part_counts(&layout).expect("plan covers layout");
        prop_assert_eq!(&stateless_counts[..], &[0, 0, 0]);
        let dropped =
            migrate_planned_residual(snapshot, &old_counts, &stateless_counts, &lens);
        prop_assert!(dropped.parts.is_empty(), "stateless plan must hold no residual");
    }
}
