//! Integration tests of the compression pipeline across crates: dense model
//! deltas from `fl-nn`, selection functions and registry-built codecs from
//! `fl-compress`, overlap/OPWA from `fl-core`, and communication accounting
//! from `fl-netsim`.

use bwfl::compress::topk;
use bwfl::nn::Workspace;
use bwfl::prelude::*;

/// A registry-built codec for `spec`, sized for `n` coordinates.
fn codec(spec: &str, n: usize) -> Box<dyn UpdateCodec> {
    CodecRegistry::with_builtins()
        .build(&spec.parse().expect("spec parses"), &CodecCtx::new(n, 1))
        .expect("builtin codec")
}

/// Build a realistic dense "model delta" by actually training a small model
/// for one epoch and differencing the parameters.
fn realistic_delta(seed: u64) -> Vec<f32> {
    let spec = DatasetPreset::Cifar10Like.spec(0.05);
    let (train, _) = spec.generate(seed);
    let mut rng = Xoshiro256::new(seed);
    let mut model = mlp(
        train.feature_dim(),
        &[32, 16],
        train.num_classes(),
        &mut rng,
    );
    let before = flatten_params(&model);
    let mut loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(0.05, 0.9, 0.0);
    let loader = BatchLoader::new(32);
    let (mut ws, mut order, mut x, mut y, mut g) = (
        Workspace::new(),
        Vec::new(),
        Tensor::empty(),
        Vec::new(),
        Tensor::empty(),
    );
    loader.shuffle_epoch(&train, &mut rng, &mut order);
    for (s, e) in loader.batch_ranges(train.len()) {
        train.gather_batch_into(&order[s..e], &mut x, &mut y);
        loss.forward(model.forward_in(&x, &mut ws), &y);
        loss.backward_in(&mut g);
        model.backward_in(&g, &mut ws);
        opt.step(&mut model);
    }
    let after = flatten_params(&model);
    before
        .iter()
        .zip(after.iter())
        .map(|(b, a)| b - a)
        .collect()
}

#[test]
fn topk_wire_roundtrip_preserves_retained_coordinates() {
    let delta = realistic_delta(1);
    let sparse = topk::select(&delta, 0.1);
    // Serialize to the byte-level wire format and back.
    let mut topk_codec = codec("topk", delta.len());
    let wire = topk_codec.encode(&delta, 0.1, &mut Xoshiro256::new(1));
    let restored = wire.decode().unwrap();
    assert_eq!(restored, sparse);
    // Every retained coordinate exactly matches the original delta.
    for (&i, &v) in restored.indices().iter().zip(restored.values().iter()) {
        assert_eq!(v, delta[i as usize]);
    }
}

#[test]
fn compression_ratio_controls_wire_size_and_time() {
    let delta = realistic_delta(2);
    let model_bytes = delta.len() as f64 * 4.0;
    let link = Link::from_mbps_ms(1.0, 100.0);
    let comm = CommModel::paper_default();
    let mut previous_bytes = usize::MAX;
    let mut previous_time = f64::INFINITY;
    for ratio in [0.5, 0.1, 0.01] {
        let bytes = topk::select(&delta, ratio).wire_size_bytes();
        assert!(bytes < previous_bytes);
        previous_bytes = bytes;
        let t = comm.transfer_time(&link, CommModel::analytic_bytes(model_bytes, ratio));
        assert!(t < previous_time);
        previous_time = t;
    }
}

#[test]
fn error_feedback_recovers_information_across_rounds() {
    // Compressing the same delta repeatedly with EF must eventually transmit
    // (almost) all of its mass: the cumulative transmitted vector approaches
    // the cumulative input.
    let delta = realistic_delta(3);
    let mut ef = codec("ef-topk", delta.len());
    let mut rng = Xoshiro256::new(3);
    let rounds = 25;
    let mut transmitted = vec![0.0f32; delta.len()];
    for _ in 0..rounds {
        let (_, sent) = ef.encode_sent(&delta, 0.1, &mut rng);
        for (t, s) in transmitted.iter_mut().zip(sent.to_dense().iter()) {
            *t += s;
        }
    }
    let target: Vec<f32> = delta.iter().map(|d| d * rounds as f32).collect();
    let err: f64 = transmitted
        .iter()
        .zip(target.iter())
        .map(|(t, g)| ((t - g) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = target
        .iter()
        .map(|g| (*g as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(
        err / norm < 0.25,
        "EF should transmit most of the repeated signal (relative error {})",
        err / norm
    );
}

#[test]
fn bcrs_schedule_integrates_with_compressor_nnz() {
    // The ratios BCRS assigns translate into actual retained-coordinate
    // counts when fed to Top-K, and the resulting wire sizes reproduce the
    // scheduled upload times under the communication model.
    let delta = realistic_delta(4);
    let model_bytes = delta.len() as f64 * 4.0;
    let links = LinkGenerator::paper_default().generate(5, 9);
    let comm = CommModel::paper_default();
    let schedule = BcrsScheduler::new(comm).schedule(&links, model_bytes, 0.02);
    for (i, (&ratio, link)) in schedule.ratios.iter().zip(links.iter()).enumerate() {
        let sparse = topk::select(&delta, ratio);
        let achieved = sparse.compression_ratio();
        assert!(
            (achieved - ratio).abs() < 1e-3,
            "client {i}: achieved CR {achieved} vs scheduled {ratio}"
        );
        // Time computed from the actual wire size ~ scheduled time (the wire
        // size is 8 bytes/coordinate = the 2x model-bytes×CR accounting).
        let t_wire = comm.transfer_time(link, sparse.wire_size_bytes() as f64);
        assert!(
            (t_wire - schedule.scheduled_times[i]).abs() / schedule.scheduled_times[i] < 0.02,
            "client {i}: wire-size time {t_wire} vs scheduled {}",
            schedule.scheduled_times[i]
        );
    }
}

#[test]
fn opwa_mask_amplifies_rare_coordinates_in_aggregation() {
    // Five clients with overlapping Top-K patterns: aggregate with and
    // without OPWA and verify singleton coordinates grow by gamma.
    let deltas: Vec<Vec<f32>> = (0..5).map(|s| realistic_delta(10 + s)).collect();
    let updates: Vec<SparseUpdate> = deltas.iter().map(|d| topk::select(d, 0.05)).collect();
    let refs: Vec<&SparseUpdate> = updates.iter().collect();
    let counts = OverlapCounts::from_updates(&refs);
    let gamma = 5.0f32;
    let mask = OpwaMask::from_overlap(&counts, gamma, 1);
    let coeffs = vec![0.2f64; 5];

    let plain = fl_core::aggregate::aggregate_sparse(&refs, &coeffs, None);
    let weighted = fl_core::aggregate::aggregate_sparse(&refs, &coeffs, Some(&mask));
    let mut checked = 0;
    for i in 0..plain.len() {
        match counts.degree(i) {
            1 => {
                assert!(
                    (weighted[i] - plain[i] * gamma).abs() < 1e-5,
                    "singleton coordinate {i} should be enlarged"
                );
                checked += 1;
            }
            d if d > 1 => {
                assert!((weighted[i] - plain[i]).abs() < 1e-5);
            }
            _ => {}
        }
    }
    assert!(
        checked > 0,
        "no singleton coordinates found — test is vacuous"
    );
}

#[test]
fn quantizer_fits_in_the_same_pipeline() {
    let delta = realistic_delta(6);
    let mut qsgd = codec("qsgd:5", delta.len());
    let wire = qsgd.encode(&delta, 1.0, &mut Xoshiro256::new(6));
    // The quantized update keeps every coordinate but is cheaper on the
    // wire than f32.
    assert!(wire.len() < delta.len() * 4 / 4);
    let q = wire.decode().unwrap();
    assert_eq!(q.nnz(), delta.len());
    // Aggregating a mix of sparse and quantized updates works.
    let s = topk::select(&delta, 0.1);
    let agg = fl_core::aggregate::aggregate_sparse(&[&s, &q], &[0.5, 0.5], None);
    assert_eq!(agg.len(), delta.len());
    assert!(agg.iter().any(|&v| v != 0.0));
}
