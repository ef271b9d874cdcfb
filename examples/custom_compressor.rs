//! Layer-aware compression with [`LayerPlan`] — plus a custom codec plugged
//! into the same registry.
//!
//! The paper's framework treats the model delta as one flat vector, but real
//! models are heterogeneous per layer: big weight matrices tolerate
//! aggressive Top-K while a handful of bias coordinates collapses under it.
//! This example shows the three extension points working together:
//!
//! 1. **Layouts** — `fl-nn`'s [`ParamLayout`] names each slice of the flat
//!    vector (`linear0.weight`, `linear0.bias`, …) in the exact order
//!    `flatten_params` packs it.
//! 2. **Plans** — a [`LayerPlan`] such as `"*.bias=dense;*=topk"` assigns one
//!    codec per segment with first-match glob rules. Mixed plans frame their
//!    per-segment payloads into the `Segmented` wire kind (honest bytes,
//!    framing included); uniform plans collapse to the flat codec bit for
//!    bit.
//! 3. **Custom codecs** — implement [`UpdateCodec`], register it by name, and
//!    reference it from a plan rule like any built-in. Because it emits the
//!    standard sparse wire format, decode, overlap analysis and the round
//!    engine all compose for free.
//!
//! Run with `cargo run --release --example custom_compressor`.

use bwfl::prelude::*;

/// A custom codec: Top-K at *half* the requested ratio — the kind of
/// per-tenant policy knob a real deployment might register ("this workload
/// only gets half the budget the scheduler hands out").
struct HalfBudgetTopK;

impl UpdateCodec for HalfBudgetTopK {
    fn name(&self) -> String {
        "half-topk".into()
    }

    fn encode_sent(
        &mut self,
        dense: &[f32],
        ratio: f64,
        _rng: &mut Xoshiro256,
    ) -> (WireUpdate, SparseUpdate) {
        let sparse = bwfl::compress::topk::select(dense, (ratio / 2.0).max(1e-6));
        // The standard sparse wire format: the default decode, overlap
        // analysis and OPWA masking all understand our bytes — and what they
        // decode to is the selection itself.
        let wire = bwfl::compress::wire::encode_sparse(&sparse);
        (wire, sparse)
    }
}

fn half_topk_factory(
    arg: Option<&str>,
    _ctx: &CodecCtx,
) -> Result<Box<dyn UpdateCodec>, SpecError> {
    if let Some(a) = arg {
        return Err(SpecError::BadArg {
            codec: "half-topk".into(),
            reason: format!("takes no argument, got {a:?}"),
        });
    }
    Ok(Box::new(HalfBudgetTopK))
}

fn main() {
    // A small model, its flat delta, and the layout naming every slice.
    let mut rng = Xoshiro256::new(5);
    let mut model = mlp(128, &[128, 64], 10, &mut rng);
    let layout = ParamLayout::of(&model);
    println!("model layout: {layout}");

    // Fake one round of training drift to get a realistic delta.
    let before = flatten_params(&model);
    let nudged: Vec<f32> = before
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            w + if i % 37 == 0 {
                0.05
            } else {
                0.0005 * (i % 7) as f32
            }
        })
        .collect();
    unflatten_params(&mut model, &nudged);
    let delta: Vec<f32> = before
        .iter()
        .zip(nudged.iter())
        .map(|(a, b)| a - b)
        .collect();
    let dense_bytes = delta.len() * 4;

    // One registry serves built-ins and the custom codec alike.
    let mut registry = CodecRegistry::with_builtins();
    registry.register("half-topk", half_topk_factory);

    let segments = segment_defs(&layout);
    let ctx = CodecCtx::new(delta.len(), 11);
    let ratio = 0.05;

    let plans = [
        "*=topk",                                // uniform: collapses to flat topk
        "*.bias=dense;*=topk",                   // biases exact, weights top-k
        "*.bias=dense;*=topk+qsgd:6",            // + 6-bit values on the weights
        "linear0*=half-topk;*=topk",             // custom codec on the first layer
        "*.bias=dense;linear2*=ef-topk;*=randk", // per-layer EF residuals
    ];

    println!(
        "\ndense delta: {} parameters, {dense_bytes} bytes, target ratio {ratio}",
        delta.len()
    );
    println!("{:>42} {:>12} {:>10}", "plan", "wire bytes", "vs dense");
    for raw in &plans {
        let plan: LayerPlan = raw.parse().expect("example plans parse");
        let mut codec = plan
            .resolve(&registry, &segments, &ctx)
            .expect("example plans resolve");
        let mut stream = Xoshiro256::new(17);
        let wire = codec.encode(&delta, ratio, &mut stream);
        codec.decode(&wire).expect("self-encoded bytes decode");
        println!(
            "{raw:>42} {:>12} {:>9.1}x",
            wire.len(),
            dense_bytes as f64 / wire.len() as f64
        );
        // Mixed plans are self-describing on the wire: the per-segment byte
        // split is readable straight from the frame.
        if let Some(seg_lens) = wire.segment_byte_lens() {
            for (seg, bytes) in layout.segments().iter().zip(seg_lens.iter()) {
                println!("{:>42}   {:>6} B  ({} coords)", seg.name, bytes, seg.len);
            }
        }
    }

    // The same plan drives the full round engine: set
    // `config.layer_compressors`, hand the builder the registry with the
    // custom codec, and the per-layer byte breakdown lands in every record.
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.rounds = 2;
    config.max_threads = 1;
    config.cost_basis = CostBasis::Encoded;
    config.layer_compressors = Some("*.bias=dense;linear0*=half-topk;*=topk".parse().unwrap());
    let result = SessionBuilder::from_config(&config)
        .codec_registry(registry)
        .build()
        .run();
    println!(
        "\nround engine with plan {}:",
        config.layer_compressors.as_ref().unwrap()
    );
    for record in &result.records {
        println!(
            "  round {}: {} uplink bytes, acc {:.3}",
            record.round, record.uplink_bytes, record.test_accuracy
        );
        for l in record.layer_bytes.as_ref().expect("mixed plan breakdown") {
            println!("    {:<16} {:>8} B", l.layer, l.uplink_bytes);
        }
    }
}
