//! Bit-level pins of the synthetic generator and of Kaiming initialisation.
//!
//! The session fingerprints reach the generator only through `Cifar10Like`
//! at a few scales, so SVHN's `noise_std` 0.9 and Cifar-100's
//! `class_separation` 0.5 would otherwise be unpinned. Every digest is
//! FNV-1a over every feature's `to_bits` and every label of train then test,
//! pinned in `tests/fixtures/pins.txt`. A sampler change (Box–Muller's
//! evaluation, the draw order, the buffer layout) must leave them all in
//! place. Re-pin only for an intended change:
//! `PIN_BLESS=1 cargo test --release -p fl-data --test generator_digest`.

#[path = "../../../tests/common/pins.rs"]
mod pins;

use fl_data::{Dataset, DatasetPreset};
use fl_tensor::{Shape, Tensor, Xoshiro256};
use pins::{Fnv, Row};

fn fold_dataset(hash: &mut Fnv, ds: &Dataset) {
    hash.usize(ds.len());
    for i in 0..ds.len() {
        hash.f32s(ds.sample(i));
        hash.u64(ds.labels()[i] as u64);
    }
}

/// Each preset at scales 0.05 and 1.0 and seeds 1 and 42, pinned as
/// `digest/<preset>/<scale>/<seed>`: train, then test.
#[test]
fn generated_datasets_are_pinned() {
    let mut got = Vec::new();
    for preset in [
        DatasetPreset::Cifar10Like,
        DatasetPreset::Cifar100Like,
        DatasetPreset::SvhnLike,
    ] {
        for scale in [0.05, 1.0] {
            for seed in [1, 42] {
                let (train, test) = preset.spec(scale).generate(seed);
                let mut hash = Fnv::new();
                fold_dataset(&mut hash, &train);
                fold_dataset(&mut hash, &test);
                let name = format!("digest/{}/{scale:?}/{seed}", preset.name());
                got.push(Row::new(name).hash("digest", hash.0));
            }
        }
    }
    pins::check(|name| name.starts_with("digest/"), &got);
}

/// `Tensor::kaiming` over the weight shapes of a 128 → 256 → 128 → 10 MLP,
/// drawn in layer order from one generator, pinned as `kaiming/<seed>`.
#[test]
fn kaiming_init_is_pinned() {
    let mut got = Vec::new();
    for seed in [1, 42] {
        let mut rng = Xoshiro256::new(seed);
        let mut hash = Fnv::new();
        for (fan_in, fan_out) in [(128, 256), (256, 128), (128, 10)] {
            let w = Tensor::kaiming(Shape::matrix(fan_in, fan_out), fan_in, &mut rng);
            hash.f32s(w.data());
        }
        got.push(Row::new(format!("kaiming/{seed}")).hash("digest", hash.0));
    }
    pins::check(|name| name.starts_with("kaiming/"), &got);
}
