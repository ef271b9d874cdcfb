//! Bit-level pins of the synthetic generator and of Kaiming initialisation.
//!
//! The session fingerprints reach the generator only through `Cifar10Like`
//! at a few scales, so SVHN's `noise_std` 0.9 and Cifar-100's
//! `class_separation` 0.5 would otherwise be unpinned. Every digest below is
//! FNV-1a over every feature's `to_bits` and every label of train then test.
//! A sampler change (Box–Muller's evaluation, the draw order, the buffer
//! layout) must leave them all in place. Re-capture only for an intended
//! change: `DIGEST_PRINT=1 cargo test -p fl-data --test generator_digest -- --nocapture`.

use fl_data::{Dataset, DatasetPreset};
use fl_tensor::{Shape, Tensor, Xoshiro256};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

fn fold_f32s(hash: &mut u64, values: &[f32]) {
    fold(hash, &(values.len() as u64).to_le_bytes());
    values
        .iter()
        .for_each(|v| fold(hash, &v.to_bits().to_le_bytes()));
}

fn fold_dataset(hash: &mut u64, ds: &Dataset) {
    fold(hash, &(ds.len() as u64).to_le_bytes());
    for i in 0..ds.len() {
        fold_f32s(hash, ds.sample(i));
        fold(hash, &(ds.labels()[i] as u64).to_le_bytes());
    }
}

/// `(preset, scale, seed, digest of train then test)`.
#[rustfmt::skip]
const DATASET_PINS: [(&str, f64, u64, u64); 12] = [
    ("cifar10-like", 0.05, 1, 0xe91ca793ee1c3f44),
    ("cifar10-like", 0.05, 42, 0xc87a2e86c46d5a52),
    ("cifar10-like", 1.0, 1, 0x9c21e763ee2e0aaa),
    ("cifar10-like", 1.0, 42, 0x52cc70f67ebbf60e),
    ("cifar100-like", 0.05, 1, 0x1e759248118b4103),
    ("cifar100-like", 0.05, 42, 0x202d7be26da63313),
    ("cifar100-like", 1.0, 1, 0x193eb2b587076ed1),
    ("cifar100-like", 1.0, 42, 0x5549b5296f39202e),
    ("svhn-like", 0.05, 1, 0xc6c40e9b53bdcced),
    ("svhn-like", 0.05, 42, 0x3e107607ecd6b563),
    ("svhn-like", 1.0, 1, 0x2a574a7889dbcda0),
    ("svhn-like", 1.0, 42, 0x1c442660480eeaee),
];

/// `(seed, digest)` of `Tensor::kaiming` over the weight shapes of a
/// 128 → 256 → 128 → 10 MLP, drawn in layer order from one generator.
#[rustfmt::skip]
const KAIMING_PINS: [(u64, u64); 2] = [
    (1, 0xc152327a35db6818),
    (42, 0x57243b624711a383),
];

fn preset(name: &str) -> DatasetPreset {
    [
        DatasetPreset::Cifar10Like,
        DatasetPreset::Cifar100Like,
        DatasetPreset::SvhnLike,
    ]
    .into_iter()
    .find(|p| p.name() == name)
    .expect("known preset")
}

#[test]
fn generated_datasets_are_pinned() {
    let print = std::env::var_os("DIGEST_PRINT").is_some();
    let mut mismatches = Vec::new();
    for (name, scale, seed, pin) in DATASET_PINS {
        let (train, test) = preset(name).spec(scale).generate(seed);
        let mut hash = FNV_OFFSET;
        fold_dataset(&mut hash, &train);
        fold_dataset(&mut hash, &test);
        if print {
            println!("    ({name:?}, {scale:?}, {seed}, {hash:#018x}),");
        }
        if hash != pin {
            mismatches.push(format!("{name} scale {scale} seed {seed}: {hash:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "moved digests: {mismatches:#?}");
}

#[test]
fn kaiming_init_is_pinned() {
    let print = std::env::var_os("DIGEST_PRINT").is_some();
    let mut mismatches = Vec::new();
    for (seed, pin) in KAIMING_PINS {
        let mut rng = Xoshiro256::new(seed);
        let mut hash = FNV_OFFSET;
        for (fan_in, fan_out) in [(128, 256), (256, 128), (128, 10)] {
            let w = Tensor::kaiming(Shape::matrix(fan_in, fan_out), fan_in, &mut rng);
            fold_f32s(&mut hash, w.data());
        }
        if print {
            println!("    ({seed}, {hash:#018x}),");
        }
        if hash != pin {
            mismatches.push(format!("seed {seed}: {hash:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "moved digests: {mismatches:#?}");
}
