//! Synthetic class-conditional datasets standing in for CIFAR-10, CIFAR-100
//! and SVHN.
//!
//! Each class `c` gets a random prototype vector `mu_c`; samples of class `c`
//! are `mu_c + noise`, with a per-preset noise level controlling task
//! difficulty. A fraction of the feature dimensions is shared across classes
//! ("nuisance" dimensions) so the model cannot solve the task with a single
//! coordinate, which keeps Top-K retention patterns non-trivial — the property
//! the paper's overlap analysis depends on.

use crate::dataset::Dataset;
use fl_tensor::dist::Normal;
use fl_tensor::rng::Xoshiro256;

/// Named dataset presets mirroring the paper's three benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetPreset {
    /// 10 classes, moderate difficulty — stands in for CIFAR-10.
    Cifar10Like,
    /// 100 classes, hard — stands in for CIFAR-100.
    Cifar100Like,
    /// 10 classes, easier (digit-like) — stands in for SVHN.
    SvhnLike,
}

impl DatasetPreset {
    /// Human-readable name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::Cifar10Like => "cifar10-like",
            DatasetPreset::Cifar100Like => "cifar100-like",
            DatasetPreset::SvhnLike => "svhn-like",
        }
    }

    /// Default generation spec for this preset, scaled by `scale`
    /// (1.0 = full experiment size, smaller values for quick runs).
    pub fn spec(&self, scale: f64) -> SyntheticSpec {
        let scale = scale.clamp(0.01, 10.0);
        match self {
            // Separation/noise levels are tuned so a well-trained centralized
            // classifier lands in the paper's accuracy ballpark for the
            // corresponding real dataset (CIFAR-10 ≈ 0.75–0.9, SVHN ≈ 0.9+,
            // CIFAR-100 ≈ 0.5–0.6) instead of saturating at 100%; this keeps
            // the relative ordering of the FL algorithms meaningful.
            DatasetPreset::Cifar10Like => SyntheticSpec {
                num_classes: 10,
                feature_dim: 128,
                train_per_class: ((500.0 * scale) as usize).max(8),
                test_per_class: ((100.0 * scale) as usize).max(4),
                class_separation: 0.45,
                noise_std: 1.0,
                informative_fraction: 0.5,
            },
            DatasetPreset::Cifar100Like => SyntheticSpec {
                num_classes: 100,
                feature_dim: 128,
                train_per_class: ((50.0 * scale) as usize).max(4),
                test_per_class: ((10.0 * scale) as usize).max(2),
                class_separation: 0.50,
                noise_std: 1.0,
                informative_fraction: 0.5,
            },
            DatasetPreset::SvhnLike => SyntheticSpec {
                num_classes: 10,
                feature_dim: 128,
                train_per_class: ((600.0 * scale) as usize).max(8),
                test_per_class: ((120.0 * scale) as usize).max(4),
                class_separation: 0.60,
                noise_std: 0.9,
                informative_fraction: 0.6,
            },
        }
    }
}

/// Parameters of the synthetic class-conditional generator.
#[derive(Clone, Debug)]
pub struct SyntheticSpec {
    /// Number of classes.
    pub num_classes: usize,
    /// Feature dimensionality of every sample.
    pub feature_dim: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Distance scale between class prototypes (larger = easier).
    pub class_separation: f64,
    /// Standard deviation of the additive sample noise.
    pub noise_std: f64,
    /// Fraction of feature dimensions that carry class signal; the rest are
    /// shared nuisance dimensions.
    pub informative_fraction: f64,
}

impl SyntheticSpec {
    /// Total number of training samples this spec will generate.
    pub fn train_size(&self) -> usize {
        self.num_classes * self.train_per_class
    }

    /// Total number of test samples this spec will generate.
    pub fn test_size(&self) -> usize {
        self.num_classes * self.test_per_class
    }

    /// Generate the (train, test) dataset pair from a seed.
    pub fn generate(&self, seed: u64) -> (Dataset, Dataset) {
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(
            self.feature_dim >= 2,
            "need at least two feature dimensions"
        );
        assert!(
            (0.0..=1.0).contains(&self.informative_fraction),
            "informative_fraction must be in [0, 1]"
        );
        let mut rng = Xoshiro256::new(seed);
        let proto_dist = Normal::new(0.0, self.class_separation);
        let n_informative =
            ((self.feature_dim as f64 * self.informative_fraction).round() as usize).max(1);

        // Class prototypes: signal only in the informative dimensions.
        let mut prototypes = vec![vec![0.0f32; self.feature_dim]; self.num_classes];
        for proto in prototypes.iter_mut() {
            for slot in proto.iter_mut().take(n_informative) {
                *slot = proto_dist.sample(&mut rng) as f32;
            }
        }

        let noise = Normal::new(0.0, self.noise_std);
        let gen_split = |per_class: usize, rng: &mut Xoshiro256| {
            let mut ds = Dataset::empty(self.feature_dim, self.num_classes);
            let mut buf = vec![0.0f32; self.feature_dim];
            for (class, proto) in prototypes.iter().enumerate() {
                for _ in 0..per_class {
                    for (j, slot) in buf.iter_mut().enumerate() {
                        *slot = proto[j] + noise.sample(rng) as f32;
                    }
                    ds.push(&buf, class);
                }
            }
            ds
        };

        let train = gen_split(self.train_per_class, &mut rng);
        let test = gen_split(self.test_per_class, &mut rng);
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_class_counts() {
        assert_eq!(DatasetPreset::Cifar10Like.spec(1.0).num_classes, 10);
        assert_eq!(DatasetPreset::Cifar100Like.spec(1.0).num_classes, 100);
        assert_eq!(DatasetPreset::SvhnLike.spec(1.0).num_classes, 10);
    }

    #[test]
    fn generation_sizes_match_spec() {
        let spec = DatasetPreset::Cifar10Like.spec(0.1);
        let (train, test) = spec.generate(1);
        assert_eq!(train.len(), spec.train_size());
        assert_eq!(test.len(), spec.test_size());
        assert_eq!(train.feature_dim(), spec.feature_dim);
        // Balanced classes.
        let counts = train.class_counts();
        assert!(counts.iter().all(|&c| c == spec.train_per_class));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetPreset::SvhnLike.spec(0.05);
        let (a, _) = spec.generate(42);
        let (b, _) = spec.generate(42);
        assert_eq!(a.sample(0), b.sample(0));
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = DatasetPreset::Cifar10Like.spec(0.05);
        let (a, _) = spec.generate(1);
        let (b, _) = spec.generate(2);
        assert_ne!(a.sample(0), b.sample(0));
    }

    #[test]
    fn classes_are_separated() {
        // Distance between per-class means should exceed within-class spread.
        let spec = DatasetPreset::Cifar10Like.spec(0.2);
        let (train, _) = spec.generate(7);
        let dim = train.feature_dim();
        let mut means = vec![vec![0.0f64; dim]; spec.num_classes];
        let counts = train.class_counts();
        for i in 0..train.len() {
            let y = train.labels()[i];
            for (j, &v) in train.sample(i).iter().enumerate() {
                means[y][j] += v as f64 / counts[y] as f64;
            }
        }
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let d01 = dist(&means[0], &means[1]);
        assert!(d01 > 1.0, "class means should be separated, got {d01}");
    }

    #[test]
    fn scale_clamps_to_minimum_sizes() {
        let spec = DatasetPreset::Cifar100Like.spec(0.0001);
        assert!(spec.train_per_class >= 4);
        assert!(spec.test_per_class >= 2);
    }
}
