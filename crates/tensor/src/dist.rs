//! Probability distributions built on top of the [`Rng`] trait.
//!
//! The simulator needs: Uniform and Normal draws for the network model
//! (bandwidth ~ N(1 Mbit/s, 0.2), latency ~ U(50 ms, 200 ms]) and
//! Gamma/Dirichlet for the non-IID label-skew partition (`p_k ~ Dir(beta)`),
//! and Normal draws by the million for the synthetic datasets and weight
//! initialisation.
//!
//! # Certified fast Gaussian draws
//!
//! [`Normal::sample`] defines the distribution: Box–Muller through libm's
//! `ln` and `cos`, `v = mean + std·r·cos θ` with `r = √(−2 ln u1)` and
//! `θ = 2π·u2`. [`Normal::fill_f32`] writes the same `v as f32` bits without
//! calling libm for almost every draw. It evaluates `v'` with a branch-free
//! `ln` and `cos` built from IEEE-754 add, multiply, divide and square root
//! only (so one loop auto-vectorises, and every target computes the same
//! `v'`), then applies Ziv's rounding test: if every real within `Δ` of `v'`
//! rounds to one `f32`, that `f32` is the answer, because `v` lies in the
//! interval and rounding is monotone. Otherwise the draw is recomputed with
//! `sample`'s libm path, which takes about 2 draws in 10⁵.
//!
//! **Error budget**, with `u = 2⁻⁵³` and the scalar path's libm `ln` and
//! `cos` allowed 1 ulp each (`2u` relative, `2u` absolute):
//! - `ln`: the fast one is within `5u` relative of `ln u1` (one rounding in
//!   `z + 1`, one in the division, one in each final add; `k·ln2_hi` is
//!   exact). Through the exactly-scaled square root, `r` and `r'` are within
//!   `2u` and `3.5u` relative of the true `r`.
//! - `cos`: the fast one is within `4u` absolute (two roundings in the
//!   reduction, about `2u` in the polynomial, truncation below `2⁻⁵⁸`).
//! - the chain: `std·r` and `·cos` round once each on both paths, `4u`
//!   relative to `|std·r|`.
//!
//! So `|std·r·cos θ|` differs between the paths by at most
//! `(5.5u + 6u + 4u)·|std·r| < 1.8e-15·|std·r|`, and the final `mean + ·`
//! plus the rounding of the interval's two ends add at most `3u·|v| <
//! 3.4e-16·|v|`. The certificate's half-width,
//! `Δ = 1e-13·|std·r'| + 1e-14·|v'|`, is at least 30× each part. Measured
//! against glibc over 2·10⁷ draws (and the regions around `√½` and the
//! quadrant edges), the fast `ln` stays within `3u` relative and `cos`
//! within `1u`.
//!
//! The test compares the two `f32` roundings by `==` and by bits: a NaN
//! `v'` fails the first, an interval straddling ±0 the second, and both fall
//! back. When `std·r` is exactly zero, `Δ` is zero and `v = mean ± 0`, whose
//! zero sign is `cos θ`'s sign, which both paths get right.

use crate::rng::Rng;

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution; requires `hi > lo`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "Uniform requires hi > lo (got [{lo}, {hi}))");
        Self { lo, hi }
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
}

/// Normal (Gaussian) distribution, sampled with the Box–Muller transform.
///
/// [`Normal::sample`] is the reference; [`Normal::fill_f32`] produces the
/// same `f32` bits in bulk through a vectorised transform whose every result
/// is either certified to round like the reference or recomputed by it (the
/// module docs give the certificate and its error budget).
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Create a normal distribution; requires `std >= 0`.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0, "Normal requires a non-negative std (got {std})");
        Self { mean, std }
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        // Box–Muller; u1 is kept away from 0 so ln(u1) is finite.
        let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        self.box_muller(u1, u2)
    }

    /// The transform [`Normal::sample`] applies to its two uniforms, through
    /// libm's `ln` and `cos`.
    fn box_muller(&self, u1: f64, u2: f64) -> f64 {
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.std * r * theta.cos()
    }

    /// Fill `out` with exactly what `out.len()` calls of
    /// `self.sample(rng) as f32` would write, bit for bit, leaving `rng` in
    /// the same state.
    ///
    /// Blocks of 256 uniform pairs are drawn serially, in `sample`'s order,
    /// then run through a branch-free transform that auto-vectorises; the
    /// rare draw it cannot certify (about 2 in 10⁵) is recomputed with
    /// [`Normal::sample`]'s libm path. The module docs give the certificate.
    pub fn fill_f32<R: Rng>(&self, rng: &mut R, out: &mut [f32]) {
        let mut u1 = [0.0f64; FILL_BLOCK];
        let mut u2 = [0.0f64; FILL_BLOCK];
        for chunk in out.chunks_mut(FILL_BLOCK) {
            let (u1, u2) = (&mut u1[..chunk.len()], &mut u2[..chunk.len()]);
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                *a = rng.next_f64().max(f64::MIN_POSITIVE);
                *b = rng.next_f64();
            }
            let mut missed = false;
            for ((o, &a), &b) in chunk.iter_mut().zip(u1.iter()).zip(u2.iter()) {
                let v = self.certified(a, b);
                *o = v.unwrap_or(0.0);
                missed |= v.is_none();
            }
            if missed {
                for ((o, &a), &b) in chunk.iter_mut().zip(u1.iter()).zip(u2.iter()) {
                    if self.certified(a, b).is_none() {
                        *o = self.box_muller(a, b) as f32;
                    }
                }
            }
        }
    }

    /// `self.box_muller(u1, u2) as f32` when a libm-free evaluation can
    /// prove what it rounds to, `None` otherwise (see the module docs for the
    /// certificate). Inlined so the loop in [`Normal::fill_f32`] vectorises.
    #[inline(always)]
    fn certified(&self, u1: f64, u2: f64) -> Option<f32> {
        let r = (-2.0 * fast_ln(u1)).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let x = self.std * r;
        let v = self.mean + x * fast_cos(theta);
        let delta = x.abs() * CERT_REL_SPREAD + v.abs() * CERT_REL_SUM;
        let (lo, hi) = ((v - delta) as f32, (v + delta) as f32);
        // `==` rejects NaN; the bit test rejects an interval across ±0.
        (lo == hi && lo.to_bits() == hi.to_bits()).then_some(lo)
    }

    /// Draw one sample truncated below at `floor` (re-draws up to a bounded
    /// number of times, then clamps). Used for bandwidth generation, which
    /// must remain strictly positive.
    pub fn sample_truncated_below<R: Rng>(&self, rng: &mut R, floor: f64) -> f64 {
        for _ in 0..64 {
            let x = self.sample(rng);
            if x > floor {
                return x;
            }
        }
        floor.max(self.mean.max(floor))
    }
}

/// Uniform pairs [`Normal::fill_f32`] draws before each transform pass.
const FILL_BLOCK: usize = 256;

/// Certificate half-width per unit of `|std·r|` (module docs).
const CERT_REL_SPREAD: f64 = 1e-13;

/// Certificate half-width per unit of `|v|` (module docs).
const CERT_REL_SUM: f64 = 1e-14;

/// `ln(u)` for a normal `u` in `(0, 1)`, to within a few ulps *relative*,
/// using only IEEE-754 add, multiply and divide and integer bit operations.
///
/// `u = 2^k·z` with `z` in `[√½, √2)`: the exponent is split off by
/// subtracting `√½`'s bits, `k` becomes an `f64` through the `2^52`
/// magic-number trick (no `as` conversion, which would keep the loop
/// scalar), and `ln z = 2·atanh(s)`, `s = (z−1)/(z+1)`, `|s| ≤ 0.1716`, is
/// summed to `s¹⁹` (truncation below `2⁻⁵⁵` relative). `k·ln 2` is split
/// into an exact high part and a low part.
#[inline(always)]
fn fast_ln(u: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    const EXP_MASK: u64 = 0xfff0_0000_0000_0000;
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    // ln 2 = LN2_HI + LN2_LO + 1.2e-26; LN2_HI has 32 significant bits, so
    // k·LN2_HI is exact for every |k| <= 1022.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    let bits = u.to_bits();
    let shifted = bits.wrapping_sub(SQRT_HALF_BITS);
    let z = f64::from_bits(bits.wrapping_sub(shifted & EXP_MASK));
    // k + 1023 in [1, 1023], read back as 2^52 + k + 1023.
    let biased = (shifted.wrapping_add(1023 << 52) >> 52) | TWO_52.to_bits();
    let k = f64::from_bits(biased) - (TWO_52 + 1023.0);
    let f = z - 1.0;
    let s = f / (z + 1.0);
    let w = s * s;
    let p = 1.0 / 3.0
        + w * (1.0 / 5.0
            + w * (1.0 / 7.0
                + w * (1.0 / 9.0
                    + w * (1.0 / 11.0
                        + w * (1.0 / 13.0
                            + w * (1.0 / 15.0 + w * (1.0 / 17.0 + w * (1.0 / 19.0))))))));
    let two_s = s + s;
    let ln_z = two_s + two_s * (w * p);
    k * LN2_HI + (k * LN2_LO + ln_z)
}

/// `cos(theta)` for `theta` in `[0, 2π)`, to within a few `2⁻⁵³` absolute,
/// using only IEEE-754 add and multiply and integer bit operations.
///
/// `theta` is reduced by the nearest multiple `n` of π/2 (rounded through
/// the `1.5·2^52` magic number, not `round`) with three Cody–Waite
/// constants; `theta − n·PIO2_1` is exact by Sterbenz, so the reduced `x`,
/// `|x| ≤ π/4`, carries two roundings. Then `cos x` (to `x¹⁶`) or `sin x` (to `x¹⁷`),
/// both Taylor series with truncation below `2⁻⁵⁸`, picked and signed by `n`
/// mod 4 with bit operations.
#[inline(always)]
fn fast_cos(theta: f64) -> f64 {
    // π/2 = PIO2_1 + PIO2_2 + PIO2_3 + 1.0e-37; the first two have 33
    // significant bits each, so their products with n <= 4 are exact.
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);
    const ROUNDER: f64 = 6_755_399_441_055_744.0;
    let t = theta * std::f64::consts::FRAC_2_PI + ROUNDER;
    let quadrant = t.to_bits() & 3;
    let n = t - ROUNDER;
    let x = ((theta - n * PIO2_1) - n * PIO2_2) - n * PIO2_3;
    let z = x * x;
    let cos_x = 1.0
        + z * (-1.0 / 2.0
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0
                    + z * (1.0 / 40_320.0
                        + z * (-1.0 / 3_628_800.0
                            + z * (1.0 / 479_001_600.0
                                + z * (-1.0 / 87_178_291_200.0
                                    + z * (1.0 / 20_922_789_888_000.0))))))));
    let sin_x = x + x
        * z
        * (-1.0 / 6.0
            + z * (1.0 / 120.0
                + z * (-1.0 / 5_040.0
                    + z * (1.0 / 362_880.0
                        + z * (-1.0 / 39_916_800.0
                            + z * (1.0 / 6_227_020_800.0
                                + z * (-1.0 / 1_307_674_368_000.0
                                    + z * (1.0 / 355_687_428_096_000.0))))))));
    // cos(x + nπ/2) is cos x, −sin x, −cos x, sin x for n mod 4 = 0..3.
    let base = if quadrant & 1 == 0 { cos_x } else { sin_x };
    f64::from_bits(base.to_bits() ^ (((quadrant + 1) & 2) << 62))
}

/// Gamma distribution (shape `alpha`, scale 1), Marsaglia–Tsang method.
#[derive(Clone, Copy, Debug)]
pub struct Gamma {
    alpha: f64,
}

impl Gamma {
    /// Create a Gamma(alpha, 1) distribution; requires a finite `alpha > 0`
    /// (at `alpha = ∞` the sampler's acceptance test is NaN and never
    /// accepts).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "Gamma requires a finite alpha > 0 (got {alpha})"
        );
        Self { alpha }
    }

    /// Draw one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.alpha < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
            let g = Gamma::new(self.alpha + 1.0).sample(rng);
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            return g * u.powf(1.0 / self.alpha);
        }
        let d = self.alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let normal = Normal::new(0.0, 1.0);
        loop {
            let x = normal.sample(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.next_f64().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }
}

/// Symmetric Dirichlet distribution with concentration `beta` over `k` categories.
///
/// This is the distribution used by the paper (and by Li et al.'s non-IID
/// benchmark) to allocate each class's samples across clients: lower `beta`
/// means more severe label skew.
#[derive(Clone, Copy, Debug)]
pub struct Dirichlet {
    beta: f64,
    k: usize,
}

impl Dirichlet {
    /// Create a symmetric Dirichlet; requires a finite `beta > 0` and
    /// `k >= 1`.
    pub fn new(beta: f64, k: usize) -> Self {
        assert!(
            beta.is_finite() && beta > 0.0,
            "Dirichlet requires a finite beta > 0 (got {beta})"
        );
        assert!(k >= 1, "Dirichlet requires at least one category");
        Self { beta, k }
    }

    /// Draw one probability vector of length `k` (sums to 1).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        let gamma = Gamma::new(self.beta);
        let mut draws: Vec<f64> = (0..self.k).map(|_| gamma.sample(rng)).collect();
        let total: f64 = draws.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            // Degenerate fallback: uniform allocation.
            return vec![1.0 / self.k as f64; self.k];
        }
        draws.iter_mut().for_each(|x| *x /= total);
        draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn mean_std(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn uniform_range_and_mean() {
        let mut rng = Xoshiro256::new(1);
        let d = Uniform::new(0.05, 0.2);
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (0.05..0.2).contains(&x)));
        let (m, _) = mean_std(&xs);
        assert!((m - 0.125).abs() < 0.005);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::new(2);
        let d = Normal::new(1.0, 0.2);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (m, s) = mean_std(&xs);
        assert!((m - 1.0).abs() < 0.01, "mean was {m}");
        assert!((s - 0.2).abs() < 0.01, "std was {s}");
    }

    /// The `(mean, std)` pairs the generator and Kaiming init use, plus
    /// an offset mean, a tiny std, the degenerate point masses at ±0 (the
    /// zero's sign is `cos θ`'s) and a std so small that every draw
    /// underflows `f32` to a signed zero.
    const NORMALS: [(f64, f64); 9] = [
        (0.0, 1.0),
        (0.0, 0.45),
        (0.0, 0.9),
        (0.3, 0.9),
        (0.0, 0.125),
        (-1.5, 1e-3),
        (0.0, 0.0),
        (-0.0, 0.0),
        (0.0, 1e-300),
    ];

    /// Fill `len` values from a clone of `rng` and draw them one by one with
    /// [`Normal::sample`] from another: the bits and the end states agree.
    fn assert_fill_matches_sample<R: Rng + Clone + PartialEq + std::fmt::Debug>(
        d: &Normal,
        rng: &mut R,
        len: usize,
    ) {
        let mut oracle = rng.clone();
        let mut out = vec![0.0f32; len];
        d.fill_f32(rng, &mut out);
        for (i, &v) in out.iter().enumerate() {
            let want = d.sample(&mut oracle) as f32;
            assert_eq!(v.to_bits(), want.to_bits(), "{d:?} draw {i}: {v} vs {want}");
        }
        assert_eq!(*rng, oracle, "{d:?}: generator state after {len} draws");
    }

    #[test]
    fn fill_f32_matches_sample_bit_for_bit() {
        let mut draws = 0;
        for (seed, &(mean, std)) in NORMALS.iter().enumerate() {
            let d = Normal::new(mean, std);
            let mut rng = Xoshiro256::new(seed as u64);
            for _ in 0..63 {
                for len in [0, 1, 255, 256, 257, 1000] {
                    assert_fill_matches_sample(&d, &mut rng, len);
                    draws += len;
                }
            }
        }
        assert!(draws >= 1_000_000, "{draws}");
    }

    /// Replays a fixed list of words, cyclically.
    #[derive(Clone, Debug, PartialEq)]
    struct Words {
        words: Vec<u64>,
        next: usize,
    }

    impl Rng for Words {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.next % self.words.len()];
            self.next += 1;
            w
        }
    }

    #[test]
    fn fill_f32_matches_sample_on_edge_words() {
        // `next_f64` keeps a word's top 53 bits, so one ulp of u is 1 << 11.
        let ulp = 1u64 << 11;
        let u1_words = [
            0,        // u1 = 0, clamped to MIN_POSITIVE: r = 37.6
            ulp,      // u1 = 2^-53, the smallest non-zero draw
            u64::MAX, // u1 = 1 - 2^-53: r = 2^-26
            1 << 63,  // u1 = 0.5, an exact power of two
            // u1 = √½ - 1 ulp, √½, √½ + 1 ulp: where the exponent split turns over
            0xb504_f333_f9de_6000,
            0xb504_f333_f9de_6800,
            0xb504_f333_f9de_7000,
        ];
        // u2 at the quadrant edges, where cos θ ≈ 0 (and its sign flips),
        // one ulp either side, and the ends of [0, 1).
        let mut u2_words = vec![0, ulp, u64::MAX];
        for q in 1..4u64 {
            u2_words.extend([(q << 62) - ulp, q << 62, (q << 62) + ulp]);
        }
        let words: Vec<u64> = u1_words
            .iter()
            .flat_map(|&a| u2_words.iter().flat_map(move |&b| [a, b]))
            .collect();
        let pairs = words.len() / 2;
        for &(mean, std) in &NORMALS {
            let d = Normal::new(mean, std);
            let mut rng = Words {
                words: words.clone(),
                next: 0,
            };
            assert_fill_matches_sample(&d, &mut rng, pairs);
        }
        // The words reach the fallback: at a quadrant edge v ≈ 0, and the
        // certificate's interval straddles it.
        let mut rng = Words { words, next: 0 };
        assert!(certified_draws(&Normal::new(0.0, 1.0), &mut rng, pairs) < pairs);
    }

    /// How many of the next `n` uniform pairs [`Normal::certified`] accepts.
    fn certified_draws<R: Rng>(d: &Normal, rng: &mut R, n: usize) -> usize {
        (0..n)
            .filter(|_| {
                let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
                let u2 = rng.next_f64();
                d.certified(u1, u2).is_some()
            })
            .count()
    }

    #[test]
    fn almost_every_ordinary_draw_is_certified() {
        let n = 1_000_000;
        let certified = certified_draws(&Normal::new(0.0, 1.0), &mut Xoshiro256::new(11), n);
        assert!(certified * 1000 >= n * 999, "{certified} of {n} certified");
    }

    #[test]
    fn truncated_normal_positive() {
        let mut rng = Xoshiro256::new(3);
        let d = Normal::new(0.1, 1.0);
        for _ in 0..1000 {
            assert!(d.sample_truncated_below(&mut rng, 0.01) > 0.0);
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = Xoshiro256::new(4);
        for &alpha in &[0.1, 0.5, 1.0, 3.0] {
            let d = Gamma::new(alpha);
            let xs: Vec<f64> = (0..30_000).map(|_| d.sample(&mut rng)).collect();
            let (m, _) = mean_std(&xs);
            assert!(
                (m - alpha).abs() < 0.1 * alpha.max(0.3),
                "alpha={alpha}, mean={m}"
            );
            assert!(xs.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_sums_to_one_and_skews() {
        let mut rng = Xoshiro256::new(5);
        let severe = Dirichlet::new(0.1, 10);
        let moderate = Dirichlet::new(5.0, 10);
        let mut max_severe = 0.0;
        let mut max_moderate = 0.0;
        for _ in 0..200 {
            let p = severe.sample(&mut rng);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            max_severe += p.iter().cloned().fold(0.0, f64::max);
            let q = moderate.sample(&mut rng);
            max_moderate += q.iter().cloned().fold(0.0, f64::max);
        }
        // Lower beta concentrates mass on fewer categories.
        assert!(max_severe > max_moderate * 1.5);
    }

    #[test]
    #[should_panic]
    fn dirichlet_rejects_nonpositive_beta() {
        Dirichlet::new(0.0, 3);
    }

    #[test]
    fn non_finite_shapes_are_rejected_instead_of_hanging() {
        for shape in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            assert!(
                std::panic::catch_unwind(|| Gamma::new(shape)).is_err(),
                "{shape}"
            );
            assert!(
                std::panic::catch_unwind(|| Dirichlet::new(shape, 3)).is_err(),
                "{shape}"
            );
        }
    }
}
