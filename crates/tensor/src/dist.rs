//! Probability distributions built on top of the [`Rng`] trait.
//!
//! The simulator needs: Uniform and Normal draws for the network model
//! (bandwidth ~ N(1 Mbit/s, 0.2), latency ~ U(50 ms, 200 ms]) and
//! Gamma/Dirichlet for the non-IID label-skew partition (`p_k ~ Dir(beta)`).

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
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.std * r * theta.cos()
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
