//! QSGD-style stochastic uniform quantization.
//!
//! The paper's framework integrates "common compression techniques" beyond
//! sparsification; quantization is the canonical second family. This module
//! implements the QSGD scheme: values are scaled by the vector's L2 norm,
//! mapped onto `s` uniform levels with stochastic rounding, and transmitted
//! as (norm, sign, level) triples.

use fl_tensor::rng::Rng;

/// Largest magnitude level representable in a `bits`-wide packed coordinate
/// (one bit is the sign): `2^(bits−1) − 1`.
pub fn max_level_for_bits(bits: u8) -> u32 {
    assert!((2..=16).contains(&bits), "bits must be in 2..=16");
    (1u32 << (bits - 1)) - 1
}

/// QSGD stochastic quantization of `values` onto `max_level` uniform levels:
/// returns the vector's L2 norm and one signed level per coordinate
/// (`value ≈ sign · norm · level / max_level`). Rounding randomness comes
/// from `rng`; one draw per coordinate, so the stream advances
/// deterministically.
pub fn qsgd_levels<R: Rng>(values: &[f32], max_level: u32, rng: &mut R) -> (f32, Vec<i32>) {
    assert!(max_level >= 1, "need at least one quantization level");
    let norm = values
        .iter()
        .map(|v| (*v as f64).powi(2))
        .sum::<f64>()
        .sqrt() as f32;
    if norm == 0.0 || !norm.is_finite() {
        return (norm, vec![0; values.len()]);
    }
    let s = max_level as f32;
    let levels = values
        .iter()
        .map(|&v| {
            let scaled = v.abs() / norm * s; // in [0, s]
            let floor = scaled.floor();
            let frac = scaled - floor;
            let level = if rng.next_f32() < frac {
                floor + 1.0
            } else {
                floor
            };
            let mag = (level as i32).min(max_level as i32);
            if v.is_sign_negative() {
                -mag
            } else {
                mag
            }
        })
        .collect();
    (norm, levels)
}

/// Invert [`qsgd_levels`]: reconstruct the lossy dense values.
pub fn qsgd_dequantize(norm: f32, max_level: u32, levels: &[i32]) -> Vec<f32> {
    let s = max_level as f32;
    levels.iter().map(|&l| norm * l as f32 / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_tensor::rng::SplitMix64;

    #[test]
    fn level_helpers_roundtrip_within_tolerance() {
        let dense: Vec<f32> = (0..128).map(|i| ((i as f32) * 0.73).sin()).collect();
        let mut rng = SplitMix64::new(3);
        let max_level = max_level_for_bits(6); // 31
        let (norm, levels) = qsgd_levels(&dense, max_level, &mut rng);
        assert_eq!(levels.len(), dense.len());
        assert!(levels.iter().all(|&l| l.unsigned_abs() <= max_level));
        let rec = qsgd_dequantize(norm, max_level, &levels);
        for (a, b) in dense.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= norm / max_level as f32 + 1e-5);
            assert!(a * b >= 0.0, "sign flipped: {a} -> {b}");
        }
    }

    #[test]
    fn level_helpers_zero_vector() {
        let mut rng = SplitMix64::new(1);
        let (norm, levels) = qsgd_levels(&[0.0; 5], 7, &mut rng);
        assert_eq!(norm, 0.0);
        assert_eq!(levels, vec![0; 5]);
        assert_eq!(qsgd_dequantize(norm, 7, &levels), vec![0.0; 5]);
    }

    #[test]
    fn max_level_for_bits_values() {
        assert_eq!(max_level_for_bits(2), 1);
        assert_eq!(max_level_for_bits(4), 7);
        assert_eq!(max_level_for_bits(8), 127);
        assert_eq!(max_level_for_bits(16), 32_767);
    }

    #[test]
    #[should_panic]
    fn one_bit_has_no_room_for_a_level() {
        max_level_for_bits(1);
    }
}
