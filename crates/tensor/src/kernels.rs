//! Fused in-place element-wise kernels for the training hot path.
//!
//! These are the update primitives behind `Sgd::step` (one momentum kernel,
//! at every momentum including 0) and the error-feedback residual update.
//! Each kernel touches every element exactly once, writing the result in
//! place instead of allocating an intermediate tensor, and is written as a
//! stream of independent per-element updates so the autovectorizer (the
//! workspace pins `x86-64-v3`) can unroll and vectorize it freely.
//!
//! Bit-identity contract: every kernel computes *exactly* the same f32
//! expression per element as the allocate-and-copy code it replaces. The
//! manual 8-wide unrolling of `axpy` only regroups independent elements; it
//! never reassociates the arithmetic within one element.

const UNROLL: usize = 8;

/// `y[i] += alpha * x[i]` (BLAS axpy), fused and unrolled.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: size mismatch");
    let mut yc = y.chunks_exact_mut(UNROLL);
    let mut xc = x.chunks_exact(UNROLL);
    for (yv, xv) in yc.by_ref().zip(xc.by_ref()) {
        for j in 0..UNROLL {
            yv[j] += alpha * xv[j];
        }
    }
    for (yv, xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yv += alpha * *xv;
    }
}

/// Momentum SGD: `v[i] = mu * v[i] + g[i] + wd * p[i]`, then
/// `p[i] += -lr * v[i]` — the two statements the allocating optimizer
/// performed per element, fused into one pass. `mu = 0` is plain SGD with
/// weight decay.
///
/// A plain three-way zip: with two mutable streams, the hand-unrolled
/// `chunks_exact_mut` form the other kernels use keeps LLVM from vectorising
/// the loop at all (1 element/ns against 4–5 here).
pub fn sgd_momentum_step(lr: f32, mu: f32, wd: f32, p: &mut [f32], v: &mut [f32], g: &[f32]) {
    assert_eq!(
        p.len(),
        g.len(),
        "sgd_momentum_step: param/grad size mismatch"
    );
    assert_eq!(
        p.len(),
        v.len(),
        "sgd_momentum_step: param/velocity size mismatch"
    );
    for ((pv, vv), gv) in p.iter_mut().zip(v.iter_mut()).zip(g) {
        *vv = mu * *vv + *gv + wd * *pv;
        *pv += -lr * *vv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 - n as f32 / 3.0) * scale)
            .collect()
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let x = ramp(n, 0.37);
            let mut y = ramp(n, -0.11);
            let mut expect = y.clone();
            for (e, xv) in expect.iter_mut().zip(x.iter()) {
                *e += 0.77 * *xv;
            }
            axpy(0.77, &x, &mut y);
            let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(yb, eb, "n={n}");
        }
    }

    #[test]
    fn sgd_step_matches_scalar_loop() {
        // Plain SGD runs through the momentum kernel at `mu = 0`: the
        // parameters must follow `p -= lr * (g + wd * p)` bit for bit,
        // whatever the velocity buffer held before.
        for n in [0, 1, 8, 13, 100] {
            let g = ramp(n, 0.21);
            let mut p = ramp(n, -0.63);
            let mut v = ramp(n, 0.4);
            let mut expect = p.clone();
            for (e, gv) in expect.iter_mut().zip(g.iter()) {
                *e -= 0.05 * (*gv + 0.001 * *e);
            }
            sgd_momentum_step(0.05, 0.0, 0.001, &mut p, &mut v, &g);
            let pb: Vec<u32> = p.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(pb, eb, "n={n}");
        }
    }

    #[test]
    fn sgd_momentum_step_matches_scalar_loop() {
        // Every remainder of the vector width, and the paper model's
        // parameter count; 50 steps so the velocity feeds back through `mu`
        // and the parameters through `wd`. `mu = 0` is plain SGD.
        for mu in [0.9, 0.0] {
            for n in [0, 1, 7, 8, 9, 31, 64, 100, 25_418] {
                let mut p = ramp(n, -0.17);
                let mut v = ramp(n, 0.05);
                let mut ep = p.clone();
                let mut ev = v.clone();
                for step in 0..50 {
                    let g = ramp(n, 0.33 / (step + 1) as f32);
                    for i in 0..n {
                        ev[i] = mu * ev[i] + g[i] + 0.002 * ep[i];
                        ep[i] += -0.1 * ev[i];
                    }
                    sgd_momentum_step(0.1, mu, 0.002, &mut p, &mut v, &g);
                }
                let pb: Vec<u32> = p.iter().map(|x| x.to_bits()).collect();
                let epb: Vec<u32> = ep.iter().map(|x| x.to_bits()).collect();
                assert_eq!(pb, epb, "params mu={mu} n={n}");
                let vb: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
                let evb: Vec<u32> = ev.iter().map(|x| x.to_bits()).collect();
                assert_eq!(vb, evb, "velocity mu={mu} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "axpy: size mismatch")]
    fn axpy_rejects_length_mismatch() {
        let x = [1.0f32; 4];
        let mut y = [0.0f32; 3];
        axpy(1.0, &x, &mut y);
    }
}
