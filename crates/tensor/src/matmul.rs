//! Matrix multiplication and related linear-algebra kernels.
//!
//! The three matmul entry points share one cache-blocked, register-tiled
//! kernel, and that kernel is the only path: a tile of up to 6×16 outputs is
//! accumulated in registers while the k dimension streams through it, a row
//! remainder runs the same tile with fewer rows, a ragged last column stripe
//! runs it zero-padded, and large products are parallelised over disjoint
//! row blocks of the output via [`crate::parallel`]. The gradient variants
//! differ only in how operands are read — `matmul_at_b` gathers its `A`
//! panels out of the stored `[k, m]` matrix, `matmul_a_bt` packs its `B`
//! stripes out of the stored `[n, k]` matrix — so no transposed copy of
//! either operand is ever materialised.
//!
//! Determinism contract: every output element accumulates its `k`
//! contributions in ascending order into a single `f32` accumulator, one
//! [`f32::mul_add`] per contribution — an IEEE-754 fusedMultiplyAdd, which
//! rounds `a·b + acc` once and is fully specified — and row blocks are
//! disjoint. Results are therefore bit-identical for any thread count, build
//! profile and target CPU, and equal to the fused scalar loops the tests keep
//! as their oracle. An x86_64 build without the `fma` target feature — one
//! made under a `RUSTFLAGS` variable, say, which replaces the flags in
//! `.cargo/config.toml` — calls libm's `fmaf` for every step instead: the
//! same bits as long as that `fmaf` is correctly rounded (glibc's is, and CI
//! checks it), many times slower than even an unfused SSE2 tile. Nothing
//! outside the register
//! tile is fused: the element-wise kernels, the optimizer and aggregation are
//! memory-bound and keep their separately rounded multiplies and adds.
//! `matmul` / `matmul_at_b` keep their historical skip of zero `A` entries;
//! `matmul_a_bt` (which never skipped) does not.

use crate::parallel::{default_threads, parallel_row_blocks};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Register-tile height (output rows held in accumulators at once).
const MR: usize = 6;
/// Register-tile width (output columns held in accumulators at once).
const NR: usize = 16;
/// Cache-block depth: the `k` range a register tile consumes before its
/// partial sums return to the output buffer. A `KC`×`NR` stripe of `B`
/// (16 KiB) stays L1-resident for the whole stripe of row tiles.
const KC: usize = 256;
/// Cache-block width: columns of `B` processed per pass, keeping the
/// `KC`×`NC` panel (128 KiB) L2-resident across all row tiles.
const NC: usize = 128;
/// Products with at least this many multiply–accumulates fan out over the
/// worker threads; smaller ones (every per-client training step at the default
/// model sizes) stay sequential, because clients already train in parallel.
const PAR_MIN_MACS: usize = 1 << 25;

fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    if m.saturating_mul(k).saturating_mul(n) >= PAR_MIN_MACS {
        default_threads()
    } else {
        1
    }
}

/// `C = A @ B` where `A` is `[m, k]` and `B` is `[k, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = as_matrix_dims(a, "matmul lhs");
    let (_, n) = as_matrix_dims(b, "matmul rhs");
    matmul_with_threads(a, b, auto_threads(m, k, n))
}

/// [`matmul`] writing into a reusable output tensor (resized as needed; no
/// allocation once `out` has capacity). Bit-identical to [`matmul`].
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = as_matrix_dims(a, "matmul lhs");
    let (k2, n) = as_matrix_dims(b, "matmul rhs");
    assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
    out.resize_to(&[m, n]);
    out.fill(0.0);
    nt_parallel::<true, false, false>(
        a.data(),
        k,
        k,
        b.data(),
        n,
        out.data_mut(),
        auto_threads(m, k, n),
    );
}

/// [`matmul`] with an explicit thread cap (the auto-picked count is a pure
/// performance choice; results are bit-identical for any value).
pub fn matmul_with_threads(a: &Tensor, b: &Tensor, max_threads: usize) -> Tensor {
    let (m, k) = as_matrix_dims(a, "matmul lhs");
    let (k2, n) = as_matrix_dims(b, "matmul rhs");
    assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
    let mut out = vec![0.0f32; m * n];
    nt_parallel::<true, false, false>(a.data(), k, k, b.data(), n, &mut out, max_threads);
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = A^T @ B` where `A` is `[k, m]` and `B` is `[k, n]` — used for weight
/// gradients (`dW = X^T @ dY`).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = as_matrix_dims(a, "matmul_at_b lhs");
    let (_, n) = as_matrix_dims(b, "matmul_at_b rhs");
    matmul_at_b_with_threads(a, b, auto_threads(m, k, n))
}

/// [`matmul_at_b`] writing into a reusable output tensor. Bit-identical to
/// [`matmul_at_b`].
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = as_matrix_dims(a, "matmul_at_b lhs");
    let (k2, n) = as_matrix_dims(b, "matmul_at_b rhs");
    assert_eq!(
        k, k2,
        "matmul_at_b: leading dimensions differ ({k} vs {k2})"
    );
    out.resize_to(&[m, n]);
    out.fill(0.0);
    nt_parallel::<true, true, false>(
        a.data(),
        m,
        k,
        b.data(),
        n,
        out.data_mut(),
        auto_threads(m, k, n),
    );
}

/// [`matmul_at_b`] with an explicit thread cap.
pub fn matmul_at_b_with_threads(a: &Tensor, b: &Tensor, max_threads: usize) -> Tensor {
    let (k, m) = as_matrix_dims(a, "matmul_at_b lhs");
    let (k2, n) = as_matrix_dims(b, "matmul_at_b rhs");
    assert_eq!(
        k, k2,
        "matmul_at_b: leading dimensions differ ({k} vs {k2})"
    );
    let mut out = vec![0.0f32; m * n];
    nt_parallel::<true, true, false>(a.data(), m, k, b.data(), n, &mut out, max_threads);
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// `C = A @ B^T` where `A` is `[m, k]` and `B` is `[n, k]` — used for input
/// gradients (`dX = dY @ W^T` with `W` stored `[in, out]` transposed access).
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = as_matrix_dims(a, "matmul_a_bt lhs");
    let (n, _) = as_matrix_dims(b, "matmul_a_bt rhs");
    matmul_a_bt_with_threads(a, b, auto_threads(m, k, n))
}

/// [`matmul_a_bt`] writing into a reusable output tensor. Bit-identical to
/// [`matmul_a_bt`].
///
/// `_bt_scratch` is never read or written: the kernel packs its stripes
/// straight out of the `[n, k]` operand, so no `B^T` copy exists. The
/// parameter only keeps the four-argument signature the benchmark calls.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, _bt_scratch: &mut Tensor, out: &mut Tensor) {
    let (m, k) = as_matrix_dims(a, "matmul_a_bt lhs");
    let (n, k2) = as_matrix_dims(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt: inner dimensions differ ({k} vs {k2})");
    out.resize_to(&[m, n]);
    out.fill(0.0);
    nt_parallel::<false, false, true>(
        a.data(),
        k,
        k,
        b.data(),
        n,
        out.data_mut(),
        auto_threads(m, k, n),
    );
}

/// [`matmul_a_bt`] with an explicit thread cap.
pub fn matmul_a_bt_with_threads(a: &Tensor, b: &Tensor, max_threads: usize) -> Tensor {
    let (m, k) = as_matrix_dims(a, "matmul_a_bt lhs");
    let (n, k2) = as_matrix_dims(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt: inner dimensions differ ({k} vs {k2})");
    // The per-element dot product this computes never skipped zero entries,
    // so the non-skipping kernel is the exact one even for non-finite
    // operands (0.0 * inf must still produce NaN here).
    let mut out = vec![0.0f32; m * n];
    nt_parallel::<false, false, true>(a.data(), k, k, b.data(), n, &mut out, max_threads);
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Split `out` into contiguous row blocks and run the blocked kernel on
/// each; blocks write disjoint output so any schedule is bit-identical.
///
/// The three const flags are the entry points' operand conventions: `SKIP`
/// keeps the historical skip of zero `A` entries, `AT` reads `A` out of a
/// stored `[k, m]` matrix (`a_stride = m`; otherwise `[m, k]` with
/// `a_stride = k`), `BT` reads `B` out of a stored `[n, k]` matrix
/// (otherwise `[k, n]`). Neither transposed operand is ever materialised.
fn nt_parallel<const SKIP: bool, const AT: bool, const BT: bool>(
    ad: &[f32],
    a_stride: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    max_threads: usize,
) {
    if n == 0 || out.is_empty() {
        return;
    }
    parallel_row_blocks(out, n, max_threads, |row0, chunk| {
        nt_rows::<SKIP, AT, BT>(ad, a_stride, row0, k, bd, n, chunk);
    });
}

/// `out_block = A[row0..row0+rows] @ B`.
///
/// Structure: `NC`-column × `KC`-deep cache blocks around one register tile
/// of up to `MR` rows × `NR` columns, which serves every shape — a row
/// remainder runs the same tile instantiated for fewer rows, a ragged last
/// column stripe is packed zero-padded to `NR` and written back only as wide
/// as it is. A tile's accumulators resume from the partial sums in
/// `out_block` and return there after each `k` block, and the `k` blocks run
/// in ascending order — so every output element still receives its `k`
/// contributions in exactly the ascending single-accumulator order of the
/// plain ikj loop, one fused step each, regardless of the blocking. Padded lanes never mix with
/// kept ones (each lane is its own accumulator) and are discarded.
///
/// Zero skip (`SKIP`), decided per packed `B` panel: when every `B` entry of
/// the panel is finite, skipping a zero `A` entry and accumulating its
/// contribution agree — the product is then exactly `±0.0`, so the fused
/// step `fma(0, b, x)` is the plain sum `x + (±0.0)`: `x + (-0.0) == x` for
/// every `x`, and `x + (+0.0)` differs only for `x == -0.0`. So a finite
/// panel runs the branch-free tile even on zero-heavy inputs (post-ReLU
/// activations), and only a panel holding a non-finite value keeps the
/// historical element-skipping tile.
///
/// The one way an accumulator seeded from `+0.0` becomes `-0.0` is a negative
/// product too small for the subnormal range fused into an accumulator that
/// is still zero: rounded once, it is `-0.0` (rounded separately the product
/// would be `-0.0` and the sum `+0.0`). A zero `A` entry met while it is
/// `-0.0` turns it into `+0.0` in the branch-free tile and leaves it in the
/// skipping one, so the two tiles (and the skipping test oracle) can differ
/// in the *sign of an exactly-zero output* and in nothing else. Which tile
/// runs is a function of the `B` panel alone — not of threads or of how rows
/// are blocked — so the determinism contract is unaffected.
fn nt_rows<const SKIP: bool, const AT: bool, const BT: bool>(
    ad: &[f32],
    a_stride: usize,
    row0: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out_block: &mut [f32],
) {
    let rows = out_block.len() / n;
    // The pack buffer is a thread-local grown once per thread, so
    // steady-state matmuls perform no heap allocation; every stripe is fully
    // rewritten before it is read, so reuse cannot leak stale values.
    thread_local! {
        static BPACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    BPACK.with(|cell| {
        let mut bpack = cell.borrow_mut();
        bpack.resize(KC * NC, 0.0);
        let mut apack = [0.0f32; MR * KC];
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for kb in (0..k).step_by(KC) {
                let kc = KC.min(k - kb);
                let panel = &mut bpack[..nc.div_ceil(NR) * kc * NR];
                let b_finite =
                    pack_b::<SKIP, BT>(bd, if BT { k } else { n }, kb, kc, jc, nc, panel);
                let check = SKIP && !b_finite;
                for i in (0..rows).step_by(MR) {
                    let r = MR.min(rows - i);
                    // The tile reads `A` as a row-major `[r, kc]` block: in
                    // place, or gathered once per row band when the operand
                    // is stored transposed (an `m`-strided column walk
                    // otherwise repeated for every stripe).
                    let (a, a_ld) = if AT {
                        for (rr, dst) in apack.chunks_exact_mut(kc).take(r).enumerate() {
                            let col = &ad[kb * a_stride + row0 + i + rr..];
                            for (d, &v) in dst.iter_mut().zip(col.iter().step_by(a_stride)) {
                                *d = v;
                            }
                        }
                        (&apack[..], kc)
                    } else {
                        (&ad[(row0 + i) * a_stride + kb..], a_stride)
                    };
                    let band = &mut out_block[i * n..(i + r) * n];
                    // One out-of-line instantiation per row count: inlining
                    // them all here costs the tile its register allocation.
                    match r {
                        1 => row_band::<1>(a, a_ld, panel, kc, band, n, jc, check),
                        2 => row_band::<2>(a, a_ld, panel, kc, band, n, jc, check),
                        3 => row_band::<3>(a, a_ld, panel, kc, band, n, jc, check),
                        4 => row_band::<4>(a, a_ld, panel, kc, band, n, jc, check),
                        5 => row_band::<5>(a, a_ld, panel, kc, band, n, jc, check),
                        _ => row_band::<MR>(a, a_ld, panel, kc, band, n, jc, check),
                    }
                }
            }
        }
    });
}

/// Pack `B[kb..kb+kc, jc..jc+nc]` into `panel` as `NR`-wide stripes, each
/// `kc` consecutive `NR`-runs, the last stripe zero-padded — so the tile
/// streams L1 lines in order whatever the operand's layout (`ld` is its row
/// length). Returns whether every packed value is finite; only the
/// zero-skipping kernels ask (`SKIP`) — without it the scan is compiled out
/// and the answer is `true`.
fn pack_b<const SKIP: bool, const BT: bool>(
    bd: &[f32],
    ld: usize,
    kb: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    panel: &mut [f32],
) -> bool {
    // Largest magnitude bit pattern seen: an integer max vectorises where a
    // short-circuiting `is_finite` scan does not, and infinities and NaNs
    // are exactly the patterns at or above the infinity exponent.
    let mut max_mag = 0u32;
    for (stripe, j) in panel
        .chunks_exact_mut(kc * NR)
        .zip((jc..jc + nc).step_by(NR))
    {
        let w = NR.min(jc + nc - j);
        if BT {
            // Each source row is one packed column: contiguous reads,
            // `NR`-strided writes inside the L1-resident stripe.
            if w < NR {
                stripe.fill(0.0);
            }
            for c in 0..w {
                let src = &bd[(j + c) * ld + kb..][..kc];
                for (dst, &v) in stripe[c..].iter_mut().step_by(NR).zip(src) {
                    *dst = v;
                    if SKIP {
                        max_mag = max_mag.max(v.to_bits() & 0x7fff_ffff);
                    }
                }
            }
        } else {
            for (pi, dst) in stripe.chunks_exact_mut(NR).enumerate() {
                let run = load_run(&bd[(kb + pi) * ld + j..][..w]);
                dst.copy_from_slice(&run);
                if SKIP {
                    for v in run {
                        max_mag = max_mag.max(v.to_bits() & 0x7fff_ffff);
                    }
                }
            }
        }
    }
    max_mag < f32::INFINITY.to_bits()
}

/// An `NR`-run from a slice of up to `NR` values, zero-padded. Ragged runs
/// are staged through a fixed-size temporary so that tile accumulators only
/// ever see whole-array copies (a variable-length copy into them makes LLVM
/// spill the tile).
#[inline(always)]
fn load_run(src: &[f32]) -> [f32; NR] {
    match <&[f32; NR]>::try_from(src) {
        Ok(full) => *full,
        Err(_) => {
            let mut run = [0.0f32; NR];
            run[..src.len()].copy_from_slice(src);
            run
        }
    }
}

/// The first `dst.len()` values of an `NR`-run, the padded lanes dropped.
#[inline(always)]
fn store_run(run: [f32; NR], dst: &mut [f32]) {
    match <&mut [f32; NR]>::try_from(&mut *dst) {
        Ok(full) => *full = run,
        Err(_) => dst.copy_from_slice(&run[..dst.len()]),
    }
}

/// One band of `R` output rows against every stripe of a packed panel:
/// load the accumulators, run the tile, write back the kept columns.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn row_band<const R: usize>(
    a: &[f32],
    a_ld: usize,
    panel: &[f32],
    kc: usize,
    band: &mut [f32],
    n: usize,
    jc: usize,
    check: bool,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * a_ld..][..kc]);
    for (stripe, j) in panel.chunks_exact(kc * NR).zip((jc..n).step_by(NR)) {
        let w = NR.min(n - j);
        let mut acc = [[0.0f32; NR]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            *acc_row = load_run(&band[r * n + j..][..w]);
        }
        if check {
            nt_tile::<true, R>(a_rows, stripe, &mut acc);
        } else {
            nt_tile::<false, R>(a_rows, stripe, &mut acc);
        }
        for (r, &acc_row) in acc.iter().enumerate() {
            store_run(acc_row, &mut band[r * n + j..][..w]);
        }
    }
}

/// The register tile's `p` loop over one packed `B` stripe (`kc`
/// consecutive `NR`-wide runs) and `R` rows of `A`, each `kc` long. `CHECK`
/// selects the zero-skipping variant.
///
/// Each step is `f32::mul_add`, never `acc + a * b`: Rust does not contract
/// the latter, and the two-instruction form was this kernel's ceiling. With
/// the `fma` target feature (`.cargo/config.toml`) a lane's step is one
/// instruction; without it the step is a libm call with the same result.
#[inline(always)]
fn nt_tile<const CHECK: bool, const R: usize>(
    a_rows: [&[f32]; R],
    stripe: &[f32],
    acc: &mut [[f32; NR]; R],
) {
    // Pinning every row to the stripe's depth lets the `p` loop index the
    // rows without a bounds check apiece.
    let kc = stripe.len() / NR;
    assert!(a_rows.iter().all(|row| row.len() == kc));
    for (b_run, pi) in stripe.chunks_exact(NR).zip(0..kc) {
        let b_tile: &[f32; NR] = b_run.try_into().expect("chunks_exact yields NR-wide runs");
        for (a_row, acc_row) in a_rows.iter().zip(acc.iter_mut()) {
            let a_ip = a_row[pi];
            if CHECK && a_ip == 0.0 {
                continue;
            }
            for (o, &b_pj) in acc_row.iter_mut().zip(b_tile) {
                *o = a_ip.mul_add(b_pj, *o);
            }
        }
    }
}

/// Add a row vector `bias` (`[n]`) to every row of a `[m, n]` matrix in place.
pub fn add_bias_rows(a: &mut Tensor, bias: &Tensor) {
    let (_, n) = as_matrix_dims(a, "add_bias_rows matrix");
    assert_eq!(bias.numel(), n, "bias length must equal column count");
    let bd = bias.data();
    for row in a.data_mut().chunks_exact_mut(n) {
        for (o, &bv) in row.iter_mut().zip(bd.iter()) {
            *o += bv;
        }
    }
}

/// Sum over rows of a `[m, n]` matrix, producing a `[n]` vector
/// (used for bias gradients).
pub fn sum_rows(a: &Tensor) -> Tensor {
    let mut out = Tensor::empty();
    sum_rows_into(a, &mut out);
    out
}

/// [`sum_rows`] writing into a reusable output tensor.
pub fn sum_rows_into(a: &Tensor, out: &mut Tensor) {
    let (_, n) = as_matrix_dims(a, "sum_rows");
    out.resize_to(&[n]);
    out.fill(0.0);
    let od = out.data_mut();
    for row in a.data().chunks_exact(n) {
        for (o, &v) in od.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
}

fn as_matrix_dims(t: &Tensor, what: &str) -> (usize, usize) {
    let dims = t.shape().dims();
    assert_eq!(
        dims.len(),
        2,
        "{what}: expected a rank-2 tensor, got {:?}",
        dims
    );
    (dims[0], dims[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn mat(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::matrix(rows, cols), data.to_vec())
    }

    /// Plain `[m, n]` → `[n, m]` copy, to hand each entry point its operand
    /// in the layout it expects.
    fn transpose(a: &Tensor) -> Tensor {
        let (m, n) = as_matrix_dims(a, "transpose");
        let mut out = vec![0.0f32; m * n];
        for (i, row) in a.data().chunks_exact(n.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out[j * m + i] = v;
            }
        }
        Tensor::from_vec(Shape::matrix(n, m), out)
    }

    /// Reference kernels: plain scalar loops that give every output element
    /// its `k` contributions in ascending order, one fused step each. The
    /// tiled kernels must reproduce them bit for bit at every shape.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = as_matrix_dims(a, "matmul lhs");
        let (k2, n) = as_matrix_dims(b, "matmul rhs");
        assert_eq!(k, k2);
        let mut out = vec![0.0f32; m * n];
        let ad = a.data();
        let bd = b.data();
        for i in 0..m {
            let a_row = &ad[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &bd[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = a_ip.mul_add(b_pj, *o);
                }
            }
        }
        Tensor::from_vec(Shape::matrix(m, n), out)
    }

    fn a_bt_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = as_matrix_dims(a, "lhs");
        let (n, k2) = as_matrix_dims(b, "rhs");
        assert_eq!(k, k2);
        let mut out = vec![0.0f32; m * n];
        let ad = a.data();
        let bd = b.data();
        for i in 0..m {
            let a_row = &ad[i * k..(i + 1) * k];
            for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
                let b_row = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in a_row.iter().zip(b_row.iter()) {
                    acc = x.mul_add(*y, acc);
                }
                *o = acc;
            }
        }
        Tensor::from_vec(Shape::matrix(m, n), out)
    }

    #[test]
    fn matmul_small_known() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let eye = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &eye).data(), a.data());
        assert_eq!(matmul(&eye, &a).data(), a.data());
    }

    /// `C = A^T @ B` through the scalar kernel (the accumulation order per
    /// output element is `p` ascending either way).
    fn at_b_reference(a: &Tensor, b: &Tensor) -> Tensor {
        matmul_reference(&transpose(a), b)
    }

    /// NaN-safe bitwise comparison.
    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape().dims(), want.shape().dims(), "{what}: shape");
        for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}: {x} vs {y}");
        }
    }

    /// All three kernels at 1, 2 and 3 threads against the scalar references,
    /// with `a: [m, k]`, `b: [k, n]` as `matmul` sees them (`matmul_at_b`
    /// gets `a^T`, `matmul_a_bt` gets `b^T`).
    fn assert_kernels_match_references(a: &Tensor, b: &Tensor, what: &str) {
        let (a_km, b_nk) = (transpose(a), transpose(b));
        let want = matmul_reference(a, b);
        let want_at_b = at_b_reference(&a_km, b);
        let want_a_bt = a_bt_reference(a, &b_nk);
        for threads in 1..=3 {
            let what = format!("{what}, {threads} threads");
            let got = matmul_with_threads(a, b, threads);
            assert_bits_eq(&got, &want, &format!("matmul {what}"));
            let got = matmul_at_b_with_threads(&a_km, b, threads);
            assert_bits_eq(&got, &want_at_b, &format!("matmul_at_b {what}"));
            let got = matmul_a_bt_with_threads(a, &b_nk, threads);
            assert_bits_eq(&got, &want_a_bt, &format!("matmul_a_bt {what}"));
        }
    }

    /// Uniform `[rows, cols]` matrix with every third entry an exact zero,
    /// so the skip path is exercised.
    fn zero_sprinkled(rows: usize, cols: usize, rng: &mut Xoshiro256) -> Tensor {
        let mut t = Tensor::rand_uniform(Shape::matrix(rows, cols), -2.0, 2.0, rng);
        for v in t.data_mut().iter_mut().step_by(3) {
            *v = 0.0;
        }
        t
    }

    #[test]
    fn tiled_kernels_are_bit_identical_to_scalar_reference() {
        // Shapes straddling every tile boundary: sub-tile, exact multiples
        // of (MR, NR), and ragged remainders in both directions.
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 7),
            (6, 8, 16),
            (7, 9, 17),
            (12, 33, 32),
            (13, 4, 49),
            (25, 31, 19),
        ];
        // Every row remainder against column counts below, at and past one
        // stripe and one `NC` panel, with `k` on both sides of `KC`; the `k`
        // list is coprime to the `n` list, so the pairing shifts with `m`.
        let ks = [1, 9, 64, 255, 256, 257, 300];
        for m in 1..=13 {
            for n in [1, 10, 15, 17, 130, 200] {
                shapes.push((m, ks[shapes.len() % ks.len()], n));
            }
        }
        let mut rng = Xoshiro256::new(11);
        for (m, k, n) in shapes {
            let a = zero_sprinkled(m, k, &mut rng);
            let b = Tensor::rand_uniform(Shape::matrix(k, n), -2.0, 2.0, &mut rng);
            assert_kernels_match_references(&a, &b, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn zero_skip_semantics_preserved_for_non_finite_b() {
        // The historical contract: a zero `A` entry contributes nothing even
        // when the `B` row it faces holds non-finite values — the per-panel
        // finiteness fast path must not change that.
        let mut rng = Xoshiro256::new(17);
        for (m, k, n) in [(3, 5, 7), (7, 9, 17), (13, 4, 49)] {
            let a = zero_sprinkled(m, k, &mut rng);
            let mut b = Tensor::rand_uniform(Shape::matrix(k, n), -2.0, 2.0, &mut rng);
            b.data_mut()[0] = f32::INFINITY;
            b.data_mut()[(k * n) / 2] = f32::NAN;
            b.data_mut()[k * n - 1] = f32::NEG_INFINITY;
            assert_kernels_match_references(&a, &b, &format!("{m}x{k}x{n}, non-finite B"));
        }
        // Non-finite values confined to one `KC` panel (the second: rows
        // 256..300) and to the ragged last stripe, every row of `A` holding
        // zeros against them; the other panel stays on the branch-free tile.
        for (m, n) in [(5, 10), (8, 17), (13, 130), (7, 200)] {
            let k = 300;
            let mut a = zero_sprinkled(m, k, &mut rng);
            let mut b = Tensor::rand_uniform(Shape::matrix(k, n), -2.0, 2.0, &mut rng);
            for (p, bad) in [
                (260, f32::INFINITY),
                (280, f32::NAN),
                (299, f32::NEG_INFINITY),
            ] {
                b.data_mut()[p * n + n - 1] = bad;
                b.data_mut()[p * n + n / 2] = bad;
                for i in (0..m).step_by(2) {
                    a.data_mut()[i * k + p] = 0.0;
                }
            }
            assert_kernels_match_references(&a, &b, &format!("{m}x{k}x{n}, one bad panel"));
        }
        // A fully zero A row must stay zero even against an all-inf B row.
        let a = mat(1, 2, &[0.0, 1.0]);
        let b = mat(2, 2, &[f32::INFINITY, f32::NAN, 2.0, 3.0]);
        assert_eq!(matmul(&a, &b).data(), &[2.0, 3.0]);
    }

    #[test]
    fn underflowed_negative_zero_meets_a_zero_a_entry() {
        // The corner `nt_rows` documents: a negative product below the
        // subnormal range fuses into a zero accumulator as `-0.0`; the zero
        // `A` entry that follows makes it `+0.0` on the branch-free tile,
        // while a skipping loop (the oracle, or the tile facing a non-finite
        // panel) leaves `-0.0`. Nothing but that sign may differ, at any
        // thread count.
        let a = mat(1, 3, &[-1e-30, 0.0, 0.0]);
        let b = mat(3, 2, &[1e-30, 1e-30, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(
            matmul_reference(&a, &b).data()[0].to_bits(),
            (-0.0f32).to_bits()
        );
        let mut poisoned = b.clone();
        poisoned.data_mut()[5] = f32::INFINITY;
        for threads in 1..=3 {
            let finite = matmul_with_threads(&a, &b, threads);
            assert_eq!(finite.data()[0].to_bits(), 0.0f32.to_bits());
            assert_eq!(finite.data()[1].to_bits(), 0.0f32.to_bits());
            let skipping = matmul_with_threads(&a, &poisoned, threads);
            assert_eq!(skipping.data()[0].to_bits(), (-0.0f32).to_bits());
            assert_eq!(skipping.data()[1].to_bits(), (-0.0f32).to_bits());
        }
    }

    #[test]
    fn padded_lanes_never_leak_into_kept_columns() {
        // Infinite `A` entries turn the zero-padded lanes of a ragged stripe
        // into NaN (`inf * 0`); the kept columns must not notice.
        let mut rng = Xoshiro256::new(23);
        for (m, k, n) in [(4, 6, 1), (7, 20, 10), (9, 257, 17), (13, 33, 130)] {
            let mut a = zero_sprinkled(m, k, &mut rng);
            a.data_mut()[1] = f32::INFINITY;
            a.data_mut()[m * k / 2] = f32::NEG_INFINITY;
            let b = Tensor::rand_uniform(Shape::matrix(k, n), -2.0, 2.0, &mut rng);
            assert_kernels_match_references(&a, &b, &format!("{m}x{k}x{n}, infinite A"));
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let mut rng = Xoshiro256::new(5);
        let a = Tensor::rand_uniform(Shape::matrix(37, 23), -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(Shape::matrix(23, 41), -1.0, 1.0, &mut rng);
        let b_nk = Tensor::rand_uniform(Shape::matrix(41, 23), -1.0, 1.0, &mut rng);
        let a_t = Tensor::rand_uniform(Shape::matrix(23, 37), -1.0, 1.0, &mut rng);
        let one = matmul_with_threads(&a, &b, 1);
        let one_bt = matmul_a_bt_with_threads(&a, &b_nk, 1);
        let one_at = matmul_at_b_with_threads(&a_t, &b, 1);
        for threads in [2, 3, 8] {
            assert_eq!(matmul_with_threads(&a, &b, threads).data(), one.data());
            assert_eq!(
                matmul_a_bt_with_threads(&a, &b_nk, threads).data(),
                one_bt.data()
            );
            assert_eq!(
                matmul_at_b_with_threads(&a_t, &b, threads).data(),
                one_at.data()
            );
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = mat(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // A is [3,2]
        let b = mat(3, 2, &[7.0, 10.0, 8.0, 11.0, 9.0, 12.0]);
        let via_helper = matmul_at_b(&a, &b);
        let via_transpose = matmul(&transpose(&a), &b);
        assert_eq!(via_helper.data(), via_transpose.data());
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(
            4,
            3,
            &[1.0, 0.0, 2.0, 3.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 1.0, 0.0],
        );
        let via_helper = matmul_a_bt(&a, &b);
        let via_transpose = matmul(&a, &transpose(&b));
        assert_eq!(via_helper.data(), via_transpose.data());
    }

    #[test]
    fn bias_and_row_sum() {
        let mut a = mat(2, 3, &[0.0; 6]);
        let bias = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        add_bias_rows(&mut a, &bias);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let s = sum_rows(&a);
        assert_eq!(s.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn into_variants_match_allocating_ones_bit_for_bit() {
        let mut rng = Xoshiro256::new(21);
        let mut out = Tensor::empty();
        let mut bt = Tensor::empty();
        // Reused across shapes on purpose: stale sizes/contents must not leak.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 9, 17),
            (13, 33, 20),
            (6, 8, 16),
        ] {
            let a = Tensor::rand_uniform(Shape::matrix(m, k), -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(Shape::matrix(k, n), -1.0, 1.0, &mut rng);
            matmul_into(&a, &b, &mut out);
            assert_eq!(out, matmul(&a, &b), "matmul_into {m}x{k}x{n}");

            let a_km = Tensor::rand_uniform(Shape::matrix(k, m), -1.0, 1.0, &mut rng);
            matmul_at_b_into(&a_km, &b, &mut out);
            assert_eq!(out, matmul_at_b(&a_km, &b), "matmul_at_b_into {m}x{k}x{n}");

            let b_nk = Tensor::rand_uniform(Shape::matrix(n, k), -1.0, 1.0, &mut rng);
            matmul_a_bt_into(&a, &b_nk, &mut bt, &mut out);
            assert_eq!(out, matmul_a_bt(&a, &b_nk), "matmul_a_bt_into {m}x{k}x{n}");
            assert_eq!(bt, Tensor::empty(), "bt_scratch must stay untouched");

            let mut sums = Tensor::empty();
            sum_rows_into(&a, &mut sums);
            assert_eq!(sums, sum_rows(&a), "sum_rows_into {m}x{k}");
        }
    }

    #[test]
    #[should_panic]
    fn matmul_dim_mismatch_panics() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(2, 2, &[0.0; 4]);
        matmul(&a, &b);
    }
}
