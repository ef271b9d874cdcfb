//! Matrix multiplication and related linear-algebra kernels.
//!
//! The four matmul entry points share one cache-blocked, register-tiled
//! kernel. A tile of up to 6×16 outputs is accumulated in registers while
//! the k dimension streams through it; row bands are split evenly (32 rows
//! run as 6+6+5+5+5+5, not 6×5+2), a ragged last column stripe runs
//! zero-padded, and every product runs on the calling thread: the
//! simulator's parallel units are clients, evaluation batches, aggregation
//! shards and sweep cells, each already on a worker of its own, so a kernel
//! never spawns threads inside one. In the manner of Goto and
//! van de Geijn ("Anatomy of High-Performance Matrix Multiplication", ACM
//! TOMS 2008), each operand is put once per cache block into the layout
//! the tile streams, and a tile's accumulators live in registers from their
//! first `k` step to the end of their `k` block:
//!
//! - **Operand layouts.** `B` is packed into `NR`-wide stripes (zero-padded)
//!   whatever its layout; `matmul_a_bt_into` packs them straight out of the
//!   stored `[n, k]` matrix. `A` is read in place: row-major when stored
//!   `[m, k]`, and for `matmul_at_b_into`'s stored `[k, m]` matrix as one
//!   contiguous run of the band's rows per `k` step — the `Aᵀ` panel is
//!   already p-major, so nothing is gathered and no `m`-strided column is
//!   walked. No transposed copy of either operand is ever materialised.
//! - **Zero-start accumulators.** The first `k` block's accumulators start
//!   at `+0.0` in registers, so the entry points neither zero-fill their
//!   output nor read it back; only a later `k` block (`k > 256`) resumes
//!   from the partial sums it stored. Every output element is written, so
//!   stale contents of a reused output never leak; `k == 0` writes zeros.
//! - **Narrow outputs.** With fewer than `NR` (16) columns — the 10-class
//!   layer — a 16-lane tile would be mostly padding, so the kernel computes
//!   `Cᵀ = Bᵀ·Aᵀ` instead: the lanes run over 16 output *rows* (a packed
//!   `Aᵀ` stripe), `Bᵀ` is read in place, and `f32::mul_add` is symmetric
//!   in its two factors, so every element is the same fused chain as
//!   before.
//! - **Epilogue.** [`matmul_bias_into`] (`Linear`'s forward pass) adds the
//!   bias, then applies the ReLU if asked, to each band of tiles as soon as
//!   its last `k` block leaves the registers, while the band is in L1: the
//!   same two separately rounded operations, in the same order, as a bias
//!   pass and a ReLU pass after the product. (Applying
//!   them to the accumulators themselves measured slower: the extra code
//!   costs the tile its register allocation.)
//!
//! Determinism contract: every output element accumulates its `k`
//! contributions in ascending order into a single `f32` accumulator, one
//! [`f32::mul_add`] per contribution — an IEEE-754 fusedMultiplyAdd, which
//! rounds `a·b + acc` once and is fully specified. Results are therefore
//! bit-identical for any build profile and target CPU, whichever worker
//! thread computes them, and equal to the fused scalar loops the tests keep
//! as their oracle. An x86_64 build without the `fma` target feature — one
//! made under a `RUSTFLAGS` variable, say, which replaces the flags in
//! `.cargo/config.toml` — calls libm's `fmaf` for every step instead: the
//! same bits as long as that `fmaf` is correctly rounded (glibc's is, and CI
//! checks it), many times slower than even an unfused SSE2 tile. Nothing
//! outside the register
//! tile is fused: the element-wise kernels, the optimizer and aggregation are
//! memory-bound and keep their separately rounded multiplies and adds.
//! No entry point skips a zero `A` entry, so `0 × ∞` is NaN in every one.

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

/// `C = A @ B` where `A` is `[m, k]` and `B` is `[k, n]`, written into a
/// reusable output tensor (resized as needed; no allocation once `out` has
/// capacity).
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = as_matrix_dims(a, "matmul lhs");
    let (k2, n) = as_matrix_dims(b, "matmul rhs");
    assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
    out.resize_to(&[m, n]);
    product::<false, false>(a.data(), k, k, b.data(), n, out.data_mut(), None);
}

/// `C = A @ B + bias`, the bias added to every row, then ReLU (`x > 0.0`
/// keeps `x`, anything else — `-0.0` and NaN included — becomes `+0.0`)
/// when `relu` is set: a dense layer's forward pass in one sweep over the
/// output. Bit-identical to [`matmul_into`], then `out[i][j] += bias[j]`,
/// then a ReLU pass — the epilogue makes the same separately rounded add
/// and the same comparison, in the same order.
pub fn matmul_bias_into(a: &Tensor, b: &Tensor, bias: &Tensor, relu: bool, out: &mut Tensor) {
    let (m, k) = as_matrix_dims(a, "matmul lhs");
    let (k2, n) = as_matrix_dims(b, "matmul rhs");
    assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
    assert_eq!(bias.numel(), n, "bias length must equal column count");
    out.resize_to(&[m, n]);
    let epi = Epilogue {
        bias: bias.data(),
        relu,
    };
    product::<false, false>(a.data(), k, k, b.data(), n, out.data_mut(), Some(epi));
}

/// `C = A^T @ B` where `A` is `[k, m]` and `B` is `[k, n]` — used for weight
/// gradients (`dW = X^T @ dY`) — written into a reusable output tensor.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = as_matrix_dims(a, "matmul_at_b lhs");
    let (k2, n) = as_matrix_dims(b, "matmul_at_b rhs");
    assert_eq!(
        k, k2,
        "matmul_at_b: leading dimensions differ ({k} vs {k2})"
    );
    out.resize_to(&[m, n]);
    product::<true, false>(a.data(), m, k, b.data(), n, out.data_mut(), None);
}

/// `C = A @ B^T` where `A` is `[m, k]` and `B` is `[n, k]` — used for input
/// gradients (`dX = dY @ W^T` with `W` stored `[in, out]`) — written into a
/// reusable output tensor.
///
/// `_bt_scratch` is never read or written: the kernel packs its stripes
/// straight out of the `[n, k]` operand, so no `B^T` copy exists. The
/// parameter only keeps the four-argument signature the benchmark calls.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, _bt_scratch: &mut Tensor, out: &mut Tensor) {
    let (m, k) = as_matrix_dims(a, "matmul_a_bt lhs");
    let (n, k2) = as_matrix_dims(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt: inner dimensions differ ({k} vs {k2})");
    out.resize_to(&[m, n]);
    product::<false, true>(a.data(), k, k, b.data(), n, out.data_mut(), None);
}

/// What [`matmul_bias_into`] does to each output after its last `k` step:
/// add the bias of its column, then, if `relu`, clamp it at zero.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    bias: &'a [f32],
    relu: bool,
}

/// Apply `epi`, if any, to columns `j..j + w` of every row of `rows` (rows
/// of `n`): the tiles that just stored them leave them in L1.
fn finish(epi: Option<Epilogue>, rows: &mut [f32], n: usize, j: usize, w: usize) {
    let Some(Epilogue { bias, relu }) = epi else {
        return;
    };
    for row in rows.chunks_exact_mut(n) {
        let row = &mut row[j..j + w];
        for (v, b) in row.iter_mut().zip(&bias[j..]) {
            *v += b;
        }
        if relu {
            for v in row.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }
}

/// `out = A @ B` (then `epi`, if any) through the blocked kernel that fits
/// `n`. Every element of `out` is overwritten; nothing is read from it
/// first.
///
/// The two const flags are the entry points' operand conventions: `AT`
/// reads `A` out of a stored `[k, m]` matrix (`a_stride = m`; otherwise
/// `[m, k]` with `a_stride = k`), `BT` reads `B` out of a stored `[n, k]`
/// matrix (otherwise `[k, n]`). Neither transposed operand is ever
/// materialised.
fn product<const AT: bool, const BT: bool>(
    ad: &[f32],
    a_stride: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Option<Epilogue>,
) {
    if n == 0 || out.is_empty() {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        finish(epi, out, n, 0, n);
    } else if n < NR {
        narrow_rows::<AT, BT>(ad, a_stride, k, bd, n, out, epi);
    } else {
        nt_rows::<AT, BT>(ad, a_stride, k, bd, n, out, epi);
    }
}

thread_local! {
    /// The packed `B` panel (the wide kernel) or `Aᵀ` stripe (the narrow
    /// one): a buffer per thread, grown once, so steady-state matmuls
    /// perform no heap allocation. Every stripe is fully rewritten before it
    /// is read, so reuse cannot leak stale values.
    static PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `rows` split into `⌈rows / MR⌉` bands as even as possible, as
/// `(first row, row count)`: 32 rows run as 6+6+5+5+5+5, where a plain
/// `MR` stride would leave a 2-row band that keeps the FMA units half idle.
fn bands(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    let count = rows.div_ceil(MR);
    let (base, extra) = (rows / count.max(1), rows % count.max(1));
    (0..count).map(move |b| (b * base + b.min(extra), base + usize::from(b < extra)))
}

/// `out = A @ B` for `n >= NR`.
///
/// Structure: `NC`-column × `KC`-deep cache blocks around one register tile
/// of up to `MR` rows × `NR` columns, which serves every shape — a row band
/// runs the tile instantiated for its row count, a ragged last column
/// stripe is packed zero-padded to `NR` and written back only as wide as it
/// is. A tile's accumulators start at `+0.0` in the first `k` block, and in
/// a later one resume from the partial sums the previous block stored; the
/// `k` blocks run in ascending order — so every output element still
/// receives its `k` contributions in exactly the ascending single-accumulator
/// order of the plain ikj loop, one fused step each, regardless of the
/// blocking. Padded lanes never mix with kept ones (each lane is its own
/// accumulator) and are discarded. A zero `A` entry is accumulated like any
/// other: zero-heavy inputs (post-ReLU activations) run the same branch-free
/// tile, and `0 × ∞` contributes NaN.
fn nt_rows<const AT: bool, const BT: bool>(
    ad: &[f32],
    a_stride: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Option<Epilogue>,
) {
    let rows = out.len() / n;
    PACK.with(|cell| {
        let mut bpack = cell.borrow_mut();
        if bpack.len() < KC * NC {
            bpack.resize(KC * NC, 0.0);
        }
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for kb in (0..k).step_by(KC) {
                let kc = KC.min(k - kb);
                let panel = &mut bpack[..nc.div_ceil(NR) * kc * NR];
                pack_b::<BT>(bd, if BT { k } else { n }, kb, kc, jc, nc, panel);
                let first = kb == 0;
                for (i, r) in bands(rows) {
                    // The tile reads `A` in place: row-major `[r, kc]`, or
                    // — stored transposed — one contiguous `r`-run per `k`
                    // step.
                    let a = if AT {
                        &ad[kb * a_stride + i..]
                    } else {
                        &ad[i * a_stride + kb..]
                    };
                    let band = &mut out[i * n..(i + r) * n];
                    // One out-of-line instantiation per row count: inlining
                    // them all here costs the tile its register allocation.
                    match r {
                        1 => row_band::<AT, 1>(a, a_stride, panel, kc, band, n, jc, first),
                        2 => row_band::<AT, 2>(a, a_stride, panel, kc, band, n, jc, first),
                        3 => row_band::<AT, 3>(a, a_stride, panel, kc, band, n, jc, first),
                        4 => row_band::<AT, 4>(a, a_stride, panel, kc, band, n, jc, first),
                        5 => row_band::<AT, 5>(a, a_stride, panel, kc, band, n, jc, first),
                        _ => row_band::<AT, MR>(a, a_stride, panel, kc, band, n, jc, first),
                    }
                    // The epilogue runs on the band's tiles as they leave
                    // the registers, while they are still in L1.
                    if kb + kc == k {
                        finish(epi, band, n, jc, nc);
                    }
                }
            }
        }
    });
}

/// `out = A @ B` for `n < NR`, computed as
/// `Cᵀ = Bᵀ·Aᵀ`: the tile's lanes run over up to `NR` output rows (a packed
/// `Aᵀ` stripe) and its rows over up to `MR` output columns (`Bᵀ`'s rows,
/// read in place), so a 10-column product fills every lane instead of 10 of
/// 16. Each lane still accumulates `fma(b, a, acc) == fma(a, b, acc)` over
/// ascending `k`, starting at `+0.0`, so the bits are the wide kernel's.
fn narrow_rows<const AT: bool, const BT: bool>(
    ad: &[f32],
    a_stride: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Option<Epilogue>,
) {
    let rows = out.len() / n;
    PACK.with(|cell| {
        let mut lanes = cell.borrow_mut();
        if lanes.len() < KC * NC {
            lanes.resize(KC * NC, 0.0);
        }
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            let first = kb == 0;
            for i in (0..rows).step_by(NR) {
                let w = NR.min(rows - i);
                // `Aᵀ`'s columns `i..i + w` as one zero-padded `NR` stripe.
                let lanes = &mut lanes[..kc * NR];
                if AT {
                    pack_b::<false>(ad, a_stride, kb, kc, i, w, lanes);
                } else {
                    pack_b::<true>(ad, a_stride, kb, kc, i, w, lanes);
                }
                let out_rows = &mut out[i * n..(i + w) * n];
                // `Bᵀ` is `A`-shaped the other way round: a `[k, n]` `B`
                // holds its rows transposed.
                if BT {
                    col_bands::<false>(&bd[kb..], k, lanes, kc, out_rows, n, first);
                } else {
                    col_bands::<true>(&bd[kb * n..], n, lanes, kc, out_rows, n, first);
                }
                if kb + kc == k {
                    finish(epi, out_rows, n, 0, n);
                }
            }
        }
    });
}

/// Every column band of the narrow kernel for one `Aᵀ` stripe; `bt` holds
/// `Bᵀ` from `k` step `kb` on, transposed (`BT_T`, rows of `ld = n`) or not
/// (rows of `ld = k`). `first` as in [`row_band`].
fn col_bands<const BT_T: bool>(
    bt: &[f32],
    ld: usize,
    lanes: &[f32],
    kc: usize,
    out_rows: &mut [f32],
    n: usize,
    first: bool,
) {
    for (j, r) in bands(n) {
        let b = if BT_T { &bt[j..] } else { &bt[j * ld..] };
        match r {
            1 => col_band::<BT_T, 1>(b, ld, lanes, kc, out_rows, n, j, first),
            2 => col_band::<BT_T, 2>(b, ld, lanes, kc, out_rows, n, j, first),
            3 => col_band::<BT_T, 3>(b, ld, lanes, kc, out_rows, n, j, first),
            4 => col_band::<BT_T, 4>(b, ld, lanes, kc, out_rows, n, j, first),
            5 => col_band::<BT_T, 5>(b, ld, lanes, kc, out_rows, n, j, first),
            _ => col_band::<BT_T, MR>(b, ld, lanes, kc, out_rows, n, j, first),
        }
    }
}

/// Pack `B[kb..kb+kc, jc..jc+nc]` into `panel` as `NR`-wide stripes, each
/// `kc` consecutive `NR`-runs, the last stripe zero-padded — so the tile
/// streams L1 lines in order whatever the operand's layout (`ld` is its row
/// length).
fn pack_b<const BT: bool>(
    bd: &[f32],
    ld: usize,
    kb: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    panel: &mut [f32],
) {
    for (stripe, j) in panel
        .chunks_exact_mut(kc * NR)
        .zip((jc..jc + nc).step_by(NR))
    {
        let w = NR.min(jc + nc - j);
        if BT {
            // Source row `c` is packed column `c`: each packed run gathers
            // one value from each row (zeros past the last), written whole.
            const ZEROS: [f32; KC] = [0.0; KC];
            let rows: [&[f32]; NR] = std::array::from_fn(|c| {
                if c < w {
                    &bd[(j + c) * ld + kb..][..kc]
                } else {
                    &ZEROS[..kc]
                }
            });
            for (dst, pi) in stripe.chunks_exact_mut(NR).zip(0..kc) {
                let dst: &mut [f32; NR] = dst.try_into().expect("NR-wide runs");
                *dst = std::array::from_fn(|c| rows[c][pi]);
            }
        } else {
            for (pi, dst) in stripe.chunks_exact_mut(NR).enumerate() {
                dst.copy_from_slice(&load_run(&bd[(kb + pi) * ld + j..][..w]));
            }
        }
    }
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
/// start the accumulators at `+0.0` (`first`, the first `k` block) or resume
/// them from the output, run the tile, write back the kept columns. `a`
/// holds the band's `A` rows from `k` step `kb` on, stored transposed (`AT`,
/// `ld = m`) or not (`ld = k`).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn row_band<const AT: bool, const R: usize>(
    a: &[f32],
    ld: usize,
    panel: &[f32],
    kc: usize,
    band: &mut [f32],
    n: usize,
    jc: usize,
    first: bool,
) {
    for (stripe, j) in panel.chunks_exact(kc * NR).zip((jc..n).step_by(NR)) {
        let w = NR.min(n - j);
        let mut acc = if first {
            [[0.0f32; NR]; R]
        } else {
            std::array::from_fn(|r| load_run(&band[r * n + j..][..w]))
        };
        nt_tile::<AT, R>(a, ld, stripe, &mut acc);
        for (r, &acc_row) in acc.iter().enumerate() {
            store_run(acc_row, &mut band[r * n + j..][..w]);
        }
    }
}

/// The narrow kernel's tile: output columns `j..j + R` of the rows in
/// `out_rows` (at most `NR`, one per lane of `lanes`, the packed `Aᵀ`
/// stripe), against the `Bᵀ` rows in `b` (laid out as [`row_band`]'s `a`).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn col_band<const BT_T: bool, const R: usize>(
    b: &[f32],
    ld: usize,
    lanes: &[f32],
    kc: usize,
    out_rows: &mut [f32],
    n: usize,
    j: usize,
    first: bool,
) {
    let mut acc = if first {
        [[0.0f32; NR]; R]
    } else {
        gather_cols(out_rows, n, j)
    };
    nt_tile::<BT_T, R>(b, ld, &lanes[..kc * NR], &mut acc);
    scatter_cols(acc, out_rows, n, j);
}

/// Columns `j..j + R` of `out_rows` as `R` lane runs (one lane per row,
/// zero-padded past the last row). Out of line, so the accumulators it fills
/// only ever see a whole-array copy.
#[inline(never)]
fn gather_cols<const R: usize>(out_rows: &[f32], n: usize, j: usize) -> [[f32; NR]; R] {
    let mut cols = [[0.0f32; NR]; R];
    for (l, row) in out_rows.chunks_exact(n).enumerate() {
        for (col, &v) in cols.iter_mut().zip(&row[j..j + R]) {
            col[l] = v;
        }
    }
    cols
}

/// Write `R` lane runs back as columns `j..j + R` of `out_rows`, dropping
/// the padded lanes (see [`gather_cols`]).
#[inline(never)]
fn scatter_cols<const R: usize>(cols: [[f32; NR]; R], out_rows: &mut [f32], n: usize, j: usize) {
    for (l, row) in out_rows.chunks_exact_mut(n).enumerate() {
        for (o, col) in row[j..j + R].iter_mut().zip(&cols) {
            *o = col[l];
        }
    }
}

/// The register tile's `p` loop over one packed `B` stripe (`kc`
/// consecutive `NR`-wide runs) and `R` rows of `A` from `a`: each row `kc`
/// long and `ld` apart, or — `AT`, stored transposed — one `R`-run per `k`
/// step, `ld` apart.
///
/// Each step is `f32::mul_add`, never `acc + a * b`: Rust does not contract
/// the latter, and the two-instruction form was this kernel's ceiling. With
/// the `fma` target feature (`.cargo/config.toml`) a lane's step is one
/// instruction; without it the step is a libm call with the same result.
#[inline(always)]
fn nt_tile<const AT: bool, const R: usize>(
    a: &[f32],
    ld: usize,
    stripe: &[f32],
    acc: &mut [[f32; NR]; R],
) {
    let kc = stripe.len() / NR;
    if AT {
        // Two steps per iteration, as below; one bounds check pins both
        // `R`-runs.
        let mut pairs = stripe.chunks_exact(2 * NR);
        for (b_pair, a_pair) in pairs.by_ref().zip(a.chunks(2 * ld)) {
            let (b0, b1) = b_pair.split_at(NR);
            let a1: &[f32; R] = a_pair[ld..ld + R].try_into().expect("R-run");
            let a0: &[f32; R] = a_pair[..R].try_into().expect("R-run");
            tile_step::<R>(*a0, b0, acc);
            tile_step::<R>(*a1, b1, acc);
        }
        if !pairs.remainder().is_empty() {
            let a_p: &[f32; R] = a[(kc - 1) * ld..][..R].try_into().expect("R-run");
            tile_step::<R>(*a_p, pairs.remainder(), acc);
        }
    } else {
        // Pinning every row to the stripe's depth lets the `p` loop index
        // the rows without a bounds check apiece.
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * ld..][..kc]);
        // Two steps per iteration: the rows' addresses are computed once
        // for both, which keeps the loop FMA-bound rather than issue-bound
        // (the unrolled loop ran `[32, 32]·[32, 128]ᵀ` 1.2× faster).
        let mut pairs = stripe.chunks_exact(2 * NR);
        for (b_pair, pi) in pairs.by_ref().zip((0..kc).step_by(2)) {
            let (b0, b1) = b_pair.split_at(NR);
            tile_step::<R>(std::array::from_fn(|r| a_rows[r][pi]), b0, acc);
            tile_step::<R>(std::array::from_fn(|r| a_rows[r][pi + 1]), b1, acc);
        }
        if !pairs.remainder().is_empty() {
            let pi = kc - 1;
            tile_step::<R>(
                std::array::from_fn(|r| a_rows[r][pi]),
                pairs.remainder(),
                acc,
            );
        }
    }
}

/// One `k` step of the tile: `acc[r] += a_p[r] · b_run`, lane by lane.
#[inline(always)]
fn tile_step<const R: usize>(a_p: [f32; R], b_run: &[f32], acc: &mut [[f32; NR]; R]) {
    let b_tile: &[f32; NR] = b_run.try_into().expect("chunks_exact yields NR-wide runs");
    for (&a_ip, acc_row) in a_p.iter().zip(acc.iter_mut()) {
        for (o, &b_pj) in acc_row.iter_mut().zip(b_tile) {
            *o = a_ip.mul_add(b_pj, *o);
        }
    }
}

/// Sum over rows of a `[m, n]` matrix into a reusable `[n]` vector (used
/// for bias gradients).
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
    use crate::shape::Shape;

    fn mat(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::matrix(rows, cols), data.to_vec())
    }

    /// The three products into fresh tensors: `A @ B` with `a: [m, k]`,
    /// `b: [k, n]`.
    fn ab(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        matmul_into(a, b, &mut out);
        out
    }

    /// `A^T @ B` with `a: [k, m]` (see [`ab`]).
    fn at_b(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        matmul_at_b_into(a, b, &mut out);
        out
    }

    /// `A @ B^T` with `b: [n, k]` (see [`ab`]).
    fn a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        matmul_a_bt_into(a, b, &mut Tensor::empty(), &mut out);
        out
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

    /// Add a row vector `bias` (`[n]`) to every row of a `[m, n]` matrix in
    /// place: the bias pass [`matmul_bias_into`]'s epilogue replaces, kept
    /// as its oracle.
    fn add_bias_rows(a: &mut Tensor, bias: &Tensor) {
        let (_, n) = as_matrix_dims(a, "add_bias_rows matrix");
        assert_eq!(bias.numel(), n, "bias length must equal column count");
        let bd = bias.data();
        for row in a.data_mut().chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(bd.iter()) {
                *o += bv;
            }
        }
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
        let c = ab(&a, &b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let eye = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(ab(&a, &eye).data(), a.data());
        assert_eq!(ab(&eye, &a).data(), a.data());
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

    /// All three kernels against the scalar references, with `a: [m, k]`,
    /// `b: [k, n]` as [`ab`] sees them ([`at_b`] gets `a^T`, [`a_bt`] gets
    /// `b^T`).
    fn assert_kernels_match_references(a: &Tensor, b: &Tensor, what: &str) {
        let (a_km, b_nk) = (transpose(a), transpose(b));
        let want = matmul_reference(a, b);
        assert_bits_eq(&ab(a, b), &want, &format!("matmul {what}"));
        let want = at_b_reference(&a_km, b);
        assert_bits_eq(&at_b(&a_km, b), &want, &format!("matmul_at_b {what}"));
        let want = a_bt_reference(a, &b_nk);
        assert_bits_eq(&a_bt(a, &b_nk), &want, &format!("matmul_a_bt {what}"));
    }

    /// Uniform `[rows, cols]` matrix with every third entry an exact zero,
    /// like the post-ReLU activations the weight gradients multiply.
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
        // Every product the workloads' training and eval steps make: the
        // 128-feature MLPs (128→32→16→10, 128→128→64→10, 128→256→128→10)
        // at their batch sizes, each layer's forward `[m, in]·[in, out]`,
        // weight gradient `[in, m]·[m, out]` and input gradient
        // `[m, out]·[out, in]` — every entry point sees all three.
        let layers = [
            (128, 32),
            (32, 16),
            (16, 10),
            (128, 128),
            (128, 64),
            (64, 10),
            (128, 256),
            (256, 128),
            (128, 10),
        ];
        for m in [1, 10, 32, 53, 64] {
            for (fan_in, fan_out) in layers {
                for shape in [
                    (m, fan_in, fan_out),
                    (fan_in, m, fan_out),
                    (m, fan_out, fan_in),
                ] {
                    if !shapes.contains(&shape) {
                        shapes.push(shape);
                    }
                }
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
    fn non_finite_b_meets_zero_a_entries_as_the_plain_fused_chain() {
        // No entry point skips a zero `A` entry: `0 × ∞` and `0 × NaN` are
        // NaN, and every kernel gives the plain fused loop's bits.
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
        // zeros against them.
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
        // A zero `A` entry facing an infinite or NaN `B` entry poisons its
        // output.
        let a = mat(1, 2, &[0.0, 1.0]);
        let b = mat(2, 2, &[f32::INFINITY, f32::NAN, 2.0, 3.0]);
        assert!(ab(&a, &b).data().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn underflowed_negative_zero_meets_a_zero_a_entry() {
        // A negative product below the subnormal range fuses into a zero
        // accumulator as `-0.0`; the zero `A` entries that follow add
        // `+0.0`, which makes it `+0.0` — in the oracle and in every entry
        // point, on the narrow kernel (2 columns) and the wide tile (17),
        // whether or not `B` holds a non-finite value elsewhere (here the
        // last column, which it turns into NaN).
        let a = mat(1, 3, &[-1e-30, 0.0, 0.0]);
        for n in [2, 17] {
            let b = Tensor::from_vec(
                Shape::matrix(3, n),
                [1e-30, 1.0, 1.0].iter().flat_map(|&v| vec![v; n]).collect(),
            );
            let mut poisoned = b.clone();
            poisoned.data_mut()[3 * n - 1] = f32::INFINITY;
            for b in [&b, &poisoned] {
                let want = matmul_reference(&a, b);
                for v in &want.data()[..n - 1] {
                    assert_eq!(v.to_bits(), 0.0f32.to_bits(), "n = {n}");
                }
                let (a_km, b_nk) = (transpose(&a), transpose(b));
                for (what, got) in [
                    ("matmul", ab(&a, b)),
                    ("matmul_at_b", at_b(&a_km, b)),
                    ("matmul_a_bt", a_bt(&a, &b_nk)),
                ] {
                    assert_bits_eq(&got, &want, &format!("{what} n = {n}"));
                }
            }
            let last = |b: &Tensor| matmul_reference(&a, b).data()[n - 1];
            assert_eq!(last(&b).to_bits(), 0.0f32.to_bits());
            assert!(last(&poisoned).is_nan());
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
    fn at_b_matches_explicit_transpose() {
        let a = mat(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // A is [3,2]
        let b = mat(3, 2, &[7.0, 10.0, 8.0, 11.0, 9.0, 12.0]);
        let via_helper = at_b(&a, &b);
        let via_transpose = ab(&transpose(&a), &b);
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
        let via_helper = a_bt(&a, &b);
        let via_transpose = ab(&a, &transpose(&b));
        assert_eq!(via_helper.data(), via_transpose.data());
    }

    #[test]
    fn bias_and_row_sum() {
        let mut a = mat(2, 3, &[0.0; 6]);
        let bias = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        add_bias_rows(&mut a, &bias);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let mut s = Tensor::empty();
        sum_rows_into(&a, &mut s);
        assert_eq!(s.data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn into_variants_reused_across_shapes_match_fresh_products() {
        let mut rng = Xoshiro256::new(21);
        let mut out = Tensor::empty();
        let mut bt = Tensor::empty();
        let mut sums = Tensor::empty();
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
            assert_eq!(out, ab(&a, &b), "matmul_into {m}x{k}x{n}");

            let a_km = Tensor::rand_uniform(Shape::matrix(k, m), -1.0, 1.0, &mut rng);
            matmul_at_b_into(&a_km, &b, &mut out);
            assert_eq!(out, at_b(&a_km, &b), "matmul_at_b_into {m}x{k}x{n}");

            let b_nk = Tensor::rand_uniform(Shape::matrix(n, k), -1.0, 1.0, &mut rng);
            matmul_a_bt_into(&a, &b_nk, &mut bt, &mut out);
            assert_eq!(out, a_bt(&a, &b_nk), "matmul_a_bt_into {m}x{k}x{n}");
            assert_eq!(bt, Tensor::empty(), "bt_scratch must stay untouched");

            let mut fresh = Tensor::empty();
            sum_rows_into(&a, &mut sums);
            sum_rows_into(&a, &mut fresh);
            assert_eq!(sums, fresh, "sum_rows_into {m}x{k}");
        }
    }

    /// `matmul_reference`, then the bias added to every row, then the ReLU
    /// when asked: the three separately rounded passes the fused epilogue
    /// must reproduce.
    fn bias_reference(a: &Tensor, b: &Tensor, bias: &Tensor, relu: bool) -> Tensor {
        let mut want = matmul_reference(a, b);
        add_bias_rows(&mut want, bias);
        if relu {
            for v in want.data_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        want
    }

    #[test]
    fn bias_epilogue_matches_separate_passes() {
        // Training shapes (narrow and wide, one and several `k` blocks),
        // with a bias holding -0.0 and NaN and a column of exact cancels so
        // that the ReLU sees -0.0, +0.0 and NaN.
        let mut rng = Xoshiro256::new(29);
        for (m, k, n) in [
            (32, 128, 32),
            (32, 32, 16),
            (32, 16, 10),
            (64, 64, 10),
            (10, 128, 256),
            (53, 300, 17),
            (7, 257, 3),
            (1, 1, 1),
        ] {
            let a = zero_sprinkled(m, k, &mut rng);
            let b = Tensor::rand_uniform(Shape::matrix(k, n), -2.0, 2.0, &mut rng);
            let mut bias = Tensor::rand_uniform(Shape::vector(n), -1.0, 1.0, &mut rng);
            bias.data_mut()[0] = -0.0;
            if n > 2 {
                bias.data_mut()[n - 1] = f32::NAN;
            }
            for relu in [false, true] {
                let want = bias_reference(&a, &b, &bias, relu);
                let mut got = Tensor::empty();
                matmul_bias_into(&a, &b, &bias, relu, &mut got);
                assert_bits_eq(&got, &want, &format!("{m}x{k}x{n}, relu {relu}"));
            }
        }
    }

    #[test]
    fn stale_outputs_never_leak_into_products() {
        // The entry points write every output element without reading it:
        // an output pre-filled with NaN, or left at a larger stale shape,
        // comes back bit-equal to a fresh product.
        let mut rng = Xoshiro256::new(31);
        for (m, k, n) in [(32, 128, 32), (32, 16, 10), (64, 300, 17), (5, 9, 1)] {
            let a = zero_sprinkled(m, k, &mut rng);
            let b = Tensor::rand_uniform(Shape::matrix(k, n), -2.0, 2.0, &mut rng);
            let bias = Tensor::rand_uniform(Shape::vector(n), -1.0, 1.0, &mut rng);
            let (a_km, b_nk) = (transpose(&a), transpose(&b));
            type Product<'a> = (&'static str, &'a dyn Fn(&mut Tensor));
            let products: [Product; 4] = [
                ("matmul_into", &|out| matmul_into(&a, &b, out)),
                ("matmul_at_b_into", &|out| matmul_at_b_into(&a_km, &b, out)),
                ("matmul_a_bt_into", &|out| {
                    matmul_a_bt_into(&a, &b_nk, &mut Tensor::empty(), out)
                }),
                ("matmul_bias_into", &|out| {
                    matmul_bias_into(&a, &b, &bias, true, out)
                }),
            ];
            for (what, product) in products {
                let mut fresh = Tensor::empty();
                product(&mut fresh);
                let mut poisoned = Tensor::full(Shape::matrix(m, n), f32::NAN);
                product(&mut poisoned);
                assert_bits_eq(
                    &poisoned,
                    &fresh,
                    &format!("{what} {m}x{k}x{n}, NaN-filled"),
                );
                let mut stale = Tensor::full(Shape::matrix(m + 3, n + 5), f32::NAN);
                product(&mut stale);
                assert_bits_eq(&stale, &fresh, &format!("{what} {m}x{k}x{n}, stale shape"));
            }
        }
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        // `k == 0`: every product is an empty sum, +0.0, whatever the output
        // held; the bias product is the bias (and its ReLU).
        for (m, n) in [(3, 5), (4, 20), (1, 1)] {
            let a = Tensor::zeros(Shape::matrix(m, 0));
            let b = Tensor::zeros(Shape::matrix(0, n));
            let (a_km, b_nk) = (
                Tensor::zeros(Shape::matrix(0, m)),
                Tensor::zeros(Shape::matrix(n, 0)),
            );
            let zeros = Tensor::zeros(Shape::matrix(m, n));
            let mut out = Tensor::full(Shape::matrix(m, n), f32::NAN);
            matmul_into(&a, &b, &mut out);
            assert_bits_eq(&out, &zeros, "matmul_into, k = 0");
            out.fill(f32::NAN);
            matmul_at_b_into(&a_km, &b, &mut out);
            assert_bits_eq(&out, &zeros, "matmul_at_b_into, k = 0");
            out.fill(f32::NAN);
            matmul_a_bt_into(&a, &b_nk, &mut Tensor::empty(), &mut out);
            assert_bits_eq(&out, &zeros, "matmul_a_bt_into, k = 0");
            let bias = Tensor::from_vec(Shape::vector(n), (0..n).map(|j| j as f32 - 1.5).collect());
            for relu in [false, true] {
                out.fill(f32::NAN);
                matmul_bias_into(&a, &b, &bias, relu, &mut out);
                assert_bits_eq(
                    &out,
                    &bias_reference(&a, &b, &bias, relu),
                    "matmul_bias_into, k = 0",
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn matmul_dim_mismatch_panics() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(2, 2, &[0.0; 4]);
        matmul_into(&a, &b, &mut Tensor::empty());
    }
}
