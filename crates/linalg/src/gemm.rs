//! Blocked, register-tiled dense matrix kernels with operand packing.
//!
//! This is the single entry point every dense product in the workspace
//! routes through: [`gemm`] computes `C ← α·op(A)·op(B) + β·C` with
//! `op ∈ {identity, transpose}` selected by [`Trans`] flags, so
//! `matmul` (NN), `t_matmul` (TN) and `matmul_nt` (NT) are one kernel and
//! no caller ever materialises a transpose. [`gemv`] is the `n = 1`
//! specialisation sharing the same layer.
//!
//! ## Architecture (BLIS-style three-level blocking)
//!
//! ```text
//! for jc in steps of NC:            // C column blocks   (L3 / TLB)
//!   for pc in steps of KC:          // depth blocks      (B panel in L2)
//!     pack B[pc..pc+KC, jc..jc+NC]  // into NR-wide column panels
//!     for ic in steps of MC:        // C row blocks      (A block in L2)
//!       pack A[ic..ic+MC, pc..pc+KC]// into MR-tall row panels
//!       for each MR × NR tile: micro-kernel (registers)
//! ```
//!
//! The micro-kernel keeps an `MR × NR` accumulator tile in registers and
//! walks the packed panels contiguously, one `k` step at a time. Packing
//! zero-pads ragged edges, so there is a single micro-kernel with masked
//! write-back — no per-element `!= 0.0` branches anywhere on the hot path.
//!
//! ## Determinism
//!
//! The parallel split (row blocks of C, fixed chunks, one per worker) and
//! the cache blocking never change the *per-element* arithmetic: each
//! `C[i][j]` accumulates its `k` products in strictly increasing `k` order
//! (register accumulation within a KC block, block-bumps in increasing
//! `pc` order), and that order depends only on the problem shape — not on
//! the thread count, the row chunk a thread owns, or the MC/NC position of
//! the tile. Results are therefore bitwise-identical at every thread
//! count, preserving the PR-1 pool guarantee. No FMA contraction and no
//! reassociation is performed (the AVX2 path vectorises across independent
//! output elements only), so SIMD dispatch does not change results either.
//!
//! ## Workspaces
//!
//! Packing buffers come from the per-thread pool in [`crate::workspace`],
//! so steady-state calls are allocation-free on long-lived threads.

use crate::cmat::CMat;
use crate::complex::c64;
use crate::mat::Mat;
use crate::pool;
use crate::workspace::{give_cvec, give_vec, take_cvec, take_vec};
use std::ops::Range;

/// Rows of the register tile (micro-kernel height).
pub const MR: usize = 4;
/// Columns of the register tile (micro-kernel width).
pub const NR: usize = 8;
/// Row-block size: the packed `MC × KC` A block targets L2.
pub const MC: usize = 128;
/// Depth-block size: one packed panel of B (`KC × NR`) stays L1-resident.
pub const KC: usize = 256;
/// Column-block size: the packed `KC × NC` B block targets L2/L3.
pub const NC: usize = 512;

/// Minimum flop count (`2·m·k·n`) before `gemm` draws workers from the
/// process-wide budget.
const PAR_FLOP_THRESHOLD: usize = 4_000_000;
/// Minimum C rows each spawned worker should own; below this the fork
/// overhead beats the kernel time.
const MIN_ROWS_PER_THREAD: usize = 32;
/// Largest `m`/`n` extent taken by the small-shape fast path, which skips
/// the pack/block machinery entirely (fleets of small per-rack trees issue
/// thousands of such calls per round; packing overhead dominates there).
pub const SMALL_DIM: usize = 32;

/// Whether an operand enters the product as itself or transposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose (no copy is made).
    Yes,
}

/// A strided read-only view: element `(i, j)` lives at `data[i·rs + j·cs]`.
/// `Trans::Yes` is expressed by swapping the strides, so packing reads the
/// transpose in place.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    pub(crate) fn of(m: &'a Mat, t: Trans) -> View<'a> {
        match t {
            Trans::No => View {
                data: m.as_slice(),
                rows: m.rows(),
                cols: m.cols(),
                rs: m.cols(),
                cs: 1,
            },
            Trans::Yes => View {
                data: m.as_slice(),
                rows: m.cols(),
                cols: m.rows(),
                rs: 1,
                cs: m.cols(),
            },
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// `c` must already have shape `op(A).rows × op(B).cols`. Draws extra
/// workers from the process-wide pool budget for large products (the split
/// is over fixed row blocks of `C` and is bitwise-deterministic; see the
/// module docs).
///
/// # Panics
/// Panics if the operand shapes are inconsistent.
pub fn gemm(alpha: f64, a: &Mat, ta: Trans, b: &Mat, tb: Trans, beta: f64, c: &mut Mat) {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    let (m, k, n) = (av.rows, av.cols, bv.cols);
    assert_eq!(k, bv.rows, "gemm inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let _span = crate::obs::GEMM_NS.span();
    crate::obs::GEMM_CALLS.inc();
    crate::obs::GEMM_FLOPS.add(
        2u64.saturating_mul(m as u64)
            .saturating_mul(k as u64)
            .saturating_mul(n as u64),
    );
    gemm_unrecorded(alpha, av, bv, beta, c);
}

/// The Gram matrix `DᵀD`, without the `gemm.*` metrics: the
/// method-of-snapshots SVD reports it under its own span.
///
/// The AVX2 tier computes only the `MR × NR` tiles on or above the
/// diagonal, reading `D` row-major in place (no packing, ragged edges
/// masked), and mirrors them into the lower triangle. Each element keeps
/// the packed kernel's order — per `KC`-row depth block a chain `acc += a·b`
/// from zero, then `c = 1·acc` on the first block and `c += 1·acc` after —
/// and `dᵢ·dⱼ` is bitwise `dⱼ·dᵢ`, so the result is bitwise [`gemm`]'s
/// `Dᵀ·D`, which the scalar tier still computes and serves as reference.
pub(crate) fn gram_unrecorded(d: &Mat) -> Mat {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2() {
        // SAFETY: AVX2 verified at run time.
        return unsafe { gram_symmetric_avx2(d) };
    }
    let mut g = Mat::zeros(d.cols(), d.cols());
    gemm_unrecorded(
        1.0,
        View::of(d, Trans::Yes),
        View::of(d, Trans::No),
        0.0,
        &mut g,
    );
    g
}

/// AVX2 body of [`gram_unrecorded`]: for each `KC`-row depth block of `D`
/// (`P × n`, row-major), every `MR × NR` tile of `G` that reaches the
/// diagonal accumulates one register tile straight from `D`'s rows — a
/// broadcast of `D[p][i]` per tile row times masked loads of
/// `D[p][j0..j0 + NR]` — and is written back as [`write_back_tile`] does
/// for the packed kernel. The strict lower triangle is then copied from
/// the upper one.
///
/// # Safety
/// Caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gram_symmetric_avx2(d: &Mat) -> Mat {
    use std::arch::x86_64::*;
    let (p, n) = (d.rows(), d.cols());
    let mut g = Mat::zeros(n, n);
    if n == 0 {
        return g;
    }
    // Every read stays inside `d`: rows run below `p`, broadcast columns are
    // clamped below `n`, and masked-off lanes are never accessed.
    let dp = d.as_slice().as_ptr();
    for pc in (0..p).step_by(KC) {
        let kc = KC.min(p - pc);
        let beta = if pc == 0 { 0.0 } else { 1.0 };
        for i0 in (0..n).step_by(MR) {
            let mr = MR.min(n - i0);
            // Tile rows past the edge broadcast the last column; they are
            // never written back.
            let ic = [0, 1, 2, 3].map(|ii| (i0 + ii).min(n - 1));
            for j0 in ((i0 / NR) * NR..n).step_by(NR) {
                let nr = NR.min(n - j0);
                let (m0, m1) = (lane_mask(nr), lane_mask(nr.saturating_sub(4)));
                // The upper half starts past the edge when `nr ≤ 4`; its
                // fully masked load reads nothing.
                let j1 = (j0 + 4).min(n);
                let mut acc = [_mm256_setzero_pd(); 2 * MR];
                for row in pc..pc + kc {
                    let r = dp.add(row * n);
                    let b0 = _mm256_maskload_pd(r.add(j0), m0);
                    let b1 = _mm256_maskload_pd(r.add(j1), m1);
                    for (ii, &i) in ic.iter().enumerate() {
                        let a = _mm256_broadcast_sd(&*r.add(i));
                        acc[2 * ii] = _mm256_add_pd(acc[2 * ii], _mm256_mul_pd(a, b0));
                        acc[2 * ii + 1] = _mm256_add_pd(acc[2 * ii + 1], _mm256_mul_pd(a, b1));
                    }
                }
                let mut tile = [0.0f64; MR * NR];
                for (q, a) in acc.iter().enumerate() {
                    _mm256_storeu_pd(tile.as_mut_ptr().add(4 * q), *a);
                }
                let c = &mut g.as_mut_slice()[i0 * n + j0..];
                write_back_tile(&tile, 1.0, beta, c, n, mr, nr);
            }
        }
    }
    let gs = g.as_mut_slice();
    for i in 1..n {
        for j in 0..i {
            gs[i * n + j] = gs[j * n + i];
        }
    }
    g
}

/// A `vmaskmovpd` mask enabling the first `lanes` (at most four) lanes.
///
/// # Safety
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lane_mask(lanes: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let on = |l: usize| if l < lanes { -1i64 } else { 0 };
    _mm256_setr_epi64x(on(0), on(1), on(2), on(3))
}

/// The body of [`gemm`] on checked operands.
fn gemm_unrecorded(alpha: f64, av: View<'_>, bv: View<'_>, beta: f64, c: &mut Mat) {
    let (m, k, n) = (av.rows, av.cols, bv.cols);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_slice(c.as_mut_slice(), beta);
        return;
    }
    let flops = 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n);
    let tokens = if flops >= PAR_FLOP_THRESHOLD {
        pool::acquire_workers((m / MIN_ROWS_PER_THREAD).saturating_sub(1))
    } else {
        pool::WorkerTokens::none()
    };
    let threads = 1 + tokens.count();
    gemm_split(threads, alpha, av, bv, beta, c);
    drop(tokens);
}

/// [`gemm`] with an explicit worker count instead of the pool budget.
///
/// Exposed for the determinism tests and kernel tuning: the result is
/// guaranteed bitwise-identical for every `threads ≥ 1`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_threaded(
    threads: usize,
    alpha: f64,
    a: &Mat,
    ta: Trans,
    b: &Mat,
    tb: Trans,
    beta: f64,
    c: &mut Mat,
) {
    let av = View::of(a, ta);
    let bv = View::of(b, tb);
    let (m, k, n) = (av.rows, av.cols, bv.cols);
    assert_eq!(k, bv.rows, "gemm inner dimensions must agree");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    let _span = crate::obs::GEMM_NS.span();
    crate::obs::GEMM_CALLS.inc();
    crate::obs::GEMM_FLOPS.add(
        2u64.saturating_mul(m as u64)
            .saturating_mul(k as u64)
            .saturating_mul(n as u64),
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == 0.0 {
        scale_slice(c.as_mut_slice(), beta);
        return;
    }
    gemm_split(threads.max(1), alpha, av, bv, beta, c);
}

/// Splits `C` into fixed row chunks (multiples of `MR`) and runs the serial
/// blocked kernel on each, one chunk per worker. The chunking only decides
/// *which thread* fills which rows, never the per-element arithmetic. The
/// micro-kernel tier is chosen once, here, and handed to every worker.
fn gemm_split(threads: usize, alpha: f64, a: View<'_>, b: View<'_>, beta: f64, c: &mut Mat) {
    let (m, n) = (a.rows, b.cols);
    if is_small(m, a.cols, n) {
        gemm_small(alpha, a, b, beta, c.as_mut_slice(), n);
        return;
    }
    let avx2 = crate::simd::avx2();
    if threads <= 1 || m < 2 * MR {
        gemm_serial(alpha, a, b, beta, c.as_mut_slice(), 0, m, n, avx2);
        return;
    }
    let chunk = m.div_ceil(threads).next_multiple_of(MR);
    let mut chunks: Vec<(usize, &mut [f64])> = c
        .as_mut_slice()
        .chunks_mut(chunk * n)
        .enumerate()
        .map(|(ci, s)| (ci * chunk, s))
        .collect();
    std::thread::scope(|scope| {
        // Invariant: `m ≥ 2·MR > 0` on this path, so `chunks` is nonempty.
        #[allow(clippy::expect_used)]
        let (first, rest) = chunks.split_first_mut().expect("chunks nonempty");
        for (i0, dst) in rest.iter_mut() {
            let i0 = *i0;
            let rows_here = dst.len() / n;
            scope.spawn(move || gemm_serial(alpha, a, b, beta, dst, i0, rows_here, n, avx2));
        }
        let rows_here = first.1.len() / n;
        gemm_serial(alpha, a, b, beta, first.1, 0, rows_here, n, avx2);
    });
}

/// Whether a shape takes the small-shape fast path: a single depth block
/// (`k ≤ KC`, so β is never split across block bumps) and an output tile
/// small enough that pack/scratch overhead dominates the arithmetic.
#[inline(always)]
pub(crate) fn is_small(m: usize, k: usize, n: usize) -> bool {
    k <= KC && m <= SMALL_DIM && n <= SMALL_DIM
}

/// Direct small-shape kernel: per output element one scalar chain in
/// strictly increasing `k`, then the same masked `α/β` combine as
/// [`write_back_tile`].
///
/// Bitwise-identical to the packed path for every shape it accepts: with
/// `k ≤ KC` there is exactly one depth block, so the packed micro-kernels
/// (scalar and AVX2 alike — separate mul/add, never FMA) also accumulate
/// each `C[i][j]` as one unsplit ascending-`k` chain and apply `α`/`β`
/// once. Padding lanes never reach write-back, so skipping them here
/// changes nothing.
fn gemm_small(alpha: f64, a: View<'_>, b: View<'_>, beta: f64, cdst: &mut [f64], ldc: usize) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    for i in 0..m {
        let crow = &mut cdst[i * ldc..][..n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let mut s = 0.0;
            for p in 0..k {
                s += a.at(i, p) * b.at(p, j);
            }
            if beta == 0.0 {
                *cv = alpha * s;
            } else if beta == 1.0 {
                *cv += alpha * s;
            } else {
                *cv = beta * *cv + alpha * s;
            }
        }
    }
}

/// Serial blocked GEMM over rows `[row0, row0 + mrows)` of the logical
/// product, writing into `cdst` (row-major, leading dimension `n`,
/// starting at logical row `row0`), on the AVX2 micro-kernel when `avx2`.
/// Packing buffers come from the per-thread scratch pool.
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    alpha: f64,
    a: View<'_>,
    b: View<'_>,
    beta: f64,
    cdst: &mut [f64],
    row0: usize,
    mrows: usize,
    n: usize,
    avx2: bool,
) {
    if mrows == 0 {
        return;
    }
    let k = a.cols;
    let mut bpack = take_vec(KC.min(k) * NC.min(n.next_multiple_of(NR)));
    let mut apack = take_vec(KC.min(k) * MC.min(mrows.next_multiple_of(MR)));
    gemm_serial_into(
        alpha, a, b, beta, cdst, row0, mrows, n, &mut bpack, &mut apack, avx2,
    );
    give_vec(apack);
    give_vec(bpack);
}

/// The packed-kernel body of [`gemm_serial`], with caller-provided packing
/// buffers (each must be at least the size [`gemm_serial`] takes). Both
/// micro-kernel tiers perform identical arithmetic.
#[allow(clippy::too_many_arguments)]
fn gemm_serial_into(
    alpha: f64,
    a: View<'_>,
    b: View<'_>,
    beta: f64,
    cdst: &mut [f64],
    row0: usize,
    mrows: usize,
    n: usize,
    bpack: &mut [f64],
    apack: &mut [f64],
    avx2: bool,
) {
    if mrows == 0 {
        return;
    }
    let k = a.cols;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let ncp = nc.next_multiple_of(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, kc, jc, nc, ncp, bpack);
            // β is applied exactly once per element, on its first depth block.
            let beta_eff = if pc == 0 { beta } else { 1.0 };
            for ic in (0..mrows).step_by(MC) {
                let mc = MC.min(mrows - ic);
                let mcp = mc.next_multiple_of(MR);
                pack_a(a, row0 + ic, mc, mcp, pc, kc, apack);
                macro_kernel(
                    alpha, apack, bpack, beta_eff, cdst, ic, mc, mcp, jc, nc, ncp, n, kc, avx2,
                );
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `ncp / NR` column panels, each laid
/// out `k`-major (`panel[p·NR + jj]`), zero-padding the ragged last panel.
#[inline(always)]
fn pack_b(b: View<'_>, pc: usize, kc: usize, jc: usize, nc: usize, ncp: usize, dst: &mut [f64]) {
    let mut off = 0;
    for j0 in (0..ncp).step_by(NR) {
        let jw = NR.min(nc - j0);
        if b.cs == 1 {
            // Row-major source: each k step is a contiguous copy.
            for p in 0..kc {
                let base = off + p * NR;
                let src = &b.data[(pc + p) * b.rs + jc + j0..][..jw];
                dst[base..base + jw].copy_from_slice(src);
                dst[base + jw..base + NR].fill(0.0);
            }
        } else {
            for p in 0..kc {
                let base = off + p * NR;
                for jj in 0..jw {
                    dst[base + jj] = b.at(pc + p, jc + j0 + jj);
                }
                dst[base + jw..base + NR].fill(0.0);
            }
        }
        off += kc * NR;
    }
}

/// Packs `A[row0..row0+mc, pc..pc+kc]` into `mcp / MR` row panels, each laid
/// out `k`-major (`panel[p·MR + ii]`), zero-padding the ragged last panel.
#[inline(always)]
fn pack_a(a: View<'_>, row0: usize, mc: usize, mcp: usize, pc: usize, kc: usize, dst: &mut [f64]) {
    let mut off = 0;
    for i0 in (0..mcp).step_by(MR) {
        let iw = MR.min(mc - i0);
        for p in 0..kc {
            let base = off + p * MR;
            for ii in 0..iw {
                dst[base + ii] = a.at(row0 + i0 + ii, pc + p);
            }
            dst[base + iw..base + MR].fill(0.0);
        }
        off += kc * MR;
    }
}

/// Runs the register-tiled micro-kernel over every `MR × NR` tile of one
/// packed `mc × nc` block of C.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn macro_kernel(
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    beta: f64,
    cdst: &mut [f64],
    ic: usize,
    mc: usize,
    mcp: usize,
    jc: usize,
    nc: usize,
    ncp: usize,
    ldc: usize,
    kc: usize,
    avx2: bool,
) {
    for (jp, j0) in (0..ncp).step_by(NR).enumerate() {
        let bpanel = &bpack[jp * kc * NR..][..kc * NR];
        let nr = NR.min(nc - j0);
        for (ip, i0) in (0..mcp).step_by(MR).enumerate() {
            let apanel = &apack[ip * kc * MR..][..kc * MR];
            let mr = MR.min(mc - i0);
            let coff = (ic + i0) * ldc + jc + j0;
            let ctile = &mut cdst[coff..];
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `avx2` comes from the run-time check in
                // `simd::avx2`; the panels hold at least `kc` full tiles by
                // construction.
                unsafe { micro_kernel_avx2(kc, alpha, apanel, bpanel, beta, ctile, ldc, mr, nr) };
                continue;
            }
            micro_kernel(kc, alpha, apanel, bpanel, beta, ctile, ldc, mr, nr);
        }
    }
}

/// The `MR × NR` register tile: accumulates the full (zero-padded) tile over
/// `kc` depth steps, then writes back only the `mr × nr` valid corner.
///
/// Per output element the accumulation is a single scalar chain in
/// increasing `k` — the property the determinism guarantee rests on.
///
/// `acc` is only ever indexed with loop-constant indices so LLVM can promote
/// the whole tile into registers; the variable-size masked write-back reads
/// from a separate spilled copy (see [`write_back_tile`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (aq, bq) in apanel
        .chunks_exact(MR)
        .zip(bpanel.chunks_exact(NR))
        .take(kc)
    {
        for i in 0..MR {
            let ai = aq[i];
            for j in 0..NR {
                acc[i][j] += ai * bq[j];
            }
        }
    }
    let mut tile = [0.0f64; MR * NR];
    for i in 0..MR {
        for j in 0..NR {
            tile[i * NR + j] = acc[i][j];
        }
    }
    write_back_tile(&tile, alpha, beta, c, ldc, mr, nr);
}

/// AVX2 micro-kernel: eight `__m256d` accumulators (4 rows × 2 half-rows)
/// held explicitly in registers, one broadcast of A per row per depth step.
/// Uses separate `vmulpd`/`vaddpd` — **never** FMA — so every lane performs
/// exactly the scalar `acc += a·b` sequence and results stay bitwise equal
/// to [`micro_kernel`].
///
/// # Safety
/// Caller must have verified AVX2 support; `apanel`/`bpanel` must hold at
/// least `kc` packed tiles and `c` the `mr × nr` output corner.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx2(
    kc: usize,
    alpha: f64,
    apanel: &[f64],
    bpanel: &[f64],
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    let ap = apanel.as_ptr();
    let bp = bpanel.as_ptr();
    let mut acc00 = _mm256_setzero_pd();
    let mut acc01 = _mm256_setzero_pd();
    let mut acc10 = _mm256_setzero_pd();
    let mut acc11 = _mm256_setzero_pd();
    let mut acc20 = _mm256_setzero_pd();
    let mut acc21 = _mm256_setzero_pd();
    let mut acc30 = _mm256_setzero_pd();
    let mut acc31 = _mm256_setzero_pd();
    for p in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(p * NR));
        let b1 = _mm256_loadu_pd(bp.add(p * NR + 4));
        let a0 = _mm256_broadcast_sd(&*ap.add(p * MR));
        acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(a0, b0));
        acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_broadcast_sd(&*ap.add(p * MR + 1));
        acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(a1, b0));
        acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_broadcast_sd(&*ap.add(p * MR + 2));
        acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(a2, b0));
        acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_broadcast_sd(&*ap.add(p * MR + 3));
        acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(a3, b0));
        acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(a3, b1));
    }
    let mut tile = [0.0f64; MR * NR];
    let t = tile.as_mut_ptr();
    _mm256_storeu_pd(t, acc00);
    _mm256_storeu_pd(t.add(4), acc01);
    _mm256_storeu_pd(t.add(8), acc10);
    _mm256_storeu_pd(t.add(12), acc11);
    _mm256_storeu_pd(t.add(16), acc20);
    _mm256_storeu_pd(t.add(20), acc21);
    _mm256_storeu_pd(t.add(24), acc30);
    _mm256_storeu_pd(t.add(28), acc31);
    write_back_tile(&tile, alpha, beta, c, ldc, mr, nr);
}

/// Shared masked `α/β` write-back of the valid `mr × nr` corner of a fully
/// accumulated `MR × NR` tile.
#[inline(always)]
fn write_back_tile(
    tile: &[f64; MR * NR],
    alpha: f64,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let trow = &tile[i * NR..][..nr];
        let crow = &mut c[i * ldc..][..nr];
        if beta == 0.0 {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv = alpha * av;
            }
        } else if beta == 1.0 {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv += alpha * av;
            }
        } else {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv = beta * *cv + alpha * av;
            }
        }
    }
}

/// `y ← α·op(A)·x + β·y` — the `n = 1` column of the kernel layer.
///
/// # Panics
/// Panics if `x`/`y` lengths disagree with `op(A)`.
pub fn gemv(alpha: f64, a: &Mat, ta: Trans, x: &[f64], beta: f64, y: &mut [f64]) {
    match ta {
        Trans::No => {
            assert_eq!(x.len(), a.cols(), "gemv operand length mismatch");
            assert_eq!(y.len(), a.rows(), "gemv output length mismatch");
            for (i, yv) in y.iter_mut().enumerate() {
                let mut dot = 0.0;
                for (&av, &xv) in a.row(i).iter().zip(x) {
                    dot += av * xv;
                }
                *yv = if beta == 0.0 {
                    alpha * dot
                } else {
                    beta * *yv + alpha * dot
                };
            }
        }
        Trans::Yes => {
            assert_eq!(x.len(), a.rows(), "gemv operand length mismatch");
            assert_eq!(y.len(), a.cols(), "gemv output length mismatch");
            scale_slice(y, beta);
            // Axpy over rows: vectorises across the independent y lanes.
            for (r, &xr) in x.iter().enumerate() {
                let s = alpha * xr;
                for (yv, &av) in y.iter_mut().zip(a.row(r)) {
                    *yv += s * av;
                }
            }
        }
    }
}

/// `y ← β·y` with the `β ∈ {0, 1}` fast paths (and `0·NaN = 0`).
fn scale_slice(y: &mut [f64], beta: f64) {
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        for v in y {
            *v *= beta;
        }
    }
}

// ---------------------------------------------------------------------------
// Complex kernels
// ---------------------------------------------------------------------------

/// Register-tile height of the complex micro-kernel (each element is two
/// lanes wide, so the tile is half the real one).
pub const CMR: usize = 2;
/// Register-tile width of the complex micro-kernel: one `__m256d` of real
/// parts and one of imaginary parts per tile row.
pub const CNR: usize = 4;

/// `C ← A·B` for complex operands, blocked and packed like [`gemm`]
/// (overwrite semantics: the DMD pipeline never needs complex α/β).
///
/// B is packed as separate real and imaginary planes, `CNR` lanes each; A
/// keeps its interleaved `c64` layout and is broadcast one part at a time.
/// Per element both micro-kernel tiers accumulate `re + (ar·br − ai·bi)`
/// and `im + (ar·bi + ai·br)` in increasing `k`, so the AVX2 tier is
/// bitwise the scalar one.
///
/// # Panics
/// Panics if inner dimensions disagree or `c` has the wrong shape.
pub fn cgemm(a: &CMat, b: &CMat, c: &mut CMat) {
    assert_eq!(a.cols(), b.rows(), "cgemm inner dimensions must agree");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "cgemm output shape mismatch"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.as_mut_slice().fill(c64::ZERO);
        return;
    }
    let avx2 = crate::simd::avx2();
    let mut bpack = take_vec(2 * KC.min(k) * NC.min(n.next_multiple_of(CNR)));
    let mut apack = take_cvec(KC.min(k) * MC.min(m.next_multiple_of(CMR)));
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let ncp = nc.next_multiple_of(CNR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_cb(b, pc, kc, jc, nc, ncp, &mut bpack);
            let first_block = pc == 0;
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let mcp = mc.next_multiple_of(CMR);
                // Pack A panels (CMR tall).
                let mut aoff = 0;
                for i0 in (0..mcp).step_by(CMR) {
                    let iw = CMR.min(mc - i0);
                    for p in 0..kc {
                        let base = aoff + p * CMR;
                        for ii in 0..iw {
                            apack[base + ii] = a.row(ic + i0 + ii)[pc + p];
                        }
                        for ii in iw..CMR {
                            apack[base + ii] = c64::ZERO;
                        }
                    }
                    aoff += kc * CMR;
                }
                cmacro_kernel(
                    &apack,
                    &bpack,
                    first_block,
                    c.as_mut_slice(),
                    ic,
                    mc,
                    mcp,
                    jc,
                    nc,
                    ncp,
                    n,
                    kc,
                    avx2,
                );
            }
        }
    }
    give_cvec(apack);
    give_vec(bpack);
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `ncp / CNR` column panels, each laid
/// out `k`-major with the real plane ahead of the imaginary one
/// (`panel[p·2·CNR + jj]` and `panel[p·2·CNR + CNR + jj]`), zero-padding the
/// ragged last panel.
fn pack_cb(b: &CMat, pc: usize, kc: usize, jc: usize, nc: usize, ncp: usize, dst: &mut [f64]) {
    let mut off = 0;
    for j0 in (0..ncp).step_by(CNR) {
        let jw = CNR.min(nc - j0);
        for p in 0..kc {
            let (re, im) = dst[off + p * 2 * CNR..][..2 * CNR].split_at_mut(CNR);
            for (jj, z) in b.row(pc + p)[jc + j0..][..jw].iter().enumerate() {
                re[jj] = z.re;
                im[jj] = z.im;
            }
            re[jw..].fill(0.0);
            im[jw..].fill(0.0);
        }
        off += kc * 2 * CNR;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn cmacro_kernel(
    apack: &[c64],
    bpack: &[f64],
    first_block: bool,
    cdst: &mut [c64],
    ic: usize,
    mc: usize,
    mcp: usize,
    jc: usize,
    nc: usize,
    ncp: usize,
    ldc: usize,
    kc: usize,
    avx2: bool,
) {
    for (jp, j0) in (0..ncp).step_by(CNR).enumerate() {
        let bpanel = &bpack[jp * kc * 2 * CNR..][..kc * 2 * CNR];
        let nr = CNR.min(nc - j0);
        for (ip, i0) in (0..mcp).step_by(CMR).enumerate() {
            let apanel = &apack[ip * kc * CMR..][..kc * CMR];
            let mr = CMR.min(mc - i0);
            let ctile = &mut cdst[(ic + i0) * ldc + jc + j0..];
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `avx2` comes from the run-time check in
                // `simd::avx2`; the panels hold `kc` full tiles by
                // construction.
                unsafe { cmicro_kernel_avx2(kc, apanel, bpanel, first_block, ctile, ldc, mr, nr) };
                continue;
            }
            cmicro_kernel(kc, apanel, bpanel, first_block, ctile, ldc, mr, nr);
        }
    }
}

/// Complex `CMR × CNR` register tile (re/im pairs accumulated per element in
/// increasing `k`): the scalar reference of [`cmicro_kernel_avx2`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cmicro_kernel(
    kc: usize,
    apanel: &[c64],
    bpanel: &[f64],
    first_block: bool,
    c: &mut [c64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[c64::ZERO; CNR]; CMR];
    for (aq, bq) in apanel
        .chunks_exact(CMR)
        .zip(bpanel.chunks_exact(2 * CNR))
        .take(kc)
    {
        for i in 0..CMR {
            let ai = aq[i];
            for j in 0..CNR {
                let (br, bi) = (bq[j], bq[CNR + j]);
                let t = &mut acc[i][j];
                t.re += ai.re * br - ai.im * bi;
                t.im += ai.re * bi + ai.im * br;
            }
        }
    }
    // Spill via constant indices only, so `acc` itself stays in registers.
    let mut tile = [c64::ZERO; CMR * CNR];
    for i in 0..CMR {
        for j in 0..CNR {
            tile[i * CNR + j] = acc[i][j];
        }
    }
    cwrite_back_tile(&tile, first_block, c, ldc, mr, nr);
}

/// AVX2 complex micro-kernel: per tile row one accumulator of four real
/// parts and one of four imaginary parts, one broadcast per part of A per
/// depth step. Separate `vmulpd`/`vsubpd`/`vaddpd` — never FMA — keep each
/// lane the scalar `re + (ar·br − ai·bi)`, `im + (ar·bi + ai·br)` sequence
/// of [`cmicro_kernel`], bitwise.
///
/// # Safety
/// Caller must have verified AVX2 support; `apanel`/`bpanel` must hold at
/// least `kc` packed tiles and `c` the `mr × nr` output corner.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn cmicro_kernel_avx2(
    kc: usize,
    apanel: &[c64],
    bpanel: &[f64],
    first_block: bool,
    c: &mut [c64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= kc * CMR && bpanel.len() >= kc * 2 * CNR);
    let ap = apanel.as_ptr();
    let bp = bpanel.as_ptr();
    let mut re0 = _mm256_setzero_pd();
    let mut im0 = _mm256_setzero_pd();
    let mut re1 = _mm256_setzero_pd();
    let mut im1 = _mm256_setzero_pd();
    for p in 0..kc {
        let br = _mm256_loadu_pd(bp.add(p * 2 * CNR));
        let bi = _mm256_loadu_pd(bp.add(p * 2 * CNR + CNR));
        let a0 = &*ap.add(p * CMR);
        let (ar, ai) = (_mm256_broadcast_sd(&a0.re), _mm256_broadcast_sd(&a0.im));
        re0 = _mm256_add_pd(
            re0,
            _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi)),
        );
        im0 = _mm256_add_pd(
            im0,
            _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br)),
        );
        let a1 = &*ap.add(p * CMR + 1);
        let (ar, ai) = (_mm256_broadcast_sd(&a1.re), _mm256_broadcast_sd(&a1.im));
        re1 = _mm256_add_pd(
            re1,
            _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi)),
        );
        im1 = _mm256_add_pd(
            im1,
            _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br)),
        );
    }
    let mut re = [0.0f64; CMR * CNR];
    let mut im = [0.0f64; CMR * CNR];
    _mm256_storeu_pd(re.as_mut_ptr(), re0);
    _mm256_storeu_pd(re.as_mut_ptr().add(CNR), re1);
    _mm256_storeu_pd(im.as_mut_ptr(), im0);
    _mm256_storeu_pd(im.as_mut_ptr().add(CNR), im1);
    let mut tile = [c64::ZERO; CMR * CNR];
    for ((t, &r), &i) in tile.iter_mut().zip(&re).zip(&im) {
        *t = c64::new(r, i);
    }
    cwrite_back_tile(&tile, first_block, c, ldc, mr, nr);
}

/// Masked write-back of the valid `mr × nr` corner of a complex tile: the
/// first depth block overwrites, later ones add.
#[inline(always)]
fn cwrite_back_tile(
    tile: &[c64; CMR * CNR],
    first_block: bool,
    c: &mut [c64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    for i in 0..mr {
        let trow = &tile[i * CNR..][..nr];
        let crow = &mut c[i * ldc..][..nr];
        if first_block {
            crow.copy_from_slice(trow);
        } else {
            for (cv, &av) in crow.iter_mut().zip(trow) {
                *cv += av;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mode reconstruction
// ---------------------------------------------------------------------------

/// Columns one AVX2 block of [`accumulate_mode_rows`] keeps in registers
/// across every mode (four `__m256d` accumulators).
const MODE_BLOCK: usize = 16;

/// Adds the real part of a row block of complex modes times tabulated
/// complex weights: for node-local rows `i ∈ rows` (output row
/// `r = i − rows.start`) and columns `c < cols`,
///
/// `out[r·ldo + c] += sign · Σⱼ (φᵢⱼ.re·w_re[j·cols + c] − φᵢⱼ.im·w_im[j·cols + c])`,
///
/// where `φ = modes` and `cols = w_re.len() / modes.cols()` (mode `j`'s
/// weights are row `j` of each plane). Each element accumulates from `0.0`
/// in mode order as `(acc + φ.re·w.re) − φ.im·w.im`, then adds `sign·acc`
/// to its output: one sequential chain per element. The AVX2 tier runs four
/// lanes across columns: it holds 16-column blocks in registers over every
/// mode, then single four-lane groups, and takes the last one to three
/// columns as one masked group, so it is bitwise the scalar tier and never
/// touches a column past the row.
///
/// # Panics
/// Panics if the weight planes differ in length or are not `modes.cols()`
/// rows, if `rows` leaves `modes`, or if `out` is shorter than
/// `(rows.len() − 1)·ldo + cols`.
pub fn accumulate_mode_rows(
    modes: &CMat,
    rows: Range<usize>,
    w_re: &[f64],
    w_im: &[f64],
    sign: f64,
    out: &mut [f64],
    ldo: usize,
) {
    let k = modes.cols();
    if k == 0 || rows.is_empty() {
        return;
    }
    let cols = w_re.len() / k;
    assert!(
        w_re.len() == k * cols && w_im.len() == w_re.len(),
        "mode weight planes must hold {k} rows each"
    );
    assert!(rows.end <= modes.rows(), "mode rows out of range");
    assert!(
        (rows.len() - 1) * ldo + cols <= out.len(),
        "mode reconstruction output too short"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2() {
        // SAFETY: AVX2 verified at run time; the asserts above bound every
        // weight read by `k·cols` and every output access by `out.len()`.
        unsafe { accumulate_mode_rows_avx2(modes, rows, w_re, w_im, sign, out, ldo) };
        return;
    }
    // Scalar tier: column chunks through one reused stack accumulator.
    const CHUNK: usize = 64;
    let mut acc = [0.0f64; CHUNK];
    for (r, i) in rows.enumerate() {
        let phi = modes.row(i);
        for (q, oq) in out[r * ldo..][..cols].chunks_mut(CHUNK).enumerate() {
            let acc = &mut acc[..oq.len()];
            acc.fill(0.0);
            for (j, f) in phi.iter().enumerate() {
                let wr = &w_re[j * cols + q * CHUNK..][..acc.len()];
                let wi = &w_im[j * cols + q * CHUNK..][..acc.len()];
                for ((a, &r), &im) in acc.iter_mut().zip(wr).zip(wi) {
                    *a = *a + f.re * r - f.im * im;
                }
            }
            for (ov, &a) in oq.iter_mut().zip(acc.iter()) {
                *ov += sign * a;
            }
        }
    }
}

/// AVX2 body of [`accumulate_mode_rows`]: [`MODE_BLOCK`]-column register
/// blocks, then single 4-lane groups, then one masked 4-lane group
/// ([`mode_tail`]) for the last `cols mod 4` columns.
///
/// # Safety
/// Caller must have verified AVX2 support and the bounds
/// [`accumulate_mode_rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_mode_rows_avx2(
    modes: &CMat,
    rows: Range<usize>,
    w_re: &[f64],
    w_im: &[f64],
    sign: f64,
    out: &mut [f64],
    ldo: usize,
) {
    let cols = w_re.len() / modes.cols();
    for (r, i) in rows.enumerate() {
        let phi = modes.row(i);
        let o = &mut out[r * ldo..][..cols];
        let mut c0 = 0;
        while c0 + MODE_BLOCK <= cols {
            mode_block::<4>(phi, w_re, w_im, cols, c0, sign, o);
            c0 += MODE_BLOCK;
        }
        while c0 + 4 <= cols {
            mode_block::<1>(phi, w_re, w_im, cols, c0, sign, o);
            c0 += 4;
        }
        if c0 < cols {
            mode_tail(phi, w_re, w_im, cols, c0, sign, o);
        }
    }
}

/// The last `cols − c0` (one to three) columns of one output row as a single
/// masked four-lane group: the lane operations of [`mode_block`], with
/// masked loads and a masked store, so no column past the row is read from
/// a weight row or written in `o`.
///
/// # Safety
/// AVX2 must be available; `c0 < cols ≤ o.len()`, `cols − c0 < 4`, and
/// every weight row of stride `cols` must lie within the planes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mode_tail(
    phi: &[c64],
    w_re: &[f64],
    w_im: &[f64],
    cols: usize,
    c0: usize,
    sign: f64,
    o: &mut [f64],
) {
    use std::arch::x86_64::*;
    debug_assert!(c0 < cols && cols - c0 < 4 && cols <= o.len());
    let mask = lane_mask(cols - c0);
    let mut acc = _mm256_setzero_pd();
    for (j, f) in phi.iter().enumerate() {
        let pr = _mm256_set1_pd(f.re);
        let pi = _mm256_set1_pd(f.im);
        let re = _mm256_mul_pd(
            pr,
            _mm256_maskload_pd(w_re.as_ptr().add(j * cols + c0), mask),
        );
        let im = _mm256_mul_pd(
            pi,
            _mm256_maskload_pd(w_im.as_ptr().add(j * cols + c0), mask),
        );
        acc = _mm256_sub_pd(_mm256_add_pd(acc, re), im);
    }
    let p = o.as_mut_ptr().add(c0);
    let sum = _mm256_add_pd(
        _mm256_maskload_pd(p, mask),
        _mm256_mul_pd(_mm256_set1_pd(sign), acc),
    );
    _mm256_maskstore_pd(p, mask, sum);
}

/// `G` four-lane column groups from `c0` of one output row, accumulated in
/// registers over every mode: lane-wise `(acc + φ.re·w.re) − φ.im·w.im`,
/// then `o + sign·acc`.
///
/// # Safety
/// AVX2 must be available; `c0 + 4·G` columns must lie within `o` and
/// within every weight row of stride `cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn mode_block<const G: usize>(
    phi: &[c64],
    w_re: &[f64],
    w_im: &[f64],
    cols: usize,
    c0: usize,
    sign: f64,
    o: &mut [f64],
) {
    use std::arch::x86_64::*;
    debug_assert!(c0 + 4 * G <= o.len() && phi.len() * cols <= w_re.len());
    let mut acc = [_mm256_setzero_pd(); G];
    for (j, f) in phi.iter().enumerate() {
        let pr = _mm256_set1_pd(f.re);
        let pi = _mm256_set1_pd(f.im);
        let wr = w_re.as_ptr().add(j * cols + c0);
        let wi = w_im.as_ptr().add(j * cols + c0);
        for (g, a) in acc.iter_mut().enumerate() {
            let re = _mm256_mul_pd(pr, _mm256_loadu_pd(wr.add(4 * g)));
            let im = _mm256_mul_pd(pi, _mm256_loadu_pd(wi.add(4 * g)));
            *a = _mm256_sub_pd(_mm256_add_pd(*a, re), im);
        }
    }
    let s = _mm256_set1_pd(sign);
    let op = o.as_mut_ptr().add(c0);
    for (g, a) in acc.iter().enumerate() {
        let p = op.add(4 * g);
        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), _mm256_mul_pd(s, *a)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple-loop reference, per-element `k`-ascending accumulation.
    fn naive(alpha: f64, a: &Mat, ta: Trans, b: &Mat, tb: Trans, beta: f64, c: &Mat) -> Mat {
        let get = |m: &Mat, t: Trans, i: usize, j: usize| match t {
            Trans::No => m[(i, j)],
            Trans::Yes => m[(j, i)],
        };
        let (mm, kk) = match ta {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        };
        let nn = match tb {
            Trans::No => b.cols(),
            Trans::Yes => b.rows(),
        };
        let mut out = Mat::zeros(mm, nn);
        for i in 0..mm {
            for j in 0..nn {
                let mut s = 0.0;
                for p in 0..kk {
                    s += get(a, ta, i, p) * get(b, tb, p, j);
                }
                out[(i, j)] = beta * c[(i, j)] + alpha * s;
            }
        }
        out
    }

    fn rel_err(x: &Mat, y: &Mat) -> f64 {
        x.fro_dist(y) / y.fro_norm().max(1.0)
    }

    #[test]
    fn all_transpose_combos_match_naive() {
        let m = 13;
        let k = 17;
        let n = 11;
        let mk = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let km = Mat::from_fn(k, m, |i, j| ((i * 5 + j) % 9) as f64 - 4.0);
        let kn = Mat::from_fn(k, n, |i, j| ((i + j * 11) % 17) as f64 - 8.0);
        let nk = Mat::from_fn(n, k, |i, j| ((i * 3 + j * 2) % 7) as f64 - 3.0);
        for (a, ta) in [(&mk, Trans::No), (&km, Trans::Yes)] {
            for (b, tb) in [(&kn, Trans::No), (&nk, Trans::Yes)] {
                let mut c = Mat::from_fn(m, n, |i, j| (i + j) as f64 * 0.25);
                let want = naive(0.5, a, ta, b, tb, 2.0, &c);
                gemm(0.5, a, ta, b, tb, 2.0, &mut c);
                assert!(rel_err(&c, &want) < 1e-13, "{ta:?}/{tb:?}");
            }
        }
    }

    #[test]
    fn awkward_sizes_match_naive() {
        // 1, MR±1, NR±1, and non-multiples of every block size.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR - 1, 2, NR - 1),
            (MR + 1, KC + 1, NR + 1),
            (MC + 3, 5, NC / 64 + 1),
            (33, 129, 65),
        ] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 / 5.0 - 2.0);
            let mut c = Mat::zeros(m, n);
            let want = naive(1.0, &a, Trans::No, &b, Trans::No, 0.0, &c);
            gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            assert!(rel_err(&c, &want) < 1e-13, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn threaded_split_is_bitwise_stable() {
        let a = Mat::from_fn(97, 53, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        let b = Mat::from_fn(53, 61, |i, j| ((i * 5 + j * 3) % 9) as f64 - 4.0);
        let mut reference = Mat::zeros(97, 61);
        gemm_threaded(1, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut reference);
        for t in [2usize, 3, 4, 8, 19] {
            let mut c = Mat::zeros(97, 61);
            gemm_threaded(t, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            assert_eq!(c.as_slice(), reference.as_slice(), "threads={t}");
        }
    }

    #[test]
    fn small_shape_fast_path_is_bitwise_naive() {
        // Shapes on the fast path (m, n ≤ SMALL_DIM, k ≤ KC) take a direct
        // per-element ascending-k chain — exactly the naive oracle — so the
        // comparison is bitwise, not approximate. Straddle the threshold to
        // pin the boundary, and cross thread counts to show the path is
        // taken identically everywhere.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 7, 3),
            (SMALL_DIM, KC, SMALL_DIM),
            (SMALL_DIM - 1, 40, SMALL_DIM),
            (16, 48, 6),
        ] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 / 5.0 - 2.0);
            for beta in [0.0, 1.0, 0.5] {
                let c0 = Mat::from_fn(m, n, |i, j| (i * 3 + j) as f64 * 0.125 - 1.0);
                let want = naive(0.75, &a, Trans::No, &b, Trans::No, beta, &c0);
                let mut c = c0.clone();
                gemm(0.75, &a, Trans::No, &b, Trans::No, beta, &mut c);
                assert_eq!(c.as_slice(), want.as_slice(), "{m}x{k}x{n} beta={beta}");
                for t in [1usize, 2, 4] {
                    let mut ct = c0.clone();
                    gemm_threaded(t, 0.75, &a, Trans::No, &b, Trans::No, beta, &mut ct);
                    assert_eq!(ct.as_slice(), c.as_slice(), "{m}x{k}x{n} threads={t}");
                }
            }
        }
        // Just past the threshold the packed path runs; results must agree
        // with the oracle to rounding either way.
        let (m, k, n) = (SMALL_DIM + 1, 20, SMALL_DIM + 1);
        let a = Mat::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let b = Mat::from_fn(k, n, |i, j| ((i * 5 + j) % 9) as f64 - 4.0);
        let mut c = Mat::zeros(m, n);
        let want = naive(1.0, &a, Trans::No, &b, Trans::No, 0.0, &c);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(rel_err(&c, &want) < 1e-13);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let a = Mat::zeros(0, 4);
        let b = Mat::zeros(4, 3);
        let mut c = Mat::zeros(0, 3);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        // k == 0 zeroes C under beta = 0 (even over NaN).
        let a = Mat::zeros(2, 0);
        let b = Mat::zeros(0, 2);
        let mut c = Mat::from_fn(2, 2, |_, _| f64::NAN);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    /// Deterministic values in `[-0.5, 0.5)` from a 64-bit LCG.
    fn lcg(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn cbits(m: &CMat) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn cgemm_dispatch_is_bitwise_scalar() {
        let mut rnd = lcg(0x5eed);
        // (m, k, n, real left factor): the exact-mode product B·W and the
        // amplitude Gram ΦᴴΦ at DMD shapes, depth past one and two KC
        // blocks, and ragged row and column tiles.
        for &(m, k, n, real_left) in &[
            (1000usize, 7usize, 7usize, true),
            (7, 1000, 7, false),
            (5, KC + 3, 9, false),
            (3, 2 * KC + 1, 1, true),
            (MC + 1, 11, 2 * CNR + 1, false),
            (1, 1, 1, false),
            (CMR, 4, CNR, true),
        ] {
            // A real left factor carries signed zeros, as `CMat::from_real`
            // of data with exact zeros does, plus negated ones.
            let a = CMat::from_fn(m, k, |i, j| {
                let z = if (i + 2 * j) % 5 == 0 { -0.0 } else { 0.0 };
                let re = if (i * 3 + j) % 7 == 0 { z } else { rnd() };
                if real_left {
                    c64::new(re, z)
                } else {
                    c64::new(re, rnd())
                }
            });
            let b = CMat::from_fn(k, n, |i, j| {
                let z = if (i + j) % 4 == 0 { -0.0 } else { 0.0 };
                c64::new(rnd(), if (i * j) % 3 == 0 { z } else { rnd() })
            });
            let mut got = CMat::zeros(m, n);
            cgemm(&a, &b, &mut got);
            let mut want = CMat::zeros(m, n);
            crate::simd::with_scalar_kernels(|| cgemm(&a, &b, &mut want));
            assert_eq!(cbits(&got), cbits(&want), "{m}x{k}x{n}");
            // Sanity against a plain triple loop (block sums reassociate).
            for i in [0, m / 2, m - 1] {
                for j in [0, n - 1] {
                    let mut s = c64::ZERO;
                    for p in 0..k {
                        s += a[(i, p)] * b[(p, j)];
                    }
                    assert!((got[(i, j)] - s).abs() < 1e-12 * (k as f64), "{m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn mode_rows_dispatch_is_bitwise_scalar() {
        let mut rnd = lcg(0xa11ce);
        // Column counts hitting register blocks, single groups and the
        // scalar tail; sign ±1 and a non-unit one.
        // Then every width in 1..=40: each masked tail after zero, one and
        // two register blocks.
        let fixed = [
            (9usize, 1usize, 3usize, 1.0),
            (5, 7, 16, -1.0),
            (4, 3, 37, 1.0),
            (3, 17, 256, -0.5),
            (2, 8, 4, 1.0),
        ];
        let widths = (1..=40).map(|cols| {
            (
                3,
                1 + cols % 9,
                cols,
                if cols % 2 == 0 { -1.0 } else { 0.5 },
            )
        });
        for (rows, k, cols, sign) in fixed.into_iter().chain(widths) {
            let modes = CMat::from_fn(rows + 2, k, |_, _| c64::new(rnd(), rnd()));
            let w_re: Vec<f64> = (0..k * cols).map(|_| rnd()).collect();
            let w_im: Vec<f64> = (0..k * cols).map(|_| rnd()).collect();
            let ldo = cols + 5;
            let init: Vec<f64> = (0..rows * ldo).map(|_| rnd()).collect();
            let mut got = init.clone();
            accumulate_mode_rows(&modes, 1..rows + 1, &w_re, &w_im, sign, &mut got, ldo);
            let mut want = init.clone();
            crate::simd::with_scalar_kernels(|| {
                accumulate_mode_rows(&modes, 1..rows + 1, &w_re, &w_im, sign, &mut want, ldo)
            });
            assert_eq!(bits(&got), bits(&want), "{rows}x{k}x{cols}");
            // Padding between output rows is never touched.
            for r in 0..rows {
                assert_eq!(
                    bits(&got[r * ldo + cols..r * ldo + ldo]),
                    bits(&init[r * ldo + cols..r * ldo + ldo])
                );
            }
        }
    }

    #[test]
    fn gram_is_bitwise_the_packed_product() {
        let mut rnd = lcg(0x9a4a);
        for k in [1usize, 2, KC - 1, KC, KC + 1, 2 * KC + 3, 1000] {
            for m in 1..=40usize {
                // Signed zeros throughout, and one column (the middle one)
                // holding an infinity, so its Gram row and column carry
                // infinities and NaNs.
                let inf_col = m / 2;
                let d = Mat::from_fn(k, m, |i, j| match (i * 7 + j * 3) % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    _ if j == inf_col && i == k / 2 => f64::INFINITY,
                    _ => rnd(),
                });
                let mut want = Mat::zeros(m, m);
                gemm(1.0, &d, Trans::Yes, &d, Trans::No, 0.0, &mut want);
                let got = gram_unrecorded(&d);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{k}x{m}");
                let scalar = crate::simd::with_scalar_kernels(|| gram_unrecorded(&d));
                assert_eq!(
                    bits(scalar.as_slice()),
                    bits(want.as_slice()),
                    "scalar {k}x{m}"
                );
            }
        }
    }

    #[test]
    fn gemv_matches_gemm_column() {
        let a = Mat::from_fn(9, 7, |i, j| (i as f64 - 3.0) * 0.5 + j as f64);
        let x: Vec<f64> = (0..7).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut y = vec![0.0; 9];
        gemv(1.0, &a, Trans::No, &x, 0.0, &mut y);
        let xm = Mat::from_vec(7, 1, x.clone());
        let mut c = Mat::zeros(9, 1);
        gemm(1.0, &a, Trans::No, &xm, Trans::No, 0.0, &mut c);
        for (i, &yi) in y.iter().enumerate() {
            assert!((yi - c[(i, 0)]).abs() < 1e-12);
        }
    }
}
