//! Householder QR factorisation and least-squares solves.
//!
//! The thin QR (`A = Q·R`, `Q` m×n with orthonormal columns, `R` n×n upper
//! triangular) underpins the randomized range finder, the incremental-SVD
//! residual orthogonalisation, and DMD amplitude fitting.

use crate::mat::Mat;
use crate::workspace;

/// Result of a thin QR factorisation.
pub struct Qr {
    /// `m × n` factor with orthonormal columns.
    pub q: Mat,
    /// `n × n` upper-triangular factor.
    pub r: Mat,
}

/// Computes the thin QR factorisation of `a` (`m ≥ n` not required: for wide
/// matrices `q` is `m × m` and `r` is `m × n`).
///
/// Works on one pooled transposed copy, so every reflector reads and updates
/// a column of `a` as a contiguous row.
pub fn qr(a: &Mat) -> Qr {
    let _span = crate::obs::QR_NS.span();
    crate::obs::QR_CALLS.inc();
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let mut w = workspace::pooled_transpose(a);
    let mut vs = workspace::ScratchVec::zeros(k * m);
    householder_rows(&mut w, k, &mut vs);
    // Thin Q: the reflectors applied to the first k columns of I.
    let mut q = Mat::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    apply_reflectors(&vs, k, &mut q);
    // R row i holds entries i.. of every reduced column (the strictly-lower
    // triangle, numerical dust, stays zero).
    let mut r = Mat::zeros(k, n);
    for i in 0..k {
        for j in i..n {
            r[(i, j)] = w[(j, i)];
        }
    }
    Qr { q, r }
}

/// Householder reduction of the `m × n` matrix whose **columns** are the
/// rows of `w` (`w` is `n × m`): the first `k ≤ min(m, n)` columns are
/// reduced in place, leaving column `c` of `R` in `w.row(c)[..=c]`.
///
/// Reflector `j` is written to `vs[j·m .. j·m + (m − j)]` (unit norm, or
/// all-zero for a null column) for [`apply_reflectors`]. Every dot product
/// and update streams a contiguous row. Records no metrics: callers that
/// embed the factorisation in a larger kernel (the preconditioned SVD)
/// report it under their own span.
pub(crate) fn householder_rows(w: &mut Mat, k: usize, vs: &mut [f64]) {
    let (n, m) = w.shape();
    debug_assert!(k <= m.min(n) && vs.len() >= k * m);
    for j in 0..k {
        let v = &mut vs[j * m..j * m + (m - j)];
        v.copy_from_slice(&w.row(j)[j..]);
        let alpha = norm2(v);
        if alpha == 0.0 {
            v.fill(0.0);
            continue;
        }
        let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
        v[0] += sign * alpha;
        let vnorm = norm2(v);
        if vnorm == 0.0 {
            v.fill(0.0);
            continue;
        }
        for x in v.iter_mut() {
            *x /= vnorm;
        }
        // Apply (I − 2vvᵀ) to columns j.. : x −= 2(vᵀx)·v. The dot products
        // run four columns at a time so their independent sequential chains
        // overlap; each chain still sums in element order. A short last
        // group repeats its final column in the spare lanes.
        let v = &vs[j * m..j * m + (m - j)];
        for c0 in (j..n).step_by(4) {
            let cols = 4.min(n - c0);
            let data = w.as_slice();
            let col = |t: usize| {
                let c = c0 + t.min(cols - 1);
                &data[c * m + j..(c + 1) * m]
            };
            let mut d = [0.0; 4];
            for ((((&vi, &x0), &x1), &x2), &x3) in
                v.iter().zip(col(0)).zip(col(1)).zip(col(2)).zip(col(3))
            {
                d[0] += vi * x0;
                d[1] += vi * x1;
                d[2] += vi * x2;
                d[3] += vi * x3;
            }
            for (t, &dt) in d.iter().enumerate().take(cols) {
                let d2 = 2.0 * dt;
                for (xi, &vi) in w.row_mut(c0 + t)[j..].iter_mut().zip(v) {
                    *xi -= vi * d2;
                }
            }
        }
    }
}

/// `x ← H₀·H₁⋯H_{k−1}·x` for the first `k` reflectors [`householder_rows`]
/// stored in `vs` (`x` has `m` rows, the reflectors' ambient length).
/// Applied to `[I; 0]` this forms the thin `Q`; applied to `[Y; 0]` it
/// forms `Q·Y` without materialising `Q`. Rows stream contiguously.
///
/// Per reflector, every column `c` takes `w = Σᵢ vᵢ·xᵢc` as one sequential
/// chain in row order, then `xᵢc −= (2vᵢ)·w`. Columns are independent, so
/// the AVX2 tier (for `x` at least four columns wide) runs them in 4-lane
/// groups and is bitwise the scalar body below.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn apply_reflectors(vs: &[f64], k: usize, x: &mut Mat) {
    let (m, r) = x.shape();
    let avx2 = r >= 4 && crate::simd::avx2();
    let mut w = workspace::ScratchVec::zeros(r);
    for j in (0..k).rev() {
        let v = &vs[j * m..j * m + (m - j)];
        if v.iter().all(|&vi| vi == 0.0) {
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: AVX2 verified at run time; rows `j..m` of `x` are the
            // `v.len()` rows of width `r ≥ 4` the reflector acts on.
            unsafe { reflect_avx2(v, &mut x.as_mut_slice()[j * r..], r) };
            continue;
        }
        w.fill(0.0);
        for (ii, &vi) in v.iter().enumerate() {
            for (wc, &xv) in w.iter_mut().zip(x.row(j + ii)) {
                *wc += vi * xv;
            }
        }
        for (ii, &vi) in v.iter().enumerate() {
            let t = 2.0 * vi;
            for (xv, &wc) in x.row_mut(j + ii).iter_mut().zip(w.iter()) {
                *xv -= t * wc;
            }
        }
    }
}

/// AVX2 body of one reflector in [`apply_reflectors`], on the `v.len()`
/// rows of width `r` at the front of `rows`. The columns form `⌈r/4⌉`
/// 4-lane groups; when `r` is not a multiple of four the last group is
/// flush with column `r − 1` and overlaps its neighbour. Groups run in
/// register blocks of up to four, the first block taking the remainder, so
/// an overlapping group always shares a block with the group it overlaps:
/// a block reads every row of its groups before it updates any, and both
/// groups write the same bits to the shared lanes.
///
/// # Safety
/// AVX2 must be available, `r ≥ 4` and `rows.len() ≥ v.len()·r`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn reflect_avx2(v: &[f64], rows: &mut [f64], r: usize) {
    debug_assert!(r >= 4 && rows.len() >= v.len() * r);
    let groups = r.div_ceil(4);
    let off = |g: usize| (4 * g).min(r - 4);
    let x = rows.as_mut_ptr();
    let (mut g0, mut width) = (0, groups - 4 * ((groups - 1) / 4));
    while g0 < groups {
        match width {
            1 => reflect_block::<1>(v, x, r, [off(g0)]),
            2 => reflect_block::<2>(v, x, r, std::array::from_fn(|t| off(g0 + t))),
            3 => reflect_block::<3>(v, x, r, std::array::from_fn(|t| off(g0 + t))),
            _ => reflect_block::<4>(v, x, r, std::array::from_fn(|t| off(g0 + t))),
        }
        g0 += width;
        width = 4;
    }
}

/// One reflector on `G` 4-lane column groups at `offs` of the `v.len()`
/// rows from `x` (row stride `ld`): lane-wise `w += vᵢ·xᵢ` down the rows,
/// then `xᵢ −= (2vᵢ)·w`.
///
/// # Safety
/// AVX2 must be available; `x` must address `v.len()` rows of stride `ld`
/// and every `offs[g] + 4 ≤ ld`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn reflect_block<const G: usize>(v: &[f64], x: *mut f64, ld: usize, offs: [usize; G]) {
    use std::arch::x86_64::*;
    let mut w = [_mm256_setzero_pd(); G];
    for (i, &vi) in v.iter().enumerate() {
        let row = x.add(i * ld);
        let vb = _mm256_set1_pd(vi);
        for (wg, &o) in w.iter_mut().zip(&offs) {
            *wg = _mm256_add_pd(*wg, _mm256_mul_pd(vb, _mm256_loadu_pd(row.add(o))));
        }
    }
    for (i, &vi) in v.iter().enumerate() {
        let row = x.add(i * ld);
        let t = _mm256_set1_pd(2.0 * vi);
        let mut xs = [_mm256_setzero_pd(); G];
        for (xg, &o) in xs.iter_mut().zip(&offs) {
            *xg = _mm256_loadu_pd(row.add(o));
        }
        for ((xg, wg), &o) in xs.iter().zip(&w).zip(&offs) {
            _mm256_storeu_pd(row.add(o), _mm256_sub_pd(*xg, _mm256_mul_pd(t, *wg)));
        }
    }
}

/// Minimum rows before [`tsqr`] splits into panels at all; below this a
/// single Householder pass wins on overhead.
const TSQR_MIN_ROWS: usize = 256;

/// Tall-skinny QR (single-level "communication-avoiding" TSQR) for `m ≫ n`
/// panels — the shape the paper's P≫T snapshot windows hand the randomized
/// range finder (e.g. Polaris 5,824 sensors × a few dozen probe columns).
///
/// The rows are cut into fixed-size panels (geometry depends only on the
/// matrix shape, never on the worker budget, so results are bitwise-stable
/// at any thread count), each panel is QR-factorised independently — fanned
/// over the worker pool — and the stacked `R` factors are merged by one
/// small QR. `Q = diag(Q₀…Q_{p-1}) · Q_stack` is assembled per panel.
/// Falls back to the plain Householder [`qr`] when fewer than two panels
/// result.
pub fn tsqr(a: &Mat) -> Qr {
    tsqr_with_pool(a, &crate::pool::WorkerPool::new(0))
}

/// [`tsqr`] fanning its panel factorisations over a caller-supplied pool
/// (the panel geometry is unchanged, so any pool yields identical bits).
pub(crate) fn tsqr_with_pool(a: &Mat, pool: &crate::pool::WorkerPool) -> Qr {
    let m = a.rows();
    let n = a.cols();
    // Panels tall enough that each panel QR stays compute-bound: 4n rows
    // minimum, and never below the split floor.
    let panel_rows = (4 * n).max(TSQR_MIN_ROWS);
    if n == 0 || m < 2 * panel_rows {
        return qr(a);
    }
    let _span = crate::obs::QR_NS.span();
    crate::obs::QR_CALLS.inc();
    // The last panel absorbs the remainder so every panel keeps ≥ 4n rows
    // (a short tail panel would make its R factor under-determined).
    let n_panels = m / panel_rows;
    // Stage 1: independent panel factorisations, results in submission order.
    let mut panels: Vec<(usize, usize, Option<Qr>)> = (0..n_panels)
        .map(|p| {
            let hi = if p + 1 == n_panels {
                m
            } else {
                (p + 1) * panel_rows
            };
            (p * panel_rows, hi, None)
        })
        .collect();
    pool.for_each(&mut panels, &|(lo, hi, slot)| {
        *slot = Some(qr(&a.rows_range(*lo, *hi)));
    });
    // Stage 2: stack the p·n × n tower of R factors and QR it once.
    let mut stack = Mat::zeros(n_panels * n, n);
    for (p, (_, _, slot)) in panels.iter().enumerate() {
        if let Some(f) = slot {
            for i in 0..f.r.rows().min(n) {
                for j in 0..n {
                    stack[(p * n + i, j)] = f.r[(i, j)];
                }
            }
        }
    }
    let merge = qr(&stack);
    // Stage 3: Q = diag(Q₀…Q_{p-1}) · Q_stack — each panel multiplies its own
    // n×n block of the merge Q and writes a disjoint row range of the result.
    let mut q = Mat::zeros(m, n);
    for (p, (lo, hi, slot)) in panels.iter().enumerate() {
        if let Some(f) = slot {
            let qk = f.q.matmul(&merge.q.rows_range(p * n, (p + 1) * n));
            for (ii, i) in (*lo..*hi).enumerate() {
                for j in 0..n {
                    q[(i, j)] = qk[(ii, j)];
                }
            }
        }
    }
    Qr { q, r: merge.r }
}

/// Orthonormalises the columns of `a` against the columns of `basis` and then
/// against each other (modified Gram–Schmidt with one re-orthogonalisation
/// pass). Returns the orthonormal complement; columns that are numerically in
/// the span of `basis` are dropped.
///
/// This is the residual-expansion step of the incremental SVD: new snapshot
/// columns are split into their projection onto the current left basis and an
/// orthonormal remainder.
pub fn orthonormal_complement(basis: &Mat, a: &Mat, tol: f64) -> Mat {
    assert_eq!(basis.rows(), a.rows());
    complement_core(basis, a.cols(), tol, |j, buf| {
        for (i, x) in buf.iter_mut().enumerate() {
            *x = a[(i, j)];
        }
    })
}

/// Row-oriented twin of [`orthonormal_complement`]: treats the **rows** of
/// `a` as the candidate vectors (each of length `basis.rows()`), so callers
/// holding row-major residual blocks never materialise a transpose. The
/// returned matrix still stores the kept vectors as columns.
pub fn orthonormal_complement_rows(basis: &Mat, a: &Mat, tol: f64) -> Mat {
    assert_eq!(basis.rows(), a.cols());
    complement_core(basis, a.rows(), tol, |j, buf| {
        buf.copy_from_slice(a.row(j));
    })
}

/// Shared modified-Gram–Schmidt core. Candidate `j` is loaded into a scratch
/// slice by `load`; kept vectors accumulate in one flat pooled buffer.
fn complement_core(
    basis: &Mat,
    n_candidates: usize,
    tol: f64,
    load: impl Fn(usize, &mut [f64]),
) -> Mat {
    let m = basis.rows();
    let mut kept = workspace::ScratchVec::zeros(m * n_candidates);
    let mut n_kept = 0usize;
    let mut v = workspace::ScratchVec::zeros(m);
    let mut coeffs = workspace::ScratchVec::zeros(basis.cols());
    for j in 0..n_candidates {
        load(j, &mut v);
        let orig_norm = norm2(&v);
        if orig_norm <= tol {
            continue;
        }
        // Two Gram-Schmidt passes ("twice is enough" — Kahan/Parlett).
        for _pass in 0..2 {
            project_out(basis, &mut v, &mut coeffs);
            for u in kept[..n_kept * m].chunks_exact(m) {
                let d = dot(u, &v);
                for (vi, &ui) in v.iter_mut().zip(u) {
                    *vi -= d * ui;
                }
            }
        }
        let nrm = norm2(&v);
        if nrm > tol * orig_norm.max(1.0) {
            let dst = &mut kept[n_kept * m..(n_kept + 1) * m];
            for (d, &x) in dst.iter_mut().zip(v.iter()) {
                *d = x / nrm;
            }
            n_kept += 1;
        }
    }
    let mut out = Mat::zeros(m, n_kept);
    for (j, u) in kept[..n_kept * m].chunks_exact(m).enumerate() {
        out.set_col(j, u);
    }
    out
}

fn project_out(basis: &Mat, v: &mut [f64], coeffs: &mut [f64]) {
    if basis.cols() == 0 {
        return;
    }
    basis.t_matvec_into(v, coeffs); // basisᵀ v
                                    // v -= basis * coeffs
    #[allow(clippy::needless_range_loop)] // v and basis rows iterate in lockstep
    for i in 0..basis.rows() {
        let row = basis.row(i);
        let mut s = 0.0;
        for (&b, &c) in row.iter().zip(coeffs.iter()) {
            s += b * c;
        }
        v[i] -= s;
    }
}

pub(crate) fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|&x| x * x).sum::<f64>().sqrt()
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthonormality_error(q: &Mat) -> f64 {
        let g = q.t_matmul(q);
        g.sub(&Mat::identity(q.cols())).fro_norm()
    }

    #[test]
    fn qr_reconstructs_tall_matrix() {
        let a = Mat::from_fn(8, 4, |i, j| ((i * 3 + j * 7) % 13) as f64 - 6.0);
        let f = qr(&a);
        assert!(f.q.matmul(&f.r).fro_dist(&a) < 1e-12);
        assert!(orthonormality_error(&f.q) < 1e-12);
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = Mat::from_fn(6, 6, |i, j| (i as f64 + 1.0) * (j as f64 - 2.5));
        let f = qr(&a);
        for i in 0..f.r.rows() {
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_handles_wide_matrix() {
        let a = Mat::from_fn(3, 7, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let f = qr(&a);
        assert_eq!(f.q.shape(), (3, 3));
        assert_eq!(f.r.shape(), (3, 7));
        assert!(f.q.matmul(&f.r).fro_dist(&a) < 1e-12);
    }

    #[test]
    fn complement_is_orthogonal_to_basis() {
        let basis = qr(&Mat::from_fn(6, 2, |i, j| ((i + j) % 3) as f64 + 0.1)).q;
        let a = Mat::from_fn(6, 3, |i, j| ((i * j + 1) % 7) as f64 - 3.0);
        let c = orthonormal_complement(&basis, &a, 1e-12);
        assert!(c.cols() >= 1);
        let cross = basis.t_matmul(&c);
        assert!(cross.fro_norm() < 1e-10);
        assert!(orthonormality_error(&c) < 1e-10);
    }

    #[test]
    fn complement_drops_spanned_columns() {
        let basis = qr(&Mat::from_fn(5, 2, |i, j| if i == j { 1.0 } else { 0.0 })).q;
        // Columns that live entirely in the basis span.
        let a = basis.matmul(&Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, -1.0]]));
        let c = orthonormal_complement(&basis, &a, 1e-10);
        assert_eq!(c.cols(), 0);
    }

    #[test]
    fn complement_rows_matches_column_variant_on_transpose() {
        let basis = qr(&Mat::from_fn(6, 2, |i, j| ((i + j) % 3) as f64 + 0.1)).q;
        let a = Mat::from_fn(6, 3, |i, j| ((i * j + 1) % 7) as f64 - 3.0);
        let by_cols = orthonormal_complement(&basis, &a, 1e-12);
        let by_rows = orthonormal_complement_rows(&basis, &a.transpose(), 1e-12);
        assert_eq!(by_cols.shape(), by_rows.shape());
        assert!(by_cols.fro_dist(&by_rows) < 1e-14);
    }

    #[test]
    fn qr_of_rank_deficient_matrix_does_not_panic() {
        // Two identical columns.
        let a = Mat::from_fn(5, 2, |i, _| i as f64);
        let f = qr(&a);
        assert!(f.q.matmul(&f.r).fro_dist(&a) < 1e-12);
    }

    #[test]
    fn reflector_dispatch_is_bitwise_scalar() {
        let (m, n) = (203, 25);
        // Column 3 is zero, so reflector 3 is null and skipped. Width 17
        // runs a one-group block, then a full block whose last group
        // overlaps its neighbour.
        let a = Mat::from_fn(m, n, |i, j| {
            if j == 3 {
                0.0
            } else {
                ((i * 37 + j * 11) % 29) as f64 / 7.0 - 2.0 + (i as f64 * 0.013).sin()
            }
        });
        let mut w = workspace::pooled_transpose(&a);
        let mut vs = vec![0.0; n * m];
        householder_rows(&mut w, n, &mut vs);
        assert!(vs[3 * m..4 * m].iter().all(|&v| v == 0.0));
        for width in (1..=9).chain([17, 25]) {
            let x0 = Mat::from_fn(m, width, |i, j| ((i * 7 + j * 13) % 17) as f64 * 0.25 - 2.0);
            let mut got = x0.clone();
            apply_reflectors(&vs, n, &mut got);
            let mut want = x0;
            crate::simd::with_scalar_kernels(|| apply_reflectors(&vs, n, &mut want));
            let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "width {width}");
        }
    }

    #[test]
    fn tsqr_factorises_tall_panels() {
        // 1500 × 7: several 256-row panels plus a remainder tail.
        let a = Mat::from_fn(1500, 7, |i, j| ((i * 13 + j * 5) % 23) as f64 - 11.0);
        let f = tsqr(&a);
        assert_eq!(f.q.shape(), (1500, 7));
        assert_eq!(f.r.shape(), (7, 7));
        assert!(f.q.matmul(&f.r).fro_dist(&a) < 1e-9);
        assert!(orthonormality_error(&f.q) < 1e-10);
        for i in 0..7 {
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn tsqr_falls_back_below_two_panels() {
        // 100 rows < 2 × 256-row panels: must be plain qr, bitwise.
        let a = Mat::from_fn(100, 5, |i, j| ((i + 2 * j) % 9) as f64 - 4.0);
        let t = tsqr(&a);
        let p = qr(&a);
        assert_eq!(t.q.as_slice(), p.q.as_slice());
        assert_eq!(t.r.as_slice(), p.r.as_slice());
    }

    #[test]
    fn tsqr_is_bitwise_stable_across_pool_sizes() {
        let a = Mat::from_fn(2048, 6, |i, j| ((i * 7 + j * 3) % 31) as f64 * 0.25 - 3.0);
        let serial = tsqr_with_pool(&a, &crate::pool::WorkerPool::serial());
        for threads in [2usize, 4, 8] {
            let pool = crate::pool::WorkerPool::new(threads);
            let f = tsqr_with_pool(&a, &pool);
            assert_eq!(f.q.as_slice(), serial.q.as_slice(), "threads {threads}");
            assert_eq!(f.r.as_slice(), serial.r.as_slice(), "threads {threads}");
        }
    }
}
