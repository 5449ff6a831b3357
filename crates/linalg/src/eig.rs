//! Dense eigendecomposition of small real matrices with complex spectra.
//!
//! DMD reduces the dynamics to an `r × r` real matrix `Ã` whose eigenvalues
//! (generally complex-conjugate pairs) are the discrete-time DMD eigenvalues.
//! We compute them with the classic dense pipeline, done entirely in complex
//! arithmetic for simplicity (r is small — tens to low hundreds):
//!
//! 1. unitary Hessenberg reduction (complex Householder),
//! 2. shifted QR iteration with Wilkinson shifts and deflation → Schur form
//!    `A = Z·T·Zᴴ` with `T` upper triangular,
//! 3. eigenvectors of `T` by back-substitution, rotated back through `Z`.

use crate::cmat::CMat;
use crate::complex::c64;
use crate::error::{LinAlgError, PartialSchur};
use crate::failpoint;
use crate::mat::Mat;

/// Iteration accounting of a (possibly escalated) eigendecomposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EigStats {
    /// Total shifted-QR iterations spent, across all escalation rungs.
    pub iterations: usize,
    /// Fresh-Hessenberg restarts from the balanced matrix (0 or 1).
    pub restarts: usize,
}

/// An eigendecomposition `A·W = W·diag(λ)`.
#[derive(Clone, Debug)]
pub struct Eig {
    /// Eigenvalues.
    pub values: Vec<c64>,
    /// Eigenvectors as columns (unit 2-norm).
    pub vectors: CMat,
    /// How hard the QR iteration had to work to get here.
    pub stats: EigStats,
}

/// Computes eigenvalues and right eigenvectors of a square real matrix.
///
/// # Panics
/// Panics if `a` is not square or the QR iteration fails to converge even
/// after the escalation ladder (which for Wilkinson-shifted QR with
/// exceptional shifts does not occur in practice on finite inputs). Use
/// [`try_eig_real`] to handle non-convergence instead.
pub fn eig_real(a: &Mat) -> Eig {
    match try_eig_real(a) {
        Ok(e) => e,
        // Preserved legacy contract: the infallible entry point aborts on
        // non-convergence exactly like the historical assert did. Callers
        // that must survive it use the `try_` variant.
        #[allow(clippy::panic)]
        Err(e) => panic!("QR iteration failed to converge: {e}"),
    }
}

/// Fallible twin of [`eig_real`]: surfaces QR non-convergence as a
/// [`LinAlgError::EigNonConvergence`] carrying the partially deflated Schur
/// state instead of panicking.
pub fn try_eig_real(a: &Mat) -> Result<Eig, LinAlgError> {
    assert_eq!(a.rows(), a.cols(), "eig requires a square matrix");
    try_eig_complex(&CMat::from_real(a))
}

/// Computes eigenvalues and right eigenvectors of a square complex matrix,
/// surfacing QR non-convergence as a [`LinAlgError::EigNonConvergence`].
///
/// Escalation ladder, walked deterministically before giving up:
/// 1. standard budget (`40n` iterations, exceptional shift every 12 stalls);
/// 2. continue on the partially deflated form with `30n` more iterations and
///    an exceptional shift every 6 stalls;
/// 3. restart from a fresh Hessenberg of the *balanced* matrix (power-of-two
///    diagonal similarity scaling, so the spectrum is bitwise unchanged)
///    with an `80n` budget.
///
/// On failure the returned error carries the last attempt's partial Schur
/// factors: the trailing `converged` eigenvalues on its diagonal are valid.
pub fn try_eig_complex(a: &CMat) -> Result<Eig, LinAlgError> {
    let n = a.rows();
    assert_eq!(n, a.cols());
    let _span = crate::obs::EIG_NS.span();
    crate::obs::EIG_CALLS.inc();
    if failpoint::take_eig_failure() {
        // A forced nonconvergence models a fully exhausted ladder: one
        // escalation + one failure, giving armed failpoints an exact
        // counter ground truth (natural escalations are essentially
        // unreachable from finite data).
        crate::obs::EIG_ESCALATIONS.inc();
        crate::obs::EIG_FAILURES.inc();
        // Armed test fail point: report non-convergence with an honest
        // (zero-progress) partial state.
        let (h, z) = if n >= 2 {
            hessenberg(a)
        } else {
            (a.clone(), CMat::identity(n))
        };
        return Err(LinAlgError::EigNonConvergence {
            iterations: 0,
            restarts: 0,
            partial: Box::new(PartialSchur {
                t: h,
                q: z,
                converged: 0,
            }),
        });
    }
    if n == 0 {
        return Ok(Eig {
            values: vec![],
            vectors: CMat::zeros(0, 0),
            stats: EigStats::default(),
        });
    }
    if n == 1 {
        return Ok(Eig {
            values: vec![a[(0, 0)]],
            vectors: CMat::identity(1),
            stats: EigStats::default(),
        });
    }
    let (mut h, mut z) = hessenberg(a);
    let mut iterations = 0usize;
    // Rung 1: the standard budget.
    match schur_qr_budgeted(&mut h, &mut z, 40 * n, 12) {
        Ok(it) => {
            return Ok(assemble_eig(
                &h,
                &z,
                EigStats {
                    iterations: it,
                    restarts: 0,
                },
            ))
        }
        Err((it, _)) => {
            crate::obs::EIG_ESCALATIONS.inc();
            iterations += it;
        }
    }
    // Rung 2: push on with more frequent exceptional shifts to break cycles.
    match schur_qr_budgeted(&mut h, &mut z, 30 * n, 6) {
        Ok(it) => {
            return Ok(assemble_eig(
                &h,
                &z,
                EigStats {
                    iterations: iterations + it,
                    restarts: 0,
                },
            ))
        }
        Err((it, _)) => {
            crate::obs::EIG_ESCALATIONS.inc();
            iterations += it;
        }
    }
    // Rung 3: restart from a fresh Hessenberg of the balanced matrix.
    let (balanced, scale) = balance(a);
    let (mut hb, mut zb) = hessenberg(&balanced);
    match schur_qr_budgeted(&mut hb, &mut zb, 80 * n, 12) {
        Ok(it) => {
            let stats = EigStats {
                iterations: iterations + it,
                restarts: 1,
            };
            let mut eig = assemble_eig(&hb, &zb, stats);
            // Undo the similarity: A = D·B·D⁻¹ so x_A = D·x_B, renormalised.
            for k in 0..n {
                let mut nrm = 0.0;
                for (i, &s) in scale.iter().enumerate() {
                    let v = eig.vectors[(i, k)] * s;
                    eig.vectors[(i, k)] = v;
                    nrm += v.norm_sqr();
                }
                let nrm = nrm.sqrt();
                if nrm > 0.0 {
                    for i in 0..n {
                        let v = eig.vectors[(i, k)] / nrm;
                        eig.vectors[(i, k)] = v;
                    }
                }
            }
            Ok(eig)
        }
        Err((it, hi)) => {
            crate::obs::EIG_FAILURES.inc();
            Err(LinAlgError::EigNonConvergence {
                iterations: iterations + it,
                restarts: 1,
                partial: Box::new(PartialSchur {
                    t: hb,
                    q: zb,
                    converged: n - hi,
                }),
            })
        }
    }
}

/// Reads eigenvalues off the converged Schur diagonal and back-substitutes
/// eigenvectors.
fn assemble_eig(h: &CMat, z: &CMat, stats: EigStats) -> Eig {
    let n = h.rows();
    let values: Vec<c64> = (0..n).map(|i| h[(i, i)]).collect();
    let vectors = triangular_eigenvectors(h, z, &values);
    Eig {
        values,
        vectors,
        stats,
    }
}

/// Power-of-two diagonal similarity scaling (EISPACK `balanc`-style, no
/// permutation): returns `(B, d)` with `B = D⁻¹·A·D`, `D = diag(d)`, every
/// `d[i]` an exact power of two so the transform is lossless in floating
/// point. Balancing equalises row/column norms, which is the classic rescue
/// for shifted-QR stalls on badly scaled matrices.
fn balance(a: &CMat) -> (CMat, Vec<f64>) {
    const RADIX: f64 = 2.0;
    let n = a.rows();
    let mut b = a.clone();
    let mut d = vec![1.0f64; n];
    for _round in 0..16 {
        let mut converged = true;
        for i in 0..n {
            let (mut c, mut r) = (0.0f64, 0.0f64);
            for j in 0..n {
                if j != i {
                    c += b[(j, i)].abs();
                    r += b[(i, j)].abs();
                }
            }
            if c == 0.0 || r == 0.0 {
                continue;
            }
            let s = c + r;
            let mut f = 1.0f64;
            while c < r / RADIX {
                c *= RADIX * RADIX;
                f *= RADIX;
            }
            while c >= r * RADIX {
                c /= RADIX * RADIX;
                f /= RADIX;
            }
            if (c + r) / f < 0.95 * s {
                converged = false;
                d[i] *= f;
                // B ← D⁻¹·A·D for the updated dᵢ: row i shrinks by f,
                // column i grows by f (both exact power-of-two scalings).
                for j in 0..n {
                    let v = b[(i, j)] / f;
                    b[(i, j)] = v;
                }
                for j in 0..n {
                    let v = b[(j, i)] * f;
                    b[(j, i)] = v;
                }
            }
        }
        if converged {
            break;
        }
    }
    (b, d)
}

/// Unitary reduction to upper Hessenberg form: returns `(H, Z)` with
/// `A = Z·H·Zᴴ` and `H[i][j] = 0` for `i > j+1`.
fn hessenberg(a: &CMat) -> (CMat, CMat) {
    let n = a.rows();
    let mut h = a.clone();
    let mut z = CMat::identity(n);
    for k in 0..n.saturating_sub(2) {
        // Householder vector for column k, rows k+1..n.
        let mut v: Vec<c64> = (k + 1..n).map(|i| h[(i, k)]).collect();
        let alpha = vec_norm(&v);
        if alpha == 0.0 {
            continue;
        }
        // Reflect onto -phase(v0)·alpha·e1 for stability.
        let phase = if v[0].abs() > 0.0 {
            v[0] / v[0].abs()
        } else {
            c64::ONE
        };
        v[0] += phase * alpha;
        let vnorm = vec_norm(&v);
        if vnorm == 0.0 {
            continue;
        }
        for x in &mut v {
            *x = *x / vnorm;
        }
        // H ← (I − 2vvᴴ) H, on rows k+1..n.
        for col in 0..n {
            let mut dot = c64::ZERO;
            for (ii, &vi) in v.iter().enumerate() {
                dot = dot.mul_add(vi.conj(), h[(k + 1 + ii, col)]);
            }
            dot = dot * 2.0;
            for (ii, &vi) in v.iter().enumerate() {
                let val = h[(k + 1 + ii, col)] - dot * vi;
                h[(k + 1 + ii, col)] = val;
            }
        }
        // H ← H (I − 2vvᴴ), on columns k+1..n.
        for row in 0..n {
            let mut dot = c64::ZERO;
            for (ii, &vi) in v.iter().enumerate() {
                dot = dot.mul_add(h[(row, k + 1 + ii)], vi);
            }
            dot = dot * 2.0;
            for (ii, &vi) in v.iter().enumerate() {
                let val = h[(row, k + 1 + ii)] - dot * vi.conj();
                h[(row, k + 1 + ii)] = val;
            }
        }
        // Z ← Z (I − 2vvᴴ).
        for row in 0..n {
            let mut dot = c64::ZERO;
            for (ii, &vi) in v.iter().enumerate() {
                dot = dot.mul_add(z[(row, k + 1 + ii)], vi);
            }
            dot = dot * 2.0;
            for (ii, &vi) in v.iter().enumerate() {
                let val = z[(row, k + 1 + ii)] - dot * vi.conj();
                z[(row, k + 1 + ii)] = val;
            }
        }
        // Clean the annihilated entries exactly.
        for i in k + 2..n {
            h[(i, k)] = c64::ZERO;
        }
        h[(k + 1, k)] = c64::new(-(phase.re * alpha), -(phase.im * alpha));
    }
    (h, z)
}

/// Single-shift QR iteration on a Hessenberg matrix, accumulating the unitary
/// similarity into `z`, with an explicit iteration budget.
///
/// On success `h` is upper triangular (complex Schur form) and the spent
/// iteration count is returned. On budget exhaustion returns
/// `Err((iterations, hi))` where `hi` is the size of the still-active leading
/// block — the trailing `n - hi` eigenvalues have already deflated, and `h`
/// and `z` are left in that partially reduced state so a caller can either
/// resume with a fresh budget or hand the partial factors to its own caller.
fn schur_qr_budgeted(
    h: &mut CMat,
    z: &mut CMat,
    max_total: usize,
    exceptional_every: usize,
) -> Result<usize, (usize, usize)> {
    let n = h.rows();
    let eps = f64::EPSILON;
    let mut hi = n; // active block is [lo, hi)
    let mut iters_at_this_size = 0usize;
    let mut total = 0usize;
    while hi > 1 {
        if total >= max_total {
            return Err((total, hi));
        }
        total += 1;
        // Deflate: find lo such that subdiagonals above are negligible.
        let mut lo = hi - 1;
        while lo > 0 {
            let sub = h[(lo, lo - 1)].abs();
            let scale = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            if sub <= eps * scale.max(f64::MIN_POSITIVE) {
                h[(lo, lo - 1)] = c64::ZERO;
                break;
            }
            lo -= 1;
        }
        if lo == hi - 1 {
            // 1×1 block converged.
            hi -= 1;
            iters_at_this_size = 0;
            continue;
        }
        iters_at_this_size += 1;
        // Wilkinson shift from the trailing 2×2 of the active block; an
        // exceptional shift every `exceptional_every` stalls breaks rare
        // symmetry cycles (the escalation rungs tighten this cadence).
        let shift = if iters_at_this_size.is_multiple_of(exceptional_every) {
            h[(hi - 1, hi - 2)].abs() * c64::new(0.75, 0.0) + h[(hi - 1, hi - 1)]
        } else {
            wilkinson_shift(h, hi)
        };
        // Explicit shifted QR step: factor (H − μI) = QR on the active block,
        // then form RQ + μI. Subtracting/restoring μ only touches the diagonal.
        for i in lo..hi {
            let d = h[(i, i)] - shift;
            h[(i, i)] = d;
        }
        let mut rots: Vec<(f64, c64)> = Vec::with_capacity(hi - lo - 1);
        for k in lo..hi - 1 {
            let (c, s) = givens(h[(k, k)], h[(k + 1, k)]);
            rots.push((c, s));
            apply_givens_left(h, k, k + 1, c, s, lo.saturating_sub(1), h.cols());
        }
        for (idx, &(c, s)) in rots.iter().enumerate() {
            let k = lo + idx;
            apply_givens_right(h, k, k + 1, c, s, 0, (k + 3).min(hi));
            apply_givens_right(z, k, k + 1, c, s, 0, z.rows());
        }
        for i in lo..hi {
            let d = h[(i, i)] + shift;
            h[(i, i)] = d;
        }
    }
    // Zero out the (numerically negligible) subdiagonal dust.
    for i in 1..n {
        for j in 0..i {
            h[(i, j)] = c64::ZERO;
        }
    }
    Ok(total)
}

/// Eigenvalue of the trailing 2×2 block of the active region closest to the
/// bottom-right entry.
fn wilkinson_shift(h: &CMat, hi: usize) -> c64 {
    let a = h[(hi - 2, hi - 2)];
    let b = h[(hi - 2, hi - 1)];
    let c = h[(hi - 1, hi - 2)];
    let d = h[(hi - 1, hi - 1)];
    let tr = a + d;
    let det = a * d - b * c;
    let disc = (tr * tr - det * 4.0).sqrt();
    let l1 = (tr + disc) * 0.5;
    let l2 = (tr - disc) * 0.5;
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// Complex Givens rotation: returns `(c, s)` with `c` real so that
/// `[c s; -s̄ c]·[a; b] = [r; 0]`.
fn givens(a: c64, b: c64) -> (f64, c64) {
    if b.abs() == 0.0 {
        return (1.0, c64::ZERO);
    }
    if a.abs() == 0.0 {
        return (0.0, b.conj() / b.abs());
    }
    let norm = (a.norm_sqr() + b.norm_sqr()).sqrt();
    let alpha = a / a.abs();
    let c = a.abs() / norm;
    let s = alpha * b.conj() / norm;
    (c, s)
}

/// Applies the rotation to rows `i`, `j` over columns `[c0, c1)`.
fn apply_givens_left(m: &mut CMat, i: usize, j: usize, c: f64, s: c64, c0: usize, c1: usize) {
    for col in c0..c1 {
        let xi = m[(i, col)];
        let xj = m[(j, col)];
        m[(i, col)] = xi * c + s * xj;
        m[(j, col)] = xj * c - s.conj() * xi;
    }
}

/// Applies the conjugate-transposed rotation to columns `i`, `j` over rows
/// `[r0, r1)` (right multiplication by `Gᴴ`).
fn apply_givens_right(m: &mut CMat, i: usize, j: usize, c: f64, s: c64, r0: usize, r1: usize) {
    for row in r0..r1 {
        let xi = m[(row, i)];
        let xj = m[(row, j)];
        m[(row, i)] = xi * c + xj * s.conj();
        m[(row, j)] = xj * c - xi * s;
    }
}

/// Computes eigenvectors of the triangular Schur factor by back-substitution
/// and maps them back through `Z`.
fn triangular_eigenvectors(t: &CMat, z: &CMat, values: &[c64]) -> CMat {
    let n = t.rows();
    let tnorm = t.fro_norm().max(f64::MIN_POSITIVE);
    let mut vecs = CMat::zeros(n, n);
    for (k, &lam) in values.iter().enumerate() {
        let mut y = vec![c64::ZERO; n];
        y[k] = c64::ONE;
        for i in (0..k).rev() {
            let mut s = c64::ZERO;
            for j in i + 1..=k {
                s = s.mul_add(t[(i, j)], y[j]);
            }
            let mut d = t[(i, i)] - lam;
            if d.abs() < 1e-300_f64.max(f64::EPSILON * tnorm) {
                // Defective/repeated eigenvalue: perturb the pivot.
                d = c64::from_real(f64::EPSILON * tnorm);
            }
            y[i] = -s / d;
        }
        // x = Z y, normalised.
        let x = z.matvec(&y);
        let nrm = x.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
        let x: Vec<c64> = if nrm > 0.0 {
            x.iter().map(|&v| v / nrm).collect()
        } else {
            x
        };
        vecs.set_col(k, &x);
    }
    vecs
}

fn vec_norm(v: &[c64]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// An eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric real matrix.
#[derive(Clone, Debug)]
pub struct SymEig {
    /// Eigenvalues, non-increasing.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as columns, in the order of `values`.
    pub vectors: Mat,
}

/// Implicit-QL sweeps one eigenvalue may take before the solve gives up
/// (EISPACK `tql2` allows 30).
const SYM_MAX_ITERATIONS: usize = 30;

/// Eigendecomposition of a symmetric real matrix: Householder reduction to
/// tridiagonal form, then implicitly shifted QL with accumulated rotations
/// (EISPACK `tred2` + `tql2`). Only the lower triangle of `a` is read. On
/// the `n × n` Gram blocks of the method of snapshots (n ≈ 16–21) it is two
/// to three times cheaper than the one-sided Jacobi [`svd`](crate::svd::svd).
///
/// Every eigenvalue has an iteration cap, so the solve always terminates:
/// an eigenvalue that has not split off after 30 implicit-QL sweeps (which
/// finite input does not reach in practice, and NaN input always does) is
/// reported as [`LinAlgError::SymEigNonConvergence`].
/// Records no metrics: callers report it under their own span.
pub fn try_eig_symmetric(a: &Mat) -> Result<SymEig, LinAlgError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eig requires a square matrix");
    if n == 0 {
        return Ok(SymEig {
            values: vec![],
            vectors: Mat::zeros(0, 0),
        });
    }
    let mut v = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut v, &mut d, &mut e);
    // The QL rotations act on eigenvector columns; with Vᵀ row-major they
    // touch two contiguous rows.
    let mut vt = v.transpose();
    tridiagonal_ql(&mut d, &mut e, &mut vt)?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values = order.iter().map(|&k| d[k]).collect();
    let vectors = Mat::from_fn(n, n, |i, k| vt[(order[k], i)]);
    Ok(SymEig { values, vectors })
}

/// Householder reduction of the symmetric `v` (lower triangle) to
/// tridiagonal form (EISPACK `tred2`): on return `d` holds the diagonal,
/// `e[1..]` the subdiagonal (`e[0] = 0`) and `v` the accumulated orthogonal
/// transform.
fn tridiagonalize(v: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    d.copy_from_slice(v.row(n - 1));
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            for j in 0..i {
                let f = d[j];
                v[(j, i)] = f;
                let mut g = e[j] + v[(j, j)] * f;
                for k in j + 1..i {
                    g += v[(k, j)] * d[k];
                    e[k] += v[(k, j)] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                for k in j..i {
                    v[(k, j)] -= f * e[k] + g * d[k];
                }
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        v[(n - 1, i)] = v[(i, i)];
        v[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[(k, i + 1)] * v[(k, j)];
                }
                for k in 0..=i {
                    v[(k, j)] -= g * d[k];
                }
            }
        }
        for k in 0..=i {
            v[(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[(n - 1, j)];
        v[(n - 1, j)] = 0.0;
    }
    v[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicitly shifted QL on the symmetric tridiagonal `(d, e)` from
/// [`tridiagonalize`] (EISPACK `tql2`), rotating the rows of `vt` (the
/// transposed eigenvector basis). On return `d` holds the eigenvalues,
/// unsorted.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], vt: &mut Mat) -> Result<(), LinAlgError> {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    let mut iterations = 0;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        // NaN is never negligible, so non-finite input runs into the cap.
        let negligible = |x: f64| x.abs() <= f64::EPSILON * tst1;
        // The first negligible subdiagonal entry at or after `l` (`e[n−1]`
        // is zero, but NaN input must not run past it).
        let mut m = l;
        while m + 1 < n && !negligible(e[m]) {
            m += 1;
        }
        if m > l {
            let mut sweeps = 0;
            loop {
                if sweeps == SYM_MAX_ITERATIONS {
                    return Err(LinAlgError::SymEigNonConvergence {
                        index: l,
                        iterations,
                    });
                }
                sweeps += 1;
                iterations += 1;
                // Wilkinson-style shift from the leading 2 × 2 block.
                let g = d[l];
                let p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = p.hypot(1.0).copysign(p);
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                f += h;
                // The implicit QL sweep from m − 1 down to l.
                let mut p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rotate_rows(vt, i, c, s);
                }
                let p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if negligible(e[l]) {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Rotates rows `i` and `i + 1` of `vt`:
/// `row_{i+1} ← s·row_i + c·row_{i+1}`, `row_i ← c·row_i − s·row_{i+1}`.
fn rotate_rows(vt: &mut Mat, i: usize, c: f64, s: f64) {
    let n = vt.cols();
    let (lo, hi) = vt.as_mut_slice()[i * n..(i + 2) * n].split_at_mut(n);
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let h = *y;
        *y = s * *x + c * h;
        *x = c * *x - s * h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Mat, e: &Eig) -> f64 {
        // ‖A·W − W·diag(λ)‖_F
        let aw = CMat::from_real(a).matmul(&e.vectors);
        let wl = e.vectors.scale_cols(&e.values);
        aw.sub(&wl).fro_norm()
    }

    fn sorted_values(e: &Eig) -> Vec<c64> {
        let mut v = e.values.clone();
        v.sort_by(|a, b| {
            b.re.partial_cmp(&a.re)
                .unwrap()
                .then(b.im.partial_cmp(&a.im).unwrap())
        });
        v
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 7.0],
        ]);
        let e = eig_real(&a);
        let vals = sorted_values(&e);
        assert!((vals[0] - c64::from_real(7.0)).abs() < 1e-12);
        assert!((vals[1] - c64::from_real(3.0)).abs() < 1e-12);
        assert!((vals[2] - c64::from_real(-1.0)).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn rotation_matrix_has_unit_complex_pair() {
        let th = 0.3f64;
        let a = Mat::from_rows(&[vec![th.cos(), -th.sin()], vec![th.sin(), th.cos()]]);
        let e = eig_real(&a);
        for &l in &e.values {
            assert!((l.abs() - 1.0).abs() < 1e-12);
        }
        let mut ims: Vec<f64> = e.values.iter().map(|l| l.im).collect();
        ims.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((ims[0] + th.sin()).abs() < 1e-12);
        assert!((ims[1] - th.sin()).abs() < 1e-12);
        assert!(residual(&a, &e) < 1e-10);
    }

    #[test]
    fn companion_matrix_roots() {
        // Companion matrix of x³ − 6x² + 11x − 6 = (x−1)(x−2)(x−3).
        let a = Mat::from_rows(&[
            vec![6.0, -11.0, 6.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
        ]);
        let e = eig_real(&a);
        let mut res: Vec<f64> = e.values.iter().map(|l| l.re).collect();
        res.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((res[0] - 1.0).abs() < 1e-9);
        assert!((res[1] - 2.0).abs() < 1e-9);
        assert!((res[2] - 3.0).abs() < 1e-9);
        assert!(e.values.iter().all(|l| l.im.abs() < 1e-9));
    }

    #[test]
    fn random_matrix_residual_small() {
        // Deterministic pseudo-random 12×12.
        let a = Mat::from_fn(12, 12, |i, j| {
            (((i * 31 + j * 17 + 7) % 23) as f64 - 11.0) / 7.0
        });
        let e = eig_real(&a);
        assert!(residual(&a, &e) < 1e-8, "residual {}", residual(&a, &e));
        // Trace = sum of eigenvalues.
        let tr: f64 = (0..12).map(|i| a[(i, i)]).sum();
        let se: c64 = e.values.iter().copied().sum();
        assert!((se.re - tr).abs() < 1e-8);
        assert!(se.im.abs() < 1e-8);
    }

    #[test]
    fn defective_jordan_block_does_not_panic() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]);
        let e = eig_real(&a);
        for &l in &e.values {
            assert!((l - c64::from_real(2.0)).abs() < 1e-6);
        }
    }

    #[test]
    fn symmetric_matrix_real_spectrum() {
        let a = Mat::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let e = eig_real(&a);
        // Known eigenvalues 2, 2±√2.
        let mut res: Vec<f64> = e.values.iter().map(|l| l.re).collect();
        res.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s2 = 2.0f64.sqrt();
        assert!((res[0] - (2.0 - s2)).abs() < 1e-10);
        assert!((res[1] - 2.0).abs() < 1e-10);
        assert!((res[2] - (2.0 + s2)).abs() < 1e-10);
        assert!(e.values.iter().all(|l| l.im.abs() < 1e-10));
    }

    #[test]
    fn complex_input_eigenvalues() {
        // diag(i, -i) rotated by a unitary similarity keeps the spectrum.
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c64::I;
        a[(1, 1)] = -c64::I;
        let e = try_eig_complex(&a).unwrap();
        let mut ims: Vec<f64> = e.values.iter().map(|l| l.im).collect();
        ims.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((ims[0] + 1.0).abs() < 1e-12 && (ims[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_eig_converges_with_stats_on_ordinary_input() {
        let a = Mat::from_fn(10, 10, |i, j| {
            (((i * 13 + j * 5 + 3) % 17) as f64 - 8.0) / 5.0
        });
        let e = try_eig_real(&a).unwrap();
        assert!(e.stats.iterations > 0);
        assert_eq!(e.stats.restarts, 0);
        assert!(residual(&a, &e) < 1e-8);
    }

    #[test]
    fn balanced_restart_path_preserves_spectrum() {
        // A wildly mis-scaled similarity of diag(1, 2, 3): balancing must
        // recover the spectrum exactly, and the D-rescaled eigenvectors must
        // still diagonalise the original matrix.
        let mut a = Mat::from_rows(&[
            vec![1.0, 1e9, 0.0],
            vec![0.0, 2.0, 1e-9],
            vec![1e-9, 0.0, 3.0],
        ]);
        a[(0, 0)] = 1.0;
        let ca = CMat::from_real(&a);
        let (b, d) = balance(&ca);
        // b = D⁻¹ A D element-wise.
        for i in 0..3 {
            for j in 0..3 {
                let expect = ca[(i, j)] * (d[j] / d[i]);
                assert!((b[(i, j)] - expect).abs() <= 1e-12 * expect.abs().max(1.0));
            }
        }
        // Powers of two: the scaling is exactly invertible.
        for &s in &d {
            assert_eq!(s.log2().fract(), 0.0, "scale {s} is not a power of two");
        }
        let eb = try_eig_complex(&b).unwrap();
        let ea = try_eig_complex(&ca).unwrap();
        let mut sa: Vec<f64> = ea.values.iter().map(|l| l.re).collect();
        let mut sb: Vec<f64> = eb.values.iter().map(|l| l.re).collect();
        sa.sort_by(f64::total_cmp);
        sb.sort_by(f64::total_cmp);
        for (x, y) in sa.iter().zip(&sb) {
            assert!((x - y).abs() < 1e-6 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    /// A symmetric positive definite `n × n` matrix `BᵀB` with `B` of
    /// `n + 3` pseudo-random rows scaled by a decaying profile.
    fn spd(n: usize, decay: f64) -> Mat {
        let b = Mat::from_fn(n + 3, n, |i, j| {
            let h = ((i * 131 + j * 71 + 17) % 97) as f64 / 97.0 - 0.5;
            h * decay.powi(j as i32)
        });
        b.t_matmul(&b)
    }

    #[test]
    fn symmetric_solver_matches_svd_on_spd_matrices() {
        for (n, decay) in [
            (1, 1.0),
            (2, 0.5),
            (5, 0.9),
            (16, 0.7),
            (21, 0.6),
            (64, 0.95),
        ] {
            let a = spd(n, decay);
            let e = try_eig_symmetric(&a).unwrap();
            let f = crate::svd::svd(&a);
            let scale = f.s[0];
            for (k, (&l, &sv)) in e.values.iter().zip(&f.s).enumerate() {
                assert!((l - sv).abs() <= 1e-13 * scale, "n {n}: λ{k} {l} vs σ {sv}");
            }
            // A·V = V·Λ with V orthonormal.
            let av = a.matmul(&e.vectors);
            let vl = Mat::from_fn(n, n, |i, k| e.vectors[(i, k)] * e.values[k]);
            assert!(
                av.fro_dist(&vl) <= 1e-13 * scale * n as f64,
                "n {n}: residual"
            );
            let gram = e.vectors.t_matmul(&e.vectors);
            assert!(
                gram.fro_dist(&Mat::identity(n)) < 1e-13 * n as f64,
                "n {n}: VᵀV"
            );
            assert!(e.values.windows(2).all(|w| w[0] >= w[1]), "n {n}: order");
        }
        // Repeated and zero eigenvalues.
        let mut d = Mat::zeros(4, 4);
        for (i, x) in [2.0, 0.0, 2.0, -1.0].into_iter().enumerate() {
            d[(i, i)] = x;
        }
        let e = try_eig_symmetric(&d).unwrap();
        assert_eq!(e.values, vec![2.0, 2.0, 0.0, -1.0]);
        assert!(try_eig_symmetric(&Mat::zeros(0, 0))
            .unwrap()
            .values
            .is_empty());
    }

    #[test]
    fn symmetric_solver_terminates_on_non_finite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [(0, 0), (3, 1), (7, 7)] {
                let mut a = spd(8, 0.8);
                a[at] = bad;
                a[(at.1, at.0)] = bad;
                // Either outcome is fine; returning at all is the point, and
                // an `Ok` must carry the full spectrum.
                match try_eig_symmetric(&a) {
                    Ok(e) => assert_eq!(e.values.len(), 8),
                    Err(LinAlgError::SymEigNonConvergence { iterations, .. }) => {
                        assert!(iterations <= 8 * SYM_MAX_ITERATIONS)
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                }
            }
        }
        let nan = Mat::from_fn(5, 5, |_, _| f64::NAN);
        assert!(matches!(
            try_eig_symmetric(&nan),
            Err(LinAlgError::SymEigNonConvergence { .. })
        ));
    }

    #[test]
    fn one_by_one_and_empty() {
        let e = eig_real(&Mat::from_rows(&[vec![5.0]]));
        assert_eq!(e.values.len(), 1);
        assert!((e.values[0] - c64::from_real(5.0)).abs() < 1e-15);
        let e0 = eig_real(&Mat::zeros(0, 0));
        assert!(e0.values.is_empty());
    }
}
