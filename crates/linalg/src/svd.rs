//! Singular value decomposition: QR-preconditioned one-sided Jacobi (robust,
//! dependency-free) and a randomized truncated variant.
//!
//! The DMD pipeline only ever needs a *truncated* SVD (the rank comes from the
//! Gavish–Donoho hard threshold or a user cap). Under the default `Exact`
//! fit strategy with SVHT the probe spans the whole snapshot window. Tree
//! nodes are tall `P × T` panels, and their fits take the method of
//! snapshots ([`svd_snapshots`]): a Gram of the panel and a symmetric
//! eigensolve, with the exact Jacobi path as the fallback where the Gram
//! spectrum is too small to trust. That Jacobi path first reduces a tall
//! window to its small `R` factor (Drmač–Veselić). The randomized range finder
//! (Halko–Martinsson–Tropp) serves low-rank caps on large matrices and the
//! opt-in `Sketched` strategy; the Jacobi path is also the inner solver of
//! its small projected problems.

use crate::error::LinAlgError;
use crate::failpoint;
use crate::mat::Mat;
use crate::qr::qr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Convergence accounting of a one-sided Jacobi run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SvdStats {
    /// Sweeps actually performed.
    pub sweeps: usize,
    /// Relative off-diagonal residual `max |gᵢⱼ|/√(gᵢᵢ·gⱼⱼ)` of the implicit
    /// Gram matrix after the final sweep (0 when fully converged).
    pub off_diagonal: f64,
    /// Whether a full sweep completed without any rotation.
    pub converged: bool,
}

/// A (possibly truncated) singular value decomposition `A ≈ U·diag(s)·Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// `m × r` left singular vectors (orthonormal columns).
    pub u: Mat,
    /// `r` singular values, non-increasing.
    pub s: Vec<f64>,
    /// `n × r` right singular vectors (orthonormal columns; **not** transposed).
    pub v: Mat,
}

impl Svd {
    /// Current rank (number of retained singular triplets).
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Truncates to the leading `r` triplets (no-op if already ≤ r).
    pub fn truncate(&self, r: usize) -> Svd {
        let r = r.min(self.rank());
        Svd {
            u: self.u.cols_range(0, r),
            s: self.s[..r].to_vec(),
            v: self.v.cols_range(0, r),
        }
    }

    /// Reassembles `U·diag(s)·Vᵀ` (NT kernel; no transpose is materialised).
    pub fn reconstruct(&self) -> Mat {
        let us = scale_cols(&self.u, &self.s);
        us.matmul_nt(&self.v)
    }

    /// Moore–Penrose pseudoinverse `V·diag(1/s)·Uᵀ`, dropping singular values
    /// below `rcond · s₀`.
    pub fn pinv(&self, rcond: f64) -> Mat {
        let s0 = self.s.first().copied().unwrap_or(0.0);
        let inv: Vec<f64> = self
            .s
            .iter()
            .map(|&x| {
                if x > rcond * s0 && x > 0.0 {
                    1.0 / x
                } else {
                    0.0
                }
            })
            .collect();
        let vs = scale_cols(&self.v, &inv);
        vs.matmul_nt(&self.u)
    }

    /// Numerical rank at relative tolerance `tol` (fraction of s₀).
    pub fn numerical_rank(&self, tol: f64) -> usize {
        numerical_rank(&self.s, tol)
    }
}

/// Numerical rank of a non-increasing singular spectrum `s` at relative
/// tolerance `tol`: the leading values above `tol · s₀`.
pub fn numerical_rank(s: &[f64], tol: f64) -> usize {
    let s0 = s.first().copied().unwrap_or(0.0);
    s.iter().take_while(|&&x| x > tol * s0).count()
}

/// Scales column `j` of `m` by `d[j]`.
pub(crate) fn scale_cols(m: &Mat, d: &[f64]) -> Mat {
    assert_eq!(m.cols(), d.len());
    let mut out = m.clone();
    for i in 0..out.rows() {
        for (x, &s) in out.row_mut(i).iter_mut().zip(d) {
            *x *= s;
        }
    }
    out
}

/// Default Jacobi sweep budget; `try_svd` doubles it once before giving up.
const JACOBI_MAX_SWEEPS: usize = 60;

/// Full SVD via one-sided Jacobi, QR-preconditioned when one side is at
/// least twice the other (Drmač–Veselić). Exact to machine
/// precision; a sweep costs `O(k³)` after one `O(mnk)` Householder pass
/// (`k = min(m, n)`), or `O(mnk)` on near-square inputs. Intended for
/// matrices up to a few thousand on a side.
///
/// Best-effort: if the sweep budget runs out the factors of the final sweep
/// are returned anyway (they are still a valid orthogonal decomposition, just
/// not fully diagonalised). Use [`svd_with_stats`] to observe convergence or
/// [`try_svd`] to treat non-convergence as an error.
pub fn svd(a: &Mat) -> Svd {
    svd_with_stats(a).0
}

/// Like [`svd`], but also reports sweep count and the final off-diagonal
/// residual so callers can see a silent budget cap instead of guessing.
pub fn svd_with_stats(a: &Mat) -> (Svd, SvdStats) {
    let _span = crate::obs::SVD_NS.span();
    crate::obs::SVD_CALLS.inc();
    svd_budgeted(a, JACOBI_MAX_SWEEPS, <[f64]>::len)
}

/// [`svd`] truncated to the rank `rank_of` picks from the full singular
/// spectrum, forming only the retained singular vectors: on the
/// QR-preconditioned tall path the reflectors are applied to the leading
/// `r` columns of `[U_R; 0]` alone. Reflector application treats columns
/// independently, so the result is bitwise `svd(a).truncate(r)` — the saving
/// is the `m × (n − r)` block of `U` a truncating caller would discard.
/// Counts as one call under `svd.*`, like [`svd`].
pub fn svd_leading(a: &Mat, rank_of: impl FnOnce(&[f64]) -> usize) -> Svd {
    let _span = crate::obs::SVD_NS.span();
    crate::obs::SVD_CALLS.inc();
    svd_budgeted(a, JACOBI_MAX_SWEEPS, rank_of).0
}

/// What [`svd_snapshots`] computed for the snapshot block of a panel.
#[derive(Clone, Debug)]
pub enum SnapshotSvd {
    /// The method of snapshots: the panel's Gram and the retained singular
    /// values and right singular vectors of `X`.
    Gram {
        /// `DᵀD`, `(n + 1) × (n + 1)`.
        gram: Mat,
        /// Retained singular values `σᵢ = √λᵢ`, non-increasing.
        s: Vec<f64>,
        /// `n × r` retained right singular vectors.
        v: Mat,
    },
    /// The fallback: [`svd_leading`] of `X`, bitwise.
    Householder(Svd),
}

/// The SVD of the snapshot block `X = D[:, ..n]` of a panel `D`
/// (`P × (n + 1)`) by the method of snapshots (Sirovich 1987): one Gram
/// `G = DᵀD` of the whole panel (its upper tiles under AVX2, mirrored,
/// bitwise the GEMM kernel's product), then
/// [`try_eig_symmetric`](crate::eig::try_eig_symmetric) of its leading
/// block `XᵀX = V·Λ·Vᵀ`, so `σᵢ = √λᵢ`. No left singular vector is formed:
/// the rest of `G` serves the caller's products against `Y = D[:, 1..]`.
///
/// `rank_of` picks the retained rank from the full spectrum, as for
/// [`svd_leading`]. A Gram eigenvalue carries an absolute error of about
/// `ε·σ₁²`, so `trusted(s, r)` decides whether the small end of the
/// spectrum the rank rule read is good enough. When it is not, when the
/// Gram is not finite, or when the symmetric solve hits its cap, the result
/// is [`svd_leading`] of `X`, bitwise, and `svd.gram_fallbacks` counts it.
/// Either way this counts as one call under `svd.*`, Gram included; the
/// Gram records no `gemm.*` metrics.
pub fn svd_snapshots(
    d: &Mat,
    rank_of: impl Fn(&[f64]) -> usize,
    trusted: impl FnOnce(&[f64], usize) -> bool,
) -> SnapshotSvd {
    let _span = crate::obs::SVD_NS.span();
    crate::obs::SVD_CALLS.inc();
    let n = d.cols().saturating_sub(1);
    let gram = crate::gemm::gram_unrecorded(d);
    if gram.as_slice().iter().all(|x| x.is_finite()) {
        let lead = Mat::from_fn(n, n, |i, j| gram[(i, j)]);
        if let Ok(eig) = crate::eig::try_eig_symmetric(&lead) {
            let mut s: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
            let r = rank_of(&s).min(n);
            if trusted(&s, r) {
                s.truncate(r);
                let v = eig.vectors.cols_range(0, r);
                return SnapshotSvd::Gram { gram, s, v };
            }
        }
    }
    crate::obs::SVD_GRAM_FALLBACKS.inc();
    let x = d.cols_range(0, n);
    SnapshotSvd::Householder(svd_budgeted(&x, JACOBI_MAX_SWEEPS, rank_of).0)
}

/// Fallible SVD: runs the standard budget, escalates once with a doubled
/// sweep budget (recomputed from `a` — deterministic), and reports
/// [`LinAlgError::SvdNonConvergence`] if the off-diagonal mass still has not
/// settled.
pub fn try_svd(a: &Mat) -> Result<Svd, LinAlgError> {
    let _span = crate::obs::SVD_NS.span();
    crate::obs::SVD_CALLS.inc();
    if failpoint::take_svd_failure() {
        // A forced nonconvergence models a fully exhausted ladder: it counts
        // as one escalation and one failure, so armed failpoints give tests
        // an exact counter ground truth.
        crate::obs::SVD_ESCALATIONS.inc();
        crate::obs::SVD_FAILURES.inc();
        return Err(LinAlgError::SvdNonConvergence {
            sweeps: 0,
            off_diagonal: f64::INFINITY,
        });
    }
    let (f, stats) = svd_budgeted(a, JACOBI_MAX_SWEEPS, <[f64]>::len);
    if stats.converged {
        return Ok(f);
    }
    // Escalation: one retry with a doubled budget, from scratch.
    crate::obs::SVD_ESCALATIONS.inc();
    let (f, retry) = svd_budgeted(a, 2 * JACOBI_MAX_SWEEPS, <[f64]>::len);
    if retry.converged {
        return Ok(f);
    }
    crate::obs::SVD_FAILURES.inc();
    Err(LinAlgError::SvdNonConvergence {
        sweeps: stats.sweeps + retry.sweeps,
        off_diagonal: retry.off_diagonal,
    })
}

/// The SVD of `a` truncated to `rank_of(s)` triplets (clamped to the full
/// rank), plus the sweep statistics.
fn svd_budgeted(
    a: &Mat,
    max_sweeps: usize,
    rank_of: impl FnOnce(&[f64]) -> usize,
) -> (Svd, SvdStats) {
    if a.rows() >= a.cols() {
        // The kernel wants Aᵀ (columns as contiguous rows): one pooled
        // transposed copy, recycled on return.
        let w = crate::workspace::pooled_transpose(a);
        preconditioned_jacobi(w, max_sweeps, rank_of)
    } else {
        // Aᵀ = U'ΣV'ᵀ ⇒ A = V'ΣU'ᵀ; (Aᵀ)ᵀ = A is already the layout the
        // kernel wants, so a pooled straight copy suffices.
        let w = crate::workspace::pooled_copy(a);
        let (t, stats) = preconditioned_jacobi(w, max_sweeps, rank_of);
        (
            Svd {
                u: t.v,
                s: t.s,
                v: t.u,
            },
            stats,
        )
    }
}

/// SVD of the tall `m × n` matrix `X` whose columns are the rows of `w`
/// (`n × m`, `m ≥ n`), consuming the pooled scratch, truncated to the
/// `r = rank_of(s)` leading triplets.
///
/// Tall inputs (`m ≥ 2n`) are QR-preconditioned (Drmač–Veselić):
/// `X = Q·R` by Householder on the rows of `w`, one-sided Jacobi on the
/// small `n × n` `R = U_R·Σ·Vᵀ`, then the leading `r` columns of
/// `U = Q·U_R` by applying the reflectors to `[U_R; 0]` restricted to those
/// columns. Every sweep then costs `O(n³)` instead of `O(mn²)`. The sweep
/// budget and [`SvdStats`] apply to `R`, whose column Gram matrix is that
/// of `X`. Near-square inputs go to [`jacobi_core`] directly and are
/// truncated afterwards. The whole factorisation reports under the caller's
/// `svd.*` span: the reflector routines record no `qr.*` or `gemm.*`
/// metrics.
fn preconditioned_jacobi(
    mut w: crate::workspace::PooledMat,
    max_sweeps: usize,
    rank_of: impl FnOnce(&[f64]) -> usize,
) -> (Svd, SvdStats) {
    let (n, m) = w.shape();
    if n == 0 || m < 2 * n {
        let (full, stats) = jacobi_core(w, m, n, max_sweeps);
        let r = rank_of(&full.s);
        let kept = if r < full.rank() {
            full.truncate(r)
        } else {
            full
        };
        return (kept, stats);
    }
    let mut vs = crate::workspace::ScratchVec::zeros(n * m);
    crate::qr::householder_rows(&mut w, n, &mut vs);
    // Rᵀ for the core: row c is column c of R, its leading c + 1 entries.
    let mut rt = crate::workspace::pooled_zeros(n, n);
    for c in 0..n {
        rt.row_mut(c)[..=c].copy_from_slice(&w.row(c)[..=c]);
    }
    drop(w);
    let (small, stats) = jacobi_core(rt, n, n, max_sweeps);
    let r = rank_of(&small.s).min(n);
    let mut u = Mat::zeros(m, r);
    for i in 0..n {
        u.row_mut(i).copy_from_slice(&small.u.row(i)[..r]);
    }
    crate::qr::apply_reflectors(&vs, n, &mut u);
    let mut s = small.s;
    s.truncate(r);
    let v = if r < n {
        small.v.cols_range(0, r)
    } else {
        small.v
    };
    (Svd { u, s, v }, stats)
}

/// One-sided Jacobi on `w = Aᵀ` (`n × m` with `m ≥ n`), consuming the pooled
/// scratch. The per-sweep state (`w`, `vt`, norms) lives in recycled
/// workspace buffers, so repeated small SVDs — the inner solves of the
/// incremental update — stop hitting the allocator.
fn jacobi_core(
    mut w: crate::workspace::PooledMat,
    m: usize,
    n: usize,
    max_sweeps: usize,
) -> (Svd, SvdStats) {
    debug_assert_eq!(w.shape(), (n, m));
    assert!(m >= n);
    let mut vt = crate::workspace::pooled_zeros(n, n); // row j = column j of V
    for i in 0..n {
        vt[(i, i)] = 1.0;
    }
    let tol = 1e-14;
    // Rows whose squared norm falls below ε²·‖A‖²_F are cancellation residue
    // of rank deficiency: their pairwise correlations are pure noise and can
    // never satisfy the relative tolerance, so rotating them would cycle
    // forever. The Frobenius norm is rotation-invariant, making this floor
    // stable across sweeps.
    let fro2: f64 = (0..n)
        .map(|i| w.row(i).iter().map(|x| x * x).sum::<f64>())
        .sum();
    let negligible = f64::EPSILON * f64::EPSILON * fro2;
    let mut stats = SvdStats {
        sweeps: 0,
        off_diagonal: 0.0,
        converged: n <= 1, // nothing to rotate
    };
    for _sweep in 0..max_sweeps {
        stats.sweeps += 1;
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (app, aqq, apq) = {
                    let wp = w.row(p);
                    let wq = w.row(q);
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for (&x, &y) in wp.iter().zip(wq) {
                        app += x * x;
                        aqq += y * y;
                        apq += x * y;
                    }
                    (app, aqq, apq)
                };
                if apq.abs() <= tol * (app * aqq).sqrt() || app <= negligible || aqq <= negligible {
                    continue;
                }
                rotated = true;
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let cs = 1.0 / (1.0 + t * t).sqrt();
                let sn = cs * t;
                rotate_rows(&mut w, p, q, cs, sn);
                rotate_rows(&mut vt, p, q, cs, sn);
            }
        }
        if !rotated {
            stats.converged = true;
            break;
        }
    }
    if !stats.converged {
        // Budget exhausted: measure how far from diagonal the implicit Gram
        // matrix still is, instead of capping silently.
        let mut worst = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let wp = w.row(p);
                let wq = w.row(q);
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for (&x, &y) in wp.iter().zip(wq) {
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                if app > negligible && aqq > negligible {
                    worst = worst.max(apq.abs() / (app * aqq).sqrt());
                }
            }
        }
        stats.off_diagonal = worst;
        // A residual back under tolerance means the last sweep finished the
        // job even though it still rotated: count that as converged.
        stats.converged = worst <= tol;
    }
    // Extract singular values and left vectors; sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|j| w.row(j).iter().map(|&x| x * x).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));
    let mut u = Mat::zeros(m, n);
    let mut v = Mat::zeros(n, n);
    let mut s = Vec::with_capacity(n);
    for (k, &j) in order.iter().enumerate() {
        let nrm = norms[j];
        s.push(nrm);
        if nrm > 0.0 {
            let wrow = w.row(j);
            for i in 0..m {
                u[(i, k)] = wrow[i] / nrm;
            }
        }
        let vrow = vt.row(j);
        for i in 0..n {
            v[(i, k)] = vrow[i];
        }
    }
    (Svd { u, s, v }, stats)
}

#[cfg(test)]
mod jacobi_wide_tests {
    use super::*;

    #[test]
    fn wide_path_matches_tall_path_of_transpose() {
        let a = Mat::from_fn(4, 9, |i, j| ((i * 7 + j * 5) % 11) as f64 - 5.0);
        let wide = svd(&a);
        let tall = svd(&a.transpose());
        for (sw, st) in wide.s.iter().zip(&tall.s) {
            assert!((sw - st).abs() < 1e-12);
        }
        assert!(wide.reconstruct().fro_dist(&a) < 1e-10);
    }
}

/// Applies the Givens-like rotation to rows p and q:
/// `row_p ← cs·row_p − sn·row_q`, `row_q ← sn·row_p + cs·row_q`.
fn rotate_rows(w: &mut Mat, p: usize, q: usize, cs: f64, sn: f64) {
    let cols = w.cols();
    let data = w.as_mut_slice();
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    let (head, tail) = data.split_at_mut(hi * cols);
    let row_lo = &mut head[lo * cols..(lo + 1) * cols];
    let row_hi = &mut tail[..cols];
    let (rp, rq): (&mut [f64], &mut [f64]) = if p < q {
        (row_lo, row_hi)
    } else {
        (row_hi, row_lo)
    };
    for (x, y) in rp.iter_mut().zip(rq.iter_mut()) {
        let xp = *x;
        let yq = *y;
        *x = cs * xp - sn * yq;
        *y = sn * xp + cs * yq;
    }
}

/// Randomized truncated SVD of rank ≤ `rank` (Halko et al. 2011) with
/// `oversample` extra probe vectors and `power_iters` subspace iterations.
///
/// Deterministic for a fixed `seed`, which keeps the incremental-vs-batch
/// equivalence tests reproducible.
pub fn svd_randomized(
    a: &Mat,
    rank: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> Svd {
    let (m, n) = a.shape();
    let k = rank.min(m.min(n));
    let l = (k + oversample).min(m.min(n));
    if l == 0 {
        return Svd {
            u: Mat::zeros(m, 0),
            s: vec![],
            v: Mat::zeros(n, 0),
        };
    }
    let mut gauss = GaussianSource::new(seed);
    // Gaussian probe Ω (n × l).
    let omega = Mat::from_fn(n, l, |_, _| gauss.next());
    let mut q = range_qr(&a.matmul(&omega)); // m × l
    for _ in 0..power_iters {
        let z = a.t_matmul(&q); // n × l
        let qz = range_qr(&z);
        q = range_qr(&a.matmul(&qz));
    }
    // Project: B = Qᵀ A  (l × n); exact SVD of small B.
    let b = q.t_matmul(a);
    let sb = svd(&b);
    let u = q.matmul(&sb.u);
    Svd {
        u,
        s: sb.s,
        v: sb.v,
    }
    .truncate(k)
}

/// Oversampling applied by the [`svd_truncated`] dispatcher's randomized path.
const DEFAULT_OVERSAMPLE: usize = 8;
/// Subspace (power) iterations of the dispatcher's randomized path.
const DEFAULT_POWER_ITERS: usize = 2;

/// Fixed probe seed of [`svd_truncated`]. Kept stable so the determinism
/// suites keep their bit-exact baselines; call sites with per-fit seeds (the
/// `Sketched` fit strategy, per-node tree fits) use [`svd_sketched`] so
/// repeated fits stop drawing the same probe matrix.
pub const DEFAULT_SKETCH_SEED: u64 = 0x5eed_cafe;

/// Truncated SVD that picks the cheapest correct algorithm: exact Jacobi when
/// the target rank is a large fraction of the matrix, randomized otherwise.
/// Uses the fixed [`DEFAULT_SKETCH_SEED`]; callers holding their own seed
/// should prefer [`svd_sketched`] to decorrelate repeated probes.
pub fn svd_truncated(a: &Mat, rank: usize) -> Svd {
    let min_dim = a.rows().min(a.cols());
    let rank = rank.min(min_dim);
    // Randomized pays off once the oversampled probe is well under the
    // ambient dimension. The guard is derived from the probe width
    // l = k + oversample actually used below, so "the 2× guard keeps the
    // probe within bounds" holds by construction instead of comparing an
    // unrelated `rank + 10`.
    let l = rank + DEFAULT_OVERSAMPLE;
    if 2 * l < min_dim && min_dim > 64 {
        svd_randomized(
            a,
            rank,
            DEFAULT_OVERSAMPLE,
            DEFAULT_POWER_ITERS,
            DEFAULT_SKETCH_SEED,
        )
    } else {
        svd(a).truncate(rank)
    }
}

/// Sketched truncated SVD — the kernel behind `FitStrategy::Sketched`.
///
/// Identical factorisation scheme to [`svd_randomized`] (Gaussian probe,
/// optional subspace iterations, exact SVD of the small projected `B`), but
/// instrumented under the `sketch.*` metrics and falling back to the exact
/// Jacobi path whenever the probe `l = rank + oversample` would not actually
/// be smaller than the matrix, so callers can request it unconditionally.
/// Tall panels are orthonormalised through the TSQR path (see
/// [`crate::qr::tsqr`]), the shape the paper's P≫T windows produce.
pub fn svd_sketched(a: &Mat, rank: usize, oversample: usize, power_iters: usize, seed: u64) -> Svd {
    let min_dim = a.rows().min(a.cols());
    let k = rank.min(min_dim);
    let l = k + oversample.max(1);
    if l >= min_dim || min_dim <= 16 {
        // Sketching cannot shrink the problem: exact is both faster and tight.
        return svd(a).truncate(k);
    }
    let _span = crate::obs::SKETCH_NS.span();
    crate::obs::SKETCH_FITS.inc();
    crate::obs::SKETCH_PROBES.inc();
    svd_randomized(a, k, oversample.max(1), power_iters, seed)
}

/// Orthonormalises a range-finder panel: TSQR for tall-skinny shapes, plain
/// Householder otherwise. Both produce a thin Q with orthonormal columns.
pub(crate) fn range_qr(y: &Mat) -> Mat {
    if y.rows() >= 4 * y.cols().max(1) {
        crate::qr::tsqr(y).q
    } else {
        qr(y).q
    }
}

/// Seeded standard-normal source (Box–Muller over the vendored [`StdRng`]).
///
/// Emits **both** members of each generated pair — the seed code discarded
/// the sine partner, doubling the uniform draws for every `n × l` probe —
/// and rejects `u1 == 0` by redrawing (probability 2⁻⁵³ per draw) instead of
/// clamping with `max(1e-12)`, which truncated the tail asymmetrically.
pub(crate) struct GaussianSource {
    rng: StdRng,
    spare: Option<f64>,
}

impl GaussianSource {
    /// A source with its own deterministic stream.
    pub(crate) fn new(seed: u64) -> GaussianSource {
        GaussianSource {
            rng: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// The next standard-normal sample.
    pub(crate) fn next(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let mut u1: f64 = self.rng.random();
        while u1 == 0.0 {
            u1 = self.rng.random();
        }
        let u2: f64 = self.rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthonormality_error(q: &Mat) -> f64 {
        q.t_matmul(q).sub(&Mat::identity(q.cols())).fro_norm()
    }

    #[test]
    fn svd_reconstructs_tall() {
        let a = Mat::from_fn(9, 4, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        let f = svd(&a);
        assert!(f.reconstruct().fro_dist(&a) < 1e-10);
        assert!(orthonormality_error(&f.u) < 1e-10);
        assert!(orthonormality_error(&f.v) < 1e-10);
    }

    #[test]
    fn svd_reconstructs_wide() {
        let a = Mat::from_fn(3, 8, |i, j| (i as f64 + 1.0).sin() * (j as f64 + 0.5));
        let f = svd(&a);
        assert!(f.reconstruct().fro_dist(&a) < 1e-10);
    }

    #[test]
    fn singular_values_sorted_and_match_known_case() {
        // diag(3, 1) embedded in a rotation-free matrix.
        let a = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]);
        let f = svd(&a);
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 1.0).abs() < 1e-12);
        assert!(f.s.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn rank_one_matrix_detected() {
        let a = Mat::from_fn(6, 5, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0));
        let f = svd(&a);
        assert_eq!(f.numerical_rank(1e-10), 1);
    }

    #[test]
    fn pinv_solves_consistent_system() {
        let a = Mat::from_fn(5, 3, |i, j| {
            ((i + 1) * (j + 2)) as f64 + if i == j { 5.0 } else { 0.0 }
        });
        let x_true = Mat::from_rows(&[vec![1.0], vec![-2.0], vec![0.5]]);
        let b = a.matmul(&x_true);
        let x = svd(&a).pinv(1e-12).matmul(&b);
        assert!(x.fro_dist(&x_true) < 1e-9);
    }

    #[test]
    fn randomized_matches_exact_on_low_rank() {
        // Rank-3 matrix, 80×70.
        let u = Mat::from_fn(80, 3, |i, j| ((i * (j + 1)) as f64 * 0.1).sin());
        let v = Mat::from_fn(70, 3, |i, j| ((i + j * j) as f64 * 0.07).cos());
        let a = u.matmul(&v.transpose());
        let exact = svd(&a);
        let rnd = svd_randomized(&a, 3, 8, 2, 42);
        for k in 0..3 {
            assert!(
                (exact.s[k] - rnd.s[k]).abs() < 1e-8 * exact.s[0].max(1.0),
                "σ_{k}: {} vs {}",
                exact.s[k],
                rnd.s[k]
            );
        }
        assert!(rnd.reconstruct().fro_dist(&a) < 1e-7 * a.fro_norm());
    }

    #[test]
    fn truncated_svd_is_best_low_rank_approx() {
        let a = Mat::from_fn(20, 15, |i, j| 1.0 / (1.0 + (i + j) as f64)); // Hilbert-ish, fast decay
        let f = svd(&a);
        let t = f.truncate(3);
        // Eckart–Young: truncation error equals the tail singular values.
        let err = t.reconstruct().fro_dist(&a);
        let tail: f64 = f.s[3..].iter().map(|&x| x * x).sum::<f64>().sqrt();
        assert!((err - tail).abs() < 1e-10);
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Mat::zeros(4, 3);
        let f = svd(&a);
        assert!(f.s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn stats_report_convergence_on_ordinary_input() {
        let a = Mat::from_fn(7, 5, |i, j| ((i * 3 + j) % 6) as f64 - 2.5);
        let (f, stats) = svd_with_stats(&a);
        assert!(stats.converged);
        assert!(stats.sweeps >= 1 && stats.sweeps <= 60, "{}", stats.sweeps);
        assert_eq!(stats.off_diagonal, 0.0);
        assert!(f.reconstruct().fro_dist(&a) < 1e-10);
    }

    #[test]
    fn try_svd_succeeds_on_pathological_but_finite_inputs() {
        // Rank collapse, duplication, and a Hilbert-like κ≈1/ε Gram should
        // all converge (possibly via the doubled-budget retry), never error.
        let rank1 = Mat::from_fn(12, 8, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0));
        let dup = Mat::from_fn(10, 6, |i, _| i as f64);
        let hilbert = Mat::from_fn(12, 12, |i, j| 1.0 / ((i + j + 1) as f64));
        for a in [&rank1, &dup, &hilbert, &Mat::zeros(5, 4)] {
            let f = try_svd(a).unwrap();
            assert!(f.reconstruct().fro_dist(a) < 1e-9 * a.fro_norm().max(1.0));
        }
    }

    /// The unpreconditioned one-sided Jacobi path, for reference.
    fn direct_jacobi(a: &Mat, max_sweeps: usize) -> (Svd, SvdStats) {
        if a.rows() >= a.cols() {
            let w = crate::workspace::pooled_transpose(a);
            jacobi_core(w, a.rows(), a.cols(), max_sweeps)
        } else {
            let w = crate::workspace::pooled_copy(a);
            let (t, stats) = jacobi_core(w, a.cols(), a.rows(), max_sweeps);
            (
                Svd {
                    u: t.v,
                    s: t.s,
                    v: t.u,
                },
                stats,
            )
        }
    }

    /// Orthonormality error of the columns whose singular value is not
    /// negligible (a zero σ leaves its left vector zero on either path).
    fn live_orthonormality_error(q: &Mat, s: &[f64]) -> f64 {
        let s0 = s.first().copied().unwrap_or(0.0);
        let live: Vec<usize> = (0..s.len()).filter(|&k| s[k] > 1e-10 * s0).collect();
        orthonormality_error(&Mat::from_fn(q.rows(), live.len(), |i, k| q[(i, live[k])]))
    }

    fn assert_matches_direct(a: &Mat, what: &str) {
        let (f, stats) = svd_with_stats(a);
        let (d, dstats) = direct_jacobi(a, JACOBI_MAX_SWEEPS);
        assert!(
            stats.converged && dstats.converged,
            "{what}: {stats:?} / {dstats:?}"
        );
        let k = a.rows().min(a.cols());
        assert_eq!(
            (f.u.shape(), f.s.len(), f.v.shape()),
            ((a.rows(), k), k, (a.cols(), k))
        );
        let s0 = d.s.first().copied().unwrap_or(0.0);
        for (i, (x, y)) in f.s.iter().zip(&d.s).enumerate() {
            assert!((x - y).abs() <= 1e-12 * s0, "{what}: σ_{i} {x} vs {y}");
        }
        let scale = a.fro_norm().max(f64::MIN_POSITIVE);
        assert!(
            f.reconstruct().fro_dist(a) <= 1e-12 * scale,
            "{what}: reconstruction"
        );
        assert!(live_orthonormality_error(&f.u, &f.s) < 1e-11, "{what}: U");
        assert!(live_orthonormality_error(&f.v, &f.s) < 1e-11, "{what}: V");
    }

    #[test]
    fn preconditioned_path_matches_direct_jacobi() {
        let tall = Mat::from_fn(300, 12, |i, j| {
            ((i * 7 + j * 13) % 17) as f64 - 8.0 + 0.01 * (i as f64).sin()
        });
        let graded = Mat::from_fn(120, 9, |i, j| {
            ((i + 1) as f64 * (j + 2) as f64).cos() * 10f64.powi(-(j as i32))
        });
        let boundary = Mat::from_fn(16, 8, |i, j| {
            1.0 / ((i + j + 1) as f64) + ((i * j) % 3) as f64
        });
        let u = Mat::from_fn(80, 2, |i, j| ((i * (j + 1)) as f64 * 0.1).sin());
        let v = Mat::from_fn(7, 2, |i, j| ((i + 3 * j) as f64 * 0.4).cos());
        let rank2 = u.matmul(&v.transpose());
        let dup = Mat::from_fn(50, 6, |i, j| ((i * (j % 3 + 1)) as f64 * 0.3).sin());
        let cases = [
            ("tall", tall.clone()),
            ("wide", tall.transpose()),
            ("graded", graded),
            ("m = 2n", boundary.clone()),
            ("n = 2m", boundary.transpose()),
            ("rank-deficient", rank2),
            ("duplicate columns", dup.clone()),
            ("duplicate rows", dup.transpose()),
            ("single column", Mat::from_fn(9, 1, |i, _| i as f64 - 4.0)),
        ];
        for (what, a) in &cases {
            assert_matches_direct(a, what);
        }
    }

    #[test]
    fn preconditioned_path_handles_zero_and_keeps_near_square_direct() {
        for a in [Mat::zeros(30, 5), Mat::zeros(5, 30)] {
            let (f, stats) = svd_with_stats(&a);
            assert!(stats.converged);
            assert!(f.s.iter().all(|&x| x == 0.0));
            // As on the direct path: the vectors normalised from the
            // (zero) columns stay zero, the rotation side stays I.
            let (normalised, rotated) = if a.rows() >= a.cols() {
                (&f.u, &f.v)
            } else {
                (&f.v, &f.u)
            };
            assert!(normalised.as_slice().iter().all(|&x| x == 0.0));
            assert_eq!(rotated, &Mat::identity(5));
        }
        // Below the m ≥ 2n threshold the direct core runs unchanged, bitwise.
        for a in [
            Mat::from_fn(15, 8, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0),
            Mat::from_fn(8, 15, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0),
        ] {
            let f = svd(&a);
            let (d, _) = direct_jacobi(&a, JACOBI_MAX_SWEEPS);
            let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&f.u), bits(&d.u));
            assert_eq!(bits(&f.v), bits(&d.v));
            assert_eq!(
                f.s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                d.s.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn preconditioned_stats_keep_their_meaning() {
        // One sweep cannot diagonalise a dense 10-column Gram: the stats
        // must say so (as the direct path does), the factors must still
        // reassemble A, and the doubled escalation budget must converge.
        let a = Mat::from_fn(200, 10, |i, j| ((i * 11 + j * j * 7) % 19) as f64 - 9.0);
        for (f, stats) in [svd_budgeted(&a, 1, <[f64]>::len), direct_jacobi(&a, 1)] {
            assert_eq!(stats.sweeps, 1);
            assert!(!stats.converged);
            assert!(stats.off_diagonal > 1e-14 && stats.off_diagonal.is_finite());
            assert!(f.reconstruct().fro_dist(&a) < 1e-10 * a.fro_norm());
        }
        let (_, full) = svd_budgeted(&a, 2 * JACOBI_MAX_SWEEPS, <[f64]>::len);
        assert!(full.converged && full.sweeps > 1 && full.off_diagonal == 0.0);
        assert!(try_svd(&a).is_ok());
    }

    #[test]
    fn leading_vectors_are_bitwise_the_truncated_full_svd() {
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tall = Mat::from_fn(90, 12, |i, j| {
            ((i * 7 + j * 13) % 17) as f64 - 8.0 + 0.01 * (i as f64).sin()
        });
        let u = Mat::from_fn(60, 3, |i, j| ((i * (j + 1)) as f64 * 0.1).sin());
        let v = Mat::from_fn(10, 3, |i, j| ((i + 3 * j) as f64 * 0.4).cos());
        let cases = [
            ("tall (QR path)", tall.clone()),
            ("near-square (m < 2n)", tall.rows_range(0, 20)),
            ("wide", tall.transpose()),
            ("zero", Mat::zeros(40, 6)),
            ("rank-deficient", u.matmul(&v.transpose())),
        ];
        for (what, a) in &cases {
            let full = svd(a);
            let n = full.rank();
            for r in [0, n / 2, n] {
                let got = svd_leading(a, |s| {
                    assert_eq!(s.len(), n, "{what}: the rule sees the full spectrum");
                    r
                });
                let want = full.truncate(r);
                assert_eq!(bits(&got.u), bits(&want.u), "{what}, r = {r}: U");
                assert_eq!(bits(&got.v), bits(&want.v), "{what}, r = {r}: V");
                assert_eq!(
                    got.s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{what}, r = {r}: s"
                );
                assert_eq!(got.u.shape(), (a.rows(), r), "{what}, r = {r}");
                assert_eq!(got.v.shape(), (a.cols(), r), "{what}, r = {r}");
            }
        }
    }

    #[test]
    fn svd_truncated_dispatches_consistently() {
        let a = Mat::from_fn(100, 90, |i, j| {
            ((i as f64 - j as f64) * 0.05).exp() / (1.0 + i as f64)
        });
        let t1 = svd_truncated(&a, 5);
        let exact = svd(&a).truncate(5);
        for k in 0..5 {
            assert!((t1.s[k] - exact.s[k]).abs() < 1e-6 * exact.s[0]);
        }
    }

    #[test]
    fn seeded_randomized_decorrelates_probes_but_agrees_on_values() {
        // Different seeds must draw different probe matrices, yet both land
        // on the same singular values of this well-separated spectrum as the
        // fixed-seed dispatcher.
        let u = Mat::from_fn(90, 4, |i, j| ((i * (j + 2)) as f64 * 0.11).sin());
        let v = Mat::from_fn(80, 4, |i, j| ((i + 3 * j) as f64 * 0.07).cos());
        let a = u.matmul(&v.transpose());
        let s1 = svd_randomized(&a, 4, DEFAULT_OVERSAMPLE, DEFAULT_POWER_ITERS, 1);
        let s2 = svd_randomized(&a, 4, DEFAULT_OVERSAMPLE, DEFAULT_POWER_ITERS, 2);
        let def = svd_truncated(&a, 4);
        for k in 0..4 {
            assert!((s1.s[k] - s2.s[k]).abs() < 1e-8 * s1.s[0].max(1.0));
            assert!((s1.s[k] - def.s[k]).abs() < 1e-8 * s1.s[0].max(1.0));
        }
        // The bases themselves differ (different probes): at least one entry
        // of U should move by more than roundoff between seeds.
        let diff = s1.u.fro_dist(&s2.u);
        assert!(diff > 1e-13, "probes are still correlated: {diff:e}");
    }

    #[test]
    fn gaussian_source_emits_both_pair_members() {
        // Pair caching: draws 2k samples from the uniform stream for 2k
        // normals, i.e. consecutive samples come in (cos, sin) pairs with a
        // shared radius r = √(-2 ln u₁): their squared sum is r².
        let mut g = GaussianSource::new(7);
        let a = g.next();
        let b = g.next();
        let r2 = a * a + b * b;
        assert!(r2.is_finite() && r2 > 0.0);
        // Same seed replays the identical stream.
        let mut h = GaussianSource::new(7);
        assert_eq!(h.next().to_bits(), a.to_bits());
        assert_eq!(h.next().to_bits(), b.to_bits());
        // Moments sanity: mean ≈ 0, variance ≈ 1 over a modest sample.
        let mut g = GaussianSource::new(1234);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = g.next();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sketched_matches_exact_on_low_rank_and_falls_back_when_small() {
        let u = Mat::from_fn(200, 5, |i, j| ((i * (j + 1)) as f64 * 0.05).sin());
        let v = Mat::from_fn(40, 5, |i, j| ((i + j * j) as f64 * 0.09).cos());
        let a = u.matmul(&v.transpose()); // tall: 200 × 40, rank 5
        let exact = svd(&a);
        let sk = svd_sketched(&a, 5, 8, 2, 99);
        for k in 0..5 {
            assert!(
                (exact.s[k] - sk.s[k]).abs() < 1e-8 * exact.s[0].max(1.0),
                "σ_{k}: {} vs {}",
                exact.s[k],
                sk.s[k]
            );
        }
        assert!(sk.reconstruct().fro_dist(&a) < 1e-7 * a.fro_norm());
        // Probe as wide as the matrix → exact fallback, bitwise the Jacobi path.
        let tiny = Mat::from_fn(12, 6, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let fb = svd_sketched(&tiny, 4, 8, 2, 1);
        let ex = svd(&tiny).truncate(4);
        for k in 0..4 {
            assert_eq!(fb.s[k].to_bits(), ex.s[k].to_bits());
        }
    }
}
