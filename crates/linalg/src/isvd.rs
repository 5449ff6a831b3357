//! Incremental (streaming) truncated SVD.
//!
//! This is the enabling substrate of I-mrDMD: the paper (Sec. III-A.1) keeps a
//! rank-q SVD of the level-1 snapshot matrix and folds newly arrived time
//! points into it instead of refactoring from scratch, citing the
//! spatially-parallel / temporally-serial incremental SVD of Kühl et al.
//! (2024), which is the classic Brand (2002) additive update:
//!
//! ```text
//! [A  C] = [U E] · K · [V 0; 0 I]ᵀ,   K = [diag(s)  UᵀC]
//!                                         [  0      Eᵀ(C−UUᵀC)]
//! ```
//!
//! A small dense SVD of `K` rotates the augmented bases; truncation back to
//! rank q bounds the state. Orthogonality of `U` degrades slowly over many
//! updates, so a Gram test triggers re-orthonormalisation when drift exceeds
//! a tolerance.

use crate::error::LinAlgError;
use crate::gemm::{gemm, gram_unrecorded, Trans};
use crate::mat::Mat;
use crate::qr::{orthonormal_complement, orthonormal_complement_rows, qr};
use crate::svd::{scale_cols, svd_truncated, svd_with_stats, Svd};
use crate::workspace;
use serde::{Deserialize, Serialize};

/// Streaming truncated SVD of a column-growing matrix.
///
/// Columns are time points (temporally serial); rows are sensors (spatially
/// parallel in the reference formulation — here the per-row work is inside the
/// threaded matmul kernels).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IncrementalSvd {
    u: Mat,
    s: Vec<f64>,
    v: Mat,
    max_rank: usize,
    cols_seen: usize,
    /// ‖UᵀU − I‖_F tolerance that triggers re-orthonormalisation.
    reorth_tol: f64,
    /// Jacobi sweeps spent by the most recent inner (core-matrix) SVD —
    /// surfaced through the streaming health snapshot.
    last_inner_sweeps: usize,
}

impl IncrementalSvd {
    /// Initialises from a first block of columns with a batch truncated SVD.
    ///
    /// ```
    /// use hpc_linalg::{IncrementalSvd, Mat};
    ///
    /// let data = Mat::from_fn(20, 30, |i, j| ((i + 2 * j) as f64 * 0.1).sin());
    /// let mut isvd = IncrementalSvd::new(&data.cols_range(0, 20), 8);
    /// isvd.update(&data.cols_range(20, 30));
    /// assert_eq!(isvd.cols_seen(), 30);
    /// let rel = isvd.reconstruct().fro_dist(&data) / data.fro_norm();
    /// assert!(rel < 1e-6);
    /// ```
    pub fn new(first_block: &Mat, max_rank: usize) -> Self {
        assert!(max_rank >= 1, "max_rank must be at least 1");
        let f = svd_truncated(first_block, max_rank);
        let f = drop_negligible(f);
        IncrementalSvd {
            u: f.u,
            s: f.s,
            v: f.v,
            max_rank,
            cols_seen: first_block.cols(),
            reorth_tol: 1e-8,
            last_inner_sweeps: 0,
        }
    }

    /// Number of columns absorbed so far.
    pub fn cols_seen(&self) -> usize {
        self.cols_seen
    }

    /// Current rank of the factorisation.
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// The retained rank cap.
    pub fn max_rank(&self) -> usize {
        self.max_rank
    }

    /// Borrow of the current left basis (`m × r`).
    pub fn u(&self) -> &Mat {
        &self.u
    }

    /// Borrow of the current singular values (non-increasing).
    pub fn s(&self) -> &[f64] {
        &self.s
    }

    /// Borrow of the current right factor (`cols_seen × r`).
    pub fn v(&self) -> &Mat {
        &self.v
    }

    /// Snapshot of the factorisation as an owned [`Svd`].
    pub fn to_svd(&self) -> Svd {
        Svd {
            u: self.u.clone(),
            s: self.s.clone(),
            v: self.v.clone(),
        }
    }

    /// Folds a new block of columns into the factorisation (Brand update).
    ///
    /// Infallible entry point: a post-repair orthogonality-drift breach (see
    /// [`IncrementalSvd::try_update`]) is dropped — the factorisation has
    /// already advanced either way.
    ///
    /// # Panics
    /// Panics if the row count differs from the initial block.
    pub fn update(&mut self, block: &Mat) {
        let _ = self.try_update(block);
    }

    /// Fallible twin of [`IncrementalSvd::update`]: after the Brand update
    /// (and, if needed, a QR re-orthonormalisation pass), a left basis that
    /// is *still* measurably non-orthonormal is reported as
    /// [`LinAlgError::OrthogonalityDrift`]. The update itself has been
    /// applied in either case; the error is a health signal, not a rollback.
    ///
    /// On success returns the post-repair drift the update measured —
    /// bitwise [`IncrementalSvd::orthogonality_drift`] of the new basis — so
    /// a caller that reports it need not take the Gram product again. An
    /// empty block changes nothing and returns the current drift.
    ///
    /// # Panics
    /// Panics if the row count differs from the initial block.
    pub fn try_update(&mut self, block: &Mat) -> Result<f64, LinAlgError> {
        assert_eq!(
            block.rows(),
            self.u.rows(),
            "row count must match the stream"
        );
        if block.cols() == 0 {
            return Ok(self.orthogonality_drift());
        }
        let _span = crate::obs::ISVD_UPDATE_NS.span();
        crate::obs::ISVD_UPDATES.inc();
        let c = block.cols();
        let q = self.rank();
        // Projection onto the current basis.
        let mut d = workspace::pooled_zeros(q, c); // q × c = Uᵀ · block
        gemm(1.0, &self.u, Trans::Yes, block, Trans::No, 0.0, &mut d);
        // Orthonormal residual basis; the residual is fused into one gemm:
        // resid = block − U·d (β = 1). Intermediates stay pooled.
        let mut resid = workspace::pooled_copy(block);
        gemm(-1.0, &self.u, Trans::No, &d, Trans::No, 1.0, &mut resid);
        let e = orthonormal_complement(&self.u, &resid, 1e-12); // m × j
        let j = e.cols();
        let mut p = workspace::pooled_zeros(j, c); // j × c = Eᵀ · resid
        gemm(1.0, &e, Trans::Yes, &resid, Trans::No, 0.0, &mut p);

        // K = [diag(s) d; 0 p]  ((q+j) × (q+c)).
        let mut k = workspace::pooled_zeros(q + j, q + c);
        for i in 0..q {
            k[(i, i)] = self.s[i];
        }
        for i in 0..q {
            for jj in 0..c {
                k[(i, q + jj)] = d[(i, jj)];
            }
        }
        for i in 0..j {
            for jj in 0..c {
                k[(q + i, q + jj)] = p[(i, jj)];
            }
        }
        let (fk, kstats) = svd_with_stats(&k);
        self.last_inner_sweeps = kstats.sweeps;
        let keep = fk.rank().min(self.max_rank);
        let fk = drop_negligible(fk.truncate(keep));
        let r = fk.rank();

        // U' = [U E] · U_K, summed blockwise so the concatenation is never
        // materialised: U' = U·U_K[..q,..] + E·U_K[q.., ..].
        let mut u_new = Mat::zeros(self.u.rows(), r);
        gemm(
            1.0,
            &self.u,
            Trans::No,
            &fk.u.rows_range(0, q),
            Trans::No,
            0.0,
            &mut u_new,
        );
        if j > 0 {
            gemm(
                1.0,
                &e,
                Trans::No,
                &fk.u.rows_range(q, q + j),
                Trans::No,
                1.0,
                &mut u_new,
            );
        }
        self.u = u_new;

        // V' = [V 0; 0 I] · V_K  ((t+c) × r).
        let t = self.v.rows();
        let mut v_new = Mat::zeros(t + c, r);
        // Top block: V · V_K[..q, ..].
        let vk_top = fk.v.rows_range(0, q);
        let mut top = workspace::pooled_zeros(t, r);
        gemm(1.0, &self.v, Trans::No, &vk_top, Trans::No, 0.0, &mut top);
        for i in 0..t {
            v_new.row_mut(i).copy_from_slice(top.row(i));
        }
        // Bottom block: I · V_K[q.., ..].
        for i in 0..c {
            v_new.row_mut(t + i).copy_from_slice(fk.v.row(q + i));
        }
        self.v = v_new;
        self.s = fk.s;
        self.cols_seen += c;

        let drift = self.maybe_reorthonormalise();
        self.check_drift(drift)
    }

    /// Post-repair drift verdict shared by the fallible updates.
    fn check_drift(&self, drift: f64) -> Result<f64, LinAlgError> {
        if drift > self.reorth_tol {
            Err(LinAlgError::OrthogonalityDrift {
                drift,
                tolerance: self.reorth_tol,
            })
        } else {
            Ok(drift)
        }
    }

    /// Folds new **rows** (sensors) into the factorisation — the transpose
    /// of the Brand column update, enabling the paper's future-work item of
    /// adding entire time series incrementally.
    ///
    /// `rows` must be `r × cols_seen` (the new sensors' full history).
    ///
    /// # Panics
    /// Panics if the column count differs from `cols_seen`.
    pub fn update_rows(&mut self, rows: &Mat) {
        assert_eq!(
            rows.cols(),
            self.cols_seen(),
            "row block must span the absorbed columns"
        );
        if rows.rows() == 0 {
            return;
        }
        let r = rows.rows();
        let q = self.rank();
        // Project the new rows onto the right basis and split off the
        // orthonormal remainder of their row space.
        // Pooled scratch throughout; the projection residual is fused into a
        // single gemm with a transposed right operand: resid = rows − d·Vᵀ.
        let mut d = workspace::pooled_zeros(r, q); // r × q = rows · V
        gemm(1.0, rows, Trans::No, &self.v, Trans::No, 0.0, &mut d);
        let mut resid = workspace::pooled_copy(rows);
        gemm(-1.0, &d, Trans::No, &self.v, Trans::Yes, 1.0, &mut resid);
        // Orthonormalise the residual rows against V (no transpose copy).
        let f = orthonormal_complement_rows(&self.v, &resid, 1e-12); // t × j
        let j = f.cols();
        let mut p = workspace::pooled_zeros(r, j); // r × j = rows · F
        gemm(1.0, rows, Trans::No, &f, Trans::No, 0.0, &mut p);

        // K = [diag(s) 0; d p]  ((q+r) × (q+j)).
        let mut k = workspace::pooled_zeros(q + r, q + j);
        for i in 0..q {
            k[(i, i)] = self.s[i];
        }
        for i in 0..r {
            for jj in 0..q {
                k[(q + i, jj)] = d[(i, jj)];
            }
            for jj in 0..j {
                k[(q + i, q + jj)] = p[(i, jj)];
            }
        }
        let (fk, kstats) = svd_with_stats(&k);
        self.last_inner_sweeps = kstats.sweeps;
        let keep = fk.rank().min(self.max_rank);
        let fk = drop_negligible(fk.truncate(keep));
        let rank = fk.rank();

        // U' = [U 0; 0 I] · U_K  ((m+r) × rank).
        let m = self.u.rows();
        let mut u_new = Mat::zeros(m + r, rank);
        let mut top = workspace::pooled_zeros(m, rank);
        gemm(
            1.0,
            &self.u,
            Trans::No,
            &fk.u.rows_range(0, q),
            Trans::No,
            0.0,
            &mut top,
        );
        for i in 0..m {
            u_new.row_mut(i).copy_from_slice(top.row(i));
        }
        for i in 0..r {
            u_new.row_mut(m + i).copy_from_slice(fk.u.row(q + i));
        }
        self.u = u_new;
        // V' = [V F] · V_K = V·V_K[..q,..] + F·V_K[q..,..], no concatenation.
        let t = self.v.rows();
        let mut v_new = Mat::zeros(t, rank);
        gemm(
            1.0,
            &self.v,
            Trans::No,
            &fk.v.rows_range(0, q),
            Trans::No,
            0.0,
            &mut v_new,
        );
        if j > 0 {
            gemm(
                1.0,
                &f,
                Trans::No,
                &fk.v.rows_range(q, q + j),
                Trans::No,
                1.0,
                &mut v_new,
            );
        }
        self.v = v_new;
        self.s = fk.s;
        self.maybe_reorthonormalise();
    }

    /// Jacobi sweeps spent by the most recent inner (core-matrix) SVD.
    pub fn last_inner_sweeps(&self) -> usize {
        self.last_inner_sweeps
    }

    /// Largest deviation of the left basis from orthonormality,
    /// `‖UᵀU − I‖_F`. The Gram product is a health measurement, not fit
    /// work, so it stays out of the gemm counters.
    pub fn orthogonality_drift(&self) -> f64 {
        let g = gram_unrecorded(&self.u);
        g.sub(&Mat::identity(self.u.cols())).fro_norm()
    }

    /// Repairs the left basis if its drift exceeds tolerance; returns the
    /// drift *after* any repair so callers can report an unrepaired breach.
    fn maybe_reorthonormalise(&mut self) -> f64 {
        if self.rank() == 0 {
            return 0.0;
        }
        let drift = self.orthogonality_drift();
        if drift <= self.reorth_tol {
            return drift;
        }
        // U = Q R; fold R into a small SVD to restore exact factorisation.
        let f = qr(&self.u);
        let rs = scale_cols(&f.r, &self.s); // R · diag(s)
        let (inner, _) = svd_with_stats(&rs);
        let inner = drop_negligible(inner.truncate(self.max_rank));
        self.u = f.q.matmul(&inner.u);
        self.v = self.v.matmul(&inner.v);
        self.s = inner.s;
        self.orthogonality_drift()
    }

    /// Low-rank reconstruction `U·diag(s)·Vᵀ` of everything absorbed so far.
    pub fn reconstruct(&self) -> Mat {
        self.to_svd().reconstruct()
    }
}

/// Drops trailing singular triplets below machine-precision relative to σ₀.
fn drop_negligible(f: Svd) -> Svd {
    let s0 = f.s.first().copied().unwrap_or(0.0);
    if s0 == 0.0 {
        return f.truncate(0);
    }
    let r = f.s.iter().take_while(|&&x| x > s0 * 1e-13).count().max(1);
    f.truncate(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::svd;

    /// Reference matrix with controlled low-rank-plus-noise structure.
    fn test_matrix(m: usize, t: usize) -> Mat {
        Mat::from_fn(m, t, |i, j| {
            let x = i as f64;
            let tt = j as f64 * 0.05;
            (0.3 * x).sin() * (1.1 * tt).cos()
                + 0.5 * (0.11 * x).cos() * (2.3 * tt).sin()
                + 0.01 * (((i * 2654435761 + j * 40503) % 1000) as f64 / 1000.0 - 0.5)
        })
    }

    #[test]
    fn single_update_matches_batch() {
        let a = test_matrix(40, 60);
        let left = a.cols_range(0, 40);
        let right = a.cols_range(40, 60);
        let mut inc = IncrementalSvd::new(&left, 20);
        inc.update(&right);
        let batch = svd(&a).truncate(20);
        // Compare leading singular values.
        for k in 0..5 {
            assert!(
                (inc.s()[k] - batch.s[k]).abs() < 1e-8 * batch.s[0],
                "σ_{k}: {} vs {}",
                inc.s()[k],
                batch.s[k]
            );
        }
        // Reconstruction error of the incremental factorisation is near-batch.
        let err_inc = inc.reconstruct().fro_dist(&a);
        let err_batch = batch.reconstruct().fro_dist(&a);
        assert!(err_inc <= err_batch + 1e-6 * a.fro_norm());
    }

    #[test]
    fn many_small_updates_stay_accurate() {
        let a = test_matrix(30, 120);
        let mut inc = IncrementalSvd::new(&a.cols_range(0, 10), 15);
        for start in (10..120).step_by(5) {
            inc.update(&a.cols_range(start, (start + 5).min(120)));
        }
        assert_eq!(inc.cols_seen(), 120);
        assert_eq!(inc.v().rows(), 120);
        let batch = svd(&a).truncate(15);
        let rel = (inc.reconstruct().fro_dist(&a)) / a.fro_norm();
        let rel_batch = (batch.reconstruct().fro_dist(&a)) / a.fro_norm();
        assert!(
            rel < rel_batch + 1e-4,
            "incremental {rel} vs batch {rel_batch}"
        );
    }

    #[test]
    fn orthogonality_maintained_over_many_updates() {
        let a = test_matrix(25, 200);
        let mut inc = IncrementalSvd::new(&a.cols_range(0, 20), 10);
        for start in (20..200).step_by(4) {
            inc.update(&a.cols_range(start, start + 4));
        }
        assert!(
            inc.orthogonality_drift() < 1e-7,
            "drift {}",
            inc.orthogonality_drift()
        );
    }

    #[test]
    fn exact_for_low_rank_stream() {
        // Rank-2 data: the incremental factorisation should be exact.
        let u = Mat::from_fn(20, 2, |i, j| ((i + 1) as f64 * (j + 1) as f64 * 0.17).sin());
        let v = Mat::from_fn(50, 2, |i, j| ((i as f64) * 0.09 + j as f64).cos());
        let a = u.matmul_nt(&v);
        let mut inc = IncrementalSvd::new(&a.cols_range(0, 5), 8);
        for s in (5..50).step_by(9) {
            inc.update(&a.cols_range(s, (s + 9).min(50)));
        }
        assert!(inc.rank() <= 3);
        assert!(inc.reconstruct().fro_dist(&a) < 1e-9 * a.fro_norm().max(1.0));
    }

    #[test]
    fn truncation_respects_max_rank() {
        let a = test_matrix(30, 80);
        let mut inc = IncrementalSvd::new(&a.cols_range(0, 40), 5);
        inc.update(&a.cols_range(40, 80));
        assert!(inc.rank() <= 5);
        assert_eq!(inc.u().cols(), inc.rank());
        assert_eq!(inc.v().cols(), inc.rank());
    }

    #[test]
    fn empty_update_is_noop() {
        let a = test_matrix(10, 10);
        let mut inc = IncrementalSvd::new(&a, 5);
        let before = inc.s().to_vec();
        inc.update(&Mat::zeros(10, 0));
        assert_eq!(inc.s(), &before[..]);
        assert_eq!(inc.cols_seen(), 10);
    }

    #[test]
    fn row_update_matches_batch() {
        let a = test_matrix(50, 60);
        let top = a.rows_range(0, 40);
        let bottom = a.rows_range(40, 50);
        let mut inc = IncrementalSvd::new(&top, 20);
        inc.update_rows(&bottom);
        assert_eq!(inc.u().rows(), 50);
        assert_eq!(inc.v().rows(), 60);
        let batch = svd(&a).truncate(20);
        for k in 0..5 {
            assert!(
                (inc.s()[k] - batch.s[k]).abs() < 1e-7 * batch.s[0],
                "σ_{k}: {} vs {}",
                inc.s()[k],
                batch.s[k]
            );
        }
        let err_inc = inc.reconstruct().fro_dist(&a);
        let err_batch = batch.reconstruct().fro_dist(&a);
        assert!(err_inc <= err_batch + 1e-6 * a.fro_norm());
    }

    #[test]
    fn mixed_row_and_column_updates() {
        let a = test_matrix(40, 80);
        // Start with the top-left block; add columns, then rows.
        let mut inc = IncrementalSvd::new(&a.rows_range(0, 30).cols_range(0, 50), 16);
        inc.update(&a.rows_range(0, 30).cols_range(50, 80));
        inc.update_rows(&a.rows_range(30, 40));
        assert_eq!(inc.u().rows(), 40);
        assert_eq!(inc.v().rows(), 80);
        let rel = inc.reconstruct().fro_dist(&a) / a.fro_norm();
        let batch_rel = svd(&a).truncate(16).reconstruct().fro_dist(&a) / a.fro_norm();
        assert!(
            rel < batch_rel + 5e-3,
            "mixed-update rel err {rel} vs batch {batch_rel}"
        );
        assert!(inc.orthogonality_drift() < 1e-7);
    }

    #[test]
    fn empty_row_update_is_noop() {
        let a = test_matrix(10, 12);
        let mut inc = IncrementalSvd::new(&a, 6);
        let before = inc.s().to_vec();
        inc.update_rows(&Mat::zeros(0, 12));
        assert_eq!(inc.s(), &before[..]);
    }

    #[test]
    fn try_update_is_ok_on_healthy_streams_and_records_sweeps() {
        let a = test_matrix(20, 40);
        let mut inc = IncrementalSvd::new(&a.cols_range(0, 10), 8);
        for start in (10..40).step_by(6) {
            let drift = inc
                .try_update(&a.cols_range(start, (start + 6).min(40)))
                .unwrap();
            let recomputed = inc.orthogonality_drift();
            assert_eq!(drift.to_bits(), recomputed.to_bits(), "reported drift");
            let t_matmul = inc.u().t_matmul(inc.u());
            let reference = t_matmul.sub(&Mat::identity(inc.rank())).fro_norm();
            assert_eq!(drift.to_bits(), reference.to_bits(), "Gram route");
        }
        assert!(inc.last_inner_sweeps() >= 1);
        // Rank-collapsing blocks (all-constant columns) must also pass.
        let flat = Mat::from_fn(20, 4, |i, _| i as f64 * 0.01);
        inc.try_update(&flat).unwrap();
        assert_eq!(inc.cols_seen(), 44);
    }

    #[test]
    fn v_tracks_time_dimension() {
        let a = test_matrix(15, 30);
        let mut inc = IncrementalSvd::new(&a.cols_range(0, 12), 6);
        inc.update(&a.cols_range(12, 30));
        assert_eq!(inc.v().rows(), 30);
        // V columns stay orthonormal-ish.
        let g = inc.v().t_matmul(inc.v());
        assert!(g.sub(&Mat::identity(inc.rank())).fro_norm() < 1e-6);
    }
}
