//! Small dense complex linear solves (Gaussian elimination with partial
//! pivoting). Used for the `r × r` normal-equation systems that fit DMD mode
//! amplitudes; `r` is tens, so a dense O(r³) solve is the right tool.

use crate::cmat::CMat;
use crate::complex::c64;
use crate::error::LinAlgError;

/// Solves `a · x = b` for a square complex system via partial-pivoted
/// Gaussian elimination. A numerically singular system is reported as
/// [`LinAlgError::Singular`] carrying the elimination column at which every
/// candidate pivot vanished.
///
/// # Panics
/// Panics if `a` is not square or the dimensions disagree.
pub fn try_solve_complex(a: &CMat, b: &[c64]) -> Result<Vec<c64>, LinAlgError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "try_solve_complex requires a square matrix");
    assert_eq!(b.len(), n);
    let mut m = a.clone();
    let mut x = b.to_vec();
    for k in 0..n {
        // Partial pivot on column k (manual scan: the range is never empty
        // and magnitudes of finite complex numbers never compare as NaN).
        let mut piv = k;
        let mut pmag = m[(k, k)].abs();
        for i in k + 1..n {
            let mag = m[(i, k)].abs();
            if mag > pmag {
                piv = i;
                pmag = mag;
            }
        }
        // `pmag` is a magnitude: zero means exactly singular, NaN means the
        // input already carried non-finite entries — both are reported.
        if pmag == 0.0 || pmag.is_nan() {
            return Err(LinAlgError::Singular { pivot: k });
        }
        if piv != k {
            for j in 0..n {
                let tmp = m[(k, j)];
                m[(k, j)] = m[(piv, j)];
                m[(piv, j)] = tmp;
            }
            x.swap(k, piv);
        }
        let inv_pivot = m[(k, k)].inv();
        for i in k + 1..n {
            let factor = m[(i, k)] * inv_pivot;
            if factor == c64::ZERO {
                continue;
            }
            for j in k..n {
                let val = m[(i, j)] - factor * m[(k, j)];
                m[(i, j)] = val;
            }
            x[i] = x[i] - factor * x[k];
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in i + 1..n {
            s -= m[(i, j)] * x[j];
        }
        x[i] = s * m[(i, i)].inv();
    }
    Ok(x)
}

/// Solves the least-squares problem `min ‖a·x − b‖₂` for a tall complex
/// matrix via the normal equations `(aᴴa)x = aᴴb`.
///
/// Adequate for the well-conditioned mode-amplitude fits in this suite; the
/// condition number is squared, so do not use it for ill-conditioned systems.
/// Rank deficiency that survives the Tikhonov regularisation (possible only
/// for degenerate inputs, e.g. NaN contamination or an all-zero column set)
/// is reported as [`LinAlgError::RankDeficient`].
pub fn try_lstsq_complex(a: &CMat, b: &[c64]) -> Result<Vec<c64>, LinAlgError> {
    assert_eq!(a.rows(), b.len());
    let ah = a.conj_transpose();
    try_solve_normal(ah.matmul(a), &ah.matvec(b))
}

/// Solves the normal equations `gram·x = rhs` of a least-squares problem
/// (`gram = aᴴa`, `rhs = aᴴb`) the way [`try_lstsq_complex`] does, for
/// callers that form both in a smaller space: a Tikhonov whisper of `10⁻¹³`
/// times the largest diagonal magnitude, then [`try_solve_complex`], a
/// vanishing pivot reported as [`LinAlgError::RankDeficient`].
pub fn try_solve_normal(gram: CMat, rhs: &[c64]) -> Result<Vec<c64>, LinAlgError> {
    // Tikhonov whisper to keep near-rank-deficient fits finite.
    let mut g = gram;
    let scale = (0..g.rows())
        .map(|i| g[(i, i)].abs())
        .fold(0.0f64, f64::max);
    let eps = scale.max(1e-300) * 1e-13;
    for i in 0..g.rows() {
        let d = g[(i, i)] + c64::from_real(eps);
        g[(i, i)] = d;
    }
    let cols = g.cols();
    try_solve_complex(&g, rhs).map_err(|e| match e {
        LinAlgError::Singular { pivot } => LinAlgError::RankDeficient { pivot, cols },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = CMat::identity(3);
        let b = vec![c64::new(1.0, 2.0), c64::new(-1.0, 0.5), c64::new(0.0, -3.0)];
        let x = try_solve_complex(&a, &b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((*xi - *bi).abs() < 1e-15);
        }
    }

    #[test]
    fn solves_known_complex_system() {
        // a = [[1, i], [-i, 2]]; pick x, compute b = a x, recover x.
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c64::ONE;
        a[(0, 1)] = c64::I;
        a[(1, 0)] = -c64::I;
        a[(1, 1)] = c64::from_real(2.0);
        let x_true = vec![c64::new(1.0, 1.0), c64::new(-2.0, 0.5)];
        let b = a.matvec(&x_true);
        let x = try_solve_complex(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-13);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 1)] = c64::ONE;
        a[(1, 0)] = c64::ONE;
        let b = vec![c64::from_real(3.0), c64::from_real(5.0)];
        let x = try_solve_complex(&a, &b).unwrap();
        assert!((x[0] - c64::from_real(5.0)).abs() < 1e-14);
        assert!((x[1] - c64::from_real(3.0)).abs() < 1e-14);
    }

    #[test]
    fn lstsq_exact_on_consistent_tall_system() {
        let a = CMat::from_fn(5, 2, |i, j| c64::new((i + j) as f64, (i as f64) * 0.3));
        let x_true = vec![c64::new(0.5, -1.0), c64::new(2.0, 0.25)];
        let b = a.matvec(&x_true);
        let x = try_lstsq_complex(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn try_solve_reports_singularity_as_error() {
        let a = CMat::zeros(2, 2);
        let b = vec![c64::ONE, c64::ONE];
        match try_solve_complex(&a, &b) {
            Err(LinAlgError::Singular { pivot }) => assert_eq!(pivot, 0),
            other => panic!("expected Singular, got {other:?}"),
        }
        // A rank-1 system fails at the second elimination column.
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = c64::ONE;
        a[(0, 1)] = c64::from_real(2.0);
        a[(1, 0)] = c64::from_real(3.0);
        a[(1, 1)] = c64::from_real(6.0);
        match try_solve_complex(&a, &b) {
            Err(LinAlgError::Singular { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn try_lstsq_survives_rank_deficiency_via_tikhonov() {
        // Two identical columns: the raw Gram is singular, but the Tikhonov
        // whisper keeps the regularised solve finite.
        let a = CMat::from_fn(6, 2, |i, _| c64::from_real(i as f64 + 1.0));
        let b: Vec<c64> = (0..6).map(|i| c64::from_real(i as f64)).collect();
        let x = try_lstsq_complex(&a, &b).unwrap();
        assert!(x.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
        // NaN contamination is the one thing it cannot repair.
        let mut bad = a.clone();
        bad[(0, 0)] = c64::new(f64::NAN, 0.0);
        match try_lstsq_complex(&bad, &b) {
            Err(LinAlgError::RankDeficient { cols, .. }) => assert_eq!(cols, 2),
            other => panic!("expected RankDeficient, got {other:?}"),
        }
    }
}
