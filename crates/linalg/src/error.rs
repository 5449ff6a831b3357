//! Typed failure reporting for the fallible numerical kernels.
//!
//! Dense kernels on adversarial inputs (defective matrices, clustered
//! spectra, rank-collapsed batches) can exhaust their iteration budgets or
//! meet exactly-singular pivots. The `try_` entry points (`try_eig_real`,
//! `try_svd`, `IncrementalSvd::try_update`, `try_solve_complex`,
//! `try_lstsq_complex`) surface those outcomes as a [`LinAlgError`] instead
//! of panicking, after first walking a deterministic escalation ladder
//! (documented on each kernel). Errors carry enough state for the caller to
//! degrade gracefully — the eigen solver even hands back its partially
//! deflated Schur factors so converged eigenvalues are not lost.

use crate::cmat::CMat;

/// The partially deflated Schur state of a failed QR iteration.
///
/// `t` and `q` hold the working factors of the **last** escalation attempt
/// (after a restart this is the balanced similarity of the input, which has
/// the same spectrum). The trailing `converged` diagonal entries of `t` are
/// fully deflated eigenvalues; the leading block is still active.
#[derive(Clone, Debug)]
pub struct PartialSchur {
    /// Working triangular factor; upper Hessenberg in the active block.
    pub t: CMat,
    /// Accumulated unitary similarity.
    pub q: CMat,
    /// Number of trailing eigenvalues that deflated before the budget ran out.
    pub converged: usize,
}

/// A numerical kernel failed after exhausting its escalation ladder.
#[derive(Clone, Debug)]
pub enum LinAlgError {
    /// The shifted QR iteration did not reduce the matrix to Schur form
    /// within its (already escalated) iteration budget.
    EigNonConvergence {
        /// Total QR iterations spent across all escalation rungs.
        iterations: usize,
        /// Hessenberg restarts attempted (0 or 1).
        restarts: usize,
        /// The partially deflated state of the final attempt.
        partial: Box<PartialSchur>,
    },
    /// The one-sided Jacobi sweep loop hit its (doubled) sweep budget with
    /// off-diagonal mass still above tolerance.
    SvdNonConvergence {
        /// Sweeps performed, including the escalation retry.
        sweeps: usize,
        /// Final relative off-diagonal residual `max |gᵢⱼ|/√(gᵢᵢ·gⱼⱼ)`.
        off_diagonal: f64,
    },
    /// An incremental SVD update left the left basis measurably
    /// non-orthonormal even after re-orthonormalisation.
    OrthogonalityDrift {
        /// Measured drift `‖UᵀU − I‖_F` after the repair pass.
        drift: f64,
        /// The drift tolerance that was breached.
        tolerance: f64,
    },
    /// The symmetric tridiagonal QL iteration left an eigenvalue unsplit
    /// after its per-eigenvalue sweep cap (NaN or infinite input).
    SymEigNonConvergence {
        /// Index of the eigenvalue that did not split off.
        index: usize,
        /// QL sweeps spent over all eigenvalues.
        iterations: usize,
    },
    /// Gaussian elimination met an exactly zero pivot: the system is
    /// singular to working precision.
    Singular {
        /// Elimination column at which the pivot vanished.
        pivot: usize,
    },
    /// A least-squares system was rank deficient beyond what Tikhonov
    /// regularisation could repair.
    RankDeficient {
        /// Column of the Gram system at which elimination broke down.
        pivot: usize,
        /// Number of unknowns in the system.
        cols: usize,
    },
}

impl std::fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinAlgError::EigNonConvergence {
                iterations,
                restarts,
                partial,
            } => write!(
                f,
                "eig QR iteration failed to converge after {iterations} iterations \
                 ({restarts} restart(s), {} of {} eigenvalues deflated)",
                partial.converged,
                partial.t.rows()
            ),
            LinAlgError::SvdNonConvergence {
                sweeps,
                off_diagonal,
            } => write!(
                f,
                "Jacobi SVD failed to converge after {sweeps} sweeps \
                 (off-diagonal residual {off_diagonal:.3e})"
            ),
            LinAlgError::SymEigNonConvergence { index, iterations } => write!(
                f,
                "symmetric QL iteration left eigenvalue {index} unsplit \
                 after {iterations} sweeps"
            ),
            LinAlgError::OrthogonalityDrift { drift, tolerance } => write!(
                f,
                "incremental SVD basis drift {drift:.3e} exceeds tolerance {tolerance:.3e} \
                 after re-orthonormalisation"
            ),
            LinAlgError::Singular { pivot } => {
                write!(f, "singular system: zero pivot at column {pivot}")
            }
            LinAlgError::RankDeficient { pivot, cols } => write!(
                f,
                "rank-deficient least-squares system: Gram pivot {pivot} of {cols} vanished"
            ),
        }
    }
}

impl std::error::Error for LinAlgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinAlgError::SvdNonConvergence {
            sweeps: 120,
            off_diagonal: 3e-9,
        };
        let s = e.to_string();
        assert!(s.contains("120 sweeps"), "{s}");
        assert!(s.contains("3.000e-9"), "{s}");
        let e = LinAlgError::Singular { pivot: 4 };
        assert!(e.to_string().contains("column 4"));
    }
}
