//! Optimal singular value hard threshold (Gavish & Donoho 2014).
//!
//! The paper truncates every SVD in the mrDMD recursion at the optimal hard
//! threshold ("SVHT"), which for an `m × n` matrix with unknown noise level is
//! `τ = ω(β) · median(σ)` where `β = min(m,n)/max(m,n)` and `ω(β)` is the
//! optimal coefficient. We use the standard cubic approximation of `ω` from
//! the paper (accurate to ~0.02 over β ∈ (0,1]).

/// Approximate optimal coefficient `ω(β)` for *unknown* noise level:
/// `τ = ω(β) · median(σ)`.
pub fn omega_approx(beta: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&beta),
        "aspect ratio must be in (0, 1]"
    );
    0.56 * beta.powi(3) - 0.95 * beta * beta + 1.82 * beta + 1.43
}

/// Computes the SVHT cutoff for singular values `s` (non-increasing) of an
/// `rows × cols` matrix with unknown noise, and returns the retained rank.
///
/// Always retains at least one triplet when any singular value is positive,
/// matching the reference implementations (a DMD with zero modes is useless).
pub fn svht_rank(s: &[f64], rows: usize, cols: usize) -> usize {
    if s.is_empty() || s[0] <= 0.0 {
        return 0;
    }
    let (m, n) = (rows.min(cols) as f64, rows.max(cols) as f64);
    let beta = m / n;
    let med = median_sorted_desc(s);
    let tau = omega_approx(beta) * med;
    let r = s.iter().take_while(|&&x| x > tau).count();
    r.max(1)
}

/// Median of a slice already sorted in non-increasing order.
fn median_sorted_desc(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_square_matrix_matches_published_value() {
        // Gavish & Donoho report ω(1) ≈ 2.858 for square matrices.
        assert!((omega_approx(1.0) - 2.86).abs() < 0.01);
    }

    #[test]
    fn strong_signal_survives_threshold() {
        // Three big values over a noise floor.
        let mut s = vec![100.0, 80.0, 60.0];
        s.extend(std::iter::repeat_n(1.0, 97));
        let r = svht_rank(&s, 200, 100);
        assert!((3..10).contains(&r), "rank {r}");
    }

    #[test]
    fn pure_noise_keeps_at_least_one() {
        let s = vec![1.02, 1.01, 1.0, 0.99, 0.98];
        let r = svht_rank(&s, 100, 5);
        assert!(r >= 1);
    }

    #[test]
    fn zero_spectrum_gives_zero_rank() {
        assert_eq!(svht_rank(&[0.0, 0.0], 10, 2), 0);
        assert_eq!(svht_rank(&[], 10, 2), 0);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median_sorted_desc(&[3.0, 2.0, 1.0]), 2.0);
        assert_eq!(median_sorted_desc(&[4.0, 3.0, 2.0, 1.0]), 2.5);
    }
}
