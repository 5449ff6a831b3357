//! Property-based tests of the linear-algebra invariants on random inputs.

use hpc_linalg::*;
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-10, 10].
fn mat_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Mat> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Mat::from_vec(r, c, data))
    })
}

fn orthonormality_error(q: &Mat) -> f64 {
    q.t_matmul(q).sub(&Mat::identity(q.cols())).fro_norm()
}

/// Strategy: a chain of three multiplicable matrices `(m×k)·(k×n)·(n×l)`.
fn chain_strategy() -> impl Strategy<Value = (Mat, Mat, Mat)> {
    (1..=5usize, 1..=5usize, 1..=5usize, 1..=4usize).prop_flat_map(|(m, k, n, l)| {
        (
            proptest::collection::vec(-10.0f64..10.0, m * k),
            proptest::collection::vec(-10.0f64..10.0, k * n),
            proptest::collection::vec(-10.0f64..10.0, n * l),
        )
            .prop_map(move |(a, b, c)| {
                (
                    Mat::from_vec(m, k, a),
                    Mat::from_vec(k, n, b),
                    Mat::from_vec(n, l, c),
                )
            })
    })
}

/// Strategy: `a (m×k)` plus two same-shape `(k×n)` matrices.
fn distrib_strategy() -> impl Strategy<Value = (Mat, Mat, Mat)> {
    (1..=5usize, 1..=5usize, 1..=5usize).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-10.0f64..10.0, m * k),
            proptest::collection::vec(-10.0f64..10.0, k * n),
            proptest::collection::vec(-10.0f64..10.0, k * n),
        )
            .prop_map(move |(a, b, c)| {
                (
                    Mat::from_vec(m, k, a),
                    Mat::from_vec(k, n, b),
                    Mat::from_vec(k, n, c),
                )
            })
    })
}

/// Strategy for the sketched-SVD accuracy budget: a (shape, rank,
/// oversample, power-iteration, seed) grid plus the factor entries of a
/// planted low-rank matrix.
#[allow(clippy::type_complexity)]
fn sketch_case_strategy(
) -> impl Strategy<Value = (usize, usize, usize, usize, usize, u64, Vec<f64>, Vec<f64>)> {
    (
        60..=120usize,
        40..=80usize,
        2..=6usize,
        // Oversample grid {4, 8}.
        0..=1usize,
        0..=2usize,
        0u64..=u64::MAX,
    )
        .prop_flat_map(|(m, n, r, os_sel, p, seed)| {
            let os = if os_sel == 0 { 4 } else { 8 };
            (
                proptest::collection::vec(-1.0f64..1.0, m * r),
                proptest::collection::vec(-1.0f64..1.0, r * n),
            )
                .prop_map(move |(b, c)| (m, n, r, os, p, seed, b, c))
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn sketched_svd_meets_halko_accuracy_budget(
        (m, n, r, os, p, seed, bdat, cdat) in sketch_case_strategy()
    ) {
        let b = Mat::from_vec(m, r, bdat);
        let c = Mat::from_vec(r, n, cdat);
        // Planted rank-r signal plus a small structured noise floor, so the
        // rank-r tail is non-trivial and the budget multiplier is exercised.
        let noise = Mat::from_fn(m, n, |i, j| {
            1e-3 * ((i * 31 + j * 17 + (seed % 97) as usize) as f64).sin()
        });
        let a = b.matmul(&c).add(&noise);
        let f = svd(&a);
        let k = r.min(f.s.len());
        let err_k: f64 = f.s[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        let g = svd_sketched(&a, r, os, p, seed);
        prop_assert!(g.s.len() <= r, "truncation overshoot: {} > {r}", g.s.len());
        let err_sk = g.reconstruct().fro_dist(&a);
        // Halko et al. (2011) expectation bound with slack: the tail
        // multiplier tightens as power iterations sharpen the range.
        let budget = match p { 0 => 30.0, 1 => 6.0, _ => 4.0 };
        prop_assert!(
            err_sk <= budget * err_k + 1e-8 * a.fro_norm().max(1.0),
            "m={m} n={n} r={r} os={os} p={p}: sketched {err_sk} vs exact tail {err_k}"
        );
    }

    #[test]
    fn matmul_associativity((a, b, c) in chain_strategy()) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        let scale = left.fro_norm().max(1.0);
        prop_assert!(left.fro_dist(&right) < 1e-9 * scale);
    }

    #[test]
    fn matmul_distributes_over_addition((a, b, c) in distrib_strategy()) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.fro_dist(&rhs) < 1e-10 * lhs.fro_norm().max(1.0));
    }

    #[test]
    fn transpose_reverses_product((a, b, _) in chain_strategy()) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.fro_dist(&rhs) < 1e-10 * lhs.fro_norm().max(1.0));
    }

    #[test]
    fn qr_invariants(a in mat_strategy(10, 6)) {
        let f = qr(&a);
        prop_assert!(f.q.matmul(&f.r).fro_dist(&a) < 1e-9 * a.fro_norm().max(1.0));
        // R upper triangular.
        for i in 0..f.r.rows() {
            for j in 0..i.min(f.r.cols()) {
                prop_assert!(f.r[(i, j)].abs() < 1e-12);
            }
        }
        prop_assert!(orthonormality_error(&f.q) < 1e-9);
    }

    #[test]
    fn svd_invariants(a in mat_strategy(10, 8)) {
        let f = svd(&a);
        // Reconstruction, orthonormality, ordering, non-negativity.
        prop_assert!(f.reconstruct().fro_dist(&a) < 1e-8 * a.fro_norm().max(1.0));
        prop_assert!(f.s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        prop_assert!(f.s.iter().all(|&s| s >= 0.0));
        // Frobenius norm equals the ℓ2 norm of the spectrum.
        let spec_norm = f.s.iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((spec_norm - a.fro_norm()).abs() < 1e-8 * a.fro_norm().max(1.0));
    }

    #[test]
    fn svd_operator_norm_bounds_matvec(
        a in (1..=8usize).prop_flat_map(|r| {
            proptest::collection::vec(-10.0f64..10.0, r * 6)
                .prop_map(move |d| Mat::from_vec(r, 6, d))
        }),
        v in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let f = svd(&a);
        let sigma_max = f.s.first().copied().unwrap_or(0.0);
        let av = a.matvec(&v);
        let av_norm = av.iter().map(|x| x * x).sum::<f64>().sqrt();
        let v_norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(av_norm <= sigma_max * v_norm + 1e-9);
    }

    #[test]
    fn eig_residual_and_trace(n in 2usize..8, data in proptest::collection::vec(-5.0f64..5.0, 64)) {
        let a = Mat::from_fn(n, n, |i, j| data[(i * n + j) % data.len()]);
        let e = eig_real(&a);
        // Trace = Σλ.
        let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: c64 = e.values.iter().copied().sum();
        prop_assert!((sum.re - tr).abs() < 1e-6 * tr.abs().max(1.0));
        prop_assert!(sum.im.abs() < 1e-6 * tr.abs().max(1.0));
        // Eigenpair residual.
        let aw = CMat::from_real(&a).matmul(&e.vectors);
        let wl = e.vectors.scale_cols(&e.values);
        prop_assert!(aw.sub(&wl).fro_norm() < 1e-6 * a.fro_norm().max(1.0));
    }

    #[test]
    fn isvd_matches_batch_on_random_split(a in mat_strategy(12, 16), split in 2usize..14) {
        prop_assume!(split < a.cols());
        let rank = a.rows().min(a.cols());
        let mut inc = IncrementalSvd::new(&a.cols_range(0, split), rank);
        inc.update(&a.cols_range(split, a.cols()));
        // Full-rank incremental == batch to working precision.
        prop_assert!(inc.reconstruct().fro_dist(&a) < 1e-7 * a.fro_norm().max(1.0));
        prop_assert!(inc.orthogonality_drift() < 1e-7);
    }

    #[test]
    fn solve_complex_roundtrip(n in 1usize..6, data in proptest::collection::vec(-3.0f64..3.0, 72)) {
        let a = CMat::from_fn(n, n, |i, j| {
            let base = (i * n + j) * 2;
            c64::new(data[base % data.len()], data[(base + 1) % data.len()])
        });
        // Make it diagonally dominant so it is comfortably non-singular.
        let a = {
            let mut m = a;
            for i in 0..n {
                let d = m[(i, i)] + c64::from_real(10.0);
                m[(i, i)] = d;
            }
            m
        };
        let x_true: Vec<c64> = (0..n).map(|k| c64::new(data[k % data.len()], -data[(k + 7) % data.len()])).collect();
        let b = a.matvec(&x_true);
        let x = try_solve_complex(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((*xi - *ti).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_roundtrip_random(signal in proptest::collection::vec(-5.0f64..5.0, 64)) {
        let buf: Vec<c64> = signal.iter().map(|&x| c64::from_real(x)).collect();
        let back = ifft(&fft(&buf));
        for (a, b) in buf.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn svht_rank_monotone_in_signal(strength in 1.0f64..100.0) {
        // Stronger leading values never decrease the retained rank.
        let weak: Vec<f64> = (0..50).map(|k| if k < 3 { 2.0 } else { 1.0 / (1.0 + k as f64 * 0.01) }).collect();
        let strong: Vec<f64> = weak.iter().enumerate().map(|(k, &v)| if k < 3 { v * strength } else { v }).collect();
        let r_weak = svht_rank(&weak, 200, 50);
        let r_strong = svht_rank(&strong, 200, 50);
        prop_assert!(r_strong >= r_weak.min(3));
    }

    #[test]
    fn pinv_is_generalised_inverse(a in mat_strategy(8, 5)) {
        let f = svd(&a);
        let pinv = f.pinv(1e-10);
        // A·A⁺·A = A (Moore–Penrose axiom 1).
        let apa = a.matmul(&pinv).matmul(&a);
        prop_assert!(apa.fro_dist(&a) < 1e-7 * a.fro_norm().max(1.0));
    }
}
