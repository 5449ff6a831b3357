//! GEMM kernel sweep: the blocked, register-tiled kernel against the seed's
//! naive row-major triple loop, over square sizes and the paper's tall-skinny
//! telemetry shapes (P × T = 4392 × 150 per assessment window).
//!
//! The `naive_*` entries re-implement the pre-kernel `matmul` (i-k-j order
//! with a zero-skip test) so the speedup of the packed kernel is measured
//! against the exact code it replaced. The complex DMD shapes run the
//! dispatched micro-kernel against its scalar tier, which is bitwise the
//! same.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpc_linalg::{c64, with_scalar_kernels, CMat, Mat};
use std::hint::black_box;

fn test_matrix(m: usize, n: usize) -> Mat {
    Mat::from_fn(m, n, |i, j| {
        let x = (i as f64 * 0.7 + j as f64 * 0.3).sin();
        x + 1.0 / (1.0 + (i + 2 * j) as f64)
    })
}

/// The seed implementation of `Mat::matmul`: row-major i-k-j accumulation
/// with a per-element zero skip and no blocking or packing.
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows());
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (k, &av) in a.row(i).iter().enumerate() {
            if av != 0.0 {
                let brow = b.row(k);
                for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
    out
}

/// The seed implementation of `Mat::t_matmul`: k-outer accumulation over
/// `selfᵀ · b` with the same zero-skip test.
fn naive_t_matmul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.rows(), b.rows());
    let mut out = Mat::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        let arow = a.row(k);
        let brow = b.row(k);
        for (i, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                for (o, &bv) in out.row_mut(i).iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
    out
}

fn bench_square(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_square");
    g.sample_size(10);
    for n in [64usize, 128, 256, 512] {
        let a = test_matrix(n, n);
        let b = test_matrix(n, n);
        g.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| black_box(naive_matmul(&a, &b)));
        });
    }
    g.finish();
}

fn bench_paper_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_paper_shapes");
    g.sample_size(10);
    // One assessment window of the paper's LLNL telemetry: P = 4392 sensors
    // (rack-level power), T = 150 time points.
    let snap = test_matrix(4392, 150);

    // Gram-style product AᵀA (the first step of the method-of-snapshots SVD).
    g.bench_function("t_matmul_4392x150/blocked", |bch| {
        bch.iter(|| black_box(snap.t_matmul(&snap)));
    });
    g.bench_function("t_matmul_4392x150/naive", |bch| {
        bch.iter(|| black_box(naive_t_matmul(&snap, &snap)));
    });

    // Basis expansion U·K: tall-skinny times small square, the shape of the
    // incremental-SVD rotation U' = [U E]·U_K.
    let u = test_matrix(4392, 32);
    let k = test_matrix(32, 150);
    g.bench_function("matmul_4392x32_32x150/blocked", |bch| {
        bch.iter(|| black_box(u.matmul(&k)));
    });
    g.bench_function("matmul_4392x32_32x150/naive", |bch| {
        bch.iter(|| black_box(naive_matmul(&u, &k)));
    });

    // Low-rank reconstruction U·Σ·Vᵀ shape without the materialised transpose.
    let v = test_matrix(150, 32);
    g.bench_function("matmul_nt_4392x32_150x32/blocked", |bch| {
        bch.iter(|| black_box(u.matmul_nt(&v)));
    });
    g.bench_function("matmul_nt_4392x32_150x32/naive", |bch| {
        bch.iter(|| black_box(naive_matmul(&u, &v.transpose())));
    });
    g.finish();
}

fn bench_complex_dmd_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("cgemm_dmd_shapes");
    g.sample_size(10);
    // One tree node of the paper's Table I shape: P = 1000 series and an
    // SVHT rank of 7. Exact modes Φ = B·W lift the real B to complex.
    let b = CMat::from_real(&test_matrix(1000, 7));
    let w = CMat::from_fn(7, 7, |i, j| {
        c64::new((i as f64 - j as f64).cos(), 0.1 * j as f64)
    });
    g.bench_function("modes_1000x7_7x7/dispatched", |bch| {
        bch.iter(|| black_box(b.matmul(&w)));
    });
    g.bench_function("modes_1000x7_7x7/scalar", |bch| {
        bch.iter(|| with_scalar_kernels(|| black_box(b.matmul(&w))));
    });
    // The amplitude Gram ΦᴴΦ: depth 1000 spans four KC blocks.
    let phi = b.matmul(&w);
    let phi_h = phi.conj_transpose();
    g.bench_function("gram_7x1000_1000x7/dispatched", |bch| {
        bch.iter(|| black_box(phi_h.matmul(&phi)));
    });
    g.bench_function("gram_7x1000_1000x7/scalar", |bch| {
        bch.iter(|| with_scalar_kernels(|| black_box(phi_h.matmul(&phi))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_square,
    bench_paper_shapes,
    bench_complex_dmd_shapes
);
criterion_main!(benches);
