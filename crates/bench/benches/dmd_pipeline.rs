//! Benchmarks of the decomposition pipeline: per-window DMD, the per-node
//! fit of the tree, the batch multiresolution fit, and the streaming update.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imrdmd::prelude::*;
use mrdmd_bench::Workloads;
use std::hint::black_box;

fn bench_dmd(c: &mut Criterion) {
    let mut g = c.benchmark_group("dmd_fit");
    g.sample_size(20);
    let scenario = Workloads::sc_log(256, 400, 3);
    let data = scenario.generate(0, 400);
    for cols in [16usize, 64, 200] {
        let window = data.cols_range(0, cols);
        g.bench_with_input(BenchmarkId::from_parameter(cols), &window, |bch, w| {
            bch.iter(|| {
                black_box(Dmd::fit(
                    w,
                    &DmdConfig {
                        dt: scenario.dt(),
                        rank: RankSelection::Svht,
                        ..Default::default()
                    },
                ))
            });
        });
    }
    g.finish();
}

/// One tree node of the paper's Table I shape: 1000 series over 17 and 21
/// decimated columns under SVHT, the tall panels whose exact fit takes the
/// method of snapshots. `householder` is the same fit through the
/// QR-preconditioned Jacobi SVD with every left singular vector formed, the
/// route such panels took before.
fn bench_node_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("dmd_node_fit");
    g.sample_size(20);
    let scenario = Workloads::sc_log(1000, 2000, 3);
    let data = scenario.generate(0, 2000);
    for cols in [17usize, 21] {
        let step = 2000 / cols;
        let panel = data.subsample_cols_range(0, step * cols, step);
        let cfg = DmdConfig {
            dt: scenario.dt() * step as f64,
            rank: RankSelection::Svht,
            ..Default::default()
        };
        let id = format!("svht_1000x{cols}");
        g.bench_with_input(BenchmarkId::new("snapshots", &id), &panel, |bch, d| {
            bch.iter(|| black_box(Dmd::try_fit(d, &cfg)))
        });
        g.bench_with_input(BenchmarkId::new("householder", &id), &panel, |bch, d| {
            bch.iter(|| {
                let t = d.cols();
                let svd = hpc_linalg::svd(&d.cols_range(0, t - 1));
                black_box(Dmd::try_from_svd(&svd, &d.cols_range(1, t), d, &cfg))
            })
        });
    }
    g.finish();
}

fn bench_mrdmd_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("mrdmd_fit");
    g.sample_size(10);
    let scenario = Workloads::sc_log(256, 2048, 3);
    let data = scenario.generate(0, 2048);
    let cfg = Workloads::imrdmd_config(&scenario, 5).mr;
    for t in [512usize, 1024, 2048] {
        let window = data.cols_range(0, t);
        g.bench_with_input(BenchmarkId::from_parameter(t), &window, |bch, w| {
            bch.iter(|| black_box(MrDmd::fit(w, &cfg)));
        });
    }
    g.finish();
}

fn bench_partial_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("imrdmd_partial_fit");
    g.sample_size(10);
    let scenario = Workloads::sc_log(256, 2304, 3);
    let data = scenario.generate(0, 2304);
    let cfg = Workloads::imrdmd_config(&scenario, 5);
    for t0 in [512usize, 1024, 2048] {
        let primed = IMrDmd::fit(&data.cols_range(0, t0), &cfg);
        let batch = data.cols_range(t0, t0 + 256);
        g.bench_with_input(BenchmarkId::new("add256", t0), &t0, |bch, _| {
            bch.iter(|| {
                let mut m = primed.clone();
                m.partial_fit(&batch);
                black_box(m.n_modes())
            });
        });
    }
    g.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconstruction");
    g.sample_size(10);
    let scenario = Workloads::sc_log(256, 1024, 3);
    let data = scenario.generate(0, 1024);
    let cfg = Workloads::imrdmd_config(&scenario, 5).mr;
    let m = MrDmd::fit(&data, &cfg);
    g.bench_function("full_1024", |bch| {
        bch.iter(|| black_box(m.reconstruct()));
    });
    g.bench_function("range_128", |bch| {
        bch.iter(|| black_box(m.reconstruct_range(448, 576)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dmd,
    bench_node_fit,
    bench_mrdmd_fit,
    bench_partial_fit,
    bench_reconstruction
);
criterion_main!(benches);
