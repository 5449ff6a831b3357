//! Serial vs parallel mrDMD tree fitting — the worker-pool benchmark.
//!
//! Sweeps the `n_threads` knob (1 = serial, 0 = auto, plus fixed counts)
//! over the three pool-accelerated hot paths: the initial tree fit, the
//! subtree refresh, and range reconstruction. Sizes are reduced so
//! `cargo bench` stays fast; the full 1,024 × 8,000 Theta-profile row is
//! produced by `repro -- table1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imrdmd::prelude::*;
use mrdmd_bench::Workloads;
use std::hint::black_box;

const THREAD_KNOBS: &[usize] = &[1, 2, 4, 0];

fn knob_label(n: usize) -> String {
    if n == 0 {
        "auto".into()
    } else {
        format!("{n}t")
    }
}

fn bench_initial_fit(c: &mut Criterion) {
    let (n, t) = (256, 2000);
    let scenario = Workloads::sc_log(n, t, 42);
    let data = scenario.generate(0, t);
    let mut mr = Workloads::imrdmd_config(&scenario, 6).mr;
    let mut g = c.benchmark_group("parallel_tree_fit");
    g.sample_size(10);
    for &knob in THREAD_KNOBS {
        mr.n_threads = knob;
        g.bench_with_input(
            BenchmarkId::new("initial_fit", knob_label(knob)),
            &knob,
            |bch, _| {
                bch.iter(|| black_box(MrDmd::fit(&data, &mr)));
            },
        );
    }
    g.finish();
}

fn bench_refresh_and_reconstruct(c: &mut Criterion) {
    let (n, t) = (256, 2000);
    let scenario = Workloads::sc_log(n, t, 42);
    let data = scenario.generate(0, t);
    let mut cfg = Workloads::imrdmd_config(&scenario, 6);
    cfg.keep_history = true;
    let mut g = c.benchmark_group("parallel_tree_paths");
    g.sample_size(10);
    for &knob in THREAD_KNOBS {
        cfg.mr.n_threads = knob;
        let model = IMrDmd::fit(&data, &cfg);
        g.bench_with_input(
            BenchmarkId::new("refresh_subtrees", knob_label(knob)),
            &knob,
            |bch, _| {
                bch.iter(|| {
                    let mut m = model.clone();
                    m.try_refresh_subtrees().expect("history is kept");
                    black_box(m.n_modes())
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("reconstruct", knob_label(knob)),
            &knob,
            |bch, _| {
                bch.iter(|| black_box(model.reconstruct()));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_initial_fit, bench_refresh_and_reconstruct);
criterion_main!(benches);
