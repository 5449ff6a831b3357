use hpc_linalg::*;
use imrdmd::prelude::*;
use mrdmd_bench::Workloads;
use std::time::Instant;

fn main() {
    for t in [8000usize, 12000] {
        let scenario = Workloads::sc_log(1000, t, 42);
        let cfg = Workloads::imrdmd_config(&scenario, 6);
        let data = scenario.generate(0, t);
        // replicate IMrDmd::fit phases
        let step = cfg.mr.subsample_step(t);
        let t0 = Instant::now();
        let sub = data.subsample_cols(step);
        println!(
            "T={t} subsample {:?} -> {}x{}",
            t0.elapsed(),
            sub.rows(),
            sub.cols()
        );
        let x = sub.cols_range(0, sub.cols() - 1);
        let t0 = Instant::now();
        let isvd = IncrementalSvd::new(&x, 48);
        println!("  isvd new {:?} rank {}", t0.elapsed(), isvd.rank());
        let t0 = Instant::now();
        let y = sub.cols_range(1, sub.cols());
        let dmd = imrdmd::dmd::Dmd::try_from_svd(
            &isvd.to_svd(),
            &y,
            &sub,
            &imrdmd::dmd::DmdConfig {
                dt: cfg.mr.dt * step as f64,
                rank: cfg.mr.rank,
                ..Default::default()
            },
        )
        .expect("root DMD fit");
        println!("  root dmd {:?} rank {}", t0.elapsed(), dmd.rank());
        let t0 = Instant::now();
        let rec = dmd.reconstruct(10);
        println!("  recon10 {:?} {}", t0.elapsed(), rec.fro_norm());
        let t0 = Instant::now();
        let full = IMrDmd::fit(&data, &cfg);
        println!(
            "  imrdmd fit total {:?} modes {}",
            t0.elapsed(),
            full.n_modes()
        );
    }
}
