//! Shared harness: timing, workload construction, and artefact output.

use hpc_telemetry::{polaris, theta, Scenario};
use imrdmd::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Times `f` and returns elapsed seconds.
pub fn timeit<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Times `f` over `reps` repetitions and returns the mean seconds (the paper
/// averages completion times over 10 executions).
pub fn timeit_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps >= 1);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Collects experiment artefacts (report text, SVGs, JSON rows) under an
/// output directory.
pub struct ExperimentOutput {
    dir: PathBuf,
    report: String,
}

impl ExperimentOutput {
    /// Creates (and makes) the output directory.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<ExperimentOutput> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(ExperimentOutput {
            dir: dir.as_ref().to_path_buf(),
            report: String::new(),
        })
    }

    /// Appends a line to the textual report (also echoed to stdout).
    pub fn line(&mut self, s: impl AsRef<str>) {
        println!("{}", s.as_ref());
        self.report.push_str(s.as_ref());
        self.report.push('\n');
    }

    /// Writes an artefact file (SVG, JSON, …) into the output directory.
    pub fn artefact(&self, name: &str, contents: &str) -> std::io::Result<PathBuf> {
        let path = self.dir.join(name);
        fs::write(&path, contents)?;
        Ok(path)
    }

    /// Writes the accumulated report as `<name>.txt`.
    pub fn finish(self, name: &str) -> std::io::Result<PathBuf> {
        let path = self.dir.join(format!("{name}.txt"));
        fs::write(&path, &self.report)?;
        Ok(path)
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Workload constructors shared across experiments.
pub struct Workloads;

impl Workloads {
    /// A Theta-profile SC-log scenario with `n_series` single-channel node
    /// series (one temperature channel per node, as the case studies use).
    pub fn sc_log(n_series: usize, total_steps: usize, seed: u64) -> Scenario {
        let mut machine = theta().scaled(n_series);
        machine.series_per_node = 1;
        Scenario::sc_log(machine, total_steps, seed)
    }

    /// A Polaris GPU-metrics scenario with `n_series` series.
    ///
    /// GPUs come four per node, so `n_series` is rounded down to the nearest
    /// multiple of four, with at least one node (all harness callers use
    /// multiples of four). Past Polaris's 560 nodes the machine widens by
    /// whole racks ([`MachineSpec::scaled`](hpc_telemetry::MachineSpec::scaled)).
    pub fn gpu_metrics(n_series: usize, total_steps: usize, seed: u64) -> Scenario {
        Scenario::gpu_metrics(polaris().scaled(n_series / 4), total_steps, seed)
    }

    /// The paper's standard I-mrDMD configuration for a scenario.
    pub fn imrdmd_config(scenario: &Scenario, max_levels: usize) -> IMrDmdConfig {
        IMrDmdConfig {
            mr: MrDmdConfig {
                dt: scenario.dt(),
                max_levels,
                max_cycles: 2,
                rank: RankSelection::Svht,
                ..MrDmdConfig::default()
            },
            isvd_max_rank: 48,
            drift_threshold: None,
            keep_history: false,
            auto_refresh: false,
        }
    }
}

/// Formats a timing table row.
pub fn row(cols: &[String]) -> String {
    cols.iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let sc = Workloads::sc_log(100, 500, 1);
        assert_eq!(sc.n_series(), 100);
        let gpu = Workloads::gpu_metrics(100, 500, 1);
        assert_eq!(gpu.n_series(), 100);
    }

    #[test]
    fn paper_gpu_shape_is_not_capped_at_polaris() {
        assert_eq!(Workloads::gpu_metrics(5824, 8, 1).n_series(), 5824);
    }

    #[test]
    fn timing_is_positive() {
        let (secs, v) = timeit(|| (0..1000).sum::<usize>());
        assert!(secs >= 0.0);
        assert_eq!(v, 499_500);
        assert!(
            timeit_mean(2, || {
                std::hint::black_box(3 * 7);
            }) >= 0.0
        );
    }

    #[test]
    fn experiment_output_writes_files() {
        let dir = std::env::temp_dir().join("mrdmd-bench-test");
        let mut out = ExperimentOutput::new(&dir).unwrap();
        out.line("hello");
        out.artefact("x.svg", "<svg/>").unwrap();
        let p = out.finish("report").unwrap();
        assert!(p.exists());
        assert!(dir.join("x.svg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
