//! Synthetic job logs.
//!
//! The paper's job log records which application ran on which nodes and when
//! (hundreds of MB/year of scheduler records). The scenarios here synthesise
//! a population of jobs — contiguous node allocations with a thermal
//! intensity and a dominant workload oscillation — which both drives the
//! environment-log generator (job heat) and serves as the alignment target
//! for the case studies (which nodes belong to which project).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scheduled job.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Job {
    /// Scheduler id.
    pub id: u32,
    /// Owning project/allocation name.
    pub project: String,
    /// First node of the contiguous allocation.
    pub first_node: usize,
    /// Number of allocated nodes.
    pub n_nodes: usize,
    /// First snapshot the job is running.
    pub start_step: usize,
    /// First snapshot after the job ends.
    pub end_step: usize,
    /// Thermal load the job adds to its nodes (°C at steady state).
    pub intensity: f64,
    /// Dominant workload oscillation period in seconds.
    pub period_s: f64,
}

impl Job {
    /// True if `node` belongs to this job's allocation.
    pub fn covers(&self, node: usize) -> bool {
        node >= self.first_node && node < self.first_node + self.n_nodes
    }

    /// Allocated node indices.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        self.first_node..self.first_node + self.n_nodes
    }
}

/// A collection of jobs plus a per-node index for fast lookup.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobLog {
    /// All jobs, sorted by start step.
    pub jobs: Vec<Job>,
    node_index: Vec<Vec<u32>>,
}

impl JobLog {
    /// Builds the log (and its node index) from a job list.
    pub fn new(mut jobs: Vec<Job>, n_nodes: usize) -> JobLog {
        jobs.sort_by_key(|j| j.start_step);
        let mut node_index = vec![Vec::new(); n_nodes];
        for (k, job) in jobs.iter().enumerate() {
            for n in job.nodes() {
                if n < n_nodes {
                    node_index[n].push(k as u32);
                }
            }
        }
        JobLog { jobs, node_index }
    }

    /// Synthesises `n_jobs` jobs over `n_nodes` nodes and `total_steps`
    /// snapshots, deterministically from `seed`.
    pub fn synthesize(n_nodes: usize, total_steps: usize, n_jobs: usize, seed: u64) -> JobLog {
        const PROJECTS: [&str; 5] = [
            "climate-ens",
            "qcd-lattice",
            "cfd-turbines",
            "genomics-asm",
            "fusion-mhd",
        ];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4a6f_624c_6f67);
        let mut jobs = Vec::with_capacity(n_jobs);
        for id in 0..n_jobs {
            let max_alloc = (n_nodes / 4).max(1);
            let min_alloc = (n_nodes / 32).max(1);
            let alloc = rng.random_range(min_alloc..=max_alloc);
            let first = rng.random_range(0..n_nodes.saturating_sub(alloc).max(1));
            let start = rng.random_range(0..(total_steps * 3 / 4).max(1));
            let dur = rng.random_range((total_steps / 8).max(2)..=(total_steps / 2).max(3));
            jobs.push(Job {
                id: id as u32,
                project: PROJECTS[rng.random_range(0..PROJECTS.len())].to_string(),
                first_node: first,
                n_nodes: alloc,
                start_step: start,
                end_step: (start + dur).min(total_steps),
                intensity: rng.random_range(8.0..22.0),
                period_s: rng.random_range(180.0..900.0),
            });
        }
        JobLog::new(jobs, n_nodes)
    }

    /// Jobs whose allocation includes `node` (any time).
    pub fn jobs_on_node(&self, node: usize) -> impl Iterator<Item = &Job> {
        (self.job_indices_on_node(node).iter()).map(move |&k| &self.jobs[k as usize])
    }

    /// Indices into [`jobs`](Self::jobs) of the jobs on `node`, in the order
    /// [`jobs_on_node`](Self::jobs_on_node) yields them.
    pub(crate) fn job_indices_on_node(&self, node: usize) -> &[u32] {
        self.node_index.get(node).map_or(&[], Vec::as_slice)
    }

    /// All nodes used by the given project.
    pub fn project_nodes(&self, project: &str) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .jobs
            .iter()
            .filter(|j| j.project == project)
            .flat_map(|j| j.nodes())
            .filter(|&n| n < self.node_index.len())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Distinct project names, sorted.
    pub fn projects(&self) -> Vec<String> {
        let mut p: Vec<String> = self.jobs.iter().map(|j| j.project.clone()).collect();
        p.sort();
        p.dedup();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let a = JobLog::synthesize(100, 1000, 10, 7);
        let b = JobLog::synthesize(100, 1000, 10, 7);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.first_node, y.first_node);
            assert_eq!(x.start_step, y.start_step);
        }
        let c = JobLog::synthesize(100, 1000, 10, 8);
        assert!(a
            .jobs
            .iter()
            .zip(&c.jobs)
            .any(|(x, y)| x.first_node != y.first_node || x.start_step != y.start_step));
    }

    #[test]
    fn jobs_stay_in_bounds() {
        let log = JobLog::synthesize(64, 500, 20, 3);
        for j in &log.jobs {
            assert!(j.first_node + j.n_nodes <= 64 || j.n_nodes <= 64);
            assert!(j.end_step <= 500);
            assert!(j.start_step < j.end_step);
            assert!(j.intensity > 0.0);
        }
    }

    #[test]
    fn node_index_agrees_with_covers() {
        let log = JobLog::synthesize(50, 400, 12, 11);
        for node in 0..50 {
            let via_index: Vec<u32> = log.jobs_on_node(node).map(|j| j.id).collect();
            let via_scan: Vec<u32> = log
                .jobs
                .iter()
                .filter(|j| j.covers(node))
                .map(|j| j.id)
                .collect();
            assert_eq!(via_index, via_scan);
        }
    }

    #[test]
    fn project_nodes_dedup_and_sort() {
        let jobs = vec![
            Job {
                id: 0,
                project: "a".into(),
                first_node: 5,
                n_nodes: 3,
                start_step: 0,
                end_step: 10,
                intensity: 1.0,
                period_s: 100.0,
            },
            Job {
                id: 1,
                project: "a".into(),
                first_node: 6,
                n_nodes: 3,
                start_step: 20,
                end_step: 30,
                intensity: 1.0,
                period_s: 100.0,
            },
        ];
        let log = JobLog::new(jobs, 20);
        assert_eq!(log.project_nodes("a"), vec![5, 6, 7, 8]);
        assert!(log.project_nodes("missing").is_empty());
        assert_eq!(log.projects(), vec!["a".to_string()]);
    }
}
