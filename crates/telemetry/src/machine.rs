//! Machine models for the two systems the paper evaluates on.
//!
//! - **Theta** (Cray XC40): 4,392 compute nodes in 24 racks; environment logs
//!   carry ~150 sensor readings per node every 15–30 s. We model the
//!   temperature channels (four readings of each type per node) that the
//!   paper's case studies analyse.
//! - **Polaris** (HPE Apollo 6500 Gen10+): 560 nodes × 4 NVIDIA A100 GPUs;
//!   the GPU-metrics scenario tracks per-GPU temperatures at ~3 s cadence.

use crate::layout::LayoutSpec;
use serde::{Deserialize, Serialize};

/// A physical machine: layout plus sensor geometry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable name.
    pub name: String,
    /// Physical layout (drives the rack visualization).
    pub layout: LayoutSpec,
    /// Populated compute nodes (≤ layout positions; the remainder are
    /// service/empty slots).
    pub n_nodes: usize,
    /// Telemetry series recorded per node in the scenarios built on this
    /// machine (e.g. temperature channels, or GPUs × metrics).
    pub series_per_node: usize,
    /// Sensor sampling interval in seconds.
    pub sample_interval_s: f64,
}

impl MachineSpec {
    /// Total telemetry series (`n_nodes × series_per_node`).
    pub fn n_series(&self) -> usize {
        self.n_nodes * self.series_per_node
    }

    /// The node owning telemetry series `i`.
    pub fn node_of_series(&self, i: usize) -> usize {
        i / self.series_per_node
    }

    /// A scaled copy with `n_nodes` nodes (at least one). Shrinking keeps
    /// the topology shape — the benchmark harness uses this to cut
    /// paper-sized workloads to container-sized ones. Growing past the
    /// machine fills its spare node positions first, then widens every rack
    /// row by whole racks until the nodes fit.
    pub fn scaled(&self, n_nodes: usize) -> MachineSpec {
        let mut m = self.clone();
        m.n_nodes = n_nodes.max(1);
        while m.layout.total_nodes() < m.n_nodes {
            m.layout.racks_per_row.hi += 1;
        }
        m
    }
}

/// The Theta Cray XC40 model: 24 racks (2 rows × 12), 192 node positions per
/// rack, 4,392 populated nodes, four temperature readings per node at 20 s.
pub fn theta() -> MachineSpec {
    let layout = LayoutSpec::parse("xc40 1 2 row0-1:0-11 2 c:0-2 1 s:0-15 1 b:0-3 n:0")
        .expect("static layout string is valid");
    debug_assert_eq!(layout.total_nodes(), 4608);
    MachineSpec {
        name: "theta".into(),
        layout,
        n_nodes: 4392,
        series_per_node: 4,
        sample_interval_s: 20.0,
    }
}

/// The Polaris Apollo 6500 model: 560 nodes (40 racks of 14), four A100 GPUs
/// per node, one temperature series per GPU at 3 s cadence.
pub fn polaris() -> MachineSpec {
    let layout = LayoutSpec::parse("apollo6500 1 0 row0-0:0-39 1 c:0-1 1 s:0-6 1 b:0 n:0")
        .expect("static layout string is valid");
    debug_assert_eq!(layout.total_nodes(), 560);
    MachineSpec {
        name: "polaris".into(),
        layout,
        n_nodes: 560,
        series_per_node: 4,
        sample_interval_s: 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_matches_paper_inventory() {
        let m = theta();
        assert_eq!(m.layout.total_racks(), 24);
        assert_eq!(m.n_nodes, 4392);
        assert_eq!(m.n_series(), 4392 * 4);
        assert!(m.layout.total_nodes() >= m.n_nodes);
    }

    #[test]
    fn polaris_matches_paper_inventory() {
        let m = polaris();
        assert_eq!(m.n_nodes, 560);
        assert_eq!(m.n_series(), 2240);
        assert_eq!(m.sample_interval_s, 3.0);
    }

    #[test]
    fn series_to_node_mapping() {
        let m = theta();
        assert_eq!(m.node_of_series(0), 0);
        assert_eq!(m.node_of_series(3), 0);
        assert_eq!(m.node_of_series(4), 1);
        let last = m.n_series() - 1;
        assert_eq!(m.node_of_series(last), m.n_nodes - 1);
    }

    #[test]
    fn scaling_preserves_topology() {
        let m = theta().scaled(256);
        assert_eq!(m.n_nodes, 256);
        assert_eq!(m.layout.total_racks(), 24);
        assert_eq!(m.n_series(), 1024);
    }

    #[test]
    fn scaling_up_widens_by_whole_racks() {
        // Polaris is fully populated: 1,456 nodes take 104 racks of 14.
        let m = polaris().scaled(1456);
        assert_eq!((m.n_nodes, m.n_series()), (1456, 5824));
        assert_eq!(m.layout.total_racks(), 104);
        assert_eq!(m.layout.nodes_per_rack(), 14);
        assert_eq!(m.layout.rack_of(1455), 103);
        // Theta's spare positions fill before any rack is added; past them
        // each row grows by one rack at a time.
        assert_eq!(theta().scaled(4608).layout.total_racks(), 24);
        let wide = theta().scaled(10_000);
        assert_eq!(wide.n_nodes, 10_000);
        assert_eq!(wide.layout.total_racks(), 2 * 27);
        assert_eq!(
            LayoutSpec::parse(&wide.layout.to_layout_string()).unwrap(),
            wide.layout
        );
    }
}
