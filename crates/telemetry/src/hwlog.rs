//! Synthetic hardware error logs.
//!
//! The paper visually aligns environment-log patterns with hardware error
//! records (correctable memory errors, machine checks, node-down events).
//! Case study 1 highlights nodes with correctable memory issues; case study 2
//! outlines nodes that persistently report hardware errors across jobs. The
//! generator emits a low-rate background of errors plus bursts correlated
//! with injected anomalies, so the alignment the paper demonstrates has a
//! ground truth here.

use crate::envlog::Anomaly;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Hardware error categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HwEventKind {
    /// ECC-corrected memory error.
    CorrectableMemory,
    /// Machine-check exception.
    MachineCheck,
    /// Node marked down by the resource manager.
    NodeDown,
    /// Cooling fan fault.
    FanFault,
}

/// One hardware log record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HwEvent {
    /// Affected node.
    pub node: usize,
    /// Snapshot index at which the event was logged.
    pub step: usize,
    /// Error category.
    pub kind: HwEventKind,
}

/// A hardware error log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HwLog {
    /// Events sorted by step.
    pub events: Vec<HwEvent>,
}

impl HwLog {
    /// Synthesises a log over `n_nodes × total_steps`:
    /// a sparse random background (about `background_rate` events per node
    /// over the whole window) plus error bursts on anomalous nodes.
    pub fn synthesize(
        n_nodes: usize,
        total_steps: usize,
        anomalies: &[Anomaly],
        background_rate: f64,
        seed: u64,
    ) -> HwLog {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0048_774c_6f67);
        let mut events = Vec::new();
        // Background: a handful of flaky nodes produce occasional ECC noise.
        let n_flaky = ((n_nodes as f64 * 0.02).ceil() as usize)
            .max(1)
            .min(n_nodes);
        for _ in 0..n_flaky {
            let node = rng.random_range(0..n_nodes);
            let n_ev = (background_rate.max(0.0) * total_steps as f64 / 100.0).round() as usize;
            for _ in 0..n_ev.max(1) {
                events.push(HwEvent {
                    node,
                    step: rng.random_range(0..total_steps.max(1)),
                    kind: HwEventKind::CorrectableMemory,
                });
            }
        }
        // Correlated bursts on anomalous nodes.
        for a in anomalies {
            match *a {
                Anomaly::Overheat {
                    node, start, end, ..
                } => {
                    let mut s = start;
                    while s < end {
                        events.push(HwEvent {
                            node,
                            step: s,
                            kind: HwEventKind::CorrectableMemory,
                        });
                        s += ((end - start) / 6).max(1);
                    }
                    if rng.random_bool(0.5) {
                        events.push(HwEvent {
                            node,
                            step: end.saturating_sub(1),
                            kind: HwEventKind::MachineCheck,
                        });
                    }
                }
                Anomaly::Stall { node, start, .. } => {
                    events.push(HwEvent {
                        node,
                        step: start,
                        kind: HwEventKind::NodeDown,
                    });
                }
                Anomaly::FanDegradation { node, start, .. } => {
                    events.push(HwEvent {
                        node,
                        step: start,
                        kind: HwEventKind::FanFault,
                    });
                }
            }
        }
        events.sort_by_key(|e| e.step);
        HwLog { events }
    }

    /// Nodes with at least one event of `kind` in `[t0, t1)`.
    pub fn nodes_with(&self, kind: HwEventKind, t0: usize, t1: usize) -> BTreeSet<usize> {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.step >= t0 && e.step < t1)
            .map(|e| e.node)
            .collect()
    }

    /// Nodes with any event in `[t0, t1)`.
    pub fn nodes_with_any(&self, t0: usize, t1: usize) -> BTreeSet<usize> {
        self.events
            .iter()
            .filter(|e| e.step >= t0 && e.step < t1)
            .map(|e| e.node)
            .collect()
    }

    /// Nodes reporting errors in **both** halves of `[t0, t1)` — case study
    /// 2's "persistently failing" criterion.
    pub fn persistent_nodes(&self, t0: usize, t1: usize) -> BTreeSet<usize> {
        let mid = t0 + (t1 - t0) / 2;
        let first = self.nodes_with_any(t0, mid);
        let second = self.nodes_with_any(mid, t1);
        first.intersection(&second).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let a = HwLog::synthesize(100, 1000, &[], 1.0, 5);
        let b = HwLog::synthesize(100, 1000, &[], 1.0, 5);
        assert_eq!(a.events.len(), b.events.len());
    }

    #[test]
    fn overheat_anomaly_emits_correlated_burst() {
        let anomalies = vec![Anomaly::Overheat {
            node: 7,
            start: 100,
            end: 400,
            delta: 10.0,
        }];
        let log = HwLog::synthesize(50, 1000, &anomalies, 0.0, 1);
        let hot = log.nodes_with(HwEventKind::CorrectableMemory, 100, 400);
        assert!(hot.contains(&7));
        // Burst is confined to the anomaly window.
        let burst: Vec<&HwEvent> = log
            .events
            .iter()
            .filter(|e| e.node == 7 && e.kind == HwEventKind::CorrectableMemory)
            .collect();
        assert!(burst.iter().all(|e| e.step >= 100 && e.step < 400));
        assert!(burst.len() >= 3);
    }

    #[test]
    fn stall_logs_node_down() {
        let anomalies = vec![Anomaly::Stall {
            node: 3,
            start: 50,
            end: 80,
        }];
        let log = HwLog::synthesize(10, 200, &anomalies, 0.0, 2);
        assert!(log.nodes_with(HwEventKind::NodeDown, 0, 200).contains(&3));
    }

    #[test]
    fn persistent_nodes_require_both_halves() {
        let log = HwLog {
            events: vec![
                HwEvent {
                    node: 1,
                    step: 10,
                    kind: HwEventKind::CorrectableMemory,
                },
                HwEvent {
                    node: 1,
                    step: 90,
                    kind: HwEventKind::CorrectableMemory,
                },
                HwEvent {
                    node: 2,
                    step: 10,
                    kind: HwEventKind::CorrectableMemory,
                },
            ],
        };
        let p = log.persistent_nodes(0, 100);
        assert!(p.contains(&1));
        assert!(!p.contains(&2));
    }

    #[test]
    fn events_sorted_by_step() {
        let anomalies = vec![Anomaly::Overheat {
            node: 1,
            start: 500,
            end: 800,
            delta: 5.0,
        }];
        let log = HwLog::synthesize(20, 1000, &anomalies, 2.0, 9);
        assert!(log.events.windows(2).all(|w| w[0].step <= w[1].step));
    }

    #[test]
    fn events_stay_on_the_machine() {
        let log = HwLog::synthesize(30, 500, &[], 3.0, 4);
        assert!(!log.events.is_empty());
        assert!(log.events.iter().all(|e| e.node < 30));
    }
}
