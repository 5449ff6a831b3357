//! Synthetic environment-log / GPU-metric generator.
//!
//! Substitutes for the paper's proprietary Theta environment logs and Polaris
//! DCGM streams. Every reading is a *pure function* of
//! `(seed, series, step)`, so any sub-range of the timeline can be generated
//! independently and streaming chunk boundaries cannot change the data — the
//! property the incremental-vs-batch equivalence tests rely on.
//!
//! The signal model layers the multiscale structure that makes mrDMD
//! interesting:
//!
//! - a slow facility-level thermal wave (hours),
//! - a per-rack cooling oscillation (tens of minutes),
//! - job-induced heat: ramp-up/cool-down envelopes with per-job workload
//!   oscillations (minutes) on allocated nodes,
//! - profile-specific fast structure (the GPU profile adds burst harmonics,
//!   which is why it yields more modes — matching the paper's observation),
//! - injected anomalies (overheat ramps, stalls, fan degradation),
//! - white sensor noise.
//!
//! Each layer is one term function of what it depends on: the waves of
//! `(rack, step)`, a job's heat of `(job, channel, step)`, the anomalies of
//! `(node, step)`, the noise of `(series, step)`. [`Scenario::value`]
//! evaluates them at one point. [`Scenario::generate_rows`] evaluates a
//! *window plan* instead: per-row constants are hoisted once, and for each
//! tile of 256 columns the waves of every rack the rows touch and the heat
//! of every job on their nodes are tabulated once; row blocks then sum
//! those tables per cell over the process-wide worker pool. Both compose
//! the terms in the same order through one function, so a window is
//! bit-for-bit the readings `value` gives, and readings stay a pure
//! function of `(seed, series, step)`.

use crate::joblog::{Job, JobLog};
use crate::machine::MachineSpec;
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::Mat;
use serde::{Deserialize, Serialize};

/// Which telemetry flavour to synthesise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Profile {
    /// Supercomputer environment log (Theta-style; the paper's "SC Log"
    /// dataset). Channels cycle through the multifidelity sensor kinds the
    /// paper lists — temperatures, voltages, fan speeds.
    ScLog,
    /// GPU metrics (Polaris-style per-GPU temperatures; richer fast
    /// dynamics → more extracted modes).
    GpuMetrics,
}

/// Physical sensor category of one telemetry channel.
///
/// The paper's environment logs are multifidelity: "voltages, current,
/// temperatures (water/air/CPU), and fan speeds". Every kind is derived from
/// the node's thermal state, so the cross-channel correlations are physical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensorKind {
    /// Node temperature in °C (the case studies' analysis target).
    Temperature,
    /// Supply voltage in V (droops slightly under thermal load).
    Voltage,
    /// Cooling fan speed in RPM (tracks temperature).
    FanSpeed,
    /// Node power draw in W.
    Power,
}

/// An injected fault with ground truth, driving both the environment signal
/// and the correlated hardware log.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Anomaly {
    /// Node runs `delta` °C hot over `[start, end)` (ramped at both edges).
    Overheat {
        /// Affected node.
        node: usize,
        /// First hot snapshot.
        start: usize,
        /// First snapshot after recovery.
        end: usize,
        /// Peak temperature excess in °C.
        delta: f64,
    },
    /// Node stops doing work over `[start, end)`: job heat vanishes and the
    /// temperature sags below idle.
    Stall {
        /// Affected node.
        node: usize,
        /// First stalled snapshot.
        start: usize,
        /// First recovered snapshot.
        end: usize,
    },
    /// Cooling slowly degrades from `start` onward.
    FanDegradation {
        /// Affected node.
        node: usize,
        /// Onset snapshot.
        start: usize,
        /// Added °C per snapshot (small).
        slope: f64,
    },
}

impl Anomaly {
    /// The node this anomaly affects.
    pub fn node(&self) -> usize {
        match *self {
            Anomaly::Overheat { node, .. }
            | Anomaly::Stall { node, .. }
            | Anomaly::FanDegradation { node, .. } => node,
        }
    }
}

/// A fully specified telemetry scenario: machine, jobs, anomalies, and the
/// deterministic signal generator.
#[derive(Clone, Debug)]
pub struct Scenario {
    machine: MachineSpec,
    profile: Profile,
    seed: u64,
    noise_sigma: f64,
    jobs: JobLog,
    anomalies: Vec<Anomaly>,
    /// Anomaly indices per node, for O(1) lookup in the hot path.
    node_anomalies: Vec<Vec<u32>>,
}

impl Scenario {
    /// Builds a scenario with explicit jobs and anomalies.
    pub fn new(
        machine: MachineSpec,
        profile: Profile,
        seed: u64,
        jobs: JobLog,
        anomalies: Vec<Anomaly>,
    ) -> Scenario {
        let mut node_anomalies = vec![Vec::new(); machine.n_nodes];
        for (k, a) in anomalies.iter().enumerate() {
            if a.node() < machine.n_nodes {
                node_anomalies[a.node()].push(k as u32);
            }
        }
        let noise_sigma = match profile {
            Profile::ScLog => 0.35,
            Profile::GpuMetrics => 0.6,
        };
        Scenario {
            machine,
            profile,
            seed,
            noise_sigma,
            jobs,
            anomalies,
            node_anomalies,
        }
    }

    /// Standard SC-log scenario: synthesised jobs plus a small set of
    /// auto-injected anomalies scattered over `total_steps`.
    ///
    /// ```
    /// use hpc_telemetry::{theta, Scenario};
    ///
    /// let scenario = Scenario::sc_log(theta().scaled(8), 200, 7);
    /// let batch = scenario.generate(0, 100);
    /// // Deterministic and chunk-independent.
    /// assert_eq!(batch.cols_range(50, 100), scenario.generate(50, 100));
    /// ```
    pub fn sc_log(machine: MachineSpec, total_steps: usize, seed: u64) -> Scenario {
        let n_nodes = machine.n_nodes;
        let jobs = JobLog::synthesize(n_nodes, total_steps, (n_nodes / 48).clamp(4, 40), seed);
        let anomalies = auto_anomalies(n_nodes, total_steps, seed);
        Scenario::new(machine, Profile::ScLog, seed, jobs, anomalies)
    }

    /// Standard GPU-metrics scenario.
    pub fn gpu_metrics(machine: MachineSpec, total_steps: usize, seed: u64) -> Scenario {
        let n_nodes = machine.n_nodes;
        let jobs = JobLog::synthesize(n_nodes, total_steps, (n_nodes / 24).clamp(6, 60), seed);
        let anomalies = auto_anomalies(n_nodes, total_steps, seed.wrapping_add(1));
        Scenario::new(machine, Profile::GpuMetrics, seed, jobs, anomalies)
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The telemetry profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Snapshot spacing in seconds.
    pub fn dt(&self) -> f64 {
        self.machine.sample_interval_s
    }

    /// Number of telemetry series (matrix rows).
    pub fn n_series(&self) -> usize {
        self.machine.n_series()
    }

    /// The job log driving the scenario.
    pub fn job_log(&self) -> &JobLog {
        &self.jobs
    }

    /// The injected anomalies (ground truth).
    pub fn anomalies(&self) -> &[Anomaly] {
        &self.anomalies
    }

    /// Physical kind of a channel: the SC-log profile cycles through
    /// temperature, temperature, voltage, fan speed (then power, then
    /// repeats for wider layouts); GPU metrics are all temperatures.
    pub fn kind_of_channel(&self, channel: usize) -> SensorKind {
        match self.profile {
            Profile::GpuMetrics => SensorKind::Temperature,
            Profile::ScLog => match channel % 5 {
                0 | 1 => SensorKind::Temperature,
                2 => SensorKind::Voltage,
                3 => SensorKind::FanSpeed,
                _ => SensorKind::Power,
            },
        }
    }

    /// Kind of a full series index.
    pub fn kind_of_series(&self, series: usize) -> SensorKind {
        self.kind_of_channel(series % self.machine.series_per_node)
    }

    /// Series indices of one kind among the given nodes' channels.
    pub fn series_of_kind(&self, kind: SensorKind) -> Vec<usize> {
        (0..self.n_series())
            .filter(|&s| self.kind_of_series(s) == kind)
            .collect()
    }

    /// The reading of telemetry series `series` at snapshot `step` —
    /// deterministic in `(seed, series, step)`.
    pub fn value(&self, series: usize, step: usize) -> f64 {
        let row = self.row(series);
        let heat = self
            .jobs
            .jobs_on_node(row.node)
            .map(|job| self.heat(job, row.channel, step));
        self.compose(&row, step, self.waves(row.rack, step), heat)
    }

    /// The step-independent constants of one series.
    fn row(&self, series: usize) -> Row {
        let spn = self.machine.series_per_node;
        let node = series / spn;
        let channel = series % spn;
        // Static offsets: node-specific bias plus channel spread.
        let node_bias = 3.0 * (unit_hash(self.seed, node as u64, 0xB1A5) - 0.5) * 2.0;
        Row {
            series,
            node,
            channel,
            rack: self.machine.layout.rack_of(node),
            kind: self.kind_of_channel(channel),
            offset: self.profile.waveform().base + node_bias + channel as f64 * 0.8,
        }
    }

    /// The facility slow wave and the rack cooling oscillation of `rack` at
    /// `step`, as two separate terms.
    fn waves(&self, rack: usize, step: usize) -> (f64, f64) {
        let w = self.profile.waveform();
        let t = step as f64 * self.dt();
        let tau = std::f64::consts::TAU;
        // Facility-level slow wave, phase-shifted per rack row.
        let rack_phase = rack as f64 * 0.35;
        let slow = w.slow_amp * (tau * t / w.slow_period + rack_phase).sin();
        // Rack cooling oscillation.
        let cooling = w.rack_amp * (tau * t / w.rack_period + rack as f64 * 0.7).sin();
        (slow, cooling)
    }

    /// Heat `job` adds to a node's channel `channel` at `step`, with its
    /// ramp-up and cool-down envelopes; `None` before the job starts and once
    /// the cool-down has faded below 1e-3. Only the GPU profile depends on
    /// `channel`.
    fn heat(&self, job: &Job, channel: usize, step: usize) -> Option<f64> {
        let tau = std::f64::consts::TAU;
        let t = step as f64 * self.dt();
        let start_t = job.start_step as f64 * self.dt();
        let end_t = job.end_step as f64 * self.dt();
        if t < start_t {
            return None;
        }
        let envelope = if t < end_t {
            1.0 - (-(t - start_t) / 120.0).exp()
        } else {
            (-(t - end_t) / 180.0).exp()
        };
        if envelope < 1e-3 {
            return None;
        }
        let job_phase = job.id as f64 * 1.7;
        let mut heat =
            job.intensity * envelope * (1.0 + 0.35 * (tau * t / job.period_s + job_phase).sin());
        if self.profile == Profile::GpuMetrics {
            // Per-GPU burst harmonics: each channel (GPU) gets extra
            // mid-frequency content, the source of the larger mode
            // counts the paper reports for GPU metrics.
            let g = channel as f64;
            heat +=
                0.35 * job.intensity * (tau * t / (job.period_s / 3.0) + g * 1.3 + job_phase).sin();
            let burst = (tau * t / (job.period_s * 0.37) + g * 0.9).sin().max(0.0);
            heat += 0.25 * job.intensity * burst * burst * burst;
        }
        Some(heat)
    }

    /// The channel a job's heat is keyed by: SC-log heat is the same on
    /// every channel of a node, GPU heat differs per GPU.
    fn heat_channel(&self, channel: usize) -> usize {
        match self.profile {
            Profile::ScLog => 0,
            Profile::GpuMetrics => channel,
        }
    }

    /// Whether a stall suppresses job heat on `node` at `step`.
    fn stalled(&self, node: usize, step: usize) -> bool {
        self.node_anomalies[node].iter().any(|&k| {
            matches!(self.anomalies[k as usize],
                Anomaly::Stall { start, end, .. } if step >= start && step < end)
        })
    }

    /// One reading from its terms: the node's thermal state is summed in a
    /// fixed order (offset, the two waves, each job's heat or the stall sag,
    /// each anomaly), then turned into the channel's physical reading with
    /// its noise. `waves` and `heat` are computed on the spot by
    /// [`value`](Self::value) and read from tables by a [`WindowPlan`].
    fn compose(
        &self,
        row: &Row,
        step: usize,
        (slow, cooling): (f64, f64),
        heat: impl Iterator<Item = Option<f64>>,
    ) -> f64 {
        let mut v = row.offset;
        v += slow;
        v += cooling;
        if self.stalled(row.node, step) {
            // Stalled node sags below idle.
            v -= 4.0;
        } else {
            for h in heat.flatten() {
                v += h;
            }
        }
        for &k in &self.node_anomalies[row.node] {
            if let Some(a) = anomaly_term(&self.anomalies[k as usize], step) {
                v += a;
            }
        }
        let noise = gauss_hash(self.seed, row.series as u64, step as u64);
        self.reading(row.kind, v, noise)
    }

    /// The physical reading of a `kind` sensor on a node whose thermal state
    /// is `v` °C, with kind-appropriate noise floors.
    fn reading(&self, kind: SensorKind, v: f64, noise: f64) -> f64 {
        let base = self.profile.waveform().base;
        match kind {
            SensorKind::Temperature => v + self.noise_sigma * noise,
            // Voltage droops ~4 mV/°C of thermal load above the idle point.
            SensorKind::Voltage => 12.0 - 0.004 * (v - base) + 0.02 * noise,
            // Fan controller tracks temperature: ~90 RPM/°C above 30 °C.
            SensorKind::FanSpeed => (5000.0 + 90.0 * (v - 30.0) + 40.0 * noise).max(1500.0),
            // Power follows thermal load at ~6 W/°C above 30 °C idle.
            SensorKind::Power => (180.0 + 6.0 * (v - 30.0) + 5.0 * noise).max(60.0),
        }
    }

    /// Generates the full snapshot matrix for steps `[t0, t1)`
    /// (`n_series × (t1−t0)`); see [`generate_rows`](Self::generate_rows).
    pub fn generate(&self, t0: usize, t1: usize) -> Mat {
        let rows: Vec<usize> = (0..self.n_series()).collect();
        self.generate_rows(&rows, t0, t1)
    }

    /// Generates only the given series (rows, in the given order, repeats
    /// allowed), for steps `[t0, t1)`.
    ///
    /// The window is evaluated by a plan rather than reading by reading:
    /// for each tile of 256 columns, the wave terms of every rack
    /// the rows touch and the heat of every job on their nodes are tabulated
    /// once, then fixed-size row blocks sum those tables per cell over the
    /// process-wide worker pool (`hpc_linalg::pool`). Every reading still
    /// equals [`value`](Self::value) bit for bit, so the output is a pure
    /// function of `(seed, series, step)` whatever the window, rows or
    /// thread count.
    pub fn generate_rows(&self, rows: &[usize], t0: usize, t1: usize) -> Mat {
        assert!(t0 <= t1);
        let w = t1 - t0;
        let mut out = Mat::zeros(rows.len(), w);
        if rows.is_empty() || w == 0 {
            return out;
        }
        let plan = WindowPlan::new(self, rows);
        let block_rows = (BLOCK_READINGS / TILE_COLS.min(w)).clamp(1, rows.len());
        let mut blocks: Vec<(usize, &mut [f64])> = out
            .as_mut_slice()
            .chunks_mut(block_rows * w)
            .enumerate()
            .map(|(b, s)| (b * block_rows, s))
            .collect();
        let pool = WorkerPool::new(0);
        for c0 in (t0..t1).step_by(TILE_COLS) {
            let tile = plan.tile(c0, (c0 + TILE_COLS).min(t1));
            pool.for_each(&mut blocks, &|(r0, block)| {
                for (k, dst) in block.chunks_mut(w).enumerate() {
                    plan.fill(&tile, *r0 + k, &mut dst[c0 - t0..][..tile.cols]);
                }
            });
        }
        out
    }

    /// Series indices belonging to the given nodes (all channels).
    pub fn series_of_nodes(&self, nodes: &[usize]) -> Vec<usize> {
        let spn = self.machine.series_per_node;
        nodes
            .iter()
            .flat_map(|&n| (n * spn)..(n * spn + spn))
            .collect()
    }
}

/// Columns per tile of a window plan. The plan's wave and heat tables hold
/// one tile, so their memory is bounded by the tile, not the window.
const TILE_COLS: usize = 256;

/// Readings a row block of a window plan aims at: the unit of work handed
/// to one worker, sized from the tile, never from the thread count.
const BLOCK_READINGS: usize = 1 << 14;

/// A profile's idle base and its facility and rack wave shapes.
struct Waveform {
    base: f64,
    slow_amp: f64,
    slow_period: f64,
    rack_amp: f64,
    rack_period: f64,
}

impl Profile {
    fn waveform(self) -> Waveform {
        let (base, slow_amp, slow_period, rack_amp, rack_period) = match self {
            Profile::ScLog => (42.0, 3.0, 7200.0, 1.2, 1800.0),
            Profile::GpuMetrics => (40.0, 2.0, 3600.0, 1.0, 600.0),
        };
        Waveform {
            base,
            slow_amp,
            slow_period,
            rack_amp,
            rack_period,
        }
    }
}

/// What a reading needs of its series, whatever the step.
struct Row {
    series: usize,
    node: usize,
    channel: usize,
    rack: usize,
    kind: SensorKind,
    /// Idle base plus node bias plus channel spread.
    offset: f64,
}

/// A row of a [`WindowPlan`]: its constants and where its terms sit in the
/// plan's tables.
struct PlanRow {
    row: Row,
    /// Index into [`WindowPlan::racks`].
    rack_slot: usize,
    /// Range of [`WindowPlan::slots`] holding this row's heat slots, one per
    /// job on its node, in the job log's order.
    slots: std::ops::Range<usize>,
}

/// The step-independent part of generating a window of rows: per-row
/// constants, and the racks and `(job, channel)` heats the rows touch.
struct WindowPlan<'s> {
    scenario: &'s Scenario,
    rows: Vec<PlanRow>,
    /// Racks the rows touch, sorted.
    racks: Vec<usize>,
    /// `(job index, heat channel)` pairs the rows touch, sorted.
    heats: Vec<(u32, usize)>,
    /// Indices into `heats`, row after row.
    slots: Vec<usize>,
}

/// One column tile of a window plan: the wave terms per rack and the heat
/// per `(job, channel)`, each laid out slot-major over the tile's columns.
struct Tile {
    t0: usize,
    cols: usize,
    waves: Vec<(f64, f64)>,
    heat: Vec<Option<f64>>,
}

impl<'s> WindowPlan<'s> {
    fn new(scenario: &'s Scenario, series: &[usize]) -> WindowPlan<'s> {
        let rows: Vec<Row> = series.iter().map(|&s| scenario.row(s)).collect();
        let heat_keys = |row: &Row| {
            let channel = scenario.heat_channel(row.channel);
            let jobs = scenario.jobs.job_indices_on_node(row.node);
            jobs.iter().map(move |&k| (k, channel))
        };
        let mut racks: Vec<usize> = rows.iter().map(|r| r.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        let mut heats: Vec<(u32, usize)> = rows.iter().flat_map(heat_keys).collect();
        heats.sort_unstable();
        heats.dedup();
        let mut slots = Vec::new();
        let rows = rows
            .into_iter()
            .map(|row| {
                let lo = slots.len();
                let slot = |key| heats.binary_search(&key).expect("heat is tabulated");
                slots.extend(heat_keys(&row).map(slot));
                PlanRow {
                    rack_slot: racks.binary_search(&row.rack).expect("rack is tabulated"),
                    slots: lo..slots.len(),
                    row,
                }
            })
            .collect();
        WindowPlan {
            scenario,
            rows,
            racks,
            heats,
            slots,
        }
    }

    /// Tabulates the wave and heat terms of steps `[t0, t1)`.
    fn tile(&self, t0: usize, t1: usize) -> Tile {
        let sc = self.scenario;
        let steps = t0..t1;
        let waves = (self.racks.iter())
            .flat_map(|&rack| steps.clone().map(move |step| sc.waves(rack, step)))
            .collect();
        let heat = (self.heats.iter())
            .flat_map(|&(k, channel)| {
                let job = &sc.jobs.jobs[k as usize];
                steps.clone().map(move |step| sc.heat(job, channel, step))
            })
            .collect();
        Tile {
            t0,
            cols: t1 - t0,
            waves,
            heat,
        }
    }

    /// Writes row `r`'s readings over `tile`'s columns into `dst`.
    fn fill(&self, tile: &Tile, r: usize, dst: &mut [f64]) {
        let PlanRow {
            row,
            rack_slot,
            slots,
        } = &self.rows[r];
        let waves = &tile.waves[rack_slot * tile.cols..][..tile.cols];
        let slots = &self.slots[slots.clone()];
        for (c, x) in dst.iter_mut().enumerate() {
            let heat = slots.iter().map(|&s| tile.heat[s * tile.cols + c]);
            *x = self.scenario.compose(row, tile.t0 + c, waves[c], heat);
        }
    }
}

/// An anomaly's addition to its node's thermal state at `step`, if any
/// (a stall instead suppresses job heat, see [`Scenario::compose`]).
fn anomaly_term(anomaly: &Anomaly, step: usize) -> Option<f64> {
    match *anomaly {
        Anomaly::Overheat {
            start, end, delta, ..
        } => Some(delta * trapezoid(step, start, end, ((end - start) / 8).max(1))),
        Anomaly::FanDegradation { start, slope, .. } => {
            (step > start).then(|| slope * (step - start) as f64)
        }
        Anomaly::Stall { .. } => None,
    }
}

/// Piecewise-linear ramp up / plateau / ramp down over `[start, end)`.
fn trapezoid(step: usize, start: usize, end: usize, ramp: usize) -> f64 {
    if step < start || step >= end {
        return 0.0;
    }
    let up = (step - start) as f64 / ramp as f64;
    let down = (end - step) as f64 / ramp as f64;
    up.min(down).min(1.0)
}

/// SplitMix64-style avalanche over `(seed, a, b)` → uniform in [0, 1).
fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(a.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(b.wrapping_mul(0x94d049bb133111eb));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard normal via Box–Muller on two hash uniforms.
fn gauss_hash(seed: u64, a: u64, b: u64) -> f64 {
    let u1 = unit_hash(seed, a, b.wrapping_mul(2)).max(1e-12);
    let u2 = unit_hash(seed, a, b.wrapping_mul(2) + 1);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Scatters a default anomaly set over the timeline: one overheat, one
/// stall, one fan degradation per ~200 nodes (at least one of each).
fn auto_anomalies(n_nodes: usize, total_steps: usize, seed: u64) -> Vec<Anomaly> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11F_AB1E);
    let groups = (n_nodes / 200).max(1);
    let mut out = Vec::new();
    for _ in 0..groups {
        let node = rng.random_range(0..n_nodes);
        let start = rng.random_range(0..(total_steps / 2).max(1));
        let dur = rng.random_range((total_steps / 10).max(2)..(total_steps / 3).max(3));
        out.push(Anomaly::Overheat {
            node,
            start,
            end: (start + dur).min(total_steps),
            delta: rng.random_range(8.0..15.0),
        });
        let node = rng.random_range(0..n_nodes);
        let start = rng.random_range(0..(total_steps / 2).max(1));
        let dur = rng.random_range((total_steps / 10).max(2)..(total_steps / 3).max(3));
        out.push(Anomaly::Stall {
            node,
            start,
            end: (start + dur).min(total_steps),
        });
        let node = rng.random_range(0..n_nodes);
        out.push(Anomaly::FanDegradation {
            node,
            start: rng.random_range(0..(total_steps * 2 / 3).max(1)),
            slope: rng.random_range(0.002..0.01),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::theta;

    fn small_scenario() -> Scenario {
        Scenario::sc_log(theta().scaled(32), 1000, 42)
    }

    #[test]
    fn values_are_deterministic_and_chunk_independent() {
        let s = small_scenario();
        let full = s.generate(0, 200);
        let left = s.generate(0, 120);
        let right = s.generate(120, 200);
        assert_eq!(full.cols_range(0, 120), left);
        assert_eq!(full.cols_range(120, 200), right);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::sc_log(theta().scaled(8), 100, 1).generate(0, 50);
        let b = Scenario::sc_log(theta().scaled(8), 100, 2).generate(0, 50);
        assert!(a.fro_dist(&b) > 1.0);
    }

    #[test]
    fn readings_in_physical_range_per_kind() {
        let s = small_scenario();
        let m = s.generate(0, 500);
        for row in 0..m.rows() {
            let kind = s.kind_of_series(row);
            for &x in m.row(row) {
                let ok = match kind {
                    SensorKind::Temperature => (0.0..140.0).contains(&x),
                    SensorKind::Voltage => (10.0..13.0).contains(&x),
                    SensorKind::FanSpeed => (1500.0..20_000.0).contains(&x),
                    SensorKind::Power => (60.0..1500.0).contains(&x),
                };
                assert!(ok, "{kind:?} reading {x} outside physical range");
            }
        }
    }

    #[test]
    fn channel_kinds_cycle_for_sc_log() {
        let s = small_scenario();
        assert_eq!(s.kind_of_channel(0), SensorKind::Temperature);
        assert_eq!(s.kind_of_channel(1), SensorKind::Temperature);
        assert_eq!(s.kind_of_channel(2), SensorKind::Voltage);
        assert_eq!(s.kind_of_channel(3), SensorKind::FanSpeed);
        assert_eq!(s.kind_of_channel(4), SensorKind::Power);
        // GPU metrics are all temperatures.
        let g = Scenario::gpu_metrics(crate::machine::polaris().scaled(4), 100, 1);
        for c in 0..4 {
            assert_eq!(g.kind_of_channel(c), SensorKind::Temperature);
        }
    }

    #[test]
    fn fan_tracks_temperature_and_voltage_droops() {
        let machine = theta().scaled(8);
        let jobs = JobLog::new(vec![], 8);
        let anomaly = Anomaly::Overheat {
            node: 0,
            start: 100,
            end: 500,
            delta: 15.0,
        };
        let s = Scenario::new(machine, Profile::ScLog, 3, jobs, vec![anomaly]);
        // Node 0 channels: 0 temp, 1 temp, 2 voltage, 3 fan.
        let before_fan = s.generate_rows(&[3], 0, 80).mean();
        let during_fan = s.generate_rows(&[3], 200, 400).mean();
        assert!(
            during_fan > before_fan + 500.0,
            "fan {before_fan} → {during_fan}"
        );
        let before_v = s.generate_rows(&[2], 0, 80).mean();
        let during_v = s.generate_rows(&[2], 200, 400).mean();
        assert!(
            during_v < before_v - 0.02,
            "voltage {before_v} → {during_v}"
        );
    }

    #[test]
    fn job_heat_raises_allocated_nodes() {
        let machine = theta().scaled(16);
        let jobs = JobLog::new(
            vec![crate::joblog::Job {
                id: 0,
                project: "p".into(),
                first_node: 0,
                n_nodes: 8,
                start_step: 100,
                end_step: 900,
                intensity: 15.0,
                period_s: 300.0,
            }],
            16,
        );
        let s = Scenario::new(machine, Profile::ScLog, 7, jobs, vec![]);
        let busy = s.generate_rows(&[0], 400, 800);
        let idle = s.generate_rows(&s.series_of_nodes(&[12])[..1], 400, 800);
        assert!(
            busy.mean() > idle.mean() + 5.0,
            "busy {} idle {}",
            busy.mean(),
            idle.mean()
        );
    }

    #[test]
    fn overheat_anomaly_visible_in_window() {
        let machine = theta().scaled(8);
        let jobs = JobLog::new(vec![], 8);
        let anomaly = Anomaly::Overheat {
            node: 2,
            start: 200,
            end: 600,
            delta: 12.0,
        };
        let s = Scenario::new(machine, Profile::ScLog, 3, jobs, vec![anomaly]);
        // Temperature channels of node 2 only.
        let series: Vec<usize> = s
            .series_of_nodes(&[2])
            .into_iter()
            .filter(|&r| s.kind_of_series(r) == SensorKind::Temperature)
            .collect();
        let during = s.generate_rows(&series, 300, 500).mean();
        let before = s.generate_rows(&series, 0, 150).mean();
        assert!(during > before + 8.0, "during {during} before {before}");
    }

    #[test]
    fn stall_cools_node_below_idle() {
        let machine = theta().scaled(8);
        let jobs = JobLog::new(vec![], 8);
        let s = Scenario::new(
            machine,
            Profile::ScLog,
            3,
            jobs,
            vec![Anomaly::Stall {
                node: 1,
                start: 100,
                end: 400,
            }],
        );
        let series: Vec<usize> = s
            .series_of_nodes(&[1])
            .into_iter()
            .filter(|&r| s.kind_of_series(r) == SensorKind::Temperature)
            .collect();
        let during = s.generate_rows(&series, 150, 350).mean();
        let after = s.generate_rows(&series, 500, 700).mean();
        assert!(during < after - 2.0, "during {during} after {after}");
    }

    #[test]
    fn gpu_profile_has_richer_spectrum_than_sc_log() {
        // Proxy for "more modes": more high-frequency variance after
        // removing the per-series mean.
        let machine = crate::machine::polaris().scaled(16);
        let total = 600;
        let sc = Scenario::new(
            machine.clone(),
            Profile::ScLog,
            5,
            JobLog::synthesize(16, total, 6, 5),
            vec![],
        );
        let gpu = Scenario::new(
            machine,
            Profile::GpuMetrics,
            5,
            JobLog::synthesize(16, total, 6, 5),
            vec![],
        );
        let hf = |m: &Mat| -> f64 {
            // Mean squared first difference ≈ high-frequency energy.
            let mut acc = 0.0;
            for i in 0..m.rows() {
                let r = m.row(i);
                for w in r.windows(2) {
                    let d = w[1] - w[0];
                    acc += d * d;
                }
            }
            acc / (m.rows() * (m.cols() - 1)) as f64
        };
        // Compare temperature channels only (the SC profile's fan/voltage
        // channels live on different scales).
        let sc_rows = sc.series_of_kind(SensorKind::Temperature);
        let gpu_rows = gpu.series_of_kind(SensorKind::Temperature);
        let a = hf(&sc.generate_rows(&sc_rows, 0, total));
        let b = hf(&gpu.generate_rows(&gpu_rows, 0, total));
        assert!(b > a, "GPU profile hf energy {b} should exceed SC log {a}");
    }

    #[test]
    fn trapezoid_shape() {
        assert_eq!(trapezoid(5, 10, 20, 2), 0.0);
        assert_eq!(trapezoid(25, 10, 20, 2), 0.0);
        assert!((trapezoid(11, 10, 20, 2) - 0.5).abs() < 1e-12);
        assert_eq!(trapezoid(15, 10, 20, 2), 1.0);
        assert!((trapezoid(19, 10, 20, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gauss_hash_moments() {
        let n = 20_000;
        let mut mean = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            let g = gauss_hash(9, 1, i as u64);
            mean += g;
            var += g * g;
        }
        mean /= n as f64;
        var = var / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn series_of_nodes_expands_channels() {
        let s = small_scenario();
        let series = s.series_of_nodes(&[0, 2]);
        assert_eq!(series, vec![0, 1, 2, 3, 8, 9, 10, 11]);
    }
}
