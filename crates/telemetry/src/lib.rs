//! # hpc-telemetry
//!
//! Synthetic multifidelity HPC telemetry substrate for the I-mrDMD suite.
//!
//! The paper analyses three log families from production machines —
//! environment logs (sensor time series), job logs, and hardware error logs.
//! None of that data is public, so this crate simulates all three with
//! controllable ground truth:
//!
//! - [`machine`]: Theta (Cray XC40) and Polaris (Apollo 6500) models,
//! - [`layout`]: the paper's generalizable rack-layout string grammar,
//! - [`envlog`]: the deterministic multiscale signal generator
//!   ([`envlog::Scenario`]) with injectable anomalies,
//! - [`joblog`] / [`hwlog`]: correlated job and hardware-error logs,
//! - [`stream`]: batch-wise streaming as in the paper's online setting,
//! - [`faults`]: stream-hygiene fault injection (NaN runs, dropped
//!   samples, sensor dropout, duplicated batches) with ground truth.
//!
//! Every reading is a pure function of `(seed, series, step)`, so chunked
//! streaming and batch generation agree exactly.

#![warn(missing_docs)]
pub mod envlog;
pub mod faults;
pub mod fleet;
pub mod hwlog;
pub mod io;
pub mod joblog;
pub mod layout;
pub mod machine;
pub mod stream;

pub use envlog::{Anomaly, Profile, Scenario, SensorKind};
pub use faults::{FaultConfig, FaultEvent, FaultInjector, PathologicalKind};
pub use fleet::{Backoff, FleetDriver, FleetSpec};
pub use hwlog::{HwEvent, HwEventKind, HwLog};
pub use io::{
    read_hw_log, read_job_log, read_snapshots_csv, write_hw_log, write_job_log,
    write_snapshots_csv, IoError,
};
pub use joblog::{Job, JobLog};
pub use layout::{Align, IdxRange, LayoutError, LayoutSpec, NodePosition};
pub use machine::{polaris, theta, MachineSpec};
pub use stream::ChunkStream;
