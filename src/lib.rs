//! # mrdmd-suite
//!
//! Umbrella crate for the I-mrDMD HPC assessment suite — a from-scratch Rust
//! reproduction of *"An Incremental Multi-Level, Multi-Scale Approach to
//! Assessment of Multifidelity HPC Systems"* (SC 2024).
//!
//! Re-exports the whole stack so examples and downstream users need a single
//! dependency:
//!
//! - [`linalg`]: dense matrices, SVD/QR/eig, SVHT, incremental SVD,
//! - [`core`](mod@core): DMD, mrDMD, the streaming I-mrDMD, spectrum and
//!   z-score analysis,
//! - [`telemetry`]: machine models, the rack layout grammar, synthetic
//!   environment/job/hardware logs, streaming sources,
//! - [`baselines`]: PCA, IPCA, t-SNE, UMAP, Aligned-UMAP comparators,
//! - [`viz`]: rack-view and plot SVG renderers.
//!
//! ```
//! use mrdmd_suite::prelude::*;
//!
//! let scenario = Scenario::sc_log(theta().scaled(16), 600, 7);
//! let data = scenario.generate(0, 600);
//! let model = IMrDmd::fit(&data, &IMrDmdConfig::default());
//! assert!(model.n_modes() > 0);
//! ```

pub use dimred_baselines as baselines;
pub use hpc_linalg as linalg;
pub use hpc_telemetry as telemetry;
pub use imrdmd as core;
pub use rackviz as viz;

/// One-stop import for applications.
pub mod prelude {
    pub use dimred_baselines::{
        AlignedUmap, IncrementalPca, Pca, Tsne, TsneConfig, Umap, UmapConfig,
    };
    pub use hpc_linalg::{c64, CMat, IncrementalSvd, Mat, Svd};
    pub use hpc_telemetry::{
        polaris, theta, Anomaly, ChunkStream, FaultConfig, FaultEvent, FaultInjector, FleetDriver,
        FleetSpec, HwEventKind, HwLog, Job, JobLog, LayoutSpec, MachineSpec, Profile, Scenario,
        SensorKind,
    };
    pub use imrdmd::prelude::*;
    pub use rackviz::{
        embedding_panel_svg, line_svg, scatter_svg, zscore_color, PlotConfig, RackView, Series,
    };
}
