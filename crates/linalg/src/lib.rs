//! # hpc-linalg
//!
//! From-scratch dense linear algebra substrate for the I-mrDMD suite.
//!
//! The reference implementation of the paper leans on NumPy/LAPACK; the
//! sanctioned dependency set here has no linear algebra crate, so this crate
//! provides exactly the kernels the decomposition pipeline needs:
//!
//! - [`Mat`] / [`CMat`]: dense row-major real and complex matrices with
//!   cache-friendly, thread-parallel products,
//! - [`mod@gemm`]: the blocked, register-tiled GEMM kernel layer (operand
//!   packing, `MR × NR` register tiles, transpose flags, gemv) every dense
//!   product routes through,
//! - [`mod@simd`]: run-time AVX2 dispatch for the kernels with a SIMD tier,
//!   each bitwise equal to its scalar reference body,
//! - [`mod@workspace`]: per-thread reusable scratch buffers so hot
//!   incremental paths are allocation-free in steady state,
//! - [`mod@qr`]: Householder QR, least squares, and Gram–Schmidt complements,
//! - [`mod@svd`]: one-sided Jacobi SVD, the method-of-snapshots SVD of tall
//!   panels, and a randomized truncated variant,
//! - [`svht`]: the Gavish–Donoho optimal singular value hard threshold,
//! - [`eig`]: complex Schur-based eigendecomposition for the projected
//!   DMD operator, and a symmetric tridiagonal QL solver for Gram matrices,
//! - [`isvd`]: the Brand/Kühl incremental SVD that makes mrDMD streamable,
//! - [`mod@sketch`]: the streaming randomized range sketch behind the
//!   `Sketched` fit strategy (seeded probe, basis reuse with residual
//!   refresh, TSQR range-finding for tall panels),
//! - [`mod@pool`]: a permit-based scoped fork-join worker pool with a
//!   process-wide thread budget shared with the matmul kernel,
//! - [`mod@obs`]: the observability substrate (sharded counters, gauges,
//!   nanosecond histograms with RAII span timers, an injectable clock and a
//!   runtime [`Observer`] switch) every hot kernel reports into.
//!
//! Everything is `f64`; matrices are row-major with rows = sensors and
//! columns = time points, matching the paper's `P × T` convention.

#![warn(missing_docs)]
pub mod cmat;
pub mod complex;
pub mod csolve;
pub mod eig;
pub mod error;
pub mod failpoint;
pub mod fft;
pub mod gemm;
pub mod isvd;
pub mod mat;
pub mod obs;
pub mod pool;
pub mod qr;
pub mod simd;
pub mod sketch;
pub mod svd;
pub mod svht;
pub mod workspace;

pub use cmat::CMat;
pub use complex::c64;
pub use csolve::{try_lstsq_complex, try_solve_complex, try_solve_normal};
pub use eig::{eig_real, try_eig_complex, try_eig_real, try_eig_symmetric, Eig, EigStats, SymEig};
pub use error::{LinAlgError, PartialSchur};
pub use fft::{dominant_frequency, fft, fft_in_place, ifft, periodogram};
pub use gemm::{accumulate_mode_rows, gemm, gemm_threaded, gemv, Trans};
pub use isvd::IncrementalSvd;
pub use mat::Mat;
pub use obs::Observer;
pub use pool::{max_threads, WorkerPool};
pub use qr::{orthonormal_complement, orthonormal_complement_rows, qr, tsqr, Qr};
pub use simd::with_scalar_kernels;
pub use sketch::SketchSvd;
pub use svd::{
    numerical_rank, svd, svd_leading, svd_randomized, svd_sketched, svd_snapshots, svd_truncated,
    svd_with_stats, try_svd, SnapshotSvd, Svd, SvdStats, DEFAULT_SKETCH_SEED,
};
pub use svht::svht_rank;
