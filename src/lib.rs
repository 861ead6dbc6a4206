//! Facade crate for the reproduction of *"A High-Performance Parallel
//! Implementation of the Chambolle Algorithm"* (Akin et al., DATE 2011).
//!
//! Re-exports the whole workspace under one roof:
//!
//! - [`imaging`] — grids, pyramids, warping, synthetic ground-truth scenes,
//!   flow metrics and I/O;
//! - [`fixed`] — the accelerator's Q-format datapath and LUT square root;
//! - [`core`] — the Chambolle solver (sequential and the paper's loop
//!   decomposition over row bands), TV-L1, baselines, diagnostics, and the tiered
//!   numerics policy (`Exact` bit-reproducible kernels vs the `Fast`
//!   FMA/temporally-fused tier, selected per call through
//!   [`core::ExecCtx`] or `CHAMBOLLE_NUMERICS=fast`);
//! - [`hwsim`] — the bit- and cycle-faithful simulator of the FPGA
//!   architecture with its timing and area models;
//! - [`par`] — the persistent worker pool behind every parallel code path:
//!   spawn-once park/unpark workers, deterministic row partitions, and a
//!   work-stealing tile queue;
//! - [`telemetry`] — the dependency-free observability layer: metric
//!   registry, span timers, request traces and the machine-readable
//!   [`telemetry::RunReport`];
//! - [`service`] — the long-running request service: bounded admission
//!   queue, micro-batching by lane, per-request deadlines
//!   with cooperative cancellation, priority lanes, graceful drain-based
//!   shutdown, and a framed localhost TCP front-end. Its schedule is
//!   three constants: batches of up to 8, watermarks at 3/4 and 1/4 of
//!   queue capacity.
//!
//! On top of the re-exports, the facade adds the [`enum@Error`] umbrella —
//! one enum with a `From` impl per crate-local error type, so application
//! code can use `?` across the whole stack — and a [`prelude`] with the
//! handful of types almost every program needs.
//!
//! The binaries `chambolle_flow` and `chambolle_denoise` and the
//! `examples/` directory are built from this crate; the workspace-level
//! integration tests live in `tests/`.
//!
//! # Examples
//!
//! Estimate optical flow on a synthetic scene and check it against the
//! analytic ground truth:
//!
//! ```
//! use chambolle::core::{TvL1Params, TvL1Solver};
//! use chambolle::imaging::{average_endpoint_error, render_pair, Motion, NoiseTexture};
//!
//! let scene = NoiseTexture::new(42);
//! let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 1.0, dv: 0.5 });
//! let solver = TvL1Solver::sequential(TvL1Params::default());
//! let (flow, _) = solver.flow(&pair.i0, &pair.i1)?;
//! assert!(average_endpoint_error(&flow, &pair.truth) < 0.25);
//! # Ok::<(), chambolle::core::FlowError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod prelude;

pub use error::{Error, Result};

pub use chambolle_core as core;
pub use chambolle_fixed as fixed;
pub use chambolle_hwsim as hwsim;
pub use chambolle_imaging as imaging;
pub use chambolle_par as par;
pub use chambolle_service as service;
pub use chambolle_telemetry as telemetry;

/// The widest pool the command-line tools accept for `--threads`. A pool
/// spawns `threads − 1` OS threads up front, so a width far above any
/// host's core count would exhaust the host before a pixel is solved.
pub const MAX_THREADS: usize = 1024;

/// The command-line tools' default `--threads`: the host's available
/// parallelism (1 if unknown), capped at [`MAX_THREADS`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_THREADS)
}
