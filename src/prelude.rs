//! One-line import for applications built on the workspace:
//! `use chambolle::prelude::*;`.
//!
//! Pulls in the umbrella [`enum@Error`]/[`Result`] pair, the solver entry
//! points and parameter types, the execution context ([`ExecCtx`]) and
//! kernel backend selector, and the image substrate the solvers consume.

pub use crate::error::{Error, Result};

pub use chambolle_core::{
    chambolle_denoise, chambolle_denoise_with_ctx, chambolle_iterate, chambolle_iterate_with_ctx,
    CancelToken, ChambolleParams, ExecCtx, GuardedDenoiser, KernelBackend, NumericsPolicy,
    ParallelSolver, RecoveryPolicy, SequentialSolver, TvDenoiser, TvL1Params, TvL1Solver,
};
pub use chambolle_imaging::{
    read_pgm, write_pgm, FlowField, Grid, Image, Pyramid, WarpLinearization,
};
pub use chambolle_par::ThreadPool;
pub use chambolle_telemetry::Telemetry;
