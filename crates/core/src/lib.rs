//! The Chambolle total-variation solver and the TV-L1 optical-flow pipeline
//! of *"A High-Performance Parallel Implementation of the Chambolle
//! Algorithm"* (Akin et al., DATE 2011), in software form.
//!
//! The crate contains:
//!
//! - [`ops`] — the discrete gradient/divergence operators of Algorithm 1;
//! - [`solver`] — the Chambolle fixed-point iteration
//!   ([`chambolle_denoise`]), the [`TvDenoiser`] backend abstraction, and
//!   [`ParallelSolver`], the paper's loop decomposition on a CPU: row
//!   bands with K halo rows above and K+1 below per block of iterations,
//!   bit-identical to the sequential solver;
//! - [`dependency`] — the Figure-1 dependency-cone analysis that justifies
//!   loop decomposition and the sliding-window halo;
//! - [`tiling`] — the paper's 2-D sliding-window geometry ([`TileConfig`],
//!   [`TilePlan`]) that the hardware simulator plans its windows with;
//! - [`tvl1`] — the TV-L1 optical-flow outer loop ([`TvL1Solver`]) with
//!   profiling that reproduces the "~90% of time in Chambolle" claim;
//! - [`guard`] — the guarded solver pipeline: input scrubbing, divergence
//!   detection over the duality gap, and graceful degradation to the
//!   sequential reference with a structured [`RecoveryReport`];
//! - [`cancel`] — cooperative cancellation and deadlines ([`CancelToken`])
//!   polled at iteration boundaries by the `*_with_ctx` solver entry
//!   points, the hooks a long-running request service builds on;
//! - [`kernels`] — the row kernels and the one band iteration every solve
//!   path runs, dispatched on a [`KernelBackend`] (re-exported from
//!   [`chambolle_par::simd`]): scalar, SSE2, AVX2 and AVX-512 levels
//!   selected at runtime (override with `CHAMBOLLE_BACKEND`), all
//!   bit-identical by contract at the Exact tier, where SSE2 runs the
//!   scalar reference and AVX-512 the AVX2 bodies;
//! - [`ctx`] — the [`ExecCtx`] execution context consolidating pool,
//!   telemetry, cancellation, kernel backend and numerics tier behind one
//!   `*_with_ctx` entry point per solve family;
//! - [`fast`] — the [`NumericsPolicy::Fast`](ctx::NumericsPolicy) tier:
//!   FMA/approximate-reciprocal row kernels (AVX2+FMA and true 16-lane
//!   AVX-512F) and the fused term+update row step, validated against the
//!   Exact tier by energy/duality-gap tolerance instead of bit equality.
//!
//! # Examples
//!
//! Denoise an image with the banded parallel solver and verify it matches
//! the sequential reference exactly:
//!
//! ```
//! use chambolle_core::{
//!     ChambolleParams, ExecCtx, NumericsPolicy, ParallelSolver, SequentialSolver, TvDenoiser,
//! };
//! use chambolle_imaging::Grid;
//!
//! let v = Grid::from_fn(64, 64, |x, y| ((x / 8 + y / 8) % 2) as f32);
//! let params = ChambolleParams::with_iterations(25);
//! // Bit identity between schedules is the Exact tier's contract (pinned
//! // here so the example holds even under `CHAMBOLLE_NUMERICS=fast`).
//! let exact = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
//! let seq = SequentialSolver::new().denoise_with_ctx(&v, &params, &exact);
//! let banded = ParallelSolver::new(2).denoise_with_ctx(&v, &params, &exact);
//! assert_eq!(seq.as_slice(), banded.as_slice());
//! ```

#![warn(missing_docs)]

pub mod block_matching;
pub mod cancel;
pub mod ctx;
pub mod decomposition;
pub mod dependency;
pub mod diagnostics;
pub mod fast;
pub mod guard;
pub mod horn_schunck;
pub mod kernels;
pub mod ops;
mod params;
mod real;
pub mod solver;
pub mod tiling;
pub mod tvl1;
pub mod weighted;

pub use block_matching::{block_matching_flow, BlockMatchingParams};
pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use chambolle_par::KernelBackend;
pub use ctx::{ExecCtx, NumericsPolicy};
pub use decomposition::{compute_group_decomposed, DecomposedStats, GroupRect};
pub use diagnostics::{
    chambolle_denoise_monitored, chambolle_denoise_monitored_with_ctx, duality_gap,
    duality_gap_compact, rof_dual_energy, try_duality_gap, try_duality_gap_compact,
    try_rof_dual_energy, ConvergencePoint, SolveReport,
};
pub use guard::{
    guarded_denoise_monitored, guarded_denoise_with_ctx, output_is_valid, scrub_non_finite,
    validate_solvable, GuardError, GuardedDenoiser, RecoveryAction, RecoveryPolicy, RecoveryReport,
};
pub use horn_schunck::{HornSchunck, HornSchunckParams};
pub use params::{ChambolleParams, InvalidParamsError, TvL1Params};
pub use real::Real;
pub use solver::{
    chambolle_denoise, chambolle_denoise_with_ctx, chambolle_iterate, chambolle_iterate_with_ctx,
    recover_u, rof_energy, try_rof_energy, Convention, DualField, ParallelSolver, SequentialSolver,
    TvDenoiser,
};
pub use tiling::{chambolle_iterate_tiled_with_ctx, Tile, TileConfig, TilePlan};
pub use tvl1::{threshold_step, FlowError, FlowStats, TvL1Solver, VideoFlowTracker};
pub use weighted::{
    chambolle_denoise_weighted, chambolle_denoise_weighted_with_ctx, edge_stopping_weights,
    weighted_rof_energy,
};
