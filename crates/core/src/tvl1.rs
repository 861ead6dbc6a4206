//! The TV-L1 optical-flow outer loop (Zach et al. 2007; the paper's
//! references \[11\] and \[13\]) around a pluggable Chambolle inner solver.
//!
//! Coarse-to-fine over a Gaussian pyramid; at each level the data term is
//! re-linearized (`warps` times) around the current flow, a pointwise
//! *thresholding step* produces the auxiliary field `v`, and the coupled TV
//! term is solved per component by the Chambolle algorithm — the part the
//! paper accelerates and which dominates the runtime (the profiling claim of
//! its introduction is reproduced by [`FlowStats::chambolle_fraction`]).

use std::fmt;
use std::time::{Duration, Instant};

use chambolle_imaging::{
    upsample_flow_component, FlowField, Grid, Image, Pyramid, WarpLinearization,
};

use crate::cancel::Cancelled;
use crate::ctx::ExecCtx;
use crate::params::TvL1Params;
use crate::solver::{SequentialSolver, TvDenoiser};

/// TV-L1 optical-flow solver with a pluggable Chambolle backend.
///
/// # Examples
///
/// ```
/// use chambolle_core::{TvL1Params, TvL1Solver};
/// use chambolle_imaging::{render_pair, Motion, NoiseTexture};
///
/// let scene = NoiseTexture::new(1);
/// let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 1.0, dv: 0.0 });
/// let solver = TvL1Solver::sequential(TvL1Params::default());
/// let (flow, stats) = solver.flow(&pair.i0, &pair.i1)?;
/// assert_eq!(flow.dims(), (64, 48));
/// assert!(stats.chambolle_fraction() > 0.0);
/// # Ok::<(), chambolle_core::FlowError>(())
/// ```
pub struct TvL1Solver<D> {
    params: TvL1Params,
    inner: D,
}

impl TvL1Solver<SequentialSolver> {
    /// A solver using the sequential Algorithm-1 backend.
    pub fn sequential(params: TvL1Params) -> Self {
        TvL1Solver {
            params,
            inner: SequentialSolver::new(),
        }
    }
}

impl<D: TvDenoiser> TvL1Solver<D> {
    /// Creates a solver around an arbitrary Chambolle backend (sequential,
    /// banded parallel, or the FPGA cycle simulator).
    pub fn with_backend(params: TvL1Params, inner: D) -> Self {
        TvL1Solver { params, inner }
    }

    /// The outer-loop parameters.
    pub fn params(&self) -> &TvL1Params {
        &self.params
    }

    /// The inner Chambolle backend.
    pub fn backend(&self) -> &D {
        &self.inner
    }

    /// Estimates the optical flow from `i0` to `i1` under
    /// [`ExecCtx::default`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] if the frames are empty or differ in size.
    pub fn flow(&self, i0: &Image, i1: &Image) -> Result<(FlowField, FlowStats), FlowError> {
        self.flow_with_ctx(i0, i1, None, &ExecCtx::default())
    }

    /// The consolidated flow entry point: one [`ExecCtx`] carries the pool,
    /// telemetry, cancellation token and kernel backend for the whole outer
    /// loop.
    ///
    /// `init` warm-starts the solve from a prior estimate (typically the
    /// previous frame pair's flow in a video): the prior is resampled to
    /// the coarsest pyramid level and refined from there.
    ///
    /// The context's pool, if any, drives the pyramid construction and
    /// per-warp linearization; its backend selects the SIMD level of those
    /// pooled image kernels; its token is polled at every outer-iteration
    /// boundary (so also between warps and between pyramid levels); and
    /// the solve is wrapped in a `tvl1.flow` telemetry span. All of these
    /// are bit-identical knobs — the flow matches the plain sequential path
    /// exactly for any context.
    ///
    /// A cancelled solve discards its partial flow and mutates nothing
    /// observable, and the context's pool stays fully reusable: the next
    /// solve on the same solver is bit-identical to a fresh one.
    ///
    /// The *inner* Chambolle backend stays the one this solver was built
    /// with ([`TvL1Solver::with_backend`]); pass a pool-aware backend (e.g.
    /// [`ParallelSolver`](crate::solver::ParallelSolver)) sharing the same
    /// pool to run the whole pipeline on one set of workers.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cancelled`] if the context's token fires
    /// mid-solve, and [`FlowError`] if the frames are empty, differ in
    /// size, or the prior's dimensions do not match the frames.
    pub fn flow_with_ctx(
        &self,
        i0: &Image,
        i1: &Image,
        init: Option<&FlowField>,
        ctx: &ExecCtx,
    ) -> Result<(FlowField, FlowStats), FlowError> {
        if i0.dims() != i1.dims() {
            return Err(FlowError::DimensionMismatch {
                first: i0.dims(),
                second: i1.dims(),
            });
        }
        if i0.is_empty() {
            return Err(FlowError::EmptyInput);
        }
        if let Some(prior) = init {
            if prior.dims() != i0.dims() {
                return Err(FlowError::DimensionMismatch {
                    first: i0.dims(),
                    second: prior.dims(),
                });
            }
        }

        let _span = ctx.telemetry().span("tvl1.flow");
        let start = Instant::now();
        let mut chambolle_time = Duration::ZERO;
        let mut chambolle_calls = 0u32;

        let pool = ctx.pool();
        let simd = ctx.backend();
        let build = |img: &Image| match pool {
            Some(pool) => Pyramid::build_scaled_with_pool(
                img,
                self.params.pyramid_levels,
                self.params.scale_factor,
                pool,
                simd,
            ),
            None => {
                Pyramid::build_scaled(img, self.params.pyramid_levels, self.params.scale_factor)
            }
        };
        let pyr0 = build(i0);
        let pyr1 = build(i1);
        let levels = pyr0.len().min(pyr1.len());

        let coarsest = &pyr0.levels()[levels - 1];
        let mut u = match init {
            Some(prior) => FlowField::from_components(
                upsample_flow_component(&prior.u1, coarsest.width(), coarsest.height()),
                upsample_flow_component(&prior.u2, coarsest.width(), coarsest.height()),
            ),
            None => FlowField::zeros(coarsest.width(), coarsest.height()),
        };

        for level in (0..levels).rev() {
            let l0 = &pyr0.levels()[level];
            let l1 = &pyr1.levels()[level];
            if u.dims() != l0.dims() {
                u = FlowField::from_components(
                    upsample_flow_component(&u.u1, l0.width(), l0.height()),
                    upsample_flow_component(&u.u2, l0.width(), l0.height()),
                );
            }
            for _ in 0..self.params.warps {
                let lin = match pool {
                    Some(pool) => WarpLinearization::new_with_pool(l0, l1, &u, pool, simd),
                    None => WarpLinearization::new(l0, l1, &u),
                };
                for _ in 0..self.params.outer_iterations {
                    ctx.checkpoint().map_err(FlowError::Cancelled)?;
                    let v = threshold_step(&lin, &u, self.params.lambda, self.params.inner.theta);
                    let t0 = Instant::now();
                    let (u1, u2) =
                        self.inner
                            .denoise_pair_with_ctx(&v.u1, &v.u2, &self.params.inner, ctx);
                    chambolle_time += t0.elapsed();
                    chambolle_calls += 2;
                    u = FlowField::from_components(u1, u2);
                }
                if self.params.median_filter {
                    u = FlowField::from_components(
                        chambolle_imaging::median3x3(&u.u1),
                        chambolle_imaging::median3x3(&u.u2),
                    );
                }
            }
        }

        Ok((
            u,
            FlowStats {
                total_time: start.elapsed(),
                chambolle_time,
                chambolle_calls,
                levels,
                warps: self.params.warps,
            },
        ))
    }
}

impl<D: fmt::Debug> fmt::Debug for TvL1Solver<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TvL1Solver")
            .field("params", &self.params)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Tracks flow across a video: each new frame pair is warm-started from the
/// previous pair's flow, which pays off whenever the motion is temporally
/// coherent (the motion-estimation use case of the paper's introduction).
///
/// # Examples
///
/// ```
/// use chambolle_core::{ExecCtx, TvL1Params, TvL1Solver, VideoFlowTracker};
/// use chambolle_imaging::{render_sequence, Motion, NoiseTexture};
///
/// let frames = render_sequence(
///     &NoiseTexture::new(1), 48, 40, Motion::Translation { du: 1.0, dv: 0.0 }, 3,
/// );
/// let mut tracker = VideoFlowTracker::new(TvL1Solver::sequential(TvL1Params::default()));
/// let ctx = ExecCtx::default();
/// let f01 = tracker.next_flow(&frames[0], &frames[1], &ctx)?;
/// let f12 = tracker.next_flow(&frames[1], &frames[2], &ctx)?; // warm-started from f01
/// assert_eq!(f01.dims(), f12.dims());
/// # Ok::<(), chambolle_core::FlowError>(())
/// ```
#[derive(Debug)]
pub struct VideoFlowTracker<D> {
    solver: TvL1Solver<D>,
    previous: Option<FlowField>,
}

impl<D: TvDenoiser> VideoFlowTracker<D> {
    /// Creates a tracker around a configured solver.
    pub fn new(solver: TvL1Solver<D>) -> Self {
        VideoFlowTracker {
            solver,
            previous: None,
        }
    }

    /// Estimates the flow for the next consecutive frame pair under `ctx`
    /// (see [`TvL1Solver::flow_with_ctx`]), warm-started from the previous
    /// pair's result (if any and if the size matches).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] for invalid frames, and
    /// [`FlowError::Cancelled`] if the context's token fires mid-solve; a
    /// failed pair leaves [`VideoFlowTracker::last_flow`] unchanged.
    pub fn next_flow(
        &mut self,
        i0: &Image,
        i1: &Image,
        ctx: &ExecCtx,
    ) -> Result<FlowField, FlowError> {
        let init = self
            .previous
            .as_ref()
            .filter(|prev| prev.dims() == i0.dims());
        let (flow, _) = self.solver.flow_with_ctx(i0, i1, init, ctx)?;
        self.previous = Some(flow.clone());
        Ok(flow)
    }

    /// The most recent flow, if a pair has been processed.
    pub fn last_flow(&self) -> Option<&FlowField> {
        self.previous.as_ref()
    }

    /// Forgets the temporal state (e.g. at a scene cut).
    pub fn reset(&mut self) {
        self.previous = None;
    }
}

/// The pointwise TV-L1 thresholding step: given the linearized residual
/// `rho(u)` and the gradient `g = ∇I1w`, the auxiliary field is
///
/// ```text
/// v = u + ⎧  λθ·g            if rho(u) < −λθ·|g|²
///         ⎨ −λθ·g            if rho(u) >  λθ·|g|²
///         ⎩ −rho(u)·g/|g|²   otherwise
/// ```
///
/// (Zach et al. 2007, eq. 15 — the paper's "support variable v ... defined
/// using a thresholding function".)
///
/// One sequential pass over the row-major slices of `u` and `lin`: every
/// case's increment is computed up front, so the case test is a pure
/// selection between ready values. The expressions
/// and their evaluation order are [`WarpLinearization::rho`] and
/// [`WarpLinearization::grad_sq`] cell for cell, without FMA contraction, so
/// the result is bit-identical to evaluating the cases per pixel.
///
/// # Panics
///
/// Panics if `u` and `lin` differ in size.
pub fn threshold_step(
    lin: &WarpLinearization,
    u: &FlowField,
    lambda: f32,
    theta: f32,
) -> FlowField {
    assert_eq!(u.dims(), lin.u0.dims(), "flow must match the linearization");
    let (w, h) = u.dims();
    let n = w * h;
    let lt = lambda * theta;
    let neg_lt = -lt;
    let (u1, u2) = (&u.u1.as_slice()[..n], &u.u2.as_slice()[..n]);
    let (u01, u02) = (&lin.u0.u1.as_slice()[..n], &lin.u0.u2.as_slice()[..n]);
    let residual = &lin.residual.as_slice()[..n];
    let (gx, gy) = (&lin.gx.as_slice()[..n], &lin.gy.as_slice()[..n]);
    let (mut v1, mut v2) = (vec![0.0f32; n], vec![0.0f32; n]);
    for i in 0..n {
        let (gx, gy) = (gx[i], gy[i]);
        let rho = residual[i] + gx * (u1[i] - u01[i]) + gy * (u2[i] - u02[i]);
        let g2 = gx * gx + gy * gy;
        let (mid1, mid2) = if g2 > GRAD_FLOOR {
            (-rho * gx / g2, -rho * gy / g2)
        } else {
            (0.0, 0.0)
        };
        let (d1, d2) = if rho < neg_lt * g2 {
            (lt * gx, lt * gy)
        } else if rho > lt * g2 {
            (neg_lt * gx, neg_lt * gy)
        } else {
            (mid1, mid2)
        };
        v1[i] = u1[i] + d1;
        v2[i] = u2[i] + d2;
    }
    let grid = |data| Grid::from_vec(w, h, data).expect("n = w·h cells");
    FlowField::from_components(grid(v1), grid(v2))
}

/// Gradients numerically this small carry no data information: the
/// thresholding step leaves `v = u` there.
const GRAD_FLOOR: f32 = 1e-9;

/// Wall-time accounting of one flow estimation — reproduces the paper's
/// profiling claim that "approximately 90% of the execution time is spent on
/// the Chambolle iterative technique".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Total wall time of the flow estimation.
    pub total_time: Duration,
    /// Wall time inside the Chambolle inner solves.
    pub chambolle_time: Duration,
    /// Number of inner solves (2 per warp: one per flow component).
    pub chambolle_calls: u32,
    /// Pyramid levels actually used.
    pub levels: usize,
    /// Warps per level.
    pub warps: u32,
}

impl FlowStats {
    /// Fraction of the total time spent in the Chambolle inner solver.
    pub fn chambolle_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.chambolle_time.as_secs_f64() / self.total_time.as_secs_f64()
    }
}

impl fmt::Display for FlowStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} ms total, {:.1} ms ({:.0}%) in Chambolle over {} solves ({} levels x {} warps)",
            self.total_time.as_secs_f64() * 1e3,
            self.chambolle_time.as_secs_f64() * 1e3,
            100.0 * self.chambolle_fraction(),
            self.chambolle_calls,
            self.levels,
            self.warps,
        )
    }
}

/// Error returned by [`TvL1Solver::flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowError {
    /// The two frames have different dimensions.
    DimensionMismatch {
        /// Dimensions of the first frame.
        first: (usize, usize),
        /// Dimensions of the second frame.
        second: (usize, usize),
    },
    /// A frame has zero pixels.
    EmptyInput,
    /// The solve was cancelled via the [`CancelToken`](crate::CancelToken)
    /// of its context (see [`TvL1Solver::flow_with_ctx`]).
    Cancelled(Cancelled),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::DimensionMismatch { first, second } => write!(
                f,
                "frame dimensions differ: {}x{} vs {}x{}",
                first.0, first.1, second.0, second.1
            ),
            FlowError::EmptyInput => write!(f, "input frames are empty"),
            FlowError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::params::ChambolleParams;
    use chambolle_imaging::{average_endpoint_error, render_pair, Motion, NoiseTexture, Scene};
    use chambolle_par::{KernelBackend, ThreadPool};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn fast_params() -> TvL1Params {
        TvL1Params::new(38.0, ChambolleParams::with_iterations(20), 3, 5, 4).unwrap()
    }

    #[test]
    fn recovers_small_translation() {
        let scene = NoiseTexture::new(42);
        let motion = Motion::Translation { du: 1.5, dv: -0.75 };
        let pair = render_pair(&scene, 64, 48, motion);
        let solver = TvL1Solver::sequential(fast_params());
        let (flow, stats) = solver.flow(&pair.i0, &pair.i1).unwrap();
        let aee = average_endpoint_error(&flow, &pair.truth);
        assert!(aee < 0.35, "AEE {aee} too high; stats: {stats}");
    }

    #[test]
    fn recovers_larger_translation_via_pyramid() {
        let scene = NoiseTexture::new(5);
        let motion = Motion::Translation { du: 4.0, dv: 2.0 };
        let pair = render_pair(&scene, 96, 72, motion);
        let solver = TvL1Solver::sequential(fast_params());
        let (flow, _) = solver.flow(&pair.i0, &pair.i1).unwrap();
        let aee = average_endpoint_error(&flow, &pair.truth);
        assert!(aee < 0.8, "AEE {aee} too high for 4px motion");
        // Mean flow should point the right way.
        let (m1, m2) = flow.mean();
        assert!(m1 > 2.0 && m2 > 1.0, "mean flow ({m1}, {m2})");
    }

    #[test]
    fn zero_motion_gives_near_zero_flow() {
        let scene = NoiseTexture::new(9);
        let i0 = scene.render(48, 48);
        let solver = TvL1Solver::sequential(fast_params());
        let (flow, _) = solver.flow(&i0, &i0).unwrap();
        assert!(
            flow.max_magnitude() < 0.05,
            "max |u| = {}",
            flow.max_magnitude()
        );
    }

    #[test]
    fn chambolle_dominates_runtime() {
        let scene = NoiseTexture::new(2);
        let pair = render_pair(&scene, 96, 96, Motion::Translation { du: 1.0, dv: 0.5 });
        let mut p = fast_params();
        p.inner = ChambolleParams::with_iterations(100);
        let solver = TvL1Solver::sequential(p);
        let (_, stats) = solver.flow(&pair.i0, &pair.i1).unwrap();
        // Paper: ~90% at their iteration counts. At 100 iterations the inner
        // solver must clearly dominate.
        assert!(
            stats.chambolle_fraction() > 0.6,
            "Chambolle fraction only {:.2}",
            stats.chambolle_fraction()
        );
    }

    #[test]
    fn pooled_pipeline_is_bit_identical_to_sequential() {
        use crate::solver::ParallelSolver;
        let scene = NoiseTexture::new(33);
        let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 1.0, dv: 0.5 });
        let p = fast_params();
        let (f_seq, _) = TvL1Solver::sequential(p).flow(&pair.i0, &pair.i1).unwrap();
        // One shared pool drives the pyramid, the warps, and the inner
        // Chambolle solves.
        let pool = std::sync::Arc::new(chambolle_par::ThreadPool::new(4));
        let solver = TvL1Solver::with_backend(p, ParallelSolver::with_pool(Arc::clone(&pool)));
        let ctx = ExecCtx::default().with_pool(Arc::clone(&pool));
        let (f_par, _) = solver
            .flow_with_ctx(&pair.i0, &pair.i1, None, &ctx)
            .unwrap();
        assert_eq!(f_seq.u1.as_slice(), f_par.u1.as_slice());
        assert_eq!(f_seq.u2.as_slice(), f_par.u2.as_slice());
        assert!(pool.stats().tasks > 0, "the shared pool must see the work");
    }

    /// A 96×72 pair over 4 levels: pyramid levels of 72 and 36 rows (two or
    /// more bands per component at 4+ threads), 18 rows (one band each) and
    /// 9 rows (inline).
    fn banded_levels_pair() -> (Image, Image, TvL1Params) {
        let scene = NoiseTexture::new(34);
        let pair = render_pair(&scene, 96, 72, Motion::Translation { du: 1.5, dv: -0.5 });
        let p = TvL1Params::new(38.0, ChambolleParams::with_iterations(30), 2, 2, 4).unwrap();
        (pair.i0, pair.i1, p)
    }

    fn supported_backends() -> impl Iterator<Item = KernelBackend> {
        [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ]
        .into_iter()
        .filter(KernelBackend::is_supported)
    }

    /// `chambolle_flow --threads N` on the pooled backend: the pool drives
    /// the outer loop and the inner solves, which get their pair of
    /// components through [`TvDenoiser::denoise_pair_with_ctx`].
    fn pooled_flow(
        i0: &Image,
        i1: &Image,
        p: TvL1Params,
        threads: usize,
        ctx: &ExecCtx,
    ) -> FlowField {
        use crate::solver::ParallelSolver;
        let pool = Arc::new(ThreadPool::new(threads));
        let backend: Box<dyn TvDenoiser> = Box::new(ParallelSolver::with_pool(Arc::clone(&pool)));
        let (flow, _) = TvL1Solver::with_backend(p, backend)
            .flow_with_ctx(i0, i1, None, &ctx.clone().with_pool(pool))
            .unwrap();
        flow
    }

    #[test]
    fn pooled_pair_flow_is_bit_identical_to_sequential_on_every_backend() {
        let (i0, i1, p) = banded_levels_pair();
        let exact = ExecCtx::default().with_numerics(crate::ctx::NumericsPolicy::Exact);
        let (f_seq, stats) = TvL1Solver::sequential(p)
            .flow_with_ctx(&i0, &i1, None, &exact)
            .unwrap();
        assert_eq!(stats.levels, 4);
        for backend in supported_backends() {
            let exact = ExecCtx::default()
                .with_backend(backend)
                .with_numerics(crate::ctx::NumericsPolicy::Exact);
            for threads in [1, 2, 3, 8] {
                let f_par = pooled_flow(&i0, &i1, p, threads, &exact);
                assert!(
                    flow_bits(&f_par) == flow_bits(&f_seq),
                    "{threads} threads on {backend:?}"
                );
            }
        }
    }

    #[test]
    fn fast_tier_pooled_pair_flow_equals_unpooled_flow() {
        let (i0, i1, p) = banded_levels_pair();
        for backend in supported_backends() {
            let fast = ExecCtx::default()
                .with_backend(backend)
                .with_numerics(crate::ctx::NumericsPolicy::Fast);
            let (f_seq, _) = TvL1Solver::sequential(p)
                .flow_with_ctx(&i0, &i1, None, &fast)
                .unwrap();
            for threads in [2, 3, 8] {
                let f_par = pooled_flow(&i0, &i1, p, threads, &fast);
                assert!(
                    flow_bits(&f_par) == flow_bits(&f_seq),
                    "{threads} threads on {backend:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_mismatched_and_empty_inputs() {
        let solver = TvL1Solver::sequential(fast_params());
        let a = Grid::new(10, 10, 0.0f32);
        let b = Grid::new(12, 10, 0.0f32);
        let err = solver.flow(&a, &b).unwrap_err();
        assert!(matches!(err, FlowError::DimensionMismatch { .. }));
        assert!(err.to_string().contains("10x10"));
    }

    #[test]
    fn threshold_step_cases() {
        use chambolle_imaging::FlowField;
        // Build a linearization with known gradient by hand: I1 = x ramp,
        // I0 = I1 + c so residual is -c everywhere, gradient = (1, 0).
        let i1 = Grid::from_fn(16, 8, |x, _| 0.1 * x as f32);
        let lambda = 0.5;
        let theta = 0.25;
        let lt = lambda * theta;
        // Case 1: large positive residual -> v = u - λθ·g.
        let i0 = i1.map(|&v| v - 1.0); // residual = I1w - I0 = +1
        let lin = WarpLinearization::new(&i0, &i1, &FlowField::zeros(16, 8));
        let v = threshold_step(&lin, &FlowField::zeros(16, 8), lambda, theta);
        let (v1, _) = v.at(8, 4);
        assert!((v1 + lt * lin.gx[(8, 4)]).abs() < 1e-6);
        // Case 2: small residual -> v = u - rho·g/|g|².
        let i0b = i1.map(|&v| v - 1e-4);
        let lin_b = WarpLinearization::new(&i0b, &i1, &FlowField::zeros(16, 8));
        let vb = threshold_step(&lin_b, &FlowField::zeros(16, 8), lambda, theta);
        let (v1b, _) = vb.at(8, 4);
        let expect = -1e-4 * lin_b.gx[(8, 4)] / lin_b.grad_sq(8, 4);
        assert!((v1b - expect).abs() < 1e-6);
        // Case 3: zero gradient -> v = u.
        let flat = Grid::new(16, 8, 0.5f32);
        let lin_c = WarpLinearization::new(&flat, &flat, &FlowField::zeros(16, 8));
        let vc = threshold_step(&lin_c, &FlowField::constant(16, 8, 2.0, 3.0), lambda, theta);
        assert_eq!(vc.at(8, 4), (2.0, 3.0));
    }

    /// [`threshold_step`]'s case analysis evaluated per pixel through the
    /// linearization's 2-D accessors: the bit-exactness oracle for the
    /// single-pass loop.
    fn threshold_step_per_pixel(
        lin: &WarpLinearization,
        u: &FlowField,
        lambda: f32,
        theta: f32,
    ) -> FlowField {
        let lt = lambda * theta;
        FlowField::from_fn(u.width(), u.height(), |x, y| {
            let (u1, u2) = u.at(x, y);
            let rho = lin.rho(x, y, u1, u2);
            let g2 = lin.grad_sq(x, y);
            let gx = lin.gx[(x, y)];
            let gy = lin.gy[(x, y)];
            let (d1, d2) = if rho < -lt * g2 {
                (lt * gx, lt * gy)
            } else if rho > lt * g2 {
                (-lt * gx, -lt * gy)
            } else if g2 > GRAD_FLOOR {
                (-rho * gx / g2, -rho * gy / g2)
            } else {
                (0.0, 0.0)
            };
            (u1 + d1, u2 + d2)
        })
    }

    fn flow_bits(flow: &FlowField) -> Vec<u32> {
        flow.u1
            .as_slice()
            .iter()
            .chain(flow.u2.as_slice())
            .map(|v| v.to_bits())
            .collect()
    }

    /// A cell value that is ordinary most of the time and otherwise one of
    /// the thresholding step's edge inputs: ±0.0 or a gradient-floor-sized
    /// magnitude.
    fn edgy(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1e-5f32..1e-5),
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    fn edgy_grid(rng: &mut StdRng, w: usize, h: usize) -> Image {
        Grid::from_fn(w, h, |_, _| edgy(rng))
    }

    /// A random linearization around a random `u0`, and a candidate flow.
    fn random_linearization(
        rng: &mut StdRng,
        w: usize,
        h: usize,
    ) -> (WarpLinearization, FlowField) {
        let warped = edgy_grid(rng, w, h);
        let gx = edgy_grid(rng, w, h);
        let gy = edgy_grid(rng, w, h);
        let residual = edgy_grid(rng, w, h);
        let u0 = FlowField::from_components(edgy_grid(rng, w, h), edgy_grid(rng, w, h));
        let u = FlowField::from_components(edgy_grid(rng, w, h), edgy_grid(rng, w, h));
        let lin = WarpLinearization {
            warped,
            gx,
            gy,
            residual,
            u0,
        };
        (lin, u)
    }

    fn assert_matches_oracle(lin: &WarpLinearization, u: &FlowField, lambda: f32, theta: f32) {
        assert_eq!(
            flow_bits(&threshold_step(lin, u, lambda, theta)),
            flow_bits(&threshold_step_per_pixel(lin, u, lambda, theta)),
            "λ = {lambda}, θ = {theta}, {:?}",
            u.dims()
        );
    }

    #[test]
    fn flat_threshold_step_is_bit_identical_to_per_pixel_cases() {
        let mut rng = StdRng::seed_from_u64(97);
        for (w, h) in [(1usize, 1usize), (7, 3), (33, 17), (64, 48)] {
            for (lambda, theta) in [
                (0.15f32, 0.3f32),
                (38.0, 0.25),
                (1e30, 0.25),
                (f32::MAX, 2.0),
            ] {
                let (lin, u) = random_linearization(&mut rng, w, h);
                assert_matches_oracle(&lin, &u, lambda, theta);
            }
        }
    }

    #[test]
    fn flat_threshold_step_matches_on_flat_frames_and_case_boundaries() {
        let (w, h) = (19usize, 11usize);
        let mut rng = StdRng::seed_from_u64(98);
        let (lambda, theta) = (0.15f32, 0.3f32);
        let lt = lambda * theta;
        // Flat frames: zero, negative-zero and sub-floor gradients, so g2 is
        // at most GRAD_FLOOR everywhere and v = u + 0.
        for g in [0.0f32, -0.0, 1e-6, -2e-5] {
            let (mut lin, u) = random_linearization(&mut rng, w, h);
            lin.gx = Grid::new(w, h, g);
            lin.gy = Grid::new(w, h, -g);
            assert!(lin.grad_sq(0, 0) <= GRAD_FLOOR);
            assert_matches_oracle(&lin, &u, lambda, theta);
        }
        // rho exactly at ±λθ·g2: with u = u0 the increments vanish, so rho
        // is the residual, which is set to the threshold itself.
        let (mut lin, _) = random_linearization(&mut rng, w, h);
        let u = lin.u0.clone();
        for sign in [1.0f32, -1.0] {
            lin.residual = Grid::from_fn(w, h, |x, y| sign * lt * lin.grad_sq(x, y));
            for (x, y) in [(0, 0), (5, 3), (18, 10)] {
                let (u1, u2) = u.at(x, y);
                assert_eq!(lin.rho(x, y, u1, u2).abs(), lt * lin.grad_sq(x, y));
            }
            assert_matches_oracle(&lin, &u, lambda, theta);
        }
        // All-negative-zero inputs: v = −0.0 + 0.0 = +0.0 in both forms.
        let nz = Grid::new(w, h, -0.0f32);
        let lin = WarpLinearization {
            warped: nz.clone(),
            gx: nz.clone(),
            gy: nz.clone(),
            residual: nz.clone(),
            u0: FlowField::from_components(nz.clone(), nz.clone()),
        };
        let u = FlowField::from_components(nz.clone(), nz);
        assert_matches_oracle(&lin, &u, lambda, theta);
        assert_eq!(
            threshold_step(&lin, &u, lambda, theta).at(3, 3).0.to_bits(),
            0
        );
    }

    #[test]
    fn warm_start_tracks_video() {
        use chambolle_imaging::render_sequence;
        let motion = Motion::Translation { du: 2.0, dv: 1.0 };
        let frames = render_sequence(&NoiseTexture::new(71), 64, 48, motion, 7);
        // A deliberately weak configuration: 1 warp and no pyramid can't
        // recover 2px motion from scratch, but refines a good prior; over a
        // coherent sequence the tracker converges to the true motion.
        let weak = TvL1Params::new(38.0, ChambolleParams::with_iterations(15), 1, 2, 1).unwrap();
        let truth = motion.ground_truth(64, 48);

        // Cold: single weak solve on the last pair.
        let (cold, _) = TvL1Solver::sequential(weak)
            .flow(&frames[5], &frames[6])
            .unwrap();
        // Warm: track through the sequence with the same weak solver.
        let mut tracker = VideoFlowTracker::new(TvL1Solver::sequential(weak));
        let mut warm = None;
        for t in 0..6 {
            warm = Some(
                tracker
                    .next_flow(&frames[t], &frames[t + 1], &ExecCtx::default())
                    .unwrap(),
            );
        }
        let warm = warm.unwrap();
        let e_cold = average_endpoint_error(&cold, &truth);
        let e_warm = average_endpoint_error(&warm, &truth);
        assert!(
            e_warm < 0.6 * e_cold,
            "warm start should help a weak solver: cold {e_cold} vs warm {e_warm}"
        );
        assert!(tracker.last_flow().is_some());
        tracker.reset();
        assert!(tracker.last_flow().is_none());
    }

    #[test]
    fn tracker_runs_under_the_callers_context() {
        use crate::cancel::CancelReason;
        use chambolle_imaging::render_sequence;
        let motion = Motion::Translation { du: 1.0, dv: 0.5 };
        let frames = render_sequence(&NoiseTexture::new(73), 48, 36, motion, 4);
        let track = |ctx: &ExecCtx| {
            let mut tracker = VideoFlowTracker::new(TvL1Solver::sequential(fast_params()));
            let flows: Vec<FlowField> = frames
                .windows(2)
                .map(|pair| tracker.next_flow(&pair[0], &pair[1], ctx).unwrap())
                .collect();
            (tracker, flows)
        };
        // The default context with its tier pinned: the suite also runs with
        // CHAMBOLLE_NUMERICS=fast, which flips the default tier.
        let exact = ExecCtx::default().with_numerics(crate::ctx::NumericsPolicy::Exact);
        let (mut tracker, plain) = track(&exact);
        let pool = Arc::new(ThreadPool::new(2));
        let (_, pooled) = track(&exact.clone().with_pool(Arc::clone(&pool)));
        assert_eq!(plain.len(), 3);
        for (t, (a, b)) in plain.iter().zip(&pooled).enumerate() {
            assert!(flow_bits(a) == flow_bits(b), "pair {t}");
        }
        assert!(
            pool.stats().tasks > 0,
            "the pooled context must see the work"
        );

        let token = CancelToken::new();
        token.cancel();
        let err = tracker
            .next_flow(&frames[0], &frames[1], &exact.with_cancel(token))
            .unwrap_err();
        assert!(matches!(err, FlowError::Cancelled(c) if c.reason == CancelReason::Explicit));
        let last = tracker.last_flow().expect("three pairs were tracked");
        assert!(flow_bits(last) == flow_bits(&plain[2]));
    }

    #[test]
    fn flow_with_ctx_validates_prior_size() {
        use chambolle_imaging::FlowField;
        let scene = NoiseTexture::new(72);
        let pair = render_pair(&scene, 40, 30, Motion::Translation { du: 1.0, dv: 0.0 });
        let solver = TvL1Solver::sequential(fast_params());
        let ctx = ExecCtx::default();
        let bad_prior = FlowField::zeros(41, 30);
        assert!(solver
            .flow_with_ctx(&pair.i0, &pair.i1, Some(&bad_prior), &ctx)
            .is_err());
        let good_prior = FlowField::constant(40, 30, 1.0, 0.0);
        assert!(solver
            .flow_with_ctx(&pair.i0, &pair.i1, Some(&good_prior), &ctx)
            .is_ok());
    }

    #[test]
    fn gentler_pyramid_helps_large_motion() {
        let scene = NoiseTexture::new(61);
        let motion = Motion::Translation { du: 7.0, dv: 0.0 };
        let pair = render_pair(&scene, 128, 64, motion);
        let coarse = fast_params();
        let gentle = fast_params().with_scale_factor(0.75).unwrap();
        let mut gentle = gentle;
        gentle.pyramid_levels = 8;
        let (f_half, _) = TvL1Solver::sequential(coarse)
            .flow(&pair.i0, &pair.i1)
            .unwrap();
        let (f_gentle, _) = TvL1Solver::sequential(gentle)
            .flow(&pair.i0, &pair.i1)
            .unwrap();
        let e_half = average_endpoint_error(&f_half, &pair.truth);
        let e_gentle = average_endpoint_error(&f_gentle, &pair.truth);
        assert!(e_gentle < 1.0, "gentle pyramid AEE {e_gentle}");
        assert!(
            e_gentle <= e_half * 1.5,
            "gentle pyramid should not be much worse: {e_gentle} vs {e_half}"
        );
    }

    #[test]
    fn median_filter_variant_still_recovers_flow() {
        let scene = NoiseTexture::new(55);
        let motion = Motion::Translation { du: 1.5, dv: 0.5 };
        let pair = render_pair(&scene, 64, 48, motion);
        let p = fast_params().with_median_filter();
        let solver = TvL1Solver::sequential(p);
        let (flow, _) = solver.flow(&pair.i0, &pair.i1).unwrap();
        let aee = average_endpoint_error(&flow, &pair.truth);
        assert!(aee < 0.4, "median-filtered AEE {aee}");
        // And the flag changes the result relative to the plain scheme.
        let (plain, _) = TvL1Solver::sequential(fast_params())
            .flow(&pair.i0, &pair.i1)
            .unwrap();
        assert_ne!(flow.u1.as_slice(), plain.u1.as_slice());
    }

    #[test]
    fn stats_count_the_inner_solves() {
        let scene = NoiseTexture::new(81);
        let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 0.5, dv: 0.0 });
        let p = fast_params();
        let (_, stats) = TvL1Solver::sequential(p).flow(&pair.i0, &pair.i1).unwrap();
        // Two component solves per alternation, outer_iterations per warp,
        // warps per level.
        assert_eq!(
            stats.chambolle_calls,
            stats.levels as u32 * p.warps * p.outer_iterations * 2
        );
        assert_eq!(stats.warps, p.warps);
        assert!(stats.levels <= p.pyramid_levels);
    }

    #[test]
    fn cancellable_flow_matches_plain_flow_bit_for_bit() {
        let scene = NoiseTexture::new(44);
        let pair = render_pair(&scene, 48, 36, Motion::Translation { du: 1.0, dv: 0.5 });
        let solver = TvL1Solver::sequential(fast_params());
        let (plain, _) = solver.flow(&pair.i0, &pair.i1).unwrap();
        let ctx = ExecCtx::default().with_cancel(CancelToken::new());
        let (canc, _) = solver
            .flow_with_ctx(&pair.i0, &pair.i1, None, &ctx)
            .unwrap();
        assert_eq!(plain.u1.as_slice(), canc.u1.as_slice());
        assert_eq!(plain.u2.as_slice(), canc.u2.as_slice());
    }

    #[test]
    fn cancelled_flow_returns_clean_error_and_solver_stays_usable() {
        use crate::cancel::CancelReason;
        let scene = NoiseTexture::new(45);
        let pair = render_pair(&scene, 48, 36, Motion::Translation { du: 1.0, dv: 0.0 });
        let solver = TvL1Solver::sequential(fast_params());
        let token = CancelToken::new();
        token.cancel();
        let ctx = ExecCtx::default().with_cancel(token);
        let err = solver
            .flow_with_ctx(&pair.i0, &pair.i1, None, &ctx)
            .unwrap_err();
        match err {
            FlowError::Cancelled(c) => assert_eq!(c.reason, CancelReason::Explicit),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(err.to_string().contains("cancelled"));
        // The same solver still produces the reference flow afterwards.
        let (reference, _) = TvL1Solver::sequential(fast_params())
            .flow(&pair.i0, &pair.i1)
            .unwrap();
        let (after, _) = solver.flow(&pair.i0, &pair.i1).unwrap();
        assert_eq!(reference.u1.as_slice(), after.u1.as_slice());
    }

    #[test]
    fn stats_display_mentions_chambolle() {
        let stats = FlowStats {
            total_time: Duration::from_millis(100),
            chambolle_time: Duration::from_millis(90),
            chambolle_calls: 10,
            levels: 3,
            warps: 5,
        };
        let s = stats.to_string();
        assert!(s.contains("90%"));
        assert!((stats.chambolle_fraction() - 0.9).abs() < 1e-9);
    }
}
