//! The sequential Chambolle fixed-point solver (Algorithm 1 of the paper).
//!
//! One iteration does, for every cell:
//!
//! ```text
//! div_p = BackwardX(px) + BackwardY(py)
//! Term  = div_p − v/θ
//! Term1 = ForwardX(Term);  Term2 = ForwardY(Term)
//! |∇|   = sqrt(Term1² + Term2²)
//! px    = (px + τ/θ·Term1) / (1 + τ/θ·|∇|)
//! py    = (py + τ/θ·Term2) / (1 + τ/θ·|∇|)
//! ```
//!
//! and finally `u = v − θ·div p`. The per-cell arithmetic lives in
//! [`compute_term_into`] / [`update_p_inplace`], which the tiled parallel
//! solver reuses verbatim so that tiled and sequential results are
//! **bit-identical** on profitable cells.

use std::sync::Arc;

use chambolle_imaging::Grid;
use chambolle_par::{ThreadPool, UnsafeSharedSlice};

use crate::cancel::Cancelled;
use crate::ctx::{ExecCtx, NumericsPolicy};
use crate::fast;
use crate::kernels::{BandHalo, BelowHalo};
use crate::ops::{div_x_at, div_y_at, total_variation};
use crate::params::{ChambolleParams, InvalidParamsError};
use crate::real::Real;

/// The dual variable `p = (px, py)` of the Chambolle iteration
/// (the paper's intermediate `pxu`/`pyu` storage).
#[derive(Debug, Clone, PartialEq)]
pub struct DualField<R: Real> {
    /// x-component of the dual vector field.
    pub px: Grid<R>,
    /// y-component of the dual vector field.
    pub py: Grid<R>,
}

impl<R: Real> DualField<R> {
    /// The zero dual field — the iteration's initial state.
    pub fn zeros(width: usize, height: usize) -> Self {
        DualField {
            px: Grid::new(width, height, R::ZERO),
            py: Grid::new(width, height, R::ZERO),
        }
    }

    /// `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.px.dims()
    }

    /// The largest Euclidean norm `|(px, py)|` over all cells.
    ///
    /// Chambolle's projection keeps this `≤ 1`; it is the key invariant of
    /// the iteration.
    pub fn max_norm(&self) -> f64 {
        self.px
            .as_slice()
            .iter()
            .zip(self.py.as_slice())
            .map(|(&a, &b)| {
                let (a, b) = (a.to_f64(), b.to_f64());
                (a * a + b * b).sqrt()
            })
            .fold(0.0, f64::max)
    }
}

/// Sign convention for the gradient inside the dual update.
///
/// [`Convention::Standard`] is Chambolle (2004) / Zach et al. (2007) and is
/// what every result in this workspace uses. [`Convention::PaperProse`] is
/// the literal reading of the paper's sentence "in `ForwardX` [each element
/// is reduced] by its right neighbor"; it steps in the *ascent* direction and
/// diverges — kept only to document the discrepancy (see `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Convention {
    /// Standard forward difference `z[x+1] − z[x]` (convergent).
    #[default]
    Standard,
    /// Literal prose `z[x] − z[x+1]` (divergent; for the reproduction study).
    PaperProse,
}

/// Pass 1 of an iteration: `term = div p − v/θ` into a caller-provided grid.
///
/// # Panics
///
/// Panics if grid dimensions differ.
pub fn compute_term_into<R: Real>(p: &DualField<R>, v: &Grid<R>, inv_theta: R, term: &mut Grid<R>) {
    assert_eq!(p.dims(), v.dims(), "dual field and v must match in size");
    assert_eq!(v.dims(), term.dims(), "term grid must match in size");
    let (w, h) = v.dims();
    for y in 0..h {
        for x in 0..w {
            let div = div_x_at(&p.px, x, y) + div_y_at(&p.py, x, y);
            term[(x, y)] = div - v[(x, y)] * inv_theta;
        }
    }
}

/// Pass 2 of an iteration: the semi-implicit dual update
/// `p ← (p + τ/θ·∇term) / (1 + τ/θ·|∇term|)`, in place.
///
/// # Panics
///
/// Panics if grid dimensions differ.
pub fn update_p_inplace<R: Real>(
    p: &mut DualField<R>,
    term: &Grid<R>,
    step_ratio: R,
    convention: Convention,
) {
    assert_eq!(
        p.dims(),
        term.dims(),
        "dual field and term must match in size"
    );
    let (w, h) = term.dims();
    for y in 0..h {
        for x in 0..w {
            let t1 = if x + 1 < w {
                match convention {
                    Convention::Standard => term[(x + 1, y)] - term[(x, y)],
                    Convention::PaperProse => term[(x, y)] - term[(x + 1, y)],
                }
            } else {
                R::ZERO
            };
            let t2 = if y + 1 < h {
                match convention {
                    Convention::Standard => term[(x, y + 1)] - term[(x, y)],
                    Convention::PaperProse => term[(x, y)] - term[(x, y + 1)],
                }
            } else {
                R::ZERO
            };
            let grad = (t1 * t1 + t2 * t2).sqrt();
            let denom = R::ONE + step_ratio * grad;
            p.px[(x, y)] = (p.px[(x, y)] + step_ratio * t1) / denom;
            p.py[(x, y)] = (p.py[(x, y)] + step_ratio * t2) / denom;
        }
    }
}

/// Runs `iterations` Chambolle iterations on `p` in place (the paper's
/// Algorithm 1 loop body, lines 2–8).
///
/// # Panics
///
/// Panics if `p` and `v` dimensions differ.
pub fn chambolle_iterate<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
) {
    chambolle_iterate_with_ctx(p, v, params, iterations, &ExecCtx::default())
        .expect("an inert context carries no cancellation token");
}

/// The consolidated iteration entry point: runs `iterations` Chambolle
/// iterations on `p` under the execution policy in `ctx`.
///
/// - no pool (or a 1-thread pool) → the fused sequential sweep;
/// - a pool → the banded parallel sweep of fused row kernels: each band
///   reads its own rows plus halo rows snapshotted from old-`p` state, so
///   the result is bit-identical to sequential for every thread count;
/// - the kernel rows run on `ctx.backend()` (bit-identical on every
///   backend under the default Exact tier);
/// - `ctx.numerics()` selects the numerics tier: `Exact` (default) keeps
///   the bit-identity contract; `Fast` routes `f32` solves through the
///   tolerance-validated kernels of [`crate::fast`] — sequentially as
///   K-deep temporally fused sweeps, in parallel as fast band iterations
///   (still thread-count invariant). `f64` solves always run exact;
/// - a cancellation token, if attached, is polled between iterations
///   (between fused sweeps at the Fast tier).
///
/// [`chambolle_iterate`] delegates here.
///
/// # Errors
///
/// Returns [`Cancelled`] if `ctx`'s token reports cancellation before all
/// `iterations` complete; `p` then holds the state after the last completed
/// iteration.
///
/// # Panics
///
/// Panics if `p` and `v` dimensions differ.
pub fn chambolle_iterate_with_ctx<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
    ctx: &ExecCtx,
) -> Result<(), Cancelled> {
    assert_eq!(p.dims(), v.dims(), "dual field and v must match in size");
    let (w, h) = v.dims();
    if w == 0 || h == 0 {
        return Ok(());
    }
    let inv_theta = R::ONE / R::from_f32(params.theta);
    let step_ratio = R::from_f32(params.step_ratio());
    let (backend, numerics) = (ctx.backend(), ctx.numerics());

    let pool = ctx.pool().map(Arc::as_ref);
    let bands = pool.map_or(1, ThreadPool::threads).min(h);
    if bands <= 1 {
        // Sequential Fast tier: fuse iterations K at a time into single
        // cache-resident passes over the frame. (`f64` solves never take
        // this branch — the fast tier is an `f32` contract.)
        if numerics == NumericsPolicy::Fast {
            if let (Some(px), Some(py), Some(vs)) = (
                fast::f32_slice_mut(p.px.as_mut_slice()),
                fast::f32_slice_mut(p.py.as_mut_slice()),
                fast::f32_slice(v.as_slice()),
            ) {
                let it = 1.0f32 / params.theta;
                let st = params.step_ratio();
                let mut remaining = iterations;
                while remaining > 0 {
                    ctx.checkpoint()?;
                    let k = remaining.min(fast::TEMPORAL_FUSION_DEPTH);
                    fast::temporal_sweep(backend, px, py, vs, w, h, it, st, k);
                    remaining -= k;
                }
                return Ok(());
            }
        }
        let (mut ta, mut tb) = (vec![R::ZERO; w], vec![R::ZERO; w]);
        for _ in 0..iterations {
            ctx.checkpoint()?;
            backend.fused_band_iteration(
                p.px.as_mut_slice(),
                p.py.as_mut_slice(),
                v.as_slice(),
                w,
                h,
                0,
                BandHalo {
                    py_above: None,
                    below: None,
                },
                inv_theta,
                step_ratio,
                &mut ta,
                &mut tb,
            );
        }
        return Ok(());
    }
    let pool = pool.expect("bands > 1 implies a pool");

    // Deterministic band bounds (the partition never depends on scheduling;
    // the result does not even depend on the partition — every band computes
    // from old-p data only).
    let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
    // Old-p halo rows copied fresh each iteration before the bands launch:
    // for the boundary at row r, py[r-1] (read by the band below it) and
    // px[r]/py[r] (read by the band above it).
    let mut snap_py_above = vec![vec![R::ZERO; w]; bands - 1];
    let mut snap_px_below = vec![vec![R::ZERO; w]; bands - 1];
    let mut snap_py_below = vec![vec![R::ZERO; w]; bands - 1];
    // Per-band term-row scratch, allocated once and reused every iteration.
    let mut term_scratch = vec![(vec![R::ZERO; w], vec![R::ZERO; w]); bands];

    for _ in 0..iterations {
        ctx.checkpoint()?;
        for b in 0..bands - 1 {
            let r = bounds[b + 1];
            snap_py_above[b].copy_from_slice(p.py.row(r - 1));
            snap_px_below[b].copy_from_slice(p.px.row(r));
            snap_py_below[b].copy_from_slice(p.py.row(r));
        }
        let px_view = UnsafeSharedSlice::new(p.px.as_mut_slice());
        let py_view = UnsafeSharedSlice::new(p.py.as_mut_slice());
        let term_view = UnsafeSharedSlice::new(&mut term_scratch);
        pool.parallel_tiles("par.solver.iteration", bands, |_, b| {
            let (r0, r1) = (bounds[b], bounds[b + 1]);
            // SAFETY: band row ranges are disjoint, and each band index runs
            // exactly once; foreign rows are only read through the halo
            // snapshots. Each band's scratch entry is touched by exactly the
            // task that owns index b.
            let (px_band, py_band, scratch) = unsafe {
                (
                    px_view.slice_mut(r0 * w, (r1 - r0) * w),
                    py_view.slice_mut(r0 * w, (r1 - r0) * w),
                    &mut term_view.slice_mut(b, 1)[0],
                )
            };
            let halo = BandHalo {
                py_above: (r0 > 0).then(|| snap_py_above[b - 1].as_slice()),
                below: (r1 < h).then(|| BelowHalo {
                    px: snap_px_below[b].as_slice(),
                    py: snap_py_below[b].as_slice(),
                    v: v.row(r1),
                }),
            };
            fast::band_iteration_tiered(
                backend,
                numerics,
                px_band,
                py_band,
                &v.as_slice()[r0 * w..r1 * w],
                w,
                h,
                r0,
                halo,
                inv_theta,
                step_ratio,
                &mut scratch.0,
                &mut scratch.1,
            );
        });
    }
    Ok(())
}

/// Recovers the primal solution `u = v − θ·div p` (Algorithm 1, line 9).
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn recover_u<R: Real>(v: &Grid<R>, p: &DualField<R>, theta: f32) -> Grid<R> {
    assert_eq!(v.dims(), p.dims(), "v and dual field must match in size");
    let th = R::from_f32(theta);
    Grid::from_fn(v.width(), v.height(), |x, y| {
        v[(x, y)] - th * (div_x_at(&p.px, x, y) + div_y_at(&p.py, x, y))
    })
}

/// Solves the ROF model `min_u TV(u) + ‖u − v‖²/(2θ)` with
/// `params.iterations` Chambolle iterations from a zero dual start.
///
/// Returns the denoised image and the final dual field (useful for
/// warm-starting or for inspecting the `|p| ≤ 1` invariant).
pub fn chambolle_denoise<R: Real>(
    v: &Grid<R>,
    params: &ChambolleParams,
) -> (Grid<R>, DualField<R>) {
    chambolle_denoise_with_ctx(v, params, &ExecCtx::default())
        .expect("an inert context carries no cancellation token")
}

/// The consolidated denoise entry point: solves the ROF model from a zero
/// dual start under the execution policy in `ctx`
/// (see [`chambolle_iterate_with_ctx`]).
///
/// [`chambolle_denoise`] delegates here.
///
/// A context carrying a [`DegradationPolicy`](crate::DegradationPolicy)
/// caps the iteration budget at `ctx.effective_iterations(params.iterations)`
/// — the brownout tier: the solve still runs and still returns, it just
/// converges less far. Without a policy the budget is exactly
/// `params.iterations` and results are unchanged.
///
/// # Errors
///
/// Returns [`Cancelled`] if `ctx`'s token reports cancellation before the
/// solve finishes; no partial output is produced.
pub fn chambolle_denoise_with_ctx<R: Real>(
    v: &Grid<R>,
    params: &ChambolleParams,
    ctx: &ExecCtx,
) -> Result<(Grid<R>, DualField<R>), Cancelled> {
    let mut p = DualField::zeros(v.width(), v.height());
    let iterations = ctx.effective_iterations(params.iterations);
    chambolle_iterate_with_ctx(&mut p, v, params, iterations, ctx)?;
    let u = recover_u(v, &p, params.theta);
    Ok((u, p))
}

/// The ROF primal energy `TV(u) + ‖u − v‖² / (2θ)` the iteration minimizes.
///
/// # Panics
///
/// Panics if dimensions differ or `theta <= 0`; [`try_rof_energy`] is the
/// non-panicking form.
pub fn rof_energy<R: Real>(u: &Grid<R>, v: &Grid<R>, theta: f32) -> f64 {
    try_rof_energy(u, v, theta).expect("invalid rof_energy input")
}

/// [`rof_energy`] with validated preconditions instead of panics.
///
/// # Errors
///
/// Returns [`InvalidParamsError`] if `u` and `v` differ in size or `theta`
/// is not positive (NaN included).
pub fn try_rof_energy<R: Real>(
    u: &Grid<R>,
    v: &Grid<R>,
    theta: f32,
) -> Result<f64, InvalidParamsError> {
    if u.dims() != v.dims() {
        return Err(InvalidParamsError::new(format!(
            "u {:?} and v {:?} must match in size",
            u.dims(),
            v.dims()
        )));
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
    if !(theta > 0.0) {
        return Err(InvalidParamsError::new(format!(
            "theta must be positive, got {theta}"
        )));
    }
    let quad: f64 = u
        .as_slice()
        .iter()
        .zip(v.as_slice())
        .map(|(&a, &b)| {
            let d = a.to_f64() - b.to_f64();
            d * d
        })
        .sum();
    Ok(total_variation(u) + quad / (2.0 * theta as f64))
}

/// Something that can run the Chambolle inner solve of TV-L1: the sequential
/// reference, the tiled parallel solver, or the FPGA cycle simulator.
///
/// The solve is per-component (`u1` from `v1`, `u2` from `v2`), exactly as
/// the paper's hardware instantiates one PE array per component.
pub trait TvDenoiser {
    /// Denoises `v` with the given Chambolle parameters, returning `u`.
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32>;

    /// Denoises `v` under an execution context (the TV-L1 outer loop calls
    /// this so its [`ExecCtx`] governs the inner solves).
    ///
    /// The default forwards to [`TvDenoiser::denoise`] and ignores the
    /// context — right for backends with fixed semantics like the hardware
    /// simulator. The software solvers override it to honor the context's
    /// kernel backend and numerics tier (but keep their own threading:
    /// which pool a solver runs on is the backend's identity).
    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        let _ = ctx;
        self.denoise(v, params)
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "unnamed"
    }
}

impl<T: TvDenoiser + ?Sized> TvDenoiser for Box<T> {
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        (**self).denoise(v, params)
    }

    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        (**self).denoise_with_ctx(v, params, ctx)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: TvDenoiser + ?Sized> TvDenoiser for &T {
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        (**self).denoise(v, params)
    }

    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        (**self).denoise_with_ctx(v, params, ctx)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The plain sequential Algorithm-1 solver (the software baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialSolver;

impl SequentialSolver {
    /// Creates the sequential solver.
    pub fn new() -> Self {
        SequentialSolver
    }
}

impl TvDenoiser for SequentialSolver {
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        chambolle_denoise(v, params).0
    }

    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        // Adopt the context's observability and kernel policy, but never
        // its pool: sequential is this backend's contract.
        let seq_ctx = ExecCtx::default()
            .with_telemetry(ctx.telemetry().clone())
            .with_backend(ctx.backend())
            .with_numerics(ctx.numerics());
        chambolle_denoise_with_ctx(v, params, &seq_ctx)
            .expect("a context without a token cannot be cancelled")
            .0
    }

    fn name(&self) -> &str {
        "sequential"
    }
}

/// The pool-backed fused-kernel solver: bit-identical to
/// [`SequentialSolver`], parallel over row bands.
///
/// # Examples
///
/// ```
/// use chambolle_core::{ChambolleParams, ParallelSolver, SequentialSolver, TvDenoiser};
/// use chambolle_imaging::Grid;
///
/// let v = Grid::from_fn(32, 24, |x, y| ((x ^ y) & 7) as f32 / 7.0);
/// let params = ChambolleParams::with_iterations(20);
/// let seq = SequentialSolver::new().denoise(&v, &params);
/// let par = ParallelSolver::new(4).denoise(&v, &params);
/// assert_eq!(seq.as_slice(), par.as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSolver {
    pool: Arc<ThreadPool>,
}

impl ParallelSolver {
    /// Creates a solver with its own pool of `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        ParallelSolver {
            pool: Arc::new(ThreadPool::new(threads)),
        }
    }

    /// Creates a solver sharing an existing pool (e.g. with the tiled
    /// solver or the TV-L1 pipeline).
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        ParallelSolver { pool }
    }

    /// The worker pool backing this solver.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }
}

impl TvDenoiser for ParallelSolver {
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        let mut p = DualField::zeros(v.width(), v.height());
        let ctx = ExecCtx::default().with_pool(Arc::clone(&self.pool));
        chambolle_iterate_with_ctx(&mut p, v, params, params.iterations, &ctx)
            .expect("an inert context carries no cancellation token");
        recover_u(v, &p, params.theta)
    }

    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        // This solver's pool is its identity; the context contributes its
        // observability and kernel policy only.
        let pooled_ctx = ExecCtx::default()
            .with_telemetry(ctx.telemetry().clone())
            .with_backend(ctx.backend())
            .with_numerics(ctx.numerics())
            .with_pool(Arc::clone(&self.pool));
        let mut p = DualField::zeros(v.width(), v.height());
        chambolle_iterate_with_ctx(&mut p, v, params, params.iterations, &pooled_ctx)
            .expect("an inert context carries no cancellation token");
        recover_u(v, &p, params.theta)
    }

    fn name(&self) -> &str {
        "parallel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy_step(w: usize, h: usize, seed: u64) -> Grid<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |x, _| {
            let base = if x < w / 2 { 0.2 } else { 0.8 };
            base + rng.gen_range(-0.1..0.1)
        })
    }

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let v = Grid::new(8, 8, 0.5f64);
        let (u, p) = chambolle_denoise(&v, &params(50));
        for &val in u.as_slice() {
            assert!((val - 0.5).abs() < 1e-12);
        }
        assert!(p.max_norm() < 1e-12);
    }

    #[test]
    fn energy_decreases_with_iterations() {
        let v = noisy_step(24, 16, 3);
        let e0 = rof_energy(&v, &v, 0.25); // u = v, zero iterations
        let mut prev = e0;
        for iters in [1u32, 5, 20, 80, 200] {
            let (u, _) = chambolle_denoise(&v, &params(iters));
            let e = rof_energy(&u, &v, 0.25);
            assert!(
                e <= prev + 1e-9,
                "energy should not increase: {prev} -> {e} at {iters} iterations"
            );
            prev = e;
        }
        assert!(
            prev < 0.95 * e0,
            "denoising should reduce energy materially"
        );
    }

    #[test]
    fn iterates_converge() {
        // Chambolle's dual iteration converges like O(1/k); check the
        // doubling-gap contracts and is already small at 400 iterations.
        let v = noisy_step(16, 16, 7);
        let gap = |a: u32, b: u32| {
            let (u1, _) = chambolle_denoise(&v, &params(a));
            let (u2, _) = chambolle_denoise(&v, &params(b));
            u1.as_slice()
                .iter()
                .zip(u2.as_slice())
                .map(|(&x, &y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        let g1 = gap(100, 200);
        let g2 = gap(400, 800);
        assert!(g2 < 0.01, "doubling gap should be small, got {g2}");
        assert!(g2 < g1, "doubling gap should shrink: {g1} -> {g2}");
    }

    #[test]
    fn solution_is_a_local_minimum() {
        let v = noisy_step(12, 12, 11);
        let (u, _) = chambolle_denoise(&v, &params(2000));
        let e_star = rof_energy(&u, &v, 0.25);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let perturbed = Grid::from_fn(12, 12, |x, y| u[(x, y)] + rng.gen_range(-1e-3..1e-3));
            let e = rof_energy(&perturbed, &v, 0.25);
            assert!(
                e >= e_star - 1e-9,
                "perturbation decreased energy: {e_star} -> {e}"
            );
        }
    }

    #[test]
    fn dual_norm_invariant() {
        let v = noisy_step(20, 14, 5);
        let mut p = DualField::zeros(20, 14);
        for _ in 0..10 {
            chambolle_iterate(&mut p, &v, &params(10), 10);
            assert!(
                p.max_norm() <= 1.0 + 1e-12,
                "|p| must stay within the unit ball"
            );
        }
    }

    #[test]
    fn denoising_smooths_noise_but_keeps_edges() {
        let v = noisy_step(32, 16, 13);
        let (u, _) = chambolle_denoise(&v, &params(300));
        // Noise within flat halves shrinks...
        let var = |g: &Grid<f64>, x0: usize, x1: usize| {
            let mut vals = Vec::new();
            for y in 2..14 {
                for x in x0..x1 {
                    vals.push(g[(x, y)]);
                }
            }
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        assert!(var(&u, 2, 14) < 0.25 * var(&v, 2, 14));
        // ...but the step edge survives.
        let left: f64 = (4..12).map(|y| u[(4, y)]).sum::<f64>() / 8.0;
        let right: f64 = (4..12).map(|y| u[(27, y)]).sum::<f64>() / 8.0;
        assert!(right - left > 0.3, "edge should survive: {left} vs {right}");
    }

    #[test]
    fn literal_prose_convention_diverges() {
        // Running the dual update with the paper's literal ForwardX/ForwardY
        // prose (z[x] − z[x+1]) ascends the dual objective: the resulting u
        // has *higher* ROF energy than the start, while the standard
        // convention lowers it. This documents the sign-convention erratum.
        let v = noisy_step(16, 16, 21);
        let pr = params(60);
        let inv_theta = 1.0 / pr.theta as f64;
        let step_ratio = pr.step_ratio() as f64;
        let run = |conv: Convention| {
            let mut p = DualField::zeros(16, 16);
            let mut term = Grid::new(16, 16, 0.0f64);
            for _ in 0..60 {
                compute_term_into(&p, &v, inv_theta, &mut term);
                update_p_inplace(&mut p, &term, step_ratio, conv);
            }
            rof_energy(&recover_u(&v, &p, pr.theta), &v, pr.theta)
        };
        let e_init = rof_energy(&v, &v, pr.theta);
        let e_std = run(Convention::Standard);
        let e_prose = run(Convention::PaperProse);
        assert!(e_std < e_init, "standard convention must descend");
        assert!(
            e_prose > e_init,
            "literal prose convention should fail to descend: init={e_init}, prose={e_prose}"
        );
    }

    #[test]
    fn f32_and_f64_agree_closely() {
        let v64 = noisy_step(16, 12, 17);
        let v32 = v64.map(|&x| x as f32);
        let (u64_, _) = chambolle_denoise(&v64, &params(100));
        let (u32_, _) = chambolle_denoise(&v32, &params(100));
        for i in 0..u64_.len() {
            let d = (u64_.as_slice()[i] - u32_.as_slice()[i] as f64).abs();
            assert!(d < 1e-3, "f32/f64 divergence {d} at {i}");
        }
    }

    #[test]
    fn parallel_solver_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(31);
        let v = Grid::from_fn(37, 29, |_, _| rng.gen_range(0.0f32..1.0));
        let pr = params(23);
        let reference = SequentialSolver::new().denoise(&v, &pr);
        for threads in [1usize, 2, 3, 8] {
            let solver = ParallelSolver::new(threads);
            let u = solver.denoise(&v, &pr);
            assert_eq!(
                reference.as_slice(),
                u.as_slice(),
                "parallel output must be bit-identical at {threads} threads"
            );
            assert_eq!(solver.name(), "parallel");
        }
    }

    #[test]
    fn parallel_solver_handles_degenerate_shapes() {
        let solver = ParallelSolver::new(4);
        for (w, h) in [(1usize, 1usize), (9, 1), (1, 7), (5, 2)] {
            let v = Grid::from_fn(w, h, |x, y| (x * 3 + y) as f32 * 0.1);
            let pr = params(6);
            let seq = SequentialSolver::new().denoise(&v, &pr);
            let par = solver.denoise(&v, &pr);
            assert_eq!(seq.as_slice(), par.as_slice(), "{w}x{h}");
        }
    }

    #[test]
    fn parallel_solver_shares_a_pool() {
        let pool = Arc::new(chambolle_par::ThreadPool::new(2));
        let solver = ParallelSolver::with_pool(Arc::clone(&pool));
        let v = Grid::new(16, 16, 0.5f32);
        let _ = solver.denoise(&v, &params(4));
        assert!(
            solver.pool().stats().tasks > 0,
            "work went through the pool"
        );
    }

    #[test]
    fn sequential_solver_trait_object() {
        let v = Grid::new(8, 8, 0.25f32);
        let solver: &dyn TvDenoiser = &SequentialSolver::new();
        let u = solver.denoise(&v, &params(5));
        assert_eq!(u.dims(), (8, 8));
        assert_eq!(solver.name(), "sequential");
    }

    #[test]
    fn cancellable_solve_matches_plain_solve_bit_for_bit() {
        let v = noisy_step(18, 14, 23).map(|&x| x as f32);
        let pr = params(40);
        let (u_plain, p_plain) = chambolle_denoise(&v, &pr);
        let token = crate::cancel::CancelToken::new();
        let ctx = ExecCtx::default().with_cancel(token);
        let (u_canc, p_canc) = chambolle_denoise_with_ctx(&v, &pr, &ctx).unwrap();
        assert_eq!(u_plain.as_slice(), u_canc.as_slice());
        assert_eq!(p_plain.px.as_slice(), p_canc.px.as_slice());
        assert_eq!(p_plain.py.as_slice(), p_canc.py.as_slice());
    }

    #[test]
    fn pre_cancelled_token_stops_before_first_iteration() {
        let v = noisy_step(10, 10, 29).map(|&x| x as f32);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let ctx = ExecCtx::default().with_cancel(token);
        let err = chambolle_denoise_with_ctx(&v, &params(50), &ctx).unwrap_err();
        assert_eq!(err.reason, crate::cancel::CancelReason::Explicit);
        // The dual state after a cancelled iterate is the last completed one:
        // cancelling before iteration 0 leaves the zero field untouched.
        let mut p = DualField::zeros(10, 10);
        let _ = chambolle_iterate_with_ctx(&mut p, &v, &params(50), 50, &ctx);
        assert!(p.max_norm() == 0.0);
    }

    #[test]
    fn single_pixel_and_single_row_images() {
        // Degenerate shapes must not panic and must keep constants fixed.
        for (w, h) in [(1usize, 1usize), (7, 1), (1, 9)] {
            let v = Grid::new(w, h, 0.3f64);
            let (u, _) = chambolle_denoise(&v, &params(20));
            for &val in u.as_slice() {
                assert!((val - 0.3).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn perturbation_travels_at_most_one_cell_per_iteration() {
        // The dependency-cone analysis (crate::dependency) says a change at
        // one cell can influence values at L-inf distance at most k after k
        // iterations. Verify against the real iteration: perturb v at one
        // cell and check where the dual field diverges.
        let mut rng = StdRng::seed_from_u64(42);
        let (w, h) = (21usize, 17usize);
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f64..1.0));
        let (cx, cy) = (10usize, 8usize);
        let mut v2 = v.clone();
        v2[(cx, cy)] += 0.5;
        for k in [1u32, 2, 4] {
            let mut pa = DualField::zeros(w, h);
            let mut pb = DualField::zeros(w, h);
            chambolle_iterate(&mut pa, &v, &params(k), k);
            chambolle_iterate(&mut pb, &v2, &params(k), k);
            let mut influenced_at_edge = false;
            for y in 0..h {
                for x in 0..w {
                    let d = (x as i64 - cx as i64)
                        .abs()
                        .max((y as i64 - cy as i64).abs()) as u32;
                    let changed = pa.px[(x, y)] != pb.px[(x, y)] || pa.py[(x, y)] != pb.py[(x, y)];
                    if changed {
                        assert!(d <= k, "influence at distance {d} after {k} iterations");
                        if d == k {
                            influenced_at_edge = true;
                        }
                    }
                }
            }
            // The bound is tight: the cone edge actually moves.
            assert!(influenced_at_edge, "cone should reach distance {k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Cone containment for random perturbation sites and strengths.
        #[test]
        fn perturbation_cone_random(
            seed in any::<u64>(),
            cx in 0usize..15,
            cy in 0usize..11,
            delta in 0.1f64..2.0,
            k in 1u32..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = Grid::from_fn(15, 11, |_, _| rng.gen_range(0.0f64..1.0));
            let mut v2 = v.clone();
            v2[(cx, cy)] += delta;
            let mut pa = DualField::zeros(15, 11);
            let mut pb = DualField::zeros(15, 11);
            chambolle_iterate(&mut pa, &v, &params(k), k);
            chambolle_iterate(&mut pb, &v2, &params(k), k);
            for y in 0..11 {
                for x in 0..15 {
                    let d = (x as i64 - cx as i64).abs().max((y as i64 - cy as i64).abs()) as u32;
                    if d > k {
                        prop_assert_eq!(pa.px[(x, y)], pb.px[(x, y)]);
                        prop_assert_eq!(pa.py[(x, y)], pb.py[(x, y)]);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// |p| ≤ 1 after any number of iterations from any bounded input.
        #[test]
        fn dual_ball_invariant_random(
            w in 2usize..12,
            h in 2usize..12,
            iters in 1u32..40,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = Grid::from_fn(w, h, |_, _| rng.gen_range(-2.0f64..2.0));
            let mut p = DualField::zeros(w, h);
            chambolle_iterate(&mut p, &v, &params(iters), iters);
            prop_assert!(p.max_norm() <= 1.0 + 1e-12);
        }

        /// The solve is translation-equivariant: denoise(v + c) = denoise(v) + c.
        #[test]
        fn shift_equivariance(
            seed in any::<u64>(),
            c in -1.0f64..1.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = Grid::from_fn(10, 8, |_, _| rng.gen_range(0.0f64..1.0));
            let vc = v.map(|&x| x + c);
            let (u, _) = chambolle_denoise(&v, &params(30));
            let (uc, _) = chambolle_denoise(&vc, &params(30));
            for i in 0..u.len() {
                prop_assert!((uc.as_slice()[i] - (u.as_slice()[i] + c)).abs() < 1e-9);
            }
        }
    }
}
