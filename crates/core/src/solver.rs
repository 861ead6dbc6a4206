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
//! [`compute_term_into`] / [`update_p_inplace`]; the parallel schedules run
//! the same arithmetic, so their results are **bit-identical** to the
//! sequential ones.

use std::sync::Arc;

use chambolle_imaging::Grid;
use chambolle_par::{KernelBackend, ThreadPool, UnsafeSharedSlice};

use crate::cancel::Cancelled;
use crate::ctx::{ExecCtx, NumericsPolicy};
use crate::kernels::{band_iteration, BandHalo, BelowHalo};
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
/// - no pool, a 1-thread pool, or a frame too short for two bands → one
///   whole-frame band iteration ([`crate::kernels`]) per iteration on the
///   calling thread;
/// - otherwise → blocked bands: `min(pool threads, h / (2K+1))` horizontal
///   bands, K = 8, so a band is never shorter than its halos. Each pool
///   dispatch runs a block of `k ≤ K` iterations: every band updates its
///   own rows `[r0, r1)` in place and recomputes `k` rows above and
///   `k + 1` below in private copies taken before the block, so its own
///   rows come out bit-identical to `k` sequential iterations for every
///   thread count. The halo work shrinks by a row per
///   cut edge and iteration, so a band boundary costs 10 redundant rows per
///   iteration on average (at most `2K + 1 = 17`), and `K − 1` of every `K`
///   pool dispatches are saved;
/// - the kernel rows run on `ctx.backend()` (bit-identical on every
///   backend under the default Exact tier);
/// - `ctx.numerics()` selects the numerics tier: `Exact` (default) keeps
///   the bit-identity contract; `Fast` routes `f32` solves through the
///   tolerance-validated kernels of [`crate::fast`]. Both tiers run the
///   same band iteration on both paths, so Fast stays thread-count
///   invariant. `f64` solves always run exact;
/// - a cancellation token, if attached, is polled between iterations on
///   the sequential path and between blocks of up to K iterations on the
///   banded path.
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
    iterate_frames(std::slice::from_mut(p), &[v], params, iterations, ctx)
}

/// The banded solver's block depth K: iterations per pool dispatch. Each
/// band recomputes K halo rows above and K + 1 below around its own rows,
/// so a band is at least 2K + 1 rows tall.
const BLOCK_DEPTH: u32 = 8;

/// [`chambolle_iterate_with_ctx`] over equally shaped frames at once, each
/// `fields[f]` iterated against `vs[f]`.
///
/// The pool's threads are split evenly between the frames, so each frame
/// gets `min(pool threads / frames, h / (2K+1))` bands, and every block
/// dispatches the bands of all frames in one `parallel_tiles` call. A frame
/// that gets a single band has no halo to refresh, so its whole solve is
/// one task and one dispatch, and a token is polled only before it. With
/// one frame this is exactly the single solve's band, block and dispatch
/// schedule.
///
/// Every allocation happens here, on the submitting thread: a pool
/// worker's first allocation would open a glibc arena of its own and raise
/// the process's resident memory for the rest of its life.
fn iterate_frames<R: Real>(
    fields: &mut [DualField<R>],
    vs: &[&Grid<R>],
    params: &ChambolleParams,
    iterations: u32,
    ctx: &ExecCtx,
) -> Result<(), Cancelled> {
    assert_eq!(fields.len(), vs.len(), "one dual field per frame");
    let (w, h) = vs[0].dims();
    for (p, v) in fields.iter().zip(vs) {
        assert_eq!(p.dims(), v.dims(), "dual field and v must match in size");
        assert_eq!(v.dims(), (w, h), "frames must match in size");
    }
    if w == 0 || h == 0 {
        return Ok(());
    }
    let frames = fields.len();
    let pool = ctx.pool().map(Arc::as_ref);
    // K: iterations per pool dispatch. A band is at least as tall as the
    // 2K+1 halo rows it recomputes around itself.
    let depth = BLOCK_DEPTH;
    let bands = (pool.map_or(1, ThreadPool::threads) / frames).min(h / (2 * depth as usize + 1));
    if frames * bands <= 1 {
        for (p, v) in fields.iter_mut().zip(vs) {
            iterate_inline(p, v, params, iterations, ctx)?;
        }
        return Ok(());
    }
    let pool = pool.expect("two or more tasks imply a pool");
    let inv_theta = R::ONE / R::from_f32(params.theta);
    let step_ratio = R::from_f32(params.step_ratio());
    let (backend, numerics) = (ctx.backend(), ctx.numerics());

    // Deterministic band bounds: the partition never depends on scheduling,
    // and the result does not even depend on the partition. Task `t` is
    // band `t % bands` of frame `t / bands`.
    let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
    let mut windows: Vec<BandWindow<R>> = (0..frames * bands)
        .map(|t| {
            let b = t % bands;
            BandWindow::new(w, h, bounds[b], bounds[b + 1], depth as usize)
        })
        .collect();
    // A band spanning its whole frame has no halo rows to refresh.
    let block = if bands == 1 { iterations } else { depth };

    let mut remaining = iterations;
    while remaining > 0 {
        ctx.checkpoint()?;
        let k = remaining.min(block);
        for (t, window) in windows.iter_mut().enumerate() {
            window.load(&fields[t / bands], k as usize);
        }
        let views: Vec<_> = fields
            .iter_mut()
            .map(|p| {
                (
                    UnsafeSharedSlice::new(p.px.as_mut_slice()),
                    UnsafeSharedSlice::new(p.py.as_mut_slice()),
                )
            })
            .collect();
        let window_view = UnsafeSharedSlice::new(&mut windows);
        pool.parallel_tiles("par.solver.block", frames * bands, |_, t| {
            let (f, b) = (t / bands, t % bands);
            let (r0, r1) = (bounds[b], bounds[b + 1]);
            let (px_view, py_view) = &views[f];
            // SAFETY: band row ranges of one frame are disjoint, frames are
            // distinct fields, and each task index runs exactly once;
            // foreign rows are only read through the band's private halo
            // copies. Each window is touched by exactly the task that owns
            // index t.
            let (px_band, py_band, window) = unsafe {
                (
                    px_view.slice_mut(r0 * w, (r1 - r0) * w),
                    py_view.slice_mut(r0 * w, (r1 - r0) * w),
                    &mut window_view.slice_mut(t, 1)[0],
                )
            };
            for i in 0..k as usize {
                window.iterate(
                    i, backend, numerics, px_band, py_band, vs[f], inv_theta, step_ratio,
                );
            }
        });
        remaining -= k;
    }
    Ok(())
}

/// The sequential solve of one frame on the calling thread: one
/// whole-frame [`band_iteration`] per iteration, at the context's tier.
fn iterate_inline<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
    ctx: &ExecCtx,
) -> Result<(), Cancelled> {
    let (w, h) = v.dims();
    let (backend, numerics) = (ctx.backend(), ctx.numerics());
    let inv_theta = R::ONE / R::from_f32(params.theta);
    let step_ratio = R::from_f32(params.step_ratio());
    let (mut ta, mut tb) = (vec![R::ZERO; w], vec![R::ZERO; w]);
    for _ in 0..iterations {
        ctx.checkpoint()?;
        band_iteration(
            backend,
            numerics,
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
    Ok(())
}

/// One band's private state in the blocked banded solve.
///
/// A block of `k ≤ K` iterations runs over the window `[r0 − k, r1 + k + 1)`
/// (clipped to the frame): the band's own rows `[r0, r1)`, updated in place,
/// plus `k` halo rows above and `k + 1` below, updated in private copies.
/// The window's cut edges take the frame-border rules, which corrupts one
/// row per iteration from the top cut and, because the bottom cut's `Term`
/// row feeds the update one row inward within the same iteration, `k + 1`
/// rows in `k` iterations from the bottom cut — the tiling module's
/// profitable-element rule. Neither front reaches the own rows, so those
/// come out bit-identical to `k` sequential iterations.
///
/// Rows behind a front hold no useful value, so iteration `i` of the block
/// skips the `i` rows next to each cut: the cuts move in with the fronts,
/// and a band boundary costs 10 redundant rows per iteration on average at
/// K = 8 instead of 2K + 1 = 17.
///
/// A band spanning the whole frame has no halo and no cut, so its block may
/// run any number of iterations.
struct BandWindow<R> {
    /// The band's own rows `[r0, r1)`.
    r0: usize,
    r1: usize,
    /// Frame height.
    h: usize,
    /// Halo rows above (`[a, r0)`) and below (`[r1, c)`) in this block.
    above_rows: usize,
    below_rows: usize,
    above_px: Vec<R>,
    above_py: Vec<R>,
    below_px: Vec<R>,
    below_py: Vec<R>,
    /// Pre-iteration copies of the halo rows next to the own rows:
    /// `py[r0 − 1]`, then `px[r1]` and `py[r1]`.
    seam: Vec<R>,
    term_a: Vec<R>,
    term_b: Vec<R>,
}

impl<R: Real> BandWindow<R> {
    /// Scratch for blocks of up to `depth` iterations, allocated once per
    /// solve.
    fn new(w: usize, h: usize, r0: usize, r1: usize, depth: usize) -> Self {
        let above = depth.min(r0) * w;
        let below = (depth + 1).min(h - r1) * w;
        BandWindow {
            r0,
            r1,
            h,
            above_rows: 0,
            below_rows: 0,
            above_px: vec![R::ZERO; above],
            above_py: vec![R::ZERO; above],
            below_px: vec![R::ZERO; below],
            below_py: vec![R::ZERO; below],
            seam: vec![R::ZERO; 3 * w],
            term_a: vec![R::ZERO; w],
            term_b: vec![R::ZERO; w],
        }
    }

    /// Copies the old halo rows of a `k`-iteration block out of `p`; runs
    /// before the block launches, while no band is writing.
    fn load(&mut self, p: &DualField<R>, k: usize) {
        let w = p.px.width();
        let (r0, r1) = (self.r0, self.r1);
        self.above_rows = k.min(r0);
        self.below_rows = (k + 1).min(self.h - r1);
        let above = (r0 - self.above_rows) * w..r0 * w;
        let below = r1 * w..(r1 + self.below_rows) * w;
        let n = above.len();
        self.above_px[..n].copy_from_slice(&p.px.as_slice()[above.clone()]);
        self.above_py[..n].copy_from_slice(&p.py.as_slice()[above]);
        let n = below.len();
        self.below_px[..n].copy_from_slice(&p.px.as_slice()[below.clone()]);
        self.below_py[..n].copy_from_slice(&p.py.as_slice()[below]);
    }

    /// Iteration `i` of the block over the window, treated as a frame of
    /// its own height: the halo rows above, then below (each reading the
    /// still-old own rows next to it), then the own rows against the seam
    /// copies taken before the halos moved.
    #[allow(clippy::too_many_arguments)] // the band kernels' shape
    fn iterate(
        &mut self,
        i: usize,
        backend: KernelBackend,
        numerics: NumericsPolicy,
        px: &mut [R],
        py: &mut [R],
        v: &Grid<R>,
        inv_theta: R,
        step_ratio: R,
    ) {
        let w = v.width();
        let (r0, r1) = (self.r0, self.r1);
        // The window `[a, c)`: a cut edge (one that is not a frame edge)
        // sits `i` rows inside the loaded halo.
        let (a, c) = (r0 - self.above_rows, r1 + self.below_rows);
        let skipped = if a > 0 { i } else { 0 };
        let a = a + skipped;
        let c = if c < self.h { c - i } else { c };
        let hw = c - a;
        let skip = skipped * w;
        let (na, nb) = (self.above_rows * w, (c - r1) * w);
        let vs = v.as_slice();
        let (seam_above, seam_below) = self.seam.split_at_mut(w);
        let (seam_px_below, seam_py_below) = seam_below.split_at_mut(w);
        if na > 0 {
            seam_above.copy_from_slice(&self.above_py[na - w..na]);
            band_iteration(
                backend,
                numerics,
                &mut self.above_px[skip..na],
                &mut self.above_py[skip..na],
                &vs[a * w..r0 * w],
                w,
                hw,
                0,
                BandHalo {
                    py_above: None,
                    below: Some(BelowHalo {
                        px: &px[..w],
                        py: &py[..w],
                        v: v.row(r0),
                    }),
                },
                inv_theta,
                step_ratio,
                &mut self.term_a,
                &mut self.term_b,
            );
        }
        if nb > 0 {
            seam_px_below.copy_from_slice(&self.below_px[..w]);
            seam_py_below.copy_from_slice(&self.below_py[..w]);
            band_iteration(
                backend,
                numerics,
                &mut self.below_px[..nb],
                &mut self.below_py[..nb],
                &vs[r1 * w..r1 * w + nb],
                w,
                hw,
                r1 - a,
                BandHalo {
                    py_above: Some(&py[py.len() - w..]),
                    below: None,
                },
                inv_theta,
                step_ratio,
                &mut self.term_a,
                &mut self.term_b,
            );
        }
        band_iteration(
            backend,
            numerics,
            px,
            py,
            &vs[r0 * w..r1 * w],
            w,
            hw,
            r0 - a,
            BandHalo {
                py_above: (na > 0).then_some(&*seam_above),
                below: (nb > 0).then(|| BelowHalo {
                    px: &*seam_px_below,
                    py: &*seam_py_below,
                    v: v.row(r1),
                }),
            },
            inv_theta,
            step_ratio,
            &mut self.term_a,
            &mut self.term_b,
        );
    }
}

/// Recovers the primal solution `u = v − θ·div p` (Algorithm 1, line 9).
///
/// One pass over flat rows: each output row first takes `div_y`, then
/// `v − θ·(div_x + div_y)`, with the boundary rules and operation order of
/// [`div_x_at`] and [`div_y_at`], so every cell is bit-identical to
/// evaluating them per pixel.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn recover_u<R: Real>(v: &Grid<R>, p: &DualField<R>, theta: f32) -> Grid<R> {
    assert_eq!(v.dims(), p.dims(), "v and dual field must match in size");
    let (w, h) = v.dims();
    let th = R::from_f32(theta);
    let mut u = vec![R::ZERO; w * h];
    if w > 0 {
        let (px, py, vs) = (p.px.as_slice(), p.py.as_slice(), v.as_slice());
        for (y, u_row) in u.chunks_exact_mut(w).enumerate() {
            let row = y * w..(y + 1) * w;
            let (px_row, py_row, v_row) = (&px[row.clone()], &py[row.clone()], &vs[row]);
            let py_above = &py[y.saturating_sub(1) * w..][..w];
            match y {
                _ if h == 1 => {} // a single row keeps its zero `div_y`
                0 => u_row.copy_from_slice(py_row),
                _ if y + 1 < h => {
                    for ((d, &a), &b) in u_row.iter_mut().zip(py_row).zip(py_above) {
                        *d = a - b;
                    }
                }
                _ => {
                    for (d, &b) in u_row.iter_mut().zip(py_above) {
                        *d = -b;
                    }
                }
            }
            if w == 1 {
                u_row[0] = v_row[0] - th * (R::ZERO + u_row[0]);
                continue;
            }
            u_row[0] = v_row[0] - th * (px_row[0] + u_row[0]);
            for x in 1..w - 1 {
                u_row[x] = v_row[x] - th * ((px_row[x] - px_row[x - 1]) + u_row[x]);
            }
            u_row[w - 1] = v_row[w - 1] - th * (-px_row[w - 2] + u_row[w - 1]);
        }
    }
    Grid::from_vec(w, h, u).expect("w·h cells")
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
    chambolle_iterate_with_ctx(&mut p, v, params, params.iterations, ctx)?;
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
/// reference, the banded parallel solver, or the FPGA cycle simulator.
///
/// The solve is per-component (`u1` from `v1`, `u2` from `v2`), exactly as
/// the paper's hardware instantiates one PE array per component. The TV-L1
/// outer loop hands both components over at once through
/// [`TvDenoiser::denoise_pair_with_ctx`]; a backend that can run them side
/// by side, like the paper's two arrays, overrides it ([`ParallelSolver`]
/// does), and every other backend solves them one after the other.
pub trait TvDenoiser {
    /// Denoises `v` under an execution context, returning `u` — the one
    /// solve every backend implements (the TV-L1 outer loop calls it so its
    /// [`ExecCtx`] governs the inner solves).
    ///
    /// The software solvers honor the context's kernel backend and numerics
    /// tier but keep their own threading: which pool a solver runs on is the
    /// backend's identity. Backends with fixed semantics, like the hardware
    /// simulator, ignore the context.
    fn denoise_with_ctx(&self, v: &Grid<f32>, params: &ChambolleParams, ctx: &ExecCtx)
        -> Grid<f32>;

    /// [`TvDenoiser::denoise_with_ctx`] under [`ExecCtx::default`].
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        self.denoise_with_ctx(v, params, &ExecCtx::default())
    }

    /// Denoises both flow components under one execution context, returning
    /// `(u1, u2)`; the TV-L1 outer loop calls this once per alternation.
    ///
    /// The default runs [`TvDenoiser::denoise_with_ctx`] on `v1`, then on
    /// `v2`. [`ParallelSolver`] overrides it to solve the two concurrently
    /// on its pool, with the same result.
    fn denoise_pair_with_ctx(
        &self,
        v1: &Grid<f32>,
        v2: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> (Grid<f32>, Grid<f32>) {
        (
            self.denoise_with_ctx(v1, params, ctx),
            self.denoise_with_ctx(v2, params, ctx),
        )
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "unnamed"
    }
}

impl<T: TvDenoiser + ?Sized> TvDenoiser for Box<T> {
    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        (**self).denoise_with_ctx(v, params, ctx)
    }

    fn denoise_pair_with_ctx(
        &self,
        v1: &Grid<f32>,
        v2: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> (Grid<f32>, Grid<f32>) {
        (**self).denoise_pair_with_ctx(v1, v2, params, ctx)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: TvDenoiser + ?Sized> TvDenoiser for &T {
    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        (**self).denoise_with_ctx(v, params, ctx)
    }

    fn denoise_pair_with_ctx(
        &self,
        v1: &Grid<f32>,
        v2: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> (Grid<f32>, Grid<f32>) {
        (**self).denoise_pair_with_ctx(v1, v2, params, ctx)
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
/// Each pool dispatch runs a block of up to K = 8 iterations per band over
/// the band plus overlapping halo rows (see [`chambolle_iterate_with_ctx`]).
/// Frames shorter than two bands of `2K + 1 = 17` rows run inline on the
/// calling thread and never touch the pool.
///
/// [`TvDenoiser::denoise_pair_with_ctx`] solves the two flow components
/// concurrently: each gets half the pool's threads, and the blocks of both
/// go out in one dispatch. On a 2-thread pool each component is a single
/// band, so a pair of solves is one dispatch of two tasks whatever the
/// iteration count; pairs of frames under 17 rows run inline.
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

    /// Creates a solver sharing an existing pool (e.g. with the TV-L1
    /// pipeline).
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        ParallelSolver { pool }
    }

    /// The worker pool backing this solver.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The context a solve runs under. This solver's pool is its identity;
    /// the caller's context contributes its observability and kernel policy
    /// only.
    fn solve_ctx(&self, ctx: &ExecCtx) -> ExecCtx {
        ExecCtx::default()
            .with_telemetry(ctx.telemetry().clone())
            .with_backend(ctx.backend())
            .with_numerics(ctx.numerics())
            .with_pool(Arc::clone(&self.pool))
    }
}

impl TvDenoiser for ParallelSolver {
    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        let mut p = DualField::zeros(v.width(), v.height());
        chambolle_iterate_with_ctx(&mut p, v, params, params.iterations, &self.solve_ctx(ctx))
            .expect("an inert context carries no cancellation token");
        recover_u(v, &p, params.theta)
    }

    fn denoise_pair_with_ctx(
        &self,
        v1: &Grid<f32>,
        v2: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> (Grid<f32>, Grid<f32>) {
        if v1.dims() != v2.dims() {
            return (
                self.denoise_with_ctx(v1, params, ctx),
                self.denoise_with_ctx(v2, params, ctx),
            );
        }
        // The dual fields and outputs are allocated on this, the submitting
        // thread, like all solve scratch (see `iterate_frames`).
        let (w, h) = v1.dims();
        let mut fields = [DualField::zeros(w, h), DualField::zeros(w, h)];
        iterate_frames(
            &mut fields,
            &[v1, v2],
            params,
            params.iterations,
            &self.solve_ctx(ctx),
        )
        .expect("an inert context carries no cancellation token");
        // Dropping the first field before the second output is allocated
        // keeps the peak at one field fewer.
        let [p1, p2] = fields;
        let u1 = recover_u(v1, &p1, params.theta);
        drop(p1);
        (u1, recover_u(v2, &p2, params.theta))
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
        let pool = Arc::new(ThreadPool::new(2));
        let solver = ParallelSolver::with_pool(Arc::clone(&pool));
        let v = Grid::new(16, 34, 0.5f32);
        let _ = solver.denoise(&v, &params(4));
        assert!(
            solver.pool().stats().tasks > 0,
            "work went through the pool"
        );
    }

    #[test]
    fn frames_shorter_than_two_bands_never_touch_the_pool() {
        // Two bands need 2·(2K+1) = 34 rows; anything shorter runs inline.
        let pool = Arc::new(ThreadPool::new(2));
        let solver = ParallelSolver::with_pool(Arc::clone(&pool));
        for h in [1usize, 16, 33] {
            let v = Grid::from_fn(16, h, |x, y| ((x + 3 * y) % 5) as f32 * 0.2);
            let _ = solver.denoise(&v, &params(30));
        }
        assert_eq!(pool.stats().broadcasts, 0);
        assert_eq!(pool.stats().tasks, 0);
    }

    #[test]
    fn pooled_solve_dispatches_once_per_block() {
        let k = BLOCK_DEPTH;
        let pool = Arc::new(ThreadPool::new(2));
        let ctx = ExecCtx::default().with_pool(Arc::clone(&pool));
        let v = noisy_step(20, 40, 37).map(|&x| x as f32);
        for iterations in [1, k, k + 1, 3 * k] {
            let before = pool.stats();
            let mut p = DualField::zeros(20, 40);
            chambolle_iterate_with_ctx(&mut p, &v, &params(iterations), iterations, &ctx)
                .expect("no token");
            let after = pool.stats();
            let blocks = u64::from(iterations.div_ceil(k));
            assert_eq!(after.broadcasts - before.broadcasts, blocks, "{iterations}");
            assert_eq!(after.tasks - before.tasks, 2 * blocks, "{iterations}");
        }
    }

    #[test]
    fn pooled_pre_cancelled_solve_leaves_the_field_untouched() {
        let v = noisy_step(12, 40, 41).map(|&x| x as f32);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let pool = Arc::new(ThreadPool::new(2));
        let ctx = ExecCtx::default()
            .with_cancel(token)
            .with_pool(Arc::clone(&pool));
        let mut p = DualField::zeros(12, 40);
        assert!(chambolle_iterate_with_ctx(&mut p, &v, &params(20), 20, &ctx).is_err());
        assert!(p.max_norm() == 0.0);
        assert_eq!(pool.stats().broadcasts, 0);
    }

    /// Every backend the host can execute.
    fn supported_backends() -> Vec<KernelBackend> {
        [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ]
        .into_iter()
        .filter(KernelBackend::is_supported)
        .collect()
    }

    fn field_bits<R: Real>(p: &DualField<R>) -> Vec<u64> {
        p.px.as_slice()
            .iter()
            .chain(p.py.as_slice())
            .map(|v| v.to_f64().to_bits())
            .collect()
    }

    /// The blocked-band shape matrix: heights on both sides of the 34-row
    /// two-band threshold and of 3·17 = 51 (three bands), one tall enough
    /// for eight bands; iteration counts around the block depth K = 8;
    /// widths with no vector loop, remainder lanes and full vectors.
    const BLOCK_HEIGHTS: [usize; 6] = [33, 34, 35, 51, 52, 137];
    const BLOCK_THREADS: [usize; 3] = [2, 3, 8];
    const BLOCK_ITERATIONS: [u32; 6] = [1, 7, 8, 9, 17, 30];
    const BLOCK_WIDTHS: [usize; 3] = [1, 61, 64];

    /// Runs the matrix for one element type and tier: every pooled solve
    /// must equal the sequential solve under `ctx` (no pool) bit for bit,
    /// and frames of at least two bands must actually reach the pool.
    fn assert_blocked_matches_sequential<R: Real>(ctx: &ExecCtx, seed: u64) {
        let pools: Vec<Arc<ThreadPool>> = BLOCK_THREADS
            .iter()
            .map(|&t| Arc::new(ThreadPool::new(t)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for h in BLOCK_HEIGHTS {
            for w in BLOCK_WIDTHS {
                let v = Grid::from_fn(w, h, |_, _| R::from_f64(rng.gen_range(-0.5..1.5)));
                for iterations in BLOCK_ITERATIONS {
                    let pr = params(iterations);
                    let mut reference = DualField::zeros(w, h);
                    chambolle_iterate_with_ctx(&mut reference, &v, &pr, iterations, ctx)
                        .expect("no token");
                    for pool in &pools {
                        let before = pool.stats().broadcasts;
                        let mut p = DualField::zeros(w, h);
                        let pooled = ctx.clone().with_pool(Arc::clone(pool));
                        chambolle_iterate_with_ctx(&mut p, &v, &pr, iterations, &pooled)
                            .expect("no token");
                        let threads = pool.threads();
                        assert!(
                            field_bits(&p) == field_bits(&reference),
                            "{w}x{h}, {iterations} iterations, {threads} threads, {:?} {:?}",
                            ctx.backend(),
                            ctx.numerics(),
                        );
                        let dispatched = pool.stats().broadcasts > before;
                        assert_eq!(dispatched, h >= 34, "{w}x{h} at {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_bands_bit_identical_to_sequential_exact_f32_every_backend() {
        for backend in supported_backends() {
            let ctx = ExecCtx::default()
                .with_backend(backend)
                .with_numerics(NumericsPolicy::Exact);
            assert_blocked_matches_sequential::<f32>(&ctx, 51);
        }
    }

    #[test]
    fn blocked_bands_bit_identical_to_sequential_exact_f64() {
        let ctx = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
        assert_blocked_matches_sequential::<f64>(&ctx, 52);
    }

    #[test]
    fn blocked_bands_fast_tier_is_thread_count_invariant() {
        for backend in supported_backends() {
            let ctx = ExecCtx::default()
                .with_backend(backend)
                .with_numerics(NumericsPolicy::Fast);
            assert_blocked_matches_sequential::<f32>(&ctx, 53);
        }
    }

    fn bits(u: &Grid<f32>) -> Vec<u32> {
        u.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// At 2 threads each component of a pair is one band, so the whole
    /// 30-iteration pair is one dispatch of two tasks, whether the solver is
    /// called directly, boxed or by reference; frames under 2K+1 = 17 rows
    /// stay inline.
    #[test]
    fn pair_on_two_threads_is_one_dispatch_of_two_tasks() {
        let pool = Arc::new(ThreadPool::new(2));
        let direct = ParallelSolver::with_pool(Arc::clone(&pool));
        let boxed: Box<dyn TvDenoiser> = Box::new(ParallelSolver::with_pool(Arc::clone(&pool)));
        let by_ref = &direct;
        let solvers: [&dyn TvDenoiser; 3] = [&direct, &boxed, &by_ref];
        let ctx = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
        let pr = params(30);
        for (h, dispatches) in [(16usize, 0u64), (17, 1), (40, 1), (72, 1)] {
            let v1 = noisy_step(20, h, 43).map(|&x| x as f32);
            let v2 = noisy_step(20, h, 44).map(|&x| 1.0 - x as f32);
            let seq = SequentialSolver::new();
            let expected = [
                bits(&seq.denoise_with_ctx(&v1, &pr, &ctx)),
                bits(&seq.denoise_with_ctx(&v2, &pr, &ctx)),
            ];
            for solver in solvers {
                let before = pool.stats();
                let (u1, u2) = solver.denoise_pair_with_ctx(&v1, &v2, &pr, &ctx);
                let after = pool.stats();
                assert_eq!(after.broadcasts - before.broadcasts, dispatches, "{h} rows");
                assert_eq!(after.tasks - before.tasks, 2 * dispatches, "{h} rows");
                assert_eq!([bits(&u1), bits(&u2)], expected, "{h} rows");
            }
        }
    }

    #[test]
    fn pair_of_unequal_frames_solves_each_on_its_own() {
        let solver = ParallelSolver::new(2);
        let ctx = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
        let pr = params(12);
        let v1 = noisy_step(20, 40, 45).map(|&x| x as f32);
        let v2 = noisy_step(21, 40, 46).map(|&x| x as f32);
        let (u1, u2) = solver.denoise_pair_with_ctx(&v1, &v2, &pr, &ctx);
        assert_eq!(bits(&u1), bits(&solver.denoise_with_ctx(&v1, &pr, &ctx)));
        assert_eq!(bits(&u2), bits(&solver.denoise_with_ctx(&v2, &pr, &ctx)));
    }

    /// [`recover_u`]'s row pass against the per-cell divergence it
    /// replaces, on degenerate shapes, random signed zeros and all-`−0.0`
    /// frames.
    #[test]
    fn flat_recover_u_matches_per_cell_divergence() {
        fn check<R: Real>(rng: &mut StdRng) {
            for (w, h) in [(1usize, 1usize), (1, 7), (7, 1), (2, 2), (3, 2), (37, 29)] {
                for negative_zeros in [false, true] {
                    let mut cell = || match rng.gen_range(0u32..6) {
                        _ if negative_zeros => -R::ZERO,
                        0 => R::ZERO,
                        1 => -R::ZERO,
                        _ => R::from_f64(rng.gen_range(-1.0..1.0)),
                    };
                    let v = Grid::from_fn(w, h, |_, _| cell());
                    let p = DualField {
                        px: Grid::from_fn(w, h, |_, _| cell()),
                        py: Grid::from_fn(w, h, |_, _| cell()),
                    };
                    let th = R::from_f32(0.25);
                    let per_cell = Grid::from_fn(w, h, |x, y| {
                        v[(x, y)] - th * (div_x_at(&p.px, x, y) + div_y_at(&p.py, x, y))
                    });
                    let flat = recover_u(&v, &p, 0.25);
                    let to_bits = |g: &Grid<R>| -> Vec<u64> {
                        g.as_slice().iter().map(|c| c.to_f64().to_bits()).collect()
                    };
                    assert_eq!(to_bits(&flat), to_bits(&per_cell), "{w}x{h}");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(47);
        check::<f32>(&mut rng);
        check::<f64>(&mut rng);
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
