//! Loop decomposition + sliding windows: the paper's parallelization of the
//! Chambolle iteration (Section III).
//!
//! The frame is divided into overlapping sub-matrices. Each window runs
//! `merge_factor` (K) iterations *locally*; by the dependency analysis in
//! [`crate::dependency`], a K-iteration dependency cone has L∞ radius K, so
//! cells far enough from any window edge that is *not* an image edge end up
//! with exactly the value the global iteration would produce — the paper's
//! **profitable elements**. "Far enough" is K cells on the leading (left/
//! top) sides but K+1 on the trailing (right/bottom) sides: the divergence
//! boundary rule corrupts `Term` on the window's last row/column, and that
//! `Term` is consumed *within the same iteration* by the `p`-update of the
//! neighbor one cell inward, so trailing-edge corruption travels one cell
//! further per iteration than the data cone alone.
//! The profitable regions are chosen to partition the frame, so stitching
//! them back reconstructs the global state after K iterations, and the
//! process repeats for ⌈N / K⌉ rounds. Windows are independent within a
//! round and are processed by a pool of worker threads (the hardware's two
//! concurrent sliding windows; here: any number of CPU threads).
//!
//! Because the per-cell arithmetic is shared with the sequential solver
//! ([`crate::solver::compute_term_into`] / [`crate::solver::update_p_inplace`]),
//! the tiled result is **bit-identical** to the sequential one — the paper's
//! redundancy is extra *computation*, never a different *result*.

use std::fmt;
use std::sync::{Arc, Mutex};

use chambolle_imaging::Grid;
use chambolle_par::{ThreadPool, UnsafeSharedSlice};
use chambolle_telemetry::{names, Telemetry};

use crate::backend::KernelBackend;
use crate::cancel::Cancelled;
use crate::ctx::{ExecCtx, NumericsPolicy};
use crate::fast;
use crate::kernels::BandHalo;
use crate::params::{ChambolleParams, InvalidParamsError};
use crate::real::Real;
use crate::solver::{recover_u, DualField, TvDenoiser};

/// Geometry and scheduling parameters of the tiled solver.
///
/// The defaults mirror the hardware: 92×88 sub-matrices (Section IV) and two
/// concurrent windows — unless a tuning profile is active, in which case
/// [`TileConfig::default`] reflects the tuned schedule
/// (see [`chambolle_tune`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Sub-matrix width in cells (the paper's 92 columns).
    pub tile_width: usize,
    /// Sub-matrix height in cells (the paper's 88 rows).
    pub tile_height: usize,
    /// Iterations merged per window pass (K). The halo is K cells on the
    /// leading sides and K+1 on the trailing sides (see the module docs).
    pub merge_factor: u32,
    /// Extra halo cells on every side beyond the exactness-required
    /// K / K+1. Pure redundancy: a wider halo trades larger windows for
    /// fewer of them without moving the profitable-region guarantee —
    /// corruption still travels at most K (leading) / K+1 (trailing)
    /// cells per pass, strictly inside the enlarged halo.
    pub halo_margin: usize,
    /// Worker threads processing windows concurrently (the hardware has 2
    /// sliding windows).
    pub threads: usize,
}

impl TileConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if a dimension or the thread count is
    /// zero, `merge_factor` is zero, or the halo leaves no profitable
    /// interior (`2K + 1 >= tile dimension`).
    pub fn new(
        tile_width: usize,
        tile_height: usize,
        merge_factor: u32,
        threads: usize,
    ) -> Result<Self, InvalidParamsError> {
        if tile_width == 0 || tile_height == 0 {
            return Err(InvalidParamsError::new(
                "tile dimensions must be positive".into(),
            ));
        }
        if merge_factor == 0 {
            return Err(InvalidParamsError::new(
                "merge_factor must be at least 1".into(),
            ));
        }
        if threads == 0 {
            return Err(InvalidParamsError::new("threads must be at least 1".into()));
        }
        let halo = 2 * merge_factor as usize + 1;
        if halo >= tile_width || halo >= tile_height {
            return Err(InvalidParamsError::new(format!(
                "halo 2K+1 = {halo} leaves no profitable interior in a {tile_width}x{tile_height} tile"
            )));
        }
        Ok(TileConfig {
            tile_width,
            tile_height,
            merge_factor,
            halo_margin: 0,
            threads,
        })
    }

    /// Copy of the configuration with `halo_margin` extra halo cells per
    /// side (see the field docs — schedule only, never bits).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if the widened halo leaves no
    /// profitable interior (`2(K + margin) + 1 >= tile dimension`).
    pub fn with_halo_margin(mut self, halo_margin: usize) -> Result<Self, InvalidParamsError> {
        let halo = 2 * (self.merge_factor as usize + halo_margin) + 1;
        if halo >= self.tile_width || halo >= self.tile_height {
            return Err(InvalidParamsError::new(format!(
                "halo 2(K+margin)+1 = {halo} leaves no profitable interior in a {}x{} tile",
                self.tile_width, self.tile_height
            )));
        }
        self.halo_margin = halo_margin;
        Ok(self)
    }

    /// The tiled-solver geometry a set of schedule knobs selects.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] for knob combinations that fail
    /// [`TileConfig::new`] — impossible for tunables that passed
    /// [`chambolle_tune::Tunables::validate`].
    pub fn from_tunables(t: &chambolle_tune::Tunables) -> Result<Self, InvalidParamsError> {
        TileConfig::new(t.tile_width, t.tile_height, t.merge_factor, t.threads)?
            .with_halo_margin(t.halo_margin)
    }

    /// The paper's hardware geometry: 92×88 windows, two of them, with the
    /// given merge factor.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if `merge_factor` is invalid for that
    /// geometry.
    pub fn paper_hardware(merge_factor: u32) -> Result<Self, InvalidParamsError> {
        TileConfig::new(92, 88, merge_factor, 2)
    }

    /// Halo cells on the leading (left/top) window sides: K plus the
    /// margin.
    pub fn leading_halo(&self) -> usize {
        self.merge_factor as usize + self.halo_margin
    }

    /// Halo cells on the trailing (right/bottom) window sides: K+1 plus
    /// the margin (the divergence boundary rule costs one extra cell, see
    /// the module docs).
    pub fn trailing_halo(&self) -> usize {
        self.leading_halo() + 1
    }

    /// Profitable interior width of an interior tile (leading plus
    /// trailing halo removed).
    pub fn step_x(&self) -> usize {
        self.tile_width - (self.leading_halo() + self.trailing_halo())
    }

    /// Profitable interior height of an interior tile.
    pub fn step_y(&self) -> usize {
        self.tile_height - (self.leading_halo() + self.trailing_halo())
    }
}

impl Default for TileConfig {
    /// The process-wide active schedule ([`chambolle_tune::active`]):
    /// 92×88 tiles, K = 2, no extra halo, two worker threads unless a
    /// tuning profile says otherwise.
    fn default() -> Self {
        TileConfig::from_tunables(&chambolle_tune::active())
            .unwrap_or_else(|_| TileConfig::paper_hardware(2).expect("paper geometry is valid"))
    }
}

/// One window position: the source rectangle loaded into the window (output
/// region plus halo, clipped to the frame) and the profitable output region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Source rectangle origin (includes halo).
    pub src_x: usize,
    /// Source rectangle origin (includes halo).
    pub src_y: usize,
    /// Source rectangle width.
    pub src_w: usize,
    /// Source rectangle height.
    pub src_h: usize,
    /// Profitable output rectangle origin (absolute frame coordinates).
    pub out_x: usize,
    /// Profitable output rectangle origin.
    pub out_y: usize,
    /// Profitable output rectangle width.
    pub out_w: usize,
    /// Profitable output rectangle height.
    pub out_h: usize,
}

impl Tile {
    /// Offset of the output region inside the source window (x).
    pub fn local_out_x(&self) -> usize {
        self.out_x - self.src_x
    }

    /// Offset of the output region inside the source window (y).
    pub fn local_out_y(&self) -> usize {
        self.out_y - self.src_y
    }
}

/// The set of window positions covering a `width × height` frame.
///
/// Output regions partition the frame; each source window is the output
/// region expanded by the halo (K cells leading, K+1 trailing) and clipped
/// to the frame, so windows never exceed `tile_width × tile_height`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    tiles: Vec<Tile>,
    width: usize,
    height: usize,
    config: TileConfig,
}

impl TilePlan {
    /// Plans the windows for a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty.
    pub fn new(width: usize, height: usize, config: TileConfig) -> Self {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        let lead = config.leading_halo();
        let trail = config.trailing_halo();
        let step_x = config.step_x();
        let step_y = config.step_y();
        let mut tiles = Vec::new();
        let mut oy = 0;
        while oy < height {
            let out_h = step_y.min(height - oy);
            let mut ox = 0;
            while ox < width {
                let out_w = step_x.min(width - ox);
                let src_x = ox.saturating_sub(lead);
                let src_y = oy.saturating_sub(lead);
                let src_x1 = (ox + out_w + trail).min(width);
                let src_y1 = (oy + out_h + trail).min(height);
                tiles.push(Tile {
                    src_x,
                    src_y,
                    src_w: src_x1 - src_x,
                    src_h: src_y1 - src_y,
                    out_x: ox,
                    out_y: oy,
                    out_w,
                    out_h,
                });
                ox += out_w;
            }
            oy += out_h;
        }
        TilePlan {
            tiles,
            width,
            height,
            config,
        }
    }

    /// The planned window positions.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Frame width the plan covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height the plan covers.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The configuration used to build the plan.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// Total source cells processed per round, summed over windows.
    pub fn source_cells(&self) -> usize {
        self.tiles.iter().map(|t| t.src_w * t.src_h).sum()
    }

    /// Fraction of redundant computation per round:
    /// `(source cells − frame cells) / frame cells` — the paper's "slight
    /// memory/computation overhead" of Section III-B.
    pub fn redundancy_fraction(&self) -> f64 {
        let frame = self.width * self.height;
        (self.source_cells() as f64 - frame as f64) / frame as f64
    }
}

impl fmt::Display for TilePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows over {}x{} (K={}, redundancy {:.1}%)",
            self.tiles.len(),
            self.width,
            self.height,
            self.config.merge_factor,
            100.0 * self.redundancy_fraction()
        )
    }
}

/// Runs `iterations` Chambolle iterations on `p` using the tiled parallel
/// scheme; the result is bit-identical to
/// [`crate::solver::chambolle_iterate`].
///
/// Spawns one worker pool with `config.threads` workers for the whole call
/// (not one set of threads per round — attach a longer-lived pool to the
/// context of [`chambolle_iterate_tiled_with_ctx`] to share it).
///
/// # Panics
///
/// Panics if `p` and `v` dimensions differ.
pub fn chambolle_iterate_tiled<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
    config: &TileConfig,
) {
    chambolle_iterate_tiled_with_ctx(p, v, params, iterations, config, &ExecCtx::default())
        .expect("an inert context carries no cancellation token");
}

/// The consolidated tiled entry point: one [`ExecCtx`] carries the pool,
/// telemetry, cancellation token and kernel backend.
///
/// With a pool attached the windows run on it (its worker count takes
/// precedence over `config.threads`); without one, a pool with
/// `config.threads` workers is spawned for this call and wired to the
/// context's telemetry. Cancellation is polled between rounds, so a
/// cancelled call never leaves `p` mid-write. Under the default Exact
/// numerics tier the result is bit-identical to
/// [`crate::solver::chambolle_iterate`] for every pool size and backend; a
/// context selecting [`NumericsPolicy::Fast`] runs the window-local
/// iterations on the tolerance-validated kernels of [`crate::fast`]
/// (deterministic per tile shape, but not bit-comparable to the sequential
/// fast sweep — window widths change the vector remainder splits).
///
/// # Errors
///
/// Returns [`Cancelled`] if the context's token reports cancellation before
/// all `iterations` complete.
///
/// # Panics
///
/// Panics if `p` and `v` dimensions differ.
pub fn chambolle_iterate_tiled_with_ctx<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
    config: &TileConfig,
    ctx: &ExecCtx,
) -> Result<(), Cancelled> {
    match ctx.pool() {
        Some(pool) => iterate_tiled_on_pool(p, v, params, iterations, config, pool, ctx),
        None => {
            let pool = ThreadPool::new(config.threads).with_telemetry(ctx.telemetry().clone());
            iterate_tiled_on_pool(p, v, params, iterations, config, &pool, ctx)
        }
    }
}

/// Per-worker window scratch, reused across tiles and rounds: the local
/// window copies of `px`/`py`/`v` plus the two rolling term-row buffers of
/// the fused kernel. Nothing is allocated per round once the buffers have
/// grown to the window size.
struct TileScratch<R> {
    px: Vec<R>,
    py: Vec<R>,
    v: Vec<R>,
    term_a: Vec<R>,
    term_b: Vec<R>,
}

impl<R: Real> TileScratch<R> {
    fn with_capacity(cells: usize, width: usize) -> Self {
        TileScratch {
            px: Vec::with_capacity(cells),
            py: Vec::with_capacity(cells),
            v: Vec::with_capacity(cells),
            term_a: Vec::with_capacity(width),
            term_b: Vec::with_capacity(width),
        }
    }

    fn reshape(&mut self, cells: usize, width: usize) {
        self.px.resize(cells, R::ZERO);
        self.py.resize(cells, R::ZERO);
        self.v.resize(cells, R::ZERO);
        self.term_a.resize(width, R::ZERO);
        self.term_b.resize(width, R::ZERO);
    }
}

/// The pooled tiled iteration: windows are distributed over an existing
/// [`ThreadPool`] via its work-stealing tile queue, each worker reuses one
/// [`TileScratch`] across all its windows and rounds, windows run `k` local
/// iterations with the fused row kernels of [`crate::kernels`], and
/// profitable regions are written directly into a double-buffered dual
/// field (no per-window result collection, no stitching pass).
///
/// Bit-identical to [`crate::solver::chambolle_iterate`] for any pool size:
/// within a round every window reads only the previous round's `p` (the
/// read buffer is never written during a round), and profitable regions
/// partition the frame, so the write buffer is completely and disjointly
/// filled regardless of which worker processes which window.
///
/// # Panics
///
/// Panics if `p` and `v` dimensions differ.
fn iterate_tiled_on_pool<R: Real>(
    p: &mut DualField<R>,
    v: &Grid<R>,
    params: &ChambolleParams,
    iterations: u32,
    config: &TileConfig,
    pool: &ThreadPool,
    ctx: &ExecCtx,
) -> Result<(), Cancelled> {
    assert_eq!(p.dims(), v.dims(), "dual field and v must match in size");
    if iterations == 0 {
        return Ok(());
    }
    let (w, h) = v.dims();
    let plan = TilePlan::new(w, h, *config);
    let tiles = plan.tiles();
    let telemetry = ctx.telemetry();
    let (backend, numerics) = (ctx.backend(), ctx.numerics());
    telemetry.gauge_set(names::TILING_REDUNDANCY_RATIO, plan.redundancy_fraction());
    let inv_theta = R::ONE / R::from_f32(params.theta);
    let step_ratio = R::from_f32(params.step_ratio());

    // Double buffer: every round reads `p`, writes `p_next`, then the
    // buffers swap. Profitable regions partition the frame, so `p_next` is
    // fully overwritten each round and needs no initialization.
    let mut p_next = DualField::zeros(w, h);
    let window_cells = config.tile_width * config.tile_height;
    let scratch: Vec<Mutex<TileScratch<R>>> = (0..pool.threads())
        .map(|_| Mutex::new(TileScratch::with_capacity(window_cells, config.tile_width)))
        .collect();

    let mut remaining = iterations;
    while remaining > 0 {
        ctx.checkpoint()?;
        let k = remaining.min(config.merge_factor);
        let round_span = telemetry.span("tiling.round");
        {
            let px_next = UnsafeSharedSlice::new(p_next.px.as_mut_slice());
            let py_next = UnsafeSharedSlice::new(p_next.py.as_mut_slice());
            let p_read: &DualField<R> = p;
            pool.parallel_tiles("tiling.windows", tiles.len(), |worker, i| {
                let tile = &tiles[i];
                let mut scratch = scratch[worker].lock().expect("tile scratch poisoned");
                process_window_fused(
                    p_read,
                    v,
                    tile,
                    inv_theta,
                    step_ratio,
                    k,
                    backend,
                    numerics,
                    &mut scratch,
                );
                // SAFETY: profitable regions partition the frame and each
                // tile index runs exactly once, so the row segments written
                // here are disjoint across all concurrent windows.
                unsafe {
                    let (lx, ly) = (tile.local_out_x(), tile.local_out_y());
                    for y in 0..tile.out_h {
                        let src = (ly + y) * tile.src_w + lx;
                        let dst = (tile.out_y + y) * w + tile.out_x;
                        px_next
                            .slice_mut(dst, tile.out_w)
                            .copy_from_slice(&scratch.px[src..src + tile.out_w]);
                        py_next
                            .slice_mut(dst, tile.out_w)
                            .copy_from_slice(&scratch.py[src..src + tile.out_w]);
                    }
                }
            });
        }
        std::mem::swap(p, &mut p_next);
        drop(round_span);
        telemetry.counter_add(names::TILING_ROUNDS, 1);
        telemetry.counter_add(names::TILING_WINDOW_LOADS, tiles.len() as u64);
        telemetry.observe(names::TILING_WINDOWS_PER_ROUND, tiles.len() as f64);
        remaining -= k;
    }
    Ok(())
}

/// Loads one window into the worker's scratch and runs `k` fused local
/// iterations. Frame-border boundary rules apply automatically where the
/// window edge coincides with the frame edge; interior cuts corrupt only
/// the halo, which the caller never writes back.
#[allow(clippy::too_many_arguments)]
fn process_window_fused<R: Real>(
    p: &DualField<R>,
    v: &Grid<R>,
    tile: &Tile,
    inv_theta: R,
    step_ratio: R,
    k: u32,
    backend: KernelBackend,
    numerics: NumericsPolicy,
    scratch: &mut TileScratch<R>,
) {
    let (sw, sh) = (tile.src_w, tile.src_h);
    scratch.reshape(sw * sh, sw);
    for y in 0..sh {
        let row = tile.src_y + y;
        let span = tile.src_x..tile.src_x + sw;
        scratch.px[y * sw..(y + 1) * sw].copy_from_slice(&p.px.row(row)[span.clone()]);
        scratch.py[y * sw..(y + 1) * sw].copy_from_slice(&p.py.row(row)[span.clone()]);
        scratch.v[y * sw..(y + 1) * sw].copy_from_slice(&v.row(row)[span]);
    }
    for _ in 0..k {
        fast::band_iteration_tiered(
            backend,
            numerics,
            &mut scratch.px,
            &mut scratch.py,
            &scratch.v,
            sw,
            sh,
            0,
            BandHalo {
                py_above: None,
                below: None,
            },
            inv_theta,
            step_ratio,
            &mut scratch.term_a,
            &mut scratch.term_b,
        );
    }
}

/// The tiled parallel Chambolle solver as a [`TvDenoiser`] backend.
///
/// By default each `denoise` call spawns its own short-lived pool with
/// `config.threads` workers; attach a persistent pool with
/// [`TiledSolver::with_pool`] to amortize thread startup across calls
/// (e.g. over a whole TV-L1 pyramid).
#[derive(Debug, Clone, Default)]
pub struct TiledSolver {
    config: TileConfig,
    telemetry: Telemetry,
    pool: Option<Arc<ThreadPool>>,
}

impl TiledSolver {
    /// Creates a tiled solver with the given window configuration.
    pub fn new(config: TileConfig) -> Self {
        TiledSolver {
            config,
            telemetry: Telemetry::disabled(),
            pool: None,
        }
    }

    /// Copy of the solver emitting metrics and round spans into `telemetry`
    /// on every [`TvDenoiser::denoise`] call.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Copy of the solver running its windows on `pool` instead of spawning
    /// a pool per call. The pool's worker count takes precedence over
    /// `config.threads`.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The window configuration in use.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }
}

impl TvDenoiser for TiledSolver {
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        let _span = self.telemetry.span("tiling.denoise");
        let mut p = DualField::zeros(v.width(), v.height());
        let mut ctx = ExecCtx::default().with_telemetry(self.telemetry.clone());
        if let Some(pool) = &self.pool {
            ctx = ctx.with_pool(Arc::clone(pool));
        }
        chambolle_iterate_tiled_with_ctx(&mut p, v, params, params.iterations, &self.config, &ctx)
            .expect("a context without a token cannot be cancelled");
        recover_u(v, &p, params.theta)
    }

    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        let _span = self.telemetry.span("tiling.denoise");
        let mut p = DualField::zeros(v.width(), v.height());
        // Keep this solver's schedule (config, pool, telemetry) but honor the
        // caller's kernel backend and numerics tier.
        let mut tiled_ctx = ExecCtx::default()
            .with_telemetry(self.telemetry.clone())
            .with_backend(ctx.backend())
            .with_numerics(ctx.numerics());
        if let Some(pool) = &self.pool {
            tiled_ctx = tiled_ctx.with_pool(Arc::clone(pool));
        }
        chambolle_iterate_tiled_with_ctx(
            &mut p,
            v,
            params,
            params.iterations,
            &self.config,
            &tiled_ctx,
        )
        .expect("a context without a token cannot be cancelled");
        recover_u(v, &p, params.theta)
    }

    fn name(&self) -> &str {
        "tiled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::chambolle_iterate_with_ctx;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn params(iters: u32) -> ChambolleParams {
        ChambolleParams::paper(iters)
    }

    /// Tiled-vs-sequential bit equality is the **Exact**-tier contract: the
    /// Fast tier is deterministic per window shape but not bit-comparable
    /// across window widths. These tests pin the tier so the suite also
    /// passes under `CHAMBOLLE_NUMERICS=fast`.
    fn exact_ctx() -> ExecCtx {
        ExecCtx::default().with_numerics(NumericsPolicy::Exact)
    }

    fn iterate_exact(p: &mut DualField<f32>, v: &Grid<f32>, pr: &ChambolleParams, iters: u32) {
        chambolle_iterate_with_ctx(p, v, pr, iters, &exact_ctx()).expect("no token");
    }

    fn iterate_tiled_exact(
        p: &mut DualField<f32>,
        v: &Grid<f32>,
        pr: &ChambolleParams,
        iters: u32,
        cfg: &TileConfig,
    ) {
        chambolle_iterate_tiled_with_ctx(p, v, pr, iters, cfg, &exact_ctx()).expect("no token");
    }

    /// Checks that every non-frame-border side of the window has its full
    /// halo (K+margin leading, K+margin+1 trailing).
    fn window_halo_is_full(tile: &Tile, plan: &TilePlan) -> bool {
        let lead = plan.config().leading_halo();
        let trail = plan.config().trailing_halo();
        let left_ok = tile.src_x == 0 || tile.out_x - tile.src_x == lead;
        let top_ok = tile.src_y == 0 || tile.out_y - tile.src_y == lead;
        let right_ok = tile.src_x + tile.src_w == plan.width()
            || (tile.src_x + tile.src_w) - (tile.out_x + tile.out_w) == trail;
        let bottom_ok = tile.src_y + tile.src_h == plan.height()
            || (tile.src_y + tile.src_h) - (tile.out_y + tile.out_h) == trail;
        left_ok && top_ok && right_ok && bottom_ok
    }

    #[test]
    fn telemetry_counts_rounds_and_window_loads() {
        let v = random_image(40, 30, 21);
        let pr = params(7); // K=3 -> rounds of 3, 3, 1
        let cfg = TileConfig::new(18, 14, 3, 2).unwrap();
        let plan = TilePlan::new(40, 30, cfg);
        let tele = Telemetry::null();
        let mut p = DualField::zeros(40, 30);
        let ctx = ExecCtx::default().with_telemetry(tele.clone());
        chambolle_iterate_tiled_with_ctx(&mut p, &v, &pr, 7, &cfg, &ctx).unwrap();
        let snap = tele.snapshot();
        assert_eq!(snap.counter(names::TILING_ROUNDS), Some(3));
        assert_eq!(
            snap.counter(names::TILING_WINDOW_LOADS),
            Some(3 * plan.tiles().len() as u64)
        );
        assert_eq!(
            snap.gauge(names::TILING_REDUNDANCY_RATIO),
            Some(plan.redundancy_fraction())
        );
        let spans = snap
            .get(chambolle_telemetry::span::span_metric_name("tiling.round").as_str())
            .and_then(|m| m.as_histogram())
            .map(|h| h.count());
        assert_eq!(spans, Some(3));
    }

    fn random_image(w: usize, h: usize, seed: u64) -> Grid<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    #[test]
    fn config_validation() {
        assert!(TileConfig::new(0, 10, 1, 1).is_err());
        assert!(TileConfig::new(10, 10, 0, 1).is_err());
        assert!(TileConfig::new(10, 10, 1, 0).is_err());
        assert!(TileConfig::new(10, 10, 5, 1).is_err()); // halo swallows tile
        assert!(TileConfig::new(10, 10, 4, 1).is_ok()); // 2K+1 = 9 < 10
        assert!(TileConfig::paper_hardware(2).is_ok());
        // Margin validation: 2(1+3)+1 = 9 < 10 fits, 2(1+4)+1 = 11 doesn't.
        assert!(TileConfig::new(10, 10, 1, 1)
            .unwrap()
            .with_halo_margin(3)
            .is_ok());
        assert!(TileConfig::new(10, 10, 1, 1)
            .unwrap()
            .with_halo_margin(4)
            .is_err());
    }

    #[test]
    fn config_from_tunables_mirrors_every_knob() {
        let t = chambolle_tune::Tunables {
            tile_width: 30,
            tile_height: 26,
            merge_factor: 3,
            halo_margin: 2,
            threads: 5,
            ..chambolle_tune::Tunables::default()
        };
        let cfg = TileConfig::from_tunables(&t).unwrap();
        assert_eq!((cfg.tile_width, cfg.tile_height), (30, 26));
        assert_eq!(cfg.merge_factor, 3);
        assert_eq!(cfg.halo_margin, 2);
        assert_eq!(cfg.threads, 5);
        assert_eq!(cfg.leading_halo(), 5);
        assert_eq!(cfg.trailing_halo(), 6);
        // The default tunables reproduce the historical default geometry.
        assert_eq!(
            TileConfig::from_tunables(&chambolle_tune::Tunables::default()).unwrap(),
            TileConfig::paper_hardware(2).unwrap()
        );
    }

    #[test]
    fn halo_margin_is_pure_redundancy_bit_exact() {
        let v = random_image(61, 47, 9);
        let pr = params(11);
        let mut p_seq = DualField::zeros(61, 47);
        iterate_exact(&mut p_seq, &v, &pr, 11);
        for margin in [0usize, 1, 2, 4] {
            let cfg = TileConfig::new(24, 20, 2, 2)
                .unwrap()
                .with_halo_margin(margin)
                .unwrap();
            let plan = TilePlan::new(61, 47, cfg);
            for t in plan.tiles() {
                assert!(window_halo_is_full(t, &plan), "margin {margin}: {t:?}");
            }
            let mut p_tiled = DualField::zeros(61, 47);
            iterate_tiled_exact(&mut p_tiled, &v, &pr, 11, &cfg);
            assert_eq!(
                p_seq.px.as_slice(),
                p_tiled.px.as_slice(),
                "margin {margin} changed px bits"
            );
            assert_eq!(p_seq.py.as_slice(), p_tiled.py.as_slice());
        }
    }

    #[test]
    fn plan_outputs_partition_frame() {
        for (w, h) in [(30usize, 20usize), (92, 88), (100, 100), (7, 5), (1, 1)] {
            let cfg = TileConfig::new(16, 12, 2, 1).unwrap();
            let plan = TilePlan::new(w, h, cfg);
            let mut covered = Grid::new(w, h, 0u32);
            for t in plan.tiles() {
                for y in t.out_y..t.out_y + t.out_h {
                    for x in t.out_x..t.out_x + t.out_w {
                        covered[(x, y)] += 1;
                    }
                }
            }
            assert!(
                covered.as_slice().iter().all(|&c| c == 1),
                "outputs must partition the {w}x{h} frame"
            );
        }
    }

    #[test]
    fn plan_windows_respect_tile_size_and_halo() {
        let cfg = TileConfig::paper_hardware(3).unwrap();
        let plan = TilePlan::new(512, 512, cfg);
        for t in plan.tiles() {
            assert!(t.src_w <= cfg.tile_width);
            assert!(t.src_h <= cfg.tile_height);
            assert!(window_halo_is_full(t, &plan), "halo missing on {t:?}");
        }
    }

    #[test]
    fn redundancy_is_small_for_paper_geometry() {
        let cfg = TileConfig::paper_hardware(2).unwrap();
        let plan = TilePlan::new(512, 512, cfg);
        // "a negligible amount of redundant computation": ~1/10 at K=2.
        assert!(
            plan.redundancy_fraction() < 0.16,
            "redundancy {} too large",
            plan.redundancy_fraction()
        );
        assert!(plan.redundancy_fraction() > 0.0);
    }

    #[test]
    fn tiled_matches_sequential_bit_exact() {
        let v = random_image(61, 47, 9);
        let pr = params(13);
        let mut p_seq = DualField::zeros(61, 47);
        iterate_exact(&mut p_seq, &v, &pr, 13);

        for threads in [1usize, 2, 4] {
            for k in [1u32, 2, 3, 5] {
                let cfg = TileConfig::new(20, 16, k, threads).unwrap();
                let mut p_tiled = DualField::zeros(61, 47);
                iterate_tiled_exact(&mut p_tiled, &v, &pr, 13, &cfg);
                assert_eq!(
                    p_seq.px.as_slice(),
                    p_tiled.px.as_slice(),
                    "px mismatch at K={k}, threads={threads}"
                );
                assert_eq!(p_seq.py.as_slice(), p_tiled.py.as_slice());
            }
        }
    }

    #[test]
    fn tiled_matches_sequential_on_paper_geometry() {
        // A frame larger than one 92x88 window, with the hardware's two
        // workers.
        let v = random_image(200, 150, 4);
        let pr = params(8);
        let mut p_seq = DualField::zeros(200, 150);
        iterate_exact(&mut p_seq, &v, &pr, 8);
        let cfg = TileConfig::paper_hardware(2).unwrap();
        let mut p_tiled = DualField::zeros(200, 150);
        iterate_tiled_exact(&mut p_tiled, &v, &pr, 8, &cfg);
        assert_eq!(p_seq.px.as_slice(), p_tiled.px.as_slice());
        assert_eq!(p_seq.py.as_slice(), p_tiled.py.as_slice());
    }

    #[test]
    fn partial_last_round_handles_non_divisible_iterations() {
        // 7 iterations with K=3 -> rounds of 3, 3, 1.
        let v = random_image(40, 30, 14);
        let pr = params(7);
        let mut p_seq = DualField::zeros(40, 30);
        iterate_exact(&mut p_seq, &v, &pr, 7);
        let cfg = TileConfig::new(18, 14, 3, 2).unwrap();
        let mut p_tiled = DualField::zeros(40, 30);
        iterate_tiled_exact(&mut p_tiled, &v, &pr, 7, &cfg);
        assert_eq!(p_seq.px.as_slice(), p_tiled.px.as_slice());
    }

    #[test]
    fn frame_smaller_than_tile_works() {
        let v = random_image(10, 8, 3);
        let pr = params(5);
        let mut p_seq = DualField::zeros(10, 8);
        iterate_exact(&mut p_seq, &v, &pr, 5);
        let cfg = TileConfig::paper_hardware(2).unwrap();
        let mut p_tiled = DualField::zeros(10, 8);
        iterate_tiled_exact(&mut p_tiled, &v, &pr, 5, &cfg);
        assert_eq!(p_seq.px.as_slice(), p_tiled.px.as_slice());
    }

    #[test]
    fn tiled_denoiser_matches_sequential_denoiser() {
        use crate::solver::SequentialSolver;
        let v = random_image(50, 40, 77);
        let pr = params(10);
        let seq = SequentialSolver::new().denoise_with_ctx(&v, &pr, &exact_ctx());
        let tiled = TiledSolver::new(TileConfig::new(24, 20, 2, 2).unwrap()).denoise_with_ctx(
            &v,
            &pr,
            &exact_ctx(),
        );
        assert_eq!(seq.as_slice(), tiled.as_slice());
        assert_eq!(TiledSolver::default().name(), "tiled");
    }

    #[test]
    fn tiled_solver_with_shared_pool_matches_and_reuses_it() {
        use crate::solver::SequentialSolver;
        let pool = Arc::new(ThreadPool::new(3));
        let solver =
            TiledSolver::new(TileConfig::new(24, 20, 2, 2).unwrap()).with_pool(Arc::clone(&pool));
        let pr = params(8);
        for seed in [1u64, 2] {
            let v = random_image(47, 33, seed);
            let seq = SequentialSolver::new().denoise_with_ctx(&v, &pr, &exact_ctx());
            assert_eq!(
                seq.as_slice(),
                solver.denoise_with_ctx(&v, &pr, &exact_ctx()).as_slice()
            );
        }
        let stats = pool.stats();
        assert!(
            stats.tasks > 0 && stats.broadcasts > 0,
            "both denoise calls must run on the shared pool: {stats:?}"
        );
    }

    #[test]
    fn single_thread_config_runs_inline_and_matches() {
        // threads == 1 takes the pool's inline (zero-spawn) path; results
        // stay exact.
        let v = random_image(30, 26, 8);
        let pr = params(6);
        let cfg = TileConfig::new(14, 12, 2, 1).unwrap();
        let mut p_seq = DualField::zeros(30, 26);
        iterate_exact(&mut p_seq, &v, &pr, 6);
        let mut p_tile = DualField::zeros(30, 26);
        iterate_tiled_exact(&mut p_tile, &v, &pr, 6, &cfg);
        assert_eq!(p_seq.px.as_slice(), p_tile.px.as_slice());
        assert_eq!(p_seq.py.as_slice(), p_tile.py.as_slice());
    }

    #[test]
    fn cancellable_tiled_iterate_matches_and_cancels_between_rounds() {
        use crate::cancel::{CancelReason, CancelToken};
        let v = random_image(40, 30, 55);
        let pr = params(7);
        let cfg = TileConfig::new(18, 14, 3, 2).unwrap();
        let pool = Arc::new(ThreadPool::new(2));
        let pooled_ctx = ExecCtx::default().with_pool(Arc::clone(&pool));

        // Uncancelled run is bit-identical to the plain pooled path.
        let mut p_plain = DualField::zeros(40, 30);
        chambolle_iterate_tiled_with_ctx(&mut p_plain, &v, &pr, 7, &cfg, &pooled_ctx).unwrap();
        let mut p_canc = DualField::zeros(40, 30);
        let live_ctx = ExecCtx::default()
            .with_pool(Arc::clone(&pool))
            .with_cancel(CancelToken::new());
        chambolle_iterate_tiled_with_ctx(&mut p_canc, &v, &pr, 7, &cfg, &live_ctx).unwrap();
        assert_eq!(p_plain.px.as_slice(), p_canc.px.as_slice());
        assert_eq!(p_plain.py.as_slice(), p_canc.py.as_slice());

        // A pre-cancelled token stops before round 0 and the pool survives
        // for the next (successful) solve.
        let token = CancelToken::new();
        token.cancel();
        let mut p_stop = DualField::zeros(40, 30);
        let stop_ctx = ExecCtx::default()
            .with_pool(Arc::clone(&pool))
            .with_cancel(token);
        let err =
            chambolle_iterate_tiled_with_ctx(&mut p_stop, &v, &pr, 7, &cfg, &stop_ctx).unwrap_err();
        assert_eq!(err.reason, CancelReason::Explicit);
        assert_eq!(
            p_stop.px.as_slice(),
            DualField::<f32>::zeros(40, 30).px.as_slice()
        );
        let mut p_after = DualField::zeros(40, 30);
        chambolle_iterate_tiled_with_ctx(&mut p_after, &v, &pr, 7, &cfg, &pooled_ctx).unwrap();
        assert_eq!(p_plain.px.as_slice(), p_after.px.as_slice());
    }

    #[test]
    fn redundancy_grows_with_merge_factor() {
        let mut prev = 0.0;
        for k in [1u32, 2, 4, 8] {
            let cfg = TileConfig::new(92, 88, k, 1).unwrap();
            let r = TilePlan::new(512, 512, cfg).redundancy_fraction();
            assert!(r >= prev, "redundancy should grow with K: {prev} -> {r}");
            prev = r;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Exactness of the sliding-window scheme for arbitrary geometry.
        #[test]
        fn tiled_equals_sequential_random(
            w in 3usize..48,
            h in 3usize..48,
            tile_w in 8usize..24,
            tile_h in 8usize..24,
            k in 1u32..4,
            iters in 1u32..10,
            seed in any::<u64>(),
        ) {
            prop_assume!(2 * k as usize + 2 < tile_w && 2 * k as usize + 2 < tile_h);
            let v = random_image(w, h, seed);
            let pr = params(iters);
            let mut p_seq = DualField::zeros(w, h);
            iterate_exact(&mut p_seq, &v, &pr, iters);
            let cfg = TileConfig::new(tile_w, tile_h, k, 2).unwrap();
            let mut p_tiled = DualField::zeros(w, h);
            iterate_tiled_exact(&mut p_tiled, &v, &pr, iters, &cfg);
            prop_assert_eq!(p_seq.px.as_slice(), p_tiled.px.as_slice());
            prop_assert_eq!(p_seq.py.as_slice(), p_tiled.py.as_slice());
        }
    }
}
