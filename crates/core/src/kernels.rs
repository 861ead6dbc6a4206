//! The row kernels of the Chambolle dual update and the one band iteration
//! every solve path runs.
//!
//! [`crate::solver::compute_term_into`] and
//! [`crate::solver::update_p_inplace`] walk the frame with bounds-checked
//! 2-D indexing, three passes and an intermediate full-frame `term` grid.
//! The kernels here compute the same arithmetic — *bit-identically*, with
//! the same operation order and grouping — over flat `&[R]` row slices:
//!
//! - [`compute_term_row`]: `term = div p − v/θ` for one row, with the
//!   backward-difference boundary rules resolved once per row instead of
//!   once per cell;
//! - [`update_p_row`]: the semi-implicit projected dual update for one row
//!   (forward differences, norm, projection — one fused pass);
//! - `band_iteration`: one full Chambolle iteration over a band of rows,
//!   rolling two term-row buffers so no per-iteration term grid is ever
//!   allocated. The term for row `y+1` is computed *before* row `y` is
//!   updated, so every term value is derived from old-`p` data exactly as
//!   the two-pass reference does. This is the paper's PE-T stage feeding
//!   its PE-V stage, written once for both numerics tiers: the only
//!   per-row difference is Exact's term-then-update step against the Fast
//!   tier's fused step ([`crate::fast`]).
//!
//! # Dispatch
//!
//! The two scalar functions above are the reference. Each kernel family
//! has one dispatcher with one `match` on the [`KernelBackend`] clamped to
//! the host ([`KernelBackend::clamp_to_host`]: the widest level the CPU runs
//! at or below the requested one) and, for the update, the
//! [`NumericsPolicy`] tier:
//!
//! | family | scalar, SSE2 | AVX2 | AVX-512 |
//! |--------|--------------|------|---------|
//! | [`compute_term_row_on`], both tiers | reference | AVX2 | AVX2 |
//! | [`update_p_row_on`], Exact | reference | AVX2 | AVX2 |
//! | [`update_p_row_on`], Fast | fast scalar | fast scalar | fast scalar |
//!
//! The AVX2 bodies replay the scalar operation order lane by lane — no
//! fused multiply-add, no reassociation, negation as an IEEE sign-flip, and
//! every op used (`add`, `sub`, `mul`, `div`, `sqrt`) correctly rounded
//! elementwise — so every Exact level is **bit-identical** to the
//! reference and the clamp changes speed only. SSE2 runs the reference,
//! which the compiler already vectorises to SSE2; the AVX-512 level runs
//! the AVX2 bodies. `f64` rows always take the scalar reference, whatever
//! the tier. The Fast tier's only vector body is its fused row step
//! ([`crate::fast`]), whose term lanes are the Exact term row's bit for
//! bit; the Fast update row runs the portable scalar body at every level
//! and serves only the frame's last row, which has no next row to fuse
//! with.
//!
//! Horizontal reductions (the energies in [`crate::solver::rof_energy`] and
//! [`crate::diagnostics`]) are not vectorised at all: they keep the fixed
//! left-to-right accumulation order of a sequential `f64` sum over
//! row-major cells, on every backend.
//!
//! # Bands
//!
//! Bands only read their own rows plus a fixed halo (old `py` row `r0−1`
//! above; old `px`/`py` rows `r1` below), which callers snapshot before
//! running bands concurrently — that is what makes the parallel solver in
//! [`crate::solver`] bit-identical to the sequential one for every thread
//! count.
//!
//! The kernels implement the [`crate::solver::Convention::Standard`] sign
//! convention (the convergent one every production path uses); the literal
//! paper-prose variant stays available through the reference two-pass
//! functions.

use std::any::TypeId;

use chambolle_par::KernelBackend;

use crate::ctx::NumericsPolicy;
use crate::fast;
use crate::real::Real;

/// `term = div p − v/θ` for one row.
///
/// `py_above` is the `py` row directly above (`None` for the first row);
/// `last_row` says whether this is the frame's last row. Both together
/// select the backward-difference y-boundary rule:
///
/// | `py_above` | `last_row` | `div_y`                    |
/// |------------|------------|-----------------------------|
/// | `None`     | `true`     | `0` (single-row frame)      |
/// | `None`     | `false`    | `py[x]` (first row)         |
/// | `Some(a)`  | `false`    | `py[x] − a[x]` (interior)   |
/// | `Some(a)`  | `true`     | `−a[x]` (last row)          |
///
/// # Panics
///
/// Panics in debug builds if the slice lengths disagree.
#[inline]
pub fn compute_term_row<R: Real>(
    px_row: &[R],
    py_row: &[R],
    py_above: Option<&[R]>,
    v_row: &[R],
    inv_theta: R,
    last_row: bool,
    out: &mut [R],
) {
    debug_assert_eq!(px_row.len(), out.len());
    debug_assert_eq!(py_row.len(), out.len());
    debug_assert_eq!(v_row.len(), out.len());
    match (py_above, last_row) {
        (None, true) => term_row_impl(px_row, v_row, inv_theta, out, |_| R::ZERO),
        (None, false) => term_row_impl(px_row, v_row, inv_theta, out, |x| py_row[x]),
        (Some(above), false) => {
            debug_assert_eq!(above.len(), out.len());
            term_row_impl(px_row, v_row, inv_theta, out, |x| py_row[x] - above[x])
        }
        (Some(above), true) => {
            debug_assert_eq!(above.len(), out.len());
            term_row_impl(px_row, v_row, inv_theta, out, |x| -above[x])
        }
    }
}

/// Shared x-sweep: resolves the backward-difference x-boundary rules once
/// per row and folds the selected `div_y` in with the reference grouping
/// `(div_x + div_y) − v·(1/θ)`.
#[inline]
fn term_row_impl<R: Real>(
    px_row: &[R],
    v_row: &[R],
    inv_theta: R,
    out: &mut [R],
    div_y: impl Fn(usize) -> R,
) {
    let w = out.len();
    if w == 0 {
        return;
    }
    if w == 1 {
        // A single column has a zero x-gradient, so its adjoint is zero.
        out[0] = (R::ZERO + div_y(0)) - v_row[0] * inv_theta;
        return;
    }
    out[0] = (px_row[0] + div_y(0)) - v_row[0] * inv_theta;
    for x in 1..w - 1 {
        out[x] = ((px_row[x] - px_row[x - 1]) + div_y(x)) - v_row[x] * inv_theta;
    }
    out[w - 1] = (-px_row[w - 2] + div_y(w - 1)) - v_row[w - 1] * inv_theta;
}

/// The semi-implicit projected dual update for one row:
/// `p ← (p + τ/θ·∇term) / (1 + τ/θ·|∇term|)`.
///
/// `term_below` is the term row directly below (`None` for the frame's last
/// row, where the forward y-difference is zero).
///
/// # Panics
///
/// Panics in debug builds if the slice lengths disagree.
#[inline]
pub fn update_p_row<R: Real>(
    term_row: &[R],
    term_below: Option<&[R]>,
    step_ratio: R,
    px_row: &mut [R],
    py_row: &mut [R],
) {
    let w = term_row.len();
    debug_assert_eq!(px_row.len(), w);
    debug_assert_eq!(py_row.len(), w);
    if w == 0 {
        return;
    }
    let cell = |x: usize, t1: R, t2: R, px_row: &mut [R], py_row: &mut [R]| {
        let grad = (t1 * t1 + t2 * t2).sqrt();
        let denom = R::ONE + step_ratio * grad;
        px_row[x] = (px_row[x] + step_ratio * t1) / denom;
        py_row[x] = (py_row[x] + step_ratio * t2) / denom;
    };
    match term_below {
        Some(below) => {
            debug_assert_eq!(below.len(), w);
            for x in 0..w - 1 {
                let t1 = term_row[x + 1] - term_row[x];
                let t2 = below[x] - term_row[x];
                cell(x, t1, t2, px_row, py_row);
            }
            let t2 = below[w - 1] - term_row[w - 1];
            cell(w - 1, R::ZERO, t2, px_row, py_row);
        }
        None => {
            for x in 0..w - 1 {
                let t1 = term_row[x + 1] - term_row[x];
                cell(x, t1, R::ZERO, px_row, py_row);
            }
            cell(w - 1, R::ZERO, R::ZERO, px_row, py_row);
        }
    }
}

/// [`compute_term_row`] on `backend`: the term-row family's dispatcher,
/// one body for both numerics tiers (see the module docs for its routing
/// table).
#[allow(clippy::too_many_arguments)] // mirrors the reference kernel's shape
#[inline]
pub fn compute_term_row_on<R: Real>(
    backend: KernelBackend,
    px_row: &[R],
    py_row: &[R],
    py_above: Option<&[R]>,
    v_row: &[R],
    inv_theta: R,
    last_row: bool,
    out: &mut [R],
) {
    let w = out.len();
    assert!(
        px_row.len() == w && py_row.len() == w && v_row.len() == w,
        "term row slices must share one width"
    );
    assert!(
        py_above.is_none_or(|a| a.len() == w),
        "py_above must match the row width"
    );
    let (Some(px), Some(py), Some(v)) = (f32_slice(px_row), f32_slice(py_row), f32_slice(v_row))
    else {
        return compute_term_row(px_row, py_row, py_above, v_row, inv_theta, last_row, out);
    };
    let above = py_above.map(|a| f32_slice(a).expect("R is f32"));
    let out = f32_slice_mut(out).expect("R is f32");
    let inv_theta = inv_theta.to_f32();
    let level = if w >= 2 {
        backend.clamp_to_host()
    } else {
        KernelBackend::Scalar
    };
    // SAFETY (every vector arm): `clamp_to_host` only returns levels whose
    // features were detected at run time (AVX-512 includes AVX2), the
    // asserts above give every row the width `w`, and vector levels are
    // only picked for `w >= 2`.
    match level {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 | KernelBackend::Avx512 => unsafe {
            x86::term_row_avx2(px, py, above, v, inv_theta, last_row, out)
        },
        _ => compute_term_row(px, py, above, v, inv_theta, last_row, out),
    }
}

/// [`update_p_row`] on `backend` at the `numerics` tier: the update-row
/// family's dispatcher (see the module docs for its routing table).
#[inline]
pub fn update_p_row_on<R: Real>(
    backend: KernelBackend,
    numerics: NumericsPolicy,
    term_row: &[R],
    term_below: Option<&[R]>,
    step_ratio: R,
    px_row: &mut [R],
    py_row: &mut [R],
) {
    let w = term_row.len();
    assert!(
        px_row.len() == w && py_row.len() == w,
        "update row slices must share one width"
    );
    assert!(
        term_below.is_none_or(|b| b.len() == w),
        "term_below must match the row width"
    );
    let Some(term) = f32_slice(term_row) else {
        return update_p_row(term_row, term_below, step_ratio, px_row, py_row);
    };
    let below = term_below.map(|b| f32_slice(b).expect("R is f32"));
    let px = f32_slice_mut(px_row).expect("R is f32");
    let py = f32_slice_mut(py_row).expect("R is f32");
    let step = step_ratio.to_f32();
    let level = if w >= 2 {
        backend.clamp_to_host()
    } else {
        KernelBackend::Scalar
    };
    // SAFETY (the vector arm): as in `compute_term_row_on`.
    match (numerics, level) {
        (NumericsPolicy::Fast, _) => fast::update_p_row_scalar(term, below, step, px, py),
        #[cfg(target_arch = "x86_64")]
        (NumericsPolicy::Exact, KernelBackend::Avx2 | KernelBackend::Avx512) => unsafe {
            x86::update_p_row_avx2(term, below, step, px, py)
        },
        (NumericsPolicy::Exact, _) => update_p_row(term, below, step, px, py),
    }
}

/// Snapshot of the old-`p` rows a band reads beyond its own row range.
///
/// When bands run concurrently, their neighbors mutate these rows in place;
/// the caller copies them *before* launching the bands so every term value
/// a band derives is old-`p` data, exactly as the sequential two-pass
/// reference computes it.
pub struct BandHalo<'a, R> {
    /// Old `py` row `r0 − 1` (required iff the band does not start at the
    /// frame's first row).
    pub py_above: Option<&'a [R]>,
    /// Old rows at `r1` (required iff the band does not end at the frame's
    /// last row).
    pub below: Option<BelowHalo<'a, R>>,
}

/// The three row slices of [`BandHalo::below`]: the frame row just past the
/// band's end, needed to form the last term row the band consumes.
pub struct BelowHalo<'a, R> {
    /// Old `px` row `r1`.
    pub px: &'a [R],
    /// Old `py` row `r1`.
    pub py: &'a [R],
    /// `v` row `r1` (immutable in the caller; passed for uniformity).
    pub v: &'a [R],
}

/// One Chambolle iteration over rows `[r0, r0 + rows)` of a `w × h` frame,
/// where `px_band`/`py_band`/`v_band` are flat row-major slices covering
/// exactly those rows, with the row kernels on `backend` at the `numerics`
/// tier.
///
/// Rolls two caller-provided term-row buffers (`term_a`, `term_b`, each of
/// length `w`): the term for row `y + 1` is computed — from still-old `p`
/// values — before row `y` is updated. At the Exact tier the result is
/// therefore bit-identical to running [`crate::solver::compute_term_into`]
/// followed by [`crate::solver::update_p_inplace`] on the whole frame, on
/// every backend. At the Fast tier each row step is one fused traversal
/// ([`crate::fast`]) whose term is the Exact term, deterministic per
/// backend.
///
/// With `r0 == 0` and `rows == h` (and an empty halo) this *is* one whole
/// sequential iteration, minus the full-frame term allocation; bands of a
/// frame with snapshotted halos stitch to the same bits on either tier.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `w`/`rows`, or if a
/// required halo row is missing.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub(crate) fn band_iteration<R: Real>(
    backend: KernelBackend,
    numerics: NumericsPolicy,
    px_band: &mut [R],
    py_band: &mut [R],
    v_band: &[R],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, R>,
    inv_theta: R,
    step_ratio: R,
    term_a: &mut [R],
    term_b: &mut [R],
) {
    assert!(w > 0, "band width must be positive");
    let rows = px_band.len() / w;
    let r1 = r0 + rows;
    assert!(rows > 0 && px_band.len() == rows * w, "px band misshapen");
    assert_eq!(py_band.len(), rows * w, "py band misshapen");
    assert_eq!(v_band.len(), rows * w, "v band misshapen");
    assert!(r1 <= h, "band exceeds frame height");
    assert_eq!(
        halo.py_above.is_some(),
        r0 > 0,
        "py_above halo required exactly when the band starts mid-frame"
    );
    assert_eq!(
        halo.below.is_some(),
        r1 < h,
        "below halo required exactly when the band ends mid-frame"
    );
    assert!(
        term_a.len() == w && term_b.len() == w,
        "term buffers need width w"
    );

    // The row step: the next row's term from `px_next`, `py_next`, `v_next`
    // and the still-old `py_row`, then this row's update against `cur` and
    // that term. The Fast tier runs both in one traversal of the row;
    // `f64` rows always run Exact.
    let step = |px_next: &[R],
                py_next: &[R],
                v_next: &[R],
                next_is_last: bool,
                cur: &[R],
                next: &mut [R],
                px_row: &mut [R],
                py_row: &mut [R]| {
        if numerics == NumericsPolicy::Fast && is_f32::<R>() {
            return fast::fused_term_update_row(
                backend,
                f32_slice(px_next).expect("R is f32"),
                f32_slice(py_next).expect("R is f32"),
                f32_slice(v_next).expect("R is f32"),
                inv_theta.to_f32(),
                next_is_last,
                f32_slice(cur).expect("R is f32"),
                f32_slice_mut(next).expect("R is f32"),
                step_ratio.to_f32(),
                f32_slice_mut(px_row).expect("R is f32"),
                f32_slice_mut(py_row).expect("R is f32"),
            );
        }
        compute_term_row_on(
            backend,
            px_next,
            py_next,
            Some(py_row),
            v_next,
            inv_theta,
            next_is_last,
            next,
        );
        update_p_row_on(
            backend,
            numerics,
            cur,
            Some(next),
            step_ratio,
            px_row,
            py_row,
        );
    };

    let mut cur: &mut [R] = term_a;
    let mut next: &mut [R] = term_b;
    compute_term_row_on(
        backend,
        &px_band[..w],
        &py_band[..w],
        halo.py_above,
        &v_band[..w],
        inv_theta,
        r0 + 1 == h,
        cur,
    );
    for i in 0..rows {
        let y = r0 + i;
        let lo = i * w;
        if y + 1 < h {
            // Term for row y+1 from old-p values: px/py row y+1 (own band or
            // the below-halo snapshot) and py row y, which the step reads
            // before it updates row y.
            let last = y + 2 == h;
            if i + 1 < rows {
                let (px_here, px_next) = px_band[lo..lo + 2 * w].split_at_mut(w);
                let (py_here, py_next) = py_band[lo..lo + 2 * w].split_at_mut(w);
                let v_next = &v_band[lo + w..lo + 2 * w];
                step(px_next, py_next, v_next, last, cur, next, px_here, py_here);
            } else {
                let below = halo.below.as_ref().expect("below halo checked above");
                let (px_here, py_here) = (&mut px_band[lo..lo + w], &mut py_band[lo..lo + w]);
                step(
                    below.px, below.py, below.v, last, cur, next, px_here, py_here,
                );
            }
            std::mem::swap(&mut cur, &mut next);
        } else {
            update_p_row_on(
                backend,
                numerics,
                cur,
                None,
                step_ratio,
                &mut px_band[lo..lo + w],
                &mut py_band[lo..lo + w],
            );
        }
    }
}

/// The one band iteration at the Exact tier: bit-identical to
/// [`KernelBackend::Scalar`] on every backend, so `backend` only changes
/// speed. An entry point of its own because the `benchmark/` kernel probe
/// times it.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub fn fused_band_iteration_on<R: Real>(
    backend: KernelBackend,
    px_band: &mut [R],
    py_band: &mut [R],
    v_band: &[R],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, R>,
    inv_theta: R,
    step_ratio: R,
    term_a: &mut [R],
    term_b: &mut [R],
) {
    band_iteration(
        backend,
        NumericsPolicy::Exact,
        px_band,
        py_band,
        v_band,
        w,
        h,
        r0,
        halo,
        inv_theta,
        step_ratio,
        term_a,
        term_b,
    );
}

/// Whether `R` is `f32`, the type every vector body is written for.
#[inline]
fn is_f32<R: Real>() -> bool {
    TypeId::of::<R>() == TypeId::of::<f32>()
}

/// Reinterprets `&[R]` as `&[f32]` iff `R` *is* `f32`.
#[inline]
fn f32_slice<R: Real>(s: &[R]) -> Option<&[f32]> {
    if is_f32::<R>() {
        // SAFETY: the TypeId check proves R == f32, so element layout,
        // length and lifetime all carry over unchanged.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// Reinterprets `&mut [R]` as `&mut [f32]` iff `R` *is* `f32`.
#[inline]
fn f32_slice_mut<R: Real>(s: &mut [R]) -> Option<&mut [f32]> {
    if is_f32::<R>() {
        // SAFETY: the TypeId check proves R == f32; the mutable borrow is
        // passed through exclusively.
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// The x86-64 Exact-tier AVX2 intrinsic bodies.
///
/// Every function replays the scalar loops of this module with the
/// per-lane operation order preserved exactly: no FMA contraction, no
/// reassociation, negation as an IEEE sign-flip (so `-0.0` behaves as in
/// the scalar code), and scalar handling for row edges and remainder lanes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Which y-divergence rule a term row uses (the four cases of
    /// [`super::compute_term_row`]).
    enum DivY<'a> {
        /// Single-row frame: `div_y = 0`.
        Zero,
        /// First frame row: `div_y = py[x]`.
        First(&'a [f32]),
        /// Interior row: `div_y = py[x] − above[x]`.
        Interior(&'a [f32], &'a [f32]),
        /// Last frame row: `div_y = −above[x]`.
        Last(&'a [f32]),
    }

    impl<'a> DivY<'a> {
        /// The rule for a row with `py` row `py`, the row `above` (if any)
        /// and the frame-edge flag `last_row`.
        #[inline]
        fn new(py: &'a [f32], above: Option<&'a [f32]>, last_row: bool) -> Self {
            match (above, last_row) {
                (None, true) => DivY::Zero,
                (None, false) => DivY::First(py),
                (Some(a), false) => DivY::Interior(py, a),
                (Some(a), true) => DivY::Last(a),
            }
        }

        /// `div_y` at column `x`, with the scalar reference's operations.
        #[inline]
        fn at(&self, x: usize) -> f32 {
            match self {
                DivY::Zero => 0.0,
                DivY::First(py) => py[x],
                DivY::Interior(py, above) => py[x] - above[x],
                DivY::Last(above) => -above[x],
            }
        }
    }

    /// The four [`DivY`] shapes as compile-time selectors, so each vector
    /// loop body is stamped out branch-free (the runtime `match` happens
    /// once per row, not once per vector).
    const DY_ZERO: u8 = 0;
    const DY_FIRST: u8 = 1;
    const DY_INTERIOR: u8 = 2;
    const DY_LAST: u8 = 3;

    /// Vectorized [`super::compute_term_row`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `out.len() >= 2`, and `px`, `py`, `v` and
    /// `above` (if any) must be as long as `out`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn term_row_avx2(
        px: &[f32],
        py: &[f32],
        above: Option<&[f32]>,
        v: &[f32],
        inv_theta: f32,
        last_row: bool,
        out: &mut [f32],
    ) {
        let div_y = &DivY::new(py, above, last_row);
        // SAFETY (all four arms): delegated; the caller's bounds contract
        // is forwarded unchanged, and the slice passed as `dy` matches the
        // selector's expectations (unused/`py`/`above` per variant).
        unsafe {
            match div_y {
                DivY::Zero => term_row_avx2_on::<DY_ZERO>(px, px, px, v, inv_theta, out, div_y),
                DivY::First(py) => {
                    term_row_avx2_on::<DY_FIRST>(px, py, py, v, inv_theta, out, div_y)
                }
                DivY::Interior(py, above) => {
                    term_row_avx2_on::<DY_INTERIOR>(px, py, above, v, inv_theta, out, div_y)
                }
                DivY::Last(above) => {
                    term_row_avx2_on::<DY_LAST>(px, above, above, v, inv_theta, out, div_y)
                }
            }
        }
    }

    /// One monomorphized AVX2 term-row loop per `DivY` shape. `py` and
    /// `above` are the variant's payload slices (aliased to `px` when the
    /// variant has no payload — never read then).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn term_row_avx2_on<const DY: u8>(
        px: &[f32],
        py: &[f32],
        above: &[f32],
        v: &[f32],
        inv_theta: f32,
        out: &mut [f32],
        div_y: &DivY<'_>,
    ) {
        let w = out.len();
        let it = _mm256_set1_ps(inv_theta);
        out[0] = (px[0] + div_y.at(0)) - v[0] * inv_theta;
        // One 8-lane tap shared by both the paired and the single loop; all
        // ops per lane match the scalar expression order exactly.
        //
        // SAFETY (of the closure body): every caller guarantees
        // `x + 8 <= w − 1 < len`, bounding every unaligned load including
        // the shifted `px[x − 1]` stencil read.
        let tap = |x: usize, out: &mut [f32]| unsafe {
            let dx = _mm256_sub_ps(
                _mm256_loadu_ps(px.as_ptr().add(x)),
                _mm256_loadu_ps(px.as_ptr().add(x - 1)),
            );
            let dy = match DY {
                DY_ZERO => _mm256_setzero_ps(),
                DY_FIRST => _mm256_loadu_ps(py.as_ptr().add(x)),
                DY_INTERIOR => _mm256_sub_ps(
                    _mm256_loadu_ps(py.as_ptr().add(x)),
                    _mm256_loadu_ps(above.as_ptr().add(x)),
                ),
                // IEEE sign-flip: matches the scalar `−above[x]` bitwise
                // (a `0.0 − a` subtraction would turn `−0.0` into `+0.0`).
                _ => _mm256_xor_ps(_mm256_set1_ps(-0.0), _mm256_loadu_ps(above.as_ptr().add(x))),
            };
            let vi = _mm256_mul_ps(_mm256_loadu_ps(v.as_ptr().add(x)), it);
            _mm256_storeu_ps(
                out.as_mut_ptr().add(x),
                _mm256_sub_ps(_mm256_add_ps(dx, dy), vi),
            );
        };
        let mut x = 1usize;
        // Two vectors per trip to amortize loop overhead; trips are
        // independent, so unrolling cannot change any lane's result.
        while x + 16 < w {
            tap(x, out);
            tap(x + 8, out);
            x += 16;
        }
        while x + 8 < w {
            tap(x, out);
            x += 8;
        }
        while x < w - 1 {
            out[x] = ((px[x] - px[x - 1]) + div_y.at(x)) - v[x] * inv_theta;
            x += 1;
        }
        out[w - 1] = (-px[w - 2] + div_y.at(w - 1)) - v[w - 1] * inv_theta;
    }

    /// Vectorized [`super::update_p_row`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `term.len() >= 2`, and `below` (if any),
    /// `px` and `py` must be as long as `term`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn update_p_row_avx2(
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        // SAFETY (both arms): delegated; the caller's bounds contract is
        // forwarded unchanged, and `below` aliases `term` in the absent
        // case purely as a placeholder — the `HAS_BELOW = false` body never
        // reads it.
        unsafe {
            match below {
                Some(b) => update_p_row_avx2_on::<true>(term, b, below, step, px, py),
                None => update_p_row_avx2_on::<false>(term, term, below, step, px, py),
            }
        }
    }

    /// One monomorphized AVX2 update-row loop per `below` shape, so the
    /// last-row / interior-row branch is resolved once per row instead of
    /// once per vector trip.
    #[target_feature(enable = "avx2")]
    unsafe fn update_p_row_avx2_on<const HAS_BELOW: bool>(
        term: &[f32],
        below: &[f32],
        below_opt: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        let w = term.len();
        let sv = _mm256_set1_ps(step);
        let one = _mm256_set1_ps(1.0);
        // One 8-lane update; op order matches the scalar cell exactly:
        // t1·t1 + t2·t2, √, 1 + step·grad — no FMA, so each lane rounds
        // identically to the scalar reference.
        //
        // SAFETY (of the closure body): every caller guarantees
        // `x + 8 <= w − 1 < len`, bounding every unaligned load including
        // the forward-difference `term[x + 1]` read.
        let tap = |x: usize, px: &mut [f32], py: &mut [f32]| unsafe {
            let t = _mm256_loadu_ps(term.as_ptr().add(x));
            let t1 = _mm256_sub_ps(_mm256_loadu_ps(term.as_ptr().add(x + 1)), t);
            let t2 = if HAS_BELOW {
                _mm256_sub_ps(_mm256_loadu_ps(below.as_ptr().add(x)), t)
            } else {
                _mm256_setzero_ps()
            };
            let grad = _mm256_sqrt_ps(_mm256_add_ps(_mm256_mul_ps(t1, t1), _mm256_mul_ps(t2, t2)));
            let denom = _mm256_add_ps(one, _mm256_mul_ps(sv, grad));
            let npx = _mm256_div_ps(
                _mm256_add_ps(_mm256_loadu_ps(px.as_ptr().add(x)), _mm256_mul_ps(sv, t1)),
                denom,
            );
            let npy = _mm256_div_ps(
                _mm256_add_ps(_mm256_loadu_ps(py.as_ptr().add(x)), _mm256_mul_ps(sv, t2)),
                denom,
            );
            _mm256_storeu_ps(px.as_mut_ptr().add(x), npx);
            _mm256_storeu_ps(py.as_mut_ptr().add(x), npy);
        };
        let mut x = 0usize;
        // Two independent vectors per trip: the divider and sqrt units are
        // only partially pipelined, so exposing 16 in-flight lanes lets the
        // second vector's long-latency ops overlap the first's. Trips and
        // taps are independent, so unrolling cannot change any lane.
        // The last column (t1 forced to zero) never enters a vector loop.
        while x + 16 < w {
            tap(x, px, py);
            tap(x + 8, px, py);
            x += 16;
        }
        while x + 8 < w {
            tap(x, px, py);
            x += 8;
        }
        // Remainder lanes and the final column: the scalar row kernel on the
        // suffix computes exactly them (its zero-t1 last column is the
        // frame's real last column).
        super::update_p_row(
            &term[x..],
            below_opt.map(|b| &b[x..]),
            step,
            &mut px[x..],
            &mut py[x..],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{compute_term_into, update_p_inplace, Convention, DualField};
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_state(w: usize, h: usize, seed: u64) -> (DualField<f32>, Grid<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = DualField::zeros(w, h);
        p.px = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        p.py = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        (p, v)
    }

    fn reference_iteration(p: &mut DualField<f32>, v: &Grid<f32>, inv_theta: f32, step: f32) {
        let mut term = Grid::new(v.width(), v.height(), 0.0f32);
        compute_term_into(p, v, inv_theta, &mut term);
        update_p_inplace(p, &term, step, Convention::Standard);
    }

    fn fused_full_iteration(p: &mut DualField<f32>, v: &Grid<f32>, inv_theta: f32, step: f32) {
        let (w, h) = v.dims();
        let mut ta = vec![0.0f32; w];
        let mut tb = vec![0.0f32; w];
        fused_band_iteration_on(
            KernelBackend::Scalar,
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
            step,
            &mut ta,
            &mut tb,
        );
    }

    #[test]
    fn term_row_matches_reference_all_row_kinds() {
        for (w, h) in [(7usize, 5usize), (1, 4), (6, 1), (1, 1), (2, 2)] {
            let (p, v) = random_state(w, h, 42 + (w * h) as u64);
            let inv_theta = 1.0f32 / 0.25;
            let mut reference = Grid::new(w, h, 0.0f32);
            compute_term_into(&p, &v, inv_theta, &mut reference);
            for y in 0..h {
                let mut out = vec![0.0f32; w];
                let above = (y > 0).then(|| p.py.row(y - 1));
                compute_term_row(
                    p.px.row(y),
                    p.py.row(y),
                    above,
                    v.row(y),
                    inv_theta,
                    y + 1 == h,
                    &mut out,
                );
                assert_eq!(out.as_slice(), reference.row(y), "{w}x{h} row {y}");
            }
        }
    }

    #[test]
    fn update_row_matches_reference_all_row_kinds() {
        for (w, h) in [(7usize, 5usize), (1, 4), (6, 1), (1, 1)] {
            let (mut p, v) = random_state(w, h, 7 + w as u64);
            let inv_theta = 4.0f32;
            let step = 0.25f32 / 0.25;
            let mut term = Grid::new(w, h, 0.0f32);
            compute_term_into(&p, &v, inv_theta, &mut term);
            let mut p_ref = p.clone();
            update_p_inplace(&mut p_ref, &term, step, Convention::Standard);
            for y in 0..h {
                let below = (y + 1 < h).then(|| term.row(y + 1).to_vec());
                update_p_row(
                    term.row(y),
                    below.as_deref(),
                    step,
                    p.px.row_mut(y),
                    p.py.row_mut(y),
                );
            }
            assert_eq!(p.px.as_slice(), p_ref.px.as_slice(), "{w}x{h} px");
            assert_eq!(p.py.as_slice(), p_ref.py.as_slice(), "{w}x{h} py");
        }
    }

    #[test]
    fn fused_full_frame_is_bit_identical_to_two_pass() {
        for (w, h) in [(13usize, 11usize), (1, 9), (9, 1), (1, 1), (32, 24)] {
            let (mut p_fused, v) = random_state(w, h, 1000 + w as u64);
            let mut p_ref = p_fused.clone();
            for _ in 0..5 {
                reference_iteration(&mut p_ref, &v, 4.0, 1.0);
                fused_full_iteration(&mut p_fused, &v, 4.0, 1.0);
            }
            assert_eq!(p_fused.px.as_slice(), p_ref.px.as_slice(), "{w}x{h}");
            assert_eq!(p_fused.py.as_slice(), p_ref.py.as_slice(), "{w}x{h}");
        }
    }

    #[test]
    fn banded_iteration_with_halos_is_bit_identical() {
        // Split a frame into bands, snapshot halos, run bands in arbitrary
        // order — the stitched result must match the whole-frame reference.
        let (w, h) = (17usize, 23usize);
        let (p, v) = random_state(w, h, 99);
        let mut p_ref = p.clone();
        reference_iteration(&mut p_ref, &v, 4.0, 1.0);

        for bands in [2usize, 3, 5, 8] {
            let mut p_band = p.clone();
            let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
            // Snapshot halos from old p before any band runs.
            let snap_py_above: Vec<Vec<f32>> = (1..bands)
                .map(|b| p_band.py.row(bounds[b] - 1).to_vec())
                .collect();
            let snap_px_below: Vec<Vec<f32>> = (1..bands)
                .map(|b| p_band.px.row(bounds[b]).to_vec())
                .collect();
            let snap_py_below: Vec<Vec<f32>> = (1..bands)
                .map(|b| p_band.py.row(bounds[b]).to_vec())
                .collect();
            // Run bands in reverse order to prove order-independence.
            for b in (0..bands).rev() {
                let (r0, r1) = (bounds[b], bounds[b + 1]);
                if r0 == r1 {
                    continue;
                }
                let halo = BandHalo {
                    py_above: (r0 > 0).then(|| snap_py_above[b - 1].as_slice()),
                    below: (r1 < h).then(|| BelowHalo {
                        px: snap_px_below[b].as_slice(),
                        py: snap_py_below[b].as_slice(),
                        v: v.row(r1),
                    }),
                };
                let mut ta = vec![0.0f32; w];
                let mut tb = vec![0.0f32; w];
                fused_band_iteration_on(
                    KernelBackend::Scalar,
                    &mut p_band.px.as_mut_slice()[r0 * w..r1 * w],
                    &mut p_band.py.as_mut_slice()[r0 * w..r1 * w],
                    &v.as_slice()[r0 * w..r1 * w],
                    w,
                    h,
                    r0,
                    halo,
                    4.0,
                    1.0,
                    &mut ta,
                    &mut tb,
                );
            }
            assert_eq!(p_band.px.as_slice(), p_ref.px.as_slice(), "{bands} bands");
            assert_eq!(p_band.py.as_slice(), p_ref.py.as_slice(), "{bands} bands");
        }
        // Keep the f64 path honest too.
        let mut p64 = DualField::<f64>::zeros(4, 4);
        p64.px = p.px.crop(0, 0, 4, 4).map(|&x| x as f64);
        p64.py = p.py.crop(0, 0, 4, 4).map(|&x| x as f64);
        let v64 = v.crop(0, 0, 4, 4).map(|&x| x as f64);
        let mut p64_ref = p64.clone();
        let mut term = Grid::new(4, 4, 0.0f64);
        compute_term_into(&p64_ref, &v64, 4.0, &mut term);
        update_p_inplace(&mut p64_ref, &term, 1.0, Convention::Standard);
        let (mut ta, mut tb) = (vec![0.0f64; 4], vec![0.0f64; 4]);
        fused_band_iteration_on(
            KernelBackend::Scalar,
            p64.px.as_mut_slice(),
            p64.py.as_mut_slice(),
            v64.as_slice(),
            4,
            4,
            0,
            BandHalo {
                py_above: None,
                below: None,
            },
            4.0,
            1.0,
            &mut ta,
            &mut tb,
        );
        assert_eq!(p64.px.as_slice(), p64_ref.px.as_slice());
    }

    #[test]
    #[should_panic(expected = "py_above halo required")]
    fn missing_halo_is_rejected() {
        let mut px = vec![0.0f32; 4];
        let mut py = vec![0.0f32; 4];
        let v = vec![0.0f32; 4];
        let (mut ta, mut tb) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        fused_band_iteration_on(
            KernelBackend::Scalar,
            &mut px,
            &mut py,
            &v,
            4,
            3,
            1, // starts mid-frame but provides no py_above
            BandHalo {
                py_above: None,
                below: None,
            },
            4.0,
            1.0,
            &mut ta,
            &mut tb,
        );
    }

    fn vector_backends() -> Vec<KernelBackend> {
        [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ]
        .into_iter()
        .filter(KernelBackend::is_supported)
        .collect()
    }

    fn random_rows(w: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let row = |rng: &mut StdRng| (0..w).map(|_| rng.gen_range(-0.9f32..0.9)).collect();
        (row(&mut rng), row(&mut rng), row(&mut rng), row(&mut rng))
    }

    #[test]
    fn term_rows_bit_identical_across_backends_and_row_kinds() {
        for w in [1usize, 2, 3, 4, 5, 8, 9, 16, 31, 64, 129] {
            let (px, py, above, v) = random_rows(w, 7 + w as u64);
            let inv_theta = 4.0f32;
            for (above_opt, last) in [
                (None, true),
                (None, false),
                (Some(above.as_slice()), false),
                (Some(above.as_slice()), true),
            ] {
                let mut reference = vec![0.0f32; w];
                compute_term_row(&px, &py, above_opt, &v, inv_theta, last, &mut reference);
                for backend in vector_backends() {
                    let mut out = vec![0.0f32; w];
                    compute_term_row_on(
                        backend, &px, &py, above_opt, &v, inv_theta, last, &mut out,
                    );
                    assert_eq!(
                        out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        reference.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{backend:?} w={w} above={} last={last}",
                        above_opt.is_some(),
                    );
                }
            }
        }
    }

    #[test]
    fn update_rows_bit_identical_across_backends_and_widths() {
        for w in [1usize, 2, 3, 4, 5, 8, 9, 16, 31, 64, 129] {
            let (term, below, px0, py0) = random_rows(w, 99 + w as u64);
            let step = 0.248f32;
            for below_opt in [None, Some(below.as_slice())] {
                let (mut rpx, mut rpy) = (px0.clone(), py0.clone());
                update_p_row(&term, below_opt, step, &mut rpx, &mut rpy);
                for backend in vector_backends() {
                    let (mut bpx, mut bpy) = (px0.clone(), py0.clone());
                    update_p_row_on(
                        backend,
                        NumericsPolicy::Exact,
                        &term,
                        below_opt,
                        step,
                        &mut bpx,
                        &mut bpy,
                    );
                    assert_eq!(
                        bpx.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        rpx.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{backend:?} px w={w} below={}",
                        below_opt.is_some(),
                    );
                    assert_eq!(
                        bpy.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        rpy.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "{backend:?} py w={w} below={}",
                        below_opt.is_some(),
                    );
                }
            }
        }
    }

    #[test]
    fn negative_zero_in_last_row_matches_scalar_sign() {
        // `div_y = −above[x]` must preserve −0.0 semantics; a subtraction
        // from +0.0 would not.
        for backend in vector_backends() {
            let w = 24;
            let px = vec![0.0f32; w];
            let py = vec![0.0f32; w];
            let above = vec![0.0f32; w];
            let v = vec![0.0f32; w];
            let mut reference = vec![1.0f32; w];
            let mut out = vec![1.0f32; w];
            compute_term_row(&px, &py, Some(&above), &v, 4.0, true, &mut reference);
            compute_term_row_on(backend, &px, &py, Some(&above), &v, 4.0, true, &mut out);
            let bits = |s: &[f32]| s.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&reference), "{backend:?}");
        }
    }

    #[test]
    fn f64_grids_always_take_the_scalar_path() {
        // The dispatch must not misroute f64 slices into f32 intrinsics.
        let w = 19;
        let px: Vec<f64> = (0..w).map(|i| (i as f64).sin()).collect();
        let py: Vec<f64> = (0..w).map(|i| (i as f64).cos()).collect();
        let v: Vec<f64> = (0..w).map(|i| i as f64 / w as f64).collect();
        let mut reference = vec![0.0f64; w];
        compute_term_row(&px, &py, None, &v, 4.0f64, false, &mut reference);
        for backend in [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            let mut out = vec![0.0f64; w];
            compute_term_row_on(backend, &px, &py, None, &v, 4.0f64, false, &mut out);
            assert_eq!(
                out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn fused_band_iteration_bit_identical_across_backends() {
        let (w, h) = (37, 9);
        let mut rng = StdRng::seed_from_u64(1234);
        let px0 = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let py0 = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        let run = |backend: KernelBackend| {
            let (mut px, mut py) = (px0.clone(), py0.clone());
            let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
            fused_band_iteration_on(
                backend,
                px.as_mut_slice(),
                py.as_mut_slice(),
                v.as_slice(),
                w,
                h,
                0,
                BandHalo {
                    py_above: None,
                    below: None,
                },
                4.0,
                0.125,
                &mut ta,
                &mut tb,
            );
            (px, py)
        };
        let (rpx, rpy) = run(KernelBackend::Scalar);
        for backend in vector_backends() {
            let (bpx, bpy) = run(backend);
            assert_eq!(bpx.as_slice(), rpx.as_slice(), "{backend:?} px");
            assert_eq!(bpy.as_slice(), rpy.as_slice(), "{backend:?} py");
        }
    }
}
