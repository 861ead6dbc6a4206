//! Runtime-dispatched SIMD backends for the fused row kernels.
//!
//! A [`KernelBackend`] names one SIMD level for the hot row kernels in
//! [`crate::kernels`]. At the **Exact** numerics tier there are two
//! implementations, and they compute **bit-identical** results:
//!
//! - the portable scalar reference, which `Scalar` and `Sse2` run (LLVM
//!   auto-vectorises it to SSE2, and hand-written SSE2 bodies measured no
//!   faster);
//! - 256-bit AVX2 `std::arch` intrinsics, which `Avx2` and `Avx512` run
//!   (dedicated 16-lane kernels exist only at the Fast tier, where byte
//!   equality is not the contract).
//!
//! Bit identity holds because:
//!
//! - vector lanes replay the scalar operation order exactly — no fused
//!   multiply-add, no reassociation — and every op used (`add`, `sub`,
//!   `mul`, `div`, `sqrt`, sign-flip via XOR) is correctly rounded
//!   elementwise under IEEE 754, so each lane produces the same bits the
//!   scalar loop would;
//! - horizontal reductions (the energies in [`crate::solver::rof_energy`]
//!   and [`crate::diagnostics`]) are **not** vectorized at all: they keep
//!   the fixed left-to-right accumulation order of a sequential `f64` sum
//!   over row-major cells, on every backend;
//! - `f64` grids always take the scalar path (the SIMD bodies are written
//!   for the `f32` production kernels).
//!
//! The process-wide default is resolved once by [`KernelBackend::active`]:
//! the widest level the CPU supports, overridable with
//! `CHAMBOLLE_BACKEND=scalar|sse2|avx2|avx512` (see
//! [`chambolle_par::simd`]). Because every backend is bit-identical at the
//! Exact tier, the choice is purely a throughput knob — pinned by the
//! backend-exactness test matrix at the workspace root.
//!
//! The **Fast** tier ([`crate::ctx::NumericsPolicy::Fast`]) swaps in the
//! kernels of [`crate::fast`]: FMA contraction, a shared reciprocal for
//! the two normalizing divides, `rsqrt`/`rcp` approximations refined by one
//! Newton–Raphson step, and true 16-lane AVX-512 bodies. Those are
//! tolerance-validated against the exact reference, not bit-compared.

use std::any::TypeId;

use chambolle_par::simd::{self, SimdLevel};
use chambolle_telemetry::{names, Telemetry};

use crate::kernels::{self, BandHalo};
use crate::real::Real;

/// One implementation of the fused row kernels.
///
/// Constructed either explicitly (tests, benchmarks) or via
/// [`KernelBackend::active`] (production paths). A backend whose CPU
/// features are missing at run time silently executes the scalar reference
/// instead — selection can change *speed*, never *bits* and never safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar Rust — the reference all other backends must match.
    Scalar,
    /// 128-bit SSE2 level, 4 × `f32` per op. Exact-tier solves run the
    /// scalar reference (which the compiler already vectorises to SSE2); the
    /// `imaging` row kernels have dedicated SSE2 bodies.
    Sse2,
    /// 256-bit AVX2 intrinsics, 8 × `f32` per op.
    Avx2,
    /// 512-bit AVX-512F intrinsics, 16 × `f32` per op. Exact-tier solves
    /// delegate to the AVX2 bodies (bit-identity is cheaper to audit on one
    /// vector width); the Fast tier runs dedicated 16-lane kernels.
    Avx512,
}

impl Default for KernelBackend {
    /// The process-wide active backend ([`KernelBackend::active`]).
    fn default() -> Self {
        KernelBackend::active()
    }
}

impl KernelBackend {
    /// The process-wide backend: `CHAMBOLLE_BACKEND` override if valid and
    /// supported, else the widest level the CPU offers. Resolved once.
    pub fn active() -> Self {
        KernelBackend::from_level(simd::active())
    }

    /// The widest backend the current CPU supports, ignoring the override.
    pub fn detect() -> Self {
        KernelBackend::from_level(simd::detect())
    }

    /// Maps a raw [`SimdLevel`] onto a backend.
    pub fn from_level(level: SimdLevel) -> Self {
        match level {
            SimdLevel::Scalar => KernelBackend::Scalar,
            SimdLevel::Sse2 => KernelBackend::Sse2,
            SimdLevel::Avx2 => KernelBackend::Avx2,
            SimdLevel::Avx512 => KernelBackend::Avx512,
        }
    }

    /// Maps a tuning-profile [`chambolle_tune::BackendChoice`] onto a
    /// backend: `Auto` defers to [`KernelBackend::active`] (including the
    /// `CHAMBOLLE_BACKEND` override). A profile naming a backend the host
    /// cannot execute stays safe — unsupported levels dispatch to the
    /// scalar reference at run time, same bits, lower speed.
    pub fn from_choice(choice: chambolle_tune::BackendChoice) -> Self {
        use chambolle_tune::BackendChoice;
        match choice {
            BackendChoice::Auto => KernelBackend::active(),
            BackendChoice::Scalar => KernelBackend::Scalar,
            BackendChoice::Sse2 => KernelBackend::Sse2,
            BackendChoice::Avx2 => KernelBackend::Avx2,
            BackendChoice::Avx512 => KernelBackend::Avx512,
        }
    }

    /// The raw [`SimdLevel`] this backend runs at, for the `imaging` row
    /// kernels which dispatch on the level directly.
    pub fn simd_level(&self) -> SimdLevel {
        match self {
            KernelBackend::Scalar => SimdLevel::Scalar,
            KernelBackend::Sse2 => SimdLevel::Sse2,
            KernelBackend::Avx2 => SimdLevel::Avx2,
            KernelBackend::Avx512 => SimdLevel::Avx512,
        }
    }

    /// Stable identifier (`scalar`/`sse2`/`avx2`/`avx512`).
    pub fn as_str(&self) -> &'static str {
        self.simd_level().as_str()
    }

    /// `f32` lanes per vector op.
    pub fn lanes(&self) -> usize {
        self.simd_level().lanes()
    }

    /// Whether the current CPU can execute this backend's intrinsics.
    pub fn is_supported(&self) -> bool {
        self.simd_level().is_supported()
    }

    /// Records the `backend.*` gauges describing this backend and the
    /// host's capabilities into `telemetry`.
    pub fn record_telemetry(&self, telemetry: &Telemetry) {
        telemetry.gauge_set(names::BACKEND_SIMD_LANES, self.lanes() as f64);
        telemetry.gauge_set(
            names::BACKEND_SSE2_SUPPORTED,
            f64::from(SimdLevel::Sse2.is_supported()),
        );
        telemetry.gauge_set(
            names::BACKEND_AVX2_SUPPORTED,
            f64::from(SimdLevel::Avx2.is_supported()),
        );
        telemetry.gauge_set(
            names::BACKEND_AVX512_SUPPORTED,
            f64::from(SimdLevel::Avx512.is_supported()),
        );
    }

    /// Whether the Exact row kernels take the AVX2 bodies: `Avx2`, and
    /// `Avx512` (whose Exact tier delegates to them), on a CPU that runs
    /// them. Every other case takes the scalar reference.
    #[inline]
    fn runs_avx2_bodies(&self) -> bool {
        matches!(self, KernelBackend::Avx2 | KernelBackend::Avx512) && self.is_supported()
    }

    /// [`kernels::compute_term_row`] on this backend. Bit-identical to the
    /// scalar reference for every backend.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's flat-slice shape
    #[inline]
    pub fn compute_term_row<R: Real>(
        &self,
        px_row: &[R],
        py_row: &[R],
        py_above: Option<&[R]>,
        v_row: &[R],
        inv_theta: R,
        last_row: bool,
        out: &mut [R],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.runs_avx2_bodies() && out.len() >= 2 {
            if let (Some(px), Some(py), Some(v)) =
                (f32_slice(px_row), f32_slice(py_row), f32_slice(v_row))
            {
                let above = py_above.map(|a| f32_slice(a).expect("R proven to be f32"));
                let out = f32_slice_mut(out).expect("R proven to be f32");
                x86::term_row(px, py, above, v, inv_theta.to_f32(), last_row, out);
                return;
            }
        }
        kernels::compute_term_row(px_row, py_row, py_above, v_row, inv_theta, last_row, out);
    }

    /// [`kernels::update_p_row`] on this backend. Bit-identical to the
    /// scalar reference for every backend.
    #[inline]
    pub fn update_p_row<R: Real>(
        &self,
        term_row: &[R],
        term_below: Option<&[R]>,
        step_ratio: R,
        px_row: &mut [R],
        py_row: &mut [R],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.runs_avx2_bodies() && term_row.len() >= 2 {
            if let Some(term) = f32_slice(term_row) {
                let below = term_below.map(|b| f32_slice(b).expect("R proven to be f32"));
                let px = f32_slice_mut(px_row).expect("R proven to be f32");
                let py = f32_slice_mut(py_row).expect("R proven to be f32");
                x86::update_p_row(term, below, step_ratio.to_f32(), px, py);
                return;
            }
        }
        kernels::update_p_row(term_row, term_below, step_ratio, px_row, py_row);
    }

    /// [`kernels::fused_band_iteration`] with the term and update rows
    /// running on this backend. Bit-identical to the scalar reference.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's flat-slice shape
    pub fn fused_band_iteration<R: Real>(
        &self,
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
        kernels::fused_band_iteration_on(
            *self, px_band, py_band, v_band, w, h, r0, halo, inv_theta, step_ratio, term_a, term_b,
        );
    }
}

/// Reinterprets `&[R]` as `&[f32]` iff `R` *is* `f32`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn f32_slice<R: Real>(s: &[R]) -> Option<&[f32]> {
    if TypeId::of::<R>() == TypeId::of::<f32>() {
        // SAFETY: the TypeId check proves R == f32, so element layout,
        // length and lifetime all carry over unchanged.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// Reinterprets `&mut [R]` as `&mut [f32]` iff `R` *is* `f32`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn f32_slice_mut<R: Real>(s: &mut [R]) -> Option<&mut [f32]> {
    if TypeId::of::<R>() == TypeId::of::<f32>() {
        // SAFETY: the TypeId check proves R == f32; the mutable borrow is
        // passed through exclusively.
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// The x86-64 AVX2 intrinsic bodies.
///
/// Every function replays the scalar loops of [`crate::kernels`] with the
/// per-lane operation order preserved exactly: no FMA contraction, no
/// reassociation, negation as an IEEE sign-flip (so `-0.0` behaves as in
/// the scalar code), and scalar handling for row edges and remainder lanes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use crate::kernels;

    /// Which y-divergence rule the term row uses (the four cases of
    /// [`kernels::compute_term_row`]).
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

    impl DivY<'_> {
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

    /// Vectorized [`kernels::compute_term_row`]; caller guarantees
    /// `out.len() >= 2` and that the CPU supports AVX2.
    pub(super) fn term_row(
        px: &[f32],
        py: &[f32],
        above: Option<&[f32]>,
        v: &[f32],
        inv_theta: f32,
        last_row: bool,
        out: &mut [f32],
    ) {
        let div_y = match (above, last_row) {
            (None, true) => DivY::Zero,
            (None, false) => DivY::First(py),
            (Some(a), false) => DivY::Interior(py, a),
            (Some(a), true) => DivY::Last(a),
        };
        // SAFETY: the caller checked `is_supported()` on Avx2 or Avx512,
        // both of which run `is_x86_feature_detected!("avx2")` (see
        // `SimdLevel`).
        unsafe { term_row_avx2(px, v, inv_theta, out, &div_y) }
    }

    /// Vectorized [`kernels::update_p_row`]; caller guarantees
    /// `term.len() >= 2` and that the CPU supports AVX2.
    pub(super) fn update_p_row(
        term: &[f32],
        below: Option<&[f32]>,
        step: f32,
        px: &mut [f32],
        py: &mut [f32],
    ) {
        // SAFETY: as in `term_row`.
        unsafe { update_p_row_avx2(term, below, step, px, py) }
    }

    /// The four `DivY` shapes as compile-time selectors, so each vector
    /// loop body is stamped out branch-free (the runtime `match` happens
    /// once per row, not once per vector).
    const DY_ZERO: u8 = 0;
    const DY_FIRST: u8 = 1;
    const DY_INTERIOR: u8 = 2;
    const DY_LAST: u8 = 3;

    #[target_feature(enable = "avx2")]
    unsafe fn term_row_avx2(
        px: &[f32],
        v: &[f32],
        inv_theta: f32,
        out: &mut [f32],
        div_y: &DivY<'_>,
    ) {
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

    #[target_feature(enable = "avx2")]
    unsafe fn update_p_row_avx2(
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
        kernels::update_p_row(
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
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
    fn backend_identity_mapping_is_consistent() {
        for b in [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            assert_eq!(KernelBackend::from_level(b.simd_level()), b);
            assert_eq!(b.lanes(), b.simd_level().lanes());
        }
        assert!(KernelBackend::active().is_supported());
        assert_eq!(KernelBackend::default(), KernelBackend::active());
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
                kernels::compute_term_row(&px, &py, above_opt, &v, inv_theta, last, &mut reference);
                for backend in vector_backends() {
                    let mut out = vec![0.0f32; w];
                    backend.compute_term_row(&px, &py, above_opt, &v, inv_theta, last, &mut out);
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
                kernels::update_p_row(&term, below_opt, step, &mut rpx, &mut rpy);
                for backend in vector_backends() {
                    let (mut bpx, mut bpy) = (px0.clone(), py0.clone());
                    backend.update_p_row(&term, below_opt, step, &mut bpx, &mut bpy);
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
            kernels::compute_term_row(&px, &py, Some(&above), &v, 4.0, true, &mut reference);
            backend.compute_term_row(&px, &py, Some(&above), &v, 4.0, true, &mut out);
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
        kernels::compute_term_row(&px, &py, None, &v, 4.0f64, false, &mut reference);
        for backend in [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            let mut out = vec![0.0f64; w];
            backend.compute_term_row(&px, &py, None, &v, 4.0f64, false, &mut out);
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
            backend.fused_band_iteration(
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
