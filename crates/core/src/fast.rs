//! Fast-tier row kernels: the tolerance-validated speed path.
//!
//! The Exact tier (see [`crate::kernels`]) buys bit-identical results
//! across backends, thread counts and tile schedules by forbidding every
//! transform that changes rounding: no FMA contraction, no reassociation,
//! no approximate reciprocals. That contract is also its speed ceiling —
//! the dual update spends most of its time in one `sqrt` and two IEEE
//! divides per cell that nothing is allowed to touch.
//!
//! The kernels here implement [`crate::ctx::NumericsPolicy::Fast`], which
//! replaces the byte-equality contract with the validation model of the
//! paper's own quantized 13/9/9-bit datapath: an explicit accuracy bound
//! against the exact reference (energy and duality-gap tolerance, pinned by
//! the workspace tolerance harness) instead of bit comparison. Freed from
//! replaying scalar rounding, the dual update:
//!
//! - **shares one reciprocal** across its two normalizing divides
//!   (`inv = 1/(1 + τ/θ·|∇|)`, then two multiplies);
//! - **contracts with FMA** everywhere a multiply feeds an add;
//! - replaces the division with a **hardware reciprocal estimate refined by
//!   one Newton–Raphson step** (`rcp`, ~22–28 accurate bits), while the
//!   square root stays the hardware instruction: it executes on the divider
//!   port the rest of the kernel leaves idle, so exactness there is free;
//! - runs on true **16-lane AVX-512F** vectors (the Exact tier delegates
//!   AVX-512 to its AVX2 kernels rather than auditing bit-exactness on a
//!   third vector width).
//!
//! The term `div p − v/θ` has no divide or square root to trade, so the
//! tier keeps it Exact: `fused_term_update_row` computes the next row's
//! term in the Exact operation order while it updates the current row
//! against it, one traversal instead of two, and every term lane equals
//! [`crate::kernels::compute_term_row`] bit for bit. That fused step is the
//! tier's only vector body. A band's first term row is the Exact term row
//! ([`crate::kernels::compute_term_row_on`]), and the frame's last row,
//! which has no next row to fuse with, runs the portable scalar update body
//! on every level — as do SSE2 (which lacks FMA), AVX2 hosts without FMA
//! and non-x86 hosts for every row. Every solve path — sequential, banded
//! and tiled — runs the one band iteration of [`crate::kernels`].
//!
//! Within one backend the Fast tier is deterministic, and the banded
//! parallel solver keeps it **thread-count invariant**: its blocks run the
//! same full-width row kernels over each band and its overlapping halo
//! rows, and a band's priming term row and the fused step compute the same
//! term, so every own row matches the sequential solve bit for bit. It is
//! *not* bit-comparable across backends or tile shapes — that is exactly
//! the guarantee the tier trades away. The fast tier applies to the `f32`
//! production kernels; `f64` solves always run exact.

use chambolle_par::KernelBackend;

use crate::ctx::NumericsPolicy;
use crate::kernels::{self, BandHalo};

/// The portable fast update body: reassociated shared-reciprocal form, no
/// `mul_add` (which lowers to a libm call when FMA is not a compile-time
/// target feature).
pub(crate) fn update_p_row_scalar(
    term_row: &[f32],
    term_below: Option<&[f32]>,
    step_ratio: f32,
    px_row: &mut [f32],
    py_row: &mut [f32],
) {
    let w = term_row.len();
    debug_assert_eq!(px_row.len(), w);
    debug_assert_eq!(py_row.len(), w);
    if w == 0 {
        return;
    }
    let cell = |x: usize, t1: f32, t2: f32, px_row: &mut [f32], py_row: &mut [f32]| {
        let grad = (t1 * t1 + t2 * t2).sqrt();
        let inv = 1.0 / (1.0 + step_ratio * grad);
        px_row[x] = (px_row[x] + step_ratio * t1) * inv;
        py_row[x] = (py_row[x] + step_ratio * t2) * inv;
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
            cell(w - 1, 0.0, t2, px_row, py_row);
        }
        None => {
            for x in 0..w - 1 {
                let t1 = term_row[x + 1] - term_row[x];
                cell(x, t1, 0.0, px_row, py_row);
            }
            cell(w - 1, 0.0, 0.0, px_row, py_row);
        }
    }
}

/// Fused term+update step: computes the next row's term into `next` while
/// updating the current row against it, collapsing the two per-row passes
/// into one traversal. `py_row` doubles as the next row's upper halo — it
/// is read strictly before the update overwrites it, which is exactly the
/// single-pass machine's old-`p` discipline.
///
/// The Fast fused-step family's dispatcher. The AVX-512 and AVX2+FMA
/// bodies compute the term in the Exact operation order and the update
/// with FMA and a refined reciprocal estimate; every other level runs the
/// Exact term row and then [`update_p_row_scalar`]. On every level the
/// `next` row equals [`kernels::compute_term_row`] bit for bit, so a band's
/// priming term row and its fused rows agree by construction.
#[allow(clippy::too_many_arguments)] // the flat-slice shape, as elsewhere
pub(crate) fn fused_term_update_row(
    backend: KernelBackend,
    px_next: &[f32],
    py_next: &[f32],
    v_next: &[f32],
    inv_theta: f32,
    next_is_last: bool,
    cur: &[f32],
    next: &mut [f32],
    step_ratio: f32,
    px_row: &mut [f32],
    py_row: &mut [f32],
) {
    let w = cur.len();
    assert!(
        [px_next.len(), py_next.len(), v_next.len(), next.len()] == [w; 4]
            && px_row.len() == w
            && py_row.len() == w,
        "fused row slices must share one width"
    );
    let level = if w >= 2 {
        backend.clamp_to_host()
    } else {
        KernelBackend::Scalar
    };
    // SAFETY (both vector arms): `clamp_to_host` only returns levels whose
    // features were detected at run time (AVX-512 includes AVX2 and FMA),
    // the FMA guard covers the AVX2 body, the assert above gives every row
    // the width `w`, and vector levels are only picked for `w >= 2`.
    match level {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe {
            x86::fused_row_avx512(
                px_next,
                py_next,
                v_next,
                inv_theta,
                next_is_last,
                cur,
                next,
                step_ratio,
                px_row,
                py_row,
            )
        },
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 if is_x86_feature_detected!("fma") => unsafe {
            x86::fused_row_avx2(
                px_next,
                py_next,
                v_next,
                inv_theta,
                next_is_last,
                cur,
                next,
                step_ratio,
                px_row,
                py_row,
            )
        },
        _ => {
            kernels::compute_term_row_on(
                backend,
                px_next,
                py_next,
                Some(py_row),
                v_next,
                inv_theta,
                next_is_last,
                next,
            );
            update_p_row_scalar(cur, Some(next), step_ratio, px_row, py_row);
        }
    }
}

/// The one band iteration of [`crate::kernels`] at the Fast tier: the Fast
/// twin of [`kernels::fused_band_iteration_on`], deterministic per backend.
/// An entry point of its own because the `benchmark/` kernel probe times
/// it.
#[allow(clippy::too_many_arguments)] // the flat-slice shape is the point
pub fn fused_band_iteration_fast(
    backend: KernelBackend,
    px_band: &mut [f32],
    py_band: &mut [f32],
    v_band: &[f32],
    w: usize,
    h: usize,
    r0: usize,
    halo: BandHalo<'_, f32>,
    inv_theta: f32,
    step_ratio: f32,
    term_a: &mut [f32],
    term_b: &mut [f32],
) {
    kernels::band_iteration(
        backend,
        NumericsPolicy::Fast,
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

/// The x86-64 fused row steps (AVX-512F and AVX2+FMA). Each requires its
/// target features at run time, equal row lengths and rows of at least two
/// cells; [`fused_term_update_row`] checks the features and the row length.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `−a` as an IEEE sign flip, so `−0.0` comes out as the scalar `-x`
    /// gives it (`0 − a` would turn it into `+0.0`). AVX-512F has no float
    /// `xor`, so the flip runs on the integer view of the lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn neg512(a: __m512) -> __m512 {
        _mm512_castsi512_ps(_mm512_xor_si512(
            _mm512_castps_si512(a),
            _mm512_set1_epi32(i32::MIN),
        ))
    }

    /// One fused fast-tier row step on ZMM: computes the next row's term
    /// while updating the current row against it. The term lanes replay
    /// [`crate::kernels::compute_term_row`]'s operations — `(dx + dy) −
    /// v·(1/θ)` as an add, a multiply and a subtract, negation as a sign
    /// flip, the scalar expression for column 0 and `dx = −px[w − 2]` for
    /// the last column — so they round exactly as the Exact tier does. The
    /// update uses FMA and one Newton–Raphson step on the `rcp14` estimate
    /// for the reciprocal both components share. The two passes' loads,
    /// stores and loop machinery collapse into one traversal; the term
    /// vector just computed feeds the update's `t2` through a one-lane
    /// `valignd` carry instead of a memory round-trip.
    ///
    /// `py_row` is both the update target and the next row's upper halo;
    /// every halo read happens before the update's store of the same
    /// lanes, within one loop iteration, so the old-`p` discipline holds.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `cur.len() >= 2`, and every other row
    /// slice must be as long as `cur`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fused_row_avx512(
        px_next: &[f32],
        py_next: &[f32],
        v_next: &[f32],
        inv_theta: f32,
        next_is_last: bool,
        cur: &[f32],
        next: &mut [f32],
        step: f32,
        px_row: &mut [f32],
        py_row: &mut [f32],
    ) {
        let w = cur.len();
        let it = _mm512_set1_ps(inv_theta);
        let sv = _mm512_set1_ps(step);
        let one = _mm512_set1_ps(1.0);
        let two = _mm512_set1_ps(2.0);
        // Column 0 of the next term row: the scalar reference's expression.
        let dy0 = if next_is_last {
            -py_row[0]
        } else {
            py_next[0] - py_row[0]
        };
        next[0] = (px_next[0] + dy0) - v_next[0] * inv_theta;
        // Lane 15 of `carry` holds the term value of the cell just left of
        // the current update group; `valignd` shifts it in as lane 0.
        let mut carry = _mm512_set1_ps(next[0]);
        let mut x = 0usize;
        // Full groups: term cells x+1..=x+16 stay left of the last column
        // (x + 16 <= w - 2) and the update's `t1` read of cur[x + 16] stays
        // in bounds.
        while x + 17 < w {
            // SAFETY: the loop bound keeps every unaligned load inside the
            // row; `py_row`'s halo lanes are read before they are stored.
            unsafe {
                let dx = _mm512_sub_ps(
                    _mm512_loadu_ps(px_next.as_ptr().add(x + 1)),
                    _mm512_loadu_ps(px_next.as_ptr().add(x)),
                );
                let above = _mm512_loadu_ps(py_row.as_ptr().add(x + 1));
                let dy = if next_is_last {
                    neg512(above)
                } else {
                    _mm512_sub_ps(_mm512_loadu_ps(py_next.as_ptr().add(x + 1)), above)
                };
                let vi = _mm512_mul_ps(_mm512_loadu_ps(v_next.as_ptr().add(x + 1)), it);
                let term = _mm512_sub_ps(_mm512_add_ps(dx, dy), vi);
                _mm512_storeu_ps(next.as_mut_ptr().add(x + 1), term);

                let t = _mm512_loadu_ps(cur.as_ptr().add(x));
                let t1 = _mm512_sub_ps(_mm512_loadu_ps(cur.as_ptr().add(x + 1)), t);
                let below = _mm512_castsi512_ps(_mm512_alignr_epi32::<15>(
                    _mm512_castps_si512(term),
                    _mm512_castps_si512(carry),
                ));
                let t2 = _mm512_sub_ps(below, t);
                let mag = _mm512_fmadd_ps(t1, t1, _mm512_mul_ps(t2, t2));
                let grad = _mm512_sqrt_ps(mag);
                let denom = _mm512_fmadd_ps(sv, grad, one);
                // inv = rcp14(denom) refined by one Newton–Raphson step,
                // i·(2 − d·i), then shared by both component updates.
                let i0 = _mm512_rcp14_ps(denom);
                let inv = _mm512_mul_ps(i0, _mm512_fnmadd_ps(denom, i0, two));
                let npx = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t1, _mm512_loadu_ps(px_row.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t2, _mm512_loadu_ps(py_row.as_ptr().add(x))),
                    inv,
                );
                _mm512_storeu_ps(px_row.as_mut_ptr().add(x), npx);
                _mm512_storeu_ps(py_row.as_mut_ptr().add(x), npy);
                carry = term;
            }
            x += 16;
        }
        // Masked tail: the loop exits with 2..=17 cells left, so up to two
        // masked steps. `ct` counts term cells (x+1..w), `cdx` the ones
        // left of the last column, whose lane takes `dx = −px[w − 2]` (its
        // backward-difference boundary rule) instead, and `ct` doubles as
        // the update's has-right-neighbour mask.
        while x < w {
            let rem = w - x;
            let cu = rem.min(16);
            let ct = (rem - 1).min(16);
            let cdx = rem.saturating_sub(2).min(16);
            let m_u = (0xFFFFu32 >> (16 - cu)) as __mmask16;
            let m_t = (0xFFFFu32 >> (16 - ct)) as __mmask16;
            let m_dx = (0xFFFFu32 >> (16 - cdx)) as __mmask16;
            // SAFETY: every masked load's highest active lane indexes at
            // most `w − 1`; masked lanes cannot fault. Masked-off lanes
            // compute on zeros (sqrt(0) = 0, denom = 1, so no NaNs) and
            // are never stored.
            unsafe {
                let left = _mm512_maskz_loadu_ps(m_t, px_next.as_ptr().add(x));
                let dx = _mm512_mask_sub_ps(
                    neg512(left),
                    m_dx,
                    _mm512_maskz_loadu_ps(m_dx, px_next.as_ptr().add(x + 1)),
                    left,
                );
                let above = _mm512_maskz_loadu_ps(m_t, py_row.as_ptr().add(x + 1));
                let dy = if next_is_last {
                    neg512(above)
                } else {
                    _mm512_sub_ps(
                        _mm512_maskz_loadu_ps(m_t, py_next.as_ptr().add(x + 1)),
                        above,
                    )
                };
                let vi = _mm512_mul_ps(_mm512_maskz_loadu_ps(m_t, v_next.as_ptr().add(x + 1)), it);
                let term = _mm512_sub_ps(_mm512_add_ps(dx, dy), vi);
                _mm512_mask_storeu_ps(next.as_mut_ptr().add(x + 1), m_t, term);

                let t = _mm512_maskz_loadu_ps(m_u, cur.as_ptr().add(x));
                let tn = _mm512_maskz_loadu_ps(m_t, cur.as_ptr().add(x + 1));
                let t1 = _mm512_maskz_sub_ps(m_t, tn, t);
                let below = _mm512_castsi512_ps(_mm512_alignr_epi32::<15>(
                    _mm512_castps_si512(term),
                    _mm512_castps_si512(carry),
                ));
                let t2 = _mm512_sub_ps(below, t);
                let mag = _mm512_fmadd_ps(t1, t1, _mm512_mul_ps(t2, t2));
                let grad = _mm512_sqrt_ps(mag);
                let denom = _mm512_fmadd_ps(sv, grad, one);
                let i0 = _mm512_rcp14_ps(denom);
                let inv = _mm512_mul_ps(i0, _mm512_fnmadd_ps(denom, i0, two));
                let npx = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t1, _mm512_maskz_loadu_ps(m_u, px_row.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm512_mul_ps(
                    _mm512_fmadd_ps(sv, t2, _mm512_maskz_loadu_ps(m_u, py_row.as_ptr().add(x))),
                    inv,
                );
                _mm512_mask_storeu_ps(px_row.as_mut_ptr().add(x), m_u, npx);
                _mm512_mask_storeu_ps(py_row.as_mut_ptr().add(x), m_u, npy);
                carry = term;
            }
            x += 16;
        }
    }

    /// One fused fast-tier row step on YMM — [`fused_row_avx512`]'s 8-lane
    /// twin, with the one-lane term carry built from `vperm2f128` +
    /// `palignr` (AVX2 has no full-width `valignd`) and the update's
    /// reciprocal refined from the `rcp` estimate. The term lanes replay
    /// [`crate::kernels::compute_term_row`] exactly as the ZMM body does,
    /// with negation as an `xor` with `−0.0`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, `cur.len() >= 2`, and every other
    /// row slice must be as long as `cur`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fused_row_avx2(
        px_next: &[f32],
        py_next: &[f32],
        v_next: &[f32],
        inv_theta: f32,
        next_is_last: bool,
        cur: &[f32],
        next: &mut [f32],
        step: f32,
        px_row: &mut [f32],
        py_row: &mut [f32],
    ) {
        let w = cur.len();
        let it = _mm256_set1_ps(inv_theta);
        let sv = _mm256_set1_ps(step);
        let one = _mm256_set1_ps(1.0);
        let two = _mm256_set1_ps(2.0);
        let sign = _mm256_set1_ps(-0.0);
        // Column 0 of the next term row: the scalar reference's expression.
        let dy0 = if next_is_last {
            -py_row[0]
        } else {
            py_next[0] - py_row[0]
        };
        next[0] = (px_next[0] + dy0) - v_next[0] * inv_theta;
        // Lane 7 of `carry` holds the term value of the cell just left of
        // the current update group.
        let mut carry = _mm256_set1_ps(next[0]);
        let mut x = 0usize;
        // Full groups: term cells x+1..=x+8 stay left of the last column
        // (x + 8 <= w - 2) and the update's `t1` read of cur[x + 8] stays
        // in bounds.
        while x + 9 < w {
            // SAFETY: the loop bound keeps every unaligned load inside the
            // row; `py_row`'s halo lanes are read before they are stored.
            unsafe {
                let dx = _mm256_sub_ps(
                    _mm256_loadu_ps(px_next.as_ptr().add(x + 1)),
                    _mm256_loadu_ps(px_next.as_ptr().add(x)),
                );
                let above = _mm256_loadu_ps(py_row.as_ptr().add(x + 1));
                let dy = if next_is_last {
                    _mm256_xor_ps(sign, above)
                } else {
                    _mm256_sub_ps(_mm256_loadu_ps(py_next.as_ptr().add(x + 1)), above)
                };
                let vi = _mm256_mul_ps(_mm256_loadu_ps(v_next.as_ptr().add(x + 1)), it);
                let term = _mm256_sub_ps(_mm256_add_ps(dx, dy), vi);
                _mm256_storeu_ps(next.as_mut_ptr().add(x + 1), term);

                let t = _mm256_loadu_ps(cur.as_ptr().add(x));
                let t1 = _mm256_sub_ps(_mm256_loadu_ps(cur.as_ptr().add(x + 1)), t);
                // below = [carry[7], term[0..7)]: swap in carry's high half,
                // then a per-128-lane byte-align picks one float from it.
                let inter = _mm256_permute2f128_ps(term, carry, 0x03);
                let below = _mm256_castsi256_ps(_mm256_alignr_epi8::<12>(
                    _mm256_castps_si256(term),
                    _mm256_castps_si256(inter),
                ));
                let t2 = _mm256_sub_ps(below, t);
                let mag = _mm256_fmadd_ps(t1, t1, _mm256_mul_ps(t2, t2));
                let grad = _mm256_sqrt_ps(mag);
                let denom = _mm256_fmadd_ps(sv, grad, one);
                let i0 = _mm256_rcp_ps(denom);
                let inv = _mm256_mul_ps(i0, _mm256_fnmadd_ps(denom, i0, two));
                let npx = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t1, _mm256_loadu_ps(px_row.as_ptr().add(x))),
                    inv,
                );
                let npy = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t2, _mm256_loadu_ps(py_row.as_ptr().add(x))),
                    inv,
                );
                _mm256_storeu_ps(px_row.as_mut_ptr().add(x), npx);
                _mm256_storeu_ps(py_row.as_mut_ptr().add(x), npy);
                carry = term;
            }
            x += 8;
        }
        // Masked tail: the loop exits with 2..=9 cells left, so up to two
        // masked steps. `ct` counts term cells (x+1..w), `cdx` the ones
        // left of the last column, whose lane takes `dx = −px[w − 2]` (its
        // backward-difference boundary rule) instead, and `ct` doubles as
        // the update's has-right-neighbour mask.
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        while x < w {
            let rem = w - x;
            let cu = rem.min(8) as i32;
            let ct = (rem - 1).min(8) as i32;
            let cdx = rem.saturating_sub(2).min(8) as i32;
            let m_u = _mm256_cmpgt_epi32(_mm256_set1_epi32(cu), idx);
            let m_t = _mm256_cmpgt_epi32(_mm256_set1_epi32(ct), idx);
            let m_dx = _mm256_cmpgt_epi32(_mm256_set1_epi32(cdx), idx);
            // SAFETY: every masked load's highest active lane indexes at
            // most `w − 1`; `vmaskmovps` suppresses faults on masked lanes.
            // Masked-off lanes compute on zeros or stale term lanes (all
            // finite) and are never stored.
            unsafe {
                let left = _mm256_maskload_ps(px_next.as_ptr().add(x), m_t);
                let dx = _mm256_blendv_ps(
                    _mm256_xor_ps(sign, left),
                    _mm256_sub_ps(_mm256_maskload_ps(px_next.as_ptr().add(x + 1), m_dx), left),
                    _mm256_castsi256_ps(m_dx),
                );
                let above = _mm256_maskload_ps(py_row.as_ptr().add(x + 1), m_t);
                let dy = if next_is_last {
                    _mm256_xor_ps(sign, above)
                } else {
                    _mm256_sub_ps(_mm256_maskload_ps(py_next.as_ptr().add(x + 1), m_t), above)
                };
                let vi = _mm256_mul_ps(_mm256_maskload_ps(v_next.as_ptr().add(x + 1), m_t), it);
                let term = _mm256_sub_ps(_mm256_add_ps(dx, dy), vi);
                _mm256_maskstore_ps(next.as_mut_ptr().add(x + 1), m_t, term);

                let t = _mm256_maskload_ps(cur.as_ptr().add(x), m_u);
                let tn = _mm256_maskload_ps(cur.as_ptr().add(x + 1), m_t);
                let t1 = _mm256_and_ps(_mm256_sub_ps(tn, t), _mm256_castsi256_ps(m_t));
                let inter = _mm256_permute2f128_ps(term, carry, 0x03);
                let below = _mm256_castsi256_ps(_mm256_alignr_epi8::<12>(
                    _mm256_castps_si256(term),
                    _mm256_castps_si256(inter),
                ));
                let t2 = _mm256_sub_ps(below, t);
                let mag = _mm256_fmadd_ps(t1, t1, _mm256_mul_ps(t2, t2));
                let grad = _mm256_sqrt_ps(mag);
                let denom = _mm256_fmadd_ps(sv, grad, one);
                let i0 = _mm256_rcp_ps(denom);
                let inv = _mm256_mul_ps(i0, _mm256_fnmadd_ps(denom, i0, two));
                let npx = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t1, _mm256_maskload_ps(px_row.as_ptr().add(x), m_u)),
                    inv,
                );
                let npy = _mm256_mul_ps(
                    _mm256_fmadd_ps(sv, t2, _mm256_maskload_ps(py_row.as_ptr().add(x), m_u)),
                    inv,
                );
                _mm256_maskstore_ps(px_row.as_mut_ptr().add(x), m_u, npx);
                _mm256_maskstore_ps(py_row.as_mut_ptr().add(x), m_u, npy);
                carry = term;
            }
            x += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::BelowHalo;
    use crate::solver::DualField;
    use chambolle_imaging::Grid;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn backends() -> Vec<KernelBackend> {
        let mut all = vec![KernelBackend::Scalar];
        for b in [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ] {
            if b.is_supported() {
                all.push(b);
            }
        }
        all
    }

    fn random_state(w: usize, h: usize, seed: u64) -> (DualField<f32>, Grid<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = DualField::zeros(w, h);
        p.px = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        p.py = Grid::from_fn(w, h, |_, _| rng.gen_range(-0.7f32..0.7));
        let v = Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0));
        (p, v)
    }

    fn fast_full_iteration(
        backend: KernelBackend,
        p: &mut DualField<f32>,
        v: &Grid<f32>,
        inv_theta: f32,
        step: f32,
    ) {
        let (w, h) = v.dims();
        let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
        fused_band_iteration_fast(
            backend,
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
    fn fast_rows_stay_within_tolerance_of_exact() {
        // Both Fast update paths against the Exact update of the same term
        // rows: the last frame row's (`update_p_row_on`, no term below) and
        // the fused step's update half, whose term below is the row it
        // writes itself.
        for backend in backends() {
            for w in [1usize, 2, 3, 7, 8, 9, 16, 17, 31, 64, 129] {
                let mut rng = StdRng::seed_from_u64(3 + w as u64);
                let mut row =
                    || -> Vec<f32> { (0..w).map(|_| rng.gen_range(-0.9f32..0.9)).collect() };
                let (term, px0, py0) = (row(), row(), row());
                let (px_next, py_next, v_next) = (row(), row(), row());
                let close = |epx: &[f32], epy: &[f32], fpx: &[f32], fpy: &[f32], what: &str| {
                    for i in 0..w {
                        assert!(
                            (epx[i] - fpx[i]).abs() < 1e-5 && (epy[i] - fpy[i]).abs() < 1e-5,
                            "{backend:?} {what} w={w} i={i}: exact ({}, {}) vs fast ({}, {})",
                            epx[i],
                            epy[i],
                            fpx[i],
                            fpy[i],
                        );
                    }
                };

                let (mut epx, mut epy) = (px0.clone(), py0.clone());
                kernels::update_p_row(&term, None, 0.248, &mut epx, &mut epy);
                let (mut fpx, mut fpy) = (px0.clone(), py0.clone());
                kernels::update_p_row_on(
                    backend,
                    NumericsPolicy::Fast,
                    &term,
                    None,
                    0.248,
                    &mut fpx,
                    &mut fpy,
                );
                close(&epx, &epy, &fpx, &fpy, "last row");

                let (mut fpx, mut fpy) = (px0.clone(), py0.clone());
                let mut below = vec![0.0f32; w];
                fused_term_update_row(
                    backend, &px_next, &py_next, &v_next, 4.0, false, &term, &mut below, 0.248,
                    &mut fpx, &mut fpy,
                );
                let (mut epx, mut epy) = (px0.clone(), py0.clone());
                kernels::update_p_row(&term, Some(&below), 0.248, &mut epx, &mut epy);
                close(&epx, &epy, &fpx, &fpy, "fused step");
            }
        }
    }

    #[test]
    fn fused_step_term_row_is_the_exact_term_row() {
        // The fused step's `next` row is the Exact term row bit for bit, so
        // a band's priming row and its fused rows agree. 1/θ = 1/0.3 is
        // inexact, so `v·(1/θ)` contracted into the subtract would round
        // differently; the signed zeros pin negation as a sign flip,
        // including the last column's `dx = −px[w − 2]`.
        let inv_theta = 1.0f32 / 0.3;
        let bits = |s: &[f32]| s.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for backend in backends() {
            for w in 2usize..=40 {
                for zeros_only in [false, true] {
                    let mut rng = StdRng::seed_from_u64(500 + w as u64);
                    let mut row = || -> Vec<f32> {
                        (0..w)
                            .map(|_| match rng.gen_range(0u32..6) {
                                0 | 1 => 0.0,
                                2 | 3 => -0.0,
                                _ if zeros_only => 0.0,
                                _ => rng.gen_range(-0.9f32..0.9),
                            })
                            .collect()
                    };
                    let (px_next, py_next, v_next) = (row(), row(), row());
                    let (cur, px_row, py_row) = (row(), row(), row());
                    for next_is_last in [false, true] {
                        let mut exact = vec![0.0f32; w];
                        kernels::compute_term_row(
                            &px_next,
                            &py_next,
                            Some(&py_row),
                            &v_next,
                            inv_theta,
                            next_is_last,
                            &mut exact,
                        );
                        let (mut px, mut py) = (px_row.clone(), py_row.clone());
                        let mut next = vec![0.0f32; w];
                        fused_term_update_row(
                            backend,
                            &px_next,
                            &py_next,
                            &v_next,
                            inv_theta,
                            next_is_last,
                            &cur,
                            &mut next,
                            0.25,
                            &mut px,
                            &mut py,
                        );
                        assert_eq!(
                            bits(&next),
                            bits(&exact),
                            "{backend:?} w={w} zeros_only={zeros_only} last={next_is_last}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_band_with_halos_matches_fast_full_frame() {
        // Fast-tier thread-count invariance: stitched bands with
        // snapshotted halos must bit-match the full-frame fast pass (bands
        // run the same full-width row kernels, so per-cell op order is
        // unchanged).
        let (w, h) = (33usize, 23usize);
        for backend in backends() {
            let (p, v) = random_state(w, h, 321);
            let mut p_ref = p.clone();
            fast_full_iteration(backend, &mut p_ref, &v, 4.0, 0.125);

            for bands in [2usize, 3, 5] {
                let mut pb = p.clone();
                let bounds: Vec<usize> = (0..=bands).map(|b| b * h / bands).collect();
                let snap_py_above: Vec<Vec<f32>> = (1..bands)
                    .map(|b| pb.py.row(bounds[b] - 1).to_vec())
                    .collect();
                let snap_px_below: Vec<Vec<f32>> =
                    (1..bands).map(|b| pb.px.row(bounds[b]).to_vec()).collect();
                let snap_py_below: Vec<Vec<f32>> =
                    (1..bands).map(|b| pb.py.row(bounds[b]).to_vec()).collect();
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
                    let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
                    fused_band_iteration_fast(
                        backend,
                        &mut pb.px.as_mut_slice()[r0 * w..r1 * w],
                        &mut pb.py.as_mut_slice()[r0 * w..r1 * w],
                        &v.as_slice()[r0 * w..r1 * w],
                        w,
                        h,
                        r0,
                        halo,
                        4.0,
                        0.125,
                        &mut ta,
                        &mut tb,
                    );
                }
                assert_eq!(
                    pb.px.as_slice(),
                    p_ref.px.as_slice(),
                    "{backend:?} {bands} bands px"
                );
                assert_eq!(
                    pb.py.as_slice(),
                    p_ref.py.as_slice(),
                    "{backend:?} {bands} bands py"
                );
            }
        }
    }

    #[test]
    fn fast_projection_keeps_the_dual_ball_invariant() {
        // |p| ≤ 1 (+ the tier's tolerance) must survive approximate
        // reciprocals: the NR-refined inv slightly perturbs the projection
        // but cannot let the dual field escape.
        for backend in backends() {
            let (mut p, v) = random_state(31, 17, 77);
            for _ in 0..30 {
                fast_full_iteration(backend, &mut p, &v, 4.0, 0.25);
            }
            assert!(
                p.max_norm() <= 1.0 + 1e-4,
                "{backend:?}: |p| = {} escaped the unit ball",
                p.max_norm()
            );
        }
    }
}
