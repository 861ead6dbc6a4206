//! SIMD row kernels for the pooled imaging passes.
//!
//! The pooled blur and gradient fills dispatch their per-row inner loops on
//! a [`KernelBackend`] (see [`chambolle_par::simd`]): the scalar bodies here
//! are the bit-exact reference, and the vector bodies replay the same
//! per-lane operation order — taps accumulate from zero in the same
//! sequence, no fused multiply-add, no reassociation — so every level
//! produces byte-identical grids. Clamped border columns and remainder
//! lanes always run the scalar body. Like every kernel family, each row
//! kernel runs the widest body the host supports at or below the requested
//! level ([`KernelBackend::clamp_to_host`]).
//!
//! | kernel | scalar | SSE2 | AVX2 | AVX-512 |
//! |--------|--------|------|------|---------|
//! | `blur_h_row` | scalar | SSE2 | AVX2 | AVX2 |
//! | `blur_v_row` | scalar | scalar | AVX2 | AVX2 |
//! | `gradient_row` | scalar | SSE2 | SSE2 | SSE2 |
//! | `sub_slice` | scalar | scalar | scalar | scalar |
//!
//! Bodies that measured no faster than the next narrower one are not kept:
//! 256-bit gradient and residual bodies against SSE2, and SSE2 vertical
//! blur and residual bodies against the compiler's own vectorisation of
//! the scalar loop.
//!
//! Gather-bound passes (bilinear warp/resize, decimation) have no vector
//! body: their per-pixel work is dominated by data-dependent indexing, so
//! they stay scalar on every level and take no `KernelBackend` parameter.

use chambolle_par::KernelBackend;

/// The 5-tap binomial kernel (1 4 6 4 1)/16 shared by the sequential and
/// pooled blurs.
pub(crate) const BINOMIAL5: [f32; 5] = [1.0 / 16.0, 4.0 / 16.0, 6.0 / 16.0, 4.0 / 16.0, 1.0 / 16.0];

/// One output row of the horizontal binomial blur pass with clamp-to-edge
/// borders: `out[x] = Σᵢ k[i]·src[clamp(x + i − 2)]`.
pub(crate) fn blur_h_row(level: KernelBackend, src: &[f32], out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "blur rows must share one width");
    #[cfg(target_arch = "x86_64")]
    if out.len() >= 2 {
        // SAFETY (both arms): `clamp_to_host` only returns levels whose
        // `is_supported()` check (`is_x86_feature_detected!`) passed, and
        // the assert above gives both rows one width.
        match level.clamp_to_host() {
            KernelBackend::Avx2 | KernelBackend::Avx512 => {
                return unsafe { x86::blur_h_row_avx2(src, out) }
            }
            KernelBackend::Sse2 => return unsafe { x86::blur_h_row_sse2(src, out) },
            KernelBackend::Scalar => {}
        }
    }
    let _ = level;
    let w = src.len();
    for (x, cell) in out.iter_mut().enumerate() {
        *cell = blur_h_pixel(src, w, x);
    }
}

/// One pixel of the horizontal blur, clamped taps, fixed accumulation order.
#[inline]
fn blur_h_pixel(src: &[f32], w: usize, x: usize) -> f32 {
    let mut acc = 0.0;
    for (i, k) in BINOMIAL5.iter().enumerate() {
        let xs = (x as i64 + i as i64 - 2).clamp(0, w as i64 - 1) as usize;
        acc += k * src[xs];
    }
    acc
}

/// One output row of the vertical binomial blur pass: `out[x] = Σᵢ
/// k[i]·taps[i][x]`, where `taps` are the five clamped source rows.
pub(crate) fn blur_v_row(level: KernelBackend, taps: [&[f32]; 5], out: &mut [f32]) {
    assert!(
        taps.iter().all(|t| t.len() == out.len()),
        "blur rows must share one width"
    );
    #[cfg(target_arch = "x86_64")]
    match level.clamp_to_host() {
        // SAFETY: `clamp_to_host` only returns levels whose `is_supported()`
        // check (`is_x86_feature_detected!`) passed, and the assert above
        // gives every tap row the output's width.
        KernelBackend::Avx2 | KernelBackend::Avx512 => {
            return unsafe { x86::blur_v_row_avx2(taps, out) }
        }
        KernelBackend::Sse2 | KernelBackend::Scalar => {}
    }
    let _ = level;
    blur_v_suffix(taps, out, 0);
}

/// Scalar vertical-blur cells from column `x0` on (the whole row for the
/// scalar and SSE2 levels, the remainder lanes for the vector levels).
#[inline]
fn blur_v_suffix(taps: [&[f32]; 5], out: &mut [f32], x0: usize) {
    // Tap rows cut to the output's length carry no bounds checks, so the
    // compiler vectorises this loop in every calling context.
    let taps = taps.map(|t| &t[..out.len()]);
    for (x, cell) in out.iter_mut().enumerate().skip(x0) {
        let mut acc = 0.0;
        for (i, k) in BINOMIAL5.iter().enumerate() {
            acc += k * taps[i][x];
        }
        *cell = acc;
    }
}

/// One row of the central-difference gradient with clamp-to-edge borders:
/// `gx[x] = 0.5·(row[x+1] − row[x−1])`, `gy[x] = 0.5·(below[x] − above[x])`,
/// where `above`/`below` are the row-clamped neighbours.
pub(crate) fn gradient_row(
    level: KernelBackend,
    above: &[f32],
    row: &[f32],
    below: &[f32],
    gx: &mut [f32],
    gy: &mut [f32],
) {
    let w = row.len();
    assert!(
        [above.len(), below.len(), gx.len(), gy.len()] == [w; 4],
        "gradient rows must share one width"
    );
    #[cfg(target_arch = "x86_64")]
    if w >= 2 {
        match level.clamp_to_host() {
            KernelBackend::Scalar => {}
            // SAFETY: every vector level includes SSE2, `clamp_to_host`
            // only returns supported levels, and the assert above gives
            // every row one width.
            _ => return unsafe { x86::gradient_row_sse2(above, row, below, gx, gy) },
        }
    }
    let _ = level;
    for x in 0..w {
        gx[x] = 0.5 * (row[(x + 1).min(w - 1)] - row[x.saturating_sub(1)]);
        gy[x] = 0.5 * (below[x] - above[x]);
    }
}

/// Elementwise difference `out[i] = a[i] − b[i]` (the warp residual fill):
/// a plain loop at every level, which the compiler vectorises itself.
pub(crate) fn sub_slice(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    for (cell, (&av, &bv)) in out.iter_mut().zip(a.iter().zip(b)) {
        *cell = av - bv;
    }
}

/// The x86-64 intrinsic bodies. Each replays the scalar loop above with the
/// per-lane operation order preserved exactly: taps accumulate from a zero
/// vector in the same tap sequence, subtractions and multiplies stay
/// unfused, and border columns plus remainder lanes run the scalar body.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::{blur_h_pixel, blur_v_suffix, BINOMIAL5};

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blur_h_row_avx2(src: &[f32], out: &mut [f32]) {
        let w = src.len();
        let mut x = 0usize;
        while x < w.min(2) {
            out[x] = blur_h_pixel(src, w, x);
            x += 1;
        }
        // Lanes x..x+8 are interior when the widest tap x+2+7 stays below w.
        while x + 10 <= w {
            // SAFETY: `x ≥ 2` (head loop) and `x + 9 ≤ w − 1` bound every
            // shifted unaligned load `src[x − 2 .. x + 10]`.
            unsafe {
                let mut acc = _mm256_setzero_ps();
                for (i, k) in BINOMIAL5.iter().enumerate() {
                    let tap = _mm256_loadu_ps(src.as_ptr().add(x + i - 2));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*k), tap));
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(x), acc);
            }
            x += 8;
        }
        while x < w {
            out[x] = blur_h_pixel(src, w, x);
            x += 1;
        }
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn blur_h_row_sse2(src: &[f32], out: &mut [f32]) {
        let w = src.len();
        let mut x = 0usize;
        while x < w.min(2) {
            out[x] = blur_h_pixel(src, w, x);
            x += 1;
        }
        while x + 6 <= w {
            // SAFETY: `x ≥ 2` (head loop) and `x + 5 ≤ w − 1` bound every
            // shifted unaligned load `src[x − 2 .. x + 6]`.
            unsafe {
                let mut acc = _mm_setzero_ps();
                for (i, k) in BINOMIAL5.iter().enumerate() {
                    let tap = _mm_loadu_ps(src.as_ptr().add(x + i - 2));
                    acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(*k), tap));
                }
                _mm_storeu_ps(out.as_mut_ptr().add(x), acc);
            }
            x += 4;
        }
        while x < w {
            out[x] = blur_h_pixel(src, w, x);
            x += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blur_v_row_avx2(taps: [&[f32]; 5], out: &mut [f32]) {
        let w = out.len();
        let mut x = 0usize;
        while x + 8 <= w {
            // SAFETY: `x + 8 <= w` bounds the unaligned loads on every tap
            // row (all five have length `w`).
            unsafe {
                let mut acc = _mm256_setzero_ps();
                for (i, k) in BINOMIAL5.iter().enumerate() {
                    let tap = _mm256_loadu_ps(taps[i].as_ptr().add(x));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*k), tap));
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(x), acc);
            }
            x += 8;
        }
        blur_v_suffix(taps, out, x);
    }

    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn gradient_row_sse2(
        above: &[f32],
        row: &[f32],
        below: &[f32],
        gx: &mut [f32],
        gy: &mut [f32],
    ) {
        let w = row.len();
        let half = _mm_set1_ps(0.5);
        gx[0] = 0.5 * (row[1] - row[0]);
        let mut x = 1usize;
        while x + 4 < w {
            // SAFETY: `x ≥ 1` and `x + 4 ≤ w − 1` bound the shifted
            // unaligned loads `row[x − 1 .. x + 5]`.
            unsafe {
                let d = _mm_sub_ps(
                    _mm_loadu_ps(row.as_ptr().add(x + 1)),
                    _mm_loadu_ps(row.as_ptr().add(x - 1)),
                );
                _mm_storeu_ps(gx.as_mut_ptr().add(x), _mm_mul_ps(half, d));
            }
            x += 4;
        }
        while x < w - 1 {
            gx[x] = 0.5 * (row[x + 1] - row[x - 1]);
            x += 1;
        }
        gx[w - 1] = 0.5 * (row[w - 1] - row[w - 2]);
        let mut x = 0usize;
        while x + 4 <= w {
            // SAFETY: `x + 4 <= w` bounds the loads; `above`/`below` have
            // length `w`.
            unsafe {
                let d = _mm_sub_ps(
                    _mm_loadu_ps(below.as_ptr().add(x)),
                    _mm_loadu_ps(above.as_ptr().add(x)),
                );
                _mm_storeu_ps(gy.as_mut_ptr().add(x), _mm_mul_ps(half, d));
            }
            x += 4;
        }
        while x < w {
            gy[x] = 0.5 * (below[x] - above[x]);
            x += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn vector_levels() -> Vec<KernelBackend> {
        [
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ]
        .into_iter()
        .filter(KernelBackend::is_supported)
        .collect()
    }

    fn random_row(w: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..w).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn blur_rows_bit_identical_across_levels_and_widths() {
        for w in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 16, 31, 64, 129] {
            let src = random_row(w, w as u64);
            let taps_data: Vec<Vec<f32>> = (0..5).map(|i| random_row(w, 100 + i)).collect();
            let taps: [&[f32]; 5] = std::array::from_fn(|i| taps_data[i].as_slice());
            let mut h_ref = vec![0.0f32; w];
            let mut v_ref = vec![0.0f32; w];
            blur_h_row(KernelBackend::Scalar, &src, &mut h_ref);
            blur_v_row(KernelBackend::Scalar, taps, &mut v_ref);
            for level in vector_levels() {
                let mut h = vec![0.0f32; w];
                let mut v = vec![0.0f32; w];
                blur_h_row(level, &src, &mut h);
                blur_v_row(level, taps, &mut v);
                assert_eq!(bits(&h), bits(&h_ref), "{level:?} blur_h w={w}");
                assert_eq!(bits(&v), bits(&v_ref), "{level:?} blur_v w={w}");
            }
        }
    }

    #[test]
    fn gradient_rows_bit_identical_across_levels_and_widths() {
        for w in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 16, 31, 64, 129] {
            let above = random_row(w, 1 + w as u64);
            let row = random_row(w, 2 + w as u64);
            let below = random_row(w, 3 + w as u64);
            let (mut gx_ref, mut gy_ref) = (vec![0.0f32; w], vec![0.0f32; w]);
            gradient_row(
                KernelBackend::Scalar,
                &above,
                &row,
                &below,
                &mut gx_ref,
                &mut gy_ref,
            );
            for level in vector_levels() {
                let (mut gx, mut gy) = (vec![0.0f32; w], vec![0.0f32; w]);
                gradient_row(level, &above, &row, &below, &mut gx, &mut gy);
                assert_eq!(bits(&gx), bits(&gx_ref), "{level:?} gx w={w}");
                assert_eq!(bits(&gy), bits(&gy_ref), "{level:?} gy w={w}");
            }
        }
    }

    #[test]
    fn sub_slice_bit_identical_across_levels() {
        // The residual fill runs one plain loop at every level; it must
        // match the elementwise difference bit for bit.
        for n in [1usize, 3, 4, 7, 8, 9, 33, 100] {
            let a = random_row(n, 5 + n as u64);
            let b = random_row(n, 6 + n as u64);
            let reference: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
            let mut out = vec![0.0f32; n];
            sub_slice(&a, &b, &mut out);
            assert_eq!(bits(&out), bits(&reference), "n={n}");
        }
    }

    #[test]
    fn negative_zero_survives_every_level() {
        // 0.5·(a − b) with a == b yields +0.0; with b > a == 0 the sign must
        // match the scalar subtraction on every level.
        let row = vec![0.0f32, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for level in vector_levels() {
            let (mut gx, mut gy) = (vec![1.0f32; 10], vec![1.0f32; 10]);
            gradient_row(level, &row, &row, &row, &mut gx, &mut gy);
            let (mut gx_ref, mut gy_ref) = (vec![1.0f32; 10], vec![1.0f32; 10]);
            gradient_row(
                KernelBackend::Scalar,
                &row,
                &row,
                &row,
                &mut gx_ref,
                &mut gy_ref,
            );
            assert_eq!(bits(&gx), bits(&gx_ref), "{level:?}");
            assert_eq!(bits(&gy), bits(&gy_ref), "{level:?}");
        }
    }
}
