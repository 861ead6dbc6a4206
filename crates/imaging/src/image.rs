//! Scalar image operations: sampling, gradients, statistics.

use chambolle_par::{KernelBackend, ThreadPool, UnsafeSharedSlice};

use crate::grid::{par_band_rows, Grid};
use crate::simd;

/// A grayscale image with `f32` intensities, nominally in `[0, 1]`.
pub type Image = Grid<f32>;

/// Samples `img` at integer coordinates with clamp-to-edge boundary handling.
///
/// Negative coordinates and coordinates past the last row/column are clamped,
/// which matches the Neumann boundary conditions of the TV operators.
///
/// # Examples
///
/// ```
/// use chambolle_imaging::{Grid, sample_clamped};
/// let img = Grid::from_fn(2, 2, |x, y| (x + 2 * y) as f32);
/// assert_eq!(sample_clamped(&img, -3, 0), 0.0);
/// assert_eq!(sample_clamped(&img, 5, 5), 3.0);
/// ```
#[inline]
pub fn sample_clamped(img: &Image, x: i64, y: i64) -> f32 {
    let xc = x.clamp(0, img.width() as i64 - 1) as usize;
    let yc = y.clamp(0, img.height() as i64 - 1) as usize;
    img[(xc, yc)]
}

/// Bilinearly interpolates `img` at the continuous position `(x, y)` with
/// clamp-to-edge boundary handling.
///
/// # Examples
///
/// ```
/// use chambolle_imaging::{Grid, sample_bilinear};
/// let img = Grid::from_fn(2, 1, |x, _| x as f32);
/// assert!((sample_bilinear(&img, 0.25, 0.0) - 0.25).abs() < 1e-6);
/// ```
pub fn sample_bilinear(img: &Image, x: f32, y: f32) -> f32 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let x0 = x0 as i64;
    let y0 = y0 as i64;
    let v00 = sample_clamped(img, x0, y0);
    let v10 = sample_clamped(img, x0 + 1, y0);
    let v01 = sample_clamped(img, x0, y0 + 1);
    let v11 = sample_clamped(img, x0 + 1, y0 + 1);
    let top = v00 + fx * (v10 - v00);
    let bot = v01 + fx * (v11 - v01);
    top + fy * (bot - top)
}

/// Central-difference spatial gradient of an image, clamped at the borders.
///
/// Returns `(gx, gy)` where `gx[(x,y)] = (img[x+1] - img[x-1]) / 2`.
/// This is the gradient used to linearize the data term in TV-L1 (it is
/// distinct from the forward/backward differences of the TV operators).
pub fn gradient_central(img: &Image) -> (Image, Image) {
    let (w, h) = img.dims();
    let mut gx = Grid::new(w, h, 0.0);
    let mut gy = Grid::new(w, h, 0.0);
    for y in 0..h {
        for x in 0..w {
            let xi = x as i64;
            let yi = y as i64;
            gx[(x, y)] = 0.5 * (sample_clamped(img, xi + 1, yi) - sample_clamped(img, xi - 1, yi));
            gy[(x, y)] = 0.5 * (sample_clamped(img, xi, yi + 1) - sample_clamped(img, xi, yi - 1));
        }
    }
    (gx, gy)
}

/// [`gradient_central`] with the per-row work distributed over a worker
/// pool and each row's central differences dispatched on a [`KernelBackend`].
///
/// Each cell depends only on the immutable input, the row partition is a
/// pure function of the image height, and the vector rows replay the scalar
/// `0.5 · (next − prev)` per lane, so the result is bit-identical to the
/// sequential version for every thread count and SIMD level.
pub fn gradient_central_with_pool(
    img: &Image,
    pool: &ThreadPool,
    level: KernelBackend,
) -> (Image, Image) {
    let (w, h) = img.dims();
    let mut gx = Grid::new(w, h, 0.0);
    let mut gy = Grid::new(w, h, 0.0);
    if w == 0 || h == 0 {
        return (gx, gy);
    }
    let band = par_band_rows(h, pool.threads());
    {
        let gx_view = UnsafeSharedSlice::new(gx.as_mut_slice());
        let gy_view = UnsafeSharedSlice::new(gy.as_mut_slice());
        pool.parallel_for_rows("imaging.gradient", 0..h, band, |rows| {
            for y in rows {
                // SAFETY: each row index is handed to exactly one task, so
                // the row slices of distinct tasks never overlap.
                let gx_row = unsafe { gx_view.slice_mut(y * w, w) };
                let gy_row = unsafe { gy_view.slice_mut(y * w, w) };
                let above = img.row(y.saturating_sub(1));
                let below = img.row((y + 1).min(h - 1));
                simd::gradient_row(level, above, img.row(y), below, gx_row, gy_row);
            }
        });
    }
    (gx, gy)
}

/// Mean squared error between two images.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.dims(), b.dims(), "mse requires equal dimensions");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    sum / a.len() as f64
}

/// Peak signal-to-noise ratio in dB for intensities in `[0, 1]`.
///
/// Returns `f64::INFINITY` for identical images.
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        f64::INFINITY
    } else {
        -10.0 * m.log10()
    }
}

/// Structural similarity (SSIM) between two images with intensities in
/// `[0, 1]`, computed with the standard 8×8 sliding window and the usual
/// stabilization constants (K1 = 0.01, K2 = 0.03).
///
/// Returns 1.0 for identical images; typical useful range is `[0, 1]`
/// (slightly negative values are possible for anti-correlated patches).
///
/// # Panics
///
/// Panics if the dimensions differ or either dimension is smaller than the
/// 8-pixel window.
pub fn ssim(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.dims(), b.dims(), "ssim requires equal dimensions");
    let (w, h) = a.dims();
    const WIN: usize = 8;
    assert!(
        w >= WIN && h >= WIN,
        "ssim needs at least {WIN}x{WIN} pixels, got {w}x{h}"
    );
    const C1: f64 = 0.01 * 0.01;
    const C2: f64 = 0.03 * 0.03;
    let mut total = 0.0f64;
    let mut windows = 0usize;
    for y0 in (0..=h - WIN).step_by(WIN / 2) {
        for x0 in (0..=w - WIN).step_by(WIN / 2) {
            let n = (WIN * WIN) as f64;
            let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for y in y0..y0 + WIN {
                for x in x0..x0 + WIN {
                    let va = a[(x, y)] as f64;
                    let vb = b[(x, y)] as f64;
                    sa += va;
                    sb += vb;
                    saa += va * va;
                    sbb += vb * vb;
                    sab += va * vb;
                }
            }
            let mu_a = sa / n;
            let mu_b = sb / n;
            let var_a = (saa / n - mu_a * mu_a).max(0.0);
            let var_b = (sbb / n - mu_b * mu_b).max(0.0);
            let cov = sab / n - mu_a * mu_b;
            let s = ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
                / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2));
            total += s;
            windows += 1;
        }
    }
    total / windows as f64
}

/// Minimum and maximum intensity of an image.
///
/// Returns `(0.0, 0.0)` for an empty image.
pub fn min_max(img: &Image) -> (f32, f32) {
    if img.is_empty() {
        return (0.0, 0.0);
    }
    img.as_slice()
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Normalizes an image linearly so its range becomes `[0, 1]`.
///
/// A constant image maps to all zeros.
pub fn normalize(img: &Image) -> Image {
    let (lo, hi) = min_max(img);
    let span = hi - lo;
    if span <= 0.0 {
        return img.map(|_| 0.0);
    }
    img.map(|&v| (v - lo) / span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamped_sampling_edges() {
        let img = Grid::from_fn(3, 3, |x, y| (x + 3 * y) as f32);
        assert_eq!(sample_clamped(&img, -1, -1), 0.0);
        assert_eq!(sample_clamped(&img, 3, 1), 5.0);
        assert_eq!(sample_clamped(&img, 1, 99), 7.0);
    }

    #[test]
    fn bilinear_matches_grid_at_integers() {
        let img = Grid::from_fn(4, 4, |x, y| (x * y) as f32);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(sample_bilinear(&img, x as f32, y as f32), img[(x, y)]);
            }
        }
    }

    #[test]
    fn bilinear_interpolates_linearly() {
        let img = Grid::from_fn(3, 3, |x, y| x as f32 + 10.0 * y as f32);
        let v = sample_bilinear(&img, 0.5, 1.5);
        assert!((v - (0.5 + 15.0)).abs() < 1e-5);
    }

    #[test]
    fn central_gradient_of_ramp_is_constant() {
        let img = Grid::from_fn(8, 8, |x, _| 2.0 * x as f32);
        let (gx, gy) = gradient_central(&img);
        // Interior: slope 2; borders clamp so the one-sided estimate halves.
        assert!((gx[(4, 4)] - 2.0).abs() < 1e-6);
        assert!((gx[(0, 4)] - 1.0).abs() < 1e-6);
        assert!(gy.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn pooled_gradient_is_bit_identical() {
        let img = Grid::from_fn(33, 21, |x, y| ((x * 13 + y * 7) % 17) as f32 / 17.0);
        let (gx, gy) = gradient_central(&img);
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            for level in [
                KernelBackend::Scalar,
                KernelBackend::Sse2,
                KernelBackend::Avx2,
                KernelBackend::Avx512,
            ] {
                if !level.is_supported() {
                    continue;
                }
                let (px, py) = gradient_central_with_pool(&img, &pool, level);
                assert_eq!(
                    gx.as_slice(),
                    px.as_slice(),
                    "gx at {threads} threads, {level:?}"
                );
                assert_eq!(
                    gy.as_slice(),
                    py.as_slice(),
                    "gy at {threads} threads, {level:?}"
                );
            }
        }
    }

    #[test]
    fn mse_and_psnr() {
        let a = Grid::new(4, 4, 0.5f32);
        let b = Grid::new(4, 4, 0.5f32);
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(psnr(&a, &b), f64::INFINITY);
        let c = Grid::new(4, 4, 0.6f32);
        assert!((mse(&a, &c) - 0.01f64).abs() < 1e-7);
        assert!((psnr(&a, &c) - 20.0).abs() < 1e-4);
    }

    #[test]
    fn normalize_maps_to_unit_range() {
        let img = Grid::from_fn(3, 1, |x, _| x as f32 * 4.0 + 1.0);
        let n = normalize(&img);
        assert_eq!(n[(0, 0)], 0.0);
        assert_eq!(n[(2, 0)], 1.0);
        let flat = Grid::new(3, 1, 7.0f32);
        assert!(normalize(&flat).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ssim_identity_and_ordering() {
        let img = Grid::from_fn(32, 24, |x, y| ((x * 7 + y * 3) % 11) as f32 / 11.0);
        assert!((ssim(&img, &img) - 1.0).abs() < 1e-12);
        // More noise -> lower SSIM.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mild = img.map(|&v| v + rng.gen_range(-0.02f32..0.02));
        let heavy = img.map(|&v| v + rng.gen_range(-0.3f32..0.3));
        let s_mild = ssim(&img, &mild);
        let s_heavy = ssim(&img, &heavy);
        assert!(s_mild > s_heavy, "{s_mild} vs {s_heavy}");
        assert!(s_mild > 0.95);
        assert!(s_heavy < 0.9);
    }

    #[test]
    #[should_panic(expected = "at least 8x8")]
    fn ssim_rejects_tiny_images() {
        let img = Grid::new(4, 4, 0.5f32);
        ssim(&img, &img);
    }
}
