//! Gaussian image pyramids for the coarse-to-fine TV-L1 outer loop.

use chambolle_par::{KernelBackend, ThreadPool};

use crate::grid::{par_band_rows, Grid};
use crate::image::{sample_bilinear, Image};
use crate::simd::{self, BINOMIAL5};

/// A coarse-to-fine stack of images.
///
/// `levels()[0]` is the full-resolution input; each further level halves both
/// dimensions (rounding up, never below [`Pyramid::MIN_DIM`]).
///
/// # Examples
///
/// ```
/// use chambolle_imaging::{Grid, Pyramid};
/// let img = Grid::new(64, 48, 0.5f32);
/// let pyr = Pyramid::build(&img, 3);
/// assert_eq!(pyr.levels().len(), 3);
/// assert_eq!(pyr.levels()[0].dims(), (64, 48));
/// assert_eq!(pyr.levels()[1].dims(), (32, 24));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pyramid {
    levels: Vec<Image>,
}

impl Pyramid {
    /// Levels stop subdividing once either dimension would drop below this.
    pub const MIN_DIM: usize = 8;

    /// Builds a pyramid with at most `max_levels` levels and a 2× reduction
    /// per level.
    ///
    /// Each level is produced by a 5-tap binomial blur followed by 2×
    /// decimation. Fewer levels are produced if the image becomes too small.
    ///
    /// # Panics
    ///
    /// Panics if `max_levels == 0` or the input image is empty.
    pub fn build(base: &Image, max_levels: usize) -> Self {
        assert!(max_levels > 0, "pyramid needs at least one level");
        assert!(!base.is_empty(), "cannot build a pyramid of an empty image");
        let mut levels = vec![base.clone()];
        while levels.len() < max_levels {
            let prev = levels.last().expect("non-empty by construction");
            let (w, h) = prev.dims();
            if w / 2 < Self::MIN_DIM || h / 2 < Self::MIN_DIM {
                break;
            }
            levels.push(downsample_half(prev));
        }
        Pyramid { levels }
    }

    /// Builds a pyramid with an arbitrary per-level scale factor in
    /// `(0, 1)` — gentler factors (e.g. 0.8, as OpenCV's TV-L1 uses) track
    /// large motions more reliably than the classic 0.5 at the cost of more
    /// levels.
    ///
    /// # Panics
    ///
    /// Panics if `max_levels == 0`, the input is empty, or `factor` is not
    /// in `(0, 1)`.
    pub fn build_scaled(base: &Image, max_levels: usize, factor: f32) -> Self {
        assert!(max_levels > 0, "pyramid needs at least one level");
        assert!(!base.is_empty(), "cannot build a pyramid of an empty image");
        assert!(
            factor > 0.0 && factor < 1.0,
            "scale factor must be in (0, 1), got {factor}"
        );
        let mut levels = vec![base.clone()];
        while levels.len() < max_levels {
            let prev = levels.last().expect("non-empty by construction");
            let (w, h) = prev.dims();
            let nw = (w as f32 * factor).round() as usize;
            let nh = (h as f32 * factor).round() as usize;
            if nw < Self::MIN_DIM || nh < Self::MIN_DIM || (nw, nh) == (w, h) {
                break;
            }
            let blurred = blur_binomial5(prev);
            levels.push(resize_bilinear(&blurred, nw, nh));
        }
        Pyramid { levels }
    }

    /// [`Pyramid::build_scaled`] with each level's blur and resize
    /// distributed over a worker pool and the blur rows running at the given
    /// [`KernelBackend`]; bit-identical for every thread count and level.
    ///
    /// # Panics
    ///
    /// Panics if `max_levels == 0`, the input is empty, or `factor` is not
    /// in `(0, 1)`.
    pub fn build_scaled_with_pool(
        base: &Image,
        max_levels: usize,
        factor: f32,
        pool: &ThreadPool,
        level: KernelBackend,
    ) -> Self {
        assert!(max_levels > 0, "pyramid needs at least one level");
        assert!(!base.is_empty(), "cannot build a pyramid of an empty image");
        assert!(
            factor > 0.0 && factor < 1.0,
            "scale factor must be in (0, 1), got {factor}"
        );
        let mut levels = vec![base.clone()];
        while levels.len() < max_levels {
            let prev = levels.last().expect("non-empty by construction");
            let (w, h) = prev.dims();
            let nw = (w as f32 * factor).round() as usize;
            let nh = (h as f32 * factor).round() as usize;
            if nw < Self::MIN_DIM || nh < Self::MIN_DIM || (nw, nh) == (w, h) {
                break;
            }
            let blurred = blur_binomial5_with_pool(prev, pool, level);
            levels.push(resize_bilinear_with_pool(&blurred, nw, nh, pool));
        }
        Pyramid { levels }
    }

    /// The levels, finest (index 0) to coarsest.
    pub fn levels(&self) -> &[Image] {
        &self.levels
    }

    /// Number of levels actually built.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the pyramid has no levels (never true for a built pyramid).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The coarsest level.
    pub fn coarsest(&self) -> &Image {
        self.levels.last().expect("pyramid is never empty")
    }
}

/// 5-tap binomial (1 4 6 4 1)/16 separable blur with clamped borders.
pub fn blur_binomial5(img: &Image) -> Image {
    let (w, h) = img.dims();
    const K: [f32; 5] = BINOMIAL5;
    let mut tmp = Grid::new(w, h, 0.0);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, k) in K.iter().enumerate() {
                let xs = (x as i64 + i as i64 - 2).clamp(0, w as i64 - 1) as usize;
                acc += k * img[(xs, y)];
            }
            tmp[(x, y)] = acc;
        }
    }
    let mut out = Grid::new(w, h, 0.0);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (i, k) in K.iter().enumerate() {
                let ys = (y as i64 + i as i64 - 2).clamp(0, h as i64 - 1) as usize;
                acc += k * tmp[(x, ys)];
            }
            out[(x, y)] = acc;
        }
    }
    out
}

/// [`blur_binomial5`] with both separable passes row-parallelized over a
/// worker pool and the per-row tap loops dispatched on a [`KernelBackend`].
///
/// Every level accumulates the taps in the same order over the same inputs
/// as the sequential blur (the vector rows replay the scalar accumulation
/// per lane), so the result is bit-identical for every thread count and
/// SIMD level.
pub fn blur_binomial5_with_pool(img: &Image, pool: &ThreadPool, level: KernelBackend) -> Image {
    let (w, h) = img.dims();
    let mut tmp = Grid::new(w, h, 0.0);
    if w == 0 || h == 0 {
        return tmp;
    }
    let band = par_band_rows(h, pool.threads());
    pool.parallel_chunks_mut("imaging.blur_h", tmp.as_mut_slice(), w * band, |t, rows| {
        let y0 = t * band;
        for (dy, row) in rows.chunks_mut(w).enumerate() {
            simd::blur_h_row(level, img.row(y0 + dy), row);
        }
    });
    let mut out = Grid::new(w, h, 0.0);
    pool.parallel_chunks_mut("imaging.blur_v", out.as_mut_slice(), w * band, |t, rows| {
        let y0 = t * band;
        for (dy, row) in rows.chunks_mut(w).enumerate() {
            let y = y0 + dy;
            let taps: [&[f32]; 5] = std::array::from_fn(|i| {
                tmp.row((y as i64 + i as i64 - 2).clamp(0, h as i64 - 1) as usize)
            });
            simd::blur_v_row(level, taps, row);
        }
    });
    out
}

/// Blurs then decimates an image by 2 in both dimensions (rounding up).
pub fn downsample_half(img: &Image) -> Image {
    let blurred = blur_binomial5(img);
    let (w, h) = img.dims();
    let nw = w.div_ceil(2);
    let nh = h.div_ceil(2);
    Grid::from_fn(nw, nh, |x, y| {
        blurred[((2 * x).min(w - 1), (2 * y).min(h - 1))]
    })
}

/// Bilinearly resizes `img` to `new_w × new_h`.
///
/// Used to upsample flow components between pyramid levels; note that flow
/// *values* must additionally be scaled by the resize factor, which
/// [`upsample_flow_component`] does.
///
/// # Panics
///
/// Panics if a target dimension is zero.
pub fn resize_bilinear(img: &Image, new_w: usize, new_h: usize) -> Image {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be positive");
    let (w, h) = img.dims();
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    Grid::from_fn(new_w, new_h, |x, y| {
        // Sample at pixel centers to keep the lattice aligned across scales.
        let src_x = (x as f32 + 0.5) * sx - 0.5;
        let src_y = (y as f32 + 0.5) * sy - 0.5;
        sample_bilinear(img, src_x, src_y)
    })
}

/// [`resize_bilinear`] with the output rows distributed over a worker pool;
/// bit-identical for every thread count. Bilinear sampling is gather-bound
/// (data-dependent indexing per pixel), so this pass has no vector body and
/// takes no [`KernelBackend`].
///
/// # Panics
///
/// Panics if a target dimension is zero.
pub fn resize_bilinear_with_pool(
    img: &Image,
    new_w: usize,
    new_h: usize,
    pool: &ThreadPool,
) -> Image {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be positive");
    let (w, h) = img.dims();
    let sx = w as f32 / new_w as f32;
    let sy = h as f32 / new_h as f32;
    let mut out = Grid::new(new_w, new_h, 0.0);
    let band = par_band_rows(new_h, pool.threads());
    pool.parallel_chunks_mut(
        "imaging.resize",
        out.as_mut_slice(),
        new_w * band,
        |t, rows| {
            let y0 = t * band;
            for (dy, row) in rows.chunks_mut(new_w).enumerate() {
                let y = y0 + dy;
                let src_y = (y as f32 + 0.5) * sy - 0.5;
                for (x, cell) in row.iter_mut().enumerate() {
                    let src_x = (x as f32 + 0.5) * sx - 0.5;
                    *cell = sample_bilinear(img, src_x, src_y);
                }
            }
        },
    );
    out
}

/// Upsamples one flow component from a coarser level to `new_w × new_h`,
/// scaling the displacement values by the horizontal resize ratio.
pub fn upsample_flow_component(comp: &Image, new_w: usize, new_h: usize) -> Image {
    let scale = new_w as f32 / comp.width() as f32;
    let resized = resize_bilinear(comp, new_w, new_h);
    resized.map(|&v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blur_preserves_constants() {
        let img = Grid::new(16, 16, 0.7f32);
        let b = blur_binomial5(&img);
        assert!(b.as_slice().iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }

    #[test]
    fn blur_reduces_oscillation() {
        let img = Grid::from_fn(16, 1, |x, _| if x % 2 == 0 { 1.0 } else { 0.0 });
        let b = blur_binomial5(&img);
        let osc_before: f32 = (1..16).map(|x| (img[(x, 0)] - img[(x - 1, 0)]).abs()).sum();
        let osc_after: f32 = (1..16).map(|x| (b[(x, 0)] - b[(x - 1, 0)]).abs()).sum();
        assert!(osc_after < 0.5 * osc_before);
    }

    #[test]
    fn downsample_halves_dims_rounding_up() {
        let img = Grid::new(17, 10, 0.0f32);
        let d = downsample_half(&img);
        assert_eq!(d.dims(), (9, 5));
    }

    #[test]
    fn pyramid_stops_at_min_dim() {
        let img = Grid::new(32, 32, 0.0f32);
        let pyr = Pyramid::build(&img, 10);
        // 32 -> 16 -> 8; the next halving would drop below MIN_DIM.
        assert_eq!(pyr.len(), 3);
        assert_eq!(pyr.coarsest().dims(), (8, 8));
    }

    #[test]
    fn pyramid_respects_max_levels() {
        let img = Grid::new(128, 128, 0.0f32);
        assert_eq!(Pyramid::build(&img, 2).len(), 2);
    }

    #[test]
    fn resize_identity() {
        let img = Grid::from_fn(7, 5, |x, y| (x * y) as f32);
        let same = resize_bilinear(&img, 7, 5);
        for (x, y, &v) in img.iter() {
            assert!((v - same[(x, y)]).abs() < 1e-4);
        }
    }

    #[test]
    fn resize_preserves_constant() {
        let img = Grid::new(8, 8, 0.3f32);
        let up = resize_bilinear(&img, 19, 13);
        assert!(up.as_slice().iter().all(|&v| (v - 0.3).abs() < 1e-6));
    }

    #[test]
    fn upsample_flow_scales_values() {
        let comp = Grid::new(8, 8, 1.0f32);
        let up = upsample_flow_component(&comp, 16, 16);
        assert!(up.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-5));
    }

    #[test]
    fn pooled_pyramid_ops_are_bit_identical() {
        let img = Grid::from_fn(45, 37, |x, y| ((x * 3 + y * 5) % 23) as f32 / 23.0);
        let blur = blur_binomial5(&img);
        let resized = resize_bilinear(&img, 31, 22);
        let pyr_scaled = Pyramid::build_scaled(&img, 4, 0.7);
        let levels: Vec<KernelBackend> = [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ]
        .into_iter()
        .filter(KernelBackend::is_supported)
        .collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            for &level in &levels {
                assert_eq!(
                    blur.as_slice(),
                    blur_binomial5_with_pool(&img, &pool, level).as_slice(),
                    "blur at {threads} threads, {level:?}"
                );
                assert_eq!(
                    pyr_scaled,
                    Pyramid::build_scaled_with_pool(&img, 4, 0.7, &pool, level),
                    "scaled pyramid at {threads} threads, {level:?}"
                );
            }
            assert_eq!(
                resized.as_slice(),
                resize_bilinear_with_pool(&img, 31, 22, &pool).as_slice(),
                "resize at {threads} threads"
            );
        }
    }

    #[test]
    fn scaled_pyramid_uses_the_factor() {
        let img = Grid::new(100, 80, 0.5f32);
        let pyr = Pyramid::build_scaled(&img, 10, 0.8);
        assert_eq!(pyr.levels()[1].dims(), (80, 64));
        assert_eq!(pyr.levels()[2].dims(), (64, 51));
        // Gentler factor -> more levels than halving.
        assert!(pyr.len() > Pyramid::build(&img, 10).len());
        // Constant image stays constant through resampling.
        assert!(pyr
            .coarsest()
            .as_slice()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-5));
    }

    #[test]
    fn scaled_pyramid_with_half_matches_build_level_count() {
        let img = Grid::new(64, 64, 0.0f32);
        let a = Pyramid::build(&img, 10);
        let b = Pyramid::build_scaled(&img, 10, 0.5);
        assert_eq!(a.len(), b.len());
        for (la, lb) in a.levels().iter().zip(b.levels()) {
            assert_eq!(la.dims(), lb.dims());
        }
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn scaled_pyramid_rejects_bad_factor() {
        Pyramid::build_scaled(&Grid::new(32, 32, 0.0f32), 3, 1.0);
    }
}
