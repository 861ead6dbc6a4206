//! Backward image warping by a flow field — the per-warp linearization step
//! of the TV-L1 outer loop.

use chambolle_par::{KernelBackend, ThreadPool};

use crate::flow::FlowField;
use crate::grid::{par_band_rows, Grid};
use crate::image::{gradient_central, gradient_central_with_pool, sample_bilinear, Image};
use crate::simd;

/// Warps `img` backward by `flow`: `out(x, y) = img(x + u1, y + u2)` with
/// bilinear interpolation and clamp-to-edge boundary handling.
///
/// This is the `I1(x + u)` term of the TV-L1 data cost.
///
/// # Panics
///
/// Panics if `img` and `flow` dimensions differ.
///
/// # Examples
///
/// ```
/// use chambolle_imaging::{warp_backward, FlowField, Grid};
/// let img = Grid::from_fn(4, 1, |x, _| x as f32);
/// let flow = FlowField::constant(4, 1, 1.0, 0.0);
/// let w = warp_backward(&img, &flow);
/// assert_eq!(w[(0, 0)], 1.0); // shifted left by one
/// ```
pub fn warp_backward(img: &Image, flow: &FlowField) -> Image {
    assert_eq!(img.dims(), flow.dims(), "image and flow must match in size");
    Grid::from_fn(img.width(), img.height(), |x, y| {
        let (u, v) = flow.at(x, y);
        sample_bilinear(img, x as f32 + u, y as f32 + v)
    })
}

/// [`warp_backward`] with the output rows distributed over a worker pool.
///
/// Every output cell is a pure function of the immutable inputs, so the
/// result is bit-identical to the sequential warp for every thread count.
/// The bilinear sampling is gather-bound (each pixel reads four
/// flow-dependent addresses), so the warp has no vector body and takes no
/// [`KernelBackend`].
///
/// # Panics
///
/// Panics if `img` and `flow` dimensions differ.
pub fn warp_backward_with_pool(img: &Image, flow: &FlowField, pool: &ThreadPool) -> Image {
    assert_eq!(img.dims(), flow.dims(), "image and flow must match in size");
    let (w, h) = img.dims();
    let mut out = Grid::new(w, h, 0.0);
    if w == 0 || h == 0 {
        return out;
    }
    let band = par_band_rows(h, pool.threads());
    pool.parallel_chunks_mut("imaging.warp", out.as_mut_slice(), w * band, |t, rows| {
        let y0 = t * band;
        for (dy, row) in rows.chunks_mut(w).enumerate() {
            let y = y0 + dy;
            for (x, cell) in row.iter_mut().enumerate() {
                let (u, v) = flow.at(x, y);
                *cell = sample_bilinear(img, x as f32 + u, y as f32 + v);
            }
        }
    });
    out
}

/// The linearized data term of TV-L1 at a warp point.
///
/// For a flow `u0` at which `I1` was warped, the residual of a candidate flow
/// `u` is `rho(u) = rho_const + gx*(u1-u01) + gy*(u2-u02)`; this struct holds
/// the warped image, its spatial gradient and the constant part
/// `rho_const = I1w - I0` (so the candidate increments are relative to `u0`).
#[derive(Debug, Clone)]
pub struct WarpLinearization {
    /// `I1` warped by the reference flow `u0`.
    pub warped: Image,
    /// Horizontal gradient of the warped image.
    pub gx: Image,
    /// Vertical gradient of the warped image.
    pub gy: Image,
    /// Constant residual `I1w - I0`.
    pub residual: Image,
    /// The reference flow `u0` around which the data term is linearized.
    pub u0: FlowField,
}

impl WarpLinearization {
    /// Warps `i1` by `u0` and linearizes the brightness-constancy residual
    /// around `u0`.
    ///
    /// # Panics
    ///
    /// Panics if the inputs differ in size.
    pub fn new(i0: &Image, i1: &Image, u0: &FlowField) -> Self {
        assert_eq!(i0.dims(), i1.dims(), "frames must match in size");
        assert_eq!(i0.dims(), u0.dims(), "flow must match the frame size");
        let warped = warp_backward(i1, u0);
        let (gx, gy) = gradient_central(&warped);
        let residual = Grid::from_fn(i0.width(), i0.height(), |x, y| warped[(x, y)] - i0[(x, y)]);
        WarpLinearization {
            warped,
            gx,
            gy,
            residual,
            u0: u0.clone(),
        }
    }

    /// [`WarpLinearization::new`] with the warp, gradient, and residual
    /// fills distributed over a worker pool, and the gradient rows
    /// dispatched on a [`KernelBackend`]; bit-identical to the sequential
    /// constructor for every thread count and level.
    ///
    /// # Panics
    ///
    /// Panics if the inputs differ in size.
    pub fn new_with_pool(
        i0: &Image,
        i1: &Image,
        u0: &FlowField,
        pool: &ThreadPool,
        level: KernelBackend,
    ) -> Self {
        assert_eq!(i0.dims(), i1.dims(), "frames must match in size");
        assert_eq!(i0.dims(), u0.dims(), "flow must match the frame size");
        let (w, h) = i0.dims();
        let warped = warp_backward_with_pool(i1, u0, pool);
        let (gx, gy) = gradient_central_with_pool(&warped, pool, level);
        let mut residual = Grid::new(w, h, 0.0);
        let band = par_band_rows(h.max(1), pool.threads());
        pool.parallel_chunks_mut(
            "imaging.residual",
            residual.as_mut_slice(),
            w * band,
            |t, rows| {
                let start = t * band * w;
                let n = rows.len();
                simd::sub_slice(
                    &warped.as_slice()[start..start + n],
                    &i0.as_slice()[start..start + n],
                    rows,
                );
            },
        );
        WarpLinearization {
            warped,
            gx,
            gy,
            residual,
            u0: u0.clone(),
        }
    }

    /// Evaluates the linearized residual `rho(u)` at cell `(x, y)` for the
    /// candidate flow `(u1, u2)`.
    #[inline]
    pub fn rho(&self, x: usize, y: usize, u1: f32, u2: f32) -> f32 {
        let (u01, u02) = self.u0.at(x, y);
        self.residual[(x, y)] + self.gx[(x, y)] * (u1 - u01) + self.gy[(x, y)] * (u2 - u02)
    }

    /// Squared gradient magnitude `|∇I1w|²` at cell `(x, y)`.
    #[inline]
    pub fn grad_sq(&self, x: usize, y: usize) -> f32 {
        let gx = self.gx[(x, y)];
        let gy = self.gy[(x, y)];
        gx * gx + gy * gy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Image {
        Grid::from_fn(w, h, |x, y| 0.1 * x as f32 + 0.05 * y as f32)
    }

    #[test]
    fn zero_flow_is_identity() {
        let img = ramp(8, 6);
        let out = warp_backward(&img, &FlowField::zeros(8, 6));
        for (x, y, &v) in img.iter() {
            assert!((v - out[(x, y)]).abs() < 1e-6);
        }
    }

    #[test]
    fn integer_shift_matches_resample() {
        let img = Grid::from_fn(8, 8, |x, y| ((x * 7 + y * 13) % 5) as f32);
        let out = warp_backward(&img, &FlowField::constant(8, 8, 2.0, 1.0));
        for y in 0..7 {
            for x in 0..6 {
                assert_eq!(out[(x, y)], img[(x + 2, y + 1)]);
            }
        }
    }

    #[test]
    fn subpixel_shift_on_linear_ramp_is_exact() {
        let img = ramp(10, 10);
        let out = warp_backward(&img, &FlowField::constant(10, 10, 0.5, 0.25));
        // Interior cells of a linear ramp warp exactly under bilinear sampling.
        for y in 2..8 {
            for x in 2..8 {
                let expect = 0.1 * (x as f32 + 0.5) + 0.05 * (y as f32 + 0.25);
                assert!((out[(x, y)] - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn pooled_warp_and_linearization_are_bit_identical() {
        let i0 = Grid::from_fn(29, 17, |x, y| ((x * 5 + y * 11) % 13) as f32 / 13.0);
        let i1 = Grid::from_fn(29, 17, |x, y| ((x * 3 + y * 7) % 13) as f32 / 13.0);
        let flow = FlowField::from_fn(29, 17, |x, y| (0.3 * x as f32, -0.2 * y as f32));
        let seq_warp = warp_backward(&i1, &flow);
        let seq_lin = WarpLinearization::new(&i0, &i1, &flow);
        for threads in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let par_warp = warp_backward_with_pool(&i1, &flow, &pool);
            assert_eq!(
                seq_warp.as_slice(),
                par_warp.as_slice(),
                "{threads} threads"
            );
            for level in [
                KernelBackend::Scalar,
                KernelBackend::Sse2,
                KernelBackend::Avx2,
                KernelBackend::Avx512,
            ] {
                if !level.is_supported() {
                    continue;
                }
                let par_lin = WarpLinearization::new_with_pool(&i0, &i1, &flow, &pool, level);
                assert_eq!(seq_lin.warped.as_slice(), par_lin.warped.as_slice());
                assert_eq!(seq_lin.gx.as_slice(), par_lin.gx.as_slice());
                assert_eq!(seq_lin.gy.as_slice(), par_lin.gy.as_slice());
                assert_eq!(seq_lin.residual.as_slice(), par_lin.residual.as_slice());
            }
        }
    }

    #[test]
    fn linearization_residual_zero_for_true_shift() {
        // I1 is I0 shifted by (-1, 0): I1(x) = I0(x - 1), so the true flow
        // (sampling I1 at x + u matching I0 at x) is u = (1, 0)... check via
        // rho at the linearization point.
        let i0 = ramp(12, 12);
        let i1 = Grid::from_fn(12, 12, |x, y| 0.1 * (x as f32 - 1.0) + 0.05 * y as f32);
        let truth = FlowField::constant(12, 12, 1.0, 0.0);
        let lin = WarpLinearization::new(&i0, &i1, &truth);
        for y in 2..10 {
            for x in 2..10 {
                assert!(lin.residual[(x, y)].abs() < 1e-5, "at ({x},{y})");
                assert!(lin.rho(x, y, 1.0, 0.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn rho_is_affine_in_candidate_flow() {
        let i0 = ramp(8, 8);
        let i1 = Grid::from_fn(8, 8, |x, y| ((x + y) % 3) as f32 * 0.2);
        let lin = WarpLinearization::new(&i0, &i1, &FlowField::zeros(8, 8));
        let (x, y) = (4, 4);
        let base = lin.rho(x, y, 0.0, 0.0);
        let dx = lin.rho(x, y, 1.0, 0.0) - base;
        let dy = lin.rho(x, y, 0.0, 1.0) - base;
        let combined = lin.rho(x, y, 2.0, 3.0);
        assert!((combined - (base + 2.0 * dx + 3.0 * dy)).abs() < 1e-5);
        assert!((dx - lin.gx[(x, y)]).abs() < 1e-6);
        assert!((dy - lin.gy[(x, y)]).abs() < 1e-6);
    }

    #[test]
    fn grad_sq_matches_components() {
        let i0 = ramp(8, 8);
        let i1 = ramp(8, 8);
        let lin = WarpLinearization::new(&i0, &i1, &FlowField::zeros(8, 8));
        let gs = lin.grad_sq(3, 3);
        let expect = lin.gx[(3, 3)].powi(2) + lin.gy[(3, 3)].powi(2);
        assert!((gs - expect).abs() < 1e-9);
    }
}
