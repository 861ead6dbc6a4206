//! Full-frame fixed-point reference model.
//!
//! This executes Algorithm 1 with the *hardware's* arithmetic but with none
//! of the hardware's structure: it unpacks the BRAM words into planes and
//! runs [`chambolle_fixed::fixed_denoise`], the one structure-free
//! fixed-point solve, whose PE-T and PE-V passes call the same
//! [`chambolle_fixed::datapath`] functions as the array simulator. It
//! answers two questions:
//!
//! 1. **Is the cycle simulator right?** The systolic array must produce
//!    bit-identical `p` and `u` (tested in [`crate::array`]).
//! 2. **What does fixed point cost in accuracy?** Comparing against the
//!    `f32` solver of `chambolle-core` bounds the quantization error of the
//!    13/9-bit word format and the LUT square root.

use chambolle_fixed::{fixed_denoise, FixedFrame, PackedWord, SqrtUnit, WordFixed};
use chambolle_imaging::{Grid, Image};

use crate::params::HwParams;

/// Quantizes an `f32` image into packed words with `p = 0` (the iteration's
/// initial state), one [`PackedWord::quantize`] per pixel: out-of-range
/// intensities saturate into the 13-bit `v` field.
pub fn quantize_input(v: &Image) -> Grid<PackedWord> {
    v.map(|&val| PackedWord::quantize(val))
}

/// The fixed-point state after running Algorithm 1: the packed words hold
/// the final dual field, and `u` is the primal output.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedSolution {
    /// Final packed state (`v` unchanged, `px`/`py` after `iterations`).
    pub words: Grid<PackedWord>,
    /// Primal output `u = v − θ·div p`, in the fixed-point datapath.
    pub u: Grid<WordFixed>,
}

/// Runs `params.iterations` Chambolle iterations in fixed point over the
/// whole frame, then recovers `u` with a final Term sweep — exactly the
/// schedule the accelerator executes (with the paper's LUT square root).
pub fn fixed_chambolle_reference(words: &Grid<PackedWord>, params: &HwParams) -> FixedSolution {
    fixed_chambolle_reference_with(words, params, &SqrtUnit::lut())
}

/// Like [`fixed_chambolle_reference`], with a selectable square-root unit —
/// the Section V-C design-choice ablation (LUT vs. iterative).
pub fn fixed_chambolle_reference_with(
    words: &Grid<PackedWord>,
    params: &HwParams,
    sqrt: &SqrtUnit,
) -> FixedSolution {
    let (w, h) = words.dims();
    let mut frame = FixedFrame::from_words(words.as_slice(), w, h);
    let u = fixed_denoise(&mut frame, &params.datapath, params.iterations, sqrt);
    let words = words
        .as_slice()
        .iter()
        .zip(frame.px().iter().zip(frame.py()))
        .map(|(word, (&px, &py))| word.with_p(px, py))
        .collect();
    FixedSolution {
        words: Grid::from_vec(w, h, words).expect("one word per element"),
        u: Grid::from_vec(w, h, u).expect("one u per element"),
    }
}

/// Converts a fixed-point `u` back to `f32`.
pub fn dequantize(u: &Grid<WordFixed>) -> Image {
    u.map(|v| v.to_f32())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chambolle_core::{chambolle_denoise, ChambolleParams};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_image(w: usize, h: usize, seed: u64) -> Image {
        let mut rng = StdRng::seed_from_u64(seed);
        Grid::from_fn(w, h, |_, _| rng.gen_range(0.0f32..1.0))
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let v = Grid::new(12, 10, 0.5f32);
        let sol = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(30));
        for &u in sol.u.as_slice() {
            assert_eq!(u.to_f32(), 0.5);
        }
        for &w in sol.words.as_slice() {
            assert_eq!(w.px(), WordFixed::ZERO);
            assert_eq!(w.py(), WordFixed::ZERO);
        }
    }

    #[test]
    fn dual_stays_in_nine_bits() {
        let v = random_image(24, 20, 3);
        let sol = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(60));
        for &w in sol.words.as_slice() {
            assert!(w.px().fits_in(9));
            assert!(w.py().fits_in(9));
        }
    }

    #[test]
    fn trailing_edge_p_stays_zero() {
        // px on the last column and py on the last row never move from zero
        // (their Forward difference is gated off), which is what makes the
        // uniform Backward rule reproduce Chambolle's boundary divergence.
        let v = random_image(16, 14, 5);
        let sol = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(40));
        for y in 0..14 {
            assert_eq!(sol.words[(15, y)].px(), WordFixed::ZERO);
        }
        for x in 0..16 {
            assert_eq!(sol.words[(x, 13)].py(), WordFixed::ZERO);
        }
    }

    #[test]
    fn matches_float_solver_within_quantization() {
        let v = random_image(32, 24, 11);
        let iters = 50;
        let sol = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(iters));
        let (u_float, _) = chambolle_denoise(&v, &ChambolleParams::with_iterations(iters));
        let mut max_err = 0.0f32;
        for i in 0..u_float.len() {
            let err = (sol.u.as_slice()[i].to_f32() - u_float.as_slice()[i]).abs();
            max_err = max_err.max(err);
        }
        // 9-bit dual + 13-bit v + LUT sqrt: a few percent of the unit range.
        assert!(max_err < 0.05, "fixed-vs-float max error {max_err}");
    }

    #[test]
    fn denoises_a_noisy_step() {
        let mut rng = StdRng::seed_from_u64(8);
        let v = Grid::from_fn(32, 16, |x, _| {
            let base = if x < 16 { 0.25f32 } else { 0.75 };
            base + rng.gen_range(-0.1..0.1)
        });
        let sol = fixed_chambolle_reference(&quantize_input(&v), &HwParams::standard(120));
        let u = dequantize(&sol.u);
        let noise = |img: &Image| -> f32 {
            let mut acc = 0.0;
            let mut n = 0;
            for y in 2..14 {
                for x in 2..14 {
                    acc += (img[(x, y)] - img[(x - 1, y)]).abs();
                    n += 1;
                }
            }
            acc / n as f32
        };
        assert!(
            noise(&u) < 0.5 * noise(&v),
            "fixed-point solver should denoise"
        );
        // Edge preserved.
        let left: f32 = (4..12).map(|y| u[(4, y)]).sum::<f32>() / 8.0;
        let right: f32 = (4..12).map(|y| u[(27, y)]).sum::<f32>() / 8.0;
        assert!(right - left > 0.3);
    }

    #[test]
    fn quantize_saturates_out_of_range() {
        let v = Grid::from_vec(2, 1, vec![100.0f32, -100.0]).unwrap();
        let q = quantize_input(&v);
        assert!(q[(0, 0)].v().to_f32() < 16.0);
        assert!(q[(1, 0)].v().to_f32() >= -16.0);
    }
}
