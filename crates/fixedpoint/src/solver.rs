//! The structure-free fixed-point solve: Algorithm 1 over whole frames,
//! through the PE datapaths of [`crate::datapath`].
//!
//! The accelerator stores its state as packed BRAM words; this module keeps
//! the three fields (`v`, `px`, `py`) as separate planes and runs each
//! iteration as one PE-T pass and one PE-V pass over the whole frame, then
//! recovers `u` with one more PE-T pass. It has none of the hardware's
//! structure (windows, regions, the reuse network), so it is the oracle the
//! cycle simulator in `chambolle-hwsim` is tested bit-exact against, and
//! the fixed-point fidelity yardstick the benchmark times.

use crate::datapath::{pe_t, pe_v, PeTInputs, PeVInputs};
use crate::{PackedWord, SqrtUnit, WordFixed};

/// Fixed-point solver state: one frame of `v`, `px`, `py` planes.
///
/// The planes hold full Q24.8 words, but every value respects the packed
/// field widths at rest: `v` fits in [`V_BITS`](crate::V_BITS) bits
/// (saturated once at quantization), `px`/`py` in [`P_BITS`](crate::P_BITS)
/// bits (saturated by every update, as the RTL write path does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedFrame {
    width: usize,
    height: usize,
    v: Vec<WordFixed>,
    px: Vec<WordFixed>,
    py: Vec<WordFixed>,
}

impl FixedFrame {
    /// Quantizes an `f32` frame (row-major, `width * height` samples) into
    /// the packed-word value domain with `p = 0`, the iteration's initial
    /// state: every sample becomes [`PackedWord::quantize`], so
    /// out-of-range intensities saturate into the 13-bit `v` field.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != width * height`.
    pub fn quantize(samples: &[f32], width: usize, height: usize) -> Self {
        let words: Vec<PackedWord> = samples.iter().map(|&s| PackedWord::quantize(s)).collect();
        FixedFrame::from_words(&words, width, height)
    }

    /// Unpacks BRAM words (row-major, `width * height` of them) into
    /// planes, dual field included: any state the accelerator's memories
    /// can hold.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != width * height`.
    pub fn from_words(words: &[PackedWord], width: usize, height: usize) -> Self {
        assert_eq!(words.len(), width * height, "word count mismatch");
        FixedFrame {
            width,
            height,
            v: words.iter().map(PackedWord::v).collect(),
            px: words.iter().map(PackedWord::px).collect(),
            py: words.iter().map(PackedWord::py).collect(),
        }
    }

    /// Frame width in elements.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in elements.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The quantized denoising target, row-major.
    pub fn v(&self) -> &[WordFixed] {
        &self.v
    }

    /// The `px` plane, row-major.
    pub fn px(&self) -> &[WordFixed] {
        &self.px
    }

    /// The `py` plane, row-major.
    pub fn py(&self) -> &[WordFixed] {
        &self.py
    }

    /// The PE-T operands of element `(x, y)`: its own word, the left
    /// neighbor's `px` and the upper neighbor's `py`, zero at the first
    /// column and row (the Backward differences).
    fn pe_t_inputs(&self, x: usize, y: usize) -> PeTInputs {
        let i = y * self.width + x;
        PeTInputs {
            c_px: self.px[i],
            c_py: self.py[i],
            l_px: if x == 0 {
                WordFixed::ZERO
            } else {
                self.px[i - 1]
            },
            a_py: if y == 0 {
                WordFixed::ZERO
            } else {
                self.py[i - self.width]
            },
            v: self.v[i],
        }
    }
}

/// The fixed-point solve constants, in the exact encoding the datapath
/// multiplies with (the hardware never divides by `θ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedSolverParams {
    /// `θ` in Q24.8.
    pub theta: WordFixed,
    /// Precomputed `1/θ` in Q24.8.
    pub inv_theta: WordFixed,
    /// `τ/θ` in Q24.8.
    pub step_ratio: WordFixed,
}

impl FixedSolverParams {
    /// The standard configuration used throughout the paper's evaluation:
    /// `θ = 1/4`, `τ/θ = 1/4`.
    pub fn standard() -> Self {
        FixedSolverParams {
            theta: WordFixed::from_f32(0.25),
            inv_theta: WordFixed::from_f32(4.0),
            step_ratio: WordFixed::from_f32(0.25),
        }
    }
}

/// Runs `iterations` Chambolle iterations in fixed point over the whole
/// frame, then recovers `u = v − θ·div p` with a final PE-T sweep — the
/// schedule the accelerator executes. Each iteration is one PE-T pass
/// (`Term` from the previous iteration's `p`) and one PE-V pass (the `p`
/// update with the selected square-root unit). Returns `u`, row-major.
pub fn fixed_denoise(
    frame: &mut FixedFrame,
    params: &FixedSolverParams,
    iterations: u32,
    sqrt: &SqrtUnit,
) -> Vec<WordFixed> {
    let (w, h) = (frame.width, frame.height);
    let mut term = vec![WordFixed::ZERO; w * h];
    for _ in 0..iterations {
        for y in 0..h {
            for x in 0..w {
                term[y * w + x] = pe_t(frame.pe_t_inputs(x, y), params).term;
            }
        }
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                let (last_col, last_row) = (x + 1 == w, y + 1 == h);
                let (px, py) = pe_v(
                    PeVInputs {
                        c_term: term[i],
                        r_term: if last_col {
                            WordFixed::ZERO
                        } else {
                            term[i + 1]
                        },
                        b_term: if last_row {
                            WordFixed::ZERO
                        } else {
                            term[i + w]
                        },
                        c_px: frame.px[i],
                        c_py: frame.py[i],
                        last_col,
                        last_row,
                    },
                    params,
                    sqrt,
                );
                frame.px[i] = px;
                frame.py[i] = py;
            }
        }
    }
    let mut u = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            u.push(pe_t(frame.pe_t_inputs(x, y), params).u);
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{P_BITS, V_BITS};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn constant_image_is_a_fixed_point() {
        let mut frame = FixedFrame::quantize(&vec![0.5f32; 12 * 10], 12, 10);
        let u = fixed_denoise(
            &mut frame,
            &FixedSolverParams::standard(),
            30,
            &SqrtUnit::lut(),
        );
        for &s in &u {
            assert_eq!(s.to_f32(), 0.5);
        }
        for (&px, &py) in frame.px().iter().zip(frame.py()) {
            assert_eq!(px, WordFixed::ZERO);
            assert_eq!(py, WordFixed::ZERO);
        }
    }

    #[test]
    fn dual_planes_stay_in_nine_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f32> = (0..24 * 20).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut frame = FixedFrame::quantize(&samples, 24, 20);
        fixed_denoise(
            &mut frame,
            &FixedSolverParams::standard(),
            60,
            &SqrtUnit::lut(),
        );
        for (&px, &py) in frame.px().iter().zip(frame.py()) {
            assert!(px.fits_in(P_BITS) && py.fits_in(P_BITS));
        }
    }

    #[test]
    fn quantize_saturates_into_the_v_field() {
        let frame = FixedFrame::quantize(&[1.0e9, -1.0e9], 2, 1);
        assert!(frame.v()[0].fits_in(V_BITS));
        assert!(frame.v()[1].fits_in(V_BITS));
        assert_eq!(frame.v()[0], WordFixed::MAX.saturate_to(V_BITS));
    }

    #[test]
    fn gather_handles_borders() {
        let q = WordFixed::from_f32;
        let word = PackedWord::new_saturating(q(1.0), q(0.5), q(0.25));
        let frame = FixedFrame::from_words(&[word; 9], 3, 3);
        let at_origin = frame.pe_t_inputs(0, 0);
        assert_eq!(at_origin.l_px, WordFixed::ZERO);
        assert_eq!(at_origin.a_py, WordFixed::ZERO);
        let interior = frame.pe_t_inputs(1, 1);
        assert_eq!(interior.l_px.to_f32(), 0.5);
        assert_eq!(interior.a_py.to_f32(), 0.25);
    }
}
