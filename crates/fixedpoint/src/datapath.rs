//! The fixed-point datapaths of the two processing-element kinds
//! (Figures 6 and 7 of the paper).
//!
//! These functions are *combinational truth*: both the structure-free solve
//! ([`fixed_denoise`](crate::fixed_denoise)) and the cycle-stepped array
//! simulator in `chambolle-hwsim` call them, so the two are bit-identical
//! by construction.

use crate::{Fixed, FixedSolverParams, SqrtUnit, WordFixed, P_BITS};

/// Operand bundle of a PE-T (Figure 6): the element's own `p` vector and `v`
/// (`c_px`, `c_py`, `v` — one BRAM word), the left neighbor's `px` and the
/// upper neighbor's `py` (both forwarded through the reuse network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeTInputs {
    /// `px` of this element (previous iteration).
    pub c_px: WordFixed,
    /// `py` of this element (previous iteration).
    pub c_py: WordFixed,
    /// `px` of the left neighbor (zero at the first column).
    pub l_px: WordFixed,
    /// `py` of the upper neighbor (zero at the first row).
    pub a_py: WordFixed,
    /// Denoising target `v` of this element.
    pub v: WordFixed,
}

/// Results of a PE-T: `Term` feeds the PE-Vs, `u` is the primal output
/// (Algorithm 1 line 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeTOutputs {
    /// `div p` at this element (`BackwardX(px) + BackwardY(py)`).
    pub div: WordFixed,
    /// `Term = div p − v/θ`.
    pub term: WordFixed,
    /// `u = v − θ·div p`.
    pub u: WordFixed,
}

/// The PE-T datapath: two parallel Backward differences, the `v/θ`
/// subtraction and the `u` output (Figure 6).
#[inline]
pub fn pe_t(inp: PeTInputs, params: &FixedSolverParams) -> PeTOutputs {
    let div = (inp.c_px - inp.l_px) + (inp.c_py - inp.a_py);
    let term = div - inp.v * params.inv_theta;
    let u = inp.v - params.theta * div;
    PeTOutputs { div, term, u }
}

/// Operand bundle of a PE-V (Figure 7): three `Term` values forwarded from
/// the PE-T battery plus the element's own `p` vector, and the edge-control
/// flags that zero the Forward differences at the frame borders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeVInputs {
    /// `Term` of this element.
    pub c_term: WordFixed,
    /// `Term` of the right neighbor.
    pub r_term: WordFixed,
    /// `Term` of the lower neighbor.
    pub b_term: WordFixed,
    /// `px` of this element (previous iteration).
    pub c_px: WordFixed,
    /// `py` of this element (previous iteration).
    pub c_py: WordFixed,
    /// Control: this element is on the last column (Term1 forced to zero).
    pub last_col: bool,
    /// Control: this element is on the last row (Term2 forced to zero).
    pub last_row: bool,
}

/// The PE-V datapath: Forward differences, the square-root unit (LUT by
/// default; see [`SqrtUnit`]), and the normalized `p` update (Figure 7).
/// Outputs are saturated to the packed 9-bit field width, as the RTL write
/// path does.
#[inline]
pub fn pe_v(inp: PeVInputs, params: &FixedSolverParams, sqrt: &SqrtUnit) -> (WordFixed, WordFixed) {
    let t1 = if inp.last_col {
        WordFixed::ZERO
    } else {
        inp.r_term - inp.c_term
    };
    let t2 = if inp.last_row {
        WordFixed::ZERO
    } else {
        inp.b_term - inp.c_term
    };
    let mag_sq = t1 * t1 + t2 * t2;
    debug_assert!(
        mag_sq.to_bits() >= 0,
        "squared magnitude cannot be negative"
    );
    let grad = WordFixed::from_bits(sqrt.sqrt_q24_8(mag_sq.to_bits() as u32) as i32);
    let denom = Fixed::ONE + params.step_ratio * grad;
    let px = ((inp.c_px + params.step_ratio * t1) / denom).saturate_to(P_BITS);
    let py = ((inp.c_py + params.step_ratio * t2) / denom).saturate_to(P_BITS);
    (px, py)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f32) -> WordFixed {
        WordFixed::from_f32(v)
    }

    fn params() -> FixedSolverParams {
        FixedSolverParams::standard()
    }

    #[test]
    fn pe_t_zero_p_gives_term_minus_v_over_theta() {
        let out = pe_t(
            PeTInputs {
                v: q(0.5),
                ..PeTInputs::default()
            },
            &params(),
        );
        assert_eq!(out.div, WordFixed::ZERO);
        assert_eq!(out.term.to_f32(), -2.0); // -0.5 / 0.25
        assert_eq!(out.u.to_f32(), 0.5);
    }

    #[test]
    fn pe_t_divergence_matches_backward_differences() {
        let out = pe_t(
            PeTInputs {
                c_px: q(0.5),
                l_px: q(0.25),
                c_py: q(-0.25),
                a_py: q(0.25),
                v: q(0.0),
            },
            &params(),
        );
        // (0.5 - 0.25) + (-0.25 - 0.25) = -0.25
        assert_eq!(out.div.to_f32(), -0.25);
        assert_eq!(out.term.to_f32(), -0.25);
        assert_eq!(out.u.to_f32(), 0.0625); // -theta * div
    }

    #[test]
    fn pe_v_zero_gradient_decays_nothing() {
        // Equal Terms -> t1 = t2 = 0 -> p unchanged (denominator 1).
        let (px, py) = pe_v(
            PeVInputs {
                c_term: q(1.0),
                r_term: q(1.0),
                b_term: q(1.0),
                c_px: q(0.5),
                c_py: q(-0.5),
                last_col: false,
                last_row: false,
            },
            &params(),
            &SqrtUnit::lut(),
        );
        assert_eq!(px.to_f32(), 0.5);
        assert_eq!(py.to_f32(), -0.5);
    }

    #[test]
    fn pe_v_edge_flags_zero_the_differences() {
        let lut = SqrtUnit::lut();
        let inp = PeVInputs {
            c_term: q(0.0),
            r_term: q(4.0),
            b_term: q(4.0),
            c_px: q(0.0),
            c_py: q(0.0),
            last_col: true,
            last_row: true,
        };
        let (px, py) = pe_v(inp, &params(), &lut);
        assert_eq!(px, WordFixed::ZERO);
        assert_eq!(py, WordFixed::ZERO);
        // Without the flags the same operands move p.
        let (px2, _) = pe_v(
            PeVInputs {
                last_col: false,
                last_row: false,
                ..inp
            },
            &params(),
            &lut,
        );
        assert!(px2.to_f32() > 0.0);
    }

    #[test]
    fn pe_v_output_stays_in_unit_ball_field() {
        // Extreme Terms must saturate into the 9-bit field, never wrap.
        let lut = SqrtUnit::lut();
        let (px, py) = pe_v(
            PeVInputs {
                c_term: q(-60.0),
                r_term: q(60.0),
                b_term: q(60.0),
                c_px: q(0.996),
                c_py: q(-1.0),
                last_col: false,
                last_row: false,
            },
            &params(),
            &lut,
        );
        assert!(px.fits_in(P_BITS));
        assert!(py.fits_in(P_BITS));
        assert!(px.to_f32().abs() <= 1.0);
    }

    #[test]
    fn pe_v_moves_toward_gradient() {
        let lut = SqrtUnit::lut();
        let (px, _) = pe_v(
            PeVInputs {
                c_term: q(0.0),
                r_term: q(2.0), // positive Term1
                b_term: q(0.0),
                c_px: q(0.0),
                c_py: q(0.0),
                last_col: false,
                last_row: false,
            },
            &params(),
            &lut,
        );
        // p steps by sr*t1/(1+sr*|t|) = 0.5/1.5 = 1/3.
        assert!((px.to_f32() - 1.0 / 3.0).abs() < 0.02);
    }
}
