//! Cross-crate contracts of the one fixed-point Algorithm 1
//! (`chambolle_fixed::fixed_denoise`):
//!
//! 1. **One loop behind two faces.** The hwsim full-frame reference unpacks
//!    its BRAM words into planes, runs the same solve and re-packs the
//!    result; every word of `u`, `px` and `py` must agree exactly with the
//!    planar call, on degenerate shapes too and with either square-root
//!    unit. The array simulator is tested bit-exact against that
//!    reference inside `chambolle-hwsim`.
//! 2. **Quantization error bound.** Against the `f32` solver of
//!    `chambolle-core`, the 13/9-bit packed format plus the LUT square
//!    root stays within the error budget the hwsim model established.

use chambolle::core::chambolle_denoise;
use chambolle::fixed::{fixed_denoise, FixedFrame, FixedSolverParams, SqrtUnit};
use chambolle::hwsim::{fixed_chambolle_reference_with, quantize_input, HwParams};
use chambolle::imaging::{Grid, NoiseTexture, Scene};

fn frame_of(v: &Grid<f32>) -> FixedFrame {
    FixedFrame::quantize(v.as_slice(), v.width(), v.height())
}

#[test]
fn planar_solver_is_bit_identical_to_hwsim_reference() {
    let shapes = [
        (16, 16, 8, 1u64),
        (33, 17, 12, 2),
        (8, 25, 30, 3),
        (1, 1, 5, 4),
        (1, 9, 7, 5),
        (9, 1, 7, 6),
        (2, 2, 9, 7),
    ];
    for unit in [SqrtUnit::lut(), SqrtUnit::non_restoring()] {
        for (w, h, iters, seed) in shapes {
            let v = NoiseTexture::new(seed).render(w, h);
            let reference = fixed_chambolle_reference_with(
                &quantize_input(&v),
                &HwParams::standard(iters),
                &unit,
            );

            let mut frame = frame_of(&v);
            let u = fixed_denoise(&mut frame, &FixedSolverParams::standard(), iters, &unit);

            let at = format!("{w}x{h}, {}", unit.name());
            assert_eq!(u.as_slice(), reference.u.as_slice(), "{at}: u");
            for (i, word) in reference.words.as_slice().iter().enumerate() {
                assert_eq!(frame.px()[i], word.px(), "{at}: px[{i}]");
                assert_eq!(frame.py()[i], word.py(), "{at}: py[{i}]");
            }
        }
    }
}

#[test]
fn planar_solver_matches_float_solver_within_quantization() {
    let v = NoiseTexture::new(7).render(32, 28);
    let iters = 40;

    let mut frame = frame_of(&v);
    let u_fixed = fixed_denoise(
        &mut frame,
        &FixedSolverParams::standard(),
        iters,
        &SqrtUnit::lut(),
    );

    let params = HwParams::standard(iters).to_chambolle_params();
    let (u_float, _) = chambolle_denoise(&v, &params);

    let max_err = u_fixed
        .iter()
        .zip(u_float.as_slice())
        .map(|(f, &r)| (f.to_f32() - r).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_err < 0.05,
        "fixed-vs-float max error {max_err} exceeds the quantization budget"
    );
}

#[test]
fn exact_sqrt_unit_tightens_the_error_bound() {
    // Design-choice ablation: swapping the LUT for the exact non-restoring
    // unit must not loosen the float error — the LUT is the only sqrt
    // approximation in the datapath.
    let v = NoiseTexture::new(11).render(24, 24);
    let iters = 30;
    let params = HwParams::standard(iters).to_chambolle_params();
    let (u_float, _) = chambolle_denoise(&v, &params);

    let err_with = |unit: &SqrtUnit| {
        let mut frame = frame_of(&v);
        let u = fixed_denoise(&mut frame, &FixedSolverParams::standard(), iters, unit);
        u.iter()
            .zip(u_float.as_slice())
            .map(|(f, &r)| (f.to_f32() - r).abs())
            .fold(0.0f32, f32::max)
    };
    let lut = err_with(&SqrtUnit::lut());
    let exact = err_with(&SqrtUnit::non_restoring());
    assert!(
        exact <= lut + 1.0 / 256.0,
        "exact sqrt {exact} vs LUT {lut}"
    );
}
