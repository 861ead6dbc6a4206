//! End-to-end flow accuracy across motion models and solver backends.

use chambolle::core::{ChambolleParams, TvL1Params, TvL1Solver};
use chambolle::imaging::{average_endpoint_error, render_pair, Motion, NoiseTexture};

fn params() -> TvL1Params {
    TvL1Params::new(38.0, ChambolleParams::with_iterations(25), 3, 4, 4).expect("valid params")
}

#[test]
fn recovers_translation_with_subpixel_accuracy() {
    let scene = NoiseTexture::new(1);
    let pair = render_pair(&scene, 96, 72, Motion::Translation { du: 2.5, dv: -1.25 });
    let (flow, _) = TvL1Solver::sequential(params())
        .flow(&pair.i0, &pair.i1)
        .expect("valid frames");
    let aee = average_endpoint_error(&flow, &pair.truth);
    assert!(aee < 0.25, "AEE {aee} too high for pure translation");
}

#[test]
fn recovers_rotation_and_zoom() {
    let scene = NoiseTexture::new(2);
    let motion = Motion::Similarity {
        cx: 48.0,
        cy: 36.0,
        angle: 0.04,
        scale: 1.02,
    };
    let pair = render_pair(&scene, 96, 72, motion);
    let (flow, _) = TvL1Solver::sequential(params())
        .flow(&pair.i0, &pair.i1)
        .expect("valid frames");
    let aee = average_endpoint_error(&flow, &pair.truth);
    // Non-uniform flow is harder for the TV prior; still sub-pixel.
    assert!(aee < 0.6, "AEE {aee} too high for similarity motion");
}

#[test]
fn banded_backend_flow_is_bit_identical() {
    use chambolle::core::{ExecCtx, NumericsPolicy, ParallelSolver};

    let scene = NoiseTexture::new(3);
    let pair = render_pair(&scene, 80, 60, Motion::Translation { du: 1.0, dv: 0.5 });
    let p = params();
    // Sequential-vs-banded bit identity is the Exact-tier contract; pin the
    // tier so the suite also passes under `CHAMBOLLE_NUMERICS=fast`.
    let exact = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
    let (seq, _) = TvL1Solver::sequential(p)
        .flow_with_ctx(&pair.i0, &pair.i1, None, &exact)
        .expect("valid frames");
    let (banded, _) = TvL1Solver::with_backend(p, ParallelSolver::new(2))
        .flow_with_ctx(&pair.i0, &pair.i1, None, &exact)
        .expect("valid frames");
    assert_eq!(seq.u1.as_slice(), banded.u1.as_slice());
    assert_eq!(seq.u2.as_slice(), banded.u2.as_slice());
}

#[test]
fn flow_error_decreases_with_inner_iterations() {
    let scene = NoiseTexture::new(4);
    let pair = render_pair(&scene, 80, 60, Motion::Translation { du: 3.0, dv: 0.0 });
    let mut last_aee = f64::INFINITY;
    for iters in [2u32, 10, 40] {
        let p = TvL1Params::new(38.0, ChambolleParams::with_iterations(iters), 3, 4, 4)
            .expect("valid params");
        let (flow, _) = TvL1Solver::sequential(p)
            .flow(&pair.i0, &pair.i1)
            .expect("valid frames");
        let aee = average_endpoint_error(&flow, &pair.truth);
        assert!(
            aee < last_aee * 1.2,
            "error should not grow materially with more inner iterations: {last_aee} -> {aee}"
        );
        last_aee = aee;
    }
    assert!(last_aee < 0.5, "final AEE {last_aee}");
}
