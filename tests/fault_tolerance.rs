//! End-to-end acceptance tests for the fault-injection harness and the
//! guarded solver pipeline.
//!
//! The contract under test: with faults injected at a nonzero rate, the
//! guarded accelerator detects every injected corruption that lands in a
//! profitable region, recovers, and produces output **bit-identical** to the
//! fault-free sequential reference; with the rate at zero the guarded path
//! changes nothing.

use chambolle::core::{
    ChambolleParams, ExecCtx, GuardedDenoiser, NumericsPolicy, ParallelSolver, SequentialSolver,
    TvDenoiser, TvL1Params, TvL1Solver,
};
use chambolle::hwsim::{
    dequantize, fixed_chambolle_reference, quantize_input, AccelConfig, AccelGuardConfig,
    ChambolleAccel, FaultConfig, FaultInjector, HwParams,
};
use chambolle::imaging::{render_pair, Grid, Motion, NoiseTexture, Scene};

fn noisy_frame(w: usize, h: usize) -> Grid<f32> {
    NoiseTexture::new(77).render(w, h)
}

/// The fault-free sequential fixed-point reference the accelerator must
/// match bit-for-bit, faults or not.
fn sequential_reference(v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
    let hw = HwParams::standard(params.iterations);
    dequantize(&fixed_chambolle_reference(&quantize_input(v), &hw).u)
}

#[test]
fn faulty_guarded_accel_matches_sequential_reference_exactly() {
    let v = noisy_frame(150, 120);
    let params = ChambolleParams::with_iterations(6);
    let reference = sequential_reference(&v, &params);

    let mut accel = ChambolleAccel::new(AccelConfig::default());
    let mut injector = FaultInjector::new(FaultConfig {
        seed: 41,
        bram_flip_rate: 8e-4,
        lut_rate: 5e-5,
        datapath_rate: 5e-5,
    });
    let out = accel
        .denoise_pair_guarded(
            &v,
            None,
            &params,
            &mut injector,
            &AccelGuardConfig::default(),
        )
        .unwrap();

    assert!(injector.injected() > 0, "rates too low: no faults fired");
    assert!(out.report.detections > 0, "faults fired but none detected");
    assert_eq!(
        out.u1.as_slice(),
        reference.as_slice(),
        "guarded output must be bit-identical to the fault-free reference"
    );
}

#[test]
fn zero_rate_guard_is_behaviorally_invisible() {
    let v = noisy_frame(100, 90);
    let params = ChambolleParams::with_iterations(5);

    let mut plain = ChambolleAccel::new(AccelConfig::default());
    let (u_plain, _, stats_plain) = plain.denoise_pair(&v, None, &params).unwrap();

    let mut guarded = ChambolleAccel::new(AccelConfig::default());
    let mut injector = FaultInjector::new(FaultConfig::quiet(9));
    let out = guarded
        .denoise_pair_guarded(
            &v,
            None,
            &params,
            &mut injector,
            &AccelGuardConfig::default(),
        )
        .unwrap();

    assert_eq!(out.u1.as_slice(), u_plain.as_slice());
    assert_eq!(out.stats.window_loads, stats_plain.window_loads);
    assert_eq!(out.stats.cycles, stats_plain.cycles);
    assert!(out.report.is_clean());
}

#[test]
fn software_guard_zero_faults_matches_unguarded_banded() {
    let v = noisy_frame(96, 72);
    let params = ChambolleParams::with_iterations(30);

    let unguarded = ParallelSolver::new(2).denoise(&v, &params);
    let (guarded, report) = GuardedDenoiser::new(ParallelSolver::new(2))
        .denoise_checked(&v, &params)
        .unwrap();

    assert!(report.is_clean());
    assert_eq!(guarded.as_slice(), unguarded.as_slice());
}

#[test]
fn software_guard_scrubs_poisoned_input_and_converges() {
    let mut v = noisy_frame(80, 60);
    v[(3, 3)] = f32::NAN;
    v[(40, 30)] = f32::NEG_INFINITY;
    v[(79, 59)] = f32::INFINITY;
    let params = ChambolleParams::with_iterations(20);

    let guard = GuardedDenoiser::new(ParallelSolver::new(2));
    let (u, report) = guard.denoise_checked(&v, &params).unwrap();

    assert_eq!(report.detections, 1, "one scrub pass expected");
    assert!(!report.degraded);
    assert!(u.as_slice().iter().all(|x| x.is_finite()));
}

#[test]
fn tvl1_flow_works_with_a_guarded_backend() {
    let scene = NoiseTexture::new(42);
    let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 1.0, dv: 0.5 });
    let tvl1 = TvL1Params::default();

    let (flow_guarded, _) =
        TvL1Solver::with_backend(tvl1, GuardedDenoiser::new(SequentialSolver::new()))
            .flow(&pair.i0, &pair.i1)
            .unwrap();
    let (flow_plain, _) = TvL1Solver::sequential(tvl1)
        .flow(&pair.i0, &pair.i1)
        .unwrap();

    assert_eq!(
        flow_guarded, flow_plain,
        "a clean guarded backend must not change the flow"
    );
}

#[test]
fn guarded_backend_keeps_the_context_numerics_tier() {
    // The guard hands the flow's context to its primary, so a guarded
    // backend runs the inner solves at the tier the context names, whatever
    // CHAMBOLLE_NUMERICS says.
    let scene = NoiseTexture::new(42);
    let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 1.0, dv: 0.5 });
    let tvl1 = TvL1Params::default();
    for tier in [NumericsPolicy::Exact, NumericsPolicy::Fast] {
        let ctx = ExecCtx::default().with_numerics(tier);
        let (flow_guarded, _) =
            TvL1Solver::with_backend(tvl1, GuardedDenoiser::new(ParallelSolver::new(2)))
                .flow_with_ctx(&pair.i0, &pair.i1, None, &ctx)
                .unwrap();
        let (flow_bare, _) = TvL1Solver::with_backend(tvl1, ParallelSolver::new(2))
            .flow_with_ctx(&pair.i0, &pair.i1, None, &ctx)
            .unwrap();
        assert_eq!(
            flow_guarded, flow_bare,
            "the guard must run its primary at the {tier:?} tier"
        );
    }
}
