//! The exactness contract of the auto-tuning subsystem: a tuning profile
//! reshapes the schedule (pool width, band divisor, kernel backend) but
//! never the pixels. Every schedule below must reproduce the sequential
//! solver's output bit for bit.

use std::sync::Arc;

use chambolle::core::{
    chambolle_denoise_with_ctx, ChambolleParams, ExecCtx, KernelBackend, NumericsPolicy,
    ParallelSolver, TvDenoiser,
};
use chambolle::imaging::{render_pair, Image, Motion, NoiseTexture};
use chambolle::par::ThreadPool;
use chambolle::telemetry::Telemetry;
use chambolle::tune::Tunables;

fn test_frame() -> Image {
    let scene = NoiseTexture::new(91);
    render_pair(&scene, 67, 53, Motion::Translation { du: 0.0, dv: 0.0 }).i0
}

/// Three-plus distinct schedules, spanning every knob the solver reads.
fn profiles() -> Vec<(&'static str, Tunables)> {
    vec![
        ("defaults", Tunables::default()),
        (
            "three_threads_scalar",
            Tunables {
                threads: 3,
                backend: Some(KernelBackend::Scalar),
                ..Tunables::default()
            },
        ),
        (
            "inline",
            Tunables {
                threads: 1,
                ..Tunables::default()
            },
        ),
        (
            "many_threads_fine_bands",
            Tunables {
                threads: 4,
                band_rows_divisor: 2,
                ..Tunables::default()
            },
        ),
    ]
}

/// Every profile's banded solve, on a pool of the profile's `threads`,
/// reproduces the sequential solver's pixels exactly — the contract that
/// makes auto-tuning safe to apply blindly at startup.
#[test]
fn every_profile_is_bit_identical_to_sequential() {
    let v = test_frame();
    let params = ChambolleParams::with_iterations(13);
    // Pixel neutrality is the *schedule* contract and holds at the Exact
    // tier; pin it so the suite also passes under `CHAMBOLLE_NUMERICS=fast`
    // (the Fast tier trades bit equality for tolerance by design).
    let exact = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
    let (reference, _) = chambolle_denoise_with_ctx(&v, &params, &exact).expect("no token");

    for (name, tunables) in profiles() {
        tunables
            .validate()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ctx = ExecCtx::from_tunables(tunables).with_numerics(NumericsPolicy::Exact);
        let pool = Arc::new(ThreadPool::new(tunables.threads));
        let u = ParallelSolver::with_pool(pool).denoise_with_ctx(&v, &params, &ctx);
        assert_eq!(
            u.as_slice(),
            reference.as_slice(),
            "profile {name} changed pixels"
        );
    }
}

/// `ExecCtx::from_tunables` threads the same schedule through the context
/// path: contexts built from different profiles are interchangeable
/// pixel-wise.
#[test]
fn contexts_from_different_profiles_are_interchangeable() {
    use chambolle::core::chambolle_denoise_monitored_with_ctx;

    let v = test_frame();
    let params = ChambolleParams::with_iterations(9);

    let mut outputs = Vec::new();
    for (name, tunables) in profiles() {
        // Interchangeability across schedules (including backend choices)
        // is an Exact-tier property; see the pixel-neutrality test above.
        let ctx = ExecCtx::from_tunables(tunables).with_numerics(NumericsPolicy::Exact);
        assert_eq!(ctx.tunables(), &tunables, "{name}: knobs must round-trip");
        let report = chambolle_denoise_monitored_with_ctx(&v, &params, 3, 0.0, &ctx)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        outputs.push((name, report.u));
    }
    let (first_name, first) = &outputs[0];
    for (name, u) in &outputs[1..] {
        assert_eq!(
            u.as_slice(),
            first.as_slice(),
            "ctx from {name} diverged from {first_name}"
        );
    }
}

/// `ExecCtx::auto` resolves the process-wide active schedule — in a test
/// run with no profile on disk that is the defaults — and always yields a
/// valid configuration (the total-fallback guarantee) with a pool of the
/// schedule's width.
#[test]
fn auto_context_always_yields_a_valid_schedule() {
    let ctx = ExecCtx::auto(Telemetry::null());
    ctx.tunables()
        .validate()
        .expect("auto context must carry a valid schedule");
    assert_eq!(ctx.tunables(), &chambolle::tune::active());
    let pool = ctx.pool().expect("auto attaches a pool");
    assert_eq!(pool.threads(), ctx.tunables().threads);
}
