//! The telemetry layer's zero-cost contract: instrumenting a solver with a
//! disabled (or enabled-but-null) telemetry handle must not change a single
//! bit of the numerical output. The instrumented entry points delegate to the
//! same code as the plain ones, so any divergence here means an observability
//! hook leaked into the datapath.

use chambolle::core::{
    chambolle_denoise, chambolle_denoise_monitored, chambolle_denoise_monitored_with_ctx,
    chambolle_iterate_tiled_with_ctx, recover_u, ChambolleParams, DualField, ExecCtx, TileConfig,
};
use chambolle::imaging::{NoiseTexture, Scene};
use chambolle::telemetry::{names, Telemetry};

#[test]
fn disabled_telemetry_solver_output_is_bit_identical() {
    let v = NoiseTexture::new(41).render(96, 80);
    let params = ChambolleParams::paper(30);

    let (u_plain, p_plain) = chambolle_denoise(&v, &params);
    let report_plain = chambolle_denoise_monitored(&v, &params, 10, 0.0);
    let monitored = |telemetry: Telemetry| {
        let ctx = ExecCtx::default().with_telemetry(telemetry);
        chambolle_denoise_monitored_with_ctx(&v, &params, 10, 0.0, &ctx)
            .expect("no cancellation token installed")
    };
    let report_disabled = monitored(Telemetry::disabled());
    let report_null = monitored(Telemetry::null());

    for (label, report) in [("disabled", &report_disabled), ("null", &report_null)] {
        assert_eq!(
            report_plain.u.as_slice(),
            report.u.as_slice(),
            "{label}: u drifted"
        );
        assert_eq!(report_plain.history, report.history, "{label}: trajectory");
        assert_eq!(
            report_plain.iterations_run, report.iterations_run,
            "{label}: iteration count"
        );
    }
    // The monitored path itself matches the unmonitored solver exactly.
    assert_eq!(u_plain.as_slice(), report_plain.u.as_slice());
    assert_eq!(p_plain.px.as_slice(), report_plain.p.px.as_slice());
}

#[test]
fn disabled_telemetry_tiled_solver_is_bit_identical() {
    let v = NoiseTexture::new(42).render(150, 110);
    let params = ChambolleParams::paper(7);
    let cfg = TileConfig::paper_hardware(3).expect("valid config");

    let mut p_plain = DualField::zeros(150, 110);
    chambolle_iterate_tiled_with_ctx(&mut p_plain, &v, &params, 7, &cfg, &ExecCtx::default())
        .expect("no cancellation token installed");

    for (label, telemetry) in [
        ("disabled", Telemetry::disabled()),
        ("null", Telemetry::null()),
    ] {
        let mut p_inst = DualField::zeros(150, 110);
        let ctx = ExecCtx::default().with_telemetry(telemetry);
        chambolle_iterate_tiled_with_ctx(&mut p_inst, &v, &params, 7, &cfg, &ctx)
            .expect("no cancellation token installed");
        assert_eq!(p_plain.px.as_slice(), p_inst.px.as_slice(), "{label}: px");
        assert_eq!(p_plain.py.as_slice(), p_inst.py.as_slice(), "{label}: py");
        assert_eq!(
            recover_u(&v, &p_plain, params.theta).as_slice(),
            recover_u(&v, &p_inst, params.theta).as_slice(),
            "{label}: u"
        );
    }
}

#[test]
fn enabled_telemetry_observes_without_perturbing() {
    // The flip side of the no-op test: with a live handle the counters are
    // real, and the output still matches the uninstrumented run.
    let v = NoiseTexture::new(43).render(96, 80);
    let params = ChambolleParams::paper(20);
    let telemetry = Telemetry::null();
    let ctx = ExecCtx::default().with_telemetry(telemetry.clone());
    let report = chambolle_denoise_monitored_with_ctx(&v, &params, 5, 0.0, &ctx)
        .expect("no cancellation token installed");
    let baseline = chambolle_denoise_monitored(&v, &params, 5, 0.0);
    assert_eq!(report.u.as_slice(), baseline.u.as_slice());

    let snap = telemetry.snapshot();
    assert_eq!(snap.counter(names::SOLVER_ITERATIONS), Some(20));
    assert_eq!(snap.counter(names::SOLVER_GAP_CHECKS), Some(4));
    assert!(snap.gauge(names::SOLVER_FINAL_GAP).is_some());
}
