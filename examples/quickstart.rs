//! Quickstart: estimate TV-L1 optical flow between two synthetic frames,
//! check it against the analytic ground truth, write a Middlebury-style
//! flow visualization, and leave a machine-readable telemetry run report.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use std::sync::Arc;

use chambolle::core::{ExecCtx, ParallelSolver, TvL1Params, TvL1Solver};
use chambolle::imaging::{
    average_endpoint_error, colorize_flow, render_pair, write_ppm, Motion, NoiseTexture,
};
use chambolle::par::ThreadPool;
use chambolle::telemetry::json::JsonValue;
use chambolle::telemetry::report::RunReport;
use chambolle::telemetry::Telemetry;

fn main() -> chambolle::Result<()> {
    // 1. Render a textured scene moving by (2.0, -1.0) pixels per frame.
    let scene = NoiseTexture::new(42);
    let motion = Motion::Translation { du: 2.0, dv: -1.0 };
    let pair = render_pair(&scene, 128, 96, motion);

    // 2. Estimate the flow with the TV-L1 solver. The inner Chambolle
    //    backend is the banded parallel solver on a 2-thread pool, which
    //    also runs the pyramid and warps. The context carries a telemetry
    //    handle, so the run leaves a metrics report (see the
    //    `fpga_frame_rate` example for the simulated accelerator backend).
    let telemetry = Telemetry::null();
    let pool = Arc::new(ThreadPool::new(2).with_telemetry(telemetry.clone()));
    let solver = TvL1Solver::with_backend(
        TvL1Params::default(),
        ParallelSolver::with_pool(Arc::clone(&pool)),
    );
    let ctx = ExecCtx::default()
        .with_telemetry(telemetry.clone())
        .with_pool(pool);
    let (flow, stats) = solver.flow_with_ctx(&pair.i0, &pair.i1, None, &ctx)?;

    // 3. Compare against the ground truth.
    let aee = average_endpoint_error(&flow, &pair.truth);
    let (mu, mv) = flow.mean();
    println!("true motion:      (2.00, -1.00) px");
    println!("mean estimate:    ({mu:.2}, {mv:.2}) px");
    println!("avg endpoint err: {aee:.3} px");
    println!("solver profile:   {stats}");

    // 4. Visualize.
    std::fs::create_dir_all("target/examples-output")?;
    let rgb = colorize_flow(&flow, None);
    let path = "target/examples-output/quickstart_flow.ppm";
    write_ppm(path, &rgb)?;
    println!("flow visualization written to {path}");

    // 5. Leave a machine-readable run report: every metric the telemetry
    //    layer collected (solver iterations, pool tasks and broadcasts, the
    //    kernel backend, span timings) plus a free-form result section.
    let mut report = RunReport::from_telemetry("quickstart", &telemetry);
    report.add_section(
        "result",
        JsonValue::Object(vec![
            ("mean_u".into(), f64::from(mu).into()),
            ("mean_v".into(), f64::from(mv).into()),
            ("aee_px".into(), aee.into()),
        ]),
    );
    let report_path = "target/examples-output/quickstart_telemetry.json";
    report.save(report_path)?;
    println!("telemetry report written to {report_path}");

    if aee > 0.5 {
        return Err(format!("flow quality regressed: AEE = {aee:.3}").into());
    }
    Ok(())
}
