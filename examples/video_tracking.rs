//! Track optical flow across a video sequence with temporal warm starting —
//! the motion-estimation/compensation pipeline of the paper's introduction,
//! where a new flow field is needed for every consecutive frame pair.
//!
//! ```text
//! cargo run --example video_tracking --release
//! ```

use chambolle::core::{ChambolleParams, ExecCtx, TvL1Params, TvL1Solver, VideoFlowTracker};
use chambolle::imaging::{average_endpoint_error, render_sequence, Motion, NoiseTexture};

fn main() -> chambolle::Result<()> {
    let (w, h) = (96usize, 72usize);
    let motion = Motion::Translation { du: 3.0, dv: 1.5 };
    let frames = render_sequence(&NoiseTexture::new(99), w, h, motion, 6);
    let truth = motion.ground_truth(w, h);

    // A deliberately lightweight per-pair configuration (video rates
    // matter): one warp and a shallow pyramid cannot capture 3px motion
    // from scratch — the temporal prior does the heavy lifting.
    let params = TvL1Params::new(38.0, ChambolleParams::with_iterations(20), 1, 2, 2)?;

    println!(
        "tracking {} consecutive pairs (3.0, 1.5) px/frame:",
        frames.len() - 1
    );
    let mut tracker = VideoFlowTracker::new(TvL1Solver::sequential(params));
    let cold_solver = TvL1Solver::sequential(params);
    let ctx = ExecCtx::default();
    for t in 0..frames.len() - 1 {
        let warm = tracker.next_flow(&frames[t], &frames[t + 1], &ctx)?;
        let (cold, _) = cold_solver.flow(&frames[t], &frames[t + 1])?;
        println!(
            "  pair {t}->{}: AEE warm {:.3} px | cold {:.3} px",
            t + 1,
            average_endpoint_error(&warm, &truth),
            average_endpoint_error(&cold, &truth),
        );
        // The cold solver is stateless; it is reused only for the comparison.
        std::hint::black_box(cold);
    }

    let final_err =
        average_endpoint_error(tracker.last_flow().expect("pairs were processed"), &truth);
    println!("final warm-tracked AEE: {final_err:.3} px");
    if final_err > 0.5 {
        return Err(format!("tracking drifted: AEE {final_err:.3}").into());
    }
    Ok(())
}
