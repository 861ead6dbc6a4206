//! Fault tolerance demo: runs the simulated FPGA accelerator while a
//! deterministic injector flips BRAM bits, corrupts sqrt-LUT entries and
//! glitches the PE datapath — then shows the guard detecting every upset and
//! recovering the exact fault-free output.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use chambolle::core::{ChambolleParams, GuardedDenoiser, ParallelSolver};
use chambolle::hwsim::{AccelConfig, AccelGuardConfig, ChambolleAccel, FaultConfig, FaultInjector};
use chambolle::imaging::{NoiseTexture, Scene};

fn main() -> chambolle::Result<()> {
    let v = NoiseTexture::new(2011).render(128, 96);
    let params = ChambolleParams::with_iterations(8);

    // Fault-free reference on the unguarded accelerator.
    let mut accel = ChambolleAccel::new(AccelConfig::default());
    let (clean, _, clean_stats) = accel.denoise_pair(&v, None, &params)?;

    // Same frame with upsets raining on the state BRAMs, the sqrt LUTs and
    // the PE datapath.
    let mut accel = ChambolleAccel::new(AccelConfig::default());
    let mut injector = FaultInjector::new(FaultConfig {
        seed: 0xDA7E_2011,
        bram_flip_rate: 1e-3,
        lut_rate: 1e-4,
        datapath_rate: 1e-4,
    });
    let out = accel.denoise_pair_guarded(
        &v,
        None,
        &params,
        &mut injector,
        &AccelGuardConfig::default(),
    )?;

    println!("injected faults : {}", injector.injected());
    println!("detections      : {}", out.report.detections);
    println!("degraded        : {}", out.report.degraded);
    println!(
        "extra window loads for recovery: {}",
        out.stats.window_loads - clean_stats.window_loads
    );
    println!("\nrecovery log:");
    for action in &out.report.actions {
        println!("  - {action}");
    }

    let exact = out.u1.as_slice() == clean.as_slice();
    println!("\noutput bit-identical to fault-free run: {exact}");
    assert!(exact, "guarded accelerator must recover exactly");

    // The software pipeline has the same shape: a GuardedDenoiser wraps any
    // backend, scrubs NaN/Inf inputs and falls back to the sequential
    // reference if the backend misbehaves.
    let mut poisoned = v.clone();
    poisoned[(5, 5)] = f32::NAN;
    poisoned[(64, 40)] = f32::INFINITY;
    let guard = GuardedDenoiser::new(ParallelSolver::new(2));
    let (u, report) = guard.denoise_checked(&poisoned, &params)?;
    println!("\nsoftware guard: {report}");
    assert!(u.as_slice().iter().all(|x| x.is_finite()));
    Ok(())
}
