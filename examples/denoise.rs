//! Plain ROF/TV denoising with the Chambolle solver — the algorithm the
//! accelerator implements, outside the optical-flow wrapper — comparing the
//! sequential, banded-parallel and simulated-FPGA backends.
//!
//! ```text
//! cargo run --example denoise --release
//! ```

use chambolle::core::{rof_energy, ChambolleParams, ParallelSolver, SequentialSolver, TvDenoiser};
use chambolle::hwsim::{AccelConfig, AccelDenoiser, ChambolleAccel};
use chambolle::imaging::{write_pgm, Grid, NoiseTexture, Scene};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() -> chambolle::Result<()> {
    // A textured image with additive noise.
    let (w, h) = (160usize, 120usize);
    let clean = NoiseTexture::with_octaves(3, &[(32.0, 1.0), (16.0, 0.4)]).render(w, h);
    let mut rng = StdRng::seed_from_u64(1);
    let noisy = Grid::from_fn(w, h, |x, y| {
        (clean[(x, y)] + rng.gen_range(-0.15f32..0.15)).clamp(0.0, 1.0)
    });

    let params = ChambolleParams::with_iterations(120);
    let backends: Vec<Box<dyn TvDenoiser>> = vec![
        Box::new(SequentialSolver::new()),
        Box::new(ParallelSolver::new(2)),
        Box::new(AccelDenoiser::new(ChambolleAccel::new(
            AccelConfig::default(),
        ))),
    ];

    let e_noisy = rof_energy(&noisy, &noisy, params.theta);
    println!("ROF energy of the noisy input: {e_noisy:.1}");
    std::fs::create_dir_all("target/examples-output")?;
    write_pgm("target/examples-output/denoise_input.pgm", &noisy)?;

    let mut reference: Option<Grid<f32>> = None;
    for backend in &backends {
        let u = backend.denoise(&noisy, &params);
        let e = rof_energy(&u, &noisy, params.theta);
        let note = match (&reference, backend.name()) {
            (Some(seq), "parallel") => {
                if seq.as_slice() == u.as_slice() {
                    " (bit-identical to sequential)"
                } else {
                    " (MISMATCH vs sequential!)"
                }
            }
            (Some(_), "fpga-sim") => " (13/9-bit fixed-point datapath)",
            _ => "",
        };
        println!("{:<12} energy {e:>10.1}{note}", backend.name());
        write_pgm(
            format!("target/examples-output/denoise_{}.pgm", backend.name()),
            &u,
        )?;
        if backend.name() == "sequential" {
            if e >= e_noisy {
                return Err("denoising failed to reduce the ROF energy".into());
            }
            reference = Some(u);
        }
    }
    println!("outputs written to target/examples-output/denoise_*.pgm");
    Ok(())
}
