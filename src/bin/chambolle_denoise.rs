//! `chambolle_denoise` — ROF/TV denoising of a PGM image with the Chambolle
//! solver (the exact computation the DATE'11 accelerator performs).
//!
//! ```text
//! chambolle_denoise IN.pgm OUT.pgm [options]
//!   --iterations N   Chambolle iterations                  [100]
//!   --theta T        coupling constant θ                   [0.25]
//!   --backend B      seq | fpga                            [seq]
//!   --threads N      workers of the software solver's pool [available
//!                    parallelism, at most 1024] (fpga ignores it)
//!   --gap-tol G      stop early once the duality gap < G (software solver)
//!   --telemetry P    write a JSON run report (metrics + run summary) to P
//! ```
//!
//! `seq` is the banded parallel solver on one pool of `--threads` workers,
//! bit-identical to the sequential loop at every width; a 1-thread pool
//! runs inline, so `--threads 1` is that loop. `--gap-tol` runs the same
//! pool, checking the duality gap every 10 iterations. `fpga` runs the
//! cycle-level simulation of the paper's accelerator.

use std::process::ExitCode;
use std::sync::Arc;

use chambolle::core::{
    chambolle_denoise_monitored_with_ctx, rof_energy, ChambolleParams, ExecCtx, ParallelSolver,
    TvDenoiser,
};
use chambolle::hwsim::{AccelConfig, AccelDenoiser, ChambolleAccel};
use chambolle::imaging::{read_pgm, write_pgm};
use chambolle::par::ThreadPool;
use chambolle::telemetry::json::JsonValue;
use chambolle::telemetry::report::RunReport;
use chambolle::telemetry::Telemetry;
use chambolle::{default_threads, MAX_THREADS};

#[derive(Debug, Clone, PartialEq)]
struct Options {
    input: String,
    output: String,
    iterations: u32,
    theta: f32,
    backend: Backend,
    threads: usize,
    gap_tol: Option<f64>,
    telemetry: Option<String>,
}

/// The `--backend` choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// `seq`: the banded software solver.
    Software,
    /// `fpga`: the simulated accelerator.
    Fpga,
}

impl Backend {
    /// The `--backend` token, echoed in the run report.
    fn as_str(self) -> &'static str {
        match self {
            Backend::Software => "seq",
            Backend::Fpga => "fpga",
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut opts = Options {
        input: String::new(),
        output: String::new(),
        iterations: 100,
        theta: 0.25,
        backend: Backend::Software,
        threads: default_threads(),
        gap_tol: None,
        telemetry: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--iterations" => {
                opts.iterations = value("--iterations")?
                    .parse()
                    .map_err(|_| "invalid --iterations".to_string())?
            }
            "--theta" => {
                opts.theta = value("--theta")?
                    .parse()
                    .map_err(|_| "invalid --theta".to_string())?
            }
            "--backend" => {
                opts.backend = match value("--backend")?.as_str() {
                    "seq" => Backend::Software,
                    "fpga" => Backend::Fpga,
                    other => return Err(format!("unknown backend {other:?}")),
                }
            }
            "--threads" => {
                let threads: usize = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads".to_string())?;
                if threads == 0 || threads > MAX_THREADS {
                    return Err(format!("--threads must be in 1..={MAX_THREADS}"));
                }
                opts.threads = threads;
            }
            "--gap-tol" => {
                opts.gap_tol = Some(
                    value("--gap-tol")?
                        .parse()
                        .map_err(|_| "invalid --gap-tol".to_string())?,
                )
            }
            "--telemetry" => opts.telemetry = Some(value("--telemetry")?),
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "expected input and output paths, got {} positionals",
            positional.len()
        ));
    }
    opts.input = positional.remove(0);
    opts.output = positional.remove(0);
    Ok(opts)
}

fn run(opts: &Options) -> chambolle::Result<()> {
    let v = read_pgm(&opts.input)?;
    let params = ChambolleParams::new(opts.theta, opts.theta / 4.0, opts.iterations)?;
    let telemetry = if opts.telemetry.is_some() {
        Telemetry::null()
    } else {
        Telemetry::disabled()
    };
    let pool = Arc::new(ThreadPool::new(opts.threads).with_telemetry(telemetry.clone()));
    let ctx = ExecCtx::default()
        .with_telemetry(telemetry.clone())
        .with_pool(Arc::clone(&pool));

    let u = if let Some(tol) = opts.gap_tol {
        let report = chambolle_denoise_monitored_with_ctx(&v, &params, 10, tol, &ctx)?;
        eprintln!(
            "converged in {} iterations (duality gap {:.4})",
            report.iterations_run,
            report.final_gap()
        );
        report.u
    } else {
        match opts.backend {
            Backend::Software => {
                ParallelSolver::with_pool(pool).denoise_with_ctx(&v, &params, &ctx)
            }
            Backend::Fpga => {
                let mut accel = ChambolleAccel::new(AccelConfig::default());
                accel.attach_telemetry(telemetry.clone());
                AccelDenoiser::new(accel).denoise(&v, &params)
            }
        }
    };

    let energy_in = rof_energy(&v, &v, params.theta);
    let energy_out = rof_energy(&u, &v, params.theta);
    eprintln!("ROF energy: {energy_in:.2} -> {energy_out:.2}");
    write_pgm(&opts.output, &u)?;
    eprintln!("wrote {}", opts.output);

    if let Some(path) = &opts.telemetry {
        let (w, h) = v.dims();
        let mut report = RunReport::from_telemetry("chambolle_denoise", &telemetry);
        report.add_section(
            "run",
            JsonValue::Object(vec![
                ("input".into(), opts.input.as_str().into()),
                ("output".into(), opts.output.as_str().into()),
                ("backend".into(), opts.backend.as_str().into()),
                ("width".into(), (w as u64).into()),
                ("height".into(), (h as u64).into()),
                ("iterations".into(), u64::from(params.iterations).into()),
                ("theta".into(), f64::from(params.theta).into()),
                ("energy_in".into(), energy_in.into()),
                ("energy_out".into(), energy_out.into()),
            ]),
        );
        report.save(path)?;
        eprintln!("wrote telemetry report {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            eprintln!("usage: chambolle_denoise IN.pgm OUT.pgm [--iterations N] [--theta T] [--backend seq|fpga] [--threads N] [--gap-tol G] [--telemetry REPORT.json]");
            eprintln!("  --threads N sizes the pool of the software solver, seq and --gap-tol (default: the available parallelism, at most {MAX_THREADS}); every width writes the same pixels, and fpga ignores it");
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults_and_options() {
        let o = parse_args(&args(&["in.pgm", "out.pgm"])).unwrap();
        assert_eq!(o.iterations, 100);
        assert_eq!(o.backend, Backend::Software);
        assert_eq!(o.threads, default_threads());
        assert_eq!(o.gap_tol, None);

        let o = parse_args(&args(&[
            "in.pgm",
            "out.pgm",
            "--iterations",
            "50",
            "--theta",
            "0.5",
            "--backend",
            "fpga",
            "--threads",
            "4",
            "--gap-tol",
            "0.1",
            "--telemetry",
            "report.json",
        ]))
        .unwrap();
        assert_eq!(o.iterations, 50);
        assert_eq!(o.theta, 0.5);
        assert_eq!(o.backend, Backend::Fpga);
        assert_eq!(o.threads, 4);
        assert_eq!(o.gap_tol, Some(0.1));
        assert_eq!(o.telemetry.as_deref(), Some("report.json"));

        // No profile reaches a solve, so there is no `--profile` option.
        assert!(parse_args(&args(&["in.pgm", "out.pgm", "--profile", "p.json"])).is_err());
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&args(&["only-one"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--theta", "abc"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--bogus"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--threads", "x"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--backend", "quantum"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--backend", "tiled"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--backend"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--threads", "1025"])).is_err());
        let widest = MAX_THREADS.to_string();
        let o = parse_args(&args(&["a", "b", "--threads", &widest])).unwrap();
        assert_eq!(o.threads, MAX_THREADS);
    }
}
