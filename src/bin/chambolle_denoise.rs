//! `chambolle_denoise` — ROF/TV denoising of a PGM image with the Chambolle
//! solver (the exact computation the DATE'11 accelerator performs).
//!
//! ```text
//! chambolle_denoise IN.pgm OUT.pgm [options]
//!   --iterations N   Chambolle iterations                  [100]
//!   --theta T        coupling constant θ                   [0.25]
//!   --backend B      seq | fpga                            [seq]
//!   --threads N      workers of the `seq` solver's pool    [threads knob: 2]
//!                    (fpga and --gap-tol ignore it)
//!   --gap-tol G      stop early once the duality gap < G (seq backend only)
//!   --telemetry P    write a JSON run report (metrics + run summary) to P
//!   --profile P      load a tuning profile (chambolle.tuning_profile.v2,
//!                    written by the `tune` bin); takes precedence over the
//!                    CHAMBOLLE_PROFILE environment variable. A missing or
//!                    invalid profile falls back to defaults with a warning.
//! ```
//!
//! `seq` is the banded parallel solver on one pool of `--threads` workers,
//! bit-identical to the sequential loop at every width; a 1-thread pool
//! runs inline, so `--threads 1` is that loop. `fpga` runs the cycle-level
//! simulation of the paper's accelerator.

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
use chambolle::tune::Tunables;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    input: String,
    output: String,
    iterations: u32,
    theta: f32,
    backend: Backend,
    threads: Option<usize>,
    gap_tol: Option<f64>,
    telemetry: Option<String>,
    profile: Option<String>,
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
        threads: None,
        gap_tol: None,
        telemetry: None,
        profile: None,
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
                if threads == 0 || threads > Tunables::MAX_THREADS {
                    return Err(format!(
                        "--threads must be in 1..={}",
                        Tunables::MAX_THREADS
                    ));
                }
                opts.threads = Some(threads);
            }
            "--gap-tol" => {
                opts.gap_tol = Some(
                    value("--gap-tol")?
                        .parse()
                        .map_err(|_| "invalid --gap-tol".to_string())?,
                )
            }
            "--telemetry" => opts.telemetry = Some(value("--telemetry")?),
            "--profile" => opts.profile = Some(value("--profile")?),
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

/// Applies `--profile` (taking precedence over `CHAMBOLLE_PROFILE`): loads
/// the profile with total fallback to defaults and installs the result as
/// the process-wide active schedule. Never fails; a bad profile warns.
fn apply_profile(path: &str, telemetry: &Telemetry) {
    let (tunables, err) = chambolle::tune::load_with_fallback(Some(path), telemetry);
    if let Some(err) = err {
        eprintln!("warning: tuning profile {path:?} ignored: {err}");
    }
    let _ = chambolle::tune::install(tunables);
}

fn run(opts: &Options) -> chambolle::Result<()> {
    let v = read_pgm(&opts.input)?;
    let params = ChambolleParams::new(opts.theta, opts.theta / 4.0, opts.iterations)?;
    let telemetry = if opts.telemetry.is_some() {
        Telemetry::null()
    } else {
        Telemetry::disabled()
    };
    if let Some(path) = &opts.profile {
        apply_profile(path, &telemetry);
    }

    let u = if let Some(tol) = opts.gap_tol {
        let ctx = ExecCtx::default().with_telemetry(telemetry.clone());
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
                // The `threads` knob is read only now, after `--profile`.
                let threads = opts
                    .threads
                    .unwrap_or_else(|| chambolle::tune::active().threads);
                let pool = ThreadPool::new(threads).with_telemetry(telemetry.clone());
                let ctx = ExecCtx::default().with_telemetry(telemetry.clone());
                ParallelSolver::with_pool(Arc::new(pool)).denoise_with_ctx(&v, &params, &ctx)
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
            eprintln!("usage: chambolle_denoise IN.pgm OUT.pgm [--iterations N] [--theta T] [--backend seq|fpga] [--threads N] [--gap-tol G] [--telemetry REPORT.json] [--profile PROFILE.json]");
            eprintln!("  --threads N sizes the pool of the seq solver (default: the threads knob, 2 unless a profile sets it); every width writes the same pixels, and fpga and --gap-tol ignore it");
            eprintln!("  --profile P loads a chambolle.tuning_profile.v2 written by the tune bin (takes precedence over CHAMBOLLE_PROFILE; invalid profiles fall back to defaults with a warning)");
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
        assert_eq!(o.threads, None);
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
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.gap_tol, Some(0.1));
        assert_eq!(o.telemetry.as_deref(), Some("report.json"));
        assert_eq!(o.profile, None);

        let o = parse_args(&args(&["in.pgm", "out.pgm", "--profile", "p.json"])).unwrap();
        assert_eq!(o.profile.as_deref(), Some("p.json"));
        assert!(parse_args(&args(&["in.pgm", "out.pgm", "--profile"])).is_err());
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
        let widest = Tunables::MAX_THREADS.to_string();
        let o = parse_args(&args(&["a", "b", "--threads", &widest])).unwrap();
        assert_eq!(o.threads, Some(Tunables::MAX_THREADS));
    }
}
