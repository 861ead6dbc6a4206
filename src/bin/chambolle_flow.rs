//! `chambolle_flow` — TV-L1 optical flow between two PGM frames.
//!
//! ```text
//! chambolle_flow I0.pgm I1.pgm [options]
//!   --out FILE.flo      write the flow in Middlebury .flo format
//!   --vis FILE.ppm      write a Middlebury color visualization
//!   --iterations N      Chambolle iterations per inner solve [30]
//!   --lambda L          data weight (unit-intensity scale)   [38]
//!   --warps N           warps per pyramid level              [5]
//!   --levels N          pyramid levels                       [5]
//!   --backend B         seq | fpga (TV-L1 inner)             [seq]
//!   --threads N         workers of the shared pool [threads knob: 2]; the
//!                       TV-L1 outer loop and the seq inner solver run on
//!                       it, bit-identical to the 1-thread result (hs/bm
//!                       estimators and the fpga inner solver ignore it)
//!   --method M          tvl1 | hs | bm (estimator)           [tvl1]
//!   --median            3x3 median filter between warps
//!   --telemetry P       write a JSON run report (metrics + run summary) to P
//!   --profile P         load a tuning profile (chambolle.tuning_profile.v2,
//!                       written by the `tune` bin); takes precedence over
//!                       CHAMBOLLE_PROFILE. A missing or invalid profile
//!                       falls back to defaults with a warning.
//! ```
//!
//! `seq` is the banded parallel solver, which solves the two flow
//! components side by side on the pool; a 1-thread pool runs inline, so
//! `--threads 1` solves them one after the other on the calling thread.

use std::process::ExitCode;
use std::sync::Arc;

use chambolle::core::{
    block_matching_flow, BlockMatchingParams, ChambolleParams, ExecCtx, HornSchunck,
    HornSchunckParams, ParallelSolver, TvDenoiser, TvL1Params, TvL1Solver,
};
use chambolle::hwsim::{AccelConfig, AccelDenoiser, ChambolleAccel};
use chambolle::imaging::FlowField;
use chambolle::imaging::{colorize_flow, read_pgm, write_flo, write_ppm};
use chambolle::par::ThreadPool;
use chambolle::telemetry::json::JsonValue;
use chambolle::telemetry::report::RunReport;
use chambolle::telemetry::Telemetry;
use chambolle::tune::Tunables;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    input0: String,
    input1: String,
    out: Option<String>,
    vis: Option<String>,
    iterations: u32,
    lambda: f32,
    warps: u32,
    levels: usize,
    backend: Backend,
    threads: Option<usize>,
    method: Method,
    median: bool,
    telemetry: Option<String>,
    profile: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    TvL1,
    HornSchunck,
    BlockMatching,
}

/// The `--backend` choices for the TV-L1 inner solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// `seq`: the banded software solver.
    Software,
    /// `fpga`: the simulated accelerator.
    Fpga,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut opts = Options {
        input0: String::new(),
        input1: String::new(),
        out: None,
        vis: None,
        iterations: 30,
        lambda: 38.0,
        warps: 5,
        levels: 5,
        backend: Backend::Software,
        threads: None,
        method: Method::TvL1,
        median: false,
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
            "--out" => opts.out = Some(value("--out")?),
            "--vis" => opts.vis = Some(value("--vis")?),
            "--iterations" => {
                opts.iterations = value("--iterations")?
                    .parse()
                    .map_err(|_| "invalid --iterations".to_string())?
            }
            "--lambda" => {
                opts.lambda = value("--lambda")?
                    .parse()
                    .map_err(|_| "invalid --lambda".to_string())?
            }
            "--warps" => {
                opts.warps = value("--warps")?
                    .parse()
                    .map_err(|_| "invalid --warps".to_string())?
            }
            "--levels" => {
                opts.levels = value("--levels")?
                    .parse()
                    .map_err(|_| "invalid --levels".to_string())?
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
            "--method" => {
                opts.method = match value("--method")?.as_str() {
                    "tvl1" => Method::TvL1,
                    "hs" => Method::HornSchunck,
                    "bm" => Method::BlockMatching,
                    other => return Err(format!("unknown method {other:?}")),
                }
            }
            "--median" => opts.median = true,
            "--telemetry" => opts.telemetry = Some(value("--telemetry")?),
            "--profile" => opts.profile = Some(value("--profile")?),
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "expected exactly two input frames, got {}",
            positional.len()
        ));
    }
    opts.input0 = positional.remove(0);
    opts.input1 = positional.remove(0);
    Ok(opts)
}

fn estimate(
    opts: &Options,
    i0: &chambolle::imaging::Image,
    i1: &chambolle::imaging::Image,
    telemetry: &Telemetry,
) -> chambolle::Result<FlowField> {
    match opts.method {
        Method::TvL1 => {
            let mut params = TvL1Params::new(
                opts.lambda,
                ChambolleParams::with_iterations(opts.iterations),
                opts.warps,
                5,
                opts.levels,
            )?;
            if opts.median {
                params = params.with_median_filter();
            }
            // One pool shared by the inner solver and the TV-L1 outer-loop
            // image operations; the `threads` knob is read only now, after
            // `--profile`.
            let threads = opts
                .threads
                .unwrap_or_else(|| chambolle::tune::active().threads);
            let pool = Arc::new(ThreadPool::new(threads).with_telemetry(telemetry.clone()));
            let backend: Box<dyn TvDenoiser> = match opts.backend {
                Backend::Software => Box::new(ParallelSolver::with_pool(Arc::clone(&pool))),
                Backend::Fpga => {
                    let mut accel = ChambolleAccel::new(AccelConfig::default());
                    accel.attach_telemetry(telemetry.clone());
                    Box::new(AccelDenoiser::new(accel))
                }
            };
            let ctx = ExecCtx::default()
                .with_telemetry(telemetry.clone())
                .with_pool(pool);
            let (flow, stats) =
                TvL1Solver::with_backend(params, backend).flow_with_ctx(i0, i1, None, &ctx)?;
            eprintln!("{stats}");
            Ok(flow)
        }
        Method::HornSchunck => {
            let params = HornSchunckParams::new(0.05, opts.iterations, opts.warps, opts.levels)?;
            Ok(HornSchunck::new(params).flow(i0, i1)?)
        }
        Method::BlockMatching => Ok(block_matching_flow(
            i0,
            i1,
            &BlockMatchingParams::default(),
        )?),
    }
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
    let i0 = read_pgm(&opts.input0)?;
    let i1 = read_pgm(&opts.input1)?;
    let telemetry = if opts.telemetry.is_some() {
        Telemetry::null()
    } else {
        Telemetry::disabled()
    };
    if let Some(path) = &opts.profile {
        apply_profile(path, &telemetry);
    }
    let flow = estimate(opts, &i0, &i1, &telemetry)?;

    let (mu, mv) = flow.mean();
    eprintln!(
        "flow {}x{}: mean ({mu:.3}, {mv:.3}) px, max |u| {:.3} px",
        flow.width(),
        flow.height(),
        flow.max_magnitude()
    );
    if let Some(path) = &opts.out {
        write_flo(path, &flow)?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.vis {
        write_ppm(path, &colorize_flow(&flow, None))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.telemetry {
        let mut report = RunReport::from_telemetry("chambolle_flow", &telemetry);
        report.add_section(
            "run",
            JsonValue::Object(vec![
                ("input0".into(), opts.input0.as_str().into()),
                ("input1".into(), opts.input1.as_str().into()),
                ("width".into(), (flow.width() as u64).into()),
                ("height".into(), (flow.height() as u64).into()),
                ("iterations".into(), u64::from(opts.iterations).into()),
                ("mean_u".into(), f64::from(mu).into()),
                ("mean_v".into(), f64::from(mv).into()),
                (
                    "max_magnitude".into(),
                    f64::from(flow.max_magnitude()).into(),
                ),
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
            eprintln!("usage: chambolle_flow I0.pgm I1.pgm [--out F.flo] [--vis F.ppm] [--iterations N] [--lambda L] [--warps N] [--levels N] [--backend seq|fpga] [--threads N] [--method tvl1|hs|bm] [--median] [--telemetry REPORT.json] [--profile PROFILE.json]");
            eprintln!("  --threads N sizes the shared pool (default: the threads knob, 2 unless a profile sets it); the TV-L1 outer loop and the seq inner solver run on it, bit-identical to the 1-thread result (hs/bm and the fpga inner solver ignore it)");
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
    fn parses_minimal_invocation() {
        let o = parse_args(&args(&["a.pgm", "b.pgm"])).unwrap();
        assert_eq!(o.input0, "a.pgm");
        assert_eq!(o.input1, "b.pgm");
        assert_eq!(o.iterations, 30);
        assert_eq!(o.backend, Backend::Software);
        assert!(!o.median);
    }

    #[test]
    fn parses_all_options() {
        let o = parse_args(&args(&[
            "a.pgm",
            "--out",
            "f.flo",
            "b.pgm",
            "--vis",
            "f.ppm",
            "--iterations",
            "100",
            "--lambda",
            "50",
            "--warps",
            "3",
            "--levels",
            "4",
            "--backend",
            "fpga",
            "--threads",
            "4",
            "--median",
            "--telemetry",
            "flow.json",
        ]))
        .unwrap();
        assert_eq!(o.out.as_deref(), Some("f.flo"));
        assert_eq!(o.vis.as_deref(), Some("f.ppm"));
        assert_eq!(o.iterations, 100);
        assert_eq!(o.lambda, 50.0);
        assert_eq!(o.warps, 3);
        assert_eq!(o.levels, 4);
        assert_eq!(o.backend, Backend::Fpga);
        assert_eq!(o.threads, Some(4));
        assert!(o.median);
        assert_eq!(o.method, Method::TvL1);
        assert_eq!(o.telemetry.as_deref(), Some("flow.json"));
        assert_eq!(o.profile, None);

        let o = parse_args(&args(&["a.pgm", "b.pgm", "--profile", "p.json"])).unwrap();
        assert_eq!(o.profile.as_deref(), Some("p.json"));
        assert!(parse_args(&args(&["a.pgm", "b.pgm", "--profile"])).is_err());
    }

    #[test]
    fn parses_methods() {
        for (name, want) in [
            ("tvl1", Method::TvL1),
            ("hs", Method::HornSchunck),
            ("bm", Method::BlockMatching),
        ] {
            let o = parse_args(&args(&["a", "b", "--method", name])).unwrap();
            assert_eq!(o.method, want);
        }
        assert!(parse_args(&args(&["a", "b", "--method", "sift"])).is_err());
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&args(&["a.pgm"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--backend", "gpu"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--backend", "tiled"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--threads", "1025"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--iterations", "x"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--frob"])).is_err());
        assert!(parse_args(&args(&["a", "b", "--out"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).unwrap_err(), "help");
    }
}
