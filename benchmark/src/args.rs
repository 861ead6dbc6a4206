//! Command line of the `bench` binary and the environment it refuses.

use std::path::{Path, PathBuf};

use crate::Workload;

/// Usage text printed on a parse error.
pub const USAGE: &str = "\
usage:
  bench --workload NAME --seed N --seconds S --trace 0|1 [--record RUNS.jsonl]
  bench compare --parent RUNS.jsonl --change RUNS.jsonl [--benchmark BENCHMARK.json]
                [--claim WORKLOAD:METRIC]
workloads: denoise-512 | denoise-1024x768-fast | flow-320x240 | serve-mixed";

/// One invocation of the binary.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload and print its metrics.
    Run(RunArgs),
    /// Compare a parent run set against a change run set.
    Compare(CompareArgs),
}

/// Arguments of a workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// JSON-lines file the result is appended to, stamped, for `compare`.
    pub record: Option<PathBuf>,
}

/// Arguments of `bench compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Run set of the parent commit.
    pub parent: PathBuf,
    /// Run set of the change.
    pub change: PathBuf,
    /// The benchmark definition holding each metric's direction and bound.
    pub benchmark: PathBuf,
    /// The (workload, metric) pair the change claims to improve, if any.
    pub claim: Option<(String, String)>,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the first missing, unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return parse_compare(&args[1..]).map(Command::Compare);
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--seed must be a non-negative integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--record" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        record,
    }))
}

fn parse_compare(args: &[String]) -> Result<CompareArgs, String> {
    let (mut parent, mut change, mut claim) = (None, None, None);
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value()?)),
            "--change" => change = Some(PathBuf::from(value()?)),
            "--benchmark" => benchmark = PathBuf::from(value()?),
            "--claim" => {
                let (w, m) = value()?
                    .split_once(':')
                    .ok_or("--claim takes WORKLOAD:METRIC")?;
                claim = Some((w.to_string(), m.to_string()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(CompareArgs {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        benchmark,
        claim,
    })
}

/// Environment variables that silently change the numerics tier, the
/// kernel backend or the tuned schedule of every solve.
pub const REFUSED_ENV: [&str; 3] = [
    chambolle_core::ctx::NUMERICS_ENV,
    chambolle_par::simd::BACKEND_ENV,
    chambolle_tune::PROFILE_ENV,
];

/// Why the benchmark must not run here, if it must not: a refused
/// variable is set in `env`, or a tuning profile sits in `dir`.
pub fn hygiene_violation(env: impl Fn(&str) -> Option<String>, dir: &Path) -> Option<String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| env(v).is_some()) {
        return Some(format!("{var} is set; it changes what every solve runs"));
    }
    let profile = dir.join(chambolle_tune::DEFAULT_PROFILE_PATH);
    profile.exists().then(|| {
        format!(
            "{} is present; it changes the schedule of every solve",
            profile.display()
        )
    })
}
