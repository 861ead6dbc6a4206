//! Command-line surface and schema validation for the `tune` binary.
//!
//! Lives in the library (rather than the binary) so the integration tests
//! under `crates/bench/tests` can parse-test every flag and validate the
//! emitted `BENCH_pr9.json` against the stable schema without spawning the
//! binary.
//!
//! The `pr9` document records one auto-tuning run: the host fingerprint,
//! one entry per searched workload (trial counts, anchor timings, the
//! winning knobs), the best schedule, and the profile block proving the
//! emitted `chambolle.tuning_profile.v2` file reloaded for this host.

use chambolle_telemetry::json::JsonValue;

/// Schema identifier checked by the smoke validation and downstream tools.
pub const SCHEMA: &str = "chambolle.bench.v1";
/// Benchmark identifier of the auto-tuning run within the schema.
pub const BENCH_TUNING: &str = "pr9";

/// Minimum knob dimensions a valid tuning run must have searched: the
/// width of the service search (the batch window).
pub const MIN_DIMENSIONS: usize = 1;

/// Parsed `tune` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Shrink the search to the coarse CI grid (`--smoke`).
    pub smoke: bool,
    /// Report path override (`--out`).
    pub out: Option<String>,
    /// Profile path override (`--profile-out`).
    pub profile_out: Option<String>,
}

impl Args {
    /// The report path: `--out` if given, else `BENCH_pr9.json`.
    pub fn out_path(&self) -> String {
        self.out.clone().unwrap_or_else(|| "BENCH_pr9.json".into())
    }

    /// The profile path: `--profile-out` if given, else the default path
    /// every startup probes (`chambolle.profile.json`).
    pub fn profile_path(&self) -> String {
        self.profile_out
            .clone()
            .unwrap_or_else(|| chambolle_tune::DEFAULT_PROFILE_PATH.into())
    }
}

/// Parses `tune` flags (`args` excludes the program name).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out: None,
        profile_out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => {
                let value = iter.next().ok_or("--out requires a path")?;
                parsed.out = Some(value.clone());
            }
            "--profile-out" => {
                let value = iter.next().ok_or("--profile-out requires a path")?;
                parsed.profile_out = Some(value.clone());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// Checks the tuning document against the stable shape downstream tooling
/// relies on: schema/bench identifiers, the fingerprint, at least one
/// workload entry with anchors and a winning config, the dimension floor,
/// and the profile block with its reload attestation.
pub fn validate_tuning(text: &str) -> Result<(), String> {
    let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("schema must be {SCHEMA:?}"));
    }
    if doc.get("bench").and_then(JsonValue::as_str) != Some(BENCH_TUNING) {
        return Err(format!("bench must be {BENCH_TUNING:?}"));
    }
    match doc.get("mode").and_then(JsonValue::as_str) {
        Some("full") | Some("smoke") => {}
        other => return Err(format!("mode must be full|smoke, got {other:?}")),
    }
    if doc.get("fingerprint").is_none() {
        return Err("tuning report missing \"fingerprint\"".into());
    }
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("workloads must be an array")?;
    if workloads.is_empty() {
        return Err("tuning report must cover at least one workload".into());
    }
    for (i, workload) in workloads.iter().enumerate() {
        if workload.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("workload {i} missing \"name\""));
        }
        for field in [
            "dimensions_searched",
            "trials",
            "pruned",
            "baseline_proxy_ms",
            "best_proxy_ms",
            "baseline_full_ms",
            "best_full_ms",
            "speedup",
        ] {
            if workload.get(field).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("workload {i} missing numeric {field:?}"));
            }
        }
        if workload.get("best").is_none() {
            return Err(format!("workload {i} missing its \"best\" config"));
        }
    }
    let dims = doc
        .get("dimensions_searched_total")
        .and_then(JsonValue::as_f64)
        .ok_or("tuning report missing \"dimensions_searched_total\"")?;
    if (dims as usize) < MIN_DIMENSIONS {
        return Err(format!(
            "a tuning run must search >= {MIN_DIMENSIONS} knob dimensions, searched {dims}"
        ));
    }
    if doc.get("best").is_none() {
        return Err("tuning report missing the merged \"best\" config".into());
    }
    if doc
        .get_path("profile.path")
        .and_then(JsonValue::as_str)
        .is_none()
    {
        return Err("tuning report missing \"profile.path\"".into());
    }
    match doc.get_path("profile.reloaded") {
        Some(JsonValue::Bool(true)) => Ok(()),
        other => Err(format!(
            "tuning report must attest \"profile.reloaded\" = true, got {other:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_are_full_mode_with_standard_paths() {
        let args = parse_args(&[]).unwrap();
        assert!(!args.smoke);
        assert_eq!(args.out_path(), "BENCH_pr9.json");
        assert_eq!(args.profile_path(), chambolle_tune::DEFAULT_PROFILE_PATH);
    }

    #[test]
    fn flags_override_mode_and_paths() {
        let args = parse_args(&strings(&[
            "--smoke",
            "--out",
            "report.json",
            "--profile-out",
            "prof.json",
        ]))
        .unwrap();
        assert!(args.smoke);
        assert_eq!(args.out_path(), "report.json");
        assert_eq!(args.profile_path(), "prof.json");
        assert!(parse_args(&strings(&["--allow-fast-profile"])).is_err());
    }

    #[test]
    fn missing_values_and_unknown_flags_are_rejected() {
        assert!(parse_args(&strings(&["--out"])).is_err());
        assert!(parse_args(&strings(&["--profile-out"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate"])).is_err());
    }
}
