//! The harness itself: argument parsing, environment hygiene, a short
//! smoke run of every workload against the metric list in
//! `BENCHMARK.json`, failure accounting, the tail-percentile rule, and
//! `compare` on synthetic run sets.

use std::path::{Path, PathBuf};
use std::process::Command as Process;
use std::sync::OnceLock;

use chambolle_benchmark::args::{hygiene_violation, parse, Command, REFUSED_ENV};
use chambolle_benchmark::compare::{
    compare, judge, load_specs, parse_runs, MetricSpec, Record, Verdict,
};
use chambolle_benchmark::stats::{quartiles, tail_percentile};
use chambolle_benchmark::{run, RunConfig, RunResult, Workload};
use chambolle_telemetry::json::JsonValue;

fn strings(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The facade CLIs, built once per test binary into the test's scratch
/// target directory.
fn cli_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("facade");
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let status = Process::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--bins", "--quiet"])
            .arg("--manifest-path")
            .arg(&manifest)
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the facade CLIs failed");
        target.join("release")
    })
}

fn smoke(workload: Workload, trace: bool, inject_wrong_output: bool) -> RunResult {
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 1.0,
        cli_dir: cli_dir().to_path_buf(),
        out_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-out"),
        inject_wrong_output,
    };
    run(&cfg, trace).expect("the smoke run completes").0
}

fn assert_prints(result: &RunResult, section: &str) {
    let printed: Vec<(String, String)> = result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        printed,
        listed(section),
        "printed metrics differ from {section}"
    );
    let line = result.to_json();
    let keys: Vec<&str> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn parses_run_and_compare_invocations() {
    let cmd = parse(&strings(&[
        "--workload",
        "flow-320x240",
        "--seed",
        "3",
        "--seconds",
        "30",
        "--trace",
        "1",
    ]))
    .unwrap();
    let Command::Run(a) = cmd else {
        panic!("expected a run")
    };
    assert_eq!(a.workload, Workload::Flow320x240);
    assert_eq!(
        (a.seed, a.seconds, a.trace, a.record),
        (3, 30.0, true, None)
    );

    let cmd = parse(&strings(&[
        "compare",
        "--parent",
        "p.jsonl",
        "--change",
        "c.jsonl",
        "--claim",
        "serve-mixed:p50_ms",
    ]))
    .unwrap();
    let Command::Compare(c) = cmd else {
        panic!("expected a comparison")
    };
    assert_eq!(c.benchmark, PathBuf::from("BENCHMARK.json"));
    assert_eq!(c.claim, Some(("serve-mixed".into(), "p50_ms".into())));

    for bad in [
        &["--seed", "1", "--seconds", "1"][..],
        &["--workload", "denoise-9", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "denoise-512",
            "--seed",
            "-1",
            "--seconds",
            "1",
        ],
        &["--workload", "denoise-512", "--seed", "1", "--seconds", "0"],
        &[
            "--workload",
            "denoise-512",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "denoise-512", "--seed"],
        &["--bogus"],
        &["compare", "--parent", "p.jsonl"],
        &[
            "compare", "--parent", "p", "--change", "c", "--claim", "no-colon",
        ],
    ] {
        assert!(parse(&strings(bad)).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn refuses_environments_that_change_the_solves() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hygiene");
    std::fs::create_dir_all(&dir).unwrap();
    let _ = std::fs::remove_file(dir.join("chambolle.profile.json"));
    assert_eq!(hygiene_violation(|_| None, &dir), None);
    for var in REFUSED_ENV {
        let why = hygiene_violation(|k| (k == var).then(|| "x".into()), &dir);
        assert!(why.is_some_and(|w| w.contains(var)));
    }
    std::fs::write(dir.join("chambolle.profile.json"), "{}").unwrap();
    assert!(hygiene_violation(|_| None, &dir).is_some());
    std::fs::remove_file(dir.join("chambolle.profile.json")).unwrap();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed workloads need an optimized build")]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let result = smoke(workload, false, false);
        assert_prints(&result, "end_to_end");
        assert!(
            result.attempted > 0,
            "{} attempted nothing",
            workload.name()
        );
        assert_eq!(
            result.fail_frac(),
            0.0,
            "{} failed: {:?}",
            workload.name(),
            result
        );
        assert!(result.correct());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed workloads need an optimized build")]
fn the_traced_run_prints_every_per_layer_metric() {
    let result = smoke(Workload::ServeMixed, true, false);
    assert_prints(&result, "per_layer");
    assert_eq!(result.fail_frac(), 0.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed workloads need an optimized build")]
fn an_injected_wrong_output_is_counted() {
    for workload in [Workload::Denoise512, Workload::ServeMixed] {
        let result = smoke(workload, false, true);
        assert_eq!(result.wrong, 1, "{}", workload.name());
        assert!(result.failed >= 1 && result.fail_frac() > 0.0);
        assert!(!result.correct());
        assert_eq!(
            result.to_json().get("correct").cloned(),
            Some(JsonValue::Bool(false))
        );
    }
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    // 1000 samples resolve p90 itself.
    let t = tail_percentile(&samples(1000), 0.9, 10);
    assert_eq!((t.value, t.beyond, t.quantile), (900.0, 100, 0.9));
    // 100 samples: p90 leaves exactly ten beyond.
    let t = tail_percentile(&samples(100), 0.9, 10);
    assert_eq!((t.value, t.beyond), (90.0, 10));
    // 91 samples: p90 would leave nine, so the rank drops to keep ten.
    let t = tail_percentile(&samples(91), 0.9, 10);
    assert_eq!((t.value, t.beyond), (81.0, 10));
    assert!(t.quantile < 0.9);
    // Too short to leave ten above the median: the median.
    let t = tail_percentile(&samples(15), 0.9, 10);
    assert_eq!(t.value, 8.0);
    // Order of the input does not matter.
    let mut shuffled = samples(100);
    shuffled.reverse();
    assert_eq!(tail_percentile(&shuffled, 0.9, 10).value, 90.0);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let q = quartiles(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!(q, [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
}

fn spec(bound: f64) -> MetricSpec {
    MetricSpec {
        name: "fps".into(),
        higher_is_better: true,
        bound,
        floor: 0.0,
    }
}

#[test]
fn compare_honours_the_set_up_floor() {
    let specs = load_specs(&benchmark_json().to_string()).unwrap();
    let setup = specs.iter().find(|s| s.name == "setup_s").unwrap();
    assert_eq!(setup.floor, 0.020);
    assert!(specs
        .iter()
        .filter(|s| s.name != "setup_s")
        .all(|s| s.floor == 0.0));
    // A 40 ms set-up may grow by 20 ms, more than any bound allows.
    let parent = [0.040; 10];
    assert!(matches!(
        judge(setup, &parent, &[0.059; 10], false),
        Verdict::Ok(_)
    ));
    assert!(matches!(
        judge(setup, &parent, &[0.061; 10], false),
        Verdict::Regressed(_)
    ));
    // A 1 s set-up is held to its bound.
    let slower = 1.0 + setup.bound + 0.01;
    assert!(matches!(
        judge(setup, &[1.0; 10], &[slower; 10], false),
        Verdict::Regressed(_)
    ));
}

#[test]
fn compare_applies_the_paired_rule_and_the_bounds() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
    // Change wins every pair by 5%: a met claim.
    let faster: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
    assert!(matches!(
        judge(&spec(0.1), &parent, &faster, true),
        Verdict::GainMet {
            wins: 10,
            pairs: 10,
            ..
        }
    ));
    // Winning 8 of 10 pairs is not enough.
    let mut mixed = faster.clone();
    mixed[0] = parent[0] * 0.99;
    mixed[1] = parent[1] * 0.99;
    assert!(matches!(
        judge(&spec(0.1), &parent, &mixed, true),
        Verdict::GainNotMet { wins: 8, .. }
    ));
    // Fewer than ten pairs never meet a claim.
    assert!(matches!(
        judge(&spec(0.1), &parent[..9], &faster[..9], true),
        Verdict::GainNotMet { .. }
    ));
    // Unclaimed: within the bound is fine, beyond it regresses.
    let slower = |f: f64| parent.iter().map(|p| p * f).collect::<Vec<_>>();
    assert!(matches!(
        judge(&spec(0.1), &parent, &slower(0.95), false),
        Verdict::Ok(_)
    ));
    assert!(matches!(
        judge(&spec(0.1), &parent, &slower(0.85), false),
        Verdict::Regressed(_)
    ));
    // A spread wider than the bound is unresolved, unless every change run
    // beats every parent run.
    let noisy = [
        80.0, 90.0, 100.0, 110.0, 120.0, 85.0, 95.0, 105.0, 115.0, 100.0,
    ];
    assert!(matches!(
        judge(&spec(0.05), &noisy, &noisy, false),
        Verdict::Unresolved { .. }
    ));
    let far: Vec<f64> = noisy.iter().map(|v| v + 100.0).collect();
    assert!(matches!(
        judge(&spec(0.05), &noisy, &far, false),
        Verdict::Better(_)
    ));
}

#[test]
fn compare_reads_run_sets_and_reports_one_row_per_workload() {
    let specs = load_specs(&benchmark_json().to_string()).unwrap();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let listed: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, listed);

    let line = |workload: &str, fps: f64, failed: u64| {
        format!(
            r#"{{"workload":"{workload}","seed":1,"correct":true,"attempted":9,"failed":{failed},"metrics":{{"fps":{{"value":{fps},"unit":"1/s"}}}}}}"#
        )
    };
    let parent_text: String = (0..10)
        .flat_map(|i| [line("a", 100.0 + f64::from(i), 0), line("b", 50.0, 0)])
        .collect::<Vec<_>>()
        .join("\n");
    let change_text: String = (0..10)
        .flat_map(|i| [line("a", 120.0 + f64::from(i), 0), line("b", 30.0, 1)])
        .collect::<Vec<_>>()
        .join("\n");
    let parent = parse_runs(&parent_text).unwrap();
    let change = parse_runs(&change_text).unwrap();
    assert_eq!(
        parent[0],
        Record {
            workload: "a".into(),
            failed: 0,
            metrics: vec![("fps".into(), 100.0)],
        }
    );
    let rows = compare(&specs, &parent, &change, Some(("a", "fps")));
    assert_eq!(rows.len(), 2);
    assert!(matches!(rows[0].verdicts[0].1, Verdict::GainMet { .. }));
    assert!(!rows[0].blocks());
    // Workload b lost 40% fps and gained failures.
    assert!(matches!(rows[1].verdicts[0].1, Verdict::Regressed(_)));
    assert_eq!(rows[1].verdicts[1].1, Verdict::Missing);
    assert!(rows[1].blocks());
    assert!(parse_runs("not json").is_err());
}
