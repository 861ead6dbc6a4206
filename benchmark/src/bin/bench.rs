//! `bench` — runs one benchmark workload and prints its metrics, or
//! compares two recorded run sets. See the crate docs for the workloads
//! and metrics, and `benchmark/run.sh` for the build-and-run wrapper.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use chambolle_benchmark::args::{self, Command, CompareArgs, RunArgs, USAGE};
use chambolle_benchmark::compare::{compare, load_specs, parse_runs, render};
use chambolle_benchmark::report::{RunResult, Stamp};
use chambolle_benchmark::{run, RunConfig};
use chambolle_telemetry::json::JsonValue;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(Command::Run(a)) => run_main(&a),
        Ok(Command::Compare(a)) => compare_main(&a),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_main(a: &RunArgs) -> ExitCode {
    if let Some(why) = args::hygiene_violation(|k| std::env::var(k).ok(), Path::new(".")) {
        eprintln!("refusing to run: {why}");
        return ExitCode::from(2);
    }
    let cli_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let cfg = RunConfig {
        workload: a.workload,
        seed: a.seed,
        seconds: a.seconds,
        cli_dir,
        out_dir: PathBuf::from("benchmark/out"),
        inject_wrong_output: false,
    };
    let stamp = Stamp::detect();
    let (result, spans) = match run(&cfg, a.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if a.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-seed{}.json", a.workload.name(), a.seed));
        let meta = JsonValue::Object(vec![
            ("workload".into(), a.workload.name().into()),
            ("seed".into(), a.seed.into()),
            ("stamp".into(), stamp.to_json()),
        ]);
        match spans.write_chrome_trace(&path, meta) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    print_table(a, &result);
    if let Some(path) = &a.record {
        if let Err(e) = record(path, a, &stamp, &result) {
            eprintln!("error: cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let stamp_line = JsonValue::Object(vec![("stamp".into(), stamp.to_json())]);
    println!("{}", stamp_line.to_string());
    println!("{}", result.to_json().to_string());
    ExitCode::SUCCESS
}

fn print_table(a: &RunArgs, result: &RunResult) {
    eprintln!(
        "{} seed {} ({}s, trace {}): {} attempted, {} failed, {} wrong",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        result.attempted,
        result.failed,
        result.wrong
    );
    for m in &result.metrics {
        eprintln!("  {:<40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for note in &result.notes {
        eprintln!("  note: {note}");
    }
}

/// Appends the stamped result as one JSON line, the run-set format
/// `bench compare` reads.
fn record(path: &Path, a: &RunArgs, stamp: &Stamp, result: &RunResult) -> std::io::Result<()> {
    let mut fields = vec![
        ("workload".to_string(), JsonValue::from(a.workload.name())),
        ("seed".into(), a.seed.into()),
        ("trace".into(), a.trace.into()),
        ("stamp".into(), stamp.to_json()),
    ];
    if let JsonValue::Object(body) = result.to_json() {
        fields.extend(body);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", JsonValue::Object(fields).to_string())
}

fn compare_main(a: &CompareArgs) -> ExitCode {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let outcome = (|| -> Result<bool, String> {
        let specs = load_specs(&read(&a.benchmark)?)?;
        let parent = parse_runs(&read(&a.parent)?)?;
        let change = parse_runs(&read(&a.change)?)?;
        let claim = a.claim.as_ref().map(|(w, m)| (w.as_str(), m.as_str()));
        let rows = compare(&specs, &parent, &change, claim);
        print!("{}", render(&rows));
        Ok(rows.iter().any(|r| r.blocks()))
    })();
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
