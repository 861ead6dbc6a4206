//! Auto-tuner for the service schedule: searches the batch window on this
//! machine, persists the winner as a fingerprinted
//! `chambolle.tuning_profile.v2`, and writes a schema-stable
//! `BENCH_pr9.json` run report.
//!
//! ```text
//! cargo run --release -p chambolle-bench --bin tune              # full grid
//! cargo run --release -p chambolle-bench --bin tune -- --smoke  # CI grid
//! cargo run --release -p chambolle-bench --bin tune -- --profile-out p.json
//! ```
//!
//! One search runs, `service_replay`: the micro-batch window against an
//! open-loop in-process request replay. The admission watermarks are
//! written at their defaults; the replay runs no degradation policy, so it
//! cannot observe when they shed fidelity. No profile knob reaches a solve.
//! Before anything is reported the profile is written and re-loaded through
//! the fingerprint-checking loader; a failed reload aborts the run.

use std::env;
use std::time::Instant;

use chambolle_bench::tunereport::{parse_args, validate_tuning, Args, BENCH_TUNING, SCHEMA};
use chambolle_bench::workloads::timing_frame;
use chambolle_core::ChambolleParams;
use chambolle_imaging::Image;
use chambolle_service::{Priority, Request, Service, ServiceConfig, Workload};
use chambolle_telemetry::json::JsonValue;
use chambolle_telemetry::{names, Telemetry};
use chambolle_tune::{
    coordinate_descent, Fingerprint, Profile, SearchOptions, SearchOutcome, SearchSpace, Tunables,
};

fn main() {
    let raw: Vec<String> = env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("tune: {e}");
        eprintln!("usage: tune [--smoke] [--out <path>] [--profile-out <path>]");
        eprintln!("  --smoke              coarse CI grid (seconds, not minutes)");
        eprintln!("  --out                report path     [BENCH_pr9.json]");
        eprintln!("  --profile-out        profile path    [chambolle.profile.json]");
        std::process::exit(2);
    });

    let telemetry = Telemetry::null();
    let fingerprint = Fingerprint::detect();
    eprintln!("tune: {} grid", mode(args.smoke));

    let service = search_service_knobs(&args, &telemetry)
        .unwrap_or_else(|| abort("service baseline could not be measured"));
    report_outcome("service_replay", &service);
    let best = service.best;

    // Persist, then prove the profile loads back through the strict
    // fingerprint-checking path a production startup would take.
    let profile_path = args.profile_path();
    let profile = Profile::new(fingerprint.clone(), best).with_provenance(JsonValue::Object(vec![
        ("service_speedup".into(), service.speedup().into()),
        ("mode".into(), mode(args.smoke).into()),
    ]));
    profile
        .save(&profile_path)
        .unwrap_or_else(|e| abort(&format!("cannot write {profile_path}: {e}")));
    let reloaded = Profile::load_for_host(&profile_path, &fingerprint)
        .unwrap_or_else(|e| abort(&format!("emitted profile failed to reload: {e}")));
    assert_eq!(
        reloaded.tunables, best,
        "reload must return the persisted schedule"
    );
    eprintln!("tune: wrote profile {profile_path} (reload verified)");

    let trials_total = service.trials.len() as u64;
    let snapshot = telemetry.snapshot();
    assert_eq!(
        snapshot.counter(names::TUNE_TRIALS),
        Some(trials_total),
        "every trial is counted through telemetry"
    );

    let report = JsonValue::Object(vec![
        ("schema".into(), SCHEMA.into()),
        ("bench".into(), BENCH_TUNING.into()),
        ("mode".into(), mode(args.smoke).into()),
        ("fingerprint".into(), fingerprint.to_json()),
        (
            "workloads".into(),
            JsonValue::Array(vec![outcome_to_json("service_replay", &service)]),
        ),
        (
            "dimensions_searched_total".into(),
            (service.dimensions_searched as u64).into(),
        ),
        ("trials_total".into(), trials_total.into()),
        ("best".into(), best.to_json()),
        (
            "profile".into(),
            JsonValue::Object(vec![
                ("path".into(), profile_path.as_str().into()),
                ("reloaded".into(), JsonValue::Bool(true)),
            ]),
        ),
    ]);
    let text = report.to_string_pretty();
    validate_tuning(&text).unwrap_or_else(|e| {
        abort(&format!("emitted report failed schema validation: {e}"));
    });
    let out_path = args.out_path();
    std::fs::write(&out_path, format!("{text}\n"))
        .unwrap_or_else(|e| abort(&format!("cannot write {out_path}: {e}")));
    eprintln!("wrote {out_path}");
    println!("{text}");
}

fn abort(msg: &str) -> ! {
    eprintln!("tune: {msg}");
    std::process::exit(1);
}

fn mode(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

fn outcome_to_json(name: &str, o: &SearchOutcome) -> JsonValue {
    JsonValue::Object(vec![
        ("name".into(), name.into()),
        (
            "dimensions_searched".into(),
            (o.dimensions_searched as u64).into(),
        ),
        ("trials".into(), (o.trials.len() as u64).into()),
        ("pruned".into(), (o.pruned as u64).into()),
        ("baseline_proxy_ms".into(), o.baseline_proxy_ms.into()),
        ("best_proxy_ms".into(), o.best_proxy_ms.into()),
        ("baseline_full_ms".into(), o.baseline_full_ms.into()),
        ("best_full_ms".into(), o.best_full_ms.into()),
        ("speedup".into(), o.speedup().into()),
        ("best".into(), o.best.to_json()),
    ])
}

fn report_outcome(name: &str, outcome: &SearchOutcome) {
    eprintln!(
        "  {:<15} {} dims, {} trials ({} pruned): {:.2} ms -> {:.2} ms ({:.2}x)",
        name,
        outcome.dimensions_searched,
        outcome.trials.len(),
        outcome.pruned,
        outcome.baseline_full_ms,
        outcome.best_full_ms,
        outcome.speedup(),
    );
}

/// One timed in-process request replay under the candidate's service knobs:
/// `n` denoise requests submitted back to back through a service whose
/// batching window and admission watermarks come from `t`.
fn time_replay(t: &Tunables, n: usize, frame: &Image, params: &ChambolleParams) -> Option<f64> {
    const REPLAY_THREADS: usize = 2;
    let config = ServiceConfig::from_tunables(REPLAY_THREADS, n + 8, t);
    let service = Service::spawn(config);
    let start = Instant::now();
    let tickets: Vec<_> = (0..n)
        .map(|i| {
            let mut request = Request::new(Workload::Denoise {
                input: frame.clone(),
                params: *params,
            });
            if i % 4 == 0 {
                request = request.with_priority(Priority::Interactive);
            }
            service.handle().submit(request).ok()
        })
        .collect();
    for ticket in tickets.into_iter().flatten() {
        ticket.wait().ok()?;
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    service.shutdown();
    Some(ms)
}

fn search_service_knobs(args: &Args, telemetry: &Telemetry) -> Option<SearchOutcome> {
    let space = SearchSpace::service(args.smoke);
    let frame = timing_frame(24, 24);
    let params = ChambolleParams::with_iterations(8);
    let (proxy_n, full_n) = if args.smoke { (16, 48) } else { (48, 160) };

    let opts = SearchOptions {
        sweeps: 1,
        keep_top: 2,
    };
    coordinate_descent(
        &space,
        Tunables::default(),
        &opts,
        telemetry,
        &mut |t| time_replay(t, proxy_n, &frame, &params),
        &mut |t| time_replay(t, full_n, &frame, &params),
    )
}
