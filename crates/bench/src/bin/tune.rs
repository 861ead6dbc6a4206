//! Auto-tuner for the Chambolle stack: searches the knob space on this
//! machine, persists the winning schedule as a fingerprinted
//! `chambolle.tuning_profile.v2`, and writes a schema-stable
//! `BENCH_pr9.json` run report.
//!
//! ```text
//! cargo run --release -p chambolle-bench --bin tune              # full grid
//! cargo run --release -p chambolle-bench --bin tune -- --smoke  # CI grid
//! cargo run --release -p chambolle-bench --bin tune -- --profile-out p.json
//! ```
//!
//! Two searches run, one per workload family:
//!
//! 1. `banded_denoise` — the solver knobs (pool width, band divisor, kernel
//!    backend, numerics tier) against the banded ROF denoise on a pool of
//!    the candidate's `threads`, the solve the CLIs run. Candidates are
//!    installed as the process-wide schedule for the duration of their
//!    measurement, so the trial runs through exactly the `Tunables`-reading
//!    paths production uses.
//! 2. `service_replay` — the service knobs (micro-batch window, admission
//!    watermarks) against an open-loop in-process request replay.
//!
//! The winners merge into one profile. Before anything is reported the
//! profile is written, re-loaded through the fingerprint-checking loader,
//! and the winning schedule is proven **bit-identical** to the defaults on
//! a test frame *at the Exact numerics tier* — tuning changes the schedule,
//! never the pixels. A winner that selects the Fast tier must additionally
//! stay inside the Fast-tier tolerance envelope against its own Exact
//! solve, and is persisted with `numerics: "auto"` unless
//! `--allow-fast-profile` opts the profile into the tier explicitly. A
//! failed reload, pixel mismatch, or tolerance breach aborts the run.

use std::env;
use std::sync::Arc;
use std::time::Instant;

use chambolle_bench::tunereport::{parse_args, validate_tuning, Args, BENCH_TUNING, SCHEMA};
use chambolle_bench::workloads::timing_frame;
use chambolle_core::{
    rof_energy, ChambolleParams, ExecCtx, NumericsPolicy, ParallelSolver, TvDenoiser,
};
use chambolle_imaging::Image;
use chambolle_par::ThreadPool;
use chambolle_service::{Priority, Request, Service, ServiceConfig, Workload};
use chambolle_telemetry::json::JsonValue;
use chambolle_telemetry::{names, Telemetry};
use chambolle_tune::{
    coordinate_descent, Fingerprint, NumericsChoice, Profile, SearchOptions, SearchOutcome,
    SearchSpace, Tunables,
};

fn main() {
    let raw: Vec<String> = env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("tune: {e}");
        eprintln!(
            "usage: tune [--smoke] [--out <path>] [--profile-out <path>] [--allow-fast-profile]"
        );
        eprintln!("  --smoke              coarse CI grid (seconds, not minutes)");
        eprintln!("  --out                report path     [BENCH_pr9.json]");
        eprintln!("  --profile-out        profile path    [chambolle.profile.json]");
        eprintln!("  --allow-fast-profile persist a Fast-tier winner as-is");
        std::process::exit(2);
    });

    let telemetry = Telemetry::null();
    let fingerprint = Fingerprint::detect();
    let max_threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    eprintln!(
        "tune: {} grid on {max_threads} threads max",
        mode(args.smoke)
    );

    let solver = search_solver_knobs(&args, max_threads, &telemetry)
        .unwrap_or_else(|| abort("solver baseline could not be measured"));
    report_outcome("banded_denoise", &solver);
    let service = search_service_knobs(&args, &telemetry)
        .unwrap_or_else(|| abort("service baseline could not be measured"));
    report_outcome("service_replay", &service);

    // Merge: solver knobs from the solver search, service knobs from the
    // replay search. The merged schedule must still validate as a whole.
    let best = Tunables {
        batch_window: service.best.batch_window,
        high_watermark_pct: service.best.high_watermark_pct,
        low_watermark_pct: service.best.low_watermark_pct,
        ..solver.best
    };
    best.validate()
        .unwrap_or_else(|e| abort(&format!("merged winner fails validation: {e}")));

    // The exactness contract, checked on the actual winner before it is
    // allowed anywhere near a profile file: identical pixels to defaults at
    // the Exact tier (the only tier that promises bit equality).
    let bit_identical = prove_bit_identity(&best);
    if !bit_identical {
        abort("winning schedule changed pixels — exactness contract violated");
    }
    // A Fast-tier winner carries a second obligation: its own Fast solve
    // must sit inside the tolerance envelope of its Exact solve.
    let fast_within_tolerance = prove_fast_tolerance(&best);
    if !fast_within_tolerance {
        abort("Fast-tier winner breached the numerics tolerance envelope");
    }

    // Persist, then prove the profile loads back through the strict
    // fingerprint-checking path a production startup would take. A Fast
    // winner is demoted to `auto` unless explicitly allowed: a profile on
    // disk must not silently flip every consumer off the bit-exact tier.
    let persisted = if best.numerics == NumericsChoice::Fast && !args.allow_fast_profile {
        eprintln!(
            "tune: winner selects the Fast tier; persisting numerics=auto \
             (re-run with --allow-fast-profile to keep it)"
        );
        Tunables {
            numerics: NumericsChoice::Auto,
            ..best
        }
    } else {
        best
    };
    let profile_path = args.profile_path();
    let profile =
        Profile::new(fingerprint.clone(), persisted).with_provenance(JsonValue::Object(vec![
            ("solver_speedup".into(), solver.speedup().into()),
            ("service_speedup".into(), service.speedup().into()),
            ("mode".into(), mode(args.smoke).into()),
            ("searched_numerics".into(), best.numerics.as_str().into()),
        ]));
    profile
        .save(&profile_path)
        .unwrap_or_else(|e| abort(&format!("cannot write {profile_path}: {e}")));
    let reloaded = Profile::load_for_host(&profile_path, &fingerprint)
        .unwrap_or_else(|e| abort(&format!("emitted profile failed to reload: {e}")));
    assert_eq!(
        reloaded.tunables, persisted,
        "reload must return the persisted schedule"
    );
    eprintln!("tune: wrote profile {profile_path} (reload verified)");

    let trials_total = (solver.trials.len() + service.trials.len()) as u64;
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
            JsonValue::Array(vec![
                outcome_to_json("banded_denoise", &solver),
                outcome_to_json("service_replay", &service),
            ]),
        ),
        (
            "dimensions_searched_total".into(),
            ((solver.dimensions_searched + service.dimensions_searched) as u64).into(),
        ),
        ("trials_total".into(), trials_total.into()),
        ("best".into(), best.to_json()),
        (
            "profile".into(),
            JsonValue::Object(vec![
                ("path".into(), profile_path.as_str().into()),
                ("reloaded".into(), JsonValue::Bool(true)),
                ("bit_identical".into(), JsonValue::Bool(bit_identical)),
                (
                    "fast_within_tolerance".into(),
                    JsonValue::Bool(fast_within_tolerance),
                ),
                ("numerics".into(), persisted.numerics.as_str().into()),
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

/// Runs `f` with `t` installed as the process-wide schedule, restoring the
/// previous schedule afterwards. `None` when `t` does not validate.
fn with_installed<T>(t: &Tunables, f: impl FnOnce() -> T) -> Option<T> {
    let previous = chambolle_tune::install(*t).ok()?;
    let out = f();
    let _ = chambolle_tune::install(previous);
    Some(out)
}

/// The banded solver on a pool of the candidate's `threads`.
fn banded_solver(t: &Tunables) -> ParallelSolver {
    ParallelSolver::with_pool(Arc::new(ThreadPool::new(t.threads)))
}

/// One timed banded denoise under the candidate schedule, in milliseconds.
/// The solve runs *after* installation, so the measurement exercises the
/// same `Tunables`-reading path every production entry point uses.
fn time_denoise(t: &Tunables, frame: &Image, params: &ChambolleParams) -> Option<f64> {
    with_installed(t, || {
        let solver = banded_solver(t);
        let start = Instant::now();
        let u = solver.denoise(frame, params);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(u.dims(), frame.dims());
        ms
    })
}

fn search_solver_knobs(
    args: &Args,
    max_threads: usize,
    telemetry: &Telemetry,
) -> Option<SearchOutcome> {
    let space = if args.smoke {
        SearchSpace::smoke(max_threads)
    } else {
        SearchSpace::full(max_threads)
    };
    // The proxy is a small frame at few iterations — enough to rank
    // schedules; the full measurement uses a heavier frame so pool
    // overheads are amortized the way real runs amortize them.
    let proxy_frame = timing_frame(64, 56);
    let proxy_params = ChambolleParams::with_iterations(6);
    let (fw, fh, fi) = if args.smoke {
        (128, 112, 15)
    } else {
        (256, 224, 40)
    };
    let full_frame = timing_frame(fw, fh);
    let full_params = ChambolleParams::with_iterations(fi);

    let opts = SearchOptions {
        sweeps: if args.smoke { 1 } else { 2 },
        keep_top: if args.smoke { 2 } else { 3 },
    };
    coordinate_descent(
        &space,
        Tunables::default(),
        &opts,
        telemetry,
        &mut |t| time_denoise(t, &proxy_frame, &proxy_params),
        &mut |t| time_denoise(t, &full_frame, &full_params),
    )
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

/// Solves one frame under schedule `t` with the numerics tier pinned on
/// the context (so neither the knob under test nor a `CHAMBOLLE_NUMERICS`
/// environment can move the attestation off `tier`), through the same
/// `Tunables`-reading schedule path production uses.
fn solve_at_tier(
    t: &Tunables,
    tier: NumericsPolicy,
    frame: &Image,
    params: &ChambolleParams,
) -> Option<Image> {
    with_installed(t, || {
        let ctx = ExecCtx::default().with_numerics(tier);
        banded_solver(t).denoise_with_ctx(frame, params, &ctx)
    })
}

/// Solves one frame under the default schedule and under `best`, both
/// pinned to the Exact tier; true iff the outputs agree bit for bit.
/// (Bit equality across schedules is the Exact tier's contract — a Fast
/// winner is held to the tolerance envelope instead, see
/// [`prove_fast_tolerance`].)
fn prove_bit_identity(best: &Tunables) -> bool {
    let frame = timing_frame(67, 53);
    let params = ChambolleParams::with_iterations(11);
    let at_exact = |t: &Tunables| solve_at_tier(t, NumericsPolicy::Exact, &frame, &params);
    match (at_exact(&Tunables::default()), at_exact(best)) {
        (Some(reference), Some(tuned)) => reference.as_slice() == tuned.as_slice(),
        _ => false,
    }
}

/// For a winner that selects the Fast tier: its Fast solve must stay within
/// the numerics tolerance envelope ([`NumericsPolicy::PIXEL_ATOL`] pixels,
/// [`NumericsPolicy::ENERGY_RTOL`] relative ROF energy) of its own Exact
/// solve. Vacuously true for Exact/Auto winners.
fn prove_fast_tolerance(best: &Tunables) -> bool {
    if best.numerics != NumericsChoice::Fast {
        return true;
    }
    let frame = timing_frame(67, 53);
    let params = ChambolleParams::with_iterations(11);
    let exact = solve_at_tier(best, NumericsPolicy::Exact, &frame, &params);
    let fast = solve_at_tier(best, NumericsPolicy::Fast, &frame, &params);
    let (Some(exact), Some(fast)) = (exact, fast) else {
        return false;
    };
    let max_dev = exact
        .as_slice()
        .iter()
        .zip(fast.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let e_exact = rof_energy(&exact, &frame, params.theta);
    let e_fast = rof_energy(&fast, &frame, params.theta);
    let energy_rdev = (e_exact - e_fast).abs() / e_exact.abs().max(f64::EPSILON);
    max_dev <= NumericsPolicy::PIXEL_ATOL && energy_rdev <= NumericsPolicy::ENERGY_RTOL
}
