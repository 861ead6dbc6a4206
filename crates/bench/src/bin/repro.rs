//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p chambolle-bench --bin repro --release -- all
//! cargo run -p chambolle-bench --bin repro --release -- table2
//! ```
//!
//! Subcommands: `table1`, `table2`, `fig1`, `overhead`, `sqrt`, `profile`,
//! `arch`, `all`. See `EXPERIMENTS.md` for the experiment index.
//!
//! With `--json`, the selected reproduction is emitted as a machine-readable
//! [`RunReport`] on stdout instead of text tables: `--json` alone runs a fast
//! instrumented suite (solver trajectory, tiling redundancy, accelerator
//! cycle/BRAM counters, fault-recovery counters, Table I/II records), while
//! `--json table1` / `--json table2` restrict the report to that table.

use std::env;
use std::sync::Arc;

use chambolle_bench::baselines::{
    best_baseline, PAPER_SPEEDUP_RANGE, TABLE2_BASELINES, TABLE2_PROPOSED,
};
use chambolle_bench::dataset::standard_cases;
use chambolle_bench::tables::{fps_cell, TextTable};
use chambolle_bench::workloads::{measure_host_chambolle, timing_frame};
use chambolle_core::dependency::{best_group_shape, cone_stats};
use chambolle_core::{
    chambolle_denoise, chambolle_denoise_monitored, chambolle_denoise_monitored_with_ctx,
    ChambolleParams, ExecCtx, ParallelSolver, TileConfig, TilePlan, TvDenoiser, TvL1Params,
    TvL1Solver,
};
use chambolle_fixed::{sqrt_accuracy, SqrtLut};
use chambolle_hwsim::{
    fixed_chambolle_reference_with, quantize_input, AccelConfig, AccelGuardConfig, ArrayConfig,
    ChambolleAccel, DeviceCapacity, FaultConfig, FaultInjector, HwParams, PeArray, ResourceModel,
    SqrtKind, ThroughputModel,
};
use chambolle_par::ThreadPool;
use chambolle_telemetry::json::JsonValue;
use chambolle_telemetry::report::RunReport;
use chambolle_telemetry::{names, Telemetry};

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let json_mode = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    if json_mode {
        let report = match cmd {
            "all" | "report" => json_full_report(),
            "table1" => json_table_report("repro.table1", "table1", table1_json()),
            "table2" => json_table_report("repro.table2", "table2", table2_json()),
            other => {
                eprintln!("unknown --json experiment {other:?}; use one of: table1 table2 all");
                std::process::exit(2);
            }
        };
        println!("{}", report.to_json().to_string_pretty());
        return;
    }
    match cmd {
        "table1" => table1(),
        "table2" => table2(),
        "fig1" => fig1(),
        "overhead" => overhead(),
        "sqrt" => sqrt(),
        "profile" => profile(),
        "arch" => arch(),
        "ablate" => ablate(),
        "convergence" => convergence(),
        "accuracy" => accuracy(),
        "decomposition" => decomposition(),
        "all" => {
            table1();
            fig1();
            overhead();
            sqrt();
            arch();
            ablate();
            convergence();
            accuracy();
            decomposition();
            profile();
            table2();
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; use one of: table1 table2 fig1 overhead sqrt profile arch ablate convergence accuracy decomposition all"
            );
            std::process::exit(2);
        }
    }
}

/// A [`RunReport`] holding a single table section (for `--json table1|2`).
fn json_table_report(tool: &str, section: &str, value: JsonValue) -> RunReport {
    let mut report = RunReport::new(tool);
    report.add_section(section, value);
    report
}

/// The default `--json` suite: runs instrumented versions of the fast
/// experiments and collects every cross-crate metric the telemetry layer
/// exposes — solver iterations and duality-gap trajectory, pool scheduling,
/// the paper geometry's halo redundancy, accelerator cycle and per-port BRAM
/// counters, throughput-model gauges, and fault-recovery counters — into one
/// schema-versioned report.
fn json_full_report() -> RunReport {
    let telemetry = Telemetry::null();

    // Solver: monitored convergence on the standard timing frame.
    let v = timing_frame(128, 128).map(|&x| f64::from(x));
    let solver_iters = 200u32;
    let solve = chambolle_denoise_monitored_with_ctx(
        &v,
        &ChambolleParams::with_iterations(solver_iters),
        50,
        0.0,
        &ExecCtx::default().with_telemetry(telemetry.clone()),
    )
    .expect("no cancellation token installed");
    let trajectory = JsonValue::Array(
        solve
            .history
            .iter()
            .map(|p| {
                JsonValue::Object(vec![
                    ("iteration".into(), u64::from(p.iteration).into()),
                    ("energy".into(), p.energy.into()),
                    ("gap".into(), p.gap.into()),
                ])
            })
            .collect(),
    );

    // Parallel solve: the banded solver on a 2-thread pool (pool tasks,
    // broadcasts and block spans). The halo-redundancy ratio is the paper
    // geometry's window plan for the same frame.
    let v32 = timing_frame(256, 256);
    let pool = Arc::new(ThreadPool::new(2).with_telemetry(telemetry.clone()));
    let ctx = ExecCtx::default().with_telemetry(telemetry.clone());
    let _ =
        ParallelSolver::with_pool(pool).denoise_with_ctx(&v32, &ChambolleParams::paper(6), &ctx);
    let plan = TilePlan::new(
        v32.width(),
        v32.height(),
        TileConfig::paper_hardware(2).expect("valid config"),
    );
    telemetry.gauge_set(names::TILING_REDUNDANCY_RATIO, plan.redundancy_fraction());

    // Accelerator: a cycle-level two-window frame (cycle totals, per-port
    // BRAM access/idle counts, sqrt-LUT usage).
    let frame = timing_frame(150, 120);
    let mut accel = ChambolleAccel::new(AccelConfig::paper(2).expect("valid config"));
    accel.attach_telemetry(telemetry.clone());
    accel
        .denoise_pair(&frame, None, &ChambolleParams::paper(6))
        .expect("paper params are hardware-representable");

    // Guarded accelerator under a deterministic SEU schedule (detection /
    // recovery / fallback counters).
    let mut guarded = ChambolleAccel::new(AccelConfig::paper(2).expect("valid config"));
    guarded.attach_telemetry(telemetry.clone());
    let mut injector = FaultInjector::new(FaultConfig {
        seed: 2011,
        bram_flip_rate: 5e-4,
        lut_rate: 0.0,
        datapath_rate: 0.0,
    });
    guarded
        .denoise_pair_guarded(
            &frame,
            None,
            &ChambolleParams::paper(6),
            &mut injector,
            &AccelGuardConfig::default(),
        )
        .expect("paper params are hardware-representable");

    // Throughput model at the Table II flagship shape.
    let model = ThroughputModel::new(AccelConfig::paper(2).expect("valid config"));
    model.record_telemetry(&telemetry, 512, 512, 200);

    let mut report = RunReport::from_telemetry("repro", &telemetry);
    report.add_section(
        "solver",
        JsonValue::Object(vec![
            ("iterations".into(), u64::from(solver_iters).into()),
            ("trajectory".into(), trajectory),
        ]),
    );
    report.add_section("table1", table1_json());
    report.add_section("table2", table2_json());
    report
}

/// Table I as structured records (shares `table1()`'s resource model).
fn table1_json() -> JsonValue {
    let model = ResourceModel::paper();
    let usage = model.usage();
    let dev = DeviceCapacity::XC5VLX110T;
    let util = usage.utilization(&dev);
    let resources = JsonValue::Object(vec![
        (
            "used".into(),
            JsonValue::Object(vec![
                ("flipflops".into(), u64::from(usage.flipflops).into()),
                ("luts".into(), u64::from(usage.luts).into()),
                ("brams".into(), u64::from(usage.brams).into()),
                ("dsps".into(), u64::from(usage.dsps).into()),
            ]),
        ),
        (
            "total".into(),
            JsonValue::Object(vec![
                ("flipflops".into(), u64::from(dev.flipflops).into()),
                ("luts".into(), u64::from(dev.luts).into()),
                ("brams".into(), u64::from(dev.brams).into()),
                ("dsps".into(), u64::from(dev.dsps).into()),
            ]),
        ),
        (
            "percent".into(),
            JsonValue::Object(vec![
                ("flipflops".into(), util.flipflops_pct.into()),
                ("luts".into(), util.luts_pct.into()),
                ("brams".into(), util.brams_pct.into()),
                ("dsps".into(), util.dsps_pct.into()),
            ]),
        ),
    ]);
    let breakdown = JsonValue::Array(
        model
            .breakdown()
            .into_iter()
            .map(|(name, u)| {
                JsonValue::Object(vec![
                    ("block".into(), name.into()),
                    ("flipflops".into(), u64::from(u.flipflops).into()),
                    ("luts".into(), u64::from(u.luts).into()),
                    ("brams".into(), u64::from(u.brams).into()),
                    ("dsps".into(), u64::from(u.dsps).into()),
                ])
            })
            .collect(),
    );
    JsonValue::Object(vec![
        ("device".into(), "XC5VLX110T".into()),
        ("pe_count".into(), u64::from(model.pe_count()).into()),
        ("resources".into(), resources),
        ("breakdown".into(), breakdown),
    ])
}

/// Table II as structured records: literature baselines plus the analytic
/// cycle model of the simulated accelerator (the slow measured host-CPU rows
/// of the text table are skipped so `--json` stays fast).
fn table2_json() -> JsonValue {
    let row = |reference: &str, device: &str, iters: u32, w: usize, h: usize, lo: f64, hi: f64| {
        JsonValue::Object(vec![
            ("reference".into(), reference.into()),
            ("device".into(), device.into()),
            ("iterations".into(), u64::from(iters).into()),
            ("width".into(), (w as u64).into()),
            ("height".into(), (h as u64).into()),
            ("fps_lo".into(), lo.into()),
            ("fps_hi".into(), hi.into()),
        ])
    };
    let mut rows = Vec::new();
    for r in TABLE2_BASELINES.iter().chain(TABLE2_PROPOSED) {
        rows.push(row(
            r.reference,
            r.device,
            r.iterations,
            r.width,
            r.height,
            r.fps_lo,
            r.fps_hi,
        ));
    }
    let model = ThroughputModel::new(AccelConfig::paper(2).expect("valid config"));
    let shapes: &[(usize, usize, &[u32])] = &[
        (128, 128, &[50, 100, 200]),
        (256, 256, &[50, 100, 200]),
        (512, 512, &[50, 100, 200]),
        (1024, 768, &[200]),
    ];
    for &(w, h, iters) in shapes {
        for &n in iters {
            let f1 = model.fps(w, h, n);
            let f3 = model.fps_with_loop_decomposition(w, h, n, 3);
            rows.push(row(
                "ours",
                "simulated FPGA @221 MHz (m=1)",
                n,
                w,
                h,
                f1,
                f1,
            ));
            rows.push(row(
                "ours",
                "simulated FPGA @221 MHz (m=3)",
                n,
                w,
                h,
                f3,
                f3,
            ));
        }
    }
    JsonValue::Object(vec![("rows".into(), JsonValue::Array(rows))])
}

fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// E1 — Table I: area usage on the XC5VLX110T.
fn table1() {
    banner("Table I: area usage on a XC5VLX110T (resource model)");
    let model = ResourceModel::paper();
    let usage = model.usage();
    let dev = DeviceCapacity::XC5VLX110T;
    let util = usage.utilization(&dev);

    let mut t = TextTable::new(&["", "FlipFlops", "LUTs", "BRAMs", "DSPs"]);
    t.row_owned(vec![
        "Used".into(),
        usage.flipflops.to_string(),
        usage.luts.to_string(),
        usage.brams.to_string(),
        usage.dsps.to_string(),
    ]);
    t.row_owned(vec![
        "Total".into(),
        dev.flipflops.to_string(),
        dev.luts.to_string(),
        dev.brams.to_string(),
        dev.dsps.to_string(),
    ]);
    t.row_owned(vec![
        "Percentage".into(),
        format!("{:.0}%", util.flipflops_pct),
        format!("{:.0}%", util.luts_pct),
        format!("{:.0}%", util.brams_pct),
        format!("{:.1}%", util.dsps_pct),
    ]);
    println!("{}", t.render());

    println!("Breakdown ({} PEs total):", model.pe_count());
    let mut b = TextTable::new(&["block", "FF", "LUT", "BRAM", "DSP"]);
    for (name, u) in model.breakdown() {
        b.row_owned(vec![
            name.into(),
            u.flipflops.to_string(),
            u.luts.to_string(),
            u.brams.to_string(),
            u.dsps.to_string(),
        ]);
    }
    println!("{}", b.render());
    println!("Paper reports: 23143 FF (33%), 32829 LUT (47%), 36 BRAM (28%), 62 DSP (96.8%).");
}

/// E2/E3 — Table II: frame rates and speedups.
fn table2() {
    banner("Table II: frame-rate comparison");
    let mut t = TextTable::new(&["Ref.", "Device", "Iter", "Resolution", "fps"]);
    for r in TABLE2_BASELINES {
        t.row_owned(vec![
            r.reference.into(),
            r.device.into(),
            r.iterations.to_string(),
            format!("{}x{}", r.width, r.height),
            fps_cell(r.fps_lo, r.fps_hi),
        ]);
    }
    for r in TABLE2_PROPOSED {
        t.row_owned(vec![
            r.reference.into(),
            r.device.into(),
            r.iterations.to_string(),
            format!("{}x{}", r.width, r.height),
            fps_cell(r.fps_lo, r.fps_hi),
        ]);
    }

    // Our rows: measured host software baseline + the cycle model of the
    // simulated accelerator (structural m=1 and calibrated m=3; see
    // DESIGN.md deviation 2).
    let model = ThroughputModel::new(AccelConfig::paper(2).expect("valid config"));
    let shapes: &[(usize, usize, &[u32])] = &[
        (128, 128, &[50, 100, 200]),
        (256, 256, &[50, 100, 200]),
        (512, 512, &[50, 100, 200]),
        (1024, 768, &[200]),
    ];
    for &(w, h, iters) in shapes {
        for &n in iters {
            let host = measure_host_chambolle(w, h, n);
            t.row_owned(vec![
                "ours".into(),
                "host CPU (sequential software)".into(),
                n.to_string(),
                format!("{w}x{h}"),
                format!("{:.1}", host.fps),
            ]);
            t.row_owned(vec![
                "ours".into(),
                "simulated FPGA @221 MHz (m=1)".into(),
                n.to_string(),
                format!("{w}x{h}"),
                format!("{:.1}", model.fps(w, h, n)),
            ]);
            t.row_owned(vec![
                "ours".into(),
                "simulated FPGA @221 MHz (m=3)".into(),
                n.to_string(),
                format!("{w}x{h}"),
                format!("{:.1}", model.fps_with_loop_decomposition(w, h, n, 3)),
            ]);
        }
    }
    println!("{}", t.render());

    // E3: speedup summary at 512x512.
    banner("Speedup summary at 512x512 (Section VI)");
    let mut s = TextTable::new(&[
        "iterations",
        "best GPU fps",
        "sim fps (m=1)",
        "sim fps (m=3)",
        "speedup (m=1)",
        "speedup (m=3)",
    ]);
    for &n in &[50u32, 100, 200] {
        if let Some(best) = best_baseline(512, 512, n) {
            let f1 = model.fps(512, 512, n);
            let f3 = model.fps_with_loop_decomposition(512, 512, n, 3);
            s.row_owned(vec![
                n.to_string(),
                format!("{:.1} ({})", best.fps_hi, best.device),
                format!("{f1:.1}"),
                format!("{f3:.1}"),
                format!("{:.1}x", f1 / best.fps_hi),
                format!("{:.1}x", f3 / best.fps_hi),
            ]);
        }
    }
    println!("{}", s.render());
    let worst_512 = TABLE2_BASELINES
        .iter()
        .filter(|r| r.width == 512)
        .map(|r| r.fps_lo)
        .fold(f64::INFINITY, f64::min);
    let best_512 = TABLE2_BASELINES
        .iter()
        .filter(|r| r.width == 512)
        .map(|r| r.fps_hi)
        .fold(0.0, f64::max);
    let f3_200 = model.fps_with_loop_decomposition(512, 512, 200, 3);
    let f3_100 = model.fps_with_loop_decomposition(512, 512, 100, 3);
    println!(
        "Paper speedup range: {:.1}x - {:.1}x; ours (m=3): {:.1}x - {:.1}x",
        PAPER_SPEEDUP_RANGE.0,
        PAPER_SPEEDUP_RANGE.1,
        f3_100 / best_512,
        f3_200 / worst_512,
    );
}

/// E4 — Figure 1: dependency cones of merged iterations.
fn fig1() {
    banner("Figure 1: data dependencies across merged iterations");
    let mut t = TextTable::new(&[
        "output group",
        "merged iters",
        "inputs at n",
        "overhead",
        "inputs/output",
    ]);
    for &(gw, gh, it) in &[
        (1usize, 1usize, 1u32), // Fig. 1.a: 7 inputs
        (2, 2, 1),              // Fig. 1.b: 14 inputs (3.5 per output)
        (1, 1, 2),              // Fig. 1.c: n+2 from n
        (2, 2, 2),
        (4, 4, 1),
        (4, 4, 2),
        (8, 8, 2),
        (16, 1, 1), // line vs square comparison
    ] {
        let s = cone_stats(gw, gh, it);
        t.row_owned(vec![
            format!("{gw}x{gh}"),
            it.to_string(),
            s.inputs.to_string(),
            s.overhead.to_string(),
            format!("{:.2}", s.inputs_per_output),
        ]);
    }
    println!("{}", t.render());
    println!("Paper: 7 inputs for one element (Fig. 1.a), 14 for a 2x2 group");
    println!("(3.5 per element, Fig. 1.b), and squared groups minimize overhead:");
    for area in [16usize, 64] {
        let best = best_group_shape(area, 1);
        println!(
            "  best shape of area {area}: {}x{} ({:.2} inputs/output)",
            best.group_w, best.group_h, best.inputs_per_output
        );
    }
}

/// E5 — sliding-window redundancy ("negligible redundant computation").
fn overhead() {
    banner("Sliding-window overhead vs merge factor (Sections III-B, VI)");
    let mut t = TextTable::new(&[
        "frame",
        "K",
        "windows/round",
        "redundant cells",
        "sim fps @221MHz, 200 iters",
    ]);
    for &(w, h) in &[(512usize, 512usize), (1024, 768)] {
        for k in [1u32, 2, 4, 8, 16] {
            let cfg = TileConfig::new(92, 88, k, 2).expect("valid config");
            let plan = TilePlan::new(w, h, cfg);
            let model = ThroughputModel::new(AccelConfig::paper(k).expect("valid config"));
            t.row_owned(vec![
                format!("{w}x{h}"),
                k.to_string(),
                plan.tiles().len().to_string(),
                format!("{:.1}%", 100.0 * plan.redundancy_fraction()),
                format!("{:.1}", model.fps(w, h, 200)),
            ]);
        }
    }
    println!("{}", t.render());
    println!("The overhead grows with K while the per-round fixed costs shrink;");
    println!("K=2 keeps the redundancy near 10% at negligible fps cost, matching");
    println!("the paper's \"negligible amount of redundant computation\".");
}

/// E6 — LUT square-root accuracy (Section V-C).
fn sqrt() {
    banner("LUT square root accuracy (Section V-C)");
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let lut = SqrtLut::new();
    let mut rng = StdRng::seed_from_u64(2011);
    // Uniform over the Q24.8 range: the magnitudes a PE-V actually sees.
    let uniform = sqrt_accuracy(&lut, (0..1_000_000).map(|_| rng.gen_range(1u32..1 << 24)));
    // Log-uniform: exercises small magnitudes, where the 8-bit block loses
    // precision — the regime behind the paper's "more than 90%" phrasing.
    let log_uniform = sqrt_accuracy(
        &lut,
        (0..1_000_000).map(|_| {
            let bits = rng.gen_range(1u32..=24);
            rng.gen_range(1u32 << (bits - 1)..1u32 << bits)
        }),
    );
    for (name, acc) in [("uniform", uniform), ("log-uniform", log_uniform)] {
        println!("{name} samples:        {}", acc.samples);
        println!(
            "  error < 1%:           {:.2}% of samples (paper: >90%)",
            100.0 * acc.fraction_below_1pct
        );
        println!(
            "  max relative error:   {:.2}%",
            100.0 * acc.max_relative_error
        );
        println!(
            "  mean relative error:  {:.3}%",
            100.0 * acc.mean_relative_error
        );
    }
    println!(
        "table: {} entries, ~{} FPGA LUTs per instance (paper: 256 entries, 70 LUTs)",
        SqrtLut::ENTRIES,
        SqrtLut::FPGA_LUTS
    );
}

/// E7 — TV-L1 runtime profile (Section I).
fn profile() {
    banner("TV-L1 profile: time spent in the Chambolle inner solver (Section I)");
    let frame = timing_frame(192, 144);
    let mut t = TextTable::new(&["inner iterations", "total", "in Chambolle", "fraction"]);
    for iters in [25u32, 50, 100, 200] {
        let params = TvL1Params::new(38.0, ChambolleParams::with_iterations(iters), 2, 3, 3)
            .expect("valid params");
        let solver = TvL1Solver::sequential(params);
        let (_, stats) = solver
            .flow(&frame, &frame)
            .expect("equal-size frames are valid");
        t.row_owned(vec![
            iters.to_string(),
            format!("{:.0} ms", stats.total_time.as_secs_f64() * 1e3),
            format!("{:.0} ms", stats.chambolle_time.as_secs_f64() * 1e3),
            format!("{:.0}%", 100.0 * stats.chambolle_fraction()),
        ]);
    }
    println!("{}", t.render());
    println!("Paper: \"approximately 90% of the execution time is spent on the");
    println!("Chambolle iterative technique\" at its (50-200) iteration counts.");
}

/// Design-choice ablations beyond the paper's tables (DESIGN.md).
fn ablate() {
    banner("Ablation A: square-root unit (Section V-C trade)");
    // Quality: fixed-point denoise vs the float solver, per sqrt unit.
    let v = timing_frame(96, 88);
    let iters = 60u32;
    let (u_float, _) = chambolle_denoise(&v, &ChambolleParams::with_iterations(iters));
    let mut t = TextTable::new(&[
        "sqrt unit",
        "max |u - float|",
        "latency",
        "sim fps 512x512@200",
        "LUTs",
        "FFs",
    ]);
    for kind in [SqrtKind::Lut, SqrtKind::NonRestoring] {
        let unit = kind.unit();
        let sol =
            fixed_chambolle_reference_with(&quantize_input(&v), &HwParams::standard(iters), &unit);
        let mut max_err = 0.0f32;
        for (x, y, &uf) in u_float.iter() {
            max_err = max_err.max((sol.u[(x, y)].to_f32() - uf).abs());
        }
        let config = AccelConfig {
            sqrt: kind,
            ..AccelConfig::default()
        };
        let model = ThroughputModel::new(config);
        let resources = match kind {
            SqrtKind::Lut => ResourceModel::paper(),
            SqrtKind::NonRestoring => ResourceModel::paper_with_non_restoring_sqrt(),
        }
        .usage();
        t.row_owned(vec![
            unit.name().into(),
            format!("{max_err:.4}"),
            format!("{} cycle(s)", unit.latency_cycles()),
            format!("{:.1}", model.fps(512, 512, 200)),
            resources.luts.to_string(),
            resources.flipflops.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Finding: the end-to-end error is dominated by the 9-bit dual");
    println!("quantization, so the exact iterative sqrt buys nothing — supporting");
    println!("the paper's claim that the LUT precision \"is still acceptable for");
    println!(
        "Chambolle\" while being 20x shallower and ~{} LUTs cheaper.",
        ResourceModel::paper_with_non_restoring_sqrt().usage().luts
            - ResourceModel::paper().usage().luts
    );

    banner("Ablation B: number of sliding windows (and the DSP remark)");
    let mut t = TextTable::new(&[
        "sliding windows",
        "multipliers",
        "sim fps 512x512@200",
        "DSPs",
        "LUTs",
        "fits XC5VLX110T?",
    ]);
    for n in [1usize, 2, 3] {
        for lut_mult in [false, true] {
            let config = AccelConfig {
                sliding_windows: n,
                ..AccelConfig::default()
            };
            let model = ThroughputModel::new(config);
            let mut res = if lut_mult {
                ResourceModel::paper_with_lut_multipliers()
            } else {
                ResourceModel::paper()
            };
            res.pe_arrays = 2 * n as u32;
            let usage = res.usage();
            let dev = DeviceCapacity::XC5VLX110T;
            let verdict = if usage.dsps > dev.dsps {
                "no (DSPs)"
            } else if usage.luts > dev.luts {
                "no (LUTs)"
            } else {
                "yes"
            };
            t.row_owned(vec![
                n.to_string(),
                if lut_mult {
                    "fabric".into()
                } else {
                    "DSP48E".to_string()
                },
                format!("{:.1}", model.fps(512, 512, 200)),
                usage.dsps.to_string(),
                usage.luts.to_string(),
                verdict.into(),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Moving the PE-V multiplications into fabric (the paper's Section VI");
    println!("remark) frees the DSPs, but a third window then exhausts the LUTs:");
    println!("the binding constraint moves rather than disappears.");

    banner("Ablation D: PE-ladder depth (PE pairs per array)");
    let mut t = TextTable::new(&["ladder depth", "PEs total", "sim fps 512x512@200", "DSPs"]);
    for depth in [1usize, 2, 3, 5, 7] {
        let config = AccelConfig {
            array: ArrayConfig::paper_with_ladder(depth),
            ..AccelConfig::default()
        };
        let model = ThroughputModel::new(config);
        let mut res = ResourceModel::paper();
        res.pe_t_per_array = depth as u32;
        res.pe_v_per_array = depth as u32;
        t.row_owned(vec![
            depth.to_string(),
            res.pe_count().to_string(),
            format!("{:.1}", model.fps(512, 512, 200)),
            res.usage().dsps.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Depth 7 is the sweet spot the paper picked: the 8-BRAM interleave");
    println!("caps the ladder at 7 (the region also reads the row above), and");
    println!("throughput scales almost linearly up to that cap.");

    banner("Ablation C: off-chip transfer (the paper assumes pre-loaded frames)");
    let mut t = TextTable::new(&[
        "K",
        "fps (no transfer)",
        "fps @8 w/c serial",
        "fps @2 w/c serial",
        "fps @2 w/c dbl-buf",
    ]);
    for k in [2u32, 4, 8, 16] {
        let model = ThroughputModel::new(AccelConfig::paper(k).expect("valid config"));
        let fps = |cycles: u64| 221e6 / cycles as f64;
        t.row_owned(vec![
            k.to_string(),
            format!("{:.1}", fps(model.frame_cycles(512, 512, 200))),
            format!(
                "{:.1}",
                fps(model.frame_cycles_with_transfer(512, 512, 200, 8.0))
            ),
            format!(
                "{:.1}",
                fps(model.frame_cycles_with_transfer(512, 512, 200, 2.0))
            ),
            format!(
                "{:.1}",
                fps(model.sustained_frame_cycles_with_transfer(512, 512, 200, 2.0))
            ),
        ]);
    }
    println!("{}", t.render());
    println!("Per-round reloads make bandwidth significant at small K; larger K");
    println!("amortizes traffic, and double-buffered DMA hides whatever fits under");
    println!("the compute time — together they recover the pre-loaded frame rate.");
}

/// Duality-gap convergence: how many iterations the precision knob buys.
fn convergence() {
    banner("Convergence: duality gap vs iterations (the Niterations knob)");
    let v = timing_frame(128, 128).map(|&x| x as f64);
    let params = ChambolleParams::with_iterations(400);
    let report = chambolle_denoise_monitored(&v, &params, 50, 0.0);
    let mut t = TextTable::new(&["iterations", "primal energy", "duality gap", "gap/initial"]);
    let g0 = report.history.first().map(|p| p.gap).unwrap_or(1.0);
    for pt in &report.history {
        t.row_owned(vec![
            pt.iteration.to_string(),
            format!("{:.2}", pt.energy),
            format!("{:.3}", pt.gap),
            format!("{:.3}", pt.gap / g0),
        ]);
    }
    println!("{}", t.render());
    println!("The gap bounds the distance to optimality; Table II's 50/100/200");
    println!("iteration sweep corresponds to successive ~2x gap reductions.");
}

/// Flow accuracy on the synthetic suite (a dimension the paper leaves out).
fn accuracy() {
    use chambolle_core::{
        block_matching_flow, BlockMatchingParams, HornSchunck, HornSchunckParams, SequentialSolver,
        TvDenoiser,
    };
    use chambolle_hwsim::{AccelConfig, AccelDenoiser, ChambolleAccel};
    use chambolle_imaging::{average_angular_error, average_endpoint_error, FlowField};

    banner("Flow accuracy on the synthetic suite (AEE px / AAE deg)");
    let cases = standard_cases(96, 72);
    let params = TvL1Params::default();
    let tvl1_backends: Vec<(&str, Box<dyn TvDenoiser>)> = vec![
        ("TV-L1 (sequential f32)", Box::new(SequentialSolver::new())),
        (
            "TV-L1 (simulated FPGA)",
            Box::new(AccelDenoiser::new(ChambolleAccel::new(
                AccelConfig::default(),
            ))),
        ),
    ];
    let hs = HornSchunck::new(HornSchunckParams::default());
    let bm = BlockMatchingParams::new(8, 10).expect("valid params");

    let mut t = TextTable::new(&["case", "method", "AEE (px)", "AAE (deg)"]);
    let report = |case: &str, method: &str, flow: &FlowField, truth: &FlowField| {
        let aee = average_endpoint_error(flow, truth);
        let aae = average_angular_error(flow, truth).to_degrees();
        (
            case.to_string(),
            method.to_string(),
            format!("{aee:.3}"),
            format!("{aae:.2}"),
        )
    };
    for case in &cases {
        for (name, backend) in &tvl1_backends {
            let solver = TvL1Solver::with_backend(params, backend);
            let (flow, _) = solver
                .flow(&case.pair.i0, &case.pair.i1)
                .expect("suite frames are valid");
            let (a, b, c, d) = report(case.name, name, &flow, &case.pair.truth);
            t.row_owned(vec![a, b, c, d]);
        }
        let flow = hs
            .flow(&case.pair.i0, &case.pair.i1)
            .expect("suite frames are valid");
        let (a, b, c, d) = report(case.name, "Horn-Schunck [7]", &flow, &case.pair.truth);
        t.row_owned(vec![a, b, c, d]);
        let flow =
            block_matching_flow(&case.pair.i0, &case.pair.i1, &bm).expect("suite frames are valid");
        let (a, b, c, d) = report(case.name, "block matching 8x8", &flow, &case.pair.truth);
        t.row_owned(vec![a, b, c, d]);
    }
    println!("{}", t.render());
    println!("TV-L1 dominates the classical baselines (sub-pixel everywhere), and");
    println!("the fixed-point accelerator tracks the f32 solver to a fraction of");
    println!("a pixel — the 13/9-bit datapath does not limit flow quality.");
}

/// Loop decomposition in hardware: throughput vs. area of cascaded PEs
/// (the critical examination of the 99.1 fps headline).
fn decomposition() {
    use chambolle_core::{chambolle_iterate, compute_group_decomposed, DualField, GroupRect};
    use chambolle_imaging::{Grid, NoiseTexture, Scene};

    banner("Loop decomposition: measured merge cost and the cascade budget");

    // Measured evaluation counts of the direct n -> n+depth formula
    // (executable Fig. 1; see core::decomposition).
    let v: Grid<f32> = NoiseTexture::new(17).render(64, 64);
    let params = ChambolleParams::with_iterations(5);
    let mut p = DualField::zeros(64, 64);
    chambolle_iterate(&mut p, &v, &params, 3);
    let mut t = TextTable::new(&["depth m", "p-evals/output (7x7 group)", "term-evals/output"]);
    for depth in [1u32, 2, 3] {
        let group = GroupRect {
            x0: 28,
            y0: 28,
            w: 7,
            h: 7,
        };
        let (_, _, stats) = compute_group_decomposed(&p, &v, &params, depth, group);
        t.row_owned(vec![
            depth.to_string(),
            format!("{:.2}", stats.p_evals as f64 / 49.0),
            format!("{:.2}", stats.term_evals as f64 / 49.0),
        ]);
    }
    println!("{}", t.render());

    // Hardware realization: m cascaded (PE-T, PE-V) stages per ladder row
    // advance m iterations per pass at the same BRAM bandwidth.
    let mut t = TextTable::new(&[
        "cascade m",
        "PEs",
        "sim fps 512x512@200",
        "DSPs",
        "LUTs (fabric mults)",
        "fits XC5VLX110T?",
    ]);
    let model = ThroughputModel::new(AccelConfig::default());
    let dev = DeviceCapacity::XC5VLX110T;
    for m in [1u32, 2, 3] {
        let mut res = ResourceModel::paper_with_cascade(m);
        let dsp_usage = res.usage();
        res.lut_multipliers = true;
        let lut_usage = res.usage();
        let fits = if dsp_usage.dsps <= dev.dsps && dsp_usage.luts <= dev.luts {
            "yes (DSP mults)"
        } else if lut_usage.dsps <= dev.dsps && lut_usage.luts <= dev.luts {
            "yes (fabric mults)"
        } else {
            "no"
        };
        t.row_owned(vec![
            m.to_string(),
            res.pe_count().to_string(),
            format!("{:.1}", model.fps_with_loop_decomposition(512, 512, 200, m)),
            dsp_usage.dsps.to_string(),
            lut_usage.luts.to_string(),
            fits.into(),
        ]);
    }
    println!("{}", t.render());
    println!("Reproduction finding: matching the paper's 99.1 fps requires m = 3");
    println!("passes-per-iteration, but under this area model (calibrated to the");
    println!("paper's own Table I) a cascade of depth 2+ exceeds the XC5VLX110T —");
    println!("with DSP multipliers it runs out of DSP48Es, with fabric multipliers");
    println!("out of LUTs. The published Table I area is only consistent with the");
    println!("m = 1 structure (35.7 fps); the 99.1 fps headline and the 62-DSP");
    println!("area cannot both hold under our model. See EXPERIMENTS.md E2.");
}

/// E8 — architectural invariants (Sections IV, V-B).
fn arch() {
    banner("Architecture invariants (Sections IV and V-B)");
    let mut array = PeArray::new(ArrayConfig::paper());
    let v = timing_frame(92, 88);
    let run = array.process_window(&chambolle_hwsim::quantize_input(&v), &HwParams::standard(1));
    let s = run.stats;
    println!("window 92x88, 1 iteration + u-sweep:");
    println!("  cycles:               {}", s.cycles);
    println!(
        "  passes:               {} (13 regions + flush + 13 u-sweep)",
        s.passes
    );
    println!("  element latency:      18 cycles (1 control + 1 BRAM + 1 rotator + 15 PE)");
    println!(
        "  operand vectors/elem: {:.3} (15/7 = {:.3} with reuse; 4.0 without)",
        s.operand_vectors_per_element(),
        15.0 / 7.0
    );
    println!(
        "  data BRAM accesses:   {} reads, {} writes",
        s.data_reads, s.data_writes
    );
    println!(
        "  BRAM-Term accesses:   {} reads, {} writes",
        s.term_reads, s.term_writes
    );
    println!(
        "  BRAMs per accelerator: {} (4 arrays x (8 data + 1 Term)); paper: 36",
        ResourceModel::paper().usage().brams
    );
    println!(
        "  BRAM addresses used:  {} per data BRAM (88/8 rows x 92 cols); paper: 1012",
        ArrayConfig::paper().bram_capacity()
    );
}
