//! The traced run: the workload once with telemetry off and once on, then
//! one probe per layer. Every layer is timed from outside, through calls
//! into its public functions, inside a bench-side span.

use std::cell::Cell;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chambolle_core::fast::fused_band_iteration_fast;
use chambolle_core::kernels::{fused_band_iteration_on, BandHalo};
use chambolle_core::{
    chambolle_denoise_with_ctx, chambolle_iterate_tiled_with_ctx, chambolle_iterate_with_ctx,
    guarded_denoise_with_ctx, threshold_step, ChambolleParams, DualField, ExecCtx, KernelBackend,
    NumericsPolicy, ParallelSolver, RecoveryPolicy, TileConfig, TilePlan, TvDenoiser, TvL1Params,
    TvL1Solver,
};
use chambolle_fixed::{fixed_denoise, FixedFrame, FixedSolverParams, SqrtUnit};
use chambolle_hwsim::{AccelConfig, ThroughputModel};
use chambolle_imaging::{FlowField, Grid, Pyramid, WarpLinearization};
use chambolle_par::ThreadPool;
use chambolle_service::wire::{
    decode_request, decode_response, encode_denoise_request, encode_ok_response, WIRE_VERSION,
};
use chambolle_service::{Priority, ResponseTier, TraceContext};
use chambolle_telemetry::{names, Telemetry};

use crate::host;
use crate::report::{nproc, RunResult};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, tail_percentile};
use crate::workloads::{
    flow_frames, measure, noisy_image, prepare, Outcome, Phase, Prepared, RunConfig, Workload,
    MIN_BEYOND,
};

/// Floating-point operations per cell·iteration of Algorithm 1, counted
/// from the kernel: the term `div p − v/θ` is 5 (two differences, their
/// sum, `v·(1/θ)`, one difference) and the dual update 14 (two
/// differences, `t1² + t2²` = 3, one sqrt, `1 + τ/θ·|∇|` = 2, and
/// `(p + τ/θ·t)/d` = 3 per component). The Fast tier does the same
/// algorithmic work with cheaper instructions, so it counts 19 as well.
pub const FLOPS_PER_CELL_ITER: f64 = 19.0;

/// Bytes per cell·iteration a full-frame f32 pass streams when nothing
/// stays cached between iterations (computed from array sizes, not
/// measured): read `px`, `py`, `v`, write `px`, `py`.
pub const BYTES_PER_CELL_ITER_F32: f64 = 20.0;

/// The same for the planar fixed-point solver, which also writes its full
/// Term plane (16 B in the term pass) and reads it back with `px`, `py`
/// and writes both (20 B in the update pass), in 4-byte words.
pub const BYTES_PER_CELL_ITER_FIXED: f64 = 36.0;

/// Share of the run's seconds the workload gets with telemetry off, and
/// again with it on.
const PHASE_SHARE: f64 = 0.2;

/// Interleaved repetitions of each kernel and solver timing.
const REPS: usize = 5;

/// Chambolle iterations per solver-strategy timing.
const SOLVER_ITERATIONS: u32 = 50;

/// Flows the TV-L1 stage breakdown averages over.
const TVL1_FLOWS: usize = 3;

/// Seconds of open-loop traffic behind the service metrics when the
/// workload is not serve-mixed itself.
const SERVE_PROBE_SECONDS: f64 = 3.0;

/// One kernel contender of the `core::kernels` / `core::fast` layer.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Exact(KernelBackend),
    Fast(KernelBackend),
    Fixed,
}

const KERNELS: [(&str, Kernel); 6] = [
    ("exact_scalar", Kernel::Exact(KernelBackend::Scalar)),
    ("exact_avx2", Kernel::Exact(KernelBackend::Avx2)),
    ("exact_avx512", Kernel::Exact(KernelBackend::Avx512)),
    ("fast_avx2", Kernel::Fast(KernelBackend::Avx2)),
    ("fast_avx512", Kernel::Fast(KernelBackend::Avx512)),
    ("fixedpoint", Kernel::Fixed),
];

impl Kernel {
    /// Why the host cannot run this contender, if it cannot.
    fn unsupported(self) -> Option<&'static str> {
        let fma = {
            #[cfg(target_arch = "x86_64")]
            {
                is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            false
        };
        match self {
            Kernel::Exact(b) if !b.is_supported() => Some("vector unit not supported"),
            Kernel::Fast(b) if !b.is_supported() => Some("vector unit not supported"),
            Kernel::Fast(KernelBackend::Avx2) if !fma => Some("no FMA on this host"),
            _ => None,
        }
    }

    fn bytes_per_cell_iter(self) -> f64 {
        match self {
            Kernel::Fixed => BYTES_PER_CELL_ITER_FIXED,
            _ => BYTES_PER_CELL_ITER_F32,
        }
    }

    /// Seconds for `iters` full-frame iterations, single thread.
    fn time(self, v: &Grid<f32>, params: &ChambolleParams, iters: u32) -> f64 {
        let (w, h) = v.dims();
        let (backend, band_step): (KernelBackend, BandStep) = match self {
            Kernel::Exact(b) => (b, fused_band_iteration_on::<f32>),
            Kernel::Fast(b) => (b, fused_band_iteration_fast),
            Kernel::Fixed => {
                let mut frame = FixedFrame::quantize(v.as_slice(), w, h);
                let sqrt = SqrtUnit::lut();
                let start = Instant::now();
                black_box(fixed_denoise(
                    &mut frame,
                    &FixedSolverParams::standard(),
                    iters,
                    &sqrt,
                ));
                return start.elapsed().as_secs_f64();
            }
        };
        let (mut px, mut py) = (vec![0.0f32; w * h], vec![0.0f32; w * h]);
        let (mut ta, mut tb) = (vec![0.0f32; w], vec![0.0f32; w]);
        let start = Instant::now();
        for _ in 0..iters {
            band_step(
                backend,
                &mut px,
                &mut py,
                v.as_slice(),
                w,
                h,
                0,
                BandHalo {
                    py_above: None,
                    below: None,
                },
                1.0 / params.theta,
                params.step_ratio(),
                &mut ta,
                &mut tb,
            );
        }
        black_box((&px, &py));
        start.elapsed().as_secs_f64()
    }
}

/// A whole-frame band iteration: `fused_band_iteration_on` (Exact) and
/// `fused_band_iteration_fast` share this shape.
type BandStep = fn(
    KernelBackend,
    &mut [f32],
    &mut [f32],
    &[f32],
    usize,
    usize,
    usize,
    BandHalo<'_, f32>,
    f32,
    f32,
    &mut [f32],
    &mut [f32],
);

/// Runs the traced per-layer measurement of `cfg.workload`.
///
/// # Errors
///
/// Failing to prepare the serve probe's inputs.
pub fn run_traced(cfg: &RunConfig, prep: &Prepared, spans: &Spans) -> io::Result<RunResult> {
    let mut result = RunResult::default();
    // Untraced, traced, traced, untraced, twice over: drift in machine
    // speed over the run then weighs on both sides alike.
    let chunk = cfg.seconds * PHASE_SHARE / 4.0;
    let quiet = Spans::disabled();
    let (mut plain, mut traced) = (Outcome::default(), Outcome::default());
    for with_telemetry in [false, true, true, false, false, true, true, false] {
        if with_telemetry {
            traced.merge(spans.scope("workload.traced", None, |id| {
                measure(
                    prep,
                    &short_phase(chunk, cfg.seed, Telemetry::null(), spans, id),
                )
            }));
        } else {
            plain.merge(spans.scope("workload.untraced", None, |_| {
                let phase = short_phase(chunk, cfg.seed, Telemetry::disabled(), &quiet, None);
                measure(prep, &phase)
            }));
        }
    }
    result.absorb_counts(&plain.counts);
    result.absorb_counts(&traced.counts);

    let (w, h, iterations) = cfg.workload.shape();
    let tier = cfg.workload.numerics();
    let v = noisy_image(cfg.seed, w, h);

    spans.scope("layer.host", None, |_| host_probe(&mut result));
    spans.scope("layer.kernels", None, |id| {
        kernel_probe(&v, spans, id, &mut result)
    });
    spans.scope("layer.solver", None, |id| {
        solver_probe(&v, tier, spans, id, &mut result)
    });
    spans.scope("layer.tiling", None, |_| {
        tiling_probe(&v, tier, iterations, &mut result)
    });
    spans.scope("layer.par", None, |_| par_probe(&traced, &mut result));
    spans.scope("layer.tvl1", None, |id| {
        tvl1_probe(cfg.seed, spans, id, &mut result)
    });
    let serve_outcome;
    let serve = match cfg.workload {
        Workload::ServeMixed => &traced,
        _ => {
            let probe = prepare(Workload::ServeMixed, cfg.seed)?;
            serve_outcome = spans.scope("layer.service", None, |id| {
                let phase =
                    short_phase(SERVE_PROBE_SECONDS, cfg.seed, Telemetry::null(), spans, id);
                measure(&probe, &phase)
            });
            result.absorb_counts(&serve_outcome.counts);
            &serve_outcome
        }
    };
    service_metrics(serve, &mut result);
    spans.scope("layer.wire", None, |_| wire_probe(cfg.seed, &mut result));
    spans.scope("layer.guard", None, |_| guard_probe(cfg.seed, &mut result));
    let model = ThroughputModel::new(AccelConfig::default());
    result.push("hwsim.fps_m1", model.fps(w, h, iterations), "1/s");
    result.push(
        "hwsim.fps_m3",
        model.fps_with_loop_decomposition(w, h, iterations, 3),
        "1/s",
    );
    // Units of work take longer when traced by this share: frame or flow
    // time for the frame workloads, request latency for serve-mixed.
    result.push(
        "trace.overhead_frac",
        median(&traced.unit_ms) / median(&plain.unit_ms) - 1.0,
        "fraction",
    );
    Ok(result)
}

/// A window of `seconds` with one set-up and no CLI runs.
fn short_phase(
    seconds: f64,
    seed: u64,
    telemetry: Telemetry,
    spans: &Spans,
    parent: SpanId,
) -> Phase<'_> {
    Phase {
        seconds,
        setups: 1,
        cli: None,
        telemetry,
        spans,
        parent,
        inject_wrong_output: false,
        seed,
    }
}

fn host_probe(result: &mut RunResult) {
    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let triad_bytes = 4 * llc;
    let peak = host::fma_gflops_peak(5);
    let triad = host::triad_gbps(triad_bytes, 5);
    result.push("host.fma_gflops_peak", peak, "GFLOP/s");
    result.push("host.triad_gbps", triad, "GB/s");
    result.push("host.llc_mib", llc as f64 / f64::from(1 << 20), "MiB");
    result.push(
        "host.triad_mib",
        triad_bytes as f64 / f64::from(1 << 20),
        "MiB",
    );
}

/// Iterations per kernel timing: about 20 M cell·iterations, so one timing
/// takes tens of milliseconds at every workload size.
fn kernel_iterations(cells: usize, kernel: Kernel) -> u32 {
    let iters = (20_000_000 / cells).max(4) as u32;
    match kernel {
        // About ten times slower than the f32 kernels.
        Kernel::Fixed => (iters / 8).max(2),
        _ => iters,
    }
}

fn kernel_probe(v: &Grid<f32>, spans: &Spans, parent: SpanId, result: &mut RunResult) {
    let params = ChambolleParams::with_iterations(1);
    let cells = v.width() * v.height();
    let peak = result.metric("host.fma_gflops_peak").unwrap_or(f64::NAN);
    let triad = result.metric("host.triad_gbps").unwrap_or(f64::NAN);
    let runnable: Vec<usize> = (0..KERNELS.len())
        .filter(|&i| KERNELS[i].1.unsupported().is_none())
        .collect();
    // Round-robin across contenders inside every repetition, so machine
    // noise hits each alike.
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); KERNELS.len()];
    for _ in 0..REPS {
        for &i in &runnable {
            let (name, kernel) = KERNELS[i];
            let iters = kernel_iterations(cells, kernel);
            let secs = spans.scope(&format!("kernel.{name}"), parent, |_| {
                kernel.time(v, &params, iters)
            });
            ns[i].push(secs * 1e9 / (cells as f64 * f64::from(iters)));
        }
    }
    for (i, (name, kernel)) in KERNELS.iter().enumerate() {
        if let Some(why) = kernel.unsupported() {
            result.note(format!("kernel.{name} skipped: {why}; its metrics read 0"));
            for (metric, unit) in [
                ("ns_per_cell_iter", "ns"),
                ("gflops", "GFLOP/s"),
                ("gbps_computed", "GB/s"),
                ("roofline_frac", "fraction"),
            ] {
                result.push(format!("kernel.{name}.{metric}"), 0.0, unit);
            }
            continue;
        }
        let ns = median(&ns[i]);
        let gflops = FLOPS_PER_CELL_ITER / ns;
        let bytes = kernel.bytes_per_cell_iter();
        let roof = peak.min(triad * FLOPS_PER_CELL_ITER / bytes);
        result.push(format!("kernel.{name}.ns_per_cell_iter"), ns, "ns");
        result.push(format!("kernel.{name}.gflops"), gflops, "GFLOP/s");
        result.push(format!("kernel.{name}.gbps_computed"), bytes / ns, "GB/s");
        result.push(
            format!("kernel.{name}.roofline_frac"),
            gflops / roof,
            "fraction",
        );
    }
}

/// A solver strategy of `core::solver` / `core::tiling`.
#[derive(Debug, Clone, Copy)]
enum Strategy {
    Sequential,
    Banded(usize),
    Tiled(usize),
}

impl Strategy {
    fn name(self) -> String {
        match self {
            Strategy::Sequential => "solver.seq.ms_per_iter".into(),
            Strategy::Banded(t) => format!("solver.banded.t{t}.ms_per_iter"),
            Strategy::Tiled(t) => format!("solver.tiled.t{t}.ms_per_iter"),
        }
    }
}

fn solver_probe(
    v: &Grid<f32>,
    tier: NumericsPolicy,
    spans: &Spans,
    parent: SpanId,
    result: &mut RunResult,
) {
    let n = nproc();
    let params = ChambolleParams::with_iterations(SOLVER_ITERATIONS);
    let pools: Vec<Arc<ThreadPool>> = (1..=n).map(|t| Arc::new(ThreadPool::new(t))).collect();
    let ctx = |pool: Option<&Arc<ThreadPool>>| {
        let ctx = ExecCtx::default().with_numerics(tier);
        match pool {
            Some(pool) => ctx.with_pool(Arc::clone(pool)),
            None => ctx,
        }
    };
    let strategies: Vec<Strategy> = std::iter::once(Strategy::Sequential)
        .chain((1..=n).map(Strategy::Banded))
        .chain((1..=n).map(Strategy::Tiled))
        .collect();
    let tile_config = TileConfig::default();
    let mut ms: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for _ in 0..REPS.min(3) {
        for (i, &s) in strategies.iter().enumerate() {
            let mut p = DualField::zeros(v.width(), v.height());
            let secs = spans.scope(&s.name(), parent, |_| {
                let start = Instant::now();
                let done = match s {
                    Strategy::Sequential => chambolle_iterate_with_ctx(
                        &mut p,
                        v,
                        &params,
                        SOLVER_ITERATIONS,
                        &ctx(None),
                    ),
                    Strategy::Banded(t) => chambolle_iterate_with_ctx(
                        &mut p,
                        v,
                        &params,
                        SOLVER_ITERATIONS,
                        &ctx(Some(&pools[t - 1])),
                    ),
                    Strategy::Tiled(t) => chambolle_iterate_tiled_with_ctx(
                        &mut p,
                        v,
                        &params,
                        SOLVER_ITERATIONS,
                        &tile_config,
                        &ctx(Some(&pools[t - 1])),
                    ),
                };
                done.expect("no cancellation token is attached");
                start.elapsed().as_secs_f64()
            });
            ms[i].push(secs * 1e3 / f64::from(SOLVER_ITERATIONS));
        }
    }
    for (s, samples) in strategies.iter().zip(&ms) {
        result.push(s.name(), median(samples), "ms");
    }
    // Parallel efficiency at nproc threads: T(1) / (n · T(n)).
    for kind in ["banded", "tiled"] {
        let at = |t: usize| result.metric(&format!("solver.{kind}.t{t}.ms_per_iter"));
        let eff = match (at(1), at(n)) {
            (Some(t1), Some(tn)) => t1 / (n as f64 * tn),
            _ => f64::NAN,
        };
        result.push(format!("solver.{kind}.efficiency"), eff, "fraction");
    }
}

fn tiling_probe(v: &Grid<f32>, tier: NumericsPolicy, iterations: u32, result: &mut RunResult) {
    let config = TileConfig::default();
    let plan = TilePlan::new(v.width(), v.height(), config);
    let telemetry = Telemetry::null();
    let ctx = ExecCtx::default()
        .with_numerics(tier)
        .with_telemetry(telemetry.clone())
        .with_pool(Arc::new(ThreadPool::new(nproc())));
    let params = ChambolleParams::with_iterations(iterations);
    let mut p = DualField::zeros(v.width(), v.height());
    chambolle_iterate_tiled_with_ctx(&mut p, v, &params, iterations, &config, &ctx)
        .expect("no cancellation token is attached");
    let snap = telemetry.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0) as f64;
    result.push(
        "tiling.redundancy_model",
        plan.redundancy_fraction(),
        "fraction",
    );
    result.push(
        "tiling.redundancy_measured",
        snap.gauge(names::TILING_REDUNDANCY_RATIO)
            .unwrap_or(f64::NAN),
        "fraction",
    );
    result.push("tiling.rounds", counter(names::TILING_ROUNDS), "count");
    result.push(
        "tiling.window_loads",
        counter(names::TILING_WINDOW_LOADS),
        "count",
    );
}

fn par_probe(traced: &Outcome, result: &mut RunResult) {
    let pool = ThreadPool::new(nproc());
    const BATCH: u32 = 500;
    let per_batch: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                pool.broadcast(|worker| {
                    black_box(worker);
                });
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH)
        })
        .collect();
    result.push("par.broadcast_us", median(&per_batch), "us");
    // Per unit of work: frame, flow, or request (serve counts the
    // service's own pool through its telemetry).
    let stats = traced.serve.as_ref().map_or(traced.pool, |d| d.pool);
    let units = traced.unit_ms.len().max(1) as f64;
    result.push(
        "par.broadcasts_per_frame",
        stats.broadcasts as f64 / units,
        "count",
    );
    result.push("par.tasks_per_frame", stats.tasks as f64 / units, "count");
    result.push(
        "par.steals_per_frame",
        stats.steal_count as f64 / units,
        "count",
    );
}

/// Times every inner solve of a TV-L1 flow from outside.
struct TimedDenoiser<D> {
    inner: D,
    time: Cell<Duration>,
    calls: Cell<u32>,
}

impl<D: TvDenoiser> TimedDenoiser<D> {
    fn timed(&self, f: impl FnOnce(&D) -> Grid<f32>) -> Grid<f32> {
        let start = Instant::now();
        let u = f(&self.inner);
        self.time.set(self.time.get() + start.elapsed());
        self.calls.set(self.calls.get() + 1);
        u
    }
}

impl<D: TvDenoiser> TvDenoiser for TimedDenoiser<D> {
    fn denoise(&self, v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
        self.timed(|d| d.denoise(v, params))
    }

    fn denoise_with_ctx(
        &self,
        v: &Grid<f32>,
        params: &ChambolleParams,
        ctx: &ExecCtx,
    ) -> Grid<f32> {
        self.timed(|d| d.denoise_with_ctx(v, params, ctx))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The TV-L1 stage breakdown at the flow workload's shape: the inner
/// solves timed through a wrapping denoiser, the pyramid, warp and
/// threshold stages replayed through their public functions at the same
/// shapes and counts, and the residual of the flow's own total.
fn tvl1_probe(seed: u64, spans: &Spans, parent: SpanId, result: &mut RunResult) {
    let params = TvL1Params::default();
    let (i0, i1, _) = flow_frames(seed);
    let pool = Arc::new(ThreadPool::new(nproc()));
    let ctx = ExecCtx::default().with_pool(Arc::clone(&pool));
    let simd = ctx.backend().simd_level();
    let (mut total, mut inner, mut calls) = (Vec::new(), Vec::new(), 0);
    for _ in 0..TVL1_FLOWS {
        let solver = TvL1Solver::with_backend(
            params,
            TimedDenoiser {
                inner: ParallelSolver::with_pool(Arc::clone(&pool)),
                time: Cell::new(Duration::ZERO),
                calls: Cell::new(0),
            },
        );
        let (_, stats) = spans.scope("tvl1.flow", parent, |_| {
            solver
                .flow_with_ctx(&i0, &i1, None, &ctx)
                .expect("seeded frames match in size")
        });
        total.push(stats.total_time.as_secs_f64() * 1e3);
        inner.push(solver.backend().time.get().as_secs_f64() * 1e3);
        calls = solver.backend().calls.get();
    }
    let (mut pyramid, mut warp, mut threshold) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TVL1_FLOWS {
        let start = Instant::now();
        let [pyr0, pyr1] = spans.scope("tvl1.pyramid", parent, |_| {
            [&i0, &i1].map(|img| {
                Pyramid::build_scaled_with_pool(
                    img,
                    params.pyramid_levels,
                    params.scale_factor,
                    &pool,
                    simd,
                )
            })
        });
        pyramid.push(start.elapsed().as_secs_f64() * 1e3);
        let (mut warp_s, mut threshold_s) = (0.0, 0.0);
        for (l0, l1) in pyr0.levels().iter().zip(pyr1.levels()).rev() {
            let u = FlowField::zeros(l0.width(), l0.height());
            for _ in 0..params.warps {
                let start = Instant::now();
                let lin = spans.scope("tvl1.warp", parent, |_| {
                    WarpLinearization::new_with_pool(l0, l1, &u, &pool, simd)
                });
                warp_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                spans.scope("tvl1.threshold", parent, |_| {
                    for _ in 0..params.outer_iterations {
                        black_box(threshold_step(&lin, &u, params.lambda, params.inner.theta));
                    }
                });
                threshold_s += start.elapsed().as_secs_f64();
            }
        }
        warp.push(warp_s * 1e3);
        threshold.push(threshold_s * 1e3);
    }
    let [total, inner, pyramid, warp, threshold] =
        [total, inner, pyramid, warp, threshold].map(|v| median(&v));
    result.push("tvl1.inner_ms", inner, "ms");
    result.push("tvl1.inner_calls", f64::from(calls), "count");
    result.push("tvl1.pyramid_ms", pyramid, "ms");
    result.push("tvl1.warp_ms", warp, "ms");
    result.push("tvl1.threshold_ms", threshold, "ms");
    result.push(
        "tvl1.other_ms",
        total - inner - pyramid - warp - threshold,
        "ms",
    );
    result.push("tvl1.chambolle_frac", inner / total, "fraction");
}

fn service_metrics(outcome: &Outcome, result: &mut RunResult) {
    let d = outcome.serve.clone().unwrap_or_default();
    let p99 = |v: &[f64]| tail_percentile(v, 0.99, MIN_BEYOND).value;
    result.push("serve.queue_ms_p50", median(&d.queue_ms), "ms");
    result.push("serve.queue_ms_p99", p99(&d.queue_ms), "ms");
    result.push("serve.solve_ms_p50", median(&d.solve_ms), "ms");
    result.push("serve.solve_ms_p99", p99(&d.solve_ms), "ms");
    // Per-layer, not end to end: its run-to-run spread exceeds 10%.
    result.push(
        "serve.p90_ms",
        tail_percentile(&outcome.unit_ms, 0.90, MIN_BEYOND).value,
        "ms",
    );
    result.push("serve.p99_ms", p99(&outcome.unit_ms), "ms");
    result.push("serve.interactive.p99_ms", p99(&d.interactive_ms), "ms");
    let mean = d.batch_sizes.iter().sum::<f64>() / d.batch_sizes.len().max(1) as f64;
    result.push("serve.batch_size_mean", mean, "count");
    result.push(
        "serve.shed_frac",
        d.rejected as f64 / d.submitted.max(1) as f64,
        "fraction",
    );
    result.push(
        "serve.gen_lag_ms_max",
        d.gen_lag_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    result.note(format!(
        "serve layer: {} requests ({} interactive)",
        outcome.unit_ms.len(),
        d.interactive_ms.len()
    ));
}

/// Median microseconds of `reps` calls of `f`.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Wire codec cost for the serve-mixed batch shape (256², 100 iterations).
fn wire_probe(seed: u64, result: &mut RunResult) {
    let (w, h, iterations) = Workload::ServeMixed.shape();
    let input = noisy_image(seed, w, h);
    let params = ChambolleParams::with_iterations(iterations);
    let none = TraceContext::NONE;
    let encode_req = || {
        encode_denoise_request(
            WIRE_VERSION,
            1,
            0,
            none,
            Priority::Batch,
            None,
            &params,
            &input,
        )
    };
    let encode_resp = || encode_ok_response(WIRE_VERSION, 1, none, ResponseTier::Full, &input);
    let (req, resp) = (encode_req(), encode_resp());
    const REPS: usize = 31;
    result.push("wire.req_encode_us", time_us(REPS, encode_req), "us");
    result.push(
        "wire.req_decode_us",
        time_us(REPS, || decode_request(&req).expect("own encoding decodes")),
        "us",
    );
    result.push("wire.resp_encode_us", time_us(REPS, encode_resp), "us");
    result.push(
        "wire.resp_decode_us",
        time_us(REPS, || {
            decode_response(&resp).expect("own encoding decodes")
        }),
        "us",
    );
}

/// The guard layer's cost over the plain solve it wraps, on the serve
/// batch shape, timed in alternating pairs.
fn guard_probe(seed: u64, result: &mut RunResult) {
    let (w, h, iterations) = Workload::ServeMixed.shape();
    let v = noisy_image(seed, w, h);
    let params = ChambolleParams::with_iterations(iterations);
    let ctx = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
    let policy = RecoveryPolicy::default();
    let (mut plain, mut guarded) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        plain.push(time_us(1, || chambolle_denoise_with_ctx(&v, &params, &ctx)));
        guarded.push(time_us(1, || {
            guarded_denoise_with_ctx(&v, &params, &policy, &ctx)
        }));
    }
    result.push(
        "guard.overhead_frac",
        median(&guarded) / median(&plain) - 1.0,
        "fraction",
    );
}
