//! The four workloads: seeded inputs, reference outputs computed before
//! timing, repeated set-ups, the measured window and its checks, and the
//! end-to-end metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use chambolle_core::{
    chambolle_denoise_with_ctx, chambolle_iterate_with_ctx, guarded_denoise_with_ctx, recover_u,
    rof_energy, ChambolleParams, DualField, ExecCtx, NumericsPolicy, ParallelSolver,
    RecoveryPolicy, TvL1Params, TvL1Solver,
};
use chambolle_imaging::{
    average_endpoint_error, read_pgm, render_sequence, write_pgm, FlowField, Grid, Motion,
    NoiseTexture, Scene,
};
use chambolle_par::{PoolStats, ThreadPool};
use chambolle_service::{Priority, Request, Service, ServiceConfig, Ticket};
use chambolle_telemetry::{names, Telemetry};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{nproc, peak_rss_mb, RunResult};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, tail_percentile};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Discarded warm-up frames (or flows) at the end of each set-up.
const WARMUP_FRAMES: usize = 1;
/// Runs of the CLI case per end-to-end run; `cli_wall_s` is their median.
/// One run precedes each of this many equal slices of the window, so the
/// median covers the whole window: the host's speed drifts by tens of
/// percent over seconds to minutes, and a burst of runs would sample one
/// moment of it.
pub const CLI_RUNS: usize = 15;
/// Offered load of serve-mixed, in requests per second.
pub const SERVE_RATE: f64 = 100.0;
/// Share of serve-mixed requests on the interactive lane.
const SERVE_INTERACTIVE_SHARE: f64 = 0.2;
/// Queue capacity of the service under test.
const SERVE_QUEUE: usize = 64;
/// Requests per set-up that warm the service before the window opens.
const SERVE_WARMUP_REQUESTS: usize = 8;
/// Distinct seeded inputs per serve-mixed request shape.
const SERVE_INPUTS: usize = 4;
/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;
/// Largest average endpoint error (px) a flow may have against the
/// rendered ground truth.
pub const MAX_AEPE: f64 = 0.25;

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact tier, 512×512, 200 iterations, banded on an `nproc` pool.
    Denoise512,
    /// Fast tier, 1024×768, 200 iterations, banded on an `nproc` pool.
    Denoise1024x768Fast,
    /// TV-L1 with default parameters at 320×240 on a shared pool.
    Flow320x240,
    /// An in-process service under open-loop Poisson arrivals.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order runs interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::Denoise512,
        Workload::Denoise1024x768Fast,
        Workload::Flow320x240,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Denoise512 => "denoise-512",
            Workload::Denoise1024x768Fast => "denoise-1024x768-fast",
            Workload::Flow320x240 => "flow-320x240",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Width, height and Chambolle iterations of one solve: the frame, the
    /// flow's inner solve, or the batch-lane request.
    pub fn shape(self) -> (usize, usize, u32) {
        match self {
            Workload::Denoise512 => (512, 512, 200),
            Workload::Denoise1024x768Fast => (1024, 768, 200),
            Workload::Flow320x240 => (320, 240, TvL1Params::default().inner.iterations),
            Workload::ServeMixed => (256, 256, 100),
        }
    }

    /// The numerics tier the workload's solves run at.
    pub fn numerics(self) -> NumericsPolicy {
        match self {
            Workload::Denoise1024x768Fast => NumericsPolicy::Fast,
            _ => NumericsPolicy::Exact,
        }
    }
}

/// Where a run finds the programs it times and keeps its scratch files.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Directory holding `chambolle_denoise`.
    pub cli_dir: PathBuf,
    /// Directory for scratch files and the trace file.
    pub out_dir: PathBuf,
    /// Corrupts one output before its check, to prove the check counts it.
    pub inject_wrong_output: bool,
}

/// Seeded noisy unit-range image: multi-octave texture plus uniform noise.
pub fn noisy_image(seed: u64, width: usize, height: usize) -> Grid<f32> {
    let clean = NoiseTexture::new(seed).render(width, height);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E6F_6973);
    Grid::from_fn(width, height, |x, y| {
        (clean[(x, y)] + rng.gen_range(-0.1f32..0.1)).clamp(0.0, 1.0)
    })
}

/// The CLI case behind `cli_wall_s`: `chambolle_denoise IN.pgm OUT.pgm
/// --iterations 200` with its default backend on a seeded 512² PGM, the
/// paper's headline point. Every workload times this same case, since
/// every workload prints every end-to-end metric.
#[derive(Debug)]
pub struct CliCase {
    program: PathBuf,
    input: PathBuf,
    output: PathBuf,
    /// The exact sequential denoise of the 8-bit input, as the PGM writer
    /// stores it; the CLI must write these bytes.
    expected: Grid<f32>,
}

impl CliCase {
    /// Writes the seeded input PGM into `dir` and computes the expected
    /// output.
    ///
    /// # Errors
    ///
    /// `chambolle_denoise` missing from `cli_dir`, or an unwritable `dir`.
    pub fn prepare(seed: u64, cli_dir: &Path, dir: &Path) -> io::Result<CliCase> {
        let program = cli_dir.join("chambolle_denoise");
        if !program.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{} not found; build the facade CLIs first",
                    program.display()
                ),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let (w, h, iterations) = Workload::Denoise512.shape();
        let input = dir.join("cli-in.pgm");
        let v = quantized(&input, &noisy_image(seed.wrapping_mul(16), w, h))?;
        let params = ChambolleParams::with_iterations(iterations);
        let expected = quantized(
            &dir.join("cli-expected.pgm"),
            &reference_denoise(&v, &params),
        )?;
        Ok(CliCase {
            program,
            input,
            output: dir.join("cli-out.pgm"),
            expected,
        })
    }

    /// Runs the CLI once; returns its wall seconds and whether it exited
    /// cleanly with a correct output.
    pub fn run(&self) -> (f64, bool) {
        let _ = std::fs::remove_file(&self.output);
        let iterations = Workload::Denoise512.shape().2.to_string();
        let start = Instant::now();
        let status = Command::new(&self.program)
            .arg(&self.input)
            .arg(&self.output)
            .args(["--iterations", &iterations])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        let secs = start.elapsed().as_secs_f64();
        let ok = status.is_ok_and(|s| s.success())
            && read_pgm(&self.output).is_ok_and(|got| {
                got.dims() == self.expected.dims()
                    && same_bits(got.as_slice(), self.expected.as_slice())
            });
        (secs, ok)
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Writes `image` as a PGM and reads it back: the 8-bit input a CLI sees.
fn quantized(path: &Path, image: &Grid<f32>) -> io::Result<Grid<f32>> {
    write_pgm(path, image).map_err(io::Error::other)?;
    read_pgm(path).map_err(io::Error::other)
}

/// The exact sequential reference denoise every Exact output must match.
pub fn reference_denoise(v: &Grid<f32>, params: &ChambolleParams) -> Grid<f32> {
    let ctx = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
    chambolle_denoise_with_ctx(v, params, &ctx)
        .expect("an inert context carries no cancellation token")
        .0
}

/// Inputs and references of a denoise workload.
#[derive(Debug)]
pub struct DenoisePrep {
    tier: NumericsPolicy,
    params: ChambolleParams,
    /// Two-component frames.
    frames: Vec<[Grid<f32>; 2]>,
    /// Exact sequential outputs, per frame and component.
    references: Vec<[Grid<f32>; 2]>,
    /// ROF energies of the references (the Fast tier's energy check).
    energies: Vec<[f64; 2]>,
}

/// Inputs and references of the flow workload.
#[derive(Debug)]
pub struct FlowPrep {
    params: TvL1Params,
    i0: Grid<f32>,
    i1: Grid<f32>,
    reference: FlowField,
    /// Average endpoint error of the reference against the ground truth.
    aepe: f64,
}

/// Inputs and references of serve-mixed.
#[derive(Debug)]
pub struct ServePrep {
    batch_params: ChambolleParams,
    interactive_params: ChambolleParams,
    /// `[batch lane 256², interactive lane 96²]` inputs.
    inputs: [Vec<Grid<f32>>; 2],
    references: [Vec<Grid<f32>>; 2],
}

impl ServePrep {
    fn lane(interactive: bool) -> usize {
        usize::from(interactive)
    }

    fn request(&self, interactive: bool, idx: usize) -> Request {
        let lane = Self::lane(interactive);
        let params = if interactive {
            self.interactive_params
        } else {
            self.batch_params
        };
        Request::new(chambolle_service::Workload::Denoise {
            input: self.inputs[lane][idx].clone(),
            params,
        })
        .with_priority(if interactive {
            Priority::Interactive
        } else {
            Priority::Batch
        })
    }
}

/// Everything computed before timing; counts toward no metric.
#[derive(Debug)]
pub enum Prepared {
    /// `denoise-512` or `denoise-1024x768-fast`.
    Denoise(DenoisePrep),
    /// `flow-320x240`.
    Flow(FlowPrep),
    /// `serve-mixed`.
    Serve(ServePrep),
}

/// The seeded translation of the flow workload and its two frames.
pub fn flow_frames(seed: u64) -> (Grid<f32>, Grid<f32>, FlowField) {
    let (w, h, _) = Workload::Flow320x240.shape();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x666C_6F77);
    let motion = Motion::Translation {
        du: rng.gen_range(0.5f32..1.5),
        dv: rng.gen_range(-1.0f32..1.0),
    };
    let mut frames = render_sequence(&NoiseTexture::new(seed), w, h, motion, 2);
    let i1 = frames.pop().expect("two frames rendered");
    let i0 = frames.pop().expect("two frames rendered");
    (i0, i1, motion.ground_truth(w, h))
}

/// Generates the seeded inputs and computes the references.
///
/// # Errors
///
/// The sequential reference flow failing.
pub fn prepare(workload: Workload, seed: u64) -> io::Result<Prepared> {
    let (w, h, iterations) = workload.shape();
    Ok(match workload {
        Workload::Denoise512 | Workload::Denoise1024x768Fast => {
            let tier = workload.numerics();
            let params = ChambolleParams::with_iterations(iterations);
            // Distinct frames cost a reference each; the larger frame gets
            // one so preparation stays a small share of the run.
            let count = if tier == NumericsPolicy::Fast { 1 } else { 2 };
            let frames: Vec<[Grid<f32>; 2]> = (0..count as u64)
                .map(|f| [0, 1].map(|c| noisy_image(seed.wrapping_mul(16) + f * 2 + c, w, h)))
                .collect();
            let references: Vec<[Grid<f32>; 2]> = frames
                .iter()
                .map(|f| f.each_ref().map(|v| reference_denoise(v, &params)))
                .collect();
            let energies = frames
                .iter()
                .zip(&references)
                .map(|(f, r)| [0, 1].map(|c| rof_energy(&r[c], &f[c], params.theta)))
                .collect();
            Prepared::Denoise(DenoisePrep {
                tier,
                params,
                frames,
                references,
                energies,
            })
        }
        Workload::Flow320x240 => {
            let params = TvL1Params::default();
            let (i0, i1, truth) = flow_frames(seed);
            let (reference, _) = TvL1Solver::sequential(params)
                .flow(&i0, &i1)
                .map_err(io::Error::other)?;
            let aepe = average_endpoint_error(&reference, &truth);
            Prepared::Flow(FlowPrep {
                params,
                i0,
                i1,
                reference,
                aepe,
            })
        }
        Workload::ServeMixed => {
            let batch_params = ChambolleParams::with_iterations(iterations);
            let interactive_params = ChambolleParams::with_iterations(50);
            let inputs = [(w, h, 0u64), (96, 96, 1)].map(|(lw, lh, lane)| {
                (0..SERVE_INPUTS as u64)
                    .map(|i| noisy_image(seed.wrapping_mul(64) + lane * 16 + i, lw, lh))
                    .collect::<Vec<_>>()
            });
            let policy = RecoveryPolicy::default();
            let ctx = ExecCtx::default().with_numerics(NumericsPolicy::Exact);
            let references = [(0, batch_params), (1, interactive_params)].map(|(lane, p)| {
                inputs[lane]
                    .iter()
                    .map(|v| {
                        guarded_denoise_with_ctx(v, &p, &policy, &ctx)
                            .expect("seeded inputs are solvable")
                            .0
                    })
                    .collect::<Vec<_>>()
            });
            Prepared::Serve(ServePrep {
                batch_params,
                interactive_params,
                inputs,
                references,
            })
        }
    })
}

/// How one measured window runs.
#[derive(Debug, Clone)]
pub struct Phase<'a> {
    /// Measured seconds, not counting the CLI runs between slices.
    pub seconds: f64,
    /// Set-ups to time before the window; the last one is measured.
    pub setups: usize,
    /// The CLI case to time `CLI_RUNS` times, spread evenly over the
    /// window, if any.
    pub cli: Option<&'a CliCase>,
    /// Telemetry handed to every context, pool and service.
    pub telemetry: Telemetry,
    /// Span recorder.
    pub spans: &'a Spans,
    /// Parent of this phase's spans.
    pub parent: SpanId,
    /// Corrupts the first output before its check.
    pub inject_wrong_output: bool,
    /// Seed of serve-mixed's arrivals.
    pub seed: u64,
}

/// Per-request accounting of serve-mixed.
#[derive(Debug, Clone, Default)]
pub struct ServeDetail {
    /// Queue wait of each completed request (`Completed::queue_us`), ms.
    pub queue_ms: Vec<f64>,
    /// Solver time of each completed request, ms.
    pub solve_ms: Vec<f64>,
    /// Latency of each interactive-lane request from when it was due, ms.
    pub interactive_ms: Vec<f64>,
    /// Batch size each completed request rode in.
    pub batch_sizes: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Submissions attempted.
    pub submitted: u64,
    /// Submissions the service refused.
    pub rejected: u64,
    /// Seconds from each slice of the window opening to its last
    /// response, summed.
    pub wall_s: f64,
    /// Pool counters of the service (read from its telemetry).
    pub pool: PoolStats,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempts, failures and wrong outputs.
    pub counts: RunResult,
    /// Time of each unit of work: frame, flow, or request latency measured
    /// from when the request was due, ms.
    pub unit_ms: Vec<f64>,
    /// Each set-up's seconds.
    pub setup_s: Vec<f64>,
    /// Each CLI run's wall seconds.
    pub cli_s: Vec<f64>,
    /// Pool counters accumulated over the window.
    pub pool: PoolStats,
    /// serve-mixed's per-request accounting.
    pub serve: Option<ServeDetail>,
}

impl Outcome {
    fn attempt(&mut self, ok: bool) {
        self.counts.attempted += 1;
        if !ok {
            self.counts.failed += 1;
            self.counts.wrong += 1;
        }
    }

    fn cli(&mut self, (secs, ok): (f64, bool)) {
        self.cli_s.push(secs);
        self.attempt(ok);
    }

    /// Appends another window's samples and counts to this one.
    pub fn merge(&mut self, other: Outcome) {
        self.counts.absorb_counts(&other.counts);
        self.unit_ms.extend(other.unit_ms);
        self.setup_s.extend(other.setup_s);
        self.cli_s.extend(other.cli_s);
        self.pool = pool_sum(self.pool, other.pool);
        if let Some(o) = other.serve {
            let d = self.serve.get_or_insert_with(ServeDetail::default);
            d.queue_ms.extend(o.queue_ms);
            d.solve_ms.extend(o.solve_ms);
            d.interactive_ms.extend(o.interactive_ms);
            d.batch_sizes.extend(o.batch_sizes);
            d.gen_lag_ms.extend(o.gen_lag_ms);
            d.submitted += o.submitted;
            d.rejected += o.rejected;
            d.wall_s += o.wall_s;
            d.pool = pool_sum(d.pool, o.pool);
        }
    }
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        tasks: after.tasks - before.tasks,
        steal_count: after.steal_count - before.steal_count,
        broadcasts: after.broadcasts - before.broadcasts,
    }
}

fn pool_sum(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        tasks: a.tasks + b.tasks,
        steal_count: a.steal_count + b.steal_count,
        broadcasts: a.broadcasts + b.broadcasts,
    }
}

/// Times `phase.setups` set-ups, each dropping the previous live state
/// first; returns the last one and every set-up's seconds.
fn timed_setups<T>(phase: &Phase, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(phase.setups);
    let mut live = None;
    for _ in 0..phase.setups.max(1) {
        drop(live.take());
        let start = Instant::now();
        live = Some(phase.spans.scope("setup", phase.parent, |_| setup()));
        times.push(start.elapsed().as_secs_f64());
    }
    (live.expect("at least one set-up ran"), times)
}

/// Slices of the window: one per CLI run, or the whole window when the
/// phase times no CLI.
fn slices(phase: &Phase) -> usize {
    if phase.cli.is_some() {
        CLI_RUNS
    } else {
        1
    }
}

/// Runs the phase's CLI case once, if it has one. Nothing else runs
/// meanwhile, so its processes never share the cores with the window's
/// pool or service.
fn time_cli(phase: &Phase, out: &mut Outcome) {
    if let Some(cli) = phase.cli {
        out.cli(phase.spans.scope("cli", phase.parent, |_| cli.run()));
    }
}

/// Times units of work for `phase.seconds`, with a CLI run before each
/// slice. `unit` returns its own compute seconds (the check outside them)
/// and whether its output was correct.
fn frame_window(phase: &Phase, out: &mut Outcome, mut unit: impl FnMut(usize) -> (f64, bool)) {
    let slice = phase.seconds / slices(phase) as f64;
    let start = Instant::now();
    // Time spent in CLI runs, which the window's clock leaves out.
    let mut paused = Duration::ZERO;
    let mut i = 0;
    for k in 1..=slices(phase) {
        let cli_start = Instant::now();
        time_cli(phase, out);
        paused += cli_start.elapsed();
        while (start.elapsed() - paused).as_secs_f64() < slice * k as f64 {
            let (secs, ok) = phase.spans.scope("frame", phase.parent, |_| unit(i));
            out.unit_ms.push(secs * 1e3);
            out.attempt(ok);
            i += 1;
        }
    }
}

fn corrupt(image: &mut Grid<f32>) {
    image.as_mut_slice()[0] += 1.0;
}

/// Runs one measured window of `prep`.
pub fn measure(prep: &Prepared, phase: &Phase) -> Outcome {
    match prep {
        Prepared::Denoise(p) => measure_denoise(p, phase),
        Prepared::Flow(p) => measure_flow(p, phase),
        Prepared::Serve(p) => measure_serve(p, phase),
    }
}

/// One two-component frame: the Table II convention of a TV-L1 inner
/// solve, each component iterated from a zero dual field and recovered.
fn denoise_frame(
    ctx: &ExecCtx,
    params: &ChambolleParams,
    frame: &[Grid<f32>; 2],
) -> [Grid<f32>; 2] {
    frame.each_ref().map(|v| {
        let mut p = DualField::zeros(v.width(), v.height());
        chambolle_iterate_with_ctx(&mut p, v, params, params.iterations, ctx)
            .expect("the context carries no cancellation token");
        recover_u(v, &p, params.theta)
    })
}

/// Largest per-pixel difference a Fast-tier frame may have from the Exact
/// reference: one 8-bit grey level. `NumericsPolicy::PIXEL_ATOL` (1e-3)
/// does not hold at 200 iterations on these frames (1.5e-3 to 3e-3 seen at
/// 1024×768, clean or noisy input, while the energy agrees to 4e-6), so
/// the energy tolerance carries the check and pixels must only be
/// indistinguishable after quantization.
pub const FAST_PIXEL_ATOL: f32 = 1.0 / 255.0;

/// Exact outputs match the reference bit for bit; Fast outputs keep the
/// reference's ROF energy within `ENERGY_RTOL` and every pixel within
/// [`FAST_PIXEL_ATOL`].
fn denoised_is_correct(
    tier: NumericsPolicy,
    out: &Grid<f32>,
    reference: &Grid<f32>,
    reference_energy: f64,
    v: &Grid<f32>,
    theta: f32,
) -> bool {
    match tier {
        NumericsPolicy::Exact => same_bits(out.as_slice(), reference.as_slice()),
        NumericsPolicy::Fast => {
            let within = out
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(a, b)| (a - b).abs() <= FAST_PIXEL_ATOL);
            let energy = rof_energy(out, v, theta);
            within
                && ((energy - reference_energy) / reference_energy).abs()
                    <= NumericsPolicy::ENERGY_RTOL
        }
    }
}

fn measure_denoise(prep: &DenoisePrep, phase: &Phase) -> Outcome {
    let mut out = Outcome::default();
    let ((pool, ctx), setup_s) = timed_setups(phase, || {
        let pool = Arc::new(ThreadPool::new(nproc()).with_telemetry(phase.telemetry.clone()));
        let ctx = ExecCtx::from_tunables(chambolle_tune::active())
            .with_numerics(prep.tier)
            .with_telemetry(phase.telemetry.clone())
            .with_pool(Arc::clone(&pool));
        for i in 0..WARMUP_FRAMES {
            denoise_frame(&ctx, &prep.params, &prep.frames[i % prep.frames.len()]);
        }
        (pool, ctx)
    });
    out.setup_s = setup_s;
    let before = pool.stats();
    let mut inject = phase.inject_wrong_output;
    frame_window(phase, &mut out, |i| {
        let f = i % prep.frames.len();
        let start = Instant::now();
        let mut outputs = denoise_frame(&ctx, &prep.params, &prep.frames[f]);
        let secs = start.elapsed().as_secs_f64();
        if std::mem::take(&mut inject) {
            corrupt(&mut outputs[0]);
        }
        let ok = (0..2).all(|c| {
            denoised_is_correct(
                prep.tier,
                &outputs[c],
                &prep.references[f][c],
                prep.energies[f][c],
                &prep.frames[f][c],
                prep.params.theta,
            )
        });
        (secs, ok)
    });
    out.pool = pool_delta(pool.stats(), before);
    out
}

fn measure_flow(prep: &FlowPrep, phase: &Phase) -> Outcome {
    let mut out = Outcome::default();
    let ((pool, solver, ctx), setup_s) = timed_setups(phase, || {
        let pool = Arc::new(ThreadPool::new(nproc()).with_telemetry(phase.telemetry.clone()));
        let solver =
            TvL1Solver::with_backend(prep.params, ParallelSolver::with_pool(Arc::clone(&pool)));
        let ctx = ExecCtx::from_tunables(chambolle_tune::active())
            .with_telemetry(phase.telemetry.clone())
            .with_pool(Arc::clone(&pool));
        for _ in 0..WARMUP_FRAMES {
            let _ = solver.flow_with_ctx(&prep.i0, &prep.i1, None, &ctx);
        }
        (pool, solver, ctx)
    });
    out.setup_s = setup_s;
    let before = pool.stats();
    let mut inject = phase.inject_wrong_output;
    let aepe_ok = prep.aepe <= MAX_AEPE;
    frame_window(phase, &mut out, |_| {
        let start = Instant::now();
        let result = solver.flow_with_ctx(&prep.i0, &prep.i1, None, &ctx);
        let secs = start.elapsed().as_secs_f64();
        let ok = result.is_ok_and(|(mut flow, _)| {
            if std::mem::take(&mut inject) {
                corrupt(&mut flow.u1);
            }
            aepe_ok
                && same_bits(flow.u1.as_slice(), prep.reference.u1.as_slice())
                && same_bits(flow.u2.as_slice(), prep.reference.u2.as_slice())
        });
        (secs, ok)
    });
    out.pool = pool_delta(pool.stats(), before);
    out
}

/// A request in flight, as the generator hands it to the collector.
struct Sent {
    ticket: Ticket,
    due: Instant,
    sent: Instant,
    interactive: bool,
    idx: usize,
}

fn measure_serve(prep: &ServePrep, phase: &Phase) -> Outcome {
    let mut out = Outcome::default();
    let (service, setup_s) = timed_setups(phase, || {
        let service = Service::spawn_with_telemetry(
            ServiceConfig::new(nproc(), SERVE_QUEUE),
            phase.telemetry.clone(),
        );
        let tickets: Vec<Ticket> = (0..SERVE_WARMUP_REQUESTS)
            .filter_map(|i| {
                let interactive = i % 4 == 3;
                service
                    .handle()
                    .submit(prep.request(interactive, i % SERVE_INPUTS))
                    .ok()
            })
            .collect();
        for ticket in tickets {
            let _ = ticket.wait();
        }
        service
    });
    out.setup_s = setup_s;
    // One arrival stream across the slices; each slice drains before the
    // next CLI run, so the CLI never competes with queued requests.
    let mut rng = StdRng::seed_from_u64(phase.seed ^ 0x6172_7269_7661_6C73);
    let slice = phase.seconds / slices(phase) as f64;
    for k in 0..slices(phase) {
        time_cli(phase, &mut out);
        let inject = phase.inject_wrong_output && k == 0;
        out.merge(open_loop(prep, &service, &mut rng, slice, inject, phase));
    }
    out
}

/// Open-loop seeded Poisson arrivals at `SERVE_RATE` for `seconds`: one
/// generator thread submits on schedule whatever the service does, one
/// collector thread waits for and checks the responses. Latency runs from
/// when a request was due, so a stalled generator or service charges the
/// wait to every request behind it. `inject` corrupts the first response.
fn open_loop(
    prep: &ServePrep,
    service: &Service,
    rng: &mut StdRng,
    seconds: f64,
    mut inject: bool,
    phase: &Phase,
) -> Outcome {
    let handle = service.handle();
    let mut detail = ServeDetail::default();
    let counters_before = pool_counters(handle.telemetry());
    let (tx, rx) = mpsc::channel::<Sent>();
    let spans = phase.spans;
    let parent = phase.parent;
    let start = Instant::now();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut c = Outcome::default();
            let mut d = ServeDetail::default();
            for s in rx {
                let result = s.ticket.wait();
                d.wall_s = start.elapsed().as_secs_f64();
                let Ok(mut done) = result else {
                    c.counts.attempted += 1;
                    c.counts.failed += 1;
                    continue;
                };
                let lag = s.sent.duration_since(s.due);
                let latency = lag + Duration::from_micros(done.total_us);
                let queue = Duration::from_micros(done.queue_us);
                let solve = Duration::from_micros(done.solve_us);
                let request = spans.record("request", parent, s.due, s.due + latency);
                spans.record("request.queue", request, s.sent, s.sent + queue);
                spans.record(
                    "request.solve",
                    request,
                    s.sent + queue,
                    s.sent + queue + solve,
                );
                if std::mem::take(&mut inject) {
                    if let chambolle_service::Output::Denoised(g) = &mut done.output {
                        corrupt(g);
                    }
                }
                let lane = ServePrep::lane(s.interactive);
                let ok = done.output.as_denoised().is_some_and(|g| {
                    same_bits(g.as_slice(), prep.references[lane][s.idx].as_slice())
                });
                c.attempt(ok);
                let ms = latency.as_secs_f64() * 1e3;
                c.unit_ms.push(ms);
                if s.interactive {
                    d.interactive_ms.push(ms);
                }
                d.queue_ms.push(queue.as_secs_f64() * 1e3);
                d.solve_ms.push(solve.as_secs_f64() * 1e3);
                d.batch_sizes.push(done.batch_size as f64);
                d.gen_lag_ms.push(lag.as_secs_f64() * 1e3);
            }
            (c, d)
        });
        let mut due = start;
        loop {
            let gap: f64 = -(1.0 - rng.gen::<f64>()).ln() / SERVE_RATE;
            due += Duration::from_secs_f64(gap);
            if due.duration_since(start).as_secs_f64() >= seconds {
                break;
            }
            let interactive = rng.gen_bool(SERVE_INTERACTIVE_SHARE);
            let idx = rng.gen_range(0..SERVE_INPUTS);
            let request = prep.request(interactive, idx);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            detail.submitted += 1;
            match handle.submit(request) {
                Ok(ticket) => tx
                    .send(Sent {
                        ticket,
                        due,
                        sent,
                        interactive,
                        idx,
                    })
                    .expect("the collector outlives the generator"),
                Err(_) => detail.rejected += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let (mut out, d) = collected;
    out.counts.attempted += detail.rejected;
    out.counts.failed += detail.rejected;
    let after = pool_counters(handle.telemetry());
    out.serve = Some(ServeDetail {
        submitted: detail.submitted,
        rejected: detail.rejected,
        pool: pool_delta(after, counters_before),
        ..d
    });
    out
}

/// The `par.*` counters a telemetry handle has accumulated (zero when
/// disabled).
pub fn pool_counters(telemetry: &Telemetry) -> PoolStats {
    let snap = telemetry.snapshot();
    let read = |name| snap.counter(name).unwrap_or(0);
    PoolStats {
        tasks: read(names::PAR_TASKS),
        steal_count: read(names::PAR_STEALS),
        broadcasts: read(names::PAR_BROADCASTS),
    }
}

/// Appends the end-to-end metrics of an untraced window.
pub fn end_to_end(outcome: &Outcome, result: &mut RunResult) {
    let fps = match &outcome.serve {
        // Completed requests per second of the window.
        Some(d) => d.solve_ms.len() as f64 / d.wall_s,
        None => 1e3 / median(&outcome.unit_ms),
    };
    result.push("fps", fps, "1/s");
    result.push("p50_ms", median(&outcome.unit_ms), "ms");
    result.push("cli_wall_s", median(&outcome.cli_s), "s");
    result.push("setup_s", median(&outcome.setup_s), "s");
    result.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    let tail = tail_percentile(&outcome.unit_ms, 0.90, MIN_BEYOND);
    result.note(format!(
        "p50_ms of {} samples; p{:.1} {:.3} ms ({} beyond); {} CLI runs; {} set-ups",
        tail.samples,
        tail.quantile * 100.0,
        tail.value,
        tail.beyond,
        outcome.cli_s.len(),
        outcome.setup_s.len()
    ));
    if let Some(d) = &outcome.serve {
        result.note(format!(
            "serve: {} submitted, {} rejected, generator lag max {:.2} ms",
            d.submitted,
            d.rejected,
            d.gen_lag_ms.iter().copied().fold(0.0, f64::max)
        ));
    }
}
