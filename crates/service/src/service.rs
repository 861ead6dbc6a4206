//! The service core: admission, dispatch loop, micro-batching, deadlines,
//! and drain-based shutdown.
//!
//! One dispatcher thread owns a persistent [`ThreadPool`]. It pops batches
//! of compatible requests from the [`SubmitQueue`](crate::queue::SubmitQueue)
//! and dispatches each batch as one `parallel_tiles` call — one tile per
//! request — so up to `threads` requests of a batch solve concurrently on
//! the shared pool. Solves run through the cancellable guarded paths of
//! `chambolle-core`, so a fault degrades one request (structured error) and
//! a deadline aborts at the next iteration boundary, never poisoning the
//! pool or the service.
//!
//! Every accepted request receives exactly one response. Shutdown closes the
//! queue (new submissions get [`RejectReason::ShuttingDown`]), drains the
//! backlog, joins the dispatcher, and flushes a final telemetry
//! [`RunReport`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chambolle_core::{
    guarded_denoise_with_ctx, DegradationPolicy, ExecCtx, FlowError, KernelBackend,
};
use chambolle_core::{
    CancelReason, CancelToken, GuardError, RecoveryPolicy, RecoveryReport, TvL1Solver,
};
use chambolle_par::ThreadPool;
use chambolle_telemetry::json::JsonValue;
use chambolle_telemetry::trace::{Tracer, DEFAULT_TRACE_RING};
use chambolle_telemetry::window::{WindowConfig, WindowedMetrics};
use chambolle_telemetry::{names, RunReport, Telemetry};

use crate::queue::{Pending, SubmitQueue};
use crate::request::{
    Completed, Output, Priority, RejectReason, Request, ResponseTier, ServiceError, Workload,
};

/// Schema identifier of [`ServiceHandle::metrics_snapshot`] documents.
pub const METRICS_SNAPSHOT_SCHEMA: &str = "chambolle.metrics_snapshot.v1";

/// How many of the slowest recent traces a metrics snapshot embeds.
const SNAPSHOT_SLOWEST: usize = 5;

/// A declarative latency/error objective for one scheduling lane.
///
/// Evaluated continuously over the rolling metrics window: a response
/// breaches the objective when it errors or lands slower than
/// `latency_us`. The *burn rate* is the windowed breach fraction divided by
/// the allowed error budget `1 - goal` — 1.0 means the lane consumes its
/// budget exactly as fast as the objective permits, >1 means faster. A lane
/// whose burn rate reaches `burn_threshold` counts as *burning*, which the
/// brownout layer treats exactly like queue congestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObjective {
    /// Latency target in microseconds; slower responses breach.
    pub latency_us: u64,
    /// Fraction of responses that must meet the target (e.g. 0.99).
    pub goal: f64,
    /// Burn rate at which the lane counts as burning (1.0 = consuming
    /// budget exactly as fast as the goal allows).
    pub burn_threshold: f64,
}

impl SloObjective {
    /// An objective with the given latency target and success goal, burning
    /// at 1x budget consumption.
    pub fn new(latency: Duration, goal: f64) -> SloObjective {
        SloObjective {
            latency_us: latency.as_micros().min(u128::from(u64::MAX)) as u64,
            goal: goal.clamp(0.0, 0.9999),
            burn_threshold: 1.0,
        }
    }

    /// Overrides the burn-rate threshold.
    pub fn with_burn_threshold(mut self, threshold: f64) -> SloObjective {
        self.burn_threshold = threshold.max(f64::MIN_POSITIVE);
        self
    }

    /// Burn rate of `breach` breaches out of `total` responses.
    pub fn burn_rate(&self, breach: u64, total: u64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let err_rate = breach as f64 / total as f64;
        err_rate / (1.0 - self.goal).max(f64::MIN_POSITIVE)
    }
}

/// Stable index of a lane in per-lane arrays: interactive first.
fn lane_index(lane: Priority) -> usize {
    match lane {
        Priority::Interactive => 0,
        Priority::Batch => 1,
    }
}

const LANES: [Priority; 2] = [Priority::Interactive, Priority::Batch];

/// Tuning knobs of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the shared solver pool (and the maximum number of
    /// requests of one batch solving concurrently).
    pub threads: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one pool dispatch.
    pub max_batch: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Queue depth that counts as congested (rising-edge counter).
    pub high_watermark: usize,
    /// Queue depth at which congestion is considered cleared (falling edge).
    pub low_watermark: usize,
    /// Guard-layer retry budget for denoise requests.
    pub recovery: RecoveryPolicy,
    /// Brownout policy: while the queue sits inside a congestion episode
    /// (depth rose to `high_watermark` and hasn't fallen back to
    /// `low_watermark`), solves are capped to this policy's iteration budget
    /// and tagged [`ResponseTier::Degraded`] — fidelity is shed instead of
    /// requests. `None` (the default) disables brownout.
    pub degradation: Option<DegradationPolicy>,
    /// Per-lane latency/error objectives (`[interactive, batch]`),
    /// evaluated over the rolling metrics window; a burning lane triggers
    /// brownout exactly like queue congestion. `None` entries are
    /// unconstrained.
    pub slo: [Option<SloObjective>; 2],
    /// Capacity of the recent-trace ring, which also caps the traces held
    /// open awaiting their finish (0 disables server-side tracing).
    pub trace_ring: usize,
    /// Rolling-window shape of the live metrics plane.
    pub window: WindowConfig,
}

impl ServiceConfig {
    /// A config with the given pool size and queue capacity. The batching
    /// window and admission watermarks come from the process-wide active
    /// tunables ([`chambolle_tune::active`]): batches of up to 8 and
    /// watermarks at 3/4 and 1/4 of capacity unless a tuning profile says
    /// otherwise. No default deadline.
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        ServiceConfig::from_tunables(threads, queue_capacity, &chambolle_tune::active())
    }

    /// [`ServiceConfig::new`] with an explicit set of schedule knobs: the
    /// batch coalescing window and the watermark percentages are read from
    /// `tunables` (byte-identical to the historical `8` / `cap * 3 / 4` /
    /// `cap / 4` at the default knobs).
    pub fn from_tunables(
        threads: usize,
        queue_capacity: usize,
        tunables: &chambolle_tune::Tunables,
    ) -> Self {
        ServiceConfig {
            threads,
            queue_capacity,
            max_batch: tunables.batch_window,
            default_deadline: None,
            high_watermark: tunables.high_watermark(queue_capacity),
            low_watermark: tunables.low_watermark(queue_capacity),
            recovery: RecoveryPolicy::default(),
            degradation: None,
            slo: [None, None],
            trace_ring: DEFAULT_TRACE_RING,
            window: WindowConfig::default(),
        }
    }

    /// Enables brownout degradation under sustained queue congestion.
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = Some(policy);
        self
    }

    /// Sets the maximum batch size (1 disables coalescing).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the latency/error objective of one scheduling lane.
    pub fn with_slo(mut self, lane: Priority, objective: SloObjective) -> Self {
        self.slo[lane_index(lane)] = Some(objective);
        self
    }

    /// Sets the rolling-window shape of the live metrics plane.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Sets the recent-trace ring capacity (0 disables tracing).
    pub fn with_trace_ring(mut self, capacity: usize) -> Self {
        self.trace_ring = capacity;
        self
    }
}

impl Default for ServiceConfig {
    /// Two pool threads, a 64-deep queue, batches of up to 8.
    fn default() -> Self {
        ServiceConfig::new(2, 64)
    }
}

/// Monotonic counters the service keeps independent of telemetry (always
/// on; the zero-lost-response invariant is checked against these).
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    rejected_invalid: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_exceeded: AtomicU64,
    batches: AtomicU64,
    degraded: AtomicU64,
}

/// Point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Submissions seen (accepted + rejected).
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Rejections: queue at capacity.
    pub rejected_full: u64,
    /// Rejections: service draining.
    pub rejected_shutdown: u64,
    /// Rejections: invalid workload.
    pub rejected_invalid: u64,
    /// Accepted requests that completed successfully.
    pub completed: u64,
    /// Accepted requests that failed in the solver.
    pub failed: u64,
    /// Accepted requests cancelled by the client.
    pub cancelled: u64,
    /// Accepted requests that exceeded their deadline.
    pub deadline_exceeded: u64,
    /// Batches dispatched to the pool.
    pub batches: u64,
    /// Completed responses served at [`ResponseTier::Degraded`] fidelity
    /// (counted inside `completed` as well).
    pub degraded: u64,
}

impl ServiceStats {
    /// Responses delivered, of any kind.
    pub fn responded(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.deadline_exceeded
    }

    /// `accepted - responded()`: nonzero only while requests are in flight.
    pub fn in_flight(&self) -> u64 {
        self.accepted - self.responded()
    }

    fn to_json(self) -> JsonValue {
        JsonValue::Object(vec![
            ("submitted".into(), self.submitted.into()),
            ("accepted".into(), self.accepted.into()),
            ("rejected_full".into(), self.rejected_full.into()),
            ("rejected_shutdown".into(), self.rejected_shutdown.into()),
            ("rejected_invalid".into(), self.rejected_invalid.into()),
            ("completed".into(), self.completed.into()),
            ("failed".into(), self.failed.into()),
            ("cancelled".into(), self.cancelled.into()),
            ("deadline_exceeded".into(), self.deadline_exceeded.into()),
            ("batches".into(), self.batches.into()),
            ("degraded".into(), self.degraded.into()),
        ])
    }
}

struct Shared {
    queue: SubmitQueue,
    telemetry: Telemetry,
    config: ServiceConfig,
    next_id: AtomicU64,
    stats: Stats,
    /// Instant the service started; `last_solve_ms` and the metrics
    /// snapshot's `uptime_us` are measured from here.
    epoch: Instant,
    /// Milliseconds after `epoch` the most recent response was delivered;
    /// `u64::MAX` until the first one.
    last_solve_ms: AtomicU64,
    /// True while the dispatcher thread is inside its loop.
    dispatcher_live: AtomicBool,
    /// True while brownout degradation is active (requires a configured
    /// [`DegradationPolicy`] *and* a queue congestion episode or SLO burn).
    brownout: AtomicBool,
    /// True while any lane's SLO burn rate sits at/above its threshold.
    slo_burning: AtomicBool,
    /// Bounded ring of recently finished request traces.
    tracer: Tracer,
    /// Rolling-window rates and latency histograms (the live metrics plane).
    window: WindowedMetrics,
}

/// Point-in-time health/readiness report of a service instance.
///
/// Served locally by [`ServiceHandle::health`] and over the wire as a
/// dedicated health frame, this is the signal a load balancer or rerouting
/// layer keys off: `accepting && dispatcher_live` is the readiness gate,
/// `queue_depth`/`brownout` grade how loaded a ready instance is, and
/// `last_solve_age` exposes a wedged dispatcher that still accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Whether new submissions can still be admitted (queue not closed).
    pub accepting: bool,
    /// Whether the dispatcher thread is alive inside its loop.
    pub dispatcher_live: bool,
    /// Whether brownout degradation is currently active.
    pub brownout: bool,
    /// Queue depth across both lanes at snapshot time.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Accepted requests not yet responded to.
    pub in_flight: u64,
    /// Requests completed successfully since start.
    pub completed: u64,
    /// Time since the most recent response of any kind; `None` until the
    /// first response is delivered.
    pub last_solve_age: Option<Duration>,
}

impl HealthSnapshot {
    /// The readiness predicate: accepting work and the dispatcher is alive.
    pub fn is_ready(&self) -> bool {
        self.accepting && self.dispatcher_live
    }
}

/// Client-side handle for submitting work; cheap to clone, usable from any
/// thread.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Admission control + enqueue. Never blocks.
    ///
    /// # Errors
    ///
    /// [`RejectReason`] when the request cannot be admitted (invalid, queue
    /// full, or the service is draining). Rejected requests consume no
    /// solver time.
    pub fn submit(&self, request: Request) -> Result<Ticket, RejectReason> {
        let shared = &self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add(names::SERVICE_SUBMITTED, 1);
        if let Err(reason) = request.workload.validate() {
            shared
                .stats
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            shared
                .telemetry
                .counter_add(names::SERVICE_REJECTED_INVALID, 1);
            return Err(RejectReason::Invalid(reason));
        }
        let deadline = request.deadline.or(shared.config.default_deadline);
        let token = match deadline {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::new(),
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            id,
            key: request.workload.batch_key(),
            workload: request.workload,
            token: token.clone(),
            submitted_at: Instant::now(),
            responder: tx,
            priority: request.priority,
            trace: request.trace,
        };
        match shared.queue.try_push(pending, request.priority) {
            Ok(_depth) => {
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                shared.telemetry.counter_add(names::SERVICE_ACCEPTED, 1);
                Ok(Ticket { id, token, rx })
            }
            Err(reason) => {
                match &reason {
                    RejectReason::QueueFull { .. } => {
                        shared.stats.rejected_full.fetch_add(1, Ordering::Relaxed);
                        shared
                            .telemetry
                            .counter_add(names::SERVICE_REJECTED_QUEUE_FULL, 1);
                    }
                    RejectReason::ShuttingDown => {
                        shared
                            .stats
                            .rejected_shutdown
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .telemetry
                            .counter_add(names::SERVICE_REJECTED_SHUTTING_DOWN, 1);
                    }
                    RejectReason::Invalid(_) => unreachable!("validated above"),
                }
                Err(reason)
            }
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        ServiceStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            accepted: s.accepted.load(Ordering::Relaxed),
            rejected_full: s.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: s.rejected_shutdown.load(Ordering::Relaxed),
            rejected_invalid: s.rejected_invalid.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time health/readiness snapshot (also what the TCP
    /// front-end serves for wire health probes).
    pub fn health(&self) -> HealthSnapshot {
        let shared = &self.shared;
        shared
            .telemetry
            .counter_add(names::SERVICE_HEALTH_PROBES, 1);
        let stats = self.stats();
        let last_ms = shared.last_solve_ms.load(Ordering::Relaxed);
        let last_solve_age = (last_ms != u64::MAX).then(|| {
            let now_ms = shared.epoch.elapsed().as_millis() as u64;
            Duration::from_millis(now_ms.saturating_sub(last_ms))
        });
        HealthSnapshot {
            accepting: !shared.queue.is_closed(),
            dispatcher_live: shared.dispatcher_live.load(Ordering::Relaxed),
            brownout: shared.brownout.load(Ordering::Relaxed),
            queue_depth: shared.queue.depth(),
            queue_capacity: shared.queue.capacity(),
            in_flight: stats.in_flight(),
            completed: stats.completed,
            last_solve_age,
        }
    }

    /// The telemetry handle the service records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// The server-side tracer: a bounded ring of recently finished request
    /// traces (disabled when `config.trace_ring == 0`).
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// The rolling-window metrics plane the service marks into.
    pub fn window(&self) -> &WindowedMetrics {
        &self.shared.window
    }

    /// A schema-stable (`chambolle.metrics_snapshot.v1`) live-metrics
    /// snapshot: queue occupancy per lane, rolling-window rates and latency
    /// histograms, SLO burn state, brownout, cumulative counters, and a
    /// "slowest recent traces" digest. This is the document the wire
    /// metrics frame serves to scrapers.
    pub fn metrics_snapshot(&self) -> JsonValue {
        let shared = &self.shared;
        shared
            .telemetry
            .counter_add(names::SERVICE_METRICS_PROBES, 1);
        let (interactive_depth, batch_depth) = shared.queue.lane_depths();
        let (burning, max_burn, lanes) = slo_status(shared);
        let counters = shared.telemetry.snapshot();
        let counter = |name: &str| JsonValue::from(counters.counter(name).unwrap_or(0));
        let slowest: Vec<JsonValue> = shared
            .tracer
            .slowest(SNAPSHOT_SLOWEST)
            .iter()
            .map(|t| {
                JsonValue::Object(vec![
                    ("trace_id".into(), format!("{:032x}", t.trace_id).into()),
                    ("total_us".into(), t.total_us.into()),
                    ("span_count".into(), (t.spans.len() as u64).into()),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("schema".into(), METRICS_SNAPSHOT_SCHEMA.into()),
            (
                "uptime_us".into(),
                micros(shared.epoch, Instant::now()).into(),
            ),
            (
                "window".into(),
                JsonValue::Object(vec![
                    (
                        "bucket_width_us".into(),
                        shared.window.config().bucket_width_us.into(),
                    ),
                    ("buckets".into(), shared.window.config().buckets.into()),
                ]),
            ),
            (
                "queue".into(),
                JsonValue::Object(vec![
                    ("depth".into(), (interactive_depth + batch_depth).into()),
                    ("capacity".into(), shared.queue.capacity().into()),
                    ("interactive_depth".into(), interactive_depth.into()),
                    ("batch_depth".into(), batch_depth.into()),
                    ("congested".into(), shared.queue.is_congested().into()),
                ]),
            ),
            ("window_metrics".into(), shared.window.snapshot().to_json()),
            (
                "slo".into(),
                JsonValue::Object(vec![
                    ("burning".into(), burning.into()),
                    ("max_burn_rate".into(), max_burn.into()),
                    ("lanes".into(), JsonValue::Array(lanes)),
                ]),
            ),
            (
                "brownout".into(),
                shared.brownout.load(Ordering::Relaxed).into(),
            ),
            ("stats".into(), self.stats().to_json()),
            (
                "counters".into(),
                JsonValue::Object(vec![
                    (
                        "idempotent_hits".into(),
                        counter(names::SERVICE_IDEMPOTENT_HITS),
                    ),
                    (
                        "health_probes".into(),
                        counter(names::SERVICE_HEALTH_PROBES),
                    ),
                    (
                        "metrics_probes".into(),
                        counter(names::SERVICE_METRICS_PROBES),
                    ),
                    (
                        "brownout_entered".into(),
                        counter(names::SERVICE_BROWNOUT_ENTERED),
                    ),
                    (
                        "brownout_exited".into(),
                        counter(names::SERVICE_BROWNOUT_EXITED),
                    ),
                    (
                        "slo_burn_entered".into(),
                        counter(names::SERVICE_SLO_BURN_ENTERED),
                    ),
                    (
                        "slo_burn_exited".into(),
                        counter(names::SERVICE_SLO_BURN_EXITED),
                    ),
                    ("chaos_resets".into(), counter(names::SERVICE_CHAOS_RESETS)),
                    (
                        "chaos_corruptions".into(),
                        counter(names::SERVICE_CHAOS_CORRUPTIONS),
                    ),
                    ("chaos_stalls".into(), counter(names::SERVICE_CHAOS_STALLS)),
                    (
                        "chaos_partial_writes".into(),
                        counter(names::SERVICE_CHAOS_PARTIAL_WRITES),
                    ),
                    (
                        "chaos_server_panics".into(),
                        counter(names::SERVICE_CHAOS_SERVER_PANICS),
                    ),
                ]),
            ),
            (
                "traces".into(),
                JsonValue::Object(vec![
                    ("finished".into(), shared.tracer.len().into()),
                    ("slowest".into(), JsonValue::Array(slowest)),
                ]),
            ),
        ])
    }
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("stats", &self.stats())
            .finish()
    }
}

/// One accepted request's claim on its future response.
pub struct Ticket {
    id: u64,
    token: CancelToken,
    rx: mpsc::Receiver<Result<Completed, ServiceError>>,
}

impl Ticket {
    /// Service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation; the solve aborts at its next
    /// iteration boundary and the ticket resolves to
    /// [`ServiceError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The request's [`ServiceError`] outcome.
    pub fn wait(self) -> Result<Completed, ServiceError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(mpsc::RecvError) => Err(ServiceError::Disconnected),
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

/// Result of a graceful shutdown: the final counters and (when telemetry is
/// enabled) the flushed run report.
#[derive(Debug)]
pub struct ShutdownSummary {
    /// Final counter snapshot; `in_flight()` is 0 after a clean drain.
    pub stats: ServiceStats,
    /// Final report (`tool = "chambolle-service"`, section `"service"`),
    /// present when the service was built with enabled telemetry.
    pub report: Option<RunReport>,
}

/// The running service: a dispatcher thread plus its submission handle.
///
/// # Examples
///
/// ```
/// use chambolle_imaging::Grid;
/// use chambolle_core::ChambolleParams;
/// use chambolle_service::{Request, Service, ServiceConfig, Workload};
///
/// let service = Service::spawn(ServiceConfig::new(2, 16));
/// let ticket = service.handle().submit(Request::new(Workload::Denoise {
///     input: Grid::new(16, 16, 0.5f32),
///     params: ChambolleParams::with_iterations(10),
/// }))?;
/// let done = ticket.wait().unwrap();
/// assert!(done.output.as_denoised().is_some());
/// let summary = service.shutdown();
/// assert_eq!(summary.stats.completed, 1);
/// # Ok::<(), chambolle_service::RejectReason>(())
/// ```
pub struct Service {
    handle: ServiceHandle,
    dispatcher: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts a service with disabled telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads`, `config.queue_capacity`, or
    /// `config.max_batch` is zero.
    pub fn spawn(config: ServiceConfig) -> Self {
        Service::spawn_with_telemetry(config, Telemetry::disabled())
    }

    /// Starts a service recording `service.*` metrics into `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads`, `config.queue_capacity`, or
    /// `config.max_batch` is zero.
    pub fn spawn_with_telemetry(config: ServiceConfig, telemetry: Telemetry) -> Self {
        assert!(config.threads >= 1, "service needs at least one thread");
        assert!(config.queue_capacity >= 1, "queue capacity must be >= 1");
        assert!(config.max_batch >= 1, "max_batch must be >= 1");
        let tracer = if config.trace_ring == 0 {
            Tracer::disabled()
        } else {
            Tracer::with_capacity(config.trace_ring)
        };
        let window = WindowedMetrics::new(config.window);
        let shared = Arc::new(Shared {
            queue: SubmitQueue::new(
                config.queue_capacity,
                config.high_watermark,
                config.low_watermark,
                telemetry.clone(),
            ),
            telemetry,
            config,
            next_id: AtomicU64::new(1),
            stats: Stats::default(),
            epoch: Instant::now(),
            last_solve_ms: AtomicU64::new(u64::MAX),
            dispatcher_live: AtomicBool::new(false),
            brownout: AtomicBool::new(false),
            slo_burning: AtomicBool::new(false),
            tracer,
            window,
        });
        let dispatcher_shared = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("chambolle-service-dispatch".into())
            .spawn(move || dispatcher_loop(&dispatcher_shared))
            .expect("failed to spawn the service dispatcher");
        Service {
            handle: ServiceHandle { shared },
            dispatcher: Some(dispatcher),
        }
    }

    /// The submission handle (clone freely across client threads).
    pub fn handle(&self) -> &ServiceHandle {
        &self.handle
    }

    /// Drain-based graceful shutdown: stop admission, complete every
    /// accepted request, join the dispatcher, and flush the final report.
    pub fn shutdown(mut self) -> ShutdownSummary {
        self.shutdown_inner()
            .expect("shutdown_inner returns a summary on first call")
    }

    fn shutdown_inner(&mut self) -> Option<ShutdownSummary> {
        let dispatcher = self.dispatcher.take()?;
        self.handle.shared.queue.close();
        if dispatcher.join().is_err() {
            // The dispatcher never panics by design (solves are contained by
            // catch_unwind); if it somehow did, surface it in the summary
            // rather than propagating out of shutdown.
            self.handle
                .shared
                .telemetry
                .counter_add(names::SERVICE_FAILED, 1);
        }
        let stats = self.handle.stats();
        let telemetry = &self.handle.shared.telemetry;
        let report = telemetry.is_enabled().then(|| {
            let mut report = RunReport::from_telemetry("chambolle-service", telemetry);
            report.add_section("service", stats.to_json());
            report
        });
        Some(ShutdownSummary { stats, report })
    }
}

impl Drop for Service {
    /// Dropping without [`Service::shutdown`] still drains gracefully.
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("handle", &self.handle)
            .finish()
    }
}

fn dispatcher_loop(shared: &Shared) {
    shared.dispatcher_live.store(true, Ordering::Relaxed);
    let pool = ThreadPool::new(shared.config.threads).with_telemetry(shared.telemetry.clone());
    // Every request of this service runs on the same kernel backend; record
    // the `backend.*` capability gauges once per dispatcher lifetime.
    KernelBackend::active().record_telemetry(&shared.telemetry);
    while let Some(batch) = shared.queue.pop_batch(shared.config.max_batch) {
        dispatch_batch(shared, &pool, batch);
    }
    shared.dispatcher_live.store(false, Ordering::Relaxed);
}

/// Point-in-time SLO evaluation over the rolling window: whether any lane
/// burns at/above its threshold, the maximum burn rate, and a per-lane JSON
/// digest for the metrics snapshot.
fn slo_status(shared: &Shared) -> (bool, f64, Vec<JsonValue>) {
    let mut burning = false;
    let mut max_burn = 0.0f64;
    let mut lanes = Vec::new();
    let now_us = shared.window.now_us();
    for lane in LANES {
        let Some(objective) = shared.config.slo[lane_index(lane)] else {
            continue;
        };
        let name = lane.as_str();
        let total = shared
            .window
            .count_in_window_at(&format!("slo.{name}.total"), now_us);
        let breach = shared
            .window
            .count_in_window_at(&format!("slo.{name}.breach"), now_us);
        let burn = objective.burn_rate(breach, total);
        let lane_burning = burn >= objective.burn_threshold;
        burning |= lane_burning;
        max_burn = max_burn.max(burn);
        lanes.push(JsonValue::Object(vec![
            ("lane".into(), name.into()),
            ("latency_us".into(), objective.latency_us.into()),
            ("goal".into(), objective.goal.into()),
            ("burn_threshold".into(), objective.burn_threshold.into()),
            ("total".into(), total.into()),
            ("breach".into(), breach.into()),
            ("burn_rate".into(), burn.into()),
            ("burning".into(), lane_burning.into()),
        ]));
    }
    (burning, max_burn, lanes)
}

/// Evaluates SLO burn, records the burn-rate gauge and the edge-counted
/// `service.slo.burn.*` events, and returns whether any lane burns.
fn evaluate_slo_burn(shared: &Shared) -> bool {
    if shared.config.slo.iter().all(Option::is_none) {
        return false;
    }
    let (burning, max_burn, _) = slo_status(shared);
    shared
        .telemetry
        .gauge_set(names::SERVICE_SLO_BURN_RATE, max_burn);
    let was = shared.slo_burning.swap(burning, Ordering::Relaxed);
    if burning && !was {
        shared
            .telemetry
            .counter_add(names::SERVICE_SLO_BURN_ENTERED, 1);
    } else if !burning && was {
        shared
            .telemetry
            .counter_add(names::SERVICE_SLO_BURN_EXITED, 1);
    }
    burning
}

/// Picks the brownout stage for one batch from the two pressure signals.
///
/// Shedding is staged by severity, cheapest lever first:
///
/// - one signal (congestion episode *or* SLO burn) sheds **numerics**: the
///   tolerance-validated Fast tier at the full iteration budget;
/// - both signals at once additionally shed **convergence depth**: the
///   configured policy's iteration cap stacks on top of the fast tier.
///
/// Iterations are only ever truncated under compound pressure — precision
/// guarantees are cheaper to give up than convergence.
pub(crate) fn staged_policy(
    configured: DegradationPolicy,
    congested: bool,
    burning: bool,
) -> Option<DegradationPolicy> {
    match (congested, burning) {
        (false, false) => None,
        (true, true) => Some(configured.with_fast_tier()),
        _ => Some(DegradationPolicy::fast_tier()),
    }
}

/// Decides (at batch granularity) whether brownout degradation applies, and
/// records the edge transitions. Fidelity is shed when the queue sits inside
/// a congestion episode *or* the measured SLO burn rate says the service is
/// spending error budget too fast — so brownout reacts to what clients
/// experience, not only to queue depth. Returns the [`staged_policy`] to
/// degrade solves with, or `None` for full fidelity.
fn brownout_policy(shared: &Shared) -> Option<DegradationPolicy> {
    let burning = evaluate_slo_burn(shared);
    let policy = shared.config.degradation?;
    let congested = shared.queue.is_congested();
    let active = congested || burning;
    let was = shared.brownout.swap(active, Ordering::Relaxed);
    if active && !was {
        shared
            .telemetry
            .counter_add(names::SERVICE_BROWNOUT_ENTERED, 1);
    } else if !active && was {
        shared
            .telemetry
            .counter_add(names::SERVICE_BROWNOUT_EXITED, 1);
    }
    staged_policy(policy, congested, burning)
}

/// Solves one batch on the pool and responds to every member.
fn dispatch_batch(shared: &Shared, pool: &ThreadPool, batch: Vec<Pending>) {
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add(names::SERVICE_BATCHES, 1);
    shared
        .telemetry
        .observe(names::SERVICE_BATCH_SIZE, batch.len() as f64);

    let batch_size = batch.len();
    let dequeued_at = Instant::now();
    let policy = shared.config.recovery;
    // One brownout decision per batch: every member of a batch is served at
    // the same fidelity tier.
    let degradation = brownout_policy(shared);

    // Requests whose token already fired respond immediately without
    // touching the pool.
    let mut live: Vec<Pending> = Vec::with_capacity(batch_size);
    for pending in batch {
        match pending.token.check() {
            Ok(()) => live.push(pending),
            Err(cancelled) => {
                let queue_us = micros(pending.submitted_at, dequeued_at);
                respond(
                    shared,
                    &pending,
                    Err(error_from_reason(cancelled.reason)),
                    queue_us,
                    0,
                    batch_size,
                );
            }
        }
    }
    if live.is_empty() {
        return;
    }

    type SolveResult = Result<(Output, ResponseTier, Option<RecoveryReport>), ServiceError>;
    let slots: Vec<Mutex<Option<(SolveResult, u64)>>> =
        live.iter().map(|_| Mutex::new(None)).collect();
    if live.len() == 1 {
        // No point in a pool broadcast for a lone request.
        let solve_start = Instant::now();
        let result = solve_contained(&live[0], &policy, degradation, &shared.telemetry);
        *slots[0].lock().expect("slot poisoned") =
            Some((result, micros(solve_start, Instant::now())));
    } else {
        pool.parallel_tiles("service.batch", live.len(), |_, i| {
            let solve_start = Instant::now();
            let result = solve_contained(&live[i], &policy, degradation, &shared.telemetry);
            *slots[i].lock().expect("slot poisoned") =
                Some((result, micros(solve_start, Instant::now())));
        });
    }

    for (pending, slot) in live.iter().zip(slots) {
        let (result, solve_us) = slot
            .into_inner()
            .expect("slot poisoned")
            .expect("every batch member is solved exactly once");
        let queue_us = micros(pending.submitted_at, dequeued_at);
        respond(shared, pending, result, queue_us, solve_us, batch_size);
    }
}

/// One solve, with panics contained into a structured error so a poisoned
/// request can never take down the dispatcher or its pool.
///
/// The request's deadline token rides in an [`ExecCtx`] together with the
/// service telemetry and the process-wide kernel backend. The context
/// deliberately carries **no** pool: the solve already runs *on* a pool
/// worker, and the ctx-taking solver entry points fall back to their
/// sequential bodies when the context has no pool of its own.
fn solve_contained(
    pending: &Pending,
    policy: &RecoveryPolicy,
    degradation: Option<DegradationPolicy>,
    telemetry: &Telemetry,
) -> Result<(Output, ResponseTier, Option<RecoveryReport>), ServiceError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        solve_one(pending, policy, degradation, telemetry)
    }));
    match outcome {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            Err(ServiceError::Solver(format!("solve panicked: {msg}")))
        }
    }
}

fn solve_one(
    pending: &Pending,
    policy: &RecoveryPolicy,
    degradation: Option<DegradationPolicy>,
    telemetry: &Telemetry,
) -> Result<(Output, ResponseTier, Option<RecoveryReport>), ServiceError> {
    let mut ctx = ExecCtx::default()
        .with_telemetry(telemetry.clone())
        .with_cancel(pending.token.clone())
        .with_trace(pending.trace);
    if let Some(d) = degradation {
        ctx = ctx.with_degradation(d);
    }
    match &pending.workload {
        Workload::Denoise { input, params } => {
            // The context's degradation policy caps the iteration count and
            // overrides the numerics tier inside the guarded solve; the tier
            // just records whether either lever bit.
            let tier = if degradation.is_some_and(|d| d.degrades(params.iterations)) {
                ResponseTier::Degraded
            } else {
                ResponseTier::Full
            };
            match guarded_denoise_with_ctx(input, params, policy, &ctx) {
                Ok((u, report)) => Ok((Output::Denoised(u), tier, Some(report))),
                Err(GuardError::Cancelled(c)) => Err(error_from_reason(c.reason)),
                Err(other) => Err(ServiceError::Solver(other.to_string())),
            }
        }
        Workload::TvL1 { i0, i1, params } => {
            // The TV-L1 outer loop sizes its inner Chambolle solves from its
            // own params, so brownout caps those directly; the numerics-tier
            // override rides in on the context itself.
            let mut params = *params;
            let tier = match degradation {
                Some(d) if d.degrades(params.inner.iterations) => {
                    params.inner.iterations = d.effective_iterations(params.inner.iterations);
                    ResponseTier::Degraded
                }
                _ => ResponseTier::Full,
            };
            let solver = TvL1Solver::sequential(params);
            match solver.flow_with_ctx(i0, i1, None, &ctx) {
                Ok((flow, _stats)) => Ok((Output::Flow(flow), tier, None)),
                Err(FlowError::Cancelled(c)) => Err(error_from_reason(c.reason)),
                Err(other) => Err(ServiceError::Solver(other.to_string())),
            }
        }
    }
}

fn error_from_reason(reason: CancelReason) -> ServiceError {
    match reason {
        CancelReason::Explicit => ServiceError::Cancelled,
        CancelReason::DeadlineExceeded => ServiceError::DeadlineExceeded,
    }
}

/// Delivers exactly one response for `pending`, updating counters and
/// latency histograms. A dropped ticket (client gave up) is fine — the send
/// error is ignored, the accounting still happens.
fn respond(
    shared: &Shared,
    pending: &Pending,
    result: Result<(Output, ResponseTier, Option<RecoveryReport>), ServiceError>,
    queue_us: u64,
    solve_us: u64,
    batch_size: usize,
) {
    let total_us = micros(pending.submitted_at, Instant::now());
    let telemetry = &shared.telemetry;
    telemetry.observe(names::SERVICE_QUEUE_LATENCY_US, queue_us as f64);
    telemetry.observe(names::SERVICE_SOLVE_LATENCY_US, solve_us as f64);
    telemetry.observe(names::SERVICE_TOTAL_LATENCY_US, total_us as f64);
    shared
        .last_solve_ms
        .store(shared.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);

    // The live metrics plane: rolling-window rates and latency histograms,
    // labelled by lane where a scraper would slice them.
    let lane = pending.priority.as_str();
    let window = &shared.window;
    window.observe(&format!("{lane}.queue_us"), queue_us as f64);
    window.observe("solve_us", solve_us as f64);
    window.observe("total_us", total_us as f64);
    window.observe("batch_size", batch_size as f64);
    window.mark(&format!("{lane}.responses"), 1);
    if result.is_err() {
        window.mark(&format!("{lane}.errors"), 1);
    }

    // SLO accounting: a breach is an error or a response slower than the
    // lane's latency target. Burn-rate evaluation happens per batch in
    // `brownout_policy`; here we only feed the window.
    if let Some(objective) = shared.config.slo[lane_index(pending.priority)] {
        window.mark(&format!("slo.{lane}.total"), 1);
        let breached = result.is_err() || total_us > objective.latency_us;
        if breached {
            window.mark(&format!("slo.{lane}.breach"), 1);
            telemetry.counter_add(&format!("{}{lane}", names::SERVICE_SLO_BREACH_PREFIX), 1);
        }
    }

    // Span tree of this request's service-side life: queue wait and batch
    // residency under the propagated parent, the solve nested inside the
    // batch span. Durations sum consistently (queue + batch == total,
    // solve <= batch).
    if pending.trace.is_active() && shared.tracer.is_enabled() {
        let tracer = &shared.tracer;
        let trace = pending.trace;
        let queued_us = tracer.offset_us(pending.submitted_at);
        let (dequeued_us, done_us) = (queued_us + queue_us, queued_us + total_us);
        let lane_attr = vec![("lane".into(), lane.into())];
        tracer.record(trace, None, "queue", queued_us..dequeued_us, lane_attr);
        let size_attr = vec![("batch_size".into(), batch_size.into())];
        let batch = tracer.record(trace, None, "batch", dequeued_us..done_us, size_attr);
        let ok_attr = vec![("ok".into(), result.is_ok().into())];
        let solving_us = done_us.saturating_sub(solve_us)..done_us;
        tracer.record(batch, None, "solve", solving_us, ok_attr);
        telemetry.counter_add(names::SERVICE_TRACE_SPANS, 3);
    }

    let response = match result {
        Ok((output, tier, recovery)) => {
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            telemetry.counter_add(names::SERVICE_COMPLETED, 1);
            if tier == ResponseTier::Degraded {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
                telemetry.counter_add(names::SERVICE_DEGRADED_RESPONSES, 1);
            }
            if let Some(report) = &recovery {
                report.record_telemetry(telemetry);
            }
            Ok(Completed {
                output,
                tier,
                recovery,
                queue_us,
                solve_us,
                total_us,
                batch_size,
            })
        }
        Err(err) => {
            let (stat, name) = match &err {
                ServiceError::Cancelled => (&shared.stats.cancelled, names::SERVICE_CANCELLED),
                ServiceError::DeadlineExceeded => (
                    &shared.stats.deadline_exceeded,
                    names::SERVICE_DEADLINE_EXCEEDED,
                ),
                _ => (&shared.stats.failed, names::SERVICE_FAILED),
            };
            stat.fetch_add(1, Ordering::Relaxed);
            telemetry.counter_add(name, 1);
            Err(err)
        }
    };
    let _ = pending.responder.send(response);
}

fn micros(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}
