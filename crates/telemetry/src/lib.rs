//! Cross-crate telemetry for the Chambolle reproduction: a metric registry
//! (counters, gauges, fixed-bucket histograms with p50/p90/p99), RAII span
//! timers, request traces ([`trace`]), a rolling-window metrics plane
//! ([`window`]), and a serializable [`report::RunReport`].
//!
//! Zero external dependencies — the workspace builds fully offline, and the
//! instrumentation must never pull weight the kernels it observes don't.
//!
//! # Design
//!
//! A [`Telemetry`] handle is a cheap `Clone` (an `Arc` around the metric
//! registry). Instrumented code holds a [`Telemetry::disabled`] handle
//! unless a caller hands it an enabled one; every recording method starts
//! with a single branch on that option, so the disabled path costs one
//! predictable branch and touches no locks, clocks, or allocations — the
//! "measurable no-op" contract (`tests/disabled_cost.rs` pins the
//! allocation half of it, `tests/telemetry_noop.rs` at the workspace root
//! the bit-identical-output half).
//!
//! Every counter, gauge, observation and span timing lands in one
//! [`metrics::Metrics`] registry; a span is a scoped timer feeding the
//! histogram `span.<name>`. Request-scoped span trees live in
//! [`trace::Tracer`], the one place a request span is made. Cycle-accurate
//! waveforms stay in `hwsim::trace` (VCD) — VCD answers "what did the BRAM
//! schedule do each cycle", telemetry answers "what did this run do end to
//! end".
//!
//! # Examples
//!
//! ```
//! use chambolle_telemetry::{names, Telemetry};
//!
//! let tele = Telemetry::null(); // metrics on
//! {
//!     let _solve = tele.span("solve");
//!     tele.counter_add(names::SOLVER_ITERATIONS, 100);
//!     tele.gauge_set(names::SOLVER_FINAL_GAP, 0.034);
//! }
//! let snapshot = tele.snapshot();
//! assert_eq!(snapshot.counter(names::SOLVER_ITERATIONS), Some(100));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;
pub mod window;

use std::sync::{Arc, Mutex};

use metrics::Metrics;
use span::Span;

pub use report::{RunReport, RUN_REPORT_SCHEMA};
pub use trace::{RequestTrace, SpanRecord, TraceContext, Tracer};
pub use window::{WindowConfig, WindowSnapshot, WindowedMetrics};

/// The metric name registry.
///
/// Every instrumented subsystem publishes under a fixed dotted prefix so
/// reports stay schema-stable; see DESIGN.md § Observability for the prose
/// version of this table.
pub mod names {
    /// Counter: Chambolle iterations actually executed.
    pub const SOLVER_ITERATIONS: &str = "solver.iterations";
    /// Counter: duality-gap checkpoints evaluated.
    pub const SOLVER_GAP_CHECKS: &str = "solver.gap_checks";
    /// Gauge: last observed primal ROF energy.
    pub const SOLVER_FINAL_ENERGY: &str = "solver.final_energy";
    /// Gauge: last observed duality gap.
    pub const SOLVER_FINAL_GAP: &str = "solver.final_gap";

    /// Counter: tile-solver rounds executed (⌈N/K⌉ per denoise).
    pub const TILING_ROUNDS: &str = "tiling.rounds";
    /// Counter: window (tile) computations executed.
    pub const TILING_WINDOW_LOADS: &str = "tiling.window_loads";
    /// Gauge: windows per round of the active plan.
    pub const TILING_WINDOWS_PER_ROUND: &str = "tiling.windows_per_round";
    /// Gauge: redundant-halo compute fraction of the active plan.
    pub const TILING_REDUNDANCY_RATIO: &str = "tiling.redundancy_ratio";

    /// Counter: simulated accelerator cycles (busiest window per frame).
    pub const HWSIM_CYCLES: &str = "hwsim.cycles";
    /// Counter: accelerator window loads (including u-rounds).
    pub const HWSIM_WINDOW_LOADS: &str = "hwsim.window_loads";
    /// Counter: accelerator iteration rounds.
    pub const HWSIM_ROUNDS: &str = "hwsim.rounds";
    /// Counter: frames pushed through the accelerator.
    pub const HWSIM_FRAMES: &str = "hwsim.frames";
    /// Counter: BRAM reads issued on port 1 (the design's read port).
    pub const HWSIM_BRAM_PORT1_READS: &str = "hwsim.bram.port1.reads";
    /// Counter: BRAM reads issued on port 2.
    pub const HWSIM_BRAM_PORT2_READS: &str = "hwsim.bram.port2.reads";
    /// Counter: BRAM writes issued on port 1.
    pub const HWSIM_BRAM_PORT1_WRITES: &str = "hwsim.bram.port1.writes";
    /// Counter: BRAM writes issued on port 2 (the design's write port).
    pub const HWSIM_BRAM_PORT2_WRITES: &str = "hwsim.bram.port2.writes";
    /// Counter: port-1 cycles with no access (stall/idle tally).
    pub const HWSIM_BRAM_PORT1_IDLE: &str = "hwsim.bram.port1.idle_cycles";
    /// Counter: port-2 cycles with no access (stall/idle tally).
    pub const HWSIM_BRAM_PORT2_IDLE: &str = "hwsim.bram.port2.idle_cycles";
    /// Counter: sqrt-LUT table lookups performed by the PE-V datapaths.
    pub const HWSIM_SQRT_LOOKUPS: &str = "hwsim.sqrt.lut_lookups";

    /// Gauge: closed-form model cycles for the last projected frame.
    pub const MODEL_FRAME_CYCLES: &str = "timing.model.frame_cycles";
    /// Gauge: closed-form model fps for the last projected frame.
    pub const MODEL_FPS: &str = "timing.model.fps";

    /// Counter: tasks executed by the parallel worker pool.
    pub const PAR_TASKS: &str = "par.tasks";
    /// Counter: tiles stolen across worker queues by the pool.
    pub const PAR_STEALS: &str = "par.steal_count";
    /// Counter: pool broadcasts (whole-pool park/unpark cycles).
    pub const PAR_BROADCASTS: &str = "par.broadcasts";

    /// Counter: guard-layer fault detections.
    pub const GUARD_DETECTIONS: &str = "guard.detections";
    /// Counter: recovery actions taken (all kinds).
    pub const GUARD_RECOVERIES: &str = "guard.recoveries";
    /// Counter: falls back to the sequential reference path.
    pub const GUARD_FALLBACKS: &str = "guard.fallbacks";
    /// Counter: runs that finished in degraded mode.
    pub const GUARD_DEGRADED: &str = "guard.degraded";
    /// Prefix for per-kind recovery-action counters
    /// (e.g. `guard.action.step_backoff`).
    pub const GUARD_ACTION_PREFIX: &str = "guard.action.";

    /// Counter: requests submitted to the service front door.
    pub const SERVICE_SUBMITTED: &str = "service.submitted";
    /// Counter: requests admitted past admission control.
    pub const SERVICE_ACCEPTED: &str = "service.accepted";
    /// Counter: submissions rejected because the queue was at capacity.
    pub const SERVICE_REJECTED_QUEUE_FULL: &str = "service.rejected.queue_full";
    /// Counter: submissions rejected because the service was draining.
    pub const SERVICE_REJECTED_SHUTTING_DOWN: &str = "service.rejected.shutting_down";
    /// Counter: submissions rejected for invalid workloads/parameters.
    pub const SERVICE_REJECTED_INVALID: &str = "service.rejected.invalid";
    /// Counter: requests completed successfully.
    pub const SERVICE_COMPLETED: &str = "service.completed";
    /// Counter: requests that failed in the solver (guard exhausted/panic).
    pub const SERVICE_FAILED: &str = "service.failed";
    /// Counter: requests cancelled explicitly by the client.
    pub const SERVICE_CANCELLED: &str = "service.cancelled";
    /// Counter: requests that exceeded their deadline.
    pub const SERVICE_DEADLINE_EXCEEDED: &str = "service.deadline_exceeded";
    /// Counter: batches dispatched to the solver pool.
    pub const SERVICE_BATCHES: &str = "service.batches";
    /// Histogram: requests coalesced per dispatched batch.
    pub const SERVICE_BATCH_SIZE: &str = "service.batch_size";
    /// Gauge: queue depth observed at the latest admission decision.
    pub const SERVICE_QUEUE_DEPTH: &str = "service.queue_depth";
    /// Counter: queue-depth crossings of the high watermark (rising edge).
    pub const SERVICE_HIGH_WATERMARK: &str = "service.watermark.high";
    /// Counter: queue-depth crossings of the low watermark (falling edge).
    pub const SERVICE_LOW_WATERMARK: &str = "service.watermark.low";
    /// Histogram: microseconds a request waited in the queue.
    pub const SERVICE_QUEUE_LATENCY_US: &str = "service.latency.queue_us";
    /// Histogram: microseconds a request spent in the solver.
    pub const SERVICE_SOLVE_LATENCY_US: &str = "service.latency.solve_us";
    /// Histogram: microseconds from submission to response.
    pub const SERVICE_TOTAL_LATENCY_US: &str = "service.latency.total_us";
    /// Counter: brownout activations (a batch was dispatched inside a
    /// queue congestion episode or while an SLO burned, with a brownout cap
    /// configured).
    pub const SERVICE_BROWNOUT_ENTERED: &str = "service.brownout.entered";
    /// Counter: brownout deactivations (congestion cleared at the low
    /// watermark and no SLO burns; full fidelity restored).
    pub const SERVICE_BROWNOUT_EXITED: &str = "service.brownout.exited";
    /// Counter: responses served at the degraded fidelity tier.
    pub const SERVICE_DEGRADED_RESPONSES: &str = "service.degraded_responses";
    /// Counter: health/readiness probes answered by the front-end.
    pub const SERVICE_HEALTH_PROBES: &str = "service.health_probes";
    /// Counter: wire requests answered from the idempotency cache instead
    /// of recomputing.
    pub const SERVICE_IDEMPOTENT_HITS: &str = "service.idempotent.hits";

    /// Counter: client retry attempts beyond the first try.
    pub const SERVICE_RETRY_ATTEMPTS: &str = "service.retry.attempts";
    /// Counter: requests that eventually succeeded after >= 1 retry.
    pub const SERVICE_RETRY_RECOVERED: &str = "service.retry.recovered";
    /// Counter: requests abandoned after exhausting the retry budget.
    pub const SERVICE_RETRY_EXHAUSTED: &str = "service.retry.exhausted";
    /// Histogram: microseconds from first failure to eventual success on
    /// requests that needed retries (client-observed recovery time).
    pub const SERVICE_RETRY_RECOVERY_US: &str = "service.retry.recovery_us";

    /// Counter: circuit-breaker transitions into `Open`.
    pub const SERVICE_BREAKER_OPENED: &str = "service.breaker.opened";
    /// Counter: circuit-breaker transitions into `HalfOpen` (probe allowed).
    pub const SERVICE_BREAKER_HALF_OPEN: &str = "service.breaker.half_open";
    /// Counter: circuit-breaker transitions back into `Closed`.
    pub const SERVICE_BREAKER_CLOSED: &str = "service.breaker.closed";
    /// Gauge: current breaker state (0 closed, 1 open, 2 half-open).
    pub const SERVICE_BREAKER_STATE: &str = "service.breaker.state";

    /// Counter: wire metrics-snapshot requests answered by the front-end.
    pub const SERVICE_METRICS_PROBES: &str = "service.metrics_probes";
    /// Counter: spans recorded into the request tracer.
    pub const SERVICE_TRACE_SPANS: &str = "service.trace.spans";
    /// Counter: request traces completed and retained in the trace ring.
    pub const SERVICE_TRACE_FINISHED: &str = "service.trace.finished";

    /// Counter: per-lane SLO breaches (latency objective missed or request
    /// failed), qualified with the lane (`service.slo.breach.interactive`).
    pub const SERVICE_SLO_BREACH_PREFIX: &str = "service.slo.breach.";
    /// Counter: transitions into SLO burn (edge-counted, like brownout).
    pub const SERVICE_SLO_BURN_ENTERED: &str = "service.slo.burn_entered";
    /// Counter: transitions out of SLO burn.
    pub const SERVICE_SLO_BURN_EXITED: &str = "service.slo.burn_exited";
    /// Gauge: the worst per-lane burn rate observed at the last evaluation
    /// (breach fraction over the window divided by the error budget).
    pub const SERVICE_SLO_BURN_RATE: &str = "service.slo.burn_rate";

    /// Counter: chaos-injected connection resets.
    pub const SERVICE_CHAOS_RESETS: &str = "service.chaos.resets";
    /// Counter: chaos-injected byte corruptions.
    pub const SERVICE_CHAOS_CORRUPTIONS: &str = "service.chaos.corruptions";
    /// Counter: chaos-injected read stalls.
    pub const SERVICE_CHAOS_STALLS: &str = "service.chaos.stalls";
    /// Counter: chaos-injected partial writes (prefix flushed, then reset).
    pub const SERVICE_CHAOS_PARTIAL_WRITES: &str = "service.chaos.partial_writes";
    /// Counter: chaos-injected server crashes after commit, before respond.
    pub const SERVICE_CHAOS_SERVER_PANICS: &str = "service.chaos.server_panics";

    /// Gauge: `f32` lanes per vector op of the selected kernel backend
    /// (1 scalar, 4 SSE2, 8 AVX2, 16 AVX-512).
    pub const BACKEND_SIMD_LANES: &str = "backend.simd_lanes";
    /// Gauge: 1 if the host CPU supports the SSE2 backend, else 0.
    pub const BACKEND_SSE2_SUPPORTED: &str = "backend.sse2_supported";
    /// Gauge: 1 if the host CPU supports the AVX2 backend, else 0.
    pub const BACKEND_AVX2_SUPPORTED: &str = "backend.avx2_supported";
    /// Gauge: 1 if the host CPU supports the AVX-512 backend, else 0.
    pub const BACKEND_AVX512_SUPPORTED: &str = "backend.avx512_supported";
}

/// A shareable telemetry handle.
///
/// Cloning shares the underlying registry. A disabled handle
/// ([`Telemetry::disabled`], also the `Default`) makes every operation a
/// single branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    metrics: Option<Arc<Mutex<Metrics>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.metrics.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing and costs one branch per call.
    pub fn disabled() -> Self {
        Telemetry { metrics: None }
    }

    /// An enabled handle recording into a fresh metric registry.
    pub fn null() -> Self {
        Telemetry {
            metrics: Some(Arc::new(Mutex::new(Metrics::new()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    fn record(&self, update: impl FnOnce(&mut Metrics)) {
        if let Some(metrics) = &self.metrics {
            update(&mut metrics.lock().expect("telemetry poisoned"));
        }
    }

    /// Adds to a counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.record(|m| m.counter_add(name, delta));
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.record(|m| m.gauge_set(name, value));
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &str, value: f64) {
        self.record(|m| m.observe(name, value));
    }

    /// Opens a RAII span; the returned guard times its own scope into the
    /// histogram `span.<name>`. A disabled handle returns an empty guard.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.metrics.as_ref(), name)
    }

    /// A clone of the current metric registry.
    pub fn snapshot(&self) -> Metrics {
        match &self.metrics {
            Some(metrics) => metrics.lock().expect("telemetry poisoned").clone(),
            None => Metrics::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        tele.counter_add("c", 5);
        tele.gauge_set("g", 1.0);
        tele.observe("h", 2.0);
        drop(tele.span("s"));
        assert!(!tele.is_enabled());
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn clones_share_the_registry() {
        let tele = Telemetry::null();
        let other = tele.clone();
        tele.counter_add("c", 1);
        other.counter_add("c", 2);
        assert_eq!(tele.snapshot().counter("c"), Some(3));
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
    }
}
