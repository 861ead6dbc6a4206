//! Request and response vocabulary of the service.
//!
//! A [`Request`] pairs a [`Workload`] with scheduling hints (priority lane,
//! deadline). The micro-batcher takes requests from one lane in submission
//! order, whatever their kind, shape or parameters: every member of a batch
//! solves alone, so sharing a pool dispatch changes no result.

use std::fmt;
use std::time::Duration;

use chambolle_core::{validate_solvable, ChambolleParams, RecoveryReport, TvL1Params};
use chambolle_imaging::{FlowField, Grid};
use chambolle_telemetry::trace::TraceContext;

/// Scheduling lane of a request.
///
/// Interactive requests are always dequeued before batch requests; within a
/// lane, requests keep submission order (no starvation *within* a lane, and
/// batch work proceeds whenever the interactive lane is empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive lane, dequeued first.
    Interactive,
    /// Throughput lane, dequeued when the interactive lane is empty.
    #[default]
    Batch,
}

impl Priority {
    /// Stable wire/report identifier.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// The work a request asks for.
#[derive(Debug, Clone)]
pub enum Workload {
    /// One ROF denoise through the guarded sequential solver.
    Denoise {
        /// Noisy input image.
        input: Grid<f32>,
        /// Chambolle parameters.
        params: ChambolleParams,
    },
    /// One TV-L1 optical-flow estimation between two frames.
    TvL1 {
        /// First frame.
        i0: Grid<f32>,
        /// Second frame.
        i1: Grid<f32>,
        /// Outer-loop parameters.
        params: TvL1Params,
    },
}

impl Workload {
    /// Admission-time validation: shape and parameter checks that no solver
    /// could work around. Failures become [`RejectReason::Invalid`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason string.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Workload::Denoise { input, params } => {
                if input.is_empty() {
                    return Err("denoise input has no cells".into());
                }
                validate_solvable(params).map_err(|e| e.to_string())
            }
            Workload::TvL1 { i0, i1, params } => {
                if i0.is_empty() || i1.is_empty() {
                    return Err("flow frames have no cells".into());
                }
                if i0.dims() != i1.dims() {
                    return Err(format!(
                        "flow frames differ in size: {:?} vs {:?}",
                        i0.dims(),
                        i1.dims()
                    ));
                }
                validate_solvable(&params.inner).map_err(|e| e.to_string())
            }
        }
    }
}

/// One submission: workload plus scheduling hints.
#[derive(Debug, Clone)]
pub struct Request {
    /// The work to do.
    pub workload: Workload,
    /// Scheduling lane.
    pub priority: Priority,
    /// Per-request deadline measured from submission; `None` uses the
    /// service's default (which may also be none).
    pub deadline: Option<Duration>,
    /// Distributed-trace context this request belongs to
    /// ([`TraceContext::NONE`] when tracing is off).
    pub trace: TraceContext,
}

impl Request {
    /// A batch-lane request with no explicit deadline.
    pub fn new(workload: Workload) -> Self {
        Request {
            workload,
            priority: Priority::Batch,
            deadline: None,
            trace: TraceContext::NONE,
        }
    }

    /// Sets the priority lane.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline (from submission time).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a propagated trace context.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }
}

/// The fidelity a response was served at.
///
/// Under sustained queue congestion or a burning SLO a service with a
/// brownout cap enters *brownout*: instead of rejecting overflow, it runs
/// solves at the Fast numerics tier, caps their iterations under compound
/// pressure, and tags the affected responses [`ResponseTier::Degraded`] so
/// clients can tell a full-fidelity result from a load-shed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseTier {
    /// The solve ran as requested.
    #[default]
    Full,
    /// The solve ran under brownout: at the Fast tier, and possibly with
    /// fewer iterations than the request asked for.
    Degraded,
}

impl ResponseTier {
    /// Stable wire/report identifier.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResponseTier::Full => "full",
            ResponseTier::Degraded => "degraded",
        }
    }
}

impl fmt::Display for ResponseTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A successful solve's payload.
#[derive(Debug, Clone)]
pub enum Output {
    /// Denoised image.
    Denoised(Grid<f32>),
    /// Estimated flow field.
    Flow(FlowField),
}

impl Output {
    /// The denoised grid, if this output is one.
    pub fn as_denoised(&self) -> Option<&Grid<f32>> {
        match self {
            Output::Denoised(g) => Some(g),
            Output::Flow(_) => None,
        }
    }

    /// The flow field, if this output is one.
    pub fn as_flow(&self) -> Option<&FlowField> {
        match self {
            Output::Flow(f) => Some(f),
            Output::Denoised(_) => None,
        }
    }
}

/// A completed request: the output plus per-request accounting.
#[derive(Debug, Clone)]
pub struct Completed {
    /// The solve result.
    pub output: Output,
    /// Fidelity tier: [`ResponseTier::Degraded`] when the solve ran under
    /// brownout.
    pub tier: ResponseTier,
    /// Guard-layer recovery report (denoise requests only).
    pub recovery: Option<RecoveryReport>,
    /// Microseconds spent waiting in the queue.
    pub queue_us: u64,
    /// Microseconds spent in the solver.
    pub solve_us: u64,
    /// Microseconds from submission to response.
    pub total_us: u64,
    /// Number of requests coalesced into the batch this one rode in.
    pub batch_size: usize,
}

/// Structured admission-control rejection. Submissions that are rejected
/// never enter the queue and never consume solver time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was at capacity.
    QueueFull {
        /// Queue depth observed at the admission decision.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The service is draining and accepts no new work.
    ShuttingDown,
    /// The workload failed admission-time validation.
    Invalid(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            RejectReason::ShuttingDown => write!(f, "service is shutting down"),
            RejectReason::Invalid(reason) => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// Failure of an *accepted* request. Every accepted request receives exactly
/// one response: `Ok(Completed)` or one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The client cancelled the ticket.
    Cancelled,
    /// The request's deadline passed before the solve finished.
    DeadlineExceeded,
    /// The solver failed (guard exhausted its recovery avenues, or the
    /// solve panicked and was contained).
    Solver(String),
    /// The service dispatcher went away without responding (only possible
    /// if the dispatcher thread itself died — never part of normal
    /// operation or shutdown).
    Disconnected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Cancelled => write!(f, "request cancelled"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Solver(msg) => write!(f, "solver failure: {msg}"),
            ServiceError::Disconnected => write!(f, "service disconnected"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn denoise_workload(w: usize, h: usize, iters: u32) -> Workload {
        Workload::Denoise {
            input: Grid::new(w, h, 0.5f32),
            params: ChambolleParams::with_iterations(iters),
        }
    }

    #[test]
    fn validation_rejects_malformed_workloads() {
        assert!(denoise_workload(4, 4, 5).validate().is_ok());
        let mut bad = ChambolleParams::with_iterations(5);
        bad.theta = -1.0;
        assert!(Workload::Denoise {
            input: Grid::new(4, 4, 0.0f32),
            params: bad,
        }
        .validate()
        .is_err());
        assert!(Workload::TvL1 {
            i0: Grid::new(4, 4, 0.0f32),
            i1: Grid::new(5, 4, 0.0f32),
            params: TvL1Params::default(),
        }
        .validate()
        .unwrap_err()
        .contains("differ"));
    }

    #[test]
    fn reject_and_error_display() {
        let full = RejectReason::QueueFull {
            depth: 64,
            capacity: 64,
        };
        assert!(full.to_string().contains("64/64"));
        assert!(RejectReason::ShuttingDown.to_string().contains("shutting"));
        assert!(RejectReason::Invalid("x".into()).to_string().contains("x"));
        assert!(ServiceError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(ServiceError::Solver("boom".into())
            .to_string()
            .contains("boom"));
    }
}
