//! A client that survives the faults [`chaos`](crate::chaos) injects.
//!
//! [`ResilientClient`] wraps the wire protocol with the standard resilience
//! stack:
//!
//! - **per-attempt timeouts** — connect and I/O are both bounded, so a
//!   black-holed server costs one timeout, not a hung client;
//! - **bounded retries with decorrelated-jitter backoff** — transient
//!   transport faults (resets, corrupt frames caught by the checksum,
//!   timeouts) are retried up to a budget, sleeping
//!   `min(max, uniform(base, 3·prev))` between attempts;
//! - **idempotency keys** — every solve carries a unique nonzero key, so a
//!   retry of a request whose response was lost *after* the server
//!   committed returns the cached bit-identical result instead of
//!   recomputing (and instead of silently solving twice);
//! - **a circuit breaker** — consecutive transport failures open the
//!   circuit; while open, attempts wait out the cooldown instead of
//!   hammering a dead server, then a half-open probe decides between
//!   closing and re-opening.
//!
//! Server-side *answers* are classified, not retried blindly: backpressure
//! (`QueueFull`) retries with backoff but does **not** count against the
//! breaker (the server is alive and talking); terminal outcomes
//! (invalid request, deadline exceeded, cancellation, solver failure,
//! shutdown) surface immediately.
//!
//! Everything the client does is observable through `service.retry.*` and
//! `service.breaker.*` telemetry. With [`ResilientConfig::tracing`] on (the
//! default) every solve additionally mints a [`TraceContext`] that rides the
//! wire frames, and — when a [`Tracer`] is attached — records
//! `client.request` / `client.attempt` / `client.backoff` spans. A peer that
//! rejects the frame's version is a transport fault like any other
//! protocol rejection.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use chambolle_core::ChambolleParams;
use chambolle_imaging::Grid;
use chambolle_telemetry::trace::{entropy_seed, splitmix_next, TraceContext, Tracer};
use chambolle_telemetry::{names, Telemetry};

use crate::net::{connect_stream, round_trip, unexpected};
use crate::request::{Priority, ResponseTier};
use crate::service::HealthSnapshot;
use crate::wire::{
    encode_denoise_request, encode_health_request, encode_metrics_request, ErrorCode, WireResponse,
    WIRE_VERSION,
};

/// Retry budget and backoff shape.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff floor (also the first sleep's lower bound).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// 5 attempts, 10 ms floor, 1 s ceiling.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive transport failures that open the circuit.
    pub failure_threshold: u32,
    /// How long an open circuit rests before a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    /// Open after 3 consecutive failures, probe after 250 ms.
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Full configuration of a [`ResilientClient`].
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Bound on connection establishment per attempt.
    pub connect_timeout: Duration,
    /// Bound on each read/write; must cover the service's solve time.
    pub io_timeout: Duration,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Seed of the backoff jitter stream (deterministic tests pin it). Only
    /// backoff timing depends on it; idempotency keys are minted from
    /// per-client entropy so concurrent clients never collide.
    pub jitter_seed: u64,
    /// Whether solves mint and propagate a [`TraceContext`].
    pub tracing: bool,
}

impl Default for ResilientConfig {
    /// 5 s connect, 10 s I/O, default retry and breaker policies.
    fn default() -> Self {
        ResilientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            jitter_seed: 0x5EED,
            tracing: true,
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: attempts wait out the cooldown.
    Open,
    /// Probing: one request decides between Closed and Open.
    HalfOpen,
}

impl BreakerState {
    fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// Why a [`ResilientClient`] call ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// The service answered with a terminal outcome; retrying would not
    /// change it.
    Terminal {
        /// Whether the request was rejected at admission (vs failed after).
        rejected: bool,
        /// Stable error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The retry budget ran out on transient faults.
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// Description of the last transient fault.
        last_error: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Terminal { code, message, .. } => {
                write!(f, "terminal service error ({code:?}): {message}")
            }
            ClientError::Exhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts: {last_error}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// A successful solve plus how hard the client had to work for it.
#[derive(Debug, Clone)]
pub struct DenoiseOutcome {
    /// The denoised image, bit-identical to a fault-free solve.
    pub output: Grid<f32>,
    /// Fidelity tier the service answered at.
    pub tier: ResponseTier,
    /// Attempts used (1 = clean first try).
    pub attempts: u32,
    /// Whether any retry was needed.
    pub recovered: bool,
    /// The trace context this request carried on the wire
    /// ([`TraceContext::NONE`] when tracing was off).
    pub trace: TraceContext,
}

/// Running totals of the client's resilience machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Requests that returned (successfully or terminally).
    pub requests: u64,
    /// Total attempts across all requests.
    pub attempts: u64,
    /// Retries (attempts beyond each request's first).
    pub retries: u64,
    /// Requests that succeeded after at least one retry.
    pub recovered: u64,
    /// Requests that ran out of retry budget.
    pub exhausted: u64,
    /// Times the breaker opened.
    pub breaker_opened: u64,
}

struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    policy: BreakerPolicy,
}

impl Breaker {
    fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            policy,
        }
    }

    /// Time left before an open circuit may half-open; zero when not open.
    fn cooldown_remaining(&self, now: Instant) -> Duration {
        match (self.state, self.opened_at) {
            (BreakerState::Open, Some(at)) => self
                .policy
                .cooldown
                .saturating_sub(now.saturating_duration_since(at)),
            _ => Duration::ZERO,
        }
    }
}

/// The retrying, breaker-guarded wire client. See the module docs.
pub struct ResilientClient {
    addrs: Vec<SocketAddr>,
    config: ResilientConfig,
    conn: Option<TcpStream>,
    next_id: u64,
    key_state: u64,
    rng: u64,
    prev_backoff: Duration,
    breaker: Breaker,
    stats: ResilientStats,
    telemetry: Telemetry,
    trace_state: u64,
    tracer: Tracer,
}

impl ResilientClient {
    /// Connects with the default [`ResilientConfig`].
    ///
    /// # Errors
    ///
    /// Address resolution or connection I/O errors (the initial connect is
    /// eager so a bad address fails fast).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        ResilientClient::connect_with(addr, ResilientConfig::default())
    }

    /// Connects with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Address resolution or connection I/O errors.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ResilientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut client = ResilientClient {
            addrs,
            config,
            conn: None,
            next_id: 1,
            // Keys must be nonzero, unique per logical request, and distinct
            // across clients sharing one server's idempotency cache — the
            // jitter seed deliberately plays no part (two default-configured
            // clients would mint identical key streams and silently read
            // each other's cached results).
            key_state: entropy_seed(),
            rng: config.jitter_seed,
            prev_backoff: config.retry.base_backoff,
            breaker: Breaker::new(config.breaker),
            stats: ResilientStats::default(),
            telemetry: Telemetry::disabled(),
            trace_state: entropy_seed(),
            tracer: Tracer::disabled(),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Records `service.retry.*` / `service.breaker.*` metrics into
    /// `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self.telemetry
            .gauge_set(names::SERVICE_BREAKER_STATE, self.breaker.state.gauge());
        self
    }

    /// Records `client.*` spans into `tracer`, on its clock. Sharing a
    /// tracer with the server (its handle's) merges client and server
    /// spans into one timeline.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The client-side tracer (disabled unless attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state
    }

    /// Running resilience totals.
    pub fn stats(&self) -> ResilientStats {
        self.stats
    }

    /// One denoise, retried across transient faults until it succeeds, hits
    /// a terminal service outcome, or exhausts the retry budget.
    ///
    /// Every attempt of one call carries the same idempotency key, so a
    /// retry of a solve that committed server-side returns the cached
    /// bit-identical result.
    ///
    /// # Errors
    ///
    /// [`ClientError::Terminal`] for service outcomes retrying cannot fix;
    /// [`ClientError::Exhausted`] when the budget runs out.
    pub fn denoise(
        &mut self,
        input: &Grid<f32>,
        params: &ChambolleParams,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<DenoiseOutcome, ClientError> {
        let key = self.mint_key();
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.mint_trace();
        let payload = encode_denoise_request(
            WIRE_VERSION,
            id,
            key,
            trace,
            priority,
            deadline,
            params,
            input,
        );
        let request_start_us = self.tracer.now_us();

        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut first_failure: Option<Instant> = None;
        let mut last_error;
        self.prev_backoff = self.config.retry.base_backoff;
        loop {
            attempts += 1;
            self.stats.attempts += 1;
            if attempts > 1 {
                self.stats.retries += 1;
                self.telemetry.counter_add(names::SERVICE_RETRY_ATTEMPTS, 1);
            }
            self.wait_for_breaker();
            let attempt_start_us = self.tracer.now_us();
            let outcome = self.attempt(&payload, id);
            self.record_attempt_span(trace, attempts, attempt_start_us, outcome.label());
            match outcome {
                Attempt::Ok { tier, output } => {
                    self.breaker_success();
                    self.stats.requests += 1;
                    let recovered = attempts > 1;
                    if recovered {
                        self.stats.recovered += 1;
                        self.telemetry
                            .counter_add(names::SERVICE_RETRY_RECOVERED, 1);
                        if let Some(at) = first_failure {
                            self.telemetry.observe(
                                names::SERVICE_RETRY_RECOVERY_US,
                                at.elapsed().as_micros() as f64,
                            );
                        }
                    }
                    self.finish_request_span(trace, request_start_us, attempts, "ok");
                    return Ok(DenoiseOutcome {
                        output,
                        tier,
                        attempts,
                        recovered,
                        trace,
                    });
                }
                Attempt::Terminal {
                    rejected,
                    code,
                    message,
                } => {
                    // The server answered; the transport is healthy even
                    // though the outcome is bad.
                    self.breaker_success();
                    self.stats.requests += 1;
                    self.finish_request_span(trace, request_start_us, attempts, "terminal");
                    return Err(ClientError::Terminal {
                        rejected,
                        code,
                        message,
                    });
                }
                Attempt::Backpressure { message } => {
                    // Alive but overloaded: retry with backoff, but don't
                    // count it against the breaker.
                    self.breaker_success();
                    first_failure.get_or_insert_with(Instant::now);
                    last_error = message;
                }
                Attempt::Transport { message } => {
                    self.breaker_failure();
                    self.conn = None;
                    first_failure.get_or_insert_with(Instant::now);
                    last_error = message;
                }
            }
            if attempts >= max_attempts {
                self.stats.requests += 1;
                self.stats.exhausted += 1;
                self.telemetry
                    .counter_add(names::SERVICE_RETRY_EXHAUSTED, 1);
                self.finish_request_span(trace, request_start_us, attempts, "exhausted");
                return Err(ClientError::Exhausted {
                    attempts,
                    last_error,
                });
            }
            self.backoff_sleep(trace);
        }
    }

    /// One health probe over the resilient transport (single attempt — a
    /// probe should report the truth *now*, not a retried approximation).
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on a non-health answer.
    pub fn health(&mut self) -> io::Result<HealthSnapshot> {
        match self.probe(encode_health_request)? {
            WireResponse::Health { health, .. } => Ok(health),
            other => Err(unexpected("a health report", &other)),
        }
    }

    /// One metrics-snapshot probe over the resilient transport (single
    /// attempt, like [`ResilientClient::health`]): the raw snapshot JSON
    /// document (schema [`crate::METRICS_SNAPSHOT_SCHEMA`]).
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` on a non-metrics answer.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.probe(encode_metrics_request)? {
            WireResponse::Metrics { snapshot, .. } => Ok(snapshot),
            other => Err(unexpected("a metrics snapshot", &other)),
        }
    }

    /// One untraced single-attempt round trip of the payload `encode`
    /// builds for the next request id.
    fn probe(&mut self, encode: fn(u64, TraceContext) -> Vec<u8>) -> io::Result<WireResponse> {
        let id = self.next_id;
        self.next_id += 1;
        self.exchange(&encode(id, TraceContext::NONE))
    }

    /// One round trip, connecting first if needed. A transport failure
    /// drops the connection, so the next call reconnects.
    fn exchange(&mut self, payload: &[u8]) -> io::Result<WireResponse> {
        self.ensure_connected()?;
        let stream = self.conn.as_mut().expect("just connected");
        let result = round_trip(stream, payload);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = connect_stream(&self.addrs[..], self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        self.conn = Some(stream);
        Ok(())
    }

    fn attempt(&mut self, payload: &[u8], expected_id: u64) -> Attempt {
        let response = match self.exchange(payload) {
            Ok(response) => response,
            Err(e) => {
                return Attempt::Transport {
                    message: format!("transport: {e}"),
                }
            }
        };
        match response {
            WireResponse::Ok {
                id, tier, output, ..
            } if id == expected_id => Attempt::Ok { tier, output },
            WireResponse::Err {
                id,
                rejected,
                code,
                message,
                ..
            } if id == expected_id || id == 0 => match code {
                // Backpressure and a server that couldn't even parse the
                // request (it was corrupted in flight) are retryable.
                ErrorCode::QueueFull => Attempt::Backpressure { message },
                ErrorCode::Protocol => Attempt::Transport {
                    message: format!("server rejected the frame: {message}"),
                },
                _ => Attempt::Terminal {
                    rejected,
                    code,
                    message,
                },
            },
            other => {
                // An id from a different request (or an unexpected health
                // frame) means the stream's framing is no longer trustworthy.
                Attempt::Transport {
                    message: format!("response out of sync: {other:?}"),
                }
            }
        }
    }

    /// Sleeps out whatever remains of an open breaker's cooldown, then
    /// transitions to half-open so the next attempt is the probe.
    fn wait_for_breaker(&mut self) {
        if self.breaker.state != BreakerState::Open {
            return;
        }
        let remaining = self.breaker.cooldown_remaining(Instant::now());
        if !remaining.is_zero() {
            std::thread::sleep(remaining);
        }
        self.set_breaker(BreakerState::HalfOpen);
        self.telemetry
            .counter_add(names::SERVICE_BREAKER_HALF_OPEN, 1);
    }

    fn breaker_success(&mut self) {
        self.breaker.consecutive_failures = 0;
        if self.breaker.state != BreakerState::Closed {
            self.set_breaker(BreakerState::Closed);
            self.breaker.opened_at = None;
            self.telemetry.counter_add(names::SERVICE_BREAKER_CLOSED, 1);
        }
    }

    fn breaker_failure(&mut self) {
        self.breaker.consecutive_failures += 1;
        let should_open = match self.breaker.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => {
                self.breaker.consecutive_failures >= self.breaker.policy.failure_threshold
            }
            BreakerState::Open => false,
        };
        if should_open {
            self.set_breaker(BreakerState::Open);
            self.breaker.opened_at = Some(Instant::now());
            self.stats.breaker_opened += 1;
            self.telemetry.counter_add(names::SERVICE_BREAKER_OPENED, 1);
        }
    }

    fn set_breaker(&mut self, state: BreakerState) {
        self.breaker.state = state;
        self.telemetry
            .gauge_set(names::SERVICE_BREAKER_STATE, state.gauge());
    }

    /// Decorrelated jitter: `sleep = min(max, uniform(base, 3·prev))`.
    fn backoff_sleep(&mut self, trace: TraceContext) {
        let base = self.config.retry.base_backoff;
        let ceiling = self.config.retry.max_backoff;
        let upper = (self.prev_backoff * 3).min(ceiling).max(base);
        let span = upper.saturating_sub(base);
        let sleep = if span.is_zero() {
            base
        } else {
            base + Duration::from_nanos(self.next_u64() % (span.as_nanos() as u64 + 1))
        };
        self.prev_backoff = sleep;
        let start_us = self.tracer.now_us();
        std::thread::sleep(sleep);
        let span_us = start_us..self.tracer.now_us();
        self.tracer
            .record(trace, None, "client.backoff", span_us, Vec::new());
    }

    fn next_u64(&mut self) -> u64 {
        splitmix_next(&mut self.rng)
    }

    /// Mints a nonzero idempotency key. SplitMix64 is a bijection over its
    /// counter, so one client never repeats a key within 2^64 requests;
    /// cross-client uniqueness rests on the entropy-seeded starting state.
    fn mint_key(&mut self) -> u64 {
        loop {
            let key = splitmix_next(&mut self.key_state);
            if key != 0 {
                return key;
            }
        }
    }

    /// Mints the trace context for the next request, or
    /// [`TraceContext::NONE`] when tracing is off.
    fn mint_trace(&mut self) -> TraceContext {
        if self.config.tracing {
            TraceContext::mint(&mut self.trace_state)
        } else {
            TraceContext::NONE
        }
    }

    /// Records one `client.attempt` span under the request root.
    fn record_attempt_span(
        &self,
        trace: TraceContext,
        attempt: u32,
        start_us: u64,
        outcome: &'static str,
    ) {
        if !trace.is_active() || !self.tracer.is_enabled() {
            return;
        }
        let attrs = vec![
            ("attempt".into(), attempt.into()),
            ("outcome".into(), outcome.into()),
        ];
        let span_us = start_us..self.tracer.now_us();
        self.tracer
            .record(trace, None, "client.attempt", span_us, attrs);
    }

    /// Records the `client.request` root span and moves the finished trace
    /// into the ring.
    fn finish_request_span(
        &self,
        trace: TraceContext,
        start_us: u64,
        attempts: u32,
        outcome: &'static str,
    ) {
        if !trace.is_active() || !self.tracer.is_enabled() {
            return;
        }
        let attrs = vec![
            ("attempts".into(), attempts.into()),
            ("outcome".into(), outcome.into()),
        ];
        let span_us = start_us..self.tracer.now_us();
        let root = Some(trace.span_id);
        self.tracer
            .record(trace, root, "client.request", span_us, attrs);
        self.tracer.finish(trace.trace_id);
    }
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("addrs", &self.addrs)
            .field("breaker", &self.breaker.state)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Outcome classification of one attempt.
enum Attempt {
    /// A valid success response for our request id.
    Ok {
        tier: ResponseTier,
        output: Grid<f32>,
    },
    /// A service answer retrying cannot change.
    Terminal {
        rejected: bool,
        code: ErrorCode,
        message: String,
    },
    /// The server is alive but shedding (queue full): retry, no breaker hit.
    Backpressure { message: String },
    /// The transport failed (reset, corruption, timeout, desync): retry and
    /// count against the breaker.
    Transport { message: String },
}

impl Attempt {
    /// Stable label for span attributes.
    fn label(&self) -> &'static str {
        match self {
            Attempt::Ok { .. } => "ok",
            Attempt::Terminal { .. } => "terminal",
            Attempt::Backpressure { .. } => "backpressure",
            Attempt::Transport { .. } => "transport",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ResilientConfig::default();
        assert!(config.retry.max_attempts >= 3);
        assert!(config.breaker.failure_threshold >= 1);
        assert!(config.connect_timeout > Duration::ZERO);
        assert!(config.io_timeout >= config.connect_timeout);
        assert!(config.retry.base_backoff <= config.retry.max_backoff);
    }

    #[test]
    fn breaker_opens_after_threshold_and_cools_down() {
        let policy = BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        };
        let mut b = Breaker::new(policy);
        assert_eq!(b.state, BreakerState::Closed);
        b.consecutive_failures = 1;
        assert!(b.consecutive_failures < policy.failure_threshold);
        b.state = BreakerState::Open;
        b.opened_at = Some(Instant::now());
        let remaining = b.cooldown_remaining(Instant::now());
        assert!(remaining <= Duration::from_millis(50));
        let later = Instant::now() + Duration::from_millis(60);
        assert_eq!(b.cooldown_remaining(later), Duration::ZERO);
    }

    #[test]
    fn breaker_gauge_values_are_ordered() {
        assert!(BreakerState::Closed.gauge() < BreakerState::HalfOpen.gauge());
        assert!(BreakerState::HalfOpen.gauge() < BreakerState::Open.gauge());
    }

    #[test]
    fn client_errors_format_usefully() {
        let t = ClientError::Terminal {
            rejected: true,
            code: ErrorCode::Invalid,
            message: "bad theta".into(),
        };
        assert!(t.to_string().contains("bad theta"));
        let e = ClientError::Exhausted {
            attempts: 5,
            last_error: "read: reset".into(),
        };
        assert!(e.to_string().contains("5 attempts"));
        assert!(e.to_string().contains("reset"));
    }

    #[test]
    fn entropy_seeds_differ_per_client() {
        // The process-wide sequence counter alone must separate clients
        // created in the same nanosecond of the same process.
        let seeds: Vec<u64> = (0..64).map(|_| entropy_seed()).collect();
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "entropy seeds collided");
    }

    #[test]
    fn minted_keys_are_nonzero_and_unique() {
        let mut state = 0u64; // worst-case start: zero state
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let key = loop {
                let k = splitmix_next(&mut state);
                if k != 0 {
                    break k;
                }
            };
            assert!(seen.insert(key), "duplicate idempotency key {key:#x}");
        }
    }

    #[test]
    fn keys_do_not_depend_on_the_jitter_seed() {
        // Two clients with identical configs (same jitter seed) must still
        // mint disjoint key streams — the regression this guards against
        // served one client the other's cached pixels.
        let mut a = entropy_seed();
        let mut b = entropy_seed();
        let stream_a: Vec<u64> = (0..32).map(|_| splitmix_next(&mut a)).collect();
        let stream_b: Vec<u64> = (0..32).map(|_| splitmix_next(&mut b)).collect();
        assert_ne!(stream_a, stream_b);
    }

    #[test]
    fn connecting_to_a_dead_port_fails_fast() {
        // Bind-then-drop guarantees a port with no listener.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let config = ResilientConfig {
            connect_timeout: Duration::from_millis(200),
            ..ResilientConfig::default()
        };
        let start = Instant::now();
        let result = ResilientClient::connect_with(dead, config);
        assert!(result.is_err());
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "connect must fail fast, took {:?}",
            start.elapsed()
        );
    }
}
