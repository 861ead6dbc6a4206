//! Framed localhost TCP front-end over `std::net`.
//!
//! [`TcpServer`] accepts connections on a listener thread and speaks the
//! [`wire`](crate::wire) protocol: each connection thread decodes request
//! frames, submits them through a shared [`ServiceHandle`], and writes one
//! response frame per request in request order. All threads poll a stop flag
//! (the listener via non-blocking accept, connections via read timeouts), so
//! [`TcpServer::shutdown`] converges without help from the peers.
//!
//! Two serving-side features make the front-end chaos-tolerant:
//!
//! - [`TcpServer::bind_with_chaos`] splices a deterministic
//!   [`ChaosInjector`](crate::chaos::ChaosInjector) into every accepted
//!   connection's byte stream, for fault-injection tests and soak runs;
//! - a bounded server-side **idempotency cache** keyed by the request's
//!   idempotency key: a retried solve that already committed returns the
//!   cached bit-identical result instead of recomputing, so a client whose
//!   response frame was lost (reset, partial write, scripted server panic)
//!   can safely retry.
//!
//! [`ServiceClient`] is the matching plain blocking client used by the
//! examples, the e2e tests, and external tooling;
//! [`ResilientClient`](crate::ResilientClient) layers retries, backoff, and
//! a circuit breaker on top of the same wire calls.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use chambolle_core::ChambolleParams;
use chambolle_imaging::Grid;
use chambolle_telemetry::names;
use chambolle_telemetry::trace::{entropy_seed, TraceContext};

use crate::chaos::{ChaosConfig, ChaosInjector, ChaosStream};
use crate::request::{Priority, ResponseTier};
use crate::service::{HealthSnapshot, ServiceHandle};
use crate::wire::{
    decode_request, decode_response, encode_denoise_request, encode_err_response,
    encode_health_request, encode_health_response, encode_metrics_request, encode_metrics_response,
    encode_ok_response, read_frame, reject_code, service_error_code, validate_frame_len,
    verify_frame_checksum, write_frame, ErrorCode, WireRequest, WireResponse, FRAME_HEADER,
    WIRE_VERSION,
};

/// How often blocked I/O wakes up to poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Default [`ServiceClient::connect`] timeout.
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Entries the per-server idempotency cache retains (FIFO eviction).
const IDEMPOTENCY_CAPACITY: usize = 256;

/// The byte stream a connection thread serves: a plain `TcpStream` or a
/// chaos-wrapped one. Only the socket knobs the serving loop needs.
trait Transport: Read + Write + Send {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    fn set_nodelay(&self, on: bool) -> io::Result<()>;
    fn shutdown_both(&self);
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn set_nodelay(&self, on: bool) -> io::Result<()> {
        TcpStream::set_nodelay(self, on)
    }

    fn shutdown_both(&self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

impl Transport for ChaosStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner().set_read_timeout(dur)
    }

    fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.inner().set_nodelay(on)
    }

    fn shutdown_both(&self) {
        let _ = self.inner().shutdown(Shutdown::Both);
    }
}

/// Bounded FIFO cache of committed solve results, keyed by idempotency key.
///
/// Shared across every connection of one server, so a retry arriving on a
/// *new* connection (the old one was reset) still finds the committed
/// result.
struct IdempotencyCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

struct CacheInner {
    map: HashMap<u64, (ResponseTier, Grid<f32>)>,
    order: VecDeque<u64>,
}

impl IdempotencyCache {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(IdempotencyCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
        })
    }

    fn get(&self, key: u64) -> Option<(ResponseTier, Grid<f32>)> {
        self.inner
            .lock()
            .expect("idempotency cache poisoned")
            .map
            .get(&key)
            .cloned()
    }

    fn insert(&self, key: u64, tier: ResponseTier, grid: Grid<f32>) {
        let mut inner = self.inner.lock().expect("idempotency cache poisoned");
        if inner.map.insert(key, (tier, grid)).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
        }
    }
}

/// The TCP front-end: a listener thread plus one thread per live connection.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    chaos: Option<Arc<ChaosInjector>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving requests against `handle`.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn bind<A: ToSocketAddrs>(handle: ServiceHandle, addr: A) -> io::Result<Self> {
        TcpServer::bind_inner(handle, addr, None)
    }

    /// Like [`TcpServer::bind`], but splices the deterministic fault
    /// schedule of `config` into every accepted connection. The injector is
    /// retrievable via [`TcpServer::chaos`] for event-log assertions.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn bind_with_chaos<A: ToSocketAddrs>(
        handle: ServiceHandle,
        addr: A,
        config: ChaosConfig,
    ) -> io::Result<Self> {
        let injector = ChaosInjector::new(config, handle.telemetry().clone());
        TcpServer::bind_inner(handle, addr, Some(injector))
    }

    fn bind_inner<A: ToSocketAddrs>(
        handle: ServiceHandle,
        addr: A,
        chaos: Option<Arc<ChaosInjector>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let chaos_accept = chaos.clone();
        let acceptor = std::thread::Builder::new()
            .name("chambolle-service-accept".into())
            .spawn(move || accept_loop(&listener, &handle, &stop_accept, chaos_accept))?;
        Ok(TcpServer {
            addr,
            stop,
            acceptor: Some(acceptor),
            chaos,
        })
    }

    /// The bound address (resolves the actual port of an ephemeral bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault injector, when the server was started with
    /// [`TcpServer::bind_with_chaos`].
    pub fn chaos(&self) -> Option<&Arc<ChaosInjector>> {
        self.chaos.as_ref()
    }

    /// Stops accepting, waits for in-flight connections to finish their
    /// current request/response exchanges, and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        if let Ok(connections) = acceptor.join() {
            for conn in connections {
                let _ = conn.join();
            }
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

fn accept_loop(
    listener: &TcpListener,
    handle: &ServiceHandle,
    stop: &Arc<AtomicBool>,
    chaos: Option<Arc<ChaosInjector>>,
) -> Vec<JoinHandle<()>> {
    let mut connections = Vec::new();
    let cache = IdempotencyCache::new(IDEMPOTENCY_CAPACITY);
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let stop = Arc::clone(stop);
                let cache = Arc::clone(&cache);
                let chaos = chaos.clone();
                if let Ok(join) = std::thread::Builder::new()
                    .name("chambolle-service-conn".into())
                    .spawn(move || match chaos {
                        Some(injector) => {
                            let wrapped = injector.wrap(stream);
                            serve_connection(wrapped, &handle, &stop, Some(&injector), &cache);
                        }
                        None => serve_connection(stream, &handle, &stop, None, &cache),
                    })
                {
                    connections.push(join);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reap finished connection threads while idle so a
                // long-running server doesn't accumulate one JoinHandle per
                // connection ever accepted.
                reap_finished(&mut connections);
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    connections
}

/// Joins (and drops) every connection handle whose thread has exited.
fn reap_finished(connections: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < connections.len() {
        if connections[i].is_finished() {
            let _ = connections.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn serve_connection<T: Transport>(
    mut stream: T,
    handle: &ServiceHandle,
    stop: &Arc<AtomicBool>,
    chaos: Option<&Arc<ChaosInjector>>,
    cache: &IdempotencyCache,
) {
    // Read with a timeout so the thread notices the stop flag even while a
    // peer sits idle mid-connection.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame_interruptible(&mut stream, stop) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF or shutdown
            Err(_) => return,
        };
        // Trace to finish (move into the ring) after the response write.
        let mut done_ctx = TraceContext::NONE;
        let response = match decode_request(&payload) {
            Ok(WireRequest::Health { id, trace }) => {
                encode_health_response(id, trace, &handle.health())
            }
            Ok(WireRequest::Metrics { id, trace }) => {
                let snapshot = handle.metrics_snapshot().to_string();
                encode_metrics_response(id, trace, &snapshot)
            }
            Ok(WireRequest::Solve {
                id,
                idempotency,
                trace,
                request,
            }) => {
                let started_us = handle.tracer().now_us();
                // Server-side root context: a fresh span id under the
                // propagated trace id, so queue/batch/solve spans parent
                // under this request's "server.request" root. A retry of
                // the same logical request reuses the trace id, so its
                // spans accumulate into the same trace.
                let server_ctx = handle.tracer().child(trace);
                if idempotency != 0 {
                    if let Some((tier, cached)) = cache.get(idempotency) {
                        handle
                            .telemetry()
                            .counter_add(names::SERVICE_IDEMPOTENT_HITS, 1);
                        record_server_spans(handle, server_ctx, trace.span_id, started_us, true);
                        let frame = encode_ok_response(WIRE_VERSION, id, trace, tier, &cached);
                        if write_frame(&mut stream, &frame).is_err() {
                            return;
                        }
                        finish_trace(handle, server_ctx);
                        continue;
                    }
                }
                // The scripted chaos panic is decided per *solve submission*
                // (cache hits above don't count), but fires only after the
                // solve commits — exactly the window idempotent retry exists
                // for.
                let crash_after_commit =
                    chaos.is_some_and(|injector| injector.solve_request_panics());
                let response = match handle.submit(request.with_trace(server_ctx)) {
                    Ok(ticket) => match ticket.wait() {
                        Ok(completed) => match completed.output.as_denoised() {
                            Some(grid) => {
                                if idempotency != 0 {
                                    cache.insert(idempotency, completed.tier, grid.clone());
                                }
                                encode_ok_response(WIRE_VERSION, id, trace, completed.tier, grid)
                            }
                            None => encode_err_response(
                                id,
                                trace,
                                false,
                                ErrorCode::Protocol,
                                "non-denoise output for a denoise request",
                            ),
                        },
                        Err(err) => encode_err_response(
                            id,
                            trace,
                            false,
                            service_error_code(&err),
                            &err.to_string(),
                        ),
                    },
                    Err(reason) => encode_err_response(
                        id,
                        trace,
                        true,
                        reject_code(&reason),
                        &reason.to_string(),
                    ),
                };
                record_server_spans(handle, server_ctx, trace.span_id, started_us, false);
                if crash_after_commit {
                    // Simulate the serving thread dying between commit and
                    // response: the panic is contained, the connection is
                    // severed, and no response frame goes out. The client's
                    // retry hits the idempotency cache. The trace is left
                    // open on purpose — the retry finishes it, so one trace
                    // ends up covering both attempts.
                    let _ = catch_unwind(|| {
                        panic!("chaos: scripted server panic before response write")
                    });
                    stream.shutdown_both();
                    return;
                }
                done_ctx = server_ctx;
                response
            }
            Err(decode_err) => encode_err_response(
                0,
                TraceContext::NONE,
                true,
                ErrorCode::Protocol,
                &decode_err.to_string(),
            ),
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
        finish_trace(handle, done_ctx);
    }
}

/// Records the server-side root span of one wire request (plus, for an
/// idempotent cache hit, the nested `replay` span). The root parents at 0
/// so every server trace is a complete tree on its own; the client's wire
/// span id rides along as an attribute for cross-view joins.
fn record_server_spans(
    handle: &ServiceHandle,
    server_ctx: TraceContext,
    client_span_id: u64,
    started_us: u64,
    replay: bool,
) {
    if !server_ctx.is_active() {
        return;
    }
    let tracer = handle.tracer();
    let span_us = started_us..tracer.now_us();
    if replay {
        tracer.record(server_ctx, None, "replay", span_us.clone(), Vec::new());
    }
    let attrs = vec![
        (
            "client_span_id".into(),
            format!("{client_span_id:016x}").into(),
        ),
        ("replay".into(), replay.into()),
    ];
    let root = Some(server_ctx.span_id);
    tracer.record(server_ctx, root, "server.request", span_us, attrs);
    handle
        .telemetry()
        .counter_add(names::SERVICE_TRACE_SPANS, if replay { 2 } else { 1 });
}

/// Moves a finished request's spans into the tracer ring.
fn finish_trace(handle: &ServiceHandle, ctx: TraceContext) {
    if ctx.is_active() && handle.tracer().is_enabled() {
        handle.tracer().finish(ctx.trace_id);
        handle
            .telemetry()
            .counter_add(names::SERVICE_TRACE_FINISHED, 1);
    }
}

/// Like [`read_frame`], but read timeouts loop back to a stop-flag check
/// instead of failing, so a blocked read converges during shutdown — even a
/// read stalled *mid-frame* (a peer that sent a partial header or partial
/// payload then went silent must not pin the connection thread forever;
/// `TcpServer::shutdown` joins every one of them). Only requests that were
/// fully read — and therefore accepted — are protected through to their
/// response write; an unfinished frame is abandoned.
/// `Ok(None)` means clean EOF or shutdown-before-a-frame-started.
fn read_frame_interruptible<T: Transport>(
    stream: &mut T,
    stop: &Arc<AtomicBool>,
) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    if !read_exact_interruptible(stream, &mut header, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(header[4..].try_into().unwrap());
    validate_frame_len(len)?;
    let mut payload = vec![0u8; len];
    if !read_exact_interruptible(stream, &mut payload, stop)? {
        // EOF or shutdown mid-frame: nothing was accepted, drop the
        // connection.
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    verify_frame_checksum(&payload, checksum)?;
    Ok(Some(payload))
}

/// Fills `buf`, retrying across read timeouts. Returns `Ok(false)` on clean
/// EOF before any byte, or whenever the stop flag rises while the read is
/// stalled (including mid-buffer — shutdown must not wait on a silent peer).
fn read_exact_interruptible<T: Transport>(
    stream: &mut T,
    buf: &mut [u8],
    stop: &Arc<AtomicBool>,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Blocking client for the framed protocol.
///
/// One request in flight at a time, responses read in order. Connection
/// establishment is bounded by a connect timeout
/// ([`DEFAULT_CONNECT_TIMEOUT`] unless overridden) so a black-holed address
/// fails fast instead of hanging the caller.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    next_id: u64,
    tracing: bool,
    trace_state: u64,
    last_trace: TraceContext,
}

impl ServiceClient {
    /// Connects to a [`TcpServer`] with the default connect timeout.
    ///
    /// # Errors
    ///
    /// Connection I/O errors, including `TimedOut` when no resolved address
    /// accepts within [`DEFAULT_CONNECT_TIMEOUT`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        ServiceClient::connect_with_timeout(addr, DEFAULT_CONNECT_TIMEOUT)
    }

    /// Connects with an explicit connect timeout, tried against each
    /// resolved address in turn.
    ///
    /// # Errors
    ///
    /// The last address's error when none accepts in time, or an
    /// `InvalidInput` error when `addr` resolves to nothing.
    pub fn connect_with_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Self> {
        let stream = connect_stream(addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(ServiceClient {
            stream,
            next_id: 1,
            tracing: true,
            trace_state: entropy_seed(),
            last_trace: TraceContext::NONE,
        })
    }

    /// Enables or disables per-request trace minting (on by default).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// The trace context minted for the most recent request
    /// ([`TraceContext::NONE`] when tracing was off for it).
    pub fn last_trace(&self) -> TraceContext {
        self.last_trace
    }

    /// Takes the next request id and mints (or withholds) its trace
    /// context.
    fn next_request(&mut self) -> (u64, TraceContext) {
        let id = self.next_id;
        self.next_id += 1;
        self.last_trace = if self.tracing {
            TraceContext::mint(&mut self.trace_state)
        } else {
            TraceContext::NONE
        };
        (id, self.last_trace)
    }

    /// Sets a read/write timeout on the underlying stream (`None` blocks
    /// forever).
    ///
    /// # Errors
    ///
    /// Socket option errors.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// One blocking denoise round-trip (no idempotency key).
    ///
    /// # Errors
    ///
    /// Transport errors as `io::Error`; service-level rejections/failures
    /// come back as the `WireResponse::Err` variant.
    pub fn denoise(
        &mut self,
        input: &Grid<f32>,
        params: &ChambolleParams,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> io::Result<WireResponse> {
        self.denoise_idempotent(input, params, priority, deadline, 0)
    }

    /// One blocking denoise round-trip carrying an idempotency key
    /// (`0` = none). Retrying with the same nonzero key is safe: a solve
    /// that already committed server-side returns its cached bit-identical
    /// result.
    ///
    /// # Errors
    ///
    /// Transport errors as `io::Error`; service-level rejections/failures
    /// come back as the `WireResponse::Err` variant.
    pub fn denoise_idempotent(
        &mut self,
        input: &Grid<f32>,
        params: &ChambolleParams,
        priority: Priority,
        deadline: Option<Duration>,
        idempotency: u64,
    ) -> io::Result<WireResponse> {
        let (id, trace) = self.next_request();
        let payload = encode_denoise_request(
            WIRE_VERSION,
            id,
            idempotency,
            trace,
            priority,
            deadline,
            params,
            input,
        );
        round_trip(&mut self.stream, &payload)
    }

    /// One blocking health-probe round-trip.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the server answers with
    /// anything but a health report.
    pub fn health(&mut self) -> io::Result<HealthSnapshot> {
        let (id, trace) = self.next_request();
        match round_trip(&mut self.stream, &encode_health_request(id, trace))? {
            WireResponse::Health { health, .. } => Ok(health),
            other => Err(unexpected("a health report", &other)),
        }
    }

    /// One blocking metrics-snapshot round-trip: the raw snapshot JSON
    /// document (schema [`crate::METRICS_SNAPSHOT_SCHEMA`]).
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the server answers with
    /// anything but a metrics snapshot.
    pub fn metrics(&mut self) -> io::Result<String> {
        let (id, trace) = self.next_request();
        match round_trip(&mut self.stream, &encode_metrics_request(id, trace))? {
            WireResponse::Metrics { snapshot, .. } => Ok(snapshot),
            other => Err(unexpected("a metrics snapshot", &other)),
        }
    }
}

/// Writes one request frame, then reads and decodes the response frame.
pub(crate) fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> io::Result<WireResponse> {
    write_frame(stream, payload)?;
    let response =
        read_frame(stream)?.ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
    decode_response(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The `InvalidData` error for a response of the wrong kind.
pub(crate) fn unexpected(wanted: &str, got: &WireResponse) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {wanted}, got {got:?}"),
    )
}

/// Resolves `addr` and tries `TcpStream::connect_timeout` against each
/// candidate.
pub(crate) fn connect_stream<A: ToSocketAddrs>(
    addr: A,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let mut last_err = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}
