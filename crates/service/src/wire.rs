//! Hand-rolled framed binary protocol of the TCP front-end.
//!
//! Every message is one frame: a `u32` little-endian payload length, a
//! `u64` little-endian FNV-1a checksum of the payload, then the payload
//! bytes. Frames larger than [`MAX_FRAME`] or empty are rejected before
//! allocation, so a corrupt or hostile length prefix cannot OOM the server,
//! and the checksum turns *any* in-flight byte corruption into a structured
//! transport error instead of silently wrong pixels — which is what lets
//! [`ResilientClient`](crate::ResilientClient) treat corruption as a
//! retryable fault while still guaranteeing bit-identical results.
//!
//! Every payload starts with the same 35-byte header:
//!
//! ```text
//! offset  size  field
//! 0       1     protocol version  (always 3)
//! 1       1     request kind or response status (below)
//! 2       8     client request id (u64 LE, echoed back verbatim)
//! 10      16    trace id          (u128 LE, 0 = tracing disabled)
//! 26      8     span id           (u64 LE, caller's span)
//! 34      1     trace flags       (bit 0 = sampled)
//! ```
//!
//! Request kinds (1 = denoise solve, 2 = health probe, 3 = metrics
//! snapshot) and their bodies:
//!
//! ```text
//! --- kind 1 (denoise) ---
//! 35      8     idempotency key   (u64 LE, 0 = none; nonzero keys dedupe
//!                                  retries against the server-side cache)
//! 43      1     priority          (0 interactive, 1 batch)
//! 44      4     deadline_ms       (u32 LE, 0 = no deadline; a set
//!                                  deadline encodes as at least 1)
//! 48      4     theta             (f32 LE)
//! 52      4     tau               (f32 LE)
//! 56      4     iterations        (u32 LE)
//! 60      4     width             (u32 LE)
//! 64      4     height            (u32 LE)
//! 68      4*w*h pixels            (f32 LE, row-major)
//! --- kind 2 (health) / kind 3 (metrics) --- no further fields
//! ```
//!
//! Response statuses (0 ok, 1 rejected, 2 failed, 3 health report,
//! 4 metrics snapshot) and their bodies:
//!
//! ```text
//! -- status 0 --
//! 35      1     fidelity tier     (0 full, 1 degraded/brownout)
//! 36      4     width; then 4 height; then 4*w*h f32 LE pixels
//! -- status 1 or 2 --
//! 35      1     error code        (see ErrorCode)
//! 36      2     message length    (u16 LE)
//! 38      n     UTF-8 message
//! -- status 3 --
//! 35      1     accepting         (0/1)
//! 36      1     dispatcher_live   (0/1)
//! 37      1     brownout_active   (0/1)
//! 38      4     queue_depth       (u32 LE)
//! 42      4     queue_capacity    (u32 LE)
//! 46      8     in_flight         (u64 LE)
//! 54      8     completed         (u64 LE)
//! 62      8     last_solve_age_ms (u64 LE, u64::MAX = no solve yet)
//! -- status 4 --
//! 35      rest  UTF-8 JSON        (schema `chambolle.metrics_snapshot.v1`)
//! ```
//!
//! Both decoders reject any other version byte with
//! [`DecodeError::UnsupportedVersion`].

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use chambolle_core::ChambolleParams;
use chambolle_imaging::Grid;
use chambolle_telemetry::trace::TraceContext;

use crate::request::{Priority, RejectReason, Request, ResponseTier, ServiceError, Workload};
use crate::service::HealthSnapshot;

/// The protocol version every payload carries.
pub const WIRE_VERSION: u8 = 3;

/// Hard ceiling on a frame's payload size (64 MiB) — large enough for a
/// 4096×4096 f32 image, small enough to bound a bad prefix's damage.
pub const MAX_FRAME: usize = 1 << 26;

/// Bytes of frame header preceding every payload: `u32` length plus `u64`
/// FNV-1a payload checksum.
pub const FRAME_HEADER: usize = 12;

/// Bytes of the header every payload starts with.
const PAYLOAD_HEADER: usize = 35;

const KIND_DENOISE: u8 = 1;
const KIND_HEALTH: u8 = 2;
const KIND_METRICS: u8 = 3;
const STATUS_OK: u8 = 0;
const STATUS_REJECTED: u8 = 1;
const STATUS_FAILED: u8 = 2;
const STATUS_HEALTH: u8 = 3;
const STATUS_METRICS: u8 = 4;
const TIER_FULL: u8 = 0;
const TIER_DEGRADED: u8 = 1;
const FLAG_SAMPLED: u8 = 1;

/// Starts a payload with its header, reserving room for `body` more bytes.
fn header(kind_or_status: u8, id: u64, trace: TraceContext, body: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAYLOAD_HEADER + body);
    buf.push(WIRE_VERSION);
    buf.push(kind_or_status);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&trace.trace_id.to_le_bytes());
    buf.extend_from_slice(&trace.span_id.to_le_bytes());
    buf.push(if trace.sampled { FLAG_SAMPLED } else { 0 });
    buf
}

/// Appends width, height and the row-major pixels of `grid`.
fn put_grid(buf: &mut Vec<u8>, grid: &Grid<f32>) {
    let (w, h) = grid.dims();
    buf.extend_from_slice(&(w as u32).to_le_bytes());
    buf.extend_from_slice(&(h as u32).to_le_bytes());
    let start = buf.len();
    buf.resize(start + 4 * grid.as_slice().len(), 0);
    for (bytes, px) in buf[start..].chunks_exact_mut(4).zip(grid.as_slice()) {
        bytes.copy_from_slice(&px.to_le_bytes());
    }
}

/// FNV-1a over a byte slice — the frame integrity checksum.
///
/// Not cryptographic: it detects the chaos injector's (and real networks')
/// bit flips, not an adversary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stable numeric codes for rejected/failed responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Queue at capacity.
    QueueFull = 1,
    /// Service draining.
    ShuttingDown = 2,
    /// Workload failed validation.
    Invalid = 3,
    /// Deadline passed before the solve finished.
    DeadlineExceeded = 4,
    /// Request cancelled.
    Cancelled = 5,
    /// Solver failure.
    Solver = 6,
    /// Malformed frame or protocol mismatch.
    Protocol = 7,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::QueueFull),
            2 => Some(ErrorCode::ShuttingDown),
            3 => Some(ErrorCode::Invalid),
            4 => Some(ErrorCode::DeadlineExceeded),
            5 => Some(ErrorCode::Cancelled),
            6 => Some(ErrorCode::Solver),
            7 => Some(ErrorCode::Protocol),
            _ => None,
        }
    }
}

/// Structured decode failure: every way a payload can be malformed, as a
/// typed variant instead of a panic or an unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload had no bytes at all.
    Empty,
    /// The version byte named a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// Unknown request frame kind.
    UnknownKind(u8),
    /// Unknown response status byte.
    UnknownStatus(u8),
    /// Unknown priority discriminant.
    UnknownPriority(u8),
    /// Unknown error-code discriminant.
    UnknownErrorCode(u8),
    /// Unknown fidelity-tier discriminant.
    UnknownTier(u8),
    /// The payload ended before a field finished.
    Truncated {
        /// Bytes the next field needed.
        wanted: usize,
        /// Bytes actually left.
        remaining: usize,
    },
    /// Declared dimensions overflow or exceed any representable frame.
    OversizedDimensions {
        /// Declared width.
        width: usize,
        /// Declared height.
        height: usize,
    },
    /// The pixel block does not match the declared dimensions.
    PixelCountMismatch {
        /// Bytes the dimensions imply.
        expected: usize,
        /// Bytes present.
        got: usize,
    },
    /// Bytes remained after a complete message (corrupt length field).
    TrailingBytes {
        /// Leftover byte count.
        count: usize,
    },
    /// The decoded grid failed construction (zero dimension, etc.).
    BadGrid(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty payload"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::UnknownStatus(s) => write!(f, "unknown response status {s}"),
            DecodeError::UnknownPriority(p) => write!(f, "unknown priority {p}"),
            DecodeError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            DecodeError::UnknownTier(t) => write!(f, "unknown fidelity tier {t}"),
            DecodeError::Truncated { wanted, remaining } => {
                write!(
                    f,
                    "payload truncated: wanted {wanted} bytes, {remaining} left"
                )
            }
            DecodeError::OversizedDimensions { width, height } => {
                write!(
                    f,
                    "dimensions {width}x{height} exceed any representable frame"
                )
            }
            DecodeError::PixelCountMismatch { expected, got } => {
                write!(f, "pixel payload is {got} bytes, expected {expected}")
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} bytes left over after a complete message")
            }
            DecodeError::BadGrid(e) => write!(f, "grid rejected: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded wire request.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// A denoise solve.
    Solve {
        /// Client-chosen id, echoed back in the response.
        id: u64,
        /// Idempotency key (0 = none): retries carrying the same nonzero
        /// key return the server's cached result instead of recomputing.
        idempotency: u64,
        /// Propagated trace context.
        trace: TraceContext,
        /// The service request it maps to.
        request: Request,
    },
    /// A health/readiness probe.
    Health {
        /// Client-chosen id, echoed back in the response.
        id: u64,
        /// Propagated trace context.
        trace: TraceContext,
    },
    /// A live-metrics snapshot scrape.
    Metrics {
        /// Client-chosen id, echoed back in the response.
        id: u64,
        /// Propagated trace context.
        trace: TraceContext,
    },
}

impl WireRequest {
    /// The client-chosen id of any kind.
    pub fn id(&self) -> u64 {
        match self {
            WireRequest::Solve { id, .. }
            | WireRequest::Health { id, .. }
            | WireRequest::Metrics { id, .. } => *id,
        }
    }

    /// The propagated trace context of any kind.
    pub fn trace(&self) -> TraceContext {
        match self {
            WireRequest::Solve { trace, .. }
            | WireRequest::Health { trace, .. }
            | WireRequest::Metrics { trace, .. } => *trace,
        }
    }
}

/// A decoded wire response.
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// Successful solve.
    Ok {
        /// Echoed client id.
        id: u64,
        /// Echoed trace context.
        trace: TraceContext,
        /// Fidelity tier the service answered at.
        tier: ResponseTier,
        /// The denoised image.
        output: Grid<f32>,
    },
    /// Admission rejection or solve failure.
    Err {
        /// Echoed client id.
        id: u64,
        /// Echoed trace context.
        trace: TraceContext,
        /// `true` if rejected at admission (never solved).
        rejected: bool,
        /// Stable error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Health probe report.
    Health {
        /// Echoed client id.
        id: u64,
        /// Echoed trace context.
        trace: TraceContext,
        /// The service's point-in-time health snapshot.
        health: HealthSnapshot,
    },
    /// Live-metrics snapshot.
    Metrics {
        /// Echoed client id.
        id: u64,
        /// Echoed trace context.
        trace: TraceContext,
        /// Schema-stable snapshot document
        /// (`chambolle.metrics_snapshot.v1`) as UTF-8 JSON text.
        snapshot: String,
    },
}

impl WireResponse {
    /// The echoed trace context of any status.
    pub fn trace(&self) -> TraceContext {
        match self {
            WireResponse::Ok { trace, .. }
            | WireResponse::Err { trace, .. }
            | WireResponse::Health { trace, .. }
            | WireResponse::Metrics { trace, .. } => *trace,
        }
    }
}

/// Writes one length-prefixed, checksummed frame.
///
/// # Errors
///
/// I/O errors from `w`; `InvalidInput` if the payload is empty or exceeds
/// [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "zero-length frames are not part of the protocol",
        ));
    }
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&fnv1a64(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame and verifies its checksum. Returns
/// `Ok(None)` on clean EOF at a frame boundary (no byte of a next frame).
///
/// # Errors
///
/// I/O errors from `r`; `InvalidData` if the prefix is zero, exceeds
/// [`MAX_FRAME`], or the payload fails its checksum; `UnexpectedEof` if the
/// stream ends mid-frame, frame header included.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = Vec::with_capacity(FRAME_HEADER);
    match r
        .by_ref()
        .take(FRAME_HEADER as u64)
        .read_to_end(&mut header)?
    {
        0 => return Ok(None),
        FRAME_HEADER => {}
        _ => return Err(io::ErrorKind::UnexpectedEof.into()),
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(header[4..].try_into().unwrap());
    validate_frame_len(len)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    verify_frame_checksum(&payload, checksum)?;
    Ok(Some(payload))
}

/// Rejects a frame length of zero or beyond [`MAX_FRAME`] before any
/// allocation happens.
///
/// # Errors
///
/// `InvalidData` describing the bad prefix.
pub fn validate_frame_len(len: usize) -> io::Result<()> {
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame",
        ));
    }
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    Ok(())
}

/// Verifies a payload against the checksum its frame header declared.
///
/// # Errors
///
/// `InvalidData` on mismatch (in-flight corruption).
pub fn verify_frame_checksum(payload: &[u8], declared: u64) -> io::Result<()> {
    let actual = fnv1a64(payload);
    if actual != declared {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: header {declared:#018x}, payload {actual:#018x}"),
        ));
    }
    Ok(())
}

/// Encodes a denoise request payload. `idempotency` of 0 means "no key";
/// a set `deadline` encodes as at least 1 ms, because 0 means none.
///
/// `_version` is ignored: every payload is [`WIRE_VERSION`]. It stays in
/// the signature only because the `benchmark/` harness passes
/// `WIRE_VERSION` here.
#[allow(clippy::too_many_arguments)]
pub fn encode_denoise_request(
    _version: u8,
    id: u64,
    idempotency: u64,
    trace: TraceContext,
    priority: Priority,
    deadline: Option<Duration>,
    params: &ChambolleParams,
    input: &Grid<f32>,
) -> Vec<u8> {
    let mut buf = header(KIND_DENOISE, id, trace, 33 + 4 * input.as_slice().len());
    buf.extend_from_slice(&idempotency.to_le_bytes());
    buf.push(match priority {
        Priority::Interactive => 0,
        Priority::Batch => 1,
    });
    let deadline_ms = deadline.map_or(0, |d| d.as_millis().clamp(1, u128::from(u32::MAX)) as u32);
    buf.extend_from_slice(&deadline_ms.to_le_bytes());
    buf.extend_from_slice(&params.theta.to_le_bytes());
    buf.extend_from_slice(&params.tau.to_le_bytes());
    buf.extend_from_slice(&params.iterations.to_le_bytes());
    put_grid(&mut buf, input);
    buf
}

/// Encodes a health-probe request payload.
pub fn encode_health_request(id: u64, trace: TraceContext) -> Vec<u8> {
    header(KIND_HEALTH, id, trace, 0)
}

/// Encodes a metrics-snapshot scrape request.
pub fn encode_metrics_request(id: u64, trace: TraceContext) -> Vec<u8> {
    header(KIND_METRICS, id, trace, 0)
}

/// Decodes a request payload.
///
/// # Errors
///
/// A structured [`DecodeError`] (version mismatch, unknown kind, truncated
/// or oversized payload, dimension/pixel-count mismatch, trailing bytes).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, DecodeError> {
    let mut c = Cursor::new(payload);
    let (kind, id, trace) = c.header()?;
    match kind {
        KIND_HEALTH => {
            c.finish()?;
            Ok(WireRequest::Health { id, trace })
        }
        KIND_METRICS => {
            c.finish()?;
            Ok(WireRequest::Metrics { id, trace })
        }
        KIND_DENOISE => {
            let idempotency = c.u64()?;
            let priority = match c.u8()? {
                0 => Priority::Interactive,
                1 => Priority::Batch,
                p => return Err(DecodeError::UnknownPriority(p)),
            };
            let deadline_ms = c.u32()?;
            let params = ChambolleParams {
                theta: c.f32()?,
                tau: c.f32()?,
                iterations: c.u32()?,
            };
            let input = c.grid()?;
            let mut request = Request::new(Workload::Denoise { input, params })
                .with_priority(priority)
                .with_trace(trace);
            if deadline_ms > 0 {
                request = request.with_deadline(Duration::from_millis(u64::from(deadline_ms)));
            }
            Ok(WireRequest::Solve {
                id,
                idempotency,
                trace,
                request,
            })
        }
        k => Err(DecodeError::UnknownKind(k)),
    }
}

/// Encodes a successful response at the given fidelity tier.
///
/// `_version` is ignored, as in [`encode_denoise_request`], and stays for
/// the same reason.
pub fn encode_ok_response(
    _version: u8,
    id: u64,
    trace: TraceContext,
    tier: ResponseTier,
    output: &Grid<f32>,
) -> Vec<u8> {
    let mut buf = header(STATUS_OK, id, trace, 9 + 4 * output.as_slice().len());
    buf.push(match tier {
        ResponseTier::Full => TIER_FULL,
        ResponseTier::Degraded => TIER_DEGRADED,
    });
    put_grid(&mut buf, output);
    buf
}

/// Encodes an error response; the message is cut to `u16::MAX` bytes.
pub fn encode_err_response(
    id: u64,
    trace: TraceContext,
    rejected: bool,
    code: ErrorCode,
    message: &str,
) -> Vec<u8> {
    let msg = message.as_bytes();
    let msg = &msg[..msg.len().min(usize::from(u16::MAX))];
    let status = if rejected {
        STATUS_REJECTED
    } else {
        STATUS_FAILED
    };
    let mut buf = header(status, id, trace, 3 + msg.len());
    buf.push(code as u8);
    buf.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    buf.extend_from_slice(msg);
    buf
}

/// Encodes a health report response.
pub fn encode_health_response(id: u64, trace: TraceContext, health: &HealthSnapshot) -> Vec<u8> {
    let mut buf = header(STATUS_HEALTH, id, trace, 35);
    buf.push(u8::from(health.accepting));
    buf.push(u8::from(health.dispatcher_live));
    buf.push(u8::from(health.brownout));
    buf.extend_from_slice(&(health.queue_depth.min(u32::MAX as usize) as u32).to_le_bytes());
    buf.extend_from_slice(&(health.queue_capacity.min(u32::MAX as usize) as u32).to_le_bytes());
    buf.extend_from_slice(&health.in_flight.to_le_bytes());
    buf.extend_from_slice(&health.completed.to_le_bytes());
    let age_ms = health.last_solve_age.map_or(u64::MAX, |d| {
        d.as_millis().min(u128::from(u64::MAX - 1)) as u64
    });
    buf.extend_from_slice(&age_ms.to_le_bytes());
    buf
}

/// Encodes a metrics-snapshot response: the rest of the payload is the
/// snapshot document as UTF-8 JSON.
pub fn encode_metrics_response(id: u64, trace: TraceContext, snapshot: &str) -> Vec<u8> {
    let mut buf = header(STATUS_METRICS, id, trace, snapshot.len());
    buf.extend_from_slice(snapshot.as_bytes());
    buf
}

/// The wire error code + flag for a [`RejectReason`].
pub fn reject_code(reason: &RejectReason) -> ErrorCode {
    match reason {
        RejectReason::QueueFull { .. } => ErrorCode::QueueFull,
        RejectReason::ShuttingDown => ErrorCode::ShuttingDown,
        RejectReason::Invalid(_) => ErrorCode::Invalid,
    }
}

/// The wire error code for a [`ServiceError`].
pub fn service_error_code(err: &ServiceError) -> ErrorCode {
    match err {
        ServiceError::Cancelled => ErrorCode::Cancelled,
        ServiceError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        ServiceError::Solver(_) | ServiceError::Disconnected => ErrorCode::Solver,
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// A structured [`DecodeError`] on any malformed field; pixel payloads are
/// validated against the declared dimensions **before** any allocation.
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, DecodeError> {
    let mut c = Cursor::new(payload);
    let (status, id, trace) = c.header()?;
    match status {
        STATUS_OK => {
            let tier = match c.u8()? {
                TIER_FULL => ResponseTier::Full,
                TIER_DEGRADED => ResponseTier::Degraded,
                t => return Err(DecodeError::UnknownTier(t)),
            };
            let output = c.grid()?;
            Ok(WireResponse::Ok {
                id,
                trace,
                tier,
                output,
            })
        }
        STATUS_REJECTED | STATUS_FAILED => {
            let raw = c.u8()?;
            let code = ErrorCode::from_u8(raw).ok_or(DecodeError::UnknownErrorCode(raw))?;
            let msg_len = usize::from(c.u16()?);
            let bytes = c.bytes(msg_len)?;
            let message = String::from_utf8_lossy(bytes).into_owned();
            c.finish()?;
            Ok(WireResponse::Err {
                id,
                trace,
                rejected: status == STATUS_REJECTED,
                code,
                message,
            })
        }
        STATUS_METRICS => {
            let bytes = c.bytes(c.remaining())?;
            let snapshot = String::from_utf8_lossy(bytes).into_owned();
            Ok(WireResponse::Metrics {
                id,
                trace,
                snapshot,
            })
        }
        STATUS_HEALTH => {
            let accepting = c.u8()? != 0;
            let dispatcher_live = c.u8()? != 0;
            let brownout = c.u8()? != 0;
            let queue_depth = c.u32()? as usize;
            let queue_capacity = c.u32()? as usize;
            let in_flight = c.u64()?;
            let completed = c.u64()?;
            let age_ms = c.u64()?;
            c.finish()?;
            Ok(WireResponse::Health {
                id,
                trace,
                health: HealthSnapshot {
                    accepting,
                    dispatcher_live,
                    brownout,
                    queue_depth,
                    queue_capacity,
                    in_flight,
                    completed,
                    last_solve_age: (age_ms != u64::MAX).then(|| Duration::from_millis(age_ms)),
                },
            })
        }
        s => Err(DecodeError::UnknownStatus(s)),
    }
}

/// Minimal bounds-checked reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads the payload header: `(kind or status, id, trace)`. The version
    /// is checked before anything else is read.
    fn header(&mut self) -> Result<(u8, u64, TraceContext), DecodeError> {
        if self.buf.is_empty() {
            return Err(DecodeError::Empty);
        }
        let version = self.u8()?;
        if version != WIRE_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let kind_or_status = self.u8()?;
        let id = self.u64()?;
        let trace = TraceContext {
            trace_id: u128::from_le_bytes(self.bytes(16)?.try_into().unwrap()),
            span_id: self.u64()?,
            sampled: self.u8()? & FLAG_SAMPLED != 0,
        };
        Ok((kind_or_status, id, trace))
    }

    /// Reads width, height and the row-major pixels that fill the rest of
    /// the payload. The dimensions are bounded against [`MAX_FRAME`] before
    /// anything sized by them is allocated.
    fn grid(&mut self) -> Result<Grid<f32>, DecodeError> {
        let width = self.u32()? as usize;
        let height = self.u32()? as usize;
        let expected = width
            .checked_mul(height)
            .and_then(|n| n.checked_mul(4))
            .filter(|&n| n <= MAX_FRAME)
            .ok_or(DecodeError::OversizedDimensions { width, height })?;
        if self.remaining() != expected {
            return Err(DecodeError::PixelCountMismatch {
                expected,
                got: self.remaining(),
            });
        }
        let pixels = self
            .bytes(expected)?
            .chunks_exact(4)
            .map(|px| f32::from_le_bytes(px.try_into().unwrap()))
            .collect();
        Grid::from_vec(width, height, pixels).map_err(|e| DecodeError::BadGrid(e.to_string()))
    }

    /// Asserts the payload is fully consumed.
    fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceContext {
        TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D_0123_4567_89AB_CDEF,
            span_id: 0x5EED_1234_5678_9ABC,
            sampled: true,
        }
    }

    #[test]
    fn request_round_trips_bit_exact() {
        let input = Grid::from_fn(5, 3, |x, y| (x * 31 + y * 7) as f32 / 13.0);
        let params = ChambolleParams {
            theta: 0.25,
            tau: 0.248,
            iterations: 42,
        };
        let payload = encode_denoise_request(
            WIRE_VERSION,
            7,
            99,
            sample_trace(),
            Priority::Interactive,
            Some(Duration::from_millis(1500)),
            &params,
            &input,
        );
        match decode_request(&payload).unwrap() {
            WireRequest::Solve {
                id,
                idempotency,
                trace,
                request,
            } => {
                assert_eq!(id, 7);
                assert_eq!(idempotency, 99);
                assert_eq!(trace, sample_trace());
                assert_eq!(request.trace, sample_trace());
                assert_eq!(request.priority, Priority::Interactive);
                assert_eq!(request.deadline, Some(Duration::from_millis(1500)));
                match &request.workload {
                    Workload::Denoise {
                        input: got,
                        params: p,
                    } => {
                        assert_eq!(got.as_slice(), input.as_slice());
                        assert_eq!(p.theta.to_bits(), params.theta.to_bits());
                        assert_eq!(p.tau.to_bits(), params.tau.to_bits());
                        assert_eq!(p.iterations, params.iterations);
                    }
                    other => panic!("wrong workload: {other:?}"),
                }
            }
            other => panic!("expected a solve request: {other:?}"),
        }
    }

    #[test]
    fn health_frames_round_trip() {
        match decode_request(&encode_health_request(13, sample_trace())).unwrap() {
            WireRequest::Health { id, trace } => {
                assert_eq!(id, 13);
                assert_eq!(trace, sample_trace());
            }
            other => panic!("expected a health probe: {other:?}"),
        }
        let snap = HealthSnapshot {
            accepting: true,
            dispatcher_live: true,
            brownout: false,
            queue_depth: 3,
            queue_capacity: 64,
            in_flight: 5,
            completed: 1000,
            last_solve_age: Some(Duration::from_millis(40)),
        };
        let enc = encode_health_response(13, sample_trace(), &snap);
        match decode_response(&enc).unwrap() {
            WireResponse::Health { id, trace, health } => {
                assert_eq!(id, 13);
                assert_eq!(trace, sample_trace());
                assert_eq!(health, snap);
            }
            other => panic!("expected health: {other:?}"),
        }
        // "Never solved" survives the trip as None.
        let fresh = HealthSnapshot {
            last_solve_age: None,
            ..snap
        };
        let enc = encode_health_response(1, TraceContext::NONE, &fresh);
        match decode_response(&enc).unwrap() {
            WireResponse::Health { health, .. } => assert_eq!(health.last_solve_age, None),
            other => panic!("expected health: {other:?}"),
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        match decode_request(&encode_metrics_request(31, sample_trace())).unwrap() {
            WireRequest::Metrics { id, trace } => {
                assert_eq!(id, 31);
                assert_eq!(trace, sample_trace());
            }
            other => panic!("expected a metrics scrape: {other:?}"),
        }
        let doc = r#"{"schema":"chambolle.metrics_snapshot.v1","uptime_us":5}"#;
        match decode_response(&encode_metrics_response(31, sample_trace(), doc)).unwrap() {
            WireResponse::Metrics {
                id,
                trace,
                snapshot,
            } => {
                assert_eq!(id, 31);
                assert_eq!(trace, sample_trace());
                assert_eq!(snapshot, doc);
            }
            other => panic!("expected metrics: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let grid = Grid::from_fn(3, 2, |x, y| (x + 10 * y) as f32);
        let ok = encode_ok_response(
            WIRE_VERSION,
            9,
            sample_trace(),
            ResponseTier::Degraded,
            &grid,
        );
        match decode_response(&ok).unwrap() {
            WireResponse::Ok {
                id,
                trace,
                tier,
                output,
            } => {
                assert_eq!(id, 9);
                assert_eq!(trace, sample_trace());
                assert_eq!(tier, ResponseTier::Degraded);
                assert_eq!(output.as_slice(), grid.as_slice());
            }
            other => panic!("expected ok: {other:?}"),
        }
        let err = encode_err_response(
            11,
            TraceContext::NONE,
            true,
            ErrorCode::QueueFull,
            "queue full (4/4)",
        );
        match decode_response(&err).unwrap() {
            WireResponse::Err {
                id,
                rejected,
                code,
                message,
                ..
            } => {
                assert_eq!(id, 11);
                assert!(rejected);
                assert_eq!(code, ErrorCode::QueueFull);
                assert!(message.contains("4/4"));
            }
            other => panic!("expected err: {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        assert_eq!(decode_request(&[]).unwrap_err(), DecodeError::Empty);
        assert!(matches!(
            decode_request(&[9, 9]).unwrap_err(),
            DecodeError::UnsupportedVersion(9)
        ));
        // Version 2 is as unknown as 9: a genuine v2 health probe (no trace
        // block), and a response stamped with version 2.
        let mut v2_probe = vec![2, KIND_HEALTH];
        v2_probe.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(
            decode_request(&v2_probe).unwrap_err(),
            DecodeError::UnsupportedVersion(2)
        );
        let mut v2_err = encode_err_response(5, TraceContext::NONE, true, ErrorCode::Protocol, "x");
        v2_err[0] = 2;
        assert_eq!(
            decode_response(&v2_err).unwrap_err(),
            DecodeError::UnsupportedVersion(2)
        );
        let mut ok = encode_denoise_request(
            WIRE_VERSION,
            1,
            0,
            TraceContext::NONE,
            Priority::Batch,
            None,
            &ChambolleParams::with_iterations(3),
            &Grid::new(4, 4, 0.0f32),
        );
        ok.truncate(ok.len() - 1); // drop one pixel byte
        assert!(matches!(
            decode_request(&ok).unwrap_err(),
            DecodeError::PixelCountMismatch { .. }
        ));
        assert!(decode_response(&[WIRE_VERSION, 7, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn sub_millisecond_deadlines_encode_as_one_millisecond() {
        // deadline_ms = 0 means "no deadline", so a set deadline below 1 ms
        // must round up instead of vanishing.
        for deadline in [Duration::from_micros(500), Duration::ZERO] {
            let payload = encode_denoise_request(
                WIRE_VERSION,
                1,
                0,
                TraceContext::NONE,
                Priority::Interactive,
                Some(deadline),
                &ChambolleParams::with_iterations(3),
                &Grid::new(2, 1, 0.0f32),
            );
            match decode_request(&payload).unwrap() {
                WireRequest::Solve { request, .. } => {
                    assert_eq!(
                        request.deadline,
                        Some(Duration::from_millis(1)),
                        "{deadline:?}"
                    );
                }
                other => panic!("expected a solve request: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_dimensions_are_rejected_before_allocation() {
        // An ok-response header declaring a 2^31 x 2^31 frame with no pixel
        // bytes behind it: decode must reject on the dimension field, not
        // attempt a multi-exabyte Vec.
        let mut buf = Vec::new();
        buf.push(WIRE_VERSION);
        buf.push(STATUS_OK);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 25]); // trace block (inactive)
        buf.push(TIER_FULL);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&buf).unwrap_err(),
            DecodeError::OversizedDimensions { .. }
        ));
        // Same guard on the request path (dims sit at 60..68 under v3).
        let mut req = encode_denoise_request(
            WIRE_VERSION,
            1,
            0,
            TraceContext::NONE,
            Priority::Batch,
            None,
            &ChambolleParams::with_iterations(3),
            &Grid::new(2, 2, 0.0f32),
        );
        req[60..64].copy_from_slice(&u32::MAX.to_le_bytes());
        req[64..68].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&req).unwrap_err(),
            DecodeError::OversizedDimensions { .. }
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut probe = encode_health_request(5, TraceContext::NONE);
        probe.push(0xAB);
        assert_eq!(
            decode_request(&probe).unwrap_err(),
            DecodeError::TrailingBytes { count: 1 }
        );
    }

    /// Asserts `payload` is the hex digits of `expected`, whitespace aside.
    #[track_caller]
    fn assert_hex(payload: &[u8], expected: &str) {
        let digits: String = expected.split_whitespace().collect();
        let bytes: Vec<u8> = (0..digits.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(payload, bytes);
    }

    /// Pins the v3 layout byte for byte. The codec tests above only round-
    /// trip, so a field misplaced the same way on both sides would pass
    /// them and still break every deployed peer.
    #[test]
    fn v3_payloads_match_literal_bytes() {
        // id = 7, then the trace block: trace id, span id, flags (sampled).
        const ID_TRACE: &str =
            "0700000000000000 efcdab89674523010df0fecaefbeadde bc9a78563412ed5e 01";
        // Width 2, height 1, pixels [1.5, -2.0].
        const GRID: &str = "02000000 01000000 0000c03f 000000c0";
        let trace = sample_trace();
        let grid = Grid::from_vec(2, 1, vec![1.5f32, -2.0]).unwrap();
        let params = ChambolleParams {
            theta: 0.25,
            tau: 0.248,
            iterations: 42,
        };
        let deadline = Some(Duration::from_millis(1500));
        let request = encode_denoise_request(
            WIRE_VERSION,
            7,
            99,
            trace,
            Priority::Interactive,
            deadline,
            &params,
            &grid,
        );
        // Idempotency key 99, interactive, 1500 ms, theta, tau, 42 iterations.
        let body = "6300000000000000 00 dc050000 0000803e b6f37d3e 2a000000";
        assert_hex(&request, &format!("03 01 {ID_TRACE} {body} {GRID}"));
        assert_hex(
            &encode_health_request(7, trace),
            &format!("03 02 {ID_TRACE}"),
        );
        assert_hex(
            &encode_metrics_request(7, trace),
            &format!("03 03 {ID_TRACE}"),
        );

        let ok = encode_ok_response(WIRE_VERSION, 7, trace, ResponseTier::Degraded, &grid);
        assert_hex(&ok, &format!("03 00 {ID_TRACE} 01 {GRID}"));
        let rejected = encode_err_response(7, trace, true, ErrorCode::QueueFull, "full");
        assert_hex(&rejected, &format!("03 01 {ID_TRACE} 01 0400 66756c6c"));
        let failed = encode_err_response(7, trace, false, ErrorCode::Solver, "boom");
        assert_hex(&failed, &format!("03 02 {ID_TRACE} 06 0400 626f6f6d"));
        let health = HealthSnapshot {
            accepting: true,
            dispatcher_live: true,
            brownout: false,
            queue_depth: 3,
            queue_capacity: 64,
            in_flight: 5,
            completed: 1000,
            last_solve_age: Some(Duration::from_millis(40)),
        };
        // Accepting, live, no brownout, depth 3, capacity 64, 5 in flight,
        // 1000 completed, last solve 40 ms ago.
        let body = "01 01 00 03000000 40000000 0500000000000000 e803000000000000 2800000000000000";
        assert_hex(
            &encode_health_response(7, trace, &health),
            &format!("03 03 {ID_TRACE} {body}"),
        );
        let metrics = encode_metrics_response(7, trace, r#"{"k":1}"#);
        assert_hex(&metrics, &format!("03 04 {ID_TRACE} 7b226b223a317d"));
    }

    #[test]
    fn frames_round_trip_and_guard_length_and_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"x").unwrap();
        let mut r = io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"x");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        assert!(read_frame(&mut io::empty()).unwrap().is_none(), "empty");

        // A stream that ends inside a frame header is truncated, not clean.
        for cut in 1..FRAME_HEADER {
            let err = read_frame(&mut io::Cursor::new(buf[..cut].to_vec())).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut} bytes");
        }

        // Zero-length frames are rejected on both sides.
        assert!(write_frame(&mut Vec::new(), b"").is_err());
        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        zero.extend_from_slice(&fnv1a64(b"").to_le_bytes());
        assert!(read_frame(&mut io::Cursor::new(zero)).is_err());

        // A hostile length prefix fails before allocating.
        let mut bad = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 8]);
        assert!(read_frame(&mut io::Cursor::new(bad)).is_err());

        // A flipped payload bit fails the checksum.
        let mut corrupt = buf;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x10;
        let mut r = io::Cursor::new(corrupt);
        let err = read_frame(&mut r).unwrap().map(|_| ());
        assert!(err.is_some(), "first frame is intact");
        assert!(read_frame(&mut r).is_err(), "second frame corrupt");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic corruption of an encoded payload: flip bits,
        /// truncate, or extend, driven by the generated plan.
        fn corrupt(payload: &[u8], flips: &[(usize, u8)], truncate_to: usize) -> Vec<u8> {
            let mut bytes = payload.to_vec();
            for &(pos, bit) in flips {
                if !bytes.is_empty() {
                    let i = pos % bytes.len();
                    bytes[i] ^= 1 << (bit % 8);
                }
            }
            if truncate_to < bytes.len() {
                bytes.truncate(truncate_to);
            }
            bytes
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// decode(corrupt(encode(x))) never panics and never allocates
            /// unboundedly — it returns Ok (benign corruption, e.g. inside
            /// pixel data) or a structured DecodeError.
            #[test]
            fn corrupted_request_decode_is_total(
                w in 1usize..6,
                h in 1usize..6,
                iters in 1u32..50,
                flip_pos in proptest::collection::vec((0usize..4096, 0u8..8), 0..6),
                trunc in 0usize..4096,
            ) {
                let input = Grid::from_fn(w, h, |x, y| (x * 7 + y) as f32 / 11.0);
                let params = ChambolleParams::with_iterations(iters);
                let payload = encode_denoise_request(
                    WIRE_VERSION, 42, 7, super::sample_trace(), Priority::Batch,
                    Some(Duration::from_millis(10)), &params, &input,
                );
                let mangled = corrupt(&payload, &flip_pos, trunc);
                let _ = decode_request(&mangled); // must not panic
            }

            /// Same totality for the response decoder.
            #[test]
            fn corrupted_response_decode_is_total(
                w in 1usize..6,
                h in 1usize..6,
                flip_pos in proptest::collection::vec((0usize..4096, 0u8..8), 0..6),
                trunc in 0usize..4096,
            ) {
                let grid = Grid::from_fn(w, h, |x, y| (x + y) as f32);
                let trace = super::sample_trace();
                for payload in [
                    encode_ok_response(WIRE_VERSION, 3, trace, ResponseTier::Full, &grid),
                    encode_err_response(3, trace, false, ErrorCode::Solver, "boom"),
                    encode_metrics_response(3, trace, r#"{"schema":"x"}"#),
                    encode_health_response(3, trace, &HealthSnapshot {
                        accepting: true,
                        dispatcher_live: true,
                        brownout: false,
                        queue_depth: 1,
                        queue_capacity: 8,
                        in_flight: 0,
                        completed: 9,
                        last_solve_age: None,
                    }),
                ] {
                    let mangled = corrupt(&payload, &flip_pos, trunc);
                    let _ = decode_response(&mangled); // must not panic
                }
            }

            /// Arbitrary byte soup never panics either decoder.
            #[test]
            fn random_bytes_never_panic_decoders(
                bytes in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                let _ = decode_request(&bytes);
                let _ = decode_response(&bytes);
            }

            /// Payload corruption inside a frame is always caught by the
            /// frame checksum before decode even sees it.
            #[test]
            fn frame_checksum_catches_payload_corruption(
                flip_byte in 0usize..64,
                flip_bit in 0u8..8,
            ) {
                let payload = encode_health_request(77, super::sample_trace());
                let mut framed = Vec::new();
                write_frame(&mut framed, &payload).unwrap();
                // Flip one bit inside the payload region (past the header).
                let i = FRAME_HEADER + (flip_byte % payload.len());
                framed[i] ^= 1 << flip_bit;
                let err = read_frame(&mut io::Cursor::new(framed)).unwrap_err();
                prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            }
        }
    }
}
