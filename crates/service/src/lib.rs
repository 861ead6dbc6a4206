//! A long-running request service around the Chambolle solver stack.
//!
//! This crate turns the batch-oriented solvers of `chambolle-core` into a
//! multi-client service with production semantics:
//!
//! - **Admission control** — a bounded submission queue that rejects with a
//!   structured [`RejectReason`] (never blocks, never panics) when full,
//!   draining, or handed an invalid workload, plus edge-triggered
//!   high/low queue-depth watermark counters.
//! - **Micro-batching** — compatible requests (same workload kind, same
//!   dimensions, bit-identical parameters) coalesce into one shared-pool
//!   dispatch, amortising dispatch overhead without changing any result:
//!   a batched response is bit-identical to a solo response.
//! - **Deadlines and cancellation** — per-request deadlines become
//!   [`CancelToken`](chambolle_core::CancelToken)s polled at iteration
//!   boundaries; a cancelled solve returns cleanly and leaves the pool
//!   reusable.
//! - **Priority lanes** — interactive requests are always dequeued before
//!   batch requests.
//! - **Graceful shutdown** — [`Service::shutdown`] stops admission, drains
//!   every accepted request, and flushes a final telemetry
//!   [`RunReport`](chambolle_telemetry::RunReport); zero accepted requests
//!   are lost.
//! - **A framed TCP front-end** — a hand-rolled length-prefixed,
//!   checksummed binary protocol over `std::net` ([`wire`], [`TcpServer`],
//!   [`ServiceClient`]) next to the in-process [`ServiceHandle`] API.
//! - **Chaos hardening** — a deterministic, seed-driven network fault
//!   injector ([`chaos`], [`TcpServer::bind_with_chaos`]) paired with a
//!   [`ResilientClient`] that survives it: per-attempt timeouts, bounded
//!   retries with decorrelated-jitter backoff, idempotency keys backed by a
//!   server-side result cache, and a circuit breaker.
//! - **Health probes** — a dedicated wire frame (and
//!   [`ServiceHandle::health`]) reporting readiness, queue depth,
//!   dispatcher liveness, brownout state, and last-solve age.
//! - **Brownout degradation** — under sustained queue congestion *or a
//!   burning latency SLO* the service sheds *fidelity* instead of
//!   requests, staged cheapest-lever-first: one pressure signal switches
//!   solves to the tolerance-validated `Fast` numerics tier at the full
//!   iteration budget, and only both signals at once stack the configured
//!   [`DegradationPolicy`](chambolle_core::DegradationPolicy) iteration cap
//!   on top. Degraded solves are tagged [`ResponseTier::Degraded`]; full
//!   fidelity resumes when the episode ends.
//! - **End-to-end request tracing** — clients mint a 128-bit
//!   [`TraceContext`] that rides every wire frame; the server threads it
//!   through queue admission, batch formation, and the solve, recording a
//!   causally-ordered span tree (`server.request` → `queue`/`batch` →
//!   `solve`, plus `replay` for idempotent cache hits and `client.*` spans
//!   on the resilient client) into a bounded [`Tracer`] ring with a
//!   slowest-N view.
//! - **A live metrics plane** — rolling time-windowed aggregation (per-lane
//!   queue wait, batch occupancy, solve p50/p99, error/SLO burn rates)
//!   served over a dedicated `MetricsSnapshot` wire frame as a
//!   schema-stable JSON document ([`METRICS_SNAPSHOT_SCHEMA`]).
//! - **Declarative SLOs** — per-lane latency objectives
//!   ([`SloObjective`]) evaluated as burn rates over the rolling window,
//!   surfaced in the snapshot, counted as `service.slo.*` events, and
//!   consulted by the brownout policy.
//!
//! Requests route through `core::guard`, and every stage (admit → queue →
//! batch → solve → respond) emits `service.*` counters, gauges, and latency
//! histograms.

#![warn(missing_docs)]

pub mod chaos;
mod net;
mod queue;
mod request;
mod resilient;
mod service;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosEvent, ChaosInjector, ChaosStream};
pub use net::{ServiceClient, TcpServer, DEFAULT_CONNECT_TIMEOUT};
pub use request::{
    BatchKey, Completed, Output, Priority, RejectReason, Request, ResponseTier, ServiceError,
    Workload, WorkloadKind,
};
pub use resilient::{
    BreakerPolicy, BreakerState, ClientError, DenoiseOutcome, ResilientClient, ResilientConfig,
    ResilientStats, RetryPolicy,
};
pub use service::{
    HealthSnapshot, Service, ServiceConfig, ServiceHandle, ServiceStats, ShutdownSummary,
    SloObjective, Ticket, METRICS_SNAPSHOT_SCHEMA,
};

pub use chambolle_telemetry::trace::{RequestTrace, SpanRecord, TraceContext, Tracer};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use chambolle_core::{ChambolleParams, SequentialSolver, TvDenoiser};
    use chambolle_imaging::{Grid, NoiseTexture, Scene};
    use chambolle_telemetry::{names, Telemetry};

    use super::*;

    fn noisy_input(w: usize, h: usize, seed: u64) -> Grid<f32> {
        NoiseTexture::new(seed).render(w, h)
    }

    fn denoise_request(input: &Grid<f32>, iterations: u32) -> Request {
        Request::new(Workload::Denoise {
            input: input.clone(),
            params: ChambolleParams::with_iterations(iterations),
        })
    }

    #[test]
    fn config_from_tunables_matches_historical_constants_and_honors_knobs() {
        // Default tunables reproduce the pre-auto-tuning constants exactly.
        let d = ServiceConfig::new(2, 64);
        assert_eq!(d.max_batch, 8);
        assert_eq!(d.high_watermark, 64 * 3 / 4);
        assert_eq!(d.low_watermark, 64 / 4);
        // A profile's knobs flow through.
        let t = chambolle_tune::Tunables {
            batch_window: 16,
            high_watermark_pct: 90,
            low_watermark_pct: 50,
        };
        let c = ServiceConfig::from_tunables(3, 40, &t);
        assert_eq!(c.max_batch, 16);
        assert_eq!(c.high_watermark, 36);
        assert_eq!(c.low_watermark, 20);
    }

    #[test]
    fn service_solves_a_request_matching_the_direct_solver() {
        let input = noisy_input(24, 18, 7);
        let params = ChambolleParams::with_iterations(25);
        let service = Service::spawn(ServiceConfig::new(2, 8));
        let ticket = service
            .handle()
            .submit(denoise_request(&input, 25))
            .unwrap();
        let done = ticket.wait().unwrap();
        let expected = SequentialSolver::new().denoise(&input, &params);
        assert_eq!(
            done.output.as_denoised().unwrap().as_slice(),
            expected.as_slice(),
            "service output must be bit-identical to the direct solver"
        );
        let summary = service.shutdown();
        assert_eq!(summary.stats.completed, 1);
        assert_eq!(summary.stats.in_flight(), 0);
    }

    #[test]
    fn batched_responses_are_bit_identical_to_solo_responses() {
        let inputs: Vec<Grid<f32>> = (0..6).map(|s| noisy_input(20, 20, 100 + s)).collect();

        // Solo baseline: batching disabled.
        let solo_service = Service::spawn(ServiceConfig::new(2, 16).with_max_batch(1));
        let solo: Vec<Grid<f32>> = inputs
            .iter()
            .map(|input| {
                let t = solo_service
                    .handle()
                    .submit(denoise_request(input, 30))
                    .unwrap();
                t.wait().unwrap().output.as_denoised().unwrap().clone()
            })
            .collect();
        solo_service.shutdown();

        // Batched: hold the dispatcher busy with a slow blocker so the six
        // compatible requests pile up and coalesce.
        let service = Service::spawn(ServiceConfig::new(2, 16).with_max_batch(8));
        let blocker = service
            .handle()
            .submit(denoise_request(&noisy_input(96, 96, 1), 400))
            .unwrap();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|input| service.handle().submit(denoise_request(input, 30)).unwrap())
            .collect();
        blocker.wait().unwrap();
        let mut saw_coalesced_batch = false;
        for (ticket, expected) in tickets.into_iter().zip(&solo) {
            let done = ticket.wait().unwrap();
            saw_coalesced_batch |= done.batch_size > 1;
            assert_eq!(
                done.output.as_denoised().unwrap().as_slice(),
                expected.as_slice(),
                "batched response must be bit-identical to the solo response"
            );
        }
        assert!(
            saw_coalesced_batch,
            "the pile-up should have produced at least one multi-request batch"
        );
        service.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_structured_reason_without_blocking() {
        let service = Service::spawn(ServiceConfig::new(1, 2).with_max_batch(1));
        let input = noisy_input(64, 64, 3);
        // The blocker occupies the dispatcher while the queue fills.
        let blocker = service
            .handle()
            .submit(denoise_request(&input, 400))
            .unwrap();
        let mut tickets = Vec::new();
        let reason = loop {
            match service.handle().submit(denoise_request(&input, 5)) {
                Ok(t) => tickets.push(t),
                Err(reason) => break reason,
            }
            assert!(
                tickets.len() <= 3,
                "queue of capacity 2 cannot admit this many"
            );
        };
        assert!(
            matches!(reason, RejectReason::QueueFull { capacity: 2, .. }),
            "got {reason:?}"
        );
        blocker.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        let summary = service.shutdown();
        assert!(summary.stats.rejected_full >= 1);
        assert_eq!(summary.stats.in_flight(), 0);
    }

    #[test]
    fn invalid_workloads_are_rejected_at_admission() {
        let service = Service::spawn(ServiceConfig::default());
        let mut params = ChambolleParams::with_iterations(5);
        params.theta = -1.0;
        let err = service
            .handle()
            .submit(Request::new(Workload::Denoise {
                input: Grid::new(4, 4, 0.0f32),
                params,
            }))
            .unwrap_err();
        assert!(matches!(err, RejectReason::Invalid(_)));
        let summary = service.shutdown();
        assert_eq!(summary.stats.rejected_invalid, 1);
        assert_eq!(summary.stats.accepted, 0);
    }

    #[test]
    fn tight_deadline_resolves_to_deadline_exceeded() {
        let service = Service::spawn(ServiceConfig::new(1, 8).with_max_batch(1));
        let input = noisy_input(96, 96, 9);
        // Occupy the dispatcher so the deadline fires while queued.
        let blocker = service
            .handle()
            .submit(denoise_request(&input, 300))
            .unwrap();
        let doomed = service
            .handle()
            .submit(denoise_request(&input, 300).with_deadline(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        blocker.wait().unwrap();
        let summary = service.shutdown();
        assert_eq!(summary.stats.deadline_exceeded, 1);
        assert_eq!(summary.stats.completed, 1);
        assert_eq!(summary.stats.in_flight(), 0);
    }

    #[test]
    fn cancelled_ticket_resolves_cleanly_and_service_stays_deterministic() {
        let input = noisy_input(32, 32, 21);
        let service = Service::spawn(ServiceConfig::new(2, 8));
        let victim = service
            .handle()
            .submit(denoise_request(&input, 2000))
            .unwrap();
        victim.cancel();
        // Regardless of whether the cancel landed before or mid-solve, the
        // ticket resolves; if it raced completion, that's also a response.
        let outcome = victim.wait();
        assert!(
            matches!(outcome, Err(ServiceError::Cancelled) | Ok(_)),
            "got {outcome:?}"
        );
        // The next request on the same service is unaffected.
        let follow_up = service
            .handle()
            .submit(denoise_request(&input, 25))
            .unwrap();
        let done = follow_up.wait().unwrap();
        let expected =
            SequentialSolver::new().denoise(&input, &ChambolleParams::with_iterations(25));
        assert_eq!(
            done.output.as_denoised().unwrap().as_slice(),
            expected.as_slice()
        );
        let summary = service.shutdown();
        assert_eq!(summary.stats.in_flight(), 0);
    }

    #[test]
    fn shutdown_under_load_loses_zero_accepted_requests() {
        let telemetry = Telemetry::null();
        let service = Service::spawn_with_telemetry(ServiceConfig::new(2, 64), telemetry.clone());
        let input = noisy_input(16, 16, 5);
        let tickets: Vec<Ticket> = (0..20)
            .map(|i| {
                let priority = if i % 4 == 0 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                service
                    .handle()
                    .submit(denoise_request(&input, 20).with_priority(priority))
                    .unwrap()
            })
            .collect();
        let accepted = tickets.len() as u64;
        let summary = service.shutdown();
        // Every accepted ticket must have a response waiting.
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(summary.stats.accepted, accepted);
        assert_eq!(summary.stats.completed, accepted);
        assert_eq!(summary.stats.in_flight(), 0);
        // The final report is flushed with the service section present.
        let report = summary.report.expect("telemetry enabled => report");
        let json = report.to_json();
        assert!(json
            .get("sections")
            .and_then(|s| s.get("service"))
            .is_some());
        assert!(
            telemetry
                .snapshot()
                .counter(names::SERVICE_BATCHES)
                .unwrap_or(0)
                >= 1,
            "dispatches must be counted"
        );
    }

    #[test]
    fn submissions_after_shutdown_are_rejected_as_shutting_down() {
        let service = Service::spawn(ServiceConfig::default());
        let handle = service.handle().clone();
        service.shutdown();
        let err = handle
            .submit(denoise_request(&noisy_input(8, 8, 1), 5))
            .unwrap_err();
        assert_eq!(err, RejectReason::ShuttingDown);
    }

    #[test]
    fn brownout_stages_shed_numerics_before_iterations() {
        use crate::service::staged_policy;
        use chambolle_core::DegradationPolicy;

        let configured = DegradationPolicy::cap(5);
        // No pressure: full fidelity.
        assert_eq!(staged_policy(configured, false, false), None);
        // One signal (either one): numerics only, full iteration budget.
        let stage1 = DegradationPolicy::fast_tier();
        assert_eq!(staged_policy(configured, true, false), Some(stage1));
        assert_eq!(staged_policy(configured, false, true), Some(stage1));
        // Compound pressure: the configured cap stacks on the fast tier.
        let stage2 = staged_policy(configured, true, true).unwrap();
        assert_eq!(stage2, DegradationPolicy::fast_tier().with_cap(5));
        assert!(stage2.sheds_numerics());
        assert_eq!(stage2.effective_iterations(50), 5);
    }

    #[test]
    fn sustained_congestion_degrades_fidelity_then_recovers() {
        use chambolle_core::{
            chambolle_denoise_with_ctx, DegradationPolicy, ExecCtx, NumericsPolicy,
        };

        let telemetry = Telemetry::null();
        // Capacity 8 -> high watermark 6, low watermark 2. One dispatcher
        // thread, no coalescing, and a brownout cap of 5 iterations. The cap
        // is the *second* shedding stage: queue congestion alone only sheds
        // numerics, so these solves keep their full iteration budget.
        let config = ServiceConfig::new(1, 8)
            .with_max_batch(1)
            .with_degradation(DegradationPolicy::cap(5));
        let service = Service::spawn_with_telemetry(config, telemetry.clone());
        let input = noisy_input(24, 24, 55);

        // Occupy the dispatcher so the queue can fill past the high
        // watermark before any of the followers dispatch.
        let blocker = service
            .handle()
            .submit(denoise_request(&noisy_input(96, 96, 1), 300))
            .unwrap();
        let tickets: Vec<Ticket> = (0..7)
            .map(|_| {
                service
                    .handle()
                    .submit(denoise_request(&input, 50))
                    .unwrap()
            })
            .collect();

        blocker.wait().unwrap();
        let outcomes: Vec<Completed> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

        // Overload shed fidelity, not requests: everything completed, and
        // the congested prefix is tagged degraded.
        let degraded: Vec<&Completed> = outcomes
            .iter()
            .filter(|c| c.tier == ResponseTier::Degraded)
            .collect();
        assert!(
            !degraded.is_empty(),
            "sustained congestion must produce degraded-tier responses"
        );
        // Stage 1 shedding: the fast numerics tier at the full 50-iteration
        // budget — NOT the 5-iteration cap, which needs compound pressure.
        let fast_ctx = ExecCtx::default().with_numerics(NumericsPolicy::Fast);
        let (shed, _) =
            chambolle_denoise_with_ctx(&input, &ChambolleParams::with_iterations(50), &fast_ctx)
                .expect("no cancellation token installed");
        let capped = SequentialSolver::new().denoise(&input, &ChambolleParams::with_iterations(5));
        for c in &degraded {
            let out = c.output.as_denoised().unwrap().as_slice();
            assert_eq!(
                out,
                shed.as_slice(),
                "a degraded response is exactly the fast-tier full-budget solve"
            );
            assert_ne!(
                out,
                capped.as_slice(),
                "congestion alone must not truncate the iteration budget"
            );
        }

        // After the queue drains below the low watermark, fidelity returns.
        let recovered = service
            .handle()
            .submit(denoise_request(&input, 50))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(recovered.tier, ResponseTier::Full);
        let full = SequentialSolver::new().denoise(&input, &ChambolleParams::with_iterations(50));
        assert_eq!(
            recovered.output.as_denoised().unwrap().as_slice(),
            full.as_slice(),
            "post-brownout responses are full fidelity again"
        );

        let summary = service.shutdown();
        assert!(summary.stats.degraded >= 1);
        assert_eq!(summary.stats.in_flight(), 0);
        let snap = telemetry.snapshot();
        assert!(snap.counter(names::SERVICE_BROWNOUT_ENTERED).unwrap_or(0) >= 1);
        assert!(snap.counter(names::SERVICE_BROWNOUT_EXITED).unwrap_or(0) >= 1);
        assert!(
            snap.counter(names::SERVICE_DEGRADED_RESPONSES).unwrap_or(0) >= degraded.len() as u64
        );
    }

    #[test]
    fn health_snapshot_tracks_the_service_lifecycle() {
        let service = Service::spawn(ServiceConfig::new(1, 8));
        let handle = service.handle().clone();

        // The dispatcher flags itself live as its first action; wait out the
        // spawn race.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !handle.health().dispatcher_live {
            assert!(
                std::time::Instant::now() < deadline,
                "dispatcher never came up"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let fresh = handle.health();
        assert!(fresh.is_ready());
        assert!(fresh.accepting);
        assert!(!fresh.brownout);
        assert_eq!(fresh.completed, 0);
        assert_eq!(fresh.queue_capacity, 8);
        assert_eq!(fresh.last_solve_age, None, "no solve has happened yet");

        handle
            .submit(denoise_request(&noisy_input(12, 12, 2), 10))
            .unwrap()
            .wait()
            .unwrap();
        let after = handle.health();
        assert_eq!(after.completed, 1);
        assert!(after.last_solve_age.is_some());
        assert_eq!(after.in_flight, 0);

        service.shutdown();
        let drained = handle.health();
        assert!(!drained.accepting, "a shut-down service is not accepting");
        assert!(!drained.is_ready());
    }

    #[test]
    fn tcp_idempotent_retry_returns_cached_bits_and_health_serves() {
        let input = noisy_input(14, 10, 33);
        let params = ChambolleParams::with_iterations(12);
        let telemetry = Telemetry::null();
        let service = Service::spawn_with_telemetry(ServiceConfig::new(2, 8), telemetry.clone());
        let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let mut client = ServiceClient::connect(addr).unwrap();
        let first = client
            .denoise_idempotent(&input, &params, Priority::Batch, None, 777)
            .unwrap();
        // Same key from a *different* connection — simulating a client that
        // lost the response and reconnected to retry.
        let mut retry_client = ServiceClient::connect(addr).unwrap();
        let second = retry_client
            .denoise_idempotent(&input, &params, Priority::Batch, None, 777)
            .unwrap();
        match (&first, &second) {
            (
                wire::WireResponse::Ok { output: a, .. },
                wire::WireResponse::Ok { output: b, .. },
            ) => {
                assert_eq!(a.as_slice(), b.as_slice(), "cached replay is bit-identical");
            }
            other => panic!("expected two ok responses, got {other:?}"),
        }
        assert_eq!(
            telemetry.snapshot().counter(names::SERVICE_IDEMPOTENT_HITS),
            Some(1),
            "the retry must be served from the idempotency cache"
        );

        let health = client.health().unwrap();
        assert!(health.is_ready());
        assert_eq!(health.completed, 1, "only one solve actually ran");
        assert!(health.last_solve_age.is_some());

        drop(client);
        drop(retry_client);
        server.shutdown();
        let summary = service.shutdown();
        assert_eq!(
            summary.stats.completed, 1,
            "the idempotent retry must not recompute"
        );
    }

    #[test]
    fn tcp_shutdown_is_not_hostage_to_stalled_mid_frame_peers() {
        use std::io::Write as _;

        let service = Service::spawn(ServiceConfig::new(1, 4));
        let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Two pathological peers held open across the shutdown: one stalls
        // after half a frame header, one after a header promising a payload
        // that never arrives. Neither must pin its connection thread.
        let mut half_header = std::net::TcpStream::connect(addr).unwrap();
        half_header
            .write_all(&[0xAB; wire::FRAME_HEADER / 2])
            .unwrap();
        let mut half_payload = std::net::TcpStream::connect(addr).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&64u32.to_le_bytes()); // valid length...
        header.extend_from_slice(&0u64.to_le_bytes()); // ...no payload follows
        half_payload.write_all(&header).unwrap();

        // Park both connection threads inside their frame reads before the
        // stop flag rises.
        std::thread::sleep(Duration::from_millis(150));

        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown stalled behind silent peers: {:?}",
            start.elapsed()
        );
        drop(half_header);
        drop(half_payload);
        service.shutdown();
    }

    #[test]
    fn concurrent_default_clients_get_their_own_results() {
        // Regression: idempotency keys were minted from the (shared default)
        // jitter seed, so a second default-configured client's first solve
        // collided in the server-side cache and was served the first
        // client's pixels.
        let input_a = noisy_input(14, 10, 1001);
        let input_b = noisy_input(14, 10, 2002);
        let params = ChambolleParams::with_iterations(12);
        let service = Service::spawn(ServiceConfig::new(2, 8));
        let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let mut client_a = ResilientClient::connect(addr).unwrap();
        let mut client_b = ResilientClient::connect(addr).unwrap();
        let out_a = client_a
            .denoise(&input_a, &params, Priority::Batch, None)
            .unwrap();
        let out_b = client_b
            .denoise(&input_b, &params, Priority::Batch, None)
            .unwrap();

        let expect_a = SequentialSolver::new().denoise(&input_a, &params);
        let expect_b = SequentialSolver::new().denoise(&input_b, &params);
        assert_eq!(
            out_a.output.as_slice(),
            expect_a.as_slice(),
            "client A must get its own solve"
        );
        assert_eq!(
            out_b.output.as_slice(),
            expect_b.as_slice(),
            "client B must not be served client A's cached result"
        );

        drop(client_a);
        drop(client_b);
        server.shutdown();
        let summary = service.shutdown();
        assert_eq!(summary.stats.completed, 2, "both solves actually ran");
    }

    #[test]
    fn tcp_front_end_round_trips_against_in_process_result() {
        let input = noisy_input(16, 12, 77);
        let params = ChambolleParams::with_iterations(15);
        let service = Service::spawn(ServiceConfig::new(2, 8));
        let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
        let mut client = ServiceClient::connect(server.local_addr()).unwrap();
        let response = client
            .denoise(&input, &params, Priority::Interactive, None)
            .unwrap();
        let expected = SequentialSolver::new().denoise(&input, &params);
        match response {
            wire::WireResponse::Ok { output, .. } => {
                assert_eq!(output.as_slice(), expected.as_slice());
            }
            other => panic!("expected ok, got {other:?}"),
        }
        drop(client);
        server.shutdown();
        let summary = service.shutdown();
        assert_eq!(summary.stats.completed, 1);
    }
}
