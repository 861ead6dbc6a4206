//! End-to-end chaos test: a fault-injected TCP server driven by the
//! resilient client must complete every accepted request bit-identically
//! to a fault-free run.
//!
//! The fault dice are seeded: a fixed injector seed plus per-connection
//! SplitMix64 streams. Fault placement still shifts with TCP segmentation,
//! so assertions pin the schedule's stable outcomes (the scripted panic
//! fires exactly once, faults occurred, every response is bit-exact)
//! rather than per-category fault counts.

use std::time::Duration;

use chambolle::core::{ChambolleParams, SequentialSolver, TvDenoiser};
use chambolle::imaging::{Grid, NoiseTexture, Scene};
use chambolle::service::{
    BreakerPolicy, BreakerState, ChaosConfig, ChaosEvent, Priority, RequestTrace, ResilientClient,
    ResilientConfig, ResponseTier, RetryPolicy, Service, ServiceClient, ServiceConfig,
    SloObjective, TcpServer, METRICS_SNAPSHOT_SCHEMA,
};
use chambolle::telemetry::json::JsonValue;
use chambolle::telemetry::{names, RunReport, Telemetry};

const SEED: u64 = 0xC4A0_55EE_D001;
const REQUESTS: usize = 20;

fn inputs() -> Vec<Grid<f32>> {
    (0..REQUESTS)
        .map(|i| NoiseTexture::new(3000 + i as u64).render(20, 16))
        .collect()
}

/// The acceptance scenario from the issue: fixed-seed connection resets +
/// payload corruption + one scripted server panic, and the resilient client
/// still completes 100% of accepted requests with outputs bit-identical to
/// a fault-free run.
#[test]
fn chaotic_server_still_serves_every_request_bit_identically() {
    let params = ChambolleParams::with_iterations(15);
    let inputs = inputs();
    let expected: Vec<Grid<f32>> = inputs
        .iter()
        .map(|input| SequentialSolver::new().denoise(input, &params))
        .collect();

    let server_telemetry = Telemetry::null();
    let client_telemetry = Telemetry::null();
    // A ring big enough that no trace fragment of this run is evicted —
    // every retry that gets a response write finishes one fragment. The
    // interactive-lane SLO gives the metrics snapshot a live burn rate.
    let config = ServiceConfig::new(2, 32).with_trace_ring(1024).with_slo(
        Priority::Interactive,
        SloObjective::new(Duration::from_secs(2), 0.99),
    );
    let service = Service::spawn_with_telemetry(config, server_telemetry.clone());
    // Aggressive-but-recoverable chaos: frequent resets and corruption, and
    // the third solve submission panics server-side *after* committing, so
    // the retry must be answered from the idempotency cache.
    let chaos = ChaosConfig::quiet(SEED)
        .with_resets(0.05)
        .with_corruption(0.05)
        .with_panic_on_request(3);
    let server =
        TcpServer::bind_with_chaos(service.handle().clone(), "127.0.0.1:0", chaos).unwrap();
    let addr = server.local_addr();
    // The metrics plane: a chaos-free ops listener on the same service.
    let ops = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
    let mut ops_client = ServiceClient::connect(ops.local_addr()).unwrap();

    // A hair-trigger breaker (threshold 1, short cooldown) so the fault
    // schedule is guaranteed to exercise the open -> half-open -> closed
    // cycle, not just the retry loop.
    let config = ResilientConfig {
        connect_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(10),
        retry: RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        },
        breaker: BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_millis(10),
        },
        jitter_seed: SEED,
        tracing: true,
    };
    let handle = service.handle().clone();
    let mut client = ResilientClient::connect_with(addr, config)
        .unwrap()
        .with_telemetry(client_telemetry.clone())
        .with_tracer(handle.tracer().clone());

    let mut recovered_any = false;
    let mut trace_ids = Vec::new();
    for (i, (input, want)) in inputs.iter().zip(&expected).enumerate() {
        if i == REQUESTS / 2 {
            // Mid-run, while faults are firing, the metrics plane still
            // serves a schema-valid snapshot carrying the SLO burn rate.
            let raw = ops_client
                .metrics()
                .expect("the metrics plane answers during chaos");
            let snapshot = JsonValue::parse(&raw).expect("snapshot must be valid JSON");
            assert_eq!(
                snapshot.get("schema").and_then(JsonValue::as_str),
                Some(METRICS_SNAPSHOT_SCHEMA)
            );
            let lanes = snapshot
                .get_path("slo.lanes")
                .and_then(JsonValue::as_array)
                .expect("snapshot carries SLO lanes");
            assert!(
                lanes
                    .iter()
                    .any(|lane| lane.get("burn_rate").and_then(JsonValue::as_f64).is_some()),
                "snapshot must report a burn_rate: {raw}"
            );
        }
        let outcome = client
            .denoise(input, &params, Priority::Interactive, None)
            .expect("every accepted request must complete despite chaos");
        assert_eq!(
            outcome.output.as_slice(),
            want.as_slice(),
            "chaos-survived response must be bit-identical to the fault-free run"
        );
        assert_eq!(outcome.tier, ResponseTier::Full);
        recovered_any |= outcome.recovered;
        assert!(outcome.trace.is_active(), "every request must be traced");
        trace_ids.push(outcome.trace.trace_id);
    }

    // Every completed request — including every retried, replayed, and
    // breaker-delayed one — must leave a complete span tree: merging all
    // finished fragments of a trace id yields a forest with roots and zero
    // orphaned spans, covering both the client and the server side.
    let finished = handle.tracer().recent();
    for (i, trace_id) in trace_ids.iter().enumerate() {
        let spans: Vec<_> = finished
            .iter()
            .filter(|t| t.trace_id == *trace_id)
            .flat_map(|t| t.spans.iter().cloned())
            .collect();
        assert!(!spans.is_empty(), "request {i} left no finished trace");
        let merged = RequestTrace::from_spans(*trace_id, spans);
        assert!(
            merged.is_complete(),
            "request {i}: span tree has orphans: {merged:?}"
        );
        assert!(
            merged.find("client.request").is_some(),
            "request {i}: client root span missing"
        );
        assert!(
            merged.find("server.request").is_some() || merged.find("replay").is_some(),
            "request {i}: no server-side span survived"
        );
    }

    let stats = client.stats();
    assert_eq!(stats.requests, REQUESTS as u64, "100% completion");
    assert_eq!(
        stats.exhausted, 0,
        "no request may exhaust its retry budget"
    );
    assert!(
        stats.retries > 0 && recovered_any,
        "the fault schedule must actually force retries (retries={})",
        stats.retries
    );
    assert!(
        matches!(client.breaker_state(), BreakerState::Closed),
        "breaker must settle closed once the run completes"
    );

    // The injector observed real faults, including the scripted panic.
    let injector = server
        .chaos()
        .expect("chaos server exposes its injector")
        .clone();
    let events = injector.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ChaosEvent::ServerPanic { .. })),
        "the scripted server panic must have fired"
    );
    assert!(
        events
            .iter()
            .any(|e| { matches!(e, ChaosEvent::Reset { .. } | ChaosEvent::Corrupt { .. }) }),
        "the seed must produce at least one network fault"
    );

    // Resilience telemetry lands in the client's RunReport.
    let snap = client_telemetry.snapshot();
    assert!(snap.counter(names::SERVICE_RETRY_ATTEMPTS).unwrap_or(0) > 0);
    assert!(snap.counter(names::SERVICE_RETRY_RECOVERED).unwrap_or(0) > 0);
    assert_eq!(snap.counter(names::SERVICE_RETRY_EXHAUSTED), None);
    assert!(snap.counter(names::SERVICE_BREAKER_OPENED).unwrap_or(0) > 0);
    assert!(snap.counter(names::SERVICE_BREAKER_CLOSED).unwrap_or(0) > 0);
    let report = RunReport::from_telemetry("chaos_e2e", &client_telemetry).to_json();
    let rendered = report.to_string();
    for name in [
        names::SERVICE_RETRY_ATTEMPTS,
        names::SERVICE_RETRY_RECOVERED,
        names::SERVICE_BREAKER_OPENED,
        names::SERVICE_BREAKER_STATE,
    ] {
        assert!(
            rendered.contains(name),
            "RunReport must carry {name}: {rendered}"
        );
    }

    // The server side saw the chaos too: idempotent replay after the panic.
    let server_snap = server_telemetry.snapshot();
    assert!(
        server_snap
            .counter(names::SERVICE_IDEMPOTENT_HITS)
            .unwrap_or(0)
            >= 1
    );
    assert!(server_snap.counter(names::SERVICE_CHAOS_SERVER_PANICS) == Some(1));

    ops.shutdown();
    server.shutdown();
    let summary = service.shutdown();
    assert_eq!(summary.stats.in_flight(), 0, "no request leaks in flight");
}

/// Same transport chaos, zero server panics, health probes interleaved:
/// the resilient client's health view must stay coherent under faults.
#[test]
fn health_probes_survive_transport_chaos() {
    let params = ChambolleParams::with_iterations(10);
    let input = NoiseTexture::new(77).render(16, 16);
    let expected = SequentialSolver::new().denoise(&input, &params);

    let service = Service::spawn(ServiceConfig::new(1, 8));
    let chaos = ChaosConfig::quiet(SEED ^ 0xDEAD)
        .with_resets(0.04)
        .with_corruption(0.04);
    let server =
        TcpServer::bind_with_chaos(service.handle().clone(), "127.0.0.1:0", chaos).unwrap();

    let config = ResilientConfig {
        retry: RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        },
        jitter_seed: SEED ^ 0xBEEF,
        ..ResilientConfig::default()
    };
    let mut client = ResilientClient::connect_with(server.local_addr(), config).unwrap();

    for round in 0..6 {
        let outcome = client
            .denoise(&input, &params, Priority::Batch, None)
            .expect("solve survives chaos");
        assert_eq!(outcome.output.as_slice(), expected.as_slice());
        // health() is single-attempt by design; under random transport
        // faults a probe may legitimately fail, so retry it client-side.
        let mut probed = None;
        for _ in 0..8 {
            if let Ok(h) = client.health() {
                probed = Some(h);
                break;
            }
        }
        let health = probed.expect("a health probe eventually lands");
        assert!(health.is_ready(), "round {round}: serving node is ready");
        assert!(health.completed >= (round + 1) as u64);
        assert!(health.last_solve_age.is_some());
    }

    server.shutdown();
    service.shutdown();
}
