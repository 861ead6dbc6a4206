//! End-to-end tests of the observability plane: trace propagation over the
//! wire, span-tree causality across retries and idempotent replays, the
//! live metrics snapshot, and the guarantee that tracing changes no solver
//! bit.

use std::time::{Duration, Instant};

use chambolle::core::{ChambolleParams, SequentialSolver, TvDenoiser};
use chambolle::imaging::{Grid, NoiseTexture, Scene};
use chambolle::service::{
    wire, BreakerPolicy, ChaosConfig, Priority, RequestTrace, ResilientClient, ResilientConfig,
    RetryPolicy, Service, ServiceClient, ServiceConfig, SloObjective, TcpServer,
    METRICS_SNAPSHOT_SCHEMA,
};
use chambolle::telemetry::json::JsonValue;
use chambolle::telemetry::metrics::DEFAULT_BUCKETS;
use chambolle::telemetry::window::WindowConfig;

const SEED: u64 = 0x7ACE_E2E0;

fn noisy(w: usize, h: usize, seed: u64) -> Grid<f32> {
    NoiseTexture::new(seed).render(w, h)
}

/// Acceptance (a): every v3 response frame echoes the trace context the
/// client minted for its request, so responses are joinable to traces.
#[test]
fn responses_echo_the_minted_trace_context() {
    let input = noisy(16, 12, 11);
    let params = ChambolleParams::with_iterations(10);
    let service = Service::spawn(ServiceConfig::new(1, 8));
    let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();

    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        let response = client
            .denoise(&input, &params, Priority::Interactive, None)
            .unwrap();
        let minted = client.last_trace();
        assert!(minted.is_active(), "v3 client must mint per-request traces");
        match response {
            wire::WireResponse::Ok { trace, .. } => {
                assert_eq!(trace, minted, "response must echo the request's trace");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }

    // The health probe echoes too.
    let _ = client.health().unwrap();
    assert!(client.last_trace().is_active());

    drop(client);
    server.shutdown();
    service.shutdown();
}

/// Acceptance (b): a request that was retried after a post-commit server
/// crash — and answered from the idempotency cache — yields one causally
/// ordered span tree covering queue -> batch -> solve on the first attempt
/// and the replay on the second, with durations that sum consistently, plus
/// the client-side attempt/backoff spans.
#[test]
fn retried_and_replayed_request_has_a_complete_causal_span_tree() {
    let input = noisy(24, 18, 22);
    let params = ChambolleParams::with_iterations(20);
    let expected = SequentialSolver::new().denoise(&input, &params);

    let service = Service::spawn(ServiceConfig::new(1, 8));
    let handle = service.handle().clone();
    // The very first solve submission panics server-side *after* the solve
    // commits, so the retry must be served by the idempotency cache.
    let chaos = ChaosConfig::quiet(SEED).with_panic_on_request(1);
    let server = TcpServer::bind_with_chaos(handle.clone(), "127.0.0.1:0", chaos).unwrap();

    let config = ResilientConfig {
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
        },
        breaker: BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(10),
        },
        jitter_seed: SEED,
        ..ResilientConfig::default()
    };
    // Client spans go into the *server's* tracer ring on the server's
    // clock, so the merged tree is readable end to end.
    let mut client = ResilientClient::connect_with(server.local_addr(), config)
        .unwrap()
        .with_tracer(handle.tracer().clone());

    let outcome = client
        .denoise(&input, &params, Priority::Interactive, None)
        .expect("the retry must recover the committed solve");
    assert!(outcome.recovered, "the scripted crash must force a retry");
    assert_eq!(outcome.attempts, 2);
    assert!(outcome.trace.is_active());
    assert_eq!(outcome.output.as_slice(), expected.as_slice());

    // Both the server (on replay) and the client (on completion) finish the
    // same trace id; merge every finished fragment into one tree.
    let trace_id = outcome.trace.trace_id;
    let spans: Vec<_> = handle
        .tracer()
        .recent()
        .into_iter()
        .filter(|t| t.trace_id == trace_id)
        .flat_map(|t| t.spans)
        .collect();
    let merged = RequestTrace::from_spans(trace_id, spans);
    assert!(
        merged.is_complete(),
        "merged span tree must have no orphans: {merged:?}"
    );

    // First attempt: the full service-side pipeline ran.
    let queue = merged.find("queue").expect("queue span");
    let batch = merged.find("batch").expect("batch span");
    let solve = merged.find("solve").expect("solve span");
    // Second attempt: the idempotent replay.
    let replay = merged.find("replay").expect("replay span");
    let request = merged.find("client.request").expect("client root span");
    assert!(merged.find("client.attempt").is_some());

    // Causality: queue and batch share a parent (the first attempt's
    // server.request root), the solve nests inside the batch span, and the
    // replay hangs off the *second* server.request root.
    assert_eq!(queue.parent_span_id, batch.parent_span_id);
    assert_eq!(solve.parent_span_id, batch.span_id);
    let roots: Vec<_> = merged
        .roots()
        .filter(|s| s.name == "server.request")
        .collect();
    assert_eq!(roots.len(), 2, "one server root per attempt");
    assert!(roots.iter().any(|r| r.span_id == replay.parent_span_id));

    // Durations sum consistently: queue + batch == the service-side total,
    // the solve fits inside the batch span, and everything fits inside the
    // client's request span.
    assert_eq!(batch.start_us, queue.start_us + queue.dur_us);
    assert!(solve.dur_us <= batch.dur_us);
    assert!(solve.start_us >= batch.start_us);
    assert_eq!(
        solve.start_us + solve.dur_us,
        batch.start_us + batch.dur_us,
        "the solve ends when the batch span ends"
    );
    assert!(request.dur_us >= queue.dur_us + batch.dur_us);

    // The attempt spans parent under the client request root.
    for span in merged
        .spans
        .iter()
        .filter(|s| s.name.starts_with("client.attempt") || s.name == "client.backoff")
    {
        assert_eq!(span.parent_span_id, request.span_id);
    }

    drop(client);
    server.shutdown();
    service.shutdown();
}

/// Acceptance (c): the MetricsSnapshot rolling p99 brackets the p99 the
/// load generator measures client-side, to histogram-bucket resolution.
#[test]
fn metrics_snapshot_p99_brackets_client_measured_p99() {
    let input = noisy(64, 64, 33);
    let params = ChambolleParams::with_iterations(60);

    let config = ServiceConfig::new(2, 16)
        .with_slo(
            Priority::Interactive,
            SloObjective::new(Duration::from_secs(5), 0.99),
        )
        .with_window(WindowConfig {
            bucket_width_us: 2_000_000,
            buckets: 10,
        });
    let service = Service::spawn(config);
    let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();

    let mut latencies_us: Vec<u64> = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        match client
            .denoise(&input, &params, Priority::Interactive, None)
            .unwrap()
        {
            wire::WireResponse::Ok { .. } => {}
            other => panic!("expected ok, got {other:?}"),
        }
        latencies_us.push(start.elapsed().as_micros() as u64);
    }
    latencies_us.sort_unstable();
    let client_p99 = *latencies_us.last().unwrap();

    let raw = client.metrics().unwrap();
    let snapshot = JsonValue::parse(&raw).expect("snapshot must be valid JSON");
    assert_eq!(
        snapshot.get("schema").and_then(|v| v.as_str()),
        Some(METRICS_SNAPSHOT_SCHEMA)
    );
    let p99 = snapshot
        .get_path("window_metrics.histograms.total_us.p99")
        .and_then(|v| v.as_f64())
        .expect("total_us p99 in the window snapshot");

    // Window quantiles resolve to histogram bucket upper bounds (ratios of
    // up to 10x between adjacent bounds), and the client-side measurement
    // includes loopback overhead the server-side total excludes — so
    // bracket to bucket resolution: the reported p99 may not exceed the
    // bucket above the client's p99, nor sit more than two bucket ranks
    // below it.
    let bucket_up = |x: f64| -> f64 {
        DEFAULT_BUCKETS
            .iter()
            .copied()
            .find(|&b| b >= x)
            .unwrap_or(f64::INFINITY)
    };
    let hi = bucket_up(client_p99 as f64);
    assert!(
        p99 <= hi,
        "snapshot p99 {p99} must not exceed the bucket above the measured p99 {client_p99} ({hi})"
    );
    assert!(
        p99 >= hi / 100.0,
        "snapshot p99 {p99} implausibly far below the measured p99 {client_p99}"
    );

    // SLO accounting saw every interactive response and none breached the
    // generous 5 s objective.
    let lanes = snapshot
        .get_path("slo.lanes")
        .and_then(|v| v.as_array())
        .map(|a| a.to_vec())
        .expect("slo lane array");
    let interactive = lanes
        .iter()
        .find(|l| l.get("lane").and_then(|v| v.as_str()) == Some("interactive"))
        .expect("interactive lane");
    assert_eq!(
        interactive.get("total").and_then(|v| v.as_f64()),
        Some(20.0)
    );
    assert_eq!(
        interactive.get("breach").and_then(|v| v.as_f64()),
        Some(0.0)
    );
    assert_eq!(
        snapshot.get_path("slo.burning").and_then(|v| v.as_f64()),
        None,
        "burning is a bool, not a number"
    );

    drop(client);
    server.shutdown();
    service.shutdown();
}

/// Acceptance (d): with tracing and scraping fully disabled the solver
/// output is bit-identical to the traced run and to the direct solver —
/// observability changes no result bit.
#[test]
fn disabled_tracing_changes_no_output_bit() {
    let input = noisy(28, 20, 55);
    let params = ChambolleParams::with_iterations(30);
    let expected = SequentialSolver::new().denoise(&input, &params);

    let solve_over = |config: ServiceConfig, tracing: bool| -> Grid<f32> {
        let service = Service::spawn(config);
        let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
        let mut client = ServiceClient::connect(server.local_addr()).unwrap();
        client.set_tracing(tracing);
        let out = match client
            .denoise(&input, &params, Priority::Interactive, None)
            .unwrap()
        {
            wire::WireResponse::Ok { output, trace, .. } => {
                assert_eq!(trace.is_active(), tracing);
                output
            }
            other => panic!("expected ok, got {other:?}"),
        };
        drop(client);
        server.shutdown();
        service.shutdown();
        out
    };

    // Fully instrumented: tracing on, SLOs configured.
    let traced = solve_over(
        ServiceConfig::new(1, 8).with_slo(
            Priority::Interactive,
            SloObjective::new(Duration::from_millis(1), 0.5),
        ),
        true,
    );
    // Fully dark: no trace ring, no SLOs, client minting off.
    let untraced = solve_over(ServiceConfig::new(1, 8).with_trace_ring(0), false);

    assert_eq!(traced.as_slice(), expected.as_slice());
    assert_eq!(untraced.as_slice(), expected.as_slice());
}
