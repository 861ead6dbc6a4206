//! Serving quickstart: run the denoise service in-process, over TCP, and
//! through deliberate chaos.
//!
//! Spawns the batching service on a small worker pool, submits a burst of
//! requests (which coalesce into shared pool dispatches), makes
//! one framed TCP round-trip against the same service, then rebinds the
//! front-end with deterministic fault injection and shows the resilient
//! client absorbing resets, corruption, and a scripted server panic while
//! health probes watch readiness — and finally drains gracefully and
//! prints the final telemetry report.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::time::Duration;

use chambolle::core::ChambolleParams;
use chambolle::imaging::{NoiseTexture, Scene};
use chambolle::service::{
    wire, ChaosConfig, Priority, Request, ResilientClient, Service, ServiceClient, ServiceConfig,
    TcpServer, Workload,
};
use chambolle::telemetry::Telemetry;

fn main() {
    // A service with 2 pool workers, a queue of 32, batches of up to 8, and
    // a 2-second default deadline for requests that don't set their own.
    let telemetry = Telemetry::null();
    let config = ServiceConfig::new(2, 32)
        .with_max_batch(8)
        .with_default_deadline(Duration::from_secs(2));
    let service = Service::spawn_with_telemetry(config, telemetry);

    // In-process submission: a burst of requests. The micro-batcher
    // coalesces each lane's queued requests, and each response reports the
    // batch it rode in.
    let params = ChambolleParams::with_iterations(40);
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let input = NoiseTexture::new(1000 + i).render(64, 64);
            let priority = if i % 4 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            service
                .handle()
                .submit(Request::new(Workload::Denoise { input, params }).with_priority(priority))
                .expect("queue of 32 admits a burst of 12")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let done = ticket.wait().expect("in-process request must complete");
        println!(
            "request {i:>2}: queue {:>6} us, solve {:>6} us, batch of {}",
            done.queue_us, done.solve_us, done.batch_size
        );
    }

    // The same service behind the framed TCP front-end, on an ephemeral
    // localhost port.
    let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").expect("localhost bind");
    println!("serving on {}", server.local_addr());
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    let input = NoiseTexture::new(7).render(64, 64);
    match client
        .denoise(
            &input,
            &params,
            Priority::Interactive,
            Some(Duration::from_secs(2)),
        )
        .expect("round-trip")
    {
        wire::WireResponse::Ok { output, .. } => {
            println!(
                "tcp round-trip ok: {}x{} denoised",
                output.width(),
                output.height()
            );
        }
        wire::WireResponse::Err { code, message, .. } => {
            println!("tcp request failed ({code:?}): {message}");
        }
        wire::WireResponse::Health { .. } | wire::WireResponse::Metrics { .. } => {
            unreachable!("denoise never yields a health or metrics frame")
        }
    }
    drop(client);
    server.shutdown();

    // Chaos round: the same service behind a front-end that injects
    // deterministic faults — seeded connection resets and bit corruption,
    // plus a scripted server panic on the 2nd solve (after it commits, so
    // the retry is answered from the idempotency cache). The resilient
    // client's retries, breaker, and idempotency keys absorb all of it.
    let chaos = ChaosConfig::quiet(42)
        .with_resets(0.04)
        .with_corruption(0.04)
        .with_panic_on_request(2);
    let chaotic = TcpServer::bind_with_chaos(service.handle().clone(), "127.0.0.1:0", chaos)
        .expect("localhost bind");
    println!("chaos serving on {}", chaotic.local_addr());
    let mut resilient = ResilientClient::connect(chaotic.local_addr()).expect("connect");
    for i in 0..6 {
        let input = NoiseTexture::new(5000 + i).render(64, 64);
        let outcome = resilient
            .denoise(&input, &params, Priority::Interactive, None)
            .expect("retries + idempotent replay must absorb the chaos");
        println!(
            "chaos request {i}: {} attempt(s), tier {}{}",
            outcome.attempts,
            outcome.tier,
            if outcome.recovered {
                " (recovered)"
            } else {
                ""
            },
        );
    }
    let health = resilient.health().expect("health probe");
    println!(
        "health: ready={}, queue {}/{}, completed {}, last solve {:?} ago",
        health.is_ready(),
        health.queue_depth,
        health.queue_capacity,
        health.completed,
        health.last_solve_age,
    );
    let stats = resilient.stats();
    let faults = chaotic.chaos().map_or(0, |injector| injector.fault_count());
    println!(
        "chaos absorbed: {faults} injected fault(s), {} retries, {} recovered, {} breaker open(s)",
        stats.retries, stats.recovered, stats.breaker_opened,
    );
    drop(resilient);
    chaotic.shutdown();

    // Graceful drain: admission stops, in-flight work completes, and the
    // final run report carries the service counters.
    let summary = service.shutdown();
    println!(
        "drained: {} accepted, {} completed, {} batches, 0 lost (in flight: {})",
        summary.stats.accepted,
        summary.stats.completed,
        summary.stats.batches,
        summary.stats.in_flight()
    );
    if let Some(report) = summary.report {
        println!("{}", report.to_json().to_string_pretty());
    }
}
