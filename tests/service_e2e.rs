//! End-to-end tests of the request-service layer: the framed TCP front-end
//! and the deadline/cancellation semantics the service guarantees.

use std::time::Duration;

use chambolle::core::{
    CancelToken, ChambolleParams, ExecCtx, FlowError, SequentialSolver, TvDenoiser, TvL1Params,
    TvL1Solver,
};
use chambolle::imaging::{render_pair, Motion, NoiseTexture, Scene};
use chambolle::service::{
    wire, Priority, Request, Service, ServiceClient, ServiceConfig, TcpServer, Workload,
};

/// A TCP round-trip on an ephemeral port must return the exact bits the
/// sequential solver produces, and both the server and the service must
/// drain cleanly afterwards.
#[test]
fn tcp_round_trip_is_bit_identical_and_drains_cleanly() {
    let input = NoiseTexture::new(404).render(20, 14);
    let params = ChambolleParams::with_iterations(18);

    let service = Service::spawn(ServiceConfig::new(2, 8));
    let server = TcpServer::bind(service.handle().clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "ephemeral bind must resolve a real port");

    let mut client = ServiceClient::connect(addr).unwrap();
    let response = client
        .denoise(&input, &params, Priority::Interactive, None)
        .unwrap();
    let expected = SequentialSolver::new().denoise(&input, &params);
    match response {
        wire::WireResponse::Ok { output, .. } => {
            assert_eq!(
                output.as_slice(),
                expected.as_slice(),
                "wire output must be bit-identical to the in-process solver"
            );
        }
        other => panic!("expected an ok response, got {other:?}"),
    }

    // A second request on the same connection still works (the framing is
    // self-delimiting).
    let again = client
        .denoise(&input, &params, Priority::Batch, None)
        .unwrap();
    assert!(matches!(again, wire::WireResponse::Ok { .. }));

    drop(client);
    server.shutdown();
    let summary = service.shutdown();
    assert_eq!(summary.stats.completed, 2);
    assert_eq!(summary.stats.in_flight(), 0, "drain must lose nothing");
}

/// A cancelled mid-pyramid TV-L1 solve must come back as a clean
/// `Cancelled` error, and the very next solve on the same solver must be
/// bit-identical to a fresh one — no poisoned state survives cancellation.
#[test]
fn cancelled_mid_pyramid_tvl1_leaves_no_poisoned_state() {
    let scene = NoiseTexture::new(99);
    let pair = render_pair(&scene, 48, 36, Motion::Translation { du: 0.8, dv: -0.4 });
    let params = TvL1Params::new(38.0, ChambolleParams::with_iterations(15), 2, 3, 3)
        .expect("valid TV-L1 params");
    let solver = TvL1Solver::sequential(params);

    // A pre-cancelled token aborts at the first outer-iteration boundary —
    // deep inside the pyramid recursion, before any level completes.
    let token = CancelToken::new();
    token.cancel();
    let err = solver
        .flow_with_ctx(
            &pair.i0,
            &pair.i1,
            None,
            &ExecCtx::default().with_cancel(token),
        )
        .expect_err("a cancelled solve must not return a flow");
    assert!(matches!(err, FlowError::Cancelled(_)), "got {err:?}");

    // The same solver instance must now match a fresh solver bit for bit.
    let (after_cancel, _) = solver.flow(&pair.i0, &pair.i1).unwrap();
    let (fresh, _) = TvL1Solver::sequential(params)
        .flow(&pair.i0, &pair.i1)
        .unwrap();
    assert_eq!(after_cancel.u1.as_slice(), fresh.u1.as_slice());
    assert_eq!(after_cancel.u2.as_slice(), fresh.u2.as_slice());
}

/// The same guarantee end-to-end through the service: cancel a queued TV-L1
/// request, then verify the next request on the *same* service produces
/// output bit-identical to a fresh service.
#[test]
fn service_tvl1_after_cancellation_matches_fresh_service() {
    let scene = NoiseTexture::new(7);
    let pair = render_pair(&scene, 40, 30, Motion::Translation { du: 1.0, dv: 0.5 });
    let params = TvL1Params::new(38.0, ChambolleParams::with_iterations(10), 2, 2, 3)
        .expect("valid TV-L1 params");
    let flow_request = || {
        Request::new(Workload::TvL1 {
            i0: pair.i0.clone(),
            i1: pair.i1.clone(),
            params,
        })
    };

    let service = Service::spawn(ServiceConfig::new(2, 8));
    let victim = service.handle().submit(flow_request()).unwrap();
    victim.cancel();
    // Whether the cancel landed while queued, mid-solve, or after the solve
    // finished, the ticket resolves without hanging.
    let _ = victim.wait();

    let follow_up = service.handle().submit(flow_request()).unwrap();
    let served = follow_up.wait().unwrap();
    let summary = service.shutdown();
    assert_eq!(summary.stats.in_flight(), 0);

    let fresh_service = Service::spawn(ServiceConfig::new(2, 8));
    let fresh = fresh_service
        .handle()
        .submit(flow_request())
        .unwrap()
        .wait()
        .unwrap();
    fresh_service.shutdown();

    let served_flow = served.output.as_flow().unwrap();
    let fresh_flow = fresh.output.as_flow().unwrap();
    assert_eq!(
        served_flow.u1.as_slice(),
        fresh_flow.u1.as_slice(),
        "post-cancel service output must be bit-identical to a fresh service"
    );
    assert_eq!(served_flow.u2.as_slice(), fresh_flow.u2.as_slice());
}

/// A request whose deadline has already passed when the dispatcher reaches
/// it resolves to `DeadlineExceeded` without consuming solver time, and the
/// accounting still balances.
#[test]
fn expired_deadline_resolves_without_losing_accounting() {
    let input = NoiseTexture::new(31).render(64, 64);
    let service = Service::spawn(ServiceConfig::new(1, 8).with_max_batch(1));
    // Occupy the dispatcher long enough for the 1 ms deadline to expire in
    // the queue.
    let blocker = service
        .handle()
        .submit(Request::new(Workload::Denoise {
            input: input.clone(),
            params: ChambolleParams::with_iterations(200),
        }))
        .unwrap();
    let doomed = service
        .handle()
        .submit(
            Request::new(Workload::Denoise {
                input: input.clone(),
                params: ChambolleParams::with_iterations(200),
            })
            .with_deadline(Duration::from_millis(1)),
        )
        .unwrap();
    assert_eq!(
        doomed.wait().unwrap_err(),
        chambolle::service::ServiceError::DeadlineExceeded
    );
    blocker.wait().unwrap();
    let summary = service.shutdown();
    assert_eq!(summary.stats.deadline_exceeded, 1);
    assert_eq!(summary.stats.completed, 1);
    assert_eq!(summary.stats.in_flight(), 0);
}
