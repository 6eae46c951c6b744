//! Behavior and stress tests for the serving front-end
//! (`sptrsv::serve`): bit-identity of coalesced results against serial
//! `solve()` under many concurrent clients, admission control /
//! backpressure, deadline-aware flushing, ticket semantics, shutdown
//! modes, and pool sharing between the dispatcher and foreground
//! batch work.

use mgpu_sim::MachineConfig;
use sparsemat::factor::ilu0;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::CscMatrix;
use sptrsv::krylov::{pcg, KrylovOptions, PreconditionerEngine};
use sptrsv::serve::{
    serve_preconditioner, serve_solver, ServeError, ServedPreconditioner, ServiceConfig,
    ServiceHealth,
};
use sptrsv::{verify, SolveError, SolveOptions, SolverEngine, SolverKind};
use std::time::{Duration, Instant};

fn engine_fixture() -> (CscMatrix, SolveOptions) {
    let m = gen::level_structured(&LevelSpec::new(1500, 30, 6000, 9));
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    (m, opts)
}

/// The acceptance-criteria stress test: 8 submitter threads, each
/// mixing single submit-then-wait requests with 5-deep bursts and
/// deadline submissions, every result asserted **bit-identical** to
/// serial `engine.solve()` of the same right-hand side — whatever
/// panels the dispatcher coalesced them into.
#[test]
fn stress_many_clients_results_bit_identical_to_serial() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 12;

    // serial ground truth, solved on the warm engine up front
    let expected: Vec<Vec<Vec<f64>>> = (0..CLIENTS)
        .map(|c| {
            (0..PER_CLIENT)
                .map(|k| engine.solve(&verify::rhs_for(&m, 1000 + c * 100 + k).1).unwrap().x)
                .collect()
        })
        .collect();

    let cfg = ServiceConfig { max_linger: Duration::from_micros(300), ..Default::default() };
    let m = &m;
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let expected = &expected[c as usize];
                s.spawn(move || {
                    let mut k = 0u64;
                    while k < PER_CLIENT {
                        let burst = if k.is_multiple_of(2) { 1 } else { 5.min(PER_CLIENT - k) };
                        // a burst submits several tickets before
                        // waiting any — the coalescing opportunity
                        let tickets: Vec<_> = (k..k + burst)
                            .map(|j| {
                                let (_, b) = verify::rhs_for(m, 1000 + c * 100 + j);
                                if j % 3 == 0 {
                                    svc.submit_with_deadline(
                                        &b,
                                        Instant::now() + Duration::from_micros(150),
                                    )
                                    .unwrap()
                                } else {
                                    svc.submit(&b).unwrap()
                                }
                            })
                            .collect();
                        for (j, t) in (k..k + burst).zip(tickets) {
                            let x = t.wait().unwrap();
                            assert_eq!(
                                x, expected[j as usize],
                                "client {c} request {j}: coalesced result must be \
                                 bit-identical to serial solve()"
                            );
                        }
                        k += burst;
                    }
                });
            }
        });
    })
    .unwrap();

    let total = CLIENTS * PER_CLIENT;
    assert_eq!(report.submitted, total);
    assert_eq!(report.served, total);
    assert_eq!(report.failed, 0);
    assert_eq!(report.fill_sum, total, "every lane is a served request");
    assert!(report.panels >= 1 && report.panels <= total);
    assert!(report.max_fill <= cfg.max_lanes);
    assert!(report.queue_depth_high_water >= 1);
}

#[test]
fn queue_full_backpressure_is_typed_and_submit_never_blocks() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 3);
    // linger is effectively infinite and the panel never fills, so the
    // queue holds exactly what we submit until we flush by hand
    let cfg = ServiceConfig {
        max_lanes: 8,
        max_queue_requests: 4,
        max_linger: Duration::from_secs(300),
        ..Default::default()
    };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        let tickets: Vec<_> = (0..4).map(|_| svc.submit(&b).unwrap()).collect();
        let t0 = Instant::now();
        let err = svc.submit(&b).unwrap_err();
        assert!(
            matches!(err, ServeError::QueueFull { depth: 4, .. }),
            "a full queue must reject, got {err:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(60), "submit must not block");
        svc.flush();
        for t in tickets {
            t.wait().unwrap();
        }
    })
    .unwrap();
    assert_eq!(report.rejected_full, 1);
    assert!(report.hint_flushes >= 1, "flush() must be counted: {report:?}");
}

#[test]
fn byte_bound_backpressure() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 4);
    let bytes_per = m.n() * std::mem::size_of::<f64>();
    let cfg = ServiceConfig {
        max_lanes: 8,
        max_queue_bytes: 2 * bytes_per,
        max_linger: Duration::from_secs(300),
        ..Default::default()
    };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        let t1 = svc.submit(&b).unwrap();
        let t2 = svc.submit(&b).unwrap();
        let err = svc.submit(&b).unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { .. }), "{err:?}");
        svc.flush();
        t1.wait().unwrap();
        t2.wait().unwrap();
    })
    .unwrap();
    assert_eq!(report.rejected_full, 1);
    assert_eq!(report.queue_bytes_high_water, 2 * bytes_per);
}

#[test]
fn shutdown_rejects_new_submits_and_drains_queued_work() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 5);
    let expect = engine.solve(&b).unwrap().x;
    let cfg =
        ServiceConfig { max_lanes: 8, max_linger: Duration::from_secs(300), ..Default::default() };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        let t1 = svc.submit(&b).unwrap();
        let t2 = svc.submit(&b).unwrap();
        svc.shutdown();
        let err = svc.submit(&b).unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown), "{err:?}");
        // draining shutdown still completes queued work, bit-identical
        assert_eq!(t1.wait().unwrap(), expect);
        assert_eq!(t2.wait().unwrap(), expect);
    })
    .unwrap();
    assert_eq!(report.rejected_shutdown, 1);
    assert_eq!(report.drained, 2);
    assert_eq!(report.served, 2);
}

#[test]
fn non_draining_shutdown_rejects_queued_work() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 6);
    let cfg = ServiceConfig {
        max_lanes: 8,
        max_linger: Duration::from_secs(300),
        drain_on_shutdown: false,
        ..Default::default()
    };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        let t1 = svc.submit(&b).unwrap();
        let t2 = svc.submit(&b).unwrap();
        svc.shutdown();
        assert!(matches!(t1.wait(), Err(ServeError::ShuttingDown)));
        assert!(matches!(t2.wait(), Err(ServeError::ShuttingDown)));
    })
    .unwrap();
    assert_eq!(report.shutdown_rejected, 2);
    assert_eq!(report.served, 0);
}

/// A flush hint is consumed by whichever pop services it — it must
/// never leak into a later, unrelated panel: after hinted traffic
/// completes, a fresh lone submission lingers until its own trigger.
#[test]
fn flush_hint_does_not_leak_into_the_next_panel() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 12);
    let cfg =
        ServiceConfig { max_lanes: 8, max_linger: Duration::from_secs(300), ..Default::default() };
    serve_solver(&engine, &cfg, |svc| {
        // round 1: a hinted partial panel
        let hinted: Vec<_> = (0..3).map(|_| svc.submit(&b).unwrap()).collect();
        svc.flush();
        for t in hinted {
            t.wait().unwrap();
        }
        // round 2: a lone request must sit in its linger window — no
        // residual hint state may flush it
        let t = svc.submit(&b).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let t = t.try_wait().expect_err("a stale flush hint must not flush a lone request");
        svc.flush();
        t.wait().unwrap();
    })
    .unwrap();
}

/// Shutdown racing a flood: every accepted request is accounted for
/// exactly once — solved before shutdown was observed, or completed
/// with `ShuttingDown` (draining off) — and the report's conservation
/// holds. Regression for the shutdown-vs-full flush ordering: panels
/// still queued when shutdown is observed must be rejected, not
/// solved, when draining is off.
#[test]
fn rapid_shutdown_conserves_every_request() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 13);
    let cfg = ServiceConfig {
        max_lanes: 4,
        max_linger: Duration::from_secs(300),
        drain_on_shutdown: false,
        ..Default::default()
    };
    let ((ok, rejected), report) = serve_solver(&engine, &cfg, |svc| {
        let tickets: Vec<_> = (0..12).map(|_| svc.submit(&b).unwrap()).collect();
        svc.shutdown();
        let mut ok = 0u64;
        let mut rejected = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(_) => ok += 1,
                Err(ServeError::ShuttingDown) => rejected += 1,
                Err(e) => panic!("unexpected completion: {e:?}"),
            }
        }
        (ok, rejected)
    })
    .unwrap();
    assert_eq!(ok + rejected, 12, "every accepted request completes exactly once");
    assert_eq!(report.served, ok);
    assert_eq!(report.shutdown_rejected, rejected);
    assert_eq!(report.submitted, 12);
    assert_eq!(report.drained, 0, "draining is off");
}

#[test]
fn deadline_flushes_a_partial_panel_early() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 7);
    let expect = engine.solve(&b).unwrap().x;
    // without the deadline this panel would linger for five minutes
    let cfg =
        ServiceConfig { max_lanes: 8, max_linger: Duration::from_secs(300), ..Default::default() };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        let t0 = Instant::now();
        let t = svc.submit_with_deadline(&b, Instant::now() + Duration::from_millis(5)).unwrap();
        assert_eq!(t.wait().unwrap(), expect);
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "a deadline submission must flush long before the linger window"
        );
    })
    .unwrap();
    assert!(report.deadline_flushes >= 1, "{report:?}");
}

#[test]
fn ticket_try_wait_and_wait_timeout_round_trip() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 8);
    let expect = engine.solve(&b).unwrap().x;
    let cfg = ServiceConfig {
        max_lanes: 8,
        max_queue_requests: 16,
        max_linger: Duration::from_secs(300),
        ..Default::default()
    };
    serve_solver(&engine, &cfg, |svc| {
        let t = svc.submit(&b).unwrap();
        // nothing will flush this panel for minutes, so the
        // non-blocking and bounded waits must come back unfinished
        let t = t.try_wait().expect_err("must still be pending");
        let t = t
            .wait_timeout(Duration::from_millis(20))
            .expect_err("20ms cannot outlast a 300s linger");
        svc.flush();
        let x = t.wait().unwrap();
        assert_eq!(x, expect);

        // dropping a ticket abandons the request without wedging the
        // service or leaking its slot
        let dropped = svc.submit(&b).unwrap();
        drop(dropped);
        svc.flush();
        let again = svc.submit(&b).unwrap();
        svc.flush();
        assert_eq!(again.wait().unwrap(), expect);
    })
    .unwrap();
}

/// Wide groups dispatch through the engine's pooled batch tier while a
/// foreground thread hammers the same pool with its own batched
/// solves — the scope_run helping discipline must keep both sides
/// making progress (no deadlock), and every result stays bit-identical.
#[test]
fn wide_groups_share_the_worker_pool_with_foreground_batches() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let bs: Vec<Vec<f64>> = (0..24).map(|k| verify::rhs_for(&m, 400 + k).1).collect();
    let expected: Vec<Vec<f64>> = bs.iter().map(|b| engine.solve(b).unwrap().x).collect();
    let cfg = ServiceConfig {
        max_lanes: 24, // ≥ 2 × PANEL_K: the pooled dispatch path
        max_linger: Duration::from_millis(2),
        ..Default::default()
    };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        std::thread::scope(|s| {
            // foreground: direct pooled batches on the same engine
            s.spawn(|| {
                let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
                for _ in 0..3 {
                    engine.solve_batch_into(&bs, &mut outs).unwrap();
                    assert_eq!(outs, expected);
                }
            });
            // served traffic: bursts wide enough to hit the pooled tier
            for _ in 0..2 {
                s.spawn(|| {
                    let tickets: Vec<_> = bs.iter().map(|b| svc.submit(b).unwrap()).collect();
                    for (t, e) in tickets.into_iter().zip(&expected) {
                        assert_eq!(&t.wait().unwrap(), e);
                    }
                });
            }
        });
    })
    .unwrap();
    assert_eq!(report.served, 48);
    assert_eq!(report.failed, 0);
}

#[test]
fn served_preconditioner_keeps_pcg_trajectory_bit_identical() {
    let a = gen::grid_laplacian(14, 11);
    let f = ilu0(&a, 1e-8).unwrap();
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(4), &opts).unwrap();
    let b: Vec<f64> = (0..a.n()).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
    let kopts = KrylovOptions::default();
    let baseline = pcg(&a, &b, &pre, &kopts).unwrap();
    assert!(baseline.converged);

    let cfg = ServiceConfig { max_linger: Duration::from_micros(200), ..Default::default() };
    let (served, report) = serve_preconditioner(&pre, &cfg, |svc| {
        let sp = ServedPreconditioner::new(svc).unwrap();
        std::thread::scope(|s| {
            // foreground traffic shares the service while PCG runs
            s.spawn(|| {
                for k in 0..20u64 {
                    let (_, r) = verify::rhs_for(&f.l, 70 + k);
                    let t = svc.submit(&r).unwrap();
                    t.wait().unwrap();
                }
            });
            pcg(&a, &b, &sp, &kopts).unwrap()
        })
    })
    .unwrap();
    assert_eq!(served.x, baseline.x, "served PCG iterates must be bit-identical");
    assert_eq!(served.residual_history, baseline.residual_history);
    assert_eq!(served.iterations, baseline.iterations);
    assert!(report.served >= served.iterations as u64 + 20);
}

#[test]
fn served_preconditioner_rejects_solver_backed_service() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    serve_solver(&engine, &ServiceConfig::default(), |svc| {
        let err = ServedPreconditioner::new(svc).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err:?}");
    })
    .unwrap();
}

#[test]
fn invalid_configs_are_typed_errors() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let bad = ServiceConfig { max_queue_requests: 0, ..Default::default() };
    let err = serve_solver(&engine, &bad, |_| ()).unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err:?}");
    let bad = ServiceConfig { max_queue_bytes: 0, ..Default::default() };
    let err = serve_solver(&engine, &bad, |_| ()).unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err:?}");
    // a zero lane count is clamped, not fatal
    let clamped = ServiceConfig { max_lanes: 0, ..Default::default() };
    let (_, b) = verify::rhs_for(&m, 11);
    let expect = engine.solve(&b).unwrap().x;
    let ((), report) = serve_solver(&engine, &clamped, |svc| {
        assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), expect);
    })
    .unwrap();
    assert_eq!(report.max_fill, 1);
}

#[test]
fn wrong_length_submission_names_the_buffer() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    serve_solver(&engine, &ServiceConfig::default(), |svc| {
        let err = svc.submit(&[1.0, 2.0]).unwrap_err();
        let ServeError::Solve(inner) = &err else { panic!("expected Solve, got {err:?}") };
        assert!(
            matches!(inner, SolveError::DimensionMismatch { rhs: 2, buffer: "b", .. }),
            "{inner:?}"
        );
        assert!(err.to_string().contains("b has 2 entries"), "{err}");
    })
    .unwrap();
}

/// Regression for the re-waitable ticket contract: a ticket whose
/// `wait_timeout` expired (possibly several times) must keep working —
/// the eventual `wait()` returns the same bit-identical result a
/// never-timed-out wait would have.
#[test]
fn wait_timeout_expiry_then_wait_is_bit_identical() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 21);
    let expect = engine.solve(&b).unwrap().x;
    let cfg = ServiceConfig { max_linger: Duration::from_secs(300), ..Default::default() };
    serve_solver(&engine, &cfg, |svc| {
        let mut t = svc.submit(&b).unwrap();
        // several expired timeouts in a row: each returns the ticket
        // for another try, consuming nothing
        for _ in 0..3 {
            t = t.wait_timeout(Duration::from_millis(5)).expect_err("still lingering");
        }
        svc.flush();
        // and a timeout generous enough to span the flush completes
        // with the exact same bits
        let x = t.wait_timeout(Duration::from_secs(60)).expect("completed").unwrap();
        assert_eq!(x, expect, "re-waited ticket must lose nothing");
    })
    .unwrap();
}

/// A byte budget too small for even one right-hand side would admit
/// nothing forever — that is a configuration bug and must be a typed
/// error at `run()` entry, not an eternal `QueueFull` at runtime.
#[test]
fn byte_budget_below_one_request_is_invalid_config() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let bad = ServiceConfig { max_queue_bytes: m.n() * 8 - 1, ..Default::default() };
    let err = serve_solver(&engine, &bad, |_| ()).unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err:?}");
    // exactly one request's worth is serviceable
    let tight = ServiceConfig { max_queue_bytes: m.n() * 8, ..Default::default() };
    let (_, b) = verify::rhs_for(&m, 31);
    let expect = engine.solve(&b).unwrap().x;
    serve_solver(&engine, &tight, |svc| {
        assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), expect);
    })
    .unwrap();
}

/// The admission guardrail: a right-hand side containing NaN or ±∞ is
/// rejected at submit with a typed `NonFinite` naming buffer `"b"` and
/// the poisoned index — it must never reach a coalesced panel where it
/// could ride with innocent requests.
#[test]
fn nonfinite_rhs_is_rejected_at_admission() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    serve_solver(&engine, &ServiceConfig::default(), |svc| {
        let (_, mut b) = verify::rhs_for(&m, 41);
        b[7] = f64::NAN;
        let err = svc.submit(&b).unwrap_err();
        assert!(
            matches!(err, ServeError::Solve(SolveError::NonFinite { buffer: "b", index: 7 })),
            "{err:?}"
        );
        // two offenders: the refusal names the first, whichever kind
        b[11] = f64::NEG_INFINITY;
        let err = svc.submit(&b).unwrap_err();
        assert!(
            matches!(err, ServeError::Solve(SolveError::NonFinite { buffer: "b", index: 7 })),
            "{err:?}"
        );
        b[7] = 1.0;
        let err = svc.submit(&b).unwrap_err();
        assert!(
            matches!(err, ServeError::Solve(SolveError::NonFinite { buffer: "b", index: 11 })),
            "{err:?}"
        );
        assert_eq!(svc.queue_depth(), 0, "a refused request is never queued");
        // repaired, the same vector is admitted and solved
        b[11] = 1.0;
        let expect = engine.solve(&b).unwrap().x;
        assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), expect);
        assert_eq!(svc.stats().submitted, 1, "only the repaired vector was accepted");
    })
    .unwrap();
}

/// The idle-aware linger, end to end: on a default-shaped service
/// (only `max_linger` raised to 20 ms so the wait is unmistakable) the
/// first lone requests pay the full linger — nothing has shown yet that
/// waiting is futile — and once a short run of them has left alone
/// with an empty queue behind, a lone request on the idle dispatcher is
/// flushed at once. Queue wait is read from the service's own counter,
/// which a panel updates before it wakes its tickets.
#[test]
fn idle_service_stops_lingering_for_lone_requests() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 57);
    let expect = engine.solve(&b).unwrap().x;
    let max_linger = Duration::from_millis(20);
    let cfg = ServiceConfig { max_linger, ..Default::default() };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        let lone_wait = || {
            let before = svc.stats().wait_ns_total;
            assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), expect);
            Duration::from_nanos(svc.stats().wait_ns_total - before)
        };
        assert!(lone_wait() >= max_linger, "a new dispatcher lingers the full wait");
        // warm-up: let the futile run complete, however long it is
        let mut waits: Vec<Duration> = (0..8).map(|_| lone_wait()).collect();
        let settled = waits.split_off(6);
        for w in settled {
            assert!(w < max_linger / 2, "an idle dispatcher must not linger: waited {w:?}");
        }
    })
    .unwrap();
    assert_eq!(report.served, 9);
    assert_eq!(report.linger_flushes, 9, "a zero wait is still a linger flush");
    assert_eq!(report.max_fill, 1);
}

/// `health()` tracks the lifecycle: `Ok` while serving, `Draining`
/// once shutdown begins (the degraded states are exercised by the
/// chaos suite, which can actually provoke them).
#[test]
fn health_reports_ok_then_draining() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    serve_solver(&engine, &ServiceConfig::default(), |svc| {
        assert_eq!(svc.health(), ServiceHealth::Ok);
        svc.shutdown();
        assert_eq!(svc.health(), ServiceHealth::Draining);
    })
    .unwrap();
}

/// `max_linger == 0` is the documented immediate-flush mode: every
/// request dispatches in whatever partial panel is queued, without a
/// flush hint and without waiting on a linger window.
#[test]
fn zero_linger_flushes_immediately() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 51);
    let expect = engine.solve(&b).unwrap().x;
    let cfg = ServiceConfig { max_linger: Duration::ZERO, ..Default::default() };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        for _ in 0..4 {
            // no flush() calls anywhere: completion relies entirely on
            // the immediate-flush semantics
            assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), expect);
        }
    })
    .unwrap();
    assert_eq!(report.served, 4);
    assert_eq!(report.hint_flushes, 0, "no hints were needed");
}

/// The error types form a `std::error::Error` chain: a serving failure
/// exposes the solver error as its `source()`, and a solver failure
/// wrapping a matrix error exposes that — what `anyhow`-style callers
/// walk for root causes.
#[test]
fn serve_errors_expose_sources() {
    use std::error::Error as _;
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    serve_solver(&engine, &ServiceConfig::default(), |svc| {
        let err = svc.submit(&[1.0, 2.0]).unwrap_err();
        let src = err.source().expect("Solve wraps its SolveError");
        assert!(src.downcast_ref::<SolveError>().is_some(), "{src}");
        assert!(ServeError::ShuttingDown.source().is_none(), "leaf errors have no source");
    })
    .unwrap();
}

/// `wait_timeout(Duration::ZERO)` is a pure poll: on a pending ticket
/// it returns `Err(ticket)` without blocking (bounded well under the
/// panel's linger), and once the request completes the same call
/// returns the bit-exact result.
#[test]
fn wait_timeout_zero_is_a_nonblocking_poll() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 21);
    let expect = engine.solve(&b).unwrap().x;
    let cfg = ServiceConfig {
        max_lanes: 8,
        max_queue_requests: 16,
        max_linger: Duration::from_secs(300),
        ..Default::default()
    };
    serve_solver(&engine, &cfg, |svc| {
        let t = svc.submit(&b).unwrap();
        // nothing flushes for minutes: a zero-timeout wait must come
        // back pending, and promptly
        let t0 = Instant::now();
        let mut t = t.wait_timeout(Duration::ZERO).expect_err("must still be pending");
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "Duration::ZERO must not block on the linger window"
        );
        svc.flush();
        // poll to completion: ZERO keeps returning the live ticket
        // until the result lands, then yields it intact
        let x = loop {
            match t.wait_timeout(Duration::ZERO) {
                Ok(r) => break r.unwrap(),
                Err(pending) => {
                    t = pending;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(x, expect, "a polled result must be bit-identical");
    })
    .unwrap();
}

/// Shutdown racing in-flight panels, both modes: client threads are
/// mid-burst when another thread begins shutdown, so some requests are
/// in panels, some queued, some rejected at the door. In both modes the
/// report must reconcile exactly — every accepted request completes
/// exactly once (`submitted == served + failed + shutdown_rejected`),
/// drained work is a subset of served, and with draining on nothing is
/// shutdown-rejected.
#[test]
fn shutdown_racing_inflight_panels_reconciles_in_both_modes() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    for drain in [true, false] {
        let cfg = ServiceConfig {
            max_lanes: 4,
            max_linger: Duration::from_micros(50),
            drain_on_shutdown: drain,
            ..Default::default()
        };
        let (accepted, report) = serve_solver(&engine, &cfg, |svc| {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..4u64)
                    .map(|c| {
                        let (m, engine) = (&m, &engine);
                        s.spawn(move || {
                            let mut accepted = 0u64;
                            for k in 0..16u64 {
                                let (_, b) = verify::rhs_for(m, 3000 + 100 * c + k);
                                match svc.submit(&b) {
                                    Ok(t) => {
                                        accepted += 1;
                                        match t.wait() {
                                            Ok(x) => assert_eq!(
                                                x,
                                                engine.solve(&b).unwrap().x,
                                                "served mid-shutdown must stay bit-identical"
                                            ),
                                            Err(ServeError::ShuttingDown) => assert!(
                                                !drain,
                                                "draining mode must not reject queued work"
                                            ),
                                            Err(e) => panic!("unexpected completion: {e}"),
                                        }
                                    }
                                    Err(ServeError::ShuttingDown) => {}
                                    Err(ServeError::QueueFull { .. }) => {}
                                    Err(e) => panic!("unexpected submit error: {e}"),
                                }
                            }
                            accepted
                        })
                    })
                    .collect();
                // begin shutdown while the bursts are in flight
                std::thread::sleep(Duration::from_millis(2));
                svc.shutdown();
                workers.into_iter().map(|w| w.join().unwrap()).sum::<u64>()
            })
        })
        .unwrap();
        assert_eq!(report.submitted, accepted, "drain={drain}");
        assert_eq!(
            report.submitted,
            report.served + report.failed + report.shutdown_rejected,
            "drain={drain}: accepted work must complete exactly once: {report:?}"
        );
        assert!(report.drained <= report.served, "drain={drain}");
        if drain {
            assert_eq!(report.shutdown_rejected, 0, "draining mode rejects nothing: {report:?}");
        }
        assert!(
            report.rejected_shutdown + report.submitted >= 4,
            "drain={drain}: the race must exercise the shutdown path"
        );
    }
}

/// Value refresh under live traffic: client threads stream requests
/// while the main thread swaps in new factor values mid-stream. Every
/// ticket must resolve against exactly one value epoch — each result
/// is bit-identical to either the old-epoch or the new-epoch warm
/// solve, never a mix — and anything submitted after `refresh_solver`
/// returns must see the new values.
#[test]
fn refresh_solver_under_live_traffic_serves_exactly_one_epoch_per_ticket() {
    let (m, opts) = engine_fixture();
    let mut m2 = m.clone();
    for (i, v) in m2.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 7) as f64) * 0.01;
    }
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    // new-epoch ground truth from a cold build; old-epoch ground truth
    // from the served engine itself, solved before the service starts
    let cold2 = SolverEngine::build(&m2, MachineConfig::dgx1(4), &opts).unwrap();
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 10;
    let rhs = |c: u64, k: u64| verify::rhs_for(&m, 5000 + c * 100 + k).1;
    let old_x: Vec<Vec<Vec<f64>>> = (0..CLIENTS)
        .map(|c| (0..PER_CLIENT).map(|k| engine.solve(&rhs(c, k)).unwrap().x).collect())
        .collect();
    let new_x: Vec<Vec<Vec<f64>>> = (0..CLIENTS)
        .map(|c| (0..PER_CLIENT).map(|k| cold2.solve(&rhs(c, k)).unwrap().x).collect())
        .collect();

    let cfg = ServiceConfig { max_linger: Duration::from_micros(200), ..Default::default() };
    let m = &m;
    let m2 = &m2;
    let cold2 = &cold2;
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (old_x, new_x) = (&old_x[c as usize], &new_x[c as usize]);
                s.spawn(move || {
                    for k in 0..PER_CLIENT {
                        let (_, b) = verify::rhs_for(m, 5000 + c * 100 + k);
                        let x = svc.submit(&b).unwrap().wait().unwrap();
                        let (ok, nk) = (k as usize, k as usize);
                        assert!(
                            x == old_x[ok] || x == new_x[nk],
                            "client {c} request {k}: result must match exactly one \
                             value epoch, never a torn mix"
                        );
                    }
                });
            }
            // refresh while the clients are mid-stream
            std::thread::sleep(Duration::from_millis(1));
            let rep = svc.refresh_solver(m2).unwrap();
            assert_eq!(rep.value_epoch, 1);
            assert!(rep.audit.is_clean());
            // anything submitted after the refresh returned is
            // guaranteed the new epoch
            let (_, b) = verify::rhs_for(m, 9_999);
            let x = svc.submit(&b).unwrap().wait().unwrap();
            assert_eq!(x, cold2.solve(&b).unwrap().x, "post-refresh tickets see new values");
        });
    })
    .unwrap();
    assert_eq!(report.value_refreshes, 1, "{report:?}");
    assert_eq!(report.refresh_failures, 0, "{report:?}");
    assert_eq!(report.failed, 0, "{report:?}");
    assert_eq!(report.served, CLIENTS * PER_CLIENT + 1);
    assert_eq!(engine.value_epoch(), 1, "the refresh lands in the underlying engine");
}

/// The refresh entry points are arm-checked and failure-counted: a
/// solver-backed service rejects `refresh_preconditioner` (and vice
/// versa) with a typed config error, and a rejected refresh leaves the
/// old epoch serving bit-identically while `refresh_failures` ticks.
#[test]
fn refresh_cross_arm_and_rejections_are_typed() {
    let (m, opts) = engine_fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 41);
    let expect = engine.solve(&b).unwrap().x;
    let f = ilu0(&gen::grid_laplacian(6, 5), 1e-8).unwrap();
    let mut poisoned = m.clone();
    let mid = poisoned.nnz() / 2;
    poisoned.values_mut()[mid] = f64::NAN;
    let ((), report) = serve_solver(&engine, &ServiceConfig::default(), |svc| {
        let err = svc.refresh_preconditioner(&f).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err:?}");
        // a non-finite replacement value is rejected before any
        // mutation — the old epoch keeps serving, bit-identically
        let err = svc.refresh_solver(&poisoned).unwrap_err();
        assert!(
            matches!(err, ServeError::Solve(SolveError::Matrix(_))),
            "poisoned values must surface the typed matrix error, got {err:?}"
        );
        assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), expect);
    })
    .unwrap();
    assert_eq!(report.value_refreshes, 0);
    assert_eq!(report.refresh_failures, 1, "{report:?}");
    assert_eq!(engine.value_epoch(), 0, "a rejected refresh must not bump the epoch");

    // the preconditioner arm, including a successful pair refresh
    let a = gen::grid_laplacian(14, 11);
    let f = ilu0(&a, 1e-8).unwrap();
    let mut a2 = a.clone();
    for (i, v) in a2.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 5) as f64) * 0.004;
    }
    let mut f2 = ilu0(&a, 1e-8).unwrap();
    sparsemat::factor::ilu0_refactor(&mut f2, &a2).unwrap();
    let popts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(4), &popts).unwrap();
    let pre2 = PreconditionerEngine::from_ilu0(&f2, MachineConfig::dgx1(4), &popts).unwrap();
    let (_, r) = verify::rhs_for(&f.l, 77);
    let expect2 = pre2.apply(&r).unwrap();
    let ((), report) = serve_preconditioner(&pre, &ServiceConfig::default(), |svc| {
        let err = svc.refresh_solver(&m).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err:?}");
        let (l_rep, u_rep) = svc.refresh_preconditioner(&f2).unwrap();
        assert_eq!((l_rep.value_epoch, u_rep.value_epoch), (1, 1));
        let z = svc.submit(&r).unwrap().wait().unwrap();
        assert_eq!(z, expect2, "the served pair must apply the refreshed values");
    })
    .unwrap();
    assert_eq!(report.value_refreshes, 1, "{report:?}");
    assert_eq!(report.refresh_failures, 0, "{report:?}");
}
