//! The serving front-end in action: many client threads, one warm
//! engine, fused panels.
//!
//! A [`sptrsv::serve::SolverService`] sits between concurrent clients
//! and a warm `SolverEngine`: clients `submit(b)` and get a `Ticket`
//! back; a dispatcher coalesces queued right-hand sides into
//! `PANEL_K`-lane fused panels (flushing early when a deadline's slack
//! or the linger window expires — and not lingering at all while
//! recent lingers found no company), so throughput traffic amortizes the
//! factor stream across lanes while latency traffic still gets out
//! fast — and every answer is bit-identical to a serial
//! `engine.solve()` of the same right-hand side.
//!
//! The example runs three scenes:
//!  1. a **throughput flood** — 8 client threads × bursts of requests,
//!     showing the mean panel fill and the wait/solve split;
//!  2. a **latency singleton** — one deadline-tagged request against
//!     an otherwise idle service, flushed ahead of the linger window;
//!  3. **backpressure** — a queue bound small enough to reject, with
//!     the typed `QueueFull` the paper-scale "millions of users" story
//!     needs instead of unbounded buffering.
//!
//! Run with: `cargo run --release --example serving_front_end`

use mgpu_sptrsv::prelude::*;
use sptrsv::serve::{serve_solver, ServeError, ServiceConfig};
use std::time::{Duration, Instant};

fn main() {
    // A 50k-row level-structured lower factor — the shape the paper's
    // §II analysis targets — and a warm engine built once.
    let m =
        sparsemat::gen::level_structured(&sparsemat::gen::LevelSpec::new(50_000, 120, 200_000, 13));
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).expect("engine");
    println!("factor: n = {}, nnz = {}; engine built once", m.n(), m.nnz());

    // --- scene 1: throughput flood ------------------------------------
    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 16;
    let expected: Vec<Vec<f64>> = (0..CLIENTS)
        .map(|c| engine.solve(&sptrsv::verify::rhs_for(&m, 100 + c).1).unwrap().x)
        .collect();
    let cfg = ServiceConfig { max_linger: Duration::from_micros(500), ..Default::default() };
    let t0 = Instant::now();
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let expect = &expected[c as usize];
                let m = &m;
                s.spawn(move || {
                    let (_, b) = sptrsv::verify::rhs_for(m, 100 + c);
                    for _ in 0..PER_CLIENT {
                        let ticket = svc.submit(&b).expect("admitted");
                        let x = ticket.wait().expect("served");
                        assert_eq!(&x, expect, "bit-identical to serial solve()");
                    }
                });
            }
        });
    })
    .expect("service ran");
    let wall = t0.elapsed();
    println!("\nscene 1 — flood: {CLIENTS} clients x {PER_CLIENT} requests in {wall:?}");
    println!(
        "  panels {} | mean fill {:.2} lanes | max fill {} | depth high-water {}",
        report.panels,
        report.mean_fill(),
        report.max_fill,
        report.queue_depth_high_water
    );
    println!(
        "  per-request mean wait {:.1} us | mean panel solve {:.1} us | flushes: {} full / {} linger / {} deadline",
        report.mean_wait_ns() / 1e3,
        report.mean_panel_solve_ns() / 1e3,
        report.full_flushes,
        report.linger_flushes,
        report.deadline_flushes
    );

    // --- scene 2: latency singleton -----------------------------------
    let (_, b) = sptrsv::verify::rhs_for(&m, 7);
    let lazy = ServiceConfig { max_linger: Duration::from_secs(60), ..Default::default() };
    let ((), report) = serve_solver(&engine, &lazy, |svc| {
        let t = Instant::now();
        let ticket = svc
            .submit_with_deadline(&b, Instant::now() + Duration::from_millis(2))
            .expect("admitted");
        ticket.wait().expect("served");
        println!(
            "\nscene 2 — singleton with 2ms deadline served in {:?} (linger window was 60s)",
            t.elapsed()
        );
    })
    .expect("service ran");
    println!(
        "  deadline flushes: {} | deadline misses: {}",
        report.deadline_flushes, report.deadline_misses
    );

    // --- scene 3: backpressure ----------------------------------------
    let tight = ServiceConfig {
        max_queue_requests: 4,
        max_linger: Duration::from_secs(60),
        ..Default::default()
    };
    let ((), report) = serve_solver(&engine, &tight, |svc| {
        let tickets: Vec<_> = (0..4).map(|_| svc.submit(&b).expect("admitted")).collect();
        match svc.submit(&b) {
            Err(ServeError::QueueFull { depth, bytes }) => println!(
                "\nscene 3 — 5th submit rejected: QueueFull {{ depth: {depth}, bytes: {bytes} }} (typed, non-blocking)"
            ),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        svc.flush();
        for t in tickets {
            t.wait().expect("served after flush");
        }
    })
    .expect("service ran");
    println!(
        "  accepted {} | rejected {} | served {} — admission control sheds load instead of buffering it",
        report.submitted, report.rejected_full, report.served
    );
}
