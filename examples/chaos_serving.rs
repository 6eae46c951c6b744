//! Chaos-mode serving demo: a supervised `SolverService` surviving a
//! seeded fault plan.
//!
//! Builds a warm engine over a synthetic triangular system, installs a
//! `FaultPlan` that injects dispatcher panics, admission shedding,
//! worker-spawn failures and post-admission RHS corruption, then runs
//! client traffic through `SolverService::run_supervised` and prints
//! the health transitions plus the final report — every request either
//! served bit-identically to a serial solve or failed with a typed,
//! retryable error, and the report reconciles with the plan's fired
//! counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos_serving
//! ```

use mgpu_sptrsv::prelude::*;
use sptrsv::fault::{self, FaultPlan, FaultSite, ALL_SITES};
use sptrsv::serve::{
    RetryPolicy, ServeError, ServiceConfig, ServiceEngine, ServiceHealth, SolverService,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let seed = 42u64;
    let m = sparsemat::gen::level_structured(&sparsemat::gen::LevelSpec::new(2_000, 40, 12_000, 7));
    let opts = SolveOptions { verify: false, ..SolveOptions::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).expect("engine build");
    println!(
        "factor: n = {}, nnz = {}; audit clean: {}",
        m.n(),
        m.nnz(),
        engine.factor_audit().is_clean()
    );

    // the chaos plan: every probe decision is a pure function of
    // (seed, site, probe index) — rerunning this binary replays the
    // exact same fault schedule
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rate(FaultSite::DispatcherPanic, 0.05)
            .with_budget(FaultSite::DispatcherPanic, 3)
            .with_rate(FaultSite::AdmissionAlloc, 0.05)
            .with_rate(FaultSite::WorkerSpawn, 0.25)
            .with_rate(FaultSite::RhsCorruptNonFinite, 0.02)
            .with_budget(FaultSite::RhsCorruptNonFinite, 4),
    );

    let cfg = ServiceConfig {
        scan_outputs: true,
        supervision_seed: seed,
        max_linger: Duration::from_micros(100),
        ..ServiceConfig::default()
    };

    let n = m.n();
    let report = fault::with_plan(&plan, || {
        let ((), report) =
            SolverService::run_supervised(ServiceEngine::Solver(&engine), &cfg, |svc| {
                let policy = RetryPolicy { seed, ..RetryPolicy::default() };
                let mut served = 0u64;
                let mut nonfinite = 0u64;
                let mut retryable = 0u64;
                let mut shed = 0u64;
                let mut last_health = svc.health();
                println!("health: {last_health:?}");
                for i in 0..400u64 {
                    let b: Vec<f64> = (0..n).map(|j| (i + 1) as f64 + j as f64 * 1e-4).collect();
                    match svc.submit_with_retry(&b, &policy) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(x) => {
                                assert_eq!(x.len(), n);
                                served += 1;
                            }
                            Err(ServeError::Solve(e)) => {
                                println!("request {i}: typed solve error: {e}");
                                nonfinite += 1;
                            }
                            Err(ServeError::Retryable { reason }) => {
                                println!("request {i}: retryable ({reason})");
                                retryable += 1;
                            }
                            Err(e) => println!("request {i}: {e}"),
                        },
                        Err(ServeError::QueueFull { .. }) => shed += 1,
                        Err(e) => println!("request {i}: rejected: {e}"),
                    }
                    let h = svc.health();
                    if h != last_health {
                        println!("health: {last_health:?} -> {h:?}");
                        last_health = h;
                    }
                }
                assert_ne!(svc.health(), ServiceHealth::Draining, "still serving");
                println!(
                    "clients done: {served} served, {nonfinite} non-finite, \
                     {retryable} retryable, {shed} shed after retries"
                );
            })
            .expect("service ran");
        report
    });

    println!("--- final report ---");
    println!("submitted:            {}", report.submitted);
    println!("served:               {}", report.served);
    println!("failed:               {}", report.failed);
    println!("dispatcher restarts:  {}", report.dispatcher_restarts);
    println!("poisoned lanes:       {}", report.poisoned_lanes);
    println!("panel retries:        {}", report.panel_retries);
    println!("admission shed:       {}", report.admission_shed);
    println!("spawn shortfalls:     {}", report.spawn_shortfalls);
    println!("mean panel fill:      {:.2}", report.mean_fill());
    println!("--- fault plan ---");
    for site in ALL_SITES {
        println!(
            "{:<22} probed {:>6}  fired {:>4}",
            site.label(),
            plan.probes(site),
            plan.fired(site)
        );
    }
    assert_eq!(report.dispatcher_restarts, plan.fired(FaultSite::DispatcherPanic));
    assert_eq!(report.admission_shed, plan.fired(FaultSite::AdmissionAlloc));
    println!("report reconciles with the fault plan — chaos contained.");
}
