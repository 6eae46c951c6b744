//! Multi-tenant fleet serving demo: three factors behind one
//! `EngineFleet`, with chaos aimed at a single tenant.
//!
//! Registers three triangular factors by content fingerprint, installs
//! a `FaultPlan` that makes the victim tenant's engine builds panic,
//! then drives client
//! traffic at all three tenants — each `submit` enqueues straight into
//! its tenant's service queue from the calling thread, also while that
//! tenant's engine is still building. The victim's requests resolve to
//! typed errors (`BuildFailed`, `Quarantined`) until its cooldown
//! expires and a clean probe re-admits it; the other tenants serve
//! bit-identically throughout; and the final fleet report shows cache
//! bytes never crossed the budget.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```

use mgpu_sptrsv::prelude::*;
use sptrsv::fault::{self, FaultPlan, FaultSite};
use sptrsv::fleet::{EngineFleet, FleetConfig, FleetError};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let seed = 42u64;
    let tenants: Vec<Arc<CscMatrix>> = (0..3u64)
        .map(|t| {
            Arc::new(sparsemat::gen::level_structured(&sparsemat::gen::LevelSpec::new(
                1_200,
                24,
                6_000,
                7 + t,
            )))
        })
        .collect();

    let cfg = FleetConfig {
        machine: MachineConfig::dgx1(2),
        quarantine_cooldown: Duration::from_millis(100),
        build_backoff: Duration::from_micros(100),
        seed,
        ..FleetConfig::default()
    };
    // serial ground truth per tenant, for the bit-identity check
    let serial: Vec<SolverEngine<'_>> = tenants
        .iter()
        .map(|m| SolverEngine::build(m, cfg.machine.clone(), &cfg.solve).expect("serial engine"))
        .collect();

    // chaos plan aimed at tenant 0: its first build's attempts all
    // panic, quarantining the fingerprint
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rate(FaultSite::EngineBuild, 1.0)
            .with_budget(FaultSite::EngineBuild, u64::from(cfg.build_attempts)),
    );

    let budget = cfg.cache_budget_bytes;
    let report = fault::with_plan(&plan, || {
        let fleet = EngineFleet::new(cfg.clone()).expect("fleet config");
        let fps: Vec<_> = tenants.iter().map(|m| fleet.register(Arc::clone(m))).collect();
        for (t, fp) in fps.iter().enumerate() {
            println!("tenant {t}: fingerprint {fp}");
        }

        let mut served = 0u64;
        let mut typed = 0u64;
        for round in 0..8u64 {
            for (t, m) in tenants.iter().enumerate() {
                let (_, b) = sptrsv::verify::rhs_for(m, 100 * t as u64 + round);
                match fleet.submit(fps[t], &b) {
                    Ok(ticket) => match ticket.wait() {
                        Ok(x) => {
                            assert_eq!(
                                x,
                                serial[t].solve(&b).unwrap().x,
                                "tenant {t} must be bit-identical to its serial solve"
                            );
                            served += 1;
                        }
                        Err(e @ FleetError::BuildFailed { .. }) => {
                            println!("round {round} tenant {t}: {e}");
                            typed += 1;
                        }
                        Err(e) => {
                            println!("round {round} tenant {t}: typed failure: {e}");
                            typed += 1;
                        }
                    },
                    Err(e @ FleetError::Quarantined { .. }) => {
                        println!("round {round} tenant {t}: {e}");
                        typed += 1;
                    }
                    Err(e) => {
                        println!("round {round} tenant {t}: rejected: {e}");
                        typed += 1;
                    }
                }
            }
            if round == 3 {
                // let the victim's quarantine cooldown expire so the
                // re-admission probe lands inside the run
                std::thread::sleep(Duration::from_millis(150));
                println!("health after cooldown:");
                for (fp, h) in fleet.health() {
                    println!("  {fp}: {h:?}");
                }
            }
        }
        println!("clients done: {served} served, {typed} typed failures — zero hangs");

        let report = fleet.report();
        fleet.shutdown();
        report
    });

    println!("--- fleet report ---");
    println!("submitted:             {}", report.submitted);
    println!("served:                {}", report.served);
    println!("failed:                {}", report.failed);
    println!("builds ok/failed:      {}/{}", report.builds_ok, report.builds_failed);
    println!("build retries:         {}", report.build_retries);
    println!("quarantine events:     {}", report.quarantine_events);
    println!("quarantine rejections: {}", report.quarantine_rejections);
    println!("evictions:             {}", report.evictions);
    println!("tenant aborts:         {}", report.tenant_aborts);
    println!("cache bytes high-water: {} / {} budget", report.cache_bytes_high_water, budget);
    println!("--- fault plan ---");
    println!(
        "engine-build probed {} fired {}",
        plan.probes(FaultSite::EngineBuild),
        plan.fired(FaultSite::EngineBuild)
    );

    assert!(report.cache_bytes_high_water <= budget, "byte budget must hold");
    assert_eq!(report.submitted, report.served + report.failed, "no request may leak");
    assert!(plan.fired(FaultSite::EngineBuild) > 0, "the plan must reach the victim's build");
    assert!(report.builds_failed >= 1, "injected build panics must surface");
    println!("chaos contained to the victim tenant — fleet report reconciles.");
}
