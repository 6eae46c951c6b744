//! The served paths never simulate: an engine runs its calibration
//! simulation only when `solve()`, `calibration()` or `cross_edges()`
//! asks for it, so a fleet tenant, a `serve_solver` service and a PCG
//! solve over a `PreconditionerEngine` — none of which reads a
//! calibration — leave `exec::calibrations()` where it was.
//!
//! The counter is process wide, so this binary holds a single test and
//! nothing else in it calibrates.

mod common;

use common::{one_engine_budget, with_watchdog};
use mgpu_sim::MachineConfig;
use sparsemat::factor::ilu0;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::CscMatrix;
use sptrsv::fleet::{EngineFleet, FleetConfig};
use sptrsv::{
    exec, pcg, serve_solver, verify, KrylovOptions, PreconditionerEngine, ServiceConfig,
    SolveOptions, SolverEngine, SolverKind,
};
use std::sync::Arc;

fn tenant_matrix(seed: u64) -> Arc<CscMatrix> {
    Arc::new(gen::level_structured(&LevelSpec::new(600, 20, 2500, seed)))
}

#[test]
fn built_served_refreshed_and_evicted_engines_never_calibrate() {
    with_watchdog(120, || {
        let before = exec::calibrations();
        let opts = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };

        // a fleet tenant: built, served, refreshed, then evicted by a
        // second tenant under a one-engine budget
        let (a, b) = (tenant_matrix(1), tenant_matrix(2));
        let mut cfg = FleetConfig {
            machine: MachineConfig::dgx1(2),
            solve: SolveOptions { verify: false, ..opts.clone() },
            ..FleetConfig::default()
        };
        cfg.cache_budget_bytes = one_engine_budget(&a, &cfg);
        let fleet = EngineFleet::new(cfg).unwrap();
        let (fa, fb) = (fleet.register(Arc::clone(&a)), fleet.register(Arc::clone(&b)));
        fleet.submit(fa, &verify::rhs_for(&a, 1).1).unwrap().wait().unwrap();
        fleet.refresh_tenant(fa, Arc::clone(&a)).unwrap();
        fleet.submit(fa, &verify::rhs_for(&a, 2).1).unwrap().wait().unwrap();
        fleet.submit(fb, &verify::rhs_for(&b, 3).1).unwrap().wait().unwrap();
        let report = fleet.report();
        assert_eq!((report.evictions, report.value_refreshes), (1, 1), "{report:?}");
        fleet.shutdown();
        assert_eq!(exec::calibrations(), before, "a fleet tenant simulated");

        // a bare service over one engine
        let engine = SolverEngine::build(&a, MachineConfig::dgx1(4), &opts).unwrap();
        let (x, _) = serve_solver(&engine, &ServiceConfig::default(), |svc| {
            svc.submit(&verify::rhs_for(&a, 4).1).unwrap().wait().unwrap()
        })
        .unwrap();
        assert_eq!(x.len(), a.n());
        assert_eq!(exec::calibrations(), before, "a served engine simulated");

        // PCG over an ILU(0) engine pair
        let grid = gen::grid_laplacian(24, 24);
        let factors = ilu0(&grid, 1e-8).unwrap();
        let pre = PreconditionerEngine::from_ilu0(&factors, MachineConfig::dgx1(4), &opts).unwrap();
        let rhs = vec![1.0; grid.n()];
        let krylov = KrylovOptions { max_iterations: 200, rel_tol: 1e-8 };
        assert!(pcg(&grid, &rhs, &pre, &krylov).unwrap().converged);
        assert_eq!(exec::calibrations(), before, "a PCG solve simulated");

        // the counter does count: the engine's first `solve()` simulates
        engine.solve(&verify::rhs_for(&a, 5).1).unwrap();
        engine.solve(&verify::rhs_for(&a, 6).1).unwrap();
        assert_eq!(exec::calibrations(), before + 1, "one calibration per engine");
    });
}
