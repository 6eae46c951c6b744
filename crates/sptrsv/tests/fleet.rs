//! Behavior tests for the multi-tenant engine fleet (`sptrsv::fleet`):
//! fingerprint routing, multi-tenant bit-identity against serial
//! `solve()`, the byte-bounded LRU factor cache (eviction order,
//! pinning, typed `CacheFull`), per-tenant admission budgets, and the
//! health / report surfaces. The containment sweeps under injected faults
//! live in `tests/chaos.rs`.

mod common;

use common::{matrix_bytes, one_engine_budget, with_watchdog};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mgpu_sim::MachineConfig;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, FactorFingerprint};
use sptrsv::fleet::{EngineFleet, FleetConfig, FleetError, TenantHealth};
use sptrsv::{verify, ServiceConfig, SolveOptions, SolverEngine, SolverKind};

fn tenant_matrix(seed: u64) -> Arc<CscMatrix> {
    Arc::new(gen::level_structured(&LevelSpec::new(600, 20, 2500, seed)))
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        machine: MachineConfig::dgx1(2),
        solve: SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            verify: false,
            ..SolveOptions::default()
        },
        ..FleetConfig::default()
    }
}

/// Serial ground truth for one tenant's right-hand side.
fn serial_solution(m: &CscMatrix, cfg: &FleetConfig, b: &[f64]) -> Vec<f64> {
    let engine = SolverEngine::build(m, cfg.machine.clone(), &cfg.solve).unwrap();
    engine.solve(b).unwrap().x
}

#[test]
fn unknown_fingerprint_is_a_typed_error() {
    let fleet = EngineFleet::new(fleet_config()).unwrap();
    let bogus = FactorFingerprint { structural: 0xDEAD, values: 0xBEEF, epoch: 0 };
    match fleet.submit(bogus, &[1.0; 8]) {
        Err(FleetError::UnknownFactor { fingerprint }) => assert_eq!(fingerprint, bogus),
        other => panic!("expected UnknownFactor, got {other:?}"),
    }
}

#[test]
fn wrong_dimension_is_a_typed_error_cold_and_warm() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg).unwrap();
    let m = tenant_matrix(3);
    let fp = fleet.register(Arc::clone(&m));
    // cold: no engine exists yet
    assert!(matches!(
        fleet.submit(fp, &[1.0; 7]),
        Err(FleetError::Serve(sptrsv::ServeError::Solve(
            sptrsv::SolveError::DimensionMismatch { .. }
        )))
    ));
    // warm the tenant, then hit the warm-path check
    let (_, b) = verify::rhs_for(&m, 1);
    fleet.submit(fp, &b).unwrap().wait().unwrap();
    assert!(matches!(
        fleet.submit(fp, &[1.0; 7]),
        Err(FleetError::Serve(sptrsv::ServeError::Solve(
            sptrsv::SolveError::DimensionMismatch { .. }
        )))
    ));
}

/// The core promise: three tenants with different factors, interleaved
/// submissions from several client threads, every result bit-identical
/// to a serial `SolverEngine::solve` of the same (factor, rhs) pair.
#[test]
fn multi_tenant_results_bit_identical_to_serial() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let matrices: Vec<Arc<CscMatrix>> = (0..3).map(|t| tenant_matrix(10 + t)).collect();
    let fps: Vec<FactorFingerprint> =
        matrices.iter().map(|m| fleet.register(Arc::clone(m))).collect();

    const PER_TENANT: u64 = 6;
    let expected: Vec<Vec<Vec<f64>>> = matrices
        .iter()
        .enumerate()
        .map(|(t, m)| {
            (0..PER_TENANT)
                .map(|k| {
                    let (_, b) = verify::rhs_for(m, 100 * t as u64 + k);
                    serial_solution(m, &cfg, &b)
                })
                .collect()
        })
        .collect();

    std::thread::scope(|s| {
        for (t, m) in matrices.iter().enumerate() {
            let fleet = &fleet;
            let fps = &fps;
            let expected = &expected[t];
            s.spawn(move || {
                for k in 0..PER_TENANT {
                    let (_, b) = verify::rhs_for(m, 100 * t as u64 + k);
                    let x = fleet.submit(fps[t], &b).unwrap().wait().unwrap();
                    assert_eq!(x, expected[k as usize], "tenant {t} rhs {k} diverged");
                }
            });
        }
    });

    let report = fleet.report();
    assert_eq!(report.submitted, 3 * PER_TENANT);
    assert_eq!(report.served, 3 * PER_TENANT);
    assert_eq!(report.failed, 0);
    assert_eq!(report.builds_ok, 3);
    assert_eq!(report.tenants_live, 3);
    assert!(report.cache_bytes_high_water <= report.cache_budget_bytes);
}

/// Squeezing the budget to ~one engine forces the LRU to cycle: each
/// new tenant evicts the coldest idle one, results stay bit-identical,
/// and live bytes never cross the budget.
#[test]
fn lru_evicts_coldest_idle_engine_under_a_tight_budget() {
    let mut cfg = fleet_config();
    let matrices: Vec<Arc<CscMatrix>> = (0..3).map(|t| tenant_matrix(20 + t)).collect();
    // every tenant switch must evict
    cfg.cache_budget_bytes = one_engine_budget(&matrices[0], &cfg);
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let fps: Vec<FactorFingerprint> =
        matrices.iter().map(|m| fleet.register(Arc::clone(m))).collect();

    for round in 0..2 {
        for (t, m) in matrices.iter().enumerate() {
            let (_, b) = verify::rhs_for(m, 500 + t as u64);
            let x = fleet.submit(fps[t], &b).unwrap().wait().unwrap();
            assert_eq!(x, serial_solution(m, &cfg, &b), "round {round} tenant {t}");
            let report = fleet.report();
            assert!(report.cache_bytes <= report.cache_budget_bytes);
            assert!(report.cache_bytes_high_water <= report.cache_budget_bytes);
        }
    }
    let report = fleet.report();
    // 6 cold admissions total (every switch rebuilds), so at least 5
    // evictions cycled the single-engine cache
    assert_eq!(report.builds_ok, 6);
    assert!(report.evictions >= 5, "expected the LRU to cycle, got {report:?}");
    assert_eq!(report.tenants_live, 1);
}

/// A budget smaller than one engine can never admit anything: typed
/// `CacheFull`, not a hang or a budget violation.
#[test]
fn budget_smaller_than_one_engine_is_cache_full() {
    let mut cfg = fleet_config();
    cfg.cache_budget_bytes = 1024;
    let fleet = EngineFleet::new(cfg).unwrap();
    let m = tenant_matrix(30);
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 1);
    match fleet.submit(fp, &b) {
        Err(FleetError::CacheFull { needed_bytes, budget_bytes }) => {
            assert_eq!(budget_bytes, 1024);
            assert!(needed_bytes > budget_bytes);
        }
        other => panic!("expected CacheFull, got {other:?}"),
    }
    assert_eq!(fleet.report().cache_bytes, 0);
}

/// Per-tenant admission budgets isolate a flooding client: the flooded
/// tenant sheds with `TenantQueueFull` while a second tenant keeps
/// serving bit-identically.
#[test]
fn tenant_budget_sheds_without_touching_other_tenants() {
    let mut cfg = fleet_config();
    cfg.max_tenant_requests = 1;
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let flooded = tenant_matrix(40);
    let healthy = tenant_matrix(41);
    let fp_flood = fleet.register(Arc::clone(&flooded));
    let fp_ok = fleet.register(Arc::clone(&healthy));

    let (_, bf) = verify::rhs_for(&flooded, 7);
    // warm the flooded tenant first so the budget applies to a live queue
    fleet.submit(fp_flood, &bf).unwrap().wait().unwrap();

    // saturate: with a budget of one, burst submits must shed
    let mut shed = 0u64;
    let mut tickets = Vec::new();
    for _ in 0..64 {
        match fleet.submit(fp_flood, &bf) {
            Ok(t) => tickets.push(t),
            Err(FleetError::TenantQueueFull { .. }) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(shed > 0, "a 1-request budget must shed a 64-deep burst");
    assert_eq!(fleet.report().tenant_shed, shed);

    // the other tenant is untouched by the flood
    let (_, bh) = verify::rhs_for(&healthy, 8);
    let x = fleet.submit(fp_ok, &bh).unwrap().wait().unwrap();
    assert_eq!(x, serial_solution(&healthy, &cfg, &bh));

    for t in tickets {
        t.wait().unwrap();
    }
}

/// Ticket surface: `wait_timeout(ZERO)` polls without blocking and
/// returns the live ticket; waiting afterwards yields the bit-exact
/// result. After shutdown, submits are typed `ShuttingDown`.
#[test]
fn ticket_polling_and_shutdown_semantics() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(50);
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 3);

    let mut ticket = fleet.submit(fp, &b).unwrap();
    let x = loop {
        match ticket.wait_timeout(Duration::ZERO) {
            Ok(r) => break r.unwrap(),
            Err(t) => {
                ticket = t;
                std::thread::yield_now();
            }
        }
    };
    assert_eq!(x, serial_solution(&m, &cfg, &b));

    fleet.shutdown();
    assert!(matches!(fleet.submit(fp, &b), Err(FleetError::ShuttingDown)));
    let report = fleet.report();
    assert_eq!(report.tenants_live, 0);
    assert_eq!(report.cache_bytes, 0, "shutdown must release every charged byte");
}

/// Health surface: a building tenant reports `Building`, a serving one
/// `Ok`, and the listing is sorted by fingerprint.
#[test]
fn health_reports_building_then_ok_sorted() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg).unwrap();
    let ms: Vec<Arc<CscMatrix>> = (0..2).map(|t| tenant_matrix(60 + t)).collect();
    let mut fps: Vec<FactorFingerprint> =
        ms.iter().map(|m| fleet.register(Arc::clone(m))).collect();
    let tickets: Vec<_> = ms
        .iter()
        .zip(&fps)
        .map(|(m, fp)| fleet.submit(*fp, &verify::rhs_for(m, 9).1).unwrap())
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let health = fleet.health();
    assert_eq!(health.len(), 2);
    fps.sort();
    for ((fp, h), want) in health.iter().zip(&fps) {
        assert_eq!(fp, want, "health listing must be fingerprint-sorted");
        assert!(
            matches!(h, TenantHealth::Ok | TenantHealth::Degraded { .. }),
            "served tenant should be live, got {h:?}"
        );
    }
}

/// Same pattern, new values.
fn perturbed(m: &CscMatrix) -> Arc<CscMatrix> {
    let mut m2 = m.clone();
    for (i, v) in m2.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 7) as f64) * 0.01;
    }
    Arc::new(m2)
}

/// The in-place tentpole at fleet level: refreshing a live tenant
/// swaps values on its warm engine — no second tenant, no rebuild —
/// and subsequent results are bit-identical to a serial solve of the
/// new values under the **same** routing key.
#[test]
fn refresh_tenant_live_swaps_values_without_a_rebuild() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(80);
    let m2 = perturbed(&m);
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 6);
    let x_old = fleet.submit(fp, &b).unwrap().wait().unwrap();
    assert_eq!(x_old, serial_solution(&m, &cfg, &b));
    assert_eq!(fleet.tenant_value_epoch(fp), Some(0));

    let report = fleet.refresh_tenant(fp, Arc::clone(&m2)).unwrap();
    assert_eq!(report.value_epoch, 1);
    assert!(report.audit.is_clean());
    assert_eq!(fleet.tenant_value_epoch(fp), Some(1));

    let x_new = fleet.submit(fp, &b).unwrap().wait().unwrap();
    assert_eq!(x_new, serial_solution(&m2, &cfg, &b), "refreshed tenant must serve new values");
    assert_ne!(x_new, x_old);

    let r = fleet.report();
    assert_eq!(r.builds_ok, 1, "a value refresh must not rebuild the engine");
    assert_eq!(r.value_refreshes, 1);
    assert_eq!(r.refresh_failures, 0);
    assert_eq!(r.tenants_live, 1, "still one tenant — refresh must not spawn a second");
    assert!(r.cache_bytes <= r.cache_budget_bytes);
}

/// A refreshed live tenant keeps two matrices alive — the one its
/// engine was built over and the stored factor that replaced it — and
/// the cache charges both, plus the engine with its spare epoch.
#[test]
fn refresh_tenant_charges_both_live_matrices() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(82);
    let m2 = perturbed(&m);
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 6);
    fleet.submit(fp, &b).unwrap().wait().unwrap();
    fleet.refresh_tenant(fp, Arc::clone(&m2)).unwrap();

    let side = SolverEngine::build(&m, cfg.machine.clone(), &cfg.solve).unwrap();
    side.refresh_values(&m2).unwrap();
    let r = fleet.report();
    assert_eq!(r.cache_bytes, matrix_bytes(&m) + matrix_bytes(&m2) + side.footprint_bytes());
    assert!(r.cache_bytes <= r.cache_budget_bytes);
}

/// A refresh issued while the tenant is still building waits for the
/// build and lands on the engine it produced: no second build, and the
/// next request serves the new values.
#[test]
fn refresh_tenant_right_after_a_cold_submit_lands_on_the_built_engine() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(84);
    let m2 = perturbed(&m);
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 5);
    let (old, new) = (serial_solution(&m, &cfg, &b), serial_solution(&m2, &cfg, &b));
    with_watchdog(60, || {
        let cold = fleet.submit(fp, &b).unwrap();
        let report = fleet.refresh_tenant(fp, Arc::clone(&m2)).unwrap();
        assert_eq!(report.value_epoch, 1);
        assert_eq!(fleet.tenant_value_epoch(fp), Some(1));
        let x = cold.wait().unwrap();
        assert!(x == old || x == new, "the cold request rides exactly one epoch");
        assert_eq!(fleet.submit(fp, &b).unwrap().wait().unwrap(), new);
    });
    let r = fleet.report();
    assert_eq!((r.builds_started, r.builds_ok, r.value_refreshes), (1, 1, 1));
}

/// Refresh rejections are typed and harmless: unknown fingerprints,
/// structure drift and poisoned values all leave the tenant serving
/// the old epoch bit-identically.
#[test]
fn refresh_tenant_rejections_are_typed_and_leave_old_values_serving() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(90);
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 2);
    let x_old = fleet.submit(fp, &b).unwrap().wait().unwrap();

    let bogus = FactorFingerprint { structural: 1, values: 2, epoch: 3 };
    assert!(matches!(
        fleet.refresh_tenant(bogus, Arc::clone(&m)),
        Err(FleetError::UnknownFactor { .. })
    ));

    // different sparsity pattern, same dimension: typed drift rejection
    let drifted = Arc::new(gen::banded_lower(m.n(), 5, 3.0, 90));
    assert!(matches!(
        fleet.refresh_tenant(fp, drifted),
        Err(FleetError::Serve(sptrsv::ServeError::Solve(
            sptrsv::SolveError::StructureMismatch { .. }
        )))
    ));

    // same pattern, poisoned values: the audit rejects before mutation
    let mut poisoned = (*m).clone();
    let mid = poisoned.nnz() / 2;
    poisoned.values_mut()[mid] = f64::NAN;
    assert!(matches!(
        fleet.refresh_tenant(fp, Arc::new(poisoned)),
        Err(FleetError::Serve(sptrsv::ServeError::Solve(sptrsv::SolveError::Matrix(_))))
    ));

    assert_eq!(fleet.tenant_value_epoch(fp), Some(0), "no rejected refresh may bump the epoch");
    assert_eq!(fleet.submit(fp, &b).unwrap().wait().unwrap(), x_old);
    let r = fleet.report();
    assert_eq!(r.value_refreshes, 0);
    assert_eq!(r.refresh_failures, 2, "drift + poison; the unknown fp never reached a tenant");
}

/// A registered but non-resident fingerprint refreshes *at rest*: the
/// stored factor is swapped after the same validation, and the next
/// cold build serves the new values.
#[test]
fn refresh_tenant_at_rest_updates_the_stored_factor() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(95);
    let m2 = perturbed(&m);
    let fp = fleet.register(Arc::clone(&m));

    let report = fleet.refresh_tenant(fp, Arc::clone(&m2)).unwrap();
    assert_eq!(report.value_epoch, 0, "no live engine, so no epoch to bump");
    assert_eq!(fleet.tenant_value_epoch(fp), None);

    let (_, b) = verify::rhs_for(&m, 4);
    let x = fleet.submit(fp, &b).unwrap().wait().unwrap();
    assert_eq!(x, serial_solution(&m2, &cfg, &b), "cold build must use the refreshed values");
    let r = fleet.report();
    assert_eq!(r.value_refreshes, 1);
    assert_eq!(r.builds_ok, 1);
}

/// Epoch registration: the same structure at two value epochs routes
/// to two distinct tenants with distinct results.
#[test]
fn value_epochs_are_distinct_tenants() {
    let cfg = fleet_config();
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m0 = tenant_matrix(70);
    // same structure, scaled values: a numeric refresh
    let mut m1 = (*m0).clone();
    for v in m1.values_mut() {
        *v *= 2.0;
    }
    let m1 = Arc::new(m1);
    let fp0 = fleet.register_epoch(Arc::clone(&m0), 0);
    let fp1 = fleet.register_epoch(Arc::clone(&m1), 1);
    assert_ne!(fp0, fp1);
    assert_eq!(fp0.structural, fp1.structural);

    let (_, b) = verify::rhs_for(&m0, 4);
    let x0 = fleet.submit(fp0, &b).unwrap().wait().unwrap();
    let x1 = fleet.submit(fp1, &b).unwrap().wait().unwrap();
    assert_eq!(x0, serial_solution(&m0, &cfg, &b));
    assert_eq!(x1, serial_solution(&m1, &cfg, &b));
    assert_ne!(x0, x1, "different value epochs must solve differently");
    assert_eq!(fleet.report().tenants_live, 2);
}

/// The stop-and-wait defect, pinned: eight clients submit one request
/// each to a tenant whose service only flushes a *full* panel (eight
/// lanes, a 300 s linger). Enqueued directly, all eight meet in the
/// tenant's queue — whether they arrive while the engine builds or
/// after — and leave in a single `Full` flush of fill 8. A relay that
/// forwarded each request and awaited it before taking the next would
/// send the first one alone, and nothing would move until the linger
/// expired (the watchdog's job here).
#[test]
fn eight_submitters_meet_in_one_full_panel() {
    let mut cfg = fleet_config();
    cfg.service = ServiceConfig {
        max_lanes: 8,
        max_linger: Duration::from_secs(300),
        ..ServiceConfig::default()
    };
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let m = tenant_matrix(110);
    let fp = fleet.register(Arc::clone(&m));
    let bs: Vec<Vec<f64>> = (0..8u64).map(|k| verify::rhs_for(&m, 700 + k).1).collect();
    let gate = Barrier::new(bs.len());
    with_watchdog(60, || {
        std::thread::scope(|s| {
            for b in &bs {
                let (fleet, gate, m, cfg) = (&fleet, &gate, &m, &cfg);
                s.spawn(move || {
                    gate.wait();
                    let x = fleet.submit(fp, b).unwrap().wait().unwrap();
                    assert_eq!(x, serial_solution(m, cfg, b));
                });
            }
        });
    });
    let tenant = fleet.tenant_report(fp).expect("the tenant is live");
    assert_eq!(
        (tenant.panels, tenant.full_flushes, tenant.max_fill, tenant.fill_sum),
        (1, 1, 8, 8),
        "all eight must ride one Full panel: {tenant:?}"
    );
    let report = fleet.report();
    assert_eq!((report.submitted, report.served, report.failed), (8, 8, 0));
}

/// Requests that arrive while the tenant is still `Building` wait in
/// its service queue and are served in submit order once the engine
/// exists. Order is made observable by the flush rule: two lanes per
/// panel and a 300 s linger, so of five queued requests exactly the
/// first four (two `Full` panels) resolve and the fifth stays queued
/// until a sixth completes its panel.
#[test]
fn requests_submitted_while_building_are_served_in_submit_order() {
    let mut cfg = fleet_config();
    cfg.service = ServiceConfig {
        max_lanes: 2,
        max_linger: Duration::from_secs(300),
        ..ServiceConfig::default()
    };
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    // large enough that the build outlasts five submits by a wide margin
    let m = Arc::new(gen::level_structured(&LevelSpec::new(40_000, 80, 160_000, 120)));
    let fp = fleet.register(Arc::clone(&m));
    let bs: Vec<Vec<f64>> = (0..6u64).map(|k| verify::rhs_for(&m, 800 + k).1).collect();
    let serial = SolverEngine::build(&m, cfg.machine.clone(), &cfg.solve).unwrap();
    with_watchdog(120, || {
        let mut tickets: Vec<_> = bs[..5].iter().map(|b| fleet.submit(fp, b).unwrap()).collect();
        assert_eq!(
            fleet.health(),
            vec![(fp, TenantHealth::Building)],
            "all five submits must have landed during the build"
        );
        let fifth = tickets.pop().expect("five tickets");
        for (k, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap(), serial.solve(&bs[k]).unwrap().x, "request {k}");
        }
        // the first four are served, so the fifth is alone in the queue
        // with nothing to flush it
        let fifth = fifth.wait_timeout(Duration::from_millis(50)).expect_err("still queued");
        let sixth = fleet.submit(fp, &bs[5]).unwrap();
        assert_eq!(fifth.wait().unwrap(), serial.solve(&bs[4]).unwrap().x);
        assert_eq!(sixth.wait().unwrap(), serial.solve(&bs[5]).unwrap().x);
    });
    let tenant = fleet.tenant_report(fp).expect("the tenant is live");
    assert_eq!((tenant.panels, tenant.full_flushes, tenant.served), (3, 3, 6));
}

/// The in-flight gauge is released where a request *completes*, not
/// where it is collected: a ticket dropped unread must not pin its
/// tenant against eviction forever.
#[test]
fn a_dropped_ticket_does_not_pin_its_tenant() {
    let mut cfg = fleet_config();
    let a = tenant_matrix(130);
    let b = tenant_matrix(131);
    cfg.cache_budget_bytes = one_engine_budget(&a, &cfg);
    let fleet = EngineFleet::new(cfg.clone()).unwrap();
    let (fa, fb) = (fleet.register(Arc::clone(&a)), fleet.register(Arc::clone(&b)));
    with_watchdog(60, || {
        drop(fleet.submit(fa, &verify::rhs_for(&a, 1).1).unwrap());
        // abandoned, but still solved and still counted
        while fleet.report().served < 1 {
            std::thread::yield_now();
        }
        let (_, rhs) = verify::rhs_for(&b, 2);
        let x = fleet.submit(fb, &rhs).expect("the idle tenant must be evictable").wait().unwrap();
        assert_eq!(x, serial_solution(&b, &cfg, &rhs));
    });
    let report = fleet.report();
    assert_eq!((report.submitted, report.served, report.failed), (2, 2, 0));
    assert_eq!(report.evictions, 1);
}
