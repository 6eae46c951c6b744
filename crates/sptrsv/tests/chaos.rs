//! Chaos suite for the fault injection plane (`sptrsv::fault`) and the
//! self-healing serving stack. The probes are always compiled in and
//! armed at run time by `fault::with_plan`, so this suite is part of
//! the default `cargo test`.
//!
//! Two layers:
//!
//! * **Targeted scenarios** — one fault site each, armed with rate 1.0
//!   and a small budget so the failure lands at a known place, with
//!   exact assertions on containment (who failed, with what type, and
//!   which counters moved).
//! * **The 64-seed sweep** — mixed fault plans over mixed concurrent
//!   traffic, asserting the three global invariants: every ticket
//!   resolves (bit-identical to a serial solve, or a typed error), the
//!   service never deadlocks (watchdog), and the final report
//!   reconciles with the plan's fired counters.
//!
//! Fault plans are process-global, so every test serializes on one
//! mutex.

mod common;

use common::{one_engine_budget, with_watchdog};
use mgpu_sim::MachineConfig;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::CscMatrix;
use sptrsv::fault::{self, FaultPlan, FaultSite};
use sptrsv::serve::{
    RetryPolicy, ServeError, ServiceConfig, ServiceEngine, ServiceHealth, SolverService,
    BREAKER_COOLDOWN_PANELS, BREAKER_TRIP_PANELS,
};
use sptrsv::{verify, SolveError, SolveOptions, SolverEngine, SolverKind};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault plans install process-globally; chaos tests must not overlap.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fixture() -> (CscMatrix, SolveOptions) {
    let m = gen::level_structured(&LevelSpec::new(1200, 24, 5000, 17));
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        // verification would fail a whole panel on an injected NaN
        // lane; the chaos invariants are asserted client-side instead
        verify: false,
        ..SolveOptions::default()
    };
    (m, opts)
}

/// Acceptance scenario: a dispatcher panic under `run_supervised`
/// fails only the in-flight requests (typed `Retryable`), restarts the
/// dispatcher, and the service keeps serving bit-identically; the
/// report counts exactly the plan's fires.
#[test]
fn dispatcher_panic_supervised_restart_recovers() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let plan = Arc::new(
        FaultPlan::new(0xD15)
            .with_rate(FaultSite::DispatcherPanic, 1.0)
            .with_budget(FaultSite::DispatcherPanic, 1),
    );
    let cfg = ServiceConfig { supervision_seed: 0xD15, ..ServiceConfig::default() };

    let report = with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let ((), report) =
                SolverService::run_supervised(ServiceEngine::Solver(&engine), &cfg, |svc| {
                    // first wave rides the panicking incarnation
                    let mut retryable = 0u64;
                    for k in 0..4u64 {
                        let (_, b) = verify::rhs_for(&m, 50 + k);
                        match svc.submit(&b).unwrap().wait() {
                            Ok(x) => assert_eq!(x, engine.solve(&b).unwrap().x),
                            Err(ServeError::Retryable { .. }) => retryable += 1,
                            Err(e) => panic!("unexpected error under supervision: {e}"),
                        }
                    }
                    assert!(retryable >= 1, "the injected panic must fail at least one ticket");
                    // second wave must be served normally by the
                    // restarted dispatcher — resubmission succeeds
                    for k in 0..4u64 {
                        let (_, b) = verify::rhs_for(&m, 50 + k);
                        let x =
                            svc.submit(&b).unwrap().wait().expect("restarted dispatcher serves");
                        assert_eq!(x, engine.solve(&b).unwrap().x, "bit-identical after restart");
                    }
                    assert_ne!(svc.health(), ServiceHealth::Draining);
                })
                .unwrap();
            report
        })
    });
    assert_eq!(plan.fired(FaultSite::DispatcherPanic), 1);
    assert_eq!(report.dispatcher_restarts, 1, "one fire, one supervised restart");
    assert!(report.failed >= 1);
}

/// Acceptance scenario: one post-admission RHS corruption inside a
/// burst fails exactly that request with `SolveError::NonFinite`
/// (buffer `"x"`), and its panel-mates still complete bit-identically
/// after the quarantine retry.
#[test]
fn rhs_corruption_fails_one_lane_mates_bit_identical() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let plan = Arc::new(
        FaultPlan::new(0xBAD)
            .with_rate(FaultSite::RhsCorruptNonFinite, 1.0)
            .with_budget(FaultSite::RhsCorruptNonFinite, 1),
    );
    // a generous linger so the whole burst coalesces into one panel
    let cfg = ServiceConfig {
        scan_outputs: true,
        max_linger: Duration::from_millis(100),
        ..ServiceConfig::default()
    };
    const BURST: u64 = 8;

    let report = with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let bs: Vec<Vec<f64>> = (0..BURST).map(|k| verify::rhs_for(&m, 900 + k).1).collect();
            let ((), report) = SolverService::run(ServiceEngine::Solver(&engine), &cfg, |svc| {
                let tickets: Vec<_> = bs.iter().map(|b| svc.submit(b).unwrap()).collect();
                let mut poisoned = 0u64;
                for (k, t) in tickets.into_iter().enumerate() {
                    let (_, b) = verify::rhs_for(&m, 900 + k as u64);
                    match t.wait() {
                        Ok(x) => assert_eq!(
                            x,
                            engine.solve(&b).unwrap().x,
                            "panel-mate {k} must be bit-identical despite the poisoned lane"
                        ),
                        Err(ServeError::Solve(SolveError::NonFinite { buffer, .. })) => {
                            assert_eq!(buffer, "x", "caught by the output scan");
                            poisoned += 1;
                        }
                        Err(e) => panic!("request {k}: unexpected error {e}"),
                    }
                }
                assert_eq!(poisoned, 1, "exactly the corrupted request fails");
            })
            .unwrap();
            report
        })
    });
    assert_eq!(plan.fired(FaultSite::RhsCorruptNonFinite), 1);
    assert_eq!(report.poisoned_lanes, 1);
    assert!(report.panel_retries >= 1, "clean mates were re-solved");
    assert_eq!(report.served, BURST - 1);
}

/// A permanently-failing fused panel path trips the circuit breaker
/// after `BREAKER_TRIP_PANELS` consecutive failures; the service then
/// serves on the degraded per-request serial path (bit-identical),
/// probes the fused path again after `BREAKER_COOLDOWN_PANELS`, and
/// re-trips — fully deterministic under sequential traffic.
#[test]
fn breaker_trips_and_degrades_to_serial() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let plan = Arc::new(FaultPlan::new(0x0B).with_rate(FaultSite::PanelSolve, 1.0));
    let cfg = ServiceConfig::default();
    let trip = BREAKER_TRIP_PANELS as u64;
    let cooldown = BREAKER_COOLDOWN_PANELS as u64;
    let requests = 2 * trip + cooldown + 2; // trip, cool down, re-trip, degrade again

    let report = with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let ((), report) = SolverService::run(ServiceEngine::Solver(&engine), &cfg, |svc| {
                let mut failed = 0u64;
                let mut served = 0u64;
                for k in 0..requests {
                    let (_, b) = verify::rhs_for(&m, 300 + k);
                    match svc.submit(&b).unwrap().wait() {
                        Ok(x) => {
                            assert_eq!(
                                x,
                                engine.solve(&b).unwrap().x,
                                "degraded serial path stays bit-identical"
                            );
                            served += 1;
                        }
                        Err(ServeError::DispatcherPanicked) => failed += 1,
                        Err(e) => panic!("request {k}: unexpected error {e}"),
                    }
                    if k == trip {
                        assert!(
                            matches!(svc.health(), ServiceHealth::Degraded { .. }),
                            "breaker open must surface as Degraded"
                        );
                    }
                }
                // sequential traffic → one request per panel → exact
                // schedule: 3 fail, 16 degraded, 3 fail, rest degraded
                assert_eq!(failed, 2 * trip);
                assert_eq!(served, requests - 2 * trip);
            })
            .unwrap();
            report
        })
    });
    assert_eq!(report.breaker_trips, 2);
    assert_eq!(report.degraded_solves, cooldown + 2);
    assert!(plan.fired(FaultSite::PanelSolve) >= 2 * trip);
}

/// Injected admission shedding surfaces as ordinary `QueueFull`, and
/// `submit_with_retry`'s bounded deterministic backoff absorbs it;
/// the report's `admission_shed` reconciles exactly with the plan.
#[test]
fn submit_with_retry_absorbs_admission_shedding() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let plan = Arc::new(FaultPlan::new(0xA110).with_rate(FaultSite::AdmissionAlloc, 0.5));
    let cfg = ServiceConfig::default();
    let policy = RetryPolicy { max_attempts: 32, ..RetryPolicy::default() };

    let report = with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let ((), report) = SolverService::run(ServiceEngine::Solver(&engine), &cfg, |svc| {
                for k in 0..24u64 {
                    let (_, b) = verify::rhs_for(&m, 700 + k);
                    let x = svc
                        .submit_with_retry(&b, &policy)
                        .expect("32 attempts at shed rate 0.5 cannot all lose")
                        .wait()
                        .unwrap();
                    assert_eq!(x, engine.solve(&b).unwrap().x);
                }
            })
            .unwrap();
            report
        })
    });
    assert!(report.admission_shed >= 1, "rate 0.5 over 24 submits fires");
    assert_eq!(report.admission_shed, plan.fired(FaultSite::AdmissionAlloc));
    assert_eq!(report.admission_shed, report.rejected_full, "shed counts as QueueFull");
    assert_eq!(report.served, 24);
}

/// Worker-spawn failure is invisible to correctness: with every spawn
/// refused, `scope_run`'s helping submitter executes the pooled batch
/// chunks itself (bit-identical results), the engine counts each
/// shortfall, and the service report surfaces the count — reconciling
/// exactly with the plan's fires. The pool is driven via an explicit
/// thread request so the test does not depend on the host's core
/// count.
#[test]
fn spawn_shortfall_degrades_batch_to_helping_submitter() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    // serial ground truth before any chaos
    let expected: Vec<Vec<f64>> =
        (0..8u64).map(|k| engine.solve(&verify::rhs_for(&m, 400 + k).1).unwrap().x).collect();
    let plan = Arc::new(FaultPlan::new(0x5BA).with_rate(FaultSite::WorkerSpawn, 1.0));
    let cfg = ServiceConfig::default();

    let report = with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let ((), report) = SolverService::run(ServiceEngine::Solver(&engine), &cfg, |svc| {
                // foreground batch work on the same engine the service
                // dispatches to — the pool refuses every spawn, the
                // helping submitter does the chunks
                let bs: Vec<Vec<f64>> = (0..8u64).map(|k| verify::rhs_for(&m, 400 + k).1).collect();
                let mr = engine
                    .solve_batch_with_threads(&bs, 4)
                    .expect("spawn shortfall must not fail the batch");
                for (r, want) in mr.reports.iter().zip(&expected) {
                    assert_eq!(&r.x, want, "helping-submitter batch stays bit-identical");
                }
                // and the service keeps serving normally alongside
                for (k, b) in bs.iter().enumerate() {
                    let x = svc.submit(b).unwrap().wait().unwrap();
                    assert_eq!(x, expected[k]);
                }
            })
            .unwrap();
            report
        })
    });
    assert_eq!(report.served, 8);
    assert!(plan.fired(FaultSite::WorkerSpawn) >= 1, "the batch probed the pool");
    assert_eq!(report.spawn_shortfalls, plan.fired(FaultSite::WorkerSpawn));
}

/// The sweep: 64 seeded fault plans × 8 concurrent clients × 6
/// requests of mixed shapes. Invariants, per seed:
///
/// 1. every ticket resolves — `Ok` bit-identical to a serial solve of
///    the same right-hand side, or a typed error;
/// 2. nothing deadlocks (one watchdog over the whole sweep);
/// 3. the final report reconciles with the plan: `admission_shed` and
///    `dispatcher_restarts` equal the fired counts, `poisoned_lanes`
///    never exceeds the corruption fires, and completions account for
///    every submitted request.
#[test]
fn chaos_sweep_64_seeds() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 6;
    // serial ground truth, shared by every seed
    let expected: Vec<Vec<f64>> = (0..CLIENTS * PER_CLIENT)
        .map(|k| engine.solve(&verify::rhs_for(&m, 2000 + k).1).unwrap().x)
        .collect();

    with_watchdog(600, || {
        for seed in 0..64u64 {
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with_rate(FaultSite::WorkerSpawn, 0.2)
                    .with_rate(FaultSite::WorkerTaskPanic, 0.01)
                    .with_rate(FaultSite::DispatcherPanic, 0.03)
                    .with_budget(FaultSite::DispatcherPanic, 3)
                    .with_rate(FaultSite::PanelSolve, 0.02)
                    .with_rate(FaultSite::AdmissionAlloc, 0.1)
                    .with_rate(FaultSite::RhsCorruptNonFinite, 0.05)
                    .with_budget(FaultSite::RhsCorruptNonFinite, 4),
            );
            let cfg = ServiceConfig {
                // every 4th seed exercises the pooled wide-panel tier
                max_lanes: if seed % 4 == 0 { 24 } else { 8 },
                max_linger: Duration::from_micros(200),
                scan_outputs: true,
                supervision_seed: seed,
                max_dispatcher_restarts: 64,
                ..ServiceConfig::default()
            };
            let report = fault::with_plan(&plan, || {
                let ((), report) =
                    SolverService::run_supervised(ServiceEngine::Solver(&engine), &cfg, |svc| {
                        std::thread::scope(|s| {
                            for c in 0..CLIENTS {
                                let expected = &expected;
                                let m = &m;
                                s.spawn(move || {
                                    let policy =
                                        RetryPolicy { seed: seed ^ c, ..RetryPolicy::default() };
                                    for j in 0..PER_CLIENT {
                                        let k = c * PER_CLIENT + j;
                                        let (_, b) = verify::rhs_for(m, 2000 + k);
                                        let sub = if j % 2 == 0 {
                                            svc.submit_with_retry(&b, &policy)
                                        } else {
                                            svc.submit(&b)
                                        };
                                        // typed rejections and typed completions are
                                        // both legal outcomes under chaos — the
                                        // invariant is "resolved, typed, no hang"
                                        if let Ok(Ok(x)) = sub.map(|t| t.wait()) {
                                            assert_eq!(
                                                x, expected[k as usize],
                                                "seed {seed} req {k}: Ok must be bit-identical"
                                            );
                                        }
                                    }
                                });
                            }
                        });
                    })
                    .unwrap();
                report
            });
            // reconciliation: the report must account for every accepted
            // request and agree with the plan about what fired
            assert_eq!(
                report.submitted,
                report.served + report.failed + report.shutdown_rejected,
                "seed {seed}: every accepted request resolved exactly once"
            );
            assert_eq!(
                report.admission_shed,
                plan.fired(FaultSite::AdmissionAlloc),
                "seed {seed}: shed reconciles"
            );
            assert_eq!(
                report.dispatcher_restarts,
                plan.fired(FaultSite::DispatcherPanic),
                "seed {seed}: every dispatcher panic was a supervised restart"
            );
            assert!(
                report.poisoned_lanes <= plan.fired(FaultSite::RhsCorruptNonFinite),
                "seed {seed}: only injected corruption poisons lanes"
            );
            assert_eq!(
                report.spawn_shortfalls,
                plan.fired(FaultSite::WorkerSpawn),
                "seed {seed}: every spawn fire was counted as a shortfall"
            );
        }
    });
}

// ---- fleet containment scenarios -----------------------------------

use sptrsv::fleet::{EngineFleet, FleetConfig, FleetError, TenantHealth};

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        machine: MachineConfig::dgx1(2),
        solve: SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            verify: false,
            ..SolveOptions::default()
        },
        build_backoff: Duration::from_micros(50),
        quarantine_cooldown: Duration::from_millis(200),
        ..FleetConfig::default()
    }
}

fn fleet_tenants(n: usize) -> Vec<Arc<CscMatrix>> {
    (0..n as u64)
        .map(|t| Arc::new(gen::level_structured(&LevelSpec::new(600, 20, 2500, 90 + t))))
        .collect()
}

fn serial_x(m: &CscMatrix, cfg: &FleetConfig, b: &[f64]) -> Vec<f64> {
    SolverEngine::build(m, cfg.machine.clone(), &cfg.solve).unwrap().solve(b).unwrap().x
}

/// Acceptance scenario: every build attempt of one tenant panics
/// (injected [`FaultSite::EngineBuild`], budget = the attempt cap).
/// The victim's ticket resolves with typed `BuildFailed`, the
/// fingerprint is quarantined (typed `Quarantined` with the remaining
/// cooldown), the other tenants serve bit-identically throughout, and
/// after the cooldown one clean probe re-admits the factor and clears
/// the quarantine.
#[test]
fn engine_build_faults_quarantine_one_tenant_and_spare_the_rest() {
    let _g = chaos_guard();
    let cfg = fleet_cfg();
    let ms = fleet_tenants(3);
    let plan = Arc::new(
        FaultPlan::new(0xB11D)
            .with_rate(FaultSite::EngineBuild, 1.0)
            .with_budget(FaultSite::EngineBuild, u64::from(cfg.build_attempts)),
    );
    with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let fleet = EngineFleet::new(cfg.clone()).unwrap();
            let fps: Vec<_> = ms.iter().map(|m| fleet.register(Arc::clone(m))).collect();
            // victim first: its build consumes the whole fault budget
            let (_, b0) = verify::rhs_for(&ms[0], 1);
            match fleet.submit(fps[0], &b0).unwrap().wait() {
                Err(FleetError::BuildFailed { attempts }) => {
                    assert_eq!(attempts, cfg.build_attempts)
                }
                other => panic!("expected BuildFailed, got {other:?}"),
            }
            // quarantined now: typed rejection, no build attempts burned
            match fleet.submit(fps[0], &b0) {
                Err(FleetError::Quarantined { failures, retry_in }) => {
                    assert_eq!(failures, 1);
                    assert!(retry_in <= cfg.quarantine_cooldown);
                }
                other => panic!("expected Quarantined, got {other:?}"),
            }
            assert!(
                fleet
                    .health()
                    .iter()
                    .any(|(fp, h)| *fp == fps[0] && matches!(h, TenantHealth::Quarantined { .. })),
                "health must surface the quarantined fingerprint"
            );
            // the other tenants are untouched: bit-identical service
            for (t, m) in ms.iter().enumerate().skip(1) {
                let (_, b) = verify::rhs_for(m, 10 + t as u64);
                let x = fleet.submit(fps[t], &b).unwrap().wait().unwrap();
                assert_eq!(x, serial_x(m, &cfg, &b), "healthy tenant {t} diverged");
            }
            // cooldown expiry: the re-admission probe builds cleanly
            // (the fault budget is spent) and clears the quarantine
            std::thread::sleep(cfg.quarantine_cooldown + Duration::from_millis(50));
            let x = fleet.submit(fps[0], &b0).unwrap().wait().expect("re-admission probe serves");
            assert_eq!(x, serial_x(&ms[0], &cfg, &b0));
            let report = fleet.report();
            assert_eq!(report.builds_failed, 1);
            assert_eq!(report.build_retries, u64::from(cfg.build_attempts - 1));
            assert_eq!(report.quarantine_events, 1);
            assert!(report.quarantine_rejections >= 1);
            assert_eq!(report.quarantined_now, 0, "a clean rebuild clears quarantine");
            assert!(report.cache_bytes_high_water <= report.cache_budget_bytes);
        })
    });
    assert_eq!(plan.fired(FaultSite::EngineBuild), u64::from(cfg.build_attempts));
}

/// Acceptance scenario: one tenant's dispatcher panics past its
/// restart budget and aborts — the blast radius ends at that tenant's
/// bulkhead. Every victim ticket resolves with a typed error (never
/// hangs, enforced by the watchdog), the fingerprint quarantines, and
/// the other tenants' results stay bit-identical throughout.
#[test]
fn tenant_dispatcher_abort_is_contained_to_its_bulkhead() {
    let _g = chaos_guard();
    let mut cfg = fleet_cfg();
    cfg.service.max_dispatcher_restarts = 1;
    let ms = fleet_tenants(3);
    let plan = Arc::new(
        FaultPlan::new(0xAB0)
            .with_rate(FaultSite::DispatcherPanic, 1.0)
            .with_budget(FaultSite::DispatcherPanic, 2),
    );
    with_watchdog(120, || {
        let fleet = EngineFleet::new(cfg.clone()).unwrap();
        let fps: Vec<_> = ms.iter().map(|m| fleet.register(Arc::clone(m))).collect();
        // warm every tenant before arming the plan, so only the victim
        // (the sole tenant given traffic under the plan) can consume
        // the panic budget
        for (t, m) in ms.iter().enumerate() {
            let (_, b) = verify::rhs_for(m, 20 + t as u64);
            fleet.submit(fps[t], &b).unwrap().wait().unwrap();
        }
        fault::with_plan(&plan, || {
            let (_, b0) = verify::rhs_for(&ms[0], 30);
            let expected0 = serial_x(&ms[0], &cfg, &b0);
            let mut typed_failures = 0u64;
            let mut quarantined = false;
            // bursts of directly enqueued tickets: some ride the
            // panicking panel, some are still queued behind it when the
            // service aborts, some hit the closed queue of the dying
            // tenant — every one resolves, typed. A stale-handle refusal
            // is immediate, so the loop runs until the teardown lands
            // (the watchdog bounds it), not for a fixed count.
            while !quarantined {
                let mut tickets = Vec::new();
                for _ in 0..4 {
                    match fleet.submit(fps[0], &b0) {
                        Ok(t) => tickets.push(t),
                        Err(FleetError::Quarantined { .. }) => {
                            quarantined = true;
                            break;
                        }
                        // a stale handle: the tenant aborted under us
                        Err(FleetError::Serve(ServeError::Retryable { .. }))
                        | Err(FleetError::ShuttingDown) => typed_failures += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                for t in tickets {
                    match t.wait() {
                        // possible only once the budget is spent (or a
                        // post-cooldown rebuild) — must still be exact
                        Ok(x) => assert_eq!(x, expected0),
                        Err(FleetError::Serve(ServeError::Retryable { .. })) => typed_failures += 1,
                        Err(FleetError::ShuttingDown) => typed_failures += 1,
                        Err(e) => panic!("unexpected victim error: {e}"),
                    }
                }
                std::thread::yield_now();
            }
            assert!(typed_failures >= 2, "both injected panics must fail tickets, typed");
            // the other tenants keep serving bit-identically through it
            for (t, m) in ms.iter().enumerate().skip(1) {
                let (_, b) = verify::rhs_for(m, 40 + t as u64);
                let x = fleet.submit(fps[t], &b).unwrap().wait().unwrap();
                assert_eq!(x, serial_x(m, &cfg, &b), "bulkhead leaked into tenant {t}");
            }
            let report = fleet.report();
            assert_eq!(report.tenant_aborts, 1);
            assert_eq!(report.quarantine_events, 1);
            assert!(report.cache_bytes_high_water <= report.cache_budget_bytes);
            assert_eq!(
                report.submitted,
                report.served + report.failed,
                "every accepted request was counted out exactly once: {report:?}"
            );
        });
        assert_eq!(plan.fired(FaultSite::DispatcherPanic), 2);
    });
}

/// Targeted [`FaultSite::CacheAdmit`]: injected allocation pressure at
/// the admission gate sheds the cold submit with a typed `CacheFull`,
/// charges nothing, and the retry (budget spent) admits and serves.
#[test]
fn cache_admit_fault_sheds_cold_admission_typed() {
    let _g = chaos_guard();
    let cfg = fleet_cfg();
    let ms = fleet_tenants(1);
    let plan = Arc::new(
        FaultPlan::new(0xCA0)
            .with_rate(FaultSite::CacheAdmit, 1.0)
            .with_budget(FaultSite::CacheAdmit, 1),
    );
    with_watchdog(60, || {
        fault::with_plan(&plan, || {
            let fleet = EngineFleet::new(cfg.clone()).unwrap();
            let fp = fleet.register(Arc::clone(&ms[0]));
            let (_, b) = verify::rhs_for(&ms[0], 5);
            match fleet.submit(fp, &b) {
                Err(FleetError::CacheFull { .. }) => {}
                other => panic!("expected injected CacheFull, got {other:?}"),
            }
            assert_eq!(fleet.report().cache_bytes, 0, "a shed admission must charge nothing");
            let x = fleet.submit(fp, &b).unwrap().wait().unwrap();
            assert_eq!(x, serial_x(&ms[0], &cfg, &b));
            assert_eq!(fleet.report().cache_admit_shed, 1);
        })
    });
    assert_eq!(plan.fired(FaultSite::CacheAdmit), 1);
}

/// The fleet acceptance sweep: 16 seeds of mixed build/admission
/// faults aimed at one victim tenant (the healthy tenants are warmed
/// before the plan arms, so only victim builds probe the armed sites)
/// while the healthy tenants take concurrent traffic. Per seed: every
/// ticket resolves (watchdog), healthy tenants stay bit-identical to
/// serial `solve()`, victim outcomes are exact solutions or typed
/// errors, cache live bytes never cross the budget, counters
/// reconcile, and no accepted request leaks.
#[test]
fn fleet_chaos_sweep_multi_tenant() {
    let _g = chaos_guard();
    let mut cfg = fleet_cfg();
    cfg.quarantine_cooldown = Duration::from_millis(50);
    let ms = fleet_tenants(3);
    let expected: Vec<Vec<Vec<f64>>> = ms
        .iter()
        .enumerate()
        .map(|(t, m)| {
            let serial = SolverEngine::build(m, cfg.machine.clone(), &cfg.solve).unwrap();
            (0..6u64)
                .map(|k| serial.solve(&verify::rhs_for(m, 100 * t as u64 + k).1).unwrap().x)
                .collect()
        })
        .collect();

    for seed in 0..16u64 {
        let plan = Arc::new(
            FaultPlan::new(0xF1EE7 ^ seed)
                .with_rate(FaultSite::EngineBuild, 0.6)
                .with_budget(FaultSite::EngineBuild, 4)
                .with_rate(FaultSite::CacheAdmit, 0.3)
                .with_budget(FaultSite::CacheAdmit, 2),
        );
        with_watchdog(120, || {
            let fleet = EngineFleet::new(cfg.clone()).unwrap();
            let fps: Vec<_> = ms.iter().map(|m| fleet.register(Arc::clone(m))).collect();
            // healthy tenants warm up fault-free
            for t in 1..3usize {
                let (_, b) = verify::rhs_for(&ms[t], 100 * t as u64);
                let x = fleet.submit(fps[t], &b).unwrap().wait().unwrap();
                assert_eq!(x, expected[t][0]);
            }
            fault::with_plan(&plan, || {
                std::thread::scope(|s| {
                    {
                        let (fleet, ms, fps, expected) = (&fleet, &ms, &fps, &expected);
                        s.spawn(move || {
                            for k in 0..6u64 {
                                let (_, b) = verify::rhs_for(&ms[0], k);
                                match fleet.submit(fps[0], &b) {
                                    Ok(t) => match t.wait() {
                                        Ok(x) => assert_eq!(
                                            x, expected[0][k as usize],
                                            "seed {seed}: victim solved wrong"
                                        ),
                                        Err(_typed) => {}
                                    },
                                    Err(_typed) => {}
                                }
                                // straddle the quarantine cooldown so
                                // re-admission probes happen mid-sweep
                                std::thread::sleep(Duration::from_millis(20));
                            }
                        });
                    }
                    for t in 1..3usize {
                        let (fleet, ms, fps, expected) = (&fleet, &ms, &fps, &expected);
                        s.spawn(move || {
                            for k in 1..6u64 {
                                let (_, b) = verify::rhs_for(&ms[t], 100 * t as u64 + k);
                                let x = fleet
                                    .submit(fps[t], &b)
                                    .unwrap()
                                    .wait()
                                    .unwrap_or_else(|e| panic!("healthy tenant {t}: {e}"));
                                assert_eq!(
                                    x, expected[t][k as usize],
                                    "seed {seed}: healthy tenant {t} diverged under chaos"
                                );
                            }
                        });
                    }
                });
                let report = fleet.report();
                assert!(
                    report.cache_bytes_high_water <= report.cache_budget_bytes,
                    "seed {seed}: byte budget violated: {report:?}"
                );
                assert_eq!(
                    report.cache_admit_shed,
                    plan.fired(FaultSite::CacheAdmit),
                    "seed {seed}: shed counter must reconcile with the plan"
                );
                assert_eq!(
                    report.submitted,
                    report.served + report.failed,
                    "seed {seed}: an accepted request leaked: {report:?}"
                );
            });
        });
    }
}

/// Supervised dispatcher panics under directly enqueued fleet traffic:
/// four clients burst tickets into one tenant's queue while its
/// dispatcher panics twice (inside its restart budget). Every ticket
/// resolves exactly once — bit-identical or typed `Retryable` — the
/// neighbours stay bit-identical, and the fleet's counters, now fed by
/// the queue's completion hook, reconcile with what the clients saw.
#[test]
fn fleet_dispatcher_panics_resolve_every_enqueued_ticket_once() {
    let _g = chaos_guard();
    let cfg = fleet_cfg();
    let ms = fleet_tenants(3);
    let plan = Arc::new(
        FaultPlan::new(0xD1EC7)
            .with_rate(FaultSite::DispatcherPanic, 1.0)
            .with_budget(FaultSite::DispatcherPanic, 2),
    );
    with_watchdog(120, || {
        let fleet = EngineFleet::new(cfg.clone()).unwrap();
        let fps: Vec<_> = ms.iter().map(|m| fleet.register(Arc::clone(m))).collect();
        for (t, m) in ms.iter().enumerate() {
            fleet.submit(fps[t], &verify::rhs_for(m, 20 + t as u64).1).unwrap().wait().unwrap();
        }
        let warm = fleet.report();
        let victim = fps[0];
        let bs: Vec<Vec<f64>> = (0..6u64).map(|k| verify::rhs_for(&ms[0], 60 + k).1).collect();
        let expected: Vec<Vec<f64>> = bs.iter().map(|b| serial_x(&ms[0], &cfg, b)).collect();
        fault::with_plan(&plan, || {
            // only the victim has traffic until both panics have fired
            let outcomes: Vec<(u64, u64)> = std::thread::scope(|s| {
                let clients: Vec<_> = (0..4)
                    .map(|_| {
                        let (fleet, bs, expected) = (&fleet, &bs, &expected);
                        s.spawn(move || {
                            let (mut ok, mut retryable) = (0u64, 0u64);
                            for _round in 0..2 {
                                let tickets: Vec<_> =
                                    bs.iter().map(|b| fleet.submit(victim, b).unwrap()).collect();
                                for (k, t) in tickets.into_iter().enumerate() {
                                    match t.wait() {
                                        Ok(x) => {
                                            assert_eq!(x, expected[k], "victim lane {k}");
                                            ok += 1;
                                        }
                                        Err(FleetError::Serve(ServeError::Retryable {
                                            ..
                                        })) => retryable += 1,
                                        Err(e) => panic!("unexpected victim error: {e}"),
                                    }
                                }
                            }
                            (ok, retryable)
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().expect("client thread")).collect()
            });
            assert_eq!(plan.fired(FaultSite::DispatcherPanic), 2);
            let ok: u64 = outcomes.iter().map(|o| o.0).sum();
            let retryable: u64 = outcomes.iter().map(|o| o.1).sum();
            assert_eq!(ok + retryable, 4 * 2 * 6, "every ticket resolved exactly once");
            assert!(retryable >= 2, "each panic fails the panel it interrupted");
            for (t, m) in ms.iter().enumerate().skip(1) {
                let (_, b) = verify::rhs_for(m, 40 + t as u64);
                let x = fleet.submit(fps[t], &b).unwrap().wait().unwrap();
                assert_eq!(x, serial_x(m, &cfg, &b), "bulkhead leaked into tenant {t}");
            }
            let report = fleet.report();
            assert_eq!(report.served - warm.served, ok + 2, "hook-counted served");
            assert_eq!(report.failed - warm.failed, retryable, "hook-counted failed");
            assert_eq!(report.submitted, report.served + report.failed);
            assert_eq!(report.tenant_aborts, 0, "two panics fit the restart budget");
            assert!(report.cache_bytes_high_water <= report.cache_budget_bytes);
            let tenant = fleet.tenant_report(victim).expect("the victim is still live");
            assert_eq!(tenant.dispatcher_restarts, 2);
        });
    });
}

/// Requests enqueued while a doomed engine builds: the queue exists
/// from admission, so a burst lands in it during the build attempts —
/// and when the build gives up, every one of them resolves
/// `BuildFailed` with the attempt count, not a bare `ShuttingDown`.
#[test]
fn tickets_enqueued_during_a_failing_build_all_resolve_build_failed() {
    let _g = chaos_guard();
    let mut cfg = fleet_cfg();
    // slow retries: the burst below lands well inside the build phase
    cfg.build_backoff = Duration::from_millis(20);
    let ms = fleet_tenants(1);
    let plan = Arc::new(FaultPlan::new(0xB1D2).with_rate(FaultSite::EngineBuild, 1.0));
    with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let fleet = EngineFleet::new(cfg.clone()).unwrap();
            let fp = fleet.register(Arc::clone(&ms[0]));
            let (_, b) = verify::rhs_for(&ms[0], 3);
            let tickets: Vec<_> = (0..5).map(|_| fleet.submit(fp, &b).unwrap()).collect();
            for t in tickets {
                match t.wait() {
                    Err(FleetError::BuildFailed { attempts }) => {
                        assert_eq!(attempts, cfg.build_attempts)
                    }
                    other => panic!("expected BuildFailed, got {other:?}"),
                }
            }
            let report = fleet.report();
            assert_eq!((report.submitted, report.served, report.failed), (5, 0, 5));
            assert_eq!(report.builds_failed, 1, "one admission, one failed build");
            assert_eq!(report.cache_bytes, 0, "the failed admission released its reservation");
        })
    });
}

/// Eviction and shutdown with tickets sitting in a tenant's queue (a
/// four-lane panel under a 300 s linger holds them there): a queued
/// ticket pins its tenant, so a competing admission sheds typed
/// `CacheFull` rather than strand it; the fourth request completes the
/// panel and unpins; shutdown then drains — or, with draining off,
/// rejects — whatever is still queued. Every ticket resolves exactly
/// once and the byte budget holds throughout.
#[test]
fn eviction_and_shutdown_never_strand_an_enqueued_ticket() {
    let _g = chaos_guard();
    for drain in [true, false] {
        let mut cfg = fleet_cfg();
        cfg.service = ServiceConfig {
            max_lanes: 4,
            max_linger: Duration::from_secs(300),
            drain_on_shutdown: drain,
            ..ServiceConfig::default()
        };
        let ms = fleet_tenants(2);
        cfg.cache_budget_bytes = one_engine_budget(&ms[0], &cfg);
        with_watchdog(120, || {
            let fleet = EngineFleet::new(cfg.clone()).unwrap();
            let fps: Vec<_> = ms.iter().map(|m| fleet.register(Arc::clone(m))).collect();
            let (_, b0) = verify::rhs_for(&ms[0], 11);
            let (_, b1) = verify::rhs_for(&ms[1], 12);
            let want0 = serial_x(&ms[0], &cfg, &b0);
            let mut held: Vec<_> = (0..3).map(|_| fleet.submit(fps[0], &b0).unwrap()).collect();
            // three queued tickets pin tenant 0: tenant 1 cannot evict it
            assert!(matches!(fleet.submit(fps[1], &b1), Err(FleetError::CacheFull { .. })));
            held.push(fleet.submit(fps[0], &b0).unwrap()); // completes the panel
            for t in held {
                assert_eq!(t.wait().unwrap(), want0);
            }
            // unpinned: the same admission now evicts tenant 0
            let x1 = fleet.submit(fps[1], &b1).unwrap();
            // (a shutdown that lands mid-build is a typed ShuttingDown
            // whatever the drain mode; this scenario is about a serving
            // tenant's queue, so let the build finish first)
            while fleet.health().contains(&(fps[1], TenantHealth::Building)) {
                std::thread::yield_now();
            }
            // …and is itself left queued (one lane of four) at shutdown
            let queued: Vec<_> = (0..2).map(|_| fleet.submit(fps[1], &b1).unwrap()).collect();
            fleet.shutdown();
            for t in std::iter::once(x1).chain(queued) {
                match (drain, t.wait()) {
                    (true, Ok(x)) => assert_eq!(x, serial_x(&ms[1], &cfg, &b1)),
                    (false, Err(FleetError::ShuttingDown)) => {}
                    (_, other) => panic!("drain={drain}: unexpected outcome {other:?}"),
                }
            }
            assert!(matches!(fleet.submit(fps[0], &b0), Err(FleetError::ShuttingDown)));
            let report = fleet.report();
            assert_eq!(report.submitted, 7);
            assert_eq!(report.submitted, report.served + report.failed, "{report:?}");
            assert_eq!(report.served, if drain { 7 } else { 4 });
            assert_eq!(report.evictions, 1);
            assert_eq!(report.cache_bytes, 0);
            assert!(report.cache_bytes_high_water <= report.cache_budget_bytes);
        });
    }
}

/// S1 regression: with admission shedding firing on every submit, the
/// client retry loop gives up with the typed exhaustion error carrying
/// exactly the policy's attempt cap — it must neither spin forever nor
/// surface a bare `QueueFull`.
#[test]
fn retry_exhaustion_is_typed_with_attempt_count() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let plan = Arc::new(FaultPlan::new(0xE0).with_rate(FaultSite::AdmissionAlloc, 1.0));
    let cfg = ServiceConfig::default();
    let policy = RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_micros(10),
        ..RetryPolicy::default()
    };
    with_watchdog(60, || {
        fault::with_plan(&plan, || {
            let ((), _report) = SolverService::run(ServiceEngine::Solver(&engine), &cfg, |svc| {
                let (_, b) = verify::rhs_for(&m, 1);
                match svc.submit_with_retry(&b, &policy) {
                    Err(ServeError::RetryExhausted { attempts }) => {
                        assert_eq!(attempts, policy.max_attempts)
                    }
                    Ok(_) => panic!("expected RetryExhausted, got a ticket"),
                    Err(e) => panic!("expected RetryExhausted, got {e}"),
                }
            })
            .unwrap();
        })
    });
    assert_eq!(plan.fired(FaultSite::AdmissionAlloc), u64::from(policy.max_attempts));
}

/// Targeted [`FaultSite::ValueRefresh`]: an injected panic mid-refresh
/// (after validation, before the first value write) surfaces as a
/// typed `Retryable` to the refresher only — the old value epoch keeps
/// serving bit-identically, never torn — and once the fault budget is
/// spent the retried refresh commits and the new epoch serves.
#[test]
fn value_refresh_fault_is_typed_and_never_tears() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let mut m2 = m.clone();
    for (i, v) in m2.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 7) as f64) * 0.01;
    }
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let cold2 = SolverEngine::build(&m2, MachineConfig::dgx1(2), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 61);
    let old_expect = engine.solve(&b).unwrap().x;
    let new_expect = cold2.solve(&b).unwrap().x;
    let plan = Arc::new(
        FaultPlan::new(0x0EF)
            .with_rate(FaultSite::ValueRefresh, 1.0)
            .with_budget(FaultSite::ValueRefresh, 1),
    );
    let report = with_watchdog(120, || {
        fault::with_plan(&plan, || {
            let ((), report) = SolverService::run(
                ServiceEngine::Solver(&engine),
                &ServiceConfig::default(),
                |svc| {
                    // first attempt rides the injected panic: typed,
                    // contained to the refresher
                    match svc.refresh_solver(&m2) {
                        Err(ServeError::Retryable { .. }) => {}
                        other => {
                            panic!("expected Retryable from the injected fault, got {other:?}")
                        }
                    }
                    // the old epoch is intact and serving — never torn
                    assert_eq!(engine.value_epoch(), 0);
                    assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), old_expect);
                    // budget spent: the retry commits, the new epoch serves
                    let rep = svc.refresh_solver(&m2).unwrap();
                    assert_eq!(rep.value_epoch, 1);
                    assert_eq!(svc.submit(&b).unwrap().wait().unwrap(), new_expect);
                },
            )
            .unwrap();
            report
        })
    });
    assert_eq!(plan.fired(FaultSite::ValueRefresh), 1);
    assert_eq!(report.refresh_failures, 1);
    assert_eq!(report.value_refreshes, 1);
    assert_eq!(report.failed, 0, "a refresh fault must not fail any ticket");
}

/// The same fault through the fleet: a live tenant's value refresh
/// runs on the refresher's thread, the injected panic comes back as a
/// typed `Serve(Retryable)`, the tenant keeps serving
/// the old epoch bit-identically, and the post-budget retry swaps the
/// values in place without a rebuild.
#[test]
fn fleet_value_refresh_fault_leaves_tenant_serving_old_epoch() {
    let _g = chaos_guard();
    let cfg = fleet_cfg();
    let ms = fleet_tenants(1);
    let m2 = {
        let mut t = (*ms[0]).clone();
        for (i, v) in t.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 5) as f64) * 0.002;
        }
        Arc::new(t)
    };
    let plan = Arc::new(
        FaultPlan::new(0xEF2)
            .with_rate(FaultSite::ValueRefresh, 1.0)
            .with_budget(FaultSite::ValueRefresh, 1),
    );
    with_watchdog(120, || {
        let fleet = EngineFleet::new(cfg.clone()).unwrap();
        let fp = fleet.register(Arc::clone(&ms[0]));
        // warm the tenant before arming the plan, so the build and the
        // first solve run fault-free
        let (_, b) = verify::rhs_for(&ms[0], 7);
        let old_x = fleet.submit(fp, &b).unwrap().wait().unwrap();
        fault::with_plan(&plan, || {
            match fleet.refresh_tenant(fp, Arc::clone(&m2)) {
                Err(FleetError::Serve(ServeError::Retryable { .. })) => {}
                other => panic!("expected typed Retryable through the fleet, got {other:?}"),
            }
            assert_eq!(fleet.tenant_value_epoch(fp), Some(0), "old epoch stays current");
            assert_eq!(
                fleet.submit(fp, &b).unwrap().wait().unwrap(),
                old_x,
                "the tenant keeps serving old values bit-identically"
            );
            // budget spent: the retried refresh commits in place
            let rep = fleet.refresh_tenant(fp, Arc::clone(&m2)).unwrap();
            assert_eq!(rep.value_epoch, 1);
            assert_eq!(fleet.tenant_value_epoch(fp), Some(1));
            let x2 = fleet.submit(fp, &b).unwrap().wait().unwrap();
            assert_eq!(x2, serial_x(&m2, &cfg, &b), "the new epoch serves the new values");
            let report = fleet.report();
            assert_eq!(report.refresh_failures, 1);
            assert_eq!(report.value_refreshes, 1);
            assert_eq!(report.builds_ok, 1, "a refresh must never trigger a rebuild");
        });
        assert_eq!(plan.fired(FaultSite::ValueRefresh), 1);
    });
}

/// A refresh that lands mid-build waits for the build and commits to
/// the engine it produced. Deterministic: the first build attempt
/// panics (seeded `EngineBuild`, budget 1), and the retry sleeps at
/// least half of a 50 ms backoff, so the refresh issued right after
/// the cold submit always finds the tenant building.
#[test]
fn fleet_refresh_issued_mid_build_lands_on_the_built_engine() {
    let _g = chaos_guard();
    let cfg = FleetConfig { build_backoff: Duration::from_millis(50), ..fleet_cfg() };
    let ms = fleet_tenants(1);
    let m2 = {
        let mut t = (*ms[0]).clone();
        for (i, v) in t.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 3) as f64) * 0.004;
        }
        Arc::new(t)
    };
    let plan = Arc::new(
        FaultPlan::new(0xB17D)
            .with_rate(FaultSite::EngineBuild, 1.0)
            .with_budget(FaultSite::EngineBuild, 1),
    );
    let (_, b) = verify::rhs_for(&ms[0], 13);
    let (old, new) = (serial_x(&ms[0], &cfg, &b), serial_x(&m2, &cfg, &b));
    with_watchdog(120, || {
        let fleet = EngineFleet::new(cfg.clone()).unwrap();
        let fp = fleet.register(Arc::clone(&ms[0]));
        fault::with_plan(&plan, || {
            let cold = fleet.submit(fp, &b).unwrap();
            assert_eq!(fleet.health(), vec![(fp, TenantHealth::Building)]);
            let rep = fleet.refresh_tenant(fp, Arc::clone(&m2)).unwrap();
            assert_eq!(rep.value_epoch, 1);
            let x = cold.wait().unwrap();
            assert!(x == old || x == new, "the cold request rides exactly one epoch");
            assert_eq!(fleet.submit(fp, &b).unwrap().wait().unwrap(), new);
            let r = fleet.report();
            assert_eq!((r.builds_ok, r.build_retries, r.value_refreshes), (1, 1, 1));
            assert_eq!(fleet.tenant_report(fp).unwrap().value_refreshes, 1);
        });
        assert_eq!(plan.fired(FaultSite::EngineBuild), 1);
    });
}

// --- scoping of the process-global plan ------------------------------

/// Whether the installed plan fires `PanelSolve`, probed through the
/// public stack: one request through a fresh service is one panel,
/// which fails typed exactly when the site fires.
fn panel_solve_fires(engine: &SolverEngine<'_>, m: &CscMatrix) -> bool {
    let (_, b) = verify::rhs_for(m, 0x5C0);
    let (fired, _) =
        SolverService::run(ServiceEngine::Solver(engine), &ServiceConfig::default(), |svc| {
            svc.submit(&b).unwrap().wait().is_err()
        })
        .unwrap();
    fired
}

/// Nesting is documented LIFO shadowing — the inner plan's schedule
/// applies inside the inner scope, the outer plan is restored when it
/// exits, panic included.
#[test]
fn with_plan_nests_lifo_and_restores_on_panic() {
    let _g = chaos_guard();
    let (m, opts) = fixture();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &opts).unwrap();
    let fires = || panel_solve_fires(&engine, &m);
    let outer = Arc::new(FaultPlan::new(1).with_rate(FaultSite::PanelSolve, 1.0));
    let inner = Arc::new(FaultPlan::new(2)); // never fires
    fault::with_plan(&outer, || {
        assert!(fires(), "outer plan armed");
        fault::with_plan(&inner, || {
            assert!(!fires(), "inner plan shadows the outer");
        });
        assert!(fires(), "outer plan restored after inner exits");
        // a panicking inner scope must restore the outer plan too
        let r =
            std::panic::catch_unwind(|| fault::with_plan(&inner, || panic!("inner scope dies")));
        assert!(r.is_err());
        assert!(fires(), "outer plan restored after inner panic");
    });
    assert!(!fault::plan_active(), "everything restored after the stack unwinds");
}

/// A concurrent scope on another thread is a loud typed failure (panic
/// with a diagnostic), not silent last-writer-wins.
#[test]
fn with_plan_concurrent_scopes_panic() {
    let _g = chaos_guard();
    let plan = Arc::new(FaultPlan::new(3));
    fault::with_plan(&plan, || {
        let other = Arc::new(FaultPlan::new(4));
        let r = std::thread::spawn(move || {
            std::panic::catch_unwind(|| fault::with_plan(&other, || ())).is_err()
        })
        .join()
        .unwrap();
        assert!(r, "the second thread's scope must be rejected");
        assert!(fault::plan_active(), "the first thread's plan survives the rejection");
    });
    assert!(!fault::plan_active());
    // and after the rejection, a fresh scope works again
    fault::with_plan(&plan, || assert!(fault::plan_active()));
}
