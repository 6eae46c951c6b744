//! Value refresh in a time-stepping loop, under live serving traffic.
//!
//! The paper's build-once/solve-many premise has a sharper corollary:
//! when a simulation re-factors the SAME sparsity pattern each time
//! step, only the *values* change — the level sets, the schedule, the
//! relabelled layout and the calibration timeline are all
//! structure-only and survive verbatim. `refresh_values`
//! exploits that: it validates structure identity, audits the new
//! values, and gathers them into a spare value snapshot that it then
//! publishes, with zero symbolic work and — after the first refresh —
//! zero allocation.
//!
//! The example runs three scenes:
//!  1. a **time-stepping loop** — a served engine takes a value
//!     refresh per step while four client threads stream requests the
//!     whole time; each step times the refresh against the full
//!     rebuild it replaces, and a probe request after each swap is
//!     asserted bit-identical to a cold engine built on the step's
//!     matrix (the refreshed warm tiers ARE the cold build, bitwise);
//!  2. **failure containment** — a poisoned step (NaN mid-factor) and
//!     a drifted structure are both rejected with typed errors before
//!     any mutation, and the previous epoch keeps serving;
//!  3. the **service report** — refresh counters next to the ordinary
//!     serving stats.
//!
//! Run with: `cargo run --release --example value_refresh`

use mgpu_sptrsv::prelude::*;
use sptrsv::serve::{serve_solver, ServeError, ServiceConfig};
use sptrsv::SolveError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The step-`s` matrix: same structure as `m0`, values modulated by a
/// deterministic per-step coefficient field.
fn step_values(m0: &sparsemat::CscMatrix, s: u64) -> sparsemat::CscMatrix {
    let mut m = m0.clone();
    for (i, v) in m.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + (((i as u64 + 3 * s) % 11) as f64) * 0.004;
    }
    m
}

fn main() {
    let m0 =
        sparsemat::gen::level_structured(&sparsemat::gen::LevelSpec::new(30_000, 100, 120_000, 19));
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let t0 = Instant::now();
    let engine = SolverEngine::build(&m0, MachineConfig::dgx1(4), &opts).expect("engine");
    println!("factor: n = {}, nnz = {}; initial build {:?}", m0.n(), m0.nnz(), t0.elapsed());

    const STEPS: u64 = 4;
    let stop = AtomicBool::new(false);
    let cfg = ServiceConfig { max_linger: Duration::from_micros(300), ..Default::default() };
    let ((), report) = serve_solver(&engine, &cfg, |svc| {
        std::thread::scope(|s| {
            // --- background traffic: four clients stream requests
            // across every value epoch; each answer must be a finite
            // solution from exactly one epoch (every panel pins one
            // value snapshot, so no ticket ever sees a torn mix)
            for c in 0..4u64 {
                let (stop, m0) = (&stop, &m0);
                s.spawn(move || {
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let (_, b) = sptrsv::verify::rhs_for(m0, 100 + c);
                        let x = svc.submit(&b).expect("admitted").wait().expect("served");
                        assert!(x.iter().all(|v| v.is_finite()));
                        served += 1;
                    }
                    served
                });
            }

            // --- scene 1: the time-stepping loop --------------------
            for step in 1..=STEPS {
                let ms = step_values(&m0, step);
                let t_refresh = Instant::now();
                let rep = svc.refresh_solver(&ms).expect("refresh");
                let t_refresh = t_refresh.elapsed();
                // the verification reference is the cold build the
                // refresh replaced — and doubles as the honest cost
                // comparison
                let t_rebuild = Instant::now();
                let cold =
                    SolverEngine::build(&ms, MachineConfig::dgx1(4), &opts).expect("cold build");
                let t_rebuild = t_rebuild.elapsed();
                let (_, b) = sptrsv::verify::rhs_for(&m0, 500 + step);
                let probe = svc.submit(&b).expect("admitted").wait().expect("served");
                assert_eq!(
                    probe,
                    cold.solve(&b).unwrap().x,
                    "refreshed warm tiers must be bit-identical to a cold build"
                );
                println!(
                    "step {step}: epoch {} in {t_refresh:>10.1?}  (rebuild {t_rebuild:>10.1?}, \
                     {:.0}x) — probe bit-identical to cold build",
                    rep.value_epoch,
                    t_rebuild.as_secs_f64() / t_refresh.as_secs_f64().max(1e-9),
                );
            }

            // --- scene 2: failure containment -----------------------
            let mut poisoned = step_values(&m0, STEPS);
            let mid = poisoned.nnz() / 2;
            poisoned.values_mut()[mid] = f64::NAN;
            match svc.refresh_solver(&poisoned) {
                Err(ServeError::Solve(SolveError::Matrix(e))) => {
                    println!("poisoned step rejected before any mutation: {e}")
                }
                other => panic!("expected a typed matrix error, got {other:?}"),
            }
            let drifted = sparsemat::gen::banded_lower(m0.n(), 6, 4.0, 19);
            match svc.refresh_solver(&drifted) {
                Err(ServeError::Solve(SolveError::StructureMismatch { .. })) => {
                    println!("drifted structure rejected: refresh is values-only by contract")
                }
                other => panic!("expected StructureMismatch, got {other:?}"),
            }
            // the last good epoch still serves
            let (_, b) = sptrsv::verify::rhs_for(&m0, 777);
            let x = svc.submit(&b).expect("admitted").wait().expect("served");
            assert!(x.iter().all(|v| v.is_finite()));
            println!("epoch {} still serving after both rejections", engine.value_epoch());

            stop.store(true, Ordering::Relaxed);
        });
    })
    .expect("service");

    // --- scene 3: the report --------------------------------------
    println!(
        "report: served {} requests across {} value epochs ({} refreshes ok, {} rejected), \
         mean panel fill {:.2}",
        report.served,
        engine.value_epoch() + 1,
        report.value_refreshes,
        report.refresh_failures,
        report.mean_fill(),
    );
    assert_eq!(report.value_refreshes, STEPS);
    assert_eq!(report.refresh_failures, 2);
    assert_eq!(report.failed, 0, "no client request may fail across a refresh");
}
