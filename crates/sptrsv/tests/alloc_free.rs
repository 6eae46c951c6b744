//! Proof that warm `solve_into` / `solve_panel_into` — and the
//! preconditioner tier's `apply_into` / `apply_batch_into` — allocate
//! nothing, from a fresh engine's second solve on.
//!
//! Also proves `refresh_values` — the value swap under every warm
//! tier — requests no heap memory once its first call has allocated
//! the spare epoch it gathers into: the recorded analysis is reused
//! verbatim, nothing symbolic is rebuilt. (That a reader pinning the
//! epoch before last makes a refresh gather into a fresh epoch, and
//! that the spare is reused once unpinned, is the engine's unit test
//! `refresh_never_waits_for_a_pinned_epoch`: no public call can hold
//! an epoch pinned from here.)
//!
//! And proves the telemetry plane holds its zero-allocation contract
//! on both sides of the switch: disabled probes never touch the heap
//! (every warm window here runs with them compiled in), and once each
//! recording thread's ring exists, *enabled* tracing keeps every warm
//! tier heap-silent too — spans, instants, counters and histograms
//! are pure atomics in steady state.
//!
//! A counting global allocator wraps [`std::alloc::System`]; after a
//! warm-up call has grown the workspace and output buffers, further
//! warm solves must report **zero** allocator hits — the property the
//! zero-allocation tiers of the engine advertise. The counter is
//! process-global, so the serving window also proves the *dispatcher
//! thread* stays heap-silent: any allocation it made while the
//! measured requests run would land in the same counter. This lives in
//! its own integration-test binary so the global allocator swap cannot
//! perturb (or be perturbed by) other tests.

use mgpu_sim::MachineConfig;
use sparsemat::factor::ilu0;
use sparsemat::gen::{self, LevelSpec};
use sptrsv::krylov::PreconditionerEngine;
use sptrsv::serve::{serve_solver, ServiceConfig};
use sptrsv::{verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation entry point, delegating to the system
/// allocator. Deallocations are uncounted: the property under test is
/// "no new heap memory is requested during a warm solve".
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// with no side effects on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

// Single #[test] in this binary: the allocation counter is
// process-global, so a concurrently running sibling test would bleed
// its allocations into the measurement windows and flake the zero
// asserts. Keep everything (including the numeric sanity check) in one
// test function.
#[test]
fn warm_solve_into_and_panel_allocate_nothing() {
    // sanity first: the allocator swap must not perturb numerics
    {
        let m = gen::banded_lower(800, 8, 4.0, 3);
        let (_, b) = verify::rhs_for(&m, 42);
        let opts = SolveOptions::default();
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let r = engine.solve(&b).unwrap();
        assert!(r.verified_rel_err.unwrap() <= verify::DEFAULT_TOL);
    }

    let m = gen::level_structured(&LevelSpec::new(2000, 40, 8000, 23));
    let n = m.n();
    let bs: Vec<Vec<f64>> = (0..5u64).map(|k| verify::rhs_for(&m, 10 + k).1).collect();
    // same structure, perturbed values — the refresh windows below
    // prove the in-place value swap itself never touches the heap
    let m2 = {
        let mut t = m.clone();
        for (i, v) in t.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 7) as f64) * 0.01;
        }
        t
    };

    for (kind, verify_opt) in [
        (SolverKind::ZeroCopy { per_gpu: 8 }, false),
        (SolverKind::ZeroCopy { per_gpu: 8 }, true),
        (SolverKind::LevelSet, false),
        (SolverKind::Serial, false),
    ] {
        let opts = SolveOptions { kind, verify: verify_opt, ..SolveOptions::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut out = vec![0.0f64; n];
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];

        // warm-up: grows workspace + output buffers once
        engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
        engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();

        let single = allocations_during(|| {
            for b in &bs {
                engine.solve_into(b, &mut out, &mut ws).unwrap();
            }
        });
        assert_eq!(single, 0, "{kind:?} verify={verify_opt}: warm solve_into must not allocate");

        let panel = allocations_during(|| {
            engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
        });
        assert_eq!(
            panel, 0,
            "{kind:?} verify={verify_opt}: warm solve_panel_into must not allocate"
        );

        // value refresh: the first allocates the spare epoch refreshes
        // gather into (the retired one, reused while no reader pins
        // it); after it, structure validation, the numeric audit, the
        // gather, the snapshot swap and the epoch bump must all be
        // heap-silent — the operation's whole point is reusing the
        // recorded analysis, and a clean audit's empty finding lists
        // never allocate
        engine.refresh_values(&m).unwrap();
        let refreshed = allocations_during(|| {
            engine.refresh_values(&m2).unwrap();
            engine.refresh_values(&m).unwrap();
            engine.refresh_values(&m2).unwrap();
        });
        assert_eq!(refreshed, 0, "{kind:?} verify={verify_opt}: refresh_values must not allocate");
        // the refreshed engine keeps its warm zero-allocation property
        let post = allocations_during(|| {
            engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
        });
        assert_eq!(
            post, 0,
            "{kind:?} verify={verify_opt}: warm solve_into after a refresh must not allocate"
        );
    }

    // --- a fresh engine, one solve at a time: no warm-up tier, no
    // probe, no pool thread spawned behind the caller's back. The
    // heavy-shaped factor (wide levels, ~4 nonzeros per row) is laid
    // out in natural order and solves in the caller's `out`, so even
    // its first `solve_into` is heap-silent. The grid's ILU(0) `L` is
    // laid out level-major: its first call grows the caller's
    // workspace, and every later one is heap-silent.
    {
        let heavy = gen::level_structured(&LevelSpec::new(100_000, 200, 400_000, 11));
        let grid_l = ilu0(&gen::grid_laplacian(64, 64), 1e-8).unwrap().l;
        let opts = SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            verify: false,
            ..SolveOptions::default()
        };
        for (name, m, level_major) in [("heavy", &heavy, false), ("grid L", &grid_l, true)] {
            let engine = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
            let (_, b) = verify::rhs_for(m, 3);
            let mut ws = SolveWorkspace::new();
            let mut out = vec![0.0f64; m.n()];
            let first = allocations_during(|| engine.solve_into(&b, &mut out, &mut ws).unwrap());
            if level_major {
                assert!(first > 0, "{name}: the first solve grows the workspace");
            } else {
                assert_eq!(first, 0, "{name}: a natural-order solve needs no workspace");
            }
            for call in 2..=8 {
                let warm = allocations_during(|| engine.solve_into(&b, &mut out, &mut ws).unwrap());
                assert_eq!(warm, 0, "{name}: solve_into call #{call} must not allocate");
            }
        }
    }

    // --- the serving front-end: once the slots, group buffers and
    // queue have warmed up, a full submit → coalesce → dispatch →
    // wait_into cycle must be heap-silent — on BOTH sides of the
    // queue (the dispatcher thread's allocations land in the same
    // process-global counter). The panel fills deterministically: the
    // linger window is effectively infinite and lanes == burst size,
    // so every panel flushes exactly on Full with all 8 lanes.
    {
        let opts = SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            verify: false,
            ..SolveOptions::default()
        };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let burst: Vec<Vec<f64>> = (0..8u64).map(|k| verify::rhs_for(&m, 80 + k).1).collect();
        let expected: Vec<Vec<f64>> = burst.iter().map(|b| engine.solve(b).unwrap().x).collect();
        let cfg = ServiceConfig {
            max_lanes: 8,
            max_queue_requests: 64,
            max_linger: Duration::from_secs(300),
            ..Default::default()
        };
        serve_solver(&engine, &cfg, |svc| {
            let mut outs: Vec<Vec<f64>> = (0..8).map(|_| vec![0.0; n]).collect();
            let mut tickets = Vec::with_capacity(8);
            // warm-up rounds: create the slots, grow the queue, the
            // dispatcher group buffers and its panel workspace
            for _ in 0..3 {
                for b in &burst {
                    tickets.push(svc.submit(b).unwrap());
                }
                for (t, out) in tickets.drain(..).zip(outs.iter_mut()) {
                    t.wait_into(out).unwrap();
                }
            }
            let served = allocations_during(|| {
                for _ in 0..4 {
                    for b in &burst {
                        tickets.push(svc.submit(b).unwrap());
                    }
                    for (t, out) in tickets.drain(..).zip(outs.iter_mut()) {
                        t.wait_into(out).unwrap();
                    }
                }
            });
            assert_eq!(served, 0, "steady-state serving dispatch must not allocate");
            assert_eq!(outs, expected, "served results stay bit-identical to solve()");
        })
        .unwrap();
    }

    // --- the fault injection plane, disarmed (no plan installed): a
    // probe is one relaxed load of a cold flag — consulting it from a
    // hot loop costs zero heap allocations and reports no active plan.
    // (The serving window above already covers the probes embedded in
    // submit and dispatch; this pins the public query too.)
    {
        let inert = allocations_during(|| {
            for _ in 0..1000 {
                assert!(!sptrsv::fault::plan_active(), "no plan is armed");
            }
        });
        assert_eq!(inert, 0, "disabled fault plane must not touch the heap");
    }

    // --- the telemetry plane, disabled (the default): every window
    // above already ran with the span/metric probes compiled in and
    // switched off, so those zero asserts double as the proof that the
    // disabled probes never touch the heap. Pin the read side too: a
    // disabled digest is the default (empty) report.
    {
        let disabled = allocations_during(|| {
            for _ in 0..1000 {
                let r = sptrsv::telemetry::report();
                assert!(!r.enabled, "telemetry must be disabled by default");
            }
        });
        assert_eq!(disabled, 0, "disabled telemetry report() must not touch the heap");
    }

    // --- the telemetry plane, enabled: after each recording thread's
    // ring exists (the caller's is created by the warm-up solves
    // below), steady-state
    // recording — spans, instants, counters, histograms — is pure
    // atomics and must keep every warm tier heap-silent.
    {
        let opts = SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            verify: false,
            ..SolveOptions::default()
        };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut out = vec![0.0f64; n];
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
        sptrsv::telemetry::set_enabled(true);
        // warm-up: grows buffers AND allocates this thread's ring and
        // the spare epoch a refresh gathers into
        engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
        engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
        engine.refresh_values(&m).unwrap();

        let traced = allocations_during(|| {
            for b in &bs {
                engine.solve_into(b, &mut out, &mut ws).unwrap();
            }
            engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
            engine.refresh_values(&m2).unwrap();
        });
        sptrsv::telemetry::set_enabled(false);
        assert_eq!(traced, 0, "enabled telemetry must keep warm solves allocation-free");
    }

    // --- the preconditioner tier: warm apply_into / apply_batch_into
    // must be heap-silent too — it is the inner loop of every Krylov
    // iteration, the paper's §I workload
    let a = gen::spd_banded(1500, 12, 4.0, 7);
    let f = ilu0(&a, 1e-8).unwrap();
    for kind in [SolverKind::ZeroCopy { per_gpu: 8 }, SolverKind::Serial] {
        let opts = SolveOptions { kind, verify: false, ..SolveOptions::default() };
        let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(4), &opts).unwrap();
        let rs: Vec<Vec<f64>> = (0..5u64).map(|k| verify::rhs_for(&a, 50 + k).1).collect();
        let mut ws = pre.take_apply_workspace();
        let mut z = vec![0.0f64; a.n()];
        let mut zs: Vec<Vec<f64>> = vec![Vec::new(); rs.len()];

        // warm-up: grows the apply workspace + batch buffers once
        pre.apply_into(&rs[0], &mut z, &mut ws).unwrap();
        pre.apply_batch_into(&rs, &mut zs, &mut ws).unwrap();

        let apply = allocations_during(|| {
            for r in &rs {
                pre.apply_into(r, &mut z, &mut ws).unwrap();
            }
        });
        assert_eq!(apply, 0, "{kind:?}: warm apply_into must not allocate");

        let batch = allocations_during(|| {
            pre.apply_batch_into(&rs, &mut zs, &mut ws).unwrap();
        });
        assert_eq!(batch, 0, "{kind:?}: warm apply_batch_into must not allocate");
        pre.put_apply_workspace(ws);
    }
}
