//! Build-once/solve-many engine contract tests:
//!
//! 1. `engine.solve(&b)` is **bit-identical** to one-shot
//!    `solve(&l, &b, …)` for every `SolverKind` variant — same
//!    solution bits, same virtual timings, same event counts.
//! 2. Build is structure-only: the calibration simulation runs once,
//!    on the first call that reads it, and warm solves perform zero
//!    analysis construction (level sets, plans, adjacency), checked
//!    against the per-thread counters.
//! 3. Two `solve_batch` calls on one engine are deterministic across
//!    runs and across worker counts.
//!
//! Cases are drawn from a deterministic PCG32 (proptest is unavailable
//! offline).

use desim::Pcg32;
use mgpu_sim::MachineConfig;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::Triangle;
use sptrsv::{exec, plan, solve, verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn all_kinds() -> Vec<SolverKind> {
    vec![
        SolverKind::Serial,
        SolverKind::LevelSet,
        SolverKind::SyncFree,
        SolverKind::Unified,
        SolverKind::UnifiedTasks { per_gpu: 8 },
        SolverKind::ShmemBlocked,
        SolverKind::ShmemNaive,
        SolverKind::ZeroCopy { per_gpu: 8 },
        SolverKind::ZeroCopyTotal { total: 32 },
    ]
}

/// Property: for random systems and every variant, a warm engine solve
/// reproduces the one-shot path bit for bit.
#[test]
fn engine_solve_bit_identical_to_one_shot_for_all_kinds() {
    for case in 0..6u64 {
        let mut rng = Pcg32::seed_from_u64(0xE9612E + case);
        let n = 200 + rng.next_below(600) as usize;
        let m = gen::level_structured(&LevelSpec::new(n, (n / 13).max(1), n * 4, rng.next_u64()));
        let (_, b) = verify::rhs_for(&m, rng.next_u64());
        for kind in all_kinds() {
            let opts = SolveOptions { kind, ..SolveOptions::default() };
            let one_shot = solve(&m, &b, MachineConfig::dgx1(4), &opts)
                .unwrap_or_else(|e| panic!("one-shot {kind:?}: {e}"));
            let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
            // discard one warm-up solve so the second one is maximally warm
            let _ = engine.solve(&b).unwrap();
            let warm = engine.solve(&b).unwrap();
            assert_eq!(one_shot.x, warm.x, "case {case} {kind:?}: x bits");
            assert_eq!(one_shot.timings.total, warm.timings.total, "case {case} {kind:?}");
            assert_eq!(one_shot.timings.analysis, warm.timings.analysis, "case {case} {kind:?}");
            assert_eq!(one_shot.timings.solve, warm.timings.solve, "case {case} {kind:?}");
            assert_eq!(one_shot.events, warm.events, "case {case} {kind:?}");
            assert_eq!(one_shot.cross_edges, warm.cross_edges, "case {case} {kind:?}");
            assert_eq!(engine.cross_edges(), warm.cross_edges, "case {case} {kind:?}");
            assert_eq!(one_shot.kernels, warm.kernels, "case {case} {kind:?}");
            assert_eq!(one_shot.schedule, warm.schedule, "case {case} {kind:?}");
            let stats = |r: &sptrsv::SolveReport| format!("{:?}", r.stats);
            assert_eq!(stats(&one_shot), stats(&warm), "case {case} {kind:?}: machine stats");
        }
    }
}

/// Once calibrated, solves construct nothing: no level-set analyses,
/// no plans, no exec adjacency builds — across every variant.
#[test]
fn warm_solves_never_reanalyze() {
    let m = gen::level_structured(&LevelSpec::new(1500, 30, 6000, 77));
    let (_, b) = verify::rhs_for(&m, 7);
    for kind in all_kinds() {
        let opts = SolveOptions { kind, ..SolveOptions::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        // the first `solve()` would simulate: calibrate up front
        engine.calibration();
        let levels = sparsemat::levels::analyze_invocations();
        let plans = plan::build_invocations();
        let execs = exec::analysis_builds();
        for _ in 0..3 {
            engine.solve(&b).unwrap();
        }
        // opts.verify = true runs the serial reference per solve, which
        // must not analyze either
        assert_eq!(sparsemat::levels::analyze_invocations(), levels, "{kind:?}: levels rebuilt");
        assert_eq!(plan::build_invocations(), plans, "{kind:?}: plan rebuilt");
        assert_eq!(exec::analysis_builds(), execs, "{kind:?}: adjacency rebuilt");
    }
}

/// The build contract: `build` is structure-only, and so is every warm
/// tier and a value refresh — no execution plan, no simulator
/// adjacency. The calibration runs on the first call that reads it,
/// exactly once, and later calls share its report.
#[test]
fn build_is_structure_only() {
    let m = gen::level_structured(&LevelSpec::new(1200, 24, 4800, 61));
    let bs: Vec<Vec<f64>> = (0..5).map(|k| verify::rhs_for(&m, 60 + k).1).collect();
    // what a calibration builds on this thread: a level-set solver
    // re-analyzes its levels, every other simulated kind builds the
    // simulator's plan and adjacency
    let simulations = || {
        sparsemat::levels::analyze_invocations()
            + plan::build_invocations()
            + exec::analysis_builds()
    };
    for kind in all_kinds() {
        let opts = SolveOptions { kind, ..SolveOptions::default() };
        let (plans, execs) = (plan::build_invocations(), exec::analysis_builds());
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut out = vec![0.0f64; m.n()];
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
        engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
        engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
        engine.solve_batch_into(&bs, &mut outs).unwrap();
        engine.refresh_values(&m).unwrap();
        assert_eq!(plan::build_invocations(), plans, "{kind:?}: a plan was built");
        assert_eq!(exec::analysis_builds(), execs, "{kind:?}: adjacency was built");

        let before = simulations();
        let first = engine.calibration().map(Arc::clone);
        let after_first = simulations();
        let second = engine.calibration().map(Arc::clone);
        assert_eq!(simulations(), after_first, "{kind:?}: the second call simulated again");
        match (first, second) {
            (Some(a), Some(b)) => {
                assert!(after_first > before, "{kind:?}: the first call must simulate");
                assert!(Arc::ptr_eq(&a, &b), "{kind:?}: one calibration, one report");
            }
            (None, None) => {
                assert_eq!(kind, SolverKind::Serial, "only the serial kind has no calibration");
                assert_eq!(after_first, before, "the serial kind never simulates");
            }
            _ => panic!("{kind:?}: calibration() must be stable"),
        }
    }
    // two threads racing on the first calibration run exactly one
    for kind in [SolverKind::LevelSet, SolverKind::ZeroCopy { per_gpu: 8 }] {
        let opts = SolveOptions { kind, ..SolveOptions::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let race = std::sync::Barrier::new(2);
        let [(a, na), (b, nb)] = std::thread::scope(|s| {
            let racer = || {
                race.wait();
                let before = simulations();
                let report = Arc::clone(engine.calibration().expect("simulated kind"));
                (report, simulations() - before)
            };
            let (ta, tb) = (s.spawn(racer), s.spawn(racer));
            [ta.join().unwrap(), tb.join().unwrap()]
        });
        assert!(Arc::ptr_eq(&a, &b), "{kind:?}: both racers see one report");
        assert!(na.min(nb) == 0 && na.max(nb) > 0, "{kind:?}: exactly one racer simulated");
    }
}

/// Two `solve_batch` calls on one engine agree with each other and
/// with a fresh engine, whatever the thread count.
#[test]
fn solve_batch_deterministic_across_runs() {
    let m = gen::level_structured(&LevelSpec::new(1000, 25, 4000, 3));
    let bs: Vec<Vec<f64>> = (0..12).map(|k| verify::rhs_for(&m, 900 + k).1).collect();
    let opts = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let a = engine.solve_batch(&bs).unwrap();
    let b2 = engine.solve_batch(&bs).unwrap();
    let fresh = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts)
        .unwrap()
        .solve_batch_with_threads(&bs, 2)
        .unwrap();
    assert_eq!(a.total, b2.total);
    assert_eq!(a.total, fresh.total);
    assert_eq!(a.reports.len(), bs.len());
    for ((ra, rb), rf) in a.reports.iter().zip(&b2.reports).zip(&fresh.reports) {
        assert_eq!(ra.x, rb.x);
        assert_eq!(ra.x, rf.x);
        assert_eq!(ra.timings.total, rb.timings.total);
        assert_eq!(ra.events, rf.events);
    }
}

/// The engine-backed multi-RHS accounting still amortizes: shared
/// analysis beats per-solve analysis.
#[test]
fn batch_total_amortizes_versus_unamortized() {
    let m = gen::level_structured(&LevelSpec::new(800, 16, 3200, 5));
    let bs: Vec<Vec<f64>> = (0..6).map(|k| verify::rhs_for(&m, 40 + k).1).collect();
    let opts = SolveOptions { kind: SolverKind::Unified, ..Default::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let multi = engine.solve_batch(&bs).unwrap();
    assert!(multi.total < multi.unamortized_total());
}

/// Property (the fused-panel contract): for random systems, every
/// solver kind, both triangles and batch sizes that do and do not
/// divide the panel width (including K = 1), `solve_into`,
/// `solve_panel_into` and `solve_batch_into` are all **bit-identical**
/// to per-RHS `SolverEngine::solve`.
#[test]
fn panel_and_into_paths_bit_identical_to_solve_for_all_kinds() {
    for case in 0..3u64 {
        let mut rng = Pcg32::seed_from_u64(0xFA7ED + case);
        let n = 200 + rng.next_below(500) as usize;
        let lower =
            gen::level_structured(&LevelSpec::new(n, (n / 11).max(1), n * 4, rng.next_u64()));
        let upper = lower.transpose();
        for (m, tri) in [(&lower, Triangle::Lower), (&upper, Triangle::Upper)] {
            for kind in all_kinds() {
                let opts = SolveOptions { kind, triangle: tri, ..SolveOptions::default() };
                let engine = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
                // 1, 5 and 13 exercise the K=1 block, a 4+1 ragged tail
                // and an 8+4+1 decomposition of the panel width
                for batch in [1usize, 5, 13] {
                    let bs: Vec<Vec<f64>> =
                        (0..batch as u64).map(|k| verify::rhs_for(m, 3000 + k).1).collect();
                    let expect: Vec<Vec<f64>> =
                        bs.iter().map(|b| engine.solve(b).unwrap().x).collect();

                    let mut ws = SolveWorkspace::new();
                    let mut out = vec![0.0f64; n];
                    engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
                    assert_eq!(out, expect[0], "{kind:?}/{tri:?}: solve_into bits");

                    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); batch];
                    engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
                    assert_eq!(outs, expect, "{kind:?}/{tri:?} batch={batch}: panel bits");

                    let mut batch_outs: Vec<Vec<f64>> = vec![Vec::new(); batch];
                    engine.solve_batch_into(&bs, &mut batch_outs).unwrap();
                    assert_eq!(batch_outs, expect, "{kind:?}/{tri:?} batch={batch}: batch bits");
                }
            }
        }
    }
}

/// A bad right-hand side anywhere in the batch fails fast — before any
/// chunk has been handed to a worker — with the offending length.
#[test]
fn batch_rejects_bad_dimensions_up_front() {
    let m = gen::level_structured(&LevelSpec::new(600, 12, 2400, 9));
    let mut bs: Vec<Vec<f64>> = (0..8).map(|k| verify::rhs_for(&m, k).1).collect();
    bs[6] = vec![1.0, 2.0, 3.0]; // wrong length, late in the batch
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
    for threads in [1usize, 4] {
        let err = engine.solve_batch_with_threads(&bs, threads).unwrap_err();
        assert!(
            matches!(err, sptrsv::SolveError::DimensionMismatch { n: 600, rhs: 3, .. }),
            "threads={threads}: {err:?}"
        );
    }
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    let err = engine.solve_batch_into(&bs, &mut outs).unwrap_err();
    assert!(matches!(err, sptrsv::SolveError::DimensionMismatch { n: 600, rhs: 3, .. }));
}

/// Regression: a batch whose `outs` does not hold one vector per
/// right-hand side used to `assert_eq!`-panic across the public API;
/// it must be a typed error on every batch entry point.
#[test]
fn mismatched_output_count_is_an_error_not_a_panic() {
    let m = gen::level_structured(&LevelSpec::new(500, 10, 2000, 13));
    let bs: Vec<Vec<f64>> = (0..6).map(|k| verify::rhs_for(&m, k).1).collect();
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
    let mut ws = SolveWorkspace::new();

    let mut too_few: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let err = engine.solve_batch_into(&bs, &mut too_few).unwrap_err();
    assert!(matches!(err, sptrsv::SolveError::OutputLength { n: 6, out: 4, .. }), "{err:?}");
    let err = engine.solve_panel_into(&bs, &mut too_few, &mut ws).unwrap_err();
    assert!(matches!(err, sptrsv::SolveError::OutputLength { n: 6, out: 4, .. }), "{err:?}");

    let mut too_many: Vec<Vec<f64>> = vec![Vec::new(); 9];
    let err = engine.solve_batch_into(&bs, &mut too_many).unwrap_err();
    assert!(matches!(err, sptrsv::SolveError::OutputLength { n: 6, out: 9, .. }), "{err:?}");

    // the error message names both counts so the caller knows which
    // argument to fix
    let msg = err.to_string();
    assert!(msg.contains('6') && msg.contains('9'), "{msg}");

    // and the engine still works afterwards
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    engine.solve_batch_into(&bs, &mut outs).unwrap();
    for (o, b) in outs.iter().zip(&bs) {
        assert_eq!(o, &engine.solve(b).unwrap().x);
    }
}

/// New values on the recorded structure: scale every entry by a
/// position-dependent factor so no two refreshes are alike and no
/// diagonal is zeroed.
fn perturbed(m: &sparsemat::CscMatrix) -> sparsemat::CscMatrix {
    let mut m2 = m.clone();
    for (i, v) in m2.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 7) as f64) * 0.01;
    }
    m2
}

/// The tentpole contract: after `refresh_values(&m2)`, every warm tier
/// — plain solve, `solve_into`, the fused panel and the pooled batch —
/// is **bit-identical** to a cold
/// engine built from `m2`, for representative engine kinds and both
/// triangles.
#[test]
fn refresh_matches_cold_rebuild_across_all_tiers_and_triangles() {
    let lower = gen::level_structured(&LevelSpec::new(500, 14, 2000, 21));
    let upper = lower.transpose();
    for (m, tri) in [(&lower, Triangle::Lower), (&upper, Triangle::Upper)] {
        let m2 = perturbed(m);
        for kind in [SolverKind::Serial, SolverKind::LevelSet, SolverKind::ZeroCopy { per_gpu: 8 }]
        {
            let opts = SolveOptions { kind, triangle: tri, ..SolveOptions::default() };
            let warm = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
            let _ = warm.solve(&verify::rhs_for(m, 1).1).unwrap(); // serve the old epoch first
            let report = warm.refresh_values(&m2).unwrap();
            assert_eq!(report.value_epoch, 1, "{kind:?}/{tri:?}: first refresh is epoch 1");
            assert_eq!(warm.value_epoch(), 1);
            assert_eq!(report.n, m2.n());
            assert_eq!(report.nnz, m2.nnz());
            assert!(report.audit.is_clean());

            let cold = SolverEngine::build(&m2, MachineConfig::dgx1(4), &opts).unwrap();
            let bs: Vec<Vec<f64>> = (0..5).map(|k| verify::rhs_for(m, 5000 + k).1).collect();
            let expect: Vec<Vec<f64>> = bs.iter().map(|b| cold.solve(b).unwrap().x).collect();

            for (b, e) in bs.iter().zip(&expect) {
                assert_eq!(&warm.solve(b).unwrap().x, e, "{kind:?}/{tri:?}: solve bits");
            }
            let mut ws = SolveWorkspace::new();
            let mut out = vec![0.0f64; m.n()];
            warm.solve_into(&bs[0], &mut out, &mut ws).unwrap();
            assert_eq!(out, expect[0], "{kind:?}/{tri:?}: solve_into bits");
            let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
            warm.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
            assert_eq!(outs, expect, "{kind:?}/{tri:?}: panel bits");
            let mut batch_outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
            warm.solve_batch_into(&bs, &mut batch_outs).unwrap();
            assert_eq!(batch_outs, expect, "{kind:?}/{tri:?}: batch bits");

            // a second refresh back to the original values round-trips
            let report = warm.refresh_values(m).unwrap();
            assert_eq!(report.value_epoch, 2);
            let original = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
            assert_eq!(
                warm.solve(&bs[0]).unwrap().x,
                original.solve(&bs[0]).unwrap().x,
                "{kind:?}/{tri:?}: round-trip bits"
            );
        }
    }
}

/// Value refresh is analysis-free: no level-set analyses, no plan
/// builds, no exec adjacency construction anywhere in the refresh —
/// the same counters the warm-solve contract is proved with.
#[test]
fn refresh_performs_zero_symbolic_work() {
    let m = gen::level_structured(&LevelSpec::new(1200, 24, 4800, 31));
    let m2 = perturbed(&m);
    for kind in [SolverKind::Serial, SolverKind::LevelSet, SolverKind::ZeroCopy { per_gpu: 8 }] {
        let opts = SolveOptions { kind, ..SolveOptions::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let levels = sparsemat::levels::analyze_invocations();
        let plans = plan::build_invocations();
        let execs = exec::analysis_builds();
        for swap in [&m2, &m, &m2] {
            engine.refresh_values(swap).unwrap();
        }
        assert_eq!(sparsemat::levels::analyze_invocations(), levels, "{kind:?}: levels rebuilt");
        assert_eq!(plan::build_invocations(), plans, "{kind:?}: plan rebuilt");
        assert_eq!(exec::analysis_builds(), execs, "{kind:?}: adjacency rebuilt");
    }
}

/// Structure drift is a typed rejection carrying both structure
/// hashes, and the engine keeps serving the old values bit-identically
/// — the strong exception guarantee.
#[test]
fn refresh_rejects_structure_drift_and_keeps_old_values() {
    let m = gen::level_structured(&LevelSpec::new(400, 10, 1600, 41));
    let other = gen::banded_lower(400, 6, 3.0, 41); // same n, different pattern
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &SolveOptions::default()).unwrap();
    let (_, b) = verify::rhs_for(&m, 9);
    let before = engine.solve(&b).unwrap().x;

    let err = engine.refresh_values(&other).unwrap_err();
    match err {
        sptrsv::SolveError::StructureMismatch { expected, got } => {
            assert_ne!(expected, got, "the two hashes must name different structures");
        }
        e => panic!("expected StructureMismatch, got {e:?}"),
    }
    assert_eq!(engine.value_epoch(), 0, "a rejected refresh must not bump the epoch");
    assert_eq!(engine.solve(&b).unwrap().x, before, "old values must keep serving");
}

/// Non-finite entries and zero pivots are rejected by the same audit a
/// cold build runs, before any mutation — old state intact, typed
/// error out.
#[test]
fn refresh_rejects_bad_values_and_keeps_old_state() {
    let m = gen::level_structured(&LevelSpec::new(300, 8, 1200, 51));
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(2), &SolveOptions::default()).unwrap();
    let (_, b) = verify::rhs_for(&m, 3);
    let before = engine.solve(&b).unwrap().x;

    let mut poisoned = m.clone();
    let mid = poisoned.nnz() / 2;
    poisoned.values_mut()[mid] = f64::NAN;
    let err = engine.refresh_values(&poisoned).unwrap_err();
    assert!(
        matches!(err, sptrsv::SolveError::Matrix(sparsemat::MatrixError::NonFiniteValue { .. })),
        "{err:?}"
    );

    let mut singular = m.clone();
    singular.values_mut()[0] = 0.0; // first entry of column 0 is its diagonal
    let err = engine.refresh_values(&singular).unwrap_err();
    assert!(
        matches!(err, sptrsv::SolveError::Matrix(sparsemat::MatrixError::ZeroDiagonal { .. })),
        "{err:?}"
    );

    assert_eq!(engine.value_epoch(), 0);
    assert_eq!(engine.solve(&b).unwrap().x, before, "old values must keep serving");
}

/// Batched solves reuse one persistent pool: repeated calls leave the
/// worker count unchanged, and results stay deterministic.
#[test]
fn repeated_batches_share_the_worker_pool() {
    let m = gen::level_structured(&LevelSpec::new(900, 20, 3600, 17));
    let bs: Vec<Vec<f64>> = (0..24).map(|k| verify::rhs_for(&m, 70 + k).1).collect();
    let opts = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let first = engine.solve_batch_with_threads(&bs, 4).unwrap();
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    for _ in 0..3 {
        engine.solve_batch_into(&bs, &mut outs).unwrap();
        for (o, r) in outs.iter().zip(&first.reports) {
            assert_eq!(o, &r.x, "pool reuse must not perturb results");
        }
    }
}

/// One epoch per batch call: while another thread alternates refreshes
/// between `m2` and `m`, every 64-RHS `solve_batch_into` returns, lane
/// for lane, all old-epoch or all new-epoch bits — the call pins one
/// snapshot for all of its pooled chunks.
#[test]
fn solve_batch_into_serves_one_epoch_per_call_under_refreshes() {
    let m = gen::level_structured(&LevelSpec::new(2000, 16, 8000, 71));
    let m2 = perturbed(&m);
    let opts = SolveOptions { verify: false, ..SolveOptions::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let cold2 = SolverEngine::build(&m2, MachineConfig::dgx1(4), &opts).unwrap();
    let bs: Vec<Vec<f64>> = (0..64).map(|k| verify::rhs_for(&m, 900 + k).1).collect();
    let old: Vec<Vec<f64>> = bs.iter().map(|b| engine.solve(b).unwrap().x).collect();
    let new: Vec<Vec<f64>> = bs.iter().map(|b| cold2.solve(b).unwrap().x).collect();
    assert_ne!(old, new);
    let done = AtomicBool::new(false);
    let mut torn = 0usize;
    std::thread::scope(|s| {
        s.spawn(|| {
            // Relaxed: the flag publishes nothing but itself
            for k in 0usize.. {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                engine.refresh_values(if k % 2 == 0 { &m2 } else { &m }).unwrap();
            }
        });
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
        for _ in 0..48 {
            engine.solve_batch_into(&bs, &mut outs).unwrap();
            torn += usize::from(outs != old && outs != new);
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(torn, 0, "a batch returned lanes from two value epochs");
}
