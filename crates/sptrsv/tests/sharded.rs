//! Property tests for the sharded level-parallel warm tier.
//!
//! The contract under test is the owner-computes bit-identity: for any
//! factor, any worker count and any partition kind, a sharded warm
//! solve ([`SolverEngine::solve_sharded_into`]) produces **exactly**
//! the bits of the serial replay (`solve_into` / `solve`), because
//! every row is solved — and its partial sum accumulated in canonical
//! source order — by exactly one worker. Cases come from a
//! deterministic PCG32 (proptest is unavailable offline), matching the
//! repo's other suites.

use desim::Pcg32;
use mgpu_sim::MachineConfig;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::Triangle;
use sptrsv::{verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};

/// One kind per partition shape: `ShmemBlocked` exercises
/// `Partition::Blocked` ownership, `ZeroCopy` the round-robin task
/// pool, and `LevelSet` the plan-less (ownerless) segmentation.
fn kinds() -> Vec<SolverKind> {
    vec![SolverKind::ShmemBlocked, SolverKind::ZeroCopy { per_gpu: 8 }, SolverKind::LevelSet]
}

/// Sharded replay is bit-identical to the serial replay across random
/// lower/upper factors, every worker count 1–8 and both partition
/// kinds.
#[test]
fn sharded_bit_identical_to_serial_replay() {
    for case in 0..4u64 {
        let mut rng = Pcg32::seed_from_u64(0x5AA2DED + case);
        let n = 300 + rng.next_below(900) as usize;
        let lower =
            gen::level_structured(&LevelSpec::new(n, (n / 40).max(2), n * 4, rng.next_u64()));
        let upper = lower.transpose();
        for (m, tri) in [(&lower, Triangle::Lower), (&upper, Triangle::Upper)] {
            let (_, b) = verify::rhs_for(m, rng.next_u64());
            for kind in kinds() {
                let opts = SolveOptions { kind, triangle: tri, ..SolveOptions::default() };
                let engine = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
                let serial = engine.solve(&b).unwrap().x;
                let mut ws = SolveWorkspace::new();
                let mut out = vec![0.0f64; n];
                for workers in 1..=8usize {
                    out.fill(f64::NAN); // stale output must be fully overwritten
                    engine.solve_sharded_into(&b, &mut out, &mut ws, workers).unwrap();
                    assert_eq!(
                        out, serial,
                        "case {case} {kind:?}/{tri:?} workers={workers}: sharded bits"
                    );
                }
            }
        }
    }
}

/// The auto-heuristic tiers of `solve_into` agree with an explicitly
/// sharded solve and with `solve` on a factor wide enough to trip the
/// thresholds — and repeated sharded solves on one engine reuse the
/// pool deterministically.
#[test]
fn repeated_sharded_solves_are_deterministic() {
    // one very wide level keeps every worker busy: n rows over 8 levels
    let m = gen::level_structured(&LevelSpec::new(6000, 8, 24000, 3));
    let opts = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 11);
    let serial = engine.solve(&b).unwrap().x;
    let mut ws = SolveWorkspace::new();
    let mut out = vec![0.0f64; m.n()];
    for round in 0..5 {
        engine.solve_sharded_into(&b, &mut out, &mut ws, 4).unwrap();
        assert_eq!(out, serial, "round {round}");
    }
    // solve_into (auto tier) must agree bit-for-bit as well, whichever
    // tier its heuristic picked on this machine
    engine.solve_into(&b, &mut out, &mut ws).unwrap();
    assert_eq!(out, serial);
}

/// Concurrent sharded solves on one shared engine stay correct and
/// non-blocking: the pool admits one parallel region at a time, and a
/// caller finding the slot busy degrades to the (bit-identical)
/// serial replay instead of queueing.
#[test]
fn concurrent_sharded_solves_agree_bit_for_bit() {
    let m = gen::level_structured(&LevelSpec::new(4000, 8, 16000, 29));
    let opts = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let cases: Vec<(Vec<f64>, Vec<f64>)> = (0..4u64)
        .map(|k| {
            let (_, b) = verify::rhs_for(&m, 600 + k);
            let x = engine.solve(&b).unwrap().x;
            (b, x)
        })
        .collect();
    let engine = &engine;
    std::thread::scope(|s| {
        for (b, expect) in &cases {
            s.spawn(move || {
                let mut ws = SolveWorkspace::new();
                let mut out = vec![0.0f64; b.len()];
                for round in 0..3 {
                    engine.solve_sharded_into(b, &mut out, &mut ws, 4).unwrap();
                    assert_eq!(&out, expect, "round {round}");
                }
            });
        }
    });
}

/// New values on the recorded structure: scale every entry by a
/// position-dependent factor so no diagonal is zeroed.
fn perturbed(m: &sparsemat::CscMatrix) -> sparsemat::CscMatrix {
    let mut m2 = m.clone();
    for (i, v) in m2.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 7) as f64) * 0.01;
    }
    m2
}

/// Chain-fused replay (the default tuning on a deep/narrow factor
/// fuses nearly every level) is bit-identical to the serial replay for
/// every worker count 1–8 across all three engine kinds × both
/// triangles — **including after `refresh_values`**, which must leave
/// the Schedule IR untouched while the fused chains pick up the new
/// numeric epoch.
#[test]
fn chain_fused_bit_identical_including_after_refresh() {
    let lower = gen::deep_narrow(150, 4, 3.0, 0xC4A1);
    let upper = lower.transpose();
    for (m, tri) in [(&lower, Triangle::Lower), (&upper, Triangle::Upper)] {
        let m2 = perturbed(m);
        for kind in kinds() {
            let opts = SolveOptions { kind, triangle: tri, ..SolveOptions::default() };
            let engine = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
            let stats = engine.solve(&verify::rhs_for(m, 1).1).unwrap().schedule.unwrap();
            assert!(stats.fused_fraction > 0.5, "{kind:?}/{tri:?}: factor must actually fuse");
            let (_, b) = verify::rhs_for(m, 0xF00D);
            let serial = engine.solve(&b).unwrap().x;
            let mut ws = SolveWorkspace::new();
            let mut out = vec![0.0f64; m.n()];
            for workers in 1..=8usize {
                out.fill(f64::NAN);
                engine.solve_sharded_into(&b, &mut out, &mut ws, workers).unwrap();
                assert_eq!(out, serial, "{kind:?}/{tri:?} workers={workers}: fused bits");
            }
            // refresh to a new value epoch; the cold rebuild on the new
            // values is the bit-exact oracle for every worker count
            engine.refresh_values(&m2).unwrap();
            let cold = SolverEngine::build(&m2, MachineConfig::dgx1(4), &opts).unwrap();
            let expect = cold.solve(&b).unwrap().x;
            for workers in 1..=8usize {
                out.fill(f64::NAN);
                engine.solve_sharded_into(&b, &mut out, &mut ws, workers).unwrap();
                assert_eq!(
                    out, expect,
                    "{kind:?}/{tri:?} workers={workers}: fused bits after refresh"
                );
            }
        }
    }
}

/// On the deep/narrow corpus entry, chain fusion cuts barriers per
/// sharded solve by at least 5x against the per-level schedule
/// (`chain_width_threshold: 0`). Asserted from the reported Schedule
/// IR statistics, so it holds on any core count.
#[test]
fn chain_fusion_cuts_barriers_on_deep_narrow_corpus() {
    let entry = sparsemat::corpus::deep_narrow_entry();
    let m = &entry.matrix;
    let (_, b) = verify::rhs_for(m, 3);
    let fused_opts = SolveOptions { kind: SolverKind::LevelSet, ..SolveOptions::default() };
    let unfused_opts = SolveOptions { chain_width_threshold: 0, ..fused_opts.clone() };
    let fused = SolverEngine::build(m, MachineConfig::dgx1(1), &fused_opts)
        .unwrap()
        .solve(&b)
        .unwrap()
        .schedule
        .unwrap();
    let unfused = SolverEngine::build(m, MachineConfig::dgx1(1), &unfused_opts)
        .unwrap()
        .solve(&b)
        .unwrap()
        .schedule
        .unwrap();
    assert_eq!(fused.levels, unfused.levels, "same level structure");
    assert_eq!(unfused.chains, unfused.levels, "threshold 0 = one chain per level");
    assert_eq!(unfused.barriers_per_solve, unfused.levels - 1, "one barrier per level boundary");
    assert_eq!(fused.barriers_per_solve, fused.chains - 1, "one barrier per chain boundary");
    assert!(fused.fused_fraction > 0.9, "deep/narrow entry must fuse nearly everything");
    assert!(
        unfused.barriers_per_solve >= 5 * fused.barriers_per_solve.max(1),
        "chain fusion must cut barriers ≥5x: {} vs {}",
        unfused.barriers_per_solve,
        fused.barriers_per_solve
    );
}

/// The serial engine variant accepts the sharded entry point (workers
/// are irrelevant there) and still verifies.
#[test]
fn serial_variant_accepts_sharded_entry_point() {
    let m = gen::banded_lower(400, 6, 3.0, 9);
    let opts = SolveOptions { kind: SolverKind::Serial, ..Default::default() };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(1), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 21);
    let serial = engine.solve(&b).unwrap().x;
    let mut ws = SolveWorkspace::new();
    let mut out = vec![0.0f64; m.n()];
    engine.solve_sharded_into(&b, &mut out, &mut ws, 6).unwrap();
    assert_eq!(out, serial);
}

/// Caller-input problems on the sharded entry point are typed errors,
/// not panics.
#[test]
fn sharded_rejects_bad_inputs_with_typed_errors() {
    let m = gen::banded_lower(300, 5, 3.0, 2);
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
    let (_, b) = verify::rhs_for(&m, 1);
    let mut ws = SolveWorkspace::new();
    let mut out = vec![0.0f64; m.n()];
    let err = engine.solve_sharded_into(&[1.0, 2.0], &mut out, &mut ws, 4).unwrap_err();
    assert!(matches!(err, sptrsv::SolveError::DimensionMismatch { n: 300, rhs: 2, .. }));
    let mut short = vec![0.0f64; 7];
    let err = engine.solve_sharded_into(&b, &mut short, &mut ws, 4).unwrap_err();
    assert!(matches!(err, sptrsv::SolveError::OutputLength { n: 300, out: 7, .. }));
}
