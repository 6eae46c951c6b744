//! Property tests for the sharded entry point.
//!
//! [`SolverEngine::solve_sharded_into`] is kept for the layered
//! benchmark; it runs the same serial row sweep as `solve_into` and
//! ignores its worker count. The contract under test: for any factor,
//! any worker count and any partition kind it produces **exactly** the
//! bits of `solve`, and caller-input problems are typed errors. Cases
//! come from a deterministic PCG32 (proptest is unavailable offline),
//! matching the repo's other suites.

use desim::Pcg32;
use mgpu_sim::MachineConfig;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::Triangle;
use sptrsv::{verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};

/// One kind per partition shape: `ShmemBlocked` exercises
/// `Partition::Blocked` ownership, `ZeroCopy` the round-robin task
/// pool, and `LevelSet` the plan-less build.
fn kinds() -> Vec<SolverKind> {
    vec![SolverKind::ShmemBlocked, SolverKind::ZeroCopy { per_gpu: 8 }, SolverKind::LevelSet]
}

/// The sharded entry point is bit-identical to `solve` across random
/// lower/upper factors, every worker count 1–8 and every partition
/// kind.
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
