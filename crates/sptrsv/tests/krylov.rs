//! Property tests for the preconditioned Krylov subsystem.
//!
//! Seeded PCG32 loops (the repo's substitute for proptest in this
//! offline container) check, across the SPD corpus and several engine
//! kinds:
//!
//! * `PreconditionerEngine::apply_into` is **bit-identical** to the
//!   sequential `reference::solve_lower` + `reference::solve_upper`
//!   pair — the preconditioner sweeps each engine's one factor, whose
//!   rows hold Algorithm 1's operand sequence in every order, so the
//!   whole Krylov trajectory is reproducible against the reference to
//!   the last bit, and so is a one-shot `sptrsv::solve` pair;
//! * the fused-panel `apply_batch_into` is bit-identical per RHS to
//!   the scalar apply;
//! * PCG with the ILU(0) `PreconditionerEngine` drives the relative
//!   residual below `1e-8` on every generated SPD corpus matrix, and
//!   BiCGSTAB does the same on a nonsymmetric convection-diffusion
//!   analog;
//! * the drivers accept either matrix orientation (`CscMatrix` /
//!   `CsrMatrix`) through the `SpMv` trait with identical results.

use desim::Pcg32;
use mgpu_sim::MachineConfig;
use sparsemat::factor::ilu0;
use sparsemat::{gen, CscMatrix, CsrMatrix, Triangle, TripletBuilder};
use sptrsv::krylov::{bicgstab, pcg, KrylovOptions, PreconditionerEngine};
use sptrsv::{reference, solve, verify, SolveError, SolveOptions, SolverKind};
use std::sync::atomic::{AtomicBool, Ordering};

fn opts(kind: SolverKind) -> SolveOptions {
    SolveOptions { kind, verify: false, ..SolveOptions::default() }
}

fn random_vec(n: usize, rng: &mut Pcg32) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect()
}

#[test]
fn apply_into_is_bit_identical_to_reference_pair() {
    let mut rng = Pcg32::seed_from_u64(0xA11C);
    for entry in sparsemat::spd_corpus() {
        let f = ilu0(&entry.matrix, 1e-8).unwrap();
        for kind in [SolverKind::ZeroCopy { per_gpu: 8 }, SolverKind::LevelSet, SolverKind::Serial]
        {
            let pre =
                PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(4), &opts(kind)).unwrap();
            let mut ws = pre.take_apply_workspace();
            let mut z = vec![0.0; entry.matrix.n()];
            for _ in 0..3 {
                let r = random_vec(entry.matrix.n(), &mut rng);
                pre.apply_into(&r, &mut z, &mut ws).unwrap();
                let y = reference::solve_lower(&f.l, &r).unwrap();
                let expect = reference::solve_upper(&f.u, &y).unwrap();
                assert_eq!(
                    z, expect,
                    "{}/{kind:?}: apply_into must be bit-identical to the reference pair",
                    entry.name
                );
            }
            pre.put_apply_workspace(ws);
        }
    }
}

/// The cold one-shot path shares the warm trajectory: `solve` on `L`
/// then on `U` with a simulated kind returns `apply_into`'s bits.
#[test]
fn one_shot_solve_pair_is_bit_identical_to_apply_into() {
    let a = gen::grid_laplacian(20, 17);
    let f = ilu0(&a, 1e-8).unwrap();
    let (cfg, kind) = (MachineConfig::dgx1(4), SolverKind::ZeroCopy { per_gpu: 8 });
    let pre = PreconditionerEngine::from_ilu0(&f, cfg.clone(), &opts(kind)).unwrap();
    let r = random_vec(a.n(), &mut Pcg32::seed_from_u64(0x0A5E));
    let side = |tri| SolveOptions { triangle: tri, ..opts(kind) };
    let y = solve(&f.l, &r, cfg.clone(), &side(Triangle::Lower)).unwrap().x;
    let z = solve(&f.u, &y, cfg, &side(Triangle::Upper)).unwrap().x;
    let mut warm = vec![f64::NAN; a.n()];
    pre.apply_into(&r, &mut warm, &mut pre.take_apply_workspace()).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&z), bits(&warm));
}

#[test]
fn apply_batch_into_matches_scalar_apply_bitwise() {
    let mut rng = Pcg32::seed_from_u64(0xBA7C);
    let a = gen::spd_banded(900, 10, 4.0, 17);
    let f = ilu0(&a, 1e-8).unwrap();
    let pre = PreconditionerEngine::from_ilu0(
        &f,
        MachineConfig::dgx1(4),
        &opts(SolverKind::ZeroCopy { per_gpu: 8 }),
    )
    .unwrap();
    let mut ws = pre.take_apply_workspace();
    // ragged batch sizes exercise the 8/4/2/1 panel kernels
    for &batch in &[1usize, 2, 5, 8, 13] {
        let rs: Vec<Vec<f64>> = (0..batch).map(|_| random_vec(a.n(), &mut rng)).collect();
        let mut zs: Vec<Vec<f64>> = vec![Vec::new(); batch];
        pre.apply_batch_into(&rs, &mut zs, &mut ws).unwrap();
        let mut z = vec![0.0; a.n()];
        for (k, r) in rs.iter().enumerate() {
            pre.apply_into(r, &mut z, &mut ws).unwrap();
            assert_eq!(zs[k], z, "batch={batch} rhs={k}: panel lane differs from scalar apply");
        }
    }
    pre.put_apply_workspace(ws);
}

#[test]
fn pcg_converges_on_the_spd_corpus() {
    for entry in sparsemat::spd_corpus() {
        let a = &entry.matrix;
        let f = ilu0(a, 1e-8).unwrap();
        let pre = PreconditionerEngine::from_ilu0(
            &f,
            MachineConfig::dgx1(4),
            &opts(SolverKind::ZeroCopy { per_gpu: 8 }),
        )
        .unwrap();
        let (_, b) = verify::rhs_for(a, 42);
        let kopts = KrylovOptions { max_iterations: 600, rel_tol: 1e-8 };
        let rep = pcg(a, &b, &pre, &kopts).unwrap();
        assert!(
            rep.converged,
            "{}: PCG did not converge in {} iterations (last rel resid {:.3e})",
            entry.name,
            rep.iterations,
            rep.final_rel_residual()
        );
        assert!(rep.final_rel_residual() <= 1e-8, "{}", entry.name);
        // the recurrence residual must agree with the true residual
        let true_resid = verify::rel_residual(a, &rep.x, &b);
        assert!(true_resid <= 1e-6, "{}: true residual {true_resid:.3e}", entry.name);
        // history is recorded per iteration, starting at 1.0
        assert_eq!(rep.residual_history.len(), rep.iterations + 1);
        assert_eq!(rep.residual_history[0], 1.0);
    }
}

#[test]
fn pcg_trajectory_is_deterministic() {
    let a = gen::grid_laplacian(40, 40);
    let f = ilu0(&a, 1e-8).unwrap();
    let (_, b) = verify::rhs_for(&a, 9);
    let kopts = KrylovOptions::default();
    let run = || {
        let pre = PreconditionerEngine::from_ilu0(
            &f,
            MachineConfig::dgx1(4),
            &opts(SolverKind::ZeroCopy { per_gpu: 8 }),
        )
        .unwrap();
        pcg(&a, &b, &pre, &kopts).unwrap()
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.x, r2.x, "PCG trajectory must be bit-reproducible");
    assert_eq!(r1.residual_history, r2.residual_history);
    assert_eq!(r1.iterations, r2.iterations);
}

#[test]
fn drivers_accept_csr_operators() {
    let a = gen::grid_laplacian(24, 24);
    let a_csr = CsrMatrix::from_csc(&a);
    let f = ilu0(&a, 1e-8).unwrap();
    let pre =
        PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::LevelSet))
            .unwrap();
    let (_, b) = verify::rhs_for(&a, 3);
    let kopts = KrylovOptions::default();
    let via_csc = pcg(&a, &b, &pre, &kopts).unwrap();
    let via_csr = pcg(&a_csr, &b, &pre, &kopts).unwrap();
    assert!(via_csc.converged && via_csr.converged);
    // CSR row-gather and CSC column-scatter sum in different orders,
    // so trajectories agree numerically (not bitwise)
    assert!(verify::rel_inf_diff(&via_csc.x, &via_csr.x) < 1e-6);
}

/// Nonsymmetric convection-diffusion analog on an `nx × ny` grid:
/// the 5-point Laplacian with upwind-biased east/west couplings.
fn convection_diffusion(nx: usize, ny: usize) -> CscMatrix {
    let n = nx * ny;
    let mut b = TripletBuilder::with_capacity(n, 5 * n);
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            b.push(i, i, 4.4);
            if x > 0 {
                b.push(i, idx(x - 1, y), -1.4); // upwind
            }
            if x + 1 < nx {
                b.push(i, idx(x + 1, y), -0.6);
            }
            if y > 0 {
                b.push(i, idx(x, y - 1), -1.2);
            }
            if y + 1 < ny {
                b.push(i, idx(x, y + 1), -0.8);
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn bicgstab_converges_on_nonsymmetric_systems() {
    let a = convection_diffusion(36, 30);
    assert_ne!(a, a.transpose(), "system must actually be nonsymmetric");
    let f = ilu0(&a, 1e-8).unwrap();
    let pre = PreconditionerEngine::from_ilu0(
        &f,
        MachineConfig::dgx1(4),
        &opts(SolverKind::ZeroCopy { per_gpu: 8 }),
    )
    .unwrap();
    let (_, b) = verify::rhs_for(&a, 11);
    let kopts = KrylovOptions { max_iterations: 400, rel_tol: 1e-8 };
    let rep = bicgstab(&a, &b, &pre, &kopts).unwrap();
    assert!(rep.converged, "BiCGSTAB stalled at {:.3e}", rep.final_rel_residual());
    assert!(verify::rel_residual(&a, &rep.x, &b) <= 1e-6);
    assert_eq!(rep.method, "bicgstab");
}

#[test]
fn bicgstab_also_solves_spd_systems() {
    let a = gen::spd_banded(700, 8, 4.0, 29);
    let f = ilu0(&a, 1e-8).unwrap();
    let pre =
        PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::LevelSet))
            .unwrap();
    let (_, b) = verify::rhs_for(&a, 5);
    let rep = bicgstab(&a, &b, &pre, &KrylovOptions::default()).unwrap();
    assert!(rep.converged);
    assert!(verify::rel_residual(&a, &rep.x, &b) <= 1e-6);
}

#[test]
fn driver_dimension_errors_are_typed() {
    let a = gen::grid_laplacian(8, 8);
    let f = ilu0(&a, 1e-8).unwrap();
    let pre =
        PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::Serial))
            .unwrap();
    let err = pcg(&a, &[1.0, 2.0], &pre, &KrylovOptions::default()).unwrap_err();
    assert!(matches!(err, SolveError::DimensionMismatch { n: 64, rhs: 2, .. }));
    // an operator of the wrong shape is a distinct error from a short
    // right-hand side, so the caller is pointed at the right argument
    let wrong_op = gen::grid_laplacian(5, 5);
    let err = bicgstab(&wrong_op, &vec![1.0; 64], &pre, &KrylovOptions::default()).unwrap_err();
    assert!(matches!(err, SolveError::ShapeMismatch { what: "operator", n: 64, got: 25 }));
}

/// Value refresh across the `L`/`U` pair: after
/// `PreconditionerEngine::refresh(&f2)`, scalar and fused-panel
/// applies are bit-identical to a preconditioner freshly built from
/// `f2` — no re-analysis, same trajectory bits.
#[test]
fn preconditioner_refresh_matches_fresh_pair_bitwise() {
    let mut rng = Pcg32::seed_from_u64(0x5EF2);
    let a = gen::spd_banded(800, 9, 4.0, 23);
    let f = ilu0(&a, 1e-8).unwrap();
    for kind in [SolverKind::Serial, SolverKind::ZeroCopy { per_gpu: 8 }] {
        let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(4), &opts(kind)).unwrap();
        // the operator drifts on its recorded pattern; refactor without
        // symbolic work, then refresh the warm pair in place
        let mut a2 = a.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 5) as f64) * 0.004;
        }
        let mut f2 = ilu0(&a, 1e-8).unwrap();
        sparsemat::factor::ilu0_refactor(&mut f2, &a2).unwrap();
        let (l_rep, u_rep) = pre.refresh(&f2).unwrap();
        assert_eq!(l_rep.value_epoch, 1, "{kind:?}: L epoch");
        assert_eq!(u_rep.value_epoch, 1, "{kind:?}: U epoch");

        let fresh =
            PreconditionerEngine::from_ilu0(&f2, MachineConfig::dgx1(4), &opts(kind)).unwrap();
        let mut ws = pre.take_apply_workspace();
        let mut fws = fresh.take_apply_workspace();
        let mut z = vec![0.0; a.n()];
        let mut ze = vec![0.0; a.n()];
        for _ in 0..3 {
            let r = random_vec(a.n(), &mut rng);
            pre.apply_into(&r, &mut z, &mut ws).unwrap();
            fresh.apply_into(&r, &mut ze, &mut fws).unwrap();
            assert_eq!(z, ze, "{kind:?}: refreshed apply differs from fresh pair");
        }
        let rs: Vec<Vec<f64>> = (0..5).map(|_| random_vec(a.n(), &mut rng)).collect();
        let mut zs: Vec<Vec<f64>> = vec![Vec::new(); rs.len()];
        let mut zes: Vec<Vec<f64>> = vec![Vec::new(); rs.len()];
        pre.apply_batch_into(&rs, &mut zs, &mut ws).unwrap();
        fresh.apply_batch_into(&rs, &mut zes, &mut fws).unwrap();
        assert_eq!(zs, zes, "{kind:?}: refreshed batch apply differs from fresh pair");
        pre.put_apply_workspace(ws);
        fresh.put_apply_workspace(fws);
    }
}

/// The pair refresh is atomic: a pair whose `U` is rejected must leave
/// `L` uncommitted too — no apply can ever see a new-`L`/old-`U` mix.
#[test]
fn preconditioner_refresh_is_pair_atomic_on_rejection() {
    let a = gen::spd_banded(300, 6, 4.0, 31);
    let f = ilu0(&a, 1e-8).unwrap();
    let pre =
        PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::LevelSet))
            .unwrap();
    let mut ws = pre.take_apply_workspace();
    let r: Vec<f64> = (0..a.n()).map(|i| (i as f64).cos()).collect();
    let mut before = vec![0.0; a.n()];
    pre.apply_into(&r, &mut before, &mut ws).unwrap();

    // a perfectly valid L paired with a poisoned U: validation covers
    // both triangles before either engine is touched
    let mut bad = ilu0(&a, 1e-8).unwrap();
    for v in bad.l.values_mut() {
        *v *= 1.01;
    }
    let mid = bad.u.nnz() / 2;
    bad.u.values_mut()[mid] = f64::NAN;
    let err = pre.refresh(&bad).unwrap_err();
    assert!(matches!(err, SolveError::Matrix(_)), "{err:?}");
    assert_eq!(pre.forward().value_epoch(), 0, "L must not commit when U is rejected");
    assert_eq!(pre.backward().value_epoch(), 0);
    let mut after = vec![0.0; a.n()];
    pre.apply_into(&r, &mut after, &mut ws).unwrap();
    assert_eq!(after, before, "the old pair must keep serving bit-identically");
    pre.put_apply_workspace(ws);
}

/// Pair atomicity under live refreshes: while another thread alternates
/// pair refreshes between `f2` and `f`, every `apply_into` returns the
/// old pair's bits or the new pair's — never a new-`L`/old-`U` mix.
#[test]
fn apply_into_never_sees_a_half_refreshed_pair() {
    let a = gen::spd_banded(600, 8, 4.0, 37);
    let f = ilu0(&a, 1e-8).unwrap();
    let perturb = |m: &mut CscMatrix| {
        for (i, v) in m.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 7) as f64 + 1.0) * 0.01;
        }
    };
    let mut f2 = f.clone();
    perturb(&mut f2.l);
    perturb(&mut f2.u);
    let o = opts(SolverKind::LevelSet);
    let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &o).unwrap();
    let fresh = PreconditionerEngine::from_ilu0(&f2, MachineConfig::dgx1(2), &o).unwrap();
    let r: Vec<f64> = (0..a.n()).map(|i| (i as f64 * 0.37).sin()).collect();
    let (old, new) = (pre.apply(&r).unwrap(), fresh.apply(&r).unwrap());
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
                pre.refresh(if k % 2 == 0 { &f2 } else { &f }).unwrap();
            }
        });
        let mut ws = pre.take_apply_workspace();
        let mut z = vec![0.0; a.n()];
        for _ in 0..400 {
            pre.apply_into(&r, &mut z, &mut ws).unwrap();
            torn += usize::from(z != old && z != new);
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(torn, 0, "apply_into saw a new-L/old-U mix");
}

#[test]
fn shared_resources_are_actually_shared() {
    let a = gen::grid_laplacian(16, 16);
    let f = ilu0(&a, 1e-8).unwrap();
    let pre =
        PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(2), &opts(SolverKind::LevelSet))
            .unwrap();
    assert!(
        std::sync::Arc::ptr_eq(pre.forward().resources(), pre.backward().resources()),
        "L and U engines must share one pool + workspace free-list"
    );
}
