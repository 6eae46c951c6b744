//! The paper's §I workload, end to end through the `krylov`
//! subsystem: PCG and BiCGSTAB with an ILU(0) preconditioner whose
//! forward/backward triangular solves run on a warm
//! [`PreconditionerEngine`] — two `SolverEngine`s (unit-lower `L`,
//! upper `U`) built once over one shared worker pool, then applied on
//! every Krylov iteration through the zero-allocation `apply_into`
//! path.
//!
//! Contrast with `examples/preconditioner_loop.rs`, which hand-rolls
//! the CG recurrence: here the drivers, the SpMV kernel and the
//! preconditioner pairing all come from the library, and the example
//! prints the amortization ledger the engines' calibration reports
//! price out — the analysis phase charged once versus on every one of
//! the `2 × iterations` triangular solves.
//!
//! Run with: `cargo run --release --example krylov_preconditioned`

use mgpu_sptrsv::prelude::*;
use sparsemat::factor::ilu0;
use sptrsv::krylov::{bicgstab, pcg, KrylovOptions, PreconditionerEngine};
use std::time::Instant;

fn main() {
    // An SPD system: 96x96 grid Laplacian, 9,216 unknowns.
    let a = sparsemat::gen::grid_laplacian(96, 96);
    println!("system: n = {}, nnz = {}", a.n(), a.nnz());

    let f = ilu0(&a, 1e-8).expect("factorization");

    // --- analysis phase, exactly once per factorization ---------------
    let t_build = Instant::now();
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let pre = PreconditionerEngine::from_ilu0(&f, MachineConfig::dgx1(4), &opts)
        .expect("L/U engine pair");
    println!("engine pair built (structure-only analysis, shared pool): {:?}", t_build.elapsed());

    let b: Vec<f64> = (0..a.n()).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
    let kopts = KrylovOptions { max_iterations: 400, rel_tol: 1e-10 };

    // --- PCG ----------------------------------------------------------
    let t = Instant::now();
    let rep = pcg(&a, &b, &pre, &kopts).expect("pcg");
    let wall = t.elapsed();
    println!(
        "\npcg: converged={} in {} iterations, rel residual {:.3e}, {wall:?}",
        rep.converged,
        rep.iterations,
        rep.final_rel_residual()
    );
    for (k, h) in rep.residual_history.iter().enumerate().step_by(8) {
        println!("  iter {k:>3}: |r|/|b| = {h:.3e}");
    }

    // --- BiCGSTAB on the same operator --------------------------------
    let rep2 = bicgstab(&a, &b, &pre, &kopts).expect("bicgstab");
    println!(
        "bicgstab: converged={} in {} iterations, rel residual {:.3e}",
        rep2.converged,
        rep2.iterations,
        rep2.final_rel_residual()
    );

    // --- the amortization ledger --------------------------------------
    // Every warm application replays the same value-independent
    // timeline, so the virtual cost of the preconditioner loop is the
    // calibration timings times the solve count — with the analysis
    // phase charged once (§II-B) or, naively, on every application.
    // PCG applies M⁻¹ once per iteration (the initial apply replaces
    // the skipped one of the exit iteration); BiCGSTAB applies twice
    // per full iteration (p̂ and ŝ — one fewer on a half-step exit,
    // which this run's trajectory does not take).
    let lt = pre.forward().calibration().expect("simulated").timings;
    let ut = pre.backward().calibration().expect("simulated").timings;
    let applications = (rep.iterations + 2 * rep2.iterations) as u64;
    let amortized = lt.total.as_ns()
        + ut.total.as_ns()
        + (applications - 1) * (lt.solve.as_ns() + ut.solve.as_ns());
    let unamortized = applications * (lt.total.as_ns() + ut.total.as_ns());
    println!("\ntriangular-solve applications: {applications} (L + U each)");
    println!("virtual time, analysis charged once:   {}", SimTime::from_ns(amortized));
    println!("virtual time, analysis per application: {}", SimTime::from_ns(unamortized));
    println!(
        "amortization saves {:.1}% of simulated preconditioner time",
        100.0 * (1.0 - amortized as f64 / unamortized.max(1) as f64)
    );
}
