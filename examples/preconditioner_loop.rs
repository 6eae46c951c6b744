//! Build-once/solve-many inside a Krylov iteration — the paper's
//! headline use case (§I): the same L/U factors are applied as a
//! preconditioner on *every* CG iteration, so the analysis phase
//! (level sets, schedule, relabelled factor) must be paid once, not
//! per solve.
//!
//! This example runs preconditioned conjugate gradients on a grid
//! Laplacian with an ILU(0) preconditioner. Two [`SolverEngine`]s are
//! built up front — one for `L`, one for `U` — and reused by every
//! iteration's forward/backward substitution through the
//! zero-allocation tier: `solve_into` with a reusable
//! [`SolveWorkspace`] and preallocated output buffers, so the steady
//! state of the CG loop performs no heap allocation in the
//! preconditioner at all. Per-solve virtual timings come from the
//! engines' shared calibration reports, simulated once on first
//! request (they are identical for every warm solve — the timeline is
//! value-independent). At the end it
//! prints the amortization ledger: wall-clock per warm solve, and the
//! simulated virtual time with the analysis charged once versus on
//! every application.
//!
//! Run with: `cargo run --release --example preconditioner_loop`

use mgpu_sptrsv::prelude::*;
use sparsemat::factor::ilu0;
use std::time::Instant;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn main() {
    // A 90x90 grid: 8,100 unknowns, 5-point stencil.
    let a = sparsemat::gen::grid_laplacian(90, 90);
    let n = a.n();
    println!("system: n = {n}, nnz = {}", a.nnz());

    let f = ilu0(&a, 1e-8).expect("factorization");

    // --- analysis phase, exactly once per factor ----------------------
    let t_build = Instant::now();
    let fwd_opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        triangle: Triangle::Lower,
        verify: false,
        ..Default::default()
    };
    let bwd_opts = SolveOptions { triangle: Triangle::Upper, ..fwd_opts.clone() };
    let l_engine =
        SolverEngine::build(&f.l, MachineConfig::dgx1(4), &fwd_opts).expect("L analysis");
    let u_engine =
        SolverEngine::build(&f.u, MachineConfig::dgx1(4), &bwd_opts).expect("U analysis");
    let build_wall = t_build.elapsed();
    println!("engines built (structure-only analysis): {build_wall:?}");

    // --- preconditioned conjugate gradients ---------------------------
    // M^-1 r = U^-1 (L^-1 r), both triangular solves on warm engines
    // through the zero-allocation tier: one workspace + two output
    // buffers, reused by every iteration.
    let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) / 11.0).collect();
    let mut x = vec![0.0f64; n];
    let mut r = b.clone();
    let mut solves = 0usize;
    let mut solve_wall = std::time::Duration::ZERO;
    let mut amortized_ns = 0u64;
    let mut unamortized_ns = 0u64;

    // every warm solve replays the same value-independent timeline, so
    // the per-solve virtual timings are simply the calibration's
    let l_timings = l_engine.calibration().expect("simulated").timings;
    let u_timings = u_engine.calibration().expect("simulated").timings;

    let mut ws = SolveWorkspace::new();
    let mut y = vec![0.0f64; n];
    let mut z = vec![0.0f64; n];
    let mut apply_preconditioner =
        |r: &[f64], y: &mut [f64], z: &mut [f64], ws: &mut SolveWorkspace| {
            let t0 = Instant::now();
            l_engine.solve_into(r, y, ws).expect("forward solve");
            u_engine.solve_into(y, z, ws).expect("backward solve");
            solve_wall += t0.elapsed();
            for t in [&l_timings, &u_timings] {
                amortized_ns += if solves < 2 {
                    t.total.as_ns() // first L and first U pay analysis
                } else {
                    t.solve.as_ns()
                };
                unamortized_ns += t.total.as_ns();
                solves += 1;
            }
        };

    apply_preconditioner(&r, &mut y, &mut z, &mut ws);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let b_norm = dot(&b, &b).sqrt();
    let mut iterations = 0usize;

    for k in 0..200 {
        iterations = k + 1;
        let ap = a.matvec(&p);
        let alpha = rz / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let r_norm = dot(&r, &r).sqrt();
        if k % 10 == 0 {
            println!("iter {k:>3}: |r|/|b| = {:.3e}", r_norm / b_norm);
        }
        if r_norm / b_norm < 1e-10 {
            break;
        }
        apply_preconditioner(&r, &mut y, &mut z, &mut ws);
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    // --- the amortization ledger --------------------------------------
    let resid = {
        let ax = a.matvec(&x);
        let rr: f64 = ax.iter().zip(&b).map(|(v, w)| (v - w) * (v - w)).sum();
        rr.sqrt() / b_norm
    };
    println!("\nconverged in {iterations} iterations, final |Ax-b|/|b| = {resid:.3e}");
    println!("triangular solves: {solves} ({} per iteration)", 2);
    println!(
        "wall-clock: build {build_wall:?} once, then {:?} per warm solve",
        solve_wall / solves.max(1) as u32
    );
    println!("virtual time, analysis charged once:      {}", desim::SimTime::from_ns(amortized_ns));
    println!(
        "virtual time, analysis on every solve:    {}",
        desim::SimTime::from_ns(unamortized_ns)
    );
    println!(
        "amortization saves {:.1}% of simulated preconditioner time",
        100.0 * (1.0 - amortized_ns as f64 / unamortized_ns.max(1) as f64)
    );
}
