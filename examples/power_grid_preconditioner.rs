//! Power-grid simulation scenario (one of the paper's motivating HPC
//! applications, §I): factor a structured-grid conductance matrix with
//! ILU(0) and use the triangular factors as a preconditioner step —
//! forward solve with L, backward solve with U — on a multi-GPU node.
//!
//! Run with: `cargo run --release --example power_grid_preconditioner`

use mgpu_sptrsv::prelude::*;
use sparsemat::factor::ilu0;

fn main() {
    // A 120x100 grid network: 12,000 buses, 5-point coupling.
    let a = sparsemat::gen::grid_laplacian(120, 100);
    println!("grid system: n = {}, nnz = {}", a.n(), a.nnz());

    // MA48 stand-in: ILU(0) factorization A ~= L*U.
    let f = ilu0(&a, 1e-8).expect("factorization");
    let l_stats = sparsemat::levels::TriStats::compute(&f.l, Triangle::Lower);
    println!(
        "L factor: nnz = {}, levels = {}, parallelism = {:.0}",
        l_stats.nnz, l_stats.levels, l_stats.parallelism
    );

    // One preconditioner application: z = U^-1 (L^-1 r).
    let r: Vec<f64> = (0..a.n()).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();

    let fwd = sptrsv::solve(
        &f.l,
        &r,
        MachineConfig::dgx1(4),
        &SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            triangle: Triangle::Lower,
            ..Default::default()
        },
    )
    .expect("forward solve");
    println!(
        "forward solve (Lz = r):  {} simulated, {} one-sided gets",
        fwd.timings.total,
        fwd.stats.shmem.total_gets()
    );

    let bwd = sptrsv::solve(
        &f.u,
        &fwd.x,
        MachineConfig::dgx1(4),
        &SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            triangle: Triangle::Upper,
            ..Default::default()
        },
    )
    .expect("backward solve");
    println!(
        "backward solve (Uz' = z): {} simulated, {} one-sided gets",
        bwd.timings.total,
        bwd.stats.shmem.total_gets()
    );

    // Verify against the serial preconditioner application.
    let z_ref = sptrsv::reference::solve_lower(&f.l, &r).unwrap();
    let z_ref = sptrsv::reference::solve_upper(&f.u, &z_ref).unwrap();
    let err = sptrsv::verify::rel_inf_diff(&bwd.x, &z_ref);
    println!("preconditioner application verified: rel err = {err:.2e}");
}
