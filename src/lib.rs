//! # mgpu-sptrsv — a fast and scalable sparse triangular solver for multi-GPU HPC architectures
//!
//! A complete, self-contained reproduction of *"Fast and Scalable
//! Sparse Triangular Solver for Multi-GPU Based HPC Architectures"*
//! (ICPP 2021, arXiv:2012.06959) in safe Rust. Because the paper's
//! testbed (V100 DGX-1/DGX-2, CUDA, NVSHMEM) is hardware we cannot
//! ship, the machine itself is reproduced as a deterministic
//! discrete-event model — every solver executes its real `f64`
//! numerics while virtual time advances through warp slots, NVLink
//! transfers, unified-memory page migrations and one-sided gets. The
//! crate docs below carry the substitution rationale (`mgpu_sim` for
//! the machine, `sparsemat::corpus` for the Table-I analogs);
//! `tests/paper_claims.rs` asserts the paper's evaluation shapes and
//! `cargo bench -p sptrsv-bench --bench figures` regenerates them.
//!
//! ## Crates
//!
//! * [`desim`] — deterministic discrete-event engine (calendar,
//!   resources, gates, statistics, PCG32).
//! * [`sparsemat`] — CSC/CSR storage, level-set analysis, Matrix
//!   Market I/O, ILU(0), synthetic generators, the Table-I corpus.
//! * [`mgpu_sim`] — the machine: V100-class GPUs, DGX-1 cube-mesh /
//!   DGX-2 NVSwitch topologies, CUDA Unified Memory, NVSHMEM-style
//!   symmetric heap.
//! * [`sptrsv`] — the solvers: serial reference, level-set
//!   (csrsv2-style), sync-free single-GPU, Algorithm 2 (Unified
//!   Memory), Algorithm 3 (zero-copy NVSHMEM) and the §V task pool.
//!
//! ## Quickstart
//!
//! ```
//! use mgpu_sptrsv::prelude::*;
//!
//! // A lower-triangular system with a known solution.
//! let l = sparsemat::gen::level_structured(
//!     &sparsemat::gen::LevelSpec::new(2_000, 25, 8_000, 42));
//! let (x_true, b) = sptrsv::verify::rhs_for(&l, 7);
//!
//! // Solve with the paper's zero-copy design on a 4-GPU DGX-1.
//! let report = sptrsv::solve(
//!     &l,
//!     &b,
//!     MachineConfig::dgx1(4),
//!     &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() },
//! ).unwrap();
//!
//! assert!(sptrsv::verify::rel_inf_diff(&report.x, &x_true) < 1e-8);
//! println!("solved in {} with {} page faults and {} one-sided gets",
//!          report.timings.total,
//!          report.stats.total_um_faults(),
//!          report.stats.shmem.total_gets());
//! ```
//!
//! ## Build once, solve many
//!
//! The paper's headline workload — triangular solves inside
//! preconditioned iterative methods — reuses the same factors across
//! thousands of solves. [`sptrsv::SolverEngine`] runs the
//! structure-only analysis phase (level sets, schedule, relabelled
//! factor) exactly once, and simulates the calibration timeline only
//! when a report asks for it; every further right-hand side pays only
//! the numeric substitution, bit-identical to a one-shot
//! [`sptrsv::solve`]:
//!
//! ```
//! use mgpu_sptrsv::prelude::*;
//!
//! let l = sparsemat::gen::level_structured(
//!     &sparsemat::gen::LevelSpec::new(2_000, 25, 8_000, 42));
//!
//! // Analysis phase: once.
//! let engine = SolverEngine::build(
//!     &l, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
//!
//! // Solve phase: many — e.g. every iteration of a Krylov loop.
//! for seed in 0..5 {
//!     let (_, b) = sptrsv::verify::rhs_for(&l, seed);
//!     let report = engine.solve(&b).unwrap();
//!     assert!(report.verified_rel_err.unwrap() < 1e-8);
//! }
//!
//! // Independent right-hand sides solve in parallel, deterministically,
//! // with the analysis charged once in the virtual accounting.
//! let bs: Vec<Vec<f64>> = (10..14)
//!     .map(|seed| sptrsv::verify::rhs_for(&l, seed).1)
//!     .collect();
//! let batch = engine.solve_batch(&bs).unwrap();
//! assert!(batch.total < batch.unamortized_total());
//! ```
//!
//! See `examples/preconditioner_loop.rs` for the full CG-style loop and
//! `BENCH_engine.json` (regenerated by
//! `cargo bench -p sptrsv-bench --bench engine`) for the measured
//! cold-vs-warm wall-clock ratio.
//!
//! ## The preconditioned Krylov subsystem
//!
//! [`sptrsv::krylov`] assembles the workload end to end: an ILU(0)
//! [`sptrsv::krylov::PreconditionerEngine`] pairs a forward-`L` and a
//! backward-`U` engine over **one** shared worker pool, and the
//! [`sptrsv::krylov::pcg`] / [`sptrsv::krylov::bicgstab`] drivers
//! apply it as `M⁻¹` every iteration through a zero-allocation warm
//! path that is bit-identical to the serial reference solves:
//!
//! ```
//! use mgpu_sptrsv::prelude::*;
//! use sptrsv::krylov::{pcg, KrylovOptions, PreconditionerEngine};
//!
//! let a = sparsemat::gen::grid_laplacian(24, 24); // SPD
//! let f = sparsemat::factor::ilu0(&a, 1e-8).unwrap();
//! let pre = PreconditionerEngine::from_ilu0(
//!     &f,
//!     MachineConfig::dgx1(4),
//!     &SolveOptions { verify: false, ..Default::default() },
//! ).unwrap();
//! let b = vec![1.0; a.n()];
//! let rep = pcg(&a, &b, &pre, &KrylovOptions::default()).unwrap();
//! assert!(rep.converged && rep.final_rel_residual() <= 1e-8);
//! ```
//!
//! `BENCH_engine.json` section `pcg_ilu0` records the measured speedup
//! of the warm engine pair over re-running the analysis on every
//! preconditioner application.
//!
//! ## The serving front-end
//!
//! [`sptrsv::serve`] turns concurrent request traffic into fused
//! panels: a [`sptrsv::serve::SolverService`] accepts right-hand
//! sides from any number of client threads (`submit(b) -> Ticket`),
//! coalesces them into `PANEL_K`-lane panels under a deadline-aware
//! flush policy, and applies typed backpressure (bounded queue in
//! requests and bytes) instead of buffering without limit. Every
//! served result is bit-identical to a serial `engine.solve()` of the
//! same right-hand side, and steady-state dispatch allocates nothing:
//!
//! ```
//! use mgpu_sptrsv::prelude::*;
//! use sptrsv::serve::{serve_solver, ServiceConfig};
//!
//! let l = sparsemat::gen::level_structured(
//!     &sparsemat::gen::LevelSpec::new(2_000, 25, 8_000, 42));
//! let engine = SolverEngine::build(
//!     &l, MachineConfig::dgx1(4),
//!     &SolveOptions { verify: false, ..Default::default() }).unwrap();
//! let (_, b) = sptrsv::verify::rhs_for(&l, 7);
//! let expect = engine.solve(&b).unwrap().x;
//!
//! let ((), report) = serve_solver(&engine, &ServiceConfig::default(), |svc| {
//!     std::thread::scope(|s| {
//!         for _ in 0..4 {
//!             s.spawn(|| {
//!                 let ticket = svc.submit(&b).unwrap();
//!                 assert_eq!(ticket.wait().unwrap(), expect);
//!             });
//!         }
//!     });
//! }).unwrap();
//! assert_eq!(report.served, 4);
//! ```
//!
//! `examples/serving_front_end.rs` runs the full demo — a throughput
//! flood (mean panel fill, wait/solve split), a deadline-tagged
//! latency singleton, and admission control shedding load — and
//! `BENCH_engine.json` section `serving` tracks the coalesced service
//! against a lock-per-request loop at 64 concurrent right-hand sides.

pub use desim;
pub use mgpu_sim;
pub use sparsemat;
pub use sptrsv;

/// The names most programs need, in one import.
pub mod prelude {
    pub use desim::SimTime;
    pub use mgpu_sim::{GpuSpec, Machine, MachineConfig, TopologyKind};
    pub use sparsemat::{CscMatrix, CsrMatrix, LevelSets, Triangle, TripletBuilder};
    pub use sptrsv::{
        solve, solve_multi_rhs, Backend, EngineResources, MultiRhsReport, Partition, SolveOptions,
        SolveReport, SolveWorkspace, SolverEngine, SolverKind,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_sufficient_for_a_solve() {
        let l = sparsemat::gen::banded_lower(256, 8, 3.0, 1);
        let (_, b) = sptrsv::verify::rhs_for(&l, 2);
        let r = solve(&l, &b, MachineConfig::dgx1(2), &SolveOptions::default()).unwrap();
        assert_eq!(r.x.len(), 256);
        assert!(r.verified_rel_err.unwrap() < 1e-8);
    }
}
