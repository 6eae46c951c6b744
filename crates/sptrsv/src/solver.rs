//! High-level solver API.
//!
//! [`solve`] ties together a triangular matrix, a right-hand side, a
//! machine configuration and a solver variant; it validates inputs,
//! enforces the hardware constraints the paper reports (NVSHMEM
//! requires all-pairs P2P), runs the simulation, verifies the solution
//! against the serial reference and returns a [`SolveReport`].
//!
//! Both [`solve`] and [`solve_multi_rhs`] are thin wrappers over
//! [`SolverEngine`]: they build the engine (the one-time analysis
//! phase) and immediately solve. Callers that solve against the same
//! factor repeatedly should hold the engine instead — see
//! [`crate::engine`] for the three warm tiers (zero-allocation single
//! solves, the fused multi-RHS panel, and pooled batches).

use crate::engine::SolverEngine;
use crate::exec::ExecError;
use crate::report::SolveReport;
use desim::SimTime;
use mgpu_sim::MachineConfig;
use sparsemat::{CscMatrix, MatrixError, Triangle};

/// Which solver variant to run — the paper's design-space points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Serial host reference (Algorithm 1).
    Serial,
    /// Level-set solver, single GPU (cuSPARSE csrsv2 stand-in).
    LevelSet,
    /// Synchronization-free single-GPU solver (Liu et al. \[2\]).
    SyncFree,
    /// Algorithm 2: multi-GPU with Unified Memory, blocked layout.
    Unified,
    /// Algorithm 2 + the task pool ("4GPU-Unified+8task" in Fig. 7).
    UnifiedTasks {
        /// Tasks per GPU.
        per_gpu: u32,
    },
    /// Algorithm 3 with the baseline blocked ("continued") layout
    /// ("4GPU-Shmem" in Fig. 7).
    ShmemBlocked,
    /// The naive Get-Update-Put NVSHMEM design §IV-A rejects
    /// (distributed arrays, fenced wire round trips per update).
    ShmemNaive,
    /// The paper's proposed design: Algorithm 3 + round-robin task
    /// pool ("4GPU-Zerocopy").
    ZeroCopy {
        /// Tasks per GPU (the Fig. 9 sensitivity knob; 8 in Fig. 7).
        per_gpu: u32,
    },
    /// Zero-copy with a fixed *total* task count (Fig. 10 fixes 32).
    ZeroCopyTotal {
        /// Total tasks across all GPUs.
        total: u32,
    },
}

impl SolverKind {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            SolverKind::Serial => "serial".into(),
            SolverKind::LevelSet => "csrsv2".into(),
            SolverKind::SyncFree => "syncfree-1gpu".into(),
            SolverKind::Unified => "unified".into(),
            SolverKind::UnifiedTasks { per_gpu } => format!("unified+{per_gpu}t"),
            SolverKind::ShmemBlocked => "shmem".into(),
            SolverKind::ShmemNaive => "shmem-gup".into(),
            SolverKind::ZeroCopy { per_gpu } => format!("zerocopy-{per_gpu}t"),
            SolverKind::ZeroCopyTotal { total } => format!("zerocopy-total{total}"),
        }
    }
}

/// Options for [`solve`].
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Solver variant.
    pub kind: SolverKind,
    /// Which triangle the matrix represents.
    pub triangle: Triangle,
    /// Compare against a serial sweep of the same factor (whose bits
    /// are the serial reference's) and fail on mismatch.
    pub verify: bool,
    /// Enable the r.in_degree poll-caching optimization (§IV-B).
    pub poll_caching: bool,
    /// Gather left_sum from all PEs (Alg. 3) vs only dependency owners.
    pub gather_all_pes: bool,
    /// Levels at most this wide fuse with adjacent narrow levels into
    /// one **chain** in the reported [`crate::ScheduleStats`] (chains,
    /// fused fraction, barriers a level-synchronous solve would pay).
    /// `0` disables fusion — every level is its own chain. Results
    /// never depend on it. Default
    /// [`crate::schedule::CHAIN_WIDTH_THRESHOLD`].
    pub chain_width_threshold: usize,
}

impl SolveOptions {
    /// The Schedule IR tuning these options describe — handed to
    /// [`crate::schedule::Schedule::build`] at engine-build time.
    pub fn schedule_tuning(&self) -> crate::schedule::ScheduleTuning {
        crate::schedule::ScheduleTuning { chain_width_threshold: self.chain_width_threshold }
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            triangle: Triangle::Lower,
            verify: true,
            poll_caching: true,
            gather_all_pes: true,
            chain_width_threshold: crate::schedule::CHAIN_WIDTH_THRESHOLD,
        }
    }
}

/// Everything that can go wrong in a solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The matrix failed triangular validation.
    Matrix(MatrixError),
    /// NVSHMEM variants need all-pairs P2P; this machine doesn't have it
    /// (e.g. more than 4 GPUs of a DGX-1 — the paper's own constraint).
    NotP2p {
        /// GPUs requested.
        gpus: usize,
    },
    /// The dataflow stalled (plan/launch-order bug).
    Exec(ExecError),
    /// Verification against the serial reference failed.
    Verification {
        /// Measured max relative error.
        rel_err: f64,
    },
    /// Right-hand side length does not match the matrix.
    DimensionMismatch {
        /// Matrix dimension.
        n: usize,
        /// RHS length.
        rhs: usize,
        /// Position of the offending vector within a batch (`None` for
        /// single-RHS entry points). Batch entry points validate every
        /// right-hand side *before* any work starts, so a bad vector
        /// names its index up front instead of failing mid-batch.
        index: Option<usize>,
        /// Which argument was wrong, in the caller's vocabulary
        /// (`"rhs"` for the solver entry points, `"r"` for the
        /// preconditioner residual, `"b"` for the Krylov right-hand
        /// side) — every buffer is validated up front so the Display
        /// can point at the argument instead of a downstream slice
        /// panic pointing at a kernel line.
        buffer: &'static str,
    },
    /// A companion object of a composed solve — the upper factor of a
    /// preconditioner pair, the operator of a Krylov solve — has a
    /// different dimension than the system. Distinct from
    /// [`SolveError::DimensionMismatch`], which is about right-hand
    /// side / output lengths.
    ShapeMismatch {
        /// What disagreed (`"upper factor"`, `"operator"`).
        what: &'static str,
        /// The system dimension.
        n: usize,
        /// The companion's dimension.
        got: usize,
    },
    /// A value refresh was handed a matrix whose sparsity pattern
    /// differs from the one the engine's analysis was built for. The
    /// structural state of an engine is immutable — only values can be
    /// refreshed in place; a pattern change requires a rebuild. Carries
    /// the two structure hashes (see
    /// [`sparsemat::FactorFingerprint::structure_hash`]) so logs can
    /// name both identities.
    StructureMismatch {
        /// Structure hash the engine was built for.
        expected: u64,
        /// Structure hash of the rejected matrix.
        got: u64,
    },
    /// A serving front-end ([`crate::serve`]) refused or abandoned the
    /// request — admission control (queue full), shutdown, or a
    /// dispatcher that died mid-solve. Carried through [`SolveError`]
    /// so a Krylov driver running over a
    /// [`crate::serve::ServedPreconditioner`] surfaces the rejection
    /// as a typed error instead of a panic.
    Rejected {
        /// Why the service refused (`"queue full"`, `"shutting down"`,
        /// `"dispatcher panicked"`).
        reason: &'static str,
    },
    /// A Krylov recurrence denominator collapsed (zero or non-finite) —
    /// the method cannot continue from this state. For PCG this usually
    /// means the operator or preconditioner is not positive definite.
    Breakdown {
        /// Which Krylov method broke down (`"pcg"` / `"bicgstab"`).
        method: &'static str,
        /// Iteration at which the breakdown occurred.
        iteration: usize,
    },
    /// A vector carried a NaN or infinity. Raised by the serving
    /// front-end's admission scan (`buffer = "b"`: the client's
    /// right-hand side was bad on arrival) and by its opt-in post-solve
    /// output scan (`buffer = "x"`: the value went non-finite between
    /// admission and completion — a corrupted buffer or a poisoned
    /// factor). Containment is per ticket: one tenant's NaN fails only
    /// its own request, never its panel-mates.
    NonFinite {
        /// Which vector carried the non-finite value, in the caller's
        /// vocabulary (`"b"` for the submitted right-hand side, `"x"`
        /// for the computed solution).
        buffer: &'static str,
        /// Index of the first non-finite entry.
        index: usize,
    },
    /// Caller-provided output storage does not match what the solve
    /// needs (the `*_into` warm-solve APIs): a single-solve output
    /// buffer whose length is not the matrix dimension, or a batch
    /// `outs` that does not hold one vector per right-hand side.
    OutputLength {
        /// Entries (single solve) or output vectors (batch) needed.
        n: usize,
        /// Entries / vectors the caller provided.
        out: usize,
        /// Which output argument was wrong (`"out"` / `"outs"` for the
        /// engine tiers, `"z"` / `"zs"` for the preconditioner).
        buffer: &'static str,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Matrix(e) => write!(f, "matrix error: {e}"),
            SolveError::NotP2p { gpus } => write!(
                f,
                "NVSHMEM requires all-pairs P2P; the requested {gpus}-GPU span is not fully connected"
            ),
            SolveError::Exec(e) => write!(f, "execution error: {e}"),
            SolveError::Verification { rel_err } => {
                write!(f, "verification failed: relative error {rel_err:.3e}")
            }
            SolveError::DimensionMismatch { n, rhs, index, buffer } => match index {
                Some(k) => {
                    write!(f, "matrix is {n}x{n} but {buffer} #{k} of the batch has {rhs} entries")
                }
                None => write!(f, "matrix is {n}x{n} but {buffer} has {rhs} entries"),
            },
            SolveError::ShapeMismatch { what, n, got } => {
                write!(f, "the {what} is {got}x{got} but the system dimension is {n}")
            }
            SolveError::StructureMismatch { expected, got } => {
                write!(
                    f,
                    "value refresh requires an identical sparsity pattern: engine structure {expected:016x}, incoming {got:016x} — rebuild instead"
                )
            }
            SolveError::Rejected { reason } => {
                write!(f, "the serving front-end rejected the solve: {reason}")
            }
            SolveError::Breakdown { method, iteration } => {
                write!(f, "{method} breakdown at iteration {iteration}: recurrence denominator is zero or non-finite")
            }
            SolveError::NonFinite { buffer, index } => {
                write!(f, "non-finite value in `{buffer}` at index {index}")
            }
            SolveError::OutputLength { n, out, buffer } => {
                write!(f, "the solve needs {n} entries (or vectors) in output buffer `{buffer}` but the caller provided {out}")
            }
        }
    }
}

impl std::error::Error for SolveError {
    /// The underlying cause, for `anyhow`-style chain printing: a
    /// matrix validation failure or an executor stall; every other
    /// variant is a root cause itself.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Matrix(e) => Some(e),
            SolveError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatrixError> for SolveError {
    fn from(e: MatrixError) -> Self {
        SolveError::Matrix(e)
    }
}

/// Solve `m · x = b` with the requested variant on the given machine.
///
/// One-shot convenience: builds a [`SolverEngine`] (the analysis
/// phase), solves once, and drops it. Hold the engine yourself when the
/// same factor is solved repeatedly.
pub fn solve(
    m: &CscMatrix,
    b: &[f64],
    machine_cfg: MachineConfig,
    opts: &SolveOptions,
) -> Result<SolveReport, SolveError> {
    // reject a bad RHS before paying for the analysis phase
    if b.len() != m.n() {
        return Err(SolveError::DimensionMismatch {
            n: m.n(),
            rhs: b.len(),
            index: None,
            buffer: "rhs",
        });
    }
    SolverEngine::build(m, machine_cfg, opts)?.solve(b)
}

/// Result of a multi-right-hand-side solve (the Liu et al. \[2\]
/// setting: one analysis, many solves).
#[derive(Debug, Clone)]
pub struct MultiRhsReport {
    /// Per-RHS reports (x vectors, per-solve stats).
    pub reports: Vec<SolveReport>,
    /// End-to-end virtual time with the analysis phase charged once:
    /// the dependency structure (in-degrees, levels) depends only on
    /// the matrix, so repeated solves reuse it — the amortization
    /// argument §II-B makes against per-solve preprocessing.
    pub total: SimTime,
}

impl MultiRhsReport {
    /// What the same solves would cost if each re-ran the analysis.
    pub fn unamortized_total(&self) -> SimTime {
        SimTime::from_ns(self.reports.iter().map(|r| r.timings.total.as_ns()).sum())
    }
}

/// Solve `m · X = B` for several right-hand sides with one analysis
/// phase. Every solution is individually verified per `opts.verify`.
///
/// Engine-backed: the level sets, plan and dependency adjacency are
/// built exactly once, then reused for every right-hand side.
pub fn solve_multi_rhs(
    m: &CscMatrix,
    bs: &[Vec<f64>],
    machine_cfg: MachineConfig,
    opts: &SolveOptions,
) -> Result<MultiRhsReport, SolveError> {
    if let Some((k, b)) = bs.iter().enumerate().find(|(_, b)| b.len() != m.n()) {
        return Err(SolveError::DimensionMismatch {
            n: m.n(),
            rhs: b.len(),
            index: Some(k),
            buffer: "rhs",
        });
    }
    SolverEngine::build(m, machine_cfg, opts)?.solve_multi_rhs(bs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, verify};
    use sparsemat::gen;

    fn small() -> (CscMatrix, Vec<f64>) {
        let m = gen::level_structured(&gen::LevelSpec::new(900, 18, 3600, 4));
        let (_, b) = verify::rhs_for(&m, 42);
        (m, b)
    }

    #[test]
    fn all_variants_solve_and_verify() {
        let (m, b) = small();
        for kind in [
            SolverKind::Serial,
            SolverKind::LevelSet,
            SolverKind::SyncFree,
            SolverKind::Unified,
            SolverKind::UnifiedTasks { per_gpu: 8 },
            SolverKind::ShmemBlocked,
            SolverKind::ShmemNaive,
            SolverKind::ZeroCopy { per_gpu: 8 },
            SolverKind::ZeroCopyTotal { total: 32 },
        ] {
            let opts = SolveOptions { kind, ..SolveOptions::default() };
            let r = solve(&m, &b, MachineConfig::dgx1(4), &opts)
                .unwrap_or_else(|e| panic!("{kind:?} failed: {e}"));
            assert!(r.verified_rel_err.unwrap_or(0.0) <= verify::DEFAULT_TOL, "{kind:?}");
        }
    }

    #[test]
    fn shmem_refuses_non_p2p_span() {
        let (m, b) = small();
        let opts =
            SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() };
        let err = solve(&m, &b, MachineConfig::dgx1(8), &opts).unwrap_err();
        assert!(matches!(err, SolveError::NotP2p { gpus: 8 }));
        // but unified memory is allowed on 8 GPUs (host staging)
        let opts = SolveOptions { kind: SolverKind::Unified, ..SolveOptions::default() };
        solve(&m, &b, MachineConfig::dgx1(8), &opts).unwrap();
    }

    #[test]
    fn dgx2_allows_sixteen_gpu_zero_copy() {
        let (m, b) = small();
        let opts = SolveOptions {
            kind: SolverKind::ZeroCopyTotal { total: 32 },
            ..SolveOptions::default()
        };
        let r = solve(&m, &b, MachineConfig::dgx2(16), &opts).unwrap();
        assert_eq!(r.gpus, 16);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let (m, _) = small();
        let opts = SolveOptions::default();
        let err = solve(&m, &[1.0, 2.0], MachineConfig::dgx1(4), &opts).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
    }

    #[test]
    fn non_triangular_rejected() {
        let a = gen::grid_laplacian(8, 8); // symmetric, not triangular
        let b = vec![1.0; a.n()];
        let err = solve(&a, &b, MachineConfig::dgx1(2), &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::Matrix(_)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SolverKind::ZeroCopy { per_gpu: 8 }.label(), "zerocopy-8t");
        assert_eq!(SolverKind::UnifiedTasks { per_gpu: 4 }.label(), "unified+4t");
        assert_eq!(SolverKind::LevelSet.label(), "csrsv2");
    }

    #[test]
    fn multi_rhs_amortizes_analysis() {
        let (m, _) = small();
        let bs: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                let (_, b) = verify::rhs_for(&m, 100 + k);
                b
            })
            .collect();
        let opts = SolveOptions { kind: SolverKind::Unified, ..SolveOptions::default() };
        let multi = solve_multi_rhs(&m, &bs, MachineConfig::dgx1(4), &opts).unwrap();
        assert_eq!(multi.reports.len(), 4);
        assert!(
            multi.total < multi.unamortized_total(),
            "shared analysis must save time: {} vs {}",
            multi.total,
            multi.unamortized_total()
        );
        for (k, r) in multi.reports.iter().enumerate() {
            let expected = reference::solve_lower(&m, &bs[k]).unwrap();
            assert!(verify::rel_inf_diff(&r.x, &expected) < 1e-8);
        }
    }

    #[test]
    fn naive_gup_verifies_but_loses_badly() {
        let (m, b) = small();
        let naive = solve(
            &m,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ShmemNaive, ..SolveOptions::default() },
        )
        .unwrap();
        assert!(naive.verified_rel_err.unwrap() < 1e-8);
        let zerocopy = solve(
            &m,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() },
        )
        .unwrap();
        assert!(
            zerocopy.speedup_over(&naive) > 3.0,
            "§IV-A: fenced get-update-put must lose decisively"
        );
        assert!(naive.stats.shmem.fences > 0);
        assert!(naive.stats.shmem.quiets > 0);
    }

    #[test]
    fn report_cross_edges_depend_on_partition() {
        let (m, b) = small();
        let blocked = solve(
            &m,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ShmemBlocked, ..SolveOptions::default() },
        )
        .unwrap();
        let tasked = solve(
            &m,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 16 }, ..SolveOptions::default() },
        )
        .unwrap();
        assert!(tasked.cross_edges > blocked.cross_edges);
        assert!(tasked.kernels > blocked.kernels);
    }
}
