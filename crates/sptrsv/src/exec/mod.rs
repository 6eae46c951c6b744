//! The synchronization-free dataflow executor.
//!
//! All sync-free variants share one control flow — the two phases of
//! Liu et al. \[2\] that the paper builds on:
//!
//! 1. **lock-wait**: a warp owns one component and spins until the
//!    component's in-degree is satisfied;
//! 2. **solve-update**: it solves `x_i` and publishes
//!    `l_ri · x_i` into the `left_sum` of every dependent `r`,
//!    decrementing their outstanding in-degrees.
//!
//! What differs between Algorithm 2 (Unified Memory), Algorithm 3
//! (NVSHMEM zero-copy) and the single-GPU solver is *where the
//! intermediate arrays live and what publishing/detecting costs*:
//!
//! | backend    | publish to remote component     | dependency detection        |
//! |------------|---------------------------------|-----------------------------|
//! | SingleGpu  | n/a                             | local spin poll             |
//! | Unified    | system atomic on a UM page      | spin poll on a UM page      |
//! |            | (faults, migration, bounce)     | (page bounces back, faults) |
//! | Shmem      | device atomic on the *producer's* | warp-parallel one-sided     |
//! |            | own symmetric heap copy — zero  | gets + shuffle reduction,   |
//! |            | wire traffic at publish time    | r.in_degree poll caching    |
//!
//! ## Analysis / solve separation
//!
//! Everything the *simulator* needs that depends only on the structure
//! — in-degrees, remote-source masks, per-GPU sizing, the cross-GPU
//! edge count — lives in [`ExecAnalysis`], built in one pass over the
//! off-diagonal entries. Update lists and column sizes are not copied:
//! the analysis borrows the CSC and reads them in place, and gather
//! peers come from the owner map and the remote masks when a warp
//! wakes. [`run`] is the one-shot convenience that builds the analysis
//! and immediately simulates. The build-once/solve-many engine
//! ([`crate::engine::SolverEngine`]) reaches the simulator only through
//! its lazy calibration hook (`sim::Simulation`), which builds the plan
//! and the analysis for the one calibration run and then drops them —
//! no build, warm path or refresh reads them.
//!
//! The simulator times the protocol without doing its arithmetic: no
//! values, diagonals or right-hand side enter the event loop, and a
//! run returns the timeline, the event count and the order the warps
//! solved in. What stands in for the value check is an exact audit of
//! that order and of when each component was satisfied, woke and
//! published (`ExecOutcome`). When every update of a warp and its
//! retire become durable at one instant — always under NVSHMEM
//! zero-copy and on one GPU — the warp publishes them as one calendar
//! entry.

//! ## The warm numeric core: permute once, gather forever
//!
//! Warm solves run on a [`NumericFactor`]: a structure-only [`Layout`]
//! — the factor's rows **relabelled into an execution order** at build
//! time, stored CSR over *positions* in that order, each row's entries
//! in natural source order — plus the [`Values`] of one epoch. The
//! order follows the factor's structure, never the solver kind: a
//! factor whose rows mostly read their natural predecessor (a grid's
//! ILU(0) factors) is laid out level-major, since its natural sweep is
//! one long chain of dependent rows while each level's rows are
//! independent of each other; every other factor sweeps its natural
//! substitution order, which needs no position table and no boundary
//! permutes (the rule is `prefers_level_major`). One kernel body
//! ([`NumericFactor`]'s row sweep, in scalar and const-`K` lane forms)
//! serves every tier:
//!
//! ```text
//! for c in 0..n { y[pos[c]] = b[c] }   // permute b in, by component
//! for i in rows {                      // positions, contiguous
//!     acc = 0.0
//!     for k in ptr[i]..ptr[i+1] { acc += vals[k] * y[cols[k]] }
//!     y[i] = (y[i] - acc) / diag[i]    // in place: b_i in, x_i out
//! }
//! for c in 0..n { x[c] = y[pos[c]] }   // permute x out
//! ```
//!
//! The sweep itself lives entirely in position space, one contiguous
//! pass over one array (the cholespy `level_ptr` layout). The boundary
//! permutations walk the *components* sequentially — streaming `b` and
//! `x`, scattering into `y` — which measures ~2× faster than gathering
//! `b[order[i]]` inside the sweep, and ~2.5× on an 8-lane panel, where
//! one scattered 64-byte row of `y` replaces eight scattered reads. A
//! natural-order factor (identity or reversed permutation) needs no
//! `y` at all for a scalar solve: it sweeps in `x` itself.
//!
//! ### Why the gather reproduces the column-scatter bits
//!
//! Algorithm 1 ([`crate::reference`]) zeroes a `left_sum` array and,
//! after solving each source `c` in natural substitution order,
//! scatters `left_sum[r] += l_rc · x_c` into every dependent row; row
//! `r` is then solved as `(b_r − left_sum_r) / d_r`. Floating-point
//! addition is not associative, so what matters is the exact operand
//! sequence each row sees: `0.0`, then `+ l_rc₁·x_c₁`, `+ l_rc₂·x_c₂`,
//! … with the sources in *natural order* (ascending for `L`,
//! descending for `U`). The gather performs literally that sequence —
//! `acc` starts at `+0.0` (not at the first product: `0.0 + (−0.0)`
//! is `+0.0`, and the sign survives into `b − acc`), and
//! [`Layout`] fills every row by walking the sources in
//! natural order, **whatever the execution order** the rows are
//! relabelled into. So every relabelling — level-major, natural, any
//! other topological order — returns the reference's bits, while the
//! read-modify-write `left_sum` traffic and its per-solve `fill`
//! disappear. (Only the *gather addresses* inside a row follow the
//! relabelling; rows hold 2–4 entries, so their order costs nothing.)
//!
//! ### Why every tier agrees
//!
//! A row's value is a function of `b`, its stored entries and the `y`
//! of **earlier positions** only. Every tier — the scalar solve, each
//! lane of a panel, each chunk of a pooled batch — sweeps all rows in
//! position order on one thread per right-hand side, so each row is
//! written exactly once, after every row it reads, and the lanes of a
//! multi-RHS block never mix. That is the whole bit-identity argument,
//! before and after a value refresh.
//!
//! Parallelism lives *across* right-hand sides (the pooled batch), not
//! inside one solve: a level-synchronous sweep — the `csrsv2` baseline
//! the paper replaces, one barrier per level or chain — ran 2–6× slower
//! on two host threads than on one, because a barrier costs about as
//! much as a level's arithmetic.

use sparsemat::Triangle;
use std::ops::Range;

mod numeric;
mod sim;
#[cfg(test)]
mod tests;

pub(crate) use numeric::prefers_level_major;
pub use numeric::{Layout, NumericFactor, ReplayWorkspace, Values};
pub(crate) use sim::Simulation;
pub use sim::{
    analysis_builds, calibrations, run, run_prepared, ExecAnalysis, ExecConfig, ExecError,
    ExecOutcome,
};

/// CSC value index of column `j`'s diagonal entry (first stored entry
/// of a lower-triangular column, last of an upper-triangular one).
#[inline]
fn diag_index(col_ptr: &[usize], tri: Triangle, j: usize) -> usize {
    match tri {
        Triangle::Lower => col_ptr[j],
        Triangle::Upper => col_ptr[j + 1] - 1,
    }
}

/// CSC index range of column `j`'s off-diagonal entries.
#[inline]
fn off_diagonal(col_ptr: &[usize], tri: Triangle, j: usize) -> Range<usize> {
    match tri {
        Triangle::Lower => col_ptr[j] + 1..col_ptr[j + 1],
        Triangle::Upper => col_ptr[j]..col_ptr[j + 1] - 1,
    }
}

/// Maximum lane width of [`NumericFactor::solve_panel_into`] blocks:
/// the widest monomorphized kernel (8 × f64 = one cache line of lanes
/// per row; ragged tails use 4/2/1-wide blocks).
pub const PANEL_K: usize = 8;
