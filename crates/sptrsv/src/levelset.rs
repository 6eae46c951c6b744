//! Level-set solver — the cuSPARSE `csrsv2()` stand-in (§II-B).
//!
//! Naumov's method \[5\]: an analysis phase derives the level sets; the
//! solve phase launches one kernel per level and synchronizes between
//! levels. Within a level every component is independent, so warps
//! contend only for execution lanes. The per-level launch + barrier
//! cost is what makes this baseline collapse on deep level structures
//! (thousands of levels), exactly the weakness the paper's
//! synchronization-free design removes.

use desim::SimTime;
use mgpu_sim::Machine;
use sparsemat::{CscMatrix, LevelSets, Triangle};

/// Per-nonzero cost of the csrsv2 analysis sweep, ns. The analysis
/// builds the dependency DAG and its topological levels on the device;
/// public profiling consistently puts it at a multiple of the solve
/// sweep, hence 3× the solve's per-nnz streaming cost.
const ANALYSIS_PER_NNZ_NS: u64 = 18;
/// Per-level bookkeeping cost during analysis, ns.
const ANALYSIS_PER_LEVEL_NS: u64 = 800;

/// Outcome of a level-set run (mirrors [`crate::exec::ExecOutcome`]).
#[derive(Debug, Clone)]
pub struct LevelSetOutcome {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Analysis-phase completion time.
    pub analysis_end: SimTime,
    /// End of the last level's barrier.
    pub makespan: SimTime,
    /// Number of levels executed.
    pub levels: usize,
}

/// Run the level-set solver on GPU 0 of `machine`, analyzing the level
/// sets first — what the engine's one lazy calibration of a level-set
/// kind runs. Callers that simulate the same factor repeatedly should
/// analyze once and use [`run_with_levels`].
///
/// Numerics are computed exactly (level order is a valid topological
/// order); virtual time advances through per-level kernel launches,
/// execution-lane contention and inter-level barriers.
pub fn run(m: &CscMatrix, b: &[f64], machine: &mut Machine, tri: Triangle) -> LevelSetOutcome {
    let ls = LevelSets::analyze(m, tri);
    run_with_levels(m, b, machine, tri, &ls)
}

/// Run the level-set solver against a prebuilt decomposition. Performs
/// zero level-set construction; the virtual analysis-phase charge (the
/// device-side csrsv2 analysis kernel) is still modeled so timelines
/// match the one-shot path.
pub fn run_with_levels(
    m: &CscMatrix,
    b: &[f64],
    machine: &mut Machine,
    tri: Triangle,
    ls: &LevelSets,
) -> LevelSetOutcome {
    let n = m.n();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let gpu = 0;
    let spec = machine.config().gpu.clone();

    let analysis_ns = spec.launch_ns
        + m.nnz() as u64 * ANALYSIS_PER_NNZ_NS / spec.exec_lanes as u64
        + ls.n_levels() as u64 * ANALYSIS_PER_LEVEL_NS;
    let analysis_end = SimTime::ZERO.after(analysis_ns);

    machine.account_alloc(gpu, m.device_bytes() + n as u64 * 8 * 3);
    let spill = machine.spill_ratio(gpu);

    let mut x = vec![0.0; n];
    let mut left_sum = vec![0.0; n];
    let col_ptr = m.col_ptr();
    let row_idx = m.row_idx();
    let values = m.values();

    let mut t = analysis_end;
    for level in ls.iter_levels() {
        let t_start = machine.launch_kernel(gpu, t);
        let mut level_end = t_start;
        for &c in level {
            let j = c as usize;
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            let col_nnz = (hi - lo) as u64;

            // numerics
            let diag = match tri {
                Triangle::Lower => values[lo],
                Triangle::Upper => values[hi - 1],
            };
            let xj = (b[j] - left_sum[j]) / diag;
            x[j] = xj;
            let (ulo, uhi) = match tri {
                Triangle::Lower => (lo + 1, hi),
                Triangle::Upper => (lo, hi - 1),
            };
            for k in ulo..uhi {
                left_sum[row_idx[k] as usize] += values[k] * xj;
            }

            // timing
            let mut start = t_start;
            if spill > 0.0 {
                let spilled = (col_nnz as f64 * 12.0 * spill) as u64;
                if spilled > 0 {
                    start = machine.host_transfer(gpu, spilled, start);
                }
            }
            let dur = spec.solve_ns
                + col_nnz.div_ceil(32) * spec.per_nnz_ns
                + (col_nnz.saturating_sub(1)).div_ceil(32) * spec.atomic_ns;
            level_end = level_end.max(machine.exec(gpu, start, dur));
        }
        t = level_end.after(spec.level_sync_ns);
    }

    LevelSetOutcome { x, analysis_end, makespan: t, levels: ls.n_levels() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, verify};
    use mgpu_sim::MachineConfig;
    use sparsemat::gen;

    #[test]
    fn matches_reference_lower() {
        let m = gen::level_structured(&gen::LevelSpec::new(1000, 25, 4000, 3));
        let (_, b) = verify::rhs_for(&m, 42);
        let mut machine = Machine::new(MachineConfig::dgx1(1));
        let out = run(&m, &b, &mut machine, Triangle::Lower);
        let r = reference::solve_lower(&m, &b).unwrap();
        assert!(verify::rel_inf_diff(&out.x, &r) < 1e-10);
        assert_eq!(out.levels, 25);
    }

    #[test]
    fn matches_reference_upper() {
        let u = gen::banded_lower(400, 5, 3.0, 7).transpose();
        let (_, b) = verify::rhs_for(&u, 1);
        let mut machine = Machine::new(MachineConfig::dgx1(1));
        let out = run(&u, &b, &mut machine, Triangle::Upper);
        let r = reference::solve_upper(&u, &b).unwrap();
        assert!(verify::rel_inf_diff(&out.x, &r) < 1e-10);
    }

    #[test]
    fn deep_levels_cost_more_than_wide_levels() {
        // same size, same nnz: the chain (n levels) must be far slower
        // than a shallow matrix — the csrsv2 pathology.
        let chain = gen::chain(2000);
        let wide = gen::level_structured(&gen::LevelSpec::new(2000, 4, chain.nnz(), 5));
        let (_, bc) = verify::rhs_for(&chain, 2);
        let (_, bw) = verify::rhs_for(&wide, 2);
        let mut m1 = Machine::new(MachineConfig::dgx1(1));
        let mut m2 = Machine::new(MachineConfig::dgx1(1));
        let deep = run(&chain, &bc, &mut m1, Triangle::Lower);
        let shallow = run(&wide, &bw, &mut m2, Triangle::Lower);
        let solve_deep = deep.makespan - deep.analysis_end;
        let solve_shallow = shallow.makespan - shallow.analysis_end;
        assert!(solve_deep > 20 * solve_shallow, "deep {solve_deep} vs shallow {solve_shallow}");
    }

    #[test]
    fn analysis_cost_scales_with_levels() {
        let shallow = gen::level_structured(&gen::LevelSpec::new(1000, 2, 3000, 1));
        let deep = gen::level_structured(&gen::LevelSpec::new(1000, 400, 3000, 1));
        let (_, b1) = verify::rhs_for(&shallow, 1);
        let (_, b2) = verify::rhs_for(&deep, 1);
        let mut m1 = Machine::new(MachineConfig::dgx1(1));
        let mut m2 = Machine::new(MachineConfig::dgx1(1));
        let a = run(&shallow, &b1, &mut m1, Triangle::Lower);
        let c = run(&deep, &b2, &mut m2, Triangle::Lower);
        assert!(c.analysis_end > a.analysis_end);
    }
}
