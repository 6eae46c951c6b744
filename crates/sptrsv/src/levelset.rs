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
    /// Analysis-phase completion time.
    pub analysis_end: SimTime,
    /// End of the last level's barrier.
    pub makespan: SimTime,
    /// Number of levels executed.
    pub levels: usize,
}

/// Simulate the level-set solver on GPU 0 of `machine`, analyzing the
/// level sets first — what the engine's one lazy calibration of a
/// level-set kind runs. Callers that simulate the same factor
/// repeatedly should analyze once and use [`run_with_levels`].
///
/// Virtual time advances through per-level kernel launches,
/// execution-lane contention and inter-level barriers; the simulator
/// times the solve without doing its arithmetic.
pub fn run(m: &CscMatrix, machine: &mut Machine, tri: Triangle) -> LevelSetOutcome {
    run_with_levels(m, machine, &LevelSets::analyze(m, tri))
}

/// Simulate the level-set solver against a prebuilt decomposition.
/// Performs zero level-set construction; the virtual analysis-phase
/// charge (the device-side csrsv2 analysis kernel) is still modeled so
/// timelines match the one-shot path.
pub fn run_with_levels(m: &CscMatrix, machine: &mut Machine, ls: &LevelSets) -> LevelSetOutcome {
    let gpu = 0;
    let spec = machine.config().gpu;

    let analysis_ns = spec.launch_ns
        + m.nnz() as u64 * ANALYSIS_PER_NNZ_NS / spec.exec_lanes as u64
        + ls.n_levels() as u64 * ANALYSIS_PER_LEVEL_NS;
    let analysis_end = SimTime::ZERO.after(analysis_ns);

    machine.account_alloc(gpu, m.device_bytes() + m.n() as u64 * 8 * 3);
    let spill = machine.spill_ratio(gpu);

    let mut t = analysis_end;
    for level in ls.iter_levels() {
        let t_start = machine.launch_kernel(gpu, t);
        let mut level_end = t_start;
        for &c in level {
            let col_nnz = m.col_nnz(c as usize) as u64;
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

    LevelSetOutcome { analysis_end, makespan: t, levels: ls.n_levels() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_sim::MachineConfig;
    use sparsemat::gen;

    /// The simulated schedule is Naumov's over the reference level
    /// sets: one kernel launch and one barrier per level.
    fn runs_the_reference_levels(m: &CscMatrix, tri: Triangle) -> LevelSetOutcome {
        let mut machine = Machine::new(MachineConfig::dgx1(1));
        let out = run(m, &mut machine, tri);
        let levels = LevelSets::analyze(m, tri).n_levels();
        assert_eq!(out.levels, levels);
        assert_eq!(machine.stats().kernel_launches, vec![levels as u64]);
        let barriers = levels as u64 * machine.config().gpu.level_sync_ns;
        assert!(out.makespan - out.analysis_end > barriers);
        out
    }

    #[test]
    fn matches_reference_lower() {
        let m = gen::level_structured(&gen::LevelSpec::new(1000, 25, 4000, 3));
        assert_eq!(runs_the_reference_levels(&m, Triangle::Lower).levels, 25);
    }

    #[test]
    fn matches_reference_upper() {
        let u = gen::banded_lower(400, 5, 3.0, 7).transpose();
        runs_the_reference_levels(&u, Triangle::Upper);
    }

    #[test]
    fn deep_levels_cost_more_than_wide_levels() {
        // same size, same nnz: the chain (n levels) must be far slower
        // than a shallow matrix — the csrsv2 pathology.
        let chain = gen::chain(2000);
        let wide = gen::level_structured(&gen::LevelSpec::new(2000, 4, chain.nnz(), 5));
        let mut m1 = Machine::new(MachineConfig::dgx1(1));
        let mut m2 = Machine::new(MachineConfig::dgx1(1));
        let deep = run(&chain, &mut m1, Triangle::Lower);
        let shallow = run(&wide, &mut m2, Triangle::Lower);
        let solve_deep = deep.makespan - deep.analysis_end;
        let solve_shallow = shallow.makespan - shallow.analysis_end;
        assert!(solve_deep > 20 * solve_shallow, "deep {solve_deep} vs shallow {solve_shallow}");
    }

    #[test]
    fn analysis_cost_scales_with_levels() {
        let shallow = gen::level_structured(&gen::LevelSpec::new(1000, 2, 3000, 1));
        let deep = gen::level_structured(&gen::LevelSpec::new(1000, 400, 3000, 1));
        let mut m1 = Machine::new(MachineConfig::dgx1(1));
        let mut m2 = Machine::new(MachineConfig::dgx1(1));
        let a = run(&shallow, &mut m1, Triangle::Lower);
        let c = run(&deep, &mut m2, Triangle::Lower);
        assert!(c.analysis_end > a.analysis_end);
    }
}
