//! Tests of both executor halves.

use super::*;
use crate::plan::{ExecutionPlan, Partition};
use crate::pool::WorkerPool;
use crate::reference;
use crate::schedule::{Schedule, ScheduleTuning};
use crate::verify;
use crate::Backend;
use desim::SimTime;
use mgpu_sim::{Machine, MachineConfig};
use sparsemat::{gen, CscMatrix, LevelSets};
use std::sync::Arc;

/// `m`'s values laid out in `layout`.
fn factor(m: &CscMatrix, layout: Layout) -> NumericFactor {
    NumericFactor::new(Arc::new(layout), m)
}

/// Serial solve on a factor relabelled along an explicit order.
fn solve_along(m: &CscMatrix, order: &[u32], b: &[f64]) -> Vec<f64> {
    let f = factor(m, Layout::relabel(m, Triangle::Lower, Some(order)));
    let mut x = vec![f64::NAN; m.n()];
    f.solve_into(b, &mut ReplayWorkspace::new(), &mut x);
    x
}

fn run_case(
    m: &CscMatrix,
    gpus: usize,
    backend: Backend,
    partition: Partition,
) -> (ExecOutcome, Vec<f64>) {
    let (_, b) = verify::rhs_for(m, 42);
    let plan = ExecutionPlan::build(m.n(), gpus, partition, Triangle::Lower);
    let mut machine = Machine::new(MachineConfig::dgx1(gpus.max(1)));
    let cfg = ExecConfig { backend, triangle: Triangle::Lower, gather_all_pes: true };
    let out = run(m, &b, &plan, &mut machine, cfg).expect("no deadlock");
    let reference = reference::solve_lower(m, &b).unwrap();
    (out, reference)
}

#[test]
fn single_gpu_matches_reference() {
    let m = gen::banded_lower(800, 8, 4.0, 3);
    let (out, r) = run_case(&m, 1, Backend::SingleGpu, Partition::Blocked);
    assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL);
    assert!(out.makespan > SimTime::ZERO);
}

#[test]
fn shmem_multi_gpu_matches_reference() {
    let m = gen::level_structured(&gen::LevelSpec::new(1200, 30, 5000, 7));
    for gpus in [2usize, 3, 4] {
        let (out, r) = run_case(
            &m,
            gpus,
            Backend::Shmem { poll_caching: true },
            Partition::Tasks { per_gpu: 8 },
        );
        assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL, "gpus={gpus}");
    }
}

#[test]
fn unified_multi_gpu_matches_reference() {
    let m = gen::level_structured(&gen::LevelSpec::new(600, 15, 2400, 9));
    let (out, r) = run_case(&m, 4, Backend::Unified, Partition::Blocked);
    assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL);
}

#[test]
fn prepared_run_reproduces_one_shot_run() {
    let m = gen::level_structured(&gen::LevelSpec::new(900, 22, 3600, 13));
    let (_, b) = verify::rhs_for(&m, 42);
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let mut m1 = Machine::new(MachineConfig::dgx1(4));
    let one_shot = run(&m, &b, &plan, &mut m1, cfg.clone()).unwrap();
    let analysis = ExecAnalysis::build(&m, &plan, &cfg);
    let mut m2 = Machine::new(MachineConfig::dgx1(4));
    let prepared = run_prepared(&b, &plan, &analysis, &mut m2, &cfg).unwrap();
    assert_eq!(one_shot.x, prepared.x, "bit-identical numerics");
    assert_eq!(one_shot.makespan, prepared.makespan);
    assert_eq!(one_shot.events, prepared.events);
}

#[test]
fn replay_of_recorded_order_is_bit_identical() {
    let m = gen::level_structured(&gen::LevelSpec::new(1100, 28, 4400, 17));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let analysis = ExecAnalysis::build(&m, &plan, &cfg);
    // calibrate with one RHS, replay a different one: the schedule
    // is value-independent, so the recorded order serves any b
    let (_, b0) = verify::rhs_for(&m, 1);
    let mut machine = Machine::new(MachineConfig::dgx1(4));
    let calibration = run_prepared(&b0, &plan, &analysis, &mut machine, &cfg).unwrap();
    assert_eq!(calibration.solve_order.len(), m.n());

    let (_, b1) = verify::rhs_for(&m, 2);
    let mut machine = Machine::new(MachineConfig::dgx1(4));
    let full = run_prepared(&b1, &plan, &analysis, &mut machine, &cfg).unwrap();
    // the simulation sums each `left_sum` in wake order; the replay
    // sums every row in Algorithm 1's order, whatever the row order
    let replayed = solve_along(&m, &calibration.solve_order, &b1);
    assert_eq!(replayed, reference::solve_lower(&m, &b1).unwrap(), "replay is the reference");
    assert!(verify::rel_inf_diff(&full.x, &replayed) < verify::DEFAULT_TOL);
    assert_eq!(full.solve_order, calibration.solve_order, "schedule is value-independent");
}

#[test]
fn analysis_flat_layout_matches_matrix() {
    let m = gen::level_structured(&gen::LevelSpec::new(500, 12, 2000, 5));
    let plan = ExecutionPlan::build(m.n(), 2, Partition::Blocked, Triangle::Lower);
    let a = ExecAnalysis::build(&m, &plan, &ExecConfig::default());
    for j in 0..m.n() {
        let (rows, vals) = a.updates_of(j as u32);
        let expect: Vec<(u32, f64)> = m.col(j).filter(|&(r, _)| (r as usize) > j).collect();
        assert_eq!(rows.len(), expect.len());
        for (k, &(r, v)) in expect.iter().enumerate() {
            assert_eq!(rows[k], r);
            assert_eq!(vals[k], v);
        }
        assert_eq!(a.diag[j], m.get(j, j).unwrap());
    }
}

#[test]
fn unified_generates_page_faults_shmem_does_not() {
    let m = gen::level_structured(&gen::LevelSpec::new(800, 20, 3200, 5));
    let (_, b) = verify::rhs_for(&m, 42);
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);

    let mut um_machine = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
        &b,
        &plan,
        &mut um_machine,
        ExecConfig { backend: Backend::Unified, ..ExecConfig::default() },
    )
    .unwrap();
    let um_stats = um_machine.stats();
    assert!(um_stats.total_um_faults() > 0, "UM must fault");
    assert!(
        um_stats.um_remote_ops + um_stats.um_migrations > 100,
        "UM must push traffic through the fabric"
    );

    let mut sh_machine = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
        &b,
        &plan,
        &mut sh_machine,
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
    )
    .unwrap();
    let s = sh_machine.stats();
    assert_eq!(s.total_um_faults(), 0, "zero-copy must not touch UM");
    assert!(s.shmem.gets > 0, "zero-copy communicates via gets");
}

#[test]
fn zero_copy_beats_unified_on_makespan() {
    // The headline claim (Fig. 7): same matrix, same machine,
    // zero-copy finishes faster than the UM design. Needs enough
    // work per GPU to amortize the task kernels (crossover ~n=6k).
    let m = gen::level_structured(&gen::LevelSpec::new(8000, 25, 32000, 11));
    let (_, b) = verify::rhs_for(&m, 1);
    let mut um = Machine::new(MachineConfig::dgx1(4));
    let plan_b = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);
    let um_out = run(
        &m,
        &b,
        &plan_b,
        &mut um,
        ExecConfig { backend: Backend::Unified, ..ExecConfig::default() },
    )
    .unwrap();

    let mut zc = Machine::new(MachineConfig::dgx1(4));
    let plan_t = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let zc_out = run(
        &m,
        &b,
        &plan_t,
        &mut zc,
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
    )
    .unwrap();
    assert!(
        zc_out.makespan < um_out.makespan,
        "zerocopy {} vs unified {}",
        zc_out.makespan,
        um_out.makespan
    );
}

#[test]
fn upper_triangle_solves() {
    let l = gen::banded_lower(500, 6, 3.0, 13);
    let u = l.transpose();
    let (_, b) = verify::rhs_for(&u, 3);
    let plan = ExecutionPlan::build(u.n(), 2, Partition::Tasks { per_gpu: 4 }, Triangle::Upper);
    let mut machine = Machine::new(MachineConfig::dgx1(2));
    let out = run(
        &u,
        &b,
        &plan,
        &mut machine,
        ExecConfig {
            backend: Backend::Shmem { poll_caching: true },
            triangle: Triangle::Upper,
            gather_all_pes: true,
        },
    )
    .unwrap();
    let r = reference::solve_upper(&u, &b).unwrap();
    assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL);
}

#[test]
fn chain_is_fully_sequential() {
    // n-level chain: makespan must scale ~linearly with n
    let m1 = gen::chain(100);
    let m2 = gen::chain(200);
    let (o1, _) = run_case(&m1, 1, Backend::SingleGpu, Partition::Blocked);
    let (o2, _) = run_case(&m2, 1, Backend::SingleGpu, Partition::Blocked);
    let ratio = o2.makespan.as_ns() as f64 / o1.makespan.as_ns() as f64;
    assert!((1.6..2.6).contains(&ratio), "chain should scale linearly: {ratio}");
}

#[test]
fn diagonal_matrix_is_embarrassingly_parallel() {
    let m = gen::diagonal(4000, 3);
    let (out, r) = run_case(&m, 1, Backend::SingleGpu, Partition::Blocked);
    assert!(verify::rel_inf_diff(&out.x, &r) < 1e-12);
    // no dependencies: every component solves without Dep events
    assert!(out.events >= 4000 * 2);
}

#[test]
fn deterministic_runs() {
    let m = gen::level_structured(&gen::LevelSpec::new(700, 12, 2800, 21));
    let (a, _) =
        run_case(&m, 4, Backend::Shmem { poll_caching: true }, Partition::Tasks { per_gpu: 8 });
    let (b, _) =
        run_case(&m, 4, Backend::Shmem { poll_caching: true }, Partition::Tasks { per_gpu: 8 });
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.x, b.x);
}

#[test]
fn empty_matrix_is_trivial() {
    let m = sparsemat::TripletBuilder::new(0).build().unwrap();
    let plan = ExecutionPlan::build(0, 1, Partition::Blocked, Triangle::Lower);
    let mut machine = Machine::new(MachineConfig::dgx1(1));
    let out = run(&m, &[], &plan, &mut machine, ExecConfig::default()).unwrap();
    assert!(out.x.is_empty());
}

#[test]
fn replay_panel_bit_identical_to_scalar_replay() {
    let m = gen::level_structured(&gen::LevelSpec::new(700, 20, 2800, 9));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let analysis = ExecAnalysis::build(&m, &plan, &cfg);
    let (_, b0) = verify::rhs_for(&m, 1);
    let mut machine = Machine::new(MachineConfig::dgx1(4));
    let order = run_prepared(&b0, &plan, &analysis, &mut machine, &cfg).unwrap().solve_order;
    let factor = factor(&m, Layout::relabel(&m, Triangle::Lower, Some(&order)));
    let mut ws = ReplayWorkspace::new();
    // batch sizes exercising every block width and ragged tails
    for batch in [1usize, 2, 3, 5, 8, 13] {
        let bs: Vec<Vec<f64>> = (0..batch as u64).map(|k| verify::rhs_for(&m, 100 + k).1).collect();
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); batch];
        factor.solve_panel_into(&bs, &mut ws, &mut outs);
        for (k, b) in bs.iter().enumerate() {
            let mut scalar = vec![0.0; m.n()];
            factor.solve_into(b, &mut ws, &mut scalar);
            assert_eq!(outs[k], scalar, "batch={batch} rhs={k}: panel must be bit-identical");
        }
    }
}

#[test]
fn replay_into_matches_replay() {
    // dirty scratch and output must not leak into either order
    let m = gen::banded_lower(400, 6, 3.0, 5);
    let (_, b) = verify::rhs_for(&m, 77);
    let expect = reference::solve_lower(&m, &b).unwrap();
    let natural = factor(&m, Layout::natural(&m, Triangle::Lower));
    let order: Vec<u32> = (0..m.n() as u32).collect();
    let explicit = factor(&m, Layout::relabel(&m, Triangle::Lower, Some(&order)));
    assert!(natural.layout().is_natural() && !explicit.layout().is_natural());
    for f in [&natural, &explicit] {
        let mut ws = ReplayWorkspace { y: vec![1.0; 3 * m.n()] };
        let mut x = vec![2.0; m.n()];
        f.solve_into(&b, &mut ws, &mut x);
        assert_eq!(x, expect);
    }
}

/// The data half of the bit contract: in every order the engine
/// builds (natural, and the schedule's canonical level-major order),
/// every row holds Algorithm 1's operand sequence — so the sweep
/// returns the reference's bits.
#[test]
fn rows_hold_algorithm_1s_sequence_in_every_order() {
    let mut entries = sparsemat::corpus::corpus();
    entries.push(sparsemat::corpus::deep_narrow_entry());
    for e in &entries {
        for tri in [Triangle::Lower, Triangle::Upper] {
            let m = match tri {
                Triangle::Lower => e.matrix.clone(),
                Triangle::Upper => e.matrix.transpose(),
            };
            let levels = LevelSets::analyze(&m, tri);
            let schedule = Schedule::build(&levels, None, Default::default());
            let (_, b) = verify::rhs_for(&m, 0x2A);
            let want = reference::solve_serial(&m, &b, tri).unwrap();
            for layout in [Layout::natural(&m, tri), Layout::level_major(&m, tri, schedule.clone())]
            {
                let cell = format!("{}/{tri:?}/natural={}", e.name, layout.is_natural());
                assert!(layout.rows_in_natural_order(), "{cell}");
                let f = factor(&m, layout);
                let mut x = vec![f64::NAN; m.n()];
                f.solve_into(&b, &mut ReplayWorkspace::new(), &mut x);
                assert!(x.iter().zip(&want).all(|(a, r)| a.to_bits() == r.to_bits()), "{cell}");
            }
        }
    }
}

#[test]
fn sharded_replay_bit_identical_to_serial_replay() {
    let m = gen::level_structured(&gen::LevelSpec::new(1500, 25, 6000, 41));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let levels = LevelSets::analyze(&m, Triangle::Lower);
    let pool = WorkerPool::new();
    // thresholds span no fusion (0), mixed (32 vs ~60 mean width)
    // and the default (everything here fuses)
    for threshold in [0usize, 32, ScheduleTuning::default().chain_width_threshold] {
        for owner in [None, Some(&plan.owner[..])] {
            let tuning = ScheduleTuning { chain_width_threshold: threshold, ..Default::default() };
            let schedule = Schedule::build(&levels, owner, tuning);
            let (_, b) = verify::rhs_for(&m, 99);
            let serial = solve_along(&m, schedule.order(), &b);
            let factor = factor(&m, Layout::level_major(&m, Triangle::Lower, schedule));
            for workers in [1usize, 2, 3, 5, SHARD_COUNT, SHARD_COUNT + 7] {
                let mut ws = ReplayWorkspace { y: vec![1.0; m.n()] }; // dirty scratch
                let mut x = vec![2.0; m.n()];
                factor.solve_sharded_into(&b, &mut ws, &mut x, &pool, workers);
                assert_eq!(x, serial, "workers={workers} owner={} t={threshold}", owner.is_some());
            }
        }
    }
}

#[test]
fn sharded_order_is_level_major_and_owner_grouped() {
    let m = gen::level_structured(&gen::LevelSpec::new(600, 12, 2400, 7));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);
    let levels = LevelSets::analyze(&m, Triangle::Lower);
    let schedule = Schedule::build(&levels, Some(&plan.owner), ScheduleTuning::default());
    let order = schedule.order();
    assert_eq!(order.len(), m.n());
    // level-major: levels never decrease along the order
    let mut last = 0u32;
    for &c in order.iter() {
        let l = levels.level_of[c as usize];
        assert!(l >= last, "order must be level-major");
        last = l;
    }
    // owner-grouped within a level: owners never decrease inside one level
    for l in 0..levels.n_levels() {
        let lp = levels.level_ptr();
        let slice = &order[lp[l] as usize..lp[l + 1] as usize];
        for pair in slice.windows(2) {
            assert!(
                plan.owner[pair[0] as usize] <= plan.owner[pair[1] as usize],
                "level {l} must group by owner"
            );
        }
    }
}

#[test]
fn sharded_replay_handles_degenerate_shapes() {
    let pool = WorkerPool::new();
    let mut ws = ReplayWorkspace::new();
    // empty system
    let empty = sparsemat::TripletBuilder::new(0).build().unwrap();
    let levels = LevelSets::analyze(&empty, Triangle::Lower);
    let schedule = Schedule::build(&levels, None, ScheduleTuning::default());
    let empty_factor = factor(&empty, Layout::level_major(&empty, Triangle::Lower, schedule));
    assert!(!empty_factor.solve_sharded_into(&[], &mut ws, &mut [], &pool, 4));
    // fully sequential chain: every level has width 1. Default
    // tuning fuses it into one chain (serial degrade); threshold 0
    // forces 50 singleton chains through the barriered path.
    let chain = gen::chain(50);
    let levels = LevelSets::analyze(&chain, Triangle::Lower);
    for threshold in [ScheduleTuning::default().chain_width_threshold, 0] {
        let tuning = ScheduleTuning { chain_width_threshold: threshold, ..Default::default() };
        let schedule = Schedule::build(&levels, None, tuning);
        let (_, b) = verify::rhs_for(&chain, 5);
        let serial = reference::solve_lower(&chain, &b).unwrap();
        for layout in [
            Layout::level_major(&chain, Triangle::Lower, schedule),
            Layout::natural(&chain, Triangle::Lower),
        ] {
            // a natural layout's schedule has no chain to split: the
            // sharded sweep runs serially
            let natural = layout.is_natural();
            let f = factor(&chain, layout);
            let mut x = vec![0.0; 50];
            let ran = f.solve_sharded_into(&b, &mut ws, &mut x, &pool, 4);
            assert!(!(natural && ran), "a natural layout never mounts a region");
            assert_eq!(x, serial, "t={threshold} natural={natural}");
        }
    }
}

#[test]
fn poll_caching_reduces_poll_gets() {
    let m = gen::level_structured(&gen::LevelSpec::new(1000, 40, 4000, 31));
    let (_, b) = verify::rhs_for(&m, 42);
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let mut cached = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
        &b,
        &plan,
        &mut cached,
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
    )
    .unwrap();
    let mut raw = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
        &b,
        &plan,
        &mut raw,
        ExecConfig { backend: Backend::Shmem { poll_caching: false }, ..ExecConfig::default() },
    )
    .unwrap();
    let c = cached.stats().shmem;
    let r = raw.stats().shmem;
    assert!(
        c.poll_gets < r.poll_gets,
        "caching must cut poll traffic: {} vs {}",
        c.poll_gets,
        r.poll_gets
    );
    assert!(c.poll_gets_saved > 0);
}
