//! Tests of both executor halves.

use super::*;
use crate::plan::{ExecutionPlan, Partition};
use crate::reference;
use crate::verify;
use crate::Backend;
use desim::SimTime;
use mgpu_sim::{Machine, MachineConfig};
use sparsemat::{gen, CscMatrix, LevelSets};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// The Table-I corpus, generated once per test binary: its tests share
/// it rather than each paying the generation.
fn corpus() -> &'static [sparsemat::corpus::NamedMatrix] {
    static CORPUS: OnceLock<Vec<sparsemat::corpus::NamedMatrix>> = OnceLock::new();
    CORPUS.get_or_init(sparsemat::corpus::corpus)
}

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

/// Protocol faults the audit tests seed into the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Mutation {
    /// The next update delivered is lost.
    DropDelivery,
    /// A publishing warp's updates land when it wakes, before it solves.
    DeliverAtWake,
}

thread_local! {
    /// The fault seeded into this thread's runs, if any.
    static MUTATION: Cell<Option<Mutation>> = const { Cell::new(None) };
}

/// Whether the seeded fault `f` fires here; a dropped delivery fires
/// once.
pub(super) fn fires(f: Mutation) -> bool {
    MUTATION.with(|m| {
        let hit = m.get() == Some(f);
        if hit && f == Mutation::DropDelivery {
            m.set(None);
        }
        hit
    })
}

/// The exact protocol audit of a run over `m`: `solve_order` is a
/// permutation and a topological order, and for every stored entry
/// j→i, `published_at[j] ≤ satisfied_at[i] ≤ woke_at[i]` — no update
/// is seen before its producer published it, and no warp wakes before
/// its last dependency arrived.
fn audit(m: &CscMatrix, out: &ExecOutcome) -> Result<(), String> {
    let n = m.n();
    let mut pos = vec![usize::MAX; n];
    for (p, &c) in out.solve_order.iter().enumerate() {
        if std::mem::replace(&mut pos[c as usize], p) != usize::MAX {
            return Err(format!("component {c} solved twice"));
        }
    }
    if out.solve_order.len() != n {
        return Err(format!("{} of {n} components solved", out.solve_order.len()));
    }
    for i in 0..n {
        if out.satisfied_at[i] > out.woke_at[i] {
            return Err(format!("{i} woke at {} before satisfaction", out.woke_at[i]));
        }
    }
    for j in 0..n {
        for (i, _) in m.col(j) {
            let i = i as usize;
            if i == j {
                continue;
            }
            if pos[j] > pos[i] {
                return Err(format!("{i} solved before its source {j}"));
            }
            if out.published_at[j] > out.satisfied_at[i] {
                let (p, s) = (out.published_at[j], out.satisfied_at[i]);
                return Err(format!("{i} satisfied at {s}, before {j} published at {p}"));
            }
        }
    }
    Ok(())
}

/// Simulate `m` and audit the run exactly against its dependencies.
fn run_case(m: &CscMatrix, gpus: usize, backend: Backend, partition: Partition) -> ExecOutcome {
    let plan = ExecutionPlan::build(m.n(), gpus, partition, Triangle::Lower);
    let mut machine = Machine::new(MachineConfig::dgx1(gpus.max(1)));
    let cfg = ExecConfig { backend, triangle: Triangle::Lower, gather_all_pes: true };
    let out = run(m, &plan, &mut machine, cfg).expect("no deadlock");
    audit(m, &out).expect("protocol audit");
    out
}

#[test]
fn single_gpu_matches_reference() {
    let m = gen::banded_lower(800, 8, 4.0, 3);
    let out = run_case(&m, 1, Backend::SingleGpu, Partition::Blocked);
    assert!(out.makespan > SimTime::ZERO);
}

#[test]
fn shmem_multi_gpu_matches_reference() {
    let m = gen::level_structured(&gen::LevelSpec::new(1200, 30, 5000, 7));
    for gpus in [2usize, 3, 4] {
        for gather_all_pes in [true, false] {
            let plan =
                ExecutionPlan::build(m.n(), gpus, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
            let mut machine = Machine::new(MachineConfig::dgx1(gpus));
            let backend = Backend::Shmem { poll_caching: true };
            let cfg = ExecConfig { backend, triangle: Triangle::Lower, gather_all_pes };
            let out = run(&m, &plan, &mut machine, cfg).expect("no deadlock");
            audit(&m, &out).unwrap_or_else(|e| panic!("gpus={gpus}: {e}"));
        }
    }
}

#[test]
fn unified_multi_gpu_matches_reference() {
    let m = gen::level_structured(&gen::LevelSpec::new(600, 15, 2400, 9));
    run_case(&m, 4, Backend::Unified, Partition::Blocked);
    run_case(&m, 4, Backend::ShmemGup, Partition::Blocked);
}

/// The audit has teeth: a lost update leaves its dependent waiting
/// forever, and an update that lands when its producer wakes — before
/// the producer has solved — is seen too early.
#[test]
fn seeded_protocol_faults_fail() {
    let m = gen::level_structured(&gen::LevelSpec::new(900, 22, 3600, 13));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let seeded = |fault| {
        MUTATION.with(|f| f.set(Some(fault)));
        let out = run(&m, &plan, &mut Machine::new(MachineConfig::dgx1(4)), cfg.clone());
        MUTATION.with(|f| f.set(None));
        out
    };
    assert!(matches!(seeded(Mutation::DropDelivery), Err(ExecError::Deadlock { .. })));
    let early = seeded(Mutation::DeliverAtWake).expect("still completes");
    assert!(audit(&m, &early).is_err(), "an early delivery passed the audit");
    let clean = run(&m, &plan, &mut Machine::new(MachineConfig::dgx1(4)), cfg).unwrap();
    audit(&m, &clean).expect("the unseeded run passes");
}

#[test]
fn prepared_run_reproduces_one_shot_run() {
    let m = gen::level_structured(&gen::LevelSpec::new(900, 22, 3600, 13));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let mut m1 = Machine::new(MachineConfig::dgx1(4));
    let one_shot = run(&m, &plan, &mut m1, cfg.clone()).unwrap();
    let analysis = ExecAnalysis::build(&m, &plan, &cfg);
    let mut m2 = Machine::new(MachineConfig::dgx1(4));
    let prepared = run_prepared(&plan, &analysis, &mut m2, &cfg).unwrap();
    assert_eq!(one_shot.solve_order, prepared.solve_order);
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
    let mut machine = Machine::new(MachineConfig::dgx1(4));
    let calibration = run_prepared(&plan, &analysis, &mut machine, &cfg).unwrap();
    assert_eq!(calibration.solve_order.len(), m.n());

    let (_, b1) = verify::rhs_for(&m, 2);
    let mut machine = Machine::new(MachineConfig::dgx1(4));
    let full = run_prepared(&plan, &analysis, &mut machine, &cfg).unwrap();
    // the replay sums every row in Algorithm 1's order, whatever the
    // row order, so the recorded order serves any b
    let replayed = solve_along(&m, &calibration.solve_order, &b1);
    assert_eq!(replayed, reference::solve_lower(&m, &b1).unwrap(), "replay is the reference");
    assert_eq!(full.solve_order, calibration.solve_order, "schedule is value-independent");
}

#[test]
fn analysis_flat_layout_matches_matrix() {
    let m = gen::level_structured(&gen::LevelSpec::new(500, 12, 2000, 5));
    let plan = ExecutionPlan::build(m.n(), 2, Partition::Blocked, Triangle::Lower);
    let a = ExecAnalysis::build(&m, &plan, &ExecConfig::default());
    for j in 0..m.n() {
        let expect: Vec<u32> = m.col(j).map(|(r, _)| r).filter(|&r| r as usize > j).collect();
        assert_eq!(a.updates_of(j as u32), expect);
    }
}

#[test]
fn unified_generates_page_faults_shmem_does_not() {
    let m = gen::level_structured(&gen::LevelSpec::new(800, 20, 3200, 5));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);

    let mut um_machine = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
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
    let mut um = Machine::new(MachineConfig::dgx1(4));
    let plan_b = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);
    let um_out = run(
        &m,
        &plan_b,
        &mut um,
        ExecConfig { backend: Backend::Unified, ..ExecConfig::default() },
    )
    .unwrap();

    let mut zc = Machine::new(MachineConfig::dgx1(4));
    let plan_t = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let zc_out = run(
        &m,
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
    let plan = ExecutionPlan::build(u.n(), 2, Partition::Tasks { per_gpu: 4 }, Triangle::Upper);
    let mut machine = Machine::new(MachineConfig::dgx1(2));
    let out = run(
        &u,
        &plan,
        &mut machine,
        ExecConfig {
            backend: Backend::Shmem { poll_caching: true },
            triangle: Triangle::Upper,
            gather_all_pes: true,
        },
    )
    .unwrap();
    audit(&u, &out).expect("protocol audit");
}

#[test]
fn chain_is_fully_sequential() {
    // n-level chain: makespan must scale ~linearly with n
    let m1 = gen::chain(100);
    let m2 = gen::chain(200);
    let o1 = run_case(&m1, 1, Backend::SingleGpu, Partition::Blocked);
    let o2 = run_case(&m2, 1, Backend::SingleGpu, Partition::Blocked);
    let ratio = o2.makespan.as_ns() as f64 / o1.makespan.as_ns() as f64;
    assert!((1.6..2.6).contains(&ratio), "chain should scale linearly: {ratio}");
}

#[test]
fn diagonal_matrix_is_embarrassingly_parallel() {
    let m = gen::diagonal(4000, 3);
    let out = run_case(&m, 1, Backend::SingleGpu, Partition::Blocked);
    // no dependencies: a slot, a wake and a retire per component, and
    // no delivery
    assert_eq!(out.events, 1 + 4000 * 3);
    assert!(out.satisfied_at.iter().all(|&t| t == SimTime::ZERO));
}

#[test]
fn deterministic_runs() {
    let m = gen::level_structured(&gen::LevelSpec::new(700, 12, 2800, 21));
    let a = run_case(&m, 4, Backend::Shmem { poll_caching: true }, Partition::Tasks { per_gpu: 8 });
    let b = run_case(&m, 4, Backend::Shmem { poll_caching: true }, Partition::Tasks { per_gpu: 8 });
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.solve_order, b.solve_order);
    assert_eq!(
        (a.satisfied_at, a.woke_at, a.published_at),
        (b.satisfied_at, b.woke_at, b.published_at)
    );
}

#[test]
fn empty_matrix_is_trivial() {
    let m = sparsemat::TripletBuilder::new(0).build().unwrap();
    let plan = ExecutionPlan::build(0, 1, Partition::Blocked, Triangle::Lower);
    let mut machine = Machine::new(MachineConfig::dgx1(1));
    let out = run(&m, &plan, &mut machine, ExecConfig::default()).unwrap();
    assert!(out.solve_order.is_empty());
    assert_eq!((out.makespan, out.events), (SimTime::ZERO, 0));
}

#[test]
fn replay_panel_bit_identical_to_scalar_replay() {
    let m = gen::level_structured(&gen::LevelSpec::new(700, 20, 2800, 9));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let cfg =
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
    let analysis = ExecAnalysis::build(&m, &plan, &cfg);
    let mut machine = Machine::new(MachineConfig::dgx1(4));
    let order = run_prepared(&plan, &analysis, &mut machine, &cfg).unwrap().solve_order;
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
    let natural = factor(&m, Layout::relabel(&m, Triangle::Lower, None));
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

/// The data half of the bit contract: in both orders the engine
/// builds (natural, and the level sets' level-major order), every row
/// holds Algorithm 1's operand sequence — so the sweep returns the
/// reference's bits.
#[test]
fn rows_hold_algorithm_1s_sequence_in_every_order() {
    let deep = sparsemat::corpus::deep_narrow_entry();
    for e in corpus().iter().chain([&deep]) {
        for tri in [Triangle::Lower, Triangle::Upper] {
            let m = match tri {
                Triangle::Lower => e.matrix.clone(),
                Triangle::Upper => e.matrix.transpose(),
            };
            let levels = LevelSets::analyze(&m, tri);
            let (_, b) = verify::rhs_for(&m, 0x2A);
            let want = reference::solve_serial(&m, &b, tri).unwrap();
            for order in [None, Some(levels.level_comps())] {
                let layout = Layout::relabel(&m, tri, order);
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
fn poll_caching_reduces_poll_gets() {
    let m = gen::level_structured(&gen::LevelSpec::new(1000, 40, 4000, 31));
    let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
    let mut cached = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
        &plan,
        &mut cached,
        ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
    )
    .unwrap();
    let mut raw = Machine::new(MachineConfig::dgx1(4));
    run(
        &m,
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

/// The order rule, as a table over both engine kinds: each row's
/// predictor value and the order its engine lays the factor out in.
/// Level-structured factors and every corpus entry read almost none of
/// their natural predecessors and sweep natural; a grid's ILU(0)
/// factors read nearly all of them and sweep level-major; a chain reads
/// all of them, but its level order *is* natural order, so it needs no
/// position table; a diagonal reads none.
#[test]
fn sweep_order_follows_the_natural_predecessor_share() {
    use super::numeric::natural_predecessor_share;
    use crate::{SolveOptions, SolverEngine, SolverKind};
    use std::ops::RangeInclusive;
    type Row = (&'static str, CscMatrix, Triangle, RangeInclusive<f64>, bool);
    let (lower, upper) = (Triangle::Lower, Triangle::Upper);
    let grid = sparsemat::factor::ilu0(&gen::grid_laplacian(48, 48), 1e-8).unwrap();
    let mut rows: Vec<Row> = vec![
        (
            "heavy",
            gen::level_structured(&gen::LevelSpec::new(100_000, 200, 400_000, 11)),
            lower,
            0.0..=0.01,
            false,
        ),
        (
            "light",
            gen::level_structured(&gen::LevelSpec::new(12_000, 2_000, 48_000, 7)),
            lower,
            0.0..=0.1,
            false,
        ),
        ("deep_narrow", gen::deep_narrow(2_000, 6, 3.2, 0xBEEF), lower, 0.0..=0.1, false),
        ("grid ILU(0)", grid.l, lower, 0.95..=1.0, true),
        ("grid ILU(0)", grid.u, upper, 0.95..=1.0, true),
        ("chain", gen::chain(500), lower, 1.0..=1.0, false),
        ("chain", gen::chain(500).transpose(), upper, 1.0..=1.0, false),
        ("diagonal", gen::diagonal(300, 3), lower, 0.0..=0.0, false),
        ("n=1", gen::diagonal(1, 3), lower, 0.0..=0.0, false),
        ("n=0", sparsemat::TripletBuilder::new(0).build().unwrap(), lower, 0.0..=0.0, false),
    ];
    for e in corpus() {
        rows.push((e.name, e.matrix.transpose(), upper, 0.0..=0.25, false));
        rows.push((e.name, e.matrix.clone(), lower, 0.0..=0.25, false));
    }
    for (name, m, tri, share, level_major) in &rows {
        let got = natural_predecessor_share(m, *tri);
        assert!(share.contains(&got), "{name}/{tri:?}: share {got} outside {share:?}");
        for kind in [SolverKind::ZeroCopy { per_gpu: 8 }, SolverKind::Serial] {
            let opts = SolveOptions { kind, triangle: *tri, ..SolveOptions::default() };
            let engine = SolverEngine::build(m, MachineConfig::dgx1(4), &opts).unwrap();
            let natural = engine.snapshot().factor.layout().is_natural();
            assert_eq!(natural, !level_major, "{name}/{tri:?}/{kind:?}: share {got}");
        }
    }
}
