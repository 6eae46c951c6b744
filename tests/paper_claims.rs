//! The paper's qualitative claims, asserted as integration tests.
//! Every run is deterministic, so these are stable regression tests of
//! the reproduced evaluation shapes (`cargo bench -p sptrsv-bench
//! --bench figures` prints the quantitative tables).

use mgpu_sptrsv::prelude::*;
use sparsemat::corpus;

const ROW_CAP: usize = 4_000;
const NNZ_CAP: usize = 80_000;

fn load(name: &str) -> sparsemat::NamedMatrix {
    corpus::by_name_scaled(name, ROW_CAP, NNZ_CAP).expect("corpus matrix")
}

fn run(nm: &sparsemat::NamedMatrix, cfg: MachineConfig, kind: SolverKind) -> SolveReport {
    let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0xC1A1);
    sptrsv::solve(&nm.matrix, &b, cfg, &SolveOptions { kind, ..Default::default() })
        .unwrap_or_else(|e| panic!("{} {kind:?}: {e}", nm.name))
}

/// §VI-B / Fig. 7: the zero-copy design beats the Unified-Memory design
/// on a 4-GPU DGX-1 — by a lot on high-parallelism matrices.
#[test]
fn fig7_zero_copy_beats_unified() {
    for name in ["nlpkkt160", "powersim", "dc2", "Wordnet3"] {
        let nm = load(name);
        let unified = run(&nm, MachineConfig::dgx1(4), SolverKind::Unified);
        let zerocopy = run(&nm, MachineConfig::dgx1(4), SolverKind::ZeroCopy { per_gpu: 8 });
        let s = zerocopy.speedup_over(&unified);
        assert!(s > 1.5, "{name}: zerocopy speedup only {s:.2}");
    }
}

/// §VI-B / Fig. 7: imposing the task model on Unified Memory makes it
/// *slower* (more page contention), unlike on NVSHMEM.
#[test]
fn fig7_tasks_hurt_unified_but_help_zero_copy() {
    let nm = load("powersim");
    let unified = run(&nm, MachineConfig::dgx1(4), SolverKind::Unified);
    let unified_tasks = run(&nm, MachineConfig::dgx1(4), SolverKind::UnifiedTasks { per_gpu: 8 });
    assert!(
        unified_tasks.timings.total > unified.timings.total,
        "tasks must increase UM contention"
    );
    // The task benefit needs enough per-GPU work to amortize the extra
    // kernel launches (the Fig. 9 trade-off): the crossover sits near
    // n ≈ 6k at 8 tasks/GPU, so test above it with the
    // high-parallelism matrix, as the paper's Fig. 7 does.
    let nm = sparsemat::corpus::by_name_scaled("nlpkkt160", 10_000, 200_000).unwrap();
    let shmem = run(&nm, MachineConfig::dgx1(4), SolverKind::ShmemBlocked);
    let zerocopy = run(&nm, MachineConfig::dgx1(4), SolverKind::ZeroCopy { per_gpu: 8 });
    assert!(zerocopy.timings.total < shmem.timings.total, "tasks must improve the NVSHMEM design");
}

/// §III / Fig. 3a: UM page-fault counts grow with the number of GPUs.
#[test]
fn fig3_fault_counts_grow_with_gpus() {
    let nm = load("pkustk14");
    let f: Vec<u64> = [2usize, 4, 8]
        .iter()
        .map(|&g| run(&nm, MachineConfig::dgx1(g), SolverKind::Unified).stats.total_um_faults())
        .collect();
    assert!(f[0] < f[1] && f[1] < f[2], "fault growth violated: {f:?}");
}

/// §III / Fig. 3b: UM performance collapses at 8 GPUs (host-staged
/// routes for non-P2P pairs).
#[test]
fn fig3_unified_collapses_at_eight_gpus() {
    let nm = load("belgium_osm");
    let four = run(&nm, MachineConfig::dgx1(4), SolverKind::Unified);
    let eight = run(&nm, MachineConfig::dgx1(8), SolverKind::Unified);
    assert!(
        eight.timings.total.as_ns() > 2 * four.timings.total.as_ns(),
        "8-GPU UM must be far slower: {} vs {}",
        eight.timings.total,
        four.timings.total
    );
}

/// §II-B: the level-set baseline collapses on deep level structures;
/// sync-free does not.
#[test]
fn csrsv2_pays_per_level_synchronization() {
    let chain = sparsemat::gen::chain(3_000);
    let wide =
        sparsemat::gen::level_structured(&sparsemat::gen::LevelSpec::new(3_000, 3, chain.nnz(), 9));
    let nmc = |m: sparsemat::CscMatrix| sparsemat::NamedMatrix {
        name: "synthetic",
        class: "synthetic",
        achieved: sparsemat::levels::TriStats::compute(&m, Triangle::Lower),
        paper: sparsemat::PaperStats { rows: 0, nnz: 0, levels: 0, parallelism: 0.0 },
        matrix: m,
    };
    let deep = run(&nmc(chain), MachineConfig::dgx1(1), SolverKind::LevelSet);
    let shallow = run(&nmc(wide), MachineConfig::dgx1(1), SolverKind::LevelSet);
    assert!(
        deep.timings.total.as_ns() > 10 * shallow.timings.total.as_ns(),
        "deep {} vs shallow {}",
        deep.timings.total,
        shallow.timings.total
    );
}

/// §VI-D / Fig. 10: matrices with high parallelism and low dependency
/// scale best with GPU count.
#[test]
fn fig10_parallelism_governs_scaling() {
    let parallel = load("nlpkkt160"); // 2 levels
    let serial = load("chipcool0"); // hundreds of levels, par 38
    let gain = |nm: &sparsemat::NamedMatrix| {
        let one = run(nm, MachineConfig::dgx1(1), SolverKind::ZeroCopyTotal { total: 32 });
        let four = run(nm, MachineConfig::dgx1(4), SolverKind::ZeroCopyTotal { total: 32 });
        four.speedup_over(&one)
    };
    let gp = gain(&parallel);
    let gs = gain(&serial);
    assert!(gp > gs, "parallel matrix must scale better: {gp:.2} vs {gs:.2}");
    assert!(gp > 2.0, "nlpkkt160 should scale well, got {gp:.2}");
}

/// §VI-B / Fig. 8: zero-copy achieves similar speedups on DGX-1 and
/// DGX-2 at 4 GPUs (communication is overlapped with computation).
#[test]
fn fig8_dgx1_and_dgx2_are_comparable_at_four_gpus() {
    let nm = load("dblp-2010");
    let d1 = run(&nm, MachineConfig::dgx1(4), SolverKind::ZeroCopy { per_gpu: 8 });
    let d2 = run(&nm, MachineConfig::dgx2(4), SolverKind::ZeroCopy { per_gpu: 8 });
    let ratio = d1.timings.total.as_ns() as f64 / d2.timings.total.as_ns() as f64;
    assert!((0.6..1.7).contains(&ratio), "DGX-1/DGX-2 ratio {ratio:.2} out of range");
}

/// §IV-B: the r.in_degree caching optimization reduces poll traffic.
#[test]
fn poll_caching_saves_interconnect_traffic() {
    let nm = load("dblp-2010");
    let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0xCAFE);
    let base = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };
    let cached = sptrsv::solve(&nm.matrix, &b, MachineConfig::dgx1(4), &base).unwrap();
    let raw = sptrsv::solve(
        &nm.matrix,
        &b,
        MachineConfig::dgx1(4),
        &SolveOptions { poll_caching: false, ..base },
    )
    .unwrap();
    assert!(cached.stats.shmem.poll_gets < raw.stats.shmem.poll_gets);
    assert!(cached.stats.shmem.poll_gets_saved > 0);
}

/// §V: round-robin tasks spread early components across all GPUs,
/// fixing the unidirectional-waiting pathology of blocked layouts.
#[test]
fn task_pool_balances_exec_time_across_gpus() {
    let nm = load("nlpkkt160");
    let blocked = run(&nm, MachineConfig::dgx1(4), SolverKind::ShmemBlocked);
    let tasks = run(&nm, MachineConfig::dgx1(4), SolverKind::ZeroCopy { per_gpu: 8 });
    let imbalance = |r: &SolveReport| {
        let b = &r.stats.exec_busy_ns;
        let max = *b.iter().max().unwrap() as f64;
        let min = *b.iter().min().unwrap() as f64;
        max / min.max(1.0)
    };
    assert!(
        imbalance(&tasks) < imbalance(&blocked) || tasks.timings.total < blocked.timings.total,
        "task pool must improve balance or makespan"
    );
}
