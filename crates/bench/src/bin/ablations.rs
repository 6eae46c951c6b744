//! Ablation studies for the design choices the paper calls out:
//!
//! * **E9 — r.in_degree poll caching** (§IV-B): the lock-wait loop
//!   skips peers whose partial in-degree already reached zero. We
//!   measure the poll-get traffic and runtime with and without it.
//! * **E10 — task placement locality** (§V): blocked vs round-robin
//!   task layouts change the cross-GPU edge count and the balance.
//! * **Pre-Volta UM** (§III): enabling migrate-on-poll steal-back
//!   (`bounce_delay`) reproduces the page ping-pong pathology that
//!   motivated the paper's Fig. 2/3 characterization.
//! * **Gather scope** (§IV-B): Algorithm 3 gathers `left_sum` from
//!   every PE; gathering only from dependency owners is the obvious
//!   optimization the paper leaves on the table.

use mgpu_sim::MachineConfig;
use sparsemat::Triangle;
use sptrsv::{solve, SolveOptions, SolverKind};
use sptrsv_bench::{geomean, harness_corpus, print_table, r2};

fn main() {
    let corpus = harness_corpus();
    let subset: Vec<_> = corpus
        .iter()
        .filter(|m| {
            ["powersim", "nlpkkt160", "chipcool0", "dblp-2010", "webbase-1M", "dc2"]
                .contains(&m.name)
        })
        .collect();

    // --- E9: poll caching ------------------------------------------------
    let mut rows = Vec::new();
    let mut time_ratio = Vec::new();
    let mut traffic_ratio = Vec::new();
    for nm in &subset {
        let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0xE9);
        let base =
            SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() };
        let cached = solve(&nm.matrix, &b, MachineConfig::dgx1(4), &base).unwrap();
        let raw = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { poll_caching: false, ..base },
        )
        .unwrap();
        let tr = raw.timings.total.as_ns() as f64 / cached.timings.total.as_ns() as f64;
        let gr = raw.stats.shmem.poll_gets as f64 / cached.stats.shmem.poll_gets.max(1) as f64;
        time_ratio.push(tr);
        traffic_ratio.push(gr);
        rows.push(vec![
            nm.name.to_string(),
            cached.stats.shmem.poll_gets.to_string(),
            raw.stats.shmem.poll_gets.to_string(),
            r2(gr),
            r2(tr),
        ]);
    }
    rows.push(vec![
        "geomean".into(),
        String::new(),
        String::new(),
        r2(geomean(&traffic_ratio)),
        r2(geomean(&time_ratio)),
    ]);
    print_table(
        "E9: r.in_degree poll caching (zero-copy, 4-GPU DGX-1)",
        &["matrix", "poll gets (cached)", "poll gets (raw)", "traffic x", "time x"],
        &rows,
    );

    // --- E10: placement locality -----------------------------------------
    let mut rows = Vec::new();
    for nm in &subset {
        let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0xE10);
        let blocked = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ShmemBlocked, ..SolveOptions::default() },
        )
        .unwrap();
        let tasks = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() },
        )
        .unwrap();
        rows.push(vec![
            nm.name.to_string(),
            blocked.cross_edges.to_string(),
            tasks.cross_edges.to_string(),
            r2(tasks.speedup_over(&blocked)),
        ]);
    }
    print_table(
        "E10: blocked vs round-robin tasks (cross edges vs speedup)",
        &["matrix", "cross (blocked)", "cross (tasks)", "tasks speedup"],
        &rows,
    );

    // --- Pre-Volta UM: watcher steal-back --------------------------------
    let mut rows = Vec::new();
    for nm in &subset {
        let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0xF16);
        let volta = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::Unified, ..SolveOptions::default() },
        )
        .unwrap();
        let mut cfg = MachineConfig::dgx1(4);
        cfg.um.bounce_delay_ns = 25_000; // migrate-on-poll ping-pong
        let prevolta = solve(
            &nm.matrix,
            &b,
            cfg,
            &SolveOptions { kind: SolverKind::Unified, ..SolveOptions::default() },
        )
        .unwrap();
        rows.push(vec![
            nm.name.to_string(),
            volta.stats.total_um_faults().to_string(),
            prevolta.stats.total_um_faults().to_string(),
            r2(prevolta.timings.total.as_ns() as f64 / volta.timings.total.as_ns() as f64),
        ]);
    }
    print_table(
        "Pre-Volta UM ablation: poll steal-back enabled (faults & slowdown vs default UM)",
        &["matrix", "faults (volta)", "faults (steal-back)", "slowdown x"],
        &rows,
    );

    // --- Naive Get-Update-Put NVSHMEM design (§IV-A) -----------------------
    let mut rows = Vec::new();
    for nm in &subset {
        let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0x60B);
        let naive = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ShmemNaive, ..SolveOptions::default() },
        )
        .unwrap();
        let zerocopy = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() },
        )
        .unwrap();
        rows.push(vec![
            nm.name.to_string(),
            naive.stats.shmem.puts.to_string(),
            naive.stats.shmem.fences.to_string(),
            naive.stats.shmem.quiets.to_string(),
            r2(zerocopy.speedup_over(&naive)),
        ]);
    }
    print_table(
        "Naive Get-Update-Put design (§IV-A): fenced round trips vs zero-copy speedup",
        &["matrix", "puts", "fences", "quiets", "zerocopy speedup"],
        &rows,
    );

    // --- Reordering: RCM vs natural ordering --------------------------------
    let mut rows = Vec::new();
    for nm in &subset {
        let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0x5C3);
        let natural = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() },
        )
        .unwrap();
        let p = sparsemat::reorder::rcm(&nm.matrix);
        let rm = sparsemat::reorder::permute_lower(&nm.matrix, &p);
        let (_, rb) = sptrsv::verify::rhs_for(&rm, 0x5C3);
        let reordered = solve(
            &rm,
            &rb,
            MachineConfig::dgx1(4),
            &SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..SolveOptions::default() },
        )
        .unwrap();
        let lv = |m: &sparsemat::CscMatrix| {
            sparsemat::levels::TriStats::compute(m, Triangle::Lower).levels
        };
        rows.push(vec![
            nm.name.to_string(),
            lv(&nm.matrix).to_string(),
            lv(&rm).to_string(),
            natural.cross_edges.to_string(),
            reordered.cross_edges.to_string(),
            r2(reordered.speedup_over(&natural)),
        ]);
    }
    print_table(
        "Reordering: RCM vs natural ordering (zero-copy, 4-GPU DGX-1)",
        &["matrix", "levels", "levels (RCM)", "cross", "cross (RCM)", "RCM speedup"],
        &rows,
    );

    // --- Gather scope ------------------------------------------------------
    let mut rows = Vec::new();
    for nm in &subset {
        let (_, b) = sptrsv::verify::rhs_for(&nm.matrix, 0xAB);
        let base = SolveOptions {
            kind: SolverKind::ZeroCopy { per_gpu: 8 },
            triangle: Triangle::Lower,
            ..SolveOptions::default()
        };
        let all = solve(&nm.matrix, &b, MachineConfig::dgx1(4), &base).unwrap();
        let deps_only = solve(
            &nm.matrix,
            &b,
            MachineConfig::dgx1(4),
            &SolveOptions { gather_all_pes: false, ..base },
        )
        .unwrap();
        rows.push(vec![
            nm.name.to_string(),
            all.stats.shmem.gets.to_string(),
            deps_only.stats.shmem.gets.to_string(),
            r2(all.timings.total.as_ns() as f64 / deps_only.timings.total.as_ns() as f64),
        ]);
    }
    print_table(
        "Gather scope: all PEs (Alg. 3) vs dependency owners only (gets & Alg3/deps-only time)",
        &["matrix", "gets (all PEs)", "gets (deps only)", "alg3 time x"],
        &rows,
    );
}
