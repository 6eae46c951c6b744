//! Per-layer decompositions of one triangular factor: `kernel.*`,
//! `schedule.*`, `pool.*`, `engine.*`, `sim.*` and the telemetry
//! plane's armed cost. Every workload runs this on its primary factor
//! in the traced run, so the layer numbers sit next to the end-to-end
//! ones they should move. Only public functions of `sparsemat` /
//! `sptrsv` are called; `pool` is private and is priced indirectly.

use crate::inputs::{self, Factor, RhsSet};
use crate::machine;
use crate::metrics::Metrics;
use crate::timer::{sample_ms, sample_ms_keep, Summary};
use crate::Check;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, LevelSets};
use sptrsv::exec::{ExecAnalysis, ExecConfig, PANEL_K};
use sptrsv::plan::{ExecutionPlan, Partition};
use sptrsv::{
    telemetry, Backend, Schedule, SolveOptions, SolveWorkspace, SolverEngine, SolverKind,
};
use std::time::Duration;

/// Timed measurements [`factor_layers`] splits its budget across.
const SLICES: u32 = 16;

/// Bytes one scalar replay sweep moves, computed from array sizes (no
/// cache misses, no write-allocate): the update lists (u32 row + f64
/// value per off-diagonal entry), diagonals, update-list offsets, the
/// canonical order, and one read + one write of `b`/`x`/`left_sum`.
pub fn solve_bytes_computed(m: &CscMatrix) -> u64 {
    let (n, nnz) = (m.n() as u64, m.nnz() as u64);
    factor_bytes_computed(m) + n * 4 + vector_bytes_computed(n, nnz)
}

fn factor_bytes_computed(m: &CscMatrix) -> u64 {
    let (n, nnz) = (m.n() as u64, m.nnz() as u64);
    (nnz - n) * 12 + n * 8 + (n + 1) * 4
}

/// `b` read, `x` written, `left_sum` zeroed + read per row, and one
/// read-modify-write of `left_sum` per off-diagonal update.
fn vector_bytes_computed(n: u64, nnz: u64) -> u64 {
    n * 8 * 4 + (nnz - n) * 16
}

/// Time warm solves of `b`: pinned to `workers`, or the auto tier.
fn timed_solve(
    engine: &SolverEngine<'_>,
    workers: Option<usize>,
    b: &[f64],
    x: &mut [f64],
    ws: &mut SolveWorkspace,
    slice: Duration,
) -> Summary {
    sample_ms(slice, 5, || match workers {
        Some(w) => engine.solve_sharded_into(b, x, ws, w).expect("sharded solve"),
        None => engine.solve_into(b, x, ws).expect("auto solve"),
    })
}

fn median_ms(label: &'static str, out: &mut Metrics, s: Summary) -> f64 {
    let med = s.median();
    out.keep_summary(label, s);
    med
}

/// Measure every per-factor layer metric of `f` into `out`, spending
/// about `budget` of wall time. Every solve result is checked against
/// `rhs`'s oracle through `check`.
pub fn factor_layers(
    out: &mut Metrics,
    check: &mut Check,
    f: &Factor,
    rhs: &RhsSet,
    budget: Duration,
) {
    let slice = budget / SLICES;
    let nproc = machine::nproc();
    let m: &CscMatrix = &f.m;
    let (n, nnz) = (m.n(), m.nnz());
    let opts = inputs::solve_options(f.tri);
    let b = &rhs.bs[0];
    let mut ws = SolveWorkspace::new();
    let mut x = vec![0.0f64; n];

    // --- engine: build, footprint, and the parts of the build --------
    let (build, engine) = sample_ms_keep(slice, 3, || {
        SolverEngine::build(m, inputs::machine(), &opts).expect("engine build")
    });
    let build_ms = median_ms("engine.build", out, build);
    out.set("engine.build_ms", build_ms);
    out.set("engine.footprint_bytes", engine.footprint_bytes() as f64);

    let (levels_ms, levels) = sample_ms_keep(slice / 2, 3, || LevelSets::analyze(m, f.tri));
    let gpus = inputs::machine().gpus;
    let SolverKind::ZeroCopy { per_gpu } = opts.kind else {
        unreachable!("the benchmark builds ZeroCopy engines")
    };
    let plan = ExecutionPlan::build(n, gpus, Partition::Tasks { per_gpu }, f.tri);
    let exec_cfg = ExecConfig {
        backend: Backend::Shmem { poll_caching: opts.poll_caching },
        triangle: f.tri,
        gather_all_pes: opts.gather_all_pes,
    };
    let analysis_ms = sample_ms(slice / 2, 3, || {
        std::hint::black_box(ExecAnalysis::build(m, &plan, &exec_cfg));
    })
    .median();
    let (schedule_ms, schedule) = sample_ms_keep(slice / 2, 3, || {
        Schedule::build(&levels, Some(&plan.owner), opts.schedule_tuning())
    });
    let (levels_ms, schedule_ms) = (levels_ms.median(), schedule_ms.median());
    out.set("sparsemat.levels_ms", levels_ms);
    out.set("exec.analysis_build_ms", analysis_ms);
    out.set("schedule.build_ms", schedule_ms);
    // derived: the engine also analyzes levels inside its schedule
    // span, so the remainder is the calibration simulation plus glue
    let calibration_ms = (build_ms - levels_ms - analysis_ms - schedule_ms).max(0.0);
    out.set("sim.calibration_ms", calibration_ms);

    // --- sim: simulated time, must repeat exactly --------------------
    let cal = engine.calibration().expect("simulated engine");
    let zerocopy_ns = cal.timings.total.as_ns() as f64;
    out.set("sim.zerocopy_ns", zerocopy_ns);
    out.set("sim.events", cal.events as f64);
    if calibration_ms > 0.0 {
        out.set("sim.host_events_per_s", cal.events as f64 / (calibration_ms / 1e3));
    }
    let um_opts = SolveOptions { kind: SolverKind::Unified, ..opts.clone() };
    let um = SolverEngine::build(m, inputs::machine(), &um_opts).expect("unified engine");
    let unified_ns = um.calibration().expect("simulated engine").timings.total.as_ns() as f64;
    drop(um);
    out.set("sim.unified_ns", unified_ns);
    out.set("sim.zerocopy_over_um", zerocopy_ns / unified_ns.max(1.0));

    // --- schedule: exact counts from ScheduleStats -------------------
    let stats = schedule.stats();
    out.set("schedule.levels", stats.levels as f64);
    out.set("schedule.chains", stats.chains as f64);
    out.set("schedule.shards", stats.shards as f64);
    out.set("schedule.fused_fraction", stats.fused_fraction);
    out.set("schedule.barriers_per_solve", stats.barriers_per_solve as f64);
    out.set("schedule.auto_workers", schedule.auto_workers(nproc) as f64);
    let report = engine.solve(b).expect("solve");
    check.ok(report.schedule == Some(stats) && rhs.matches(0, 0, &report.x));

    // --- kernel: serial canonical replay, natural order, fused panel -
    let serial_ms =
        median_ms("kernel.serial", out, timed_solve(&engine, Some(1), b, &mut x, &mut ws, slice));
    check.ok(rhs.matches(0, 0, &x));
    let bytes = solve_bytes_computed(m);
    out.set("kernel.serial_ms", serial_ms);
    out.set("kernel.serial_ns_per_nnz", serial_ms * 1e6 / nnz as f64);
    out.set("kernel.flops_per_solve", 2.0 * nnz as f64);
    out.set("kernel.bytes_per_solve_computed", bytes as f64);
    let serial_gbps = bytes as f64 / (serial_ms * 1e6);
    out.set("kernel.serial_gbps_computed", serial_gbps);

    let natural_opts = SolveOptions { kind: SolverKind::Serial, ..opts.clone() };
    let natural = SolverEngine::build(m, inputs::machine(), &natural_opts).expect("serial engine");
    let natural_ms = sample_ms(slice, 5, || natural.solve_into(b, &mut x, &mut ws).expect("solve"));
    check.ok(inputs::hash_bits(&x) == inputs::hash_bits(&inputs::substitute(m, f.tri, b)));
    out.set("kernel.natural_ns_per_nnz", natural_ms.median() * 1e6 / nnz as f64);
    drop(natural);

    let lanes = rhs.bs.len();
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); lanes];
    let panel_ms = sample_ms(slice, 3, || {
        engine.solve_panel_into(&rhs.bs, &mut outs, &mut ws).expect("panel solve");
    })
    .median();
    check.ok(outs.iter().enumerate().all(|(k, o)| rhs.matches(k, 0, o)));
    let sweeps = lanes.div_ceil(PANEL_K) as u64;
    let panel_bytes = sweeps * (factor_bytes_computed(m) + n as u64 * 4)
        + lanes as u64 * vector_bytes_computed(n as u64, nnz as u64);
    out.set("kernel.panel_ns_per_nnz_rhs", panel_ms * 1e6 / (nnz * lanes) as f64);
    out.set("kernel.panel_gbps_computed", panel_bytes as f64 / (panel_ms * 1e6));

    // the roofline denominator, measured in this run: a triad sized to
    // the solve's computed bytes (what the cache hierarchy gives a
    // stream of that footprint) and one at 64 MiB (DRAM-bound here: 16x
    // the 4 MiB L2, though not 4x the host-shared 260 MiB L3)
    let triad_ws = machine::triad_gbps(bytes as usize, slice);
    out.set("kernel.triad_gbps_ws", triad_ws);
    out.set("kernel.triad_gbps_64m", machine::triad_gbps(64 << 20, slice));
    out.set("kernel.roofline_share", serial_gbps / triad_ws);

    // --- schedule: pinned worker counts vs the auto tier -------------
    out.set("schedule.sharded_w1_ms", serial_ms);
    let auto_ms =
        median_ms("schedule.auto", out, timed_solve(&engine, None, b, &mut x, &mut ws, slice));
    check.ok(rhs.matches(0, 0, &x));
    out.set("schedule.auto_ms", auto_ms);
    let mut best = serial_ms;
    let mut w2_ms = 0.0;
    if nproc >= 2 {
        // a speedup is never printed for a worker count that did not run
        let s = timed_solve(&engine, Some(2), b, &mut x, &mut ws, slice);
        check.ok(rhs.matches(0, 0, &x));
        w2_ms = median_ms("schedule.sharded_w2", out, s);
        out.set("schedule.sharded_w2_ms", w2_ms);
        out.set("schedule.scaling_efficiency", serial_ms / (2.0 * w2_ms));
        best = best.min(w2_ms);
    }
    out.set("schedule.auto_over_best", auto_ms / best);

    // --- pool, indirectly --------------------------------------------
    if nproc >= 2 {
        // a one-chain factor never mounts a region, so the smallest
        // parallel solve is a two-level one: pinned nproc workers minus
        // one worker is one region dispatch + join and its 3 barriers
        // (the 4096 rows themselves take ~10 us either way)
        let small = gen::level_structured(&LevelSpec::new(4096, 2, 6144, 1));
        let se = SolverEngine::build(&small, inputs::machine(), &opts).expect("small engine");
        let sb = vec![1.0f64; small.n()];
        let mut sx = vec![0.0f64; small.n()];
        let mut pinned = |w: usize| {
            sample_ms(slice / 2, 50, || {
                se.solve_sharded_into(&sb, &mut sx, &mut ws, w).expect("small solve");
            })
            .median()
        };
        let (one, many) = (pinned(1), pinned(nproc));
        out.set("pool.region_roundtrip_us", (many - one) * 1e3);

        // a deep/narrow factor with fusion off pays two barriers per
        // level; with fusion on almost none: Δtime ÷ Δbarriers
        let deep = gen::deep_narrow(inputs::LIGHT_DEPTH, 6, 3.2, 0xBEEF);
        let unfused_opts = SolveOptions { chain_width_threshold: 0, ..opts.clone() };
        let fused = SolverEngine::build(&deep, inputs::machine(), &opts).expect("deep engine");
        let unfused =
            SolverEngine::build(&deep, inputs::machine(), &unfused_opts).expect("deep engine");
        let db = vec![1.0f64; deep.n()];
        let mut dx = vec![0.0f64; deep.n()];
        let barriers = |e: &SolverEngine<'_>| {
            e.solve(&db).expect("solve").schedule.expect("stats").barriers_per_solve as f64
        };
        let d_barriers = barriers(&unfused) - barriers(&fused);
        let mut pinned = |e: &SolverEngine<'_>| {
            sample_ms(slice / 2, 5, || {
                e.solve_sharded_into(&db, &mut dx, &mut ws, nproc).expect("deep solve");
            })
            .median()
        };
        let barrier_us = (pinned(&unfused) - pinned(&fused)) * 1e3 / d_barriers.max(1.0);
        out.set("pool.barrier_us", barrier_us);
        out.set(
            "schedule.barrier_share",
            stats.barriers_per_solve as f64 * barrier_us / (w2_ms * 1e3),
        );
    }

    // --- engine: refresh, verification and allocation cost -----------
    let mut epoch = 0usize;
    let refresh_ms = sample_ms(slice, 4, || {
        epoch += 1;
        engine.refresh_values(f.epoch(epoch)).expect("refresh");
    })
    .median();
    engine.solve_into(b, &mut x, &mut ws).expect("solve after refresh");
    check.ok(rhs.matches(0, epoch, &x));
    if epoch % 2 == 1 {
        engine.refresh_values(&f.m).expect("refresh back to epoch 0");
    }
    out.set("engine.refresh_ms", refresh_ms);

    let alloc_ms = sample_ms(slice, 5, || {
        std::hint::black_box(engine.solve(b).expect("allocating solve"));
    })
    .median();
    out.set("engine.alloc_solve_ratio", alloc_ms / auto_ms);
    let verify_opts = SolveOptions { verify: true, ..opts.clone() };
    let ve = SolverEngine::build(m, inputs::machine(), &verify_opts).expect("verifying engine");
    let verify_ms = sample_ms(slice, 5, || ve.solve_into(b, &mut x, &mut ws).expect("solve"));
    check.ok(rhs.matches(0, 0, &x));
    out.set("engine.verify_ratio", verify_ms.median() / auto_ms);
    drop(ve);

    // --- telemetry: the program's own plane, armed vs dark -----------
    // interleaved batches so drift hits both sides; min damps noise
    const BATCH: usize = 8;
    let mut batch = || {
        sample_ms(slice / 4, 2, || {
            for _ in 0..BATCH {
                engine.solve_into(b, &mut x, &mut ws).expect("solve");
            }
        })
        .min()
    };
    let (mut dark, mut armed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        dark = dark.min(batch());
        telemetry::set_enabled(true);
        armed = armed.min(batch());
        telemetry::set_enabled(false);
    }
    telemetry::reset();
    check.ok(rhs.matches(0, 0, &x));
    out.set("telemetry.armed_overhead_pct", (armed / dark - 1.0) * 100.0);
}
