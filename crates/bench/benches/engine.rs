//! Build-once/solve-many engine benchmark: cold vs amortized solves.
//!
//! Measures, on a 100k-row level-structured factor (scalable via
//! `SPTRSV_SCALE`):
//!
//! * **cold solve** — one-shot `sptrsv::solve()`: analysis + plan +
//!   adjacency + calibration simulation + numeric solve, every call;
//! * **warm solve** — `engine.solve()` on a prebuilt [`SolverEngine`]:
//!   numeric replay only;
//! * **64-RHS amortized batch** — `engine.solve_batch()` against 64
//!   one-shot `solve()` calls on the same matrix;
//! * **fused panel vs per-RHS warm loop** — the K-blocked
//!   `solve_panel_into` (factor streamed once per 8-wide block,
//!   zero-allocation workspace) and the pooled `solve_batch_into`
//!   against 64 individual warm `solve()` calls. Both are
//!   bandwidth-bound and the factor is only ~4 nonzeros per row, so
//!   the panel's edge is what 8 lanes save in factor traffic net of
//!   permuting 8 vectors through an `n × 8` buffer that no longer fits
//!   L2 — 1.3–1.9× here, not the 3× it had over the latency-bound
//!   column-scatter loop. Gated on the panel's own throughput
//!   (ns per nonzero per RHS no worse than the column-scatter panel's
//!   committed figure) and on never losing to the per-RHS loop;
//! * **idle service round trip** — one lone request at a time through
//!   a default-config [`sptrsv::serve::SolverService`] against
//!   `solve_into` on the same engine; asserted ≤ 2× on any hardware
//!   (the idle-aware linger: an idle dispatcher does not wait).
//! * **value refresh vs full rebuild** — the time-stepping step cost:
//!   `refresh_values` (in-place value swap, zero symbolic work) then a
//!   warm solve, against a full `SolverEngine::build` then the same
//!   solve; asserted ≥ 3× (the rebuild pays level analysis, schedule
//!   and relabelling — a build no longer simulates — and the refresh
//!   pays none of it, so the floor is hardware-independent).
//! * **fleet warm submit vs cold rebuild** — per-request latency of a
//!   warm [`EngineFleet`] submit (direct enqueue + cached-engine
//!   replay) against the cold one-shot solve a service without the
//!   factor cache would pay per request; asserted ≥ 2× (build
//!   dominates, so the floor is hardware-independent), and the
//!   fleet's byte high-water is asserted under budget.
//!
//! Results go to `BENCH_engine.json` at the repository root so the perf
//! trajectory is tracked from PR to PR. The batch speedup is asserted
//! to stay ≥ 2× — the acceptance floor; the design typically lands far
//! above it.
//!
//! Run with `cargo bench -p sptrsv-bench --bench engine`.

use mgpu_sim::MachineConfig;
use sparsemat::factor::{ilu0, LuFactors};
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, Triangle};
use sptrsv::fleet::{EngineFleet, FleetConfig};
use sptrsv::krylov::{pcg, KrylovOptions, PreconditionerEngine};
use sptrsv::serve::{serve_solver, ServiceConfig};
use sptrsv::telemetry;
use sptrsv::{solve, verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};
use sptrsv_bench::timer::{time_ns, TimingSummary};
use std::cell::Cell;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BASE_N: usize = 100_000;
const BATCH_RHS: usize = 64;
/// Ceiling for the fused panel, in ns per nonzero per right-hand side:
/// the column-scatter panel's committed figure at default scale
/// (52.5 ms for 64 RHS × 399,599 nnz on the 2-thread reference host,
/// BENCH_engine.json before the row-gather kernel) — the panel may
/// never again be slower than the kernel it replaced.
const FUSED_NS_PER_NNZ_RHS_CEILING: f64 = 2.05;

fn main() {
    let scale = sptrsv_bench::scale_factor();
    let n = (BASE_N as f64 * scale) as usize;
    let m = gen::level_structured(&LevelSpec::new(n, 200, n * 4, 11));
    let nnz = m.nnz();
    let cfg = MachineConfig::dgx1(4);
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    println!("engine bench: n={n} nnz={nnz} kind={}", opts.kind.label());

    // --- cold vs warm single solves ----------------------------------
    let (_, b) = verify::rhs_for(&m, 1);
    let cold = time_ns(5, || solve(&m, &b, cfg.clone(), &opts).unwrap());
    let engine = SolverEngine::build(&m, cfg.clone(), &opts).unwrap();
    // the first `solve` runs the calibration; "warm" means past it
    engine.solve(&b).unwrap();
    let warm = time_ns(5, || engine.solve(&b).unwrap());
    let cold_over_warm = cold.median_ns as f64 / warm.median_ns.max(1) as f64;
    println!("cold solve   median {:>12}", TimingSummary::human(cold.median_ns));
    println!(
        "warm solve   median {:>12}   (cold/warm = {cold_over_warm:.1}x)",
        TimingSummary::human(warm.median_ns)
    );

    // --- 64-RHS: amortized batch vs one-shot loop --------------------
    let bs: Vec<Vec<f64>> =
        (0..BATCH_RHS as u64).map(|k| verify::rhs_for(&m, 1000 + k).1).collect();
    let one_shot = time_ns(3, || {
        let mut acc = 0u64;
        for b in &bs {
            acc ^= solve(&m, b, cfg.clone(), &opts).unwrap().events;
        }
        acc
    });
    let batch = time_ns(3, || {
        // a fresh engine per sample: the amortized cost INCLUDES the
        // one-time analysis + calibration, as a real caller would pay it
        let engine = SolverEngine::build(&m, cfg.clone(), &opts).unwrap();
        engine.solve_batch(&bs).unwrap().reports.len()
    });
    let speedup = one_shot.median_ns as f64 / batch.median_ns.max(1) as f64;
    println!("{BATCH_RHS}x one-shot median {:>12}", TimingSummary::human(one_shot.median_ns));
    println!(
        "{BATCH_RHS}x batch    median {:>12}   (speedup = {speedup:.1}x)",
        TimingSummary::human(batch.median_ns)
    );

    // --- fused panel vs per-RHS warm loop ----------------------------
    // Warm replay is memory-bandwidth-bound: the per-RHS loop streams
    // the flattened factor adjacency 64 times, the fused panel once
    // per 8-wide block. Same engine, same machine, same run.
    let per_rhs = time_ns(5, || {
        let mut acc = 0.0f64;
        for b in &bs {
            acc += engine.solve(b).unwrap().x[0];
        }
        acc
    });
    let mut ws = SolveWorkspace::new();
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap(); // warm the workspace
    let fused = time_ns(5, || {
        engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
        outs[0][0]
    });
    engine.solve_batch_into(&bs, &mut outs).unwrap(); // spawn + warm the pool
    let pooled = time_ns(5, || {
        engine.solve_batch_into(&bs, &mut outs).unwrap();
        outs[0][0]
    });
    let fused_speedup = per_rhs.median_ns as f64 / fused.median_ns.max(1) as f64;
    let pooled_speedup = per_rhs.median_ns as f64 / pooled.median_ns.max(1) as f64;
    let ns_per_nnz_rhs = |ns: u64| ns as f64 / (nnz * BATCH_RHS) as f64;
    // factor bytes one replay sweep streams: update lists (u32 row +
    // f64 value per entry), diagonals, and the CSR-style offsets
    let factor_bytes = (nnz - n) as u64 * 12 + n as u64 * 8 + (n as u64 + 1) * 4;
    let panel_k = sptrsv::exec::PANEL_K;
    let fused_sweeps = (BATCH_RHS as u64).div_ceil(panel_k as u64);
    let rows_per_s = |ns: u64| (BATCH_RHS * n) as f64 / (ns as f64 / 1e9);
    let gbps = |sweeps: u64, ns: u64| (sweeps * factor_bytes) as f64 / (ns as f64 / 1e9) / 1e9;
    println!(
        "{BATCH_RHS}x per-RHS warm loop median {:>12}   ({:.2e} rows/s, {:.2} GB/s factor, {:.2} ns/nnz/rhs)",
        TimingSummary::human(per_rhs.median_ns),
        rows_per_s(per_rhs.median_ns),
        gbps(BATCH_RHS as u64, per_rhs.median_ns),
        ns_per_nnz_rhs(per_rhs.median_ns),
    );
    println!(
        "{BATCH_RHS}x fused panel K={panel_k}  median {:>12}   ({:.2e} rows/s, {:.2} GB/s factor, {:.2} ns/nnz/rhs, {fused_speedup:.1}x)",
        TimingSummary::human(fused.median_ns),
        rows_per_s(fused.median_ns),
        gbps(fused_sweeps, fused.median_ns),
        ns_per_nnz_rhs(fused.median_ns),
    );
    println!(
        "{BATCH_RHS}x pooled batch_into median {:>12}   ({:.2e} rows/s, {pooled_speedup:.1}x)",
        TimingSummary::human(pooled.median_ns),
        rows_per_s(pooled.median_ns),
    );

    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());

    // --- serving front-end: coalesced panels vs lock-per-request -----
    // 64 concurrent right-hand sides from 8 client threads. The
    // baseline is what a service without a batching layer does: every
    // client grabs a global engine lock and runs one warm solve per
    // request (the factor streams once per RHS). The coalesced path
    // runs the same traffic through a SolverService, whose dispatcher
    // fuses queued requests into PANEL_K-lane panels — the factor
    // streams once per panel, and the mean fill is recorded. The win
    // floor is asserted only on ≥ 4-thread hardware; a 1-CPU container
    // records its honest numbers (thread oversubscription noise can
    // eat the fusion win there).
    const SERVE_CLIENTS: usize = 8;
    const SERVE_PER_CLIENT: usize = 8;
    let serve_bs: Vec<Vec<f64>> = (0..(SERVE_CLIENTS * SERVE_PER_CLIENT) as u64)
        .map(|k| verify::rhs_for(&m, 5000 + k).1)
        .collect();
    let locked = Mutex::new((SolveWorkspace::new(), vec![0.0f64; n]));
    let lock_loop = time_ns(3, || {
        std::thread::scope(|s| {
            for c in 0..SERVE_CLIENTS {
                let (locked, engine, serve_bs) = (&locked, &engine, &serve_bs);
                s.spawn(move || {
                    for r in 0..SERVE_PER_CLIENT {
                        let b = &serve_bs[c * SERVE_PER_CLIENT + r];
                        let mut guard = locked.lock().unwrap();
                        let (ws, out) = &mut *guard;
                        engine.solve_into(b, out, ws).unwrap();
                    }
                });
            }
        });
    });
    let serve_cfg =
        ServiceConfig { max_linger: Duration::from_micros(500), ..ServiceConfig::default() };
    let mean_fill = Cell::new(0.0f64);
    let serve_panels = Cell::new(0u64);
    let coalesced = time_ns(3, || {
        let ((), report) = serve_solver(&engine, &serve_cfg, |svc| {
            std::thread::scope(|s| {
                for c in 0..SERVE_CLIENTS {
                    let serve_bs = &serve_bs;
                    s.spawn(move || {
                        // a burst per client: submit everything, then
                        // wait — the coalescing opportunity real
                        // concurrent traffic presents
                        let tickets: Vec<_> = (0..SERVE_PER_CLIENT)
                            .map(|r| svc.submit(&serve_bs[c * SERVE_PER_CLIENT + r]).unwrap())
                            .collect();
                        for t in tickets {
                            t.wait().unwrap();
                        }
                    });
                }
            });
        })
        .unwrap();
        mean_fill.set(report.mean_fill());
        serve_panels.set(report.panels);
    });
    let serve_speedup = lock_loop.median_ns as f64 / coalesced.median_ns.max(1) as f64;
    println!(
        "{}x lock-per-request loop median {:>12}",
        SERVE_CLIENTS * SERVE_PER_CLIENT,
        TimingSummary::human(lock_loop.median_ns)
    );
    println!(
        "{}x coalesced service   median {:>12}   (mean fill {:.2} lanes over {} panels, {serve_speedup:.2}x, hw={hw})",
        SERVE_CLIENTS * SERVE_PER_CLIENT,
        TimingSummary::human(coalesced.median_ns),
        mean_fill.get(),
        serve_panels.get(),
    );

    // --- serving front-end: what an idle service adds to one solve ----
    // One lone request at a time through a default-config service,
    // against `solve_into` on the same engine: the round trip is the
    // kernel plus one copy in, one copy out and two thread hand-offs.
    // Once the dispatcher has seen that lingering buys a lone request
    // nothing it stops waiting, so the ratio must stay under 2 on any
    // host — it read 2.0 when every request still paid `max_linger`.
    let idle_b = &serve_bs[0];
    let idle_kernel = {
        let (mut ws, mut out) = (SolveWorkspace::new(), vec![0.0f64; n]);
        time_ns(31, || engine.solve_into(idle_b, &mut out, &mut ws).unwrap())
    };
    let (idle_roundtrip, _) = serve_solver(&engine, &ServiceConfig::default(), |svc| {
        let mut out = vec![0.0f64; n];
        let mut lone = || svc.submit(idle_b).unwrap().wait_into(&mut out).unwrap();
        // past the dispatcher's futile-linger run and buffer warm-up
        (0..8).for_each(|_| lone());
        time_ns(31, lone)
    })
    .unwrap();
    let idle_over_kernel = idle_roundtrip.median_ns as f64 / idle_kernel.median_ns.max(1) as f64;
    println!(
        "idle service round trip median {:>12}   ({idle_over_kernel:.2}x of solve_into {})",
        TimingSummary::human(idle_roundtrip.median_ns),
        TimingSummary::human(idle_kernel.median_ns),
    );

    // --- PCG + ILU(0): cold per-application analysis vs warm replay --
    // The paper's §I workload: every Krylov iteration applies
    // M⁻¹ = (LU)⁻¹ against the SAME factors. Warm builds the
    // PreconditionerEngine once (two engines, one shared pool) and
    // replays the substitution per application (an engine pair that
    // only preconditions never calibrates); cold re-runs the full
    // analysis + calibration for L and U on every application through
    // the one-shot `solve` — what a caller without the engine
    // abstraction would pay.
    let spd = gen::grid_laplacian(64, 64);
    let fac = ilu0(&spd, 1e-8).expect("ilu0");
    let pcg_b: Vec<f64> = (0..spd.n()).map(|i| ((i % 19) as f64 - 9.0) / 9.0).collect();
    let kopts = KrylovOptions { max_iterations: 300, rel_tol: 1e-8 };
    let warm_pcg = time_ns(3, || {
        // a fresh engine pair per sample: the warm cost INCLUDES the
        // one-time analysis of both factors, as a real caller pays it
        let pre = PreconditionerEngine::from_ilu0(&fac, cfg.clone(), &opts).expect("engine pair");
        let rep = pcg(&spd, &pcg_b, &pre, &kopts).expect("pcg");
        assert!(rep.converged, "warm PCG must converge");
        rep.iterations
    });
    let pre = PreconditionerEngine::from_ilu0(&fac, cfg.clone(), &opts).unwrap();
    let pcg_iters = pcg(&spd, &pcg_b, &pre, &kopts).unwrap().iterations;
    let mut cold_iters = 0;
    let cold_pcg =
        time_ns(1, || cold_iters = cold_pcg_iterations(&spd, &fac, &pcg_b, &cfg, &opts, &kopts));
    assert_eq!(cold_iters, pcg_iters, "one-shot applies must share the warm PCG trajectory");
    let pcg_speedup = cold_pcg.median_ns as f64 / warm_pcg.median_ns.max(1) as f64;
    println!("pcg+ilu0 n={} iters={pcg_iters}", spd.n());
    println!(
        "cold pcg (analysis per apply) median {:>12}",
        TimingSummary::human(cold_pcg.median_ns)
    );
    println!(
        "warm pcg (engine pair, replay)  median {:>12}   (speedup = {pcg_speedup:.1}x)",
        TimingSummary::human(warm_pcg.median_ns)
    );

    // --- fleet: warm cached-engine serving vs cold per-request build -
    // The factor cache's value proposition: once a tenant's engine is
    // resident, a fleet submit pays one enqueue + warm panel replay,
    // while a service WITHOUT the cache pays an engine build per
    // request. The baseline is the already-measured cold one-shot
    // solve (build + calibration + solve); a per-request build served
    // by `solve_into` would skip the calibration, not the analysis.
    // The floor is hardware-independent: an engine build costs orders
    // of magnitude more than a warm dispatch.
    const FLEET_REQS: u64 = 16;
    let fleet_cfg = FleetConfig { machine: cfg.clone(), solve: opts.clone(), ..Default::default() };
    let fleet = EngineFleet::new(fleet_cfg).expect("fleet config");
    let fleet_fp = fleet.register(Arc::new(m.clone()));
    let fleet_bs: Vec<Vec<f64>> =
        (0..FLEET_REQS).map(|k| verify::rhs_for(&m, 9000 + k).1).collect();
    // first submit admits + builds the tenant; excluded from the warm timing
    fleet.submit(fleet_fp, &fleet_bs[0]).unwrap().wait().unwrap();
    let fleet_warm = time_ns(3, || {
        let tickets: Vec<_> = (0..FLEET_REQS as usize)
            .map(|r| fleet.submit(fleet_fp, &fleet_bs[r]).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
    });
    let fleet_report = fleet.report();
    let fleet_per_req = fleet_warm.median_ns / FLEET_REQS;
    let fleet_speedup = cold.median_ns as f64 / fleet_per_req.max(1) as f64;
    println!(
        "fleet warm submit     median {:>12}/req   (vs cold per-request build: {fleet_speedup:.1}x, \
         cache {}/{} bytes)",
        TimingSummary::human(fleet_per_req),
        fleet_report.cache_bytes_high_water,
        fleet_report.cache_budget_bytes,
    );
    assert!(
        fleet_report.cache_bytes_high_water <= fleet_report.cache_budget_bytes,
        "fleet byte budget violated under bench traffic: {fleet_report:?}"
    );
    drop(fleet);

    // --- value refresh vs full rebuild -------------------------------
    // Time-stepping workloads change factor VALUES every step while
    // the structure is fixed. `refresh_values` validates, audits and
    // gathers the new values into the retired value snapshot, then
    // swaps it in — zero symbolic work; the alternative is a full
    // engine rebuild (level analysis,
    // schedule, relabelling; `build` + `solve_into` never calibrates)
    // per step. Samples alternate between two value sets so every
    // refresh writes genuinely new values.
    let m2 = {
        let mut t = m.clone();
        for (i, v) in t.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 7) as f64) * 0.01;
        }
        t
    };
    let mut rws = SolveWorkspace::new();
    let mut rout = vec![0.0f64; n];
    engine.solve_into(&b, &mut rout, &mut rws).unwrap(); // warm buffers
    let flip = Cell::new(false);
    let refresh_then_solve = time_ns(5, || {
        let next = if flip.replace(!flip.get()) { &m } else { &m2 };
        engine.refresh_values(next).unwrap();
        engine.solve_into(&b, &mut rout, &mut rws).unwrap();
        rout[0]
    });
    assert!(engine.value_epoch() >= 5, "every sample must commit a refresh");
    let rebuild_then_solve = time_ns(3, || {
        let e2 = SolverEngine::build(&m2, cfg.clone(), &opts).unwrap();
        e2.solve_into(&b, &mut rout, &mut rws).unwrap();
        rout[0]
    });
    let refresh_speedup =
        rebuild_then_solve.median_ns as f64 / refresh_then_solve.median_ns.max(1) as f64;
    println!(
        "rebuild-then-solve median {:>12}",
        TimingSummary::human(rebuild_then_solve.median_ns)
    );
    println!(
        "refresh-then-solve median {:>12}   (speedup = {refresh_speedup:.1}x)",
        TimingSummary::human(refresh_then_solve.median_ns)
    );

    // --- telemetry plane: armed vs dark warm solves ------------------
    // The observability contract: with the span/metric sink disabled
    // (one relaxed atomic load per probe) the warm path is unchanged,
    // and ARMING it — every solve now records spans, bumps counters
    // and feeds a latency histogram — costs at most 5%. Each sample
    // batches solves so the ratio compares real work; dark and armed
    // batches alternate, so host drift over the window lands on both
    // sides, and min-of-samples damps scheduler noise; the alloc_free
    // suite separately proves both modes stay zero-allocation.
    const TELEM_BATCH: usize = 32;
    const TELEM_ROUNDS: usize = 8;
    let mut tout = vec![0.0f64; n];
    let mut tws = SolveWorkspace::new();
    telemetry::set_enabled(true);
    engine.solve_into(&b, &mut tout, &mut tws).unwrap(); // warm buffers, register the ring
    telemetry::reset();
    let (mut telem_dark_min, mut telem_armed_min) = (u64::MAX, u64::MAX);
    for _ in 0..TELEM_ROUNDS {
        for (armed, min_ns) in [(false, &mut telem_dark_min), (true, &mut telem_armed_min)] {
            telemetry::set_enabled(armed);
            let t0 = std::time::Instant::now();
            for _ in 0..TELEM_BATCH {
                engine.solve_into(&b, &mut tout, &mut tws).unwrap();
            }
            *min_ns = (*min_ns).min(t0.elapsed().as_nanos() as u64);
        }
    }
    let telem_total_events = telemetry::snapshot().total_events;
    telemetry::set_enabled(false);
    telemetry::reset();
    let telem_overhead_pct = (telem_armed_min as f64 / telem_dark_min.max(1) as f64 - 1.0) * 100.0;
    assert!(telem_total_events > 0, "the armed window must actually record events");
    println!(
        "telemetry dark  {TELEM_BATCH}x warm solve min {:>12}",
        TimingSummary::human(telem_dark_min)
    );
    println!(
        "telemetry armed {TELEM_BATCH}x warm solve min {:>12}   (overhead {telem_overhead_pct:+.2}%, {telem_total_events} events)",
        TimingSummary::human(telem_armed_min)
    );

    // --- emit BENCH_engine.json at the repo root ---------------------
    let json = format!(
        r#"{{
  "bench": "engine_cold_vs_warm",
  "matrix": {{ "n": {n}, "nnz": {nnz}, "generator": "level_structured(levels=200, seed=11)" }},
  "solver": "{label}",
  "machine": "dgx1x4",
  "cold_solve_ns": {{ "median": {cold_med}, "min": {cold_min} }},
  "warm_solve_ns": {{ "median": {warm_med}, "min": {warm_min} }},
  "cold_over_warm": {cold_over_warm:.2},
  "batch": {{
    "rhs": {BATCH_RHS},
    "one_shot_loop_ns": {os_med},
    "amortized_batch_ns": {batch_med},
    "speedup": {speedup:.2},
    "threads": {threads}
  }},
  "fused_panel": {{
    "rhs": {BATCH_RHS},
    "panel_k": {panel_k},
    "per_rhs_warm_loop_ns": {per_rhs_med},
    "fused_panel_ns": {fused_med},
    "pooled_batch_into_ns": {pooled_med},
    "speedup_vs_per_rhs": {fused_speedup:.2},
    "pooled_speedup_vs_per_rhs": {pooled_speedup:.2},
    "fused_rows_per_s": {fused_rows:.0},
    "per_rhs_factor_gb_per_s": {per_rhs_gbps:.2},
    "fused_factor_gb_per_s": {fused_gbps:.2},
    "per_rhs_ns_per_nnz_rhs": {per_rhs_nnz:.3},
    "fused_ns_per_nnz_rhs": {fused_nnz:.3},
    "fused_ns_per_nnz_rhs_ceiling": {FUSED_NS_PER_NNZ_RHS_CEILING}
  }},
  "serving": {{
    "clients": {serve_clients},
    "per_client": {serve_per_client},
    "rhs": {serve_rhs},
    "max_lanes": {panel_k},
    "lock_per_request_ns": {lock_med},
    "coalesced_service_ns": {serve_med},
    "speedup": {serve_speedup:.2},
    "mean_panel_fill": {serve_fill:.2},
    "panels": {serve_panels_v},
    "idle_roundtrip_ns": {idle_roundtrip_med},
    "idle_kernel_solve_into_ns": {idle_kernel_med},
    "idle_roundtrip_over_kernel": {idle_over_kernel:.2},
    "hardware_threads": {threads}
  }},
  "pcg_ilu0": {{
    "matrix": {{ "n": {pcg_n}, "nnz": {pcg_nnz}, "generator": "grid_laplacian(64x64)" }},
    "preconditioner": "ilu0 PreconditionerEngine (L fwd + U bwd, shared pool)",
    "iterations": {pcg_iters},
    "rel_tol": 1e-8,
    "cold_pcg_ns": {cold_pcg_med},
    "warm_pcg_ns": {warm_pcg_med},
    "warm_speedup": {pcg_speedup:.2}
  }},
  "fleet": {{
    "requests": {fleet_reqs},
    "warm_submit_ns_per_req": {fleet_per_req},
    "cold_build_per_request_ns": {cold_med},
    "speedup_vs_cold_rebuild": {fleet_speedup:.2},
    "cache_bytes_high_water": {fleet_high_water},
    "cache_budget_bytes": {fleet_budget}
  }},
  "value_refresh": {{
    "refresh_then_solve_ns": {refresh_med},
    "rebuild_then_solve_ns": {rebuild_med},
    "speedup_vs_rebuild": {refresh_speedup:.2}
  }},
  "telemetry": {{
    "batch": {telem_batch},
    "disabled_warm_batch_ns": {telem_dark_min},
    "enabled_warm_batch_ns": {telem_armed_min},
    "overhead_pct": {telem_overhead_pct:.2},
    "events_recorded": {telem_total_events}
  }}
}}
"#,
        telem_batch = TELEM_BATCH,
        refresh_med = refresh_then_solve.median_ns,
        rebuild_med = rebuild_then_solve.median_ns,
        fleet_reqs = FLEET_REQS,
        fleet_high_water = fleet_report.cache_bytes_high_water,
        fleet_budget = fleet_report.cache_budget_bytes,
        label = opts.kind.label(),
        cold_med = cold.median_ns,
        cold_min = cold.min_ns,
        warm_med = warm.median_ns,
        warm_min = warm.min_ns,
        os_med = one_shot.median_ns,
        batch_med = batch.median_ns,
        threads = hw,
        per_rhs_med = per_rhs.median_ns,
        fused_med = fused.median_ns,
        pooled_med = pooled.median_ns,
        fused_rows = rows_per_s(fused.median_ns),
        per_rhs_gbps = gbps(BATCH_RHS as u64, per_rhs.median_ns),
        fused_gbps = gbps(fused_sweeps, fused.median_ns),
        per_rhs_nnz = ns_per_nnz_rhs(per_rhs.median_ns),
        fused_nnz = ns_per_nnz_rhs(fused.median_ns),
        serve_clients = SERVE_CLIENTS,
        serve_per_client = SERVE_PER_CLIENT,
        serve_rhs = SERVE_CLIENTS * SERVE_PER_CLIENT,
        lock_med = lock_loop.median_ns,
        serve_med = coalesced.median_ns,
        serve_fill = mean_fill.get(),
        serve_panels_v = serve_panels.get(),
        idle_roundtrip_med = idle_roundtrip.median_ns,
        idle_kernel_med = idle_kernel.median_ns,
        pcg_n = spd.n(),
        pcg_nnz = spd.nnz(),
        cold_pcg_med = cold_pcg.median_ns,
        warm_pcg_med = warm_pcg.median_ns,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let mut f = std::fs::File::create(out).expect("create BENCH_engine.json");
    f.write_all(json.as_bytes()).expect("write BENCH_engine.json");
    println!("wrote {out}");

    assert!(
        speedup >= 2.0,
        "amortized batch must be at least 2x faster than one-shot loop, got {speedup:.2}x"
    );
    // the fused panel is gated on its own throughput, not on its ratio
    // to the per-RHS loop: that ratio was 3x while the scalar loop was
    // latency-bound and is 1.3–1.9x now that both are bandwidth-bound
    // (see the module docs) — a moving denominator. The ceiling is the
    // column-scatter panel's committed figure; the ratio keeps only
    // its semantic floor, the tier's reason to exist
    let fused_cost = ns_per_nnz_rhs(fused.median_ns);
    assert!(
        fused_cost <= FUSED_NS_PER_NNZ_RHS_CEILING,
        "fused panel must cost at most {FUSED_NS_PER_NNZ_RHS_CEILING} ns/nnz/rhs \
         (the column-scatter panel it replaced), got {fused_cost:.2}"
    );
    assert!(
        fused_speedup >= 1.0,
        "fused panel must never lose to the per-RHS warm loop, got {fused_speedup:.2}x"
    );
    assert!(
        pcg_speedup >= 2.0,
        "warm PCG (engine pair) must be at least 2x faster than per-application \
         analysis, got {pcg_speedup:.2}x"
    );
    assert!(
        fleet_speedup >= 2.0,
        "a warm fleet submit must be at least 2x faster than a cold per-request \
         engine rebuild, got {fleet_speedup:.2}x"
    );
    // hardware-independent: the rebuild pays level analysis, schedule
    // and relabelling; the refresh pays none of it
    assert!(
        refresh_speedup >= 3.0,
        "refresh-then-solve must be at least 3x faster than rebuild-then-solve, \
         got {refresh_speedup:.2}x"
    );
    // coalescing must beat the lock-per-request loop wherever parallel
    // hardware exists; a 1–3 thread machine records its honest numbers
    // (oversubscribed client threads add scheduling noise the fusion
    // win has to overcome first)
    assert!(
        hw < 4 || serve_speedup >= 1.3,
        "the coalesced service must beat the lock-per-request serial loop at \
         {} concurrent RHS on {hw} hardware threads, got {serve_speedup:.2}x",
        SERVE_CLIENTS * SERVE_PER_CLIENT
    );
    // hardware-independent: an idle service adds two copies and two
    // hand-offs to a solve, never a linger
    assert!(
        idle_over_kernel <= 2.0,
        "a lone request through an idle service must cost at most 2x the bare \
         solve_into, got {idle_over_kernel:.2}x"
    );
    // hardware-independent: a handful of atomic stores per solve
    // against a full factor sweep — the armed sink must stay ≤ 5%
    assert!(
        telem_overhead_pct <= 5.0,
        "armed telemetry must cost at most 5% on warm solves, \
         got {telem_overhead_pct:+.2}%"
    );
}

/// The cold baseline: the same PCG recurrence as `krylov::pcg`, but
/// every preconditioner application rebuilds both engines — i.e. pays
/// level sets, plan, adjacency AND the calibration simulation for L
/// and U each time, which is what a caller does with only the one-shot
/// `solve()` API. The one-shot applies return the same bits as the warm
/// pair's (both equal the reference substitution pair), so the two
/// trajectories — and iteration counts — are identical; only the
/// per-application cost differs.
fn cold_pcg_iterations(
    a: &CscMatrix,
    f: &LuFactors,
    b: &[f64],
    cfg: &MachineConfig,
    opts: &SolveOptions,
    kopts: &KrylovOptions,
) -> usize {
    let fwd_opts = SolveOptions { triangle: Triangle::Lower, ..opts.clone() };
    let bwd_opts = SolveOptions { triangle: Triangle::Upper, ..opts.clone() };
    let apply = |r: &[f64]| -> Vec<f64> {
        let y = solve(&f.l, r, cfg.clone(), &fwd_opts).expect("cold L solve").x;
        solve(&f.u, &y, cfg.clone(), &bwd_opts).expect("cold U solve").x
    };
    let n = a.n();
    let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(x, y)| x * y).sum::<f64>();
    let b_norm = dot(b, b).sqrt();
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut z = apply(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0f64; n];
    for k in 0..kopts.max_iterations {
        a.matvec_into(&p, &mut ap);
        let alpha = rz / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        if dot(&r, &r).sqrt() / b_norm <= kopts.rel_tol {
            return k + 1;
        }
        if k + 1 == kopts.max_iterations {
            break; // mirror the warm driver: no discarded final direction
        }
        z = apply(&r);
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    kopts.max_iterations
}
