//! Armed-telemetry integration tests: ring wraparound semantics, the
//! span/schedule reconciliation contract, and result bit-identity
//! under tracing.
//!
//! The telemetry sink is process-global (one enable switch, one metric
//! registry, one ring per thread), so these tests live in their own
//! binary and serialize on a lock — the library's own unit tests never
//! arm the sink, and nothing here runs concurrently with itself.

use mgpu_sim::MachineConfig;
use sparsemat::corpus;
use sptrsv::telemetry::{self, Kind, Site, RING_CAPACITY};
use sptrsv::{verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};
use std::sync::{Mutex, PoisonError};

/// Serializes armed-telemetry tests; each test resets the sink while
/// holding this and disarms it before releasing.
static SINK: Mutex<()> = Mutex::new(());

fn enters(snap: &telemetry::Snapshot, site: Site) -> Vec<telemetry::EventRecord> {
    snap.events.iter().filter(|e| e.kind == Kind::SpanEnter && e.site == site).copied().collect()
}

fn exits(snap: &telemetry::Snapshot, site: Site) -> usize {
    snap.events.iter().filter(|e| e.kind == Kind::SpanExit && e.site == site).count()
}

/// Overflowing a ring keeps exactly the newest `RING_CAPACITY` events,
/// in recording order, and accounts for every older one as dropped.
#[test]
fn ring_wraparound_keeps_the_newest_events_in_order() {
    let _g = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    telemetry::reset();

    let overflow = 1000u64;
    let total = RING_CAPACITY as u64 + overflow;
    for i in 0..total {
        telemetry::instant(Site::ServeFlush, i);
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    let tid = telemetry::current_tid();
    let mine: Vec<_> = snap.events.iter().filter(|e| e.tid == tid).collect();
    assert_eq!(mine.len(), RING_CAPACITY, "a full ring retains exactly its capacity");
    assert!(snap.dropped >= overflow, "the {overflow} overwritten events count as dropped");
    // the survivors are the newest `RING_CAPACITY` instants, untorn
    // and in recording order: consecutive seqs, non-decreasing
    // timestamps, and the args we wrote
    for (k, e) in mine.iter().enumerate() {
        assert_eq!(e.kind, Kind::Instant);
        assert_eq!(e.arg, overflow + k as u64, "oldest survivor is event #{overflow}");
        if k > 0 {
            assert_eq!(e.seq, mine[k - 1].seq + 1, "per-thread seqs are consecutive");
            assert!(e.ts_ns >= mine[k - 1].ts_ns, "timestamps never run backwards");
        }
    }
    let flushes =
        snap.counters.iter().find(|(n, _)| *n == Site::ServeFlush.name()).map_or(0, |&(_, v)| v);
    assert_eq!(flushes, total, "the counter saw every event, wrapped or not");
}

/// The acceptance contract from the schedule IR: one warm sharded
/// solve on the deep/narrow corpus entry emits exactly one
/// `exec.sharded.chain` span per chain and one `exec.sharded.barrier`
/// span per `barriers_per_solve` — the trace and the static stats
/// reconcile event-for-event.
#[test]
fn sharded_solve_spans_reconcile_with_schedule_stats() {
    let _g = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let m = corpus::deep_narrow_entry().matrix;
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 7);
    let stats = engine.solve(&b).unwrap().schedule.expect("sharded engine always carries stats");
    assert!(stats.chains > 0 && stats.barriers_per_solve > 0, "corpus entry must be non-trivial");

    let mut ws = SolveWorkspace::new();
    let mut out = vec![0.0f64; m.n()];
    telemetry::set_enabled(true);
    // warm-up: spawns the pool workers (which register their rings)
    // and sizes the workspace, so the measured solve is steady-state
    engine.solve_sharded_into(&b, &mut out, &mut ws, 2).unwrap();

    // the sharded tier falls back to the bit-identical serial replay
    // if the pool declines the region (e.g. a transient spawn
    // shortfall); that replay records no chain spans, so retry — the
    // contract under test is about the parallel replay's trace
    let mut snap = None;
    for _ in 0..5 {
        telemetry::reset();
        engine.solve_sharded_into(&b, &mut out, &mut ws, 2).unwrap();
        let s = telemetry::snapshot();
        if !enters(&s, Site::ShardedChain).is_empty() {
            snap = Some(s);
            break;
        }
    }
    telemetry::set_enabled(false);
    let snap = snap.expect("five consecutive region declines is not a healthy pool");

    let chains = enters(&snap, Site::ShardedChain);
    assert_eq!(chains.len(), stats.chains, "one chain span per schedule chain");
    assert_eq!(exits(&snap, Site::ShardedChain), stats.chains, "every chain span closed");
    let barriers = enters(&snap, Site::ShardedBarrier);
    assert_eq!(
        barriers.len(),
        stats.barriers_per_solve,
        "one barrier span per ScheduleStats::barriers_per_solve"
    );
    assert_eq!(exits(&snap, Site::ShardedBarrier), stats.barriers_per_solve);
    // all on worker 0's lane, and none lost to wraparound
    let lane = chains[0].tid;
    assert!(chains.iter().chain(barriers.iter()).all(|e| e.tid == lane));
    assert_eq!(snap.dropped, 0, "one solve's events fit the ring");
    // the barrier-wait histogram measured what the stats only count —
    // on every worker (both of them here), so imbalance is visible
    let waits = snap.histograms.iter().find(|h| h.name == "barrier_wait_ns").unwrap();
    assert_eq!(waits.count, 2 * stats.barriers_per_solve as u64);

    // the digest and both exporters agree with the raw events
    let report = telemetry::report_from(&snap);
    let chain_summary = report.spans.iter().find(|s| s.site == "exec.sharded.chain").unwrap();
    assert_eq!(chain_summary.count, stats.chains as u64);
    let trace = telemetry::chrome_trace_json(&snap);
    assert!(trace.contains("\"exec.sharded.chain\"") && trace.contains("\"ph\":\"B\""));
    let prom = telemetry::prometheus_text(&snap);
    assert!(prom.contains("sptrsv_barrier_wait_ns_count"));
    assert!(prom.contains("sptrsv_site_events_total{site=\"exec.sharded.chain\"}"));
}

/// Arming the sink must not change a single output bit on any warm
/// tier — tracing observes the solve, it never steers it.
#[test]
fn tracing_does_not_change_results() {
    let _g = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let m = corpus::deep_narrow_entry().matrix;
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let (_, b) = verify::rhs_for(&m, 11);
    let mut ws = SolveWorkspace::new();
    let mut dark = vec![0.0f64; m.n()];
    let mut traced = vec![0.0f64; m.n()];

    engine.solve_into(&b, &mut dark, &mut ws).unwrap();
    telemetry::set_enabled(true);
    telemetry::reset();
    engine.solve_into(&b, &mut traced, &mut ws).unwrap();
    let serial_events = telemetry::snapshot().total_events;
    telemetry::set_enabled(false);
    assert_eq!(dark, traced, "bit-identical serial solve under tracing");
    assert!(serial_events > 0, "the traced solve actually recorded spans");

    engine.solve_sharded_into(&b, &mut dark, &mut ws, 2).unwrap();
    telemetry::set_enabled(true);
    engine.solve_sharded_into(&b, &mut traced, &mut ws, 2).unwrap();
    telemetry::set_enabled(false);
    assert_eq!(dark, traced, "bit-identical sharded solve under tracing");

    // and the disabled path stays dark: no events, default digest
    telemetry::reset();
    engine.solve_into(&b, &mut dark, &mut ws).unwrap();
    assert_eq!(telemetry::snapshot().total_events, 0, "disarmed probes record nothing");
    assert_eq!(telemetry::report(), sptrsv::TelemetryReport::default());
}
