//! Armed-telemetry integration tests: ring wraparound semantics, the
//! span/call reconciliation contract, and result bit-identity under
//! tracing.
//!
//! The telemetry sink is process-global (one enable switch, one metric
//! registry, one ring per thread), so these tests live in their own
//! binary and serialize on a lock — the library's own unit tests never
//! arm the sink, and nothing here runs concurrently with itself.

use mgpu_sim::MachineConfig;
use sparsemat::corpus;
use sptrsv::fleet::{EngineFleet, FleetConfig};
use sptrsv::telemetry::{self, Kind, Site, RING_CAPACITY};
use sptrsv::{verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};
use std::sync::{Arc, Mutex, PoisonError};

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

/// The closure contract on what runs: every `solve_into` emits exactly
/// one `engine.solve.serial` span and one `solve_serial_ns` sample, and
/// every panel call one `engine.solve.panel` span and one
/// `solve_panel_ns` sample — the trace reconciles call for call.
#[test]
fn solve_spans_reconcile_with_calls() {
    let _g = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let m = corpus::deep_narrow_entry().matrix;
    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let bs: Vec<Vec<f64>> = (0..4u64).map(|k| verify::rhs_for(&m, 7 + k).1).collect();
    let mut ws = SolveWorkspace::new();
    let mut out = vec![0.0f64; m.n()];
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    telemetry::set_enabled(true);
    // warm-up: sizes the workspace and registers this thread's ring
    engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
    engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();

    const SOLVES: usize = 5;
    const PANELS: usize = 3;
    telemetry::reset();
    for k in 0..SOLVES {
        engine.solve_into(&bs[k % bs.len()], &mut out, &mut ws).unwrap();
    }
    for _ in 0..PANELS {
        engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    for (site, hist, calls) in [
        (Site::SolveSerial, "solve_serial_ns", SOLVES),
        (Site::SolvePanel, "solve_panel_ns", PANELS),
    ] {
        assert_eq!(enters(&snap, site).len(), calls, "one {} span per call", site.name());
        assert_eq!(exits(&snap, site), calls, "every {} span closed", site.name());
        let h = snap.histograms.iter().find(|h| h.name == hist).unwrap();
        assert_eq!(h.count, calls as u64, "one {hist} sample per call");
    }
    assert_eq!(snap.dropped, 0, "the window's events fit the ring");

    // the digest and both exporters agree with the raw events
    let report = telemetry::report_from(&snap);
    let serial = report.spans.iter().find(|s| s.site == "engine.solve.serial").unwrap();
    assert_eq!(serial.count, SOLVES as u64);
    let trace = telemetry::chrome_trace_json(&snap);
    assert!(trace.contains("\"engine.solve.panel\"") && trace.contains("\"ph\":\"B\""));
    let prom = telemetry::prometheus_text(&snap);
    assert!(prom.contains("sptrsv_solve_serial_ns_count"));
    assert!(prom.contains("sptrsv_site_events_total{site=\"engine.solve.panel\"}"));
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

    let bs = vec![b.clone(), verify::rhs_for(&m, 12).1];
    let (mut dark_outs, mut traced_outs) = (vec![Vec::new(); 2], vec![Vec::new(); 2]);
    engine.solve_panel_into(&bs, &mut dark_outs, &mut ws).unwrap();
    telemetry::set_enabled(true);
    engine.solve_panel_into(&bs, &mut traced_outs, &mut ws).unwrap();
    telemetry::set_enabled(false);
    assert_eq!(dark_outs, traced_outs, "bit-identical panel solve under tracing");

    // and the disabled path stays dark: no events, default digest
    telemetry::reset();
    engine.solve_into(&b, &mut dark, &mut ws).unwrap();
    assert_eq!(telemetry::snapshot().total_events, 0, "disarmed probes record nothing");
    assert_eq!(telemetry::report(), sptrsv::TelemetryReport::default());
}

/// A fleet tenant is one thread: its `fleet.build` span and every
/// `serve.panel` span it dispatches carry one tid, and a live value
/// refresh runs on the caller's thread, not the tenant's.
#[test]
fn a_tenant_is_one_thread_and_a_refresh_runs_on_its_caller() {
    let _g = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let m = Arc::new(corpus::deep_narrow_entry().matrix);
    let mut m2 = (*m).clone();
    for v in m2.values_mut() {
        *v *= 1.5;
    }
    let fleet = EngineFleet::new(FleetConfig::default()).unwrap();
    let fp = fleet.register(Arc::clone(&m));
    let (_, b) = verify::rhs_for(&m, 3);
    telemetry::set_enabled(true);
    telemetry::reset();
    for _ in 0..3 {
        fleet.submit(fp, &b).unwrap().wait().unwrap();
    }
    fleet.refresh_tenant(fp, Arc::new(m2)).unwrap();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    let build = enters(&snap, Site::FleetBuild);
    assert_eq!(build.len(), 1, "one admission, one fleet.build span");
    let tenant = build[0].tid;
    let panels = enters(&snap, Site::ServePanel);
    assert_eq!(panels.len(), 3, "one panel per lone request");
    assert!(panels.iter().all(|e| e.tid == tenant), "the tenant's thread dispatches its panels");
    let refresh = enters(&snap, Site::ValueRefresh);
    assert_eq!(refresh.len(), 1);
    assert_eq!(refresh[0].tid, telemetry::current_tid(), "a refresh runs on its caller");
    assert_ne!(tenant, telemetry::current_tid());
}
