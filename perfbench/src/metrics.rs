//! The benchmark's declared surface: workloads, end-to-end metrics
//! (with their regression bounds) and per-layer metrics. The tables
//! here are the source `BENCHMARK.json` is written from; the smoke
//! test checks the two stay equal.

use crate::timer::Summary;
use std::collections::BTreeMap;

/// Definition of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: Option<f64>,
    /// A count (or simulated time) that must repeat exactly between
    /// runs of one commit on one machine with one seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact: false }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: true }
}

/// The four workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "mixed_direct",
        "100k-row/200-level factor, one caller: single solves, 64-RHS batches, refresh+solve; \
         exec+schedule+pool do the work, serve/fleet/krylov are bypassed",
    ),
    (
        "pcg_grid",
        "ILU0-preconditioned CG on a 192x192 grid: the same kernel replayed in natural order, \
         serially, cache-resident; pool/schedule changes predict no change here",
    ),
    (
        "fleet_steady",
        "open loop, 50 rps heavy + 250 rps light tenants at low utilisation: latency is \
         routing + queue wait + wake-ups + one solve; light is almost pure serve/fleet overhead",
    ),
    (
        "fleet_loaded",
        "same fleet saturated: 8 closed-loop heavy callers keep a full panel in flight, + 300 rps \
         light + a value refresh per second; panels fill, so coalescing and the panel kernel do \
         the work",
    ),
];

/// End-to-end metrics: every workload reports every one of them.
///
/// `op` is the workload's primary operation and `alt` its secondary
/// one (see the README's workload table): a single warm solve and a
/// refresh+solve on `mixed_direct`, a PCG solve direct and through a
/// `ServedPreconditioner` on `pcg_grid`, a heavy-tenant and a
/// light-tenant request on the fleet workloads.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("op_ms_p50", "ms", "lower", 0.25),
    e2e("op_ms_p90", "ms", "lower", 0.25),
    e2e("alt_ms_p50", "ms", "lower", 0.25),
    e2e("mrows_per_s", "Mrows/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of the traced run: every workload reports every
/// one of them; a layer the workload bypasses reports 0.
pub const PER_LAYER: [MetricDef; 82] = [
    // machine and tracing
    layer("machine.nproc", "count", "higher"),
    layer("machine.parallel_capacity", "ratio", "higher"),
    layer("trace.op_ms_p50_untraced", "ms", "lower"),
    layer("trace.op_ms_p50_traced", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("telemetry.armed_overhead_pct", "%", "lower"),
    // kernel: sptrsv::exec replay on the workload's primary factor
    layer("kernel.serial_ms", "ms", "lower"),
    layer("kernel.serial_ns_per_nnz", "ns", "lower"),
    layer("kernel.natural_ns_per_nnz", "ns", "lower"),
    layer("kernel.panel_ns_per_nnz_rhs", "ns", "lower"),
    count("kernel.flops_per_solve", "count", "lower"),
    count("kernel.bytes_per_solve_computed", "B", "lower"),
    layer("kernel.serial_gbps_computed", "GB/s", "higher"),
    layer("kernel.panel_gbps_computed", "GB/s", "higher"),
    layer("kernel.triad_gbps_ws", "GB/s", "higher"),
    layer("kernel.triad_gbps_64m", "GB/s", "higher"),
    layer("kernel.roofline_share", "share", "higher"),
    // schedule: sptrsv::schedule on the primary factor
    count("schedule.levels", "count", "lower"),
    count("schedule.chains", "count", "lower"),
    count("schedule.shards", "count", "lower"),
    count("schedule.fused_fraction", "share", "higher"),
    count("schedule.barriers_per_solve", "count", "lower"),
    count("schedule.auto_workers", "count", "higher"),
    layer("schedule.sharded_w1_ms", "ms", "lower"),
    layer("schedule.sharded_w2_ms", "ms", "lower"),
    layer("schedule.auto_ms", "ms", "lower"),
    layer("schedule.scaling_efficiency", "share", "higher"),
    layer("schedule.barrier_share", "share", "lower"),
    layer("schedule.auto_over_best", "ratio", "lower"),
    // pool: private module, measured indirectly
    layer("pool.region_roundtrip_us", "us", "lower"),
    layer("pool.barrier_us", "us", "lower"),
    // engine build and refresh
    layer("engine.build_ms", "ms", "lower"),
    layer("sparsemat.levels_ms", "ms", "lower"),
    layer("exec.analysis_build_ms", "ms", "lower"),
    layer("schedule.build_ms", "ms", "lower"),
    layer("sim.calibration_ms", "ms", "lower"),
    count("engine.footprint_bytes", "B", "lower"),
    layer("engine.refresh_ms", "ms", "lower"),
    layer("engine.verify_ratio", "ratio", "lower"),
    layer("engine.alloc_solve_ratio", "ratio", "lower"),
    // simulator: simulated time repeats exactly
    count("sim.unified_ns", "ns", "lower"),
    count("sim.zerocopy_ns", "ns", "lower"),
    count("sim.zerocopy_over_um", "ratio", "lower"),
    count("sim.events", "count", "lower"),
    layer("sim.host_events_per_s", "1/s", "higher"),
    // krylov (pcg_grid)
    count("krylov.iterations", "count", "lower"),
    count("krylov.final_rel_residual", "ratio", "lower"),
    layer("krylov.pcg_ms_mean", "ms", "lower"),
    layer("krylov.apply_us", "us", "lower"),
    layer("krylov.spmv_us", "us", "lower"),
    layer("krylov.apply_share", "share", "lower"),
    layer("krylov.self_share", "share", "lower"),
    layer("krylov.closure_share", "share", "higher"),
    layer("krylov.served_pcg_ms", "ms", "lower"),
    // serve (fleet workloads): the arrival schedule replayed on bare services
    layer("serve.heavy_latency_ms_p50", "ms", "lower"),
    layer("serve.light_latency_ms_p50", "ms", "lower"),
    layer("serve.queue_wait_ms_mean", "ms", "lower"),
    layer("serve.panel_solve_ms_mean", "ms", "lower"),
    layer("serve.mean_fill", "ratio", "higher"),
    layer("serve.panels", "count", "lower"),
    layer("serve.flush_full", "count", "higher"),
    layer("serve.flush_linger", "count", "lower"),
    layer("serve.overhead_ms", "ms", "lower"),
    layer("serve.closed_loop_rps", "1/s", "higher"),
    // fleet (fleet workloads)
    layer("fleet.route_overhead_ms", "ms", "lower"),
    layer("fleet.submit_call_us", "us", "lower"),
    layer("fleet.cold_first_submit_ms", "ms", "lower"),
    layer("fleet.refresh_ms_p50", "ms", "lower"),
    layer("fleet.heavy_latency_ms_mean", "ms", "lower"),
    layer("fleet.heavy_latency_ms_p95", "ms", "lower"),
    layer("fleet.light_latency_ms_p95", "ms", "lower"),
    layer("fleet.heavy_latency_ms_p99", "ms", "lower"),
    layer("fleet.light_latency_ms_p99", "ms", "lower"),
    layer("fleet.within_limit_share", "share", "higher"),
    layer("fleet.latency_closure_share", "share", "higher"),
    layer("fleet.cache_bytes_high_water", "B", "lower"),
    layer("fleet.submitted", "count", "higher"),
    layer("fleet.served", "count", "higher"),
    layer("fleet.failed", "count", "lower"),
    layer("fleet.refreshes", "count", "higher"),
    layer("fleet.gen_lateness_ms_max", "ms", "lower"),
];

/// Look a workload's reason up by name.
pub fn workload_why(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, why)| *why)
}

/// Values (and, where a metric is a timing, sample summaries)
/// collected by one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    summaries: Vec<(&'static str, Summary)>,
}

impl Metrics {
    /// Set metric `name`. Panics on an undeclared name: a metric that
    /// is not in the tables above cannot be in `BENCHMARK.json` either.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Keep the sample summary a timing was derived from, for the
    /// report (`label` is free text, not a metric name).
    pub fn keep_summary(&mut self, label: &'static str, summary: Summary) {
        self.summaries.push((label, summary));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The kept sample summaries, in insertion order.
    pub fn summaries(&self) -> &[(&'static str, Summary)] {
        &self.summaries
    }

    /// Every metric of `defs` in declared order; an unset one reads 0
    /// (the layer was bypassed on this workload).
    pub fn in_order<'a>(
        &'a self,
        defs: &'a [MetricDef],
    ) -> impl Iterator<Item = (&'a MetricDef, f64)> + 'a {
        defs.iter().map(|d| (d, self.get(d.name).unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(WORKLOADS.iter().all(|(n, why)| !n.is_empty() && why.len() <= 200));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metric_is_rejected() {
        Metrics::default().set("made.up", 1.0);
    }

    #[test]
    fn unset_layer_metric_reads_zero() {
        let mut m = Metrics::default();
        m.set("machine.nproc", 2.0);
        let got: Vec<f64> = m.in_order(&PER_LAYER[..2]).map(|(_, v)| v).collect();
        assert_eq!(got, vec![2.0, 0.0]);
    }
}
