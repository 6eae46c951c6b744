//! # perfbench — the layered benchmark of the mgpu-sptrsv workspace
//!
//! Four seeded workloads drive only public functions of `sparsemat` /
//! `sptrsv`, check every output against an oracle, and report
//!
//! * **end-to-end metrics** from an untraced run — what a user of the
//!   solver, the Krylov driver or the serving fleet would see; and
//! * **per-layer metrics** from a separate traced run, in which the
//!   harness records spans around each call into a layer and runs the
//!   per-layer decompositions (`kernel.*`, `schedule.*`, `pool.*`,
//!   `engine.*`, `sim.*`, `krylov.*`, `serve.*`, `fleet.*`).
//!
//! `BENCHMARK.json` at the repository root declares the same surface
//! (see [`metrics`]); `README.md` in this directory documents every
//! workload and metric and which end-to-end metric each layer metric
//! should move.

#![warn(missing_docs)]

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod machine;
pub mod metrics;
pub mod report;
pub mod timer;
pub mod trace;
pub mod workloads;

use metrics::Metrics;
use std::sync::OnceLock;
use std::time::Duration;
use trace::Tracer;

/// Groups of set-ups timed per run (see [`setup_seconds`]).
pub const SETUP_GROUPS: usize = 3;
/// Set-ups per group.
pub const SETUP_PER_GROUP: usize = 3;

/// Operations attempted and failed. An operation fails when the
/// program returns an error, refuses it, or returns bits that differ
/// from the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
}

impl Check {
    /// Count one checked operation.
    pub fn ok(&mut self, good: bool) {
        self.attempted += 1;
        self.failed += u64::from(!good);
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics of the run.
    pub metrics: Metrics,
    /// The correctness tally of the run.
    pub check: Check,
}

impl Outcome {
    /// Record the traced run's cost: the primary operation's median
    /// with the harness tracer off and on, and their difference.
    pub fn set_trace_overhead(&mut self, untraced_ms: f64, traced_ms: f64) {
        self.metrics.set("trace.op_ms_p50_untraced", untraced_ms);
        self.metrics.set("trace.op_ms_p50_traced", traced_ms);
        if untraced_ms > 0.0 {
            self.metrics.set("trace.overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0);
        }
    }
}

/// `setup_s` of one run: the median of [`SETUP_GROUPS`] best-of-
/// [`SETUP_PER_GROUP`] set-ups. Set-up is deterministic work, and on a
/// shared host interference only ever adds time: single set-ups flip
/// between a clean and a disturbed mode (100 vs 140 ms for the heavy
/// engine), which a plain median of nine follows from run to run
/// (102–137 ms over six runs) and this estimate does not (100–106 ms).
pub fn setup_seconds(mut f: impl FnMut() -> f64) -> f64 {
    let best_of = |f: &mut dyn FnMut() -> f64| {
        (0..SETUP_PER_GROUP).map(|_| f()).fold(f64::INFINITY, f64::min)
    };
    timer::Summary::new((0..SETUP_GROUPS).map(|_| best_of(&mut f)).collect()).median()
}

/// One finished run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Metrics and correctness tally.
    pub outcome: Outcome,
    /// The traced run's spans as a chrome://tracing document.
    pub chrome_trace: Option<json::Json>,
}

impl RunResult {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.outcome.check.failed == 0
    }

    /// The metric table this run reports: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one.
    pub fn defs(&self) -> &'static [metrics::MetricDef] {
        if self.traced {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        }
    }
}

/// Run `workload` once: generate its inputs from `seed`, measure for
/// about `seconds`, check every output.
///
/// # Errors
/// An unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let Some(&(name, _)) = metrics::WORKLOADS.iter().find(|(n, _)| *n == workload) else {
        let known: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown workload {workload:?}; known: {}", known.join(", ")));
    };
    let tracer = Tracer::new(traced);
    // once per process, before its first traced workload: after a
    // fleet run the scheduler keeps this process's threads on one core
    // for seconds (see the README), which says nothing about the machine
    static CAPACITY: OnceLock<f64> = OnceLock::new();
    let capacity = traced.then(|| {
        let window = Duration::from_secs_f64((seconds * 0.01).clamp(0.02, 0.2));
        *CAPACITY.get_or_init(|| machine::parallel_capacity(window))
    });
    let mut outcome = match name {
        "mixed_direct" => {
            let inp = workloads::direct::prepare(seed);
            if traced {
                workloads::direct::per_layer(&inp, seconds, &tracer)
            } else {
                workloads::direct::end_to_end(&inp, seconds)
            }
        }
        "pcg_grid" => {
            let inp = workloads::pcg::prepare(seed);
            if traced {
                workloads::pcg::per_layer(&inp, seconds, &tracer)
            } else {
                workloads::pcg::end_to_end(&inp, seconds)
            }
        }
        _ => {
            let load = workloads::fleet::Load::of(name);
            let inp = workloads::fleet::prepare(seed);
            if traced {
                workloads::fleet::per_layer(&inp, load, seed, seconds, &tracer)
            } else {
                workloads::fleet::end_to_end(&inp, load, seed, seconds)
            }
        }
    };
    if let Some(capacity) = capacity {
        outcome.metrics.set("machine.nproc", machine::nproc() as f64);
        outcome.metrics.set("machine.parallel_capacity", capacity);
        outcome.metrics.set("trace.spans", tracer.span_count() as f64);
    }
    Ok(RunResult {
        workload: name,
        seed,
        seconds,
        traced,
        outcome,
        chrome_trace: traced.then(|| tracer.chrome_trace()),
    })
}
