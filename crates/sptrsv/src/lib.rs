//! # sptrsv — sparse triangular solvers for multi-GPU systems
//!
//! The paper's primary contribution, reproduced in full:
//!
//! * [`mod@reference`] — serial forward/backward substitution
//!   (Algorithm 1), the ground truth every other solver is verified
//!   against.
//! * [`levelset`] — the level-set solver in the style of cuSPARSE
//!   `csrsv2()` (Naumov \[5\]), the paper's single-GPU baseline for the
//!   Fig. 10 scalability study.
//! * [`exec`] — the synchronization-free dataflow executor
//!   (lock-wait / solve-update, Liu et al. \[2\]) with three
//!   communication backends:
//!   - **SingleGpu** — everything device-local;
//!   - **Unified** — Algorithm 2: system-wide atomics on CUDA Unified
//!     Memory, with all the page-thrashing that §III characterizes;
//!   - **Shmem** — Algorithm 3: the zero-copy NVSHMEM design with
//!     producer-local heap updates, read-only inter-GPU gets, warp
//!     gather + shuffle reduction, and the `r.in_degree` poll-caching
//!     optimization.
//! * [`plan`] — data distribution: blocked (the baseline layout whose
//!   unidirectional waiting §V criticizes) and the malleable
//!   round-robin task pool (§V).
//! * [`schedule`] — the warm-path **Schedule IR**: one
//!   [`Schedule`] built at engine-build time holding the canonical
//!   level-major order the factor is relabelled into, and the
//!   [`ScheduleStats`] of its levels and fused chains that every
//!   report carries.
//! * [`solver`] — the high-level API tying a matrix, a machine
//!   configuration and a solver variant into a verified
//!   [`report::SolveReport`].
//! * [`krylov`] — the preconditioned Krylov subsystem: a
//!   [`PreconditionerEngine`] pairing a forward-`L` and backward-`U`
//!   engine over one shared worker pool (zero-allocation warm
//!   [`PreconditionerEngine::apply_into`], fused-panel
//!   [`PreconditionerEngine::apply_batch_into`]), plus [`pcg`] /
//!   [`bicgstab`] drivers and an allocation-free [`SpMv`] kernel —
//!   the paper's §I workload (SpTRSV inside every iteration of a
//!   preconditioned iterative solver) running end to end.
//! * [`engine`] — the build-once/solve-many [`SolverEngine`]: one
//!   structure-only analysis phase (level sets, schedule, the factor
//!   relabelled into a shared [`exec::Layout`]), a calibration
//!   simulation run lazily on the first call that reads it, then
//!   arbitrarily many warm solves that replay only the numeric
//!   substitution — bit-identical to the one-shot path, at a fraction
//!   of the wall-clock. This is the
//!   §II-B amortization argument surfaced as API, and the shape the
//!   paper's preconditioned-iterative-solver workload needs.
//!
//!   Warm solves come in **three tiers** (see the [`engine`] docs):
//!   single solves ([`SolverEngine::solve`], or the zero-allocation
//!   [`SolverEngine::solve_into`] with a reusable [`SolveWorkspace`]),
//!   one serial sweep per right-hand side; the **fused multi-RHS
//!   panel**
//!   ([`SolverEngine::solve_panel_into`], which streams the factor
//!   once per [`exec::PANEL_K`]-wide block of right-hand sides instead
//!   of once per RHS — the big win on this memory-bandwidth-bound
//!   kernel), and the **pooled batch**
//!   ([`SolverEngine::solve_batch_into`]) that runs fused panels on a
//!   persistent worker pool. All tiers sweep one row-gather kernel
//!   over the factor relabelled into one order
//!   ([`exec::NumericFactor`]), so every tier is bit-identical per
//!   RHS — whatever the worker count of a batch.
//! * [`serve`] — the async batched serving front-end: a
//!   [`SolverService`] accepts right-hand sides from any number of
//!   client threads (`submit(b) -> Ticket`), coalesces them into
//!   fused [`exec::PANEL_K`]-lane panels under a deadline-aware flush
//!   policy, applies admission control and backpressure (bounded
//!   queue in requests *and* bytes, typed
//!   [`ServeError::QueueFull`] / [`ServeError::ShuttingDown`] instead
//!   of blocking), and reports per-service statistics. Results are
//!   bit-identical to serial [`SolverEngine::solve`] for every
//!   coalescing interleaving, and steady-state dispatch allocates
//!   nothing — the "heavy traffic" path of the north star. The
//!   front-end is self-healing: [`SolverService::run_supervised`]
//!   restarts a panicked dispatcher with seeded exponential backoff, a
//!   circuit breaker degrades repeated panel failures to the
//!   bit-identical per-request serial path, and non-finite inputs are
//!   contained per ticket (admission scan + opt-in output scan).
//! * [`fleet`] — the fault-isolated multi-tenant serving tier: an
//!   [`EngineFleet`] routes `(FactorFingerprint, rhs)` requests to
//!   per-tenant bulkheaded [`SolverService`]s over a byte-bounded LRU
//!   factor cache, with a quarantining build pool (bounded retried
//!   builds under `catch_unwind` + deadline, typed
//!   [`fleet::FleetError::Quarantined`] cooldowns) and hard per-tenant
//!   admission budgets — one misbehaving factor or flooding client
//!   cannot touch any other tenant's latency or results.
//! * [`fault`] — the deterministic, seed-driven fault-injection plane
//!   behind the chaos suite: a [`fault::FaultPlan`] schedules worker
//!   spawn failures, task/dispatcher panics, admission shedding and
//!   RHS corruption from one `u64` seed (probes compile to constant
//!   `false` without the `fault-inject` feature).
//! * [`telemetry`] — the unified observability plane: per-thread
//!   lock-free event rings (spans, instants, counter deltas on one
//!   monotonic clock), a static metrics registry (counters, gauges,
//!   p50/p95/p99 latency histograms), and exporters for
//!   chrome://tracing JSON timelines and Prometheus text exposition.
//!
//! Every solve computes real `f64` numerics while the discrete-event
//! machine model advances virtual time, so results are simultaneously
//! *numerically checked* and *performance-profiled*.
//!
//! ## Observability
//!
//! Arm [`telemetry::set_enabled`] and every layer reports into one
//! span/metric namespace (disabled, each probe is a single relaxed
//! atomic load, and instrumented paths stay bit-identical and
//! allocation-free — proven in `tests/alloc_free.rs`):
//!
//! | layer | spans | metrics |
//! |---|---|---|
//! | engine build | `engine.build.{analyze,schedule}`; the lazy calibration adds `engine.build.{plan,analyze,calibrate}` | `engine_build_ns` |
//! | warm tiers | `engine.solve.{serial,panel,batch}` | `solve_*_ns` histograms |
//! | value refresh | `engine.refresh.values` | `value_refresh_ns` |
//! | serving | `serve.admit`, `serve.panel` spans; `serve.flush`, `serve.ticket` instants | `serve_queue_wait_ns`, `serve_solve_ns`, `serve_queue_depth` |
//! | fleet | `fleet.build`, `fleet.refresh` spans; `fleet.{quarantine,evict}` instants | `fleet_tenants_live`, `fleet_cache_bytes` |
//!
//! [`telemetry::snapshot`] captures everything on demand;
//! [`telemetry::chrome_trace_json`] / [`telemetry::prometheus_text`]
//! export it, and the compact [`TelemetryReport`] is embedded by
//! [`SolveReport`], [`ServiceReport`], and [`FleetReport`].
//!
//! ## One-shot vs engine
//!
//! [`solve`] and [`solve_multi_rhs`] are thin wrappers that build a
//! [`SolverEngine`] and immediately use it. Hold the engine yourself
//! whenever the same factor is solved more than once:
//!
//! ```
//! use mgpu_sim::MachineConfig;
//! use sptrsv::{SolveOptions, SolverEngine};
//!
//! let l = sparsemat::gen::banded_lower(512, 8, 3.0, 1);
//! let engine = SolverEngine::build(
//!     &l, MachineConfig::dgx1(2), &SolveOptions::default()).unwrap();
//! for seed in 0..3 {
//!     let (_, b) = sptrsv::verify::rhs_for(&l, seed);
//!     engine.solve(&b).unwrap(); // zero re-analysis
//! }
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // index loops mirror the paper's pseudocode

pub mod cpu;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod fleet;
pub mod krylov;
pub mod levelset;
pub mod plan;
mod pool;
pub mod reference;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod solver;
pub mod telemetry;
pub mod verify;

pub use engine::{EngineResources, RefreshReport, SolveWorkspace, SolverEngine};
pub use fault::{FaultPlan, FaultSite};
pub use fleet::{EngineFleet, FleetConfig, FleetError, FleetReport, FleetTicket, TenantHealth};
pub use krylov::{
    bicgstab, pcg, ApplyWorkspace, KrylovOptions, KrylovReport, Precondition, PreconditionerEngine,
    SpMv,
};
pub use plan::{ExecutionPlan, Partition};
pub use report::{SolveReport, Timings};
pub use schedule::{Schedule, ScheduleStats, ScheduleTuning};
pub use serve::{
    serve_preconditioner, serve_solver, RetryPolicy, ServeError, ServedPreconditioner,
    ServiceConfig, ServiceEngine, ServiceHealth, ServiceReport, SolverService, Ticket,
};
pub use solver::{solve, solve_multi_rhs, MultiRhsReport, SolveError, SolveOptions, SolverKind};
pub use telemetry::{SpanSummary, TelemetryReport};

/// Communication backend for the synchronization-free executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One GPU, no inter-GPU communication (Liu et al. \[2\]).
    SingleGpu,
    /// Algorithm 2: intermediate arrays in CUDA Unified Memory,
    /// system-wide atomics, page migration on contention.
    Unified,
    /// Algorithm 3: NVSHMEM symmetric heap, producer-local updates,
    /// read-only remote gets. `poll_caching` enables the r.in_degree
    /// optimization that skips already-satisfied peers in the
    /// lock-wait loop.
    Shmem {
        /// Skip polling peers whose partial in-degree already hit zero.
        poll_caching: bool,
    },
    /// The naive NVSHMEM design §IV-A rejects: intermediate arrays
    /// *distributed* (owner-held) on the symmetric heap, every remote
    /// update a Get-Update-Put round trip with an `nvshmem_fence` per
    /// operation and a `quiet` before warp retirement. Dependency
    /// detection is a cheap local poll (the owner holds its own
    /// entries) — but publishing serializes wire round trips on the
    /// producing warp, which is exactly why the paper abandons it.
    ShmemGup,
}

impl Backend {
    /// Short label used in reports and benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Backend::SingleGpu => "single",
            Backend::Unified => "unified",
            Backend::Shmem { poll_caching: true } => "shmem",
            Backend::Shmem { poll_caching: false } => "shmem-nocache",
            Backend::ShmemGup => "shmem-gup",
        }
    }
}
