//! Async batched serving front-end: deadline-aware right-hand-side
//! coalescing over the warm engines.
//!
//! The paper's premise is that analysis is paid once and the solve
//! phase replays thousands of times; the engine tiers (PR 1–4) made
//! the replay cheap, and the fused panel kernels made it ~K× cheaper
//! per RHS when K right-hand sides run together. What was missing is
//! the layer that *finds* those K right-hand sides: real serving
//! traffic arrives one request at a time, from many client threads,
//! each wanting its own answer back. [`SolverService`] is that layer —
//! a thread-based, std-only dispatcher that coalesces concurrent
//! independent requests into fused [`crate::exec::PANEL_K`]-lane
//! panels, the same amortize-the-schedule idea that makes multi-RHS
//! replay several times faster than a per-RHS loop.
//!
//! ## Queueing model
//!
//! Clients call [`SolverService::submit`] (or
//! [`SolverService::submit_with_deadline`]) from any number of
//! threads. Each accepted request is copied — on the client's thread,
//! outside the queue lock, in one pass that also carries the
//! non-finite check — into a recycled slot, appended to a FIFO queue,
//! and acknowledged with a [`Ticket`]: a future-like handle with
//! [`Ticket::wait`], [`Ticket::try_wait`] and [`Ticket::wait_timeout`]
//! that owns its share of the queue, so it borrows nothing from the
//! service. A single dispatcher thread (owned by the service, started
//! by [`SolverService::run`]) pops requests in FIFO order, groups up
//! to [`ServiceConfig::max_lanes`] of them, and runs the group through
//! the engine's fused panel kernel
//! ([`SolverEngine::panel_into_prevalidated`] — lengths were validated
//! once at admission, so dispatch never re-pays a per-lane validation
//! sweep). Results are written back into the slots and the tickets
//! are woken. A request therefore crosses exactly two thread
//! hand-offs — submitter → dispatcher, dispatcher → waiter — and the
//! multi-tenant [`crate::fleet`] adds none: it enqueues into the same
//! queue, which it creates before the engine exists.
//!
//! Because the panel kernels never mix lanes, **every result is
//! bit-identical to a serial [`SolverEngine::solve`] of the same
//! right-hand side, regardless of how requests were coalesced** — the
//! service inherits the repository's strongest invariant for free,
//! and the stress tests assert it across every interleaving they can
//! provoke.
//!
//! ## Deadline semantics
//!
//! The dispatcher flushes a partial panel when the first of these
//! fires:
//!
//! * **Full** — [`ServiceConfig::max_lanes`] requests are queued;
//! * **Linger** — the oldest queued request has waited out the
//!   linger: [`ServiceConfig::max_linger`] while waiting can pay,
//!   nothing once it has proved futile (see below);
//! * **Deadline** — some request in the next panel has a deadline `d`
//!   and `d - est` is due, where `est` is an exponential moving
//!   average of recent panel solve times (deadline *slack*: the flush
//!   happens early enough that the solve can still finish by `d`);
//! * **Hint** — a client called [`SolverService::flush`];
//! * **Shutdown** — the service is draining.
//!
//! Latency-sensitive singletons therefore flush almost immediately
//! (submit with a tight deadline), while throughput floods fill whole
//! panels; both get correct answers, and [`ServiceReport`] records
//! which trigger fired how often.
//!
//! **The linger is idle-aware.** Holding a partial panel open pays
//! only when a second request turns up while the first waits; at low
//! load every request would otherwise pay the full
//! [`ServiceConfig::max_linger`] to ride alone. The dispatcher keeps a
//! record of what lingering last bought: after a short run of `Linger`
//! flushes that each left with one lane and an empty queue behind
//! them, a partial panel on the idle dispatcher is flushed at once
//! (still counted as a linger flush, of zero wait). The moment a panel
//! leaves with two or more lanes, or a request is found queued when a
//! panel completes, the full `max_linger` is armed again. `max_linger`
//! stays the upper bound and the only knob: `Duration::ZERO` still
//! means "never wait", and a very long linger still means "hold until
//! full, hinted or due" — a wait that never expires never produces the
//! evidence that would shorten it. Hint, deadline, full and shutdown
//! flushes say nothing about what waiting would have bought and leave
//! the record alone.
//!
//! ## Backpressure contract
//!
//! The queue is bounded in **requests** and **bytes**
//! ([`ServiceConfig::max_queue_requests`] /
//! [`ServiceConfig::max_queue_bytes`]). `submit` never blocks: a full
//! queue returns [`ServeError::QueueFull`] (with the observed depth)
//! and a stopping service returns [`ServeError::ShuttingDown`], both
//! typed — the caller decides whether to retry, shed, or escalate.
//! Queue-depth and byte high-water marks land in the final
//! [`ServiceReport`].
//!
//! ## Shutdown
//!
//! [`SolverService::run`] drives the whole lifecycle: it starts the
//! dispatcher, hands the caller a `&SolverService` to share with any
//! client threads (the service is `Sync`; spawn clients with
//! `std::thread::scope` and they may all submit concurrently), and on
//! return from the closure initiates shutdown: further submits are
//! rejected, queued work is **drained** (solved and completed) by
//! default or rejected with [`ServeError::ShuttingDown`] when
//! [`ServiceConfig::drain_on_shutdown`] is false, and the dispatcher
//! is joined before `run` returns the closure's result plus the final
//! [`ServiceReport`]. The scoped shape is what lets the service stay
//! entirely safe Rust: the dispatcher borrows the engine, and the
//! borrow provably outlives it. Tickets borrow nothing — a ticket
//! still held after `run` returns resolves (its request was drained or
//! rejected) and recycles into a queue nobody serves any more.
//!
//! ## Zero allocation in steady state
//!
//! Slots (request/result buffers + completion state) are recycled
//! through a free list, panel group buffers are preallocated at
//! dispatcher start, and the dispatch path runs the engines'
//! allocation-free panel kernels — so once the service has warmed up,
//! a submit→dispatch→wait cycle performs **zero** heap allocation
//! (proved by the counting-allocator test in
//! `crates/sptrsv/tests/alloc_free.rs`). Groups wider than
//! `2 × PANEL_K` lanes (a non-default [`ServiceConfig::max_lanes`])
//! dispatch through the pooled batch tier instead, which allocates
//! its chunk tasks per dispatch — documented trade, not default.
//!
//! ## Value-refresh lifecycle
//!
//! [`SolverService::refresh_solver`] (or
//! [`SolverService::refresh_preconditioner`] for a
//! preconditioner-backed service) swaps new numeric values into the
//! warm engine **while traffic is flowing** — no re-analysis, no
//! service restart, no queue drain, no pause. The engine publishes
//! each value epoch as an immutable snapshot: the dispatcher pins the
//! current one when a panel starts, after popping its group, and a
//! refresh gathers the new values beside it and swaps the snapshot
//! without waiting for the panel in flight. Every ticket therefore
//! resolves against **exactly one value epoch** (old or new, never a
//! mix), and a ticket submitted after the refresh returned sees the
//! new one. Validation — structure identity plus the
//! factor audit — happens before anything is published, so a rejected refresh
//! (structure drift → [`SolveError::StructureMismatch`], a non-finite
//! or zero pivot → the audit's typed error) leaves the engine serving
//! the old values untouched; an injected mid-refresh panic
//! ([`crate::fault::FaultSite::ValueRefresh`]) surfaces to the
//! refresher as a typed [`ServeError::Retryable`] with the old epoch
//! still live and bit-identical. [`ServiceReport::value_refreshes`]
//! and [`ServiceReport::refresh_failures`] count both outcomes.
//!
//! ## Failure modes and containment
//!
//! Every fault the [`crate::fault`] plane can inject (and the real
//! failure it stands in for) has a designed containment boundary, a
//! typed client-visible outcome, and a counter that proves it fired —
//! the chaos suite (`tests/chaos.rs`) asserts all three columns for
//! 64 seeded plans:
//!
//! | Fault site ([`crate::fault::FaultSite`]) | Containment boundary | Client sees | Counter | Telemetry signal |
//! |---|---|---|---|---|
//! | `WorkerSpawn` | pool `ensure_threads` under-provisions; a pooled batch narrows, its helping submitter running the chunks no worker takes (bit-identical) | nothing — correct results, less parallelism | [`ServiceReport::spawn_shortfalls`] | fewer threads carry `engine.solve.panel` spans under `engine.solve.batch` |
//! | `WorkerTaskPanic` | worker-loop `catch_unwind`; batch tier converts to an error for that panel | [`ServeError::Solve`] / [`ServeError::DispatcherPanicked`] on the panel | [`ServiceReport::failed`], breaker counters | `serve.panel` span present, `serve_solve_ns` sample still recorded |
//! | `DispatcherPanic` | supervisor in `dispatcher_loop`: in-flight panel failed `Retryable`, dispatcher restarted with backoff ([`SolverService::run_supervised`]) | [`ServeError::Retryable`]; resubmit succeeds | [`ServiceReport::dispatcher_restarts`] | gap in `serve.panel` spans across the restart |
//! | `PanelSolve` (kernel panic) | per-panel `catch_unwind` in `run_group`; [`BREAKER_TRIP_PANELS`] consecutive failures open the circuit breaker → per-request serial solves | [`ServeError::DispatcherPanicked`] on failed panels, then plain results (degraded, bit-identical) | [`ServiceReport::breaker_trips`], [`ServiceReport::degraded_solves`] | `engine.solve.serial` spans inside `serve.panel` while the breaker is open |
//! | `AdmissionAlloc` | admission control sheds exactly like a full queue | [`ServeError::QueueFull`]; [`SolverService::submit_with_retry`] absorbs it | [`ServiceReport::admission_shed`] | `serve.admit` span with no matching `serve.ticket` instant |
//! | `RhsCorruptNonFinite` | post-admission corruption; the output scan ([`ServiceConfig::scan_outputs`]) quarantines the lane and re-solves its panel-mates | [`SolveError::NonFinite`] on the one poisoned request; mates get bit-identical results | [`ServiceReport::poisoned_lanes`], [`ServiceReport::panel_retries`] | extra `serve.panel` span for the retry |
//! | `ValueRefresh` | probe fires before the first mutation; `catch_unwind` in the refresh entry points — the old value epoch keeps serving | [`ServeError::Retryable`] to the refresher only; in-flight tickets unaffected | [`ServiceReport::refresh_failures`] | `engine.refresh.values` span with no `value_refresh_ns` sample |
//!
//! Finite-but-wrong inputs are cheaper to stop earlier: submits scan
//! the right-hand side at admission (typed [`SolveError::NonFinite`],
//! `buffer: "b"`), and [`SolverEngine::build`] audits the factor for
//! non-finite entries before any service can be built over it.
//!
//! ## Pool-worker clients
//!
//! Clients may submit (and wait) from inside the engine's own
//! [`crate::pool`] worker tasks — e.g. a batched job that wants a few
//! extra solves served on the side. The dispatcher is its own OS
//! thread and never requires the submitting thread's cooperation, and
//! when a wide group does use the worker pool it goes through
//! `scope_run`, whose helping submitter executes its own jobs instead
//! of waiting on occupied workers — so a full pool of blocked clients
//! cannot deadlock the service (regression-tested).

use crate::engine::{EngineResources, RefreshReport, SolveWorkspace, SolverEngine};
use crate::exec::PANEL_K;
use crate::fault::{self, FaultSite};
use crate::krylov::{ApplyWorkspace, Precondition, PreconditionerEngine};
use crate::solver::SolveError;
use crate::telemetry::{self, Gauge, Hist, Site, SpanGuard, TelemetryReport};
use sparsemat::factor::LuFactors;
use sparsemat::CscMatrix;
use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Everything that can go wrong between a client and the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control refused the request: the queue is at its
    /// request or byte bound. `submit` never blocks — the caller
    /// chooses between retrying, shedding load, and escalating.
    QueueFull {
        /// Requests queued at the moment of rejection.
        depth: usize,
        /// Payload bytes queued at the moment of rejection.
        bytes: usize,
    },
    /// The service is shutting down: either the submit arrived after
    /// shutdown began, or the request was still queued at shutdown and
    /// [`ServiceConfig::drain_on_shutdown`] is off.
    ShuttingDown,
    /// The service configuration cannot work (e.g. a zero queue bound,
    /// which would reject every request).
    InvalidConfig {
        /// Which knob is broken.
        what: &'static str,
    },
    /// The dispatcher could not be spawned (thread creation failed) —
    /// reported as a typed error instead of a panic.
    Spawn,
    /// The underlying engine rejected or failed the coalesced solve;
    /// every request of the affected panel receives the same error.
    Solve(SolveError),
    /// The dispatcher caught a panic from the solve kernel. The panel's
    /// requests are failed with this error and the service keeps
    /// serving — one poisoned group must not brick the front-end.
    DispatcherPanicked,
    /// The request was accepted but its dispatcher died before (or
    /// while) solving it: under
    /// [`SolverService::run_supervised`] the dispatcher restarted, or
    /// the service aborted after exhausting its restart budget. The
    /// right-hand side was never partially consumed, so resubmitting
    /// is safe — which is exactly what
    /// [`SolverService::submit_with_retry`] and
    /// [`ServedPreconditioner`] do.
    Retryable {
        /// What interrupted the request.
        reason: &'static str,
    },
    /// A client-side retry loop ([`SolverService::submit_with_retry`],
    /// [`ServedPreconditioner`], the fleet's build pool) exhausted its
    /// [`RetryPolicy`] — attempt cap or overall deadline — without the
    /// retried condition clearing. Typed so a caller can tell "the
    /// queue never drained" apart from a single shed, and bounded so a
    /// retry loop can never spin forever.
    RetryExhausted {
        /// Attempts actually made (≥ 1) before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth, bytes } => write!(
                f,
                "serving queue is full ({depth} requests / {bytes} bytes queued); retry or shed"
            ),
            ServeError::ShuttingDown => write!(f, "the serving front-end is shutting down"),
            ServeError::InvalidConfig { what } => {
                write!(f, "invalid service configuration: {what}")
            }
            ServeError::Spawn => write!(f, "could not spawn the service dispatcher thread"),
            ServeError::Solve(e) => write!(f, "serving dispatch failed: {e}"),
            ServeError::DispatcherPanicked => {
                write!(f, "the dispatcher caught a panic while solving this panel")
            }
            ServeError::Retryable { reason } => {
                write!(f, "request interrupted ({reason}); safe to resubmit")
            }
            ServeError::RetryExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for ServeError {
    fn from(e: SolveError) -> Self {
        ServeError::Solve(e)
    }
}

impl From<ServeError> for SolveError {
    /// Collapse a serving failure into the solver error vocabulary —
    /// what a [`ServedPreconditioner`] reports to its Krylov driver.
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Solve(e) => e,
            ServeError::QueueFull { .. } => SolveError::Rejected { reason: "queue full" },
            ServeError::ShuttingDown => SolveError::Rejected { reason: "shutting down" },
            ServeError::InvalidConfig { .. } => {
                SolveError::Rejected { reason: "invalid service configuration" }
            }
            ServeError::Spawn => SolveError::Rejected { reason: "dispatcher spawn failed" },
            ServeError::DispatcherPanicked => {
                SolveError::Rejected { reason: "dispatcher panicked" }
            }
            ServeError::Retryable { .. } => {
                SolveError::Rejected { reason: "request interrupted by a dispatcher restart" }
            }
            ServeError::RetryExhausted { .. } => {
                SolveError::Rejected { reason: "retry budget exhausted" }
            }
        }
    }
}

/// Tuning knobs for a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most requests coalesced into one dispatched panel. Defaults to
    /// [`PANEL_K`] — the fused kernels' native width, and the widest
    /// group that stays on the allocation-free dispatch path. `0` is
    /// clamped to 1.
    pub max_lanes: usize,
    /// Admission bound on queued (not yet dispatched) requests.
    pub max_queue_requests: usize,
    /// Admission bound on queued payload bytes (`n × 8` per request).
    pub max_queue_bytes: usize,
    /// Longest a queued request may wait for its panel to fill before
    /// the dispatcher flushes a partial one. Clamped to one hour.
    /// `Duration::ZERO` is a valid, documented setting: every flush
    /// plan is already due, so each request is dispatched immediately
    /// in whatever partial panel is queued — maximum latency priority,
    /// minimum coalescing. An upper bound, not a fixed cost: the
    /// dispatcher stops waiting while recent lingers bought no company
    /// (the idle-aware linger of the [module docs](self#deadline-semantics)).
    pub max_linger: Duration,
    /// On shutdown, solve what is still queued (`true`, default) or
    /// complete it with [`ServeError::ShuttingDown`] (`false`).
    pub drain_on_shutdown: bool,
    /// Scan every successful panel's outputs for non-finite values and
    /// fail only the poisoned lanes with [`SolveError::NonFinite`]
    /// (`buffer: "x"`), re-solving the clean lanes so they are never
    /// collateral damage. Off by default: the scan is an `O(n)` pass
    /// per lane, and a finite factor plus finite right-hand sides
    /// cannot produce non-finite outputs.
    pub scan_outputs: bool,
    /// Under [`SolverService::run_supervised`]: most dispatcher
    /// restarts before the service gives up, aborts queued work with
    /// [`ServeError::Retryable`], and re-raises the panic. Ignored by
    /// plain [`SolverService::run`], which never restarts.
    pub max_dispatcher_restarts: u32,
    /// Base delay of the supervised restart backoff; doubles per
    /// consecutive restart (with deterministic jitter, capped at
    /// 100 ms). Clamped to one second.
    pub restart_backoff: Duration,
    /// Seed for the restart backoff jitter — supervision is as
    /// reproducible as everything else in this repository.
    pub supervision_seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_lanes: PANEL_K,
            max_queue_requests: 1024,
            max_queue_bytes: 256 << 20,
            max_linger: Duration::from_micros(200),
            drain_on_shutdown: true,
            scan_outputs: false,
            max_dispatcher_restarts: 8,
            restart_backoff: Duration::from_micros(50),
            supervision_seed: 0,
        }
    }
}

impl ServiceConfig {
    /// Clamp the self-healable knobs (a zero lane count means one
    /// lane; a multi-hour linger is capped) and reject the
    /// unserviceable ones with a typed error — a zero queue bound, or
    /// a byte bound smaller than one `n`-length right-hand side, would
    /// silently reject every request forever, which is a configuration
    /// bug, not a load condition.
    fn validated(&self, n: usize) -> Result<ServiceConfig, ServeError> {
        if self.max_queue_requests == 0 {
            return Err(ServeError::InvalidConfig { what: "max_queue_requests must be ≥ 1" });
        }
        if self.max_queue_bytes == 0 {
            return Err(ServeError::InvalidConfig { what: "max_queue_bytes must be ≥ 1" });
        }
        if self.max_queue_bytes < n * mem::size_of::<f64>() {
            return Err(ServeError::InvalidConfig {
                what: "max_queue_bytes is smaller than one right-hand side — admits nothing",
            });
        }
        let mut cfg = self.clone();
        cfg.max_lanes = cfg.max_lanes.max(1);
        cfg.max_linger = cfg.max_linger.min(Duration::from_secs(3600));
        cfg.restart_backoff = cfg.restart_backoff.min(Duration::from_secs(1));
        Ok(cfg)
    }
}

/// Coarse service condition, computed on demand by
/// [`SolverService::health`] from the live counters — what an external
/// load balancer would poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceHealth {
    /// Accepting and serving normally.
    Ok,
    /// Serving, but impaired: the circuit breaker is open (panels run
    /// on the degraded per-request serial path) or the dispatcher
    /// restarted within the last few panels.
    Degraded {
        /// Why the service is degraded.
        reason: &'static str,
    },
    /// Shutdown has begun; submits are rejected while queued work
    /// drains.
    Draining,
}

/// Client-side retry schedule for [`SolverService::submit_with_retry`]
/// and [`ServedPreconditioner`]: bounded attempts with deterministic
/// seeded exponential backoff, so retry storms are impossible and every
/// test run replays the same schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Overall wall-clock deadline across ALL attempts: once this much
    /// time has elapsed since the first attempt, the loop stops
    /// retrying even with attempts left and returns
    /// [`ServeError::RetryExhausted`]. The second jaw of the vise —
    /// `max_attempts` bounds the count, this bounds the wall-clock, so
    /// a retry loop can never spin forever against a queue that never
    /// drains (however generous the attempt cap).
    pub max_elapsed: Duration,
    /// Jitter seed — same seed, same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(5),
            max_elapsed: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

/// Run `op` under `policy`: retry while the error satisfies
/// `retryable`, sleeping the deterministic jittered backoff between
/// attempts; give up with [`ServeError::RetryExhausted`] (carrying the
/// attempts actually made) once the attempt cap or the overall
/// `max_elapsed` deadline is hit. Non-retryable outcomes — success or
/// any other error — return immediately.
pub(crate) fn run_retry<T>(
    policy: &RetryPolicy,
    retryable: impl Fn(&ServeError) -> bool,
    mut op: impl FnMut() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let attempts_cap = policy.max_attempts.max(1);
    let deadline = Instant::now() + policy.max_elapsed;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match op() {
            Err(e) if retryable(&e) => {
                if attempt >= attempts_cap || Instant::now() >= deadline {
                    return Err(ServeError::RetryExhausted { attempts: attempt });
                }
                std::thread::sleep(backoff_delay(
                    policy.base_backoff,
                    policy.max_backoff,
                    policy.seed,
                    attempt,
                ));
            }
            other => return other,
        }
    }
}

/// Deterministic jittered exponential backoff: `base · 2^(attempt-1)`
/// capped at `cap`, then jittered into `[d/2, d]` by a split-mix hash
/// of `(seed, attempt)` — full determinism, no thundering herd.
pub(crate) fn backoff_delay(base: Duration, cap: Duration, seed: u64, attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    let exp = base.checked_mul(1u32 << shift).unwrap_or(cap).min(cap);
    let ns = exp.as_nanos() as u64;
    if ns == 0 {
        return Duration::ZERO;
    }
    let mut s = seed ^ (u64::from(attempt) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    let r = desim::rng::split_mix64(&mut s);
    Duration::from_nanos(ns / 2 + r % (ns / 2 + 1))
}

/// Consecutive whole-panel failures that trip the circuit breaker onto
/// the degraded per-request serial path.
pub const BREAKER_TRIP_PANELS: u32 = 3;

/// Degraded panels the breaker serves before probing the fused panel
/// path again (closing the breaker).
pub const BREAKER_COOLDOWN_PANELS: u32 = 16;

/// Panels after a supervised dispatcher restart during which
/// [`SolverService::health`] still reports `Degraded`.
pub const HEALTH_RECOVERY_PANELS: u64 = 4;

/// The warm engine a service dispatches to: a single triangular
/// [`SolverEngine`] or an L/U [`PreconditionerEngine`] pair. Both
/// expose the fused-panel batch path the dispatcher coalesces into.
#[derive(Debug, Clone, Copy)]
pub enum ServiceEngine<'e, 'm> {
    /// One triangular factor: panels run
    /// [`SolverEngine::solve_panel_into`]'s kernel along the engine's
    /// canonical warm order — results bit-identical to
    /// [`SolverEngine::solve`].
    Solver(&'e SolverEngine<'m>),
    /// An L/U pair: panels run
    /// [`PreconditionerEngine::apply_batch_into`]'s kernel over the
    /// pair's own factors — results bit-identical to
    /// [`PreconditionerEngine::apply_into`] and to the reference
    /// substitution pair, so a Krylov trajectory fed through the
    /// service is reproducible to the bit.
    Preconditioner(&'e PreconditionerEngine<'m>),
}

impl ServiceEngine<'_, '_> {
    /// System dimension requests must match.
    pub fn n(&self) -> usize {
        match self {
            ServiceEngine::Solver(e) => e.matrix().n(),
            ServiceEngine::Preconditioner(p) => p.n(),
        }
    }

    /// The shared engine resources behind this service (a
    /// preconditioner pair shares one set).
    fn resources(&self) -> &EngineResources {
        match self {
            ServiceEngine::Solver(e) => e.resources(),
            ServiceEngine::Preconditioner(p) => p.forward().resources(),
        }
    }
}

/// Where a request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Recycled / freshly initialized; not visible to the dispatcher.
    Idle,
    /// Accepted and waiting in the FIFO.
    Queued,
    /// Moved into a panel; the dispatcher owns the buffers.
    InFlight,
    /// Completed (result or error present); the ticket may collect.
    Done,
}

/// Completion state + recycled buffers of one request. Shared between
/// exactly one [`Ticket`] and the dispatcher via `Arc`.
#[derive(Debug)]
struct Slot {
    st: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug)]
struct SlotState {
    phase: Phase,
    /// Request payload; moved into the panel group for the solve and
    /// moved back afterwards so the capacity is never lost.
    rhs: Vec<f64>,
    /// Result buffer, same recycling discipline.
    out: Vec<f64>,
    /// The panel's error, if it failed; cloned into every member.
    err: Option<ServeError>,
    /// The ticket was dropped before collecting — whoever finishes
    /// with the slot last returns it to the free list.
    abandoned: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            st: Mutex::new(SlotState {
                phase: Phase::Idle,
                rhs: Vec::new(),
                out: Vec::new(),
                err: None,
                abandoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A queued request: the slot plus the scheduling metadata the
/// dispatcher reads on every wake (kept out of the slot mutex so flush
/// planning never nests slot locks under the queue lock).
#[derive(Debug)]
struct Pending {
    slot: Arc<Slot>,
    submitted_at: Instant,
    deadline: Option<Instant>,
    bytes: usize,
}

/// What made the dispatcher flush a panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    Full,
    Linger,
    Deadline,
    Hint,
    Shutdown,
}

/// Consecutive futile lingers after which the dispatcher stops
/// lingering: long enough that one quiet gap inside a burst does not
/// disarm coalescing, short enough that idle traffic stops paying
/// [`ServiceConfig::max_linger`] within a handful of requests.
const LINGER_FUTILE_RUN: u8 = 3;

/// What lingering last bought — the dispatcher's evidence for whether
/// holding a partial panel open can pay. A pure fold over the panels
/// dispatched so far (the [`crate::engine`] tier probe's shape: a few
/// observations in, one decision out), so the policy is testable
/// without a clock.
///
/// Lingering pays only when a second request turns up while the first
/// waits. A panel that lingered the full wait and still left alone,
/// with nothing queued behind it when it completed, is one piece of
/// evidence that it does not; [`LINGER_FUTILE_RUN`] of those in a row
/// and a partial panel is flushed at once. Any sign of concurrent
/// traffic — a panel of two or more lanes, or a request found queued
/// when a panel completes — re-arms the full wait immediately. `Hint`,
/// `Deadline`, `Full` and `Shutdown` flushes cut the wait short for
/// their own reasons and say nothing about what it would have bought.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LingerRecord {
    /// Consecutive `Linger` flushes of one lane with an empty queue
    /// behind them.
    futile: u8,
}

impl LingerRecord {
    /// Fold in one dispatched panel: `cause` flushed it, `fill` lanes
    /// rode it, `backlog` requests were queued when it completed.
    fn observe(self, cause: FlushCause, fill: usize, backlog: usize) -> LingerRecord {
        if fill > 1 || backlog > 0 {
            LingerRecord { futile: 0 }
        } else if cause == FlushCause::Linger {
            LingerRecord { futile: self.futile.saturating_add(1) }
        } else {
            self
        }
    }

    /// How long the next partial panel may wait for company:
    /// `max_linger` while waiting can pay, nothing once it has proved
    /// futile.
    fn linger(self, max_linger: Duration) -> Duration {
        if self.futile >= LINGER_FUTILE_RUN {
            Duration::ZERO
        } else {
            max_linger
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<Pending>,
    /// Payload bytes currently queued (admission accounting).
    bytes: usize,
    shutdown: bool,
    flush_hint: bool,
    /// Recycled slots; every steady-state submit pops one here.
    free: Vec<Arc<Slot>>,
    stats: ServiceReport,
    /// Mirror of the dispatcher's breaker state, readable by
    /// [`SolverService::health`] without touching dispatcher locals.
    breaker_open: bool,
    /// Panels completed since the last supervised dispatcher restart
    /// (or since start); drives the `Degraded → Ok` health recovery.
    panels_since_restart: u64,
}

/// What a [`ServiceQueue`]'s owner is told about the requests it
/// accepted — the fleet hangs its per-tenant accounting here, so a
/// request is counted where it completes, not where it is collected.
pub(crate) trait QueueObserver: Send + Sync + std::fmt::Debug {
    /// Fired exactly once per accepted request, on whichever path
    /// completes it (panel, restart recovery, abort, close), *before*
    /// its ticket is woken — a client that has seen its result has
    /// also seen the accounting.
    fn completed(&self, ok: bool);
    /// The dispatcher gave up for good (restart budget exhausted, or
    /// an unsupervised panic): the queue is shut and everything queued
    /// has been failed. Lets an owner blocked elsewhere tear down.
    fn aborted(&self);
}

/// The service's queue: FIFO + free list behind one mutex, the condvar
/// that wakes the dispatcher, and the admission contract (`n`, the
/// validated config). `Arc`-owned and `'static`, so it can exist
/// before the engine it will feed — the fleet creates one at tenant
/// admission and enqueues into it from client threads while the engine
/// is still building — and so a [`Ticket`] owns its way back to the
/// free list instead of borrowing the service.
#[derive(Debug)]
pub(crate) struct ServiceQueue {
    q: Mutex<QueueState>,
    dispatch_cv: Condvar,
    /// The dimension every right-hand side must have.
    n: usize,
    /// Validated ([`ServiceConfig::validated`]) at construction.
    cfg: ServiceConfig,
    observer: Option<Box<dyn QueueObserver>>,
}

impl ServiceQueue {
    /// An empty open queue for `n`-length requests under `config`
    /// (validated here, once).
    pub(crate) fn new(
        n: usize,
        config: &ServiceConfig,
        observer: Option<Box<dyn QueueObserver>>,
    ) -> Result<Arc<ServiceQueue>, ServeError> {
        Ok(Arc::new(ServiceQueue {
            q: Mutex::default(),
            dispatch_cv: Condvar::new(),
            n,
            cfg: config.validated(n)?,
            observer,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission verdict for one more `bytes`-sized request, under
    /// the queue lock; a refusal is counted before it is returned.
    fn admit(&self, q: &mut QueueState, bytes: usize) -> Result<(), ServeError> {
        if q.shutdown {
            q.stats.rejected_shutdown += 1;
            return Err(ServeError::ShuttingDown);
        }
        if q.pending.len() >= self.cfg.max_queue_requests
            || q.bytes.saturating_add(bytes) > self.cfg.max_queue_bytes
        {
            q.stats.rejected_full += 1;
            return Err(ServeError::QueueFull { depth: q.pending.len(), bytes: q.bytes });
        }
        Ok(())
    }

    /// Admit `b` and hand back its ticket — the body of every submit
    /// flavor. The `O(n)` work (one fused copy + non-finite scan) runs
    /// between two short critical sections, never under the queue
    /// lock, so concurrent submitters copy in parallel and the
    /// dispatcher is never held off by a client's memcpy.
    pub(crate) fn submit(
        self: &Arc<Self>,
        b: &[f64],
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        let _admit = SpanGuard::enter(Site::ServeAdmit);
        let n = self.n;
        if b.len() != n {
            return Err(ServeError::Solve(SolveError::DimensionMismatch {
                n,
                rhs: b.len(),
                index: None,
                buffer: "b",
            }));
        }
        let bytes = n * mem::size_of::<f64>();
        let slot = {
            let mut q = self.lock();
            self.admit(&mut q, bytes)?;
            if fault::fire(FaultSite::AdmissionAlloc) {
                // injected allocation pressure: shed exactly like a full
                // queue so clients exercise their QueueFull handling
                q.stats.rejected_full += 1;
                q.stats.admission_shed += 1;
                return Err(ServeError::QueueFull { depth: q.pending.len(), bytes: q.bytes });
            }
            q.free.pop()
        }
        .unwrap_or_else(|| Arc::new(Slot::new()));
        // admission guardrail: one NaN lane would propagate through a
        // fused panel's shared schedule replay, so it must be refused
        // before it can ride with anyone. The flag rides the copy; only
        // a refusal pays a second scan, for the first offending index.
        let mut nonfinite = false;
        {
            let mut st = slot.lock();
            st.rhs.clear();
            st.rhs.extend(b.iter().map(|&v| {
                nonfinite |= !v.is_finite();
                v
            }));
        }
        if nonfinite {
            self.lock().free.push(slot);
            let index = b.iter().position(|v| !v.is_finite()).expect("flag set by this scan");
            return Err(ServeError::Solve(SolveError::NonFinite { buffer: "b", index }));
        }
        let mut q = self.lock();
        // the queue may have filled or shut while the copy ran
        if let Err(e) = self.admit(&mut q, bytes) {
            q.free.push(slot);
            return Err(e);
        }
        {
            let mut st = slot.lock();
            if fault::fire(FaultSite::RhsCorruptNonFinite) && !st.rhs.is_empty() {
                // post-admission corruption: models a bit-flip between
                // the scan and the solve; only the output scan can
                // catch it now
                let mid = st.rhs.len() / 2;
                st.rhs[mid] = f64::NAN;
            }
            st.phase = Phase::Queued;
            st.err = None;
            st.abandoned = false;
        }
        let ticket = Ticket { slot: Some(Arc::clone(&slot)), queue: Arc::clone(self) };
        q.pending.push_back(Pending { slot, submitted_at: Instant::now(), deadline, bytes });
        q.bytes += bytes;
        q.stats.submitted += 1;
        q.stats.queue_depth_high_water = q.stats.queue_depth_high_water.max(q.pending.len());
        q.stats.queue_bytes_high_water = q.stats.queue_bytes_high_water.max(q.bytes);
        telemetry::gauge_set(Gauge::ServeQueueDepth, q.pending.len() as u64);
        drop(q);
        self.dispatch_cv.notify_one();
        Ok(ticket)
    }

    /// The one place a request becomes `Done`: tell the observer, hand
    /// back the buffers a panel borrowed (`bufs`), publish the outcome
    /// and wake the ticket. Returns whether the ticket was dropped —
    /// the caller then recycles the slot.
    fn finish(
        &self,
        slot: &Slot,
        bufs: Option<(Vec<f64>, Vec<f64>)>,
        err: Option<ServeError>,
    ) -> bool {
        if let Some(o) = &self.observer {
            o.completed(err.is_none());
        }
        let abandoned = {
            let mut s = slot.lock();
            if let Some((rhs, out)) = bufs {
                s.rhs = rhs;
                s.out = out;
            }
            s.err = err;
            s.phase = Phase::Done;
            s.abandoned
        };
        slot.cv.notify_all();
        abandoned
    }

    /// Refuse every future submit and complete everything still queued
    /// with `err`, so no ticket ever hangs on a queue nobody will
    /// serve. Idempotent.
    fn fail_pending(&self, err: &ServeError) {
        let mut q = self.lock();
        q.shutdown = true;
        while let Some(p) = q.pending.pop_front() {
            q.bytes -= p.bytes;
            match err {
                ServeError::ShuttingDown => q.stats.shutdown_rejected += 1,
                _ => q.stats.failed += 1,
            }
            if self.finish(&p.slot, None, Some(err.clone())) {
                q.free.push(p.slot);
            }
        }
    }

    /// Close a queue no dispatcher will serve (again): submits are
    /// refused with [`ServeError::ShuttingDown`] from here on and
    /// whatever is still queued resolves the same way. A no-op after a
    /// service ran to completion over the queue (its shutdown already
    /// drained it); the terminal step when none ever will — the fleet
    /// calls it on every tenant exit path.
    pub(crate) fn close(&self) {
        self.fail_pending(&ServeError::ShuttingDown);
    }

    /// See [`SolverService::health`].
    pub(crate) fn health(&self) -> ServiceHealth {
        let q = self.lock();
        if q.shutdown {
            return ServiceHealth::Draining;
        }
        if q.breaker_open {
            return ServiceHealth::Degraded {
                reason: "circuit breaker open: panels degraded to per-request serial solves",
            };
        }
        if q.stats.dispatcher_restarts > 0 && q.panels_since_restart < HEALTH_RECOVERY_PANELS {
            return ServiceHealth::Degraded { reason: "dispatcher recently restarted" };
        }
        ServiceHealth::Ok
    }

    /// The live counters, without the engine-side
    /// [`ServiceReport::spawn_shortfalls`] (a service adds its own
    /// engine's in [`SolverService::stats`]).
    pub(crate) fn stats(&self) -> ServiceReport {
        let mut s = self.lock().stats.clone();
        s.telemetry = telemetry::report();
        s
    }
}

/// Counters the service maintains while running and returns from
/// [`SolverService::run`] (snapshot any time via
/// [`SolverService::stats`]). All `*_ns` fields are wall-clock
/// nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed with a solution (includes drained ones).
    pub served: u64,
    /// Requests completed with an engine error or dispatcher panic.
    pub failed: u64,
    /// Submits rejected by admission control (queue full).
    pub rejected_full: u64,
    /// Submits rejected because shutdown had begun.
    pub rejected_shutdown: u64,
    /// Requests still queued at shutdown and completed with
    /// [`ServeError::ShuttingDown`] (only when draining is off).
    pub shutdown_rejected: u64,
    /// Requests still queued at shutdown and solved during the drain
    /// (a subset of `served`).
    pub drained: u64,
    /// Panels dispatched.
    pub panels: u64,
    /// Total lanes across all panels (`mean_fill` = this / `panels`).
    pub fill_sum: u64,
    /// Widest panel dispatched.
    pub max_fill: usize,
    /// Flushes triggered by a full panel.
    pub full_flushes: u64,
    /// Flushes triggered by the oldest request's linger expiring.
    pub linger_flushes: u64,
    /// Flushes triggered by a request's deadline slack expiring.
    pub deadline_flushes: u64,
    /// Flushes triggered by [`SolverService::flush`].
    pub hint_flushes: u64,
    /// Requests whose deadline had already passed when their panel
    /// completed.
    pub deadline_misses: u64,
    /// Most requests ever queued at once.
    pub queue_depth_high_water: usize,
    /// Most payload bytes ever queued at once.
    pub queue_bytes_high_water: usize,
    /// Sum over completed requests of (dispatch start − submit).
    pub wait_ns_total: u64,
    /// Worst single-request wait.
    pub max_wait_ns: u64,
    /// Sum over panels of the panel solve wall-clock.
    pub solve_ns_total: u64,
    /// Dispatcher panics recovered by a supervised restart
    /// ([`SolverService::run_supervised`]); the in-flight panel's
    /// requests were completed with [`ServeError::Retryable`].
    pub dispatcher_restarts: u64,
    /// Panels re-solved after the output scan excluded a poisoned
    /// lane ([`ServiceConfig::scan_outputs`]).
    pub panel_retries: u64,
    /// Lanes failed with [`SolveError::NonFinite`] by the post-solve
    /// output scan.
    pub poisoned_lanes: u64,
    /// Lanes served on the degraded per-request serial path while the
    /// circuit breaker was open — still bit-identical to a serial
    /// solve, just without panel fusion.
    pub degraded_solves: u64,
    /// Times the circuit breaker opened after
    /// [`BREAKER_TRIP_PANELS`] consecutive whole-panel failures.
    pub breaker_trips: u64,
    /// Admissible submits shed by injected allocation-pressure faults
    /// ([`crate::fault::FaultSite::AdmissionAlloc`]); a subset of
    /// `rejected_full`.
    pub admission_shed: u64,
    /// Worker-pool spawn shortfalls observed by this service's engine
    /// during the run — each one narrowed a pooled batch (same bits,
    /// fewer threads).
    pub spawn_shortfalls: u64,
    /// In-place value refreshes committed through
    /// [`SolverService::refresh_solver`] /
    /// [`SolverService::refresh_preconditioner`] while the service was
    /// live.
    pub value_refreshes: u64,
    /// Refresh attempts that did not commit — rejected up front
    /// (structure drift, non-finite or zero pivots) or interrupted by
    /// a panic before the first mutation. The old value epoch kept
    /// serving in every case.
    pub refresh_failures: u64,
    /// Span/event digest from the [`crate::telemetry`] plane, captured
    /// when this snapshot was taken. `TelemetryReport::default()`
    /// (disabled, empty) unless [`crate::telemetry::set_enabled`] was
    /// armed.
    pub telemetry: TelemetryReport,
}

impl ServiceReport {
    /// Mean lanes per dispatched panel — the coalescing win; 1.0 means
    /// the service degenerated to a per-request loop.
    pub fn mean_fill(&self) -> f64 {
        if self.panels == 0 {
            0.0
        } else {
            self.fill_sum as f64 / self.panels as f64
        }
    }

    /// Mean time a completed request spent queued before dispatch.
    pub fn mean_wait_ns(&self) -> f64 {
        let done = self.served + self.failed + self.shutdown_rejected;
        if done == 0 {
            0.0
        } else {
            self.wait_ns_total as f64 / done as f64
        }
    }

    /// Mean wall-clock of one panel solve.
    pub fn mean_panel_solve_ns(&self) -> f64 {
        if self.panels == 0 {
            0.0
        } else {
            self.solve_ns_total as f64 / self.panels as f64
        }
    }
}

/// Reusable dispatcher scratch: one workspace per engine flavor, grown
/// once, reused for every panel.
#[derive(Debug, Default)]
struct DispatchWorkspace {
    solve: SolveWorkspace,
    apply: ApplyWorkspace,
}

/// Everything a dispatcher incarnation owns. Living outside
/// `dispatch()` lets a supervised restart recover the in-flight group
/// (its `Pending`s are here, not lost in a dead stack frame) and keep
/// the warmed buffers.
#[derive(Debug)]
struct DispatchState {
    group: Vec<Pending>,
    bs: Vec<Vec<f64>>,
    outs: Vec<Vec<f64>>,
    /// Per-lane completion error for the current group; `None` = lane
    /// succeeded. Sized to the group on every dispatch.
    lane_err: Vec<Option<ServeError>>,
    ws: DispatchWorkspace,
    /// EWMA of recent panel solve wall-clock, the `est` in the
    /// deadline-slack rule; starts at zero so the first deadline
    /// submission flushes no later than its deadline.
    est_solve: Duration,
    /// Consecutive whole-panel failures; trips the breaker at
    /// [`BREAKER_TRIP_PANELS`].
    consec_panel_failures: u32,
    /// Circuit breaker: while open, panels bypass the fused kernels
    /// and run per-request serial solves (bit-identical, slower).
    breaker_open: bool,
    /// Degraded panels served since the breaker opened; closes it at
    /// [`BREAKER_COOLDOWN_PANELS`].
    degraded_panels: u32,
    /// What lingering last bought; sets the next partial panel's wait.
    linger: LingerRecord,
}

impl DispatchState {
    fn new(lanes: usize) -> DispatchState {
        DispatchState {
            group: Vec::with_capacity(lanes),
            bs: Vec::with_capacity(lanes),
            outs: Vec::with_capacity(lanes),
            lane_err: Vec::with_capacity(lanes),
            ws: DispatchWorkspace::default(),
            est_solve: Duration::ZERO,
            consec_panel_failures: 0,
            breaker_open: false,
            degraded_panels: 0,
            linger: LingerRecord::default(),
        }
    }
}

/// The serving front-end: a bounded FIFO of right-hand sides, a
/// dispatcher that coalesces them into fused panels over a warm
/// engine, and [`Ticket`]s that hand results back to the submitting
/// threads. See the [module docs](self) for the queueing model,
/// deadline semantics and backpressure contract.
///
/// Constructed only through [`SolverService::run`] (or the
/// [`serve_solver`] / [`serve_preconditioner`] conveniences), which
/// scopes the dispatcher thread to the engine's lifetime — the reason
/// this subsystem contains no `unsafe`.
#[derive(Debug)]
pub struct SolverService<'e, 'm> {
    engine: ServiceEngine<'e, 'm>,
    queue: Arc<ServiceQueue>,
    /// Engine-pool spawn shortfalls at service start; the report shows
    /// the delta accrued during this run.
    shortfall_base: u64,
}

impl<'e, 'm> SolverService<'e, 'm> {
    /// Run a service over `engine` for the duration of `body`.
    ///
    /// Starts the dispatcher, calls `body` with the service handle
    /// (share it across client threads with `std::thread::scope` —
    /// the service is `Sync`), then shuts down: queued work is
    /// drained or rejected per [`ServiceConfig::drain_on_shutdown`],
    /// the dispatcher is joined, and the closure's result is returned
    /// together with the final [`ServiceReport`]. A panic in `body`
    /// still shuts the dispatcher down cleanly before resuming the
    /// panic.
    pub fn run<R>(
        engine: ServiceEngine<'e, 'm>,
        config: &ServiceConfig,
        body: impl FnOnce(&SolverService<'e, 'm>) -> R,
    ) -> Result<(R, ServiceReport), ServeError> {
        let queue = ServiceQueue::new(engine.n(), config, None)?;
        SolverService::run_on(engine, queue, false, body)
    }

    /// [`SolverService::run`] under supervision: a dispatcher panic no
    /// longer kills the service. The supervisor completes the panicked
    /// panel's requests with [`ServeError::Retryable`], restarts the
    /// dispatcher after a seeded-exponential backoff
    /// ([`ServiceConfig::restart_backoff`] /
    /// [`ServiceConfig::supervision_seed`]), and keeps serving — up to
    /// [`ServiceConfig::max_dispatcher_restarts`] times, after which
    /// remaining queued work is failed with `Retryable` and the
    /// original panic resumes. [`ServiceReport::dispatcher_restarts`]
    /// counts the recoveries; [`SolverService::health`] reports
    /// `Degraded` for a few panels after each one.
    pub fn run_supervised<R>(
        engine: ServiceEngine<'e, 'm>,
        config: &ServiceConfig,
        body: impl FnOnce(&SolverService<'e, 'm>) -> R,
    ) -> Result<(R, ServiceReport), ServeError> {
        let queue = ServiceQueue::new(engine.n(), config, None)?;
        SolverService::run_on(engine, queue, true, body)
    }

    /// Run a service over a `queue` that already exists — and may
    /// already hold requests, which the dispatcher serves first, in
    /// submit order. How the fleet serves what clients enqueued while
    /// the engine was still building. The queue is shut when this
    /// returns; it cannot be served twice.
    pub(crate) fn run_on<R>(
        engine: ServiceEngine<'e, 'm>,
        queue: Arc<ServiceQueue>,
        supervised: bool,
        body: impl FnOnce(&SolverService<'e, 'm>) -> R,
    ) -> Result<(R, ServiceReport), ServeError> {
        if queue.n != engine.n() {
            return Err(ServeError::InvalidConfig {
                what: "the queue was sized for a different dimension than the engine's",
            });
        }
        let shortfall_base = engine.resources().spawn_shortfalls();
        let svc = SolverService { engine, queue, shortfall_base };
        std::thread::scope(|s| {
            let dispatcher = std::thread::Builder::new()
                .name("sptrsv-dispatch".into())
                .spawn_scoped(s, || svc.dispatcher_loop(supervised))
                .map_err(|_| ServeError::Spawn)?;
            let out = catch_unwind(AssertUnwindSafe(|| body(&svc)));
            svc.shutdown();
            let joined = dispatcher.join();
            let r = match out {
                Ok(r) => r,
                Err(p) => resume_unwind(p),
            };
            if let Err(p) = joined {
                resume_unwind(p);
            }
            // snapshot after the join, not from the dispatcher's exit:
            // a client may race one last (rejected) submit against the
            // dispatcher observing the drained queue, and the final
            // report must count it
            Ok((r, svc.stats()))
        })
    }

    /// The dimension every submitted right-hand side must have.
    pub fn n(&self) -> usize {
        self.queue.n
    }

    /// The engine this service dispatches to.
    pub fn engine(&self) -> ServiceEngine<'e, 'm> {
        self.engine
    }

    /// Submit a right-hand side with no deadline: it rides whatever
    /// panel it lands in, waiting at most
    /// [`ServiceConfig::max_linger`] for the panel to fill.
    ///
    /// Never blocks. Admission control answers immediately with
    /// [`ServeError::QueueFull`] / [`ServeError::ShuttingDown`]; a
    /// wrong-length `b` is a typed [`ServeError::Solve`] naming the
    /// buffer, and a `b` containing NaN/±∞ is rejected at the door
    /// with [`SolveError::NonFinite`] — one poisoned request must
    /// never reach a coalesced panel.
    #[must_use = "the Ticket is the only way to collect this request's result"]
    pub fn submit(&self, b: &[f64]) -> Result<Ticket, ServeError> {
        self.queue.submit(b, None)
    }

    /// [`SolverService::submit`] with bounded client-side retries on
    /// [`ServeError::QueueFull`]: sleeps the policy's deterministic
    /// jittered exponential backoff between attempts, giving the
    /// dispatcher time to drain. Any other outcome (success or a
    /// non-retryable error) returns immediately; exhausting the
    /// policy's attempt cap **or** its overall `max_elapsed` deadline
    /// returns [`ServeError::RetryExhausted`] with the attempts made —
    /// the loop can never spin forever against a queue that never
    /// drains.
    #[must_use = "the Ticket is the only way to collect this request's result"]
    pub fn submit_with_retry(&self, b: &[f64], policy: &RetryPolicy) -> Result<Ticket, ServeError> {
        run_retry(policy, |e| matches!(e, ServeError::QueueFull { .. }), || self.submit(b))
    }

    /// [`SolverService::submit`] with a completion deadline: the
    /// dispatcher flushes this request's panel early enough (by its
    /// running estimate of a panel solve) to finish by `deadline`
    /// instead of lingering for more lanes. The deadline is
    /// best-effort — [`ServiceReport::deadline_misses`] counts the
    /// ones that completed late.
    #[must_use = "the Ticket is the only way to collect this request's result"]
    pub fn submit_with_deadline(&self, b: &[f64], deadline: Instant) -> Result<Ticket, ServeError> {
        self.queue.submit(b, Some(deadline))
    }

    /// Ask the dispatcher to flush the current partial panel now
    /// instead of lingering for more lanes — a latency hint, not a
    /// barrier (the flushed requests still complete asynchronously).
    pub fn flush(&self) {
        self.queue.lock().flush_hint = true;
        self.queue.dispatch_cv.notify_one();
    }

    /// Begin shutdown: subsequent submits are rejected with
    /// [`ServeError::ShuttingDown`]; already-queued work is drained or
    /// rejected per the config. Idempotent; called automatically when
    /// the [`SolverService::run`] closure returns.
    pub fn shutdown(&self) {
        self.queue.lock().shutdown = true;
        self.queue.dispatch_cv.notify_one();
    }

    /// Requests currently queued (excludes in-flight panels).
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().pending.len()
    }

    /// A point-in-time copy of the service counters. When the
    /// [`crate::telemetry`] plane is armed the snapshot carries a
    /// [`TelemetryReport`] digest of the spans recorded so far.
    pub fn stats(&self) -> ServiceReport {
        let mut s = self.queue.stats();
        s.spawn_shortfalls =
            self.engine.resources().spawn_shortfalls().saturating_sub(self.shortfall_base);
        s
    }

    /// Coarse service condition for external pollers (a load balancer,
    /// a supervisor, the chaos harness): `Draining` once shutdown
    /// begins, `Degraded` while the circuit breaker is open or within
    /// [`HEALTH_RECOVERY_PANELS`] panels of a supervised dispatcher
    /// restart, `Ok` otherwise.
    pub fn health(&self) -> ServiceHealth {
        self.queue.health()
    }

    // ---- value refresh ----------------------------------------------

    /// Swap new numeric values into the backing [`SolverEngine`]
    /// **while the service keeps serving** — see the
    /// [value-refresh lifecycle](self#value-refresh-lifecycle). `m2`
    /// must have the exact sparsity pattern the engine was built for;
    /// only its values may differ. The swap waits for no panel: the
    /// one in flight finishes on the epoch it pinned, so every ticket
    /// resolves against exactly one value epoch.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidConfig`] — the service is
    ///   preconditioner-backed; use
    ///   [`SolverService::refresh_preconditioner`].
    /// * [`ServeError::Solve`] wrapping
    ///   [`SolveError::StructureMismatch`] or a factor-audit error —
    ///   the refresh was rejected before any mutation.
    /// * [`ServeError::Retryable`] — an injected
    ///   [`crate::fault::FaultSite::ValueRefresh`] panic interrupted
    ///   the refresh before commit; the old epoch is intact and the
    ///   call is safe to retry.
    pub fn refresh_solver(&self, m2: &CscMatrix) -> Result<RefreshReport, ServeError> {
        let ServiceEngine::Solver(e) = self.engine else {
            return Err(ServeError::InvalidConfig {
                what: "refresh_solver needs a solver-backed service; \
                       use refresh_preconditioner",
            });
        };
        self.run_refresh(|| e.refresh_values(m2))
    }

    /// [`SolverService::refresh_solver`] for a preconditioner-backed
    /// service: refresh the `L` and `U` engines pair-atomically from a
    /// refactored [`LuFactors`]. No application ever observes a
    /// new-`L`/old-`U` mix: both sides are published under the two
    /// snapshot locks every application pins its pair under.
    ///
    /// # Errors
    ///
    /// Same surface as [`SolverService::refresh_solver`], validated
    /// for both triangles before either is touched.
    pub fn refresh_preconditioner(
        &self,
        f: &LuFactors,
    ) -> Result<(RefreshReport, RefreshReport), ServeError> {
        let ServiceEngine::Preconditioner(p) = self.engine else {
            return Err(ServeError::InvalidConfig {
                what: "refresh_preconditioner needs a preconditioner-backed service; \
                       use refresh_solver",
            });
        };
        self.run_refresh(|| p.refresh(f))
    }

    /// Run one refresh beside the traffic, map the outcome to the
    /// service error surface and bump the matching counter. A panic
    /// payload is dropped, not resumed: the engine's refresh probe
    /// fires before anything is published, so the old epoch is intact
    /// and the failure is typed [`ServeError::Retryable`].
    fn run_refresh<T>(
        &self,
        refresh: impl FnOnce() -> Result<T, SolveError>,
    ) -> Result<T, ServeError> {
        let out = match catch_unwind(AssertUnwindSafe(refresh)) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(ServeError::Solve(e)),
            Err(_) => Err(ServeError::Retryable {
                reason: "value refresh interrupted before commit; the old epoch is intact",
            }),
        };
        let mut q = self.queue.lock();
        match &out {
            Ok(_) => q.stats.value_refreshes += 1,
            Err(_) => q.stats.refresh_failures += 1,
        }
        out
    }

    // ---- dispatcher -------------------------------------------------

    /// The dispatcher thread body plus its supervisor. Unsupervised, a
    /// panic that escapes `dispatch` (only possible from completion
    /// bookkeeping or an injected [`FaultSite::DispatcherPanic`] — the
    /// solve itself is caught per panel) aborts the service: every
    /// queued request completes with [`ServeError::Retryable`] and the
    /// panic resumes on the joining thread. Supervised, the in-flight
    /// group is recovered the same way but the dispatcher restarts
    /// after a seeded backoff and keeps serving.
    fn dispatcher_loop(&self, supervised: bool) {
        let cfg = &self.queue.cfg;
        let mut st = DispatchState::new(cfg.max_lanes);
        let mut restarts = 0u32;
        loop {
            let caught = catch_unwind(AssertUnwindSafe(|| self.dispatch(&mut st)));
            let payload = match caught {
                Ok(()) => return,
                Err(p) => p,
            };
            let failed = self.recover_inflight(&mut st);
            if supervised && restarts < cfg.max_dispatcher_restarts {
                restarts += 1;
                {
                    let mut q = self.queue.lock();
                    q.stats.dispatcher_restarts += 1;
                    q.stats.failed += failed;
                    q.panels_since_restart = 0;
                }
                std::thread::sleep(backoff_delay(
                    cfg.restart_backoff,
                    Duration::from_millis(100),
                    cfg.supervision_seed,
                    restarts,
                ));
                continue;
            }
            self.queue.lock().stats.failed += failed;
            // terminal: no ticket may hang on a dead dispatcher
            self.queue.fail_pending(&ServeError::Retryable {
                reason: "service aborted after repeated dispatcher panics",
            });
            if let Some(o) = &self.queue.observer {
                o.aborted();
            }
            resume_unwind(payload);
        }
    }

    /// One dispatcher incarnation: wait for work, decide when to
    /// flush, run the panel, complete the tickets — until shutdown
    /// with an empty queue.
    fn dispatch(&self, st: &mut DispatchState) {
        while let Some(cause) = self.next_group(st) {
            fault::fire_panic(FaultSite::DispatcherPanic);
            self.run_group(st, cause);
        }
    }

    /// After a dispatcher panic: complete whatever the dead
    /// incarnation had popped but not finished with
    /// [`ServeError::Retryable`], reset the (possibly mid-mutation)
    /// scratch, and return how many requests were failed.
    fn recover_inflight(&self, st: &mut DispatchState) -> u64 {
        let mut failed = 0u64;
        for p in st.group.drain(..) {
            if p.slot.lock().phase == Phase::Done {
                // completed before the panic landed; nothing to do
                continue;
            }
            failed += 1;
            let err = ServeError::Retryable {
                reason: "dispatcher restarted while the request was in flight",
            };
            if self.queue.finish(&p.slot, None, Some(err)) {
                self.queue.lock().free.push(p.slot);
            }
        }
        st.bs.clear();
        st.outs.clear();
        st.lane_err.clear();
        st.ws = DispatchWorkspace::default();
        failed
    }

    /// Block until a panel should be dispatched, then move up to
    /// `max_lanes` requests from the FIFO into `group`. Returns `None`
    /// exactly once: shutdown with an empty queue.
    fn next_group(&self, st: &mut DispatchState) -> Option<FlushCause> {
        let lanes = self.queue.cfg.max_lanes;
        // what lingering last bought decides whether a partial panel
        // waits at all; `max_linger` stays the upper bound
        let linger = st.linger.linger(self.queue.cfg.max_linger);
        let mut q = self.queue.lock();
        let cause = loop {
            let depth = q.pending.len();
            // shutdown wins over every other trigger: once it is
            // observed, EVERY remaining group carries Shutdown — so a
            // full panel still queued is drained (and counted in
            // `drained`) or rejected per the config, exactly like a
            // partial one
            if q.shutdown {
                if depth == 0 {
                    return None;
                }
                break FlushCause::Shutdown;
            }
            if depth >= lanes {
                break FlushCause::Full;
            }
            if depth == 0 {
                q.flush_hint = false;
                q = self.queue.dispatch_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if q.flush_hint {
                q.flush_hint = false;
                break FlushCause::Hint;
            }
            let now = Instant::now();
            let (at, cause) = flush_plan(&q, lanes, linger, st.est_solve, now);
            if at <= now {
                break cause;
            }
            q = self
                .queue
                .dispatch_cv
                .wait_timeout(q, at - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        // a pop consumes any pending flush hint whatever the cause:
        // the hint asked for "what is queued now", and leaving it set
        // would spuriously flush the NEXT, unrelated partial panel
        q.flush_hint = false;
        for _ in 0..lanes.min(q.pending.len()) {
            let p = q.pending.pop_front().expect("depth checked");
            q.bytes -= p.bytes;
            st.group.push(p);
        }
        telemetry::instant(Site::ServeFlush, cause as u64);
        telemetry::gauge_set(Gauge::ServeQueueDepth, q.pending.len() as u64);
        Some(cause)
    }

    /// Solve one flushed group and complete its tickets. Engine errors
    /// and kernel panics fail the panel's requests with a typed error;
    /// the dispatcher itself survives either. Repeated whole-panel
    /// failures trip the circuit breaker onto the degraded per-request
    /// serial path; [`ServiceConfig::scan_outputs`] additionally
    /// quarantines non-finite lanes and retries their panel-mates.
    fn run_group(&self, st: &mut DispatchState, cause: FlushCause) {
        let dispatch_start = Instant::now();
        let mut wait_ns = 0u64;
        let mut max_wait = 0u64;
        for p in st.group.iter() {
            let mut s = p.slot.lock();
            s.phase = Phase::InFlight;
            st.bs.push(mem::take(&mut s.rhs));
            st.outs.push(mem::take(&mut s.out));
            drop(s);
            let w = dispatch_start.saturating_duration_since(p.submitted_at).as_nanos() as u64;
            // per-ticket queue-wait split: the span-derived half of the
            // admission→dispatch latency budget (solve half below)
            telemetry::observe(Hist::ServeQueueWaitNs, w);
            telemetry::instant(Site::ServeTicket, w);
            wait_ns += w;
            max_wait = max_wait.max(w);
        }
        let fill = st.group.len();
        st.lane_err.clear();
        st.lane_err.resize(fill, None);

        let reject = cause == FlushCause::Shutdown && !self.queue.cfg.drain_on_shutdown;
        let panel_span = SpanGuard::enter_on(!reject, Site::ServePanel);
        let mut solve_ns = 0u64;
        let mut poisoned = 0u64;
        let mut retries = 0u64;
        let mut breaker_tripped = false;
        let mut breaker_closed = false;
        let mut degraded = 0u64;
        if reject {
            for e in st.lane_err.iter_mut() {
                *e = Some(ServeError::ShuttingDown);
            }
        } else if st.breaker_open {
            // degraded mode: per-request serial solves, each behind its
            // own catch_unwind — bit-identical results, no panel fusion,
            // no shared blast radius
            let t0 = Instant::now();
            poisoned += self.solve_degraded(st);
            solve_ns = t0.elapsed().as_nanos() as u64;
            degraded = fill as u64;
            st.degraded_panels += 1;
            if st.degraded_panels >= BREAKER_COOLDOWN_PANELS {
                st.breaker_open = false;
                st.degraded_panels = 0;
                st.consec_panel_failures = 0;
                breaker_closed = true;
            }
        } else {
            let t0 = Instant::now();
            let solved = catch_unwind(AssertUnwindSafe(|| {
                self.solve_group(&st.bs, &mut st.outs, &mut st.ws)
            }));
            let took = t0.elapsed();
            solve_ns = took.as_nanos() as u64;
            // EWMA with 1/4 weight on the newest sample: stable under
            // jitter, adapts within a few panels
            st.est_solve = (st.est_solve * 3 + took) / 4;
            let panel_err: Option<ServeError> = match solved {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(ServeError::Solve(e)),
                Err(_) => {
                    // the workspace may be mid-mutation; replace it
                    // rather than trust it (allocates, but only on the
                    // panic path)
                    st.ws = DispatchWorkspace::default();
                    Some(ServeError::DispatcherPanicked)
                }
            };
            if let Some(e) = panel_err {
                for l in st.lane_err.iter_mut() {
                    *l = Some(e.clone());
                }
                st.consec_panel_failures += 1;
                if st.consec_panel_failures >= BREAKER_TRIP_PANELS {
                    st.breaker_open = true;
                    st.degraded_panels = 0;
                    breaker_tripped = true;
                }
            } else {
                st.consec_panel_failures = 0;
                if self.queue.cfg.scan_outputs {
                    let (p, r) = self.scan_and_retry(st);
                    poisoned += p;
                    retries += r;
                }
            }
        }
        drop(panel_span);
        if !reject {
            telemetry::observe(Hist::ServeSolveNs, solve_ns);
        }

        let completed_at = Instant::now();
        let misses =
            st.group.iter().filter(|p| p.deadline.is_some_and(|d| completed_at > d)).count() as u64;
        let mut served = 0u64;
        let mut failed = 0u64;
        let mut shutdown_rej = 0u64;
        for err in &st.lane_err {
            match err {
                None => served += 1,
                Some(ServeError::ShuttingDown) => shutdown_rej += 1,
                Some(_) => failed += 1,
            }
        }

        // the panel's accounting lands before its tickets wake: a
        // client that has its result can already read it in the stats
        {
            let mut q = self.queue.lock();
            st.linger = st.linger.observe(cause, fill, q.pending.len());
            if breaker_tripped {
                q.breaker_open = true;
                q.stats.breaker_trips += 1;
            }
            if breaker_closed {
                q.breaker_open = false;
            }
            q.panels_since_restart += 1;
            let s = &mut q.stats;
            s.panels += 1;
            s.fill_sum += fill as u64;
            s.max_fill = s.max_fill.max(fill);
            s.deadline_misses += misses;
            s.wait_ns_total += wait_ns;
            s.max_wait_ns = s.max_wait_ns.max(max_wait);
            s.solve_ns_total += solve_ns;
            s.poisoned_lanes += poisoned;
            s.panel_retries += retries;
            s.degraded_solves += degraded;
            match cause {
                FlushCause::Full => s.full_flushes += 1,
                FlushCause::Linger => s.linger_flushes += 1,
                FlushCause::Deadline => s.deadline_flushes += 1,
                FlushCause::Hint => s.hint_flushes += 1,
                FlushCause::Shutdown => {}
            }
            s.served += served;
            s.failed += failed;
            s.shutdown_rejected += shutdown_rej;
            if cause == FlushCause::Shutdown {
                s.drained += served;
            }
        }

        let lanes = st.bs.drain(..).zip(st.outs.drain(..)).zip(st.lane_err.drain(..));
        for (p, (bufs, err)) in st.group.drain(..).zip(lanes) {
            if self.queue.finish(&p.slot, Some(bufs), err) {
                // the ticket is gone; the dispatcher recycles
                self.queue.lock().free.push(p.slot);
            }
        }
    }

    /// Run one coalesced panel through the engine. Groups at or under
    /// `2 × PANEL_K` lanes stay on the single-thread fused kernels
    /// (allocation-free); wider solver groups go through the pooled
    /// batch tier, trading per-dispatch task allocation for cores.
    fn solve_group(
        &self,
        bs: &[Vec<f64>],
        outs: &mut [Vec<f64>],
        ws: &mut DispatchWorkspace,
    ) -> Result<(), SolveError> {
        fault::fire_panic(FaultSite::PanelSolve);
        // every arm pins the published epoch now, after the group was
        // popped: a request submitted after a refresh returned is
        // solved on the new values
        match self.engine {
            ServiceEngine::Solver(e) => {
                if bs.len() > 2 * PANEL_K {
                    e.solve_batch_into(bs, outs)
                } else {
                    e.panel_into_prevalidated(&e.snapshot().factor, bs, outs, &mut ws.solve)
                }
            }
            ServiceEngine::Preconditioner(p) => p.apply_batch_prevalidated(bs, outs, &mut ws.apply),
        }
    }

    /// Breaker-open dispatch: solve each lane independently through
    /// the engines' serial paths, one `catch_unwind` per lane. Note
    /// the injected [`FaultSite::PanelSolve`] probe lives in
    /// [`SolverService::solve_group`], which this path bypasses — so a
    /// plan that keeps killing the fused path cannot also kill the
    /// degraded path, and the service keeps serving. Returns the count
    /// of lanes quarantined by the output scan.
    fn solve_degraded(&self, st: &mut DispatchState) -> u64 {
        let n = self.n();
        let mut poisoned = 0u64;
        for i in 0..st.bs.len() {
            st.outs[i].resize(n, 0.0);
            let solved = match self.engine {
                ServiceEngine::Solver(e) => catch_unwind(AssertUnwindSafe(|| {
                    e.solve_into(&st.bs[i], &mut st.outs[i], &mut st.ws.solve)
                })),
                ServiceEngine::Preconditioner(p) => catch_unwind(AssertUnwindSafe(|| {
                    p.apply_into(&st.bs[i], &mut st.outs[i], &mut st.ws.apply)
                })),
            };
            st.lane_err[i] = match solved {
                Ok(Ok(())) => {
                    if self.queue.cfg.scan_outputs {
                        if let Some(index) = st.outs[i].iter().position(|v| !v.is_finite()) {
                            poisoned += 1;
                            Some(ServeError::Solve(SolveError::NonFinite { buffer: "x", index }))
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                }
                Ok(Err(e)) => Some(ServeError::Solve(e)),
                Err(_) => {
                    st.ws = DispatchWorkspace::default();
                    Some(ServeError::DispatcherPanicked)
                }
            };
        }
        poisoned
    }

    /// Post-solve guardrail ([`ServiceConfig::scan_outputs`]): scan
    /// each successful lane's output for non-finite values, fail the
    /// poisoned lanes with [`SolveError::NonFinite`] (`buffer: "x"`),
    /// and re-solve the clean panel-mates so a corrupted lane is never
    /// collateral damage. Loops until a scan comes back clean; each
    /// iteration quarantines at least one lane, so it terminates.
    fn scan_and_retry(&self, st: &mut DispatchState) -> (u64, u64) {
        let mut poisoned = 0u64;
        let mut retries = 0u64;
        loop {
            let mut newly = false;
            for i in 0..st.outs.len() {
                if st.lane_err[i].is_some() {
                    continue;
                }
                if let Some(index) = st.outs[i].iter().position(|v| !v.is_finite()) {
                    st.lane_err[i] =
                        Some(ServeError::Solve(SolveError::NonFinite { buffer: "x", index }));
                    poisoned += 1;
                    newly = true;
                }
            }
            if !newly {
                return (poisoned, retries);
            }
            let clean: Vec<usize> =
                (0..st.outs.len()).filter(|&i| st.lane_err[i].is_none()).collect();
            if clean.is_empty() {
                return (poisoned, retries);
            }
            // retry the surviving lanes as a smaller panel (allocates
            // the sub-panel views; acceptable on this exceptional path)
            let sub_bs: Vec<Vec<f64>> = clean.iter().map(|&i| mem::take(&mut st.bs[i])).collect();
            let mut sub_outs: Vec<Vec<f64>> =
                clean.iter().map(|&i| mem::take(&mut st.outs[i])).collect();
            retries += 1;
            let solved = catch_unwind(AssertUnwindSafe(|| {
                self.solve_group(&sub_bs, &mut sub_outs, &mut st.ws)
            }));
            for ((&i, b), out) in clean.iter().zip(sub_bs).zip(sub_outs) {
                st.bs[i] = b;
                st.outs[i] = out;
            }
            match solved {
                Ok(Ok(())) => {} // rescan on the next loop iteration
                Ok(Err(e)) => {
                    for &i in &clean {
                        st.lane_err[i] = Some(ServeError::Solve(e.clone()));
                    }
                    return (poisoned, retries);
                }
                Err(_) => {
                    st.ws = DispatchWorkspace::default();
                    for &i in &clean {
                        st.lane_err[i] = Some(ServeError::DispatcherPanicked);
                    }
                    return (poisoned, retries);
                }
            }
        }
    }
}

/// When (and why) the next flush should happen, given a non-empty,
/// non-full queue: the oldest request's linger expiry, tightened by
/// the deadline slack (`deadline − est_solve`) of every request that
/// would ride the next panel.
fn flush_plan(
    q: &QueueState,
    lanes: usize,
    max_linger: Duration,
    est_solve: Duration,
    now: Instant,
) -> (Instant, FlushCause) {
    let oldest = q.pending.front().expect("flush_plan needs a non-empty queue");
    let mut at = oldest
        .submitted_at
        .checked_add(max_linger)
        .unwrap_or_else(|| now + Duration::from_secs(3600));
    let mut cause = FlushCause::Linger;
    for p in q.pending.iter().take(lanes) {
        if let Some(d) = p.deadline {
            let cutoff = d.checked_sub(est_solve).unwrap_or(now);
            if cutoff < at {
                at = cutoff;
                cause = FlushCause::Deadline;
            }
        }
    }
    (at, cause)
}

/// The future-like handle [`SolverService::submit`] returns: exactly
/// one of [`Ticket::wait`] / [`Ticket::try_wait`] /
/// [`Ticket::wait_timeout`] collects the result (the consuming
/// signatures make double-collection unrepresentable). Dropping a
/// ticket abandons the request — the solve may still run, but its
/// result is recycled instead of delivered.
#[derive(Debug)]
#[must_use = "dropping a Ticket abandons its request; wait/try_wait/wait_timeout collect it"]
pub struct Ticket {
    /// `Some` until the result is collected or the ticket dropped.
    slot: Option<Arc<Slot>>,
    /// The way back to the free list — owned, so a ticket outlives
    /// the scope that served it (and a dead queue) without dangling.
    queue: Arc<ServiceQueue>,
}

impl Ticket {
    /// Block until the request completes; returns the solution vector
    /// or the panel's error. Allocation note: the returned vector is
    /// the slot's buffer, so the slot regrows on its next reuse —
    /// steady-state-allocation-free callers want
    /// [`Ticket::wait_into`].
    pub fn wait(mut self) -> Result<Vec<f64>, ServeError> {
        let slot = self.slot.take().expect("ticket not yet collected");
        let mut st = slot.lock();
        while st.phase != Phase::Done {
            st = slot.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let res = match st.err.take() {
            Some(e) => Err(e),
            None => Ok(mem::take(&mut st.out)),
        };
        st.phase = Phase::Idle;
        drop(st);
        self.recycle(slot);
        res
    }

    /// Block until completion and copy the solution into `out`,
    /// keeping every buffer recycled — the zero-allocation collection
    /// path (proved by the counting-allocator test).
    pub fn wait_into(mut self, out: &mut [f64]) -> Result<(), ServeError> {
        let slot = self.slot.take().expect("ticket not yet collected");
        let mut st = slot.lock();
        while st.phase != Phase::Done {
            st = slot.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let res = match st.err.take() {
            Some(e) => Err(e),
            None if out.len() == st.out.len() => {
                out.copy_from_slice(&st.out);
                Ok(())
            }
            None => Err(ServeError::Solve(SolveError::OutputLength {
                n: st.out.len(),
                out: out.len(),
                buffer: "out",
            })),
        };
        st.phase = Phase::Idle;
        drop(st);
        self.recycle(slot);
        res
    }

    /// Non-blocking poll: `Ok(result)` if the request has completed,
    /// `Err(self)` (the ticket, returned for another try) if it is
    /// still queued or in flight.
    pub fn try_wait(self) -> Result<Result<Vec<f64>, ServeError>, Ticket> {
        self.wait_timeout(Duration::ZERO)
    }

    /// Deadline-aware wait: block at most `timeout`. `Ok(result)` on
    /// completion; `Err(self)` if the timeout expired first — the
    /// ticket comes back so the caller can keep waiting, poll again
    /// later, or drop it to abandon the request.
    pub fn wait_timeout(
        mut self,
        timeout: Duration,
    ) -> Result<Result<Vec<f64>, ServeError>, Ticket> {
        let slot = self.slot.take().expect("ticket not yet collected");
        let deadline = Instant::now().checked_add(timeout);
        let mut st = slot.lock();
        while st.phase != Phase::Done {
            let left = deadline
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::MAX);
            if left.is_zero() {
                drop(st);
                self.slot = Some(slot);
                return Err(self);
            }
            st = slot.cv.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0;
        }
        let res = match st.err.take() {
            Some(e) => Err(e),
            None => Ok(mem::take(&mut st.out)),
        };
        st.phase = Phase::Idle;
        drop(st);
        self.recycle(slot);
        Ok(res)
    }

    /// Return a finished slot to the service free list.
    fn recycle(&self, slot: Arc<Slot>) {
        self.queue.lock().free.push(slot);
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else { return };
        let recycle_now = {
            let mut st = slot.lock();
            match st.phase {
                // the dispatcher still owns (or will own) the slot:
                // flag it and let the dispatcher recycle at completion
                Phase::Queued | Phase::InFlight => {
                    st.abandoned = true;
                    false
                }
                // completed but uncollected, or already collected —
                // nothing else references the slot
                Phase::Done | Phase::Idle => {
                    st.phase = Phase::Idle;
                    st.err = None;
                    true
                }
            }
        };
        if recycle_now {
            self.queue.lock().free.push(slot);
        }
    }
}

/// Run a [`SolverService`] over a triangular [`SolverEngine`] —
/// results bit-identical to [`SolverEngine::solve`] per request.
pub fn serve_solver<'e, 'm, R>(
    engine: &'e SolverEngine<'m>,
    config: &ServiceConfig,
    body: impl FnOnce(&SolverService<'e, 'm>) -> R,
) -> Result<(R, ServiceReport), ServeError> {
    SolverService::run(ServiceEngine::Solver(engine), config, body)
}

/// Run a [`SolverService`] over a [`PreconditionerEngine`] pair —
/// results bit-identical to [`PreconditionerEngine::apply_into`] per
/// request, so Krylov trajectories fed through the service are
/// reproducible to the bit.
pub fn serve_preconditioner<'e, 'm, R>(
    pre: &'e PreconditionerEngine<'m>,
    config: &ServiceConfig,
    body: impl FnOnce(&SolverService<'e, 'm>) -> R,
) -> Result<(R, ServiceReport), ServeError> {
    SolverService::run(ServiceEngine::Preconditioner(pre), config, body)
}

/// A [`Precondition`] implementation that routes every application
/// through a shared preconditioner-backed [`SolverService`] — the
/// handle that lets a PCG/BiCGSTAB loop share one service (and one
/// warm engine pair) with foreground traffic, its applications
/// coalesced into the same fused panels.
///
/// Each application submits with a deadline of `now + slack`
/// ([`ServedPreconditioner::with_slack`]; zero by default), so a
/// sequential Krylov loop is flushed promptly together with whatever
/// foreground requests are already queued, instead of lingering a full
/// [`ServiceConfig::max_linger`] per iteration.
#[derive(Debug, Clone, Copy)]
pub struct ServedPreconditioner<'a, 'e, 'm> {
    svc: &'a SolverService<'e, 'm>,
    slack: Duration,
    retry: RetryPolicy,
}

impl<'a, 'e, 'm> ServedPreconditioner<'a, 'e, 'm> {
    /// Wrap a preconditioner-backed service with zero deadline slack
    /// (lowest latency per application). A solver-backed service is a
    /// typed error: applying `M⁻¹` through a single-triangle engine
    /// would silently solve only half the preconditioner.
    pub fn new(
        svc: &'a SolverService<'e, 'm>,
    ) -> Result<ServedPreconditioner<'a, 'e, 'm>, ServeError> {
        ServedPreconditioner::with_slack(svc, Duration::ZERO)
    }

    /// [`ServedPreconditioner::new`] with a deadline slack: each
    /// application may linger up to `slack` so concurrent traffic can
    /// coalesce into its panel — throughput for latency, bit-identical
    /// results either way.
    pub fn with_slack(
        svc: &'a SolverService<'e, 'm>,
        slack: Duration,
    ) -> Result<ServedPreconditioner<'a, 'e, 'm>, ServeError> {
        match svc.engine {
            ServiceEngine::Preconditioner(_) => {
                Ok(ServedPreconditioner { svc, slack, retry: RetryPolicy::default() })
            }
            ServiceEngine::Solver(_) => Err(ServeError::InvalidConfig {
                what: "ServedPreconditioner needs a preconditioner-backed service",
            }),
        }
    }

    /// Override the transient-failure retry schedule. Each Krylov
    /// application retries [`ServeError::QueueFull`] and
    /// [`ServeError::Retryable`] (the two outcomes that mean "the
    /// request never ran — try again") up to the policy's attempt
    /// budget; everything else surfaces immediately.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ServedPreconditioner<'a, 'e, 'm> {
        self.retry = retry;
        self
    }
}

impl Precondition for ServedPreconditioner<'_, '_, '_> {
    fn dim(&self) -> usize {
        self.svc.n()
    }

    fn precondition_into(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveError> {
        run_retry(
            &self.retry,
            |e| matches!(e, ServeError::QueueFull { .. } | ServeError::Retryable { .. }),
            || {
                let deadline = Instant::now() + self.slack;
                self.svc.submit_with_deadline(r, deadline).and_then(|ticket| ticket.wait_into(z))
            },
        )
        .map_err(SolveError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            ..RetryPolicy::default()
        }
    }

    /// Satellite regression: a queue that never drains cannot spin the
    /// retry loop forever — exhaustion is typed and carries the
    /// attempts actually made.
    #[test]
    fn run_retry_attempt_cap_returns_typed_exhaustion() {
        let mut calls = 0u32;
        let r: Result<(), ServeError> = run_retry(
            &fast_policy(5),
            |e| matches!(e, ServeError::QueueFull { .. }),
            || {
                calls += 1;
                Err(ServeError::QueueFull { depth: 1, bytes: 8 })
            },
        );
        assert_eq!(r, Err(ServeError::RetryExhausted { attempts: 5 }));
        assert_eq!(calls, 5, "exactly max_attempts attempts were made");
    }

    /// The overall deadline is the second jaw: with a huge attempt cap
    /// and a zero deadline, exactly one attempt is made.
    #[test]
    fn run_retry_deadline_beats_attempt_cap() {
        let policy = RetryPolicy { max_elapsed: Duration::ZERO, ..fast_policy(u32::MAX) };
        let mut calls = 0u32;
        let r: Result<(), ServeError> = run_retry(
            &policy,
            |e| matches!(e, ServeError::QueueFull { .. }),
            || {
                calls += 1;
                Err(ServeError::QueueFull { depth: 1, bytes: 8 })
            },
        );
        assert_eq!(r, Err(ServeError::RetryExhausted { attempts: 1 }));
        assert_eq!(calls, 1, "a zero deadline still permits the first attempt");
    }

    /// Success and non-retryable errors pass through untouched — no
    /// sleeping, no rewrapping.
    #[test]
    fn run_retry_passes_through_non_retryable_outcomes() {
        let ok: Result<u32, ServeError> = run_retry(&fast_policy(3), |_| true, || Ok(42));
        assert_eq!(ok, Ok(42));
        let err: Result<(), ServeError> = run_retry(
            &fast_policy(3),
            |e| matches!(e, ServeError::QueueFull { .. }),
            || Err(ServeError::ShuttingDown),
        );
        assert_eq!(err, Err(ServeError::ShuttingDown));
    }

    /// A retryable error that clears mid-schedule succeeds without
    /// reporting exhaustion.
    #[test]
    fn run_retry_recovers_when_the_condition_clears() {
        let mut calls = 0u32;
        let r = run_retry(
            &fast_policy(4),
            |e| matches!(e, ServeError::QueueFull { .. }),
            || {
                calls += 1;
                if calls < 3 {
                    Err(ServeError::QueueFull { depth: 9, bytes: 72 })
                } else {
                    Ok("drained")
                }
            },
        );
        assert_eq!(r, Ok("drained"));
        assert_eq!(calls, 3);
    }

    /// Fold a sequence of dispatched panels `(cause, fill, backlog)`
    /// into the record and return the linger it arms next.
    fn linger_after(panels: &[(FlushCause, usize, usize)]) -> Duration {
        const MAX: Duration = Duration::from_micros(200);
        panels
            .iter()
            .fold(LingerRecord::default(), |r, &(cause, fill, backlog)| {
                r.observe(cause, fill, backlog)
            })
            .linger(MAX)
    }

    const ARMED: Duration = Duration::from_micros(200);
    const LONE: (FlushCause, usize, usize) = (FlushCause::Linger, 1, 0);

    /// The linger policy as a pure function: a run of futile lingers
    /// disarms the wait, nothing shorter does, and `max_linger` is the
    /// only other value it ever returns.
    #[test]
    fn linger_record_disarms_only_after_a_full_run_of_futile_lingers() {
        assert_eq!(linger_after(&[]), ARMED, "a new dispatcher lingers");
        for run in 0..LINGER_FUTILE_RUN as usize {
            assert_eq!(linger_after(&vec![LONE; run]), ARMED, "{run} futile lingers");
        }
        let futile = vec![LONE; LINGER_FUTILE_RUN as usize];
        assert_eq!(linger_after(&futile), Duration::ZERO);
        // saturating: a long idle stretch neither overflows nor re-arms
        assert_eq!(linger_after(&vec![LONE; 1000]), Duration::ZERO);
    }

    /// Any sign of concurrent traffic re-arms the full wait at once —
    /// from the disarmed state and from a partial run alike.
    #[test]
    fn linger_record_rearms_on_company_or_backlog() {
        let futile = vec![LONE; LINGER_FUTILE_RUN as usize];
        let after = |last| linger_after(&[futile.as_slice(), &[last]].concat());
        assert_eq!(after((FlushCause::Linger, 2, 0)), ARMED, "a panel left with company");
        assert_eq!(after((FlushCause::Linger, 1, 1)), ARMED, "a request queued behind the panel");
        assert_eq!(after((FlushCause::Full, 8, 0)), ARMED, "fill counts whatever the cause");
        // and the run must start over: one futile linger after a re-arm
        // is not enough to disarm again
        assert_eq!(
            linger_after(&[futile.as_slice(), &[(FlushCause::Linger, 3, 0), LONE]].concat()),
            ARMED
        );
        let mut rerun = futile.clone();
        rerun.push((FlushCause::Linger, 1, 2));
        rerun.extend(&futile);
        assert_eq!(linger_after(&rerun), Duration::ZERO, "a fresh full run disarms again");
    }

    /// `Hint`, `Deadline`, `Full` and `Shutdown` flushes of a lone
    /// request cut the wait short for their own reasons: they neither
    /// count toward the futile run nor interrupt it.
    #[test]
    fn linger_record_ignores_flushes_that_did_not_linger() {
        for cause in
            [FlushCause::Hint, FlushCause::Deadline, FlushCause::Full, FlushCause::Shutdown]
        {
            assert_eq!(linger_after(&vec![(cause, 1, 0); 100]), ARMED, "{cause:?} is not evidence");
            let mut mixed = vec![LONE; LINGER_FUTILE_RUN as usize - 1];
            mixed.push((cause, 1, 0));
            assert_eq!(linger_after(&mixed), ARMED, "{cause:?} does not complete a run");
            mixed.push(LONE);
            assert_eq!(linger_after(&mixed), Duration::ZERO, "{cause:?} does not break a run");
        }
    }

    /// The documented fixed points: a zero `max_linger` stays zero and
    /// a 300 s hold-until-hint linger is never shortened by anything
    /// but a futile run of *expired* lingers — which takes 300 s each.
    #[test]
    fn linger_record_never_exceeds_or_invents_a_wait() {
        let disarmed = LingerRecord { futile: LINGER_FUTILE_RUN };
        for max in [Duration::ZERO, Duration::from_micros(200), Duration::from_secs(300)] {
            assert_eq!(LingerRecord::default().linger(max), max);
            assert_eq!(disarmed.linger(max), Duration::ZERO);
        }
    }

    #[test]
    fn zero_attempt_policy_is_clamped_to_one() {
        let mut calls = 0u32;
        let r: Result<(), ServeError> = run_retry(
            &fast_policy(0),
            |_| true,
            || {
                calls += 1;
                Err(ServeError::QueueFull { depth: 1, bytes: 8 })
            },
        );
        assert_eq!(r, Err(ServeError::RetryExhausted { attempts: 1 }));
        assert_eq!(calls, 1);
    }
}
