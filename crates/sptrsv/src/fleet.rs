//! # fleet — fault-isolated multi-tenant serving over a factor cache
//!
//! A production serving tier rarely holds one factor: an iterative
//! pipeline re-factors as the operator drifts, and many independent
//! systems (tenants) share one box. [`EngineFleet`] is that tier for
//! this repository's solvers. Clients address requests by
//! [`FactorFingerprint`] — the content-addressed factor identity from
//! [`sparsemat::fingerprint`] — and the fleet routes each right-hand
//! side to a warm per-tenant [`SolverService`], building, caching and
//! evicting [`SolverEngine`]s on demand under a hard byte budget.
//!
//! ## Architecture
//!
//! * **Bulkheads.** Every tenant has its own queue, thread and panic
//!   domain. The queue (the tenant service's own FIFO) is created at
//!   admission, and [`EngineFleet::submit`] enqueues straight into it
//!   from the client's thread, so a request crosses exactly two thread
//!   hand-offs: client → tenant thread, tenant thread → waiter. The
//!   tenant's one thread builds the engine over the fleet's
//!   `Arc<CscMatrix>` (shared, never copied), publishes it on the
//!   tenant's entry, and then dispatches the queue itself, supervised,
//!   until the queue is shut down. All tenants *do* share one
//!   [`EngineResources`] pool, so worker threads and solve workspaces
//!   are recycled fleet-wide.
//! * **Quarantining build pool.** Engine builds run under
//!   `catch_unwind` with a wall-clock deadline and bounded, seeded
//!   retries. A fingerprint whose build keeps failing is quarantined:
//!   submits get a typed [`FleetError::Quarantined`] (with the
//!   remaining cooldown) instead of burning build attempts, and after
//!   the cooldown a single cold probe decides re-admission.
//! * **Byte-bounded factor cache.** Cached engines are charged their
//!   real footprint (matrix + analysis + replay + workspace bytes, via
//!   [`SolverEngine::footprint_bytes`]); admitting a new tenant sheds
//!   the coldest idle one first (LRU). Engines with in-flight requests
//!   are pinned — eviction never strands a ticket. Bytes are reserved
//!   *before* a build starts and corrected to the engine's actual
//!   footprint after, so live bytes never exceed the budget, not even
//!   transiently.
//!
//! ## Containment map
//!
//! What fails, where the blast radius stops, and how you can tell:
//!
//! | failure | containment boundary | what the client sees | counter | telemetry signal |
//! |---|---|---|---|---|
//! | engine build panics or times out ([`FaultSite::EngineBuild`]) | build pool: retries, then quarantine | [`FleetError::BuildFailed`], then [`FleetError::Quarantined`] | `builds_failed`, `quarantine_events` | long `fleet.build` span, then a `fleet.quarantine` instant |
//! | poisoned factor re-submitted after cooldown | one cold probe re-runs the build | success, or quarantine renewed | `build_retries`, `quarantine_rejections` | a fresh `fleet.build` span; `fleet.quarantine` instant again on renewal |
//! | one tenant's dispatcher panics repeatedly | that tenant's service: queued tickets failed, queue closed, fingerprint quarantined | [`ServeError::Retryable`] (or [`FleetError::ShuttingDown`] from the closed queue) on that tenant only; other tenants bit-identical | `tenant_aborts` | `serve.panel` spans stop on that tenant's thread only |
//! | one client floods the fleet | per-tenant request/byte budgets | [`FleetError::TenantQueueFull`] | `tenant_shed` | `serve_queue_depth` gauge pegged at the budget |
//! | cache pressure | LRU shed of coldest *idle* engine (in-flight engines pinned) | cold rebuild on next submit | `evictions` | `fleet.evict` instant (arg = bytes released); `fleet_cache_bytes` gauge drops |
//! | admission allocation failure ([`FaultSite::CacheAdmit`]) | admission gate | [`FleetError::CacheFull`] | `cache_admit_shed` | no `fleet.build` span follows the submit |
//! | fleet shutdown | every tenant queue drained (or rejected, per [`ServiceConfig::drain_on_shutdown`]) and closed | results, or [`FleetError::ShuttingDown`] | — | `fleet_tenants_live` gauge falls to 0 |
//! | value refresh rejected or interrupted ([`FaultSite::ValueRefresh`]) | the tenant's engine validates before mutating; the old epoch keeps serving | typed error to the refresher only; tenant traffic unaffected | `refresh_failures` | `fleet.refresh` span with no nested `engine.refresh.values` commit |
//!
//! ## Value-refresh lifecycle
//!
//! When the operator drifts but its sparsity pattern does not, a
//! tenant does **not** need a second registration, a rebuild, or a
//! restart: [`EngineFleet::refresh_tenant`] swaps the new values into
//! the live tenant's warm engine in place, with zero symbolic work.
//! The refresh runs on the caller's thread, beside the traffic (a
//! tenant still building is refreshed once its engine is published):
//! the engine publishes the new values as a fresh snapshot, so a
//! refresh waits for neither the panel in flight nor the queue, and
//! every ticket resolves against exactly one value epoch.
//! On success the stored factor is replaced (a later eviction +
//! rebuild uses the new values), the cache charge is corrected to the
//! refreshed engine's footprint plus both matrices now alive (the one
//! the engine was built over and the stored one), and
//! [`EngineFleet::tenant_value_epoch`] reads the engine's new epoch. A
//! refresh that races an eviction still commits, to the evicted engine
//! and to the stored factor. On failure —
//! structure drift, a non-finite or zero pivot, or an injected
//! mid-refresh panic — the tenant keeps serving the old epoch
//! bit-identically and the caller gets the typed error; a fingerprint
//! inside its quarantine cooldown rejects refreshes with
//! [`FleetError::Quarantined`] exactly like submits. A registered but
//! non-resident fingerprint is refreshed *at rest*: same validation,
//! no engine to touch, the next cold build simply uses the new
//! values.
//!
//! Two invariants hold under any interleaving of the above — the chaos
//! suite (`tests/chaos.rs`) asserts both while injecting faults into
//! one tenant of a multi-tenant sweep:
//!
//! 1. **No ticket ever hangs.** Every [`FleetTicket`] resolves to a
//!    value or a typed error, even if its tenant's dispatcher panics
//!    for good, its build fails, or the fleet shuts down underneath it:
//!    every exit path of the tenant's thread closes its queue, which
//!    completes whatever is still queued and refuses later submits
//!    through a stale handle, both typed. Per-tenant accounting hangs
//!    off the queue's completion hook, so `submitted == served +
//!    failed` holds whether or not a ticket is ever collected.
//! 2. **The byte budget is hard.** `cache_bytes ≤ cache_budget_bytes`
//!    at every instant; [`FleetReport::cache_bytes_high_water`] is the
//!    audit trail.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use sptrsv::fleet::{EngineFleet, FleetConfig};
//!
//! let l = Arc::new(sparsemat::gen::banded_lower(256, 4, 3.0, 1));
//! let fleet = EngineFleet::new(FleetConfig::default()).unwrap();
//! let fp = fleet.register(Arc::clone(&l));
//! let (_, b) = sptrsv::verify::rhs_for(&l, 7);
//! let x = fleet.submit(fp, &b).unwrap().wait().unwrap();
//! assert_eq!(x.len(), 256);
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mgpu_sim::MachineConfig;
use sparsemat::{CscMatrix, FactorFingerprint};

use crate::engine::{check_refresh, EngineResources, RefreshReport, SolverEngine};
use crate::exec::PANEL_K;
use crate::fault::{self, FaultSite};
use crate::serve::{
    backoff_delay, QueueObserver, ServeError, ServiceConfig, ServiceEngine, ServiceHealth,
    ServiceQueue, ServiceReport, SolverService, Ticket,
};
use crate::solver::{SolveError, SolveOptions};
use crate::telemetry::{self, Gauge, Site, SpanGuard, TelemetryReport};

/// Tuning knobs for an [`EngineFleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Machine model every tenant engine is built against.
    pub machine: MachineConfig,
    /// Solver options every tenant engine is built with. Defaults to
    /// the engine default with `verify` off — per-solve verification
    /// against the serial reference defeats the point of a warm cache.
    pub solve: SolveOptions,
    /// Per-tenant [`SolverService`] configuration (queue bounds,
    /// linger, supervision). The fleet overrides `supervision_seed`
    /// per tenant (`seed ^ fingerprint.structural`) so restart
    /// schedules are decorrelated across tenants but reproducible.
    pub service: ServiceConfig,
    /// Hard ceiling on cached bytes: engines + workspaces + matrices
    /// of all live tenants. Never exceeded, even mid-build.
    pub cache_budget_bytes: u64,
    /// Most in-flight requests one tenant may hold before its submits
    /// shed with [`FleetError::TenantQueueFull`].
    pub max_tenant_requests: usize,
    /// Most in-flight payload bytes one tenant may hold.
    pub max_tenant_bytes: usize,
    /// Build attempts (including the first) before a fingerprint is
    /// quarantined. Clamped to ≥ 1. Only *panicking* builds are
    /// retried; a typed build error is deterministic and fails fast.
    pub build_attempts: u32,
    /// Wall-clock deadline across all build attempts of one admission.
    pub build_deadline: Duration,
    /// Base backoff between build retries (seeded exponential jitter,
    /// capped at 100 ms).
    pub build_backoff: Duration,
    /// Most engine builds running concurrently fleet-wide; excess
    /// builders wait. Clamped to ≥ 1.
    pub build_concurrency: usize,
    /// How long a quarantined fingerprint is rejected before one cold
    /// probe may re-attempt its build.
    pub quarantine_cooldown: Duration,
    /// Seed for every deterministic schedule in the fleet (build
    /// backoff, per-tenant supervision jitter).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            machine: MachineConfig::dgx1(2),
            solve: SolveOptions { verify: false, ..SolveOptions::default() },
            service: ServiceConfig::default(),
            cache_budget_bytes: 256 << 20,
            max_tenant_requests: 256,
            max_tenant_bytes: 64 << 20,
            build_attempts: 3,
            build_deadline: Duration::from_secs(10),
            build_backoff: Duration::from_micros(200),
            build_concurrency: 2,
            quarantine_cooldown: Duration::from_millis(500),
            seed: 0xF1EE7,
        }
    }
}

impl FleetConfig {
    /// Clamp the self-healable knobs and reject the unserviceable ones
    /// — a zero byte budget or zero tenant budget would reject every
    /// request forever, which is a configuration bug, not load.
    fn validated(&self) -> Result<FleetConfig, FleetError> {
        if self.cache_budget_bytes == 0 {
            return Err(FleetError::InvalidConfig { what: "cache_budget_bytes must be ≥ 1" });
        }
        if self.max_tenant_requests == 0 {
            return Err(FleetError::InvalidConfig { what: "max_tenant_requests must be ≥ 1" });
        }
        if self.max_tenant_bytes == 0 {
            return Err(FleetError::InvalidConfig { what: "max_tenant_bytes must be ≥ 1" });
        }
        let mut cfg = self.clone();
        cfg.build_attempts = cfg.build_attempts.max(1);
        cfg.build_concurrency = cfg.build_concurrency.max(1);
        Ok(cfg)
    }
}

/// Everything that can go wrong between a client and the fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// No matrix has been [`EngineFleet::register`]ed under this
    /// fingerprint — the fleet cannot build what it has never seen.
    UnknownFactor {
        /// The unrecognized routing key.
        fingerprint: FactorFingerprint,
    },
    /// This fingerprint's builds failed repeatedly and it is cooling
    /// off; resubmit after `retry_in`.
    Quarantined {
        /// Consecutive admission failures recorded for the factor.
        failures: u32,
        /// Remaining cooldown before a re-admission probe is allowed.
        retry_in: Duration,
    },
    /// The engine build failed (panic, deadline, or a typed engine
    /// error) after `attempts` attempts; the fingerprint is now
    /// quarantined.
    BuildFailed {
        /// Build attempts actually made.
        attempts: u32,
    },
    /// The factor cache cannot fit this engine: the budget is smaller
    /// than the engine, or every resident engine is pinned by
    /// in-flight requests.
    CacheFull {
        /// Bytes the admission needed and could not reserve.
        needed_bytes: u64,
        /// The configured ceiling.
        budget_bytes: u64,
    },
    /// This tenant is at its per-tenant admission budget (requests or
    /// bytes); other tenants are unaffected.
    TenantQueueFull {
        /// The tenant's in-flight requests at rejection.
        depth: usize,
        /// The tenant's in-flight payload bytes at rejection.
        bytes: usize,
    },
    /// The fleet is shutting down (or shut down underneath a queued
    /// request).
    ShuttingDown,
    /// The fleet configuration cannot work.
    InvalidConfig {
        /// Which knob is broken.
        what: &'static str,
    },
    /// The tenant's serving front-end failed the request — the
    /// per-tenant [`SolverService`] error, verbatim.
    Serve(ServeError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownFactor { fingerprint } => {
                write!(f, "no registered factor under fingerprint {fingerprint}")
            }
            FleetError::Quarantined { failures, retry_in } => {
                write!(f, "factor quarantined after {failures} failures; retry in {retry_in:?}")
            }
            FleetError::BuildFailed { attempts } => {
                write!(f, "engine build failed after {attempts} attempts; factor quarantined")
            }
            FleetError::CacheFull { needed_bytes, budget_bytes } => write!(
                f,
                "factor cache full: {needed_bytes} bytes needed, {budget_bytes} byte budget, \
                 no evictable engine"
            ),
            FleetError::TenantQueueFull { depth, bytes } => write!(
                f,
                "tenant at its admission budget ({depth} requests / {bytes} bytes in flight)"
            ),
            FleetError::ShuttingDown => write!(f, "the engine fleet is shutting down"),
            FleetError::InvalidConfig { what } => {
                write!(f, "invalid fleet configuration: {what}")
            }
            FleetError::Serve(e) => write!(f, "tenant service failed the request: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> Self {
        FleetError::Serve(e)
    }
}

/// Coarse per-tenant condition, reported by [`EngineFleet::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantHealth {
    /// Admitted; the engine build has not finished yet. Submits are
    /// accepted and wait in the tenant's service queue.
    Building,
    /// Serving normally.
    Ok,
    /// Serving, but impaired (circuit breaker open, or the dispatcher
    /// recently restarted).
    Degraded {
        /// Why the tenant is degraded.
        reason: &'static str,
    },
    /// The tenant is draining (eviction, abort cleanup, or fleet
    /// shutdown).
    Draining,
    /// The fingerprint is quarantined and holds no live engine.
    Quarantined {
        /// Consecutive admission failures recorded for the factor.
        failures: u32,
        /// Remaining cooldown before a re-admission probe is allowed.
        retry_in: Duration,
    },
}

/// Fleet-wide counters (all monotonic), snapshot by
/// [`EngineFleet::report`].
#[derive(Debug, Default)]
struct FleetCounters {
    submitted: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
    tenant_shed: AtomicU64,
    cache_admit_shed: AtomicU64,
    quarantine_rejections: AtomicU64,
    builds_started: AtomicU64,
    builds_ok: AtomicU64,
    builds_failed: AtomicU64,
    build_retries: AtomicU64,
    quarantine_events: AtomicU64,
    evictions: AtomicU64,
    tenant_aborts: AtomicU64,
    value_refreshes: AtomicU64,
    refresh_failures: AtomicU64,
}

/// A point-in-time snapshot of the fleet, from [`EngineFleet::report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Tenants currently holding a cached engine (or building one).
    pub tenants_live: usize,
    /// Fingerprints currently inside their quarantine cooldown.
    pub quarantined_now: usize,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: u64,
    /// Most bytes ever charged at once — always ≤ the budget.
    pub cache_bytes_high_water: u64,
    /// The configured ceiling, for reconciliation.
    pub cache_budget_bytes: u64,
    /// Requests accepted into some tenant's queue.
    pub submitted: u64,
    /// Requests completed with a solution.
    pub served: u64,
    /// Requests completed with a typed error.
    pub failed: u64,
    /// Submits shed by a per-tenant admission budget.
    pub tenant_shed: u64,
    /// Cold admissions shed by injected allocation-pressure faults
    /// ([`FaultSite::CacheAdmit`]).
    pub cache_admit_shed: u64,
    /// Submits rejected because their fingerprint was in quarantine.
    pub quarantine_rejections: u64,
    /// Engine builds started (cold admissions).
    pub builds_started: u64,
    /// Builds that produced a serving engine.
    pub builds_ok: u64,
    /// Admissions that exhausted their build attempts or deadline.
    pub builds_failed: u64,
    /// Individual panicking build attempts that were retried.
    pub build_retries: u64,
    /// Times a fingerprint entered (or renewed) quarantine.
    pub quarantine_events: u64,
    /// Idle engines shed by the LRU to make room.
    pub evictions: u64,
    /// Tenant dispatchers that exhausted their restart budget and
    /// aborted — contained to their own bulkhead.
    pub tenant_aborts: u64,
    /// In-place value refreshes committed through
    /// [`EngineFleet::refresh_tenant`] — live tenants and at-rest
    /// factors both count.
    pub value_refreshes: u64,
    /// Refresh attempts that did not commit (structure drift, bad
    /// pivots, mid-refresh fault); the old epoch kept serving in every
    /// case.
    pub refresh_failures: u64,
    /// Span/event digest from the [`crate::telemetry`] plane, captured
    /// with this snapshot. `TelemetryReport::default()` (disabled,
    /// empty) unless [`crate::telemetry::set_enabled`] was armed.
    pub telemetry: TelemetryReport,
}

/// Live per-tenant gauges: written where requests are admitted
/// ([`EngineFleet::submit`]) and completed ([`TenantObserver`]), read
/// by the eviction and budget checks.
#[derive(Debug, Default)]
struct TenantGauge {
    inflight_requests: AtomicUsize,
    inflight_bytes: AtomicUsize,
    /// Why the tenant's queue closed, when it closed for a reason a
    /// client should see in place of the queue's bare `ShuttingDown`
    /// ([`FleetError::BuildFailed`], [`FleetError::CacheFull`], …).
    terminal: OnceLock<FleetError>,
}

impl TenantGauge {
    /// A tenant-queue error in the fleet's vocabulary: the closed
    /// queue's `ShuttingDown` becomes the reason the tenant closed.
    fn lift(&self, e: ServeError) -> FleetError {
        match e {
            ServeError::ShuttingDown => {
                self.terminal.get().cloned().unwrap_or(FleetError::ShuttingDown)
            }
            e => FleetError::Serve(e),
        }
    }
}

/// The tenant queue's completion hook: the one place a fleet request
/// is counted out — `served`/`failed` and the in-flight gauges move
/// when the dispatcher completes the lane, whether or not anyone ever
/// collects the ticket.
#[derive(Debug)]
struct TenantObserver {
    gauge: Arc<TenantGauge>,
    counters: Arc<FleetCounters>,
    /// Payload bytes of one request (`n × 8`).
    bytes: usize,
}

impl QueueObserver for TenantObserver {
    fn completed(&self, ok: bool) {
        let counter = if ok { &self.counters.served } else { &self.counters.failed };
        counter.fetch_add(1, Ordering::Relaxed);
        // Release pairs with the Acquire loads in `pick_victim` and the
        // budget check: a tenant seen idle has published its results
        self.gauge.inflight_requests.fetch_sub(1, Ordering::AcqRel);
        self.gauge.inflight_bytes.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// A pending fleet request. Resolve it with [`FleetTicket::wait`] (or
/// the timed variants); dropping it abandons the result but the solve
/// still runs and the counters still reconcile.
#[derive(Debug)]
#[must_use = "the FleetTicket is the only way to collect this request's result"]
pub struct FleetTicket {
    ticket: Ticket,
    gauge: Arc<TenantGauge>,
}

impl FleetTicket {
    /// Block until the request completes.
    pub fn wait(self) -> Result<Vec<f64>, FleetError> {
        self.ticket.wait().map_err(|e| self.gauge.lift(e))
    }

    /// Block at most `timeout`. `Ok(result)` if the request completed
    /// in time; `Err(self)` returns the still-live ticket so the
    /// caller can keep waiting. `Duration::ZERO` is a pure poll.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<Vec<f64>, FleetError>, FleetTicket> {
        let FleetTicket { ticket, gauge } = self;
        match ticket.wait_timeout(timeout) {
            Ok(r) => Ok(r.map_err(|e| gauge.lift(e))),
            Err(ticket) => Err(FleetTicket { ticket, gauge }),
        }
    }

    /// Non-blocking poll: `wait_timeout(Duration::ZERO)`.
    pub fn try_wait(self) -> Result<Result<Vec<f64>, FleetError>, FleetTicket> {
        self.wait_timeout(Duration::ZERO)
    }
}

struct TenantEntry {
    join: Option<JoinHandle<()>>,
    gauge: Arc<TenantGauge>,
    /// Where this tenant's requests are enqueued — created at
    /// admission, so it accepts work while the engine still builds.
    queue: Arc<ServiceQueue>,
    /// The tenant's engine, published by its thread with the build's
    /// recharge. `None` while building: never an eviction victim, and
    /// the charged bytes are still the admission estimate.
    engine: Option<Arc<SolverEngine<'static>>>,
    /// Bytes currently charged against the cache budget for this
    /// tenant (reservation until the build recharges to actual).
    bytes: u64,
    last_used: u64,
}

impl TenantEntry {
    /// `Building` until the engine is published, then whatever the
    /// live queue says.
    fn health(&self) -> TenantHealth {
        if self.engine.is_none() {
            return TenantHealth::Building;
        }
        match self.queue.health() {
            ServiceHealth::Ok => TenantHealth::Ok,
            ServiceHealth::Degraded { reason } => TenantHealth::Degraded { reason },
            ServiceHealth::Draining => TenantHealth::Draining,
        }
    }

    /// Stop a tenant already taken from the map: shut its queue, which
    /// its thread drains before it returns, and join the thread.
    fn stop(mut self) {
        self.queue.shutdown();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Quarantine {
    until: Instant,
    failures: u32,
}

struct FleetState {
    factors: HashMap<FactorFingerprint, Arc<CscMatrix>>,
    tenants: HashMap<FactorFingerprint, TenantEntry>,
    quarantine: HashMap<FactorFingerprint, Quarantine>,
    cache_bytes: u64,
    cache_high_water: u64,
    lru_clock: u64,
    builds_inflight: usize,
    shutdown: bool,
}

struct FleetShared {
    cfg: FleetConfig,
    counters: Arc<FleetCounters>,
    st: Mutex<FleetState>,
    cv: Condvar,
}

impl FleetShared {
    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.st.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for a build slot. `false` means the fleet shut down while
    /// waiting and no permit was taken.
    fn acquire_build_permit(&self) -> bool {
        let mut st = self.lock();
        while st.builds_inflight >= self.cfg.build_concurrency && !st.shutdown {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.shutdown {
            return false;
        }
        st.builds_inflight += 1;
        true
    }

    fn release_build_permit(&self) {
        let mut st = self.lock();
        st.builds_inflight -= 1;
        self.cv.notify_all();
    }

    /// Remove `fp`'s entry and release its charged bytes — whoever
    /// removes the entry releases the bytes, exactly once — and wake
    /// refreshers waiting for its build.
    fn take(&self, st: &mut FleetState, fp: FactorFingerprint) -> Option<TenantEntry> {
        let e = st.tenants.remove(&fp)?;
        st.cache_bytes = st.cache_bytes.saturating_sub(e.bytes);
        self.cv.notify_all();
        Some(e)
    }

    /// Enter (or renew) quarantine for `fp` and tear down its entry.
    fn quarantine_and_remove(&self, fp: FactorFingerprint) {
        let mut st = self.lock();
        let cooldown = self.cfg.quarantine_cooldown;
        let q =
            st.quarantine.entry(fp).or_insert(Quarantine { until: Instant::now(), failures: 0 });
        q.failures += 1;
        q.until = Instant::now() + cooldown;
        self.counters.quarantine_events.fetch_add(1, Ordering::Relaxed);
        telemetry::instant(Site::FleetQuarantine, u64::from(q.failures));
        self.take(&mut st, fp);
    }

    /// Charge `fp` its `actual` bytes for `engine` — publishing the
    /// engine on the building entry after a build, or recharging the
    /// entry that holds it after a refresh. Shrinking always
    /// succeeds; growing may evict coldest idle engines, and if nothing
    /// can be shed the entry is removed (a live tenant is stopped too:
    /// it must not serve with no bytes charged) and the call fails with
    /// [`FleetError::CacheFull`]. Success wakes refreshers waiting for
    /// the build and clears any quarantine record — the factor proved
    /// itself. An entry that is gone or not this engine's (evicted,
    /// perhaps re-admitted, meanwhile) is left alone: its remover
    /// released the bytes.
    fn recharge(
        &self,
        fp: FactorFingerprint,
        engine: &Arc<SolverEngine<'static>>,
        actual: u64,
        publish: bool,
    ) -> Result<(), FleetError> {
        loop {
            let mut st = self.lock();
            let reserved = match st.tenants.get(&fp) {
                Some(e) if e.engine.as_ref().map_or(publish, |x| Arc::ptr_eq(x, engine)) => e.bytes,
                _ => return Err(FleetError::ShuttingDown),
            };
            let grow = actual.saturating_sub(reserved);
            if st.cache_bytes + grow <= self.cfg.cache_budget_bytes {
                st.cache_bytes = st.cache_bytes + actual - reserved;
                st.cache_high_water = st.cache_high_water.max(st.cache_bytes);
                let e = st.tenants.get_mut(&fp).expect("checked above");
                e.bytes = actual;
                e.engine = Some(Arc::clone(engine));
                st.quarantine.remove(&fp);
                self.cv.notify_all();
                return Ok(());
            }
            let Some(victim) = pick_victim(&st, Some(fp)) else {
                let e = self.take(&mut st, fp).expect("checked above");
                drop(st);
                if e.engine.is_some() {
                    e.stop(); // a building entry's thread is this one
                }
                return Err(FleetError::CacheFull {
                    needed_bytes: grow,
                    budget_bytes: self.cfg.cache_budget_bytes,
                });
            };
            let ve = self.take(&mut st, victim).expect("victim picked from this map");
            drop(st);
            self.evict(ve);
        }
    }

    /// Stop an idle tenant already taken from the map, and count it.
    fn evict(&self, e: TenantEntry) {
        telemetry::instant(Site::FleetEvict, e.bytes);
        e.stop();
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Coldest idle engine: not building (bytes still an estimate, thread
/// mid-build), no in-flight requests (pinning — eviction must never
/// strand a ticket), smallest LRU stamp. `exclude` keeps a recharging
/// tenant from evicting itself.
fn pick_victim(st: &FleetState, exclude: Option<FactorFingerprint>) -> Option<FactorFingerprint> {
    st.tenants
        .iter()
        .filter(|(fp, e)| {
            Some(**fp) != exclude
                && e.engine.is_some()
                && e.gauge.inflight_requests.load(Ordering::Acquire) == 0
        })
        .min_by_key(|(_, e)| e.last_used)
        .map(|(fp, _)| *fp)
}

/// Host bytes of one matrix the fleet keeps alive for a tenant.
fn matrix_host_bytes(m: &CscMatrix) -> u64 {
    ((m.n() + 1) * std::mem::size_of::<usize>()
        + m.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())) as u64
}

/// What a live tenant costs the cache: its engine, the matrix the
/// engine was built over (it keeps that `Arc` alive), and the stored
/// factor when a refresh has made it a different allocation.
fn charged_bytes(engine: &SolverEngine<'_>, stored: &CscMatrix) -> u64 {
    let built = engine.matrix();
    let second = if std::ptr::eq(built, stored) { 0 } else { matrix_host_bytes(stored) };
    matrix_host_bytes(built) + second + engine.footprint_bytes()
}

/// Admission-time footprint estimate, deliberately generous: the
/// analysis arrays are a small multiple of the matrix, and the
/// reservation is corrected to [`SolverEngine::footprint_bytes`] the
/// moment the build finishes — over-reserving briefly is safe, while
/// under-reserving could let live bytes cross the budget mid-build.
fn estimate_bytes(m: &CscMatrix) -> u64 {
    let host = matrix_host_bytes(m);
    let workspace = m.n() as u64 * 8 * (3 * PANEL_K as u64 + 2);
    host * 4 + workspace
}

/// The multi-tenant serving tier: a factor registry, a byte-bounded
/// engine cache, and one bulkheaded [`SolverService`] per live tenant.
/// See the [module docs](self) for the containment map.
///
/// All methods take `&self`; the fleet is `Sync` and meant to be
/// shared across client threads (e.g. behind an `Arc`).
pub struct EngineFleet {
    shared: Arc<FleetShared>,
    resources: Arc<EngineResources>,
}

impl std::fmt::Debug for EngineFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineFleet").field("report", &self.report()).finish()
    }
}

impl EngineFleet {
    /// Validate `cfg` and start an empty fleet (no threads until the
    /// first cold submit).
    pub fn new(cfg: FleetConfig) -> Result<EngineFleet, FleetError> {
        let cfg = cfg.validated()?;
        Ok(EngineFleet {
            shared: Arc::new(FleetShared {
                cfg,
                counters: Arc::new(FleetCounters::default()),
                st: Mutex::new(FleetState {
                    factors: HashMap::new(),
                    tenants: HashMap::new(),
                    quarantine: HashMap::new(),
                    cache_bytes: 0,
                    cache_high_water: 0,
                    lru_clock: 0,
                    builds_inflight: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            resources: Arc::new(EngineResources::new()),
        })
    }

    /// Register `m` under its content fingerprint (epoch 0) and return
    /// the routing key. Registration is cheap — no engine is built
    /// until the first submit. Re-registering a fingerprint replaces
    /// the stored matrix for *future* builds only.
    pub fn register(&self, m: Arc<CscMatrix>) -> FactorFingerprint {
        let fp = FactorFingerprint::of(&m);
        self.shared.lock().factors.insert(fp, m);
        fp
    }

    /// [`EngineFleet::register`] with an explicit value epoch — how a
    /// caller distinguishes numeric refreshes of one structure (see
    /// [`FactorFingerprint::next_epoch`]). Each epoch is its own
    /// tenant with its own engine and quarantine record.
    pub fn register_epoch(&self, m: Arc<CscMatrix>, epoch: u64) -> FactorFingerprint {
        let fp = FactorFingerprint::of(&m).with_epoch(epoch);
        self.shared.lock().factors.insert(fp, m);
        fp
    }

    /// Submit right-hand side `b` against the factor registered under
    /// `fp`. The request is copied into the tenant's service queue on
    /// the calling thread; a cold fingerprint is first admitted
    /// (reserving cache bytes, evicting coldest idle engines if
    /// needed), which creates that queue and starts the engine build
    /// on a fresh bulkhead thread — the request waits in the queue
    /// until the dispatcher exists.
    ///
    /// Never blocks on a solve. Typed rejections:
    /// [`FleetError::UnknownFactor`], [`FleetError::Quarantined`],
    /// [`FleetError::TenantQueueFull`], [`FleetError::CacheFull`],
    /// [`FleetError::ShuttingDown`] (also through a handle whose
    /// tenant was torn down since the lookup), and what the tenant's
    /// queue refuses at its door — a wrong-length or non-finite `b`,
    /// its own queue bound — as [`FleetError::Serve`].
    pub fn submit(&self, fp: FactorFingerprint, b: &[f64]) -> Result<FleetTicket, FleetError> {
        loop {
            let mut st = self.shared.lock();
            if st.shutdown {
                return Err(FleetError::ShuttingDown);
            }
            if let Some(q) = st.quarantine.get(&fp).copied() {
                let now = Instant::now();
                if q.until > now {
                    self.shared.counters.quarantine_rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(FleetError::Quarantined {
                        failures: q.failures,
                        retry_in: q.until - now,
                    });
                }
            }
            st.lru_clock += 1;
            let clock = st.lru_clock;

            // warm path: the tenant exists (serving or still building);
            // budget-check and pin it under the fleet lock, then enqueue
            // straight into its queue from this thread
            if let Some(entry) = st.tenants.get_mut(&fp) {
                let depth = entry.gauge.inflight_requests.load(Ordering::Acquire);
                let bytes_inflight = entry.gauge.inflight_bytes.load(Ordering::Acquire);
                let bytes = std::mem::size_of_val(b);
                if depth >= self.shared.cfg.max_tenant_requests
                    || bytes_inflight.saturating_add(bytes) > self.shared.cfg.max_tenant_bytes
                {
                    self.shared.counters.tenant_shed.fetch_add(1, Ordering::Relaxed);
                    return Err(FleetError::TenantQueueFull { depth, bytes: bytes_inflight });
                }
                entry.last_used = clock;
                entry.gauge.inflight_requests.fetch_add(1, Ordering::AcqRel);
                entry.gauge.inflight_bytes.fetch_add(bytes, Ordering::AcqRel);
                let gauge = Arc::clone(&entry.gauge);
                let queue = Arc::clone(&entry.queue);
                drop(st);
                return match queue.submit(b, None) {
                    Ok(ticket) => {
                        self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
                        Ok(FleetTicket { ticket, gauge })
                    }
                    Err(e) => {
                        // refused at the door (wrong length, non-finite,
                        // queue bound, or a tenant torn down since the
                        // lookup): nothing was queued, so the completion
                        // hook will not fire — unpin here
                        gauge.inflight_requests.fetch_sub(1, Ordering::AcqRel);
                        gauge.inflight_bytes.fetch_sub(bytes, Ordering::AcqRel);
                        Err(gauge.lift(e))
                    }
                };
            }

            // cold path: admit, reserve bytes, spawn the bulkhead
            let Some(matrix) = st.factors.get(&fp).map(Arc::clone) else {
                return Err(FleetError::UnknownFactor { fingerprint: fp });
            };
            if b.len() != matrix.n() {
                return Err(FleetError::Serve(ServeError::Solve(SolveError::DimensionMismatch {
                    n: matrix.n(),
                    rhs: b.len(),
                    index: None,
                    buffer: "b",
                })));
            }
            let needed = estimate_bytes(&matrix);
            if fault::fire(FaultSite::CacheAdmit) {
                // injected allocation pressure at the admission gate:
                // shed exactly like a full cache
                self.shared.counters.cache_admit_shed.fetch_add(1, Ordering::Relaxed);
                return Err(FleetError::CacheFull {
                    needed_bytes: needed,
                    budget_bytes: self.shared.cfg.cache_budget_bytes,
                });
            }
            if st.cache_bytes + needed > self.shared.cfg.cache_budget_bytes {
                let Some(victim) = pick_victim(&st, None) else {
                    return Err(FleetError::CacheFull {
                        needed_bytes: needed,
                        budget_bytes: self.shared.cfg.cache_budget_bytes,
                    });
                };
                let ve = self.shared.take(&mut st, victim).expect("victim picked from this map");
                drop(st);
                self.shared.evict(ve);
                continue;
            }
            // the tenant's queue exists from admission on, so requests
            // that arrive during the build wait in the service FIFO
            let gauge = Arc::new(TenantGauge::default());
            let mut svc_cfg = self.shared.cfg.service.clone();
            svc_cfg.supervision_seed = self.shared.cfg.seed ^ fp.structural;
            let observer = TenantObserver {
                gauge: Arc::clone(&gauge),
                counters: Arc::clone(&self.shared.counters),
                bytes: matrix.n() * std::mem::size_of::<f64>(),
            };
            let queue = ServiceQueue::new(matrix.n(), &svc_cfg, Some(Box::new(observer)))?;
            st.cache_bytes += needed;
            st.cache_high_water = st.cache_high_water.max(st.cache_bytes);
            self.shared.counters.builds_started.fetch_add(1, Ordering::Relaxed);
            st.tenants.insert(
                fp,
                TenantEntry {
                    join: None,
                    gauge: Arc::clone(&gauge),
                    queue: Arc::clone(&queue),
                    engine: None,
                    bytes: needed,
                    last_used: clock,
                },
            );
            let shared = Arc::clone(&self.shared);
            let resources = Arc::clone(&self.resources);
            let spawned = std::thread::Builder::new()
                .name(format!("sptrsv-fleet-{fp}"))
                .spawn(move || tenant_main(fp, matrix, shared, resources, gauge, queue));
            match spawned {
                Ok(j) => {
                    st.tenants.get_mut(&fp).expect("just inserted").join = Some(j);
                }
                Err(_) => {
                    self.shared.take(&mut st, fp);
                    return Err(FleetError::Serve(ServeError::Spawn));
                }
            }
            drop(st);
            // loop back: the warm path performs the actual enqueue
        }
    }

    /// Refresh the factor registered under `fp` with new numeric
    /// values **in place** — no second tenant, no rebuild, no symbolic
    /// work. `m2` must have the exact sparsity pattern of the
    /// registered matrix; only its values may differ. The routing key
    /// stays `fp`.
    ///
    /// A **live** tenant is refreshed on the calling thread, at once
    /// (it queues behind no request and pauses no panel); a tenant
    /// still building is refreshed once its engine is published. The
    /// refresh replaces the stored factor (so a later eviction +
    /// rebuild uses the new values), corrects the cache charge to the
    /// refreshed footprint, and bumps
    /// [`EngineFleet::tenant_value_epoch`]. A refresh that races an
    /// eviction commits to the evicted engine and the stored factor. A
    /// registered but **non-resident** fingerprint is refreshed at
    /// rest: validated the same way, stored for the next cold build,
    /// reported with `value_epoch` 0.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownFactor`] for an unregistered fingerprint;
    /// [`FleetError::Quarantined`] inside a cooldown (same gate as
    /// submits); [`FleetError::ShuttingDown`]; and
    /// [`FleetError::Serve`] wrapping the engine's typed rejection —
    /// [`SolveError::StructureMismatch`] on pattern drift, the factor
    /// audit's error on non-finite or zero pivots, or
    /// [`ServeError::Retryable`] when an injected
    /// [`FaultSite::ValueRefresh`] panic interrupted the refresh
    /// before commit. In every failure case the tenant keeps serving
    /// the old value epoch bit-identically.
    pub fn refresh_tenant(
        &self,
        fp: FactorFingerprint,
        m2: Arc<CscMatrix>,
    ) -> Result<RefreshReport, FleetError> {
        let _refresh = SpanGuard::enter(Site::FleetRefresh);
        let mut st = self.shared.lock();
        let (stored, live) = loop {
            if st.shutdown {
                return Err(FleetError::ShuttingDown);
            }
            if let Some(q) = st.quarantine.get(&fp).copied() {
                let now = Instant::now();
                if q.until > now {
                    self.shared.counters.quarantine_rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(FleetError::Quarantined {
                        failures: q.failures,
                        retry_in: q.until - now,
                    });
                }
            }
            let Some(stored) = st.factors.get(&fp).map(Arc::clone) else {
                return Err(FleetError::UnknownFactor { fingerprint: fp });
            };
            let Some(e) = st.tenants.get(&fp) else {
                break (stored, None);
            };
            // pin the published engine; a building tenant publishes
            // (or goes away) under this lock and wakes us
            if let Some(engine) = e.engine.clone() {
                let queue = Arc::clone(&e.queue);
                st.lru_clock += 1;
                let clock = st.lru_clock;
                st.tenants.get_mut(&fp).expect("checked above").last_used = clock;
                break (stored, Some((engine, queue)));
            }
            st = self.shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        drop(st);
        let outcome = match &live {
            // counted in the tenant's ServiceReport, like a service refresh
            Some((engine, queue)) => queue.run_refresh(|| engine.refresh_values(&m2)),
            // at rest: the same checks against the stored structure,
            // and the next cold build picks up the new values
            None => check_refresh(&stored, &m2)
                .map(|audit| RefreshReport { n: m2.n(), nnz: m2.nnz(), value_epoch: 0, audit })
                .map_err(ServeError::Solve),
        };
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                self.shared.counters.refresh_failures.fetch_add(1, Ordering::Relaxed);
                return Err(FleetError::Serve(e));
            }
        };
        let recharge = live.as_ref().map(|(engine, _)| (engine, charged_bytes(engine, &m2)));
        self.shared.lock().factors.insert(fp, m2);
        if let Some((engine, actual)) = recharge {
            // the first refresh adds the spare epoch's values and the
            // stored matrix; an entry evicted meanwhile is left alone
            let _ = self.shared.recharge(fp, engine, actual, false);
        }
        self.shared.counters.value_refreshes.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Committed value refreshes on `fp`'s live engine — 0 before the
    /// first [`EngineFleet::refresh_tenant`] (and while the engine
    /// builds), `None` for fingerprints without a live tenant.
    pub fn tenant_value_epoch(&self, fp: FactorFingerprint) -> Option<u64> {
        let st = self.shared.lock();
        st.tenants.get(&fp).map(|e| e.engine.as_ref().map_or(0, |e| e.value_epoch()))
    }

    /// Per-tenant condition, sorted by fingerprint for deterministic
    /// output: live tenants report their gauge; quarantined
    /// fingerprints without a live engine are appended as
    /// [`TenantHealth::Quarantined`].
    pub fn health(&self) -> Vec<(FactorFingerprint, TenantHealth)> {
        let st = self.shared.lock();
        let now = Instant::now();
        let mut v: Vec<_> = st.tenants.iter().map(|(fp, e)| (*fp, e.health())).collect();
        for (fp, q) in &st.quarantine {
            if !st.tenants.contains_key(fp) && q.until > now {
                v.push((
                    *fp,
                    TenantHealth::Quarantined { failures: q.failures, retry_in: q.until - now },
                ));
            }
        }
        v.sort_by_key(|(fp, _)| *fp);
        v
    }

    /// The live [`ServiceReport`] of a tenant's queue, read at the call
    /// (counters only — the pool-wide
    /// [`ServiceReport::spawn_shortfalls`] is not attributed to a
    /// tenant and reads 0). All zeros while the tenant is still
    /// building; `None` for fingerprints without a live tenant.
    pub fn tenant_report(&self, fp: FactorFingerprint) -> Option<ServiceReport> {
        let queue = Arc::clone(&self.shared.lock().tenants.get(&fp)?.queue);
        Some(queue.stats())
    }

    /// A point-in-time snapshot of the fleet counters and gauges.
    /// Also publishes the fleet gauges to the [`crate::telemetry`]
    /// registry and, when that plane is armed, attaches a span digest.
    pub fn report(&self) -> FleetReport {
        let st = self.shared.lock();
        let c = &self.shared.counters;
        let now = Instant::now();
        telemetry::gauge_set(Gauge::FleetTenantsLive, st.tenants.len() as u64);
        telemetry::gauge_set(Gauge::FleetCacheBytes, st.cache_bytes);
        FleetReport {
            tenants_live: st.tenants.len(),
            quarantined_now: st.quarantine.values().filter(|q| q.until > now).count(),
            cache_bytes: st.cache_bytes,
            cache_bytes_high_water: st.cache_high_water,
            cache_budget_bytes: self.shared.cfg.cache_budget_bytes,
            submitted: c.submitted.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            tenant_shed: c.tenant_shed.load(Ordering::Relaxed),
            cache_admit_shed: c.cache_admit_shed.load(Ordering::Relaxed),
            quarantine_rejections: c.quarantine_rejections.load(Ordering::Relaxed),
            builds_started: c.builds_started.load(Ordering::Relaxed),
            builds_ok: c.builds_ok.load(Ordering::Relaxed),
            builds_failed: c.builds_failed.load(Ordering::Relaxed),
            build_retries: c.build_retries.load(Ordering::Relaxed),
            quarantine_events: c.quarantine_events.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            tenant_aborts: c.tenant_aborts.load(Ordering::Relaxed),
            value_refreshes: c.value_refreshes.load(Ordering::Relaxed),
            refresh_failures: c.refresh_failures.load(Ordering::Relaxed),
            telemetry: telemetry::report(),
        }
    }

    /// Begin shutdown: reject new submits, stop and join every tenant
    /// (their queued work completes with typed errors per the service
    /// config), release all cache bytes. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        let entries: Vec<TenantEntry> = {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.cv.notify_all();
            let fps: Vec<_> = st.tenants.keys().copied().collect();
            fps.into_iter().filter_map(|fp| self.shared.take(&mut st, fp)).collect()
        };
        for e in entries {
            e.stop();
        }
    }
}

impl Drop for EngineFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The bulkhead: one tenant's whole life on one OS thread — build
/// (with retries, deadline and quarantine), recharge the byte
/// reservation and publish the engine, then dispatch the tenant's
/// queue on this same thread, supervised, until the queue is shut
/// down. Every exit path closes the queue, so whatever clients
/// enqueued resolves with a typed error; a panic here is caught and
/// contained.
fn tenant_main(
    fp: FactorFingerprint,
    matrix: Arc<CscMatrix>,
    shared: Arc<FleetShared>,
    resources: Arc<EngineResources>,
    gauge: Arc<TenantGauge>,
    queue: Arc<ServiceQueue>,
) {
    if let Err(why) = serve_tenant(fp, matrix, &shared, resources, &queue) {
        // first writer wins: a queue closes for exactly one reason
        let _ = gauge.terminal.set(why);
    }
    queue.close();
}

/// [`tenant_main`]'s body. `Ok` is a shutdown-driven exit (the
/// dispatcher drained the queue on the way out, and whoever shut it
/// removed the entry); `Err` is why the tenant is going away with
/// requests possibly still queued — the entry is already removed and
/// its bytes released when it returns.
fn serve_tenant(
    fp: FactorFingerprint,
    matrix: Arc<CscMatrix>,
    shared: &FleetShared,
    resources: Arc<EngineResources>,
    queue: &Arc<ServiceQueue>,
) -> Result<(), FleetError> {
    let cfg = &shared.cfg;
    if !shared.acquire_build_permit() {
        shared.take(&mut shared.lock(), fp);
        return Err(FleetError::ShuttingDown);
    }
    let deadline = Instant::now() + cfg.build_deadline;
    let mut attempts = 0u32;
    let mut engine = None;
    // one fleet.build span per admission, covering every retry — the
    // inner engine.build.* spans land inside it on the timeline
    let build_span = SpanGuard::enter(Site::FleetBuild);
    while attempts < cfg.build_attempts {
        attempts += 1;
        let built = catch_unwind(AssertUnwindSafe(|| {
            fault::fire_panic(FaultSite::EngineBuild);
            SolverEngine::build_owned(
                Arc::clone(&matrix),
                cfg.machine.clone(),
                &cfg.solve,
                Arc::clone(&resources),
            )
        }));
        match built {
            Ok(Ok(e)) if Instant::now() <= deadline => {
                engine = Some(Arc::new(e));
                break;
            }
            Ok(Ok(_)) => break,  // built, but past the deadline: too slow, fail
            Ok(Err(_)) => break, // typed engine error: deterministic, never retry
            Err(_) => {}         // panic: retryable
        }
        if attempts < cfg.build_attempts && Instant::now() < deadline {
            shared.counters.build_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff_delay(
                cfg.build_backoff,
                Duration::from_millis(100),
                cfg.seed ^ fp.structural,
                attempts,
            ));
        } else {
            break;
        }
    }
    shared.release_build_permit();
    drop(build_span);
    let Some(engine) = engine else {
        shared.counters.builds_failed.fetch_add(1, Ordering::Relaxed);
        shared.quarantine_and_remove(fp);
        return Err(FleetError::BuildFailed { attempts });
    };
    shared.recharge(fp, &engine, charged_bytes(&engine, &matrix), true)?;
    shared.counters.builds_ok.fetch_add(1, Ordering::Relaxed);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        SolverService::dispatch_on_caller(ServiceEngine::Solver(&engine), Arc::clone(queue))
    }));
    if ran.is_err() {
        // the dispatcher exhausted its restart budget and aborted;
        // the blast radius ends at this bulkhead
        shared.counters.tenant_aborts.fetch_add(1, Ordering::Relaxed);
        shared.quarantine_and_remove(fp);
        return Err(FleetError::Serve(ServeError::Retryable {
            reason: "tenant dispatcher aborted after exhausting its restart budget",
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handle cloned before its tenant went away — what a submit
    /// holds between the lookup and the enqueue — gets a typed refusal
    /// from the closed queue, in the fleet's vocabulary: never a hang,
    /// never a panic, nothing left pinned.
    #[test]
    fn a_stale_tenant_handle_is_refused_typed() {
        let fleet = EngineFleet::new(FleetConfig::default()).unwrap();
        let m = Arc::new(sparsemat::gen::banded_lower(64, 3, 3.0, 5));
        let fp = fleet.register(Arc::clone(&m));
        let (_, b) = crate::verify::rhs_for(&m, 1);
        fleet.submit(fp, &b).unwrap().wait().unwrap();
        let (queue, gauge) = {
            let st = fleet.shared.lock();
            let e = &st.tenants[&fp];
            (Arc::clone(&e.queue), Arc::clone(&e.gauge))
        };
        fleet.shutdown(); // stops the tenant exactly like an eviction: queue shutdown + join
        let refused = queue.submit(&b, None).map(drop).map_err(|e| gauge.lift(e));
        assert_eq!(refused, Err(FleetError::ShuttingDown));
        assert_eq!(gauge.inflight_requests.load(Ordering::Acquire), 0);

        // a tenant that closed for a reason hands that reason out instead
        gauge.terminal.set(FleetError::BuildFailed { attempts: 3 }).unwrap();
        let refused = queue.submit(&b, None).map(drop).map_err(|e| gauge.lift(e));
        assert_eq!(refused, Err(FleetError::BuildFailed { attempts: 3 }));
    }
}
