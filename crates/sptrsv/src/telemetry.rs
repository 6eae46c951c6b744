//! Unified telemetry plane: zero-allocation span tracing, a static
//! metrics registry, and exportable timelines shared by every layer
//! of the stack (engine build, the four warm solve tiers, the worker
//! pool, the serving front-end, and the fleet).
//!
//! # Design
//!
//! Recording is **lock-free and heap-allocation-free in steady
//! state**: each thread owns a fixed-capacity ring buffer of POD
//! events (4 × `u64` words per slot, guarded by a per-slot seqlock so
//! cross-thread snapshot reads are race-free without locks). The only
//! allocation a thread ever performs is the one-time creation of its
//! ring on the *first* event it records — after that warm-up, spans,
//! instants, counters, and histogram observations touch nothing but
//! pre-existing atomics. `tests/alloc_free.rs` pins this with the
//! counting global allocator, the same discipline the pool uses.
//!
//! When the sink is disabled (the default) every probe reduces to one
//! relaxed load of a cold [`AtomicBool`] — mirroring how
//! `fault::fire()` vanishes — so instrumented hot paths stay
//! bit-identical and allocation-identical to their pre-telemetry
//! form. Enable with [`set_enabled`]; this is a runtime toggle, not a
//! cargo feature, so both CI feature configs exercise it.
//!
//! Metrics (counters per [`Site`], [`Gauge`]s, and fixed-bucket
//! power-of-two-nanosecond latency [`Hist`]ograms with interpolated
//! p50/p95/p99) live in static atomic arrays registered at build
//! time and are snapshotted on demand by [`snapshot`].
//!
//! # Exporters
//!
//! [`chrome_trace_json`] renders a snapshot as a chrome://tracing
//! compatible JSON timeline; [`prometheus_text`] renders the metric
//! registry in Prometheus text exposition style; [`report`] distills
//! everything into the small [`TelemetryReport`] embedded by
//! `SolveReport`, `ServiceReport`, and `FleetReport`.

use std::cell::OnceCell;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Number of events each per-thread ring buffer retains (power of
/// two; older events are overwritten and counted as dropped).
pub const RING_CAPACITY: usize = 4096;
/// `u64` words per ring slot: `[seq, ts_ns, meta, arg]`.
const WORDS: usize = 4;
/// Sentinel sequence marking a slot mid-write.
const SEQ_INVALID: u64 = u64::MAX;
/// Number of fixed histogram buckets (power-of-two nanosecond edges;
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, bucket 0 holds
/// zero). 41 buckets cover up to ~18 minutes.
pub const HIST_BUCKETS: usize = 41;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static LOCAL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

/// Is the telemetry sink armed? One relaxed atomic load; inlined so
/// the disabled fast path costs a test-and-branch on a cold flag.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm the telemetry sink process-wide. Arming pins the
/// monotonic epoch (first call wins) so all timestamps share one
/// clock. Disarming stops recording but keeps accumulated state for
/// snapshotting.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Release);
}

/// Nanoseconds since the telemetry epoch (pinned on first use). The
/// shared monotonic clock every event timestamp draws from.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's small dense telemetry id (assigned on first use;
/// stable for the thread's lifetime, used as the timeline lane).
pub fn current_tid() -> u64 {
    LOCAL_TID.with(|t| *t)
}

/// Every instrumented location in the stack. The variant doubles as
/// the index into the static counter registry, and [`Site::name`] is
/// the exported span/counter name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Site {
    /// Engine build: level-set analysis; in the lazy calibration, the
    /// simulator's adjacency.
    BuildAnalyze = 0,
    /// Lazy calibration: execution-plan construction (cross-GPU edges).
    BuildPlan = 1,
    /// Engine build: Schedule IR (canonical order, chain stats) and the
    /// relabelled layout.
    BuildSchedule = 2,
    /// Lazy calibration: the simulation that seeds the report template,
    /// run on an engine's first `solve`/`calibration`/`cross_edges`.
    BuildCalibrate = 3,
    /// Warm tier: one serial sweep (`solve`/`solve_into`).
    SolveSerial = 4,
    /// Warm tier: fused multi-RHS panel kernel.
    SolvePanel = 5,
    /// Warm tier: batched multi-RHS dispatch over the pool.
    SolveBatch = 6,
    /// Analysis-free value refresh on an existing engine.
    ValueRefresh = 7,
    /// Serving: one request admitted (span covers admission checks).
    ServeAdmit = 8,
    /// Serving: the dispatcher flushed a group (arg = flush cause).
    ServeFlush = 9,
    /// Serving: one coalesced panel solve.
    ServePanel = 10,
    /// Serving: one ticket resolved (arg = queue-wait ns).
    ServeTicket = 11,
    /// Fleet: one tenant engine build (span covers retries).
    FleetBuild = 12,
    /// Fleet: a tenant was quarantined.
    FleetQuarantine = 13,
    /// Fleet: a tenant was evicted from the factor cache.
    FleetEvict = 14,
    /// Fleet: one tenant value refresh (live or at-rest).
    FleetRefresh = 15,
}

/// Number of [`Site`] variants (size of the counter registry).
pub const SITE_COUNT: usize = 16;

impl Site {
    /// All sites, in registry (discriminant) order.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::BuildAnalyze,
        Site::BuildPlan,
        Site::BuildSchedule,
        Site::BuildCalibrate,
        Site::SolveSerial,
        Site::SolvePanel,
        Site::SolveBatch,
        Site::ValueRefresh,
        Site::ServeAdmit,
        Site::ServeFlush,
        Site::ServePanel,
        Site::ServeTicket,
        Site::FleetBuild,
        Site::FleetQuarantine,
        Site::FleetEvict,
        Site::FleetRefresh,
    ];

    /// The exported (dotted, layer-qualified) name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::BuildAnalyze => "engine.build.analyze",
            Site::BuildPlan => "engine.build.plan",
            Site::BuildSchedule => "engine.build.schedule",
            Site::BuildCalibrate => "engine.build.calibrate",
            Site::SolveSerial => "engine.solve.serial",
            Site::SolvePanel => "engine.solve.panel",
            Site::SolveBatch => "engine.solve.batch",
            Site::ValueRefresh => "engine.refresh.values",
            Site::ServeAdmit => "serve.admit",
            Site::ServeFlush => "serve.flush",
            Site::ServePanel => "serve.panel",
            Site::ServeTicket => "serve.ticket",
            Site::FleetBuild => "fleet.build",
            Site::FleetQuarantine => "fleet.quarantine",
            Site::FleetEvict => "fleet.evict",
            Site::FleetRefresh => "fleet.refresh",
        }
    }

    fn from_index(i: u32) -> Option<Site> {
        Site::ALL.get(i as usize).copied()
    }
}

/// What a ring event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A span opened (paired with the next [`Kind::SpanExit`] for the
    /// same site on the same thread).
    SpanEnter,
    /// A span closed.
    SpanExit,
    /// A point-in-time event (`arg` is site-specific).
    Instant,
    /// A counter delta (`arg` is the increment).
    Count,
}

impl Kind {
    fn from_bits(b: u32) -> Kind {
        match b {
            0 => Kind::SpanEnter,
            1 => Kind::SpanExit,
            3 => Kind::Count,
            _ => Kind::Instant,
        }
    }

    fn bits(self) -> u64 {
        match self {
            Kind::SpanEnter => 0,
            Kind::SpanExit => 1,
            Kind::Instant => 2,
            Kind::Count => 3,
        }
    }
}

/// Process-wide gauges (point-in-time values, overwritten in place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Gauge {
    /// Requests queued in the serving dispatcher right now.
    ServeQueueDepth = 0,
    /// Live (non-quarantined) tenants in the fleet.
    FleetTenantsLive = 1,
    /// Bytes currently charged against the fleet factor cache.
    FleetCacheBytes = 2,
}

/// Number of [`Gauge`] variants.
pub const GAUGE_COUNT: usize = 3;

impl Gauge {
    /// All gauges, in registry order.
    pub const ALL: [Gauge; GAUGE_COUNT] =
        [Gauge::ServeQueueDepth, Gauge::FleetTenantsLive, Gauge::FleetCacheBytes];

    /// The exported (snake_case) name of this gauge.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::ServeQueueDepth => "serve_queue_depth",
            Gauge::FleetTenantsLive => "fleet_tenants_live",
            Gauge::FleetCacheBytes => "fleet_cache_bytes",
        }
    }
}

/// Fixed-bucket latency histograms (power-of-two nanosecond edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Hist {
    /// Wall time of one serial warm solve.
    SolveSerialNs = 0,
    /// Wall time of one fused panel warm solve.
    SolvePanelNs = 1,
    /// Wall time of one batched warm solve.
    SolveBatchNs = 2,
    /// Per-ticket queue wait (submit → dispatch) in the server.
    ServeQueueWaitNs = 3,
    /// Per-group panel solve time in the server.
    ServeSolveNs = 4,
    /// Wall time of one full engine build.
    BuildNs = 5,
    /// Wall time of one value refresh.
    RefreshNs = 6,
}

/// Number of [`Hist`] variants.
pub const HIST_COUNT: usize = 7;

impl Hist {
    /// All histograms, in registry order.
    pub const ALL: [Hist; HIST_COUNT] = [
        Hist::SolveSerialNs,
        Hist::SolvePanelNs,
        Hist::SolveBatchNs,
        Hist::ServeQueueWaitNs,
        Hist::ServeSolveNs,
        Hist::BuildNs,
        Hist::RefreshNs,
    ];

    /// The exported (snake_case) name of this histogram.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SolveSerialNs => "solve_serial_ns",
            Hist::SolvePanelNs => "solve_panel_ns",
            Hist::SolveBatchNs => "solve_batch_ns",
            Hist::ServeQueueWaitNs => "serve_queue_wait_ns",
            Hist::ServeSolveNs => "serve_solve_ns",
            Hist::BuildNs => "engine_build_ns",
            Hist::RefreshNs => "value_refresh_ns",
        }
    }
}

static COUNTERS: [AtomicU64; SITE_COUNT] = [const { AtomicU64::new(0) }; SITE_COUNT];
static GAUGES: [AtomicU64; GAUGE_COUNT] = [const { AtomicU64::new(0) }; GAUGE_COUNT];
static HIST_SUMS: [AtomicU64; HIST_COUNT] = [const { AtomicU64::new(0) }; HIST_COUNT];
static HIST_BINS: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT] =
    [const { [const { AtomicU64::new(0) }; HIST_BUCKETS] }; HIST_COUNT];

/// One thread's event ring. Slots are quads of atomics written only
/// by the owning thread under a per-slot seqlock (invalidate →
/// payload → publish) so [`snapshot`] can read from any thread
/// without locks and detect torn slots.
struct Ring {
    tid: u64,
    head: AtomicU64,
    reset_mark: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(tid: u64) -> Ring {
        let slots = (0..RING_CAPACITY * WORDS)
            .map(|i| AtomicU64::new(if i % WORDS == 0 { SEQ_INVALID } else { 0 }))
            .collect();
        Ring { tid, head: AtomicU64::new(0), reset_mark: AtomicU64::new(0), slots }
    }

    #[inline]
    fn record(&self, kind: Kind, site: Site, arg: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        let base = (seq as usize & (RING_CAPACITY - 1)) * WORDS;
        self.slots[base].store(SEQ_INVALID, Ordering::Relaxed);
        fence(Ordering::Release);
        self.slots[base + 1].store(now_ns(), Ordering::Relaxed);
        self.slots[base + 2].store((kind.bits() << 32) | site as u32 as u64, Ordering::Relaxed);
        self.slots[base + 3].store(arg, Ordering::Relaxed);
        self.slots[base].store(seq, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Append this ring's valid events to `out`; returns
    /// `(total_since_reset, dropped)`.
    fn drain(&self, out: &mut Vec<EventRecord>) -> (u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let mark = self.reset_mark.load(Ordering::Acquire);
        let total = head.saturating_sub(mark);
        let start = head.saturating_sub(RING_CAPACITY as u64).max(mark);
        let mut kept = 0u64;
        for seq in start..head {
            let base = (seq as usize & (RING_CAPACITY - 1)) * WORDS;
            let s1 = self.slots[base].load(Ordering::Acquire);
            let ts_ns = self.slots[base + 1].load(Ordering::Relaxed);
            let meta = self.slots[base + 2].load(Ordering::Relaxed);
            let arg = self.slots[base + 3].load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = self.slots[base].load(Ordering::Relaxed);
            if s1 != seq || s2 != seq {
                continue; // torn: overwritten while we read
            }
            let Some(site) = Site::from_index((meta & 0xffff_ffff) as u32) else { continue };
            let kind = Kind::from_bits((meta >> 32) as u32);
            out.push(EventRecord { ts_ns, kind, site, arg, tid: self.tid, seq });
            kept += 1;
        }
        (total, total - kept)
    }
}

/// Run `f` against this thread's ring, creating and registering it on
/// first use (the one allocation a recording thread ever performs).
#[inline]
fn with_ring(f: impl FnOnce(&Ring)) {
    let _ = LOCAL_RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(Ring::new(current_tid()));
            REGISTRY.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// Eagerly create (and register) the calling thread's event ring, so
/// later probes on this thread are guaranteed allocation-free even if
/// the sink is enabled mid-run. Long-lived threads that may record
/// from allocation-sensitive sections (the pool workers) call this
/// once at startup; everyone else pays the same one-time cost lazily
/// on their first recorded event.
pub fn warm_thread() {
    with_ring(|_| {});
}

/// Bump a site counter by `delta` and record a counter-delta event.
/// No-op (one relaxed load) when the sink is disabled.
#[inline]
pub fn counter_add(site: Site, delta: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[site as usize].fetch_add(delta, Ordering::Relaxed);
    with_ring(|r| r.record(Kind::Count, site, delta));
}

/// Record a point-in-time event at `site` (and bump its counter).
/// No-op (one relaxed load) when the sink is disabled.
#[inline]
pub fn instant(site: Site, arg: u64) {
    if !enabled() {
        return;
    }
    COUNTERS[site as usize].fetch_add(1, Ordering::Relaxed);
    with_ring(|r| r.record(Kind::Instant, site, arg));
}

/// Overwrite a gauge. No-op when the sink is disabled.
#[inline]
pub fn gauge_set(gauge: Gauge, value: u64) {
    if !enabled() {
        return;
    }
    GAUGES[gauge as usize].store(value, Ordering::Relaxed);
}

/// Record one observation into a latency histogram. No-op when the
/// sink is disabled.
#[inline]
pub fn observe(hist: Hist, value_ns: u64) {
    if !enabled() {
        return;
    }
    let bucket = (64 - value_ns.leading_zeros() as usize).min(HIST_BUCKETS - 1);
    HIST_BINS[hist as usize][bucket].fetch_add(1, Ordering::Relaxed);
    HIST_SUMS[hist as usize].fetch_add(value_ns, Ordering::Relaxed);
}

/// RAII span: records `SpanEnter` on construction and `SpanExit` on
/// drop. Disarmed (no events, no allocation) when the sink is
/// disabled at enter time.
pub struct SpanGuard {
    site: Site,
    armed: bool,
}

impl SpanGuard {
    /// Open a span at `site`.
    #[inline]
    pub fn enter(site: Site) -> SpanGuard {
        SpanGuard::enter_on(true, site)
    }

    /// Open a span only when `cond` holds (e.g. "only if the panel
    /// runs");
    /// otherwise the guard is inert.
    #[inline]
    pub fn enter_on(cond: bool, site: Site) -> SpanGuard {
        let armed = cond && enabled();
        if armed {
            COUNTERS[site as usize].fetch_add(1, Ordering::Relaxed);
            with_ring(|r| r.record(Kind::SpanEnter, site, 0));
        }
        SpanGuard { site, armed }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            with_ring(|r| r.record(Kind::SpanExit, self.site, 0));
        }
    }
}

/// A start timestamp for a histogram observation; `0` means the sink
/// was disabled at start and [`Stopwatch::stop`] is a no-op.
pub struct Stopwatch(u64);

impl Stopwatch {
    /// Capture the start time (disarmed when the sink is disabled).
    #[inline]
    pub fn start() -> Stopwatch {
        if enabled() {
            Stopwatch(now_ns().max(1))
        } else {
            Stopwatch(0)
        }
    }

    /// Record the elapsed time into `hist` (no-op when disarmed).
    #[inline]
    pub fn stop(self, hist: Hist) {
        if self.0 != 0 {
            observe(hist, now_ns().saturating_sub(self.0));
        }
    }
}

/// One decoded ring event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// What the event records.
    pub kind: Kind,
    /// Where it was recorded.
    pub site: Site,
    /// Site-specific argument (counter delta, flush cause, …).
    pub arg: u64,
    /// Recording thread's telemetry id.
    pub tid: u64,
    /// Per-thread sequence number (recording order).
    pub seq: u64,
}

/// A snapshotted histogram with interpolated quantiles.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Exported histogram name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (ns).
    pub sum: u64,
    /// Raw bucket counts (bucket `i >= 1` holds `[2^(i-1), 2^i)` ns).
    pub buckets: [u64; HIST_BUCKETS],
    /// Interpolated 50th percentile (ns).
    pub p50: f64,
    /// Interpolated 95th percentile (ns).
    pub p95: f64,
    /// Interpolated 99th percentile (ns).
    pub p99: f64,
}

/// A point-in-time capture of every ring and the metric registry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Whether the sink was armed when the snapshot was taken.
    pub enabled: bool,
    /// All readable events, sorted by `(tid, seq)`.
    pub events: Vec<EventRecord>,
    /// Events recorded since the last [`reset`] (including dropped).
    pub total_events: u64,
    /// Events lost to ring wraparound (or torn mid-snapshot).
    pub dropped: u64,
    /// Per-site counters, in [`Site::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histograms, in [`Hist::ALL`] order.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Interpolate quantile `q` (in `[0, 1]`) from power-of-two buckets.
fn bucket_quantile(buckets: &[u64; HIST_BUCKETS], q: f64) -> f64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let target = q * count as f64;
    let mut acc = 0.0;
    for (i, &b) in buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        let prev = acc;
        acc += b as f64;
        if acc >= target {
            let lower = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
            let upper = if i == 0 { 1.0 } else { (1u64 << i.min(62)) as f64 };
            let frac = ((target - prev) / b as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * frac;
        }
    }
    (1u64 << (HIST_BUCKETS - 1).min(62)) as f64
}

/// Capture every thread's ring plus the full metric registry. Safe to
/// call from any thread at any time; concurrently-written slots are
/// detected by the seqlock and skipped.
pub fn snapshot() -> Snapshot {
    let rings: Vec<Arc<Ring>> =
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner).iter().map(Arc::clone).collect();
    let mut events = Vec::new();
    let mut total_events = 0u64;
    let mut dropped = 0u64;
    for ring in &rings {
        let (t, d) = ring.drain(&mut events);
        total_events += t;
        dropped += d;
    }
    events.sort_by_key(|e| (e.tid, e.seq));
    let counters = Site::ALL
        .iter()
        .map(|&s| (s.name(), COUNTERS[s as usize].load(Ordering::Relaxed)))
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| (g.name(), GAUGES[g as usize].load(Ordering::Relaxed)))
        .collect();
    let histograms = Hist::ALL
        .iter()
        .map(|&h| {
            let mut buckets = [0u64; HIST_BUCKETS];
            for (b, a) in buckets.iter_mut().zip(HIST_BINS[h as usize].iter()) {
                *b = a.load(Ordering::Relaxed);
            }
            HistogramSnapshot {
                name: h.name(),
                count: buckets.iter().sum(),
                sum: HIST_SUMS[h as usize].load(Ordering::Relaxed),
                buckets,
                p50: bucket_quantile(&buckets, 0.50),
                p95: bucket_quantile(&buckets, 0.95),
                p99: bucket_quantile(&buckets, 0.99),
            }
        })
        .collect();
    Snapshot { enabled: enabled(), events, total_events, dropped, counters, gauges, histograms }
}

/// Discard accumulated events and zero every counter, gauge, and
/// histogram. Rings are not deallocated (threads keep recording into
/// them); events already recorded become invisible to [`snapshot`].
pub fn reset() {
    let rings: Vec<Arc<Ring>> =
        REGISTRY.lock().unwrap_or_else(PoisonError::into_inner).iter().map(Arc::clone).collect();
    for ring in &rings {
        ring.reset_mark.store(ring.head.load(Ordering::Acquire), Ordering::Release);
    }
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    for s in &HIST_SUMS {
        s.store(0, Ordering::Relaxed);
    }
    for bins in &HIST_BINS {
        for b in bins {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Per-site aggregate of completed spans in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Exported site name.
    pub site: &'static str,
    /// Completed (enter/exit paired) spans.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
}

/// The compact cross-layer telemetry digest embedded by the
/// per-subsystem reports (`SolveReport`, `ServiceReport`,
/// `FleetReport`). `Default` (all-zero, disabled) when the sink was
/// never armed, so embedding it costs nothing on untraced paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Whether the sink was armed when the report was produced.
    pub enabled: bool,
    /// Events recorded since the last [`reset`] (including dropped).
    pub events: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Aggregates of completed spans, in [`Site::ALL`] order
    /// (sites with zero spans omitted).
    pub spans: Vec<SpanSummary>,
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.enabled {
            return write!(f, "telemetry: disabled");
        }
        write!(f, "telemetry: {} events ({} dropped)", self.events, self.dropped)?;
        for s in &self.spans {
            write!(f, "; {} {}x/{:.3}ms", s.site, s.count, s.total_ns as f64 / 1e6)?;
        }
        Ok(())
    }
}

/// Distill a snapshot into a [`TelemetryReport`] by pairing span
/// enter/exit events per thread and site.
pub fn report_from(snap: &Snapshot) -> TelemetryReport {
    let mut count = [0u64; SITE_COUNT];
    let mut total = [0u64; SITE_COUNT];
    // One open-span stack per (thread, site); events are (tid, seq)
    // sorted so a linear pass sees each thread's recording order.
    let mut stacks: Vec<(u64, u32, Vec<u64>)> = Vec::new();
    for e in &snap.events {
        let idx = e.site as u32;
        match e.kind {
            Kind::SpanEnter => {
                if let Some(st) = stacks.iter_mut().find(|(t, s, _)| *t == e.tid && *s == idx) {
                    st.2.push(e.ts_ns);
                } else {
                    stacks.push((e.tid, idx, vec![e.ts_ns]));
                }
            }
            Kind::SpanExit => {
                if let Some(st) = stacks.iter_mut().find(|(t, s, _)| *t == e.tid && *s == idx) {
                    if let Some(start) = st.2.pop() {
                        count[idx as usize] += 1;
                        total[idx as usize] += e.ts_ns.saturating_sub(start);
                    }
                }
            }
            Kind::Instant | Kind::Count => {}
        }
    }
    let spans = Site::ALL
        .iter()
        .filter(|&&s| count[s as usize] > 0)
        .map(|&s| SpanSummary {
            site: s.name(),
            count: count[s as usize],
            total_ns: total[s as usize],
        })
        .collect();
    TelemetryReport {
        enabled: snap.enabled,
        events: snap.total_events,
        dropped: snap.dropped,
        spans,
    }
}

/// Snapshot and distill in one call. Returns `TelemetryReport::default()`
/// without touching the registry when the sink is disabled, so report
/// construction on untraced paths stays allocation-free.
pub fn report() -> TelemetryReport {
    if !enabled() {
        return TelemetryReport::default();
    }
    report_from(&snapshot())
}

/// Render a snapshot as a chrome://tracing compatible JSON array
/// (load via `chrome://tracing` or `ui.perfetto.dev`). Span
/// enter/exit become `"B"`/`"E"` duration events, instants `"i"`,
/// counter deltas `"C"`; timestamps are microseconds since the
/// telemetry epoch and thread lanes are the telemetry tids.
pub fn chrome_trace_json(snap: &Snapshot) -> String {
    let mut evs: Vec<&EventRecord> = snap.events.iter().collect();
    evs.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
    let mut out = String::with_capacity(evs.len() * 96 + 2);
    out.push('[');
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match e.kind {
            Kind::SpanEnter => "B",
            Kind::SpanExit => "E",
            Kind::Instant => "i",
            Kind::Count => "C",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"sptrsv\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
            e.site.name(),
            ph,
            e.ts_ns as f64 / 1000.0,
            e.tid
        );
        match e.kind {
            Kind::Instant => {
                let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"arg\":{}}}", e.arg);
            }
            Kind::Count => {
                let _ = write!(out, ",\"args\":{{\"value\":{}}}", e.arg);
            }
            Kind::SpanEnter | Kind::SpanExit => {}
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// Render the metric registry of a snapshot in Prometheus text
/// exposition style: per-site event counters as one labelled family,
/// gauges, and full histogram bucket/sum/count series with
/// interpolated p50/p95/p99 as companion gauges.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("# TYPE sptrsv_site_events_total counter\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "sptrsv_site_events_total{{site=\"{name}\"}} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "# TYPE sptrsv_{name} gauge\nsptrsv_{name} {v}");
    }
    for h in &snap.histograms {
        let _ = writeln!(out, "# TYPE sptrsv_{} histogram", h.name);
        let mut cum = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            if b == 0 && i != 0 {
                continue; // keep the exposition compact: only occupied buckets
            }
            cum += b;
            let le = 1u64 << i.min(62);
            let _ = writeln!(out, "sptrsv_{}_bucket{{le=\"{}\"}} {}", h.name, le, cum);
        }
        let _ = writeln!(out, "sptrsv_{}_bucket{{le=\"+Inf\"}} {}", h.name, h.count);
        let _ = writeln!(out, "sptrsv_{}_sum {}", h.name, h.sum);
        let _ = writeln!(out, "sptrsv_{}_count {}", h.name, h.count);
        let _ = writeln!(out, "sptrsv_{}_p50 {:.1}", h.name, h.p50);
        let _ = writeln!(out, "sptrsv_{}_p95 {:.1}", h.name, h.p95);
        let _ = writeln!(out, "sptrsv_{}_p99 {:.1}", h.name, h.p99);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64, seq: u64, ts_ns: u64, kind: Kind, site: Site, arg: u64) -> EventRecord {
        EventRecord { ts_ns, kind, site, arg, tid, seq }
    }

    fn synthetic(events: Vec<EventRecord>) -> Snapshot {
        let n = events.len() as u64;
        Snapshot {
            enabled: true,
            events,
            total_events: n,
            dropped: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn site_indices_match_registry_order() {
        for (i, &s) in Site::ALL.iter().enumerate() {
            assert_eq!(s as usize, i);
            assert_eq!(Site::from_index(i as u32), Some(s));
        }
        assert_eq!(Site::from_index(SITE_COUNT as u32), None);
        for (i, &g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g as usize, i);
        }
        for (i, &h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h as usize, i);
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let bucket = |v: u64| (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        let mut last = 0;
        for shift in 0..64 {
            let b = bucket(1u64 << shift);
            assert!(b >= last && b < HIST_BUCKETS);
            last = b;
        }
    }

    #[test]
    fn quantile_interpolation_lands_inside_the_bucket() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[11] = 100; // 100 observations in [1024, 2048)
        let p50 = bucket_quantile(&buckets, 0.50);
        let p99 = bucket_quantile(&buckets, 0.99);
        assert!((1024.0..2048.0).contains(&p50), "p50 = {p50}");
        assert!((1024.0..=2048.0).contains(&p99), "p99 = {p99}");
        assert!(p99 > p50);
        assert_eq!(bucket_quantile(&[0; HIST_BUCKETS], 0.5), 0.0);
    }

    #[test]
    fn report_pairs_spans_per_thread_and_site() {
        let s = Site::SolvePanel;
        let snap = synthetic(vec![
            ev(1, 0, 100, Kind::SpanEnter, s, 0),
            ev(1, 1, 400, Kind::SpanExit, s, 0),
            ev(2, 0, 200, Kind::SpanEnter, s, 0),
            ev(2, 1, 250, Kind::SpanExit, s, 0),
            // unmatched exit (enter lost to wraparound): ignored
            ev(3, 0, 900, Kind::SpanExit, s, 0),
        ]);
        let rep = report_from(&snap);
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].site, "engine.solve.panel");
        assert_eq!(rep.spans[0].count, 2);
        assert_eq!(rep.spans[0].total_ns, 350);
        let line = rep.to_string();
        assert!(line.contains("engine.solve.panel 2x"), "{line}");
    }

    #[test]
    fn chrome_trace_renders_all_phases() {
        let snap = synthetic(vec![
            ev(1, 0, 1000, Kind::SpanEnter, Site::ServePanel, 0),
            ev(1, 1, 2500, Kind::SpanExit, Site::ServePanel, 0),
            ev(1, 2, 3000, Kind::Instant, Site::ServeFlush, 2),
            ev(1, 3, 3500, Kind::Count, Site::ServeTicket, 4),
        ]);
        let json = chrome_trace_json(&snap);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"args\":{\"value\":4}"));
        assert_eq!(chrome_trace_json(&synthetic(Vec::new())), "[]");
    }

    #[test]
    fn prometheus_text_emits_registered_families() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[5] = 3;
        let snap = Snapshot {
            enabled: true,
            events: Vec::new(),
            total_events: 0,
            dropped: 0,
            counters: vec![("engine.solve.panel", 7)],
            gauges: vec![("serve_queue_depth", 2)],
            histograms: vec![HistogramSnapshot {
                name: "serve_solve_ns",
                count: 3,
                sum: 60,
                buckets,
                p50: 24.0,
                p95: 31.0,
                p99: 31.7,
            }],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("sptrsv_site_events_total{site=\"engine.solve.panel\"} 7"));
        assert!(text.contains("sptrsv_serve_queue_depth 2"));
        assert!(text.contains("sptrsv_serve_solve_ns_bucket{le=\"32\"} 3"));
        assert!(text.contains("sptrsv_serve_solve_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sptrsv_serve_solve_ns_sum 60"));
        assert!(text.contains("sptrsv_serve_solve_ns_count 3"));
        assert!(text.contains("sptrsv_serve_solve_ns_p95 31.0"));
    }

    #[test]
    fn disabled_probes_are_inert_and_report_is_default() {
        // Telemetry is process-global; this test only asserts the
        // *disabled* fast path, which other tests in this binary do
        // not flip (the armed integration tests live in
        // tests/telemetry.rs, a separate process).
        assert!(!enabled());
        counter_add(Site::ServeAdmit, 1);
        instant(Site::ServeFlush, 0);
        gauge_set(Gauge::ServeQueueDepth, 9);
        observe(Hist::ServeSolveNs, 123);
        let sw = Stopwatch::start();
        sw.stop(Hist::ServeSolveNs);
        drop(SpanGuard::enter(Site::ServeAdmit));
        drop(SpanGuard::enter_on(false, Site::ServeAdmit));
        assert_eq!(report(), TelemetryReport::default());
        assert_eq!(report().to_string(), "telemetry: disabled");
    }
}
