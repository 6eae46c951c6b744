//! Deterministic, seed-driven fault injection for the serving stack.
//!
//! Long-lived serving processes meet failures the unit tests of a
//! solver kernel never provoke: worker threads that cannot spawn, pool
//! tasks that panic, a dispatcher that dies mid-panel, admission paths
//! that shed under memory pressure, and right-hand sides corrupted
//! between admission and dispatch. This module gives the chaos suite a
//! way to *schedule* those failures deterministically: a [`FaultPlan`]
//! is seeded with one `u64`, armed per scope with [`with_plan`], and
//! every instrumented site ([`FaultSite`]) asks the plan whether to
//! fire on each pass. The decision for probe `k` of site `s` under
//! seed `g` is a pure function of `(g, s, k)` (a PCG32 stream per
//! site, one draw per probe), so a failing chaos seed replays its
//! exact fault schedule on every rerun.
//!
//! ## Zero overhead when disabled
//!
//! Without the `fault-inject` cargo feature every probe compiles to a
//! constant `false` and [`with_plan`] is a plain call of its closure —
//! the serving hot path carries no atomic loads, no branches, no
//! allocations (the counting-allocator test in
//! `crates/sptrsv/tests/alloc_free.rs` covers the instrumented paths).
//! With the feature enabled but no plan installed, a probe is one
//! relaxed atomic load of a cold flag.
//!
//! ## Hermetic installation
//!
//! [`with_plan`] installs the plan process-globally (the dispatcher
//! and pool workers are separate threads and must observe it), saves
//! whatever plan was active before, and restores it on exit — even by
//! panic — so chaos tests compose. Scoping is an explicit **LIFO
//! stack on one thread**: nested scopes shadow the outer plan for
//! their duration and restore it on exit (tested, not incidental).
//! Two *concurrent* scopes on different threads can never both be
//! honored by one process-global plan, so the inner [`with_plan`]
//! panics with a diagnostic instead of silently clobbering the other
//! thread's schedule — chaos tests serialize on a mutex and never see
//! it; a test that forgets gets an immediate loud failure rather than
//! a flaky cross-contaminated fault schedule.

use std::sync::Arc;

/// An instrumented failure point in the pool / engine / serve stack.
///
/// Each site keys its own deterministic decision stream in a
/// [`FaultPlan`]; the containment story per site is documented in the
/// failure-modes table of the [`crate::serve`] module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A [`crate::pool`] worker thread fails to spawn: `ensure_threads`
    /// stops growing and a pooled batch narrows — its submitting thread
    /// runs the chunks no worker takes, with the same bits.
    WorkerSpawn = 0,
    /// A pool task body panics on a worker thread — the panic is
    /// latched and re-raised on the submitting thread, exactly like a
    /// real task bug.
    WorkerTaskPanic = 1,
    /// The serving dispatcher thread panics between panels. Under
    /// [`crate::serve::SolverService::run_supervised`] it restarts with
    /// backoff; in-flight tickets resolve as
    /// [`crate::serve::ServeError::Retryable`].
    DispatcherPanic = 2,
    /// The fused panel solve panics mid-kernel: the panel's requests
    /// fail typed, and repeated fires trip the serving circuit breaker
    /// onto the per-request serial path.
    PanelSolve = 3,
    /// Admission control sheds an otherwise admissible request
    /// (simulating allocation pressure): the client sees
    /// [`crate::serve::ServeError::QueueFull`] and may retry.
    AdmissionAlloc = 4,
    /// A right-hand side is corrupted to NaN *after* the admission
    /// scan accepted it — the bit-flip case the opt-in post-solve
    /// output scan exists to contain.
    RhsCorruptNonFinite = 5,
    /// An engine build panics on the fleet's build pool (a poisoned
    /// factor, an analysis bug): [`crate::fleet::EngineFleet`] retries
    /// with seeded backoff and quarantines the fingerprint when the
    /// attempt budget is exhausted
    /// ([`crate::fleet::FleetError::Quarantined`]).
    EngineBuild = 6,
    /// Factor-cache admission sheds a cold request under (simulated)
    /// memory pressure before reserving cache bytes: the client sees
    /// [`crate::fleet::FleetError::CacheFull`] and may retry — warm
    /// tenants are unaffected.
    CacheAdmit = 7,
    /// An in-place value refresh panics after validation and before the
    /// commit completes ([`crate::engine::SolverEngine::refresh_values`]):
    /// the engine's numeric state is untouched (the probe sits before
    /// the first mutation), so the old value epoch keeps serving — a
    /// refresh observes the old values or the new, never a torn mix.
    ValueRefresh = 8,
}

/// Number of distinct [`FaultSite`]s.
pub const SITE_COUNT: usize = 9;

/// Every site, in discriminant order — iterate this to reconcile a
/// report's counters against [`FaultPlan::fired`].
pub const ALL_SITES: [FaultSite; SITE_COUNT] = [
    FaultSite::WorkerSpawn,
    FaultSite::WorkerTaskPanic,
    FaultSite::DispatcherPanic,
    FaultSite::PanelSolve,
    FaultSite::AdmissionAlloc,
    FaultSite::RhsCorruptNonFinite,
    FaultSite::EngineBuild,
    FaultSite::CacheAdmit,
    FaultSite::ValueRefresh,
];

impl FaultSite {
    /// Short label for logs and injected panic payloads.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::WorkerSpawn => "worker-spawn",
            FaultSite::WorkerTaskPanic => "worker-task-panic",
            FaultSite::DispatcherPanic => "dispatcher-panic",
            FaultSite::PanelSolve => "panel-solve",
            FaultSite::AdmissionAlloc => "admission-alloc",
            FaultSite::RhsCorruptNonFinite => "rhs-corrupt-nonfinite",
            FaultSite::EngineBuild => "engine-build",
            FaultSite::CacheAdmit => "cache-admit",
            FaultSite::ValueRefresh => "value-refresh",
        }
    }
}

/// Denominator of the per-site firing rate: rates are stored in parts
/// per million, so `with_rate(site, 1.0)` fires on every probe.
const PPM: u32 = 1_000_000;

/// A deterministic fault schedule: per-site firing rates and budgets
/// over one seed.
///
/// The decision for the `k`-th probe of a site is drawn from a PCG32
/// stream keyed by `(seed, site, k)` — independent of thread timing,
/// so a plan replays the same fault schedule whenever the probe
/// *counts* per site are reproducible (which the chaos suite arranges
/// by fixing its traffic). Probes and fires are counted per site for
/// post-run reconciliation against a
/// [`crate::serve::ServiceReport`]'s fault counters.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rate_ppm: [u32; SITE_COUNT],
    budget: [u64; SITE_COUNT],
    probed: [std::sync::atomic::AtomicU64; SITE_COUNT],
    fired: [std::sync::atomic::AtomicU64; SITE_COUNT],
}

impl FaultPlan {
    /// A plan that never fires (all rates zero) over `seed`; arm sites
    /// with [`FaultPlan::with_rate`] / [`FaultPlan::with_budget`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, budget: [u64::MAX; SITE_COUNT], ..FaultPlan::default() }
    }

    /// Fire `site` on each probe independently with probability `rate`
    /// (clamped to `[0, 1]`).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rate_ppm[site as usize] = (rate.clamp(0.0, 1.0) * PPM as f64).round() as u32;
        self
    }

    /// Cap `site` at `n` total fires, whatever its rate. A rate-1.0
    /// site with budget 1 fires on exactly its first probe — the shape
    /// the targeted chaos tests use.
    pub fn with_budget(mut self, site: FaultSite, n: u64) -> FaultPlan {
        self.budget[site as usize] = n;
        self
    }

    /// How many times `site` was probed so far.
    pub fn probes(&self, site: FaultSite) -> u64 {
        self.probed[site as usize].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many times `site` actually fired so far — the number the
    /// service report's fault counters reconcile against.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site as usize].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One probe of `site`: count it, draw the deterministic decision,
    /// enforce the budget.
    // without the feature nothing probes plans, but the decision logic
    // stays compiled (and unit-tested) in every configuration
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    fn should_fire(&self, site: FaultSite) -> bool {
        use std::sync::atomic::Ordering;
        let i = site as usize;
        let rate = self.rate_ppm[i];
        if rate == 0 {
            return false;
        }
        let k = self.probed[i].fetch_add(1, Ordering::Relaxed);
        // one PCG32 stream per site, one draw per probe: the decision
        // is a pure function of (seed, site, probe index)
        let mut rng = desim::Pcg32::new(self.seed ^ SITE_SALT[i], k);
        if rng.next_below(PPM) >= rate {
            return false;
        }
        // budget: admit fires one at a time so concurrent probes never
        // overshoot the cap
        loop {
            let f = self.fired[i].load(Ordering::Relaxed);
            if f >= self.budget[i] {
                return false;
            }
            if self.fired[i]
                .compare_exchange(f, f + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// Per-site seed salts (random odd constants) so sites draw from
/// independent streams of one plan seed.
const SITE_SALT: [u64; SITE_COUNT] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0xC2B2_AE3D_27D4_EB4F,
    0x8CB9_2BA7_2F3D_8DD7,
    0xB492_B66F_BE98_F273,
];

#[cfg(feature = "fault-inject")]
mod armed {
    use super::{FaultPlan, FaultSite};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, PoisonError, RwLock};

    /// The installed plan. Process-global: the dispatcher and pool
    /// workers are separate threads and must observe it.
    static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);
    /// Cold fast-path flag so an unarmed probe is one relaxed load.
    static ENABLED: AtomicBool = AtomicBool::new(false);

    pub(super) fn install(plan: Option<Arc<FaultPlan>>) -> Option<Arc<FaultPlan>> {
        let mut g = PLAN.write().unwrap_or_else(PoisonError::into_inner);
        let prev = std::mem::replace(&mut *g, plan);
        ENABLED.store(g.is_some(), Ordering::Release);
        prev
    }

    /// Threads whose outermost `with_plan` scope is currently open.
    /// The plan is process-global, so this may legitimately be 0 or 1
    /// — a second thread trying to open a scope is a test bug.
    static OUTERMOST_SCOPES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    std::thread_local! {
        /// This thread's `with_plan` nesting depth.
        static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// RAII token for one `with_plan` scope: tracks per-thread nesting
    /// depth and rejects concurrent outermost scopes across threads.
    pub(super) struct Scope {
        outermost: bool,
    }

    impl Scope {
        pub(super) fn enter() -> Scope {
            let depth = DEPTH.with(|d| {
                let v = d.get();
                d.set(v + 1);
                v
            });
            if depth > 0 {
                // nested on this thread: legal LIFO shadowing
                return Scope { outermost: false };
            }
            if OUTERMOST_SCOPES.fetch_add(1, Ordering::AcqRel) != 0 {
                OUTERMOST_SCOPES.fetch_sub(1, Ordering::AcqRel);
                DEPTH.with(|d| d.set(d.get() - 1));
                panic!(
                    "fault::with_plan: a fault-plan scope is already active on another \
                     thread; plans are process-global, so concurrent scopes would \
                     clobber each other's schedules — serialize chaos scopes on a mutex"
                );
            }
            Scope { outermost: true }
        }
    }

    impl Drop for Scope {
        fn drop(&mut self) {
            DEPTH.with(|d| d.set(d.get() - 1));
            if self.outermost {
                OUTERMOST_SCOPES.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    pub(super) fn active() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn probe(site: FaultSite) -> bool {
        if !ENABLED.load(Ordering::Relaxed) {
            return false;
        }
        let g = PLAN.read().unwrap_or_else(PoisonError::into_inner);
        match g.as_ref() {
            Some(p) => p.should_fire(site),
            None => false,
        }
    }
}

/// Run `f` with `plan` installed as the process-global fault plan,
/// restoring the previously installed plan (if any) on exit — panic
/// included. Without the `fault-inject` feature this is exactly `f()`.
///
/// Scoping is an explicit LIFO stack **per thread**: a nested call on
/// the same thread shadows the outer plan for its duration and the
/// outer plan is restored when the inner scope exits (even by panic).
/// A call while another thread's scope is open **panics** — the plan
/// is process-global, so two live scopes would silently corrupt each
/// other's deterministic schedules, and a loud immediate failure beats
/// a flaky one. Chaos tests serialize on one mutex and never hit this.
#[cfg(feature = "fault-inject")]
pub fn with_plan<R>(plan: &Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Option<Arc<FaultPlan>>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                armed::install(prev);
            }
        }
    }
    // scope token first: a rejected concurrent scope must panic before
    // touching the installed plan
    let _scope = armed::Scope::enter();
    let prev = armed::install(Some(Arc::clone(plan)));
    let _restore = Restore(Some(prev));
    f()
}

/// Run `f` with `plan` installed as the process-global fault plan,
/// restoring the previously installed plan (if any) on exit — panic
/// included. Without the `fault-inject` feature this is exactly `f()`.
#[cfg(not(feature = "fault-inject"))]
pub fn with_plan<R>(plan: &Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    let _ = plan;
    f()
}

/// Whether a fault plan is currently installed. Always `false` without
/// the `fault-inject` feature — the hook the allocation-free test uses
/// to assert the fault plane is inert.
pub fn plan_active() -> bool {
    #[cfg(feature = "fault-inject")]
    {
        armed::active()
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        false
    }
}

/// Probe `site` against the installed plan. Constant `false` without
/// the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
#[inline]
pub(crate) fn fire(site: FaultSite) -> bool {
    armed::probe(site)
}

/// Probe `site` against the installed plan. Constant `false` without
/// the `fault-inject` feature.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn fire(_site: FaultSite) -> bool {
    false
}

/// Probe `site` and panic with a recognizable payload if it fires —
/// the injection shape for sites whose real-world failure is a panic.
#[inline]
pub(crate) fn fire_panic(site: FaultSite) {
    if fire(site) {
        panic!("injected fault: {}", site.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::new(7).with_rate(FaultSite::PanelSolve, 0.5);
        let b = FaultPlan::new(7).with_rate(FaultSite::PanelSolve, 0.5);
        let da: Vec<bool> = (0..64).map(|_| a.should_fire(FaultSite::PanelSolve)).collect();
        let db: Vec<bool> = (0..64).map(|_| b.should_fire(FaultSite::PanelSolve)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert!(da.iter().any(|&d| d) && da.iter().any(|&d| !d), "rate 0.5 mixes outcomes");
        let c = FaultPlan::new(8).with_rate(FaultSite::PanelSolve, 0.5);
        let dc: Vec<bool> = (0..64).map(|_| c.should_fire(FaultSite::PanelSolve)).collect();
        assert_ne!(da, dc, "different seeds diverge");
    }

    #[test]
    fn budget_caps_fires() {
        let p = FaultPlan::new(3)
            .with_rate(FaultSite::DispatcherPanic, 1.0)
            .with_budget(FaultSite::DispatcherPanic, 2);
        let fired = (0..10).filter(|_| p.should_fire(FaultSite::DispatcherPanic)).count();
        assert_eq!(fired, 2);
        assert_eq!(p.fired(FaultSite::DispatcherPanic), 2);
        assert_eq!(p.probes(FaultSite::DispatcherPanic), 10);
    }

    #[test]
    fn sites_are_independent_streams() {
        let p = FaultPlan::new(11)
            .with_rate(FaultSite::WorkerSpawn, 1.0)
            .with_rate(FaultSite::AdmissionAlloc, 0.0);
        assert!(p.should_fire(FaultSite::WorkerSpawn));
        assert!(!p.should_fire(FaultSite::AdmissionAlloc));
        assert_eq!(p.probes(FaultSite::AdmissionAlloc), 0, "zero-rate sites skip the draw");
    }

    #[test]
    fn unarmed_probes_never_fire() {
        let _g = global_guard();
        assert!(!plan_active());
        assert!(!fire(FaultSite::PanelSolve));
        fire_panic(FaultSite::PanelSolve); // must not panic
    }

    /// Satellite: N threads hammering one CAS-budgeted site fire
    /// exactly `budget` times — concurrent probes can race the rate
    /// draw freely, but the fired CAS loop admits one fire at a time
    /// and never overshoots.
    #[test]
    fn concurrent_probes_never_overshoot_budget() {
        const THREADS: usize = 8;
        const PROBES: usize = 1000;
        const BUDGET: u64 = 17;
        let p = FaultPlan::new(0xC0FFEE)
            .with_rate(FaultSite::CacheAdmit, 1.0)
            .with_budget(FaultSite::CacheAdmit, BUDGET);
        let fired: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| (0..PROBES).filter(|_| p.should_fire(FaultSite::CacheAdmit)).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(fired as u64, BUDGET, "exactly the budget, never more");
        assert_eq!(p.fired(FaultSite::CacheAdmit), BUDGET);
        assert_eq!(p.probes(FaultSite::CacheAdmit), (THREADS * PROBES) as u64);
    }

    #[test]
    fn new_sites_have_salts_and_labels() {
        assert_eq!(ALL_SITES.len(), SITE_COUNT);
        for (i, s) in ALL_SITES.iter().enumerate() {
            assert_eq!(*s as usize, i, "discriminants match ALL_SITES order");
            assert!(!s.label().is_empty());
        }
        let salts: std::collections::HashSet<u64> = SITE_SALT.iter().copied().collect();
        assert_eq!(salts.len(), SITE_COUNT, "per-site salts are distinct");
    }

    /// The installed-plan tests below mutate process-global state; they
    /// serialize on this mutex (integration-test chaos suites live in a
    /// different process, so only this binary's tests matter here).
    static GLOBAL: Mutex<()> = Mutex::new(());
    use std::sync::{Mutex, MutexGuard, PoisonError};

    fn global_guard() -> MutexGuard<'static, ()> {
        GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Satellite: nesting is documented LIFO shadowing — the inner
    /// plan's schedule applies inside the inner scope, the outer plan
    /// is restored when it exits, panic included.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn with_plan_nests_lifo_and_restores_on_panic() {
        let _g = global_guard();
        let outer = Arc::new(FaultPlan::new(1).with_rate(FaultSite::PanelSolve, 1.0));
        let inner = Arc::new(FaultPlan::new(2)); // never fires
        with_plan(&outer, || {
            assert!(fire(FaultSite::PanelSolve), "outer plan armed");
            with_plan(&inner, || {
                assert!(!fire(FaultSite::PanelSolve), "inner plan shadows the outer");
            });
            assert!(fire(FaultSite::PanelSolve), "outer plan restored after inner exits");
            // a panicking inner scope must restore the outer plan too
            let r = std::panic::catch_unwind(|| with_plan(&inner, || panic!("inner scope dies")));
            assert!(r.is_err());
            assert!(fire(FaultSite::PanelSolve), "outer plan restored after inner panic");
        });
        assert!(!plan_active(), "everything restored after the stack unwinds");
    }

    /// Satellite: a concurrent scope on another thread is a loud typed
    /// failure (panic with a diagnostic), not silent last-writer-wins.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn with_plan_concurrent_scopes_panic() {
        let _g = global_guard();
        let plan = Arc::new(FaultPlan::new(3));
        with_plan(&plan, || {
            let other = Arc::new(FaultPlan::new(4));
            let r = std::thread::spawn(move || {
                std::panic::catch_unwind(|| with_plan(&other, || ())).is_err()
            })
            .join()
            .unwrap();
            assert!(r, "the second thread's scope must be rejected");
            assert!(plan_active(), "the first thread's plan survives the rejection");
        });
        assert!(!plan_active());
        // and after the rejection, a fresh scope works again
        with_plan(&plan, || assert!(plan_active()));
    }
}
