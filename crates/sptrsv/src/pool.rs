//! A persistent worker pool for batched and sharded warm solves.
//!
//! PR 1's `solve_batch` spawned fresh OS threads (`std::thread::scope`)
//! on every call — fine for one batch, but the paper's serving scenario
//! calls the solve phase thousands of times, and a thread spawn costs
//! orders of magnitude more than a warm replay of a small factor. The
//! [`WorkerPool`] here is spawned lazily on the first pooled solve and
//! reused for the lifetime of the engine. It dispatches two shapes of
//! work:
//!
//! * **Scoped batches** ([`WorkerPool::scope_run`]) — a `Vec` of
//!   independent boxed tasks; each call enqueues its chunk tasks and
//!   blocks until a completion latch opens. The submitting thread
//!   *helps*: while waiting it pops and executes its own batch's queued
//!   jobs, so a `scope_run` issued from **inside** a pool task cannot
//!   deadlock (the nested caller drains its own queue instead of
//!   blocking the only thread that could) and small batches finish with
//!   less handoff latency.
//! * **Parallel regions** ([`WorkerPool::try_run_region`]) — one shared
//!   `Fn(worker_index)` executed concurrently by `workers` threads (the
//!   caller participates as worker 0). Regions carry **no per-call
//!   allocation** — no boxed closures, no latch `Arc`; the region
//!   descriptor lives in the pool's queue state and workers claim
//!   indices from it. This is the dispatch mode of the sharded
//!   level-parallel replay, which issues one region per solve and
//!   synchronizes its level phases on a stack-allocated
//!   [`RegionBarrier`].
//!
//! ## Why the lifetime erasure is sound
//!
//! Tasks and region bodies borrow the engine's prepared state and the
//! caller's right-hand-side/output buffers, so they are not `'static` —
//! yet the workers are long-lived threads. Both entry points erase the
//! lifetime exactly the way `crossbeam::scope`/`rayon` do, and
//! re-establish safety with a strict discipline:
//!
//! 1. Neither `scope_run` nor `try_run_region` **returns** (not even by
//!    panic) until every submitted task / claimed worker index has
//!    finished running — a latch (batches) or an outstanding counter
//!    (regions) is decremented *after* the body completes, including by
//!    panic (workers catch unwinds).
//! 2. Panics are captured and re-raised **on the caller's thread**
//!    after the batch/region completes, so worker threads never die and
//!    the borrow discipline cannot be bypassed by unwinding. (A region
//!    body that synchronizes on a [`RegionBarrier`] must not panic
//!    between phases — a worker that unwinds past a barrier would
//!    strand its peers. The sharded replay validates all inputs before
//!    entering the region for exactly this reason.)
//!
//! Together these guarantee every borrow a task carries outlives the
//! task's execution, which is the entire obligation the `'static`
//! erasure discharges. This module is the only `unsafe` code in the
//! shipped library crates ([`DisjointSlice`], the disjoint-write buffer
//! the sharded replay shares across region workers, lives here for the
//! same reason); keep it that way.

use crate::fault::{self, FaultSite};
use crate::telemetry;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A task as submitted by a caller: may borrow caller state (`'scope`).
pub type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;
/// A task as held by the queue, lifetime-erased under the latch
/// discipline documented at module level.
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Whether the current thread is a pool worker. Callers that would
    /// start a nested parallel region use this to degrade to serial
    /// execution instead (a region needs every worker index on its own
    /// thread, which a nested caller cannot guarantee).
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// `true` on threads spawned by a [`WorkerPool`]. The engine's sharded
/// tier checks this to avoid launching a parallel region from inside a
/// pool task (it falls back to the serial replay there).
pub fn on_worker_thread() -> bool {
    IS_POOL_WORKER.with(Cell::get)
}

/// One batch's completion latch: counts outstanding tasks and stows the
/// first panic payload for re-raising on the submitting thread.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(tasks: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState { remaining: tasks, panic: None }),
            cv: Condvar::new(),
        }
    }

    /// Mark one task complete, recording its panic payload if any.
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut st = self.state.lock().expect("latch poisoned");
        st.remaining -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every task has completed; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.state.lock().expect("latch poisoned");
        while st.remaining > 0 {
            st = self.cv.wait(st).expect("latch poisoned");
        }
        st.panic.take()
    }
}

struct Job {
    task: ErasedTask,
    latch: Arc<Latch>,
}

/// A lifetime-erased pointer to a region body. Only dereferenced while
/// the submitting `try_run_region` call is blocked (see the module docs),
/// which keeps the borrow alive.
#[derive(Clone, Copy)]
struct RegionFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and the pointer only crosses threads inside the region
// discipline documented at module level.
unsafe impl Send for RegionFn {}

/// The active parallel region, at most one at a time. Worker indices
/// `1..workers` are claimed by pool threads; index 0 runs on the
/// submitting thread.
struct ActiveRegion {
    f: RegionFn,
    /// Next unclaimed worker index.
    next: usize,
    workers: usize,
    /// Worker indices not yet finished (claimed or not).
    outstanding: usize,
    panic: Option<Box<dyn Any + Send>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    region: Option<ActiveRegion>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes workers when jobs or region indices become available.
    cv: Condvar,
    /// Wakes region submitters: on region completion and on the region
    /// slot becoming free.
    region_cv: Condvar,
}

/// A lazily grown pool of persistent worker threads executing scoped
/// tasks and parallel regions (see the module docs for the soundness
/// argument).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Times [`WorkerPool::ensure_threads`] returned fewer workers than
    /// requested (spawn failure, real or injected). Callers with a
    /// serial fallback read this to report how often they degraded.
    shortfalls: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads()).finish()
    }
}

impl WorkerPool {
    /// An empty pool; workers are spawned on demand by
    /// [`WorkerPool::ensure_threads`].
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                cv: Condvar::new(),
                region_cv: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            shortfalls: AtomicU64::new(0),
        }
    }

    /// Current worker count.
    pub fn threads(&self) -> usize {
        self.handles.lock().expect("pool poisoned").len()
    }

    /// Grow the pool to at least `n` workers (never shrinks). Returns
    /// the worker count actually reached: thread-spawn failure (fd or
    /// memory exhaustion) stops the growth instead of panicking, and
    /// the caller decides whether the shortfall matters —
    /// [`WorkerPool::scope_run`]'s helping submitter tolerates any
    /// count, [`WorkerPool::try_run_region`] declines so its caller's
    /// serial fallback runs.
    pub fn ensure_threads(&self, n: usize) -> usize {
        let mut handles = self.handles.lock().expect("pool poisoned");
        while handles.len() < n {
            // injected spawn failure: stop growing exactly like a real
            // EAGAIN from the OS would
            if fault::fire(FaultSite::WorkerSpawn) {
                break;
            }
            let shared = Arc::clone(&self.shared);
            let name = format!("sptrsv-worker-{}", handles.len());
            match std::thread::Builder::new().name(name).spawn(move || worker_loop(&shared)) {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        if handles.len() < n {
            self.shortfalls.fetch_add(1, Ordering::Relaxed);
        }
        handles.len()
    }

    /// Times [`WorkerPool::ensure_threads`] came up short of its
    /// request since the pool was created.
    pub fn spawn_shortfalls(&self) -> u64 {
        self.shortfalls.load(Ordering::Relaxed)
    }

    /// Run every task to completion on the pool, blocking the caller
    /// until all have finished. Task panics are re-raised here, on the
    /// calling thread, after the batch completes.
    ///
    /// The submitting thread **helps**: while waiting it executes its
    /// own batch's still-queued jobs. This makes nested calls safe — a
    /// task that itself calls `scope_run` drains the jobs it enqueued
    /// instead of deadlocking on a pool whose only threads are occupied
    /// by its ancestors — and shortens small batches (no handoff wait
    /// for work the caller can do itself).
    pub fn scope_run<'scope>(&self, tasks: Vec<ScopedTask<'scope>>) {
        if tasks.is_empty() {
            return;
        }
        self.ensure_threads(1); // a task must never wait on an empty pool
        let latch = Arc::new(Latch::new(tasks.len()));
        {
            let mut q = self.shared.queue.lock().expect("pool poisoned");
            for task in tasks {
                // SAFETY (lifetime erasure): `latch.wait()` below does
                // not return until this task has finished running and
                // `latch.complete` was called — which happens strictly
                // after the task body returns or unwinds, whether it
                // ran on a worker or on the helping submitter. The
                // caller therefore outlives every borrow the task
                // carries; see the module docs.
                let task: ErasedTask =
                    unsafe { std::mem::transmute::<ScopedTask<'scope>, ErasedTask>(task) };
                q.jobs.push_back(Job { task, latch: Arc::clone(&latch) });
            }
            self.shared.cv.notify_all();
        }
        // help: run this batch's queued jobs on the submitting thread
        loop {
            let job = {
                let mut q = self.shared.queue.lock().expect("pool poisoned");
                match q.jobs.iter().position(|j| Arc::ptr_eq(&j.latch, &latch)) {
                    Some(at) => q.jobs.remove(at),
                    None => None,
                }
            };
            match job {
                Some(job) => {
                    let result = catch_unwind(AssertUnwindSafe(job.task));
                    job.latch.complete(result.err());
                }
                None => break, // rest of the batch is running on workers
            }
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
    }

    /// Run `f(worker)` for every `worker` in `0..workers`, each on its
    /// own thread, blocking until all have finished — unless another
    /// region is already running on this pool (or the pool cannot
    /// spawn the threads): then return `false` immediately, nothing
    /// executed. The calling thread participates as worker 0; workers
    /// `1..` are pool threads.
    ///
    /// Declining instead of queueing is what the one caller wants: the
    /// sharded solve has a serial fallback of bit-identical result, so
    /// when the pool is contended, sweeping serially *now* beats
    /// waiting for threads another solve is using.
    ///
    /// Unlike [`WorkerPool::scope_run`] this allocates **nothing** per
    /// call in steady state: the region descriptor lives in the pool's
    /// queue state and `f` is shared by reference, so a solver that
    /// issues one region per warm solve stays heap-silent. `f` may
    /// synchronize its workers on a [`RegionBarrier`] of size `workers`
    /// — every index is guaranteed its own thread. Two rules follow
    /// from that guarantee:
    ///
    /// * regions must not be started from inside a pool task (the
    ///   nested caller cannot provide distinct threads) — check
    ///   [`on_worker_thread`] and degrade to `workers == 1` instead;
    /// * `f` must not panic between barrier phases (the unwinding
    ///   worker would strand its peers mid-barrier); panics outside
    ///   barrier use are caught and re-raised on the caller.
    pub fn try_run_region<'scope>(
        &self,
        workers: usize,
        f: &(dyn Fn(usize) + Sync + 'scope),
    ) -> bool {
        let workers = workers.max(1);
        if workers == 1 {
            f(0);
            return true;
        }
        assert!(
            !on_worker_thread(),
            "region started from a pool worker; degrade to workers == 1 instead"
        );
        // the pool could not spawn enough workers (see
        // `ensure_threads`) — decline so the caller's equal-result
        // serial fallback runs instead of stranding a region
        if self.ensure_threads(workers - 1) < workers - 1 {
            return false;
        }
        // SAFETY (lifetime erasure): `finish_region` does not return
        // until `outstanding == 0`, i.e. every claimed worker index
        // has finished executing `f` — so the borrow `f` carries
        // outlives all uses of the erased pointer; see the module
        // docs.
        let f_static = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync + 'scope), &(dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut q = self.shared.queue.lock().expect("pool poisoned");
            if q.region.is_some() {
                return false;
            }
            install_region(&mut q, f_static, workers);
            self.shared.cv.notify_all();
        }
        self.finish_region(f);
        true
    }

    /// Run worker 0 on the calling thread, wait out the region, clear
    /// the slot and re-raise any captured panic.
    fn finish_region(&self, f: &(dyn Fn(usize) + Sync + '_)) {
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        let payload = {
            let mut q = self.shared.queue.lock().expect("pool poisoned");
            {
                let r = q.region.as_mut().expect("region vanished");
                r.outstanding -= 1;
                if let Err(p) = own {
                    if r.panic.is_none() {
                        r.panic = Some(p);
                    }
                }
            }
            while q.region.as_ref().expect("region vanished").outstanding > 0 {
                q = self.shared.region_cv.wait(q).expect("pool poisoned");
            }
            q.region.take().expect("region vanished").panic
        };
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

/// Install a fresh region descriptor in the (locked) queue state.
fn install_region(q: &mut Queue, f: &'static (dyn Fn(usize) + Sync), workers: usize) {
    debug_assert!(q.region.is_none(), "region slot already occupied");
    telemetry::instant(telemetry::Site::RegionDispatch, workers as u64);
    q.region = Some(ActiveRegion {
        f: RegionFn(f as *const _),
        next: 1,
        workers,
        outstanding: workers,
        panic: None,
    });
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool poisoned");
            q.shutdown = true;
            self.shared.cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }
}

enum Work {
    Task(Job),
    Region(RegionFn, usize),
}

fn worker_loop(shared: &Shared) {
    IS_POOL_WORKER.with(|w| w.set(true));
    // eager ring registration: a worker's first telemetry event (a
    // park instant mid-solve, say) must not be the one that allocates
    telemetry::warm_thread();
    loop {
        let work = {
            let mut q = shared.queue.lock().expect("pool poisoned");
            loop {
                // regions first: they are latency-sensitive (barrier
                // phases stall every participant on the slowest joiner)
                if let Some(r) = q.region.as_mut() {
                    if r.next < r.workers {
                        let idx = r.next;
                        r.next += 1;
                        break Work::Region(r.f, idx);
                    }
                }
                if let Some(job) = q.jobs.pop_front() {
                    break Work::Task(job);
                }
                if q.shutdown {
                    return;
                }
                q = shared.cv.wait(q).expect("pool poisoned");
            }
        };
        match work {
            Work::Task(job) => {
                // catch unwinds so a panicking task cannot kill the
                // worker or skip the latch; the payload resurfaces on
                // the caller's thread. The injected panic rides inside
                // the same catch, exactly like a real task bug — never
                // inside a region body, whose barriers a panicking
                // worker would strand.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    fault::fire_panic(FaultSite::WorkerTaskPanic);
                    (job.task)();
                }));
                job.latch.complete(result.err());
            }
            Work::Region(f, idx) => {
                // SAFETY: the submitting `try_run_region` is blocked until
                // `outstanding` (decremented below, after the call)
                // reaches zero, so the pointee is alive.
                let body: &(dyn Fn(usize) + Sync) = unsafe { &*f.0 };
                let result = catch_unwind(AssertUnwindSafe(|| body(idx)));
                let mut q = shared.queue.lock().expect("pool poisoned");
                let r = q.region.as_mut().expect("region vanished");
                r.outstanding -= 1;
                if let Err(p) = result {
                    if r.panic.is_none() {
                        r.panic = Some(p);
                    }
                }
                if r.outstanding == 0 {
                    shared.region_cv.notify_all();
                }
            }
        }
    }
}

/// A reusable barrier for the workers of one parallel region.
///
/// Generation-counted (sense-reversing), so one stack-allocated
/// instance serves every level of a sharded replay — **no per-level
/// latch or `Vec` allocation**, the property the zero-allocation warm
/// tier depends on. Arrivals spin briefly (the common case on
/// dedicated cores: peers are a few hundred nanoseconds behind), then
/// park on a condvar so oversubscribed machines don't burn a core
/// per waiter.
pub struct RegionBarrier {
    total: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl RegionBarrier {
    /// A barrier for `total` region workers. A zero count is clamped
    /// to one participant (a solo barrier is a no-op), matching the
    /// worker-count clamping of the region entry points.
    pub fn new(total: usize) -> RegionBarrier {
        let total = total.max(1);
        RegionBarrier {
            total,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Block until all `total` workers have arrived, then release
    /// everyone. Reusable: the next `wait` round starts immediately.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // last arrival: reset for the next round, then publish the
            // new generation under the lock so parked waiters cannot
            // miss the notification
            self.arrived.store(0, Ordering::Relaxed);
            let _guard = self.lock.lock().expect("barrier poisoned");
            self.generation.fetch_add(1, Ordering::Release);
            self.cv.notify_all();
            return;
        }
        for _ in 0..64 {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        // spinning did not pay off — this worker parks on the condvar
        // (the telemetry signal that a solve's workers are imbalanced
        // enough to pay a futex round trip, not just a spin)
        telemetry::instant(telemetry::Site::WorkerPark, gen);
        let mut guard = self.lock.lock().expect("barrier poisoned");
        while self.generation.load(Ordering::Acquire) == gen {
            guard = self.cv.wait(guard).expect("barrier poisoned");
        }
    }
}

impl std::fmt::Debug for RegionBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionBarrier").field("total", &self.total).finish()
    }
}

/// A `&mut [f64]` shared across the workers of one parallel region
/// under an **owner-computes discipline**: within any barrier phase,
/// every index is written by at most one worker (reads of an index
/// some worker may be writing are likewise forbidden). The sharded
/// replay guarantees this structurally — each row belongs to exactly
/// one shard, each shard to exactly one worker — and the region's
/// barriers order writes of one phase before reads of the next.
///
/// Crate-internal by design: the accessors are not marked `unsafe`
/// (keeping all `unsafe` blocks inside this module), so this type must
/// never be exposed outside the crate.
pub(crate) struct DisjointSlice<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: cross-thread use is exactly what the type exists for; the
// disjoint-write discipline documented above makes it race-free.
unsafe impl Send for DisjointSlice<'_> {}
unsafe impl Sync for DisjointSlice<'_> {}

impl<'a> DisjointSlice<'a> {
    /// Wrap a uniquely borrowed slice for region-wide sharing.
    pub(crate) fn new(s: &'a mut [f64]) -> DisjointSlice<'a> {
        DisjointSlice { ptr: s.as_mut_ptr(), len: s.len(), _marker: PhantomData }
    }

    /// Read row `i` of a `K`-lane interleaved buffer (elements
    /// `i·K .. i·K + K`; `K = 1` is a plain element read). Discipline:
    /// no worker may be writing the row in the current barrier phase.
    #[inline]
    pub(crate) fn lanes<const K: usize>(&self, i: usize) -> [f64; K] {
        assert!(i < self.len / K, "row {i} out of bounds ({} x {K})", self.len / K);
        // SAFETY: `i·K + K <= len` (asserted), and `[f64; K]` has the
        // alignment of `f64`; racing writes are excluded by the
        // owner-computes discipline documented on the type.
        unsafe { self.ptr.add(i * K).cast::<[f64; K]>().read() }
    }

    /// Write row `i` of a `K`-lane interleaved buffer. Discipline: the
    /// calling worker owns the row in the current barrier phase.
    #[inline]
    pub(crate) fn set_lanes<const K: usize>(&self, i: usize, v: [f64; K]) {
        assert!(i < self.len / K, "row {i} out of bounds ({} x {K})", self.len / K);
        // SAFETY: in-bounds and aligned as in `lanes`; exclusive
        // ownership of the row in this phase is guaranteed by the
        // caller's shard construction.
        unsafe { self.ptr.add(i * K).cast::<[f64; K]>().write(v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A region on a pool nobody else is using must be accepted.
    fn run_region(pool: &WorkerPool, workers: usize, f: &(dyn Fn(usize) + Sync)) {
        assert!(pool.try_run_region(workers, f), "uncontended region declined");
    }

    #[test]
    fn runs_borrowing_tasks_to_completion() {
        let pool = WorkerPool::new();
        pool.ensure_threads(4);
        let mut out = vec![0usize; 64];
        let tasks: Vec<ScopedTask<'_>> = out
            .chunks_mut(16)
            .enumerate()
            .map(|(k, chunk)| {
                let t: ScopedTask<'_> = Box::new(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = k * 100 + i;
                    }
                });
                t
            })
            .collect();
        pool.scope_run(tasks);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i / 16) * 100 + i % 16);
        }
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let pool = WorkerPool::new();
        pool.ensure_threads(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            let tasks: Vec<ScopedTask<'_>> = (0..8)
                .map(|_| {
                    let t: ScopedTask<'_> = Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                    t
                })
                .collect();
            pool.scope_run(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80);
        assert_eq!(pool.threads(), 2, "no per-call spawning");
    }

    #[test]
    fn task_panic_reraises_on_caller_and_keeps_workers_alive() {
        let pool = WorkerPool::new();
        pool.ensure_threads(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope_run(vec![Box::new(|| panic!("task exploded")) as ScopedTask<'_>]);
        }));
        assert!(err.is_err(), "panic must propagate to the caller");
        // the pool still works afterwards
        let ran = AtomicUsize::new(0);
        pool.scope_run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as ScopedTask<'_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let pool = WorkerPool::new();
        pool.scope_run(Vec::new());
        assert_eq!(pool.threads(), 0);
    }

    /// Regression for the nested-submission deadlock: a task running on
    /// the pool's only worker issues its own `scope_run`. Before the
    /// helping submitter, the inner call blocked on a latch no thread
    /// could ever drain; now the nested caller executes its own queued
    /// jobs in place.
    #[test]
    fn nested_scope_run_from_a_pool_task_completes() {
        let pool = WorkerPool::new();
        pool.ensure_threads(1); // exactly one worker: the hazard case
        let inner_runs = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| {
            let nested: Vec<ScopedTask<'_>> = (0..4)
                .map(|_| {
                    let t: ScopedTask<'_> = Box::new(|| {
                        inner_runs.fetch_add(1, Ordering::Relaxed);
                    });
                    t
                })
                .collect();
            pool.scope_run(nested);
        })];
        pool.scope_run(tasks);
        assert_eq!(inner_runs.load(Ordering::Relaxed), 4);
        assert_eq!(pool.threads(), 1, "helping must not grow the pool");
    }

    #[test]
    fn worker_threads_are_flagged() {
        assert!(!on_worker_thread(), "the test thread is not a pool worker");
        let pool = WorkerPool::new();
        let seen = AtomicUsize::new(0);
        // run enough tasks that at least one lands on a worker; the
        // helping submitter contributes `false` observations only to
        // its own thread-local, never the workers'
        pool.ensure_threads(2);
        let tasks: Vec<ScopedTask<'_>> = (0..8)
            .map(|_| {
                let t: ScopedTask<'_> = Box::new(|| {
                    if on_worker_thread() {
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
                t
            })
            .collect();
        pool.scope_run(tasks);
        assert!(seen.load(Ordering::Relaxed) > 0, "some task must run on a flagged worker");
    }

    #[test]
    fn region_runs_every_index_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..10 {
            run_region(&pool, 6, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (w, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 10, "worker {w}");
        }
        assert_eq!(pool.threads(), 5, "caller participates as worker 0");
    }

    #[test]
    fn region_with_barrier_synchronizes_phases() {
        let pool = WorkerPool::new();
        let workers = 4;
        let mut phase_a = vec![0.0f64; workers];
        let mut phase_b = vec![0.0f64; workers];
        {
            let a = DisjointSlice::new(&mut phase_a);
            let b = DisjointSlice::new(&mut phase_b);
            let barrier = RegionBarrier::new(workers);
            run_region(&pool, workers, &|w| {
                a.set_lanes(w, [(w + 1) as f64]);
                barrier.wait();
                // after the barrier every phase-A write is visible
                let sum: f64 = (0..workers).map(|k| a.lanes::<1>(k)[0]).sum();
                b.set_lanes(w, [sum]);
            });
        }
        let expect = (1..=workers).sum::<usize>() as f64;
        for (w, v) in phase_b.iter().enumerate() {
            assert_eq!(*v, expect, "worker {w} must see all phase-A writes");
        }
    }

    #[test]
    fn region_panic_reraises_on_caller() {
        let pool = WorkerPool::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_region(&pool, 3, &|w| {
                if w == 2 {
                    panic!("region worker exploded");
                }
            });
        }));
        assert!(err.is_err(), "region panic must propagate");
        // the pool still serves regions afterwards
        let ran = AtomicUsize::new(0);
        run_region(&pool, 3, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn single_worker_region_runs_inline() {
        let pool = WorkerPool::new();
        let ran = AtomicUsize::new(0);
        run_region(&pool, 1, &|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.threads(), 0, "workers == 1 must not spawn threads");
    }

    #[test]
    fn try_run_region_declines_when_busy_and_recovers() {
        let pool = Arc::new(WorkerPool::new());
        pool.ensure_threads(2);
        let hold = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicUsize::new(0));
        let (p2, h2, e2) = (Arc::clone(&pool), Arc::clone(&hold), Arc::clone(&entered));
        let t = std::thread::spawn(move || {
            run_region(&p2, 2, &|_| {
                e2.fetch_add(1, Ordering::SeqCst);
                while h2.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            });
        });
        // wait until the first region is definitely occupying the slot
        while entered.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let ran = AtomicUsize::new(0);
        let accepted = pool.try_run_region(2, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(!accepted, "a busy region slot must decline, not queue");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "a declined region runs nothing");
        hold.store(1, Ordering::SeqCst);
        t.join().unwrap();
        let accepted = pool.try_run_region(2, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(accepted, "the slot must free up after the region completes");
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    /// Zero worker counts are a degenerate request, not a bug: every
    /// entry point that accepts a count clamps to one instead of
    /// panicking.
    #[test]
    fn zero_worker_requests_are_clamped_not_panicked() {
        let pool = WorkerPool::new();
        let ran = AtomicUsize::new(0);
        run_region(&pool, 0, &|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(pool.try_run_region(0, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(pool.threads(), 0, "clamped regions run inline");
        RegionBarrier::new(0).wait(); // a solo barrier is a no-op
    }

    #[test]
    fn barrier_is_reusable_across_many_rounds() {
        let pool = WorkerPool::new();
        let workers = 3;
        let rounds = 50;
        let counter = AtomicUsize::new(0);
        let barrier = RegionBarrier::new(workers);
        run_region(&pool, workers, &|_| {
            for r in 0..rounds {
                counter.fetch_add(1, Ordering::Relaxed);
                barrier.wait();
                // between barriers, every worker sees the full round
                assert!(counter.load(Ordering::Relaxed) >= (r + 1) * workers);
                barrier.wait();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), rounds * workers);
    }
}
