//! A persistent worker pool for batched warm solves.
//!
//! PR 1's `solve_batch` spawned fresh OS threads (`std::thread::scope`)
//! on every call — fine for one batch, but the paper's serving scenario
//! calls the solve phase thousands of times, and a thread spawn costs
//! orders of magnitude more than a warm replay of a small factor. The
//! [`WorkerPool`] here is spawned lazily on the first pooled solve and
//! reused for the lifetime of the engine. It runs **scoped batches**
//! ([`WorkerPool::scope_run`]): a `Vec` of independent boxed tasks;
//! each call enqueues its chunk tasks and blocks until a completion
//! latch opens. The submitting thread *helps*: while waiting it pops
//! and executes its own batch's queued jobs, so a `scope_run` issued
//! from **inside** a pool task cannot deadlock (the nested caller
//! drains its own queue instead of blocking the only thread that
//! could) and small batches finish with less handoff latency.
//!
//! ## Why the lifetime erasure is sound
//!
//! Tasks borrow the engine's prepared state and the caller's
//! right-hand-side/output buffers, so they are not `'static` — yet the
//! workers are long-lived threads. `scope_run` erases the lifetime
//! exactly the way `crossbeam::scope`/`rayon` do, and re-establishes
//! safety with a strict discipline:
//!
//! 1. `scope_run` does not **return** (not even by panic) until every
//!    submitted task has finished running — its latch is decremented
//!    *after* the task body completes, including by panic (workers and
//!    the helping submitter catch unwinds).
//! 2. Panics are captured and re-raised **on the caller's thread**
//!    after the batch completes, so worker threads never die and the
//!    borrow discipline cannot be bypassed by unwinding.
//!
//! Together these guarantee every borrow a task carries outlives the
//! task's execution, which is the entire obligation the `'static`
//! erasure discharges. That erasure is the only `unsafe` block in the
//! shipped library crates; keep it that way.

use crate::fault::{self, FaultSite};
use crate::telemetry;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A task as submitted by a caller: may borrow caller state (`'scope`).
pub type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;
/// A task as held by the queue, lifetime-erased under the latch
/// discipline documented at module level.
type ErasedTask = Box<dyn FnOnce() + Send + 'static>;

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

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes workers when jobs become available.
    cv: Condvar,
}

/// A lazily grown pool of persistent worker threads executing scoped
/// tasks (see the module docs for the soundness argument).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Times [`WorkerPool::ensure_threads`] returned fewer workers than
    /// requested (spawn failure, real or injected) — each one narrowed
    /// a batch, whose helping submitter runs whatever no worker takes.
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
            shared: Arc::new(Shared { queue: Mutex::new(Queue::default()), cv: Condvar::new() }),
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
    /// shortfall only narrows a batch — [`WorkerPool::scope_run`]'s
    /// helping submitter tolerates any count.
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

fn worker_loop(shared: &Shared) {
    // eager ring registration: a worker's first telemetry event must
    // not be the one that allocates
    telemetry::warm_thread();
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.cv.wait(q).expect("pool poisoned");
            }
        };
        // catch unwinds so a panicking task cannot kill the worker or
        // skip the latch; the payload resurfaces on the caller's
        // thread. The injected panic rides inside the same catch,
        // exactly like a real task bug.
        let result = catch_unwind(AssertUnwindSafe(|| {
            fault::fire_panic(FaultSite::WorkerTaskPanic);
            (job.task)();
        }));
        job.latch.complete(result.err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Zero worker counts are a degenerate request, not a bug: the
    /// pool grows to nothing and counts no shortfall, and a batch on
    /// it clamps the pool to one worker instead of panicking.
    #[test]
    fn zero_worker_requests_are_clamped_not_panicked() {
        let pool = WorkerPool::new();
        assert_eq!(pool.ensure_threads(0), 0);
        assert_eq!(pool.spawn_shortfalls(), 0, "nothing was requested, nothing fell short");
        let ran = AtomicUsize::new(0);
        pool.scope_run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as ScopedTask<'_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.threads(), 1, "a batch never waits on an empty pool");
    }
}
