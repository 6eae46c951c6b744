//! The build-once/solve-many solver engine.
//!
//! The paper's cost model (§II-B) separates a one-time *analysis phase*
//! — level sets, in-degrees, data distribution — from the *solve
//! phase*, and its headline use case (triangular solves inside
//! preconditioned iterative solvers) calls the solve phase thousands of
//! times against the **same** factors. [`SolverEngine`] is that split
//! made explicit in the API:
//!
//! * [`SolverEngine::build`] runs the structure-only preprocessing
//!   exactly once: triangular validation and audit, the P2P
//!   feasibility check, level-set analysis, the [`Schedule`], and the
//!   factor relabelled into a shared [`crate::exec::Layout`]. It
//!   simulates nothing.
//! * [`SolverEngine::solve_into`] and the other warm tiers reuse all of
//!   it — a warm solve performs **zero** level-set, plan or adjacency
//!   construction (asserted by tests against the per-thread
//!   construction counters in [`sparsemat::levels`], [`crate::plan`]
//!   and [`crate::exec`]).
//! * [`SolverEngine::solve`], [`SolverEngine::calibration`] and
//!   [`SolverEngine::cross_edges`] read the simulated timeline. The
//!   first of them runs the *calibration simulation* — the
//!   [`ExecutionPlan`](crate::plan::ExecutionPlan), the simulator's
//!   adjacency ([`crate::exec::ExecAnalysis`]) and one discrete-event
//!   run — once per engine; the served paths never do.
//!
//! ## Why one calibration serves every solve: the timeline is value-independent
//!
//! The discrete-event machine advances on *structure* — column sizes,
//! ownership, dependency masks, the seeded jitter stream — never on the
//! numeric values flowing through the solve. Two solves of the same
//! engine therefore execute the **same event schedule** regardless of
//! the right-hand side or the value epoch, so the calibration's report
//! (timings, machine statistics, event counts) is recorded once and
//! every [`SolverEngine::solve`] runs only the `O(n + nnz)` numeric
//! substitution on the engine's [`crate::exec::NumericFactor`] — the
//! factor's rows relabelled once, at build, into the order its
//! structure sweeps fastest (level-major or natural, picked from the
//! pattern whatever the solver kind — see [`crate::exec`]) and swept as
//! a contiguous row gather. Warm results are bit-identical to one-shot
//! [`crate::solve`] — at a small fraction of the wall-clock. `BENCH_engine.json`
//! (emitted by `cargo bench -p sptrsv-bench --bench engine`) tracks the
//! ratio.
//!
//! ## The warm tiers: one kernel, three shapes
//!
//! Every warm solve is the same row sweep
//! `y[i] = (y[i] − Σₖ vals[k]·y[cols[k]]) / diag[i]` over the
//! relabelled factor, with `b` permuted into `y` before it and `x`
//! out after (see [`crate::exec`]'s module docs); the tiers differ
//! only in how many right-hand sides one sweep carries and which
//! thread runs it:
//!
//! 1. **Single solve** — [`SolverEngine::solve`] (convenience,
//!    allocates the report) or [`SolverEngine::solve_into`]
//!    (caller-provided [`SolveWorkspace`] and output buffer, **zero**
//!    heap allocation in steady state): one thread sweeps `0..n`.
//!    Right choice when right-hand sides arrive one at a time with
//!    data dependencies between them — e.g. the preconditioner
//!    application inside a Krylov iteration.
//!    ([`SolverEngine::solve_sharded_into`] is the same solve; its
//!    worker count is ignored — see [`crate::exec`] for why one
//!    solve is never split across threads.)
//! 2. **Fused panel** — [`SolverEngine::solve_panel_into`]: the factor
//!    is streamed once per K-wide block of right-hand sides
//!    ([`crate::exec::PANEL_K`] lanes, interleaved layout, vectorized
//!    lane loops) instead of once per RHS. The sweep is
//!    memory-bandwidth-bound, so this wins whenever ≥ 2 independent
//!    right-hand sides are available at once.
//! 3. **Pooled batch** — [`SolverEngine::solve_batch`] /
//!    [`SolverEngine::solve_batch_into`] split the batch into
//!    contiguous chunks and run fused panels on a **persistent worker
//!    pool** (lazily spawned, reused across calls). Chunking is
//!    deterministic, so results never depend on the worker count.
//!
//! All three tiers, in every layout order, return
//! [`crate::reference`]'s bits (the argument is in [`crate::exec`]'s
//! module docs), so every engine holds **one** factor and every
//! consumer — the Krylov preconditioner's `apply_into`, the
//! `verify: true` check — sweeps it. Verification therefore checks the
//! solve's tier against the serial tier on the same factor, not
//! against an independent oracle.
//!
//! ## The value-refresh lifecycle
//!
//! Time-stepping and quasi-Newton workloads refactor the **same
//! sparsity pattern** with new numeric values every few steps. The
//! analysis phase — level sets, the schedule, the relabelling, the
//! calibration timeline — depends only on *structure*, so none of it
//! goes stale when values change. [`SolverEngine::refresh_values`]
//! exploits that: the factor is split into a shared, immutable
//! [`crate::exec::Layout`] and its [`crate::exec::Values`] (`vals`,
//! `diag`), published together as one immutable snapshot behind an
//! `Arc`. A refresh gathers new values — one `vals[k] = values[from[k]]`
//! pass, zero symbolic work — into the retired snapshot and swaps it in.
//!
//! The refresh contract:
//!
//! * **Validate first, publish after.** The incoming matrix must carry
//!   the *identical* sparsity pattern (checked entry-for-entry; drift
//!   is a typed [`SolveError::StructureMismatch`]) and pass the same
//!   [`sparsemat::audit_factor`] sweep a cold build runs (non-finite
//!   values and zero pivots are typed [`SolveError::Matrix`] errors).
//!   Nothing live is ever mutated, so a failure leaves the engine
//!   exactly as it was — the strong exception guarantee: a rejected
//!   refresh keeps serving the old values bit-identically.
//! * **Epoch atomicity.** Every solve entry point clones the published
//!   `Arc` once, under a mutex held only for that pointer copy, and
//!   sweeps (and verifies) the clone with no lock held, so every call
//!   executes against exactly one value epoch — old or new, never a
//!   torn mix — and a refresh never waits for a solve.
//!   [`SolverEngine::value_epoch`] counts committed refreshes.
//! * **Bit-identity with a cold rebuild.** A refreshed engine's three
//!   warm tiers produce bit-for-bit the solutions a freshly built
//!   engine on the new matrix would — same layout, same operation
//!   sequence, only the values swapped.
//!
//! ## Error contract
//!
//! Problems a *caller* can cause — wrong right-hand-side length, wrong
//! output-buffer length, wrong output count for a batch — surface as
//! typed [`SolveError`]s from every public entry point. Panics are
//! reserved for internal invariants (a broken engine, not a bad
//! argument).

use crate::exec::{self, ExecError, Layout, NumericFactor, ReplayWorkspace, Simulation};
use crate::fault::{self, FaultSite};
use crate::pool::{ScopedTask, WorkerPool};
use crate::report::SolveReport;
use crate::schedule::{Schedule, ScheduleStats};
use crate::solver::{MultiRhsReport, SolveError, SolveOptions};
use crate::telemetry::{Hist, Site, SpanGuard, Stopwatch};
use crate::verify;
use desim::SimTime;
use mgpu_sim::MachineConfig;
use sparsemat::{CscMatrix, FactorAudit, FactorFingerprint, LevelSets, MatrixError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A reusable solver: analysis done once at build, arbitrarily many
/// solves afterwards.
///
/// [`SolverEngine::build`] borrows the factor (`'m`), so the matrix
/// outlives the engine — the natural shape for a preconditioner loop
/// where `L`/`U` live for the whole Krylov iteration. The fleet's
/// engines are `'static` instead: each shares the `Arc<CscMatrix>` the
/// fleet registered, so the engine itself keeps its factor alive and
/// can be handed to any thread.
///
/// The prebuilt state is split along the refresh boundary: the
/// structure-only [`Layout`] (the relabelled pattern) is immutable for
/// the engine's lifetime; the *values* it lays out are published as an
/// immutable [`Epoch`] snapshot, which [`SolverEngine::refresh_values`]
/// replaces by swapping an `Arc`. The solver kind picks what the lazy
/// calibration simulates and the schedule stats it reports, never the
/// layout.
#[derive(Debug)]
pub struct SolverEngine<'m> {
    m: MatrixRef<'m>,
    opts: SolveOptions,
    /// What [`SolverEngine::calibration`] simulates (nothing for the
    /// serial kind).
    simulation: Simulation,
    /// The stats every report carries: [`Schedule::build`]'s for a
    /// simulated kind, whichever order the layout follows, and
    /// [`ScheduleStats::serial`] for the serial kind.
    schedule: ScheduleStats,
    /// The report template every [`SolverEngine::solve`] clones: the
    /// calibration run's report with an empty `x`, filled on the first
    /// `solve`, `calibration` or `cross_edges`. Value-independent (see
    /// the module docs), so a refresh never invalidates it.
    template: OnceLock<Result<Arc<SolveReport>, ExecError>>,
    /// The published value epoch. A solve clones the `Arc` under this
    /// mutex and sweeps the clone with no lock held; a refresh swaps
    /// the next epoch in under it. Both critical sections are pointer
    /// copies, so neither side ever waits for the other's sweep.
    current: Mutex<Arc<Epoch>>,
    /// The retired epoch: the next refresh's gather target, reused in
    /// place once no reader still pins it. A refresh holds this lock
    /// from gather to publish, so concurrent refreshers serialise here.
    spare: Mutex<Option<Arc<Epoch>>>,
    /// Committed value refreshes (0 = the build's values). Solves
    /// observe exactly one epoch each — see the module docs.
    value_epoch: AtomicU64,
    /// Worker pool + recycled workspaces — engine-private by default,
    /// or shared with sibling engines via
    /// [`SolverEngine::build_shared`] (the L/U pair of a
    /// [`crate::krylov::PreconditionerEngine`] runs hundreds of
    /// interleaved forward/backward solves per Krylov solve on **one**
    /// pool and one workspace free-list).
    resources: Arc<EngineResources>,
}

/// The factor an engine was built for: borrowed from the caller, or
/// shared with whoever else holds the `Arc` (the fleet's registry), so
/// that nothing is copied either way.
#[derive(Debug)]
enum MatrixRef<'m> {
    Borrowed(&'m CscMatrix),
    Shared(Arc<CscMatrix>),
}

impl std::ops::Deref for MatrixRef<'_> {
    type Target = CscMatrix;

    fn deref(&self) -> &CscMatrix {
        match self {
            MatrixRef::Borrowed(m) => m,
            MatrixRef::Shared(m) => m,
        }
    }
}

/// One published value epoch: the factor every tier sweeps, plus the
/// [`sparsemat::audit_factor`] sweep its values passed — at build, or
/// in the refresh that published it (clean by construction, since
/// non-finite findings fail the build and any finding fails a
/// refresh). Never mutated while published.
#[derive(Debug, Clone)]
pub(crate) struct Epoch {
    pub(crate) factor: NumericFactor,
    audit: FactorAudit,
}

/// A refresh gathered into the spare epoch and not yet visible to any
/// reader, with the spare lock that serialises refreshers until
/// [`SolverEngine::publish`] swaps it in.
pub(crate) type Staged<'e> = (MutexGuard<'e, Option<Arc<Epoch>>>, Arc<Epoch>);

/// The runtime resources behind an engine's warm tiers: the persistent
/// worker pool (spawned lazily on the first pooled batch) and the
/// free-list of recycled [`SolveWorkspace`]s that keeps steady-state
/// batched solves allocation-free.
///
/// Every engine owns an `Arc` of one of these. [`SolverEngine::build`]
/// creates a private instance; [`SolverEngine::build_shared`] accepts
/// an existing one, so several engines over the same workload — e.g.
/// the forward-L and backward-U engines of an ILU(0) preconditioner —
/// share threads and scratch instead of doubling both.
#[derive(Debug, Default)]
pub struct EngineResources {
    pool: OnceLock<WorkerPool>,
    workspaces: RecyclePool<SolveWorkspace>,
}

impl EngineResources {
    /// Fresh resources: no threads spawned, no workspaces cached —
    /// both materialize lazily on first use.
    pub fn new() -> EngineResources {
        EngineResources::default()
    }

    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(WorkerPool::new)
    }

    /// Times the worker pool came up short of a requested thread count
    /// (spawn failure, real or injected) — every shortfall narrowed a
    /// pooled batch, whose submitting thread ran the chunks no worker
    /// took (same bits). Zero if the pool was never spawned.
    pub fn spawn_shortfalls(&self) -> u64 {
        self.pool.get().map_or(0, WorkerPool::spawn_shortfalls)
    }
}

/// A poison-recovering free-list of recycled scratch objects — the
/// pattern behind both the engines' [`SolveWorkspace`] pool and the
/// preconditioner's apply-workspace pool. The list only holds scratch
/// whose buffers are re-`resize`d by every consumer, so the data is
/// valid wherever a panicking holder stopped — a panicked pool task
/// must not permanently brick later warm solves.
#[derive(Debug, Default)]
pub(crate) struct RecyclePool<T>(Mutex<Vec<T>>);

impl<T: Default> RecyclePool<T> {
    /// Pop a recycled item, or a fresh default on first use.
    pub(crate) fn take(&self) -> T {
        self.lock().pop().unwrap_or_default()
    }

    /// Return an item to the free-list.
    pub(crate) fn put(&self, item: T) {
        self.lock().push(item);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Lock with poison recovery. The epoch slots only ever hold whole
/// `Arc`s — a reader copies one, a refresh swaps one in — and a
/// refresh gathers into an epoch it has taken out of the spare slot,
/// so a holder that unwinds never leaves a slot torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The receipt of a committed [`SolverEngine::refresh_values`]: what
/// changed, which value epoch is now live, and the audit evidence the
/// new values passed the same sweep a cold build runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshReport {
    /// System dimension (unchanged by construction — structure is
    /// immutable).
    pub n: usize,
    /// Nonzeros rewritten.
    pub nnz: usize,
    /// The value epoch now being served (1 after the first refresh).
    pub value_epoch: u64,
    /// The [`sparsemat::audit_factor`] sweep over the new values —
    /// clean by construction on a committed refresh, kept as the
    /// evidence trail.
    pub audit: FactorAudit,
}

impl fmt::Display for RefreshReport {
    /// One-liner for example/harness output, e.g.
    /// `refresh: n=15000, nnz=44997 rewritten, value epoch 2, audit
    /// clean`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refresh: n={}, nnz={} rewritten, value epoch {}, audit {}",
            self.n,
            self.nnz,
            self.value_epoch,
            if self.audit.is_clean() {
                "clean".to_string()
            } else {
                format!("{} findings", self.audit.finding_count)
            }
        )
    }
}

/// Reusable scratch for the allocation-free warm-solve paths
/// ([`SolverEngine::solve_into`], [`SolverEngine::solve_panel_into`]).
/// Buffers grow on first use and are retained, so a workspace reused
/// across solves of the same engine allocates nothing after warm-up.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// The position-space solution: `n` for a scalar solve, `n × K`
    /// interleaved for a panel block.
    replay: ReplayWorkspace,
    /// Reference solution buffer for verification.
    ref_x: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> SolveWorkspace {
        SolveWorkspace::default()
    }
}

impl<'m> SolverEngine<'m> {
    /// Run the analysis phase for `m` under `opts` — once.
    ///
    /// Validates and audits the factor, performs the machine
    /// feasibility check (NVSHMEM needs all-pairs P2P), analyzes the
    /// level sets and builds the [`Schedule`] (a simulated kind), and
    /// lays the factor out for the warm tiers in the order its
    /// structure picks: level-major along the level sets (analyzed for
    /// that even on the serial kind) or natural. Structure only: the
    /// calibration simulation waits for the first
    /// [`SolverEngine::solve`], [`SolverEngine::calibration`] or
    /// [`SolverEngine::cross_edges`].
    pub fn build(
        m: &'m CscMatrix,
        machine_cfg: MachineConfig,
        opts: &SolveOptions,
    ) -> Result<SolverEngine<'m>, SolveError> {
        SolverEngine::build_shared(m, machine_cfg, opts, Arc::new(EngineResources::new()))
    }

    /// [`SolverEngine::build`] with caller-provided [`EngineResources`]
    /// — the composition hook for multi-engine workloads: every engine
    /// handed the same `Arc` shares one worker pool and one workspace
    /// free-list. The `krylov` preconditioner builds its L and U
    /// engines this way so interleaved forward/backward solves recycle
    /// each other's scratch and never spawn a second thread pool.
    pub fn build_shared(
        m: &'m CscMatrix,
        machine_cfg: MachineConfig,
        opts: &SolveOptions,
        resources: Arc<EngineResources>,
    ) -> Result<SolverEngine<'m>, SolveError> {
        SolverEngine::analyze(MatrixRef::Borrowed(m), machine_cfg, opts, resources)
    }

    /// [`SolverEngine::build_shared`] over a factor the engine shares
    /// rather than borrows: it keeps `m` alive itself, so it is
    /// `'static`. Nothing is copied.
    pub(crate) fn build_owned(
        m: Arc<CscMatrix>,
        machine_cfg: MachineConfig,
        opts: &SolveOptions,
        resources: Arc<EngineResources>,
    ) -> Result<SolverEngine<'static>, SolveError> {
        SolverEngine::analyze(MatrixRef::Shared(m), machine_cfg, opts, resources)
    }

    fn analyze(
        matrix: MatrixRef<'m>,
        machine_cfg: MachineConfig,
        opts: &SolveOptions,
        resources: Arc<EngineResources>,
    ) -> Result<SolverEngine<'m>, SolveError> {
        let build_sw = Stopwatch::start();
        let m: &CscMatrix = &matrix;
        m.validate_triangular(opts.triangle)?;
        // numeric guardrail, paid once where it is amortized: a NaN or
        // infinity in the factor would poison thousands of warm solves
        // bit-identically, so it fails the build instead. Zero
        // diagonals and duplicates were already rejected above; the
        // audit is kept on the engine as evidence the sweep ran.
        let audit = sparsemat::audit_factor(m);
        if let Some(e @ MatrixError::NonFiniteValue { .. }) = audit.first_error() {
            return Err(SolveError::Matrix(e));
        }
        let simulation = Simulation::for_kind(&machine_cfg, opts)?;
        let (tri, simulated) = (opts.triangle, !matches!(simulation, Simulation::Host));
        // the warm layout's order follows the pattern, the stats follow
        // the kind: a simulated kind reports its level schedule however
        // the factor is laid out, so the serial kind analyzes levels
        // only when the layout asks for them
        let level_major = exec::prefers_level_major(m, tri);
        let levels = (simulated || level_major).then(|| {
            let _g = SpanGuard::enter(Site::BuildAnalyze);
            LevelSets::analyze(m, tri)
        });
        let (schedule, layout) = {
            let _g = SpanGuard::enter(Site::BuildSchedule);
            let schedule = match &levels {
                Some(levels) if simulated => {
                    Schedule::build(levels, None, opts.schedule_tuning()).stats()
                }
                _ => ScheduleStats::serial(m.n()),
            };
            (schedule, Layout::new(m, tri, levels.as_ref().filter(|_| level_major)))
        };
        let factor = NumericFactor::new(Arc::new(layout), m);

        build_sw.stop(Hist::BuildNs);
        Ok(SolverEngine {
            m: matrix,
            opts: opts.clone(),
            simulation,
            schedule,
            template: OnceLock::new(),
            current: Mutex::new(Arc::new(Epoch { factor, audit })),
            spare: Mutex::new(None),
            value_epoch: AtomicU64::new(0),
            resources,
        })
    }

    /// The latest [`FactorAudit`] over this engine's values — from the
    /// build, or from the most recent committed
    /// [`SolverEngine::refresh_values`]. On a live engine it never
    /// carries non-finite findings (those fail the build with a typed
    /// error, and *any* finding fails a refresh), so this is the
    /// evidence trail that the sweep ran, plus whatever benign findings
    /// a caller may want to log.
    pub fn factor_audit(&self) -> FactorAudit {
        self.snapshot().audit.clone()
    }

    /// The value epoch currently being served: 0 until the first
    /// committed [`SolverEngine::refresh_values`], incremented by one
    /// per committed refresh. Cheap (one atomic load) — the number a
    /// cache or client pairs with
    /// [`sparsemat::FactorFingerprint::with_epoch`] to identify the
    /// numerics without hashing them.
    pub fn value_epoch(&self) -> u64 {
        self.value_epoch.load(Ordering::Acquire)
    }

    /// The factor this engine was **built** for. The structure is
    /// authoritative for the engine's lifetime; the *values* are those
    /// of the build and are superseded once
    /// [`SolverEngine::refresh_values`] commits (the engine borrows or
    /// shares the matrix immutably and never writes it back).
    #[inline]
    pub fn matrix(&self) -> &CscMatrix {
        &self.m
    }

    /// The options this engine was built with.
    #[inline]
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Host bytes this engine holds beyond its matrix: the
    /// relabelled factor (a level-major layout keeps its position
    /// table, a natural one has none), the spare values a refresh
    /// gathers into (once the first refresh has allocated them), plus
    /// one warm
    /// [`SolveWorkspace`] at this dimension — the per-engine charge a
    /// byte-bounded factor cache accounts (the cache adds the matrix's
    /// own bytes separately: the matrix is the registry's `Arc`, which
    /// the engine may share but never copies).
    pub fn footprint_bytes(&self) -> u64 {
        let n = self.m.n() as u64;
        // one fully-grown workspace: the n×PANEL_K position-space
        // panel, plus the reference vector a verifying engine fills
        let workspace = n * 8 * (exec::PANEL_K as u64 + u64::from(self.opts.verify));
        let spare = lock(&self.spare).as_ref().map_or(0, |e| e.factor.values_bytes());
        self.snapshot().factor.host_bytes() + spare + workspace
    }

    /// Cross-GPU dependency edges under the simulated execution plan (0
    /// for serial / level-set variants). Calibrates on first call.
    pub fn cross_edges(&self) -> u64 {
        self.template().map_or(0, |t| t.cross_edges)
    }

    /// The report template, calibrating on the first call: concurrent
    /// first callers wait for one simulation. A calibration failure is
    /// kept and surfaces as [`SolveError::Exec`].
    fn template(&self) -> Result<&Arc<SolveReport>, SolveError> {
        self.template
            .get_or_init(|| {
                self.simulation.calibrate(&self.m, &self.opts, self.schedule).map(Arc::new)
            })
            .as_ref()
            .map_err(|e| SolveError::Exec(e.clone()))
    }

    /// Solve `m · x = b` reusing the prebuilt analysis and the
    /// calibrated timeline.
    ///
    /// The first call of a simulated kind runs the calibration
    /// simulation (once per engine); every solve after it runs only the
    /// numeric substitution — no level-set, plan or adjacency
    /// construction, no event loop — and returns a report
    /// bit-identical to one-shot [`crate::solve`] with the same inputs.
    /// The only allocation is the returned `x` (scratch comes from the
    /// engine's recycled workspaces). The serial kind reports the
    /// degenerate one-chain schedule and no simulated time.
    pub fn solve(&self, b: &[f64]) -> Result<SolveReport, SolveError> {
        self.solve_report(&self.snapshot().factor, b)
    }

    /// [`SolverEngine::solve`] on the epoch the caller pinned.
    fn solve_report(&self, factor: &NumericFactor, b: &[f64]) -> Result<SolveReport, SolveError> {
        let mut x = vec![0.0f64; self.m.n()];
        let mut ws = self.resources.workspaces.take();
        let verified = self.solve_single(factor, b, &mut x, &mut ws);
        self.resources.workspaces.put(ws);
        let verified_rel_err = verified?;
        Ok(SolveReport { x, verified_rel_err, ..(**self.template()?).clone() })
    }

    /// Allocation-free warm solve: run the numeric substitution into
    /// the caller's output buffer, using (and growing, once) the
    /// caller's workspace.
    ///
    /// Steady state — after the workspace buffers have grown to the
    /// engine's dimension — this performs **zero** heap allocation,
    /// including under `opts.verify`. Results are bit-identical to
    /// [`SolverEngine::solve`].
    pub fn solve_into(
        &self,
        b: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolveError> {
        self.solve_single(&self.snapshot().factor, b, out, ws).map(drop)
    }

    /// [`SolverEngine::solve_into`] under its historical name: the
    /// same core, the same typed errors, the same bits. `workers` is
    /// ignored — every single-RHS solve is one serial sweep (see
    /// [`crate::exec`]'s module docs). Kept for the layered benchmark,
    /// which calls it with `workers = 1`.
    pub fn solve_sharded_into(
        &self,
        b: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
        _workers: usize,
    ) -> Result<(), SolveError> {
        self.solve_into(b, out, ws)
    }

    /// The one single-RHS warm-solve core behind `solve` and
    /// `solve_into`: validate, sweep, verify — all on the caller's
    /// pinned `factor`, so the whole call runs against a single value
    /// epoch. Returns the verified relative error when `opts.verify`
    /// is set.
    fn solve_single(
        &self,
        factor: &NumericFactor,
        b: &[f64],
        out: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<Option<f64>, SolveError> {
        let n = self.m.n();
        if b.len() != n {
            return Err(SolveError::DimensionMismatch {
                n,
                rhs: b.len(),
                index: None,
                buffer: "rhs",
            });
        }
        if out.len() != n {
            return Err(SolveError::OutputLength { n, out: out.len(), buffer: "out" });
        }
        let _g = SpanGuard::enter(Site::SolveSerial);
        let sw = Stopwatch::start();
        factor.solve_into(b, &mut ws.replay, out);
        sw.stop(Hist::SolveSerialNs);
        self.verify_into(factor, b, out, ws, true)
    }

    /// Fused multi-RHS warm solve (tier 2): the factor is streamed
    /// once per [`crate::exec::PANEL_K`]-wide block of right-hand
    /// sides instead of once per RHS — single-threaded, in the
    /// caller's workspace, zero heap allocation in steady state (each
    /// `outs` vector is resized to `n` on first use and reused
    /// afterwards).
    ///
    /// Every solution is bit-identical to [`SolverEngine::solve`] on
    /// the same right-hand side.
    ///
    /// # Errors
    /// A wrong-length right-hand side, or an `outs` that does not hold
    /// exactly one vector per right-hand side, is a typed error — not
    /// a panic.
    pub fn solve_panel_into(
        &self,
        bs: &[Vec<f64>],
        outs: &mut [Vec<f64>],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolveError> {
        self.validate_batch_dims(bs)?;
        if outs.len() != bs.len() {
            return Err(SolveError::OutputLength { n: bs.len(), out: outs.len(), buffer: "outs" });
        }
        self.panel_into_prevalidated(&self.snapshot().factor, bs, outs, ws)
    }

    /// The fused-panel body with the per-lane validation already done —
    /// the entry point for callers that validated every right-hand side
    /// at admission time (the [`crate::serve`] dispatcher checks each
    /// request's length once in `submit`, so a coalesced panel must not
    /// re-pay a validation sweep per dispatched lane).
    ///
    /// Dimension discipline is the caller's obligation here
    /// (`debug_assert`ed); results and verification behavior are
    /// exactly [`SolverEngine::solve_panel_into`]'s, on the epoch
    /// `factor` the caller pinned.
    pub(crate) fn panel_into_prevalidated(
        &self,
        factor: &NumericFactor,
        bs: &[Vec<f64>],
        outs: &mut [Vec<f64>],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolveError> {
        debug_assert!(bs.iter().all(|b| b.len() == self.m.n()), "prevalidated rhs length");
        debug_assert_eq!(bs.len(), outs.len(), "prevalidated output count");
        let _g = SpanGuard::enter(Site::SolvePanel);
        let sw = Stopwatch::start();
        factor.solve_panel_into(bs, &mut ws.replay, outs);
        for (b, out) in bs.iter().zip(outs.iter()) {
            self.verify_into(factor, b, out, ws, false)?;
        }
        sw.stop(Hist::SolvePanelNs);
        Ok(())
    }

    /// Solve for several right-hand sides sequentially, charging the
    /// analysis phase once (§II-B amortization) — the engine-backed
    /// implementation of [`crate::solve_multi_rhs`]. Every solve of
    /// the call runs on one value epoch.
    pub fn solve_multi_rhs(&self, bs: &[Vec<f64>]) -> Result<MultiRhsReport, SolveError> {
        self.validate_batch_dims(bs)?;
        let epoch = self.snapshot();
        let mut reports = Vec::with_capacity(bs.len());
        for b in bs {
            reports.push(self.solve_report(&epoch.factor, b)?);
        }
        Ok(amortized(reports))
    }

    /// Solve independent right-hand sides in parallel on the engine's
    /// persistent worker pool — results are bit-identical to sequential
    /// [`SolverEngine::solve`] calls and deterministic across runs and
    /// worker counts.
    ///
    /// Uses all available cores; see
    /// [`SolverEngine::solve_batch_with_threads`] to pin the width.
    pub fn solve_batch(&self, bs: &[Vec<f64>]) -> Result<MultiRhsReport, SolveError> {
        self.solve_batch_with_threads(bs, hardware_threads())
    }

    /// [`SolverEngine::solve_batch`] with an explicit worker count.
    ///
    /// Workers come from a pool spawned lazily on the first batched
    /// call and reused afterwards — steady-state batches pay no thread
    /// spawns. Every right-hand side is dimension-checked **before**
    /// any worker runs, so a bad vector fails fast instead of after
    /// earlier chunks have already solved. Every chunk solves on the
    /// one value epoch pinned when the call starts.
    pub fn solve_batch_with_threads(
        &self,
        bs: &[Vec<f64>],
        threads: usize,
    ) -> Result<MultiRhsReport, SolveError> {
        self.validate_batch_dims(bs)?;
        let threads = threads.clamp(1, bs.len().max(1));
        if threads == 1 || bs.len() <= 1 {
            return self.solve_multi_rhs(bs);
        }
        // contiguous chunks keep per-RHS order (and thus the amortized
        // totals) independent of the worker count
        let chunk = bs.len().div_ceil(threads);
        let n_chunks = bs.len().div_ceil(chunk);
        let mut results: Vec<Option<Result<Vec<SolveReport>, SolveError>>> =
            (0..n_chunks).map(|_| None).collect();
        let epoch = self.snapshot();
        let factor = &epoch.factor;
        let pool = self.pool();
        // chunking is keyed to the *requested* count (so results and
        // totals are reproducible for a given `threads`), but the pool
        // never grows beyond the hardware parallelism — excess chunks
        // just queue, and an absurd request cannot leak idle OS
        // threads for the engine's lifetime
        pool.ensure_threads(threads.min(hardware_threads()));
        let tasks: Vec<ScopedTask<'_>> = bs
            .chunks(chunk)
            .zip(results.iter_mut())
            .map(|(part, slot)| {
                let task: ScopedTask<'_> = Box::new(move || {
                    *slot = Some(part.iter().map(|b| self.solve_report(factor, b)).collect());
                });
                task
            })
            .collect();
        pool.scope_run(tasks);
        let mut reports = Vec::with_capacity(bs.len());
        for r in results {
            reports.extend(r.expect("chunk task completed")?);
        }
        Ok(amortized(reports))
    }

    /// Zero-allocation batched warm solve (tier 3): contiguous chunks
    /// of the batch run fused panels ([`SolverEngine::solve_panel_into`])
    /// on the persistent worker pool, writing into the caller's output
    /// vectors. Workspaces are recycled from an engine-internal pool,
    /// so steady-state calls allocate nothing.
    ///
    /// `outs` must hold exactly one vector per right-hand side
    /// (anything else is a typed error, not a panic); each is resized
    /// to `n` on first use (the only allocation, once). Results are
    /// bit-identical to [`SolverEngine::solve`] per RHS and
    /// deterministic across worker counts, and every chunk sweeps the
    /// one value epoch pinned when the call starts.
    pub fn solve_batch_into(
        &self,
        bs: &[Vec<f64>],
        outs: &mut [Vec<f64>],
    ) -> Result<(), SolveError> {
        self.validate_batch_dims(bs)?;
        if outs.len() != bs.len() {
            return Err(SolveError::OutputLength { n: bs.len(), out: outs.len(), buffer: "outs" });
        }
        let _g = SpanGuard::enter(Site::SolveBatch);
        let sw = Stopwatch::start();
        let threads = hardware_threads().clamp(1, bs.len().max(1));
        // a panel only pays off with ≥ 2 lanes per worker; below that,
        // solve on the caller's thread without touching the pool
        if threads == 1 || bs.len() < 2 * exec::PANEL_K {
            let mut ws = self.resources.workspaces.take();
            let r = self.solve_panel_into(bs, outs, &mut ws);
            self.resources.workspaces.put(ws);
            sw.stop(Hist::SolveBatchNs);
            return r;
        }
        let chunk = bs.len().div_ceil(threads);
        let n_chunks = bs.len().div_ceil(chunk);
        let mut results: Vec<Option<Result<(), SolveError>>> =
            (0..n_chunks).map(|_| None).collect();
        let epoch = self.snapshot();
        let factor = &epoch.factor;
        let pool = self.pool();
        pool.ensure_threads(threads);
        let tasks: Vec<ScopedTask<'_>> = bs
            .chunks(chunk)
            .zip(outs.chunks_mut(chunk))
            .zip(results.iter_mut())
            .map(|((cb, co), slot)| {
                let task: ScopedTask<'_> = Box::new(move || {
                    let mut ws = self.resources.workspaces.take();
                    *slot = Some(self.panel_into_prevalidated(factor, cb, co, &mut ws));
                    self.resources.workspaces.put(ws);
                });
                task
            })
            .collect();
        pool.scope_run(tasks);
        for r in results {
            r.expect("chunk task completed")?;
        }
        sw.stop(Hist::SolveBatchNs);
        Ok(())
    }

    /// The calibration run's report (timings, machine statistics, event
    /// counts — every value-independent field of a warm solve), shared
    /// behind `Arc`: simulated on the first call (or the first
    /// [`SolverEngine::solve`]), then returned as is. `None` for the
    /// serial variant, which has no simulated timeline, and for a
    /// calibration that failed (which [`SolverEngine::solve`] reports
    /// as [`SolveError::Exec`]).
    pub fn calibration(&self) -> Option<&Arc<SolveReport>> {
        match self.simulation {
            Simulation::Host => None,
            _ => self.template().ok(),
        }
    }

    /// The resources (pool + workspace free-list) behind this engine's
    /// warm tiers, shareable with further engines via
    /// [`SolverEngine::build_shared`].
    pub fn resources(&self) -> &Arc<EngineResources> {
        &self.resources
    }

    /// The published epoch, pinned: one `Arc` clone under the snapshot
    /// lock, and no lock held while the caller sweeps it.
    pub(crate) fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&self.current())
    }

    /// The snapshot slot, locked — held only for a pointer copy or a
    /// swap. The Krylov pair takes both engines' slots, forward then
    /// backward, to pin or publish its two epochs as one.
    pub(crate) fn current(&self) -> MutexGuard<'_, Arc<Epoch>> {
        lock(&self.current)
    }

    fn pool(&self) -> &WorkerPool {
        self.resources.pool()
    }

    /// Check every right-hand side of a batch *before* any solve runs,
    /// naming the offending index — a short vector in the middle of a
    /// batch must fail fast and point at itself, not surface as a
    /// mid-batch error after earlier chunks already solved.
    fn validate_batch_dims(&self, bs: &[Vec<f64>]) -> Result<(), SolveError> {
        let n = self.m.n();
        if let Some((k, bad)) = bs.iter().enumerate().find(|(_, b)| b.len() != n) {
            return Err(SolveError::DimensionMismatch {
                n,
                rhs: bad.len(),
                index: Some(k),
                buffer: "rhs",
            });
        }
        Ok(())
    }

    /// Allocation-free verification: sweep the caller's factor with
    /// the serial tier into workspace scratch and compare; `None`
    /// unless `opts.verify`. Takes the factor the caller pinned, so
    /// the check uses the values of that epoch. This checks the tier
    /// that ran (the panel) against the serial tier — whose bits
    /// are [`crate::reference`]'s — so when the solve itself was the
    /// serial sweep (`serial`), the error is exactly zero without a
    /// second sweep.
    fn verify_into(
        &self,
        factor: &NumericFactor,
        b: &[f64],
        x: &[f64],
        ws: &mut SolveWorkspace,
        serial: bool,
    ) -> Result<Option<f64>, SolveError> {
        if !self.opts.verify {
            return Ok(None);
        }
        if serial {
            return Ok(Some(0.0));
        }
        ws.ref_x.resize(self.m.n(), 0.0);
        factor.solve_into(b, &mut ws.replay, &mut ws.ref_x);
        let err = verify::rel_inf_diff(x, &ws.ref_x);
        if err > verify::DEFAULT_TOL {
            return Err(SolveError::Verification { rel_err: err });
        }
        Ok(Some(err))
    }

    /// Replace the engine's numeric values with `m2`'s — **zero
    /// symbolic work**: no level sets, no plan, no adjacency
    /// construction, no calibration. `m2` must carry the identical
    /// sparsity pattern the engine was built for.
    ///
    /// Validation runs first: a structure drift is a typed
    /// [`SolveError::StructureMismatch`], a non-finite value or zero
    /// pivot a typed [`SolveError::Matrix`] (the same
    /// [`sparsemat::audit_factor`] verdicts a cold build enforces) —
    /// and on any failure the engine is untouched and keeps serving the
    /// old values bit-identically (strong exception guarantee).
    ///
    /// The new values are gathered into a spare epoch beside the live
    /// one and published by swapping an `Arc`, so a refresh never waits
    /// for in-flight solves — they finish on the epoch they pinned —
    /// and every solve that starts after it returns sees the new
    /// values. The spare is the retired epoch: only the first refresh
    /// allocates, unless a reader still pins the epoch before last.
    /// After a commit, all three warm tiers produce bit-for-bit the
    /// solutions of a cold [`SolverEngine::build`] on `m2`.
    pub fn refresh_values(&self, m2: &CscMatrix) -> Result<RefreshReport, SolveError> {
        let _g = SpanGuard::enter(Site::ValueRefresh);
        let sw = Stopwatch::start();
        let audit = check_refresh(&self.m, m2)?;
        // injected mid-refresh crash: sits after validation and before
        // the gather, so an interrupted refresh leaves the old epoch
        // fully intact (asserted by the chaos suite)
        fault::fire_panic(FaultSite::ValueRefresh);
        let report = self.publish(self.stage_refresh(m2, audit), &mut self.current());
        sw.stop(Hist::RefreshNs);
        Ok(report)
    }

    /// The infallible half of [`SolverEngine::refresh_values`]: gather
    /// `m2`'s values into the spare epoch, outside the snapshot lock,
    /// for [`SolverEngine::publish`]. Only call with a matrix
    /// [`check_refresh`] accepted against [`SolverEngine::matrix`].
    pub(crate) fn stage_refresh(&self, m2: &CscMatrix, audit: FactorAudit) -> Staged<'_> {
        let mut spare = lock(&self.spare);
        // `make_mut` reuses the retired epoch in place when no reader
        // pins it, and otherwise (or, on the first refresh, from the
        // live epoch) copies it into a fresh allocation
        let mut next = spare.take().unwrap_or_else(|| self.snapshot());
        let epoch = Arc::make_mut(&mut next);
        epoch.factor.refresh_values(m2);
        epoch.audit = audit;
        (spare, next)
    }

    /// Swap a staged epoch into `current` — this engine's snapshot
    /// slot, locked by the caller — keep the retired epoch as the next
    /// spare, and bump the epoch counter.
    pub(crate) fn publish(
        &self,
        (mut spare, next): Staged<'_>,
        current: &mut Arc<Epoch>,
    ) -> RefreshReport {
        debug_assert!(Arc::ptr_eq(next.factor.layout(), current.factor.layout()), "foreign epoch");
        // a clean audit's example lists are empty, so the clone (and
        // the whole steady-state refresh) allocates nothing
        let audit = next.audit.clone();
        *spare = Some(std::mem::replace(current, next));
        let value_epoch = self.value_epoch.fetch_add(1, Ordering::Release) + 1;
        RefreshReport { n: self.m.n(), nnz: self.m.nnz(), value_epoch, audit }
    }
}

/// The fallible half of every value refresh: check that `m2` has `m`'s
/// exact structure and audit its values, touching nothing. Split from
/// the infallible [`SolverEngine::stage_refresh`] so a multi-engine
/// caller (the L/U preconditioner pair) can validate *every* side
/// before staging *any* — pair-atomic refresh — and so a factor with
/// no engine over it (the fleet's at-rest refresh) passes the same
/// checks.
pub(crate) fn check_refresh(m: &CscMatrix, m2: &CscMatrix) -> Result<FactorAudit, SolveError> {
    // exact, entry-for-entry structure identity — cheaper than
    // hashing and allocation-free; the hashes are only computed on
    // the failure path, to name both identities in the error
    if m2.n() != m.n() || m2.col_ptr() != m.col_ptr() || m2.row_idx() != m.row_idx() {
        return Err(SolveError::StructureMismatch {
            expected: FactorFingerprint::of(m).structure_hash(),
            got: FactorFingerprint::of(m2).structure_hash(),
        });
    }
    // same sweep a cold build runs — but a refresh rejects *all*
    // findings: zero pivots would have failed the cold build's
    // triangular validation, and duplicates cannot appear under an
    // identical structure, so any finding here is disqualifying
    let audit = sparsemat::audit_factor(m2);
    if let Some(e) = audit.first_error() {
        return Err(SolveError::Matrix(e));
    }
    Ok(audit)
}

/// The host's hardware thread count, read once per process and cached:
/// `available_parallelism` reads cgroup and affinity files on every
/// call (~15 µs), and every batch call asks.
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Assemble the amortized multi-RHS accounting: the analysis phase is
/// structure-only, so it is charged on the first solve and elided on
/// the rest.
fn amortized(reports: Vec<SolveReport>) -> MultiRhsReport {
    let mut total = 0u64;
    for (k, r) in reports.iter().enumerate() {
        total += if k == 0 { r.timings.total.as_ns() } else { r.timings.solve.as_ns() };
    }
    MultiRhsReport { reports, total: SimTime::from_ns(total) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverKind;
    use sparsemat::{gen, Triangle};
    use std::time::Duration;

    fn small() -> (CscMatrix, Vec<f64>) {
        let m = gen::level_structured(&gen::LevelSpec::new(900, 18, 3600, 4));
        let (_, b) = verify::rhs_for(&m, 42);
        (m, b)
    }

    /// Once calibrated, solves build nothing: the first `solve()` (or
    /// `calibration()`) is the only one that simulates.
    #[test]
    fn warm_solves_build_nothing() {
        let (m, b) = small();
        let opts = SolveOptions::default();
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let exec_before = exec::analysis_builds();
        let calibration = Arc::clone(engine.calibration().expect("simulated kind"));
        assert_eq!(exec::analysis_builds(), exec_before + 1, "calibration simulates once");
        let levels_before = sparsemat::levels::analyze_invocations();
        let plans_before = crate::plan::build_invocations();
        let exec_before = exec::analysis_builds();
        let reports: Vec<SolveReport> = (0..3).map(|_| engine.solve(&b).unwrap()).collect();
        assert_eq!(sparsemat::levels::analyze_invocations(), levels_before);
        assert_eq!(crate::plan::build_invocations(), plans_before);
        assert_eq!(exec::analysis_builds(), exec_before);
        for r in &reports {
            assert_eq!(r.x, reports[0].x, "warm solves are bit-identical");
            assert_eq!(r.timings.total, calibration.timings.total);
        }
    }

    #[test]
    fn serial_variant_reports_degenerate_schedule_stats() {
        // regression: `SolveReport.schedule` used to be `None` for the
        // plain serial variant, forcing every consumer to special-case
        let (m, b) = small();
        let opts = SolveOptions { kind: SolverKind::Serial, ..Default::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(1), &opts).unwrap();
        let r = engine.solve(&b).unwrap();
        let s = r.schedule.expect("serial reports populate schedule stats");
        assert_eq!(s, crate::ScheduleStats::serial(m.n()));
        assert_eq!((s.chains, s.barriers_per_solve), (1, 0));
        assert_eq!(s.rows, m.n());
        // untraced solves embed the zero-cost default telemetry digest
        assert_eq!(r.telemetry, crate::telemetry::TelemetryReport::default());
    }

    /// The schedule stats follow the kind, not the layout. `small()`
    /// is laid out in natural order, yet a simulated kind reports its
    /// level schedule through `solve()` and `calibration()`, with the
    /// event count and simulated time recorded when every simulated
    /// kind was level-major. The grid's `L` is laid out level-major, yet
    /// the serial kind reports the one-chain serial stats.
    #[test]
    fn schedule_stats_follow_the_kind_not_the_layout() {
        let (m, b) = small();
        let levels =
            Schedule::build(&LevelSets::analyze(&m, Triangle::Lower), None, Default::default());
        assert_ne!(levels.stats(), ScheduleStats::serial(m.n()));
        let engine =
            SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
        assert!(engine.snapshot().factor.layout().is_natural());
        let calibration = engine.calibration().expect("simulated kind");
        assert_eq!(calibration.schedule, Some(levels.stats()));
        assert_eq!((calibration.events, calibration.timings.total.as_ns()), (5410, 124_293));
        assert_eq!(engine.solve(&b).unwrap().schedule, Some(levels.stats()));

        let grid = sparsemat::factor::ilu0(&gen::grid_laplacian(24, 24), 1e-8).unwrap();
        let (_, b) = verify::rhs_for(&grid.l, 42);
        let opts = SolveOptions { kind: SolverKind::Serial, ..Default::default() };
        let serial = SolverEngine::build(&grid.l, MachineConfig::dgx1(1), &opts).unwrap();
        assert!(!serial.snapshot().factor.layout().is_natural());
        assert_eq!(serial.solve(&b).unwrap().schedule, Some(ScheduleStats::serial(grid.l.n())));
        let simulated =
            SolverEngine::build(&grid.l, MachineConfig::dgx1(4), &Default::default()).unwrap();
        let calibration = simulated.calibration().expect("simulated kind");
        assert_eq!((calibration.events, calibration.timings.total.as_ns()), (2864, 216_463));
    }

    #[test]
    fn refresh_report_display_is_a_single_line() {
        let (m, _) = small();
        let engine =
            SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
        let rep = engine.refresh_values(&m).unwrap();
        let line = rep.to_string();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("refresh: "), "{line}");
        assert!(line.contains(&format!("n={}", m.n())), "{line}");
        assert!(line.contains(&format!("nnz={}", m.nnz())), "{line}");
        assert!(line.contains("value epoch 1") && line.contains("audit clean"), "{line}");
    }

    /// A refresh never waits for a reader: with the live epoch pinned
    /// the way an in-flight panel pins it, a refresh from another
    /// thread commits, the pin keeps sweeping the old bits and a new
    /// solve sees the new ones. A still-pinned spare makes the next
    /// refresh gather into a fresh epoch; an unpinned one is reused in
    /// place.
    #[test]
    fn refresh_never_waits_for_a_pinned_epoch() {
        let (m, b) = small();
        let mut m2 = m.clone();
        for (i, v) in m2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 7) as f64) * 0.01;
        }
        let opts = SolveOptions::default();
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let cold2 = SolverEngine::build(&m2, MachineConfig::dgx1(4), &opts).unwrap();
        let (old, new) = (engine.solve(&b).unwrap().x, cold2.solve(&b).unwrap().x);
        let live = || Arc::as_ptr(&engine.snapshot());
        let (mut x, mut ws) = (vec![0.0; m.n()], ReplayWorkspace::new());
        std::thread::scope(|s| {
            // pinned inside the scope, so a failing assert unpins it
            // before the scope joins the refresher
            let pinned = engine.snapshot();
            let (tx, rx) = std::sync::mpsc::channel();
            let (e, m2) = (&engine, &m2);
            s.spawn(move || tx.send(e.refresh_values(m2).map(|r| r.value_epoch)));
            let committed = rx.recv_timeout(Duration::from_secs(60)).expect("the refresh waited");
            assert_eq!(committed.unwrap(), 1);
            pinned.factor.solve_into(&b, &mut ws, &mut x);
            assert_eq!(x, old, "the pinned epoch keeps its values");
            assert_eq!(engine.solve(&b).unwrap().x, new, "a new solve sees the refresh");
            let retired = live();
            engine.refresh_values(&m).unwrap();
            assert_ne!(live(), Arc::as_ptr(&pinned), "a pinned spare is never overwritten");
            pinned.factor.solve_into(&b, &mut ws, &mut x);
            assert_eq!(x, old, "the pinned epoch is still intact");
            drop(pinned);
            engine.refresh_values(m2).unwrap();
            assert_eq!(live(), retired, "an unpinned spare is reused in place");
        });
    }

    #[test]
    fn engine_rejects_non_p2p_at_build_time() {
        let (m, _) = small();
        let opts = SolveOptions::default();
        let err = SolverEngine::build(&m, MachineConfig::dgx1(8), &opts).unwrap_err();
        assert!(matches!(err, SolveError::NotP2p { gpus: 8 }));
    }

    #[test]
    fn engine_rejects_bad_dimensions_per_solve() {
        let (m, _) = small();
        let engine =
            SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
        let err = engine.solve(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SolveError::DimensionMismatch { .. }));
        // a wrong-length *output* buffer is a distinct error, so the
        // caller is pointed at the right argument
        let (_, b) = verify::rhs_for(&m, 1);
        let mut ws = SolveWorkspace::new();
        let mut short = vec![0.0; 3];
        let err = engine.solve_into(&b, &mut short, &mut ws).unwrap_err();
        assert!(matches!(err, SolveError::OutputLength { out: 3, .. }));
    }

    #[test]
    fn batch_matches_sequential_and_is_deterministic() {
        let (m, _) = small();
        let bs: Vec<Vec<f64>> = (0..8).map(|k| verify::rhs_for(&m, 500 + k).1).collect();
        let opts = SolveOptions { kind: SolverKind::ZeroCopy { per_gpu: 8 }, ..Default::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let seq = engine.solve_multi_rhs(&bs).unwrap();
        let par_a = engine.solve_batch_with_threads(&bs, 4).unwrap();
        let par_b = engine.solve_batch_with_threads(&bs, 3).unwrap();
        assert_eq!(seq.total, par_a.total);
        assert_eq!(par_a.total, par_b.total);
        for ((s, a), b) in seq.reports.iter().zip(&par_a.reports).zip(&par_b.reports) {
            assert_eq!(s.x, a.x);
            assert_eq!(a.x, b.x);
            assert_eq!(s.timings.total, a.timings.total);
        }
    }

    #[test]
    fn batch_amortizes_analysis() {
        let (m, _) = small();
        let bs: Vec<Vec<f64>> = (0..4).map(|k| verify::rhs_for(&m, 100 + k).1).collect();
        let opts = SolveOptions { kind: SolverKind::Unified, ..Default::default() };
        let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
        let multi = engine.solve_batch(&bs).unwrap();
        assert_eq!(multi.reports.len(), 4);
        assert!(multi.total < multi.unamortized_total());
    }

    #[test]
    fn engine_survives_poisoned_workspace_pool() {
        let (m, b) = small();
        let engine =
            SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
        let bs: Vec<Vec<f64>> = (0..4).map(|k| verify::rhs_for(&m, 700 + k).1).collect();
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
        engine.solve_batch_into(&bs, &mut outs).unwrap();
        let before = outs.clone();

        // Poison the shared workspace free-list the way a panicked pool
        // task would: a thread dies while holding the lock.
        let resources = Arc::clone(engine.resources());
        let poisoner = std::thread::spawn(move || {
            let _guard = resources.workspaces.0.lock().unwrap();
            panic!("simulated panicked solve while holding the workspace pool");
        });
        assert!(poisoner.join().is_err(), "poisoner must panic");
        assert!(engine.resources().workspaces.0.lock().is_err(), "mutex must be poisoned");

        // Every warm tier that recycles workspaces must keep working —
        // one panicked solve must not brick the engine for good.
        engine.solve_batch_into(&bs, &mut outs).unwrap();
        assert_eq!(outs, before, "post-poison solves stay bit-identical");
        let r = engine.solve(&b).unwrap();
        assert!(verify::rel_inf_diff(&r.x, &before[0]) >= 0.0); // solvable, no panic
    }

    #[test]
    fn batch_errors_name_the_offending_index() {
        let (m, _) = small();
        let engine =
            SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
        let n = m.n();
        let mut bs: Vec<Vec<f64>> = (0..5).map(|k| verify::rhs_for(&m, 300 + k).1).collect();
        bs[3] = vec![1.0; 7]; // one short RHS in the middle of the batch
        let expect_index = |err: SolveError| {
            assert!(
                matches!(err, SolveError::DimensionMismatch { n: en, rhs: 7, index: Some(3), .. } if en == n),
                "expected index-naming mismatch"
            );
        };
        expect_index(engine.solve_multi_rhs(&bs).unwrap_err());
        expect_index(engine.solve_batch(&bs).unwrap_err());
        expect_index(engine.solve_batch_with_threads(&bs, 2).unwrap_err());
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
        expect_index(engine.solve_batch_into(&bs, &mut outs).unwrap_err());
        let mut ws = SolveWorkspace::new();
        expect_index(engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap_err());
        let msg = engine.solve_multi_rhs(&bs).unwrap_err().to_string();
        assert!(msg.contains("#3"), "display must name the index: {msg}");
    }

    /// Worker counts of zero are clamped to one everywhere a count is
    /// accepted — a degenerate request degrades to the serial tier
    /// with bit-identical results, never a panic.
    #[test]
    fn zero_worker_counts_are_clamped() {
        let (m, b) = small();
        let engine =
            SolverEngine::build(&m, MachineConfig::dgx1(4), &SolveOptions::default()).unwrap();
        let expect = engine.solve(&b).unwrap().x;
        let mut ws = SolveWorkspace::new();
        let mut out = vec![0.0; m.n()];
        engine.solve_sharded_into(&b, &mut out, &mut ws, 0).unwrap();
        assert_eq!(out, expect);
        let bs: Vec<Vec<f64>> = (0..3).map(|k| verify::rhs_for(&m, 800 + k).1).collect();
        let multi = engine.solve_batch_with_threads(&bs, 0).unwrap();
        assert_eq!(multi.reports.len(), 3);
    }

    #[test]
    fn serial_and_levelset_variants_work_warm() {
        let (m, b) = small();
        for kind in [SolverKind::Serial, SolverKind::LevelSet] {
            let opts = SolveOptions { kind, ..Default::default() };
            let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
            let r1 = engine.solve(&b).unwrap();
            let r2 = engine.solve(&b).unwrap();
            assert_eq!(r1.x, r2.x);
            assert!(r1.verified_rel_err.unwrap() <= verify::DEFAULT_TOL);
        }
    }
}
