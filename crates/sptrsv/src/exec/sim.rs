//! The discrete-event half of the executor: the simulator's
//! structure-only inputs ([`ExecAnalysis`]), the lock-wait /
//! solve-update event loop that advances virtual time (see the
//! [module docs](super)), and [`Simulation`] — the calibration hook
//! through which the engine reaches the machine model.

use super::off_diagonal;
use crate::levelset;
use crate::plan::{ExecutionPlan, Partition};
use crate::report::{SolveReport, Timings};
use crate::schedule::ScheduleStats;
use crate::solver::{SolveError, SolveOptions, SolverKind};
use crate::telemetry::{Site, SpanGuard};
use crate::Backend;
use desim::{EventQueue, SimTime};
use mgpu_sim::topology::Topology;
use mgpu_sim::{um::UmRange, GpuId, GpuSpec, Machine, MachineConfig};
use sparsemat::{CscMatrix, Triangle};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(test)]
use super::tests::{fires, Mutation};

thread_local! {
    /// Per-thread count of [`ExecAnalysis::build`] invocations. The
    /// engine tests read this to prove warm solves build **zero**
    /// adjacency; thread-local so parallel tests cannot perturb each
    /// other's measurements.
    static ANALYSIS_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`ExecAnalysis::build`] has run on this thread.
pub fn analysis_builds() -> u64 {
    ANALYSIS_BUILDS.with(Cell::get)
}

/// Process-wide count behind [`calibrations`].
static CALIBRATIONS: AtomicU64 = AtomicU64::new(0);

/// How many calibration simulations engines have run in this process.
/// Each [`crate::engine::SolverEngine`] of a simulated kind runs at
/// most one, on the first `solve()`, `calibration()` or
/// `cross_edges()`; building, warm solves, refreshes and the served
/// paths run none.
pub fn calibrations() -> u64 {
    CALIBRATIONS.load(Ordering::Relaxed)
}

/// What a solver kind simulates — the engine's one door into the
/// machine model, fixed at build and run at most once, lazily.
#[derive(Debug, Clone)]
pub(crate) enum Simulation {
    /// The serial host solver: no machine, nothing to simulate.
    Host,
    /// The level-set (csrsv2) solver on one GPU.
    LevelSet(MachineConfig),
    /// A synchronization-free dataflow variant.
    Dataflow { machine: MachineConfig, partition: Partition, cfg: ExecConfig },
}

impl Simulation {
    /// The simulation `opts.kind` calibrates with on `machine`. The
    /// feasibility check it implies is cheap, so it runs here, at
    /// engine build: NVSHMEM variants need all-pairs P2P.
    pub(crate) fn for_kind(
        machine: &MachineConfig,
        opts: &SolveOptions,
    ) -> Result<Simulation, SolveError> {
        let shmem = Backend::Shmem { poll_caching: opts.poll_caching };
        let (one, all) = (MachineConfig { gpus: 1, ..machine.clone() }, machine.clone());
        let (backend, partition, machine) = match opts.kind {
            SolverKind::Serial => return Ok(Simulation::Host),
            SolverKind::LevelSet => return Ok(Simulation::LevelSet(one)),
            SolverKind::SyncFree => (Backend::SingleGpu, Partition::Blocked, one),
            SolverKind::Unified => (Backend::Unified, Partition::Blocked, all),
            SolverKind::UnifiedTasks { per_gpu } => {
                (Backend::Unified, Partition::Tasks { per_gpu }, all)
            }
            SolverKind::ShmemBlocked => (shmem, Partition::Blocked, all),
            SolverKind::ShmemNaive => (Backend::ShmemGup, Partition::Blocked, all),
            SolverKind::ZeroCopy { per_gpu } => (shmem, Partition::Tasks { per_gpu }, all),
            SolverKind::ZeroCopyTotal { total } => (shmem, Partition::TotalTasks { total }, all),
        };
        if matches!(backend, Backend::Shmem { .. } | Backend::ShmemGup)
            && !Topology::new(machine.topology, machine.gpus).fully_p2p()
        {
            return Err(SolveError::NotP2p { gpus: machine.gpus });
        }
        let cfg =
            ExecConfig { backend, triangle: opts.triangle, gather_all_pes: opts.gather_all_pes };
        Ok(Simulation::Dataflow { machine, partition, cfg })
    }

    /// The calibration: one full simulation of a solve of `m` under
    /// `opts`, returned as the report template every engine `solve()`
    /// clones — an empty `x`, no verification, `schedule` as given.
    /// The discrete-event timeline advances on structure alone (column
    /// sizes, ownership, the seeded jitter stream) and the simulator
    /// does none of the solve's arithmetic, so it holds for every
    /// right-hand side and value epoch. [`Simulation::Host`] returns
    /// the degenerate template without a machine.
    pub(crate) fn calibrate(
        &self,
        m: &CscMatrix,
        opts: &SolveOptions,
        schedule: ScheduleStats,
    ) -> Result<SolveReport, ExecError> {
        let mut report = SolveReport {
            fits_in_memory: true,
            schedule: Some(schedule),
            label: opts.kind.label().into(),
            ..SolveReport::default()
        };
        let (Simulation::LevelSet(cfg) | Simulation::Dataflow { machine: cfg, .. }) = self else {
            return Ok(report);
        };
        CALIBRATIONS.fetch_add(1, Ordering::Relaxed);
        let tri = opts.triangle;
        let mut machine = Machine::new(cfg.clone());
        let (analysis_end, makespan) = match self {
            Simulation::Dataflow { partition, cfg, .. } => {
                let plan = {
                    let _g = SpanGuard::enter(Site::BuildPlan);
                    ExecutionPlan::build(m.n(), machine.n_gpus(), *partition, tri)
                };
                report.kernels = plan.kernels.len();
                let analysis = {
                    let _g = SpanGuard::enter(Site::BuildAnalyze);
                    ExecAnalysis::build(m, &plan, cfg)
                };
                report.cross_edges = analysis.cross_edges();
                let _g = SpanGuard::enter(Site::BuildCalibrate);
                let out = run_prepared(&plan, &analysis, &mut machine, cfg)?;
                report.events = out.events;
                (out.analysis_end, out.makespan)
            }
            _ => {
                let _g = SpanGuard::enter(Site::BuildCalibrate);
                let out = levelset::run(m, &mut machine, tri);
                report.kernels = out.levels;
                (out.analysis_end, out.makespan)
            }
        };
        report.timings = Timings {
            analysis: analysis_end,
            solve: SimTime::from_ns(makespan - analysis_end),
            total: makespan,
        };
        report.stats = machine.stats();
        report.gpus = machine.n_gpus();
        report.fits_in_memory = machine.fits_in_memory();
        Ok(report)
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Communication backend.
    pub backend: Backend,
    /// Which triangle is being solved.
    pub triangle: Triangle,
    /// Gather `left_sum` from every PE (Algorithm 3 lines 24–26) rather
    /// than only from PEs that actually hold dependencies.
    pub gather_all_pes: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { backend: Backend::SingleGpu, triangle: Triangle::Lower, gather_all_pes: true }
    }
}

/// The simulator's structure-only inputs for one `(matrix, plan,
/// config)` triple. Update lists and column sizes are read straight
/// from the borrowed CSC; what is derived is computed in one pass over
/// the off-diagonal entries.
///
/// Nothing in here depends on values, the right-hand side or machine
/// state, so one analysis serves arbitrarily many simulated solves.
/// Warm numeric solves do not read it — they run on a
/// [`super::NumericFactor`].
#[derive(Debug, Clone)]
pub struct ExecAnalysis<'m> {
    /// Matrix dimension.
    pub n: usize,
    /// The CSC column offsets (n+1 entries).
    col_ptr: &'m [usize],
    /// The CSC row indices: a column's off-diagonal rows are its
    /// component's update list.
    row_idx: &'m [u32],
    /// Which triangle the columns hold.
    tri: Triangle,
    /// Initial in-degree per component (dependency count).
    in_degree: Vec<u32>,
    /// Bitmask of GPUs that produce at least one dependency of `i`
    /// from a different GPU than `i`'s owner.
    remote_mask: Vec<u16>,
    /// Owned nonzeros per GPU (in-degree setup kernel sizing).
    nnz_per_gpu: Vec<u64>,
    /// Device bytes per GPU under this plan/backend.
    device_bytes: Vec<u64>,
    /// Stored entries whose producer and consumer live on different
    /// GPUs — the communication volume the plan induces.
    cross_edges: u64,
}

impl<'m> ExecAnalysis<'m> {
    /// Run the analysis phase for `m` under `plan` and `cfg`:
    /// in-degrees, remote masks, per-GPU sizing and the cross-GPU edge
    /// count, in one O(n + nnz) pass; runs once per calibration.
    pub fn build(m: &'m CscMatrix, plan: &ExecutionPlan, cfg: &ExecConfig) -> ExecAnalysis<'m> {
        ANALYSIS_BUILDS.with(|c| c.set(c.get() + 1));
        let n = m.n();
        let tri = cfg.triangle;
        let gpus = plan.gpus;
        assert_eq!(plan.owner.len(), n, "plan size mismatch");

        let (col_ptr, row_idx) = (m.col_ptr(), m.row_idx());
        let mut in_degree = vec![0u32; n];
        let mut remote_mask = vec![0u16; n];
        let mut nnz_per_gpu = vec![0u64; gpus];
        let mut cols_per_gpu = vec![0u64; gpus];
        let mut cross_edges = 0;
        for j in 0..n {
            let gj = plan.owner[j];
            nnz_per_gpu[gj] += (col_ptr[j + 1] - col_ptr[j]) as u64;
            cols_per_gpu[gj] += 1;
            for &r in &row_idx[off_diagonal(col_ptr, tri, j)] {
                let r = r as usize;
                in_degree[r] += 1;
                if plan.owner[r] != gj {
                    remote_mask[r] |= 1 << gj;
                    cross_edges += 1;
                }
            }
        }
        let replicated = matches!(cfg.backend, Backend::Shmem { .. });
        let device_bytes = (0..gpus)
            .map(|g| plan.device_bytes(nnz_per_gpu[g], cols_per_gpu[g], replicated))
            .collect();

        ExecAnalysis {
            n,
            col_ptr,
            row_idx,
            tri,
            in_degree,
            remote_mask,
            nnz_per_gpu,
            device_bytes,
            cross_edges,
        }
    }

    /// Stored entries whose producer and consumer live on different
    /// GPUs under the analyzed plan.
    pub(crate) fn cross_edges(&self) -> u64 {
        self.cross_edges
    }

    /// Update list (dependent rows) of component `c`.
    #[inline]
    pub(super) fn updates_of(&self, c: u32) -> &'m [u32] {
        &self.row_idx[off_diagonal(self.col_ptr, self.tri, c as usize)]
    }

    /// Stored entries of column `c` (timing model input).
    #[inline]
    fn col_nnz(&self, c: u32) -> u64 {
        (self.col_ptr[c as usize + 1] - self.col_ptr[c as usize]) as u64
    }
}

/// Result of an executor run: the simulated timeline and the protocol
/// trace that audits it.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// When the analysis phase (in-degree setup) completed.
    pub analysis_end: SimTime,
    /// When the last warp retired.
    pub makespan: SimTime,
    /// Logical events processed: one per kernel launch, warp slot and
    /// wake, one per update delivered and one per retire — counted the
    /// same whether a warp's updates were delivered one calendar entry
    /// each or batched into one.
    pub events: u64,
    /// Components in the order their warps woke and solved.
    pub solve_order: Vec<u32>,
    /// Per component: when its last dependency was delivered (zero for
    /// a component with none).
    pub satisfied_at: Vec<SimTime>,
    /// Per component: when its warp observed satisfaction and woke.
    pub woke_at: Vec<SimTime>,
    /// Per component: when its update phase ended — the earliest
    /// instant a dependent may see its contribution.
    pub published_at: Vec<SimTime>,
}

/// Executor failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The dataflow stalled: `unsolved` components never became ready.
    /// Indicates a plan whose launch order violates substitution order.
    Deadlock {
        /// Number of unsolved components at stall time.
        unsolved: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { unsolved } => {
                write!(f, "dataflow deadlock: {unsolved} components unsolved")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Kernel `k` became schedulable.
    Kernel(u32),
    /// Component acquired its warp slot.
    Slot(u32),
    /// One dependency of the component became durable; payload carries
    /// the producing GPU.
    Dep(u32, u8),
    /// Dependencies visible; run gather + solve + update.
    Wake(u32),
    /// Updates durable; warp retires and frees its slot.
    Retire(u32),
    /// Every update of the component and its retire became durable at
    /// one instant: deliver the updates in list order, then retire.
    /// Replaces that many consecutive `Dep`s and a `Retire` scheduled
    /// at the same time, which nothing else could pop between.
    Publish(u32),
}

// component flag bits
const HAS_SLOT: u8 = 1;
const BLOCKED: u8 = 2;
const SATISFIED: u8 = 4;
const DONE: u8 = 8;
const WATCHING: u8 = 16;
const POLLING: u8 = 32;

/// Mutable per-run state, while [`ExecAnalysis`] is shared read-only
/// across runs.
struct ExecState<'a> {
    plan: &'a ExecutionPlan,
    cfg: &'a ExecConfig,
    spec: GpuSpec,
    remaining: Vec<u32>,
    flags: Vec<u8>,
    /// While BLOCKED: block start. After SATISFIED: satisfaction time.
    aux: Vec<SimTime>,
    last_src: Vec<u8>,
    /// Components in wake order (the recorded replay schedule).
    solve_order: Vec<u32>,
    satisfied_at: Vec<SimTime>,
    woke_at: Vec<SimTime>,
    published_at: Vec<SimTime>,
    // Unified-memory array mappings (None for other backends)
    indeg_um: Option<UmRange>,
    leftsum_um: Option<UmRange>,
    done_count: usize,
    events: u64,
    makespan: SimTime,
}

impl ExecState<'_> {
    fn indeg_page(&self, c: u32) -> usize {
        self.indeg_um.as_ref().expect("unified backend").page_of(c as u64 * 4)
    }

    fn leftsum_page(&self, c: u32) -> usize {
        self.leftsum_um.as_ref().expect("unified backend").page_of(c as u64 * 8)
    }
}

/// Build the analysis for `(m, plan, cfg)` and immediately simulate —
/// the one-shot entry point.
///
/// `plan` must order launches in substitution order (guaranteed by
/// [`ExecutionPlan::build`]); otherwise the run can deadlock, which is
/// detected and reported rather than hanging.
pub fn run(
    m: &CscMatrix,
    plan: &ExecutionPlan,
    machine: &mut Machine,
    cfg: ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    let analysis = ExecAnalysis::build(m, plan, &cfg);
    run_prepared(plan, &analysis, machine, &cfg)
}

/// Simulate against a prebuilt [`ExecAnalysis`]. Performs zero
/// level-set, plan or adjacency construction — only per-run state
/// (flags, counters, the trace) is allocated.
pub fn run_prepared(
    plan: &ExecutionPlan,
    a: &ExecAnalysis,
    machine: &mut Machine,
    cfg: &ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    let n = a.n;
    assert_eq!(plan.owner.len(), n, "plan size mismatch");
    assert_eq!(
        a.device_bytes.len(),
        plan.gpus,
        "analysis was built for a plan with a different GPU count"
    );
    if n == 0 {
        return Ok(ExecOutcome::default());
    }
    let spec = machine.config().gpu;
    let mut st = ExecState {
        plan,
        cfg,
        spec,
        remaining: a.in_degree.clone(),
        flags: vec![0u8; n],
        aux: vec![SimTime::ZERO; n],
        last_src: vec![0u8; n],
        solve_order: Vec::with_capacity(n),
        satisfied_at: vec![SimTime::ZERO; n],
        woke_at: vec![SimTime::ZERO; n],
        published_at: vec![SimTime::ZERO; n],
        indeg_um: None,
        leftsum_um: None,
        done_count: 0,
        events: 0,
        makespan: SimTime::ZERO,
    };
    let gpus = plan.gpus;

    // --- device memory accounting --------------------------------------
    for g in 0..gpus {
        machine.account_alloc(g, a.device_bytes[g]);
    }

    // --- unified-memory allocations -------------------------------------
    if matches!(cfg.backend, Backend::Unified) {
        st.indeg_um = Some(machine.um_alloc(n as u64 * 4));
        st.leftsum_um = Some(machine.um_alloc(n as u64 * 8));
    }

    // --- analysis phase: in-degree setup --------------------------------
    // The in-degree *values* are precomputed on the host (ExecAnalysis);
    // what is charged here is the device-side setup kernel that
    // materializes them before every solve (Algorithm 2 lines 4–9 /
    // Algorithm 3 lines 13–16), so virtual timelines match the paper.
    let mut t_ready = vec![SimTime::ZERO; gpus];
    for g in 0..gpus {
        // one setup kernel: atomics over the local nonzeros, warp-wide
        let warp_ops = a.nnz_per_gpu[g].div_ceil(32);
        let dur = warp_ops * spec.atomic_ns / spec.exec_lanes as u64 + spec.launch_ns;
        t_ready[g] = SimTime::ZERO.after(dur);
    }
    if let (Some(ri), Some(rl)) = (st.indeg_um, st.leftsum_um) {
        // Algorithm 2 memsets both managed arrays (lines 4–5) and
        // computes the *global* in-degree with system-wide atomics
        // (lines 6–9). The sweeps are dense and in address order, so
        // the driver coalesces migrations; each GPU still drags the
        // arrays through its own memory once.
        for g in 0..gpus {
            t_ready[g] = machine.um_bulk_sweep(g, &ri, t_ready[g]);
            t_ready[g] = machine.um_bulk_sweep(g, &rl, t_ready[g]);
        }
    }
    let analysis_end = t_ready.iter().copied().max().unwrap_or(SimTime::ZERO);

    // --- schedule kernel launches ---------------------------------------
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(n + plan.kernels.len());
    for (k, kd) in plan.kernels.iter().enumerate() {
        let at = machine.launch_kernel(kd.gpu, t_ready[kd.gpu]);
        q.schedule_at(at, Ev::Kernel(k as u32));
    }
    // components with no dependencies are satisfied from the start
    for i in 0..n {
        if st.remaining[i] == 0 {
            st.flags[i] |= SATISFIED;
        }
    }

    // --- main event loop --------------------------------------------------
    while let Some((now, ev)) = q.pop() {
        st.events += 1;
        match ev {
            Ev::Kernel(k) => on_kernel(&mut st, machine, &mut q, now, k),
            Ev::Slot(c) => on_slot(&mut st, a, machine, &mut q, now, c),
            Ev::Dep(c, src) => on_dep(&mut st, a, machine, &mut q, now, c, src),
            Ev::Wake(c) => on_wake(&mut st, a, machine, &mut q, now, c),
            Ev::Retire(c) => on_retire(&mut st, machine, &mut q, now, c),
            Ev::Publish(c) => on_publish(&mut st, a, machine, &mut q, now, c),
        }
    }

    if st.done_count != n {
        return Err(ExecError::Deadlock { unsolved: n - st.done_count });
    }
    Ok(ExecOutcome {
        analysis_end,
        makespan: st.makespan,
        events: st.events,
        solve_order: st.solve_order,
        satisfied_at: st.satisfied_at,
        woke_at: st.woke_at,
        published_at: st.published_at,
    })
}

fn on_kernel(
    st: &mut ExecState,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    k: u32,
) {
    let plan = st.plan;
    let kd = &plan.kernels[k as usize];
    let gpu = kd.gpu;
    for &c in &kd.comps {
        if machine.try_warp_slot(gpu) {
            q.schedule_at(now, Ev::Slot(c));
        } else {
            machine.enqueue_warp(gpu, c as u64);
        }
    }
}

fn on_slot(
    st: &mut ExecState,
    a: &ExecAnalysis,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    c: u32,
) {
    let i = c as usize;
    st.flags[i] |= HAS_SLOT;
    if st.flags[i] & SATISFIED != 0 {
        schedule_wake(st, a, machine, q, now, c);
    } else {
        st.flags[i] |= BLOCKED;
        st.aux[i] = now;
        // a warp spinning on remote state loads the fabric (GUP
        // detection is owner-local, so it does not poll the wire)
        if a.remote_mask[i] != 0
            && !matches!(st.cfg.backend, Backend::SingleGpu | Backend::ShmemGup)
        {
            machine.polling_started();
            st.flags[i] |= POLLING;
        }
        if matches!(st.cfg.backend, Backend::Unified) {
            machine.um_watch(st.plan.owner[i], st.indeg_page(c));
            st.flags[i] |= WATCHING;
        }
    }
}

fn on_dep(
    st: &mut ExecState,
    a: &ExecAnalysis,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    c: u32,
    src: u8,
) {
    #[cfg(test)]
    if fires(Mutation::DropDelivery) {
        return;
    }
    let i = c as usize;
    debug_assert!(st.remaining[i] > 0, "dep underflow at {c}");
    st.remaining[i] -= 1;
    if st.remaining[i] > 0 {
        return;
    }
    st.last_src[i] = src;
    st.satisfied_at[i] = now;
    if st.flags[i] & BLOCKED != 0 {
        // account the poll traffic spent while blocked
        match st.cfg.backend {
            Backend::Shmem { poll_caching } => {
                let waited = now - st.aux[i];
                let period = machine.remote_poll_period_ns().max(1);
                let rounds = waited / period;
                let peers = a.remote_mask[i].count_ones() as u64;
                if peers > 0 && rounds > 0 {
                    let polled = if poll_caching {
                        // satisfied peers drop out of the loop roughly
                        // linearly over the wait
                        rounds * peers.div_ceil(2)
                    } else {
                        rounds * peers
                    };
                    machine.record_polling(rounds, peers, polled);
                }
            }
            Backend::Unified => {
                // spin polls of s.in_degree feed the UVM access
                // counters; sustained waiting drags the page to the
                // poller (then the loop runs locally)
                let waited = now - st.aux[i];
                let period = machine.um_poll_period_ns().max(1);
                let rounds = (waited / period).min(u32::MAX as u64) as u32;
                let page = st.indeg_page(c);
                let gpu = st.plan.owner[i];
                if let Some(done) = machine.um_poll_pressure(gpu, page, rounds, now) {
                    st.aux[i] = done.max(now);
                }
            }
            Backend::SingleGpu | Backend::ShmemGup => {}
        }
        if st.flags[i] & POLLING != 0 {
            machine.polling_stopped();
            st.flags[i] &= !POLLING;
        }
        st.flags[i] &= !BLOCKED;
        st.flags[i] |= SATISFIED;
        st.aux[i] = st.aux[i].max(now);
        let base = st.aux[i];
        schedule_wake(st, a, machine, q, base, c);
    } else {
        st.flags[i] |= SATISFIED;
        st.aux[i] = now;
    }
}

/// Compute when the waiting warp *observes* satisfaction and schedule
/// its wake. `base` is when the last dependency became durable (or when
/// the slot was granted, if later).
fn schedule_wake(
    st: &mut ExecState,
    a: &ExecAnalysis,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    base: SimTime,
    c: u32,
) {
    let i = c as usize;
    let gpu = st.plan.owner[i];
    let poll_ns = st.spec.poll_ns;
    let wake_at = match st.cfg.backend {
        Backend::SingleGpu | Backend::ShmemGup => {
            base.after(poll_ns / 2 + machine.jitter(poll_ns / 2 + 1))
        }
        Backend::Shmem { .. } => {
            let src = st.last_src[i] as GpuId;
            if src == gpu || st.remaining[i] == 0 && a.remote_mask[i] == 0 {
                base.after(poll_ns / 2 + machine.jitter(poll_ns / 2 + 1))
            } else {
                // next poll round issues a get that sees the zero
                let period = machine.remote_poll_period_ns();
                let probe = base.after(machine.jitter(period + 1));
                machine.shmem_get(gpu, src, 4, probe)
            }
        }
        Backend::Unified => {
            let page = st.indeg_page(c);
            machine.um_visible_at(gpu, page, base)
        }
    };
    q.schedule_at(wake_at.max(base), Ev::Wake(c));
}

fn on_wake(
    st: &mut ExecState,
    a: &ExecAnalysis,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    c: u32,
) {
    let i = c as usize;
    let gpu = st.plan.owner[i];
    let spec = st.spec;
    debug_assert_eq!(st.remaining[i], 0, "woke before satisfaction");
    st.woke_at[i] = now;

    if st.flags[i] & WATCHING != 0 {
        machine.um_unwatch(gpu, st.indeg_page(c));
        st.flags[i] &= !WATCHING;
    }

    // --- gather phase ---------------------------------------------------
    let t_gather = match st.cfg.backend {
        Backend::SingleGpu | Backend::ShmemGup => now,
        Backend::Shmem { .. } => {
            // every other PE, or only those holding a dependency of `c`
            // (Algorithm 3 lines 24–26), in ascending PE order
            let mut mask = if st.cfg.gather_all_pes {
                ((1u32 << st.plan.gpus) - 1) as u16 & !(1 << gpu)
            } else {
                a.remote_mask[i]
            };
            if mask == 0 {
                now
            } else {
                let mut peers = [0 as GpuId; 16];
                let mut len = 0;
                while mask != 0 {
                    peers[len] = mask.trailing_zeros() as GpuId;
                    len += 1;
                    mask &= mask - 1;
                }
                machine.shmem_gather_reduce(gpu, &peers[..len], 8, now)
            }
        }
        Backend::Unified => {
            // read the system-wide left_sum entry (Alg. 2 line 19)
            let page = st.leftsum_page(c);
            machine.um_read(gpu, page, now)
        }
    };

    // --- solve phase ------------------------------------------------------
    let col_nnz = a.col_nnz(c);
    let mut t = t_gather;
    let spill = machine.spill_ratio(gpu);
    if spill > 0.0 {
        // out-of-core: the spilled fraction of this column streams from
        // host over PCIe before the warp can proceed
        let col_bytes = col_nnz * 12;
        let spilled = (col_bytes as f64 * spill) as u64;
        if spilled > 0 {
            t = machine.host_transfer(gpu, spilled, t);
        }
    }
    let solve_dur = spec.solve_ns + col_nnz.div_ceil(32) * spec.per_nnz_ns;
    let t_solve = machine.exec(gpu, t, solve_dur);
    st.solve_order.push(c);

    // --- update phase -------------------------------------------------------
    let rows = a.updates_of(c);
    let k_total = rows.len() as u64;
    let t_upd = if k_total > 0 {
        machine.exec(gpu, t_solve, k_total.div_ceil(32) * spec.atomic_ns)
    } else {
        t_solve
    };
    st.published_at[i] = t_upd;
    #[cfg(test)]
    let t_upd = if fires(Mutation::DeliverAtWake) { now } else { t_upd };

    let gup = match st.cfg.backend {
        // zero-copy publishes are atomics on the producer's OWN heap
        // copy — local cost, no wire traffic — so, as on one GPU,
        // every update and the retire are durable at `t_upd`
        Backend::Shmem { .. } | Backend::SingleGpu => {
            q.schedule_at(t_upd, Ev::Publish(c));
            return;
        }
        Backend::ShmemGup => true,
        Backend::Unified => false,
    };
    let mut retire_at = t_upd;
    let mut gup_cursor = t_upd; // naive GUP round trips serialize per warp
    for &r in rows {
        let target_gpu = st.plan.owner[r as usize];
        let durable_at = if target_gpu == gpu {
            t_upd
        } else if gup {
            // naive Get-Update-Put: two serialized wire round trips
            // (left_sum, then in_degree) with a fence after each —
            // the restriction cascade §IV-A describes
            let h = target_gpu;
            let t_get = machine.shmem_get(gpu, h, 8, gup_cursor);
            let t_put = machine.shmem_put(gpu, h, 8, t_get);
            let t_f1 = machine.shmem_fence(t_put);
            let t_put2 = machine.shmem_put(gpu, h, 4, t_f1);
            let t_f2 = machine.shmem_fence(t_put2);
            gup_cursor = t_f2;
            t_f2
        } else {
            // Unified: two system-wide atomics (s.left_sum, then
            // s.in_degree), issued by parallel threads of the warp;
            // the warp only pays issue cost, durability rides the
            // fabric / async migration machinery. The decrement must
            // not be observed before the partial sum it guards, hence
            // the max.
            let p1 = st.leftsum_page(r);
            let p2 = st.indeg_page(r);
            let (f1, d1) = machine.um_write(gpu, p1, t_upd);
            // both atomics are in flight concurrently (distinct
            // pages); issue order is preserved, wire latencies overlap
            let (f2, d2) = machine.um_write(gpu, p2, t_upd.max(f1));
            retire_at = retire_at.max(f1).max(f2);
            d1.max(d2)
        };
        if target_gpu == gpu || gup {
            retire_at = retire_at.max(durable_at);
        }
        q.schedule_at(durable_at, Ev::Dep(r, gpu as u8));
    }
    if gup && gup_cursor > t_upd {
        retire_at = retire_at.max(machine.shmem_quiet(gup_cursor));
    }

    q.schedule_at(retire_at, Ev::Retire(c));
}

/// Deliver every update of `c` in list order, then retire it — what
/// the per-update `Dep` events and the `Retire` it replaces would do,
/// in the same order.
fn on_publish(
    st: &mut ExecState,
    a: &ExecAnalysis,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    c: u32,
) {
    let src = st.plan.owner[c as usize] as u8;
    let rows = a.updates_of(c);
    // the pop counted the retire; count each delivery too
    st.events += rows.len() as u64;
    for &r in rows {
        on_dep(st, a, machine, q, now, r, src);
    }
    on_retire(st, machine, q, now, c);
}

fn on_retire(
    st: &mut ExecState,
    machine: &mut Machine,
    q: &mut EventQueue<Ev>,
    now: SimTime,
    c: u32,
) {
    let i = c as usize;
    let gpu = st.plan.owner[i];
    st.flags[i] |= DONE;
    st.done_count += 1;
    st.makespan = st.makespan.max(now);
    if let Some(next) = machine.release_warp(gpu) {
        q.schedule_at(now, Ev::Slot(next as u32));
    }
}
