//! The discrete-event half of the executor: the simulator's
//! structure-only inputs ([`ExecAnalysis`]), the lock-wait /
//! solve-update event loop that advances virtual time (see the
//! [module docs](super)), and [`Simulation`] — the calibration hook
//! through which the engine reaches the machine model.

use super::{diag_index, off_diagonal};
use crate::levelset;
use crate::plan::{ExecutionPlan, Partition};
use crate::report::{SolveReport, Timings};
use crate::schedule::ScheduleStats;
use crate::solver::{SolveError, SolveOptions, SolverKind};
use crate::telemetry::{Site, SpanGuard};
use crate::Backend;
use desim::{EventQueue, SimTime};
use mgpu_sim::topology::Topology;
use mgpu_sim::{um::UmRange, GpuId, Machine, MachineConfig};
use sparsemat::{CscMatrix, Triangle};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// sizes, ownership, the seeded jitter stream), so it is simulated
    /// on a zero right-hand side and holds for every right-hand side
    /// and value epoch. [`Simulation::Host`] returns the degenerate
    /// template without a machine.
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
        let zeros = vec![0.0f64; m.n()];
        let mut machine = Machine::new(cfg.clone());
        let (analysis_end, makespan) = match self {
            Simulation::Dataflow { partition, cfg, .. } => {
                let plan = {
                    let _g = SpanGuard::enter(Site::BuildPlan);
                    ExecutionPlan::build(m.n(), machine.n_gpus(), *partition, tri)
                };
                report.cross_edges = plan.cross_gpu_edges(m, tri);
                report.kernels = plan.kernels.len();
                let analysis = {
                    let _g = SpanGuard::enter(Site::BuildAnalyze);
                    ExecAnalysis::build(m, &plan, cfg)
                };
                let _g = SpanGuard::enter(Site::BuildCalibrate);
                let out = run_prepared(&zeros, &plan, &analysis, &mut machine, cfg)?;
                report.events = out.events;
                (out.analysis_end, out.makespan)
            }
            _ => {
                let _g = SpanGuard::enter(Site::BuildCalibrate);
                let out = levelset::run(m, &zeros, &mut machine, tri);
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
/// config)` triple, stored flat for cache-linear event handling.
///
/// Nothing in here depends on the right-hand side or on machine state,
/// so one analysis serves arbitrarily many simulated solves. Warm
/// numeric solves do not read it — they run on a
/// [`super::NumericFactor`].
#[derive(Debug, Clone)]
pub struct ExecAnalysis {
    /// Matrix dimension.
    pub n: usize,
    /// Initial in-degree per component (dependency count).
    in_degree: Vec<u32>,
    /// Bitmask of GPUs that produce at least one dependency of `i`
    /// from a different GPU than `i`'s owner.
    remote_mask: Vec<u16>,
    /// CSR-style offsets into [`Self::peers`] (n+1 entries).
    peers_ptr: Vec<u32>,
    /// Gather peer lists, flat (empty for non-Shmem backends).
    peers: Vec<GpuId>,
    /// CSR-style offsets into the update lists (n+1 entries).
    dep_ptr: Vec<u32>,
    /// Dependent row per update entry.
    dep_rows: Vec<u32>,
    /// Matrix value per update entry.
    dep_vals: Vec<f64>,
    /// Diagonal entry per component.
    pub(super) diag: Vec<f64>,
    /// Stored entries per column (timing model input).
    col_nnz: Vec<u32>,
    /// Owned nonzeros per GPU (in-degree setup kernel sizing).
    nnz_per_gpu: Vec<u64>,
    /// Device bytes per GPU under this plan/backend.
    device_bytes: Vec<u64>,
}

impl ExecAnalysis {
    /// Run the analysis phase for `m` under `plan` and `cfg`:
    /// in-degrees, remote masks, gather peers, flattened update lists.
    /// Cost: O(n + nnz); runs once per engine build.
    pub fn build(m: &CscMatrix, plan: &ExecutionPlan, cfg: &ExecConfig) -> ExecAnalysis {
        ANALYSIS_BUILDS.with(|c| c.set(c.get() + 1));
        let n = m.n();
        let tri = cfg.triangle;
        let gpus = plan.gpus;
        assert_eq!(plan.owner.len(), n, "plan size mismatch");

        let in_degree = m.in_degrees(tri);

        // --- source-GPU masks for each component's dependencies -------
        let mut remote_mask = vec![0u16; n];
        for j in 0..n {
            let gj = plan.owner[j];
            for (r, _) in m.col(j) {
                let r = r as usize;
                let is_dep = match tri {
                    Triangle::Lower => r > j,
                    Triangle::Upper => r < j,
                };
                if is_dep && plan.owner[r] != gj {
                    remote_mask[r] |= 1 << gj;
                }
            }
        }

        // --- flat gather-peer adjacency (Shmem only) ------------------
        let mut peers_ptr = vec![0u32; n + 1];
        let mut peers: Vec<GpuId> = Vec::new();
        if matches!(cfg.backend, Backend::Shmem { .. }) {
            for i in 0..n {
                if cfg.gather_all_pes {
                    peers.extend((0..gpus).filter(|&g| g != plan.owner[i]));
                } else {
                    peers.extend((0..gpus).filter(|&g| remote_mask[i] & (1 << g) != 0));
                }
                peers_ptr[i + 1] = peers.len() as u32;
            }
        }

        // --- flattened per-component update lists and diagonals -------
        let (col_ptr, row_idx, values) = (m.col_ptr(), m.row_idx(), m.values());
        let mut dep_ptr = vec![0u32; n + 1];
        let mut dep_rows = Vec::with_capacity(m.nnz().saturating_sub(n));
        let mut dep_vals = Vec::with_capacity(m.nnz().saturating_sub(n));
        let mut diag = vec![0.0f64; n];
        let mut col_nnz = vec![0u32; n];
        for j in 0..n {
            col_nnz[j] = (col_ptr[j + 1] - col_ptr[j]) as u32;
            diag[j] = values[diag_index(col_ptr, tri, j)];
            let off = off_diagonal(col_ptr, tri, j);
            dep_rows.extend_from_slice(&row_idx[off.clone()]);
            dep_vals.extend_from_slice(&values[off]);
            dep_ptr[j + 1] = dep_rows.len() as u32;
        }

        // --- per-GPU sizing -------------------------------------------
        let mut nnz_per_gpu = vec![0u64; gpus];
        for j in 0..n {
            nnz_per_gpu[plan.owner[j]] += col_nnz[j] as u64;
        }
        let replicated = matches!(cfg.backend, Backend::Shmem { .. });
        let device_bytes = (0..gpus).map(|g| plan.device_bytes(m, g, replicated)).collect();

        ExecAnalysis {
            n,
            in_degree,
            remote_mask,
            peers_ptr,
            peers,
            dep_ptr,
            dep_rows,
            dep_vals,
            diag,
            col_nnz,
            nnz_per_gpu,
            device_bytes,
        }
    }

    /// Update list (dependent rows and matrix values) of component `c`.
    #[inline]
    pub(super) fn updates_of(&self, c: u32) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.dep_ptr[c as usize] as usize, self.dep_ptr[c as usize + 1] as usize);
        (&self.dep_rows[lo..hi], &self.dep_vals[lo..hi])
    }

    /// Gather peers of component `c` (empty unless Shmem).
    #[inline]
    fn peers_of(&self, c: u32) -> &[GpuId] {
        let (lo, hi) =
            (self.peers_ptr[c as usize] as usize, self.peers_ptr[c as usize + 1] as usize);
        &self.peers[lo..hi]
    }
}

/// Result of an executor run.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// When the analysis phase (in-degree setup) completed.
    pub analysis_end: SimTime,
    /// When the last warp retired.
    pub makespan: SimTime,
    /// Events processed by the calendar.
    pub events: u64,
    /// Components in the order their warps woke and solved.
    pub solve_order: Vec<u32>,
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
}

// component flag bits
const HAS_SLOT: u8 = 1;
const BLOCKED: u8 = 2;
const SATISFIED: u8 = 4;
const DONE: u8 = 8;
const WATCHING: u8 = 16;
const POLLING: u8 = 32;

/// Mutable per-solve state — everything here is reset for each RHS,
/// while [`ExecAnalysis`] is shared read-only across solves.
struct ExecState<'m> {
    plan: &'m ExecutionPlan,
    cfg: &'m ExecConfig,
    remaining: Vec<u32>,
    left_sum: Vec<f64>,
    x: Vec<f64>,
    b: &'m [f64],
    flags: Vec<u8>,
    /// While BLOCKED: block start. After SATISFIED: satisfaction time.
    aux: Vec<SimTime>,
    last_src: Vec<u8>,
    /// Components in wake order (the recorded replay schedule).
    solve_order: Vec<u32>,
    // Unified-memory array mappings (None for other backends)
    indeg_um: Option<UmRange>,
    leftsum_um: Option<UmRange>,
    done_count: usize,
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

/// Build the analysis for `(m, plan, cfg)` and immediately solve — the
/// one-shot entry point. Callers with many right-hand sides should use
/// [`crate::engine::SolverEngine`] instead, which runs
/// [`ExecAnalysis::build`] exactly once.
///
/// `plan` must order launches in substitution order (guaranteed by
/// [`ExecutionPlan::build`]); otherwise the run can deadlock, which is
/// detected and reported rather than hanging.
pub fn run(
    m: &CscMatrix,
    b: &[f64],
    plan: &ExecutionPlan,
    machine: &mut Machine,
    cfg: ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    assert_eq!(b.len(), m.n(), "rhs length mismatch");
    let analysis = ExecAnalysis::build(m, plan, &cfg);
    run_prepared(b, plan, &analysis, machine, &cfg)
}

/// Solve against a prebuilt [`ExecAnalysis`]. Performs zero level-set,
/// plan or adjacency construction — only per-solve state (solution,
/// partial sums, flags) is allocated.
pub fn run_prepared(
    b: &[f64],
    plan: &ExecutionPlan,
    a: &ExecAnalysis,
    machine: &mut Machine,
    cfg: &ExecConfig,
) -> Result<ExecOutcome, ExecError> {
    let n = a.n;
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(plan.owner.len(), n, "plan size mismatch");
    assert_eq!(
        a.device_bytes.len(),
        plan.gpus,
        "analysis was built for a plan with a different GPU count"
    );
    if n == 0 {
        return Ok(ExecOutcome {
            x: Vec::new(),
            analysis_end: SimTime::ZERO,
            makespan: SimTime::ZERO,
            events: 0,
            solve_order: Vec::new(),
        });
    }
    let gpus = plan.gpus;

    // --- device memory accounting --------------------------------------
    for g in 0..gpus {
        machine.account_alloc(g, a.device_bytes[g]);
    }

    // --- unified-memory allocations -------------------------------------
    let (indeg_um, leftsum_um) = if matches!(cfg.backend, Backend::Unified) {
        (Some(machine.um_alloc(n as u64 * 4)), Some(machine.um_alloc(n as u64 * 8)))
    } else {
        (None, None)
    };

    // --- analysis phase: in-degree setup --------------------------------
    // The in-degree *values* are precomputed on the host (ExecAnalysis);
    // what is charged here is the device-side setup kernel that
    // materializes them before every solve (Algorithm 2 lines 4–9 /
    // Algorithm 3 lines 13–16), so virtual timelines match the paper.
    let spec = machine.config().gpu.clone();
    let mut t_ready = vec![SimTime::ZERO; gpus];
    for g in 0..gpus {
        // one setup kernel: atomics over the local nonzeros, warp-wide
        let warp_ops = a.nnz_per_gpu[g].div_ceil(32);
        let dur = warp_ops * spec.atomic_ns / spec.exec_lanes as u64 + spec.launch_ns;
        t_ready[g] = SimTime::ZERO.after(dur);
    }
    if let (Some(ri), Some(rl)) = (indeg_um, leftsum_um) {
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
    let mut q: EventQueue<Ev> = EventQueue::with_capacity(n * 2 + a.dep_rows.len() + n);
    for (k, kd) in plan.kernels.iter().enumerate() {
        let at = machine.launch_kernel(kd.gpu, t_ready[kd.gpu]);
        q.schedule_at(at, Ev::Kernel(k as u32));
    }

    let mut st = ExecState {
        plan,
        cfg,
        remaining: a.in_degree.clone(),
        left_sum: vec![0.0; n],
        x: vec![0.0; n],
        b,
        flags: vec![0u8; n],
        aux: vec![SimTime::ZERO; n],
        last_src: vec![0u8; n],
        solve_order: Vec::with_capacity(n),
        indeg_um,
        leftsum_um,
        done_count: 0,
        makespan: SimTime::ZERO,
    };
    // components with no dependencies are satisfied from the start
    for i in 0..n {
        if st.remaining[i] == 0 {
            st.flags[i] |= SATISFIED;
        }
    }

    // --- main event loop --------------------------------------------------
    let mut events = 0u64;
    while let Some((now, ev)) = q.pop() {
        events += 1;
        match ev {
            Ev::Kernel(k) => on_kernel(&mut st, machine, &mut q, now, k),
            Ev::Slot(c) => on_slot(&mut st, a, machine, &mut q, now, c),
            Ev::Dep(c, src) => on_dep(&mut st, a, machine, &mut q, now, c, src),
            Ev::Wake(c) => on_wake(&mut st, a, machine, &mut q, now, c),
            Ev::Retire(c) => on_retire(&mut st, machine, &mut q, now, c),
        }
    }

    if st.done_count != n {
        return Err(ExecError::Deadlock { unsolved: n - st.done_count });
    }
    Ok(ExecOutcome {
        x: st.x,
        analysis_end,
        makespan: st.makespan,
        events,
        solve_order: st.solve_order,
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
    let i = c as usize;
    debug_assert!(st.remaining[i] > 0, "dep underflow at {c}");
    st.remaining[i] -= 1;
    if st.remaining[i] > 0 {
        return;
    }
    st.last_src[i] = src;
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
    let spec = machine.config().gpu.clone();
    let wake_at = match st.cfg.backend {
        Backend::SingleGpu | Backend::ShmemGup => {
            base.after(spec.poll_ns / 2 + machine.jitter(spec.poll_ns / 2 + 1))
        }
        Backend::Shmem { .. } => {
            let src = st.last_src[i] as GpuId;
            if src == gpu || st.remaining[i] == 0 && a.remote_mask[i] == 0 {
                base.after(spec.poll_ns / 2 + machine.jitter(spec.poll_ns / 2 + 1))
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
    let spec = machine.config().gpu.clone();
    debug_assert_eq!(st.remaining[i], 0, "woke before satisfaction");

    if st.flags[i] & WATCHING != 0 {
        machine.um_unwatch(gpu, st.indeg_page(c));
        st.flags[i] &= !WATCHING;
    }

    // --- gather phase ---------------------------------------------------
    let t_gather = match st.cfg.backend {
        Backend::SingleGpu | Backend::ShmemGup => now,
        Backend::Shmem { .. } => {
            let peers = a.peers_of(c);
            if peers.is_empty() {
                now
            } else {
                machine.shmem_gather_reduce(gpu, peers, 8, now)
            }
        }
        Backend::Unified => {
            // read the system-wide left_sum entry (Alg. 2 line 19)
            let page = st.leftsum_page(c);
            machine.um_read(gpu, page, now)
        }
    };

    // --- solve phase ------------------------------------------------------
    let col_nnz = a.col_nnz[i] as u64;
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

    let xi = (st.b[i] - st.left_sum[i]) / a.diag[i];
    st.x[i] = xi;
    st.solve_order.push(c);

    // --- update phase -------------------------------------------------------
    let (rows, vals) = a.updates_of(c);
    let k_total = rows.len() as u64;
    let t_upd = if k_total > 0 {
        machine.exec(gpu, t_solve, k_total.div_ceil(32) * spec.atomic_ns)
    } else {
        t_solve
    };

    let mut retire_at = t_upd;
    let mut gup_cursor = t_upd; // naive GUP round trips serialize per warp
    for (r, v) in rows.iter().zip(vals) {
        let r = *r;
        let contrib = *v * xi;
        st.left_sum[r as usize] += contrib;
        let target_gpu = st.plan.owner[r as usize];
        let durable_at = if target_gpu == gpu {
            t_upd
        } else {
            match st.cfg.backend {
                // zero-copy: remote publishes are atomics on the
                // producer's OWN heap copy — local cost, no wire traffic
                Backend::Shmem { .. } | Backend::SingleGpu => t_upd,
                // naive Get-Update-Put: two serialized wire round trips
                // (left_sum, then in_degree) with a fence after each —
                // the restriction cascade §IV-A describes
                Backend::ShmemGup => {
                    let h = target_gpu;
                    let t_get = machine.shmem_get(gpu, h, 8, gup_cursor);
                    let t_put = machine.shmem_put(gpu, h, 8, t_get);
                    let t_f1 = machine.shmem_fence(t_put);
                    let t_put2 = machine.shmem_put(gpu, h, 4, t_f1);
                    let t_f2 = machine.shmem_fence(t_put2);
                    gup_cursor = t_f2;
                    t_f2
                }
                Backend::Unified => {
                    // two system-wide atomics (s.left_sum, then
                    // s.in_degree), issued by parallel threads of the
                    // warp; the warp only pays issue cost, durability
                    // rides the fabric / async migration machinery.
                    // The decrement must not be observed before the
                    // partial sum it guards, hence the max.
                    let p1 = st.leftsum_page(r);
                    let p2 = st.indeg_page(r);
                    let (f1, d1) = machine.um_write(gpu, p1, t_upd);
                    // both atomics are in flight concurrently (distinct
                    // pages); issue order is preserved, wire latencies
                    // overlap
                    let (f2, d2) = machine.um_write(gpu, p2, t_upd.max(f1));
                    retire_at = retire_at.max(f1).max(f2);
                    d1.max(d2)
                }
            }
        };
        if target_gpu == gpu || matches!(st.cfg.backend, Backend::ShmemGup) {
            retire_at = retire_at.max(durable_at);
        }
        q.schedule_at(durable_at, Ev::Dep(r, gpu as u8));
    }
    if matches!(st.cfg.backend, Backend::ShmemGup) && gup_cursor > t_upd {
        retire_at = retire_at.max(machine.shmem_quiet(gup_cursor));
    }

    q.schedule_at(retire_at, Ev::Retire(c));
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
