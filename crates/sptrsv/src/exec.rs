//! The synchronization-free dataflow executor.
//!
//! All sync-free variants share one control flow — the two phases of
//! Liu et al. \[2\] that the paper builds on:
//!
//! 1. **lock-wait**: a warp owns one component and spins until the
//!    component's in-degree is satisfied;
//! 2. **solve-update**: it solves `x_i` and publishes
//!    `l_ri · x_i` into the `left_sum` of every dependent `r`,
//!    decrementing their outstanding in-degrees.
//!
//! What differs between Algorithm 2 (Unified Memory), Algorithm 3
//! (NVSHMEM zero-copy) and the single-GPU solver is *where the
//! intermediate arrays live and what publishing/detecting costs*:
//!
//! | backend    | publish to remote component     | dependency detection        |
//! |------------|---------------------------------|-----------------------------|
//! | SingleGpu  | n/a                             | local spin poll             |
//! | Unified    | system atomic on a UM page      | spin poll on a UM page      |
//! |            | (faults, migration, bounce)     | (page bounces back, faults) |
//! | Shmem      | device atomic on the *producer's* | warp-parallel one-sided     |
//! |            | own symmetric heap copy — zero  | gets + shuffle reduction,   |
//! |            | wire traffic at publish time    | r.in_degree poll caching    |
//!
//! ## Analysis / solve separation
//!
//! Everything the *simulator* needs that depends only on the structure
//! — in-degrees, remote-source masks, gather peer lists, per-component
//! update lists, diagonals, per-GPU sizing — lives in
//! [`ExecAnalysis`], built once and stored flat, CSR-style (`(ptr,
//! data)` pairs), so the event handlers walk contiguous memory and
//! allocate nothing. [`run`] is the one-shot convenience that builds
//! the analysis and immediately simulates; the build-once/solve-many
//! engine ([`crate::engine::SolverEngine`]) builds it for its one
//! calibration simulation and then drops it — no warm path reads it.
//!
//! The executor runs real `f64` numerics as virtual time advances; the
//! returned `x` is bit-stable for a fixed seed and is verified against
//! the serial reference by the caller.
//!
//! ## The warm numeric core: permute once, gather forever
//!
//! Warm solves run on a [`NumericFactor`]: the factor's rows
//! **relabelled into an execution order** at build time — the
//! [`Schedule`]'s canonical level-major order for a simulated engine,
//! the natural substitution order for the serial kind — stored CSR
//! over *positions* in that order, each row's entries in natural
//! source order. One kernel body ([`NumericFactor`]'s row sweep, in
//! scalar and const-`K` lane forms) serves every tier:
//!
//! ```text
//! for c in 0..n { y[pos[c]] = b[c] }   // permute b in, by component
//! for i in rows {                      // positions, contiguous
//!     acc = 0.0
//!     for k in ptr[i]..ptr[i+1] { acc += vals[k] * y[cols[k]] }
//!     y[i] = (y[i] - acc) / diag[i]    // in place: b_i in, x_i out
//! }
//! for c in 0..n { x[c] = y[pos[c]] }   // permute x out
//! ```
//!
//! The sweep itself lives entirely in position space, so levels,
//! chains and shards are plain index ranges of one contiguous array
//! (the cholespy `level_ptr`/`chain_ptr` layout). The boundary
//! permutations walk the *components* sequentially — streaming `b` and
//! `x`, scattering into `y` — which measures ~2× faster than gathering
//! `b[order[i]]` inside the sweep, and ~2.5× on an 8-lane panel, where
//! one scattered 64-byte row of `y` replaces eight scattered reads. A
//! natural-order factor (identity or reversed permutation) needs no
//! `y` at all for a scalar solve: it sweeps in `x` itself.
//!
//! ### Why the gather reproduces the column-scatter bits
//!
//! Algorithm 1 ([`crate::reference`]) zeroes a `left_sum` array and,
//! after solving each source `c` in natural substitution order,
//! scatters `left_sum[r] += l_rc · x_c` into every dependent row; row
//! `r` is then solved as `(b_r − left_sum_r) / d_r`. Floating-point
//! addition is not associative, so what matters is the exact operand
//! sequence each row sees: `0.0`, then `+ l_rc₁·x_c₁`, `+ l_rc₂·x_c₂`,
//! … with the sources in *natural order* (ascending for `L`,
//! descending for `U`). The gather performs literally that sequence —
//! `acc` starts at `+0.0` (not at the first product: `0.0 + (−0.0)`
//! is `+0.0`, and the sign survives into `b − acc`), and
//! [`NumericFactor::build`] fills every row by walking the sources in
//! natural order, **whatever the execution order** the rows are
//! relabelled into. So every relabelling — level-major, natural, any
//! other topological order — returns the reference's bits, while the
//! read-modify-write `left_sum` traffic and its per-solve `fill`
//! disappear. (Only the *gather addresses* inside a row follow the
//! relabelling; rows hold 2–4 entries, so their order costs nothing.)
//!
//! ### Why every tier, worker count and chain shape agrees
//!
//! A row's value is a function of `b`, its stored entries and the `y`
//! of **earlier levels** only (rows of one level never depend on each
//! other). So any executor that (1) writes each row exactly once and
//! (2) orders a level after the levels before it yields the same bits:
//!
//! | step shape  | who sweeps which rows                           | ordering               |
//! |-------------|-------------------------------------------------|------------------------|
//! | serial      | one thread, `0..n`                              | program order          |
//! | fused chain | worker 0, the chain's contiguous row range      | program order          |
//! | wide level  | worker `w`, shards `w, w+W, …` of the level     | barrier before & after |
//!
//! A wide level is a **single phase** — each worker gathers from
//! earlier chains and writes only its own rows — so a parallel solve
//! pays one barrier per chain boundary
//! ([`sparsemat::levels::ChainPartition::barriers_per_solve`]), and
//! the panel lanes of a multi-RHS block never mix. That is the whole
//! bit-identity argument, before and after a value refresh.

use crate::plan::ExecutionPlan;
use crate::pool::{DisjointSlice, RegionBarrier, WorkerPool};
use crate::schedule::Schedule;
use crate::telemetry::{Hist, Site, SpanGuard, Stopwatch};
use crate::Backend;
use desim::{EventQueue, SimTime};
use mgpu_sim::{um::UmRange, GpuId, Machine};
use sparsemat::{CscMatrix, Triangle};
use std::cell::Cell;
use std::ops::Range;

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
/// numeric solves do not read it — they run on a [`NumericFactor`].
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
    diag: Vec<f64>,
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
    fn updates_of(&self, c: u32) -> (&[u32], &[f64]) {
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

/// CSC value index of column `j`'s diagonal entry (first stored entry
/// of a lower-triangular column, last of an upper-triangular one).
#[inline]
fn diag_index(col_ptr: &[usize], tri: Triangle, j: usize) -> usize {
    match tri {
        Triangle::Lower => col_ptr[j],
        Triangle::Upper => col_ptr[j + 1] - 1,
    }
}

/// CSC index range of column `j`'s off-diagonal entries.
#[inline]
fn off_diagonal(col_ptr: &[usize], tri: Triangle, j: usize) -> Range<usize> {
    match tri {
        Triangle::Lower => col_ptr[j] + 1..col_ptr[j + 1],
        Triangle::Upper => col_ptr[j]..col_ptr[j + 1] - 1,
    }
}

/// Maximum lane width of [`NumericFactor::solve_panel_into`] blocks:
/// the widest monomorphized kernel (8 × f64 = one cache line of lanes
/// per row; ragged tails use 4/2/1-wide blocks).
pub const PANEL_K: usize = 8;

/// How many owner shards each level is cut into. Worker counts above
/// this are clamped; counts below it stripe shards round-robin
/// (`shard % workers`). Results never depend on the striping — each
/// row is written once, from rows of earlier levels only.
pub const SHARD_COUNT: usize = 16;

/// Component ↔ position map of `tri`'s natural substitution order —
/// ascending for `L`, descending for `U` — which is its own inverse.
#[inline(always)]
fn natural_at(tri: Triangle, n: usize, i: usize) -> usize {
    match tri {
        Triangle::Lower => i,
        Triangle::Upper => n - 1 - i,
    }
}

/// Reusable scratch for the warm solves: one buffer holding the
/// position-space solution `y` — `n` elements for a scalar solve on a
/// canonical-order factor, `n × K` interleaved for a panel block
/// (natural-order scalar solves need none). Grows on first use and is
/// retained, so steady-state solves perform **zero** heap allocation.
#[derive(Debug, Default, Clone)]
pub struct ReplayWorkspace {
    y: Vec<f64>,
}

impl ReplayWorkspace {
    /// A workspace with no buffer; it grows on first use.
    pub fn new() -> ReplayWorkspace {
        ReplayWorkspace::default()
    }

    /// The first `len` elements, growing (never shrinking) the buffer.
    fn rows(&mut self, len: usize) -> &mut [f64] {
        if self.y.len() < len {
            self.y.resize(len, 0.0);
        }
        &mut self.y[..len]
    }
}

/// The lean numeric core every warm tier solves on: one triangular
/// factor **relabelled into an execution order** and stored CSR over
/// positions in that order, each row's entries in natural source
/// order (see the module docs for why that reproduces the
/// column-scatter bits).
///
/// `ptr`/`cols`/`vals` hold the off-diagonal entries of row `i`
/// (position space), `diag[i]` its pivot, `pos` the position of each
/// component (`None`: `tri`'s natural order, which needs no table),
/// and `from[k]` the index of `vals[k]` in the source matrix' CSC
/// value array — the permutation a value refresh replays. 16 bytes per
/// nonzero, nothing else: levels, chains and shards are index ranges
/// into these arrays.
#[derive(Debug, Clone)]
pub struct NumericFactor {
    n: usize,
    tri: Triangle,
    pos: Option<Vec<u32>>,
    ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    diag: Vec<f64>,
    from: Vec<u32>,
}

impl NumericFactor {
    /// Relabel triangular `m` along `order` — which component sits at
    /// each position: any topological order of `m`'s dependency graph,
    /// typically the [`Schedule`]'s canonical level-major order — or,
    /// with `None`, along `tri`'s natural substitution order. Either
    /// way every row sums [`crate::reference`]'s floating-point
    /// sequence. Cost: O(n + nnz); runs once per engine build.
    pub fn build(m: &CscMatrix, tri: Triangle, order: Option<&[u32]>) -> NumericFactor {
        NumericFactor::from_csc(m.col_ptr(), m.row_idx(), m.values(), tri, order)
    }

    fn from_csc(
        col_ptr: &[usize],
        row_idx: &[u32],
        values: &[f64],
        tri: Triangle,
        order: Option<&[u32]>,
    ) -> NumericFactor {
        let n = col_ptr.len() - 1;
        // the inverse of `order`: the direction the boundary
        // permutations walk (sequentially by component)
        let pos = order.map(|order| {
            assert_eq!(order.len(), n, "order must cover every component");
            let mut pos = vec![0u32; n];
            for (i, &c) in order.iter().enumerate() {
                pos[c as usize] = i as u32;
            }
            pos
        });
        let pos_of = |c: usize| pos.as_ref().map_or(natural_at(tri, n, c), |p| p[c] as usize);
        // counting pass: one CSR row per dependent component
        let mut ptr = vec![0u32; n + 1];
        for j in 0..n {
            for &r in &row_idx[off_diagonal(col_ptr, tri, j)] {
                ptr[pos_of(r as usize) + 1] += 1;
            }
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        // fill pass over the sources in `tri`'s natural substitution
        // order, whatever the execution order: every row receives its
        // entries in Algorithm 1's `left_sum` sequence
        let n_off = ptr[n] as usize;
        let mut cursor = ptr[..n].to_vec();
        let (mut cols, mut from) = (vec![0u32; n_off], vec![0u32; n_off]);
        let mut vals = vec![0.0f64; n_off];
        let mut diag = vec![0.0f64; n];
        for s in 0..n {
            let j = natural_at(tri, n, s);
            let p = pos_of(j);
            diag[p] = values[diag_index(col_ptr, tri, j)];
            for k in off_diagonal(col_ptr, tri, j) {
                let at = &mut cursor[pos_of(row_idx[k] as usize)];
                cols[*at as usize] = p as u32;
                vals[*at as usize] = values[k];
                from[*at as usize] = k as u32;
                *at += 1;
            }
        }
        let factor = NumericFactor { n, tri, pos, ptr, cols, vals, diag, from };
        debug_assert!(factor.rows_in_natural_order(), "rows must hold Algorithm 1's sequence");
        factor
    }

    /// Whether every row visits its CSC entries in `tri`'s natural
    /// source order — Algorithm 1's `left_sum` operand sequence:
    /// strictly ascending CSC indices for `L`, strictly descending for
    /// `U`. O(nnz).
    fn rows_in_natural_order(&self) -> bool {
        (0..self.n).all(|i| {
            let row = &self.from[self.ptr[i] as usize..self.ptr[i + 1] as usize];
            row.windows(2).all(|w| match self.tri {
                Triangle::Lower => w[0] < w[1],
                Triangle::Upper => w[0] > w[1],
            })
        })
    }

    /// Rewrite the values in place from `m2`, which must carry exactly
    /// the structure this factor was built from (the engine validates
    /// that first): one gather through `from` plus the diagonals. A
    /// refreshed factor is indistinguishable from one built fresh on
    /// `m2`. Allocates nothing.
    pub(crate) fn refresh_values(&mut self, m2: &CscMatrix) {
        debug_assert_eq!(self.n, m2.n(), "refresh requires the recorded structure");
        let (col_ptr, values) = (m2.col_ptr(), m2.values());
        for (v, &f) in self.vals.iter_mut().zip(&self.from) {
            *v = values[f as usize];
        }
        for c in 0..self.n {
            let p = self.pos_of(c);
            self.diag[p] = values[diag_index(col_ptr, self.tri, c)];
        }
    }

    /// System dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the factor is stored in natural substitution order.
    #[inline]
    pub fn is_natural(&self) -> bool {
        self.pos.is_none()
    }

    /// The position of component `c`.
    #[inline(always)]
    fn pos_of(&self, c: usize) -> usize {
        self.pos.as_ref().map_or(natural_at(self.tri, self.n, c), |p| p[c] as usize)
    }

    /// Host bytes held by the factor's arrays — what an engine cache
    /// charges against its byte budget. Counts capacity, not length:
    /// the allocation is what occupies memory.
    pub fn host_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        self.pos.as_ref().map_or(0, cap)
            + cap(&self.ptr)
            + cap(&self.cols)
            + cap(&self.vals)
            + cap(&self.diag)
            + cap(&self.from)
    }

    /// The one numeric kernel: solve the rows at positions `rows` of
    /// the `K`-lane interleaved `y` in place — row `i` holds its `K`
    /// right-hand-side entries going in and its solutions coming out.
    /// Reads `y` otherwise only at earlier positions; `K` is a const
    /// generic so the lane loops have compile-time trip counts (LLVM
    /// unrolls and vectorizes them into packed f64 operations).
    #[inline(always)]
    fn sweep<const K: usize>(&self, rows: Range<usize>, y: &DisjointSlice<'_>) {
        for i in rows {
            let mut acc = [0.0f64; K];
            for k in self.ptr[i] as usize..self.ptr[i + 1] as usize {
                let v = self.vals[k];
                let src = y.lanes::<K>(self.cols[k] as usize);
                for l in 0..K {
                    acc[l] += v * src[l];
                }
            }
            let (b, d) = (y.lanes::<K>(i), self.diag[i]);
            y.set_lanes(i, std::array::from_fn::<f64, K, _>(|l| (b[l] - acc[l]) / d));
        }
    }

    /// Permute `K` right-hand sides into the interleaved position-space
    /// `y`, run `solve` on it, and permute the solutions out. Both
    /// boundary passes walk the *components* sequentially (`K`
    /// streaming vectors) and scatter whole `K`-lane rows of `y`.
    fn in_position_space<const K: usize>(
        &self,
        bs: &[impl AsRef<[f64]>],
        y: &mut [f64],
        outs: &mut [impl AsMut<[f64]>],
        solve: impl FnOnce(&DisjointSlice<'_>),
    ) {
        let n = self.n;
        for c in 0..n {
            let row = self.pos_of(c) * K;
            for (l, b) in bs.iter().enumerate() {
                y[row + l] = b.as_ref()[c];
            }
        }
        solve(&DisjointSlice::new(y));
        for c in 0..n {
            let row = self.pos_of(c) * K;
            for (l, out) in outs.iter_mut().enumerate() {
                out.as_mut()[c] = y[row + l];
            }
        }
    }

    /// Scalar solve of `b` into `x`, sweeping with `solve`. A
    /// natural-order factor solves in `x` itself (positions are
    /// components, up to a reversal), so only a canonical-order factor
    /// touches `ws`.
    fn scalar_into(
        &self,
        b: &[f64],
        ws: &mut ReplayWorkspace,
        x: &mut [f64],
        solve: impl FnOnce(&DisjointSlice<'_>),
    ) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "output length mismatch");
        match (&self.pos, self.tri) {
            (None, Triangle::Lower) => {
                x.copy_from_slice(b);
                solve(&DisjointSlice::new(x));
            }
            (None, Triangle::Upper) => {
                for (xi, bi) in x.iter_mut().zip(b.iter().rev()) {
                    *xi = *bi;
                }
                solve(&DisjointSlice::new(x));
                x.reverse();
            }
            (Some(_), _) => self.in_position_space::<1>(&[b], ws.rows(self.n), &mut [x], solve),
        }
    }

    /// Serial scalar solve of `b` into `x`. Allocates nothing once
    /// `ws` has grown to `n`.
    pub fn solve_into(&self, b: &[f64], ws: &mut ReplayWorkspace, x: &mut [f64]) {
        self.scalar_into(b, ws, x, |y| self.sweep::<1>(0..self.n, y));
    }

    /// Fused multi-RHS solve: stream the factor **once per K-wide
    /// block** of right-hand sides instead of once per RHS, in greedy
    /// fixed-width blocks of [`PANEL_K`] (ragged tails fall back to
    /// 4/2-wide blocks) over a `K`-lane interleaved `y` so the lane
    /// loops are contiguous and auto-vectorize. A one-lane block — a
    /// one-RHS panel, or a ragged tail's last lane — runs the scalar
    /// solve straight into the caller's vector.
    ///
    /// The lanes never mix, so every solution is **bit-identical** to
    /// [`NumericFactor::solve_into`] on the same right-hand side.
    /// Steady-state calls allocate nothing once `ws` has grown to the
    /// panel size.
    pub fn solve_panel_into(
        &self,
        bs: &[Vec<f64>],
        ws: &mut ReplayWorkspace,
        outs: &mut [Vec<f64>],
    ) {
        assert_eq!(bs.len(), outs.len(), "one output per right-hand side");
        for (b, out) in bs.iter().zip(outs.iter_mut()) {
            assert_eq!(b.len(), self.n, "rhs length mismatch");
            out.resize(self.n, 0.0);
        }
        let mut lo = 0;
        while lo < bs.len() {
            let k = match bs.len() - lo {
                8.. => 8,
                4.. => 4,
                2.. => 2,
                _ => 1,
            };
            let (bs_blk, outs_blk) = (&bs[lo..lo + k], &mut outs[lo..lo + k]);
            match k {
                8 => self.solve_block::<8>(bs_blk, ws, outs_blk),
                4 => self.solve_block::<4>(bs_blk, ws, outs_blk),
                2 => self.solve_block::<2>(bs_blk, ws, outs_blk),
                _ => self.solve_into(&bs_blk[0], ws, &mut outs_blk[0]),
            }
            lo += k;
        }
    }

    /// One K-wide block of the fused solve.
    fn solve_block<const K: usize>(
        &self,
        bs: &[Vec<f64>],
        ws: &mut ReplayWorkspace,
        outs: &mut [Vec<f64>],
    ) {
        let y = ws.rows(self.n * K);
        self.in_position_space::<K>(bs, y, outs, |y| self.sweep::<K>(0..self.n, y));
    }

    /// Chain-parallel scalar solve across `workers` region workers,
    /// stepping `schedule` — which must be the [`Schedule`] whose
    /// canonical order this factor was relabelled into (levels, chains
    /// and shards are then plain row ranges; with any other order the
    /// workers would race), which is why only the engine, holding both,
    /// can call this. A **fused** chain
    /// (run of narrow levels) is swept entirely by worker 0; a
    /// **wide** level is one phase, worker `w` sweeping shards
    /// `w, w + workers, …`; one barrier at every chain boundary
    /// publishes the chain's rows (the region join covers the last).
    ///
    /// Bit-identical to [`NumericFactor::solve_into`] for every worker
    /// count (see the module docs). Steady state this allocates
    /// nothing (the barrier lives on the stack, the region descriptor
    /// in the pool).
    ///
    /// `workers` is clamped to `[1, SHARD_COUNT]`; with one worker, a
    /// single chain or an empty system the serial sweep runs directly.
    /// If the pool's region slot is already taken — a concurrent
    /// sharded solve — the call degrades to the serial sweep on the
    /// calling thread rather than blocking: the results are
    /// bit-identical either way, and solving now beats waiting for
    /// threads another solve is using. Returns whether the parallel
    /// region actually ran.
    pub(crate) fn solve_sharded_into(
        &self,
        schedule: &Schedule,
        b: &[f64],
        ws: &mut ReplayWorkspace,
        x: &mut [f64],
        pool: &WorkerPool,
        workers: usize,
    ) -> bool {
        assert!(
            !self.is_natural() && schedule.order().len() == self.n,
            "factor is not relabelled into this schedule's canonical order"
        );
        let shards = schedule.shards();
        let workers = workers.clamp(1, shards.max(1));
        let (seg_ptr, chains) = (schedule.seg_ptr(), schedule.chains());
        let n_chains = chains.n_chains();
        let barrier = RegionBarrier::new(workers);
        let mut ran_parallel = false;
        self.scalar_into(b, ws, x, |y| {
            // Telemetry: every worker records its barrier waits
            // (imbalance shows as a spread in `barrier_wait_ns`), but
            // only worker 0 records spans — one `ShardedChain` per
            // chain and one `ShardedBarrier` per barrier, so the
            // timeline reconciles exactly with `ScheduleStats`.
            ran_parallel = workers > 1
                && n_chains > 1
                && pool.try_run_region(workers, &|w| {
                    for k in 0..n_chains {
                        let lv = chains.chain(k);
                        let chain_span = SpanGuard::enter_on(w == 0, Site::ShardedChain);
                        if !chains.is_fused(k) {
                            let base = lv.start * shards;
                            for s in (w..shards).step_by(workers) {
                                let rows =
                                    seg_ptr[base + s] as usize..seg_ptr[base + s + 1] as usize;
                                self.sweep::<1>(rows, y);
                            }
                        } else if w == 0 {
                            // seg_ptr is cumulative across levels, so a
                            // chain's rows are one contiguous range
                            let rows = seg_ptr[lv.start * shards] as usize
                                ..seg_ptr[lv.end * shards] as usize;
                            self.sweep::<1>(rows, y);
                        }
                        drop(chain_span);
                        if k + 1 < n_chains {
                            let _g = SpanGuard::enter_on(w == 0, Site::ShardedBarrier);
                            let sw = Stopwatch::start();
                            barrier.wait();
                            sw.stop(Hist::BarrierWaitNs);
                        }
                    }
                });
            if !ran_parallel {
                self.sweep::<1>(0..self.n, y);
            }
        });
        ran_parallel
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
        a.in_degree.len(),
        n,
        "analysis is columns-only or for a different matrix; run_prepared needs ExecAnalysis::build"
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partition;
    use crate::reference;
    use crate::schedule::ScheduleTuning;
    use crate::verify;
    use mgpu_sim::MachineConfig;
    use sparsemat::{gen, LevelSets};

    /// Serial solve on a factor relabelled along an explicit order.
    fn solve_along(m: &CscMatrix, order: &[u32], b: &[f64]) -> Vec<f64> {
        let f = NumericFactor::build(m, Triangle::Lower, Some(order));
        let mut x = vec![f64::NAN; m.n()];
        f.solve_into(b, &mut ReplayWorkspace::new(), &mut x);
        x
    }

    fn run_case(
        m: &CscMatrix,
        gpus: usize,
        backend: Backend,
        partition: Partition,
    ) -> (ExecOutcome, Vec<f64>) {
        let (_, b) = verify::rhs_for(m, 42);
        let plan = ExecutionPlan::build(m.n(), gpus, partition, Triangle::Lower);
        let mut machine = Machine::new(MachineConfig::dgx1(gpus.max(1)));
        let cfg = ExecConfig { backend, triangle: Triangle::Lower, gather_all_pes: true };
        let out = run(m, &b, &plan, &mut machine, cfg).expect("no deadlock");
        let reference = reference::solve_lower(m, &b).unwrap();
        (out, reference)
    }

    #[test]
    fn single_gpu_matches_reference() {
        let m = gen::banded_lower(800, 8, 4.0, 3);
        let (out, r) = run_case(&m, 1, Backend::SingleGpu, Partition::Blocked);
        assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL);
        assert!(out.makespan > SimTime::ZERO);
    }

    #[test]
    fn shmem_multi_gpu_matches_reference() {
        let m = gen::level_structured(&gen::LevelSpec::new(1200, 30, 5000, 7));
        for gpus in [2usize, 3, 4] {
            let (out, r) = run_case(
                &m,
                gpus,
                Backend::Shmem { poll_caching: true },
                Partition::Tasks { per_gpu: 8 },
            );
            assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL, "gpus={gpus}");
        }
    }

    #[test]
    fn unified_multi_gpu_matches_reference() {
        let m = gen::level_structured(&gen::LevelSpec::new(600, 15, 2400, 9));
        let (out, r) = run_case(&m, 4, Backend::Unified, Partition::Blocked);
        assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL);
    }

    #[test]
    fn prepared_run_reproduces_one_shot_run() {
        let m = gen::level_structured(&gen::LevelSpec::new(900, 22, 3600, 13));
        let (_, b) = verify::rhs_for(&m, 42);
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let cfg =
            ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
        let mut m1 = Machine::new(MachineConfig::dgx1(4));
        let one_shot = run(&m, &b, &plan, &mut m1, cfg.clone()).unwrap();
        let analysis = ExecAnalysis::build(&m, &plan, &cfg);
        let mut m2 = Machine::new(MachineConfig::dgx1(4));
        let prepared = run_prepared(&b, &plan, &analysis, &mut m2, &cfg).unwrap();
        assert_eq!(one_shot.x, prepared.x, "bit-identical numerics");
        assert_eq!(one_shot.makespan, prepared.makespan);
        assert_eq!(one_shot.events, prepared.events);
    }

    #[test]
    fn replay_of_recorded_order_is_bit_identical() {
        let m = gen::level_structured(&gen::LevelSpec::new(1100, 28, 4400, 17));
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let cfg =
            ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
        let analysis = ExecAnalysis::build(&m, &plan, &cfg);
        // calibrate with one RHS, replay a different one: the schedule
        // is value-independent, so the recorded order serves any b
        let (_, b0) = verify::rhs_for(&m, 1);
        let mut machine = Machine::new(MachineConfig::dgx1(4));
        let calibration = run_prepared(&b0, &plan, &analysis, &mut machine, &cfg).unwrap();
        assert_eq!(calibration.solve_order.len(), m.n());

        let (_, b1) = verify::rhs_for(&m, 2);
        let mut machine = Machine::new(MachineConfig::dgx1(4));
        let full = run_prepared(&b1, &plan, &analysis, &mut machine, &cfg).unwrap();
        // the simulation sums each `left_sum` in wake order; the replay
        // sums every row in Algorithm 1's order, whatever the row order
        let replayed = solve_along(&m, &calibration.solve_order, &b1);
        assert_eq!(replayed, reference::solve_lower(&m, &b1).unwrap(), "replay is the reference");
        assert!(verify::rel_inf_diff(&full.x, &replayed) < verify::DEFAULT_TOL);
        assert_eq!(full.solve_order, calibration.solve_order, "schedule is value-independent");
    }

    #[test]
    fn analysis_flat_layout_matches_matrix() {
        let m = gen::level_structured(&gen::LevelSpec::new(500, 12, 2000, 5));
        let plan = ExecutionPlan::build(m.n(), 2, Partition::Blocked, Triangle::Lower);
        let a = ExecAnalysis::build(&m, &plan, &ExecConfig::default());
        for j in 0..m.n() {
            let (rows, vals) = a.updates_of(j as u32);
            let expect: Vec<(u32, f64)> = m.col(j).filter(|&(r, _)| (r as usize) > j).collect();
            assert_eq!(rows.len(), expect.len());
            for (k, &(r, v)) in expect.iter().enumerate() {
                assert_eq!(rows[k], r);
                assert_eq!(vals[k], v);
            }
            assert_eq!(a.diag[j], m.get(j, j).unwrap());
        }
    }

    #[test]
    fn unified_generates_page_faults_shmem_does_not() {
        let m = gen::level_structured(&gen::LevelSpec::new(800, 20, 3200, 5));
        let (_, b) = verify::rhs_for(&m, 42);
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);

        let mut um_machine = Machine::new(MachineConfig::dgx1(4));
        run(
            &m,
            &b,
            &plan,
            &mut um_machine,
            ExecConfig { backend: Backend::Unified, ..ExecConfig::default() },
        )
        .unwrap();
        let um_stats = um_machine.stats();
        assert!(um_stats.total_um_faults() > 0, "UM must fault");
        assert!(
            um_stats.um_remote_ops + um_stats.um_migrations > 100,
            "UM must push traffic through the fabric"
        );

        let mut sh_machine = Machine::new(MachineConfig::dgx1(4));
        run(
            &m,
            &b,
            &plan,
            &mut sh_machine,
            ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
        )
        .unwrap();
        let s = sh_machine.stats();
        assert_eq!(s.total_um_faults(), 0, "zero-copy must not touch UM");
        assert!(s.shmem.gets > 0, "zero-copy communicates via gets");
    }

    #[test]
    fn zero_copy_beats_unified_on_makespan() {
        // The headline claim (Fig. 7): same matrix, same machine,
        // zero-copy finishes faster than the UM design. Needs enough
        // work per GPU to amortize the task kernels (crossover ~n=6k).
        let m = gen::level_structured(&gen::LevelSpec::new(8000, 25, 32000, 11));
        let (_, b) = verify::rhs_for(&m, 1);
        let mut um = Machine::new(MachineConfig::dgx1(4));
        let plan_b = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);
        let um_out = run(
            &m,
            &b,
            &plan_b,
            &mut um,
            ExecConfig { backend: Backend::Unified, ..ExecConfig::default() },
        )
        .unwrap();

        let mut zc = Machine::new(MachineConfig::dgx1(4));
        let plan_t =
            ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let zc_out = run(
            &m,
            &b,
            &plan_t,
            &mut zc,
            ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
        )
        .unwrap();
        assert!(
            zc_out.makespan < um_out.makespan,
            "zerocopy {} vs unified {}",
            zc_out.makespan,
            um_out.makespan
        );
    }

    #[test]
    fn upper_triangle_solves() {
        let l = gen::banded_lower(500, 6, 3.0, 13);
        let u = l.transpose();
        let (_, b) = verify::rhs_for(&u, 3);
        let plan = ExecutionPlan::build(u.n(), 2, Partition::Tasks { per_gpu: 4 }, Triangle::Upper);
        let mut machine = Machine::new(MachineConfig::dgx1(2));
        let out = run(
            &u,
            &b,
            &plan,
            &mut machine,
            ExecConfig {
                backend: Backend::Shmem { poll_caching: true },
                triangle: Triangle::Upper,
                gather_all_pes: true,
            },
        )
        .unwrap();
        let r = reference::solve_upper(&u, &b).unwrap();
        assert!(verify::rel_inf_diff(&out.x, &r) < verify::DEFAULT_TOL);
    }

    #[test]
    fn chain_is_fully_sequential() {
        // n-level chain: makespan must scale ~linearly with n
        let m1 = gen::chain(100);
        let m2 = gen::chain(200);
        let (o1, _) = run_case(&m1, 1, Backend::SingleGpu, Partition::Blocked);
        let (o2, _) = run_case(&m2, 1, Backend::SingleGpu, Partition::Blocked);
        let ratio = o2.makespan.as_ns() as f64 / o1.makespan.as_ns() as f64;
        assert!((1.6..2.6).contains(&ratio), "chain should scale linearly: {ratio}");
    }

    #[test]
    fn diagonal_matrix_is_embarrassingly_parallel() {
        let m = gen::diagonal(4000, 3);
        let (out, r) = run_case(&m, 1, Backend::SingleGpu, Partition::Blocked);
        assert!(verify::rel_inf_diff(&out.x, &r) < 1e-12);
        // no dependencies: every component solves without Dep events
        assert!(out.events >= 4000 * 2);
    }

    #[test]
    fn deterministic_runs() {
        let m = gen::level_structured(&gen::LevelSpec::new(700, 12, 2800, 21));
        let (a, _) =
            run_case(&m, 4, Backend::Shmem { poll_caching: true }, Partition::Tasks { per_gpu: 8 });
        let (b, _) =
            run_case(&m, 4, Backend::Shmem { poll_caching: true }, Partition::Tasks { per_gpu: 8 });
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn empty_matrix_is_trivial() {
        let m = sparsemat::TripletBuilder::new(0).build().unwrap();
        let plan = ExecutionPlan::build(0, 1, Partition::Blocked, Triangle::Lower);
        let mut machine = Machine::new(MachineConfig::dgx1(1));
        let out = run(&m, &[], &plan, &mut machine, ExecConfig::default()).unwrap();
        assert!(out.x.is_empty());
    }

    #[test]
    fn replay_panel_bit_identical_to_scalar_replay() {
        let m = gen::level_structured(&gen::LevelSpec::new(700, 20, 2800, 9));
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let cfg =
            ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() };
        let analysis = ExecAnalysis::build(&m, &plan, &cfg);
        let (_, b0) = verify::rhs_for(&m, 1);
        let mut machine = Machine::new(MachineConfig::dgx1(4));
        let order = run_prepared(&b0, &plan, &analysis, &mut machine, &cfg).unwrap().solve_order;
        let factor = NumericFactor::build(&m, Triangle::Lower, Some(&order));
        let mut ws = ReplayWorkspace::new();
        // batch sizes exercising every block width and ragged tails
        for batch in [1usize, 2, 3, 5, 8, 13] {
            let bs: Vec<Vec<f64>> =
                (0..batch as u64).map(|k| verify::rhs_for(&m, 100 + k).1).collect();
            let mut outs: Vec<Vec<f64>> = vec![Vec::new(); batch];
            factor.solve_panel_into(&bs, &mut ws, &mut outs);
            for (k, b) in bs.iter().enumerate() {
                let mut scalar = vec![0.0; m.n()];
                factor.solve_into(b, &mut ws, &mut scalar);
                assert_eq!(outs[k], scalar, "batch={batch} rhs={k}: panel must be bit-identical");
            }
        }
    }

    #[test]
    fn replay_into_matches_replay() {
        // dirty scratch and output must not leak into either order
        let m = gen::banded_lower(400, 6, 3.0, 5);
        let (_, b) = verify::rhs_for(&m, 77);
        let expect = reference::solve_lower(&m, &b).unwrap();
        let natural = NumericFactor::build(&m, Triangle::Lower, None);
        let order: Vec<u32> = (0..m.n() as u32).collect();
        let explicit = NumericFactor::build(&m, Triangle::Lower, Some(&order));
        assert!(natural.is_natural() && !explicit.is_natural());
        for f in [&natural, &explicit] {
            let mut ws = ReplayWorkspace { y: vec![1.0; 3 * m.n()] };
            let mut x = vec![2.0; m.n()];
            f.solve_into(&b, &mut ws, &mut x);
            assert_eq!(x, expect);
        }
    }

    /// The data half of the bit contract: in every order the engine
    /// builds (natural, and the schedule's canonical order), every row
    /// holds Algorithm 1's operand sequence — so the sweep returns the
    /// reference's bits.
    #[test]
    fn rows_hold_algorithm_1s_sequence_in_every_order() {
        let mut entries = sparsemat::corpus::corpus();
        entries.push(sparsemat::corpus::deep_narrow_entry());
        for e in &entries {
            for tri in [Triangle::Lower, Triangle::Upper] {
                let m = match tri {
                    Triangle::Lower => e.matrix.clone(),
                    Triangle::Upper => e.matrix.transpose(),
                };
                let levels = LevelSets::analyze(&m, tri);
                let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, tri);
                let schedule = Schedule::build(&levels, Some(&plan.owner), Default::default());
                let (_, b) = verify::rhs_for(&m, 0x2A);
                let want = reference::solve_serial(&m, &b, tri).unwrap();
                for order in [None, Some(schedule.order())] {
                    let f = NumericFactor::build(&m, tri, order);
                    let cell = format!("{}/{tri:?}/natural={}", e.name, order.is_none());
                    assert!(f.rows_in_natural_order(), "{cell}");
                    let mut x = vec![f64::NAN; m.n()];
                    f.solve_into(&b, &mut ReplayWorkspace::new(), &mut x);
                    assert!(x.iter().zip(&want).all(|(a, r)| a.to_bits() == r.to_bits()), "{cell}");
                }
            }
        }
    }

    #[test]
    fn sharded_replay_bit_identical_to_serial_replay() {
        let m = gen::level_structured(&gen::LevelSpec::new(1500, 25, 6000, 41));
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let levels = LevelSets::analyze(&m, Triangle::Lower);
        let pool = WorkerPool::new();
        // thresholds span no fusion (0), mixed (32 vs ~60 mean width)
        // and the default (everything here fuses)
        for threshold in [0usize, 32, ScheduleTuning::default().chain_width_threshold] {
            for owner in [None, Some(&plan.owner[..])] {
                let tuning =
                    ScheduleTuning { chain_width_threshold: threshold, ..Default::default() };
                let schedule = Schedule::build(&levels, owner, tuning);
                let factor = NumericFactor::build(&m, Triangle::Lower, Some(schedule.order()));
                let (_, b) = verify::rhs_for(&m, 99);
                let serial = solve_along(&m, schedule.order(), &b);
                for workers in [1usize, 2, 3, 5, SHARD_COUNT, SHARD_COUNT + 7] {
                    let mut ws = ReplayWorkspace { y: vec![1.0; m.n()] }; // dirty scratch
                    let mut x = vec![2.0; m.n()];
                    factor.solve_sharded_into(&schedule, &b, &mut ws, &mut x, &pool, workers);
                    assert_eq!(
                        x,
                        serial,
                        "workers={workers} owner={} t={threshold}",
                        owner.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_order_is_level_major_and_owner_grouped() {
        let m = gen::level_structured(&gen::LevelSpec::new(600, 12, 2400, 7));
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Blocked, Triangle::Lower);
        let levels = LevelSets::analyze(&m, Triangle::Lower);
        let schedule = Schedule::build(&levels, Some(&plan.owner), ScheduleTuning::default());
        let order = schedule.order();
        assert_eq!(order.len(), m.n());
        // level-major: levels never decrease along the order
        let mut last = 0u32;
        for &c in order.iter() {
            let l = levels.level_of[c as usize];
            assert!(l >= last, "order must be level-major");
            last = l;
        }
        // owner-grouped within a level: owners never decrease inside one level
        for l in 0..levels.n_levels() {
            let lp = levels.level_ptr();
            let slice = &order[lp[l] as usize..lp[l + 1] as usize];
            for pair in slice.windows(2) {
                assert!(
                    plan.owner[pair[0] as usize] <= plan.owner[pair[1] as usize],
                    "level {l} must group by owner"
                );
            }
        }
    }

    #[test]
    fn sharded_replay_handles_degenerate_shapes() {
        let pool = WorkerPool::new();
        let mut ws = ReplayWorkspace::new();
        // empty system
        let empty = sparsemat::TripletBuilder::new(0).build().unwrap();
        let levels = LevelSets::analyze(&empty, Triangle::Lower);
        let schedule = Schedule::build(&levels, None, ScheduleTuning::default());
        let factor = NumericFactor::build(&empty, Triangle::Lower, Some(schedule.order()));
        assert!(!factor.solve_sharded_into(&schedule, &[], &mut ws, &mut [], &pool, 4));
        // fully sequential chain: every level has width 1. Default
        // tuning fuses it into one chain (serial degrade); threshold 0
        // forces 50 singleton chains through the barriered path.
        let chain = gen::chain(50);
        let levels = LevelSets::analyze(&chain, Triangle::Lower);
        for threshold in [ScheduleTuning::default().chain_width_threshold, 0] {
            let tuning = ScheduleTuning { chain_width_threshold: threshold, ..Default::default() };
            let schedule = Schedule::build(&levels, None, tuning);
            let factor = NumericFactor::build(&chain, Triangle::Lower, Some(schedule.order()));
            let (_, b) = verify::rhs_for(&chain, 5);
            let serial = reference::solve_lower(&chain, &b).unwrap();
            let mut x = vec![0.0; 50];
            factor.solve_sharded_into(&schedule, &b, &mut ws, &mut x, &pool, 4);
            assert_eq!(x, serial, "t={threshold}");
        }
    }

    #[test]
    fn poll_caching_reduces_poll_gets() {
        let m = gen::level_structured(&gen::LevelSpec::new(1000, 40, 4000, 31));
        let (_, b) = verify::rhs_for(&m, 42);
        let plan = ExecutionPlan::build(m.n(), 4, Partition::Tasks { per_gpu: 8 }, Triangle::Lower);
        let mut cached = Machine::new(MachineConfig::dgx1(4));
        run(
            &m,
            &b,
            &plan,
            &mut cached,
            ExecConfig { backend: Backend::Shmem { poll_caching: true }, ..ExecConfig::default() },
        )
        .unwrap();
        let mut raw = Machine::new(MachineConfig::dgx1(4));
        run(
            &m,
            &b,
            &plan,
            &mut raw,
            ExecConfig { backend: Backend::Shmem { poll_caching: false }, ..ExecConfig::default() },
        )
        .unwrap();
        let c = cached.stats().shmem;
        let r = raw.stats().shmem;
        assert!(
            c.poll_gets < r.poll_gets,
            "caching must cut poll traffic: {} vs {}",
            c.poll_gets,
            r.poll_gets
        );
        assert!(c.poll_gets_saved > 0);
    }
}
