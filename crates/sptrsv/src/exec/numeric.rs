//! The warm half of the executor: the structure-only [`Layout`], the
//! [`Values`] of one epoch, the [`NumericFactor`] pairing them that
//! every warm tier sweeps, its scratch, and the one row-gather kernel
//! (see the [module docs](super)).

use super::{diag_index, off_diagonal};
use crate::pool::{DisjointSlice, RegionBarrier, WorkerPool};
use crate::schedule::Schedule;
use crate::telemetry::{Hist, Site, SpanGuard, Stopwatch};
use sparsemat::{CscMatrix, Triangle};
use std::ops::Range;
use std::sync::Arc;

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
    pub(super) y: Vec<f64>,
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

/// The structure half of a relabelled factor, built from `(pattern,
/// triangle, order)` alone and shared behind an `Arc` by every value
/// epoch of a [`NumericFactor`]: the rows **relabelled into an
/// execution order**, stored CSR over positions with each row's entries
/// in natural source order, plus the [`Schedule`] whose levels, chains
/// and shards are plain row ranges of it.
///
/// `ptr`/`cols` hold the off-diagonal entries of row `i` (position
/// space), `pos` the position of each component (`None`: `tri`'s
/// natural order, which needs no table), and `from[k]` the index of
/// entry `k` in the source matrix' CSC value array — the permutation
/// every value gather replays.
#[derive(Debug)]
pub struct Layout {
    n: usize,
    tri: Triangle,
    pos: Option<Vec<u32>>,
    ptr: Vec<u32>,
    cols: Vec<u32>,
    from: Vec<u32>,
    schedule: Schedule,
}

impl Layout {
    /// Relabel triangular `m`'s pattern along `schedule`'s canonical
    /// level-major order (the schedule must be built from `m`'s level
    /// sets). Cost: O(n + nnz); runs once per engine build.
    pub fn level_major(m: &CscMatrix, tri: Triangle, schedule: Schedule) -> Layout {
        let relabelled = Layout::relabel(m, tri, Some(schedule.order()));
        Layout { schedule, ..relabelled }
    }

    /// Lay `m`'s pattern out in `tri`'s natural substitution order,
    /// which needs no permutation table, under the degenerate
    /// one-chain [`Schedule::serial`] — a natural sweep never runs in
    /// parallel.
    pub fn natural(m: &CscMatrix, tri: Triangle) -> Layout {
        Layout::relabel(m, tri, None)
    }

    /// Relabel along `order` — which component sits at each position:
    /// any topological order of `m`'s dependency graph — or, with
    /// `None`, along `tri`'s natural order. Either way every row holds
    /// [`crate::reference`]'s operand sequence. The schedule is the
    /// serial one, whose sharded sweep never splits rows: only
    /// [`Layout::level_major`] pairs rows with a schedule that does.
    pub(super) fn relabel(m: &CscMatrix, tri: Triangle, order: Option<&[u32]>) -> Layout {
        let (col_ptr, row_idx) = (m.col_ptr(), m.row_idx());
        let n = m.n();
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
        for s in 0..n {
            let j = natural_at(tri, n, s);
            let p = pos_of(j) as u32;
            for k in off_diagonal(col_ptr, tri, j) {
                let at = &mut cursor[pos_of(row_idx[k] as usize)];
                cols[*at as usize] = p;
                from[*at as usize] = k as u32;
                *at += 1;
            }
        }
        let schedule = Schedule::serial(n);
        let layout = Layout { n, tri, pos, ptr, cols, from, schedule };
        debug_assert!(layout.rows_in_natural_order(), "rows must hold Algorithm 1's sequence");
        layout
    }

    /// Whether every row visits its CSC entries in `tri`'s natural
    /// source order — Algorithm 1's `left_sum` operand sequence:
    /// strictly ascending CSC indices for `L`, strictly descending for
    /// `U`. O(nnz).
    pub(super) fn rows_in_natural_order(&self) -> bool {
        (0..self.n).all(|i| {
            let row = &self.from[self.ptr[i] as usize..self.ptr[i + 1] as usize];
            row.windows(2).all(|w| match self.tri {
                Triangle::Lower => w[0] < w[1],
                Triangle::Upper => w[0] > w[1],
            })
        })
    }

    /// Gather `m`'s values — `m` must carry exactly the pattern this
    /// layout was built from — into position order: one pass through
    /// `from` plus the diagonals. Allocates nothing when `into` already
    /// has this layout's shape (a value refresh).
    fn gather_into(&self, m: &CscMatrix, into: &mut Values) {
        debug_assert_eq!(self.n, m.n(), "gather requires the recorded structure");
        let (col_ptr, values) = (m.col_ptr(), m.values());
        into.vals.resize(self.from.len(), 0.0);
        into.diag.resize(self.n, 0.0);
        for (v, &f) in into.vals.iter_mut().zip(&self.from) {
            *v = values[f as usize];
        }
        self.each_position(|c, p| into.diag[p] = values[diag_index(col_ptr, self.tri, c)]);
    }

    /// Whether the rows are laid out in natural substitution order.
    #[inline]
    pub fn is_natural(&self) -> bool {
        self.pos.is_none()
    }

    /// The schedule whose row ranges this layout's positions follow.
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Call `f(c, position of c)` for every component `c` in order —
    /// one branch on the layout's kind, then a tight loop.
    #[inline(always)]
    fn each_position(&self, mut f: impl FnMut(usize, usize)) {
        match &self.pos {
            Some(pos) => pos.iter().enumerate().for_each(|(c, &p)| f(c, p as usize)),
            None => (0..self.n).for_each(|c| f(c, natural_at(self.tri, self.n, c))),
        }
    }

    /// Host bytes held by the layout's arrays and its schedule — what
    /// an engine cache charges against its byte budget. Counts
    /// capacity, not length: the allocation is what occupies memory.
    pub fn host_bytes(&self) -> u64 {
        self.schedule.host_bytes()
            + self.pos.as_ref().map_or(0, cap)
            + cap(&self.ptr)
            + cap(&self.cols)
            + cap(&self.from)
    }
}

/// Allocated bytes of `v`.
fn cap<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

/// The value half of a relabelled factor — one value epoch, in the
/// position order of its [`Layout`]: `vals[k]` the off-diagonal entry
/// at CSR slot `k`, `diag[i]` the pivot of row `i`.
#[derive(Debug, Clone, Default)]
pub struct Values {
    vals: Vec<f64>,
    diag: Vec<f64>,
}

/// The lean numeric core every warm tier solves on: a shared
/// structure-only [`Layout`] plus one epoch of [`Values`] — 16 bytes
/// per nonzero, nothing else: levels, chains and shards are index
/// ranges into these arrays.
#[derive(Debug, Clone)]
pub struct NumericFactor {
    layout: Arc<Layout>,
    values: Values,
}

impl NumericFactor {
    /// Gather `m`'s values into `layout`'s position order. `m` must
    /// carry the pattern `layout` was built from. Cost: O(n + nnz).
    pub fn new(layout: Arc<Layout>, m: &CscMatrix) -> NumericFactor {
        let mut values = Values::default();
        layout.gather_into(m, &mut values);
        NumericFactor { layout, values }
    }

    /// Rewrite the values from `m2`, which must carry exactly the
    /// structure this factor was built from (the engine validates that
    /// first, and only ever rewrites an epoch no reader can see). A
    /// refreshed factor is indistinguishable from one built fresh on
    /// `m2`. Allocates nothing.
    pub(crate) fn refresh_values(&mut self, m2: &CscMatrix) {
        self.layout.gather_into(m2, &mut self.values);
    }

    /// The structure this factor's values are laid out in.
    #[inline]
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Host bytes held by the layout and the values.
    pub fn host_bytes(&self) -> u64 {
        self.layout.host_bytes() + self.values_bytes()
    }

    /// Host bytes held by the values alone — what each further epoch
    /// of this layout costs.
    pub(crate) fn values_bytes(&self) -> u64 {
        cap(&self.values.vals) + cap(&self.values.diag)
    }

    /// The one numeric kernel: solve the rows at positions `rows` of
    /// the `K`-lane interleaved `y` in place — row `i` holds its `K`
    /// right-hand-side entries going in and its solutions coming out.
    /// Reads `y` otherwise only at earlier positions; `K` is a const
    /// generic so the lane loops have compile-time trip counts (LLVM
    /// unrolls and vectorizes them into packed f64 operations).
    #[inline(always)]
    fn sweep<const K: usize>(&self, rows: Range<usize>, y: &DisjointSlice<'_>) {
        let (ptr, cols) = (&self.layout.ptr[..], &self.layout.cols[..]);
        let (vals, diag) = (&self.values.vals[..], &self.values.diag[..]);
        for i in rows {
            let mut acc = [0.0f64; K];
            for k in ptr[i] as usize..ptr[i + 1] as usize {
                let v = vals[k];
                let src = y.lanes::<K>(cols[k] as usize);
                for l in 0..K {
                    acc[l] += v * src[l];
                }
            }
            let (b, d) = (y.lanes::<K>(i), diag[i]);
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
        self.layout.each_position(|c, p| {
            for (l, b) in bs.iter().enumerate() {
                y[p * K + l] = b.as_ref()[c];
            }
        });
        solve(&DisjointSlice::new(y));
        self.layout.each_position(|c, p| {
            for (l, out) in outs.iter_mut().enumerate() {
                out.as_mut()[c] = y[p * K + l];
            }
        });
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
        let n = self.layout.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "output length mismatch");
        match (&self.layout.pos, self.layout.tri) {
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
            (Some(_), _) => self.in_position_space::<1>(&[b], ws.rows(n), &mut [x], solve),
        }
    }

    /// Serial scalar solve of `b` into `x`. Allocates nothing once
    /// `ws` has grown to `n`.
    pub fn solve_into(&self, b: &[f64], ws: &mut ReplayWorkspace, x: &mut [f64]) {
        self.scalar_into(b, ws, x, |y| self.sweep::<1>(0..self.layout.n, y));
    }

    /// Fused multi-RHS solve: stream the factor **once per K-wide
    /// block** of right-hand sides instead of once per RHS, in greedy
    /// fixed-width blocks of [`super::PANEL_K`] (ragged tails fall back to
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
        let n = self.layout.n;
        assert_eq!(bs.len(), outs.len(), "one output per right-hand side");
        for (b, out) in bs.iter().zip(outs.iter_mut()) {
            assert_eq!(b.len(), n, "rhs length mismatch");
            out.resize(n, 0.0);
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
        let n = self.layout.n;
        let y = ws.rows(n * K);
        self.in_position_space::<K>(bs, y, outs, |y| self.sweep::<K>(0..n, y));
    }

    /// Chain-parallel scalar solve across `workers` region workers,
    /// stepping the layout's own [`Schedule`] (its levels, chains and
    /// shards are row ranges of the layout by construction): a
    /// **fused** chain is swept entirely by worker 0, a **wide** level
    /// is one phase with worker `w` sweeping shards `w, w + workers,
    /// …`, and one barrier at every chain boundary publishes the
    /// chain's rows (the region join covers the last). Bit-identical to
    /// [`NumericFactor::solve_into`] for every worker count (see the
    /// module docs); allocation-free in steady state.
    ///
    /// `workers` is clamped to `[1, SHARD_COUNT]`. One worker, fewer
    /// than two chains (a natural layout's schedule has none) or a pool
    /// whose region slot a concurrent sharded solve holds run the
    /// serial sweep on the calling thread instead — same bits, no
    /// blocking. Returns whether the parallel region actually ran.
    pub(crate) fn solve_sharded_into(
        &self,
        b: &[f64],
        ws: &mut ReplayWorkspace,
        x: &mut [f64],
        pool: &WorkerPool,
        workers: usize,
    ) -> bool {
        let schedule = &self.layout.schedule;
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
                self.sweep::<1>(0..self.layout.n, y);
            }
        });
        ran_parallel
    }
}
