//! The warm half of the executor: the structure-only [`Layout`], the
//! [`Values`] of one epoch, the [`NumericFactor`] pairing them that
//! every warm tier sweeps, its scratch, and the one row-gather kernel
//! (see the [module docs](super)).

use super::{diag_index, off_diagonal};
use sparsemat::{CscMatrix, LevelSets, Triangle};
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
/// level-major factor, `n × K` interleaved for a panel block
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

/// The natural-predecessor share at or above which a factor is laid out
/// level-major. Paired in one process (serial solves, 300 alternating
/// samples on a 2-thread Xeon host), natural order swept 1.30–1.38×
/// faster on level-structured factors (share ≤ 0.06), and level-major
/// 1.32–1.36× faster on a 192² grid's ILU(0) `L` and `U` (share 0.995).
const LEVEL_MAJOR_SHARE: f64 = 0.5;

/// The static order predictor: the share of `m`'s rows that have a
/// natural predecessor — row `i − 1` for `L`, `i + 1` for `U` — and read
/// it as one of their sources (0 for `n ≤ 1`, which has none). At a
/// high share the natural sweep is one long chain of rows each waiting
/// on the one before, while level-major order puts rows that do not
/// depend on each other — one level's — side by side. One entry per
/// column, O(n); allocates nothing.
pub(super) fn natural_predecessor_share(m: &CscMatrix, tri: Triangle) -> f64 {
    let n = m.n();
    if n < 2 {
        return 0.0;
    }
    let (col_ptr, row_idx) = (m.col_ptr(), m.row_idx());
    // does the source at natural position `s` feed the row at `s + 1`?
    // Rows ascend within a column, so that row, if stored, is the
    // off-diagonal entry next to the diagonal
    let hits = (0..n - 1)
        .filter(|&s| {
            let (j, next) = (natural_at(tri, n, s), natural_at(tri, n, s + 1));
            let mut off = off_diagonal(col_ptr, tri, j);
            let nearest = match tri {
                Triangle::Lower => off.next(),
                Triangle::Upper => off.next_back(),
            };
            nearest.is_some_and(|k| row_idx[k] as usize == next)
        })
        .count();
    hits as f64 / (n - 1) as f64
}

/// Whether `m` is to be laid out level-major: its
/// [`natural_predecessor_share`] is at least [`LEVEL_MAJOR_SHARE`].
pub(crate) fn prefers_level_major(m: &CscMatrix, tri: Triangle) -> bool {
    natural_predecessor_share(m, tri) >= LEVEL_MAJOR_SHARE
}

/// The structure half of a relabelled factor, built from `(pattern,
/// triangle, order)` alone and shared behind an `Arc` by every value
/// epoch of a [`NumericFactor`]: the rows **relabelled into an
/// execution order**, stored CSR over positions with each row's entries
/// in natural source order.
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
}

impl Layout {
    /// Lay triangular `m`'s pattern out for the warm sweep: along
    /// `levels`' level-major order (ascending index within each level)
    /// when given — `m`'s own level sets, which the engine passes when
    /// [`prefers_level_major`] asks for that order — unless that order
    /// is `tri`'s natural one; otherwise in natural substitution order,
    /// which needs no position table and no boundary permutes. Cost:
    /// O(n + nnz); runs once per engine build.
    pub(crate) fn new(m: &CscMatrix, tri: Triangle, levels: Option<&LevelSets>) -> Layout {
        let is_natural = |order: &[u32]| {
            order.iter().enumerate().all(|(i, &c)| c as usize == natural_at(tri, order.len(), i))
        };
        let order = levels.map(LevelSets::level_comps).filter(|order| !is_natural(order));
        Layout::relabel(m, tri, order)
    }

    /// Relabel along `order` — which component sits at each position:
    /// any topological order of `m`'s dependency graph — or, with
    /// `None`, along `tri`'s natural order. Either way every row holds
    /// [`crate::reference`]'s operand sequence.
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
        let layout = Layout { n, tri, pos, ptr, cols, from };
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

    /// Call `f(c, position of c)` for every component `c` in order —
    /// one branch on the layout's kind, then a tight loop.
    #[inline(always)]
    fn each_position(&self, mut f: impl FnMut(usize, usize)) {
        match &self.pos {
            Some(pos) => pos.iter().enumerate().for_each(|(c, &p)| f(c, p as usize)),
            None => (0..self.n).for_each(|c| f(c, natural_at(self.tri, self.n, c))),
        }
    }

    /// Host bytes held by the layout's arrays — what an engine cache
    /// charges against its byte budget. Counts capacity, not length:
    /// the allocation is what occupies memory.
    pub fn host_bytes(&self) -> u64 {
        self.pos.as_ref().map_or(0, cap) + cap(&self.ptr) + cap(&self.cols) + cap(&self.from)
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
/// per nonzero, nothing else.
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

    /// The one numeric kernel: solve every row of the `K`-lane
    /// interleaved `y` in place, in position order — row `i` holds its
    /// `K` right-hand-side entries going in and its solutions coming
    /// out, and is read otherwise only by later rows. `K` is a const
    /// generic so the lane loops have compile-time trip counts (LLVM
    /// unrolls and vectorizes them into packed f64 operations).
    #[inline(always)]
    fn sweep<const K: usize>(&self, y: &mut [f64]) {
        let (ptr, cols) = (&self.layout.ptr[..], &self.layout.cols[..]);
        let (vals, diag) = (&self.values.vals[..], &self.values.diag[..]);
        let (y, tail) = y.as_chunks_mut::<K>();
        debug_assert!(tail.is_empty() && y.len() == self.layout.n, "y must hold n rows of K lanes");
        for i in 0..self.layout.n {
            let mut acc = [0.0f64; K];
            for k in ptr[i] as usize..ptr[i + 1] as usize {
                let (v, src) = (vals[k], y[cols[k] as usize]);
                for l in 0..K {
                    acc[l] += v * src[l];
                }
            }
            let (b, d) = (y[i], diag[i]);
            y[i] = std::array::from_fn(|l| (b[l] - acc[l]) / d);
        }
    }

    /// Permute `K` right-hand sides into the interleaved position-space
    /// `y`, sweep it, and permute the solutions out. Both boundary
    /// passes walk the *components* sequentially (`K` streaming
    /// vectors) and scatter whole `K`-lane rows of `y`.
    fn in_position_space<const K: usize>(
        &self,
        bs: &[impl AsRef<[f64]>],
        y: &mut [f64],
        outs: &mut [impl AsMut<[f64]>],
    ) {
        self.layout.each_position(|c, p| {
            for (l, b) in bs.iter().enumerate() {
                y[p * K + l] = b.as_ref()[c];
            }
        });
        self.sweep::<K>(y);
        self.layout.each_position(|c, p| {
            for (l, out) in outs.iter_mut().enumerate() {
                out.as_mut()[c] = y[p * K + l];
            }
        });
    }

    /// Serial scalar solve of `b` into `x`. A natural-order factor
    /// solves in `x` itself (positions are components, up to a
    /// reversal), so only a level-major factor touches `ws`.
    /// Allocates nothing once `ws` has grown to `n`.
    pub fn solve_into(&self, b: &[f64], ws: &mut ReplayWorkspace, x: &mut [f64]) {
        let n = self.layout.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "output length mismatch");
        match (&self.layout.pos, self.layout.tri) {
            (None, Triangle::Lower) => {
                x.copy_from_slice(b);
                self.sweep::<1>(x);
            }
            (None, Triangle::Upper) => {
                for (xi, bi) in x.iter_mut().zip(b.iter().rev()) {
                    *xi = *bi;
                }
                self.sweep::<1>(x);
                x.reverse();
            }
            (Some(_), _) => self.in_position_space::<1>(&[b], ws.rows(n), &mut [x]),
        }
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
        self.in_position_space::<K>(bs, ws.rows(self.layout.n * K), outs);
    }
}
