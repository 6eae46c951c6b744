//! Level-set analysis of triangular systems (§II-B, Fig. 1b).
//!
//! A *level set* partitions the solution components so that every
//! component in level `ℓ` depends only on components in levels
//! `< ℓ`; components within a level can be solved concurrently. The
//! level-set schedule is the basis of the cuSPARSE `csrsv2()` baseline,
//! and its summary statistics are exactly Table I's `#Levels` and
//! `Parallelism` columns.
//!
//! The decomposition is stored flat, CSR-style: `level_ptr[ℓ] ..
//! level_ptr[ℓ+1]` indexes the components of level `ℓ` inside one
//! contiguous `level_comps` array. One allocation instead of
//! `n_levels` nested `Vec`s keeps the solve-phase iteration
//! cache-linear — this structure is rebuilt never and walked on every
//! solve, so its layout is a hot-path concern.

use crate::csc::CscMatrix;
use crate::{Idx, Triangle};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Per-thread count of [`LevelSets::analyze`] invocations. The
    /// build-once/solve-many engine tests read this to prove that warm
    /// solves perform **zero** level-set construction. Thread-local so
    /// concurrently running tests (and batch worker threads) cannot
    /// perturb each other's measurements.
    static ANALYZE_INVOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many times [`LevelSets::analyze`] has run on this thread.
pub fn analyze_invocations() -> u64 {
    ANALYZE_INVOCATIONS.with(Cell::get)
}

/// The level-set decomposition of a triangular matrix, in a flat
/// `(level_ptr, level_comps)` layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSets {
    /// `level_of[i]` = level of component `i`.
    pub level_of: Vec<u32>,
    /// CSR-style offsets: level `ℓ` occupies
    /// `level_comps[level_ptr[ℓ] as usize .. level_ptr[ℓ+1] as usize]`.
    level_ptr: Vec<u32>,
    /// Components grouped by level, ascending within each level.
    /// Reference-counted so consumers that need the flat order (the
    /// build-once/solve-many engine stores it as its replay schedule)
    /// can share this allocation instead of copying all `n` entries.
    level_comps: Arc<[Idx]>,
}

impl LevelSets {
    /// Analyze a triangular matrix. For `Lower`, dependencies run from
    /// smaller to larger indices, so a single ascending pass suffices;
    /// for `Upper` a descending pass.
    ///
    /// Cost: O(n + nnz), the paper's "analysis phase" for the
    /// level-based solver. The flat arrays are sized exactly by a
    /// counting pass — no per-level reallocation.
    pub fn analyze(m: &CscMatrix, tri: Triangle) -> LevelSets {
        ANALYZE_INVOCATIONS.with(|c| c.set(c.get() + 1));
        let n = m.n();
        let mut level_of = vec![0u32; n];
        match tri {
            Triangle::Lower => {
                for j in 0..n {
                    let lj = level_of[j];
                    for (r, _) in m.col(j) {
                        let r = r as usize;
                        if r > j {
                            level_of[r] = level_of[r].max(lj + 1);
                        }
                    }
                }
            }
            Triangle::Upper => {
                for j in (0..n).rev() {
                    let lj = level_of[j];
                    for (r, _) in m.col(j) {
                        let r = r as usize;
                        if r < j {
                            level_of[r] = level_of[r].max(lj + 1);
                        }
                    }
                }
            }
        }
        let n_levels = level_of.iter().copied().max().map_or(0, |m| m as usize + 1);

        // counting pass: level sizes → exclusive prefix sum → fill
        let mut level_ptr = vec![0u32; n_levels + 1];
        for &l in &level_of {
            level_ptr[l as usize + 1] += 1;
        }
        for l in 0..n_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut cursor = level_ptr.clone();
        let mut level_comps = vec![0 as Idx; n];
        for (i, &l) in level_of.iter().enumerate() {
            // ascending index order within each level: i is visited
            // ascending and each level's cursor only moves forward
            level_comps[cursor[l as usize] as usize] = i as Idx;
            cursor[l as usize] += 1;
        }
        LevelSets { level_of, level_ptr, level_comps: level_comps.into() }
    }

    /// Number of levels (0 for an empty matrix).
    #[inline]
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Components of level `l`, ascending.
    #[inline]
    pub fn level(&self, l: usize) -> &[Idx] {
        &self.level_comps[self.level_ptr[l] as usize..self.level_ptr[l + 1] as usize]
    }

    /// Iterate over the levels in order, each as a slice of components.
    pub fn iter_levels(&self) -> impl Iterator<Item = &[Idx]> {
        (0..self.n_levels()).map(move |l| self.level(l))
    }

    /// The CSR-style offsets array (`n_levels + 1` entries).
    #[inline]
    pub fn level_ptr(&self) -> &[u32] {
        &self.level_ptr
    }

    /// All components grouped by level (the flat data array).
    #[inline]
    pub fn level_comps(&self) -> &[Idx] {
        &self.level_comps
    }

    /// The flat component order behind a shared handle — a refcount
    /// bump, not an `n`-length copy. The solver engine holds this as
    /// its warm-solve replay schedule.
    #[inline]
    pub fn level_comps_shared(&self) -> Arc<[Idx]> {
        Arc::clone(&self.level_comps)
    }

    /// Size of the largest level.
    pub fn max_level_width(&self) -> usize {
        (0..self.n_levels())
            .map(|l| (self.level_ptr[l + 1] - self.level_ptr[l]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The paper's parallelism metric: `rows / levels` (average
    /// available concurrency per level).
    pub fn parallelism(&self) -> f64 {
        if self.n_levels() == 0 {
            return 0.0;
        }
        self.level_of.len() as f64 / self.n_levels() as f64
    }

    /// Partition the levels into **chains**: maximal runs of
    /// consecutive levels whose width is at most `width_threshold`
    /// fuse into one chain, while each wider level stands alone as a
    /// singleton chain. A fused chain can be executed by a single
    /// worker in canonical level-major order with **no internal
    /// synchronization** (every dependency of a row in the chain that
    /// lives inside the chain was solved earlier in the same walk), so
    /// an executor only needs a barrier at chain boundaries — the
    /// `chain_ptr` device from level-fusing GPU solvers, applied here
    /// to deep/narrow factors where per-level barriers dominate.
    ///
    /// `width_threshold == 0` disables fusion (every width is ≥ 1):
    /// each level becomes its own unfused singleton chain and the
    /// partition describes exactly the classic one-barrier-per-level
    /// schedule.
    ///
    /// The result is well-formed by construction: `chain_ptr` starts
    /// at 0, is strictly increasing, and ends at `n_levels`, so the
    /// chains tile the level sequence exactly.
    pub fn chains(&self, width_threshold: usize) -> ChainPartition {
        let n_levels = self.n_levels();
        let mut chain_ptr = vec![0u32];
        let mut fused = Vec::new();
        // `open` marks a run of narrow levels not yet closed off; a
        // wide level (or the end of the level sequence) closes it.
        let mut open = false;
        for l in 0..n_levels {
            let width = (self.level_ptr[l + 1] - self.level_ptr[l]) as usize;
            if width > width_threshold {
                if open {
                    chain_ptr.push(l as u32);
                    fused.push(true);
                    open = false;
                }
                chain_ptr.push((l + 1) as u32);
                fused.push(false);
            } else {
                open = true;
            }
        }
        if open {
            chain_ptr.push(n_levels as u32);
            fused.push(true);
        }
        ChainPartition { chain_ptr, fused, width_threshold }
    }
}

/// The chain partition produced by [`LevelSets::chains`]: a CSR-style
/// grouping of consecutive levels into barrier-delimited chains.
///
/// Chain `k` spans levels `chain_ptr[k] .. chain_ptr[k + 1]`. A
/// *fused* chain contains only levels at or below the width threshold
/// and runs on one worker without internal barriers; an unfused chain
/// is always a single wide level, the only kind a level-synchronous
/// executor would split across workers. Note a lone narrow level
/// between two wide ones still forms a (single-level) fused chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPartition {
    /// CSR-style level offsets: chain `k` spans levels
    /// `chain_ptr[k] .. chain_ptr[k + 1]`. Strictly increasing from 0
    /// to `n_levels`.
    chain_ptr: Vec<u32>,
    /// `fused[k]` — chain `k` is a run of narrow levels executed by a
    /// single worker (`false` means a singleton wide level).
    fused: Vec<bool>,
    /// The width threshold the partition was built with: levels of
    /// width ≤ this fused, wider levels stayed singleton chains.
    width_threshold: usize,
}

impl ChainPartition {
    /// Number of chains (0 for an empty matrix).
    #[inline]
    pub fn n_chains(&self) -> usize {
        self.chain_ptr.len().saturating_sub(1)
    }

    /// The half-open level range of chain `k`.
    #[inline]
    pub fn chain(&self, k: usize) -> std::ops::Range<usize> {
        self.chain_ptr[k] as usize..self.chain_ptr[k + 1] as usize
    }

    /// Whether chain `k` is a fused run of narrow levels (single
    /// worker, no internal barriers) rather than a singleton wide level.
    #[inline]
    pub fn is_fused(&self, k: usize) -> bool {
        self.fused[k]
    }

    /// The CSR-style level offsets (`n_chains + 1` entries).
    #[inline]
    pub fn chain_ptr(&self) -> &[u32] {
        &self.chain_ptr
    }

    /// The width threshold the partition was built with.
    #[inline]
    pub fn width_threshold(&self) -> usize {
        self.width_threshold
    }

    /// Total number of levels living inside fused chains.
    pub fn fused_levels(&self) -> usize {
        (0..self.n_chains()).filter(|&k| self.fused[k]).map(|k| self.chain(k).len()).sum()
    }

    /// Barriers one level-synchronous solve over this partition pays:
    /// every chain — a fused run on one worker or a wide level split
    /// across all of them, each a single phase that reads only earlier
    /// chains — needs one trailing barrier to publish its rows, and
    /// the final chain drops it because the join synchronizes:
    /// `chains − 1`. The unfused partition (`width_threshold == 0`)
    /// yields the classic `levels − 1`; a lone wide level pays 0.
    pub fn barriers_per_solve(&self) -> usize {
        self.n_chains().saturating_sub(1)
    }
}

/// Summary structural statistics of a triangular system — one row of
/// Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriStats {
    /// Matrix dimension (Table I "#Rows").
    pub rows: usize,
    /// Stored entries (Table I "#Non-Zeros").
    pub nnz: usize,
    /// Level-set count (Table I "#Levels").
    pub levels: usize,
    /// `rows / levels` (Table I "Parallelism").
    pub parallelism: f64,
    /// `nnz / rows` (the dependency metric of §VI-D).
    pub dependency: f64,
}

impl TriStats {
    /// Compute the Table-I statistics for `m`.
    pub fn compute(m: &CscMatrix, tri: Triangle) -> TriStats {
        let ls = LevelSets::analyze(m, tri);
        let rows = m.n();
        let levels = ls.n_levels();
        TriStats {
            rows,
            nnz: m.nnz(),
            levels,
            parallelism: if levels == 0 { 0.0 } else { rows as f64 / levels as f64 },
            dependency: if rows == 0 { 0.0 } else { m.nnz() as f64 / rows as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TripletBuilder;

    /// Fig. 1's 8×8 example; expected level sets from Fig. 1b:
    /// {x0}, {x1,x3,x5}, {x2,x4}, {x6}, {x7}.
    fn fig1() -> CscMatrix {
        let mut b = TripletBuilder::new(8);
        for i in 0..8 {
            b.push(i, i, 2.0);
        }
        for &(r, c) in &[
            (1usize, 0usize),
            (3, 0),
            (5, 0),
            (7, 0),
            (2, 1),
            (4, 3),
            (7, 3),
            (6, 4),
            (7, 4),
            (6, 5),
            (7, 6),
        ] {
            b.push(r, c, -1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn fig1_levels_match_paper() {
        let ls = LevelSets::analyze(&fig1(), Triangle::Lower);
        // paper Fig 1b: 5 levels: {0}, {1,3,5}, {2,4}, {6}, {7}
        assert_eq!(ls.n_levels(), 5);
        assert_eq!(ls.level(0), &[0]);
        assert_eq!(ls.level(1), &[1, 3, 5]);
        assert_eq!(ls.level(2), &[2, 4]);
        assert_eq!(ls.level(3), &[6]);
        assert_eq!(ls.level(4), &[7]);
        assert!((ls.parallelism() - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(ls.max_level_width(), 3);
    }

    #[test]
    fn flat_layout_is_consistent() {
        let ls = LevelSets::analyze(&fig1(), Triangle::Lower);
        assert_eq!(ls.level_ptr(), &[0, 1, 4, 6, 7, 8]);
        assert_eq!(ls.level_comps(), &[0, 1, 3, 5, 2, 4, 6, 7]);
        let collected: Vec<&[Idx]> = ls.iter_levels().collect();
        assert_eq!(collected.len(), ls.n_levels());
        for (l, set) in collected.iter().enumerate() {
            assert_eq!(*set, ls.level(l));
        }
    }

    /// Regression: the flat layout reproduces the exact level contents
    /// of the old nested-`Vec` analysis on a banded matrix, where every
    /// level is known in closed form (band width 1 ⇒ level(i) = {i};
    /// wider bands ⇒ level count n - bw + ... structural recurrence
    /// checked against level_of directly).
    #[test]
    fn banded_matrix_levels_regression() {
        let m = crate::gen::banded_lower(64, 4, 3.0, 9);
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        // reconstruct levels naively from level_of — the pre-flattening
        // representation — and compare content and order
        let n_levels = ls.n_levels();
        let mut naive: Vec<Vec<Idx>> = vec![Vec::new(); n_levels];
        for (i, &l) in ls.level_of.iter().enumerate() {
            naive[l as usize].push(i as Idx);
        }
        for (l, set) in naive.iter().enumerate() {
            assert_eq!(ls.level(l), set.as_slice(), "level {l}");
        }
        let total: usize = ls.iter_levels().map(<[Idx]>::len).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn diagonal_matrix_has_one_level() {
        let m = CscMatrix::identity(16);
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        assert_eq!(ls.n_levels(), 1);
        assert_eq!(ls.level(0).len(), 16);
        assert_eq!(ls.parallelism(), 16.0);
    }

    #[test]
    fn chain_matrix_has_n_levels() {
        // bidiagonal: x_i depends on x_{i-1}
        let n = 10;
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            b.push(i, i, 1.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
        }
        let ls = LevelSets::analyze(&b.build().unwrap(), Triangle::Lower);
        assert_eq!(ls.n_levels(), n);
        assert!(ls.iter_levels().all(|s| s.len() == 1));
        assert_eq!(ls.parallelism(), 1.0);
    }

    #[test]
    fn upper_triangle_levels_mirror_lower() {
        let l = fig1();
        let u = l.transpose();
        let lsl = LevelSets::analyze(&l, Triangle::Lower);
        let lsu = LevelSets::analyze(&u, Triangle::Upper);
        assert_eq!(lsl.n_levels(), lsu.n_levels());
        // component 0 is solved first in forward, last in backward
        assert_eq!(lsl.level_of[0], 0);
        assert_eq!(lsu.level_of[0] as usize, lsu.n_levels() - 1);
    }

    #[test]
    fn levels_are_consistent_with_dependencies() {
        let m = fig1();
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        for j in 0..m.n() {
            for (r, _) in m.col(j) {
                let r = r as usize;
                if r > j {
                    assert!(
                        ls.level_of[r] > ls.level_of[j],
                        "dependent {} must be deeper than {}",
                        r,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn analyze_invocations_counter_advances() {
        let before = analyze_invocations();
        let _ = LevelSets::analyze(&fig1(), Triangle::Lower);
        assert!(analyze_invocations() > before);
    }

    #[test]
    fn tristats_summary() {
        let s = TriStats::compute(&fig1(), Triangle::Lower);
        assert_eq!(s.rows, 8);
        assert_eq!(s.nnz, 19);
        assert_eq!(s.levels, 5);
        assert!((s.dependency - 19.0 / 8.0).abs() < 1e-12);
        assert!((s.parallelism - 1.6).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_stats() {
        let m = crate::build::TripletBuilder::new(0).build().unwrap();
        let s = TriStats::compute(&m, Triangle::Lower);
        assert_eq!(s.rows, 0);
        assert_eq!(s.levels, 0);
        assert_eq!(s.parallelism, 0.0);
    }

    #[test]
    fn fig1_chains_at_threshold_one() {
        let ls = LevelSets::analyze(&fig1(), Triangle::Lower);
        let ch = ls.chains(1);
        assert_eq!(ch.chain_ptr(), &[0, 1, 2, 3, 5]);
        assert_eq!(ch.n_chains(), 4);
        assert!(ch.is_fused(0) && !ch.is_fused(1) && !ch.is_fused(2) && ch.is_fused(3));
        assert_eq!(ch.chain(3), 3..5);
        assert_eq!(ch.fused_levels(), 3);
        assert_eq!(ch.width_threshold(), 1);
        // one per chain minus the dropped trailing one
        assert_eq!(ch.barriers_per_solve(), 3);
    }

    /// Threshold 0 disables fusion: every level is a singleton wide
    /// chain and the partition describes one barrier per level.
    #[test]
    fn threshold_zero_reproduces_per_level_schedule() {
        let ls = LevelSets::analyze(&fig1(), Triangle::Lower);
        let ch = ls.chains(0);
        assert_eq!(ch.n_chains(), ls.n_levels());
        assert!((0..ch.n_chains()).all(|k| !ch.is_fused(k) && ch.chain(k).len() == 1));
        assert_eq!(ch.fused_levels(), 0);
        assert_eq!(ch.barriers_per_solve(), ls.n_levels() - 1);
    }

    /// A pure dependency chain fuses into one barrier-free chain at
    /// any threshold ≥ 1; a diagonal matrix is one wide singleton.
    #[test]
    fn chain_and_diagonal_partitions() {
        let n = 10;
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            b.push(i, i, 1.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
        }
        let ls = LevelSets::analyze(&b.build().unwrap(), Triangle::Lower);
        let ch = ls.chains(1);
        assert_eq!(ch.n_chains(), 1);
        assert!(ch.is_fused(0));
        assert_eq!(ch.chain(0), 0..n);
        assert_eq!(ch.barriers_per_solve(), 0);

        let diag = LevelSets::analyze(&CscMatrix::identity(16), Triangle::Lower);
        let ch = diag.chains(4);
        assert_eq!(ch.n_chains(), 1);
        assert!(!ch.is_fused(0));
        assert_eq!(ch.barriers_per_solve(), 0, "a lone wide level needs no barrier");
        // threshold at the full width fuses even the single wide level
        assert!(diag.chains(16).is_fused(0));
    }

    #[test]
    fn empty_matrix_has_no_chains() {
        let m = crate::build::TripletBuilder::new(0).build().unwrap();
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        let ch = ls.chains(8);
        assert_eq!(ch.n_chains(), 0);
        assert_eq!(ch.chain_ptr(), &[0]);
        assert_eq!(ch.fused_levels(), 0);
        assert_eq!(ch.barriers_per_solve(), 0);
    }

    #[test]
    fn empty_matrix_flat_layout() {
        let m = crate::build::TripletBuilder::new(0).build().unwrap();
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        assert_eq!(ls.n_levels(), 0);
        assert_eq!(ls.iter_levels().count(), 0);
        assert_eq!(ls.max_level_width(), 0);
    }
}
