//! Synthetic triangular-system generators.
//!
//! The centerpiece is [`level_structured`], which generates a
//! lower-triangular matrix with an *exact* number of level sets, a
//! target nonzero count and a tunable dependency locality. This is what
//! lets the Table-I analog corpus match the paper's structural metrics
//! (rows, nnz, #levels, parallelism) for each SuiteSparse input without
//! shipping gigabytes of data (see [`crate::corpus`]).
//!
//! Additional generators cover the domain examples: 5-point grid
//! Laplacians (structured-grid problems), banded systems, scale-free
//! RMAT graphs (social/web networks like twitter7 / uk-2005), chains
//! (worst case) and diagonal systems (best case).

use crate::build::TripletBuilder;
use crate::csc::CscMatrix;
use crate::Idx;
use desim::Pcg32;

/// Parameters for [`level_structured`].
#[derive(Debug, Clone)]
pub struct LevelSpec {
    /// Matrix dimension.
    pub n: usize,
    /// Exact number of level sets to produce (clamped to `[1, n]`).
    pub levels: usize,
    /// Target total nonzeros including the diagonal. The generator may
    /// exceed this if the level structure alone requires more edges,
    /// and may fall slightly short after deduplication.
    pub nnz_target: usize,
    /// Probability that a dependency is drawn from a nearby index
    /// window rather than uniformly — models banded/mesh locality
    /// (1.0 = road-network-like, 0.0 = scale-free-like).
    pub locality: f64,
    /// Window size for local dependencies, as a fraction of `n`.
    pub window_frac: f64,
    /// RNG seed; equal specs with equal seeds generate identical matrices.
    pub seed: u64,
}

impl LevelSpec {
    /// A spec with the common defaults (`locality` 0.8, window 0.6%).
    pub fn new(n: usize, levels: usize, nnz_target: usize, seed: u64) -> Self {
        LevelSpec { n, levels, nnz_target, locality: 0.8, window_frac: 0.006, seed }
    }
}

/// Generate a lower-triangular matrix with an exact level-set count.
///
/// Construction: component `i` is assigned a level along a jittered
/// ramp (so levels interleave across the index space like factorization
/// fill does, preserving the paper's "unidirectional dependency"
/// phenomenon of §V). Every component at level `ℓ > 0` receives one
/// mandatory parent from level `ℓ − 1` (pinning its level exactly) and
/// extra parents from strictly lower levels until the nonzero budget is
/// spent.
///
/// The result always satisfies
/// `LevelSets::analyze(&m, Lower).n_levels() == spec.levels` (asserted
/// in tests), has a full nonzero diagonal, and is diagonally dominant
/// enough for stable substitution.
pub fn level_structured(spec: &LevelSpec) -> CscMatrix {
    let n = spec.n;
    assert!(n > 0, "empty matrix requested");
    let levels = spec.levels.clamp(1, n);
    let mut rng = Pcg32::seed_from_u64(spec.seed);

    // --- 1. level assignment along a jittered ramp --------------------
    let mut level_of = vec![0u32; n];
    let mut members: Vec<Vec<Idx>> = vec![Vec::new(); levels];
    let jitter_span = ((levels as f64) * 0.25).ceil() as i64;
    let mut max_assigned: i64 = -1;
    for i in 0..n {
        let base = (i as u64 * levels as u64 / n as u64) as i64;
        let jit = if jitter_span > 0 {
            rng.range_usize(0, (2 * jitter_span + 1) as usize) as i64 - jitter_span
        } else {
            0
        };
        let proposed = (base + jit).clamp(0, levels as i64 - 1);
        // Feasibility bounds: a level needs a predecessor population one
        // below (upper bound), and enough components must remain to
        // inhabit every level above (lower bound). Both hold inductively
        // because `levels <= n`.
        let must_reach = levels as i64 - (n - i) as i64; // ensures top level inhabited
        let lvl = proposed.min(max_assigned + 1).max(must_reach).max(0);
        level_of[i] = lvl as u32;
        members[lvl as usize].push(i as Idx);
        max_assigned = max_assigned.max(lvl);
    }
    debug_assert!((0..levels).all(|l| !members[l].is_empty()));

    // --- 2. mandatory parents pin each component's level ---------------
    let window = ((n as f64 * spec.window_frac).ceil() as usize).max(4);
    let mut edges: Vec<(Idx, Idx)> = Vec::with_capacity(spec.nnz_target.saturating_sub(n));
    let mut mandatory_parent = vec![Idx::MAX; n];
    for i in 0..n {
        let l = level_of[i] as usize;
        if l == 0 {
            continue;
        }
        let pool = &members[l - 1];
        // Only parents with a *smaller index* keep the matrix lower
        // triangular; the ramp guarantees the early part of `pool`
        // qualifies. Binary search for the cut.
        let cut = pool.partition_point(|&j| (j as usize) < i);
        debug_assert!(cut > 0, "ramp must give an earlier predecessor");
        let pick = if rng.chance(spec.locality) {
            // bias towards recent members: last `window` of the prefix
            let lo = cut.saturating_sub(window);
            rng.range_usize(lo, cut)
        } else {
            rng.range_usize(0, cut)
        };
        mandatory_parent[i] = pool[pick];
        edges.push((pool[pick], i as Idx));
    }

    // --- 3. extra parents spend the remaining nonzero budget -----------
    // Distributed per eligible component with distinct-parent sampling,
    // so high-dependency matrices (e.g. pkustk14's ~49 nnz/row) don't
    // collapse under deduplication.
    let mandatory = edges.len();
    let extra_budget = spec.nnz_target.saturating_sub(n + mandatory);
    let eligible: Vec<Idx> = (0..n as Idx).filter(|&i| level_of[i as usize] > 0).collect();
    if !eligible.is_empty() && extra_budget > 0 {
        let per = extra_budget / eligible.len();
        let mut remainder = extra_budget % eligible.len();
        let mut taken: Vec<Idx> = Vec::with_capacity(per + 2);
        for &ei in &eligible {
            let i = ei as usize;
            let want = per + usize::from(remainder > 0);
            remainder = remainder.saturating_sub(1);
            if want == 0 {
                continue;
            }
            taken.clear();
            taken.push(mandatory_parent[i]);
            // widen the local window when many distinct parents are needed
            let w = window.max(want * 3);
            let mut attempts = 0usize;
            let max_attempts = want * 6 + 24;
            let mut got = 0usize;
            while got < want && attempts < max_attempts {
                attempts += 1;
                let local = rng.chance(spec.locality) && i > 1;
                let j = if local {
                    rng.range_usize(i.saturating_sub(w), i)
                } else {
                    rng.range_usize(0, i)
                };
                let j32 = j as Idx;
                if level_of[j] < level_of[i] && !taken.contains(&j32) {
                    taken.push(j32);
                    edges.push((j32, i as Idx));
                    got += 1;
                }
            }
        }
    }

    // --- 4. dedup + assemble -------------------------------------------
    edges.sort_unstable();
    edges.dedup();
    let mut b = TripletBuilder::with_capacity(n, edges.len() + n);
    for i in 0..n {
        b.push(i, i, rng.range_f64(4.0, 8.0));
    }
    for &(j, i) in &edges {
        b.push(i as usize, j as usize, rng.range_f64(-1.0, 1.0));
    }
    b.build().expect("generator respects CSC invariants")
}

/// 5-point grid Laplacian on an `nx × ny` mesh (structured-grid
/// problems, §I's motivating applications). Symmetric positive
/// definite; factor with [`crate::factor::ilu0`] or take
/// `triangular_part` for a solvable L.
pub fn grid_laplacian(nx: usize, ny: usize) -> CscMatrix {
    let n = nx * ny;
    let mut b = TripletBuilder::with_capacity(n, 5 * n);
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            b.push(i, i, 4.0);
            if x > 0 {
                b.push(i, idx(x - 1, y), -1.0);
            }
            if x + 1 < nx {
                b.push(i, idx(x + 1, y), -1.0);
            }
            if y > 0 {
                b.push(i, idx(x, y - 1), -1.0);
            }
            if y + 1 < ny {
                b.push(i, idx(x, y + 1), -1.0);
            }
        }
    }
    b.build().expect("stencil is valid")
}

/// Random banded lower-triangular matrix: each row draws
/// `avg_row_nnz − 1` parents uniformly from the preceding `bandwidth`
/// indices. Models narrow-band factors (power-grid style).
pub fn banded_lower(n: usize, bandwidth: usize, avg_row_nnz: f64, seed: u64) -> CscMatrix {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, i, rng.range_f64(4.0, 8.0));
        if i == 0 {
            continue;
        }
        let lo = i.saturating_sub(bandwidth);
        let want = (avg_row_nnz - 1.0).max(0.0);
        let k = want.floor() as usize + usize::from(rng.chance(want.fract()));
        let mut parents: Vec<usize> = Vec::with_capacity(k);
        for _ in 0..k.min(i - lo) {
            parents.push(rng.range_usize(lo, i));
        }
        parents.sort_unstable();
        parents.dedup();
        for j in parents {
            b.push(i, j, rng.range_f64(-1.0, 1.0));
        }
    }
    b.build().expect("banded generator is valid")
}

/// Scale-free RMAT lower-triangular matrix (social / web graph analog:
/// twitter7, uk-2005). Edges `(u, v)` are mapped to the strictly-lower
/// triangle as `(max, min)` and deduplicated; the diagonal is added.
pub fn rmat_lower(n: usize, edge_target: usize, seed: u64) -> CscMatrix {
    assert!(n >= 2);
    let mut rng = Pcg32::seed_from_u64(seed);
    let scale = (n as f64).log2().ceil() as u32;
    let side = 1usize << scale;
    let (a, bq, c) = (0.57, 0.19, 0.19); // d = 0.05
    let mut edges: Vec<(Idx, Idx)> = Vec::with_capacity(edge_target);
    let mut attempts = 0usize;
    while edges.len() < edge_target && attempts < edge_target * 8 {
        attempts += 1;
        let (mut x, mut y) = (0usize, 0usize);
        let mut step = side / 2;
        while step > 0 {
            let r = rng.next_f64();
            if r < a {
                // top-left
            } else if r < a + bq {
                y += step;
            } else if r < a + bq + c {
                x += step;
            } else {
                x += step;
                y += step;
            }
            step /= 2;
        }
        if x >= n || y >= n || x == y {
            continue;
        }
        let (row, col) = (x.max(y) as Idx, x.min(y) as Idx);
        edges.push((col, row));
    }
    edges.sort_unstable();
    edges.dedup();
    let mut b = TripletBuilder::with_capacity(n, edges.len() + n);
    for i in 0..n {
        b.push(i, i, rng.range_f64(4.0, 8.0));
    }
    for &(col, row) in &edges {
        b.push(row as usize, col as usize, rng.range_f64(-1.0, 1.0));
    }
    b.build().expect("rmat generator is valid")
}

/// Symmetrize the strictly-lower pattern of `l` into a symmetric
/// positive-definite matrix.
///
/// Every strictly-lower entry `l_ij` is mirrored to `(j, i)` and the
/// diagonal is set to the row's absolute off-diagonal sum plus a
/// seeded margin in `[0.5, 1.5]` — the result is symmetric and
/// *strictly* diagonally dominant with a positive diagonal, hence SPD
/// by Gershgorin. This is how the Krylov experiments obtain SPD
/// systems whose dependency structure matches any of the triangular
/// generators (banded, level-structured, scale-free): generate the
/// lower factor shape first, then symmetrize.
pub fn spd_from_lower(l: &CscMatrix, seed: u64) -> CscMatrix {
    let n = l.n();
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut abs_sum = vec![0.0f64; n];
    let mut b = TripletBuilder::with_capacity(n, 2 * l.nnz() + n);
    for j in 0..n {
        for (r, v) in l.col(j) {
            let r = r as usize;
            if r == j {
                continue; // the diagonal is rebuilt below
            }
            b.push(r, j, v);
            b.push(j, r, v);
            abs_sum[r] += v.abs();
            abs_sum[j] += v.abs();
        }
    }
    for (i, s) in abs_sum.iter().enumerate() {
        b.push(i, i, s + rng.range_f64(0.5, 1.5));
    }
    b.build().expect("symmetrization preserves validity")
}

/// Random banded SPD matrix: the symmetrized [`banded_lower`] pattern
/// (narrow-band stiffness-matrix analog).
pub fn spd_banded(n: usize, bandwidth: usize, avg_row_nnz: f64, seed: u64) -> CscMatrix {
    spd_from_lower(&banded_lower(n, bandwidth, avg_row_nnz, seed), seed ^ 0x5bd)
}

/// SPD matrix with a controlled level structure in its lower triangle:
/// the symmetrized [`level_structured`] pattern. This is what lets the
/// Krylov corpus span the paper's parallelism/dependency space while
/// staying positive definite.
pub fn spd_structured(spec: &LevelSpec) -> CscMatrix {
    spd_from_lower(&level_structured(spec), spec.seed ^ 0x5bd)
}

/// Deep/narrow factor: exactly `depth` levels averaging `mean_width`
/// components each (`n = depth · mean_width`), with `avg_row_nnz`
/// stored entries per row and high dependency locality — the ILU(0) /
/// Cholesky shape where long runs of narrow levels make per-level
/// synchronization, not arithmetic, the solve cost. This is the honest
/// workload for chain-fused scheduling: nearly every level sits far
/// below any reasonable fusion width threshold.
pub fn deep_narrow(depth: usize, mean_width: usize, avg_row_nnz: f64, seed: u64) -> CscMatrix {
    assert!(depth > 0 && mean_width > 0, "deep_narrow needs positive depth and width");
    let n = depth * mean_width;
    level_structured(&LevelSpec {
        n,
        levels: depth,
        nnz_target: (n as f64 * avg_row_nnz).round() as usize,
        locality: 0.9,
        window_frac: 0.01,
        seed,
    })
}

/// Bidiagonal chain: the fully sequential worst case (`n` levels,
/// parallelism 1).
pub fn chain(n: usize) -> CscMatrix {
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, i, 2.0);
        if i > 0 {
            b.push(i, i - 1, -1.0);
        }
    }
    b.build().expect("chain is valid")
}

/// Diagonal system: the embarrassingly parallel best case (1 level).
pub fn diagonal(n: usize, seed: u64) -> CscMatrix {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, i, rng.range_f64(1.0, 3.0));
    }
    b.build().expect("diagonal is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelSets;
    use crate::Triangle;

    #[test]
    fn level_structured_hits_exact_level_count() {
        for &(n, l) in &[(100usize, 1usize), (100, 7), (1000, 40), (500, 500), (64, 2)] {
            let spec = LevelSpec::new(n, l, n * 4, 42);
            let m = level_structured(&spec);
            let ls = LevelSets::analyze(&m, Triangle::Lower);
            assert_eq!(ls.n_levels(), l, "n={n} levels={l}");
            m.validate_triangular(Triangle::Lower).unwrap();
        }
    }

    #[test]
    fn level_structured_nnz_near_target() {
        let spec = LevelSpec::new(2000, 50, 12_000, 7);
        let m = level_structured(&spec);
        let achieved = m.nnz() as f64;
        assert!(
            (achieved - 12_000.0).abs() / 12_000.0 < 0.15,
            "nnz {achieved} too far from target"
        );
    }

    #[test]
    fn level_structured_is_deterministic() {
        let spec = LevelSpec::new(300, 12, 1200, 99);
        assert_eq!(level_structured(&spec), level_structured(&spec));
        let spec2 = LevelSpec { seed: 100, ..spec };
        assert_ne!(level_structured(&spec), level_structured(&spec2));
    }

    #[test]
    fn level_structured_minimum_nnz_is_honored() {
        // Budget below the structural minimum: still valid, exact levels.
        let spec = LevelSpec::new(200, 20, 0, 3);
        let m = level_structured(&spec);
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        assert_eq!(ls.n_levels(), 20);
        assert!(m.nnz() >= 200);
    }

    #[test]
    fn level_structured_levels_interleave_indices() {
        // The unidirectional-dependency premise of §V: blocked partitions
        // skew level membership, but levels must not be contiguous index
        // blocks either (real factors interleave).
        let spec = LevelSpec::new(1000, 10, 4000, 5);
        let m = level_structured(&spec);
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        // level 1 should span a wide index range
        let l1 = ls.level(1);
        let span = (*l1.last().unwrap() - l1[0]) as usize;
        assert!(span > 100, "levels should interleave, span was {span}");
    }

    #[test]
    fn grid_laplacian_structure() {
        let m = grid_laplacian(4, 3);
        assert_eq!(m.n(), 12);
        // interior node has 5 entries
        assert_eq!(m.col_nnz(5), 5);
        // corner has 3
        assert_eq!(m.col_nnz(0), 3);
        // symmetric
        assert_eq!(m.get(0, 1), m.get(1, 0));
    }

    #[test]
    fn banded_lower_respects_band_and_triangle() {
        let m = banded_lower(500, 16, 4.0, 11);
        m.validate_triangular(Triangle::Lower).unwrap();
        for j in 0..m.n() {
            for (r, _) in m.col(j) {
                assert!((r as usize) - j <= 16 || r as usize == j);
            }
        }
        let dep = m.nnz() as f64 / m.n() as f64;
        assert!((3.0..5.0).contains(&dep), "dependency {dep}");
    }

    #[test]
    fn rmat_lower_is_valid_and_skewed() {
        let m = rmat_lower(1 << 10, 8_000, 21);
        m.validate_triangular(Triangle::Lower).unwrap();
        // scale-free: max column degree far above average
        let avg = m.nnz() as f64 / m.n() as f64;
        let max = (0..m.n()).map(|j| m.col_nnz(j)).max().unwrap() as f64;
        assert!(max > avg * 5.0, "expected a hub, max={max} avg={avg}");
    }

    #[test]
    fn spd_generators_are_symmetric_and_dominant() {
        for m in [
            spd_banded(300, 12, 4.0, 9),
            spd_structured(&LevelSpec::new(400, 15, 1600, 31)),
            spd_from_lower(&rmat_lower(256, 1200, 3), 8),
        ] {
            let n = m.n();
            // symmetric
            assert_eq!(m, m.transpose());
            // strictly diagonally dominant with positive diagonal ⇒ SPD
            for i in 0..n {
                let diag = m.get(i, i).unwrap();
                let off: f64 =
                    m.col(i).filter(|&(r, _)| r as usize != i).map(|(_, v)| v.abs()).sum();
                assert!(diag > off, "row {i}: diag {diag} vs off-sum {off}");
            }
        }
    }

    #[test]
    fn spd_generator_is_deterministic() {
        let a = spd_banded(128, 6, 3.0, 4);
        let b = spd_banded(128, 6, 3.0, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn deep_narrow_is_deep_and_narrow() {
        let m = deep_narrow(400, 5, 3.0, 17);
        m.validate_triangular(Triangle::Lower).unwrap();
        let ls = LevelSets::analyze(&m, Triangle::Lower);
        assert_eq!(ls.n_levels(), 400, "depth is exact");
        assert_eq!(m.n(), 2_000);
        assert!(ls.parallelism() <= 6.0, "parallelism {}", ls.parallelism());
        // the ramp ends may pool a couple of wide levels, but ≥95% of
        // the levels must sit within 3x the requested mean width
        let narrow = (0..ls.n_levels()).filter(|&l| ls.level(l).len() <= 15).count();
        assert!(narrow * 20 >= ls.n_levels() * 19, "only {narrow}/400 narrow levels");
        // deterministic for fixed parameters
        assert_eq!(m, deep_narrow(400, 5, 3.0, 17));
    }

    #[test]
    fn chain_and_diagonal_extremes() {
        let c = chain(64);
        let ls = LevelSets::analyze(&c, Triangle::Lower);
        assert_eq!(ls.n_levels(), 64);
        let d = diagonal(64, 1);
        let ls = LevelSets::analyze(&d, Triangle::Lower);
        assert_eq!(ls.n_levels(), 1);
    }
}
