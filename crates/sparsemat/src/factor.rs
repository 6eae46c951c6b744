//! Factorization substrate — the MA48 stand-in.
//!
//! The paper factorizes its SuiteSparse inputs with MA48 (HSL) to obtain
//! the lower-triangular `L` that SpTRSV solves (§VI-A). MA48 is
//! proprietary Fortran; we provide the two standard open alternatives
//! used throughout the SpTRSV literature:
//!
//! * [`ilu0`] — incomplete LU with zero fill-in. Preserves the sparsity
//!   pattern of `A`, which is exactly what the paper's structural
//!   metrics (levels, parallelism) are computed from.
//! * [`CscMatrix::triangular_part`] — the `tril(A)`/`triu(A)` trick.
//!
//! Both produce a solvable `(L, U)` pair whose level structure matches
//! the input's dependency pattern, which is the property the
//! experiments rely on.
//!
//! ## Refactorization: new values, recorded pattern
//!
//! Time-stepping and transient workloads refactor the *same* sparsity
//! pattern with new numeric values every few steps. [`ilu0`] therefore
//! records its elimination pattern (the combined-factor structure,
//! diagonal positions, and the scatter maps between `A`, the combined
//! factor, and the split `L`/`U`) inside the returned [`LuFactors`],
//! and [`ilu0_refactor`] replays the numeric elimination over that
//! record with **zero symbolic work** — no diagonal search, no pattern
//! matching, no triangular split. The refreshed factors are
//! bit-identical to a fresh [`ilu0`] on the new values; a matrix whose
//! pattern drifted from the record is rejected with a typed
//! [`MatrixError::StructureMismatch`] before anything is mutated.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::Triangle;

/// Result of an (incomplete) LU factorization: `A ≈ L · U` with `L`
/// unit-lower-triangular (unit diagonal stored explicitly) and `U`
/// upper triangular, plus the recorded elimination pattern that lets
/// [`ilu0_refactor`] refresh the values without re-doing any symbolic
/// work.
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Lower factor, unit diagonal stored, CSC.
    pub l: CscMatrix,
    /// Upper factor, CSC.
    pub u: CscMatrix,
    /// The recorded elimination pattern (see [`ilu0_refactor`]).
    pattern: ElimPattern,
}

/// The symbolic record of one [`ilu0`] run: everything the numeric
/// elimination needs that does not depend on the values. Stored inside
/// [`LuFactors`] so [`ilu0_refactor`] can replay the factorization
/// over new values with zero pattern work.
#[derive(Debug, Clone)]
struct ElimPattern {
    /// Dimension.
    n: usize,
    /// Combined-factor CSR row pointers (the diagonal-completed
    /// pattern of `A`).
    row_ptr: Vec<usize>,
    /// Combined-factor CSR column indices.
    col_idx: Vec<u32>,
    /// Position of `a_ii` within row `i` of the combined factor.
    diag_pos: Vec<usize>,
    /// Combined position → position in `A`'s CSC value array;
    /// `usize::MAX` marks a diagonal the completion inserted (its seed
    /// value is `pivot_fill`, not an entry of `A`).
    from_a: Vec<usize>,
    /// `L` CSC value position → combined position; `usize::MAX` marks
    /// the unit diagonal (always exactly `1.0`).
    l_from: Vec<usize>,
    /// `U` CSC value position → combined position.
    u_from: Vec<usize>,
    /// The pivot repair value the original factorization used.
    pivot_fill: f64,
    /// `A`'s stored-entry count, part of the structure-identity check.
    a_nnz: usize,
}

impl ElimPattern {
    /// Verify `a` has exactly the recorded sparsity pattern — an exact
    /// O(nnz) check, not a hash compare. Every recorded `A`-position
    /// must still name the same `(row, col)` in `a`, and `a` must have
    /// no entries beyond the recorded ones.
    fn check_structure(&self, a: &CscMatrix) -> Result<(), MatrixError> {
        let drift = MatrixError::StructureMismatch { what: "ILU(0) elimination" };
        if a.n() != self.n || a.nnz() != self.a_nnz {
            return Err(drift);
        }
        let col_ptr = a.col_ptr();
        let row_idx = a.row_idx();
        let mut mapped = 0usize;
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let p = self.from_a[k];
                if p == usize::MAX {
                    continue; // inserted diagonal: no counterpart in A
                }
                let j = self.col_idx[k] as usize;
                if p < col_ptr[j] || p >= col_ptr[j + 1] || row_idx[p] as usize != i {
                    return Err(drift);
                }
                mapped += 1;
            }
        }
        // the map is injective ((row, col) pairs are unique), so full
        // coverage of a's entries follows from the count alone
        if mapped != a.nnz() {
            return Err(drift);
        }
        Ok(())
    }
}

/// ILU(0): incomplete LU restricted to the sparsity pattern of `A`.
///
/// Standard IKJ formulation on CSR. Zero or absent diagonal pivots are
/// replaced by `pivot_fill` (a small diagonal shift keeps the factor
/// solvable; the paper's experiments only need structural fidelity).
///
/// # Errors
/// A zero or non-finite `pivot_fill` is rejected as
/// [`MatrixError::InvalidArgument`] — zero would reintroduce the
/// singular pivots the fill exists to repair, and a NaN/∞ fill would
/// poison every downstream elimination; both are caller mistakes, not
/// internal invariants, so they surface as typed errors rather than
/// panics.
pub fn ilu0(a: &CscMatrix, pivot_fill: f64) -> Result<LuFactors, MatrixError> {
    if pivot_fill == 0.0 || !pivot_fill.is_finite() {
        return Err(MatrixError::InvalidArgument { what: "pivot_fill", value: pivot_fill });
    }
    let n = a.n();
    // Ensure a full diagonal so pivots exist in the pattern.
    let csr = CsrMatrix::from_csc(&with_full_diagonal(a, pivot_fill));
    let row_ptr = csr.row_ptr().to_vec();
    let col_idx = csr.col_idx().to_vec();
    let mut val = csr.values().to_vec();

    // diag_pos[i] = position of a_ii within row i.
    let mut diag_pos = vec![usize::MAX; n];
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            if col_idx[k] as usize == i {
                diag_pos[i] = k;
                break;
            }
        }
        if diag_pos[i] == usize::MAX {
            return Err(MatrixError::MissingDiagonal(i));
        }
    }

    // Scatter map: column -> position in the current row (usize::MAX = absent).
    let mut pos_of = vec![usize::MAX; n];
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        for k in lo..hi {
            pos_of[col_idx[k] as usize] = k;
        }
        // Eliminate using rows k < i that appear in row i's pattern.
        for kk in lo..hi {
            let k = col_idx[kk] as usize;
            if k >= i {
                break; // columns sorted: done with the strictly-lower part
            }
            let mut pivot = val[diag_pos[k]];
            if pivot == 0.0 {
                pivot = pivot_fill;
            }
            let factor = val[kk] / pivot;
            val[kk] = factor;
            // Row k's upper part updates row i where the pattern matches.
            for kj in diag_pos[k] + 1..row_ptr[k + 1] {
                let j = col_idx[kj] as usize;
                let p = pos_of[j];
                if p != usize::MAX {
                    val[p] -= factor * val[kj];
                }
            }
        }
        if val[diag_pos[i]] == 0.0 {
            val[diag_pos[i]] = pivot_fill;
        }
        for k in lo..hi {
            pos_of[col_idx[k] as usize] = usize::MAX;
        }
    }

    // Record where each combined entry came from in A — the numeric
    // seed map a refactorization replays instead of re-matching the
    // patterns.
    let from_a = map_from_a(a, n, &row_ptr, &col_idx);

    // Split the combined factor into L (unit diag) and U.
    let combined = CsrMatrix::try_new(n, row_ptr.clone(), col_idx.clone(), val)?.to_csc();
    let mut l = combined.triangular_part(Triangle::Lower, 1.0);
    // Force L's diagonal to exactly 1 (unit lower factor).
    set_diagonal(&mut l, 1.0);
    let u = combined.triangular_part(Triangle::Upper, pivot_fill);
    l.validate_triangular(Triangle::Lower)?;
    u.validate_triangular(Triangle::Upper)?;
    let l_from = map_into_combined(&l, &row_ptr, &col_idx, true);
    let u_from = map_into_combined(&u, &row_ptr, &col_idx, false);
    let pattern = ElimPattern {
        n,
        row_ptr,
        col_idx,
        diag_pos,
        from_a,
        l_from,
        u_from,
        pivot_fill,
        a_nnz: a.nnz(),
    };
    Ok(LuFactors { l, u, pattern })
}

/// Recompute the values of an existing ILU(0) factorization for a
/// matrix with the **same sparsity pattern** but new values — the
/// time-stepping refresh path.
///
/// Replays the numeric IKJ elimination over the pattern [`ilu0`]
/// recorded (combined structure, diagonal positions, scatter maps), so
/// no symbolic work happens: no diagonal search, no pattern matching,
/// no triangular re-split, no validation sweep of the outputs. The
/// refreshed `f.l`/`f.u` values are **bit-identical** to a fresh
/// `ilu0(a, pivot_fill)` with the original `pivot_fill`, including the
/// zero-pivot repairs.
///
/// # Errors
/// A matrix whose dimension or sparsity pattern differs from the
/// recorded one is rejected as [`MatrixError::StructureMismatch`]
/// **before** any factor value is touched, so `f` is left exactly as
/// it was on failure (strong exception guarantee).
pub fn ilu0_refactor(f: &mut LuFactors, a: &CscMatrix) -> Result<(), MatrixError> {
    let LuFactors { l, u, pattern } = f;
    pattern.check_structure(a)?;
    let n = pattern.n;
    let a_vals = a.values();

    // Numeric seed: pull A's values through the recorded map, applying
    // the same diagonal repair the original diagonal completion did
    // (absent diagonal → pivot_fill, present-but-zero → pivot_fill).
    let mut val = vec![0.0f64; pattern.col_idx.len()];
    for i in 0..n {
        for k in pattern.row_ptr[i]..pattern.row_ptr[i + 1] {
            let src = pattern.from_a[k];
            val[k] = if src == usize::MAX { pattern.pivot_fill } else { a_vals[src] };
        }
        let dk = pattern.diag_pos[i];
        if val[dk] == 0.0 {
            val[dk] = pattern.pivot_fill;
        }
    }

    // Replay the elimination — the identical loop `ilu0` runs, over the
    // identical pattern, so every value comes out bit-identical.
    let mut pos_of = vec![usize::MAX; n];
    for i in 0..n {
        let (lo, hi) = (pattern.row_ptr[i], pattern.row_ptr[i + 1]);
        for k in lo..hi {
            pos_of[pattern.col_idx[k] as usize] = k;
        }
        for kk in lo..hi {
            let k = pattern.col_idx[kk] as usize;
            if k >= i {
                break;
            }
            let mut pivot = val[pattern.diag_pos[k]];
            if pivot == 0.0 {
                pivot = pattern.pivot_fill;
            }
            let factor = val[kk] / pivot;
            val[kk] = factor;
            for kj in pattern.diag_pos[k] + 1..pattern.row_ptr[k + 1] {
                let j = pattern.col_idx[kj] as usize;
                let p = pos_of[j];
                if p != usize::MAX {
                    val[p] -= factor * val[kj];
                }
            }
        }
        if val[pattern.diag_pos[i]] == 0.0 {
            val[pattern.diag_pos[i]] = pattern.pivot_fill;
        }
        for k in lo..hi {
            pos_of[pattern.col_idx[k] as usize] = usize::MAX;
        }
    }

    // Scatter the combined values into the split factors in place.
    for (dst, &src) in l.values_mut().iter_mut().zip(&pattern.l_from) {
        *dst = if src == usize::MAX { 1.0 } else { val[src] };
    }
    for (dst, &src) in u.values_mut().iter_mut().zip(&pattern.u_from) {
        *dst = if src == usize::MAX { pattern.pivot_fill } else { val[src] };
    }
    Ok(())
}

/// For each combined-CSR position, the position of the same `(row,
/// col)` entry in `a`'s CSC value array (`usize::MAX` for diagonals the
/// completion inserted).
fn map_from_a(a: &CscMatrix, n: usize, row_ptr: &[usize], col_idx: &[u32]) -> Vec<usize> {
    let col_ptr = a.col_ptr();
    let row_idx = a.row_idx();
    let mut from_a = vec![usize::MAX; col_idx.len()];
    for i in 0..n {
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k] as usize;
            let col = &row_idx[col_ptr[j]..col_ptr[j + 1]];
            if let Ok(off) = col.binary_search(&(i as u32)) {
                from_a[k] = col_ptr[j] + off;
            } else {
                debug_assert_eq!(i, j, "only diagonals are inserted by completion");
            }
        }
    }
    from_a
}

/// For each CSC value position of a split factor, the combined-CSR
/// position holding the same `(row, col)` entry; for the unit-lower
/// factor the diagonal maps to `usize::MAX` (it is pinned to `1.0`,
/// not read from the combined factor).
fn map_into_combined(
    factor: &CscMatrix,
    row_ptr: &[usize],
    col_idx: &[u32],
    unit_diagonal: bool,
) -> Vec<usize> {
    let col_ptr = factor.col_ptr();
    let row_idx = factor.row_idx();
    let mut map = vec![usize::MAX; factor.nnz()];
    for j in 0..factor.n() {
        for p in col_ptr[j]..col_ptr[j + 1] {
            let i = row_idx[p] as usize;
            if unit_diagonal && i == j {
                continue;
            }
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            let off = row
                .binary_search(&(j as u32))
                .expect("split factor entries exist in the combined pattern");
            map[p] = row_ptr[i] + off;
        }
    }
    map
}

/// Findings per category an audit keeps before it stops recording (the
/// counts stay exact; only the located examples are capped).
pub const AUDIT_MAX_FINDINGS: usize = 16;

/// Result of a build-time numeric/structural sweep over a factor —
/// the guardrail between a factorization and the thousands of warm
/// solves amortized over it. A NaN produced by one bad pivot poisons
/// *every* subsequent solve bit-identically, so the sweep runs once at
/// engine build (where the cost is amortized away) instead of per
/// solve.
///
/// Findings are recorded up to [`AUDIT_MAX_FINDINGS`] per category
/// (`truncated` reports whether any list hit the cap); the `*_count`
/// totals are always exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactorAudit {
    /// Diagonal entries that are exactly zero (singular pivot rows).
    pub zero_diagonals: Vec<usize>,
    /// Diagonal entries that are NaN or infinite.
    pub nonfinite_diagonals: Vec<usize>,
    /// Off-diagonal `(row, col)` entries that are NaN or infinite.
    pub nonfinite_offdiagonals: Vec<(usize, usize)>,
    /// `(row, col)` pairs stored more than once within a column —
    /// structurally malformed storage that would double-count updates.
    pub duplicate_entries: Vec<(usize, usize)>,
    /// Exact total of offending entries across all categories (the
    /// example lists above are capped, this count is not).
    pub finding_count: usize,
    /// Whether any example list hit [`AUDIT_MAX_FINDINGS`].
    pub truncated: bool,
}

impl FactorAudit {
    /// `true` when the sweep found nothing — the factor is safe to
    /// amortize warm solves over.
    pub fn is_clean(&self) -> bool {
        self.finding_count == 0
    }

    /// The most severe finding as a typed error (`None` when clean):
    /// non-finite values first (they poison silently), then zero
    /// diagonals (they fail loudly at solve time), then duplicates.
    pub fn first_error(&self) -> Option<MatrixError> {
        if let Some(&i) = self.nonfinite_diagonals.first() {
            return Some(MatrixError::NonFiniteValue { row: i, col: i });
        }
        if let Some(&(r, c)) = self.nonfinite_offdiagonals.first() {
            return Some(MatrixError::NonFiniteValue { row: r, col: c });
        }
        if let Some(&i) = self.zero_diagonals.first() {
            return Some(MatrixError::ZeroDiagonal(i));
        }
        if let Some(&(_, c)) = self.duplicate_entries.first() {
            return Some(MatrixError::UnsortedIndices { outer: c });
        }
        None
    }
}

/// Sweep a (triangular) factor for the numeric and structural hazards
/// that would poison warm solves: zero or non-finite diagonals,
/// non-finite off-diagonals, and duplicated entries within a column.
/// One `O(nnz)` pass; see [`FactorAudit`] for the reporting contract.
///
/// Factors without findings — the common case — are cleared by
/// [`certainly_clean`] without the per-column pass.
pub fn audit_factor(m: &CscMatrix) -> FactorAudit {
    if certainly_clean(m) {
        return FactorAudit::default();
    }
    let n = m.n();
    let mut audit = FactorAudit::default();
    let record_cap = |list_len: usize| list_len < AUDIT_MAX_FINDINGS;
    for j in 0..n {
        let mut prev_row: Option<u32> = None;
        for (r, v) in m.col(j) {
            let row = r as usize;
            if !v.is_finite() {
                audit.finding_count += 1;
                if row == j {
                    if record_cap(audit.nonfinite_diagonals.len()) {
                        audit.nonfinite_diagonals.push(row);
                    } else {
                        audit.truncated = true;
                    }
                } else if record_cap(audit.nonfinite_offdiagonals.len()) {
                    audit.nonfinite_offdiagonals.push((row, j));
                } else {
                    audit.truncated = true;
                }
            } else if row == j && v == 0.0 {
                audit.finding_count += 1;
                if record_cap(audit.zero_diagonals.len()) {
                    audit.zero_diagonals.push(row);
                } else {
                    audit.truncated = true;
                }
            }
            if prev_row == Some(r) {
                audit.finding_count += 1;
                if record_cap(audit.duplicate_entries.len()) {
                    audit.duplicate_entries.push((row, j));
                } else {
                    audit.truncated = true;
                }
            }
            prev_row = Some(r);
        }
    }
    audit
}

/// Whether `m` has no [`audit_factor`] finding for sure: every value
/// finite and nonzero (one branch-free sweep that vectorizes), and no
/// two equal adjacent row indices within a column (equal neighbours
/// across a column boundary are legal, so the rare candidates are
/// checked against the column starts). `false` only means the exact
/// pass has to look.
fn certainly_clean(m: &CscMatrix) -> bool {
    // |v| − 1 wraps for ±0 and reaches INFINITY − 1 for ±∞ and NaN
    let inf = f64::INFINITY.to_bits();
    let bad = |v: &&f64| (v.to_bits() & !(1 << 63)).wrapping_sub(1) >= inf - 1;
    let col_ptr = m.col_ptr();
    m.values().iter().filter(bad).count() == 0
        && m.row_idx()
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] == w[1])
            .all(|(k, _)| col_ptr.binary_search(&(k + 1)).is_ok())
}

/// Copy of `a` with every missing diagonal entry inserted as `fill`.
fn with_full_diagonal(a: &CscMatrix, fill: f64) -> CscMatrix {
    let n = a.n();
    let mut b = crate::build::TripletBuilder::with_capacity(n, a.nnz() + n);
    for j in 0..n {
        let mut saw = false;
        for (r, v) in a.col(j) {
            if r as usize == j {
                saw = true;
                b.push(r as usize, j, if v == 0.0 { fill } else { v });
            } else {
                b.push(r as usize, j, v);
            }
        }
        if !saw {
            b.push(j, j, fill);
        }
    }
    b.build().expect("diagonal completion preserves validity")
}

fn set_diagonal(m: &mut CscMatrix, v: f64) {
    let n = m.n();
    for j in 0..n {
        let lo = m.col_ptr()[j];
        if m.row_idx()[lo] as usize == j {
            m.values_mut()[lo] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TripletBuilder;
    use crate::gen;

    /// Dense-LU reference on a small matrix, no pivoting, to compare
    /// ILU(0) against on a full-pattern input (where ILU(0) == LU).
    fn dense_lu(a: &CscMatrix) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let n = a.n();
        let mut m = vec![vec![0.0; n]; n];
        for j in 0..n {
            for (r, v) in a.col(j) {
                m[r as usize][j] = v;
            }
        }
        for k in 0..n {
            for i in k + 1..n {
                m[i][k] /= m[k][k];
                for j in k + 1..n {
                    m[i][j] -= m[i][k] * m[k][j];
                }
            }
        }
        let mut l = vec![vec![0.0; n]; n];
        let mut u = vec![vec![0.0; n]; n];
        for i in 0..n {
            l[i][i] = 1.0;
            for j in 0..n {
                if j < i {
                    l[i][j] = m[i][j];
                } else {
                    u[i][j] = m[i][j];
                }
            }
        }
        (l, u)
    }

    fn dense_full(n: usize, seed: u64) -> CscMatrix {
        let mut rng = desim::Pcg32::seed_from_u64(seed);
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    n as f64 + rng.next_f64() // diagonally dominant
                } else {
                    rng.range_f64(-1.0, 1.0)
                };
                b.push(i, j, v);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn ilu0_on_full_pattern_equals_lu() {
        let a = dense_full(8, 42);
        let f = ilu0(&a, 1e-8).unwrap();
        let (dl, du) = dense_lu(&a);
        for i in 0..8 {
            for j in 0..8 {
                let lv = f.l.get(i, j).unwrap_or(0.0);
                let uv = f.u.get(i, j).unwrap_or(0.0);
                assert!((lv - dl[i][j]).abs() < 1e-9, "L[{i}][{j}]: {lv} vs {}", dl[i][j]);
                assert!((uv - du[i][j]).abs() < 1e-9, "U[{i}][{j}]: {uv} vs {}", du[i][j]);
            }
        }
    }

    #[test]
    fn ilu0_preserves_pattern() {
        let a = gen::grid_laplacian(8, 8);
        let f = ilu0(&a, 1e-8).unwrap();
        // L ∪ U pattern (minus the unit diagonal of L) must be within A's
        // pattern plus the diagonal.
        for j in 0..a.n() {
            for (r, _) in f.l.col(j) {
                let r = r as usize;
                assert!(r == j || a.get(r, j).is_some(), "fill-in at L({r},{j}) violates ILU(0)");
            }
            for (r, _) in f.u.col(j) {
                let r = r as usize;
                assert!(r == j || a.get(r, j).is_some());
            }
        }
    }

    #[test]
    fn ilu0_factors_are_solvable_triangles() {
        let a = gen::grid_laplacian(10, 7);
        let f = ilu0(&a, 1e-8).unwrap();
        f.l.validate_triangular(Triangle::Lower).unwrap();
        f.u.validate_triangular(Triangle::Upper).unwrap();
        assert!(f.l.col(0).next().unwrap().1 == 1.0, "unit diagonal");
    }

    #[test]
    fn ilu0_exact_for_tridiagonal() {
        // Tridiagonal: no fill-in exists, so ILU(0) is the exact LU and
        // L·U must reproduce A.
        let n = 16;
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            b.push(i, i, 4.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
                b.push(i - 1, i, -1.0);
            }
        }
        let a = b.build().unwrap();
        let f = ilu0(&a, 1e-8).unwrap();
        // multiply L*U densely and compare
        let n = a.n();
        for i in 0..n {
            for j in 0..n {
                let mut lu = 0.0;
                for k in 0..n {
                    lu += f.l.get(i, k).unwrap_or(0.0) * f.u.get(k, j).unwrap_or(0.0);
                }
                let av = a.get(i, j).unwrap_or(0.0);
                assert!((lu - av).abs() < 1e-10, "LU({i},{j})={lu} vs A={av}");
            }
        }
    }

    #[test]
    fn audit_passes_clean_factors() {
        let a = gen::grid_laplacian(8, 8);
        let f = ilu0(&a, 1e-8).unwrap();
        let audit = audit_factor(&f.l);
        assert!(audit.is_clean());
        assert!(audit.first_error().is_none());
        assert!(!audit.truncated);
    }

    #[test]
    fn audit_finds_nonfinite_and_zero_diagonals() {
        let mut b = TripletBuilder::new(3);
        b.push(0, 0, 1.0);
        b.push(1, 0, f64::NAN);
        b.push(1, 1, 0.0);
        b.push(2, 2, f64::INFINITY);
        let m = b.build().unwrap();
        let audit = audit_factor(&m);
        assert_eq!(audit.zero_diagonals, vec![1]);
        assert_eq!(audit.nonfinite_diagonals, vec![2]);
        assert_eq!(audit.nonfinite_offdiagonals, vec![(1, 0)]);
        assert_eq!(audit.finding_count, 3);
        // severity order: non-finite beats zero-diagonal
        assert!(matches!(audit.first_error(), Some(MatrixError::NonFiniteValue { .. })));
    }

    /// The vectorized pre-check never hides a finding: it clears a
    /// factor only if the exact pass finds it clean — legal equal
    /// neighbours across a column boundary included.
    #[test]
    fn audit_pre_check_agrees_with_the_exact_pass() {
        // column 0 ends with row 1 and column 1 starts with it
        let tri = |diag: f64, off: f64| {
            let mut b = TripletBuilder::new(3);
            for (r, c, v) in [(0, 0, 2.0), (1, 0, off), (1, 1, diag), (2, 1, -1.0), (2, 2, 2.0)] {
                b.push(r, c, v);
            }
            b.build().unwrap()
        };
        let tiny = f64::MIN_POSITIVE / 2.0;
        for (diag, off, clean) in [
            (2.0, -1.0, true),
            (tiny, -tiny, true),
            (f64::MAX, f64::MIN, true),
            (2.0, 0.0, true), // a zero off the diagonal is no finding
            (-0.0, -1.0, false),
            (2.0, f64::NAN, false),
            (f64::NEG_INFINITY, -1.0, false),
        ] {
            let m = tri(diag, off);
            assert_eq!(audit_factor(&m).is_clean(), clean, "diag={diag} off={off}");
            assert!(clean || !certainly_clean(&m), "diag={diag} off={off}");
        }
        assert!(certainly_clean(&tri(2.0, -1.0)), "boundary neighbours are legal");
    }

    #[test]
    fn audit_counts_past_the_example_cap() {
        let n = AUDIT_MAX_FINDINGS + 8;
        let mut b = TripletBuilder::new(n);
        for i in 0..n {
            b.push(i, i, f64::NAN);
        }
        let m = b.build().unwrap();
        let audit = audit_factor(&m);
        assert_eq!(audit.nonfinite_diagonals.len(), AUDIT_MAX_FINDINGS);
        assert_eq!(audit.finding_count, n, "counts stay exact past the cap");
        assert!(audit.truncated);
    }

    #[test]
    fn ilu0_rejects_bad_pivot_fill() {
        let a = gen::grid_laplacian(4, 4);
        for bad in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ilu0(&a, bad).unwrap_err();
            assert!(
                matches!(err, MatrixError::InvalidArgument { what: "pivot_fill", .. }),
                "pivot_fill={bad}: {err:?}"
            );
        }
        // valid fills (including negative) still factor
        ilu0(&a, -1e-8).unwrap();
    }

    #[test]
    fn refactor_matches_fresh_ilu0_bitwise() {
        let a1 = gen::grid_laplacian(10, 9);
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * ((i % 7) as f64);
        }
        let mut f = ilu0(&a1, 1e-8).unwrap();
        ilu0_refactor(&mut f, &a2).unwrap();
        let fresh = ilu0(&a2, 1e-8).unwrap();
        assert_eq!(f.l.values(), fresh.l.values(), "L values must be bit-identical");
        assert_eq!(f.u.values(), fresh.u.values(), "U values must be bit-identical");
        // refreshing back to the original values restores the original factor
        let orig = ilu0(&a1, 1e-8).unwrap();
        ilu0_refactor(&mut f, &a1).unwrap();
        assert_eq!(f.l.values(), orig.l.values());
        assert_eq!(f.u.values(), orig.u.values());
    }

    #[test]
    fn refactor_replays_pivot_repair() {
        // missing diagonal (1,1) plus a value refresh that zeroes the
        // (0,0) pivot: both repairs must replay exactly as a fresh
        // factorization would perform them
        let build = |d00: f64| {
            let mut b = TripletBuilder::new(3);
            b.push(0, 0, d00);
            b.push(1, 0, 1.0);
            b.push(2, 2, 3.0);
            b.build().unwrap()
        };
        let a1 = build(2.0);
        let a2 = build(0.0);
        let mut f = ilu0(&a1, 1e-4).unwrap();
        ilu0_refactor(&mut f, &a2).unwrap();
        let fresh = ilu0(&a2, 1e-4).unwrap();
        assert_eq!(f.l.values(), fresh.l.values());
        assert_eq!(f.u.values(), fresh.u.values());
        f.l.validate_triangular(Triangle::Lower).unwrap();
        f.u.validate_triangular(Triangle::Upper).unwrap();
    }

    #[test]
    fn refactor_rejects_pattern_drift_untouched() {
        let a = gen::grid_laplacian(8, 8);
        let mut f = ilu0(&a, 1e-8).unwrap();
        let (l_before, u_before) = (f.l.values().to_vec(), f.u.values().to_vec());
        // different dimension and different same-dimension pattern both drift
        for other in [gen::grid_laplacian(8, 7), gen::banded_lower(64, 5, 3.0, 9)] {
            let err = ilu0_refactor(&mut f, &other).unwrap_err();
            assert!(matches!(err, MatrixError::StructureMismatch { .. }), "{err:?}");
            assert!(err.to_string().contains("identical structure"), "{err}");
        }
        assert_eq!(f.l.values(), &l_before[..], "failed refresh must not touch L");
        assert_eq!(f.u.values(), &u_before[..], "failed refresh must not touch U");
    }

    #[test]
    fn ilu0_handles_missing_diagonal() {
        let mut b = TripletBuilder::new(3);
        b.push(0, 0, 2.0);
        b.push(1, 0, 1.0);
        // (1,1) missing
        b.push(2, 2, 3.0);
        let a = b.build().unwrap();
        let f = ilu0(&a, 1e-4).unwrap();
        f.l.validate_triangular(Triangle::Lower).unwrap();
        f.u.validate_triangular(Triangle::Upper).unwrap();
    }
}
