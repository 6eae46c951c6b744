//! Compressed sparse column storage.
//!
//! CSC is the format the paper's algorithms consume (§II-A): column `j`
//! of a lower-triangular `L` lists, in ascending row order, the
//! diagonal `l_jj` followed by the entries `l_ij (i > j)` that component
//! `x_j` must update. Algorithms 2 and 3 both rely on
//! `val[col_ptr[j]]` being the diagonal, which the sorted-rows
//! invariant guarantees.

use crate::error::MatrixError;
use crate::{Idx, Triangle};

/// A validated compressed-sparse-column matrix over `f64`.
///
/// Invariants (checked by [`CscMatrix::try_new`] / [`CscMatrix::validate`]):
/// * `col_ptr.len() == n + 1`, `col_ptr\[0\] == 0`, non-decreasing,
///   `col_ptr[n] == row_idx.len() == values.len()`;
/// * within each column, row indices are strictly increasing (sorted,
///   no duplicates) and `< n`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<Idx>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from raw parts, validating every invariant.
    pub fn try_new(
        n: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Idx>,
        values: Vec<f64>,
    ) -> Result<Self, MatrixError> {
        let m = CscMatrix { n, col_ptr, row_idx, values };
        m.validate()?;
        Ok(m)
    }

    /// Build from raw parts without validation.
    ///
    /// Intended for generators that construct invariant-respecting data
    /// by design; debug builds still verify.
    pub fn from_parts_unchecked(
        n: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Idx>,
        values: Vec<f64>,
    ) -> Self {
        let m = CscMatrix { n, col_ptr, row_idx, values };
        debug_assert!(m.validate().is_ok(), "from_parts_unchecked violated invariants");
        m
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n as Idx).collect(),
            values: vec![1.0; n],
        }
    }

    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), MatrixError> {
        if self.col_ptr.len() != self.n + 1 {
            return Err(MatrixError::MalformedPointers(format!(
                "col_ptr len {} != n+1 = {}",
                self.col_ptr.len(),
                self.n + 1
            )));
        }
        if self.col_ptr[0] != 0 {
            return Err(MatrixError::MalformedPointers("col_ptr[0] != 0".into()));
        }
        if *self.col_ptr.last().unwrap() != self.row_idx.len()
            || self.row_idx.len() != self.values.len()
        {
            return Err(MatrixError::MalformedPointers(format!(
                "col_ptr end {} vs row_idx {} vs values {}",
                self.col_ptr.last().unwrap(),
                self.row_idx.len(),
                self.values.len()
            )));
        }
        for j in 0..self.n {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            if lo > hi {
                return Err(MatrixError::MalformedPointers(format!(
                    "col_ptr decreases at column {j}"
                )));
            }
            let mut prev: Option<Idx> = None;
            for &r in &self.row_idx[lo..hi] {
                if r as usize >= self.n {
                    return Err(MatrixError::IndexOutOfBounds {
                        row: r as usize,
                        col: j,
                        n: self.n,
                    });
                }
                if let Some(p) = prev {
                    if r <= p {
                        return Err(MatrixError::UnsortedIndices { outer: j });
                    }
                }
                prev = Some(r);
            }
        }
        Ok(())
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The column pointer array (`n + 1` entries).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column-major.
    #[inline]
    pub fn row_idx(&self) -> &[Idx] {
        &self.row_idx
    }

    /// Stored values, column-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to values (structure stays fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Iterate `(row, value)` pairs of column `j` in ascending row order.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (Idx, f64)> + '_ {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        self.row_idx[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&r, &v)| (r, v))
    }

    /// Value at `(row, col)`, or `None` when not stored. O(log nnz_col).
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        let seg = &self.row_idx[lo..hi];
        seg.binary_search(&(row as Idx)).ok().map(|k| self.values[lo + k])
    }

    /// True when every stored entry satisfies `row >= col`.
    pub fn is_lower_triangular(&self) -> bool {
        (0..self.n).all(|j| self.col(j).all(|(r, _)| r as usize >= j))
    }

    /// True when every stored entry satisfies `row <= col`.
    pub fn is_upper_triangular(&self) -> bool {
        (0..self.n).all(|j| self.col(j).all(|(r, _)| r as usize <= j))
    }

    /// Verify this matrix is a valid *solvable* triangular factor:
    /// correct triangle, full nonzero diagonal.
    ///
    /// O(n): rows ascend strictly within a column, so its first (lower)
    /// or last (upper) row is the only one that can lie on the wrong
    /// side of the diagonal, and the only place the diagonal can sit.
    pub fn validate_triangular(&self, tri: Triangle) -> Result<(), MatrixError> {
        for j in 0..self.n {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            if lo == hi {
                return Err(MatrixError::MissingDiagonal(j));
            }
            let pos = match tri {
                Triangle::Lower => lo,
                Triangle::Upper => hi - 1,
            };
            let row = self.row_idx[pos] as usize;
            let wrong_side = match tri {
                Triangle::Lower => row < j,
                Triangle::Upper => row > j,
            };
            if wrong_side {
                return Err(MatrixError::NotTriangular { expected: tri.name(), row, col: j });
            }
            if row != j {
                return Err(MatrixError::MissingDiagonal(j));
            }
            if self.values[pos] == 0.0 {
                return Err(MatrixError::ZeroDiagonal(j));
            }
        }
        Ok(())
    }

    /// Diagonal entries as a dense vector (0.0 where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for j in 0..self.n {
            if let Some(v) = self.get(j, j) {
                d[j] = v;
            }
        }
        d
    }

    /// `y = A x` (dense vector in/out).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// Allocation-free `y = A x`: scatter each column's entries into the
    /// caller's output buffer. This is the SpMV kernel the Krylov
    /// recurrences call every iteration, so it must not touch the heap.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(y.len(), self.n, "output length mismatch");
        y.fill(0.0);
        for j in 0..self.n {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            for k in lo..hi {
                y[self.row_idx[k] as usize] += self.values[k] * xj;
            }
        }
    }

    /// Transpose (also CSC↔CSR conversion workhorse). O(n + nnz).
    pub fn transpose(&self) -> CscMatrix {
        let n = self.n;
        let nnz = self.nnz();
        let mut counts = vec![0usize; n + 1];
        for &r in &self.row_idx {
            counts[r as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let col_ptr = counts.clone();
        let mut next = counts;
        let mut row_idx = vec![0 as Idx; nnz];
        let mut values = vec![0.0; nnz];
        for j in 0..n {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_idx[k] as usize;
                let dst = next[r];
                next[r] += 1;
                row_idx[dst] = j as Idx;
                values[dst] = self.values[k];
            }
        }
        // Columns of the transpose are filled in ascending original-column
        // order, so they are already sorted.
        CscMatrix { n, col_ptr, row_idx, values }
    }

    /// Extract the requested triangle *including* the diagonal. Missing
    /// diagonal entries are inserted with value `diag_fill` so the
    /// result is always a solvable factor (the "tril(A)" trick common in
    /// SpTRSV studies when no factorization is available).
    pub fn triangular_part(&self, tri: Triangle, diag_fill: f64) -> CscMatrix {
        let n = self.n;
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..n {
            let mut saw_diag = false;
            let keep = |r: usize| match tri {
                Triangle::Lower => r >= j,
                Triangle::Upper => r <= j,
            };
            // For Upper we may need to inject the diagonal after all r < j.
            let mut pending: Vec<(Idx, f64)> = Vec::new();
            for (r, v) in self.col(j) {
                let r_us = r as usize;
                if keep(r_us) {
                    if r_us == j {
                        saw_diag = true;
                        pending.push((r, if v == 0.0 { diag_fill } else { v }));
                    } else {
                        pending.push((r, v));
                    }
                }
            }
            if !saw_diag {
                pending.push((j as Idx, diag_fill));
                pending.sort_unstable_by_key(|&(r, _)| r);
            }
            for (r, v) in pending {
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix { n, col_ptr, row_idx, values }
    }

    /// In-degree of every component for a given triangle: the number of
    /// *off-diagonal* stored entries in each row. This is the quantity
    /// the synchronization-free algorithms pre-compute (Alg. 2 lines
    /// 6–9, Alg. 3 lines 13–15).
    pub fn in_degrees(&self, tri: Triangle) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        for j in 0..self.n {
            for (r, _) in self.col(j) {
                let r = r as usize;
                let off_diag = match tri {
                    Triangle::Lower => r > j,
                    Triangle::Upper => r < j,
                };
                if off_diag {
                    deg[r] += 1;
                }
            }
        }
        deg
    }

    /// Bytes needed to store this matrix in device memory (CSC arrays
    /// only), used by the simulator's capacity accounting.
    pub fn device_bytes(&self) -> u64 {
        (self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * std::mem::size_of::<Idx>()
            + self.values.len() * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8×8 lower-triangular example of Fig. 1a (pattern only; values
    /// chosen arbitrarily nonzero). Columns list diag + dependents;
    /// reproduces Fig. 1b's level sets {0},{1,3,5},{2,4},{6},{7}.
    pub fn fig1_matrix() -> CscMatrix {
        let cols: Vec<Vec<u32>> = vec![
            vec![0, 1, 3, 5, 7],
            vec![1, 2],
            vec![2],
            vec![3, 4, 7],
            vec![4, 6, 7],
            vec![5, 6],
            vec![6, 7],
            vec![7],
        ];
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for c in &cols {
            for &r in c {
                row_idx.push(r);
                values.push(1.0 + r as f64);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix::try_new(8, col_ptr, row_idx, values).unwrap()
    }

    #[test]
    fn identity_roundtrips() {
        let i = CscMatrix::identity(4);
        assert_eq!(i.n(), 4);
        assert_eq!(i.nnz(), 4);
        assert!(i.is_lower_triangular());
        assert!(i.is_upper_triangular());
        assert_eq!(i.get(2, 2), Some(1.0));
        assert_eq!(i.get(1, 2), None);
        i.validate_triangular(Triangle::Lower).unwrap();
    }

    #[test]
    fn fig1_structure() {
        let m = fig1_matrix();
        assert_eq!(m.n(), 8);
        assert_eq!(m.nnz(), 19);
        assert!(m.is_lower_triangular());
        assert!(!m.is_upper_triangular());
        m.validate_triangular(Triangle::Lower).unwrap();
        // x7's column dependencies include x0, x3 and x4 (§II-A)
        let deg = m.in_degrees(Triangle::Lower);
        assert_eq!(deg[7], 4);
        assert_eq!(deg[0], 0);
        assert_eq!(deg[4], 1); // from col 3
    }

    #[test]
    fn validation_catches_unsorted() {
        let e = CscMatrix::try_new(2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::UnsortedIndices { outer: 0 })));
    }

    #[test]
    fn validation_catches_duplicates() {
        let e = CscMatrix::try_new(2, vec![0, 2, 2], vec![0, 0], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::UnsortedIndices { outer: 0 })));
    }

    #[test]
    fn validation_catches_out_of_bounds() {
        let e = CscMatrix::try_new(2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn validation_catches_bad_pointers() {
        let e = CscMatrix::try_new(2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::MalformedPointers(_))));
        let e = CscMatrix::try_new(2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::MalformedPointers(_))));
    }

    #[test]
    fn triangular_validation_catches_zero_diag() {
        let m = CscMatrix::try_new(2, vec![0, 1, 2], vec![0, 1], vec![0.0, 1.0]).unwrap();
        assert!(matches!(
            m.validate_triangular(Triangle::Lower),
            Err(MatrixError::ZeroDiagonal(0))
        ));
    }

    #[test]
    fn triangular_validation_catches_missing_diag() {
        let m = CscMatrix::try_new(2, vec![0, 1, 2], vec![1, 1], vec![3.0, 1.0]).unwrap();
        assert!(matches!(
            m.validate_triangular(Triangle::Lower),
            Err(MatrixError::MissingDiagonal(0))
        ));
    }

    #[test]
    fn triangular_validation_reports_the_wrong_triangle() {
        // entries (0,0), (0,1), (1,1): upper, so wrong for `L` at (0,1)
        let u = CscMatrix::try_new(2, vec![0, 1, 3], vec![0, 0, 1], vec![2.0, 1.0, 3.0]).unwrap();
        assert!(matches!(
            u.validate_triangular(Triangle::Lower),
            Err(MatrixError::NotTriangular { expected: "lower", row: 0, col: 1 })
        ));
        // its transpose, (0,0), (1,0), (1,1), is wrong for `U` at (1,0)
        let l = u.transpose();
        assert!(matches!(
            l.validate_triangular(Triangle::Upper),
            Err(MatrixError::NotTriangular { expected: "upper", row: 1, col: 0 })
        ));
    }

    #[test]
    fn matvec_against_dense() {
        let m = fig1_matrix();
        let x: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let y = m.matvec(&x);
        // dense check
        let mut expect = vec![0.0; 8];
        for j in 0..8 {
            for (r, v) in m.col(j) {
                expect[r as usize] += v * x[j];
            }
        }
        assert_eq!(y, expect);
    }

    #[test]
    fn transpose_involution() {
        let m = fig1_matrix();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_flips_triangle() {
        let m = fig1_matrix();
        let t = m.transpose();
        assert!(t.is_upper_triangular());
        t.validate_triangular(Triangle::Upper).unwrap();
        assert_eq!(m.get(7, 0), t.get(0, 7));
    }

    #[test]
    fn triangular_part_extracts_and_fills() {
        // General 3x3 with empty diagonal at (1,1)
        let mut b = crate::build::TripletBuilder::new(3);
        b.push(0, 0, 2.0);
        b.push(2, 0, -1.0);
        b.push(0, 1, 5.0); // upper entry, dropped for Lower
        b.push(2, 1, 4.0);
        b.push(2, 2, 3.0);
        let a = b.build().unwrap();
        let l = a.triangular_part(Triangle::Lower, 1.0);
        l.validate_triangular(Triangle::Lower).unwrap();
        assert_eq!(l.get(1, 1), Some(1.0), "diag filled");
        assert_eq!(l.get(0, 1), None, "upper entry dropped");
        assert_eq!(l.get(2, 1), Some(4.0));
        let u = a.triangular_part(Triangle::Upper, 1.0);
        u.validate_triangular(Triangle::Upper).unwrap();
        assert_eq!(u.get(0, 1), Some(5.0));
        assert_eq!(u.get(2, 1), None);
    }

    #[test]
    fn device_bytes_accounting() {
        let m = CscMatrix::identity(10);
        let expect = 11 * 8 + 10 * 4 + 10 * 8;
        assert_eq!(m.device_bytes(), expect as u64);
    }
}
