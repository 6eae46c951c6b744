//! Seeded inputs and the correctness oracle.
//!
//! Everything a workload feeds the program is generated here. Sizes
//! are constants (no environment variable changes them), and so are
//! the factors' sparsity patterns ([`STRUCTURE_SEED`]): two draws of
//! one generator differ by ±10 % in solve time, which would drown
//! every metric's run-to-run spread in input variation. The run's
//! seed drives what may vary without changing the work: right-hand
//! sides (and with them PCG's iteration count) and arrival schedules.
//! The oracle has two halves:
//!
//! * an **independent reference** — the harness's own column-oriented
//!   substitution ([`substitute`]), written against nothing but the CSC
//!   arrays. The Krylov path replays exactly this natural order, so
//!   PCG is checked against it bit for bit; the engines' canonical
//!   (level-major) order sums in a different order, so their serial
//!   tier is checked against it to a 1e-9 relative tolerance;
//! * **bit identity** — the serial tier's result bits (one hash per
//!   right-hand side and value epoch), which every warm tier, service
//!   ticket and fleet ticket must then reproduce exactly.

use desim::rng::split_mix64;
use desim::Pcg32;
use mgpu_sim::MachineConfig;
use sparsemat::factor::{ilu0, LuFactors};
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{CscMatrix, Triangle};
use sptrsv::{verify, SolveOptions, SolveWorkspace, SolverEngine, SolverKind};
use std::sync::Arc;

/// Seed of every generated sparsity pattern: a constant of the
/// benchmark, like the sizes below.
pub const STRUCTURE_SEED: u64 = 11;
/// Rows of the heavy factor.
pub const HEAVY_N: usize = 100_000;
/// Level sets of the heavy factor (~500-row levels, 399 barriers).
pub const HEAVY_LEVELS: usize = 200;
/// Target nonzeros of the heavy factor.
pub const HEAVY_NNZ: usize = 400_000;
/// Depth of the light tenant's deep/narrow factor (12k rows).
pub const LIGHT_DEPTH: usize = 2_000;
/// Side of the PCG grid (36 864 unknowns).
pub const GRID_SIDE: usize = 192;
/// Right-hand sides per batch.
pub const BATCH_RHS: usize = 64;
/// Relative tolerance of the serial tier against the reference.
pub const REFERENCE_TOL: f64 = 1e-9;

/// The machine model every engine is built against.
pub fn machine() -> MachineConfig {
    MachineConfig::dgx1(4)
}

/// The solver options every engine is built with.
pub fn solve_options(triangle: Triangle) -> SolveOptions {
    SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        triangle,
        ..SolveOptions::default()
    }
}

/// `k` independent sub-seeds of `seed`.
pub fn sub_seeds<const K: usize>(seed: u64) -> [u64; K] {
    let mut state = seed ^ 0x5EED_BE7C_4A11_0001;
    std::array::from_fn(|_| split_mix64(&mut state))
}

/// FNV-style fold of a vector's bit patterns: equal hashes are the
/// benchmark's "bit for bit" (a 64-bit collision on a wrong result is
/// not a failure mode worth 100 MB of stored reference vectors).
pub fn hash_bits(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3))
}

/// The harness's own substitution: solve `m x = b` column by column in
/// natural order (ascending for lower, descending for upper).
pub fn substitute(m: &CscMatrix, tri: Triangle, b: &[f64]) -> Vec<f64> {
    let n = m.n();
    let (ptr, rows, vals) = (m.col_ptr(), m.row_idx(), m.values());
    let mut x = vec![0.0f64; n];
    let mut acc = vec![0.0f64; n];
    let mut column = |j: usize| {
        let span = ptr[j]..ptr[j + 1];
        let d = span.clone().find(|&k| rows[k] as usize == j).expect("stored diagonal");
        let xj = (b[j] - acc[j]) / vals[d];
        x[j] = xj;
        for k in span.filter(|&k| k != d) {
            acc[rows[k] as usize] += vals[k] * xj;
        }
    };
    match tri {
        Triangle::Lower => (0..n).for_each(&mut column),
        Triangle::Upper => (0..n).rev().for_each(&mut column),
    }
    x
}

/// A triangular factor with two value epochs over one sparsity
/// pattern: `m` and the drifted `m2` a refresh swaps in.
#[derive(Debug, Clone)]
pub struct Factor {
    /// Epoch-0 values.
    pub m: Arc<CscMatrix>,
    /// Epoch-1 values, identical structure.
    pub m2: Arc<CscMatrix>,
    /// Which triangle.
    pub tri: Triangle,
}

impl Factor {
    /// Wrap `m`, deriving the second epoch by a per-entry drift of up
    /// to 6 % (keeps diagonal dominance, changes every solution bit).
    pub fn with_drift(m: CscMatrix, tri: Triangle) -> Factor {
        let mut m2 = m.clone();
        for (i, v) in m2.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + ((i % 7) as f64) * 0.01;
        }
        Factor { m: Arc::new(m), m2: Arc::new(m2), tri }
    }

    /// The heavy factor: 100k rows, 200 levels, ~400k nonzeros.
    pub fn heavy() -> Factor {
        let spec = LevelSpec::new(HEAVY_N, HEAVY_LEVELS, HEAVY_NNZ, STRUCTURE_SEED);
        Factor::with_drift(gen::level_structured(&spec), Triangle::Lower)
    }

    /// The light factor: 2000 levels of ~6 rows (12k rows).
    pub fn light() -> Factor {
        let seed = STRUCTURE_SEED ^ 0xBEEF;
        Factor::with_drift(gen::deep_narrow(LIGHT_DEPTH, 6, 3.2, seed), Triangle::Lower)
    }

    /// The epoch-`e` matrix (`e` taken modulo 2).
    pub fn epoch(&self, e: usize) -> &Arc<CscMatrix> {
        if e.is_multiple_of(2) {
            &self.m
        } else {
            &self.m2
        }
    }
}

/// Right-hand sides with the serial tier's result hash for each value
/// epoch.
#[derive(Debug, Clone)]
pub struct RhsSet {
    /// The right-hand sides.
    pub bs: Vec<Vec<f64>>,
    /// `oracle[e][k]` = [`hash_bits`] of the solution of `bs[k]` under
    /// epoch `e`.
    pub oracle: [Vec<u64>; 2],
}

impl RhsSet {
    /// Generate `count` right-hand sides for `f` and precompute the
    /// oracle on cold-built engines (one per epoch, so the refreshed
    /// engine is later checked against a cold rebuild).
    ///
    /// # Panics
    /// If the serial tier disagrees with the harness's reference by
    /// more than [`REFERENCE_TOL`] — the program is wrong before any
    /// measurement started.
    pub fn generate(f: &Factor, count: usize, seed: u64) -> RhsSet {
        let mut state = seed;
        let bs: Vec<Vec<f64>> =
            (0..count).map(|_| verify::rhs_for(&f.m, split_mix64(&mut state)).1).collect();
        let oracle = [0, 1].map(|e| {
            let m = f.epoch(e);
            let engine = SolverEngine::build(m, machine(), &solve_options(f.tri))
                .expect("oracle engine builds");
            let mut ws = SolveWorkspace::new();
            let mut out = vec![0.0f64; m.n()];
            bs.iter()
                .map(|b| {
                    engine.solve_sharded_into(b, &mut out, &mut ws, 1).expect("oracle solve");
                    let err = verify::rel_inf_diff(&out, &substitute(m, f.tri, b));
                    assert!(
                        err <= REFERENCE_TOL,
                        "serial tier is {err:e} away from the reference substitution"
                    );
                    hash_bits(&out)
                })
                .collect()
        });
        RhsSet { bs, oracle }
    }

    /// Whether `x` is bit-identical to the epoch-`e` solution of
    /// right-hand side `k`.
    pub fn matches(&self, k: usize, e: usize, x: &[f64]) -> bool {
        hash_bits(x) == self.oracle[e % 2][k]
    }

    /// Whether `x` is bit-identical to the solution of right-hand
    /// side `k` under exactly one of the two epochs.
    pub fn matches_either(&self, k: usize, x: &[f64]) -> bool {
        let h = hash_bits(x);
        (h == self.oracle[0][k]) != (h == self.oracle[1][k])
    }
}

/// The preconditioner the PCG oracle runs on: the harness's own
/// substitution over the ILU(0) factors.
#[derive(Debug)]
pub struct ReferencePreconditioner<'f>(pub &'f LuFactors);

impl sptrsv::Precondition for ReferencePreconditioner<'_> {
    fn dim(&self) -> usize {
        self.0.l.n()
    }

    fn precondition_into(&self, r: &[f64], z: &mut [f64]) -> Result<(), sptrsv::SolveError> {
        let y = substitute(&self.0.l, Triangle::Lower, r);
        z.copy_from_slice(&substitute(&self.0.u, Triangle::Upper, &y));
        Ok(())
    }
}

/// Inputs of the `pcg_grid` workload with their oracle.
#[derive(Debug)]
pub struct PcgInputs {
    /// The SPD operator: a 5-point Laplacian on a square grid.
    pub a: CscMatrix,
    /// Its ILU(0) factors.
    pub factors: LuFactors,
    /// The right-hand side `A · x_true`, `x_true` uniform in [-1, 1].
    pub b: Vec<f64>,
    /// Iterations the reference PCG needed.
    pub iterations: usize,
    /// Final relative residual of the reference PCG.
    pub final_rel_residual: f64,
    /// [`hash_bits`] of the reference PCG's iterate.
    pub x_hash: u64,
}

/// Krylov options of the `pcg_grid` workload.
pub fn krylov_options() -> sptrsv::KrylovOptions {
    sptrsv::KrylovOptions { max_iterations: 500, rel_tol: 1e-8 }
}

impl PcgInputs {
    /// Build the grid problem and run the reference PCG (the program's
    /// driver over the harness's preconditioner) once.
    ///
    /// # Panics
    /// If the reference PCG does not converge.
    pub fn generate(side: usize, seed: u64) -> PcgInputs {
        let a = gen::grid_laplacian(side, side);
        let factors = ilu0(&a, 1e-8).expect("ilu0 of a grid laplacian");
        let mut rng = Pcg32::seed_from_u64(seed);
        let x_true: Vec<f64> = (0..a.n()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let b = a.matvec(&x_true);
        let rep = sptrsv::pcg(&a, &b, &ReferencePreconditioner(&factors), &krylov_options())
            .expect("reference pcg");
        assert!(rep.converged, "reference PCG must converge");
        let err = verify::rel_inf_diff(&rep.x, &x_true);
        assert!(err <= 1e-5, "reference PCG solution is {err:e} away from x_true");
        PcgInputs {
            iterations: rep.iterations,
            final_rel_residual: rep.final_rel_residual(),
            x_hash: hash_bits(&rep.x),
            a,
            factors,
            b,
        }
    }

    /// Whether a PCG report reproduces the reference: converged, the
    /// exact iteration count, the iterate bit for bit.
    pub fn matches(&self, rep: &sptrsv::KrylovReport) -> bool {
        rep.converged && rep.iterations == self.iterations && hash_bits(&rep.x) == self.x_hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitute_agrees_with_the_repository_reference_bit_for_bit() {
        let l = gen::banded_lower(300, 6, 3.0, 5);
        let (_, b) = verify::rhs_for(&l, 9);
        let want = sptrsv::reference::solve_lower(&l, &b).unwrap();
        assert_eq!(hash_bits(&substitute(&l, Triangle::Lower, &b)), hash_bits(&want));
        let u = l.transpose();
        let want = sptrsv::reference::solve_upper(&u, &b).unwrap();
        assert_eq!(hash_bits(&substitute(&u, Triangle::Upper, &b)), hash_bits(&want));
    }

    #[test]
    fn oracle_separates_epochs_and_is_seed_stable() {
        let f = Factor::with_drift(gen::banded_lower(400, 5, 3.0, 2), Triangle::Lower);
        let a = RhsSet::generate(&f, 3, 77);
        let b = RhsSet::generate(&f, 3, 77);
        assert_eq!(a.oracle, b.oracle);
        assert_ne!(a.oracle[0], a.oracle[1], "the drift must change the solution bits");
        let engine = SolverEngine::build(&f.m2, machine(), &solve_options(f.tri)).unwrap();
        let x = engine.solve(&a.bs[1]).unwrap().x;
        assert!(a.matches(1, 1, &x) && !a.matches(1, 0, &x) && a.matches_either(1, &x));
        assert!(!a.matches_either(1, &vec![0.0; 400]));
        assert_ne!(RhsSet::generate(&f, 3, 78).oracle, a.oracle);
    }

    #[test]
    fn pcg_oracle_matches_the_engine_pair() {
        let inp = PcgInputs::generate(24, 3);
        let pre = sptrsv::PreconditionerEngine::from_ilu0(
            &inp.factors,
            machine(),
            &solve_options(Triangle::Lower),
        )
        .unwrap();
        let rep = sptrsv::pcg(&inp.a, &inp.b, &pre, &krylov_options()).unwrap();
        assert!(inp.matches(&rep), "engine pair must replay the reference trajectory");
        assert!(inp.iterations > 5 && inp.final_rel_residual <= 1e-8);
    }

    #[test]
    fn sub_seeds_differ() {
        let [a, b, c] = sub_seeds::<3>(11);
        assert!(a != b && b != c && a != c);
        assert_eq!(sub_seeds::<3>(11), [a, b, c]);
    }
}
