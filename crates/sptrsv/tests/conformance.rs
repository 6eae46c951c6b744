//! The numeric core's bit-identity contract, as one table.
//!
//! The warm kernel is a row gather over a factor relabelled into an
//! execution order ([`sptrsv::exec::NumericFactor`]), every row filled
//! in Algorithm 1's operand order. The contract is that, in every
//! order, it returns exactly the bits of Algorithm 1's column scatter
//! ([`sptrsv::reference`]). Three anchors prove it:
//!
//! * **golden bits** — solution hashes recorded from the column-scatter
//!   kernel before the gather existed, and equal to the reference's, so
//!   the kernel is proved to reproduce independent bits, not merely to
//!   agree with itself;
//! * **the scatter oracle** — [`sptrsv::reference::solve_serial`],
//!   compared bit for bit against every tier × lane width ×
//!   {cold, refreshed} × {canonical, serial kind} cell;
//! * **adversarial rows** — signed zeros, empty rows, `n ∈ {0, 1}`,
//!   narrow levels, single-chain factors.
//!
//! New warm paths add a row to [`every_tier`], not a file — the
//! coalescing service is one such row, and [`fleet_routed`] holds the
//! fleet (which builds its own engine from the registered factor) to
//! the same oracle, cold and refreshed.

use mgpu_sim::MachineConfig;
use sparsemat::gen::{self, LevelSpec};
use sparsemat::{corpus, CscMatrix, Triangle, TripletBuilder};
use sptrsv::{
    reference, serve_solver, verify, EngineFleet, FleetConfig, PreconditionerEngine, ServiceConfig,
    SolveError, SolveOptions, SolveWorkspace, SolverEngine, SolverKind,
};
use std::sync::Arc;

const CANONICAL: SolverKind = SolverKind::ZeroCopy { per_gpu: 8 };
const GPUS: usize = 4;

fn opts(kind: SolverKind, tri: Triangle) -> SolveOptions {
    SolveOptions { kind, triangle: tri, verify: false, ..SolveOptions::default() }
}

/// FNV-1a over the little-endian bit patterns.
fn hash_bits(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The oracle: Algorithm 1, the serial column scatter.
fn oracle(m: &CscMatrix, tri: Triangle, b: &[f64]) -> Vec<f64> {
    reference::solve_serial(m, b, tri).unwrap()
}

/// Same structure, every value moved.
fn perturbed(m: &CscMatrix) -> CscMatrix {
    let mut t = m.clone();
    for (i, v) in t.values_mut().iter_mut().enumerate() {
        *v *= 1.0 + ((i % 7) as f64 + 1.0) * 0.01;
    }
    t
}

/// Every single-engine warm path, each compared bit for bit against
/// the oracle's solutions `want[k]` of `bs[k]`: scalar (allocating and
/// not, repeated), K ∈ {1, 2, 4, 8} lanes plus the ragged
/// 13 = 8 + 4 + 1, the pooled batch, and all of `bs` at once through a
/// coalescing [`sptrsv::SolverService`] (panels of 8 + 5).
fn every_tier(engine: &SolverEngine<'_>, bs: &[Vec<f64>], want: &[Vec<f64>], cell: &str) {
    let n = engine.matrix().n();
    let mut ws = SolveWorkspace::new();
    let mut out = vec![f64::NAN; n];
    for round in 0..8 {
        assert_eq!(bits(&engine.solve(&bs[0]).unwrap().x), bits(&want[0]), "{cell} solve #{round}");
        out.fill(f64::NAN); // stale output must be fully overwritten
        engine.solve_into(&bs[0], &mut out, &mut ws).unwrap();
        assert_eq!(bits(&out), bits(&want[0]), "{cell} solve_into #{round}");
    }
    for lanes in [1usize, 2, 4, 8, 13] {
        let mut outs = vec![Vec::new(); lanes];
        engine.solve_panel_into(&bs[..lanes], &mut outs, &mut ws).unwrap();
        for k in 0..lanes {
            assert_eq!(bits(&outs[k]), bits(&want[k]), "{cell} panel of {lanes}, lane {k}");
        }
    }
    let mut outs = vec![Vec::new(); bs.len()];
    engine.solve_batch_into(bs, &mut outs).unwrap();
    for k in 0..bs.len() {
        assert_eq!(bits(&outs[k]), bits(&want[k]), "{cell} batch lane {k}");
    }
    let (served, _) = serve_solver(engine, &ServiceConfig::default(), |svc| {
        let tickets: Vec<_> = bs.iter().map(|b| svc.submit(b).unwrap()).collect();
        tickets.into_iter().map(|t| t.wait().unwrap()).collect::<Vec<_>>()
    })
    .unwrap();
    for k in 0..bs.len() {
        assert_eq!(bits(&served[k]), bits(&want[k]), "{cell} served lane {k}");
    }
}

/// The fleet-routed path: `EngineFleet::submit` enqueues every `bs[k]`
/// into the tenant's queue (the first while the engine still builds),
/// cold against `m` and again after `refresh_tenant` swapped in `m2` —
/// each result bit for bit the oracle's.
fn fleet_routed((m, m2): (&CscMatrix, &CscMatrix), o: &SolveOptions, bs: &[Vec<f64>], cell: &str) {
    let fleet = EngineFleet::new(FleetConfig {
        machine: MachineConfig::dgx1(GPUS),
        solve: o.clone(),
        ..FleetConfig::default()
    })
    .unwrap();
    let fp = fleet.register(Arc::new(m.clone()));
    for (epoch, values) in [("cold", m), ("refreshed", m2)] {
        if epoch != "cold" {
            fleet.refresh_tenant(fp, Arc::new(values.clone())).unwrap();
        }
        let tickets: Vec<_> = bs.iter().map(|b| fleet.submit(fp, b).unwrap()).collect();
        for (k, t) in tickets.into_iter().enumerate() {
            let want = oracle(values, o.triangle, &bs[k]);
            assert_eq!(
                bits(&t.wait().unwrap()),
                bits(&want),
                "{cell} fleet-routed/{epoch} lane {k}"
            );
        }
    }
}

/// Golden bits recorded from the column-scatter kernel before the
/// gather existed: `hash_bits` of the solution of `rhs_for(m, 0x601D)`
/// in natural substitution order — Algorithm 1's bits, which every
/// engine kind must now return.
const GOLDEN: &[(&str, Triangle, u64)] = &[
    ("powersim", Triangle::Lower, 0xa517973193e1135a),
    ("powersim", Triangle::Upper, 0x7552472e74b142eb),
    ("chipcool0", Triangle::Lower, 0x0d4017a32d32e5fb),
    ("chipcool0", Triangle::Upper, 0x27eb9f111716058c),
    ("deep-chain", Triangle::Lower, 0x1e18facb9037578b),
    ("deep-chain", Triangle::Upper, 0xe73015c4f377c009),
];

fn corpus_factor(name: &str, tri: Triangle) -> CscMatrix {
    let lower = match name {
        corpus::DEEP_NARROW_NAME => corpus::deep_narrow_entry().matrix,
        _ => corpus::by_name(name).expect("corpus entry").matrix,
    };
    match tri {
        Triangle::Lower => lower,
        Triangle::Upper => lower.transpose(),
    }
}

#[test]
fn gather_kernel_reproduces_the_parent_commits_bits() {
    for &(name, tri, golden) in GOLDEN {
        let m = corpus_factor(name, tri);
        let (_, b) = verify::rhs_for(&m, 0x601D);
        assert_eq!(hash_bits(&oracle(&m, tri, &b)), golden, "{name}/{tri:?} reference");
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0f64; m.n()];
        for kind in [CANONICAL, SolverKind::Serial] {
            let engine =
                SolverEngine::build(&m, MachineConfig::dgx1(GPUS), &opts(kind, tri)).unwrap();
            engine.solve_into(&b, &mut x, &mut ws).unwrap();
            assert_eq!(hash_bits(&x), golden, "{name}/{tri:?}/{kind:?}: {:#018x}", hash_bits(&x));
        }
    }
}

/// The table: factors × triangles × {cold, refreshed} × {canonical,
/// serial kind} × every tier, all against the scatter oracle.
#[test]
fn every_tier_matches_the_scatter_oracle_bit_for_bit() {
    let factors = [
        // wide levels
        ("wide", gen::level_structured(&LevelSpec::new(2400, 6, 9600, 0xA1))),
        // mixed: fused chains between wide levels
        ("mixed", gen::level_structured(&LevelSpec::new(1800, 40, 7200, 0xB2))),
        // deep and narrow: fuses into very few chains
        ("deep", gen::deep_narrow(300, 5, 3.0, 0xC3)),
    ];
    for (name, lower) in &factors {
        let upper = lower.transpose();
        for (m, tri) in [(lower, Triangle::Lower), (&upper, Triangle::Upper)] {
            let m2 = perturbed(m);
            let bs: Vec<Vec<f64>> = (0..13u64).map(|k| verify::rhs_for(m, 0x5EED + k).1).collect();
            for kind in [CANONICAL, SolverKind::Serial] {
                let o = opts(kind, tri);
                let engine = SolverEngine::build(m, MachineConfig::dgx1(GPUS), &o).unwrap();
                for (epoch, values) in [("cold", m), ("refreshed", &m2), ("restored", m)] {
                    if epoch != "cold" {
                        engine.refresh_values(values).unwrap();
                    }
                    let want: Vec<Vec<f64>> = bs.iter().map(|b| oracle(values, tri, b)).collect();
                    every_tier(&engine, &bs, &want, &format!("{name}/{tri:?}/{kind:?}/{epoch}"));
                }
                fleet_routed((m, &m2), &o, &bs, &format!("{name}/{tri:?}/{kind:?}"));
            }
        }
    }
}

/// `solve_sharded_into` is `solve_into` under its historical name,
/// kept for the layered benchmark (which calls it with `w = 1`): every
/// worker count returns the same bits on both engine kinds and both
/// triangles, and bad inputs are the same typed errors.
#[test]
fn sharded_shim_returns_solve_intos_bits() {
    let lower = gen::level_structured(&LevelSpec::new(2400, 6, 9600, 0xA1));
    let upper = lower.transpose();
    for (m, tri) in [(&lower, Triangle::Lower), (&upper, Triangle::Upper)] {
        let (_, b) = verify::rhs_for(m, 0x5111);
        let want = bits(&oracle(m, tri, &b));
        for kind in [CANONICAL, SolverKind::Serial] {
            let cell = format!("{tri:?}/{kind:?}");
            let o = opts(kind, tri);
            let engine = SolverEngine::build(m, MachineConfig::dgx1(GPUS), &o).unwrap();
            let mut ws = SolveWorkspace::new();
            let mut x = vec![f64::NAN; m.n()];
            engine.solve_into(&b, &mut x, &mut ws).unwrap();
            assert_eq!(bits(&x), want, "{cell} solve_into");
            for workers in [0usize, 1, 2, 16] {
                x.fill(f64::NAN);
                engine.solve_sharded_into(&b, &mut x, &mut ws, workers).unwrap();
                assert_eq!(bits(&x), want, "{cell} workers={workers}");
            }
            let short_rhs = engine.solve_sharded_into(&[1.0, 2.0], &mut x, &mut ws, 2);
            assert_eq!(short_rhs, engine.solve_into(&[1.0, 2.0], &mut x, &mut ws), "{cell}");
            assert!(matches!(short_rhs, Err(SolveError::DimensionMismatch { rhs: 2, .. })));
            let short_out = engine.solve_sharded_into(&b, &mut [0.0; 3], &mut ws, 2);
            assert!(matches!(short_out, Err(SolveError::OutputLength { out: 3, .. })), "{cell}");
        }
    }
}

/// The Krylov consumer sweeps the engines' own factors: `apply_into` /
/// `apply_batch_into` on either engine kind equal the reference pair,
/// cold and refreshed.
#[test]
fn preconditioner_pair_matches_the_reference_pair() {
    let a = gen::grid_laplacian(14, 11);
    let f = sparsemat::factor::ilu0(&a, 1e-8).unwrap();
    let mut f2 = f.clone();
    (f2.l, f2.u) = (perturbed(&f.l), perturbed(&f.u));
    let n = a.n();
    let rs: Vec<Vec<f64>> = (0..13u64).map(|k| verify::rhs_for(&a, 0xFEED + k).1).collect();
    for kind in [CANONICAL, SolverKind::Serial] {
        let pre = PreconditionerEngine::from_ilu0(
            &f,
            MachineConfig::dgx1(GPUS),
            &opts(kind, Triangle::Lower),
        )
        .unwrap();
        for (epoch, lu) in [("cold", &f), ("refreshed", &f2)] {
            if epoch != "cold" {
                pre.refresh(lu).unwrap();
            }
            let want: Vec<Vec<f64>> = rs
                .iter()
                .map(|r| reference::solve_upper(&lu.u, &reference::solve_lower(&lu.l, r).unwrap()))
                .collect::<Result<_, _>>()
                .unwrap();
            let mut ws = pre.take_apply_workspace();
            let mut z = vec![f64::NAN; n];
            pre.apply_into(&rs[0], &mut z, &mut ws).unwrap();
            assert_eq!(bits(&z), bits(&want[0]), "{kind:?}/{epoch} apply_into");
            for lanes in [1usize, 2, 4, 8, 13] {
                let mut zs = vec![Vec::new(); lanes];
                pre.apply_batch_into(&rs[..lanes], &mut zs, &mut ws).unwrap();
                for k in 0..lanes {
                    assert_eq!(bits(&zs[k]), bits(&want[k]), "{kind:?}/{epoch} batch {lanes}/{k}");
                }
            }
        }
    }
}

/// A lower-triangular matrix from `(row, col, value)` off-diagonals
/// over a unit diagonal.
fn lower_from(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, i, 1.0);
    }
    for &(r, c, v) in entries {
        b.push(r, c, v);
    }
    b.build().unwrap()
}

/// Adversarial shapes and values, each through every tier of both
/// engine kinds (unfused, so every level is its own chain).
#[test]
fn adversarial_rows_keep_every_bit() {
    // a 40-wide level 0 feeding a 5-wide level 1 feeding one row;
    // rows 40.. have updates, rows 0..40 are empty
    let mut narrow = Vec::new();
    for r in 40..45 {
        for c in 0..40 {
            if (r + c) % 3 == 0 {
                narrow.push((r, c, -0.25 - c as f64 * 0.01));
            }
        }
    }
    for c in 40..45 {
        narrow.push((45, c, 0.5));
    }
    let cases: Vec<(&str, CscMatrix)> = vec![
        ("n=0", TripletBuilder::new(0).build().unwrap()),
        ("n=1", lower_from(1, &[])),
        ("diagonal (all rows empty, one wide level)", gen::diagonal(70, 3)),
        ("single chain", gen::chain(33)),
        ("narrow levels", lower_from(46, &narrow)),
        // x0 = 0 makes every product in column 0 a signed zero
        ("signed zeros", lower_from(4, &[(1, 0, -1.0), (2, 0, 1.0), (3, 0, -2.0), (3, 1, 0.0)])),
    ];
    for (name, lower) in &cases {
        let upper = lower.transpose();
        for (m, tri) in [(lower, Triangle::Lower), (&upper, Triangle::Upper)] {
            let n = m.n();
            // right-hand sides of signed zeros: `b − acc` keeps `−0.0`
            // only if `acc` started at `+0.0`, not at the first product
            let bs: Vec<Vec<f64>> = (0..13usize)
                .map(|k| (0..n).map(|i| [0.0, -0.0, 1.0][(i * 5 + k) % 3]).collect())
                .collect();
            for kind in [CANONICAL, SolverKind::Serial] {
                let o = SolveOptions { chain_width_threshold: 0, ..opts(kind, tri) };
                let engine = SolverEngine::build(m, MachineConfig::dgx1(GPUS), &o).unwrap();
                let want: Vec<Vec<f64>> = bs.iter().map(|b| oracle(m, tri, b)).collect();
                every_tier(&engine, &bs, &want, &format!("{name}/{tri:?}/{kind:?}"));
            }
        }
    }
    // the pin itself, spelled out: row 1 of "signed zeros" gathers
    // `−1.0 · (+0.0) = −0.0` into `acc`, and `b₁ = −0.0`
    let m = &cases[5].1;
    let engine =
        SolverEngine::build(m, MachineConfig::dgx1(GPUS), &opts(CANONICAL, Triangle::Lower))
            .unwrap();
    let x = engine.solve(&[0.0, -0.0, 0.0, 0.0]).unwrap().x;
    assert_eq!(x[1].to_bits(), (-0.0f64).to_bits(), "−0.0 − (0.0 + −0.0) must stay −0.0");
}

/// The relabelled layout is leaner than the one it replaced: the
/// column-scatter engine held the matrix-order analysis (12 B/nnz) plus
/// the sharded bucket copy (20 B/nnz); now one canonical factor of
/// 16 B/nnz, whether or not the engine verifies, plus 8 B/nnz of spare
/// values once a refresh has run. The schedule adds nothing: the
/// layout keeps its stats, and its order lives on only as `pos`.
#[test]
fn footprint_counts_exactly_the_arrays_that_exist() {
    // heavy-shaped: wide levels, ~4 nonzeros per row
    let m = gen::level_structured(&LevelSpec::new(20_000, 40, 80_000, 0xF00D));
    let (n, nnz) = (m.n() as u64, m.nnz() as u64);
    let o = opts(CANONICAL, Triangle::Lower);
    // cols + vals + from per off-diagonal entry, pos + ptr + diag per row
    let factor = 16 * nnz + 4;
    let workspace = |verify: u64| n * 8 * (sptrsv::exec::PANEL_K as u64 + verify);

    let engine = SolverEngine::build(&m, MachineConfig::dgx1(GPUS), &o).unwrap();
    assert_eq!(engine.footprint_bytes(), factor + workspace(0));
    assert!(factor < (12 + 20) * nnz, "leaner than the parent's analysis + buckets");
    // a refresh allocates the spare epoch it gathers into: one more
    // set of values (vals + diag, 8 B per stored entry), nothing else
    engine.refresh_values(&m).unwrap();
    assert_eq!(engine.footprint_bytes(), factor + 8 * nnz + workspace(0));

    // a verifying engine sweeps the same factor with the serial tier:
    // only the workspace's reference vector is added
    let vo = SolveOptions { verify: true, ..o };
    let verifying = SolverEngine::build(&m, MachineConfig::dgx1(GPUS), &vo).unwrap();
    assert_eq!(verifying.footprint_bytes(), factor + workspace(1));
    verifying.solve(&verify::rhs_for(&m, 1).1).unwrap();
    assert_eq!(verifying.footprint_bytes(), factor + workspace(1));
}
