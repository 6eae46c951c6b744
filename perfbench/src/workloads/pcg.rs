//! `pcg_grid`: ILU(0)-preconditioned conjugate gradients on a 192×192
//! grid Laplacian, repeated to `rel_tol = 1e-8` — the paper's §I use
//! case, and the *same kernel used differently*: `apply_into` replays
//! the natural order, serially, on both triangles, cache-resident. A
//! pool or schedule change predicts **no change** here, while a layout
//! change may help one order and hurt the other.
//!
//! The primary operation is one PCG solve on a locally held
//! `PreconditionerEngine`; the secondary one is the same solve through
//! a `ServedPreconditioner`, every application a service round trip.

use crate::inputs::{self, krylov_options, sub_seeds, Factor, PcgInputs, RhsSet, GRID_SIDE};
use crate::layers::factor_layers;
use crate::timer::{sample_ms, Summary};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::{setup_seconds, Check, Outcome};
use sparsemat::factor::ilu0;
use sparsemat::{CscMatrix, Triangle};
use sptrsv::{
    pcg, serve_preconditioner, ApplyWorkspace, Precondition, PreconditionerEngine,
    ServedPreconditioner, ServiceConfig, SolveError, SpMv,
};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Generated inputs of the workload.
#[derive(Debug)]
pub struct Inputs {
    grid: PcgInputs,
    /// The ILU(0) lower factor as the traced run's primary factor.
    lower: Factor,
    lower_rhs: RhsSet,
}

/// Generate the grid problem (side [`GRID_SIDE`]) with its oracle.
pub fn prepare(seed: u64) -> Inputs {
    prepare_sized(GRID_SIDE, seed)
}

fn prepare_sized(side: usize, seed: u64) -> Inputs {
    let [b_seed, rhs_seed] = sub_seeds(seed);
    let grid = PcgInputs::generate(side, b_seed);
    let lower = Factor::with_drift(grid.factors.l.clone(), Triangle::Lower);
    let lower_rhs = RhsSet::generate(&lower, 16, rhs_seed);
    Inputs { grid, lower, lower_rhs }
}

fn build(inp: &Inputs) -> PreconditionerEngine<'_> {
    PreconditionerEngine::from_ilu0(
        &inp.grid.factors,
        inputs::machine(),
        &inputs::solve_options(Triangle::Lower),
    )
    .expect("engine pair builds")
}

/// Inputs in memory → first result: `ilu0` + engine pair + first apply.
fn setup_s(inp: &Inputs, check: &mut Check) -> f64 {
    let g = &inp.grid;
    let mut want = vec![0.0f64; g.a.n()];
    inputs::ReferencePreconditioner(&g.factors)
        .precondition_into(&g.b, &mut want)
        .expect("reference apply");
    setup_seconds(|| {
        let t0 = Instant::now();
        let factors = ilu0(&g.a, 1e-8).expect("ilu0");
        let pre = PreconditionerEngine::from_ilu0(
            &factors,
            inputs::machine(),
            &inputs::solve_options(Triangle::Lower),
        )
        .expect("engine pair builds");
        let z = pre.apply(&g.b).expect("first apply");
        let dt = t0.elapsed().as_secs_f64();
        check.ok(inputs::hash_bits(&z) == inputs::hash_bits(&want));
        dt
    })
}

/// A [`Precondition`] / [`SpMv`] pair that spans every call under the
/// PCG span currently open (`parent`).
struct Spanned<'a, T: ?Sized> {
    inner: &'a T,
    tracer: &'a Tracer,
    parent: &'a Cell<(SpanId, u64)>,
}

impl<M: Precondition + ?Sized> Precondition for Spanned<'_, M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn precondition_into(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolveError> {
        let (parent, request) = self.parent.get();
        let _s = self.tracer.span("krylov.apply", parent, request, 0);
        self.inner.precondition_into(r, z)
    }
}

impl<A: SpMv + ?Sized> SpMv for Spanned<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        let (parent, request) = self.parent.get();
        let _s = self.tracer.span("krylov.spmv", parent, request, 0);
        self.inner.spmv_into(x, y);
    }
}

/// One PCG solve over preconditioner `m`, checked against the oracle;
/// returns its wall time in ms. With the tracer on, the solve is a
/// `krylov.pcg` span and every apply / SpMV a child of it.
fn one_pcg<M: Precondition + ?Sized>(
    g: &PcgInputs,
    m: &M,
    tracer: &Tracer,
    request: u64,
    check: &mut Check,
) -> f64 {
    let opts = krylov_options();
    let t0 = Instant::now();
    let rep = if tracer.enabled() {
        let s = tracer.span("krylov.pcg", NO_PARENT, request, 0);
        let parent = Cell::new((s.id(), request));
        let a = Spanned::<CscMatrix> { inner: &g.a, tracer, parent: &parent };
        let m = Spanned { inner: m, tracer, parent: &parent };
        pcg(&a, &g.b, &m, &opts)
    } else {
        // an untraced solve drives the bare operator and
        // preconditioner: the wrappers exist only for the spans
        pcg(&g.a, &g.b, m, &opts)
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    check.ok(rep.is_ok_and(|rep| g.matches(&rep)));
    ms
}

/// Per-solve milliseconds of the two ways the workload runs PCG.
#[derive(Default)]
struct Laps {
    /// On the locally held engine pair.
    direct: Vec<f64>,
    /// Through a `ServedPreconditioner`: every apply a service round trip.
    served: Vec<f64>,
}

/// Spend `window` in rounds of direct solves (70 %) followed by served
/// solves (30 %), so both medians sample the whole window. Each round's
/// served part runs its own service: while the direct solves run no
/// dispatcher thread exists, as for a caller that holds its own pair.
fn drive(
    g: &PcgInputs,
    pre: &PreconditionerEngine<'_>,
    window: Duration,
    tracer: &Tracer,
    check: &mut Check,
) -> Laps {
    const ROUNDS: u32 = 4;
    let dark = Tracer::new(false);
    let mut laps = Laps::default();
    for _ in 0..ROUNDS {
        let until = Instant::now() + (window / ROUNDS).mul_f64(0.7);
        while laps.direct.is_empty() || Instant::now() < until {
            let request = laps.direct.len() as u64 + 1;
            laps.direct.push(one_pcg(g, pre, tracer, request, check));
        }
        let until = Instant::now() + (window / ROUNDS).mul_f64(0.3);
        let ((), _report) = serve_preconditioner(pre, &ServiceConfig::default(), |svc| {
            let served = ServedPreconditioner::new(svc).expect("preconditioner-backed service");
            while laps.served.is_empty() || Instant::now() < until {
                laps.served.push(one_pcg(g, &served, &dark, 0, check));
            }
        })
        .expect("service runs");
    }
    laps
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(inp: &Inputs, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let g = &inp.grid;
    out.metrics.set("setup_s", setup_s(inp, &mut out.check));
    let pre = build(inp);
    let dark = Tracer::new(false);
    one_pcg(g, &pre, &dark, 0, &mut out.check); // warm-up
    let laps = drive(g, &pre, Duration::from_secs_f64(seconds), &dark, &mut out.check);
    let (direct, served) = (Summary::new(laps.direct), Summary::new(laps.served));
    out.metrics.set("op_ms_p50", direct.median());
    out.metrics.set("op_ms_p90", direct.percentile(90.0));
    out.metrics.set("alt_ms_p50", served.median());
    // rows substituted per second inside PCG: one L and one U sweep
    // per application, one application per iteration
    let rows = (2 * g.a.n() * g.iterations) as f64;
    out.metrics.set("mrows_per_s", rows / (direct.median() * 1e-3) / 1e6);
    out.metrics.keep_summary("pcg (engine pair)", direct);
    out.metrics.keep_summary("pcg (ServedPreconditioner)", served);
    out
}

/// The traced run: PCG alternately untraced and traced (every apply
/// and SpMV spanned), the served variant, then the lower factor's
/// layers.
pub fn per_layer(inp: &Inputs, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let g = &inp.grid;
    let pre = build(inp);
    let dark = Tracer::new(false);
    one_pcg(g, &pre, &dark, 0, &mut out.check); // warm-up
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let end = Instant::now() + Duration::from_secs_f64(seconds * 0.3);
    while traced.is_empty() || Instant::now() < end {
        untraced.push(one_pcg(g, &pre, &dark, 0, &mut out.check));
        traced.push(one_pcg(g, &pre, tracer, traced.len() as u64 + 1, &mut out.check));
    }
    out.set_trace_overhead(Summary::new(untraced).median(), Summary::new(traced).median());

    let st = tracer.stats();
    let (solve, apply, spmv) = (st["krylov.pcg"], st["krylov.apply"], st["krylov.spmv"]);
    let mean_us = |total_ns: u64, count: u64| total_ns as f64 / count.max(1) as f64 / 1e3;
    let pcg_us = mean_us(solve.total_ns, solve.count);
    let apply_us = mean_us(apply.total_ns, apply.count);
    let spmv_us = mean_us(spmv.total_ns, spmv.count);
    let self_us = mean_us(solve.self_ns, solve.count);
    let m = &mut out.metrics;
    m.set("krylov.iterations", g.iterations as f64);
    m.set("krylov.final_rel_residual", g.final_rel_residual);
    m.set("krylov.pcg_ms_mean", pcg_us / 1e3);
    m.set("krylov.apply_us", apply_us);
    m.set("krylov.spmv_us", spmv_us);
    m.set("krylov.apply_share", apply.total_ns as f64 / solve.total_ns.max(1) as f64);
    m.set("krylov.self_share", solve.self_ns as f64 / solve.total_ns.max(1) as f64);
    // closure: iterations × (apply + spmv) + self against the mean solve
    m.set(
        "krylov.closure_share",
        (g.iterations as f64 * (apply_us + spmv_us) + self_us) / pcg_us.max(1e-9),
    );

    let laps = drive(g, &pre, Duration::from_secs_f64(seconds * 0.1), &dark, &mut out.check);
    out.metrics.set("krylov.served_pcg_ms", Summary::new(laps.served).median());

    factor_layers(
        &mut out.metrics,
        &mut out.check,
        &inp.lower,
        &inp.lower_rhs,
        Duration::from_secs_f64(seconds * 0.55),
    );
    // on this workload the natural-order kernel is the pair's
    // `apply_into`, over both triangles
    let (mut z, mut ws) = (vec![0.0f64; g.a.n()], ApplyWorkspace::new());
    let apply_ms = sample_ms(Duration::from_secs_f64(seconds * 0.05), 5, || {
        pre.apply_into(&g.b, &mut z, &mut ws).expect("apply");
    });
    let nnz = (g.factors.l.nnz() + g.factors.u.nnz()) as f64;
    out.metrics.set("kernel.natural_ns_per_nnz", apply_ms.median() * 1e6 / nnz);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_solves_close_and_match_the_oracle() {
        let inp = prepare_sized(20, 4);
        let pre = build(&inp);
        let tracer = Tracer::new(true);
        let mut check = Check::default();
        for request in 1..=3 {
            assert!(one_pcg(&inp.grid, &pre, &tracer, request, &mut check) > 0.0);
        }
        assert_eq!((check.attempted, check.failed), (3, 0));
        let st = tracer.stats();
        assert_eq!(st["krylov.pcg"].count, 3);
        // one apply and one SpMV per iteration, all under a PCG span
        assert_eq!(st["krylov.apply"].count, 3 * inp.grid.iterations as u64);
        assert_eq!(st["krylov.spmv"].count, 3 * inp.grid.iterations as u64);
        let covered = st["krylov.apply"].total_ns + st["krylov.spmv"].total_ns;
        assert_eq!(st["krylov.pcg"].self_ns + covered, st["krylov.pcg"].total_ns);
    }

    #[test]
    fn drive_runs_direct_and_served_solves() {
        let inp = prepare_sized(16, 8);
        let pre = build(&inp);
        let mut check = Check::default();
        let laps = drive(&inp.grid, &pre, Duration::ZERO, &Tracer::new(false), &mut check);
        assert_eq!((laps.direct.len(), laps.served.len()), (1, 1));
        assert_eq!((check.attempted, check.failed), (2, 0));
    }

    #[test]
    fn a_wrong_iteration_count_is_a_failure() {
        let mut inp = prepare_sized(16, 8);
        inp.grid.iterations += 1;
        let pre = build(&inp);
        let mut check = Check::default();
        one_pcg(&inp.grid, &pre, &Tracer::new(false), 0, &mut check);
        assert_eq!((check.attempted, check.failed), (1, 1));
    }
}
