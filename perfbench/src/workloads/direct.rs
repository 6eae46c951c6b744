//! `mixed_direct`: one caller thread, closed loop, straight on a
//! [`SolverEngine`] over the heavy factor — half the window in
//! single-RHS `solve_into` (reused workspace), a third in 64-RHS
//! `solve_batch_into`, the rest alternating `refresh_values(m2/m)` with
//! the first solve after it.
//!
//! ~500-row levels and 399 barriers per solve make `exec`, `schedule`
//! and the pool do all the work and the auto-tier choice decisive;
//! `serve` / `fleet` / `krylov` are bypassed. The ~7 MB working set
//! exceeds the 4 MiB L2; the refresh phase is the write path beside
//! the reads.

use crate::inputs::{self, sub_seeds, Factor, RhsSet, BATCH_RHS};
use crate::layers::factor_layers;
use crate::timer::Summary;
use crate::trace::{Tracer, NO_PARENT};
use crate::{setup_seconds, Check, Outcome};
use sptrsv::{SolveWorkspace, SolverEngine};
use std::time::{Duration, Instant};

/// Generated inputs of the workload.
#[derive(Debug)]
pub struct Inputs {
    heavy: Factor,
    rhs: RhsSet,
}

/// Generate the heavy factor, its 64 right-hand sides and the oracle.
pub fn prepare(seed: u64) -> Inputs {
    let [rhs_seed] = sub_seeds(seed);
    let heavy = Factor::heavy();
    let rhs = RhsSet::generate(&heavy, BATCH_RHS, rhs_seed);
    Inputs { heavy, rhs }
}

fn build(inp: &Inputs) -> SolverEngine<'_> {
    SolverEngine::build(&inp.heavy.m, inputs::machine(), &inputs::solve_options(inp.heavy.tri))
        .expect("heavy engine builds")
}

/// Inputs in memory → first result: engine build + first solve.
fn setup_s(inp: &Inputs, check: &mut Check) -> f64 {
    setup_seconds(|| {
        let t0 = Instant::now();
        let engine = build(inp);
        let x = engine.solve(&inp.rhs.bs[0]).expect("first solve").x;
        let dt = t0.elapsed().as_secs_f64();
        check.ok(inp.rhs.matches(0, 0, &x));
        dt
    })
}

/// Per-phase samples of one drive, in milliseconds.
struct Phases {
    solve: Vec<f64>,
    batch: Vec<f64>,
    refresh_solve: Vec<f64>,
}

/// Run the three phases for `window` in total, checking every output.
///
/// The phases interleave in short rounds (half of each round in single
/// solves, a third in batches, a sixth in refresh+solve), so every
/// metric samples the whole window: a slow drift of the machine then
/// moves all three together instead of landing on one of them.
fn drive(
    inp: &Inputs,
    engine: &SolverEngine<'_>,
    window: Duration,
    tracer: &Tracer,
    check: &mut Check,
) -> Phases {
    let (rhs, n) = (&inp.rhs, inp.heavy.m.n());
    let mut ws = SolveWorkspace::new();
    let mut x = vec![0.0f64; n];
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); rhs.bs.len()];
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    // warm-up: grow buffers, spawn the pool, touch both value epochs
    for b in rhs.bs.iter().take(3) {
        engine.solve_into(b, &mut x, &mut ws).expect("warm-up solve");
    }
    engine.solve_batch_into(&rhs.bs, &mut outs).expect("warm-up batch");
    engine.refresh_values(&inp.heavy.m2).expect("warm-up refresh");
    engine.refresh_values(&inp.heavy.m).expect("warm-up refresh");

    let round = (window / 16).clamp(Duration::from_millis(20), Duration::from_secs(1));
    let mut p = Phases { solve: Vec::new(), batch: Vec::new(), refresh_solve: Vec::new() };
    let (mut request, mut epoch) = (0u64, 0usize);
    let end = Instant::now() + window;
    while Instant::now() < end {
        let until = Instant::now() + round.mul_f64(0.5);
        while p.solve.is_empty() || Instant::now() < until {
            let k = p.solve.len() % rhs.bs.len();
            request += 1;
            let t0 = Instant::now();
            {
                let _s = tracer.span("engine.solve_into", NO_PARENT, request, 0);
                engine.solve_into(&rhs.bs[k], &mut x, &mut ws).expect("solve");
            }
            p.solve.push(ms(t0));
            check.ok(rhs.matches(k, 0, &x));
        }

        let until = Instant::now() + round.mul_f64(1.0 / 3.0);
        while p.batch.is_empty() || Instant::now() < until {
            request += 1;
            let t0 = Instant::now();
            {
                let _s = tracer.span("engine.solve_batch_into", NO_PARENT, request, 0);
                engine.solve_batch_into(&rhs.bs, &mut outs).expect("batch");
            }
            p.batch.push(ms(t0));
            for (k, o) in outs.iter().enumerate() {
                check.ok(rhs.matches(k, 0, o));
            }
        }

        // ends on epoch 0, which the next round's solves are checked against
        let until = Instant::now() + round.mul_f64(1.0 / 6.0);
        while Instant::now() < until || epoch % 2 == 1 {
            epoch += 1;
            let k = p.refresh_solve.len() % rhs.bs.len();
            request += 1;
            let t0 = Instant::now();
            {
                let op = tracer.span("direct.refresh_solve", NO_PARENT, request, 0);
                {
                    let _s = tracer.span("engine.refresh_values", op.id(), request, 0);
                    engine.refresh_values(inp.heavy.epoch(epoch)).expect("refresh");
                }
                let _s = tracer.span("engine.solve_into", op.id(), request, 0);
                engine.solve_into(&rhs.bs[k], &mut x, &mut ws).expect("solve after refresh");
            }
            p.refresh_solve.push(ms(t0));
            check.ok(rhs.matches(k, epoch, &x));
        }
    }
    p
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(inp: &Inputs, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    out.metrics.set("setup_s", setup_s(inp, &mut out.check));
    let engine = build(inp);
    let p =
        drive(inp, &engine, Duration::from_secs_f64(seconds), &Tracer::new(false), &mut out.check);
    let (solve, batch, refresh) =
        (Summary::new(p.solve), Summary::new(p.batch), Summary::new(p.refresh_solve));
    out.metrics.set("op_ms_p50", solve.median());
    out.metrics.set("op_ms_p90", solve.percentile(90.0));
    out.metrics.set("alt_ms_p50", refresh.median());
    let rows = (inp.heavy.m.n() * inp.rhs.bs.len()) as f64;
    out.metrics.set("mrows_per_s", rows / (batch.median() * 1e-3) / 1e6);
    out.metrics.keep_summary("solve_into", solve);
    out.metrics.keep_summary("solve_batch_into x64", batch);
    out.metrics.keep_summary("refresh_values + solve_into", refresh);
    out
}

/// Single solves with the span alternately off and on, so that a
/// drift of the machine (or of the pool's park/spin regime) lands on
/// both sides: (untraced, traced) milliseconds.
fn overhead_probe(
    inp: &Inputs,
    engine: &SolverEngine<'_>,
    window: Duration,
    tracer: &Tracer,
    check: &mut Check,
) -> (Vec<f64>, Vec<f64>) {
    let off = Tracer::new(false);
    let mut ws = SolveWorkspace::new();
    let mut x = vec![0.0f64; inp.heavy.m.n()];
    let (mut dark, mut lit) = (Vec::new(), Vec::new());
    let until = Instant::now() + window;
    while lit.is_empty() || Instant::now() < until {
        for (t, laps) in [(&off, &mut dark), (tracer, &mut lit)] {
            let k = laps.len() % inp.rhs.bs.len();
            let t0 = Instant::now();
            {
                let _s = t.span("engine.solve_into", NO_PARENT, 0, 0);
                engine.solve_into(&inp.rhs.bs[k], &mut x, &mut ws).expect("solve");
            }
            laps.push(t0.elapsed().as_secs_f64() * 1e3);
            check.ok(inp.rhs.matches(k, 0, &x));
        }
    }
    (dark, lit)
}

/// The traced run: the drive with every call spanned, the tracing
/// overhead from alternating solves, then the factor's layers.
pub fn per_layer(inp: &Inputs, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let engine = build(inp);
    drive(inp, &engine, Duration::from_secs_f64(seconds * 0.25), tracer, &mut out.check);
    let probe = Duration::from_secs_f64(seconds * 0.15);
    let (dark, lit) = overhead_probe(inp, &engine, probe, tracer, &mut out.check);
    drop(engine);
    out.set_trace_overhead(Summary::new(dark).median(), Summary::new(lit).median());
    factor_layers(
        &mut out.metrics,
        &mut out.check,
        &inp.heavy,
        &inp.rhs,
        Duration::from_secs_f64(seconds * 0.6),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_inputs() -> Inputs {
        let heavy = Factor::with_drift(
            sparsemat::gen::level_structured(&sparsemat::gen::LevelSpec::new(3_000, 12, 12_000, 5)),
            sparsemat::Triangle::Lower,
        );
        let rhs = RhsSet::generate(&heavy, 16, 9);
        Inputs { heavy, rhs }
    }

    #[test]
    fn drive_checks_every_output_and_restores_epoch_zero() {
        let inp = tiny_inputs();
        let engine = build(&inp);
        let tracer = Tracer::new(true);
        let mut check = Check::default();
        let p = drive(&inp, &engine, Duration::from_millis(60), &tracer, &mut check);
        assert!(!p.solve.is_empty() && !p.batch.is_empty() && p.refresh_solve.len() >= 2);
        assert_eq!(p.refresh_solve.len() % 2, 0, "ends on epoch 0");
        assert_eq!(check.failed, 0);
        assert_eq!(
            check.attempted as usize,
            p.solve.len() + p.batch.len() * 16 + p.refresh_solve.len()
        );
        let x = engine.solve(&inp.rhs.bs[2]).unwrap().x;
        assert!(inp.rhs.matches(2, 0, &x));
        let st = tracer.stats();
        assert_eq!(st["direct.refresh_solve"].count as usize, p.refresh_solve.len());
        assert_eq!(st["engine.solve_into"].count as usize, p.solve.len() + p.refresh_solve.len());
        assert!(st["direct.refresh_solve"].self_ns < st["direct.refresh_solve"].total_ns);
    }

    #[test]
    fn a_wrong_oracle_is_counted_as_a_failure() {
        let mut inp = tiny_inputs();
        inp.rhs.oracle[0][0] ^= 1;
        let engine = build(&inp);
        let mut check = Check::default();
        drive(&inp, &engine, Duration::from_millis(30), &Tracer::new(false), &mut check);
        assert!(check.failed > 0 && check.failed < check.attempted);
    }
}
