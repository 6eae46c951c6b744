//! `benchmark --compare a.json b.json`: hold two result files (each a
//! set of runs written by the full command) against each other.
//!
//! Every end-to-end metric gets one row per workload — the two
//! medians over the files' runs, their quartile spreads, and a verdict
//! under the metric's own bound:
//!
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound, or `machine.parallel_capacity` read below 1.5 in
//!   either file (the sandbox was not giving two cores);
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `ok` — otherwise.
//!
//! Metrics declared exact (counts, simulated times) must be identical
//! between the files for every (workload, seed) both contain.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// Below this, two spinning threads were not getting two cores.
pub const MIN_PARALLEL_CAPACITY: f64 = 1.5;

/// Verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The spread (or the machine) does not support a verdict.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median over `a`'s runs, and over `b`'s.
    pub medians: [f64; 2],
    /// Quartile distance over median, per side.
    pub spreads: [f64; 2],
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// One row per (workload, end-to-end metric) present in both files.
    pub rows: Vec<Row>,
    /// Exact metrics that differ: `workload/seed/metric: a vs b`.
    pub exact_mismatches: Vec<String>,
    /// Exact metrics compared.
    pub exact_compared: usize,
    /// Failed operations recorded in either file.
    pub failed_ops: u64,
}

impl Comparison {
    /// No metric worse, no exact metric differing, no failed operation.
    pub fn agrees(&self) -> bool {
        self.failed_ops == 0
            && self.exact_mismatches.is_empty()
            && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    /// The printable report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<14} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
            "workload", "metric", "median a", "median b", "iqr a", "iqr b", "bound"
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{:<14} {:<14} {:>12.5} {:>12.5} {:>7.1}% {:>7.1}% {:>5.0}%  {}\n",
                r.workload,
                r.metric,
                r.medians[0],
                r.medians[1],
                r.spreads[0] * 100.0,
                r.spreads[1] * 100.0,
                r.bound * 100.0,
                match r.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                },
            ));
        }
        s.push_str(&format!(
            "exact-count metrics: {} compared, {} differ; failed operations: {}\n",
            self.exact_compared,
            self.exact_mismatches.len(),
            self.failed_ops
        ));
        for m in &self.exact_mismatches {
            s.push_str(&format!("  differs: {m}\n"));
        }
        s
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the exclusive method), so spreads read the same as the
/// driver's. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(|a, b| a.total_cmp(b));
    Some([1usize, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    }))
}

fn median_and_spread(values: &[f64]) -> (f64, f64) {
    match quartiles(values) {
        Some([q1, med, q3]) if med != 0.0 => (med, (q3 - q1) / med.abs()),
        Some([_, med, _]) => (med, 0.0),
        None => (values.first().copied().unwrap_or(0.0), 0.0),
    }
}

/// `runs[(workload, traced)] = [(seed, metrics)]` of one result file.
type Runs<'a> = BTreeMap<(&'a str, bool), Vec<(u64, &'a Json)>>;

fn index(file: &Json) -> Result<(Runs<'_>, u64), String> {
    let runs =
        file.get("runs").and_then(Json::as_arr).ok_or("result file has no \"runs\" array")?;
    let mut out: Runs<'_> = BTreeMap::new();
    let mut failed = 0u64;
    for r in runs {
        let field = |k: &str| r.get(k).ok_or_else(|| format!("run without {k:?}"));
        let workload = field("workload")?.as_str().ok_or("workload is not a string")?;
        let traced = field("traced")? == &Json::Bool(true);
        let seed = field("seed")?.as_f64().ok_or("seed is not a number")? as u64;
        failed += field("failed")?.as_f64().ok_or("failed is not a number")? as u64;
        out.entry((workload, traced)).or_default().push((seed, field("metrics")?));
    }
    Ok((out, failed))
}

fn value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

fn values(runs: &[(u64, &Json)], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|(_, m)| value(m, name)).collect()
}

fn verdict(def: &MetricDef, va: &[f64], vb: &[f64], capacity_ok: bool) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let ((a, spread_a), (b, spread_b)) = (median_and_spread(va), median_and_spread(vb));
    let lower = def.better == "lower";
    if !capacity_ok || spread_a > bound || spread_b > bound {
        // too noisy to call unchanged — unless every run of `b` reads
        // better than every run of `a`
        let all_better = va.iter().all(|x| vb.iter().all(|y| if lower { y < x } else { y > x }));
        return if all_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    let worse_by = if lower { b - a } else { a - b };
    if worse_by > bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare result file `b` against baseline `a`.
///
/// # Errors
/// A file that is not a result file of this benchmark.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let ((runs_a, failed_a), (runs_b, failed_b)) = (index(a)?, index(b)?);
    let mut out = Comparison { failed_ops: failed_a + failed_b, ..Comparison::default() };
    for (&(workload, traced), ra) in &runs_a {
        let Some(rb) = runs_b.get(&(workload, traced)) else { continue };
        if !traced {
            let capacity_ok = [&runs_a, &runs_b].iter().all(|runs| {
                runs.get(&(workload, true)).is_none_or(|layer| {
                    values(layer, "machine.parallel_capacity")
                        .iter()
                        .all(|&c| c >= MIN_PARALLEL_CAPACITY)
                })
            });
            for def in &END_TO_END {
                let (va, vb) = (values(ra, def.name), values(rb, def.name));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let ((ma, sa), (mb, sb)) = (median_and_spread(&va), median_and_spread(&vb));
                out.rows.push(Row {
                    workload: workload.to_string(),
                    metric: def.name,
                    medians: [ma, mb],
                    spreads: [sa, sb],
                    bound: def.bound.unwrap_or(0.0),
                    verdict: verdict(def, &va, &vb, capacity_ok),
                });
            }
        } else {
            for (seed, ma) in ra {
                let Some((_, mb)) = rb.iter().find(|(s, _)| s == seed) else { continue };
                for def in PER_LAYER.iter().filter(|d| d.exact) {
                    let (Some(x), Some(y)) = (value(ma, def.name), value(mb, def.name)) else {
                        continue;
                    };
                    out.exact_compared += 1;
                    if x.to_bits() != y.to_bits() {
                        out.exact_mismatches
                            .push(format!("{workload}/seed {seed}/{}: {x} vs {y}", def.name));
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, parse};

    fn run(workload: &str, seed: u64, traced: bool, metrics: &[(&str, f64)]) -> Json {
        let metrics = metrics
            .iter()
            .map(|(k, v)| {
                (*k, obj(vec![("value", Json::Num(*v)), ("unit", Json::Str("x".into()))]))
            })
            .collect();
        obj(vec![
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("traced", Json::Bool(traced)),
            ("failed", Json::Num(0.0)),
            ("metrics", obj(metrics)),
        ])
    }

    fn file(runs: Vec<Json>) -> Json {
        obj(vec![("runs", Json::Arr(runs))])
    }

    fn e2e_runs(op_p50: &[f64], capacity: f64) -> Json {
        let mut runs: Vec<Json> = op_p50
            .iter()
            .enumerate()
            .map(|(i, v)| {
                run("pcg_grid", i as u64, false, &[("op_ms_p50", *v), ("mrows_per_s", 10.0)])
            })
            .collect();
        runs.push(run(
            "pcg_grid",
            0,
            true,
            &[("machine.parallel_capacity", capacity), ("krylov.iterations", 134.0)],
        ));
        file(runs)
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]).unwrap(), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn same_numbers_agree() {
        let a = e2e_runs(&[100.0, 101.0, 99.0, 100.5], 1.95);
        let c = compare(&a, &a).unwrap();
        assert!(c.agrees());
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!((c.exact_compared, c.exact_mismatches.len()), (1, 0));
        assert!(c.render().contains("pcg_grid") && c.render().contains("ok"));
    }

    #[test]
    fn a_regression_past_the_bound_is_worse() {
        let a = e2e_runs(&[100.0, 101.0, 99.0, 100.5], 1.95);
        let b = e2e_runs(&[130.0, 131.0, 129.0, 130.5], 1.95);
        let c = compare(&a, &b).unwrap();
        let row = c.rows.iter().find(|r| r.metric == "op_ms_p50").unwrap();
        assert_eq!(row.verdict, Verdict::Worse);
        assert!(!c.agrees());
        // the other direction is an improvement: ok
        assert!(compare(&b, &a).unwrap().agrees());
    }

    #[test]
    fn wide_spread_or_a_starved_machine_is_unresolved() {
        let a = e2e_runs(&[100.0, 101.0, 99.0, 100.5], 1.95);
        let noisy = e2e_runs(&[90.0, 140.0, 100.0, 160.0], 1.95);
        let row = compare(&a, &noisy).unwrap().rows.remove(0);
        assert_eq!(row.verdict, Verdict::Unresolved);
        let starved = e2e_runs(&[130.0, 131.0, 129.0, 130.5], 1.1);
        let row = compare(&a, &starved).unwrap().rows.remove(0);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(compare(&a, &starved).unwrap().agrees(), "unresolved is not a failure");
    }

    #[test]
    fn exact_counts_must_be_identical() {
        let a = e2e_runs(&[100.0], 2.0);
        let mut b = e2e_runs(&[100.0], 2.0);
        let text = b.render().replace("134", "135");
        b = parse(&text).unwrap();
        let c = compare(&a, &b).unwrap();
        assert_eq!(c.exact_mismatches.len(), 1);
        assert!(!c.agrees() && c.render().contains("krylov.iterations"));
        assert!(compare(&a, &Json::Null).is_err());
    }
}
