//! Rendering: the one-line result the driver reads, the result files
//! the full run writes, and the human-readable metric table.

use crate::json::{obj, Json};
use crate::metrics;
use crate::timer::Summary;
use crate::RunResult;

fn metrics_json(r: &RunResult) -> Json {
    Json::Obj(
        r.outcome
            .metrics
            .in_order(r.defs())
            .map(|(d, v)| {
                let entry = obj(vec![("value", Json::Num(v)), ("unit", Json::Str(d.unit.into()))]);
                (d.name.to_string(), entry)
            })
            .collect(),
    )
}

/// The driver contract's last line of standard output: exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`, on one line.
pub fn driver_line(r: &RunResult) -> String {
    obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.outcome.check.attempted.max(1) as f64)),
        ("failed", Json::Num(r.outcome.check.failed as f64)),
        ("metrics", metrics_json(r)),
    ])
    .render()
}

fn summary_json(s: &Summary) -> Json {
    let (tail_pct, tail) = s.highest_supported().unwrap_or((0.0, 0.0));
    obj(vec![
        ("n", Json::Num(s.n() as f64)),
        ("min", Json::Num(s.min())),
        ("q1", Json::Num(s.q1())),
        ("median", Json::Num(s.median())),
        ("q3", Json::Num(s.q3())),
        ("tail_pct", Json::Num(tail_pct)),
        ("tail", Json::Num(tail)),
        ("iqr_noise", Json::Num(s.iqr_noise())),
    ])
}

/// One run as an entry of a result file (what `--compare` reads).
pub fn run_json(r: &RunResult) -> Json {
    let summaries = r
        .outcome
        .metrics
        .summaries()
        .iter()
        .map(|(label, s)| (label.to_string(), summary_json(s)))
        .collect();
    obj(vec![
        ("workload", Json::Str(r.workload.into())),
        ("seed", Json::Num(r.seed as f64)),
        ("seconds", Json::Num(r.seconds)),
        ("traced", Json::Bool(r.traced)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.outcome.check.attempted as f64)),
        ("failed", Json::Num(r.outcome.check.failed as f64)),
        ("metrics", metrics_json(r)),
        ("summaries_ms", Json::Obj(summaries)),
    ])
}

/// Every metric of the run by name with its unit, then the sample
/// summaries behind the timings.
pub fn table(r: &RunResult) -> String {
    let mut s = format!(
        "== {} | seed {} | {} run, {} s | attempted {} failed {} ==\n",
        r.workload,
        r.seed,
        if r.traced { "traced (per-layer)" } else { "untraced (end-to-end)" },
        r.seconds,
        r.outcome.check.attempted,
        r.outcome.check.failed,
    );
    if let Some(why) = metrics::workload_why(r.workload) {
        s.push_str(&format!("   why: {why}\n"));
    }
    for (d, v) in r.outcome.metrics.in_order(r.defs()) {
        let bound = d.bound.map_or(String::new(), |b| format!("  (bound {:.0} %)", b * 100.0));
        let exact = if d.exact { "  (exact)" } else { "" };
        // six decimals, except where that would print a small value as 0
        let value = if v != 0.0 && v.abs() < 1e-3 { format!("{v:.6e}") } else { format!("{v:.6}") };
        s.push_str(&format!("  {:<34} {value:>16} {:<8}{bound}{exact}\n", d.name, d.unit));
    }
    for (label, sum) in r.outcome.metrics.summaries() {
        s.push_str(&format!("  ~ {label}: {}\n", sum.line("ms")));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Check, Outcome};

    fn sample_run() -> RunResult {
        let mut outcome =
            Outcome { check: Check { attempted: 12, failed: 0 }, ..Outcome::default() };
        for d in &metrics::END_TO_END {
            outcome.metrics.set(d.name, 1.25);
        }
        outcome.metrics.keep_summary("op", Summary::new((0..40).map(f64::from).collect()));
        RunResult {
            workload: "pcg_grid",
            seed: 3,
            seconds: 1.0,
            traced: false,
            outcome,
            chrome_trace: None,
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&sample_run());
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), metrics::END_TO_END.len());
        for (_, entry) in m {
            let keys: Vec<&str> = entry.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let t = table(&sample_run());
        for d in &metrics::END_TO_END {
            assert!(t.contains(d.name) && t.contains(d.unit));
        }
        assert!(t.contains("~ op: n=40") && t.contains("why:"));
        let j = run_json(&sample_run());
        assert_eq!(
            j.get("summaries_ms").unwrap().get("op").unwrap().get("n"),
            Some(&Json::Num(40.0))
        );
    }
}
