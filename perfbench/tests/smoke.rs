//! Smoke test of the benchmark's declared surface: `BENCHMARK.json`
//! and the harness must name the same workloads and metrics, every
//! run must emit exactly the declared set, and the metrics declared
//! exact must repeat between two runs of one seed.

use perfbench::json::{self, Json};
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::{report, run};
use std::collections::BTreeMap;

/// Measured window of every smoke run, seconds.
const WINDOW: f64 = 1.0;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is limited to 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("string member {key:?}"))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

fn assert_metric_list(declared: &Json, defs: &[MetricDef], with_bound: bool) {
    let declared = declared.as_arr().expect("a metric list");
    assert_eq!(declared.len(), defs.len(), "metric count");
    for (j, d) in declared.iter().zip(defs) {
        let want_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(j), want_keys, "keys of {}", d.name);
        assert_eq!(
            (text(j, "name"), text(j, "unit"), text(j, "better")),
            (d.name, d.unit, d.better)
        );
        if with_bound {
            assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "bound of {}", d.name);
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_harness_emits() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let paths: Vec<&str> =
        m.get("paths").and_then(Json::as_arr).unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["perfbench"]);
    let command: Vec<&str> =
        m.get("command").and_then(Json::as_arr).unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"perfbench/Cargo.toml") && command.last() == Some(&"--"));
    let seconds = m.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, two builds and every set-up within 3420 s
    assert!((4.0 + 22.0 * WORKLOADS.len() as f64) * (seconds + 8.0) + 240.0 <= 3420.0);

    let workloads = m.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        // the source keeps long reasons readable with line continuations
        let why: String = why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!((text(j, "name"), text(j, "why")), (name, why.as_str()));
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    assert_metric_list(m.get("end_to_end").unwrap(), &END_TO_END, true);
    assert_metric_list(m.get("per_layer").unwrap(), &PER_LAYER, false);
}

/// The metrics of a run as the driver reads them off the last line.
fn emitted(r: &perfbench::RunResult) -> BTreeMap<String, (f64, String)> {
    let line = report::driver_line(r);
    let v = json::parse(&line).expect("driver line parses");
    assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Json::Bool(true)), "{}: wrong output", r.workload);
    assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(v.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    v.get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(name, entry)| {
            assert_eq!(keys(entry), ["value", "unit"]);
            let value = entry.get("value").and_then(Json::as_f64).expect("a finite number");
            (name.clone(), (value, text(entry, "unit").to_string()))
        })
        .collect()
}

fn assert_emits(got: &BTreeMap<String, (f64, String)>, defs: &[MetricDef], workload: &str) {
    let want: Vec<&str> = {
        let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names
    };
    let names: Vec<&str> = got.keys().map(String::as_str).collect();
    assert_eq!(names, want, "{workload}: emitted metric names");
    for d in defs {
        let (value, unit) = &got[d.name];
        assert!(value.is_finite(), "{workload}/{}: {value}", d.name);
        assert_eq!(unit, d.unit, "{workload}/{}: unit", d.name);
        assert!(!unit.is_empty());
        assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
    }
}

#[test]
fn every_workload_emits_the_declared_metrics_and_exact_counts_repeat() {
    for (workload, _) in WORKLOADS {
        let untraced = emitted(&run(workload, 11, WINDOW, false).unwrap());
        assert_emits(&untraced, &END_TO_END, workload);
        for d in &END_TO_END {
            assert!(
                untraced[d.name].0 > 0.0,
                "{workload}/{}: end-to-end metrics are never 0",
                d.name
            );
        }

        let first = run(workload, 11, WINDOW, true).unwrap();
        let second = run(workload, 11, WINDOW, true).unwrap();
        let (a, b) = (emitted(&first), emitted(&second));
        assert_emits(&a, &PER_LAYER, workload);
        assert_emits(&b, &PER_LAYER, workload);
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (a[d.name].0, b[d.name].0);
            assert_eq!(x.to_bits(), y.to_bits(), "{workload}/{}: {x} vs {y} must repeat", d.name);
        }
        // the layers this workload exercises report, the bypassed read 0
        let on = |name: &str| a[name].0 != 0.0;
        assert!(on("kernel.serial_ms") && on("schedule.levels") && on("sim.events"));
        assert_eq!(on("krylov.iterations"), workload == "pcg_grid");
        assert_eq!(on("fleet.served"), workload.starts_with("fleet"));
        assert_eq!(on("fleet.refreshes"), workload == "fleet_loaded");
        let spans = first.chrome_trace.as_ref().and_then(|t| t.get("traceEvents")).unwrap();
        assert_eq!(spans.as_arr().unwrap().len() as f64, a["trace.spans"].0);
        assert!(a["trace.spans"].0 > 0.0, "{workload}: the traced run recorded spans");
    }
    assert!(run("no_such_workload", 1, WINDOW, false).is_err());
}
