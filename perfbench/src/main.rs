//! `benchmark` — the one command of the layered benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run, as the driver calls it: a metric table, then one JSON
//!     line {"correct", "attempted", "failed", "metrics"} as the last
//!     line of standard output
//! benchmark [--seed N] [--seconds S] [--smoke] [--repeat K] [--out DIR]
//!     every workload, untraced then traced; prints every metric and
//!     writes DIR/results.json plus DIR/trace_<workload>.json
//!     (chrome://tracing); DIR defaults to perfbench/out
//! benchmark --compare a.json b.json
//!     hold two result files against each other under the bounds
//! ```
//!
//! Exits non-zero when any operation failed its correctness check, and
//! on `--compare` when a metric is worse or an exact count differs.

use perfbench::json::{self, obj, Json};
use perfbench::{compare, machine, metrics, report, run, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Measured window of an untraced run when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 24.0;
/// Longest traced run of the full command.
const TRACED_SECONDS_MAX: f64 = 8.0;
/// Window of `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: Option<u64>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = Some(value()?.parse().map_err(|_| "--seed takes a whole number")?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--smoke" => a.smoke = true,
            "--repeat" => {
                let k: u64 = value()?.parse().map_err(|_| "--repeat takes a whole number")?;
                if !(1..=100).contains(&k) {
                    return Err("--repeat must be in 1..=100".into());
                }
                a.repeat = Some(k);
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.compare = Some((first, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let c = compare::compare(&read_json(a)?, &read_json(b)?)?;
    print!("{}", c.render());
    println!("{}", if c.agrees() { "the two sets of runs agree" } else { "DISAGREEMENT" });
    Ok(c.agrees())
}

/// One run, as the driver calls it.
fn driver_run(workload: &str, a: &Args) -> Result<bool, String> {
    let seconds = a.seconds.unwrap_or(DEFAULT_SECONDS);
    let r = run(workload, a.seed.unwrap_or(11), seconds, a.trace.unwrap_or(false))?;
    print!("{}", report::table(&r));
    if let (Some(dir), Some(trace)) = (&a.out, &r.chrome_trace) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        write_text(&dir.join(format!("trace_{}.json", r.workload)), &trace.render())?;
    }
    println!("{}", report::driver_line(&r));
    Ok(r.correct())
}

/// Every workload, untraced then traced.
fn full_run(a: &Args) -> Result<bool, String> {
    let seed = a.seed.unwrap_or(11);
    let seconds = a.seconds.unwrap_or(if a.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let traced_seconds = seconds.min(TRACED_SECONDS_MAX);
    let dir = a.out.clone().unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "perfbench: seed {seed}, {} hardware threads, untraced {seconds} s + traced \
         {traced_seconds} s per workload",
        machine::nproc()
    );
    let mut runs: Vec<RunResult> = Vec::new();
    for k in 0..a.repeat.unwrap_or(1) {
        for (name, _) in metrics::WORKLOADS {
            for traced in [false, true] {
                let r = run(name, seed + k, if traced { traced_seconds } else { seconds }, traced)?;
                print!("{}", report::table(&r));
                if let Some(trace) = &r.chrome_trace {
                    write_text(&dir.join(format!("trace_{name}.json")), &trace.render())?;
                }
                runs.push(r);
            }
        }
    }
    let doc = obj(vec![
        ("benchmark", Json::Str("perfbench".into())),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(machine::nproc() as f64)),
        ("runs", Json::Arr(runs.iter().map(report::run_json).collect())),
    ]);
    let path = dir.join("results.json");
    write_text(&path, &(doc.render() + "\n"))?;
    let failed: u64 = runs.iter().map(|r| r.outcome.check.failed).sum();
    let attempted: u64 = runs.iter().map(|r| r.outcome.check.attempted).sum();
    println!(
        "wrote {} and {} trace files; {failed} of {attempted} operations failed",
        path.display(),
        metrics::WORKLOADS.len()
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| match (&a.compare, &a.workload) {
        (Some((x, y)), _) => compare_files(x, y),
        (None, Some(w)) => driver_run(w, &a),
        (None, None) => full_run(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
