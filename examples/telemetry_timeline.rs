//! The unified telemetry plane end to end: arm the sink, run every
//! warm tier (serial, panel, batch) plus a value refresh, then export
//! the same run three
//! ways — a chrome://tracing timeline, a Prometheus text page, and
//! the one-line digests the reports embed.
//!
//! The emitted timeline is not just printed: a small recursive-descent
//! JSON parser (hand-rolled — this repo takes no dependencies)
//! validates the whole document and checks the trace-event schema, so
//! CI running this example proves the exporter emits well-formed JSON
//! with balanced span begin/end pairs.
//!
//! Run with: `cargo run --release --example telemetry_timeline`

use mgpu_sptrsv::prelude::*;
use sptrsv::telemetry;

fn main() {
    let entry = sparsemat::corpus::deep_narrow_entry();
    let m = entry.matrix;
    let (_, b) = sptrsv::verify::rhs_for(&m, 7);
    println!("{} factor: n = {}, nnz = {}", entry.name, m.n(), m.nnz());

    let opts = SolveOptions {
        kind: SolverKind::ZeroCopy { per_gpu: 8 },
        verify: false,
        ..SolveOptions::default()
    };
    let engine = SolverEngine::build(&m, MachineConfig::dgx1(4), &opts).unwrap();
    let cold = engine.solve(&b).unwrap();
    // the satellite one-liners: every report renders in one line now
    println!("{}", cold.schedule.as_ref().unwrap());
    println!("{}", cold.timings);

    // --- arm the sink and trace one busy stretch ----------------------
    telemetry::set_enabled(true);
    let mut ws = SolveWorkspace::new();
    let mut out = vec![0.0f64; m.n()];
    let bs: Vec<Vec<f64>> = (0..4u64).map(|k| sptrsv::verify::rhs_for(&m, 20 + k).1).collect();
    let mut outs: Vec<Vec<f64>> = vec![Vec::new(); bs.len()];
    // warm-up: sizes buffers and registers this thread's ring
    engine.solve_into(&b, &mut out, &mut ws).unwrap();
    engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
    telemetry::reset();

    for rhs in &bs {
        engine.solve_into(rhs, &mut out, &mut ws).unwrap();
    }
    engine.solve_panel_into(&bs, &mut outs, &mut ws).unwrap();
    engine.solve_batch_into(&bs, &mut outs).unwrap();
    let refresh = engine.refresh_values(&m).unwrap();
    println!("{refresh}");

    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    println!("{}", telemetry::report_from(&snap));

    // --- chrome://tracing timeline, validated, not trusted ------------
    // first prove the validator itself on a document that exercises
    // every grammar production it claims to handle
    let probe = parse_json(r#"[{"k":"v\nA"}, [true, false], null, -2.5e3]"#).unwrap();
    let Json::Arr(probe) = probe else { panic!("probe is an array") };
    assert!(matches!(&probe[1], Json::Arr(l) if matches!(l[0], Json::Bool(true))));
    assert!(matches!(probe[3], Json::Num(n) if n == -2500.0));

    let trace = telemetry::chrome_trace_json(&snap);
    let doc = parse_json(&trace).expect("exporter must emit well-formed JSON");
    let Json::Arr(events) = doc else { panic!("a chrome trace is a top-level array") };
    assert!(!events.is_empty(), "the traced stretch produced events");
    let (mut begins, mut ends) = (0u64, 0u64);
    let mut last_ts = f64::MIN;
    for ev in &events {
        let Json::Obj(fields) = ev else { panic!("every trace event is an object") };
        let field = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let Some(Json::Str(ph)) = field("ph") else { panic!("event missing \"ph\"") };
        assert!(matches!(ph.as_str(), "B" | "E" | "i" | "C"), "unknown phase {ph:?}");
        assert!(matches!(field("name"), Some(Json::Str(_))), "event missing \"name\"");
        assert!(matches!(field("tid"), Some(Json::Num(_))), "event missing \"tid\"");
        let Some(Json::Num(pid)) = field("pid") else { panic!("event missing \"pid\"") };
        assert_eq!(*pid, 1.0, "one process, one pid lane");
        let Some(Json::Num(ts)) = field("ts") else { panic!("event missing \"ts\"") };
        assert!(*ts >= 0.0 && *ts >= last_ts, "events are emitted time-sorted");
        last_ts = *ts;
        match ph.as_str() {
            "B" => begins += 1,
            "E" => ends += 1,
            _ => {}
        }
    }
    assert_eq!(begins, ends, "span begin/end events pair up");
    println!(
        "chrome trace: {} events ({begins} span pairs) — parses clean, schema holds",
        events.len()
    );

    // --- Prometheus text page (excerpt) -------------------------------
    let prom = telemetry::prometheus_text(&snap);
    assert!(prom.contains("sptrsv_site_events_total"));
    for tier in ["serial", "panel", "batch"] {
        assert!(prom.contains(&format!("sptrsv_solve_{tier}_ns_count")), "{tier} histogram");
    }
    let shown: Vec<&str> =
        prom.lines().filter(|l| l.contains("solve_") || l.starts_with("# TYPE")).take(8).collect();
    println!("prometheus excerpt:");
    for l in &shown {
        println!("  {l}");
    }
}

/// A parsed JSON value — just enough structure to validate the trace.
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parse a complete JSON document (single value, trailing whitespace
/// only). Recursive descent over bytes; strings handle the standard
/// escapes. Errors carry the byte offset that broke the grammar.
fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { b: s.as_bytes(), at: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.b.get(self.at).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.b.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = *self.b.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc as char),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex =
                                self.b.get(self.at..self.at + 4).ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at - 1)),
                    }
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.at))
                }
                Some(_) => {
                    // multi-byte UTF-8 passes through untouched
                    let start = self.at;
                    self.at += 1;
                    while self.b.get(self.at).is_some_and(|&c| c & 0xC0 == 0x80) {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.at]).map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .b
            .get(self.at)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.at]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}
