//! A minimal JSON value, parser and writer (the repository takes no
//! dependencies). Enough for `BENCHMARK.json`, the result files this
//! benchmark writes, and `--compare`, which reads them back.

use std::fmt::Write as _;

/// A JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }

    /// Compact single-line rendering. Numbers print with every digit
    /// `f64` round-trips (`{}` on `f64` is shortest-round-trip);
    /// non-finite numbers, which JSON cannot carry, print as `null`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                let _ = write!(s, "{v}");
            }
            Json::Num(_) => s.push_str("null"),
            Json::Str(t) => render_str(t, s),
            Json::Arr(v) => {
                s.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    e.render_into(s);
                }
                s.push(']');
            }
            Json::Obj(kv) => {
                s.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    render_str(k, s);
                    s.push_str(": ");
                    v.render_into(s);
                }
                s.push('}');
            }
        }
    }
}

fn render_str(t: &str, s: &mut String) {
    s.push('"');
    for c in t.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Build an object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { src: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(kv));
        }
        loop {
            self.skip_ws();
            if self.src.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a key"));
            }
            let k = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            kv.push((k, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(kv));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut v = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(v));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid utf-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.src.get(self.pos) {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c as char,
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // lone surrogates have no char; this
                            // benchmark's files never contain them
                            char::from_u32(hex).ok_or_else(|| self.err("surrogate escape"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    self.pos += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("expected a value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_object() {
        let v = obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            (
                "metrics",
                obj(vec![(
                    "op_ms_p50",
                    obj(vec![("value", Json::Num(1.2034567)), ("unit", Json::Str("ms".into()))]),
                )]),
            ),
            ("note", Json::Str("a \"quoted\"\nline".into())),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-2.5e-3)])),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "single line: {text}");
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(
            v.get("metrics").and_then(|m| m.get("op_ms_p50")).and_then(|m| m.get("value")),
            Some(&Json::Num(1.2034567))
        );
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 0.1f64 + 0.2;
        assert_eq!(parse(&Json::Num(x).render()).unwrap().as_f64(), Some(x));
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "\"open", "{} x", "{\"a\":}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_nesting() {
        let v = parse(r#" { "k": [ {"s": "é\t"} , [] , {} ] } "#).unwrap();
        let s = v.get("k").unwrap().as_arr().unwrap()[0].get("s").unwrap();
        assert_eq!(s.as_str(), Some("é\t"));
    }
}
