//! `json` — the workspace's one JSON codec: a value tree, a compact
//! renderer and a parser. Every persisted record goes through it (simcache
//! entries, serve plans, tuned schedules, the plan-cache index), and so does
//! every JSON writer (experiment reports, Chrome traces, the telemetry
//! event log). No external dependencies, by design — the container builds
//! offline.
//!
//! Numbers are `f64`. Integral values below 9e15 render as integers and
//! every other finite value in Rust's shortest round-tripping form, so a
//! finite float reads back bit-exactly; non-finite values render as
//! `null`. Record decoders read counters with [`Json::as_u64`], which
//! accepts only exact integers, and binary blobs (cubins) as [`to_hex`]
//! strings.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order (readable diffs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj(pairs: &[(&str, Json)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

impl Json {
    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    /// Append the compact rendering to `s` — how streaming writers emit a
    /// document one record at a time without building the whole tree.
    pub fn render_into(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, s),
            Json::Str(v) => render_str(v, s),
            Json::Arr(items) => {
                s.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    it.render_into(s);
                }
                s.push(']');
            }
            Json::Obj(pairs) => {
                s.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    render_str(k, s);
                    s.push(':');
                    v.render_into(s);
                }
                s.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: `Some` only for a whole
    /// number in `[0, 2^53]`, where every integer is exactly an `f64`.
    /// Record decoders read counters through this, so a corrupt `-1` or
    /// `1.5` is a decode failure rather than a silently cast value.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX: f64 = (1u64 << 53) as f64;
        match *self {
            Json::Num(n) if (0.0..=MAX).contains(&n) && n.trunc() == n => Some(n as u64),
            _ => None,
        }
    }
}

/// Lowercase hex of `bytes`: how records carry a cubin.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(2 * bytes.len());
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`to_hex`]; `None` unless `text` is an even number of hex
/// digits.
pub fn from_hex(text: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| char::from(c).to_digit(16);
    let b = text.as_bytes();
    if !b.len().is_multiple_of(2) {
        return None;
    }
    b.chunks_exact(2)
        .map(|p| Some((digit(p[0])? << 4 | digit(p[1])?) as u8))
        .collect()
}

fn render_num(n: f64, s: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        s.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 && (n != 0.0 || n.is_sign_positive()) {
        let _ = write!(s, "{}", n as i64);
    } else {
        // `{:?}` prints the shortest string that round-trips the f64
        // (`-0.0` for negative zero, which the integer form would lose).
        let _ = write!(s, "{n:?}");
    }
}

fn render_str(v: &str, s: &mut String) {
    s.push('"');
    for ch in v.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Deepest `[`/`{` nesting [`parse`] accepts. Tracked records nest at most
/// five deep; the bound makes a corrupt or hostile document an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document (full grammar, `\uXXXX` surrogate pairs included —
/// tuner move logs embed instruction and control-code text in region names,
/// so strings must round-trip whatever an external tool re-escapes).
/// Linear in the input; nesting deeper than 128 is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(&open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.i
                    ));
                }
                self.depth += 1;
                self.i += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| *c as char),
                self.i
            )),
        }
    }

    /// Array body after its `[`.
    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            if self.b.get(self.i) == Some(&b',') {
                self.i += 1;
            } else {
                break;
            }
        }
        self.eat(b']')?;
        Ok(Json::Arr(items))
    }

    /// Object body after its `{`.
    fn object(&mut self) -> Result<Json, String> {
        let mut pairs = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            pairs.push((k, self.value()?));
            self.ws();
            if self.b.get(self.i) == Some(&b',') {
                self.i += 1;
            } else {
                break;
            }
        }
        self.eat(b'}')?;
        Ok(Json::Obj(pairs))
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// Four hex digits starting at byte `at`, as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.b.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.i + 1)?;
                            self.i += 4;
                            let ch = match code {
                                // High surrogate: must pair with a following
                                // `\uDC00..=\uDFFF` low surrogate (JSON
                                // encodes astral-plane characters this way).
                                0xd800..=0xdbff => {
                                    if self.b.get(self.i + 1..self.i + 3) != Some(b"\\u") {
                                        return Err("lone high surrogate".into());
                                    }
                                    let low = self.hex4(self.i + 3)?;
                                    if !(0xdc00..=0xdfff).contains(&low) {
                                        return Err("lone high surrogate".into());
                                    }
                                    self.i += 6;
                                    let c = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(c).ok_or("bad surrogate pair")?
                                }
                                0xdc00..=0xdfff => return Err("lone low surrogate".into()),
                                _ => char::from_u32(code).ok_or("bad \\u escape")?,
                            };
                            out.push(ch);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape whole, so
                    // each byte is UTF-8-checked once (both stops are ASCII,
                    // so the run ends on a character boundary).
                    let start = self.i;
                    while self.b.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.i]);
                    out.push_str(run.map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_reparses() {
        let v = obj(&[
            ("experiment", "table2".into()),
            ("speedup", 1.4000000000000001f64.into()),
            ("n", 128u64.into()),
            ("tags", vec!["a", "b\"c"].into()),
            ("nested", obj(&[("ok", true.into()), ("none", Json::Null)])),
        ]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("n").unwrap().as_f64(), Some(128.0));
        assert_eq!(
            back.get("tags").unwrap().as_arr().unwrap()[1].as_str(),
            Some("b\"c")
        );
    }

    #[test]
    fn integers_render_clean() {
        assert_eq!(Json::from(3u64).render(), "3");
        assert_eq!(Json::from(0.5f64).render(), "0.5");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(-2i64).render(), "-2");
    }

    #[test]
    fn escapes_control_chars() {
        let s = Json::from("a\nb\t\"q\"\\\u{1}").render();
        assert_eq!(s, "\"a\\nb\\t\\\"q\\\"\\\\\\u0001\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("a\nb\t\"q\"\\\u{1}"));
    }

    #[test]
    fn instruction_text_region_names_round_trip() {
        // Tuner move logs embed disassembled instruction and control-code
        // text in region/move fields: brackets, dots, quotes, backslashes
        // and maxas-style `--:-:0:Y:4` prefixes must all survive a render →
        // parse → render cycle unchanged.
        for name in [
            "LDS.128 R32, [R70]",
            "--:-:0:Y:4  LDG.E.128 R4, [R2+0x10];",
            "01:-:2:Y:4",
            r#"region "main_loop" \ pass 2"#,
            "path\\to\\kernel \"ours\"",
        ] {
            let v = obj(&[("region", name.into()), ("cycles", 42u64.into())]);
            let text = v.render();
            let back = parse(&text).unwrap();
            assert_eq!(back.get("region").unwrap().as_str(), Some(name));
            assert_eq!(back.render(), text, "unstable render for {name:?}");
        }
    }

    #[test]
    fn surrogate_pairs_parse_and_lone_halves_fail() {
        // Astral-plane char via a JSON surrogate pair (external re-escapers
        // write these even though our renderer emits raw UTF-8).
        let escaped = "\"\\ud83d\\ude00\"";
        assert_eq!(parse(escaped).unwrap().as_str(), Some("\u{1f600}"));
        let embedded = "\"a\\ud83d\\ude00b\"";
        assert_eq!(parse(embedded).unwrap().as_str(), Some("a\u{1f600}b"));
        // Round trip through our own renderer (raw UTF-8 form).
        let v = Json::from("mark \u{1f600} end");
        assert_eq!(parse(&v.render()).unwrap(), v);
        // Lone or malformed halves are errors, not silent replacement.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
        assert!(parse(r#""\ud83d\ud83d""#).is_err());
    }

    #[test]
    fn parses_whitespace_and_empty() {
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{ }").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[1, 2,3]").unwrap().as_arr().unwrap().len(), 3);
        assert!(parse("[1,]2").is_err());
    }

    /// A tuned plan carries its cubin as a ~70 KB hex string; a string of
    /// several MiB must parse in one linear pass (per-character
    /// re-validation of the rest of the document made this quadratic).
    #[test]
    fn multi_mib_string_round_trips() {
        let chunk = "0123456789abcdef\"\\\nµ\u{1f600}";
        let long: String = chunk.repeat((4 << 20) / chunk.len());
        let v = obj(&[("cubin", long.as_str().into())]);
        let text = v.render();
        assert!(text.len() > 4 << 20);
        let start = std::time::Instant::now();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(
            start.elapsed().as_secs() < 10,
            "parse took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |d: usize| "[".repeat(d) + &"]".repeat(d);
        let objects = |d: usize| "{\"a\":".repeat(d) + "1" + &"}".repeat(d);
        for nested in [arrays, objects] {
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        }
        // Unclosed chains far past any stack: an error, not an overflow.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    /// The float half of the record contract: plans store `tflops`,
    /// `break_even_k` and `assumed_rps` as shortest-form numbers, and
    /// every finite `f64` — negative zero, subnormals, integral values
    /// past 2^53, random bit patterns — reads back with the same bits.
    #[test]
    fn finite_floats_round_trip_bit_exactly() {
        let mut samples = vec![
            0.0,
            -0.0,
            0.1,
            1.0 / 3.0,
            129.4375,
            -2.5e-8,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            8.999_999_999_999_999e15,
            9.0e15,
            (1u64 << 53) as f64 + 2.0,
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        while samples.len() < 100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f64::from_bits(x);
            if f.is_finite() {
                samples.push(f);
            }
        }
        for f in samples {
            let text = Json::from(f).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f:e} rendered as {text}");
        }
    }

    #[test]
    fn as_u64_accepts_only_exact_integers() {
        let two53 = (1u64 << 53) as f64;
        assert_eq!(Json::from(0u64).as_u64(), Some(0));
        assert_eq!(Json::Num(two53).as_u64(), Some(1 << 53));
        for bad in [-1.0, 1.5, two53 + 2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(Json::Num(bad).as_u64(), None, "{bad}");
        }
        assert_eq!(Json::from("7").as_u64(), None);
        assert_eq!(Json::Null.as_u64(), None);
    }

    #[test]
    fn hex_round_trips_and_rejects_malformed() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&bytes);
        assert_eq!(&hex[..8], "00010203");
        assert_eq!(from_hex(&hex), Some(bytes));
        assert_eq!(from_hex(""), Some(vec![]));
        for bad in ["0", "0g", "µµ", "+f", " 1"] {
            assert_eq!(from_hex(bad), None, "{bad:?}");
        }
    }
}
