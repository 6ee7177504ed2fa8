//! The workspace's one JSON value type, with a hand-rolled parser and
//! printer.
//!
//! The workspace builds offline, so JSON goes without serde: a
//! recursive-descent parser plus a compact and a pretty printer. It lives
//! in this leaf crate so every layer shares it — `hc-serve` speaks it on
//! the wire, `perfsnap` and `loadgen` write `BENCH_sim.json` with it,
//! [`crate::trace`] writes Chrome traces with it, [`crate::metrics`]
//! snapshots into it, and `tracecheck` and `benchgate` read with it.
//!
//! Parsing untrusted text never panics and never recurses without bound:
//! nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts (serde_json's
/// default). The parser recurses once per level, so the bound is what keeps
/// a hostile `[[[[…` body from overflowing a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integer from float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved (readability of emitted
    /// bodies); lookup is linear, which is fine at protocol sizes.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer: a number that is finite,
    /// integral and in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n)).then_some(n as u64)
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Inserts or replaces a top-level object field (promoting a
    /// non-object to an empty object first) — the `BENCH_sim.json`
    /// merge primitive.
    pub fn set(&mut self, key: &str, value: Json) {
        if !matches!(self, Json::Obj(_)) {
            *self = Json::Obj(Vec::new());
        }
        if let Json::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_owned(), value)),
            }
        }
    }

    /// Renders with two-space indentation, one object key or array
    /// element per line, and a trailing newline — the layout of the
    /// checked-in `BENCH_sim.json`, so a diff between two runs shows one
    /// changed figure per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.pretty_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => {
                use fmt::Write as _;
                let _ = write!(out, "{other}");
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Compact single-line rendering (the wire format).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no Infinity/NaN; null is the least-bad spelling.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                write_string(&mut out, s);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    write_string(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
#[macro_export]
macro_rules! jobj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![
            $(($key.to_string(), $crate::json::Json::from($value)),)*
        ])
    };
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogates are replaced rather than paired;
                            // the protocol never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x80 => {
                    if c < 0x20 {
                        return Err(format!("raw control byte in string at {}", self.pos));
                    }
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str and `pos` only
                    // ever advances by whole characters, so this decodes
                    // one character without rescanning the rest.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or("invalid utf-8 in string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // Out-of-range literals (`1e999`) would parse to infinity, which
        // JSON cannot spell; they are rejected rather than printed as null.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_and_pretty() {
        let src = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        let compact = v.to_string();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"a\": 1"), "{pretty}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let doc = Json::parse(r#"{"a": "x\"\\\nA", "b": [-1.5e2, 0, 3]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_str), Some("x\"\\\nA"));
        let items = doc.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(items[0].as_f64(), Some(-150.0));
        assert_eq!(items[2].as_f64(), Some(3.0));
    }

    #[test]
    fn escapes_survive_a_roundtrip() {
        let v = Json::Str("tab\t quote\" slash\\ nl\n ctl\u{1}".to_owned());
        let enc = v.to_string();
        assert_eq!(Json::parse(&enc).unwrap(), v);
    }

    #[test]
    fn integers_print_without_exponent_or_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(-12.0).to_string(), "-12");
    }

    #[test]
    fn set_inserts_and_replaces_keys() {
        let mut v = Json::parse(r#"{"keep": 1, "swap": 2}"#).unwrap();
        v.set("swap", Json::from(9u64));
        v.set("new", Json::from("x"));
        assert_eq!(v.get("keep").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("swap").and_then(Json::as_u64), Some(9));
        assert_eq!(v.get("new").and_then(Json::as_str), Some("x"));
        let mut not_obj = Json::Null;
        not_obj.set("a", Json::from(true));
        assert_eq!(not_obj.get("a").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |open: &str, leaf: &str, close: &str, n: usize| {
            open.repeat(n) + leaf + &close.repeat(n)
        };
        assert!(Json::parse(&nested("[", "", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"k\":", "1", "}", MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested("[", "", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        assert!(Json::parse(&nested("{\"k\":", "1", "}", MAX_DEPTH + 1)).is_err());
        // Depth is the number of levels open at once, not the total count.
        let wide = format!(
            "[{}]",
            vec![nested("[", "", "]", MAX_DEPTH - 1); 3].join(",")
        );
        assert!(Json::parse(&wide).is_ok());
    }

    /// A hostile body of unclosed brackets must come back as an error on a
    /// default-sized (2 MiB) thread stack instead of overflowing it.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let text = "[".repeat(100_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&text))
            .expect("spawn")
            .join()
            .expect("parser thread survives");
        assert!(result.unwrap_err().starts_with("nesting deeper than 128"));
    }

    #[test]
    fn out_of_range_numbers_are_rejected() {
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("[-1e400]").is_err());
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    #[test]
    fn multibyte_strings_decode() {
        let v = Json::parse("\"h\u{e9}llo \u{1f600} \u{4e2d}\"").unwrap();
        assert_eq!(v.as_str(), Some("h\u{e9}llo \u{1f600} \u{4e2d}"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    mod never_panics {
        use super::Json;
        use proptest::prelude::*;

        /// The characters that steer the parser into its nesting, string,
        /// escape and number paths.
        const STEERING: &[u8] = b"[]{}\"\\:, 0123456789-.eEu";

        fn byte() -> impl Strategy<Value = u8> {
            prop_oneof![
                (0..STEERING.len()).prop_map(|i| STEERING[i]),
                (0..STEERING.len()).prop_map(|i| STEERING[i]),
                (0..STEERING.len()).prop_map(|i| STEERING[i]),
                any::<u8>(),
            ]
        }

        /// Random documents up to `.0` levels deep: every value kind,
        /// numbers over the whole finite `f64` range, strings with escapes
        /// and multi-byte characters, and repeated keys.
        struct AnyJson(usize);

        impl Strategy for AnyJson {
            type Value = Json;

            fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> Json {
                let kinds = if self.0 == 0 { 4u8 } else { 6 };
                let len = |rng: &mut _| (0usize..4).sample(rng);
                match (0..kinds).sample(rng) {
                    0 => Json::Null,
                    1 => Json::Bool(any::<bool>().sample(rng)),
                    2 => Json::Num(match (0u8..3).sample(rng) {
                        0 => (-1_000_000i64..1_000_000).sample(rng) as f64,
                        1 => (-1e6..1e6).sample(rng),
                        _ => Some(f64::from_bits(any::<u64>().sample(rng)))
                            .filter(|n| n.is_finite())
                            .unwrap_or(0.5),
                    }),
                    3 => Json::Str(text(rng)),
                    4 => Json::Arr(
                        (0..len(rng))
                            .map(|_| AnyJson(self.0 - 1).sample(rng))
                            .collect(),
                    ),
                    _ => Json::Obj(
                        (0..len(rng))
                            .map(|_| (text(rng), AnyJson(self.0 - 1).sample(rng)))
                            .collect(),
                    ),
                }
            }
        }

        fn text(rng: &mut proptest::test_runner::TestRng) -> String {
            const CHARS: &[char] = &[
                'a', 'k', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '中', '😀',
            ];
            (0..(0usize..6).sample(rng))
                .map(|_| CHARS[(0..CHARS.len()).sample(rng)])
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]
            #[test]
            fn printed_documents_parse_back_unchanged(v in AnyJson(4)) {
                prop_assert_eq!(Json::parse(&v.to_string()), Ok(v.clone()));
                prop_assert_eq!(Json::parse(&v.pretty()), Ok(v));
            }

            #[test]
            fn parse_returns_and_accepted_values_round_trip(
                bytes in proptest::collection::vec(byte(), 0..48)
            ) {
                let text = String::from_utf8_lossy(&bytes);
                if let Ok(v) = Json::parse(&text) {
                    prop_assert_eq!(Json::parse(&v.to_string()), Ok(v.clone()));
                    prop_assert_eq!(Json::parse(&v.pretty()), Ok(v));
                }
            }

            #[test]
            fn bracket_runs_of_any_depth_are_rejected_or_parsed(
                depth in 0usize..400, close in any::<bool>()
            ) {
                let mut text = "[".repeat(depth);
                if close {
                    text.push_str(&"]".repeat(depth));
                }
                let parsed = Json::parse(&text);
                prop_assert_eq!(parsed.is_ok(), close && (1..=super::MAX_DEPTH).contains(&depth));
            }
        }
    }
}
