//! The workspace's one JSON codec: a value model, a printer and a
//! depth-limited parser.
//!
//! Every artefact the workspace writes — `Report`s, `BENCH_*.json`,
//! blame and runtime reports, Chrome traces, lint and model-checker
//! output, JSONL event records — is built as a [`Json`] tree and
//! printed here, and every artefact read back (run store, baselines)
//! is parsed here. The workspace takes no serialisation dependency.
//!
//! * **Values.** Object members keep insertion order, so printed output
//!   is stable. Integers stay exact in [`Json::Int`]: schema versions,
//!   `Ratio` numerators and kernel counters never round-trip through
//!   floating point.
//! * **Two layouts.** [`Json::to_compact`] prints one line with no
//!   spaces (JSONL records, embedded fragments).
//!   [`Json::to_pretty`] prints files: a container holding a non-empty
//!   container breaks one member per line with two-space indentation;
//!   every other container stays on one line, `", "`-separated. Pretty
//!   members always read `"key": value` (colon, space), so
//!   `grep '"schema_version": 2'` works on every file.
//! * **Floats always look like floats** (`1.0`, not `1`), so a parsed
//!   document classifies each number exactly as its emitter typed it.
//!   Non-finite floats print as `null`.
//! * **Depth limit.** [`parse`] rejects documents nested deeper than
//!   [`MAX_DEPTH`] with an `Err`, so the recursive printer, the differ
//!   and `Drop` never meet a tree deep enough to overflow the stack.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. Real artefacts nest
/// about six levels; anything past this is rejected, not recursed into.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object member order is preserved so printed output is
/// stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional or exponent part, kept exact.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion (or source) order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

macro_rules! from_exact_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Int(i64::from(v))
            }
        }
    )*};
}
from_exact_int!(i32, i64, u16, u32);

impl From<u64> for Json {
    /// Exact up to `i64::MAX`; larger values (no counter gets there)
    /// degrade to a float rather than wrapping.
    fn from(v: u64) -> Self {
        #[allow(clippy::cast_precision_loss)]
        i64::try_from(v).map_or(Json::Float(v as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
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

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    #[must_use]
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to a value.
    #[must_use]
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `value` rounded to `places` decimals — for wall-clock figures
    /// whose trailing digits are noise.
    #[must_use]
    pub fn fixed(value: f64, places: usize) -> Json {
        Json::Float(format!("{value:.places$}").parse().unwrap_or(value))
    }

    /// An exact ratio as `{"num": n, "den": d}`.
    #[must_use]
    pub fn ratio(num: u64, den: u64) -> Json {
        Json::obj([("num", num.into()), ("den", den.into())])
    }

    /// Member lookup on objects; `None` on anything else.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as an exact integer, if it is one.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly enough for
    /// telemetry fields).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            #[allow(clippy::cast_precision_loss)]
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact single-line rendering: no spaces, no trailing newline.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// File rendering (see the [module docs](self)), newline-terminated.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn is_nonempty_container(&self) -> bool {
        match self {
            Json::Arr(items) => !items.is_empty(),
            Json::Obj(members) => !members.is_empty(),
            _ => false,
        }
    }

    /// `indent` is `None` for the compact layout, else the pretty
    /// layout's current nesting level.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            // Non-finite floats have no JSON spelling.
            Json::Null => out.push_str("null"),
            Json::Float(v) if !v.is_finite() => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            // `{:?}` is the shortest round-tripping form and always
            // carries a `.` or an exponent.
            Json::Float(v) => {
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, b"[]", items.iter().map(|v| (None, v)), indent),
            Json::Obj(members) => write_seq(
                out,
                b"{}",
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
                indent,
            ),
        }
    }
}

fn write_seq<'a, I>(out: &mut String, brackets: &[u8; 2], items: I, indent: Option<usize>)
where
    I: Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
{
    let pretty = indent.is_some();
    let broken = indent.filter(|_| items.clone().any(|(_, v)| v.is_nonempty_container()));
    out.push(char::from(brackets[0]));
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            out.push(',');
            if pretty && broken.is_none() {
                out.push(' ');
            }
        }
        if let Some(level) = broken {
            newline(out, level + 1);
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(if pretty { ": " } else { ":" });
        }
        v.write(out, broken.map(|level| level + 1).or(indent));
    }
    if let Some(level) = broken {
        newline(out, level);
    }
    out.push(char::from(brackets[1]));
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Write `s` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document. Errors carry a byte offset and a short
/// description; nothing in the input can make this panic or recurse
/// past [`MAX_DEPTH`].
///
/// # Errors
///
/// Returns a message when `src` is not a single well-formed JSON value
/// or nests deeper than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {}", self.pos, what)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// A value whose enclosing containers number `depth`.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            out.push(self.surrogate_tail(cp)?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the source is a &str, so the
                    // sequence is valid and complete; copy it through.
                    let start = self.pos - 1;
                    self.pos = start + utf8_len(b);
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// The character a `\u` escape decoded to `cp` denotes: a high
    /// surrogate followed by an escaped low one combines; any other
    /// surrogate degrades to the replacement character.
    fn surrogate_tail(&mut self, cp: u32) -> Result<char, String> {
        if (0xD800..0xDC00).contains(&cp) && self.bytes[self.pos..].starts_with(b"\\u") {
            let save = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'));
            }
            // Not a low half: leave it to be decoded on its own.
            self.pos = save;
        }
        Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = digits.iter().fold(0, |acc, &d| {
            acc * 16 + char::from(d).to_digit(16).unwrap_or(0)
        });
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_exactly() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn round_trips_real_artifacts() {
        let src = r#"{"schema_version": 2, "ratio": {"num": 4, "den": 5},
                      "lane_widths": [64, 128], "ok": true,
                      "name": "fig1 \"quoted\"", "t_ns": 12.75}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_int(), Some(2));
        assert_eq!(
            v.get("ratio").unwrap().get("num").unwrap().as_int(),
            Some(4)
        );
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "print→parse is a fixpoint");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "01x",
            "\"open",
            "{} trailing",
            "-",
            "\"\\u12\"",
            "\"\\u+123\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        // A high half followed by a non-low escape keeps both halves'
        // meaning instead of underflowing.
        assert_eq!(
            parse("\"\\ud800\\u0041\"").unwrap(),
            Json::Str("\u{FFFD}A".into())
        );
        assert_eq!(parse("\"\\udc00\"").unwrap(), Json::Str("\u{FFFD}".into()));
    }

    #[test]
    fn escapes_every_control_and_quote() {
        let v = Json::from("a\"b\\c\nd\te\u{1}·π→Ω");
        assert_eq!(v.to_compact(), r#""a\"b\\c\nd\te\u0001·π→Ω""#);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn floats_print_as_floats() {
        assert_eq!(Json::Float(1.0).to_compact(), "1.0");
        assert_eq!(Json::Float(0.8).to_compact(), "0.8");
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
        assert_eq!(Json::fixed(1.23456, 2), Json::Float(1.23));
        assert_eq!(
            parse(&Json::Float(1e300).to_compact()).unwrap(),
            Json::Float(1e300)
        );
        assert_eq!(Json::from(u64::MAX), Json::Float(u64::MAX as f64));
    }

    #[test]
    fn layouts() {
        let v = Json::obj([
            ("schema_version", Json::Int(2)),
            ("ratio", Json::ratio(4, 5)),
            ("empty", Json::Arr(Vec::new())),
            (
                "rows",
                Json::arr([Json::obj([
                    ("a", Json::Int(1)),
                    ("b", Json::Arr(Vec::new())),
                ])]),
            ),
        ]);
        assert_eq!(
            v.to_compact(),
            r#"{"schema_version":2,"ratio":{"num":4,"den":5},"empty":[],"rows":[{"a":1,"b":[]}]}"#
        );
        assert_eq!(
            v.to_pretty(),
            "{\n  \"schema_version\": 2,\n  \"ratio\": {\"num\": 4, \"den\": 5},\n  \
             \"empty\": [],\n  \"rows\": [\n    {\"a\": 1, \"b\": []}\n  ]\n}\n"
        );
        assert_eq!(Json::Obj(Vec::new()).to_pretty(), "{}\n");
    }

    #[test]
    fn depth_limit_is_exact_and_an_error() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
}
