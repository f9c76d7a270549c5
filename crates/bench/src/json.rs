//! A minimal JSON reader and writer for the harness's own `BENCH_*.json`
//! artifacts.
//!
//! The build environment has no crates.io access, so the artifact
//! experiments build their records as [`Json`] values, `repro` writes them
//! through [`Json`]'s `Display`, and the regression gate
//! ([`crate::gate`]) parses them back with the recursive-descent parser
//! here instead of `serde_json`. The parser accepts standard JSON (objects,
//! arrays, strings with the common escapes, numbers, booleans, null).

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, which is exact for the magnitudes the
    /// bench artifacts contain).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its members in insertion order. Duplicate keys are kept;
    /// [`Json::get`] reads the last one, like most parsers.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("end of input"));
        }
        Ok(value)
    }

    /// An object with the given members, in order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
    }

    /// `value` rounded to `decimals` places, the number a `{:.N}` format
    /// would have written.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::Num(format!("{value:.decimals$}").parse().expect("a formatted float parses"))
    }

    /// Member access on objects (`None` on other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dotted path: object keys, or element indices of
    /// arrays (`runs.1.speedup`). `None` if any step is missing.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, step| match node {
            Json::Arr(items) => items.get(step.parse::<usize>().ok()?),
            _ => node.get(step),
        })
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes `self` at nesting `depth`: the top-level object and the arrays
    /// and objects directly inside it put one member per line (two-space
    /// indent), deeper values stay on one line.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, entries): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            // Rust prints the shortest decimal that parses back to the same
            // `f64`, never in exponent form; JSON has no NaN or infinity.
            Json::Num(n) if n.is_finite() => return write!(f, "{n}"),
            Json::Num(_) => return f.write_str("null"),
            Json::Str(s) => return write_string(f, s),
            Json::Arr(items) => ("[", "]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => ("{", "}", members.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let multiline = depth < 2 && !entries.is_empty();
        let newline = |depth: usize| {
            if multiline {
                format!("\n{}", "  ".repeat(depth))
            } else {
                String::new()
            }
        };
        f.write_str(open)?;
        for (i, (key, value)) in entries.into_iter().enumerate() {
            if i > 0 {
                f.write_str(if multiline { "," } else { ", " })?;
            }
            f.write_str(&newline(depth + 1))?;
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        f.write_str(&newline(depth))?;
        f.write_str(close)
    }
}

/// Writes `s` as a JSON string literal.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// The artifact layout: one top-level member per line, and one array element
/// per line below it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! json_from {
    ($($source:ty => |$v:ident| $make:expr),* $(,)?) => {
        $(impl From<$source> for Json {
            fn from($v: $source) -> Json {
                $make
            }
        })*
    };
}

json_from! {
    bool => |b| Json::Bool(b),
    u64 => |n| Json::Num(n as f64),
    usize => |n| Json::Num(n as f64),
    u32 => |n| Json::Num(f64::from(n)),
    &str => |s| Json::Str(s.to_owned()),
    Vec<Json> => |items| Json::Arr(items),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError { at: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "'{'")?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':', "':' after object key")?;
            self.skip_whitespace();
            members.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.error("escape character"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("four hex digits"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the bench
                            // artifacts; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.error("a valid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.error("valid UTF-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.error("a character"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("a number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError { at: start, message: "a number" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_artifact_shape() {
        let doc = r#"{
          "experiment": "parallel_speedup",
          "bit_identical": true,
          "runs": [
            {"threads": 1, "seconds": 0.25, "speedup": 1.0},
            {"threads": 2, "seconds": 0.125, "speedup": 2.0}
          ]
        }"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.get("experiment").unwrap().as_str(), Some("parallel_speedup"));
        assert_eq!(json.get("bit_identical").unwrap().as_bool(), Some(true));
        let runs = json.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("speedup").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e-1").unwrap(), Json::Num(-1.25));
        assert_eq!(Json::parse(r#""a\"b\nA""#).unwrap(), Json::Str("a\"b\nA".to_owned()));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(Vec::new()));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(Vec::new()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parses_exponent_forms_the_gate_depends_on() {
        // The bench artifacts carry %.6f/%.3f-formatted floats today, but the
        // gate must not silently misread a writer that switches to shortest
        // round-trip formatting (which produces exponents for small ratios).
        for (text, value) in [
            ("1e-3", 1e-3),
            ("2.5e-2", 2.5e-2),
            ("-4E-7", -4e-7),
            ("1.25e+3", 1.25e3),
            ("9e0", 9.0),
            ("0.000001", 1e-6),
            ("-0.0", -0.0),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(value), "{text}");
        }
        // Exponents nested inside the artifact shape.
        let doc = r#"{"speedup_vs_cold": 3.3e0, "noise": -1.2e-4}"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.get("speedup_vs_cold").unwrap().as_f64(), Some(3.3));
        assert_eq!(json.get("noise").unwrap().as_f64(), Some(-1.2e-4));
    }

    #[test]
    fn parses_escaped_strings_in_keys_and_values() {
        let doc = r#"{"a\"b": "tab\there", "uni": "Aé", "slash": "a\/b\\c"}"#;
        let json = Json::parse(doc).unwrap();
        assert_eq!(json.get("a\"b").unwrap().as_str(), Some("tab\there"));
        assert_eq!(json.get("uni").unwrap().as_str(), Some("Aé"));
        assert_eq!(json.get("slash").unwrap().as_str(), Some("a/b\\c"));
        // Control escapes round through.
        assert_eq!(
            Json::parse(r#""\b\f\n\r\t""#).unwrap(),
            Json::Str("\u{8}\u{c}\n\r\t".to_owned())
        );
        // Truncated or unknown escapes are rejected, not mangled.
        for bad in [r#""\x""#, r#""\u00""#, r#""\"#, r#""\u00zz""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parses_deeply_nested_arrays() {
        // The recursive-descent parser must survive nesting far beyond
        // anything the artifacts contain (they nest 2 deep).
        let depth = 200;
        let doc = format!("{}7{}", "[".repeat(depth), "]".repeat(depth));
        let mut node = Json::parse(&doc).unwrap();
        for _ in 0..depth {
            let Json::Arr(items) = node else { panic!("expected an array") };
            assert_eq!(items.len(), 1);
            node = items.into_iter().next().unwrap();
        }
        assert_eq!(node, Json::Num(7.0));
        // Mixed deep object/array nesting.
        let doc = format!("{}[0]{}", r#"{"k":"#.repeat(50), "}".repeat(50));
        assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn rejects_trailing_garbage() {
        // A truncated artifact concatenated with a fresh write (the exact
        // failure mode of an interrupted bench run re-appending) must fail
        // loudly rather than silently yield the first document.
        for bad in [
            "{\"a\": 1}{\"a\": 2}",
            "[1, 2] [3]",
            "true false",
            "1.5 2.5",
            "{\"bit_identical\": true} garbage",
            "null,",
            "[]]",
            "{} }",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Trailing whitespace (including newlines from `format!` writers) is
        // fine — only non-whitespace garbage is an error.
        assert!(Json::parse("{\"a\": 1}\n\t ").is_ok());
    }

    #[test]
    fn accessors_return_none_on_wrong_variants() {
        let json = Json::parse("[1]").unwrap();
        assert!(json.get("x").is_none());
        assert!(json.as_f64().is_none());
        assert!(json.as_bool().is_none());
        assert!(json.as_str().is_none());
        assert_eq!(json.as_array().unwrap().len(), 1);
    }

    #[test]
    fn committed_artifacts_round_trip_through_the_writer() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut artifacts = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            if name.starts_with("BENCH_") && path.extension().is_some_and(|e| e == "json") {
                let value = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
                assert_eq!(Json::parse(&value.to_string()).unwrap(), value, "{name}");
                artifacts += 1;
            }
        }
        assert!(artifacts >= 9, "only {artifacts} BENCH_*.json files at the root");
    }

    #[test]
    fn escapes_numbers_and_nesting_round_trip() {
        let run = |n: f64| Json::obj([("n", Json::Num(n)), ("tag", "a\"b\\c\n\t\r\u{1}é/".into())]);
        let value = Json::obj([
            ("text", "quote \" backslash \\ newline \n tab \t control \u{1f} end".into()),
            ("negative", Json::Num(-12.5)),
            ("fraction", Json::Num(0.000123)),
            ("tiny", Json::Num(-4e-7)),
            ("huge", Json::Num(1.25e21)),
            ("integer", 9007199254740991u64.into()),
            ("empty", Json::Arr(Vec::new())),
            ("runs", vec![run(1.0), run(-0.25), Json::Obj(Vec::new())].into()),
            ("nested", vec![Json::obj([("inner", vec![run(2.5), Json::Null].into())])].into()),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value, "{text}");
    }

    #[test]
    fn writes_the_artifact_layout() {
        let value = Json::obj([
            ("experiment", "degrade_under_pressure".into()),
            ("ladder_availability", Json::fixed(1.0, 6)),
            ("strict_availability", Json::fixed(0.25, 6)),
            ("none", Json::Arr(Vec::new())),
            (
                "rungs",
                vec![Json::obj([("rung", "AdaBan".into()), ("answers", 3u64.into())])].into(),
            ),
        ]);
        let expected = "{\n  \"experiment\": \"degrade_under_pressure\",\n  \
                        \"ladder_availability\": 1,\n  \"strict_availability\": 0.25,\n  \
                        \"none\": [],\n  \"rungs\": [\n    {\"rung\": \"AdaBan\", \"answers\": 3}\n  \
                        ]\n}";
        assert_eq!(value.to_string(), expected);
    }

    #[test]
    fn fixed_rounds_like_the_format_it_replaces() {
        for (value, decimals) in [(0.995_499_4, 6), (0.833_333_3, 4), (2_980.263_49, 3), (1.0, 4)] {
            let text = format!("{value:.decimals$}");
            assert_eq!(Json::fixed(value, decimals), Json::parse(&text).unwrap(), "{text}");
        }
        assert_eq!(Json::fixed(1.0, 4), Json::Num(1.0));
    }

    #[test]
    fn dotted_paths_reach_members_and_elements() {
        let json = Json::parse(r#"{"runs": [{"s": 1}, {"s": 2}], "a": {"b": true}}"#).unwrap();
        assert_eq!(json.at("runs.1.s"), Some(&Json::Num(2.0)));
        assert_eq!(json.at("a.b"), Some(&Json::Bool(true)));
        for missing in ["runs.2.s", "runs.x", "a.b.c", "absent", "runs.-1"] {
            assert_eq!(json.at(missing), None, "{missing}");
        }
        let duplicate = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(duplicate.get("k"), Some(&Json::Num(2.0)));
    }
}
