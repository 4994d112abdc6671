//! The workspace's one JSON value type: a recursive-descent parser
//! and a deterministic renderer.
//!
//! The workspace is serde-free by policy (the build is offline).
//! [`Value`] is what every reader parses into — `ssr-report`'s typed
//! readers, the `ssr-analyze` validator, checkpoint replay, the
//! service's campaign specs — and, re-exported as
//! `ssr_campaign::output::Json`, what the campaign records, the
//! checkpoint journal and the experiment result files are rendered
//! from. The remaining hand-rolled emitters (metrics snapshots, trace
//! lines, history lines, `ANALYSIS.json`) share its string escaper,
//! [`crate::metrics::json_string`].
//!
//! Integers are preserved exactly: a numeric token without `.`/`e`
//! parses into [`Value::U64`]/[`Value::I64`], so 64-bit seeds and
//! nano counters survive a write→parse round trip bit-for-bit
//! (pinned by proptests in `ssr-report`). Objects keep insertion
//! order, matching the deterministic key order of the writers.
//!
//! The parser takes outside input (the service parses every request
//! body with it), so it never recurses deeper than [`MAX_DEPTH`]
//! arrays and objects — a deeper document is an `Err`, not a stack
//! overflow — and its cost is linear in the input's length.

use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the stack writes (`ANALYSIS.json`) nests 7 levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token (no fraction/exponent).
    U64(u64),
    /// A negative integer token (no fraction/exponent).
    I64(i64),
    /// Any other numeric token.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` members, in the given order.
    pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The member of an object under `key`, if this is an object and
    /// the key is present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer (exact: integer tokens only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as any number, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

impl fmt::Display for Value {
    /// Compact, deterministic JSON: no whitespace, object members in
    /// insertion order, floats in Rust's shortest round-trip form
    /// (`null` when not finite), strings escaped by
    /// [`crate::metrics::json_string`]. Campaign records are rendered
    /// here, so the campaign golden files pin this layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) if v.is_finite() => write!(f, "{v}"),
            Value::F64(_) => write!(f, "null"),
            Value::Str(s) => write!(f, "{}", crate::metrics::json_string(s)),
            Value::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", crate::metrics::json_string(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing content rejected).
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// Parses a JSON-Lines document: one value per non-empty line, with
/// 1-based line numbers in errors.
pub fn parse_jsonl(text: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Checked accessors — shared vocabulary for schema validators, with
// `what`-labelled errors ("families[3].graphs[0].nodes must be ...").
// ---------------------------------------------------------------------

/// `v` as an object, or a labelled error.
pub fn obj<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], String> {
    v.as_obj()
        .ok_or_else(|| format!("{what} must be an object, got {}", v.kind()))
}

/// `v` as an array, or a labelled error.
pub fn arr<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], String> {
    v.as_arr()
        .ok_or_else(|| format!("{what} must be an array, got {}", v.kind()))
}

/// Member `key` of object `v`, or a labelled error.
pub fn field<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    obj(v, what)?;
    v.get(key)
        .ok_or_else(|| format!("{what}: missing key `{key}`"))
}

/// Member `key` as a string.
pub fn str_field(v: &Value, key: &str, what: &str) -> Result<String, String> {
    field(v, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}.{key} must be a string"))
}

/// Member `key` as a boolean.
pub fn bool_field(v: &Value, key: &str, what: &str) -> Result<bool, String> {
    field(v, key, what)?
        .as_bool()
        .ok_or_else(|| format!("{what}.{key} must be a boolean"))
}

/// Member `key` as any number.
pub fn num_field(v: &Value, key: &str, what: &str) -> Result<f64, String> {
    field(v, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}.{key} must be a number"))
}

/// Member `key` as an unsigned integer (exact).
pub fn u64_field(v: &Value, key: &str, what: &str) -> Result<u64, String> {
    field(v, key, what)?
        .as_u64()
        .ok_or_else(|| format!("{what}.{key} must be an unsigned integer"))
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            // Exact integers: u64 for non-negative, i64 for negative —
            // seeds and counters round-trip without f64 truncation.
            // `-0` has no integer form, so it stays the float it was.
            if let Some(rest) = s.strip_prefix('-') {
                if let Ok(v) = rest.parse::<u64>() {
                    if (1..=i64::MAX as u64 + 1).contains(&v) {
                        return Ok(Value::I64((v as i128).wrapping_neg() as i64));
                    }
                }
            } else if let Ok(v) = s.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        s.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, in one
                    // piece: both are ASCII, so the run ends on a char
                    // boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_exactly() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse("true"), Ok(Value::Bool(true)));
        assert_eq!(parse("0"), Ok(Value::U64(0)));
        assert_eq!(
            parse("18446744073709551615"),
            Ok(Value::U64(u64::MAX)),
            "u64::MAX must not go through f64"
        );
        assert_eq!(parse("-3"), Ok(Value::I64(-3)));
        assert_eq!(
            parse("-9223372036854775808"),
            Ok(Value::I64(i64::MIN)),
            "i64::MIN is a valid integer token"
        );
        assert_eq!(parse("1.5"), Ok(Value::F64(1.5)));
        assert_eq!(parse("2e3"), Ok(Value::F64(2000.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".into())));
    }

    #[test]
    fn objects_keep_document_order() {
        let v = parse("{\"z\":1,\"a\":2}").unwrap();
        let members = v.as_obj().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a"), Some(&Value::U64(2)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn jsonl_skips_blank_lines_and_numbers_errors() {
        let vals = parse_jsonl("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(vals.len(), 2);
        let err = parse_jsonl("{\"a\":1}\nnope\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn checked_accessors_label_errors() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"b\":true}").unwrap();
        assert_eq!(u64_field(&v, "n", "doc"), Ok(3));
        assert_eq!(str_field(&v, "s", "doc"), Ok("x".to_string()));
        assert_eq!(bool_field(&v, "b", "doc"), Ok(true));
        assert!(num_field(&v, "s", "doc").unwrap_err().contains("doc.s"));
        assert!(field(&v, "gone", "doc").unwrap_err().contains("`gone`"));
        assert!(obj(&Value::Null, "doc").is_err());
        assert!(arr(&Value::Null, "doc").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // Far past the bound, on a thread with the default spawned-thread
        // stack (the service's connection threads): an error, not a
        // stack overflow.
        std::thread::spawn(|| {
            assert!(parse(&"[".repeat(100_000)).is_err());
            assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        })
        .join()
        .expect("deep documents must not overflow the stack");
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // A string as long as the service's body cap: re-validating the
        // rest of the input at every character costs seconds per MiB.
        let text = format!("\"{}\"", "a".repeat(1 << 20));
        let started = std::time::Instant::now();
        let v = parse(&text).unwrap();
        assert_eq!(v.as_str().map(str::len), Some(1 << 20));
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs() < 2, "a 1 MiB string took {elapsed:?}");
    }

    #[test]
    fn negative_zero_stays_a_float() {
        let v = parse("-0").unwrap();
        assert!(matches!(v, Value::F64(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(v.to_string(), "-0");
        assert_eq!(parse("-1"), Ok(Value::I64(-1)));
    }

    #[test]
    fn display_round_trips_structure() {
        let v = parse("{\"a\":[1,-2,1.5,null,true,\"s\"]}").unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }
}
