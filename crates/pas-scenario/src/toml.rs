//! A small TOML reader for scenario manifests.
//!
//! The offline build cannot fetch the `toml` crate, so `pas-scenario`
//! carries its own reader for the subset of TOML the manifests use:
//!
//! * `[table]` and `[dotted.table]` headers, `[[array-of-tables]]`;
//! * `key = value` with bare or dotted keys;
//! * basic strings (with the common escapes), integers, floats, booleans,
//!   (possibly multi-line) arrays, and inline tables;
//! * `#` comments and arbitrary whitespace.
//!
//! Unsupported TOML (dates, multi-line strings, literal strings) fails with
//! a line-numbered error rather than parsing wrongly. Tables preserve key
//! insertion order so manifests expand deterministically.

use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Basic string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Array of values.
    Array(Vec<Value>),
    /// Table (from a header, inline syntax, or dotted keys).
    Table(Table),
}

impl Value {
    /// Numeric coercion: floats as-is, integers widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Integer accessor (rejects floats — seeds and counts must be exact).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Table accessor.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }
}

/// An order-preserving string→value map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    entries: Vec<(String, Value)>,
}

impl Table {
    /// Empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Insert; errors on duplicate keys (TOML forbids redefinition).
    pub fn insert(&mut self, key: &str, value: Value) -> Result<(), String> {
        if self.get(key).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
        self.entries.push((key.to_string(), value));
        Ok(())
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reject keys outside `allowed` — the manifest layer's typo guard.
    pub fn expect_only(&self, allowed: &[&str], section: &str) -> Result<(), ParseError> {
        for (k, _) in &self.entries {
            if !allowed.contains(&k.as_str()) {
                return Err(ParseError::at(
                    0,
                    format!(
                        "unknown key `{k}` in [{section}] (allowed: {})",
                        allowed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Walk (creating as needed) to the table at `path`.
    fn subtable_mut(&mut self, path: &[String], line: usize) -> Result<&mut Table, ParseError> {
        let mut cur = self;
        for part in path {
            if cur.get(part).is_none() {
                cur.entries.push((part.clone(), Value::Table(Table::new())));
            }
            cur = match cur.get_mut(part).unwrap() {
                Value::Table(t) => t,
                Value::Array(items) => match items.last_mut() {
                    Some(Value::Table(t)) => t,
                    _ => return Err(ParseError::at(line, format!("`{part}` is not a table"))),
                },
                _ => return Err(ParseError::at(line, format!("`{part}` is not a table"))),
            };
        }
        Ok(cur)
    }
}

/// A parse failure with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the failure (0 when unknown).
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl ParseError {
    /// Build an error at `line`.
    pub fn at(line: usize, msg: impl Into<String>) -> Self {
        ParseError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at(self.line, msg)
    }

    /// Skip spaces/tabs and comments on the current line.
    fn skip_inline_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while self.peek().is_some_and(|c| c != b'\n') {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Skip whitespace, comments and newlines.
    fn skip_all_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'\n') {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                self.describe_head()
            )))
        }
    }

    fn describe_head(&self) -> String {
        match self.peek() {
            None => "end of input".to_string(),
            Some(b'\n') => "end of line".to_string(),
            Some(b) => format!("`{}`", b as char),
        }
    }

    fn eol(&mut self) -> Result<(), ParseError> {
        self.skip_inline_ws();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err(format!("unexpected {} after value", self.describe_head()))),
        }
    }

    fn bare_key(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(format!("expected a key, found {}", self.describe_head())));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    /// `a.b.c` — one or more bare keys joined by dots.
    fn dotted_key(&mut self) -> Result<Vec<String>, ParseError> {
        let mut parts = vec![self.bare_key()?];
        while self.peek() == Some(b'.') {
            self.bump();
            parts.push(self.bare_key()?);
        }
        Ok(parts)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            if matches!(self.peek(), None | Some(b'\n')) {
                return Err(self.err("unterminated string"));
            }
            match self.bump() {
                None | Some(b'\n') => unreachable!("peeked above"),
                Some(b'"') => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8 in string"))
                }
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => self.unicode_escape(4, &mut out)?,
                    Some(b'U') => self.unicode_escape(8, &mut out)?,
                    other => {
                        return Err(self.err(format!(
                            "unsupported escape `\\{}`",
                            other.map(|b| b as char).unwrap_or(' ')
                        )))
                    }
                },
                // TOML forbids raw control characters in basic strings
                // (they must use escapes, which also keeps `to_toml`
                // round-trips lossless).
                Some(b) if (b < 0x20 && b != b'\t') || b == 0x7F => {
                    return Err(self.err(format!(
                        "control character 0x{b:02X} must be escaped in string"
                    )))
                }
                Some(b) => out.push(b),
            }
        }
    }

    /// The `digits` hex digits of a `\uXXXX` or `\UXXXXXXXX` escape,
    /// appended to `out` as UTF-8. Surrogates and values past U+10FFFF
    /// are not characters and are rejected.
    fn unicode_escape(&mut self, digits: usize, out: &mut Vec<u8>) -> Result<(), ParseError> {
        let hex = self
            .src
            .get(self.pos..self.pos + digits)
            .unwrap_or_default();
        if hex.len() < digits || !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err(format!("a unicode escape needs {digits} hex digits")));
        }
        let code = hex
            .iter()
            .fold(0u32, |n, &b| n << 4 | (b as char).to_digit(16).unwrap_or(0));
        let c = char::from_u32(code)
            .ok_or_else(|| self.err(format!("escape U+{code:X} is not a Unicode scalar value")))?;
        self.pos += digits;
        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        Ok(())
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let mut is_float = false;
        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = String::from_utf8_lossy(&self.src[start..self.pos]).replace('_', "");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("bad float `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("bad integer `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_inline_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    self.skip_all_ws();
                    if self.peek() == Some(b']') {
                        self.bump();
                        return Ok(Value::Array(items));
                    }
                    items.push(self.value()?);
                    self.skip_all_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b']') => {}
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.bump();
                let mut table = Table::new();
                loop {
                    self.skip_inline_ws();
                    if self.peek() == Some(b'}') {
                        self.bump();
                        return Ok(Value::Table(table));
                    }
                    let key = self.bare_key()?;
                    self.skip_inline_ws();
                    self.expect(b'=')?;
                    let v = self.value()?;
                    table.insert(&key, v).map_err(|e| self.err(e))?;
                    self.skip_inline_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.bump();
                        }
                        Some(b'}') => {}
                        _ => return Err(self.err("expected `,` or `}` in inline table")),
                    }
                }
            }
            Some(b't') | Some(b'f') => {
                let word = self.bare_key()?;
                match word.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    other => Err(self.err(format!("unexpected bare word `{other}`"))),
                }
            }
            Some(b) if b == b'+' || b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err(format!("expected a value, found {}", self.describe_head()))),
        }
    }
}

/// Parse a TOML document into its root table.
pub fn parse(src: &str) -> Result<Table, ParseError> {
    let mut cur = Cursor::new(src);
    let mut root = Table::new();
    let mut path: Vec<String> = Vec::new();
    loop {
        cur.skip_all_ws();
        match cur.peek() {
            None => return Ok(root),
            Some(b'[') => {
                cur.bump();
                let is_array = cur.peek() == Some(b'[');
                if is_array {
                    cur.bump();
                }
                cur.skip_inline_ws();
                let header = cur.dotted_key()?;
                cur.skip_inline_ws();
                cur.expect(b']')?;
                if is_array {
                    cur.expect(b']')?;
                }
                let line = cur.line;
                cur.eol()?;
                if is_array {
                    let (last, parents) = header.split_last().expect("non-empty header");
                    let parent = root.subtable_mut(parents, line)?;
                    match parent.get_mut(last) {
                        None => {
                            parent.entries.push((
                                last.clone(),
                                Value::Array(vec![Value::Table(Table::new())]),
                            ));
                        }
                        Some(Value::Array(items)) => items.push(Value::Table(Table::new())),
                        Some(_) => {
                            return Err(ParseError::at(
                                line,
                                format!("`{last}` redefined as array of tables"),
                            ))
                        }
                    }
                }
                path = header;
            }
            Some(_) => {
                let key_path = cur.dotted_key()?;
                cur.skip_inline_ws();
                cur.expect(b'=')?;
                let value = cur.value()?;
                let line = cur.line;
                cur.eol()?;
                let (last, key_parents) = key_path.split_last().expect("non-empty key");
                let mut full = path.clone();
                full.extend(key_parents.iter().cloned());
                let table = root.subtable_mut(&full, line)?;
                table
                    .insert(last, value)
                    .map_err(|e| ParseError::at(line, e))?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_sections() {
        let t = parse(
            r#"
            # top comment
            title = "hello \"world\""
            n = 42
            x = -1.5e2
            flag = true

            [sect]
            inner = 7
            [sect.sub]
            deep = 1.0
            "#,
        )
        .unwrap();
        assert_eq!(t.get("title").unwrap().as_str(), Some("hello \"world\""));
        assert_eq!(t.get("n").unwrap().as_int(), Some(42));
        assert_eq!(t.get("x").unwrap().as_f64(), Some(-150.0));
        assert_eq!(t.get("flag").unwrap().as_bool(), Some(true));
        let sect = t.get("sect").unwrap().as_table().unwrap();
        assert_eq!(sect.get("inner").unwrap().as_int(), Some(7));
        let sub = sect.get("sub").unwrap().as_table().unwrap();
        assert_eq!(sub.get("deep").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn arrays_multiline_and_nested() {
        let t =
            parse("xs = [1.0, 2.0,\n  4.0, # comment\n  8.0]\npts = [[0.0, 1.0], [2.0, 3.0]]\n")
                .unwrap();
        let xs = t.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 4);
        assert_eq!(xs[2].as_f64(), Some(4.0));
        let pts = t.get("pts").unwrap().as_array().unwrap();
        assert_eq!(pts[1].as_array().unwrap()[0].as_f64(), Some(2.0));
    }

    #[test]
    fn array_of_tables_and_inline() {
        let t = parse(
            r#"
            [[policies]]
            kind = "ns"
            [[policies]]
            kind = "pas"
            params = { max_sleep_s = 10.0, alert_threshold_s = 15.0 }
            "#,
        )
        .unwrap();
        let ps = t.get("policies").unwrap().as_array().unwrap();
        assert_eq!(ps.len(), 2);
        let pas = ps[1].as_table().unwrap();
        assert_eq!(pas.get("kind").unwrap().as_str(), Some("pas"));
        let params = pas.get("params").unwrap().as_table().unwrap();
        assert_eq!(params.get("max_sleep_s").unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn integers_do_not_coerce_to_strings() {
        let t = parse("seed = 20070910\n").unwrap();
        assert_eq!(t.get("seed").unwrap().as_int(), Some(20_070_910));
        assert_eq!(t.get("seed").unwrap().as_str(), None);
    }

    #[test]
    fn duplicate_key_rejected() {
        let err = parse("a = 1\na = 2\n").unwrap_err();
        assert!(err.msg.contains("duplicate"), "{err}");
    }

    #[test]
    fn unterminated_string_errors_with_line() {
        let err = parse("a = 1\nb = \"oops\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unicode_escapes_decode_and_non_characters_are_rejected() {
        let t = parse("a = \"\\u00e9\\U0001F600\\u0000\\u007F\\U0010FFFF\"\n").unwrap();
        assert_eq!(
            t.get("a").and_then(Value::as_str),
            Some("\u{e9}\u{1F600}\0\u{7f}\u{10FFFF}")
        );
        for bad in [
            "\\uD800", // surrogates are not characters
            "\\uDFFF",
            "\\U00110000", // past U+10FFFF
            "\\UFFFFFFFF",
            "\\u12", // too few digits before the quote
            "\\U0001F60",
            "\\u+123", // a sign is not a hex digit
            "\\u12G4",
        ] {
            let err = parse(&format!("a = \"{bad}\"\n")).unwrap_err();
            assert!(err.msg.contains("escape"), "{bad}: {err}");
        }
        assert!(parse("a = \"\\u00").is_err(), "escape cut by end of input");
    }

    #[test]
    fn junk_after_value_rejected() {
        assert!(parse("a = 1 2\n").is_err());
    }

    #[test]
    fn expect_only_flags_unknown_keys() {
        let t = parse("a = 1\nzz = 2\n").unwrap();
        let err = t.expect_only(&["a", "b"], "run").unwrap_err();
        assert!(err.msg.contains("unknown key `zz`"), "{err}");
    }

    #[test]
    fn dotted_keys_create_tables() {
        let t = parse("a.b.c = 3\n").unwrap();
        let c = t
            .get("a")
            .unwrap()
            .as_table()
            .unwrap()
            .get("b")
            .unwrap()
            .as_table()
            .unwrap()
            .get("c")
            .unwrap();
        assert_eq!(c.as_int(), Some(3));
    }
}
