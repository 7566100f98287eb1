//! The workspace's one JSON codec. Writers keep their format strings and
//! quote strings with [`quote`]; readers [`parse`] a whole document into
//! a [`Json`] view of its text. The view builds no tree: accessors walk
//! the validated text on demand, so decoding allocates only the strings
//! asked for, numbers stay exact, and [`Json::raw`] returns a value
//! verbatim.

/// Deepest nesting [`parse`] accepts; it bounds the validator's recursion.
pub const MAX_DEPTH: usize = 64;

/// Quote `raw` as a JSON string: `"` and `\` escaped, newline, carriage
/// return and tab by name, other control characters as `\u00XX`, the
/// rest verbatim.
pub fn quote(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Validate `text` as one JSON value (RFC 8259, whitespace around it
/// allowed); `None` when it is not, or nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Option<Json<'_>> {
    let b = text.as_bytes();
    let start = skip_ws(b, 0);
    let end = value(text, start, 0)?;
    let raw = &text[start..end];
    (skip_ws(b, end) == b.len()).then_some(Json { raw })
}

/// A validated JSON value: a view of its source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Json<'a> {
    raw: &'a str,
}

impl<'a> Json<'a> {
    /// The value's source text.
    pub fn raw(&self) -> &'a str {
        self.raw
    }

    /// Member `key` of an object (the first, if it repeats).
    pub fn get(&self, key: &str) -> Option<Json<'a>> {
        self.entries(b'{')
            .find_map(|(k, v)| k?.is_str(key).then_some(v))
    }

    /// The elements of an array; none for any other value.
    pub fn items(&self) -> impl Iterator<Item = Json<'a>> {
        self.entries(b'[').map(|(_, v)| v)
    }

    /// The members of an object, keys decoded; none for any other value.
    pub fn members(&self) -> impl Iterator<Item = (String, Json<'a>)> {
        self.entries(b'{')
            .filter_map(|(k, v)| Some((k?.as_str()?, v)))
    }

    /// A number written as plain digits that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        let digits = self.raw.bytes().all(|c| c.is_ascii_digit());
        digits.then(|| self.raw.parse().ok()).flatten()
    }

    /// Any number, to the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        let number = matches!(self.raw.as_bytes()[0], b'-' | b'0'..=b'9');
        number.then(|| self.raw.parse().ok()).flatten()
    }

    /// `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        self.raw.parse().ok()
    }

    /// A string, escapes decoded.
    pub fn as_str(&self) -> Option<String> {
        let mut out = String::new();
        string(self.raw, 0, Some(&mut out)).map(|_| out)
    }

    /// Whether this is the string `s`; allocates only for escapes.
    fn is_str(&self, s: &str) -> bool {
        match self.raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
            Some(inner) if !inner.contains('\\') => inner == s,
            _ => self.as_str().as_deref() == Some(s),
        }
    }

    /// `(key, value)` per member of an object (`open` is `{`), `(None,
    /// value)` per element of an array (`[`); nothing for other values.
    fn entries(&self, open: u8) -> impl Iterator<Item = (Option<Json<'a>>, Json<'a>)> {
        let (text, b) = (self.raw, self.raw.as_bytes());
        let mut at = if b[0] == open { 1 } else { b.len() };
        std::iter::from_fn(move || {
            let mut i = skip_ws(b, at);
            if *b.get(i)? == b',' {
                i = skip_ws(b, i + 1);
            }
            // The closing bracket is neither a string nor a value, so the
            // scans below end the walk there.
            let mut key = None;
            if open == b'{' {
                let end = string(text, i, None)?;
                key = Some(Json { raw: &text[i..end] });
                i = skip_ws(b, skip_ws(b, end) + 1);
            }
            at = value(text, i, 0)?;
            Some((key, Json { raw: &text[i..at] }))
        })
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        i += 1;
    }
    i
}

/// Validate the value at `i`; the index just past it.
fn value(s: &str, i: usize, depth: usize) -> Option<usize> {
    let b = s.as_bytes();
    let word = |w: &[u8]| b[i..].starts_with(w).then_some(i + w.len());
    match *b.get(i)? {
        b'{' | b'[' if depth < MAX_DEPTH => container(s, i, depth + 1),
        b'"' => string(s, i, None),
        b't' => word(b"true"),
        b'f' => word(b"false"),
        b'n' => word(b"null"),
        b'-' | b'0'..=b'9' => number(b, i),
        _ => None,
    }
}

fn container(s: &str, i: usize, depth: usize) -> Option<usize> {
    let b = s.as_bytes();
    let close = if b[i] == b'{' { b'}' } else { b']' };
    let mut j = skip_ws(b, i + 1);
    if b.get(j) == Some(&close) {
        return Some(j + 1);
    }
    loop {
        if close == b'}' {
            j = skip_ws(b, string(s, j, None)?);
            j = skip_ws(b, (b.get(j) == Some(&b':')).then_some(j + 1)?);
        }
        j = skip_ws(b, value(s, j, depth)?);
        match *b.get(j)? {
            b',' => j = skip_ws(b, j + 1),
            c if c == close => return Some(j + 1),
            _ => return None,
        }
    }
}

fn number(b: &[u8], i: usize) -> Option<usize> {
    // At least one digit from `i`; the index past the run.
    let digits = |i: usize| {
        Some(i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count()).filter(|&end| end > i)
    };
    let i = i + usize::from(b[i] == b'-');
    // A leading zero stands alone.
    let mut j = if b.get(i) == Some(&b'0') {
        i + 1
    } else {
        digits(i)?
    };
    if b.get(j) == Some(&b'.') {
        j = digits(j + 1)?;
    }
    if matches!(b.get(j), Some(b'e' | b'E')) {
        j = digits(j + 1 + usize::from(matches!(b.get(j + 1), Some(b'+' | b'-'))))?;
    }
    Some(j)
}

/// Scan the string opening at `i`, decoding it into `out` when given;
/// the index past its closing quote.
fn string(s: &str, i: usize, mut out: Option<&mut String>) -> Option<usize> {
    let b = s.as_bytes();
    let mut j = (b.get(i) == Some(&b'"')).then_some(i + 1)?;
    loop {
        // A run of plain characters ends at a quote, a backslash, or a
        // control character, which JSON forbids unescaped.
        let run = j;
        j += b[j..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)?;
        if let Some(o) = &mut out {
            o.push_str(&s[run..j]);
        }
        if b[j] != b'\\' {
            return (b[j] == b'"').then_some(j + 1);
        }
        let (c, next) = escape(b, j + 1)?;
        if let Some(o) = &mut out {
            o.push(c);
        }
        j = next;
    }
}

/// The escape after a backslash, at `i`: its character and end.
fn escape(b: &[u8], i: usize) -> Option<(char, usize)> {
    let c = match *b.get(i)? {
        b'u' => {
            let hi = hex4(b, i + 1)?;
            // A high surrogate needs an escaped low one after it; a lone
            // low one is no character, so `from_u32` refuses it.
            if !(0xd800..0xdc00).contains(&hi) {
                return Some((char::from_u32(hi)?, i + 5));
            }
            let lo = hex4(b, i + 7).filter(|lo| (0xdc00..0xe000).contains(lo))?;
            let pair = char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00));
            return (b.get(i + 5..i + 7)? == b"\\u").then_some((pair?, i + 11));
        }
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        c @ (b'"' | b'\\' | b'/') => char::from(c),
        _ => return None,
    };
    Some((c, i + 1))
}

fn hex4(b: &[u8], i: usize) -> Option<u32> {
    let digit = |c: &u8| char::from(*c).to_digit(16);
    b.get(i..i + 4)?
        .iter()
        .try_fold(0, |n, c| Some(n << 4 | digit(c)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_quotes_backslashes_and_controls() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("\r\t\u{1f}\u{7f}é🦀"), "\"\\r\\t\\u001f\u{7f}é🦀\"");
    }

    #[test]
    fn views_decode_flat_and_nested_values() {
        let doc =
            " {\"id\":42,\"ok\":true,\"indices\":[3, 5,8],\"empty\":[],\"n\":18446744073709551615,\
             \"error\":\"boom \\\"q\\\"\\n\\ud83e\\udd80\\u00e9\\/\",\"a\":{\"b\":[1,null]},\
             \"f\":-1.5e3,\"id\":7,\"k\\u0065y\":false}\n";
        let j = parse(doc).expect("valid");
        let f = |k: &str| j.get(k).expect(k);
        let ints = |k: &str| f(k).items().map(|v| v.as_u64()).collect::<Option<Vec<_>>>();
        assert_eq!(ints("indices"), Some(vec![3, 5, 8]));
        assert_eq!(ints("empty"), Some(vec![]));
        // The first `id` wins.
        let numbers = [f("id").as_u64(), f("n").as_u64(), f("f").as_u64()];
        assert_eq!(numbers, [Some(42), Some(u64::MAX), None]);
        let bools = [f("ok").as_bool(), f("key").as_bool(), f("id").as_bool()];
        assert_eq!(bools, [Some(true), Some(false), None]);
        assert_eq!(f("error").as_str().as_deref(), Some("boom \"q\"\n🦀é/"));
        assert_eq!(f("a").raw(), "{\"b\":[1,null]}");
        assert_eq!(f("f").as_f64(), Some(-1500.0));
        assert_eq!(j.get("missing"), None);
        let keys: Vec<String> = j.members().map(|(k, _)| k).collect();
        assert_eq!(keys.join(","), "id,ok,indices,empty,n,error,a,f,id,key");
    }

    #[test]
    fn invalid_documents_are_rejected() {
        // `|`-separated, starting with the empty document.
        let bad = "| |{|[1,]|{\"a\":1,}|{\"a\" 1}|{1:2}|[1 2]|01|1.|-|1e|+1|.5|nul|truex|[1]]|\"a|\
                   \"\u{1}\"|\"\\x\"|\"\\u12g4\"|\"\\u+123\"|\"\\ud800\"|\"\\udc00\"|\
                   \"\\ud800\\u0041\"|NaN|{} {}";
        for bad in bad.split('|') {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), None);
    }
}
