//! Hand-rolled JSON helpers: string escaping, finite-safe float
//! formatting, and a minimal validator.
//!
//! The workspace builds offline with no serialization crate, so the Chrome
//! trace exporter emits JSON by hand, and the prom text and scope CSV
//! reuse these helpers. They keep that honest: [`escape`] handles the mandatory escapes of RFC 8259,
//! [`fmt_f64`] never emits `NaN`/`inf` (which are not JSON), and
//! [`validate`] is a small recursive-descent checker used by tests and by
//! the `ceio-inspect` smoke path to assert emitted documents parse.

/// Escape a string for embedding inside a JSON string literal (without
/// the surrounding quotes). Escapes backslash, double quote, and all
/// control characters below U+0020.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` as a JSON-legal number. `NaN` and infinities are not
/// representable in JSON; they render as `0`, `1e308`, and `-1e308`
/// respectively (a lossy but parseable stand-in — metric producers should
/// not emit them in the first place).
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        return "0".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "1e308" } else { "-1e308" }.to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        // Render integral values without a fractional tail ("3" not
        // "3.0000000"): shorter documents and stable golden files.
        format!("{}", v as i64)
    } else {
        let s = format!("{v}");
        s
    }
}

/// Maximum nesting depth accepted by [`validate`]. Deeper documents are
/// rejected rather than risking checker stack overflow.
const MAX_DEPTH: usize = 64;

/// Validate that `s` is a single well-formed JSON value (object, array,
/// string, number, `true`, `false`, or `null`) with nothing but
/// whitespace after it. Returns a byte offset + message on failure.
///
/// This is a structural checker, not a parser: it builds no tree and
/// allocates nothing proportional to the input.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = skip_ws(b, 0);
    pos = value(b, pos, 0)?;
    pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn value(b: &[u8], i: usize, depth: usize) -> Result<usize, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {i}"));
    }
    match b.get(i) {
        None => Err(format!("expected value at byte {i}, found end of input")),
        Some(b'{') => object(b, i + 1, depth + 1),
        Some(b'[') => array(b, i + 1, depth + 1),
        Some(b'"') => string(b, i + 1),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(b'-' | b'0'..=b'9') => number(b, i),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {i}")),
    }
}

fn literal(b: &[u8], i: usize, word: &[u8]) -> Result<usize, String> {
    if b.len() >= i + word.len() && &b[i..i + word.len()] == word {
        Ok(i + word.len())
    } else {
        Err(format!("malformed literal at byte {i}"))
    }
}

fn string(b: &[u8], mut i: usize) -> Result<usize, String> {
    // `i` is just past the opening quote.
    while i < b.len() {
        match b[i] {
            b'"' => return Ok(i + 1),
            b'\\' => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    if i + 6 > b.len() || !b[i + 2..i + 6].iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {i}"));
                    }
                    i += 6;
                }
                _ => return Err(format!("bad escape at byte {i}")),
            },
            c if c < 0x20 => {
                return Err(format!("raw control byte {c:#04x} in string at {i}"));
            }
            _ => i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], mut i: usize) -> Result<usize, String> {
    let start = i;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start {
        return Err(format!("expected digits at byte {i}"));
    }
    // Leading zero may not be followed by more digits.
    if b[int_start] == b'0' && i > int_start + 1 {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return Err(format!("expected fraction digits at byte {i}"));
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return Err(format!("expected exponent digits at byte {i}"));
        }
    }
    Ok(i)
}

fn array(b: &[u8], i: usize, depth: usize) -> Result<usize, String> {
    let mut pos = skip_ws(b, i);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn object(b: &[u8], i: usize, depth: usize) -> Result<usize, String> {
    let mut pos = skip_ws(b, i);
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        pos = string(b, pos + 1)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos = skip_ws(b, pos + 1);
        pos = value(b, pos, depth)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn fmt_f64_is_json_legal() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-0.5), "-0.5");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "1e308");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-1e308");
        for v in [3.0, -0.5, 0.125, 1e-9, 123456789.25] {
            assert!(validate(&fmt_f64(v)).is_ok(), "{v}");
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":null}"#,
            "  [ 1 , 2 ]  ",
            r#""é""#,
        ] {
            assert!(validate(doc).is_ok(), "{doc}: {:?}", validate(doc));
        }
    }

    #[test]
    fn validate_rejects_malformed() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "[1] [2]",
            "{\"a\" 1}",
            "+1",
        ] {
            assert!(validate(doc).is_err(), "{doc} should be rejected");
        }
    }

    #[test]
    fn validate_depth_limit() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(validate(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(validate(&ok).is_ok());
    }
}
