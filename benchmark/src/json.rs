//! A dependency-free JSON emitter: values are built as strings and
//! composed, which is all a report writer needs.

/// A JSON string literal with the mandatory escapes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
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

/// A JSON number with every digit the measurement has (shortest form
/// that reads back to the same `f64`; never exponent notation).
///
/// # Panics
///
/// Panics on NaN or infinity, which JSON cannot carry: a non-finite
/// metric is a bug in the benchmark and must not reach a report.
pub fn number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite number {x} in a report");
    format!("{x}")
}

/// A JSON object from `(key, already-encoded value)` pairs, in order.
pub fn object<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", string(k.as_ref()))).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array from already-encoded values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(string("µs ok"), "\"µs ok\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_avoid_exponents() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_are_refused() {
        number(f64::NAN);
    }

    #[test]
    fn objects_and_arrays_compose() {
        let inner = object(&[("value", number(2.5)), ("unit", string("ms"))]);
        let outer = object(&[("m", inner), ("xs", array(&[number(1.0), string("a")]))]);
        assert_eq!(outer, r#"{"m": {"value": 2.5, "unit": "ms"}, "xs": [1, "a"]}"#);
        assert_eq!(object::<&str>(&[]), "{}");
    }
}
