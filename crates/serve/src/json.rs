//! Minimal JSON emission.
//!
//! The service's response bodies are JSON, but the workspace carries
//! no serialisation dependency — responses are small and flat, so the
//! body writer ([`crate::service::sweep_body`]) renders fields
//! straight into one buffer and only strings need help: this module's
//! escaper. Emission is deterministic: fields appear in a fixed order
//! and numbers format via Rust's shortest-round-trip `Display`, so
//! identical responses are byte-identical (the cache-correctness
//! smoke test relies on this).

use std::fmt::Write as _;

/// Appends `s` to `out` as the contents of a JSON string literal
/// (without the surrounding quotes). A string with nothing to escape
/// — every config id, source id and predictor label the engine makes
/// — is copied in one push.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// Escapes `s` as the contents of a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\r\t\u{1f}"), "\\r\\t\\u001f");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("gr\u{fc}n \u{2713}"), "gr\u{fc}n \u{2713}");
    }

    #[test]
    fn escape_into_appends() {
        let mut out = String::from("[\"");
        escape_into(&mut out, "x\"y");
        escape_into(&mut out, "-z");
        assert_eq!(out, "[\"x\\\"y-z");
    }
}
