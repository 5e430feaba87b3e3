//! The workspace's one JSON string escaper. Every writer (`profile`, the
//! server's answer bodies, the bench counter snapshot) formats its own
//! layout by hand and escapes string values through here; nothing in the
//! workspace reads JSON, so there is no parser.

/// Appends `text` to `out`, escaped for the inside of a JSON string.
#[inline]
pub fn push_escaped(out: &mut String, text: &str) {
    for c in text.chars() {
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
}

/// Appends `items` to `out` as quoted, escaped, comma-separated JSON
/// strings (the inside of an array). `#[inline]` because the server's
/// answer writer calls it once per result row from another crate.
#[inline]
pub fn push_strings(out: &mut String, items: &[String]) {
    for (index, item) in items.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push('"');
        push_escaped(out, item);
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(text: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, text);
        out
    }

    #[test]
    fn escaping_covers_quotes_controls_and_leaves_text_alone() {
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\r\t"), "\\r\\t");
        assert_eq!(escaped("\u{1}"), "\\u0001");
        assert_eq!(escaped("Zürich → 東京"), "Zürich → 東京");
        assert_eq!(escaped(""), "");

        let strings = |items: &[&str]| {
            let items: Vec<String> = items.iter().map(|s| s.to_string()).collect();
            let mut out = String::from("[");
            push_strings(&mut out, &items);
            out + "]"
        };
        assert_eq!(strings(&[]), "[]");
        assert_eq!(strings(&["?x"]), "[\"?x\"]");
        assert_eq!(strings(&["<a>", "\"l\"\n"]), "[\"<a>\", \"\\\"l\\\"\\n\"]");
    }
}
