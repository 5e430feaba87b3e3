//! The workspace's one JSON string escaper. Every writer (`profile`, the
//! server's answer bodies, the bench counter snapshot) formats its own
//! layout by hand and escapes string values through here; nothing in the
//! workspace reads JSON, so there is no parser.

/// Lowercase hex digits of a `\u00XX` escape.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Whether `byte` has to be escaped inside a JSON string: `"`, `\` and the
/// controls below U+0020, all ASCII.
#[inline]
fn needs_escape(byte: u8) -> bool {
    (byte < 0x20) | (byte == b'"') | (byte == b'\\')
}

/// Appends `text` to `out`, escaped for the inside of a JSON string. Each
/// maximal run of bytes that needs no escape is copied with one `push_str`;
/// the bytes that do are ASCII, so the runs end on character boundaries.
/// Most text is one run: a branch-free pass (which the compiler vectorizes)
/// finds that out before any byte is looked at one by one.
#[inline]
pub fn push_escaped(out: &mut String, text: &str) {
    let escapes = text
        .bytes()
        .fold(false, |any, byte| any | needs_escape(byte));
    if !escapes {
        out.push_str(text);
        return;
    }
    let mut run = 0;
    for (index, byte) in text.bytes().enumerate() {
        if !needs_escape(byte) {
            continue;
        }
        out.push_str(&text[run..index]);
        run = index + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(byte >> 4)] as char);
                out.push(HEX[usize::from(byte & 0xf)] as char);
            }
        }
    }
    out.push_str(&text[run..]);
}

/// Appends `items` to `out` as quoted, escaped, comma-separated JSON
/// strings (the inside of an array).
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
    use proptest::prelude::*;

    fn escaped(text: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, text);
        out
    }

    /// The escaper as it was written before runs were copied whole: one
    /// `char` at a time.
    fn escaped_char_by_char(text: &str) -> String {
        let mut out = String::new();
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
        out
    }

    #[test]
    fn escaping_covers_quotes_controls_and_leaves_text_alone() {
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\r\t"), "\\r\\t");
        assert_eq!(escaped("\u{1}"), "\\u0001");
        assert_eq!(escaped("\u{1f}x\u{1a}"), "\\u001fx\\u001a");
        assert_eq!(escaped("Zürich → 東京"), "Zürich → 東京");
        assert_eq!(escaped("\"é\"東\\"), "\\\"é\\\"東\\\\");
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

    /// Characters drawn half from the ones that need an escape or sit next
    /// to one, half from every scalar value (a surrogate reads U+FFFD).
    fn tricky_char() -> impl Strategy<Value = char> {
        const TRICKY: &[char] = &[
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1}',
            '\u{1f}',
            ' ',
            '\u{7f}',
            'é',
            '東',
            '\u{10ffff}',
            'a',
        ];
        prop_oneof![
            (0..TRICKY.len()).prop_map(|index| TRICKY[index]),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    proptest! {
        #[test]
        fn run_copying_equals_the_char_by_char_escaper(
            text in proptest::collection::vec(tricky_char(), 0..48)
                .prop_map(|chars| chars.into_iter().collect::<String>()),
            prefix in ".{0,8}",
        ) {
            // Escaping appends: what `out` held before is left alone.
            let mut out = prefix.clone();
            push_escaped(&mut out, &text);
            prop_assert_eq!(out, prefix + &escaped_char_by_char(&text));
        }
    }
}
