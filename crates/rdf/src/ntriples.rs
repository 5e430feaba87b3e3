//! Minimal N-Triples style reader and writer.
//!
//! The format supported is a pragmatic subset of N-Triples sufficient for the
//! benchmark workloads: one triple per line, `<iri>` for IRIs, `"text"` for
//! literals, terminated by an optional ` .`. Blank lines are ignored, and a
//! `#` outside an IRI or a literal starts a comment that runs to the end of
//! the line — a whole comment line, or one after the triple's `.`
//! (`<a> <p> <b> . # note`). A blank node `_:label` may be a subject or an
//! object; it is read as the IRI `_:label` (see [`Term`]). A property must be
//! an IRI, and a subject an IRI or a blank node. Literals decode every
//! N-Triples string escape (`\t`, `\b`, `\n`, `\r`, `\f`, `\"`, `\'`, `\\`,
//! `\uXXXX`, `\UXXXXXXXX`), and the writer escapes what must be, so any graph
//! whose subjects and properties are IRIs round-trips through [`serialize`] /
//! [`parse`] losslessly. A literal with a language tag (`"chat"@en`) or a
//! datatype (`"5"^^<…#int>`) has no [`Term`] form: it is rejected with an
//! error naming the tag or the datatype.
//!
//! [`parse_from_into`] is the one reader: it writes every triple into a
//! sink (any [`Extend`] of term triples — a `Vec`, a [`Graph`], or the bulk
//! loader's encoding shard), so no caller needs a decoded list it does not
//! keep.

use crate::graph::Graph;
use crate::term::Term;
use std::fmt;

/// An error raised while parsing an N-Triples line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

/// Decodes the N-Triples string escapes — ECHAR (`\t`, `\b`, `\n`, `\r`,
/// `\f`, `\"`, `\'`, `\\`) and UCHAR (`\uXXXX`, `\UXXXXXXXX`) — inside a
/// literal's raw text (the content between the quotes, escapes still
/// encoded). The SPARQL parser decodes its literals here too, so a query
/// names exactly the term a load stored. An unknown, truncated or invalid
/// escape is an error whose message names it.
pub fn unescape_literal(raw: &str) -> Result<String, String> {
    if !raw.contains('\\') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('\'') => out.push('\''),
            Some(form @ ('u' | 'U')) => {
                let digits = if form == 'u' { 4 } else { 8 };
                let hex: String = chars.by_ref().take(digits).collect();
                if hex.chars().count() != digits {
                    return Err(format!("truncated \\{form} escape \\{form}{hex}"));
                }
                if !hex.chars().all(|h| h.is_ascii_hexdigit()) {
                    return Err(format!(
                        "invalid hex digit in \\{form} escape \\{form}{hex}"
                    ));
                }
                let code = u32::from_str_radix(&hex, 16).expect("validated hex");
                match char::from_u32(code) {
                    Some(decoded) => out.push(decoded),
                    None => return Err(format!("\\{form}{hex} is not a Unicode scalar value")),
                }
            }
            Some(other) => return Err(format!("unknown escape sequence \\{other} in literal")),
            None => return Err("trailing backslash in literal".to_string()),
        }
    }
    Ok(out)
}

/// Encodes a literal's text with the N-Triples string escapes, so the
/// literals [`serialize`] writes always re-parse (`"` and `\` are escaped, and
/// control characters cannot terminate or break a line). A query's text
/// form writes its literals with it too, so that text re-parses.
pub fn escape_literal(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats one term as an N-Triples token (the writer-side counterpart of
/// [`parse`], escaping literal text). A blank node — an IRI `_:label` whose
/// label the reader accepts and does not end in `.` (a glued `.` ends the
/// triple) — is written `_:label`, so a strict reader sees a blank node;
/// a property is always written `<iri>`, since the reader rejects blank
/// node properties.
fn format_term(term: &Term, property: bool) -> String {
    match term {
        Term::Iri(v) => match v.strip_prefix("_:") {
            Some(label) if !property && is_blank_label(label) && !label.ends_with('.') => v.clone(),
            _ => format!("<{v}>"),
        },
        Term::Literal(v) => format!("\"{}\"", escape_literal(v)),
    }
}

/// Whether `label` is a blank node label the reader accepts after `_:`.
fn is_blank_label(label: &str) -> bool {
    let valid = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | '.');
    !label.is_empty() && label.chars().all(valid)
}

/// Parses a single term token (`<iri>`, `_:label` or `"literal"`); a blank
/// node is the IRI `_:label`.
fn parse_term(token: &str, line: usize) -> Result<Term, ParseError> {
    if let Some(inner) = token.strip_prefix('<').and_then(|t| t.strip_suffix('>')) {
        Ok(Term::iri(inner))
    } else if let Some(label) = token.strip_prefix("_:") {
        if !is_blank_label(label) {
            return Err(ParseError::new(
                line,
                format!("invalid blank node label {token:?}"),
            ));
        }
        Ok(Term::iri(token))
    } else if let Some(inner) = token.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        let text = unescape_literal(inner).map_err(|message| ParseError::new(line, message))?;
        Ok(Term::literal(text))
    } else {
        Err(ParseError::new(
            line,
            format!("cannot parse term token {token:?}"),
        ))
    }
}

/// The byte length of a quoted literal token at the start of `rest`
/// (including both quotes), honouring backslash escapes. `None` when the
/// literal never closes — including a trailing `\` right before the end.
fn literal_token_len(rest: &str) -> Option<usize> {
    debug_assert!(rest.starts_with('"'));
    let mut escaped = false;
    for (offset, c) in rest.char_indices().skip(1) {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Some(offset + 1),
            _ => {}
        }
    }
    None
}

/// Rejects a language tag or a datatype glued to the literal token
/// `literal` (`rest` is the text after its closing quote): neither has a
/// [`Term`] form, so the error names the tag or the datatype.
fn reject_annotation(literal: &str, rest: &str, line_no: usize) -> Result<(), ParseError> {
    let (kind, annotation) = if let Some(tag) = rest.strip_prefix('@') {
        let len = tag
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(tag.len());
        ("language tag", &rest[..1 + len])
    } else if let Some(datatype) = rest.strip_prefix("^^") {
        let len = if datatype.starts_with('<') {
            datatype.find('>').map_or(datatype.len(), |end| end + 1)
        } else {
            datatype.find(char::is_whitespace).unwrap_or(datatype.len())
        };
        ("datatype", &datatype[..len])
    } else {
        return Ok(());
    };
    Err(ParseError::new(
        line_no,
        format!("unsupported {kind} {annotation} on literal {literal}: only plain literals are supported"),
    ))
}

/// Splits an N-Triples line into its three term tokens, `None` for a
/// blank or comment-only line. A `#` outside an IRI or a literal ends the
/// line's content, and a final `.` token ends the triple.
fn tokenize(line: &str, line_no: usize) -> Result<Option<[&str; 3]>, ParseError> {
    let mut tokens = Vec::with_capacity(4);
    let mut rest = line.trim_start();
    while !rest.is_empty() && !rest.starts_with('#') {
        let len = if rest.starts_with('<') {
            match rest.find('>') {
                Some(pos) => pos + 1,
                None => return Err(ParseError::new(line_no, "unterminated IRI")),
            }
        } else if rest.starts_with('"') {
            match literal_token_len(rest) {
                Some(len) => {
                    reject_annotation(&rest[..len], &rest[len..], line_no)?;
                    len
                }
                None => return Err(ParseError::new(line_no, "unterminated literal")),
            }
        } else {
            let len = rest
                .find(|c: char| c.is_whitespace() || c == '#')
                .unwrap_or(rest.len());
            // A blank node label never ends in `.`: a glued `.` ends the
            // triple (`<a> <p> _:b0.`).
            match rest[..len].strip_prefix("_:") {
                Some(label) => 2 + label.trim_end_matches('.').len(),
                None => len,
            }
        };
        tokens.push(&rest[..len]);
        rest = rest[len..].trim_start();
    }
    if tokens.is_empty() {
        return Ok(None);
    }
    if tokens.last() == Some(&".") {
        tokens.pop();
    }
    match tokens[..] {
        [s, p, o] => Ok(Some([s, p, o])),
        _ => Err(ParseError::new(
            line_no,
            format!("expected 3 terms, found {}", tokens.len()),
        )),
    }
}

/// Parses N-Triples text into a list of term triples.
pub fn parse(text: &str) -> Result<Vec<(Term, Term, Term)>, ParseError> {
    let mut out = Vec::new();
    parse_from_into(text, 1, &mut out).map(|()| out)
}

/// Parses N-Triples text whose first line is line `first_line` of a larger
/// document, writing each triple into `out` in document order. This is
/// also the chunked-load entry point: the bulk loader splits a document at
/// line boundaries (see [`crate::load::split_ntriples`]) and parses each
/// chunk on its own worker straight into that chunk's encoding shard, and
/// errors still report the global line number of the offending line. On
/// error `out` holds the triples of the lines before the failing one.
pub fn parse_from_into(
    text: &str,
    first_line: usize,
    out: &mut impl Extend<(Term, Term, Term)>,
) -> Result<(), ParseError> {
    for (i, line) in text.lines().enumerate() {
        let line_no = first_line + i;
        if let Some([s, p, o]) = tokenize(line, line_no)? {
            if p.starts_with("_:") {
                let message = format!("the property must be an IRI, found blank node {p}");
                return Err(ParseError::new(line_no, message));
            }
            let (s, p) = (parse_term(s, line_no)?, parse_term(p, line_no)?);
            for (position, term) in [("subject", &s), ("property", &p)] {
                if let Term::Literal(text) = term {
                    let message = format!("the {position} must be an IRI, found literal {text:?}");
                    return Err(ParseError::new(line_no, message));
                }
            }
            out.extend([(s, p, parse_term(o, line_no)?)]);
        }
    }
    Ok(())
}

/// Parses N-Triples text directly into a [`Graph`], encoding each triple
/// as it is read.
pub fn parse_into_graph(text: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    parse_from_into(text, 1, &mut graph)?;
    Ok(graph)
}

/// Serializes a graph back to N-Triples text (one line per triple, literal
/// text escaped), which re-parses any graph whose subjects and properties
/// are IRIs.
pub fn serialize(graph: &Graph) -> String {
    let mut out = String::new();
    for triple in graph.triples() {
        let s = graph.decode(triple.subject).expect("dangling subject id");
        let p = graph.decode(triple.property).expect("dangling property id");
        let o = graph.decode(triple.object).expect("dangling object id");
        out.push_str(&format!(
            "{} {} {} .\n",
            format_term(s, false),
            format_term(p, true),
            format_term(o, false)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_triples() {
        let text = "<a> <p> <b> .\n<a> <q> \"C1\" .\n";
        let triples = parse(text).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].0, Term::iri("a"));
        assert_eq!(triples[1].2, Term::literal("C1"));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n<a> <p> <b>\n   \n# trailing\n";
        assert_eq!(parse(text).unwrap().len(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("<a> <p>").is_err());
        assert!(parse("<a> <p> <b> <c>").is_err());
        assert!(parse("<a <p> <b>").is_err());
        assert!(parse("<a> <p> \"unterminated").is_err());
        let err = parse("plain tokens here").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn literal_with_spaces() {
        let triples = parse("<a> <name> \"University 3\" .").unwrap();
        assert_eq!(triples[0].2, Term::literal("University 3"));
    }

    #[test]
    fn round_trip_through_graph() {
        let text = "<s1> <p1> <o1> .\n<s1> <p2> \"lit\" .\n<s2> <p1> <s1> .\n";
        let graph = parse_into_graph(text).unwrap();
        assert_eq!(graph.len(), 3);
        let serialized = serialize(&graph);
        let reparsed = parse_into_graph(&serialized).unwrap();
        assert_eq!(reparsed.len(), graph.len());
        assert_eq!(serialize(&reparsed), serialized);
    }

    #[test]
    fn literal_escapes_decode() {
        let triples = parse(r#"<a> <p> "say \"hi\"\n\tdone\\" ."#).unwrap();
        assert_eq!(triples[0].2, Term::literal("say \"hi\"\n\tdone\\"));
    }

    #[test]
    fn unicode_escapes_decode() {
        let triples = parse(r#"<a> <p> "caf\u00E9 \u0041" ."#).unwrap();
        assert_eq!(triples[0].2, Term::literal("café A"));
    }

    /// Every ECHAR and both UCHAR forms of the N-Triples grammar decode,
    /// `\b`, `\f`, `\'` and the 8-digit `\U` included.
    #[test]
    fn every_spec_escape_decodes() {
        for (written, decoded) in [
            (r#""it\'s""#, "it's"),
            (r#""bell\b""#, "bell\u{8}"),
            (r#""feed\f""#, "feed\u{c}"),
            (r#""smile\U0001F600""#, "smile\u{1F600}"),
            (r#""\U000000e9t\u00E9""#, "été"),
        ] {
            let triples = parse(&format!("<a> <p> {written} .")).unwrap();
            assert_eq!(triples[0].2, Term::literal(decoded), "{written}");
        }
    }

    /// The 8-digit form is checked like the 4-digit one: it must have all
    /// its hex digits and name a Unicode scalar value.
    #[test]
    fn invalid_long_unicode_escapes_are_rejected_by_name() {
        for (written, problem) in [
            (r"\U0001F6", "truncated"),
            (r"\U0001F60G", "invalid hex digit"),
            (r"\U00110000", "scalar"),
            (r"\U0000D800", "scalar"),
        ] {
            let err = parse(&format!("<a> <p> \"x{written}\" .")).unwrap_err();
            assert!(err.message.contains(written), "{written}: {}", err.message);
            assert!(err.message.contains(problem), "{written}: {}", err.message);
        }
    }

    /// A subject and a property are IRIs: a literal in either position is
    /// an error that names the position and the line.
    #[test]
    fn a_literal_subject_or_property_is_rejected() {
        for (text, position) in [
            ("<a> <p> <b> .\n\"lit\" <p> <o> .", "subject"),
            ("<a> <p> <b> .\n<s> \"lit\" <o> .", "property"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.line, 2, "{text}");
            assert!(err.message.contains(position), "{text}: {}", err.message);
            assert!(err.message.contains("\"lit\""), "{text}: {}", err.message);
        }
        assert!(parse("<s> <p> \"lit\" .").is_ok());
    }

    #[test]
    fn escaped_quote_does_not_terminate_literal() {
        // The \" must not close the literal early and swallow the rest.
        let triples = parse(r#"<a> <p> "x\"y z" ."#).unwrap();
        assert_eq!(triples[0].2, Term::literal("x\"y z"));
    }

    #[test]
    fn invalid_escapes_are_rejected_with_line_numbers() {
        let err = parse("<a> <p> <b> .\n<a> <p> \"bad\\q\" .").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown escape"), "{}", err.message);

        let err = parse(r#"<a> <p> "trunc\u00G1" ."#).unwrap_err();
        assert!(err.message.contains("\\u"), "{}", err.message);

        let err = parse(r#"<a> <p> "surrogate\uD800" ."#).unwrap_err();
        assert!(err.message.contains("scalar"), "{}", err.message);
    }

    #[test]
    fn unterminated_literals_are_clear_errors() {
        for text in [
            "<a> <p> \"never closed",
            "<a> <p> \"closed by escape\\\"",
            "<a> <p> \"trailing backslash\\",
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains("unterminated literal"),
                "{text:?}: {}",
                err.message
            );
        }
    }

    #[test]
    fn writer_escapes_round_trip() {
        let mut graph = Graph::new();
        graph.insert_terms(
            Term::iri("s"),
            Term::iri("p"),
            Term::literal("line1\nline2\t\"quoted\" back\\slash \u{1} café"),
        );
        let text = serialize(&graph);
        let reparsed = parse(&text).unwrap();
        assert_eq!(
            reparsed[0].2,
            Term::literal("line1\nline2\t\"quoted\" back\\slash \u{1} café")
        );
        // Control characters never appear raw in the serialized text.
        assert!(!text.contains('\u{1}'));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn parse_from_offsets_line_numbers() {
        let mut out = Vec::new();
        let err = parse_from_into("<a> <p> <b> .\n<a> <p>", 100, &mut out).unwrap_err();
        assert_eq!(err.line, 101);
        assert_eq!(out.len(), 1, "the lines before the error are kept");
        out.clear();
        parse_from_into("<a> <p> <b> .", 50, &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn a_comment_may_follow_the_triple() {
        let expected = parse("<a> <p> <b> .").unwrap();
        for line in [
            "<a> <p> <b> . # note",
            "<a> <p> <b> .#note",
            "<a> <p> <b> # no dot",
            "<a> <p> <b>.# glued",
            "  <a> <p> <b> .\t# tab first",
        ] {
            assert_eq!(parse(line).unwrap(), expected, "{line:?}");
        }
        let err = parse("<a> <p> # <b> .").unwrap_err();
        assert!(err.message.contains("found 2"), "{}", err.message);
        let err = parse(". # a lone dot").unwrap_err();
        assert!(err.message.contains("found 0"), "{}", err.message);
    }

    #[test]
    fn a_hash_inside_an_iri_or_a_literal_is_text() {
        let triples = parse("<a#x> <p> \"C# and F#\" . # note").unwrap();
        assert_eq!(triples[0].0, Term::iri("a#x"));
        assert_eq!(triples[0].2, Term::literal("C# and F#"));
    }

    /// A blank node is a subject or an object, read as the IRI `_:label`
    /// (also with the triple's `.` glued to it); as a property it is an
    /// error naming the position and the line.
    #[test]
    fn blank_nodes_are_iris_with_a_prefix() {
        let triples = parse("_:b0 <p> <o> .\n<s> <p> _:b1 .\n_:b0 <q> _:b1.").unwrap();
        assert_eq!(
            triples,
            vec![
                (Term::iri("_:b0"), Term::iri("p"), Term::iri("o")),
                (Term::iri("s"), Term::iri("p"), Term::iri("_:b1")),
                (Term::iri("_:b0"), Term::iri("q"), Term::iri("_:b1")),
            ]
        );
        let err = parse("<a> <p> <b> .\n<s> _:p <o> .").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("property"), "{}", err.message);
        assert!(err.message.contains("_:p"), "{}", err.message);
        let err = parse("_: <p> <o> .").unwrap_err();
        assert!(err.message.contains("blank node"), "{}", err.message);
    }

    /// A blank node is written as one: a graph read from `_:b0` lines
    /// serializes to lines that start `_:b0 `, not `<_:b0> `.
    #[test]
    fn blank_nodes_serialize_as_blank_nodes() {
        let graph = parse_into_graph("_:b0 <p> <o> .\n<s> <p> _:b1 .").unwrap();
        let written = serialize(&graph);
        let lines: Vec<&str> = written.lines().collect();
        assert!(lines[0].starts_with("_:b0 "), "{written}");
        assert_eq!(lines[1], "<s> <p> _:b1 .");
    }

    /// `serialize` → `parse` returns an equal graph with blank nodes, and
    /// with IRIs starting `_:` that cannot be written as blank nodes (an
    /// empty label, a trailing `.`, a property), which keep their `<…>`.
    #[test]
    fn serialized_blank_nodes_parse_back_to_an_equal_graph() {
        let graph = parse_into_graph("_:b0 <p> <o> .\n<s> <p> _:b1 .\n_:b0 <q> _:b1.").unwrap();
        assert_eq!(parse_into_graph(&serialize(&graph)).unwrap(), graph);
        let awkward = "<_:> <p> <_:a.> .\n<s> <_:p> <o> .\n";
        let graph = parse_into_graph(awkward).unwrap();
        assert_eq!(serialize(&graph), awkward);
        assert_eq!(parse_into_graph(&serialize(&graph)).unwrap(), graph);
    }

    /// A language-tagged literal is rejected by its tag, not counted as a
    /// fourth term.
    #[test]
    fn a_language_tagged_literal_is_rejected_by_name() {
        let err = parse("<a> <p> <b> .\n<s> <p> \"chat\"@en .").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("language tag @en"), "{}", err.message);
        assert!(err.message.contains("\"chat\""), "{}", err.message);
        assert!(!err.message.contains("expected 3 terms"), "{}", err.message);
        let err = parse("<s> <p> \"colour\"@en-GB.").unwrap_err();
        assert!(err.message.contains("@en-GB "), "{}", err.message);
    }

    /// A typed literal is rejected by its whole datatype IRI, `#` included.
    #[test]
    fn a_typed_literal_is_rejected_by_name() {
        let text = "<s> <p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> . # n";
        let err = parse(text).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(
            err.message
                .contains("datatype <http://www.w3.org/2001/XMLSchema#int>"),
            "{}",
            err.message
        );
        assert!(!err.message.contains("expected 3 terms"), "{}", err.message);
    }
}
