//! A pragmatic parser for the SPARQL BGP subset used by the benchmark
//! workloads.
//!
//! Supported syntax:
//!
//! ```text
//! PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
//! SELECT ?x ?y WHERE {
//!   ?x rdf:type ub:Lecturer .
//!   ?x ub:worksFor ?y .
//!   ?y ub:name "University3"
//! }
//! ```
//!
//! * `PREFIX pfx: <iri>` declarations (the `ub:` and `rdf:` prefixes are
//!   pre-declared),
//! * `a` as a shorthand for `rdf:type`,
//! * `<full-iri>`, `pfx:local`, `"literal"` and `?variable` terms; a
//!   literal's escapes are the N-Triples ones (`\t`, `\b`, `\n`, `\r`, `\f`,
//!   `\"`, `\'`, `\\`, `\uXXXX`, `\UXXXXXXXX`), decoded by
//!   [`cliquesquare_rdf::ntriples::unescape_literal`]
//!   so a query names the term a load stored, and any other escape is an
//!   error naming it,
//! * triple patterns separated by `.`, which also ends a variable written
//!   right before it (`?x <p> ?y.?y <q> ?z`),
//! * `SELECT DISTINCT` and `SELECT REDUCED`, which ask for what every answer
//!   already is: its distinct rows,
//! * `#` comments: outside an IRI or a literal, a `#` starts a comment that
//!   runs to the end of the line.
//!
//! Nothing may follow the closing `}`: solution modifiers (`LIMIT`,
//! `ORDER BY`, …) are not supported, and a query that carries one is
//! refused rather than answered in full.

use crate::pattern::{PatternTerm, TriplePattern, Variable};
use crate::query::BgpQuery;
use cliquesquare_rdf::ntriples;
use cliquesquare_rdf::term::vocab;
use std::collections::HashMap;
use std::fmt;

/// An error raised while parsing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Splits query text into tokens, keeping `<…>` and `"…"` intact and
/// dropping `#` comments outside them.
fn tokenize(text: &str) -> Result<Vec<String>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            // A comment runs to the end of the line.
            '#' => {
                chars.by_ref().find(|&ch| ch == '\n');
            }
            '{' | '}' | '.' => {
                tokens.push(c.to_string());
                chars.next();
            }
            '<' => {
                let mut tok = String::new();
                for ch in chars.by_ref() {
                    tok.push(ch);
                    if ch == '>' {
                        break;
                    }
                }
                if !tok.ends_with('>') {
                    return Err(err("unterminated IRI"));
                }
                tokens.push(tok);
            }
            '"' => {
                let mut tok = String::new();
                tok.push(chars.next().unwrap());
                let mut closed = false;
                let mut escaped = false;
                for ch in chars.by_ref() {
                    tok.push(ch);
                    match ch {
                        _ if escaped => escaped = false,
                        '\\' => escaped = true,
                        '"' => {
                            closed = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if !closed {
                    return Err(err("unterminated literal"));
                }
                tokens.push(tok);
            }
            _ => {
                let mut tok = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || matches!(ch, '{' | '}' | '#') {
                        break;
                    }
                    // A '.' ends a variable wherever it stands; it ends any
                    // other token only if it is a pattern separator
                    // (followed by whitespace/end/brace), so that IRIs
                    // written without angle brackets keep their dots.
                    if ch == '.' {
                        if tok.starts_with('?') {
                            break;
                        }
                        let mut ahead = chars.clone();
                        ahead.next();
                        match ahead.peek() {
                            None => break,
                            Some(&next) if next.is_whitespace() || next == '}' => break,
                            _ => {}
                        }
                    }
                    tok.push(ch);
                    chars.next();
                }
                if !tok.is_empty() {
                    tokens.push(tok);
                }
            }
        }
    }
    Ok(tokens)
}

fn default_prefixes() -> HashMap<String, String> {
    let mut prefixes = HashMap::new();
    prefixes.insert("ub".to_string(), vocab::UB.to_string());
    prefixes.insert(
        "rdf".to_string(),
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#".to_string(),
    );
    prefixes
}

fn parse_term(token: &str, prefixes: &HashMap<String, String>) -> Result<PatternTerm, ParseError> {
    if let Some(name) = token.strip_prefix('?') {
        if name.is_empty() {
            return Err(err("empty variable name"));
        }
        return Ok(PatternTerm::Variable(Variable::new(name)));
    }
    if token == "a" {
        return Ok(PatternTerm::iri(vocab::RDF_TYPE));
    }
    if let Some(inner) = token.strip_prefix('<').and_then(|t| t.strip_suffix('>')) {
        // Expand a prefixed name written inside angle brackets too
        // (`<ub:worksFor>`), which keeps hand-written test queries terse.
        if let Some((pfx, local)) = inner.split_once(':') {
            if let Some(base) = prefixes.get(pfx) {
                return Ok(PatternTerm::iri(format!("{base}{local}")));
            }
        }
        return Ok(PatternTerm::iri(inner));
    }
    if let Some(inner) = token.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        return ntriples::unescape_literal(inner)
            .map(PatternTerm::literal)
            .map_err(|message| err(format!("{message} {token}")));
    }
    if let Some((pfx, local)) = token.split_once(':') {
        if let Some(base) = prefixes.get(pfx) {
            return Ok(PatternTerm::iri(format!("{base}{local}")));
        }
        return Err(err(format!("unknown prefix {pfx:?} in token {token:?}")));
    }
    Err(err(format!("cannot parse term {token:?}")))
}

/// Parses a BGP query from text.
pub fn parse_query(text: &str) -> Result<BgpQuery, ParseError> {
    let tokens = tokenize(text)?;
    let mut prefixes = default_prefixes();
    let mut pos = 0usize;

    // PREFIX declarations.
    while pos < tokens.len() && tokens[pos].eq_ignore_ascii_case("prefix") {
        let pfx = tokens
            .get(pos + 1)
            .ok_or_else(|| err("PREFIX missing name"))?
            .trim_end_matches(':')
            .to_string();
        let iri_tok = tokens
            .get(pos + 2)
            .ok_or_else(|| err("PREFIX missing IRI"))?;
        let iri = iri_tok
            .strip_prefix('<')
            .and_then(|t| t.strip_suffix('>'))
            .ok_or_else(|| err("PREFIX IRI must be enclosed in <>"))?;
        prefixes.insert(pfx, iri.to_string());
        pos += 3;
    }

    if pos >= tokens.len() || !tokens[pos].eq_ignore_ascii_case("select") {
        return Err(err("expected SELECT"));
    }
    pos += 1;
    // Every answer is already distinct, which is what DISTINCT asks for and
    // what REDUCED permits.
    if tokens
        .get(pos)
        .is_some_and(|t| t.eq_ignore_ascii_case("distinct") || t.eq_ignore_ascii_case("reduced"))
    {
        pos += 1;
    }

    let mut distinguished = Vec::new();
    while pos < tokens.len() && !tokens[pos].eq_ignore_ascii_case("where") {
        let tok = &tokens[pos];
        if tok == "*" {
            // `SELECT *` projects every variable; resolved after parsing.
            pos += 1;
            continue;
        }
        let name = tok
            .strip_prefix('?')
            .ok_or_else(|| err(format!("expected variable in SELECT clause, found {tok:?}")))?;
        distinguished.push(Variable::new(name));
        pos += 1;
    }

    if pos >= tokens.len() {
        return Err(err("expected WHERE"));
    }
    pos += 1; // skip WHERE
    if tokens.get(pos).map(String::as_str) != Some("{") {
        return Err(err("expected '{' after WHERE"));
    }
    pos += 1;

    let mut patterns = Vec::new();
    let mut current: Vec<PatternTerm> = Vec::new();
    while pos < tokens.len() && tokens[pos] != "}" {
        let tok = &tokens[pos];
        if tok == "." {
            pos += 1;
            continue;
        }
        current.push(parse_term(tok, &prefixes)?);
        if current.len() == 3 {
            let mut drain = current.drain(..);
            patterns.push(TriplePattern::new(
                drain.next().unwrap(),
                drain.next().unwrap(),
                drain.next().unwrap(),
            ));
        }
        pos += 1;
    }
    if pos >= tokens.len() {
        return Err(err("expected '}'"));
    }
    if let Some(extra) = tokens.get(pos + 1) {
        return Err(err(format!(
            "unexpected {extra:?} after the closing '}}': solution modifiers \
             (LIMIT, ORDER BY, …) are not supported"
        )));
    }
    if !current.is_empty() {
        return Err(err(format!(
            "dangling triple pattern with {} term(s)",
            current.len()
        )));
    }
    if patterns.is_empty() {
        return Err(err("query has no triple patterns"));
    }

    let query = BgpQuery::new(distinguished, patterns);
    let bound = query.variables();
    if query.distinguished().is_empty() {
        // SELECT * (or an empty projection): project all variables.
        return Ok(BgpQuery::new(bound, query.patterns().to_vec()));
    }
    // A projected variable no pattern binds has no value in any answer: a
    // mistyped name, which projecting would silently drop.
    if let Some(unbound) = (query.distinguished().iter()).find(|v| !bound.contains(v)) {
        return Err(err(format!(
            "projected variable {unbound} is not bound by any triple pattern"
        )));
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_rdf::Term;

    #[test]
    fn a_projected_variable_no_pattern_binds_is_rejected_by_name() {
        let error = parse_query("SELECT ?z WHERE { ?x ub:worksFor ?y }").unwrap_err();
        assert!(error.to_string().contains("?z"), "{error}");
        let error = parse_query("SELECT ?x ?z WHERE { ?x ub:worksFor ?y }").unwrap_err();
        assert!(error.to_string().contains("?z"), "{error}");
        assert!(parse_query("SELECT ?x ?y WHERE { ?x ub:worksFor ?y }").is_ok());
    }

    /// Text after the closing brace is an error naming its first token,
    /// never silently dropped: a client asking for one row would otherwise
    /// get every row.
    #[test]
    fn text_after_the_closing_brace_is_rejected_by_name() {
        let query = "SELECT ?x WHERE { ?x ub:advisor ?y }";
        for (suffix, named) in [
            (" LIMIT 1", "\"LIMIT\""),
            (" ORDER BY ?x", "\"ORDER\""),
            (" } }", "\"}\""),
        ] {
            let error = parse_query(&format!("{query}{suffix}")).unwrap_err();
            assert!(error.to_string().contains(named), "{suffix}: {error}");
            assert!(error.to_string().contains("not supported"), "{error}");
        }
        assert!(parse_query(&format!("{query} \n\t ")).is_ok());
    }

    #[test]
    fn parses_simple_two_pattern_query() {
        let q =
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . }").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.distinguished().len(), 2);
        assert_eq!(q.join_variables(), vec![Variable::new("d")]);
        assert_eq!(
            q.patterns()[0].property,
            PatternTerm::Constant(Term::iri(vocab::ub("worksFor")))
        );
    }

    #[test]
    fn a_expands_to_rdf_type() {
        let q = parse_query("SELECT ?x WHERE { ?x a ub:GraduateStudent }").unwrap();
        assert_eq!(
            q.patterns()[0].property,
            PatternTerm::Constant(Term::iri(vocab::RDF_TYPE))
        );
    }

    #[test]
    fn rdf_type_prefix_expansion() {
        let q = parse_query("SELECT ?x WHERE { ?x rdf:type ub:Lecturer }").unwrap();
        assert_eq!(
            q.patterns()[0].property,
            PatternTerm::Constant(Term::iri(vocab::RDF_TYPE))
        );
        assert_eq!(
            q.patterns()[0].object,
            PatternTerm::Constant(Term::iri(vocab::ub("Lecturer")))
        );
    }

    #[test]
    fn parses_literals_and_full_iris() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x ub:doctoralDegreeFrom <http://www.University0.edu> . ?x ub:name \"University3\" }",
        )
        .unwrap();
        assert_eq!(
            q.patterns()[0].object,
            PatternTerm::Constant(Term::iri("http://www.University0.edu"))
        );
        assert_eq!(
            q.patterns()[1].object,
            PatternTerm::Constant(Term::literal("University3"))
        );
    }

    #[test]
    fn custom_prefix_declarations() {
        let q = parse_query("PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?y }")
            .unwrap();
        assert_eq!(
            q.patterns()[0].property,
            PatternTerm::Constant(Term::iri("http://example.org/knows"))
        );
    }

    #[test]
    fn select_star_projects_all_variables() {
        let q = parse_query("SELECT * WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z }").unwrap();
        assert_eq!(q.distinguished().len(), 3);
    }

    #[test]
    fn literal_with_spaces_survives() {
        let q = parse_query("SELECT ?x WHERE { ?x ub:name \"University 3\" }").unwrap();
        assert_eq!(
            q.patterns()[0].object,
            PatternTerm::Constant(Term::literal("University 3"))
        );
    }

    #[test]
    fn a_dot_right_after_a_variable_separates_patterns() {
        let q = parse_query("SELECT ?x WHERE { ?x <p> ?y.?y <q> ?z }").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.join_variables(), vec![Variable::new("y")]);
        let q = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?y.?y ub:name ?n. }").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.patterns()[1].object,
            PatternTerm::Variable(Variable::new("n"))
        );
    }

    #[test]
    fn literals_decode_the_ntriples_escapes() {
        for (written, decoded) in [
            (r#""say \"hi\"""#, "say \"hi\""),
            (r#""a\\b""#, "a\\b"),
            (r#""line\nbreak""#, "line\nbreak"),
            (r#""tab\tcr\r""#, "tab\tcr\r"),
            (r#""\u00e9t\u00E9""#, "été"),
            (r#""ends in \\""#, "ends in \\"),
        ] {
            let q = parse_query(&format!("SELECT ?x WHERE {{ ?x ub:name {written} }}"))
                .unwrap_or_else(|e| panic!("{written}: {e}"));
            assert_eq!(
                q.patterns()[0].object,
                PatternTerm::Constant(Term::literal(decoded)),
                "{written}"
            );
        }
    }

    /// The escapes SPARQL shares with N-Triples beyond the common five
    /// decode too — `\'`, `\b`, `\f` and the 8-digit `\U` — and the
    /// query's text form, which writes them otherwise, names the same
    /// literal.
    #[test]
    fn every_spec_escape_decodes() {
        for (written, decoded) in [
            (r#""it\'s""#, "it's"),
            (r#""bell\b feed\f""#, "bell\u{8} feed\u{c}"),
            (r#""smile\U0001F600""#, "smile\u{1F600}"),
        ] {
            let q = parse_query(&format!("SELECT ?x WHERE {{ ?x ub:name {written} }}"))
                .unwrap_or_else(|e| panic!("{written}: {e}"));
            let literal = PatternTerm::Constant(Term::literal(decoded));
            assert_eq!(q.patterns()[0].object, literal, "{written}");
            assert_eq!(parse_query(&q.to_string()).unwrap(), q, "{written}");
        }
    }

    #[test]
    fn a_query_with_escaped_literals_reparses_from_its_text() {
        let text = r#"SELECT ?x WHERE { ?x ub:name "a\"b" . ?x ub:email "x\\y\nz\u0001" }"#;
        let q = parse_query(text).unwrap();
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn an_unknown_literal_escape_is_rejected_by_name() {
        for escape in [r"\x", r"\u12", r"\U0001F6", r"\U00110000"] {
            let query = format!("SELECT ?x WHERE {{ ?x ub:name \"a{escape}\" }}");
            let error = parse_query(&query).unwrap_err();
            assert!(error.to_string().contains(escape), "{query}: {error}");
        }
    }

    #[test]
    fn angle_bracketed_prefixed_names_expand() {
        let q = parse_query("SELECT ?x WHERE { ?x <ub:worksFor> ?y }").unwrap();
        assert_eq!(
            q.patterns()[0].property,
            PatternTerm::Constant(Term::iri(vocab::ub("worksFor")))
        );
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("WHERE { ?x ub:p ?y }").is_err());
        assert!(parse_query("SELECT ?x { ?x ub:p ?y }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ub:p }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ub:p ?y").is_err());
        assert!(parse_query("SELECT ?x WHERE { }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x unknown:p ?y }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ub:p \"unterminated }").is_err());
    }

    #[test]
    fn distinct_and_reduced_parse_to_the_plain_query() {
        let plain = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?y }").unwrap();
        for modifier in ["DISTINCT", "distinct", "Reduced"] {
            let text = format!("SELECT {modifier} ?x WHERE {{ ?x ub:worksFor ?y }}");
            assert_eq!(parse_query(&text).unwrap(), plain, "{modifier}");
        }
        let star = parse_query("SELECT DISTINCT * WHERE { ?x ub:worksFor ?y }").unwrap();
        assert_eq!(star.distinguished().len(), 2);
        // Only right after SELECT: anywhere else it is not a variable.
        assert!(parse_query("SELECT ?x DISTINCT WHERE { ?x ub:worksFor ?y }").is_err());
    }

    #[test]
    fn comments_are_skipped_outside_iris_and_literals() {
        let plain = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?y }").unwrap();
        for text in [
            "# lecturers\nSELECT ?x WHERE { ?x ub:worksFor ?y }",
            "SELECT ?x WHERE { ?x ub:worksFor ?y } # trailing",
            "SELECT ?x WHERE { ?x ub:worksFor ?y }# trailing\n",
            "SELECT ?x # the worker\nWHERE {\n  ?x ub:worksFor ?y . # a pattern\n}",
            "SELECT ?x WHERE { ?x ub:worksFor ?y#glued\n}",
        ] {
            assert_eq!(parse_query(text).unwrap(), plain, "{text:?}");
        }
        let q = parse_query("SELECT ?x WHERE { ?x <http://e.org/p#q> \"C# #1\" } # c").unwrap();
        assert_eq!(
            q.patterns()[0].property,
            PatternTerm::Constant(Term::iri("http://e.org/p#q"))
        );
        assert_eq!(
            q.patterns()[0].object,
            PatternTerm::Constant(Term::literal("C# #1"))
        );
        // A comment hides the rest of its line, closing brace included.
        assert!(parse_query("SELECT ?x WHERE { ?x ub:worksFor ?y # }").is_err());
    }

    #[test]
    fn multi_line_lubm_query_parses() {
        let text = "
            SELECT ?X ?Y ?Z WHERE {
              ?X rdf:type ub:GraduateStudent .
              ?X ub:undergraduateDegreeFrom ?Y .
              ?Z ub:subOrganizationOf ?Y .
              ?X ub:memberOf ?Z .
              ?Z rdf:type ub:Department .
              ?Y rdf:type ub:University .
            }";
        let q = parse_query(text).unwrap();
        assert_eq!(q.len(), 6);
        assert_eq!(q.join_variables().len(), 3);
    }
}
