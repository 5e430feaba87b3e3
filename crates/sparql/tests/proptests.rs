//! Property-based tests for the BGP query model and parser, including that
//! untrusted text never panics the parser.

use cliquesquare_sparql::parser::parse_query;
use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};
use proptest::prelude::*;

fn pattern_term_strategy() -> impl Strategy<Value = PatternTerm> {
    prop_oneof![
        3 => "[a-z]{1,4}".prop_map(PatternTerm::variable),
        1 => "[a-z]{1,6}".prop_map(|s| PatternTerm::iri(format!("http://ex.org/{s}"))),
        1 => "[A-Za-z0-9]{1,8}".prop_map(PatternTerm::literal),
    ]
}

fn pattern_strategy() -> impl Strategy<Value = TriplePattern> {
    (
        pattern_term_strategy(),
        "[a-z]{1,6}".prop_map(|s| PatternTerm::iri(format!("http://ex.org/p/{s}"))),
        pattern_term_strategy(),
    )
        .prop_map(|(s, p, o)| TriplePattern::new(s, p, o))
}

fn query_strategy() -> impl Strategy<Value = BgpQuery> {
    proptest::collection::vec(pattern_strategy(), 1..8).prop_map(|patterns| {
        let vars: Vec<Variable> = patterns
            .iter()
            .flat_map(TriplePattern::variables)
            .take(3)
            .collect();
        BgpQuery::new(vars, patterns)
    })
}

/// The tokens SPARQL text is made of (`|`-separated), a few of them only
/// halves of one.
const SPARQL_TOKENS: &str =
    "SELECT|WHERE|PREFIX|{|}|?|?x|:|ub:p|<|>|<http://e/a>|\"|\"lit\"|\\|*|a|.| |\n";

/// The concatenation of the tokens `picks` selects from a `|`-separated
/// table (each pick modulo the table's length).
fn token_soup(table: &str, picks: &[usize]) -> String {
    let tokens: Vec<&str> = table.split('|').collect();
    picks
        .iter()
        .map(|pick| tokens[pick % tokens.len()])
        .collect()
}

proptest! {
    /// Arbitrary bytes, read as text, parse to a query or to an error.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let _ = parse_query(&String::from_utf8_lossy(&bytes));
    }

    /// So does any sequence of SPARQL tokens, which gets deeper into the
    /// grammar than raw bytes do.
    #[test]
    fn token_soup_never_panics_the_parser(
        picks in proptest::collection::vec(any::<usize>(), 0..40)
    ) {
        let _ = parse_query(&token_soup(SPARQL_TOKENS, &picks));
    }

    /// Printing a query and parsing it back yields the same patterns and the
    /// same distinguished variables (when the query has any variables).
    #[test]
    fn display_parse_round_trip(query in query_strategy()) {
        prop_assume!(!query.variables().is_empty());
        prop_assume!(!query.distinguished().is_empty());
        let text = query.to_string();
        let reparsed = parse_query(&text).expect("rendered query parses");
        prop_assert_eq!(reparsed.patterns(), query.patterns());
        prop_assert_eq!(reparsed.distinguished(), query.distinguished());
    }

    /// Join variables are exactly the variables occurring in at least two
    /// patterns, and they are a subset of all variables.
    #[test]
    fn join_variables_are_shared_variables(query in query_strategy()) {
        let all = query.variables();
        let join = query.join_variables();
        for v in &join {
            prop_assert!(all.contains(v));
            let occurrences = query.patterns().iter().filter(|p| p.mentions(v)).count();
            prop_assert!(occurrences >= 2);
        }
        for v in &all {
            let occurrences = query.patterns().iter().filter(|p| p.mentions(v)).count();
            prop_assert_eq!(occurrences >= 2, join.contains(v));
        }
    }

    /// Connected components partition the patterns, each component is
    /// connected, and a query is connected iff it has at most one component.
    #[test]
    fn connected_components_partition_the_query(query in query_strategy()) {
        let components = query.connected_components();
        let total: usize = components.iter().map(BgpQuery::len).sum();
        prop_assert_eq!(total, query.len());
        for component in &components {
            prop_assert!(component.is_connected());
        }
        prop_assert_eq!(query.is_connected(), components.len() <= 1);
    }

    /// `is_connected` counts components without building them; on queries of
    /// 0 to 6 patterns over four variable names — few enough names that both
    /// outcomes occur at every size from 2 up — it agrees with the components
    /// actually built.
    #[test]
    fn is_connected_agrees_with_the_built_components(
        ends in proptest::collection::vec(("[a-d]", "[a-d]"), 0..7)
    ) {
        let patterns: Vec<TriplePattern> = ends
            .into_iter()
            .map(|(s, o)| {
                TriplePattern::new(
                    PatternTerm::variable(s),
                    PatternTerm::iri("http://ex.org/p"),
                    PatternTerm::variable(o),
                )
            })
            .collect();
        let query = BgpQuery::new(Vec::new(), patterns);
        prop_assert_eq!(query.is_connected(), query.connected_components().len() <= 1);
    }
}
