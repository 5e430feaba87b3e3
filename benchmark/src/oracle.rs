//! The correctness gate: every distinct request's first answer is checked
//! against `engine::reference` on the same graph, and every later answer
//! must hash-equal its verified first one.

use crate::json::{self, Value};
use cliquesquare_engine::reference::reference_eval_with;
use cliquesquare_mapreduce::Runtime;
use cliquesquare_rdf::{Graph, TriplePosition};
use cliquesquare_server::service::DEFAULT_MAX_ROWS;
use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};
use std::hash::{Hash, Hasher};

/// An upper bound on a pattern's matches from its constants alone: the
/// smallest positional index among them.
fn pattern_cardinality(graph: &Graph, pattern: &TriplePattern) -> usize {
    [
        (&pattern.subject, TriplePosition::Subject),
        (&pattern.property, TriplePosition::Property),
        (&pattern.object, TriplePosition::Object),
    ]
    .into_iter()
    .filter_map(|(term, position)| match term {
        PatternTerm::Constant(constant) => Some(
            graph
                .lookup(constant)
                .map_or(0, |id| graph.index_of(position, id).len()),
        ),
        PatternTerm::Variable(_) => None,
    })
    .min()
    .unwrap_or(graph.len())
}

/// The same query with its patterns in an order the reference evaluator can
/// afford at two million triples. It evaluates pattern-at-a-time in the
/// order given, and the LUBM texts list their `rdf:type` patterns first —
/// on Q4 and Q5 that is a cross product of every lecturer with every
/// department before the first join. Greedy: always extend by a pattern
/// connected to what is bound, fewest new variables first, then fewest
/// candidate triples. The answer set does not depend on the order.
pub fn oracle_order(graph: &Graph, query: &BgpQuery) -> BgpQuery {
    let mut rest: Vec<TriplePattern> = query.patterns().to_vec();
    let mut bound: Vec<Variable> = Vec::new();
    let mut ordered = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let next = (0..rest.len())
            .min_by_key(|&i| {
                let variables = rest[i].variables();
                let known = variables.iter().filter(|v| bound.contains(v)).count();
                let disconnected = known == 0 && !bound.is_empty();
                (
                    disconnected,
                    variables.len() - known,
                    pattern_cardinality(graph, &rest[i]),
                )
            })
            .expect("rest is non-empty");
        let pattern = rest.remove(next);
        for variable in pattern.variables() {
            if !bound.contains(&variable) {
                bound.push(variable);
            }
        }
        ordered.push(pattern);
    }
    BgpQuery::named(query.name(), query.distinguished().to_vec(), ordered)
}

/// What a correct answer body must say.
#[derive(Debug, PartialEq)]
pub struct Expected {
    pub variables: Vec<String>,
    pub total_rows: usize,
    /// The first `DEFAULT_MAX_ROWS` distinct rows in canonical order.
    pub rows: Vec<Vec<String>>,
}

/// The reference evaluator's answer to `query`, in the server's terms.
pub fn expected(graph: &Graph, query: &BgpQuery, runtime: &Runtime) -> Expected {
    let answer = reference_eval_with(graph, &oracle_order(graph, query), runtime);
    // An empty answer may carry the schema of wherever evaluation stopped;
    // the query's own projection is the schema either way.
    let schema = match query.distinguished() {
        [] => answer.schema(),
        distinguished => distinguished,
    };
    Expected {
        variables: schema.iter().map(|v| v.to_string()).collect(),
        total_rows: answer.len(),
        rows: answer
            .rows()
            .take(DEFAULT_MAX_ROWS)
            .map(|row| {
                row.iter()
                    .map(|&id| match graph.decode(id) {
                        Some(term) => term.to_string(),
                        None => format!("#{id}"),
                    })
                    .collect()
            })
            .collect(),
    }
}

/// Checks one answer body against the oracle; `Err` says what differs.
pub fn check_body(body: &[u8], expected: &Expected) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let value = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let strings = |v: &Value| -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect()
    };
    let variables = value
        .get("variables")
        .and_then(strings)
        .ok_or("no variables")?;
    if variables != expected.variables {
        return Err(format!(
            "variables {variables:?}, reference {:?}",
            expected.variables
        ));
    }
    let total = value
        .get("total_rows")
        .and_then(Value::as_f64)
        .ok_or("no total_rows")? as usize;
    if total != expected.total_rows {
        return Err(format!(
            "total_rows {total}, reference {}",
            expected.total_rows
        ));
    }
    let truncated = value
        .get("truncated")
        .and_then(Value::as_bool)
        .ok_or("no truncated flag")?;
    if truncated != (expected.total_rows > DEFAULT_MAX_ROWS) {
        return Err(format!("truncated is {truncated} at {total} rows"));
    }
    let rows: Vec<Vec<String>> = value
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("no rows")?
        .iter()
        .map(strings)
        .collect::<Option<_>>()
        .ok_or("rows are not arrays of strings")?;
    if rows.len() != expected.rows.len() {
        return Err(format!(
            "{} rows in the body, reference has {}",
            rows.len(),
            expected.rows.len()
        ));
    }
    match rows.iter().zip(&expected.rows).position(|(a, b)| a != b) {
        Some(index) => Err(format!(
            "row {index} is {:?}, reference {:?}",
            rows[index], expected.rows[index]
        )),
        None => Ok(()),
    }
}

/// Hash of an answer body without its two timing lines — what must stay
/// equal across every repetition of a request.
pub fn stable_hash(body: &[u8]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for line in body.split(|&b| b == b'\n') {
        let volatile = [&b"\"wall_seconds\":"[..], &b"\"simulated_seconds\":"[..]]
            .iter()
            .any(|key| line.windows(key.len()).any(|w| w == *key));
        if !volatile {
            line.hash(&mut hasher);
        }
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_querygen::lubm_queries;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};

    #[test]
    fn reordering_keeps_the_answer_and_avoids_cross_products() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        for query in lubm_queries() {
            let ordered = oracle_order(&graph, &query);
            assert_eq!(ordered.patterns().len(), query.patterns().len());
            let mut bound: Vec<Variable> = Vec::new();
            for pattern in ordered.patterns() {
                let variables = pattern.variables();
                assert!(
                    bound.is_empty() || variables.iter().any(|v| bound.contains(v)),
                    "{}: {pattern} is a cross product",
                    query.name()
                );
                bound.extend(variables);
            }
            // An empty answer carries the schema of wherever evaluation
            // stopped, so compare rows, not relations.
            let reordered = reference_eval_with(&graph, &ordered, &Runtime::sequential());
            let original = reference_eval_with(&graph, &query, &Runtime::sequential());
            assert!(reordered.rows().eq(original.rows()), "{}", query.name());
        }
    }

    #[test]
    fn the_hash_ignores_timing_lines_only() {
        let a = b"{\n  \"total_rows\": 2,\n  \"wall_seconds\": 0.001000,\n  \"rows\": []\n}\n";
        let b = b"{\n  \"total_rows\": 2,\n  \"wall_seconds\": 0.002000,\n  \"rows\": []\n}\n";
        let c = b"{\n  \"total_rows\": 3,\n  \"wall_seconds\": 0.001000,\n  \"rows\": []\n}\n";
        assert_eq!(stable_hash(a), stable_hash(b));
        assert_ne!(stable_hash(a), stable_hash(c));
    }

    #[test]
    fn a_wrong_row_is_named() {
        let expected = Expected {
            variables: vec!["?x".into()],
            total_rows: 1,
            rows: vec![vec!["<a>".into()]],
        };
        let ok = b"{\"variables\": [\"?x\"], \"total_rows\": 1, \"truncated\": false, \"rows\": [[\"<a>\"]]}";
        assert_eq!(check_body(ok, &expected), Ok(()));
        let bad = b"{\"variables\": [\"?x\"], \"total_rows\": 1, \"truncated\": false, \"rows\": [[\"<b>\"]]}";
        assert!(check_body(bad, &expected).unwrap_err().contains("row 0"));
    }
}
