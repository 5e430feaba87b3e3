//! A naive reference evaluator for BGP queries.
//!
//! Used as a correctness oracle: the distributed executor must return exactly
//! the same (distinct) answer set as this straightforward pattern-at-a-time
//! evaluation over the in-memory graph. The evaluation is embarrassingly
//! parallel across binding rows, so [`reference_eval_with`] chunks the
//! current binding table over a [`Runtime`]'s OS threads — chunk outputs are
//! concatenated in chunk order, making the result **bit-identical** to the
//! sequential evaluation at any thread count.
//!
//! Patterns are matched through [`Graph::match_pattern`], so the first
//! evaluation over a graph builds the graph's positional indexes for the
//! positions its constants fix; serving never reads them, so a served
//! graph pays for them only when it is checked against this evaluator.
//!
//! The binding table is built with `push_row`, which claims no order —
//! intermediate binding order is scan order, which the final `distinct`
//! re-sorts anyway; the executor's order-elided pipeline is differentially
//! tested against this evaluator precisely because the two take entirely
//! different ordering paths to the same answer set.

use crate::relation::Relation;
use cliquesquare_mapreduce::Runtime;
use cliquesquare_rdf::{Graph, TermId, TriplePosition};
use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};

/// Below this many binding rows, chunking across threads costs more than it
/// saves; the pattern is evaluated inline.
const PARALLEL_ROW_THRESHOLD: usize = 256;

/// Resolves a constant pattern term against the graph dictionary; a constant
/// that does not occur in the data can never match.
fn constant_id(graph: &Graph, term: &PatternTerm) -> Option<Option<TermId>> {
    match term {
        PatternTerm::Variable(_) => Some(None),
        PatternTerm::Constant(t) => graph.lookup(t).map(Some),
    }
}

/// The per-pattern evaluation context shared by all binding rows: every
/// position → column mapping is resolved **once** per pattern, so extending
/// a row is a `match_pattern` index probe plus slice copies into a reused
/// scratch row — no per-row heap allocation and no per-triple schema scans.
struct PatternEval<'a> {
    graph: &'a Graph,
    /// Arity of the incoming binding rows (the output row's carried prefix).
    binding_arity: usize,
    /// Output arity (carried prefix + the pattern's new variables).
    out_arity: usize,
    /// Pattern constants resolved against the dictionary, per position.
    consts: [Option<TermId>; 3],
    /// Positions whose variable is already bound: the binding column that
    /// fixes the position's value for the index probe.
    carried: [Option<usize>; 3],
    /// First occurrence of each *new* variable: (position, output slot).
    writes: Vec<(TriplePosition, usize)>,
    /// Repeated occurrences of new variables: the position must agree with
    /// the slot already written from the same triple.
    checks: Vec<(TriplePosition, usize)>,
}

impl PatternEval<'_> {
    /// Extends one binding row with every matching triple, appending the
    /// consistent extensions to `out` (in graph scan order, so processing
    /// rows in order reproduces the sequential output exactly).
    fn extend_row(&self, row: &[TermId], scratch: &mut [TermId], out: &mut Relation) {
        let fixed = [
            self.carried[0].map(|c| row[c]).or(self.consts[0]),
            self.carried[1].map(|c| row[c]).or(self.consts[1]),
            self.carried[2].map(|c| row[c]).or(self.consts[2]),
        ];
        scratch[..self.binding_arity].copy_from_slice(row);
        for triple in self.graph.match_pattern(fixed[0], fixed[1], fixed[2]) {
            // Carried variables are already enforced by the index probe;
            // only the pattern's new variables need writing / checking.
            for &(position, slot) in &self.writes {
                scratch[slot] = triple.get(position);
            }
            let consistent = self
                .checks
                .iter()
                .all(|&(position, slot)| triple.get(position) == scratch[slot]);
            if consistent {
                out.push_row(scratch);
            }
        }
    }
}

/// Evaluates one triple pattern under an existing set of bindings, extending
/// each binding row with the pattern's variables. Binding rows are chunked
/// across the runtime's threads; chunk outputs are concatenated in chunk
/// order, so the output is identical at every thread count.
fn extend(
    graph: &Graph,
    bindings: Relation,
    pattern: &TriplePattern,
    runtime: &Runtime,
) -> Relation {
    // Output schema: existing variables plus the pattern's new ones.
    let mut schema: Vec<Variable> = bindings.schema().to_vec();
    for v in pattern.variables() {
        if !schema.contains(&v) {
            schema.push(v.clone());
        }
    }

    let consts = [
        constant_id(graph, &pattern.subject),
        constant_id(graph, &pattern.property),
        constant_id(graph, &pattern.object),
    ];
    if consts.iter().any(Option::is_none) {
        // A constant absent from the dictionary can never match.
        return Relation::empty(schema);
    }

    let positions = [
        (&pattern.subject, TriplePosition::Subject),
        (&pattern.property, TriplePosition::Property),
        (&pattern.object, TriplePosition::Object),
    ];
    let mut carried: [Option<usize>; 3] = [None; 3];
    let mut writes: Vec<(TriplePosition, usize)> = Vec::new();
    let mut checks: Vec<(TriplePosition, usize)> = Vec::new();
    let mut written = vec![false; schema.len()];
    written[..bindings.schema().len()].fill(true);
    for (index, (term, position)) in positions.iter().enumerate() {
        if let PatternTerm::Variable(v) = term {
            if let Some(column) = bindings.column(v) {
                carried[index] = Some(column);
            } else {
                let slot = schema.iter().position(|s| s == v).expect("in schema");
                if written[slot] {
                    checks.push((*position, slot));
                } else {
                    written[slot] = true;
                    writes.push((*position, slot));
                }
            }
        }
    }

    let eval = PatternEval {
        graph,
        binding_arity: bindings.schema().len(),
        out_arity: schema.len(),
        consts: [
            consts[0].expect("checked"),
            consts[1].expect("checked"),
            consts[2].expect("checked"),
        ],
        carried,
        writes,
        checks,
    };

    if runtime.is_parallel() && bindings.len() >= PARALLEL_ROW_THRESHOLD {
        // Over-split relative to the thread count so the dynamic wave
        // scheduler can balance skewed chunks.
        let chunk_rows = bindings.len().div_ceil(runtime.threads() * 4).max(1);
        let ranges: Vec<(usize, usize)> = (0..bindings.len())
            .step_by(chunk_rows)
            .map(|start| (start, (start + chunk_rows).min(bindings.len())))
            .collect();
        let tasks: Vec<_> = ranges
            .into_iter()
            .map(|(start, end)| {
                let eval = &eval;
                let bindings = &bindings;
                let schema = &schema;
                move || {
                    let mut out = Relation::empty(schema.clone());
                    let mut scratch = vec![TermId(0); eval.out_arity];
                    for index in start..end {
                        eval.extend_row(bindings.row(index), &mut scratch, &mut out);
                    }
                    out
                }
            })
            .collect();
        // Chunk outputs claim no order, so the merge concatenates them in
        // chunk order: identical to the sequential row order at every
        // thread count.
        Relation::merge_ordered(runtime.run_wave(tasks))
    } else {
        let mut output = Relation::empty(schema.clone());
        let mut scratch = vec![TermId(0); eval.out_arity];
        for row in bindings.rows() {
            eval.extend_row(row, &mut scratch, &mut output);
        }
        output
    }
}

/// Evaluates a BGP query over the graph, sequentially, and returns the
/// **distinct** set of bindings of its distinguished variables; see
/// [`reference_eval_with`] for an explicit runtime.
pub fn reference_eval(graph: &Graph, query: &BgpQuery) -> Relation {
    reference_eval_with(graph, query, &Runtime::sequential())
}

/// Evaluates a BGP query over the graph on the given runtime and returns the
/// **distinct** set of bindings of its distinguished variables. The answer
/// is bit-identical at every thread count.
pub fn reference_eval_with(graph: &Graph, query: &BgpQuery, runtime: &Runtime) -> Relation {
    let mut bindings = Relation::unit();
    for pattern in query.patterns() {
        bindings = extend(graph, bindings, pattern, runtime);
        if bindings.is_empty() {
            break;
        }
    }
    let projected = if query.distinguished().is_empty() {
        bindings
    } else {
        bindings.project(query.distinguished())
    };
    projected.distinct()
}

/// Convenience: the number of distinct answers of a query (`|Q|` in
/// Figure 22).
pub fn reference_count(graph: &Graph, query: &BgpQuery) -> usize {
    reference_eval(graph, query).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_rdf::Term;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use cliquesquare_sparql::parser::parse_query;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("alice"), Term::iri("worksFor"), Term::iri("d1"));
        g.insert_terms(Term::iri("bob"), Term::iri("worksFor"), Term::iri("d2"));
        g.insert_terms(Term::iri("carol"), Term::iri("memberOf"), Term::iri("d1"));
        g.insert_terms(Term::iri("dave"), Term::iri("memberOf"), Term::iri("d1"));
        g.insert_terms(Term::iri("erin"), Term::iri("memberOf"), Term::iri("d2"));
        g
    }

    #[test]
    fn join_on_shared_variable() {
        let g = tiny_graph();
        let q = parse_query("SELECT ?p ?s WHERE { ?p <worksFor> ?d . ?s <memberOf> ?d }").unwrap();
        let result = reference_eval(&g, &q);
        // alice-carol, alice-dave (d1) and bob-erin (d2).
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn constants_filter_matches() {
        let g = tiny_graph();
        let q = parse_query("SELECT ?s WHERE { ?s <memberOf> <d1> }").unwrap();
        assert_eq!(reference_eval(&g, &q).len(), 2);
        let q2 = parse_query("SELECT ?s WHERE { ?s <memberOf> <d9> }").unwrap();
        assert_eq!(reference_eval(&g, &q2).len(), 0);
    }

    #[test]
    fn unknown_constant_yields_empty() {
        let g = tiny_graph();
        let q = parse_query("SELECT ?s WHERE { ?s <unknownProperty> ?o }").unwrap();
        assert!(reference_eval(&g, &q).is_empty());
    }

    #[test]
    fn projection_deduplicates() {
        let g = tiny_graph();
        // Two members of d1 ⇒ two bindings, but projected on ?p alone they collapse.
        let q = parse_query("SELECT ?p WHERE { ?p <worksFor> ?d . ?s <memberOf> ?d }").unwrap();
        assert_eq!(reference_eval(&g, &q).len(), 2);
    }

    #[test]
    fn lubm_counts_are_stable() {
        let g = LubmGenerator::new(LubmScale::tiny()).generate();
        let q = parse_query(
            "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?y }",
        )
        .unwrap();
        let first = reference_count(&g, &q);
        let second = reference_count(&g, &q);
        assert_eq!(first, second);
        assert!(first > 0);
    }

    #[test]
    fn parallel_reference_is_bit_identical() {
        let g = LubmGenerator::new(LubmScale::tiny()).generate();
        let queries = [
            "SELECT ?x ?y WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?y }",
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
        ];
        for query in queries {
            let q = parse_query(query).unwrap();
            let sequential = reference_eval_with(&g, &q, &Runtime::sequential());
            for threads in [2, 8] {
                let parallel = reference_eval_with(&g, &q, &Runtime::with_threads(threads));
                assert_eq!(sequential, parallel, "threads={threads} on {query}");
                assert!(sequential.rows().eq(parallel.rows()));
            }
            assert!(!sequential.is_empty());
        }
    }

    #[test]
    fn chunked_parallel_extension_matches_sequential() {
        // Enough binding rows that the second pattern's evaluation crosses
        // PARALLEL_ROW_THRESHOLD and actually runs chunked.
        let mut g = Graph::new();
        for i in 0..(2 * PARALLEL_ROW_THRESHOLD) {
            g.insert_terms(
                Term::iri(format!("s{i}")),
                Term::iri("p"),
                Term::iri(format!("o{}", i % 20)),
            );
        }
        let q = parse_query("SELECT ?a ?b WHERE { ?a <p> ?x . ?b <p> ?x }").unwrap();
        let sequential = reference_eval_with(&g, &q, &Runtime::sequential());
        let parallel = reference_eval_with(&g, &q, &Runtime::with_threads(4));
        assert_eq!(sequential, parallel);
        assert!(sequential.len() > PARALLEL_ROW_THRESHOLD);
    }

    #[test]
    fn repeated_variables_require_equal_bindings() {
        let mut g = tiny_graph();
        g.insert_terms(Term::iri("loop"), Term::iri("worksFor"), Term::iri("loop"));
        let q = parse_query("SELECT ?x WHERE { ?x <worksFor> ?x }").unwrap();
        let result = reference_eval(&g, &q);
        assert_eq!(result.len(), 1);
    }
}
