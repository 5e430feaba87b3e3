//! Tests of the interesting-orders pass and the sort elision it buys.
//!
//! Three layers:
//! * unit tests of the propagation rules on the paper's example queries
//!   (Figures 1, 10, 11 and 14) — requirements flow down to join inputs,
//!   delivered orders satisfy them where the translation promises it;
//! * whole-suite elision accounting on the 14 LUBM queries — re-sorted join
//!   inputs are the rare exception, not the rule, and multi-job plans elide
//!   their intermediate re-sorts;
//! * a differential matrix: order-elided execution of random queries — and
//!   of selective templates over LUBM and SP²B, whose scans seek constants
//!   and read only their siblings' keys — is **bit-identical** to the
//!   reference evaluator's answer relation, at threads {1, 2, 8}.

use cliquesquare_core::{paper_examples, Optimizer, Variant};
use cliquesquare_engine::reference::reference_eval_with;
use cliquesquare_engine::relation::stats;
use cliquesquare_engine::{translate, Executor, PhysicalOp};
use cliquesquare_mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare_querygen::lubm_queries::lubm_queries;
use cliquesquare_querygen::{SyntheticShape, SyntheticWorkload};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale, Term};
use cliquesquare_sparql::parser::parse_query;
use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn lubm_cluster() -> Cluster {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    Cluster::load(graph, ClusterConfig::with_nodes(4))
}

/// The propagation rules, checked on every MSC plan of every paper example
/// query: each join input is required in the join's attribute order, scans
/// and pass-throughs deliver duplicate-free orders over their own output,
/// and a join whose requirement its natural key order satisfies keeps it.
#[test]
fn ordering_rules_hold_on_the_paper_example_plans() {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    for query in paper_examples::all() {
        let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
        assert!(
            !result.plans.is_empty(),
            "{}: MSC finds a plan for every paper example",
            query.name()
        );
        for logical in result.plans.iter().take(4) {
            let physical = translate(logical, &graph);
            for id in physical.ops_where(|_| true) {
                let op = physical.op(id);
                let ordering = physical.ordering(id);
                // Delivered orders never repeat a variable and only mention
                // the operator's own output.
                let output = op.output();
                for (i, v) in ordering.delivered.iter().enumerate() {
                    assert!(!ordering.delivered[..i].contains(v), "duplicate in order");
                    assert!(output.contains(v), "delivered order outside the output");
                }
                // A join requires each input in its attribute order — unless
                // a different consumer of a shared input claimed first.
                if let PhysicalOp::MapJoin {
                    attributes, inputs, ..
                }
                | PhysicalOp::ReduceJoin {
                    attributes, inputs, ..
                } = op
                {
                    let attrs: Vec<Variable> = attributes.iter().cloned().collect();
                    let mut satisfied_inputs = 0usize;
                    for input in inputs {
                        let below = physical.ordering(*input);
                        if below.required == attrs && below.is_satisfied() {
                            satisfied_inputs += 1;
                        }
                    }
                    assert!(
                        satisfied_inputs > 0,
                        "{}: no input of a join delivers its key order",
                        query.name()
                    );
                    // The join's own delivered order satisfies its
                    // requirement by construction.
                    assert!(ordering.is_satisfied(), "join ordering unsatisfied");
                }
            }
        }
    }
}

/// Executing the paper's running example (Figure 1 Q1, 11 patterns) matches
/// the reference evaluator while eliding more sorts than it performs.
#[test]
fn figure1_q1_executes_order_elided_and_matches_the_reference() {
    // The figure's vocabulary (ub:p1 … ub:p11) does not exist in the LUBM
    // data, so build a small synthetic graph over it.
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(7);
    let mut graph = Graph::new();
    for p in 1..=11u32 {
        for _ in 0..120 {
            let s = rng.gen_range(0..30);
            let o = rng.gen_range(0..30);
            graph.insert_terms(
                Term::iri(format!("http://example.org/n{s}")),
                Term::iri(cliquesquare_rdf::term::vocab::ub(&format!("p{p}"))),
                Term::iri(format!("http://example.org/n{o}")),
            );
        }
    }
    // "C1" is a literal object in the figure; make sure some triples match.
    for s in 0..10u32 {
        graph.insert_terms(
            Term::iri(format!("http://example.org/n{s}")),
            Term::iri(cliquesquare_rdf::term::vocab::ub("p11")),
            Term::literal("C1"),
        );
    }
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    let query = paper_examples::figure1_q1();
    let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
    let logical = result.flattest_plans()[0].clone();
    let reference = reference_eval_with(cluster.graph(), &query, &Runtime::sequential());

    stats::reset();
    let output = Executor::sequential(&cluster).execute_logical(&logical);
    let after = stats::snapshot();
    assert_eq!(output.results.clone().distinct(), reference);
    assert!(
        after.sorts_elided > after.sorts_performed,
        "elided {} vs performed {}",
        after.sorts_elided,
        after.sorts_performed
    );
}

/// Across the whole 14-query LUBM suite, every join input arrives in key
/// order: with shared-consumer claim splitting and the ≤1-row fast path, no
/// query pays a single re-sort, and every executor answer set still matches
/// the reference evaluator.
#[test]
fn lubm_suite_pays_no_join_input_resorts() {
    let cluster = lubm_cluster();
    let executor = Executor::sequential(&cluster);
    let mut presorted_total = 0u64;
    for query in lubm_queries() {
        let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
        let logical = result.flattest_plans()[0].clone();
        let reference = reference_eval_with(cluster.graph(), &query, &Runtime::sequential());
        stats::reset();
        let output = executor.execute_logical(&logical);
        let after = stats::snapshot();
        assert_eq!(
            output.results.clone().distinct(),
            reference,
            "{}: order-elided execution changed the answers",
            query.name()
        );
        assert_eq!(
            after.join_inputs_resorted,
            0,
            "{}: a join input paid a re-sort",
            query.name()
        );
        presorted_total += after.join_inputs_presorted;
    }
    assert!(presorted_total > 0, "the suite exercises ordered joins");
}

/// Multi-job plans elide their intermediate re-sorts: on a plan with at
/// least one MapShuffler (a reduce join consuming a reduce join), the
/// shuffled intermediate arrives in the consuming join's key order.
#[test]
fn multi_job_plans_keep_shuffled_intermediates_in_key_order() {
    let cluster = lubm_cluster();
    let mut checked = 0usize;
    for query in lubm_queries() {
        let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
        let logical = result.flattest_plans()[0].clone();
        let physical = translate(&logical, cluster.graph());
        let shufflers = physical.ops_where(|op| matches!(op, PhysicalOp::MapShuffler { .. }));
        if shufflers.is_empty() {
            continue;
        }
        checked += 1;
        for id in shufflers {
            let ordering = physical.ordering(id);
            assert!(
                ordering.is_satisfied(),
                "{}: shuffled intermediate not in its consumer's key order: {ordering:?}",
                query.name()
            );
        }
    }
    assert!(checked > 0, "the suite contains multi-job plans");
}

/// Strategy: a random query shape, size and seed (same distribution as the
/// synthetic optimizer workload of Section 6.2).
fn query_strategy() -> impl Strategy<Value = BgpQuery> {
    (0usize..4, 2usize..7, any::<u64>()).prop_map(|(shape, size, seed)| {
        let shape = SyntheticShape::ALL[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticWorkload::query(shape, size, &mut rng)
    })
}

/// Nodes of [`synthetic_graph`].
const SYNTHETIC_NODES: usize = 400;

fn synthetic_node(index: usize) -> Term {
    Term::iri(format!("http://synthetic.example/node{index}"))
}

/// A random graph over the synthetic property vocabulary used by the
/// generated queries, so that executions can produce non-empty answers —
/// with files long enough (about 200 rows per node) that a scan next to a
/// constant-bound sibling reads by key.
fn synthetic_graph(seed: u64) -> Graph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = Graph::new();
    for _ in 0..6000 {
        let s = rng.gen_range(0..SYNTHETIC_NODES);
        let p = rng.gen_range(1..11);
        let o = rng.gen_range(0..SYNTHETIC_NODES);
        graph.insert_terms(
            synthetic_node(s),
            Term::iri(format!("http://synthetic.example/p{p}")),
            synthetic_node(o),
        );
    }
    graph
}

/// `query` with the `pick`-th of its variables that occur exactly once (the
/// free end of a chain, a leaf of a star) bound to `constant`: the query
/// stays connected and becomes selective. Unchanged when every variable
/// joins.
fn bind_a_leaf(query: &BgpQuery, pick: usize, constant: &Term) -> BgpQuery {
    let occurrences = |v: &Variable| {
        let terms = query.patterns().iter().flat_map(|p| p.terms());
        terms.filter(|t| t.as_variable() == Some(v)).count()
    };
    let variables = query.variables();
    let leaves: Vec<&Variable> = variables.iter().filter(|v| occurrences(v) == 1).collect();
    if leaves.is_empty() {
        return query.clone();
    }
    let leaf = leaves[pick % leaves.len()];
    let bind = |term: &PatternTerm| match term.as_variable() {
        Some(v) if v == leaf => PatternTerm::Constant(constant.clone()),
        _ => term.clone(),
    };
    BgpQuery::named(
        query.name().to_string(),
        variables.iter().filter(|v| *v != leaf).cloned().collect(),
        query
            .patterns()
            .iter()
            .map(|p| TriplePattern::new(bind(&p.subject), bind(&p.property), bind(&p.object)))
            .collect(),
    )
}

/// Executes the flattest MSC plan of `query` at threads {1, 2, 8} and holds
/// every result relation to the reference evaluator's, bit for bit.
/// Returns how many scans read only a sibling's keys.
fn assert_bit_identical_to_the_reference(cluster: &Cluster, query: &BgpQuery) -> usize {
    let result = Optimizer::with_variant(Variant::Msc).optimize(query);
    assert!(!result.plans.is_empty(), "{query}: connected queries plan");
    let physical = translate(result.flattest_plans()[0], cluster.graph());
    let reference = reference_eval_with(cluster.graph(), query, &Runtime::sequential());

    let sequential = Executor::sequential(cluster).execute_profiled(&physical);
    assert!(sequential.results.is_canonical());
    // A query distinguishing every variable may execute without a root
    // projection, so the executor's schema is the join-union order while
    // the reference's follows pattern-traversal order; align the columns
    // before the bit-for-bit comparison.
    let align = |results: &cliquesquare_engine::Relation| {
        let distinct = results.clone().distinct();
        distinct.project(reference.schema()).distinct()
    };
    if reference.is_empty() {
        assert!(sequential.results.is_empty(), "{query}: reference is empty");
    } else {
        assert_eq!(
            align(&sequential.results),
            reference,
            "{query}: sequential order-elided execution differs from the reference"
        );
    }
    for threads in [2usize, 8] {
        let parallel =
            Executor::with_runtime(cluster, Runtime::with_threads(threads)).execute(&physical);
        assert_eq!(
            sequential.results, parallel.results,
            "{query}: threads={threads} changed the result relation"
        );
    }
    let profile = sequential.profile.expect("profiled run has a span tree");
    let operators = profile.children.iter().flat_map(|job| &job.children);
    operators
        .filter(|op| op.attrs.iter().any(|(name, _)| name == "keys_in"))
        .count()
}

/// Selective templates — a constant in subject position, in object
/// position, in both around a variable property, a constant that leaves one
/// join input empty, repeated variables, two-attribute MapJoins — over LUBM
/// and SP²B match the reference at every thread count, and on both datasets
/// some scans do read by key (the differential covers the restricted path,
/// not only the full reads of the constant-free suites).
#[test]
fn selective_templates_are_bit_identical_to_the_reference() {
    let lubm = Cluster::load(
        LubmGenerator::new(LubmScale::with_universities(4)).generate(),
        ClusterConfig::with_nodes(4),
    );
    let sp2b = Cluster::load(
        Sp2bGenerator::new(Sp2bScale::with_articles(1500)).generate(),
        ClusterConfig::with_nodes(3),
    );
    const SP2B_PREFIXES: &str = "PREFIX bench: <http://localhost/vocabulary/bench/> \
         PREFIX dc: <http://purl.org/dc/elements/1.1/> \
         PREFIX dcterms: <http://purl.org/dc/terms/> \
         PREFIX swrc: <http://swrc.ontoware.org/ontology#> \
         PREFIX foaf: <http://xmlns.com/foaf/0.1/> ";
    let matrix: [(&Cluster, &str, &[&str]); 2] = [
        (
            &lubm,
            "",
            &[
                "SELECT ?X WHERE { ?X rdf:type ub:AssistantProfessor . \
                 ?X ub:doctoralDegreeFrom <http://www.University0.edu> }",
                "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
                 ?D ub:subOrganizationOf <http://www.University0.edu> }",
                "SELECT ?X ?Y WHERE { ?X rdf:type ub:Lecturer . ?Y rdf:type ub:Department . \
                 ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf <http://www.University1.edu> }",
                "SELECT ?D ?S WHERE { <http://www.Department0.University0.edu/FullProfessor0> \
                 ub:worksFor ?D . ?S ub:memberOf ?D }",
                "SELECT ?P ?S WHERE { <http://www.Department0.University0.edu/FullProfessor0> \
                 ?P <http://www.Department0.University0.edu> . \
                 ?S ?P <http://www.Department1.University0.edu> }",
                "SELECT ?X ?Y ?E WHERE { ?X ub:advisor ?W . ?W ub:emailAddress ?E . \
                 ?X ub:memberOf ?Y . ?Y ub:subOrganizationOf ?U . ?U ub:name \"University3\" }",
                "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
                 ?D ub:subOrganizationOf <http://www.University999.edu> }",
                "SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D . \
                 ?D ub:subOrganizationOf <http://www.Department0.University0.edu> }",
                "SELECT ?X ?D WHERE { ?X ub:advisor ?X . ?X ub:memberOf ?D }",
                "SELECT ?S ?P ?D WHERE { ?S ub:worksFor ?D . ?S ?P ?D }",
                "SELECT ?S ?C WHERE { ?S rdf:type ?C . ?S ?P ?C . \
                 ?S ub:doctoralDegreeFrom <http://www.University2.edu> }",
            ],
        ),
        (
            &sp2b,
            SP2B_PREFIXES,
            &[
                "SELECT ?A ?Y WHERE { ?A dc:creator <http://dblp.example.org/person/3> . \
                 ?A dcterms:issued ?Y . ?A swrc:journal ?J }",
                "SELECT ?B ?Y WHERE { <http://dblp.example.org/article/900> dcterms:references ?B . \
                 ?B dcterms:issued ?Y . ?B dc:creator ?W }",
                "SELECT ?A ?B WHERE { ?A swrc:journal <http://dblp.example.org/journal/2> . \
                 ?A dcterms:references ?B . ?B swrc:journal <http://dblp.example.org/journal/2> }",
                "SELECT ?A ?N WHERE { ?A dc:creator ?W . ?W foaf:name \"Author 7\" . \
                 ?W foaf:name ?N }",
                "SELECT ?A ?B WHERE { ?A dcterms:references ?B . ?B dcterms:references ?A }",
                "SELECT ?A ?Y WHERE { ?A dc:creator <http://dblp.example.org/journal/2> . \
                 ?A dcterms:issued ?Y }",
            ],
        ),
    ];
    for (cluster, prefixes, templates) in matrix {
        let mut restricted = 0;
        for template in templates {
            let query = parse_query(&format!("{prefixes}{template}")).expect("template parses");
            restricted += assert_bit_identical_to_the_reference(cluster, &query);
        }
        assert!(restricted > 0, "no template read by key under {prefixes:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ISSUE-mandated differential oracle: order-elided execution of a
    /// random query — as generated, and made selective by binding one of
    /// its leaf variables to a node of the graph — produces an answer
    /// relation **bit-identical** to the reference evaluator's (same rows,
    /// same bytes, after `distinct`), and bit-identical across thread
    /// counts {1, 2, 8}.
    #[test]
    fn order_elided_execution_is_bit_identical_to_the_reference(
        query in query_strategy(),
        seed in any::<u64>(),
        leaf in 0usize..8,
        node in 0usize..SYNTHETIC_NODES,
    ) {
        let graph = synthetic_graph(seed);
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(3));
        // Project every variable so that answer comparison is strict.
        let query = BgpQuery::named(
            query.name().to_string(),
            query.variables(),
            query.patterns().to_vec(),
        );
        assert_bit_identical_to_the_reference(&cluster, &query);
        let selective = bind_a_leaf(&query, leaf, &synthetic_node(node));
        assert_bit_identical_to_the_reference(&cluster, &selective);
    }
}
