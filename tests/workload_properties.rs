//! Property-based integration tests: random synthetic queries are optimized,
//! translated and executed, and the core invariants of the system are
//! checked on every one of them.

use cliquesquare_core::planspace::optimal_height;
use cliquesquare_core::{Optimizer, Variant};
use cliquesquare_engine::reference::reference_eval;
use cliquesquare_engine::Executor;
use cliquesquare_mapreduce::{Cluster, ClusterConfig};
use cliquesquare_querygen::{SyntheticShape, SyntheticWorkload};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Term};
use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random query shape, size and seed.
fn query_strategy() -> impl Strategy<Value = BgpQuery> {
    (0usize..4, 2usize..8, any::<u64>()).prop_map(|(shape, size, seed)| {
        let shape = SyntheticShape::ALL[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticWorkload::query(shape, size, &mut rng)
    })
}

/// A small random graph over the synthetic property vocabulary used by the
/// generated queries, so that executions can produce non-empty answers.
fn synthetic_graph(seed: u64) -> Graph {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = Graph::new();
    for _ in 0..600 {
        let s = rng.gen_range(0..40);
        let p = rng.gen_range(1..11);
        let o = rng.gen_range(0..40);
        graph.insert_terms(
            Term::iri(format!("http://synthetic.example/node{s}")),
            Term::iri(format!("http://synthetic.example/p{p}")),
            Term::iri(format!("http://synthetic.example/node{o}")),
        );
    }
    graph
}

/// Rewrites a synthetic query's variables into constants-compatible form:
/// the generator uses properties `p1..p10` which the synthetic graph also
/// uses, so queries are executable as-is.
fn executable(query: &BgpQuery) -> BgpQuery {
    // Project every variable so that distinct answer counting is strict.
    BgpQuery::named(
        query.name().to_string(),
        query.variables(),
        query.patterns().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MSC always finds at least one plan for a connected query, and its
    /// flattest plan matches the optimal height (HO-partiality).
    #[test]
    fn msc_always_finds_a_height_optimal_plan(query in query_strategy()) {
        let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
        prop_assert!(!result.plans.is_empty());
        let optimal = optimal_height(&query).unwrap();
        prop_assert_eq!(result.min_height().unwrap(), optimal);
        // Every plan covers every pattern.
        for plan in &result.plans {
            prop_assert_eq!(plan.match_ops().len(), query.len());
        }
    }

    /// The flattest MSC plan never has more join levels than a left-deep
    /// binary plan would (n - 1), and n-ary joins keep it within ⌈log2 n⌉.
    #[test]
    fn flat_plans_are_logarithmically_shallow(query in query_strategy()) {
        let optimal = optimal_height(&query).unwrap();
        let n = query.len();
        prop_assert!(optimal <= n.saturating_sub(1).max(1));
        // n-ary star joins at least halve the variable graph per level.
        let log2_bound = (n as f64).log2().ceil() as usize + 1;
        prop_assert!(
            optimal <= log2_bound,
            "optimal height {} exceeds log bound {} for {} patterns",
            optimal, log2_bound, n
        );
    }

    /// Executing the flattest MSC plan on a random graph returns exactly the
    /// answers of the naive reference evaluator.
    #[test]
    fn distributed_execution_matches_reference(query in query_strategy(), seed in any::<u64>()) {
        let query = executable(&query);
        let graph = synthetic_graph(seed);
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let expected = reference_eval(cluster.graph(), &query).len();
        let plan = Optimizer::with_variant(Variant::Msc)
            .optimize(&query)
            .flattest_plans()[0]
            .clone();
        let output = Executor::sequential(&cluster).execute_logical(&plan);
        prop_assert_eq!(output.distinct_count(), expected);
    }
}

#[test]
fn lubm_data_supports_the_synthetic_and_benchmark_workloads() {
    // Non-property-based sanity check gluing the pieces together once.
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    assert!(graph.len() > 200);
    let query = cliquesquare_querygen::lubm_queries::q7();
    let pattern_count = query.len();
    assert_eq!(pattern_count, 5);
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(3));
    let plan = Optimizer::with_variant(Variant::Msc)
        .optimize(&query)
        .flattest_plans()[0]
        .clone();
    let output = Executor::sequential(&cluster).execute_logical(&plan);
    assert_eq!(
        output.distinct_count(),
        reference_eval(cluster.graph(), &query).len()
    );
}

#[test]
fn single_pattern_queries_execute_without_joins() {
    let graph = synthetic_graph(1);
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(2));
    let query = BgpQuery::new(
        vec![Variable::new("s"), Variable::new("o")],
        vec![TriplePattern::new(
            PatternTerm::variable("s"),
            PatternTerm::iri("http://synthetic.example/p1"),
            PatternTerm::variable("o"),
        )],
    );
    let plan = Optimizer::with_variant(Variant::Msc)
        .optimize(&query)
        .flattest_plans()[0]
        .clone();
    let output = Executor::sequential(&cluster).execute_logical(&plan);
    assert_eq!(output.metrics.join_output_tuples, 0);
    assert_eq!(
        output.distinct_count(),
        reference_eval(cluster.graph(), &query).len()
    );
}
