//! The bounded root (`Executor::execute_bounded`) answers exactly what the
//! unbounded one does, cut: for LUBM Q1–Q14, SP²B S1–S6 and the small
//! synthetic workload, at threads {1, 2, 8} and bounds {1, 7, 1 000,
//! `usize::MAX`}, its rows and its count are `execute(plan).results
//! .distinct()` cut at the bound and that relation's length, and the count is
//! the reference evaluator's. All three routes of the root are taken by the
//! suites (counted on the runs, counted on eager parts, expanded and counted
//! by the gather). The graph the count on the runs must not get wrong — Q1's
//! shape with a professor in two departments that share a member — is the
//! `departments_sharing_a_pair` row of `tests/differential.rs`.

use cliquesquare_engine::reference::reference_eval_with;
use cliquesquare_engine::{translate, Csq, CsqConfig, Executor, PhysicalPlan};
use cliquesquare_mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare_obs::SpanNode;
use cliquesquare_querygen::lubm_queries::lubm_queries;
use cliquesquare_querygen::sp2b_queries::sp2b_queries;
use cliquesquare_querygen::{SyntheticWorkload, WorkloadConfig};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale, Term};
use cliquesquare_sparql::BgpQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BOUNDS: [usize; 4] = [1, 7, 1_000, usize::MAX];

/// How the root of one bounded execution was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Route {
    /// Counted on the factorized runs; only the head was expanded.
    Runs,
    /// Counted on each eager part's rows.
    Eager,
    /// Expanded, gathered, de-duplicated and cut (`bounded: 0`, or a root
    /// that is no projection at all).
    Fallback,
}

fn attr(node: &SpanNode, name: &str) -> Option<u64> {
    let found = node.attrs.iter().find(|(n, _)| n == name);
    found.map(|&(_, value)| value)
}

/// The route a profiled bounded execution's span tree reports.
fn route_of(execute: &SpanNode) -> Route {
    let operators = execute.children.iter().flat_map(|job| &job.children);
    let mut projections = operators.filter(|op| op.name.starts_with("Project#"));
    let Some(project) = projections.next_back() else {
        return Route::Fallback;
    };
    match attr(project, "bounded") {
        Some(1) if attr(project, "runs_emitted").is_some() => Route::Runs,
        Some(1) => Route::Eager,
        _ => Route::Fallback,
    }
}

/// The plan the service would execute for `query`.
fn served_plan(cluster: &Cluster, query: &BgpQuery) -> PhysicalPlan {
    let (_, chosen, _) = Csq::new(cluster.clone(), CsqConfig::default()).plan(query);
    translate(&chosen, cluster.graph())
}

/// Holds the bounded execution of `query` to the unbounded one and to the
/// reference at every thread count and bound; returns the route it took.
fn assert_bounded_equals_unbounded_cut(cluster: &Cluster, query: &BgpQuery) -> Route {
    let plan = served_plan(cluster, query);
    let reference = reference_eval_with(cluster.graph(), query, &Runtime::sequential());
    let mut route = None;
    for threads in [1usize, 2, 8] {
        let executor = Executor::with_runtime(cluster, Runtime::with_threads(threads));
        let full = executor.execute(&plan).results.distinct();
        assert_eq!(full.len(), reference.len(), "{query}: threads={threads}");
        // A query distinguishing every variable may run without a root
        // projection, in the join's column order: align before comparing.
        let aligned = full.project(reference.schema()).distinct();
        assert_eq!(aligned, reference, "{query}: threads={threads}");
        for bound in BOUNDS {
            let bounded = executor.execute_bounded(&plan, bound, Some(&[]));
            let mut head = full.clone();
            head.truncate(bound);
            let context = format!("{query}: threads={threads} bound={bound}");
            assert_eq!(bounded.total_rows, full.len(), "{context}");
            assert_eq!(bounded.execution.results, head, "{context}");
            assert!(bounded.execution.results.is_canonical(), "{context}");
            let profile = bounded.execution.profile.expect("estimates ask for spans");
            let taken = route_of(&profile);
            assert_eq!(*route.get_or_insert(taken), taken, "{context}");
            let gather = profile.children.last().expect("Gather closes execute");
            assert_eq!(gather.name, "Gather", "{context}");
            assert_eq!(gather.rows_out, head.len() as u64, "{context}");
            // The same answer without spans.
            let plain = executor.execute_bounded(&plan, bound, None);
            assert_eq!(plain.execution.results, head, "{context}");
            assert_eq!(plain.total_rows, full.len(), "{context}");
        }
    }
    route.expect("three thread counts ran")
}

#[test]
fn lubm_answers_are_the_unbounded_ones_cut() {
    let graph = LubmGenerator::new(LubmScale::with_universities(4)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    let queries = lubm_queries();
    let routes: Vec<Route> = queries
        .iter()
        .map(|query| assert_bounded_equals_unbounded_cut(&cluster, query))
        .collect();
    // Q1 drops its join key and is still counted on the runs: ?P vouches.
    assert_eq!(routes[0], Route::Runs, "Q1");
    assert!(routes.contains(&Route::Eager), "{routes:?}");
}

#[test]
fn sp2b_answers_are_the_unbounded_ones_cut() {
    let graph = Sp2bGenerator::new(Sp2bScale::with_articles(1500)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(3));
    let routes: Vec<Route> = sp2b_queries()
        .iter()
        .map(|query| assert_bounded_equals_unbounded_cut(&cluster, query))
        .collect();
    assert!(routes.contains(&Route::Runs), "{routes:?}");
    // S3 keeps the ends of a chain and drops what joined them: pairs
    // repeat across runs, so the gather has to count.
    assert!(routes.contains(&Route::Fallback), "{routes:?}");
}

/// A random graph over the synthetic workload's property vocabulary, with
/// every tenth triple inserted twice (a graph is not a set; the count must
/// not take its join inputs for one).
fn synthetic_graph() -> Graph {
    let node = |index: usize| Term::iri(format!("http://synthetic.example/node{index}"));
    let mut rng = StdRng::seed_from_u64(7);
    let mut graph = Graph::new();
    for index in 0..3000 {
        let (s, o) = (rng.gen_range(0..120), rng.gen_range(0..120));
        let property = Term::iri(format!(
            "http://synthetic.example/p{}",
            rng.gen_range(1..11)
        ));
        for _ in 0..1 + usize::from(index % 10 == 0) {
            graph.insert_terms(node(s), property.clone(), node(o));
        }
    }
    graph
}

#[test]
fn synthetic_answers_are_the_unbounded_ones_cut() {
    let cluster = Cluster::load(synthetic_graph(), ClusterConfig::with_nodes(3));
    let mut routes: Vec<Route> = SyntheticWorkload::generate(WorkloadConfig::small())
        .iter()
        .map(|query| assert_bounded_equals_unbounded_cut(&cluster, query))
        .collect();
    routes.sort_unstable();
    routes.dedup();
    assert!(routes.len() >= 2, "one route only: {routes:?}");
}
