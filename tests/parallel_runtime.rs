//! Oracle tests for the parallel task runtime: executing a plan on OS
//! threads must be **observationally identical** to sequential execution —
//! same (bit-identical) result relation, same job descriptors, same work
//! counters, same simulated seconds — and both must agree with the naive
//! reference evaluator. The same holds along the partition axis: how many
//! partitions the data is laid out in follows the machine, so it may change
//! neither the plan chosen nor anything a client sees.

use cliquesquare_core::{Optimizer, Variant};
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_engine::reference::reference_eval_with;
use cliquesquare_engine::Executor;
use cliquesquare_mapreduce::{Cluster, ClusterConfig, CostParameters, Runtime};
use cliquesquare_querygen::lubm_queries::lubm_queries;
use cliquesquare_querygen::sp2b_queries::sp2b_queries;
use cliquesquare_querygen::{SyntheticShape, SyntheticWorkload, WorkloadConfig};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale, Term};
use cliquesquare_sparql::BgpQuery;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn lubm_cluster() -> Cluster {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    Cluster::load(graph, ClusterConfig::with_nodes(4))
}

/// The ISSUE-mandated oracle: on all 14 LUBM queries, the parallel
/// executor's distinct answer set equals both the sequential executor's and
/// the reference evaluator's.
#[test]
fn all_lubm_queries_agree_across_runtimes_and_reference() {
    let cluster = lubm_cluster();
    for query in lubm_queries() {
        let reference = reference_eval_with(cluster.graph(), &query, &Runtime::sequential());
        let sequential =
            Csq::new(cluster.clone(), CsqConfig::default().with_threads(1)).run(&query);
        let parallel = Csq::new(cluster.clone(), CsqConfig::default().with_threads(4)).run(&query);

        assert_eq!(
            sequential.result_count,
            reference.len(),
            "{}: sequential executor disagrees with the reference evaluator",
            query.name()
        );
        assert_eq!(
            parallel.result_count,
            reference.len(),
            "{}: parallel executor disagrees with the reference evaluator",
            query.name()
        );
        assert_eq!(
            sequential.execution.results,
            parallel.execution.results,
            "{}: parallel results are not bit-identical to sequential",
            query.name()
        );
        assert_eq!(
            sequential.execution.results.clone().distinct(),
            reference,
            "{}: executor answer set differs from the reference",
            query.name()
        );
        assert_eq!(
            sequential.job_descriptor,
            parallel.job_descriptor,
            "{}: thread count changed the job descriptor",
            query.name()
        );
        assert_eq!(
            sequential.simulated_seconds,
            parallel.simulated_seconds,
            "{}: thread count changed the simulated cost",
            query.name()
        );
    }
}

/// The parallel reference evaluator is itself an oracle; cross-check it
/// against its sequential form on the whole LUBM workload.
#[test]
fn parallel_reference_evaluator_is_bit_identical_on_lubm() {
    let cluster = lubm_cluster();
    for query in lubm_queries() {
        let sequential = reference_eval_with(cluster.graph(), &query, &Runtime::sequential());
        let parallel = reference_eval_with(cluster.graph(), &query, &Runtime::with_threads(4));
        assert_eq!(sequential, parallel, "{}", query.name());
    }
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

/// Strategy: the adversarial execution shapes — high-fan-out stars and deep
/// chains whose projection drops the join keys, so the factorized join path
/// emits runs and expands them only at the projection boundary.
fn adversarial_strategy() -> impl Strategy<Value = BgpQuery> {
    (any::<bool>(), 2usize..6).prop_map(|(star, size)| {
        if star {
            SyntheticWorkload::fanout_star(size)
        } else {
            SyntheticWorkload::deep_chain(size)
        }
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

/// The adversarial star is not vacuous: a sequential execution of a fan-out
/// star records factorized runs emitted and rows expanded at the projection
/// (i.e. the differential proptest below really exercises the runs path).
#[test]
fn fanout_stars_take_the_factorized_path() {
    use cliquesquare_engine::relation::stats;
    let cluster = Cluster::load(synthetic_graph(7), ClusterConfig::with_nodes(3));
    let query = SyntheticWorkload::fanout_star(3);
    let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
    let logical = result.flattest_plans()[0].clone();
    stats::reset();
    let output = Executor::sequential(&cluster).execute_logical(&logical);
    let snapshot = stats::snapshot();
    assert!(!output.results.is_empty(), "graph produced no star matches");
    assert!(snapshot.runs_emitted > 0, "fan-out star did not factorize");
    assert_eq!(
        snapshot.rows_expanded, output.metrics.join_output_tuples,
        "expansion must materialize exactly the join's logical output"
    );
}

/// The partition axis: LUBM Q1–Q14, SP²B S1–S6 and the synthetic workload
/// at partitions {1, 2, 3, 4, 7} × threads {1, 2, 8}, the modelled cluster
/// held at the paper's 7 nodes. `Csq::plan` picks the same plan on the
/// narrowest and the widest layout; every execution of it gives the
/// reference evaluator's distinct rows and count under one job descriptor;
/// and the simulated response time is the counted work priced at
/// `cost.nodes`, never at the physical partition count.
#[test]
fn partition_count_changes_neither_plans_nor_answers() {
    let workloads = [
        (
            LubmGenerator::new(LubmScale::tiny()).generate(),
            lubm_queries(),
        ),
        (
            Sp2bGenerator::new(Sp2bScale::tiny()).generate(),
            sp2b_queries(),
        ),
        (
            synthetic_graph(7),
            SyntheticWorkload::generate(WorkloadConfig::small()),
        ),
    ];
    let modelled = CostParameters::default();
    assert_eq!(modelled.nodes, 7);
    for (graph, queries) in workloads {
        let clusters: Vec<Cluster> = [1, 2, 3, 4, 7]
            .into_iter()
            .map(|nodes| {
                let config = ClusterConfig {
                    nodes,
                    cost: modelled,
                };
                Cluster::load(graph.clone(), config)
            })
            .collect();
        let plan_on = |cluster: &Cluster, query: &BgpQuery| {
            Csq::new(cluster.clone(), CsqConfig::default())
                .plan(query)
                .1
        };
        for query in &queries {
            let name = query.name();
            let plan = plan_on(&clusters[0], query);
            assert!(
                plan == plan_on(&clusters[4], query),
                "{name}: 1 and 7 partitions chose different plans"
            );
            let reference = reference_eval_with(&graph, query, &Runtime::sequential());
            let mut descriptor = None;
            for cluster in &clusters {
                for threads in [1, 2, 8] {
                    let at = format!("{name}, partitions={}, threads={threads}", cluster.nodes());
                    let output = Executor::with_runtime(cluster, Runtime::with_threads(threads))
                        .execute_logical(&plan);
                    assert_eq!(output.distinct_count(), reference.len(), "{at}");
                    assert_eq!(output.results.clone().distinct(), reference, "{at}");
                    let jobs = output.schedule.descriptor();
                    assert_eq!(descriptor.get_or_insert(jobs.clone()), &jobs, "{at}");
                    assert_eq!(
                        output.simulated_seconds,
                        output.metrics.simulated_seconds(&modelled),
                        "{at}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random synthetic queries executed at threads ∈ {1, 2, 8}: every
    /// thread count produces the bit-identical result relation, identical
    /// work counters, and the reference evaluator's answer count.
    #[test]
    fn random_queries_are_thread_count_invariant(
        query in query_strategy(),
        seed in any::<u64>(),
    ) {
        let graph = synthetic_graph(seed);
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(3));
        // Project every variable so that distinct answer counting is strict.
        let query = BgpQuery::named(
            query.name().to_string(),
            query.variables(),
            query.patterns().to_vec(),
        );
        let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
        prop_assert!(!result.plans.is_empty(), "synthetic queries are connected");
        let logical = result.flattest_plans()[0].clone();

        let reference = reference_eval_with(cluster.graph(), &query, &Runtime::sequential());
        let sequential = Executor::sequential(&cluster).execute_logical(&logical);
        prop_assert_eq!(sequential.distinct_count(), reference.len());
        for threads in [2usize, 8] {
            let parallel = Executor::with_runtime(&cluster, Runtime::with_threads(threads))
                .execute_logical(&logical);
            prop_assert_eq!(
                &sequential.results,
                &parallel.results,
                "threads={} changed the results",
                threads
            );
            prop_assert_eq!(sequential.metrics, parallel.metrics);
            prop_assert_eq!(
                sequential.schedule.descriptor(),
                parallel.schedule.descriptor()
            );
        }
    }

    /// Differential oracle for the factorized join path: fan-out stars and
    /// deep chains keep their key-dropping projections, so their joins run
    /// factorized where legal. At worker threads ∈ {1, 2, 8} the executor
    /// must stay bit-identical to itself and its distinct answers must equal
    /// the row-major reference evaluator's.
    #[test]
    fn factorized_executions_match_the_row_major_oracle(
        query in adversarial_strategy(),
        seed in any::<u64>(),
    ) {
        let graph = synthetic_graph(seed);
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(3));
        let result = Optimizer::with_variant(Variant::Msc).optimize(&query);
        prop_assert!(!result.plans.is_empty(), "adversarial queries are connected");
        let logical = result.flattest_plans()[0].clone();

        let reference = reference_eval_with(cluster.graph(), &query, &Runtime::sequential());
        let sequential = Executor::sequential(&cluster).execute_logical(&logical);
        prop_assert_eq!(
            sequential.results.clone().distinct(),
            reference,
            "sequential factorized answers differ from the row-major oracle"
        );
        for threads in [2usize, 8] {
            let parallel = Executor::with_runtime(&cluster, Runtime::with_threads(threads))
                .execute_logical(&logical);
            prop_assert_eq!(
                &sequential.results,
                &parallel.results,
                "threads={} changed the results",
                threads
            );
            prop_assert_eq!(sequential.metrics, parallel.metrics);
            prop_assert_eq!(
                sequential.schedule.descriptor(),
                parallel.schedule.descriptor()
            );
        }
    }
}
