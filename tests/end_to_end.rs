//! End-to-end integration tests: LUBM data generation → partitioning →
//! CliqueSquare optimization → cost-based plan choice → MapReduce execution,
//! checked against the single-node reference evaluator for every LUBM query.

use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_engine::reference::reference_count;
use cliquesquare_mapreduce::{Cluster, ClusterConfig};
use cliquesquare_querygen::lubm_queries::{self, lubm_query};
use cliquesquare_rdf::{LubmGenerator, LubmScale};

fn small_cluster(nodes: usize) -> Cluster {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    Cluster::load(graph, ClusterConfig::with_nodes(nodes))
}

#[test]
fn every_lubm_query_returns_the_reference_answers() {
    let cluster = small_cluster(4);
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    for query in lubm_queries::lubm_queries() {
        let report = csq.run(&query);
        let expected = reference_count(cluster.graph(), &query);
        assert_eq!(
            report.result_count,
            expected,
            "{} returned {} answers, expected {}",
            query.name(),
            report.result_count,
            expected
        );
    }
}

#[test]
fn most_lubm_queries_have_answers_on_generated_data() {
    // The dataset must exercise the workload: the large majority of queries
    // (all but possibly the most selective constant-bound ones on the tiny
    // scale) should return non-empty results.
    let cluster = small_cluster(4);
    let graph = cluster.graph();
    let non_empty = lubm_queries::lubm_queries()
        .iter()
        .filter(|q| reference_count(graph, q) > 0)
        .count();
    assert!(
        non_empty >= 12,
        "only {non_empty}/14 LUBM queries have answers on the generated dataset"
    );
}

#[test]
fn answers_are_independent_of_the_cluster_size() {
    let query = lubm_query("Q9").unwrap();
    let mut counts = Vec::new();
    for nodes in [1, 3, 7] {
        let cluster = small_cluster(nodes);
        let csq = Csq::new(cluster, CsqConfig::default());
        counts.push(csq.run(&query).result_count);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn flat_plans_use_fewer_jobs_than_patterns() {
    // CliqueSquare's whole point: even 9- and 10-pattern queries run in a
    // small number of MapReduce jobs, far fewer than one job per join.
    let cluster = small_cluster(4);
    let csq = Csq::new(cluster, CsqConfig::default());
    for name in ["Q11", "Q12", "Q13", "Q14"] {
        let query = lubm_query(name).unwrap();
        let report = csq.run(&query);
        assert!(
            report.jobs <= 3,
            "{name} used {} jobs for {} patterns",
            report.jobs,
            query.len()
        );
        assert!(report.plan_height <= 3);
    }
}

#[test]
fn simulated_time_grows_with_the_number_of_jobs() {
    let cluster = small_cluster(4);
    let csq = Csq::new(cluster, CsqConfig::default());
    let one_job = csq.run(&lubm_query("Q3").unwrap());
    let multi_job = csq.run(&lubm_query("Q14").unwrap());
    assert!(one_job.jobs <= multi_job.jobs);
    assert!(one_job.simulated_seconds < multi_job.simulated_seconds);
}

#[test]
fn report_contains_consistent_job_accounting() {
    let cluster = small_cluster(4);
    let csq = Csq::new(cluster, CsqConfig::default());
    for name in ["Q1", "Q7", "Q12"] {
        let report = csq.run(&lubm_query(name).unwrap());
        assert_eq!(report.jobs, report.execution.schedule.job_count);
        assert_eq!(report.execution.metrics.jobs as usize, report.jobs);
        assert!(report.execution.metrics.tuples_read > 0);
    }
}
