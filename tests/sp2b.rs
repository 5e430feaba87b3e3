//! End-to-end tests of the SP²Bench-flavoured workload: the streaming bulk
//! loader must ingest the DBLP-like generator output bit-identically to the
//! sequential path at every thread count, and the engine must answer the
//! chain/skew query set exactly like the naive reference evaluator.

use cliquesquare::engine::csq::{Csq, CsqConfig};
use cliquesquare::engine::reference;
use cliquesquare::mapreduce::load::{BulkLoader, LoadOptions};
use cliquesquare::mapreduce::{Cluster, ClusterConfig, PartitionedStore, Runtime};
use cliquesquare::querygen::sp2b_queries;
use cliquesquare::rdf::{Sp2bGenerator, Sp2bScale};

/// The SP²Bench analogue of the tentpole acceptance test: parallel loads of
/// generator output at threads 1, 2 and 8 reproduce the sequential build
/// bit for bit (ids, indexes, partition files).
#[test]
fn sp2b_bulk_load_is_bit_identical_to_sequential() {
    let scale = Sp2bScale::tiny();
    let expected_graph = Sp2bGenerator::new(scale).generate();
    let expected_store = PartitionedStore::build(&expected_graph, 5);

    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        let output = loader.load_sp2b(scale, &LoadOptions::with_nodes(5));
        assert_eq!(output.graph, expected_graph, "threads={threads}");
        assert_eq!(output.store, expected_store, "threads={threads}");
        assert_eq!(output.report.triples, expected_graph.len());
        for (id, term) in expected_graph.dictionary().iter() {
            assert_eq!(
                output.graph.lookup(term),
                Some(id),
                "threads={threads}: id of {term} changed"
            );
        }
    }
}

/// Every SP²Bench query returns the reference evaluator's answer count on a
/// bulk-loaded cluster, and every query has a non-empty answer (the
/// generator really produces the chains and skewed joins the queries walk).
#[test]
fn sp2b_queries_match_the_reference_evaluator() {
    let scale = Sp2bScale::tiny();
    let graph = Sp2bGenerator::new(scale).generate();

    let loader = BulkLoader::new(Runtime::with_threads(4));
    let output = loader.load_sp2b(scale, &LoadOptions::with_nodes(4));
    let cluster = Cluster::load(output.graph, ClusterConfig::with_nodes(4));
    let csq = Csq::new(cluster, CsqConfig::default());

    for query in sp2b_queries::sp2b_queries() {
        let expected = reference::reference_count(&graph, &query);
        let report = csq.run(&query);
        assert_eq!(
            report.result_count,
            expected,
            "{} diverges from the reference evaluator",
            query.name()
        );
        assert!(expected > 0, "{} has an empty answer", query.name());
    }
}
