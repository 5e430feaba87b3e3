//! Integration tests of the parallel bulk-load subsystem: the sharded load
//! must be **bit-identical** to the sequential ingest path — same `TermId`
//! assignment, same graph indexes, same partition files — at every thread
//! count, and a loaded cluster must answer queries exactly like a
//! sequentially built one.

use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_mapreduce::load::{BulkLoader, LoadOptions};
use cliquesquare_mapreduce::{Cluster, ClusterConfig, PartitionedStore, Runtime};
use cliquesquare_querygen::lubm_queries;
use cliquesquare_rdf::{ntriples, LubmGenerator, LubmScale, Term, TriplePosition};

/// A dataset with literals that exercise the escape paths: quotes,
/// backslashes, newlines, tabs and non-ASCII text.
fn spiky_ntriples() -> String {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    let mut text = ntriples::serialize(&graph);
    let mut extra = cliquesquare_rdf::Graph::new();
    extra.insert_terms(
        Term::iri("http://example.org/doc"),
        Term::iri("http://example.org/title"),
        Term::literal("A \"quoted\"\ttitle\nwith a back\\slash and café"),
    );
    extra.insert_terms(
        Term::iri("http://example.org/doc"),
        Term::iri("http://example.org/note"),
        Term::literal(String::new()),
    );
    text.push_str(&ntriples::serialize(&extra));
    text
}

/// The tentpole acceptance test: parallel N-Triples loads at threads
/// 1, 2 and 8 reproduce the sequential path bit for bit.
#[test]
fn sharded_ntriples_load_is_bit_identical_to_sequential() {
    let text = spiky_ntriples();
    let expected_graph = ntriples::parse_into_graph(&text).expect("baseline parses");
    let expected_store = PartitionedStore::build(&expected_graph, 7);
    let expected_stats = expected_store.stats();

    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        let output = loader
            .load_ntriples(&text, &LoadOptions::with_nodes(7))
            .expect("load succeeds");

        // Same dictionary ids: Graph equality covers the dictionary and the
        // triple list (encoded ids), from which the indexes are derived.
        assert_eq!(output.graph, expected_graph, "threads={threads}");
        // Same partition files (same FileKey placement, same file order).
        assert_eq!(output.store, expected_store, "threads={threads}");
        assert_eq!(output.store.stats(), expected_stats, "threads={threads}");

        // Spot-check the id assignment explicitly (first-occurrence order).
        for (id, term) in expected_graph.dictionary().iter() {
            assert_eq!(
                output.graph.lookup(term),
                Some(id),
                "threads={threads}: id of {term} changed"
            );
        }
    }
}

/// Same contract for the LUBM generator input path.
#[test]
fn sharded_lubm_load_is_bit_identical_to_sequential() {
    let scale = LubmScale::default();
    let expected_graph = LubmGenerator::new(scale).generate();
    let expected_store = PartitionedStore::build(&expected_graph, 5);

    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        let output = loader.load_lubm(scale, &LoadOptions::with_nodes(5));
        assert_eq!(output.graph, expected_graph, "threads={threads}");
        assert_eq!(output.store, expected_store, "threads={threads}");
        assert_eq!(
            output.store.stats(),
            expected_store.stats(),
            "threads={threads}"
        );
        assert_eq!(output.report.threads, threads);
        assert_eq!(output.report.triples, expected_graph.len());
    }
}

/// Chunking is an implementation knob: any chunk count yields the same
/// result, including pathological over-chunking.
#[test]
fn chunk_count_never_changes_the_result() {
    let text = spiky_ntriples();
    let expected_graph = ntriples::parse_into_graph(&text).expect("baseline parses");
    for chunks in [1, 2, 5, 64] {
        let loader = BulkLoader::new(Runtime::with_threads(3));
        let output = loader
            .load_ntriples(
                &text,
                &LoadOptions {
                    nodes: 4,
                    chunks: Some(chunks),
                },
            )
            .expect("load succeeds");
        assert_eq!(output.graph, expected_graph, "chunks={chunks}");
    }
}

/// Six shard dictionaries merged at every thread count give the graph
/// (ids, indexes and dictionary lookups) of a sequential parse.
#[test]
fn partitioned_merge_is_bit_identical_across_thread_counts() {
    let text = spiky_ntriples();
    let expected_graph = ntriples::parse_into_graph(&text).expect("baseline parses");
    let options = LoadOptions {
        nodes: 4,
        chunks: Some(6),
    };
    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        let output = loader
            .load_ntriples(&text, &options)
            .expect("load succeeds");
        assert_eq!(output.graph, expected_graph, "threads={threads}");
        for (id, term) in expected_graph.dictionary().iter() {
            assert_eq!(output.graph.lookup(term), Some(id), "threads={threads}");
        }
    }
}

/// A bulk-loaded cluster answers the 14 LUBM queries exactly like the
/// sequentially loaded cluster.
#[test]
fn bulk_loaded_cluster_answers_queries_identically() {
    let scale = LubmScale::tiny();
    let sequential_cluster = Cluster::load(
        LubmGenerator::new(scale).generate(),
        ClusterConfig::with_nodes(4),
    );
    let loader = BulkLoader::new(Runtime::with_threads(4));
    let output = loader.load_lubm(scale, &LoadOptions::with_nodes(4));
    let loaded_cluster = Cluster::load(output.graph, ClusterConfig::with_nodes(4));

    let csq_sequential = Csq::new(sequential_cluster, CsqConfig::default());
    let csq_loaded = Csq::new(loaded_cluster, CsqConfig::default());
    for query in lubm_queries::lubm_queries() {
        assert_eq!(
            csq_sequential.run(&query).result_count,
            csq_loaded.run(&query).result_count,
            "{} answers changed after bulk load",
            query.name()
        );
    }
}

/// Parse errors surface the document-global line number even when the
/// failing line sits deep inside a worker's chunk.
#[test]
fn chunked_parse_errors_report_global_line_numbers() {
    let mut text = "<a> <p> <b> .\n".repeat(100);
    text.push_str("<a> <p> \"unterminated\n");
    text.push_str(&"<a> <p> <b> .\n".repeat(100));
    let loader = BulkLoader::new(Runtime::with_threads(4));
    let err = loader
        .load_ntriples(&text, &LoadOptions::default())
        .unwrap_err();
    assert_eq!(err.line, 101);
    assert!(err.message.contains("unterminated literal"));
}

/// A literal subject or property is an error, and a chunked load reports
/// it at the document-global line number, whichever chunk holds it.
#[test]
fn chunked_loads_reject_literal_subjects_and_properties_by_global_line() {
    for (bad, position) in [
        ("\"lit\" <p> <o> .\n", "subject"),
        ("<s> \"lit\" <o> .\n", "property"),
    ] {
        let mut text = "<a> <p> \"fine\" .\n".repeat(150);
        text.push_str(bad);
        text.push_str(&"<a> <p> <b> .\n".repeat(50));
        for threads in [1, 2, 8] {
            let loader = BulkLoader::new(Runtime::with_threads(threads));
            for chunks in [1, 3, 16] {
                let options = LoadOptions {
                    nodes: 4,
                    chunks: Some(chunks),
                };
                let at = format!("{position}: threads={threads} chunks={chunks}");
                let err = loader.load_ntriples(&text, &options).unwrap_err();
                assert_eq!(err.line, 151, "{at}");
                assert!(err.message.contains(position), "{at}: {err}");
            }
        }
    }
}

/// N-Triples with `#` comments — whole lines, and after a triple's `.` —
/// loads at every thread and chunk count to the graph a sequential parse
/// builds, and a broken line after them still reports its global number.
#[test]
fn commented_ntriples_load_like_a_sequential_parse() {
    let mut text = String::from("# a commented dump\n");
    for (i, line) in spiky_ntriples().lines().enumerate() {
        text.push_str(line);
        text.push_str(match i % 3 {
            0 => " # note\n",
            1 => "#glued\n",
            _ => "\n# between\n",
        });
    }
    let expected_graph = ntriples::parse_into_graph(&text).expect("comments parse");
    assert_eq!(
        expected_graph,
        ntriples::parse_into_graph(&spiky_ntriples()).unwrap()
    );
    let lines = text.lines().count();
    let mut broken = text.clone();
    broken.push_str("<a> <p> # <b> .\n<a> <p> <b> . # fine\n");
    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        for chunks in [1, 3, 16] {
            let options = LoadOptions {
                nodes: 4,
                chunks: Some(chunks),
            };
            let at = format!("threads={threads} chunks={chunks}");
            let output = loader.load_ntriples(&text, &options).expect(&at);
            assert_eq!(output.graph, expected_graph, "{at}");
            let err = loader.load_ntriples(&broken, &options).unwrap_err();
            assert_eq!(err.line, lines + 1, "{at}");
            assert!(err.message.contains("found 2"), "{at}: {err}");
        }
    }
}

/// Blank nodes (`_:label` subjects and objects, the IRI `_:label` once
/// parsed) load at every thread and chunk count to the graph a sequential
/// parse builds, and equal labels in different chunks are one term.
#[test]
fn blank_node_ntriples_load_like_a_sequential_parse() {
    let mut text = spiky_ntriples();
    for i in 0..300 {
        text.push_str(&format!(
            "_:b{} <http://example.org/knows> _:b{} .\n<http://example.org/doc> <http://example.org/cites> _:b{}.\n",
            i % 40,
            (i * 7) % 40,
            i % 13
        ));
    }
    let expected_graph = ntriples::parse_into_graph(&text).expect("blank nodes parse");
    assert!(expected_graph.lookup(&Term::iri("_:b39")).is_some());
    for threads in [1, 2, 8] {
        let loader = BulkLoader::new(Runtime::with_threads(threads));
        for chunks in [1, 3, 16] {
            let options = LoadOptions {
                nodes: 4,
                chunks: Some(chunks),
            };
            let at = format!("threads={threads} chunks={chunks}");
            let output = loader.load_ntriples(&text, &options).expect(&at);
            assert_eq!(output.graph, expected_graph, "{at}");
            assert_eq!(
                output.store,
                PartitionedStore::build(&expected_graph, 4),
                "{at}"
            );
        }
    }
}

/// The loaded store supports the partitioner's access paths (sanity check
/// that the parallel build wires placement and file grouping correctly).
#[test]
fn loaded_store_supports_property_scans() {
    let scale = LubmScale::tiny();
    let loader = BulkLoader::new(Runtime::with_threads(2));
    let output = loader.load_lubm(scale, &LoadOptions::with_nodes(3));
    let works_for = output
        .graph
        .lookup(&Term::iri(cliquesquare_rdf::term::vocab::ub("worksFor")))
        .expect("worksFor exists");
    let expected = output
        .graph
        .match_pattern(None, Some(works_for), None)
        .count();
    assert!(expected > 0);
    for placement in TriplePosition::ALL {
        assert_eq!(
            output
                .store
                .scan_cardinality(placement, Some(works_for), None),
            expected
        );
    }
}
