//! Bulk-loading a cluster with the parallel load pipeline.
//!
//! ```bash
//! cargo run --release --example bulk_load
//! ```
//!
//! The example generates a LUBM-like dataset through the parallel bulk
//! loader (each generator writes straight into its shard's dictionary
//! encoder, then the shards merge and the partitions build as task waves),
//! verifies the result is bit-identical to the sequential ingest path,
//! prints the per-stage timing report, and runs a query on the loaded
//! cluster. It then round-trips the dataset through N-Triples text —
//! including escaped literals and `#` comments — and loads that too.

use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_mapreduce::load::{BulkLoader, LoadOptions};
use cliquesquare_mapreduce::{Cluster, CostParameters, Runtime};
use cliquesquare_rdf::{ntriples, LubmGenerator, LubmScale, Term};
use cliquesquare_sparql::parser::parse_query;

fn main() {
    run(LubmScale::default());
}

/// Runs the whole tour at the given dataset scale (the example-smoke tests
/// call this with [`LubmScale::tiny`]).
pub fn run(scale: LubmScale) {
    // 1. Bulk-load the LUBM dataset: universities generate in parallel,
    //    each batch straight into its own shard dictionary, the merge
    //    assigns final ids in first-occurrence order, and the replicated
    //    partitions build as task waves.
    let loader = BulkLoader::new(Runtime::with_threads(4));
    let options = LoadOptions::with_nodes(4);
    let output = loader.load_lubm(scale, &options);
    let report = output.report;
    println!(
        "bulk-loaded {} triples ({} distinct terms) on {} threads in {:.2} ms \
         ({:.0} triples/s)",
        report.triples,
        report.distinct_terms,
        report.threads,
        report.total_seconds() * 1e3,
        report.triples_per_second()
    );
    println!(
        "  stages: input + encode {:.2} ms, merge {:.2} ms, \
         assembly {:.2} ms, partition {:.2} ms",
        report.input_seconds * 1e3,
        report.merge_seconds * 1e3,
        report.index_seconds * 1e3,
        report.partition_seconds * 1e3
    );

    // 2. The determinism contract: the parallel load equals the sequential
    //    path bit for bit (same ids, same triples, same partition files).
    let sequential = LubmGenerator::new(scale).generate();
    assert_eq!(output.graph, sequential);
    println!("  bit-identical to the sequential ingest path ✓");

    // 3. Round-trip through N-Triples text, with a literal that needs
    //    escaping and comments (a line of its own, and one after a
    //    triple's `.`), and bulk-load the text form too.
    let mut graph_with_spikes = sequential.clone();
    graph_with_spikes.insert_terms(
        Term::iri("http://example.org/report"),
        Term::iri("http://example.org/title"),
        Term::literal("A \"quoted\"\ntwo-line title"),
    );
    let mut text = String::from("# a LUBM dump\n");
    text.push_str(&ntriples::serialize(&graph_with_spikes).replacen(" .\n", " . # first\n", 1));
    text.push_str("# end of dump\n");
    let reloaded = loader
        .load_ntriples(&text, &options)
        .expect("serialized dataset parses");
    assert_eq!(reloaded.graph, graph_with_spikes);
    println!(
        "  N-Triples round-trip of {} bytes preserved all {} triples ✓",
        text.len(),
        reloaded.graph.len()
    );

    // 4. Query the bulk-loaded cluster: it adopts the loader's store, so
    //    the data is partitioned once.
    let cluster = Cluster::from_load(output, CostParameters::default(), &loader.runtime());
    let csq = Csq::new(cluster, CsqConfig::default());
    let query = parse_query(
        "SELECT ?student ?dept WHERE {
            ?student rdf:type ub:GraduateStudent .
            ?student ub:memberOf ?dept .
        }",
    )
    .expect("well-formed query");
    let result = csq.run(&query);
    println!(
        "query on the loaded cluster: {} answers in {} job(s)",
        result.result_count, result.job_descriptor
    );
    assert!(result.result_count > 0);
}
