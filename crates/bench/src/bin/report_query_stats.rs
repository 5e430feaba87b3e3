//! Reproduces **Figure 22**: the characteristics of the 14 LUBM queries —
//! number of triple patterns, number of join variables and result
//! cardinality on the generated dataset (the paper reports cardinalities on
//! LUBM10k; ours are on the scaled-down generator, so only #tps and #jv are
//! expected to match exactly).
//!
//! Usage: `cargo run --release -p cliquesquare-bench --bin report_query_stats [-- --threads N]`
//!
//! The naive reference evaluator dominates this report's runtime;
//! `--threads N` evaluates the binding extensions on `N` OS threads with
//! bit-identical cardinalities (default: sequential).

use cliquesquare_bench::{lubm_cluster, report_scale, runtime_from_args, table};
use cliquesquare_engine::reference::reference_eval_with;
use cliquesquare_querygen::lubm_queries;
use cliquesquare_sparql::analysis;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runtime = runtime_from_args(&args);
    let cluster = lubm_cluster(report_scale());
    println!(
        "== Figure 22: LUBM query characteristics ==\ndataset: {} triples ({} thread(s))\n",
        cluster.graph().len(),
        runtime.threads()
    );
    let mut rows = Vec::new();
    for query in lubm_queries::lubm_queries() {
        let stats = analysis::stats(&query);
        let cardinality = reference_eval_with(cluster.graph(), &query, &runtime).len();
        rows.push(vec![
            query.name().to_string(),
            stats.triple_patterns.to_string(),
            stats.join_variables.to_string(),
            stats.shape.to_string(),
            cardinality.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &["Query", "#tps", "#jv", "shape", "|Q| (this dataset)"],
            &rows
        )
    );
}
