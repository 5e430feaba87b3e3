//! LUBM workload: run the paper's 14 evaluation queries (Appendix A) end to
//! end on the simulated cluster and compare CSQ with the SHAPE-2f and H2RDF+
//! baselines — a miniature of Figures 20–22.
//!
//! ```bash
//! cargo run --release --example lubm_workload
//! ```

use cliquesquare_baselines::{H2RdfSystem, ShapeSystem};
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_mapreduce::{Cluster, ClusterConfig};
use cliquesquare_querygen::lubm_queries;
use cliquesquare_rdf::{LubmGenerator, LubmScale};
use cliquesquare_sparql::analysis;

fn main() {
    // Five universities so that the "University3" constant of Q11/Q14 exists.
    run(LubmScale::with_universities(5));
}

/// Runs the 14-query workload at the given dataset scale (the example-smoke
/// tests call this with [`LubmScale::tiny`]; constants missing at that scale
/// make the affected queries return zero answers on every system).
pub fn run(scale: LubmScale) {
    let graph = LubmGenerator::new(scale).generate();
    println!("dataset: {} triples, 7-node cluster\n", graph.len());
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(7));
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let shape = ShapeSystem::new(&cluster);
    let h2rdf = H2RdfSystem::new(&cluster);

    println!(
        "{:<6} {:>4} {:>4} {:>8} | {:>5} {:>10} | {:>10} {:>10}",
        "query", "#tps", "#jv", "|Q|", "jobs", "CSQ (s)", "SHAPE (s)", "H2RDF+ (s)"
    );
    let mut totals = [0.0f64; 3];
    for query in lubm_queries::lubm_queries() {
        let stats = analysis::stats(&query);
        let report = csq.run(&query);
        let shape_report = shape.run(&query);
        let h2rdf_report = h2rdf.run(&query);
        assert_eq!(report.result_count, shape_report.result_count);
        assert_eq!(report.result_count, h2rdf_report.result_count);
        totals[0] += report.simulated_seconds;
        totals[1] += shape_report.simulated_seconds;
        totals[2] += h2rdf_report.simulated_seconds;
        println!(
            "{:<6} {:>4} {:>4} {:>8} | {:>5} {:>10.2} | {:>10.2} {:>10.2}",
            query.name(),
            stats.triple_patterns,
            stats.join_variables,
            report.result_count,
            report.job_descriptor,
            report.simulated_seconds,
            shape_report.simulated_seconds,
            h2rdf_report.simulated_seconds,
        );
    }
    println!(
        "\nwhole workload: CSQ {:.1}s, SHAPE-2f {:.1}s, H2RDF+ {:.1}s (paper: 44 min / 77 min / 23 h on LUBM10k)",
        totals[0], totals[1], totals[2]
    );
}
