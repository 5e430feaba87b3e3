//! Reproduces **Figure 21**: simulated query evaluation time of CSQ
//! (CliqueSquare-MSC over our MapReduce engine) versus SHAPE-2f and H2RDF+,
//! on the 14 LUBM queries, split into selective and non-selective groups as
//! in the paper.
//!
//! The `CSQ wall (ms)` column is the *measured* wall-clock execution time of
//! the CSQ plan on this machine, on the `--threads N` runtime (default:
//! sequential) that `CsqConfig::threads` carries; the `(s)` columns are
//! simulated by the cost model and independent of the thread count.
//!
//! Usage: `cargo run --release -p cliquesquare-bench --bin report_systems [-- --threads N]`

use cliquesquare_baselines::{H2RdfSystem, ShapeSystem, SystemRunReport};
use cliquesquare_bench::{fmt_f64, lubm_cluster, report_scale, runtime_from_args, table};
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_querygen::lubm_queries::{non_selective_queries, selective_queries};
use cliquesquare_sparql::BgpQuery;

fn run_group(
    title: &str,
    queries: &[BgpQuery],
    csq: &Csq,
    shape: &ShapeSystem,
    h2rdf: &H2RdfSystem,
) {
    let mut rows = Vec::new();
    let mut totals = [0.0f64; 3];
    for query in queries {
        let csq_report = csq.run(query);
        let shape_report: SystemRunReport = shape.run(query);
        let h2rdf_report: SystemRunReport = h2rdf.run(query);
        assert_eq!(
            csq_report.result_count,
            shape_report.result_count,
            "{}",
            query.name()
        );
        assert_eq!(
            csq_report.result_count,
            h2rdf_report.result_count,
            "{}",
            query.name()
        );
        totals[0] += csq_report.simulated_seconds;
        totals[1] += shape_report.simulated_seconds;
        totals[2] += h2rdf_report.simulated_seconds;
        rows.push(vec![
            format!(
                "{}({}|{}{}{})",
                query.name(),
                query.len(),
                csq_report.job_descriptor,
                shape_report.job_descriptor,
                h2rdf_report.job_descriptor
            ),
            fmt_f64(csq_report.simulated_seconds),
            fmt_f64(shape_report.simulated_seconds),
            fmt_f64(h2rdf_report.simulated_seconds),
            fmt_f64(csq_report.wall_seconds * 1e3),
            csq_report.result_count.to_string(),
        ]);
    }
    rows.push(vec![
        "TOTAL".to_string(),
        fmt_f64(totals[0]),
        fmt_f64(totals[1]),
        fmt_f64(totals[2]),
        String::new(),
        String::new(),
    ]);
    println!("{title}");
    println!(
        "{}",
        table(
            &[
                "Query(#tps|jobs)",
                "CSQ (s)",
                "SHAPE-2f (s)",
                "H2RDF+ (s)",
                "CSQ wall (ms)",
                "|Q|"
            ],
            &rows
        )
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runtime = runtime_from_args(&args);
    let cluster = lubm_cluster(report_scale());
    println!(
        "== Figure 21: CSQ vs SHAPE-2f vs H2RDF+ ==\n\
         dataset: {} triples on {} nodes; CSQ wall-clock on {} thread(s)\n",
        cluster.graph().len(),
        cluster.nodes(),
        runtime.threads()
    );
    let csq = Csq::new(
        cluster.clone(),
        CsqConfig::default().with_threads(runtime.threads()),
    );
    let shape = ShapeSystem::new(&cluster);
    let h2rdf = H2RdfSystem::new(&cluster);

    run_group(
        "Selective queries",
        &selective_queries(),
        &csq,
        &shape,
        &h2rdf,
    );
    run_group(
        "Non-selective queries",
        &non_selective_queries(),
        &csq,
        &shape,
        &h2rdf,
    );
    println!(
        "Expected shape (paper): SHAPE wins on its PWOC selective queries (Q2,Q4,Q9,Q10); \
         CSQ wins or ties elsewhere and beats H2RDF+ by 1-2 orders of magnitude on non-selective queries."
    );
}
