//! Quickstart: optimize and execute a SPARQL BGP query with CliqueSquare.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The example generates a small LUBM-like dataset, loads it onto a
//! simulated 4-node cluster, optimizes a 3-pattern query with
//! CliqueSquare-MSC, shows the flat n-ary plan that was chosen, and executes
//! it, printing the MapReduce jobs and the simulated response time.

use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_mapreduce::{Cluster, ClusterConfig};
use cliquesquare_rdf::{LubmGenerator, LubmScale};
use cliquesquare_sparql::parser::parse_query;

fn main() {
    run(LubmScale::default());
}

/// Runs the whole tour at the given dataset scale (the example-smoke tests
/// call this with [`LubmScale::tiny`]).
pub fn run(scale: LubmScale) {
    // 1. Generate data and load the cluster (3 replicas: by subject,
    //    property and object, so first-level joins are co-located).
    let graph = LubmGenerator::new(scale).generate();
    println!("generated {} triples", graph.len());
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));

    // 2. Parse a conjunctive query: graduate students, the department they
    //    belong to, and that department's university.
    let query = parse_query(
        "SELECT ?student ?dept ?univ WHERE {
            ?student rdf:type ub:GraduateStudent .
            ?student ub:memberOf ?dept .
            ?dept ub:subOrganizationOf ?univ .
        }",
    )
    .expect("well-formed query");

    // 3. Optimize with CliqueSquare-MSC, pick the cheapest plan with the
    //    MapReduce cost model, and execute it.
    let csq = Csq::new(cluster, CsqConfig::default());
    let report = csq.run(&query);

    println!("\nchosen logical plan (height {}):", report.plan_height);
    println!("{}", report.chosen_plan.render());
    println!("MapReduce jobs ({}):", report.job_descriptor);
    let execution = &report.execution;
    for (index, (job, kind)) in execution
        .job_metrics
        .iter()
        .zip(&execution.schedule.kinds)
        .enumerate()
    {
        println!(
            "job {}: [{kind}] read={} shuffled={} joined={} written={}",
            index + 1,
            job.tuples_read,
            job.tuples_shuffled,
            job.join_output_tuples,
            job.tuples_written
        );
    }
    println!();
    println!("answers              : {}", report.result_count);
    println!("candidate plans      : {}", report.candidate_plans);
    println!("optimization time    : {:.2} ms", report.optimization_ms);
    println!("simulated response   : {:.2} s", report.simulated_seconds);
}
