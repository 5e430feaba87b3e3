//! Criterion benchmarks for the partitioner (Section 5.1) and an ablation of
//! the co-located (PWOC) first-level joins it enables: the same first-level
//! star join executed as a co-located MapJoin versus forced through a
//! shuffling ReduceJoin.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_bench::{bench_scale, lubm_graph};
use cliquesquare_core::{Optimizer, Variant};
use cliquesquare_engine::physical::{PhysicalOp, PhysicalPlan};
use cliquesquare_engine::{translate, Executor};
use cliquesquare_mapreduce::{Cluster, ClusterConfig, PartitionedStore, Runtime};
use cliquesquare_rdf::TriplePosition;
use cliquesquare_sparql::parser::parse_query;

fn bench_partition_build(c: &mut Criterion) {
    let graph = lubm_graph(bench_scale());
    let mut group = c.benchmark_group("partition_build");
    for nodes in [1usize, 4, 7, 16] {
        group.bench_function(format!("{nodes}_nodes"), |b| {
            b.iter(|| black_box(PartitionedStore::build(black_box(&graph), nodes)).stats())
        });
    }
    // The build's placement tasks on two threads (the benchmark box's cores).
    let runtime = Runtime::with_threads(2);
    group.bench_function("4_nodes_2_threads", |b| {
        b.iter(|| black_box(PartitionedStore::build_with(black_box(&graph), 4, &runtime)).stats())
    });
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let graph = lubm_graph(bench_scale());
    let store = PartitionedStore::build(&graph, 7);
    let works_for = graph
        .lookup(&cliquesquare_rdf::Term::iri(
            cliquesquare_rdf::term::vocab::ub("worksFor"),
        ))
        .unwrap();
    let mut group = c.benchmark_group("partition_scan");
    group.bench_function("property_scan", |b| {
        b.iter(|| {
            black_box(store.scan_cardinality(
                TriplePosition::Subject,
                Some(black_box(works_for)),
                None,
            ))
        })
    });
    group.bench_function("full_scan", |b| {
        b.iter(|| black_box(store.scan_cardinality(TriplePosition::Subject, None, None)))
    });
    group.finish();
}

/// Rewrites every MapJoin of a plan into a ReduceJoin, simulating a naive
/// partitioning under which no first-level join is co-located.
fn force_reduce_joins(plan: &PhysicalPlan) -> PhysicalPlan {
    let ops = plan
        .ops()
        .iter()
        .map(|op| match op {
            PhysicalOp::MapJoin {
                attributes,
                inputs,
                output,
            } => PhysicalOp::ReduceJoin {
                attributes: attributes.clone(),
                inputs: inputs.clone(),
                output: output.clone(),
            },
            other => other.clone(),
        })
        .collect();
    PhysicalPlan::new(ops, plan.root())
}

fn bench_colocated_vs_shuffled(c: &mut Criterion) {
    let graph = lubm_graph(bench_scale());
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(7));
    let query = parse_query(
        "SELECT ?x ?d ?e WHERE { ?x ub:worksFor ?d . ?x ub:emailAddress ?e . ?x rdf:type ub:FullProfessor }",
    )
    .unwrap();
    let logical = Optimizer::with_variant(Variant::Msc)
        .optimize(&query)
        .flattest_plans()[0]
        .clone();
    let colocated = translate(&logical, cluster.graph());
    let shuffled = force_reduce_joins(&colocated);
    let executor = Executor::sequential(&cluster);

    let mut group = c.benchmark_group("pwoc_ablation");
    group.bench_function("colocated_map_join", |b| {
        b.iter(|| {
            black_box(executor.execute(black_box(&colocated)))
                .results
                .len()
        })
    });
    group.bench_function("forced_reduce_join", |b| {
        b.iter(|| {
            black_box(executor.execute(black_box(&shuffled)))
                .results
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_build,
    bench_scans,
    bench_colocated_vs_shuffled
);
criterion_main!(benches);
