//! Criterion benchmarks for the load path of Section 5.1 — dictionary
//! encoding and the shard merge, and the partitioner — and an ablation of
//! the co-located (PWOC) first-level joins it enables: the same first-level
//! star join executed as a co-located MapJoin versus forced through a
//! shuffling ReduceJoin.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cliquesquare_bench::{bench_scale, lubm_graph};
use cliquesquare_core::{Optimizer, Variant};
use cliquesquare_engine::physical::{PhysicalOp, PhysicalPlan};
use cliquesquare_engine::{translate, Executor};
use cliquesquare_mapreduce::{Cluster, ClusterConfig, PartitionedStore, Runtime};
use cliquesquare_rdf::load::{merge_dictionaries, EncodedShard};
use cliquesquare_rdf::{Dictionary, LubmGenerator, LubmScale, Term, TriplePosition};
use cliquesquare_sparql::parser::parse_query;

/// The dictionary's two load-time jobs on LUBM-shaped terms (8
/// universities, ≈ 14 k triples with their natural repeats): encoding every
/// term of every triple into one dictionary (the input wave's work, term
/// clones included), and merging 8 shard dictionaries (one per university)
/// the way the bulk loader does. The merge consumes its shards, so its
/// iteration clones them first; `clone_8_shards` times that clone alone.
fn bench_dictionary_encode(c: &mut Criterion) {
    let generator = LubmGenerator::new(LubmScale::with_universities(8));
    let universities: Vec<Vec<(Term, Term, Term)>> = (0..8)
        .map(|u| {
            let mut triples = Vec::new();
            generator.university_triples_into(u, &mut triples);
            triples
        })
        .collect();
    let shards: Vec<Dictionary> = universities
        .iter()
        .map(|triples| {
            let mut shard = EncodedShard::default();
            shard.extend(triples.iter().cloned());
            shard.dictionary
        })
        .collect();

    let mut group = c.benchmark_group("dictionary_encode");
    group.bench_function("encode_lubm_8", |b| {
        b.iter(|| {
            let mut dictionary = Dictionary::new();
            for (s, p, o) in universities.iter().flatten() {
                dictionary.encode(s.clone());
                dictionary.encode(p.clone());
                dictionary.encode(o.clone());
            }
            black_box(dictionary).len()
        })
    });
    group.bench_function("clone_8_shards", |b| {
        b.iter(|| black_box(shards.clone()).len())
    });
    group.bench_function("merge_8_shards", |b| {
        b.iter(|| black_box(merge_dictionaries(shards.clone())).0.len())
    });
    group.finish();
}

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
    bench_dictionary_encode,
    bench_partition_build,
    bench_scans,
    bench_colocated_vs_shuffled
);
criterion_main!(benches);
