//! Integration tests for the logical → physical → MapReduce-job pipeline of
//! Section 5, including the Figure 15 style job grouping on the paper's
//! running example.

use cliquesquare_core::{paper_examples, Optimizer, Variant};
use cliquesquare_engine::jobs::schedule;
use cliquesquare_engine::physical::{PhysId, PhysicalOp};
use cliquesquare_engine::translate;
use cliquesquare_mapreduce::JobKind;
use cliquesquare_querygen::{lubm_queries, sp2b_queries};
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale};

fn data() -> Graph {
    LubmGenerator::new(LubmScale::tiny()).generate()
}

#[test]
fn figure1_query_translates_to_a_three_level_physical_plan() {
    let graph = data();
    let query = paper_examples::figure1_q1();
    let logical = Optimizer::with_variant(Variant::Msc)
        .optimize(&query)
        .flattest_plans()[0]
        .clone();
    assert_eq!(logical.height(), 3);
    let physical = translate(&logical, &graph);
    // First-level joins are co-located map joins; the upper levels shuffle.
    assert!(physical.map_join_count() >= 2);
    assert!(physical.reduce_join_count() >= 2);
    let sched = schedule(&physical);
    assert_eq!(
        sched.job_count, 2,
        "a height-3 MSC plan of Q1 runs in 2 jobs"
    );
    assert!(sched.kinds.iter().all(|k| *k == JobKind::MapReduce));
}

#[test]
fn every_lubm_query_gets_a_valid_job_schedule() {
    let graph = data();
    for query in lubm_queries::lubm_queries() {
        let logical = Optimizer::with_variant(Variant::Msc)
            .optimize(&query)
            .flattest_plans()[0]
            .clone();
        let physical = translate(&logical, &graph);
        let sched = schedule(&physical);
        assert!(sched.job_count >= 1);
        assert_eq!(sched.op_jobs.len(), physical.len());
        for (index, op) in physical.ops().iter().enumerate() {
            let job = sched.op_jobs[index];
            assert!(
                (1..=sched.job_count).contains(&job),
                "{}: operator {index} assigned to invalid job {job}",
                query.name()
            );
            // Reduce joins never land in a later job than their consumers.
            for input in op.inputs() {
                assert!(
                    sched.op_jobs[input.index()] <= job,
                    "{}: data flows backwards between jobs",
                    query.name()
                );
            }
        }
    }
}

#[test]
fn scan_count_matches_match_edge_count() {
    // The translation creates one MapScan per outgoing edge of each logical
    // Match operator, so tree-shaped plans have exactly one scan per pattern.
    let graph = data();
    for query in lubm_queries::lubm_queries() {
        let logical = Optimizer::with_variant(Variant::Msc)
            .optimize(&query)
            .flattest_plans()[0]
            .clone();
        let physical = translate(&logical, &graph);
        let scans = physical.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. }));
        if logical.is_tree() {
            assert_eq!(scans.len(), query.len(), "{}", query.name());
        } else {
            assert!(scans.len() >= query.len(), "{}", query.name());
        }
    }
}

#[test]
fn constant_properties_restrict_the_scanned_files() {
    let graph = data();
    let query = lubm_queries::lubm_query("Q4").unwrap();
    let logical = Optimizer::with_variant(Variant::Msc)
        .optimize(&query)
        .flattest_plans()[0]
        .clone();
    let physical = translate(&logical, &graph);
    for id in physical.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. })) {
        if let PhysicalOp::MapScan { spec, .. } = physical.op(id) {
            // Every pattern of Q4 has a constant property, so every scan is
            // restricted to a single property file.
            assert!(spec.property.is_some());
        }
    }
}

#[test]
fn map_only_plans_have_no_shufflers() {
    let graph = data();
    let query = lubm_queries::lubm_query("Q3").unwrap();
    let logical = Optimizer::with_variant(Variant::Msc)
        .optimize(&query)
        .flattest_plans()[0]
        .clone();
    assert_eq!(logical.height(), 1);
    let physical = translate(&logical, &graph);
    assert_eq!(physical.reduce_join_count(), 0);
    assert!(physical
        .ops_where(|op| matches!(op, PhysicalOp::MapShuffler { .. }))
        .is_empty());
    let sched = schedule(&physical);
    assert_eq!(sched.descriptor(), "M");
}

/// The executor's one co-location predicate agrees with the operator kind
/// the translation chose: on every MSC candidate of LUBM Q1–Q14, SP²B
/// S1–S6 and the paper's examples, every MapJoin is co-located (its inputs
/// are all scans) and no other operator — no ReduceJoin — is.
#[test]
fn every_translated_map_join_and_only_it_is_co_located() {
    let lubm = data();
    let sp2b = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
    let workloads = [
        (&lubm, lubm_queries::lubm_queries()),
        (&sp2b, sp2b_queries::sp2b_queries()),
        (&lubm, paper_examples::all()),
    ];
    let mut joins = [0usize; 2];
    for (graph, queries) in workloads {
        for query in queries {
            for logical in Optimizer::with_variant(Variant::Msc).optimize(&query).plans {
                let physical = translate(&logical, graph);
                for (index, op) in physical.ops().iter().enumerate() {
                    let map_join = matches!(op, PhysicalOp::MapJoin { .. });
                    joins[0] += usize::from(map_join);
                    joins[1] += usize::from(matches!(op, PhysicalOp::ReduceJoin { .. }));
                    let co_located = physical.co_located(PhysId(index));
                    assert_eq!(co_located, map_join, "{}: operator {index}", query.name());
                }
            }
        }
    }
    assert!(joins.iter().all(|&count| count > 0), "{joins:?}");
}
