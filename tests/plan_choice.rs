//! Differential test of plan choice: an oracle that prices *every*
//! candidate — exact duplicates included — and takes the earliest strict
//! minimum must pick the plan `MapReduceCostModel::choose_best` and
//! `Csq::plan` pick, by position in the candidate list. `choose_best` skips
//! duplicates and prices each distinct plan once; nothing else pins plan
//! choice outside the 14 queries of `BENCH_execution.json`. It also leaves
//! unpriced every plan whose job floor reaches the least cost so far, which
//! is sound only while the floor bounds every estimate from below: the last
//! test pins that.

use cliquesquare::core::{paper_examples, LogicalPlan, Optimizer, OptimizerConfig, Variant};
use cliquesquare::engine::csq::{Csq, CsqConfig};
use cliquesquare::engine::jobs::schedule;
use cliquesquare::engine::{translate, MapReduceCostModel};
use cliquesquare::mapreduce::{Cluster, ClusterConfig, JobKind};
use cliquesquare::querygen::{
    lubm_queries, lubm_query, sp2b_queries, SyntheticWorkload, WorkloadConfig,
};
use cliquesquare::rdf::{LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale};
use cliquesquare::sparql::BgpQuery;
use std::collections::HashSet;

/// Position of the earliest plan no other plan is strictly cheaper than,
/// pricing all of them.
fn oracle(model: &MapReduceCostModel<'_>, plans: &[LogicalPlan]) -> usize {
    let mut best = 0;
    let mut least = f64::INFINITY;
    for (at, plan) in plans.iter().enumerate() {
        let cost = model.estimate_logical(plan).total_seconds;
        assert!(!cost.is_nan(), "the model prices every plan");
        if cost < least {
            (best, least) = (at, cost);
        }
    }
    best
}

/// Checks `choose_best` under both models and `Csq::plan` against the oracle
/// on every query.
fn assert_choices_match(cluster: &Cluster, queries: &[BgpQuery]) {
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let models = [
        ("statistics", MapReduceCostModel::new(cluster)),
        ("uniform", MapReduceCostModel::uniform(cluster)),
    ];
    for query in queries {
        let (plans, chosen, _) = csq.plan(query);
        for (label, model) in &models {
            let expected = oracle(model, &plans);
            let best = model.choose_best(&plans).expect("a candidate");
            let position = plans.iter().position(|plan| std::ptr::eq(plan, best));
            assert_eq!(position, Some(expected), "{} under {label}", query.name());
        }
        // `Csq::plan` chooses with the statistics model.
        let expected = oracle(&models[0].1, &plans);
        assert!(plans[expected] == chosen, "{}: Csq::plan", query.name());
    }
}

#[test]
fn lubm_and_synthetic_choices_match_the_oracle() {
    // Four universities: Q11's `"University3"` exists.
    let graph = LubmGenerator::new(LubmScale::with_universities(4)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    assert_choices_match(&cluster, &lubm_queries());
    // Shapes over properties the data does not have: every scan is empty and
    // costs tie far more often, which is where "earliest" matters.
    assert_choices_match(&cluster, &paper_examples::all());
    assert_choices_match(
        &cluster,
        &SyntheticWorkload::generate(WorkloadConfig::small()),
    );
}

#[test]
fn sp2b_choices_match_the_oracle() {
    let graph = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    assert_choices_match(&cluster, &sp2b_queries());
}

/// The optimizer keeps duplicates — its plan count is the paper's Figure 16
/// number — and the cost model is where they are skipped.
#[test]
fn q14_keeps_its_duplicate_plans() {
    let config = CsqConfig::default();
    let optimizer = Optimizer::new(
        OptimizerConfig::variant(Variant::Msc).with_max_plans(config.max_candidate_plans),
    );
    let result = optimizer.optimize(&lubm_query("Q14").expect("a LUBM query"));
    assert_eq!(result.plans.len(), 1_434);
    // A set of plans compares with `==`; `unique_count` with `signature()`.
    let distinct: HashSet<&LogicalPlan> = result.plans.iter().collect();
    assert_eq!(distinct.len(), 935);
    assert_eq!(result.unique_count(), 935);
}

/// The bound `choose_best` skips plans by holds on every candidate,
/// duplicates included: the schedule `translate` gives a plan of height `h`
/// has `max(1, h − 1)` jobs, all map-only iff `h ≤ 1`, which is what
/// `job_floor` reads off the height, and no estimate is below the floor.
fn assert_floors_hold(cluster: &Cluster, queries: &[BgpQuery]) {
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let models = [
        ("statistics", MapReduceCostModel::new(cluster)),
        ("uniform", MapReduceCostModel::uniform(cluster)),
    ];
    for query in queries {
        let (plans, _, _) = csq.plan(query);
        for plan in &plans {
            let height = plan.height();
            let schedule = schedule(&translate(plan, cluster.graph()));
            let (kind, jobs) = if height <= 1 {
                (JobKind::MapOnly, 1)
            } else {
                (JobKind::MapReduce, height - 1)
            };
            assert_eq!(
                schedule.job_count,
                jobs,
                "{} at height {height}",
                query.name()
            );
            assert_eq!(schedule.kinds, vec![kind; jobs], "{}", query.name());
            for (label, model) in &models {
                let floor = model.job_floor(plan);
                let cost = model.estimate_logical(plan).total_seconds;
                assert!(
                    cost >= floor,
                    "{} under {label}: {cost} < {floor}",
                    query.name()
                );
            }
        }
    }
}

#[test]
fn the_job_floor_is_a_lower_bound_of_every_candidates_estimate() {
    let graph = LubmGenerator::new(LubmScale::with_universities(4)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    assert_floors_hold(&cluster, &lubm_queries());
    assert_floors_hold(&cluster, &paper_examples::all());
    assert_floors_hold(
        &cluster,
        &SyntheticWorkload::generate(WorkloadConfig::small()),
    );
    let graph = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    assert_floors_hold(&cluster, &sp2b_queries());
}
