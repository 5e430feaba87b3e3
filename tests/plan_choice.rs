//! Differential test of plan choice: an oracle that prices *every*
//! candidate — exact duplicates included — and takes the earliest strict
//! minimum must pick the plan `MapReduceCostModel::choose_best` and
//! `Csq::plan` pick, by position in the candidate list. `choose_best` skips
//! duplicates and prices each distinct plan once; nothing else pins plan
//! choice outside the 14 queries of `BENCH_execution.json`.

use cliquesquare::core::{paper_examples, LogicalPlan, Optimizer, OptimizerConfig, Variant};
use cliquesquare::engine::csq::{Csq, CsqConfig};
use cliquesquare::engine::MapReduceCostModel;
use cliquesquare::mapreduce::{Cluster, ClusterConfig};
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
