//! Differential test of plan choice: an oracle that prices *every*
//! candidate — exact duplicates included — and takes the earliest strict
//! minimum must pick the plan `MapReduceCostModel::choose_best` and
//! `Csq::plan` pick, by position in the candidate list. `choose_best` skips
//! duplicates and prices each distinct plan once; nothing else pins plan
//! choice outside the 14 queries of `BENCH_execution.json`. It also leaves
//! unpriced every plan whose floor — its estimate less its sort charges,
//! read off its operators — reaches the least cost so far, which is sound
//! only while the floor bounds every estimate from below: a test below pins
//! that. The service's entry, `Csq::choose`, hands each leaf of the search
//! to the chooser with the floor read off its path and builds no plan that
//! cannot win: it must choose what `choose_best` over every built candidate
//! chooses.

use cliquesquare::core::{paper_examples, LogicalPlan, Optimizer, OptimizerConfig, Variant};
use cliquesquare::engine::cost::PlanFloors;
use cliquesquare::engine::csq::{Csq, CsqConfig};
use cliquesquare::engine::jobs::schedule;
use cliquesquare::engine::{translate, MapReduceCostModel, PhysId};
use cliquesquare::mapreduce::{Cluster, ClusterConfig, JobKind};
use cliquesquare::querygen::{
    lubm_queries, lubm_query, sp2b_queries, SyntheticShape, SyntheticWorkload, WorkloadConfig,
};
use cliquesquare::rdf::{LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale};
use cliquesquare::sparql::BgpQuery;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
        // So does the service's entry, from the leaves of its own search,
        // and the translation it hands on is the one it priced.
        let choice = csq.choose(query);
        assert!(
            plans[expected] == choice.plan,
            "{}: Csq::choose",
            query.name()
        );
        assert_eq!(choice.candidates, plans.len(), "{}", query.name());
        assert!(
            (1..=plans.len()).contains(&choice.priced),
            "{}: {} priced",
            query.name(),
            choice.priced
        );
        assert_eq!(
            choice.physical,
            translate(&choice.plan, cluster.graph()),
            "{}",
            query.name()
        );
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
    // Floors move with the data, and with them which candidates are
    // priced: the choice must not.
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(2));
    assert_choices_match(&cluster, &lubm_queries());
}

#[test]
fn sp2b_choices_match_the_oracle() {
    let graph = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    assert_choices_match(&cluster, &sp2b_queries());
    let graph = Sp2bGenerator::new(Sp2bScale::with_articles(1_000)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(2));
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

/// The bound `choose_best` and `Csq::choose` skip plans by holds on every
/// candidate, duplicates included. The schedule `translate` gives a plan of
/// height `h` has `max(1, h − 1)` jobs, all map-only iff `h ≤ 1`, which is
/// the start-up a floor charges at the leaf's height. Under either model, a
/// leaf's floor — read off its path, one memo per search — is its built
/// plan's floor from a memo of its own, is no more than the plan's
/// estimate, and is the estimate itself when no ordering is unsatisfied
/// (the sort charges are all the floor leaves out).
fn assert_floors_hold(cluster: &Cluster, queries: &[BgpQuery]) {
    let config = CsqConfig::default();
    let optimizer = Optimizer::new(
        OptimizerConfig::variant(config.variant).with_max_plans(config.max_candidate_plans),
    );
    let models = [
        ("statistics", MapReduceCostModel::new(cluster)),
        ("uniform", MapReduceCostModel::uniform(cluster)),
    ];
    for query in queries {
        let mut leaf_floors: Vec<PlanFloors<'_>> = models.iter().map(|(_, m)| m.floors()).collect();
        optimizer.search(query, |leaf| {
            let plan = leaf.plan();
            let height = plan.height();
            let physical = translate(&plan, cluster.graph());
            let schedule = schedule(&physical);
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
            let sorted =
                (0..physical.len()).any(|at| !physical.ordering(PhysId(at)).is_satisfied());
            for ((label, model), floors) in models.iter().zip(&mut leaf_floors) {
                let floor = floors.leaf(leaf);
                assert_eq!(
                    floor.to_bits(),
                    model.floors().plan(&plan).to_bits(),
                    "{} under {label}: a leaf's floor is its plan's",
                    query.name()
                );
                let cost = model.estimate(&physical).total_seconds;
                assert_eq!(cost, model.estimate_logical(&plan).total_seconds);
                match sorted {
                    true => assert!(
                        floor <= cost,
                        "{} under {label}: {cost} < {floor}",
                        query.name()
                    ),
                    false => assert_eq!(
                        floor.to_bits(),
                        cost.to_bits(),
                        "{} under {label}: nothing sorted, {floor} != {cost}",
                        query.name()
                    ),
                }
            }
        });
    }
}

#[test]
fn every_leafs_floor_bounds_its_plans_estimate() {
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

/// A small LUBM cluster for the property below, loaded once.
fn small_cluster() -> &'static Cluster {
    static CLUSTER: std::sync::OnceLock<Cluster> = std::sync::OnceLock::new();
    CLUSTER.get_or_init(|| {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        Cluster::load(graph, ClusterConfig::with_nodes(4))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a synthetic shape of 2–10 patterns, under any variant and a
    /// search cut at a few leaves or not: `Csq::choose` returns the plan
    /// `choose_best` picks from every plan `optimize` builds, its leaf
    /// count is their number, and every leaf's floor — read off its path,
    /// what the chooser skips it by — is its plan's.
    #[test]
    fn the_service_entry_chooses_from_leaves_what_choose_best_chooses_from_plans(
        shape in 0usize..4,
        patterns in 2usize..=10,
        seed in any::<u64>(),
        variant in 0usize..8,
        cut in any::<bool>(),
    ) {
        let shape = SyntheticShape::ALL[shape];
        let query = SyntheticWorkload::query(shape, patterns, &mut StdRng::seed_from_u64(seed));
        let variant = Variant::ALL[variant];
        let max_candidate_plans = if cut { 3 } else { 500 };
        let config = CsqConfig { variant, max_candidate_plans, ..CsqConfig::default() };
        let cluster = small_cluster();
        let optimizer =
            Optimizer::new(OptimizerConfig::variant(variant).with_max_plans(max_candidate_plans));
        let result = optimizer.optimize(&query);
        prop_assume!(!result.plans.is_empty());
        let model = MapReduceCostModel::new(cluster);
        let expected = model.choose_best(&result.plans).expect("a candidate");
        let choice = Csq::new(cluster.clone(), config).choose(&query);
        prop_assert!(&choice.plan == expected, "{} under {variant}", query.name());
        prop_assert_eq!(choice.candidates, result.plans.len());
        let mut leaves = 0;
        let mut floors = model.floors();
        optimizer.search(&query, |leaf| {
            let floor = floors.leaf(leaf);
            let plan_floor = model.floors().plan(&leaf.plan());
            assert_eq!(floor.to_bits(), plan_floor.to_bits(), "{} under {variant}", query.name());
            leaves += 1;
        });
        prop_assert_eq!(leaves, result.plans.len());
    }
}
