//! The CliqueSquare optimization algorithm (Algorithm 1) and plan builder
//! (`CREATEQUERYPLANS`, Section 4.2).
//!
//! Algorithm 1 reaches the same variable graph along many decomposition
//! paths. What a graph expands to — its decompositions and the graphs they
//! reduce it to — depends on the graph alone, so one search decomposes each
//! distinct graph once and replays that expansion on every later visit.
//! Graphs are shared (`Rc<VariableGraph>`) between the memo, the
//! recursion's state stack and [`build_plan`]. The generated plans, their
//! order and the counters are exactly those of the plain recursion.
//!
//! Each complete path of the search — the graphs from the query's down to
//! a one-node graph — is a [`Leaf`], one candidate plan. [`Optimizer::search`]
//! hands every leaf to a visitor with its plan's height, read off the path,
//! so a caller that keeps only the cheapest plan builds a leaf's plan only
//! when that height lets it win; [`Optimizer::optimize`] builds them all.

use crate::clique::{reduce, Decomposition};
use crate::decomposition::{decompositions, DecompositionLimits, Variant};
use crate::plan::{LogicalOp, LogicalPlan, OpId};
use crate::variable_graph::VariableGraph;
use cliquesquare_sparql::BgpQuery;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Configuration of the [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// The clique-decomposition variant to use.
    pub variant: Variant,
    /// Per-graph decomposition enumeration limits.
    pub limits: DecompositionLimits,
    /// Maximum number of leaves (candidate plans) the search reaches before
    /// it is truncated.
    pub max_plans: usize,
}

impl OptimizerConfig {
    /// A configuration for `variant` with default limits.
    pub fn variant(variant: Variant) -> Self {
        Self {
            variant,
            limits: DecompositionLimits::default(),
            max_plans: 200_000,
        }
    }

    /// The paper's recommended configuration: CliqueSquare-MSC.
    pub fn recommended() -> Self {
        Self::variant(Variant::Msc)
    }

    /// Sets the maximum number of generated plans.
    pub fn with_max_plans(mut self, max_plans: usize) -> Self {
        self.max_plans = max_plans;
        self
    }

    /// Sets the decomposition limits.
    pub fn with_limits(mut self, limits: DecompositionLimits) -> Self {
        self.limits = limits;
        self
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::recommended()
    }
}

/// The result of running the optimizer on a query.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Every generated plan in generation order, including structural and
    /// exact duplicates (Figure 16 counts all of them; Figure 19 measures
    /// the uniqueness ratio). Duplicates are kept here and skipped where
    /// plans are priced (`MapReduceCostModel::choose_best` in the engine).
    pub plans: Vec<LogicalPlan>,
    /// Total number of clique decompositions explored across all recursion
    /// levels.
    pub decompositions_explored: usize,
    /// `true` if the search was cut short by [`OptimizerConfig::max_plans`]
    /// or the decomposition limits.
    pub truncated: bool,
    /// Wall-clock optimization time.
    pub elapsed: Duration,
}

impl OptimizeResult {
    /// The smallest height among the generated plans.
    pub fn min_height(&self) -> Option<usize> {
        self.plans.iter().map(LogicalPlan::height).min()
    }

    /// The plans achieving the smallest height.
    pub fn flattest_plans(&self) -> Vec<&LogicalPlan> {
        let Some(min) = self.min_height() else {
            return Vec::new();
        };
        self.plans.iter().filter(|p| p.height() == min).collect()
    }

    /// The structurally distinct plans (deduplicated by
    /// [`LogicalPlan::signature`]).
    pub fn unique_plans(&self) -> Vec<&LogicalPlan> {
        let mut seen = BTreeSet::new();
        self.plans
            .iter()
            .filter(|p| seen.insert(p.signature()))
            .collect()
    }

    /// Number of structurally distinct plans.
    pub fn unique_count(&self) -> usize {
        self.unique_plans().len()
    }
}

/// The CliqueSquare logical optimizer.
///
/// Starting from the query's variable graph (one node per triple pattern),
/// the optimizer repeatedly applies clique decomposition and clique reduction
/// until the graph shrinks to one node, and materializes every explored
/// sequence of graphs into a logical plan of n-ary joins.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Self { config }
    }

    /// Creates an optimizer for `variant` with default limits.
    pub fn with_variant(variant: Variant) -> Self {
        Self::new(OptimizerConfig::variant(variant))
    }

    /// Returns the optimizer's configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs Algorithm 1 on `query` and returns every generated plan: the
    /// [`search`](Self::search) whose visitor builds every leaf.
    ///
    /// The query must be connected (×-free); for a disconnected query no
    /// decomposition can cover the isolated patterns and the result is empty.
    pub fn optimize(&self, query: &BgpQuery) -> OptimizeResult {
        let mut plans = Vec::new();
        let summary = self.search(query, |leaf| plans.push(leaf.plan()));
        OptimizeResult {
            plans,
            decompositions_explored: summary.decompositions_explored,
            truncated: summary.truncated,
            elapsed: summary.elapsed,
        }
    }

    /// Runs Algorithm 1 on `query`, handing each [`Leaf`] to `visit` in the
    /// order [`optimize`](Self::optimize) lists their plans, and builds no
    /// plan itself.
    pub fn search(&self, query: &BgpQuery, visit: impl FnMut(&Leaf<'_>)) -> SearchSummary {
        let start = Instant::now();
        let mut search = Search {
            config: &self.config,
            query,
            visit,
            states: Vec::new(),
            heights: Vec::new(),
            memo: HashMap::new(),
            expansions: Vec::new(),
            summary: SearchSummary {
                leaves: 0,
                decompositions_explored: 0,
                truncated: false,
                elapsed: Duration::ZERO,
            },
        };
        if !query.is_empty() {
            let graph = VariableGraph::from_query(query);
            let expansion = search.expand(&graph);
            search.recurse(Rc::new(graph), expansion);
        }
        let mut summary = search.summary;
        summary.elapsed = start.elapsed();
        summary
    }
}

/// What an [`Optimizer::search`] did, without the plans: those went to its
/// visitor.
#[derive(Debug, Clone, Copy)]
pub struct SearchSummary {
    /// Number of leaves reached: the length of
    /// [`OptimizeResult::plans`] for the same query and configuration.
    pub leaves: usize,
    /// As [`OptimizeResult::decompositions_explored`].
    pub decompositions_explored: usize,
    /// As [`OptimizeResult::truncated`].
    pub truncated: bool,
    /// Wall-clock search time, the visitor's included.
    pub elapsed: Duration,
}

/// One complete path of the search: the variable graphs from the query's
/// down to a one-node graph. Each leaf is one candidate plan, built only on
/// request.
#[derive(Debug)]
pub struct Leaf<'s> {
    states: &'s [Rc<VariableGraph>],
    query: &'s BgpQuery,
    height: usize,
}

impl Leaf<'_> {
    /// The [`LogicalPlan::height`] of the leaf's plan, read off its path: a
    /// pass-through node keeps its parent's height and a join node is one
    /// above the highest of its parents.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Builds the leaf's plan ([`build_plan`]).
    pub fn plan(&self) -> LogicalPlan {
        build_plan(self.states, self.query)
    }
}

/// What one variable graph expands to: its decompositions in enumeration
/// order, and the first `children.len()` of the graphs they reduce it to,
/// each with its own expansion (`None` for a one-node graph). Children are
/// reduced when first reached, in order, so a search cut short by
/// [`OptimizerConfig::max_plans`] reduces no more graphs than it visits.
struct Expansion {
    decompositions: Vec<Decomposition>,
    children: Vec<(Rc<VariableGraph>, Option<usize>)>,
}

/// One run of Algorithm 1.
///
/// The same variable graph is reached along many paths (Q14: 3 148 visits
/// of far fewer distinct graphs), and what it expands to depends on the
/// graph alone, so each distinct graph is decomposed once, each of its
/// children reduced once, and every later visit replays that
/// [`Expansion`]. Graphs are shared (`Rc`): a revisit clones a pointer into
/// the state stack, not a graph. The counters are still accumulated per
/// visit, so [`OptimizeResult`] is exactly what the plain recursion gives.
struct Search<'a, V> {
    config: &'a OptimizerConfig,
    query: &'a BgpQuery,
    visit: V,
    /// The graphs from the query's down to the one being expanded.
    states: Vec<Rc<VariableGraph>>,
    /// Beside each of `states`, the height of each of its nodes' operators.
    /// Kept past a pop, so a level's buffer is reused by the next visit.
    heights: Vec<Vec<usize>>,
    /// Index into `expansions` of every distinct graph met so far, keyed by
    /// [`state_key`].
    memo: HashMap<Vec<usize>, usize>,
    expansions: Vec<Expansion>,
    summary: SearchSummary,
}

impl<V: FnMut(&Leaf<'_>)> Search<'_, V> {
    /// One recursive step of Algorithm 1 on `graph`, whose expansion is
    /// `expansion` (`None`: a one-node graph, which completes a plan).
    fn recurse(&mut self, graph: Rc<VariableGraph>, expansion: Option<usize>) {
        if self.summary.leaves >= self.config.max_plans {
            self.summary.truncated = true;
            return;
        }
        self.push_heights(&graph);
        self.states.push(graph);
        match expansion {
            None => {
                let height = self.heights[self.states.len() - 1][0];
                let leaf = Leaf {
                    states: &self.states,
                    query: self.query,
                    height,
                };
                (self.visit)(&leaf);
                self.summary.leaves += 1;
            }
            Some(at) => {
                let count = self.expansions[at].decompositions.len();
                if count >= self.config.limits.max_decompositions {
                    self.summary.truncated = true;
                }
                self.summary.decompositions_explored += count;
                for index in 0..count {
                    if self.summary.leaves >= self.config.max_plans {
                        self.summary.truncated = true;
                        break;
                    }
                    let (child, child_expansion) = self.child(at, index);
                    self.recurse(child, child_expansion);
                }
            }
        }
        self.states.pop();
    }

    /// Sets the heights of `graph`'s nodes, the level below the top of the
    /// state stack: 0 on the query's graph, then a pass-through node's
    /// parent's height and a join node's one above its highest parent's —
    /// the heights [`build_plan`] gives their operators.
    fn push_heights(&mut self, graph: &VariableGraph) {
        let level = self.states.len();
        if self.heights.len() == level {
            self.heights.push(Vec::new());
        }
        let (below, at) = self.heights.split_at_mut(level);
        let heights = &mut at[0];
        heights.clear();
        let Some(parents) = below.last() else {
            heights.resize(graph.len(), 0);
            return;
        };
        heights.extend(graph.nodes().iter().map(|node| {
            let mut from = node.derived_from.iter().map(|&parent| parents[parent]);
            match node.derived_from.len() {
                1 => from.next().expect("one parent"),
                _ => 1 + from.max().unwrap_or(0),
            }
        }));
    }

    /// The expansion of `graph`: `None` for a one-node graph, the memoized
    /// one if an equal graph was met before, else its decompositions.
    fn expand(&mut self, graph: &VariableGraph) -> Option<usize> {
        if graph.len() == 1 {
            return None;
        }
        let next = self.expansions.len();
        let at = *self.memo.entry(state_key(graph)).or_insert(next);
        if at == next {
            self.expansions.push(Expansion {
                decompositions: decompositions(graph, self.config.variant, &self.config.limits),
                children: Vec::new(),
            });
        }
        Some(at)
    }

    /// Child `index` of expansion `at`, the expansion of the graph on top of
    /// the state stack. Visits reach the children in order, so a child not
    /// reduced yet is the next one.
    fn child(&mut self, at: usize, index: usize) -> (Rc<VariableGraph>, Option<usize>) {
        if index == self.expansions[at].children.len() {
            let graph = self.states.last().expect("a graph is being expanded");
            let reduced = reduce(graph, &self.expansions[at].decompositions[index]);
            let expansion = self.expand(&reduced);
            self.expansions[at]
                .children
                .push((Rc::new(reduced), expansion));
        }
        let (child, expansion) = &self.expansions[at].children[index];
        (Rc::clone(child), *expansion)
    }
}

/// The memo key of a variable graph: its nodes' pattern sets, in node order,
/// each prefixed by its length. It is enough: a node's variables are the
/// union of its patterns' variables, and [`decompositions`] and [`reduce`]
/// read nothing else (a node's `derived_from` only wires the plan).
fn state_key(graph: &VariableGraph) -> Vec<usize> {
    let mut key = Vec::with_capacity(2 * graph.len());
    for node in graph.nodes() {
        key.push(node.patterns.len());
        key.extend(node.patterns.iter().copied());
    }
    key
}

/// Builds a logical plan from a sequence of variable graphs
/// (`CREATEQUERYPLANS`, Section 4.2).
///
/// The first graph contributes one Match operator per triple pattern; every
/// later graph contributes one n-ary Join per multi-node clique, while
/// single-node cliques pass their operator through unchanged. A final Project
/// restricts the output to the query's distinguished variables.
pub fn build_plan(states: &[Rc<VariableGraph>], query: &BgpQuery) -> LogicalPlan {
    assert!(!states.is_empty(), "cannot build a plan from no states");
    assert_eq!(
        states.last().map(|graph| graph.len()),
        Some(1),
        "the final state must have a single node"
    );

    let mut ops: Vec<LogicalOp> = Vec::new();
    let first = &states[0];
    let mut prev_ops: Vec<OpId> = first
        .nodes()
        .iter()
        .map(|node| {
            let pattern_index = *node
                .patterns
                .iter()
                .next()
                .expect("initial nodes hold one pattern");
            ops.push(LogicalOp::Match {
                pattern_index,
                pattern: query.patterns()[pattern_index].clone(),
                output: node.variables.clone(),
            });
            OpId(ops.len() - 1)
        })
        .collect();

    for level in 1..states.len() {
        let prev_graph = &states[level - 1];
        let current = &states[level];
        let mut current_ops = Vec::with_capacity(current.len());
        for node in current.nodes() {
            if node.derived_from.len() == 1 {
                let parent = *node.derived_from.iter().next().expect("one parent");
                current_ops.push(prev_ops[parent]);
                continue;
            }
            let attributes = prev_graph.common_variables(&node.derived_from);
            let mut inputs: Vec<OpId> = Vec::with_capacity(node.derived_from.len());
            for &parent in &node.derived_from {
                let op = prev_ops[parent];
                if !inputs.contains(&op) {
                    inputs.push(op);
                }
            }
            debug_assert!(
                !attributes.is_empty(),
                "clique nodes must share at least one variable"
            );
            ops.push(LogicalOp::Join {
                attributes,
                inputs,
                output: node.variables.clone(),
            });
            current_ops.push(OpId(ops.len() - 1));
        }
        prev_ops = current_ops;
    }

    let body_root = prev_ops[0];
    let variables = if query.distinguished().is_empty() {
        query.variables()
    } else {
        query.distinguished().to_vec()
    };
    ops.push(LogicalOp::Project {
        variables,
        input: body_root,
    });
    let root = OpId(ops.len() - 1);
    LogicalPlan::new(ops, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples;
    use cliquesquare_sparql::parser::parse_query;

    fn optimize(variant: Variant, query: &BgpQuery) -> OptimizeResult {
        Optimizer::with_variant(variant).optimize(query)
    }

    /// Algorithm 1 without the memo: every visit decomposes its graph and
    /// reduces every child it reaches. What [`Optimizer::optimize`] must
    /// equal.
    fn optimize_unmemoized(config: &OptimizerConfig, query: &BgpQuery) -> OptimizeResult {
        fn recurse(
            config: &OptimizerConfig,
            query: &BgpQuery,
            graph: VariableGraph,
            states: &mut Vec<Rc<VariableGraph>>,
            result: &mut OptimizeResult,
        ) {
            if result.plans.len() >= config.max_plans {
                result.truncated = true;
                return;
            }
            let is_complete = graph.len() == 1;
            states.push(Rc::new(graph));
            if is_complete {
                result.plans.push(build_plan(states, query));
            } else {
                let graph = Rc::clone(states.last().expect("just pushed"));
                let decs = decompositions(&graph, config.variant, &config.limits);
                if decs.len() >= config.limits.max_decompositions {
                    result.truncated = true;
                }
                result.decompositions_explored += decs.len();
                for d in &decs {
                    if result.plans.len() >= config.max_plans {
                        result.truncated = true;
                        break;
                    }
                    recurse(config, query, reduce(&graph, d), states, result);
                }
            }
            states.pop();
        }
        let mut result = OptimizeResult {
            plans: Vec::new(),
            decompositions_explored: 0,
            truncated: false,
            elapsed: Duration::ZERO,
        };
        if !query.is_empty() {
            let graph = VariableGraph::from_query(query);
            recurse(config, query, graph, &mut Vec::new(), &mut result);
        }
        result
    }

    /// `optimize` equals the memo-free recursion under `config`: the same
    /// plans in the same order, the same counters.
    fn assert_memo_changes_nothing(config: OptimizerConfig, query: &BgpQuery) {
        let memoized = Optimizer::new(config).optimize(query);
        let plain = optimize_unmemoized(&config, query);
        let context = format!("{} on {}", config.variant, query.name());
        assert_eq!(memoized.plans, plain.plans, "{context}");
        assert_eq!(
            memoized.decompositions_explored, plain.decompositions_explored,
            "{context}"
        );
        assert_eq!(memoized.truncated, plain.truncated, "{context}");
    }

    #[test]
    fn the_memo_changes_no_plan_on_the_paper_examples() {
        for query in paper_examples::all() {
            for variant in Variant::ALL {
                // SC and XC explode on Figure 1's Q1: bounded, as everywhere.
                let config = OptimizerConfig::variant(variant).with_max_plans(2_000);
                assert_memo_changes_nothing(config, &query);
            }
        }
    }

    #[test]
    fn the_memo_changes_no_plan_on_lubm_sp2b_and_synthetic_shapes() {
        use cliquesquare_querygen::{
            lubm_queries, sp2b_queries, SyntheticWorkload, WorkloadConfig,
        };
        let mut queries = lubm_queries();
        queries.extend(sp2b_queries());
        for seed in [7, 42] {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::small()
            };
            queries.extend(SyntheticWorkload::generate(config));
        }
        for query in &queries {
            for variant in Variant::ALL {
                let config = OptimizerConfig::variant(variant).with_max_plans(2_000);
                assert_memo_changes_nothing(config, query);
            }
        }
    }

    #[test]
    fn the_memo_changes_no_plan_when_the_search_is_truncated() {
        let q = paper_examples::figure1_q1();
        let config = OptimizerConfig::variant(Variant::Sc).with_max_plans(10);
        assert!(Optimizer::new(config).optimize(&q).truncated);
        assert_memo_changes_nothing(config, &q);
        // A cut by the decomposition limits rather than by `max_plans`.
        let limits = DecompositionLimits {
            max_decompositions: 3,
            max_candidate_cliques: 100,
        };
        let config = OptimizerConfig::variant(Variant::Sc)
            .with_max_plans(500)
            .with_limits(limits);
        assert!(Optimizer::new(config).optimize(&q).truncated);
        assert_memo_changes_nothing(config, &q);
    }

    #[test]
    fn a_leaf_knows_its_plans_height_and_the_search_counts_every_leaf() {
        use cliquesquare_querygen::{lubm_queries, sp2b_queries, SyntheticWorkload};
        let mut queries = paper_examples::all();
        queries.extend(lubm_queries());
        queries.extend(sp2b_queries());
        queries.extend(SyntheticWorkload::adversarial_workload(8));
        for query in &queries {
            for variant in Variant::ALL {
                for max_plans in [7, 2_000] {
                    let optimizer =
                        Optimizer::new(OptimizerConfig::variant(variant).with_max_plans(max_plans));
                    let mut plans = Vec::new();
                    let summary = optimizer.search(query, |leaf| {
                        let plan = leaf.plan();
                        assert_eq!(
                            leaf.height(),
                            plan.height(),
                            "{variant} on {}",
                            query.name()
                        );
                        plans.push(plan);
                    });
                    let result = optimizer.optimize(query);
                    let context = format!("{variant} on {} under {max_plans}", query.name());
                    assert_eq!(summary.leaves, result.plans.len(), "{context}");
                    assert_eq!(plans, result.plans, "{context}");
                    assert_eq!(summary.truncated, result.truncated, "{context}");
                    assert_eq!(
                        summary.decompositions_explored, result.decompositions_explored,
                        "{context}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_pattern_query_yields_match_project_plan() {
        let q = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?y }").unwrap();
        let result = optimize(Variant::Msc, &q);
        assert_eq!(result.plans.len(), 1);
        let plan = &result.plans[0];
        assert_eq!(plan.height(), 0);
        assert_eq!(plan.join_count(), 0);
        assert_eq!(plan.match_ops().len(), 1);
    }

    #[test]
    fn two_pattern_query_yields_single_join_plan() {
        let q =
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }").unwrap();
        for variant in Variant::ALL {
            let result = optimize(variant, &q);
            assert_eq!(result.plans.len(), 1, "{variant}");
            assert_eq!(result.plans[0].height(), 1);
            assert_eq!(result.plans[0].max_join_fanin(), 2);
        }
    }

    #[test]
    fn every_plan_covers_every_pattern_exactly_like_the_query() {
        for query in paper_examples::all() {
            for variant in [Variant::Msc, Variant::MscPlus, Variant::Mxc] {
                let result = optimize(variant, &query);
                for plan in &result.plans {
                    let matched: BTreeSet<usize> = plan
                        .match_ops()
                        .into_iter()
                        .map(|id| match plan.op(id) {
                            LogicalOp::Match { pattern_index, .. } => *pattern_index,
                            _ => unreachable!(),
                        })
                        .collect();
                    assert_eq!(matched.len(), query.len(), "{variant} on {}", query.name());
                }
            }
        }
    }

    #[test]
    fn mxc_plus_and_xc_plus_fail_on_figure10() {
        let q = paper_examples::figure10_query();
        assert!(optimize(Variant::MxcPlus, &q).plans.is_empty());
        assert!(optimize(Variant::XcPlus, &q).plans.is_empty());
        // ... while the simple-cover variants do find plans.
        assert!(!optimize(Variant::MscPlus, &q).plans.is_empty());
        assert!(!optimize(Variant::Msc, &q).plans.is_empty());
    }

    #[test]
    fn figure11_msc_produces_only_the_two_level_plan_of_figure12() {
        let q = paper_examples::figure11_qx();
        let result = optimize(Variant::Msc, &q);
        assert!(!result.plans.is_empty());
        // All MSC plans for QX have height 2 (Figure 12); the alternative
        // height-2 plan of Figure 13 uses a non-minimum cover and is absent.
        for plan in &result.plans {
            assert_eq!(plan.height(), 2);
        }
        // Figure 13's plan joins {t1,t2}, {t2,t3}, {t3,t4} in the first level:
        // that requires 3 cliques, more than the minimum 2.
        assert!(result.plans.iter().all(|p| p.join_count() <= 3));
    }

    #[test]
    fn figure14_exact_variants_are_ho_lossy() {
        let q = paper_examples::figure14_query();
        let msc_plus = optimize(Variant::MscPlus, &q);
        let best_simple = msc_plus.min_height().unwrap();
        assert_eq!(best_simple, 2);
        for variant in [Variant::Mxc, Variant::Xc] {
            let result = optimize(variant, &q);
            assert!(
                !result.plans.is_empty(),
                "{variant} should still find plans"
            );
            assert!(
                result.min_height().unwrap() > best_simple,
                "{variant} found a flat plan it should not be able to build"
            );
        }
    }

    #[test]
    fn paper_q1_msc_finds_height_three_plan() {
        // Figure 4 shows the MSC plan for Q1 with three join levels.
        let q = paper_examples::figure1_q1();
        let result = optimize(Variant::Msc, &q);
        assert!(!result.plans.is_empty());
        assert_eq!(result.min_height(), Some(3));
        // The first-level decomposition of Figure 5 uses 4 cliques on a, d/f, g/i, j.
        let flattest = result.flattest_plans();
        assert!(flattest.iter().any(|p| p.max_join_fanin() >= 3));
    }

    #[test]
    fn sc_space_includes_msc_space_on_small_queries() {
        let q = paper_examples::figure11_qx();
        let msc: BTreeSet<String> = optimize(Variant::Msc, &q)
            .plans
            .iter()
            .map(LogicalPlan::signature)
            .collect();
        let sc: BTreeSet<String> = optimize(Variant::Sc, &q)
            .plans
            .iter()
            .map(LogicalPlan::signature)
            .collect();
        assert!(msc.is_subset(&sc));
        assert!(sc.len() > msc.len());
    }

    #[test]
    fn truncation_respects_max_plans() {
        let q = paper_examples::figure1_q1();
        let config = OptimizerConfig::variant(Variant::Sc).with_max_plans(10);
        let result = Optimizer::new(config).optimize(&q);
        assert!(result.truncated);
        assert!(result.plans.len() <= 10);
    }

    #[test]
    fn a_wide_star_keeps_its_one_join_plan() {
        // From 16 arms on, the partial cliques of the hub outnumber the
        // candidate cap; the full clique is still a candidate.
        for arms in [16, 17, 64, 70] {
            let star = cliquesquare_querygen::SyntheticWorkload::fanout_star(arms);
            let result = optimize(Variant::Msc, &star);
            assert_eq!(result.plans.len(), 1, "{arms} arms");
            assert_eq!(result.plans[0].height(), 1, "{arms} arms");
            assert_eq!(result.plans[0].max_join_fanin(), arms, "{arms} arms");
        }
    }

    #[test]
    fn disconnected_query_produces_no_plans() {
        let q = parse_query("SELECT ?a WHERE { ?a ub:p ?b . ?x ub:q ?y }").unwrap();
        let result = optimize(Variant::Msc, &q);
        assert!(result.plans.is_empty());
    }

    #[test]
    fn empty_query_produces_no_plans() {
        let q = BgpQuery::new(vec![], vec![]);
        let result = optimize(Variant::Msc, &q);
        assert!(result.plans.is_empty());
        assert_eq!(result.decompositions_explored, 0);
    }

    #[test]
    fn unique_plans_deduplicate_by_signature() {
        let q = paper_examples::figure1_q1();
        let result = optimize(Variant::Msc, &q);
        assert!(result.unique_count() <= result.plans.len());
        assert!(result.unique_count() >= 1);
    }

    #[test]
    fn plans_project_the_distinguished_variables() {
        let q = parse_query("SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d }").unwrap();
        let result = optimize(Variant::Msc, &q);
        for plan in &result.plans {
            assert_eq!(
                plan.output_variables(),
                vec![cliquesquare_sparql::Variable::new("a")]
            );
        }
    }

    use std::collections::BTreeSet;
}
