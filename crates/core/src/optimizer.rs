//! The CliqueSquare optimization algorithm (Algorithm 1) and plan builder
//! (`CREATEQUERYPLANS`, Section 4.2).

use crate::clique::reduce;
use crate::decomposition::{decompositions, DecompositionLimits, Variant};
use crate::plan::{LogicalOp, LogicalPlan, OpId};
use crate::variable_graph::VariableGraph;
use cliquesquare_sparql::BgpQuery;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Configuration of the [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// The clique-decomposition variant to use.
    pub variant: Variant,
    /// Per-graph decomposition enumeration limits.
    pub limits: DecompositionLimits,
    /// Maximum number of plans to generate before truncating the search.
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

    /// Runs Algorithm 1 on `query` and returns every generated plan.
    ///
    /// The query must be connected (×-free); for a disconnected query no
    /// decomposition can cover the isolated patterns and the result is empty.
    pub fn optimize(&self, query: &BgpQuery) -> OptimizeResult {
        let start = Instant::now();
        let mut result = OptimizeResult {
            plans: Vec::new(),
            decompositions_explored: 0,
            truncated: false,
            elapsed: Duration::ZERO,
        };
        if query.is_empty() {
            result.elapsed = start.elapsed();
            return result;
        }
        let graph = VariableGraph::from_query(query);
        let mut states = Vec::new();
        self.recurse(query, graph, &mut states, &mut result);
        result.elapsed = start.elapsed();
        result
    }

    /// One recursive step of Algorithm 1.
    fn recurse(
        &self,
        query: &BgpQuery,
        graph: VariableGraph,
        states: &mut Vec<VariableGraph>,
        result: &mut OptimizeResult,
    ) {
        if result.plans.len() >= self.config.max_plans {
            result.truncated = true;
            return;
        }
        let is_complete = graph.len() == 1;
        states.push(graph);
        if is_complete {
            result.plans.push(build_plan(states, query));
        } else {
            // The recursion below pushes and pops in balance, so this index
            // is this level's graph again whenever it returns.
            let level = states.len() - 1;
            let decs = decompositions(&states[level], self.config.variant, &self.config.limits);
            if decs.len() >= self.config.limits.max_decompositions {
                result.truncated = true;
            }
            result.decompositions_explored += decs.len();
            for d in &decs {
                if result.plans.len() >= self.config.max_plans {
                    result.truncated = true;
                    break;
                }
                let reduced = reduce(&states[level], d);
                self.recurse(query, reduced, states, result);
            }
        }
        states.pop();
    }
}

/// Builds a logical plan from a sequence of variable graphs
/// (`CREATEQUERYPLANS`, Section 4.2).
///
/// The first graph contributes one Match operator per triple pattern; every
/// later graph contributes one n-ary Join per multi-node clique, while
/// single-node cliques pass their operator through unchanged. A final Project
/// restricts the output to the query's distinguished variables.
pub fn build_plan(states: &[VariableGraph], query: &BgpQuery) -> LogicalPlan {
    assert!(!states.is_empty(), "cannot build a plan from no states");
    assert_eq!(
        states.last().map(VariableGraph::len),
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
