//! Exhaustive enumeration of binary join plans (dynamic programming over
//! connected sub-queries), producing the *best binary bushy* and *best
//! binary linear* plans used as baselines in Figure 20.
//!
//! Plan quality is ranked with the classic `C_out` metric (sum of estimated
//! intermediate result cardinalities), with exact leaf cardinalities taken
//! from the loaded graph and the same independence assumption as the engine's
//! cost model for join outputs. The returned plans are ordinary
//! [`LogicalPlan`]s whose joins all have exactly two inputs, so they can be
//! translated and executed by the engine like any CliqueSquare plan.

use cliquesquare_core::{LogicalOp, LogicalPlan, OpId};
use cliquesquare_rdf::Graph;
use cliquesquare_sparql::{BgpQuery, PatternTerm, Variable};
use std::collections::{BTreeSet, HashMap};

/// A binary join tree over pattern indices.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tree {
    Leaf(usize),
    Join(Box<Tree>, Box<Tree>),
}

/// A dynamic-programming entry for one connected sub-query.
#[derive(Debug, Clone)]
struct Entry {
    /// Sum of estimated intermediate-result cardinalities (`C_out`).
    cout: f64,
    /// Estimated cardinality of this sub-plan's result.
    cardinality: f64,
    /// Join height of this sub-plan (0 for a leaf).
    height: usize,
    tree: Tree,
}

/// Weight (in tuples) of one extra join level when ranking binary plans:
/// every additional level is another sequential MapReduce job, which the
/// Section 5.4 cost model charges on top of the per-tuple work. Without it
/// the planner would be indifferent between bushy and left-deep shapes of
/// equal `C_out`.
const LEVEL_PENALTY: f64 = 10_000.0;

impl Entry {
    fn ranking_cost(&self) -> f64 {
        self.cout + LEVEL_PENALTY * self.height as f64
    }
}

/// Enumerates binary plans for BGP queries over a given graph.
#[derive(Debug, Clone, Copy)]
pub struct BinaryPlanner<'a> {
    graph: &'a Graph,
}

impl<'a> BinaryPlanner<'a> {
    /// Creates a planner whose cardinality estimates come from `graph`.
    pub fn new(graph: &'a Graph) -> Self {
        Self { graph }
    }

    /// The cheapest binary **bushy** plan (any tree shape allowed).
    pub fn best_bushy(&self, query: &BgpQuery) -> Option<LogicalPlan> {
        self.best_plan(query, false)
    }

    /// The cheapest binary **linear** (left-deep) plan: every join's right
    /// input is a base triple pattern.
    pub fn best_linear(&self, query: &BgpQuery) -> Option<LogicalPlan> {
        self.best_plan(query, true)
    }

    /// Exact cardinality of one triple pattern in the graph.
    fn pattern_cardinality(&self, query: &BgpQuery, index: usize) -> f64 {
        let pattern = &query.patterns()[index];
        let resolve = |term: &PatternTerm| match term {
            PatternTerm::Variable(_) => Some(None),
            PatternTerm::Constant(t) => self.graph.lookup(t).map(Some),
        };
        match (
            resolve(&pattern.subject),
            resolve(&pattern.property),
            resolve(&pattern.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.graph.match_pattern(s, p, o).count() as f64,
            _ => 0.0, // a constant absent from the data matches nothing
        }
    }

    fn best_plan(&self, query: &BgpQuery, linear: bool) -> Option<LogicalPlan> {
        let n = query.len();
        if n == 0 || n > 20 {
            return None;
        }
        let pattern_vars: Vec<BTreeSet<Variable>> = query
            .patterns()
            .iter()
            .map(|p| p.variables().into_iter().collect())
            .collect();

        let mut dp: HashMap<u32, Entry> = HashMap::new();
        for index in 0..n {
            dp.insert(
                1 << index,
                Entry {
                    cout: 0.0,
                    cardinality: self.pattern_cardinality(query, index),
                    height: 0,
                    tree: Tree::Leaf(index),
                },
            );
        }

        let subset_vars = |mask: u32| -> BTreeSet<Variable> {
            (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .flat_map(|i| pattern_vars[i].iter().cloned())
                .collect()
        };

        let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let mut best: Option<Entry> = None;
            // Enumerate proper non-empty submasks as the left side.
            let mut left = (mask - 1) & mask;
            while left != 0 {
                let right = mask & !left;
                let valid_shape = !linear || right.count_ones() == 1;
                // Avoid enumerating each unordered pair twice for bushy plans
                // (left-deep plans are inherently ordered).
                let canonical = linear || left > right;
                if valid_shape && canonical {
                    if let (Some(l), Some(r)) = (dp.get(&left), dp.get(&right)) {
                        let shared: BTreeSet<Variable> = subset_vars(left)
                            .intersection(&subset_vars(right))
                            .cloned()
                            .collect();
                        if !shared.is_empty() {
                            let cardinality = join_estimate(l.cardinality, r.cardinality);
                            let candidate = Entry {
                                cout: l.cout + r.cout + cardinality,
                                cardinality,
                                height: l.height.max(r.height) + 1,
                                tree: Tree::Join(
                                    Box::new(l.tree.clone()),
                                    Box::new(r.tree.clone()),
                                ),
                            };
                            if best
                                .as_ref()
                                .is_none_or(|b| candidate.ranking_cost() < b.ranking_cost())
                            {
                                best = Some(candidate);
                            }
                        }
                    }
                }
                left = (left - 1) & mask;
            }
            if let Some(entry) = best {
                dp.insert(mask, entry);
            }
        }

        dp.get(&full)
            .map(|entry| self.tree_to_plan(query, &pattern_vars, &entry.tree))
    }

    /// Converts a binary join tree into a logical plan with a final
    /// projection on the query's distinguished variables.
    fn tree_to_plan(
        &self,
        query: &BgpQuery,
        pattern_vars: &[BTreeSet<Variable>],
        tree: &Tree,
    ) -> LogicalPlan {
        let mut ops: Vec<LogicalOp> = Vec::new();
        let root = build_ops(query, pattern_vars, tree, &mut ops);
        let variables = if query.distinguished().is_empty() {
            query.variables()
        } else {
            query.distinguished().to_vec()
        };
        ops.push(LogicalOp::Project {
            variables,
            input: root,
        });
        let root = OpId(ops.len() - 1);
        LogicalPlan::new(ops, root)
    }
}

/// Join cardinality under the independence assumption (matches the engine's
/// cost model).
fn join_estimate(left: f64, right: f64) -> f64 {
    let max = left.max(right).max(1.0);
    left * right / max
}

fn build_ops(
    query: &BgpQuery,
    pattern_vars: &[BTreeSet<Variable>],
    tree: &Tree,
    ops: &mut Vec<LogicalOp>,
) -> OpId {
    match tree {
        Tree::Leaf(index) => {
            ops.push(LogicalOp::Match {
                pattern_index: *index,
                pattern: query.patterns()[*index].clone(),
                output: pattern_vars[*index].clone(),
            });
            OpId(ops.len() - 1)
        }
        Tree::Join(left, right) => {
            let left_id = build_ops(query, pattern_vars, left, ops);
            let right_id = build_ops(query, pattern_vars, right, ops);
            let left_vars = ops[left_id.index()].output();
            let right_vars = ops[right_id.index()].output();
            let attributes: BTreeSet<Variable> =
                left_vars.intersection(&right_vars).cloned().collect();
            let output: BTreeSet<Variable> = left_vars.union(&right_vars).cloned().collect();
            ops.push(LogicalOp::Join {
                attributes,
                inputs: vec![left_id, right_id],
                output,
            });
            OpId(ops.len() - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_engine::reference::reference_count;
    use cliquesquare_engine::Executor;
    use cliquesquare_mapreduce::{Cluster, ClusterConfig};
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use cliquesquare_sparql::parser::parse_query;

    fn graph() -> Graph {
        LubmGenerator::new(LubmScale::tiny()).generate()
    }

    #[test]
    fn all_joins_are_binary() {
        let graph = graph();
        let planner = BinaryPlanner::new(&graph);
        let q = parse_query(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u . ?x ub:memberOf ?d }",
        )
        .unwrap();
        for plan in [
            planner.best_bushy(&q).unwrap(),
            planner.best_linear(&q).unwrap(),
        ] {
            assert_eq!(plan.join_count(), q.len() - 1);
            assert_eq!(plan.max_join_fanin(), 2);
        }
    }

    #[test]
    fn linear_plans_are_left_deep() {
        let graph = graph();
        let planner = BinaryPlanner::new(&graph);
        let q = parse_query(
            "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e }",
        )
        .unwrap();
        let plan = planner.best_linear(&q).unwrap();
        // A left-deep plan over n patterns has height n - 1.
        assert_eq!(plan.height(), q.len() - 1);
        // Every join has at least one Match input (its right side).
        for id in plan.join_ops() {
            let inputs = plan.op(id).inputs();
            assert!(inputs.iter().any(|i| plan.op(*i).is_match()));
        }
    }

    #[test]
    fn bushy_plans_are_never_taller_than_linear_ones() {
        let graph = graph();
        let planner = BinaryPlanner::new(&graph);
        for text in [
            "SELECT ?x WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u . ?x ub:memberOf ?d . ?d ub:subOrganizationOf ?u }",
            "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f }",
        ] {
            let q = parse_query(text).unwrap();
            let bushy = planner.best_bushy(&q).unwrap();
            let linear = planner.best_linear(&q).unwrap();
            assert!(bushy.height() <= linear.height());
        }
    }

    #[test]
    fn binary_plans_compute_correct_answers() {
        let graph = graph();
        let cluster = Cluster::load(graph.clone(), ClusterConfig::with_nodes(3));
        let planner = BinaryPlanner::new(cluster.graph());
        let q = parse_query(
            "SELECT ?x ?y ?z WHERE { ?x rdf:type ub:UndergraduateStudent . ?y rdf:type ub:FullProfessor . \
             ?z rdf:type ub:Course . ?x ub:advisor ?y . ?x ub:takesCourse ?z . ?y ub:teacherOf ?z }",
        )
        .unwrap();
        let expected = reference_count(cluster.graph(), &q);
        let executor = Executor::sequential(&cluster);
        for plan in [
            planner.best_bushy(&q).unwrap(),
            planner.best_linear(&q).unwrap(),
        ] {
            let output = executor.execute_logical(&plan);
            assert_eq!(output.distinct_count(), expected);
        }
        assert!(expected > 0);
    }

    #[test]
    fn single_pattern_query_needs_no_join() {
        let graph = graph();
        let planner = BinaryPlanner::new(&graph);
        let q = parse_query("SELECT ?x WHERE { ?x ub:worksFor ?d }").unwrap();
        let plan = planner.best_bushy(&q).unwrap();
        assert_eq!(plan.join_count(), 0);
        assert_eq!(plan.height(), 0);
    }

    #[test]
    fn disconnected_query_has_no_binary_plan() {
        let graph = graph();
        let planner = BinaryPlanner::new(&graph);
        let q = parse_query("SELECT ?a WHERE { ?a ub:p ?b . ?x ub:q ?y }").unwrap();
        assert!(planner.best_bushy(&q).is_none());
        assert!(planner.best_linear(&q).is_none());
    }

    #[test]
    fn selective_patterns_are_joined_early_in_linear_plans() {
        let graph = graph();
        let planner = BinaryPlanner::new(&graph);
        // rdf:type GraduateStudent is far more selective than memberOf.
        let q = parse_query(
            "SELECT ?x WHERE { ?x ub:memberOf ?d . ?x rdf:type ub:GraduateStudent . ?d ub:subOrganizationOf ?u }",
        )
        .unwrap();
        let plan = planner.best_linear(&q).unwrap();
        assert_eq!(plan.join_count(), 2);
    }
}
