//! Logical CliqueSquare operators and plans (Section 4.1).

use cliquesquare_sparql::{TriplePattern, Variable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of an operator inside a [`LogicalPlan`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub usize);

impl OpId {
    /// Returns the identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A logical operator of a CliqueSquare plan.
///
/// The paper defines four operators: Match, (n-ary) Join, Select and Project.
/// In the BGP fragment every selection comes from a constant in a triple
/// pattern and is folded into that pattern's Match (joins enforce every
/// other equality), so no Select operator is built.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogicalOp {
    /// `M_tp`: outputs the relation of triples matching triple pattern `tp`.
    Match {
        /// Index of the pattern in the original query.
        pattern_index: usize,
        /// The triple pattern itself.
        pattern: TriplePattern,
        /// Output attributes (the pattern's variables).
        output: BTreeSet<Variable>,
    },
    /// `J_A(op_1 … op_m)`: n-ary equality join of its inputs on the common
    /// attribute set `A`.
    Join {
        /// The join attributes `A` (variables shared by all inputs).
        attributes: BTreeSet<Variable>,
        /// Input operators.
        inputs: Vec<OpId>,
        /// Output attributes (union of the inputs' attributes).
        output: BTreeSet<Variable>,
    },
    /// `π_A(op)`: projects the input onto the attribute list `A`.
    Project {
        /// Projected variables, in output order.
        variables: Vec<Variable>,
        /// Input operator.
        input: OpId,
    },
}

/// Hashes the operator's *shape*: its kind, a Match's pattern index, the
/// input ids of the others. Equal operators hash alike, as `Hash` requires;
/// the patterns' IRIs and the variable sets are left to `==`, because among
/// the candidate plans of one query — what the cost model hashes to skip
/// exact duplicates — they follow from the shape, and hashing them costs
/// more than pricing saves.
impl Hash for LogicalOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            LogicalOp::Match { pattern_index, .. } => pattern_index.hash(state),
            LogicalOp::Join { inputs, .. } => inputs.hash(state),
            LogicalOp::Project { input, .. } => input.hash(state),
        }
    }
}

impl LogicalOp {
    /// The operator's input operator ids (empty for Match).
    pub fn inputs(&self) -> &[OpId] {
        match self {
            LogicalOp::Match { .. } => &[],
            LogicalOp::Join { inputs, .. } => inputs,
            LogicalOp::Project { input, .. } => std::slice::from_ref(input),
        }
    }

    /// The operator's output attributes.
    pub fn output(&self) -> BTreeSet<Variable> {
        match self {
            LogicalOp::Match { output, .. } | LogicalOp::Join { output, .. } => output.clone(),
            LogicalOp::Project { variables, .. } => variables.iter().cloned().collect(),
        }
    }

    /// Returns `true` if the operator is a join.
    pub fn is_join(&self) -> bool {
        matches!(self, LogicalOp::Join { .. })
    }

    /// Returns `true` if the operator is a match (leaf).
    pub fn is_match(&self) -> bool {
        matches!(self, LogicalOp::Match { .. })
    }
}

/// A logical query plan: a rooted DAG of [`LogicalOp`]s stored in an arena.
///
/// Plans built from exact covers are trees; plans built from simple covers
/// may share sub-plans (DAG shape), e.g. when a selective intermediate result
/// feeds two different joins.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogicalPlan {
    ops: Vec<LogicalOp>,
    root: OpId,
}

impl LogicalPlan {
    /// Creates a plan from an operator arena and its root. The arena is
    /// bottom-up: every operator's inputs precede it, which is what lets
    /// [`height`](Self::height) and the engine's translation walk it once in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the root is out of bounds or an input id is not below its
    /// consumer's.
    pub fn new(ops: Vec<LogicalOp>, root: OpId) -> Self {
        assert!(root.index() < ops.len(), "root out of bounds");
        for (index, op) in ops.iter().enumerate() {
            for input in op.inputs() {
                assert!(input.index() < index, "input out of bounds");
            }
        }
        Self { ops, root }
    }

    /// Returns the plan's root operator id.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// Returns the operator with the given id.
    pub fn op(&self, id: OpId) -> &LogicalOp {
        &self.ops[id.index()]
    }

    /// Returns all operators in the arena.
    pub fn ops(&self) -> &[LogicalOp] {
        &self.ops
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the plan has no operators (never constructed).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Returns the ids of the Match (leaf) operators.
    pub fn match_ops(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .map(OpId)
            .filter(|id| self.op(*id).is_match())
            .collect()
    }

    /// Returns the ids of the Join operators.
    pub fn join_ops(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .map(OpId)
            .filter(|id| self.op(*id).is_join())
            .collect()
    }

    /// Number of join operators in the plan.
    pub fn join_count(&self) -> usize {
        self.join_ops().len()
    }

    /// The plan's **height**: the largest number of join operators on a
    /// root-to-leaf path (Section 4.4). Flat plans have small height.
    pub fn height(&self) -> usize {
        // One pass over the bottom-up arena: every input's height is known
        // by the time its consumer is reached.
        let mut heights = vec![0usize; self.ops.len()];
        for (index, op) in self.ops.iter().enumerate() {
            heights[index] = match op {
                LogicalOp::Match { .. } => 0,
                LogicalOp::Join { inputs, .. } => {
                    1 + inputs.iter().map(|i| heights[i.index()]).max().unwrap_or(0)
                }
                LogicalOp::Project { input, .. } => heights[input.index()],
            };
        }
        heights[self.root.index()]
    }

    /// The maximum fan-in (number of join inputs) over all joins in the plan.
    pub fn max_join_fanin(&self) -> usize {
        self.join_ops()
            .into_iter()
            .map(|id| self.op(id).inputs().len())
            .max()
            .unwrap_or(0)
    }

    /// The output variables of the plan's root.
    pub fn output_variables(&self) -> Vec<Variable> {
        match self.op(self.root) {
            LogicalOp::Project { variables, .. } => variables.clone(),
            other => other.output().into_iter().collect(),
        }
    }

    /// Returns `true` if the plan is a tree (no operator feeds two parents).
    pub fn is_tree(&self) -> bool {
        let mut indegree = vec![0usize; self.ops.len()];
        for op in &self.ops {
            for input in op.inputs() {
                indegree[input.index()] += 1;
            }
        }
        indegree.iter().all(|&d| d <= 1)
    }

    /// A canonical structural signature of the plan, used to deduplicate
    /// plans and to define the similarity classes `P∼(q)` of Section 4.3
    /// (projections are ignored, join inputs are unordered).
    pub fn signature(&self) -> String {
        let mut memo = vec![None; self.ops.len()];
        self.signature_of(self.root, &mut memo)
    }

    fn signature_of(&self, id: OpId, memo: &mut Vec<Option<String>>) -> String {
        if let Some(sig) = &memo[id.index()] {
            return sig.clone();
        }
        let sig = match self.op(id) {
            LogicalOp::Match { pattern_index, .. } => format!("M{pattern_index}"),
            LogicalOp::Join {
                attributes, inputs, ..
            } => {
                let mut child_sigs: Vec<String> =
                    inputs.iter().map(|c| self.signature_of(*c, memo)).collect();
                child_sigs.sort();
                child_sigs.dedup();
                let attrs: Vec<String> = attributes.iter().map(|v| v.name().to_string()).collect();
                format!("J[{}]({})", attrs.join(","), child_sigs.join("|"))
            }
            LogicalOp::Project { input, .. } => {
                // π does not participate in the similarity classes.
                self.signature_of(*input, memo)
            }
        };
        memo[id.index()] = Some(sig.clone());
        sig
    }

    /// Pretty-prints the plan as an indented operator tree (sub-plans that
    /// are shared in a DAG are printed once per reference).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(self.root, 0, &mut out);
        out
    }

    fn render_into(&self, id: OpId, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        match self.op(id) {
            LogicalOp::Match {
                pattern_index,
                pattern,
                ..
            } => {
                out.push_str(&format!("{indent}Match t{pattern_index}: {pattern}\n"));
            }
            LogicalOp::Join {
                attributes,
                inputs,
                output,
            } => {
                let attrs: Vec<String> = attributes.iter().map(ToString::to_string).collect();
                let outs: Vec<String> = output.iter().map(ToString::to_string).collect();
                out.push_str(&format!(
                    "{indent}Join on [{}] -> ({})\n",
                    attrs.join(","),
                    outs.join(",")
                ));
                for input in inputs {
                    self.render_into(*input, depth + 1, out);
                }
            }
            LogicalOp::Project { variables, input } => {
                let vars: Vec<String> = variables.iter().map(ToString::to_string).collect();
                out.push_str(&format!("{indent}Project [{}]\n", vars.join(",")));
                self.render_into(*input, depth + 1, out);
            }
        }
    }
}

/// Receives a plan's operators bottom-up, in arena order: what
/// [`Leaf::walk`](crate::Leaf::walk) reports of a path of variable graphs,
/// and what [`LogicalPlan::walk`] reports of a built plan. Each operator is
/// reported once, after its inputs, and the sink answers with its own
/// handle on it. [`build_plan`](crate::optimizer::build_plan) runs the walk
/// into a sink that pushes [`LogicalOp`]s; the engine's cost model prices a
/// candidate from the same reports without building it.
pub trait PlanSink {
    /// The sink's handle on an operator it was told of.
    type Op: Copy;

    /// A Match of the query's pattern `pattern_index`, whose variables are
    /// `output`.
    fn matched(
        &mut self,
        pattern_index: usize,
        pattern: &TriplePattern,
        output: &BTreeSet<Variable>,
    ) -> Self::Op;

    /// A Join of `inputs` (distinct, in order) whose output is `output`;
    /// `attributes` makes its join attributes, on request.
    fn join(
        &mut self,
        inputs: &[Self::Op],
        attributes: impl FnOnce() -> BTreeSet<Variable>,
        output: &BTreeSet<Variable>,
    ) -> Self::Op;

    /// A Project of `input` onto `variables`.
    fn project(&mut self, input: Self::Op, variables: &[Variable]) -> Self::Op;
}

impl LogicalPlan {
    /// Reports every operator of the arena to `sink`, in order, and returns
    /// the sink's handle on the root.
    pub fn walk<S: PlanSink>(&self, sink: &mut S) -> S::Op {
        let mut handles: Vec<S::Op> = Vec::with_capacity(self.ops.len());
        let mut inputs = Vec::new();
        for op in &self.ops {
            let handle = match op {
                LogicalOp::Match {
                    pattern_index,
                    pattern,
                    output,
                } => sink.matched(*pattern_index, pattern, output),
                LogicalOp::Join {
                    attributes,
                    inputs: ids,
                    output,
                } => {
                    inputs.clear();
                    inputs.extend(ids.iter().map(|id| handles[id.index()]));
                    sink.join(&inputs, || attributes.clone(), output)
                }
                LogicalOp::Project { variables, input } => {
                    sink.project(handles[input.index()], variables)
                }
            };
            handles.push(handle);
        }
        handles[self.root.index()]
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_sparql::PatternTerm;

    fn vars(names: &[&str]) -> BTreeSet<Variable> {
        names.iter().map(|n| Variable::new(*n)).collect()
    }

    fn pattern(s: &str, o: &str) -> TriplePattern {
        TriplePattern::new(
            PatternTerm::variable(s),
            PatternTerm::iri("p"),
            PatternTerm::variable(o),
        )
    }

    /// Builds the plan π(J_y(J_x(M0, M1), M2)) for a 3-pattern chain.
    fn chain_plan() -> LogicalPlan {
        let ops = vec![
            LogicalOp::Match {
                pattern_index: 0,
                pattern: pattern("a", "x"),
                output: vars(&["a", "x"]),
            },
            LogicalOp::Match {
                pattern_index: 1,
                pattern: pattern("x", "y"),
                output: vars(&["x", "y"]),
            },
            LogicalOp::Match {
                pattern_index: 2,
                pattern: pattern("y", "b"),
                output: vars(&["y", "b"]),
            },
            LogicalOp::Join {
                attributes: vars(&["x"]),
                inputs: vec![OpId(0), OpId(1)],
                output: vars(&["a", "x", "y"]),
            },
            LogicalOp::Join {
                attributes: vars(&["y"]),
                inputs: vec![OpId(3), OpId(2)],
                output: vars(&["a", "x", "y", "b"]),
            },
            LogicalOp::Project {
                variables: vec![Variable::new("a"), Variable::new("b")],
                input: OpId(4),
            },
        ];
        LogicalPlan::new(ops, OpId(5))
    }

    #[test]
    fn height_and_counts() {
        let plan = chain_plan();
        assert_eq!(plan.height(), 2);
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.match_ops().len(), 3);
        assert_eq!(plan.max_join_fanin(), 2);
        assert!(plan.is_tree());
        assert_eq!(
            plan.output_variables(),
            vec![Variable::new("a"), Variable::new("b")]
        );
    }

    #[test]
    fn flat_plan_has_height_one() {
        let ops = vec![
            LogicalOp::Match {
                pattern_index: 0,
                pattern: pattern("x", "a"),
                output: vars(&["x", "a"]),
            },
            LogicalOp::Match {
                pattern_index: 1,
                pattern: pattern("x", "b"),
                output: vars(&["x", "b"]),
            },
            LogicalOp::Match {
                pattern_index: 2,
                pattern: pattern("x", "c"),
                output: vars(&["x", "c"]),
            },
            LogicalOp::Join {
                attributes: vars(&["x"]),
                inputs: vec![OpId(0), OpId(1), OpId(2)],
                output: vars(&["x", "a", "b", "c"]),
            },
        ];
        let plan = LogicalPlan::new(ops, OpId(3));
        assert_eq!(plan.height(), 1);
        assert_eq!(plan.max_join_fanin(), 3);
    }

    #[test]
    fn signature_ignores_input_order_and_projection() {
        let plan_a = chain_plan();
        // Same plan with swapped join input order and no projection.
        let ops = vec![
            LogicalOp::Match {
                pattern_index: 0,
                pattern: pattern("a", "x"),
                output: vars(&["a", "x"]),
            },
            LogicalOp::Match {
                pattern_index: 1,
                pattern: pattern("x", "y"),
                output: vars(&["x", "y"]),
            },
            LogicalOp::Match {
                pattern_index: 2,
                pattern: pattern("y", "b"),
                output: vars(&["y", "b"]),
            },
            LogicalOp::Join {
                attributes: vars(&["x"]),
                inputs: vec![OpId(1), OpId(0)],
                output: vars(&["a", "x", "y"]),
            },
            LogicalOp::Join {
                attributes: vars(&["y"]),
                inputs: vec![OpId(2), OpId(3)],
                output: vars(&["a", "x", "y", "b"]),
            },
        ];
        let plan_b = LogicalPlan::new(ops, OpId(4));
        assert_eq!(plan_a.signature(), plan_b.signature());
    }

    #[test]
    fn dag_plan_detected() {
        // One match feeds two joins (simple-cover style sharing).
        let ops = vec![
            LogicalOp::Match {
                pattern_index: 0,
                pattern: pattern("x", "a"),
                output: vars(&["x", "a"]),
            },
            LogicalOp::Match {
                pattern_index: 1,
                pattern: pattern("x", "y"),
                output: vars(&["x", "y"]),
            },
            LogicalOp::Match {
                pattern_index: 2,
                pattern: pattern("y", "b"),
                output: vars(&["y", "b"]),
            },
            LogicalOp::Join {
                attributes: vars(&["x"]),
                inputs: vec![OpId(0), OpId(1)],
                output: vars(&["x", "a", "y"]),
            },
            LogicalOp::Join {
                attributes: vars(&["y"]),
                inputs: vec![OpId(1), OpId(2)],
                output: vars(&["x", "y", "b"]),
            },
            LogicalOp::Join {
                attributes: vars(&["x", "y"]),
                inputs: vec![OpId(3), OpId(4)],
                output: vars(&["x", "a", "y", "b"]),
            },
        ];
        let plan = LogicalPlan::new(ops, OpId(5));
        assert!(!plan.is_tree());
        assert_eq!(plan.height(), 2);
    }

    #[test]
    fn render_contains_operators() {
        let text = chain_plan().render();
        assert!(text.contains("Project"));
        assert!(text.contains("Join on"));
        assert!(text.contains("Match t0"));
        assert_eq!(text, chain_plan().to_string());
    }

    #[test]
    #[should_panic(expected = "input out of bounds")]
    fn out_of_bounds_input_panics() {
        let ops = vec![LogicalOp::Project {
            variables: vec![Variable::new("a")],
            input: OpId(7),
        }];
        let _ = LogicalPlan::new(ops, OpId(0));
    }
}
