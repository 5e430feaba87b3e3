//! Physical MapReduce operators and plans (Section 5.2), plus the ordering
//! properties attached to every operator by the interesting-orders pass
//! ([`crate::translate::interesting_orders`]): what ordering each operator's
//! consumer *requires* and what ordering the operator's output *delivers*.
//! The executor uses the delivered orders to skip re-sorts between
//! operators; a sort runs only where required and delivered disagree.

use cliquesquare_rdf::term::vocab;
use cliquesquare_rdf::{Graph, Term, TermId, TriplePosition};
use cliquesquare_sparql::{PatternTerm, TriplePattern, Variable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of an operator inside a [`PhysicalPlan`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhysId(pub usize);

impl PhysId {
    /// Returns the identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Sentinel id used for constants that do not occur in the dictionary: no
/// stored triple can carry it, so a scan restricted or sought by it matches
/// nothing.
pub const UNKNOWN_CONSTANT: TermId = TermId(u32::MAX);

/// What one Map Scan matches: the partition files it reads and the residual
/// constants it checks on the triples it reads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanSpec {
    /// Index of the triple pattern in the original query.
    pub pattern_index: usize,
    /// The triple pattern being matched.
    pub pattern: TriplePattern,
    /// The placement replica read, chosen so that the scan is co-located
    /// with the first-level join consuming it (the position of the join
    /// variable inside the pattern).
    pub placement: TriplePosition,
    /// Property file restriction (dictionary id of the constant property).
    pub property: Option<TermId>,
    /// `rdf:type` object file restriction (dictionary id of the class).
    pub type_object: Option<TermId>,
    /// The pattern's constants no file name consumed — a constant subject,
    /// then a constant object unless the class file took it. The first is
    /// sought in the replica placed by its position, the rest are checked
    /// triple by triple.
    pub residual: Vec<FilterCondition>,
}

impl ScanSpec {
    /// The scan of `pattern` on the `placement` replica, with every constant
    /// resolved against `graph`'s dictionary ([`UNKNOWN_CONSTANT`] when
    /// absent): a constant property names the property file, the object of
    /// an `rdf:type` pattern names the class file, and every other constant
    /// is a residual.
    pub fn new(
        pattern_index: usize,
        pattern: TriplePattern,
        placement: TriplePosition,
        graph: &Graph,
    ) -> Self {
        let resolve = |term: &PatternTerm| {
            let constant = term.as_constant()?;
            Some(graph.lookup(constant).unwrap_or(UNKNOWN_CONSTANT))
        };
        let property = resolve(&pattern.property);
        // Distinct terms have distinct ids: the property is `rdf:type`'s id
        // exactly when it is that IRI and the data holds it.
        let is_rdf_type = matches!(
            pattern.property.as_constant(),
            Some(Term::Iri(iri)) if iri == vocab::RDF_TYPE
        );
        let type_scan = is_rdf_type && property != Some(UNKNOWN_CONSTANT);
        let type_object = type_scan.then(|| resolve(&pattern.object)).flatten();
        let residual_terms = [
            (TriplePosition::Subject, &pattern.subject),
            (TriplePosition::Object, &pattern.object),
        ];
        let residual = (residual_terms.into_iter())
            .filter(|&(position, _)| !(type_scan && position == TriplePosition::Object))
            .filter_map(|(position, term)| {
                let constant = resolve(term)?;
                Some(FilterCondition { position, constant })
            })
            .collect();
        Self {
            pattern_index,
            pattern,
            placement,
            property,
            type_object,
            residual,
        }
    }
}

/// A residual constant of a scan: the triples it keeps hold `constant` at
/// `position`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterCondition {
    /// The triple position being constrained.
    pub position: TriplePosition,
    /// The constant the position must equal.
    pub constant: TermId,
}

/// A physical MapReduce operator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhysicalOp {
    /// `MS[FS]`: scans the HDFS partition files selected by the spec and
    /// keeps the triples holding its residual constants — the paper's
    /// MapScan with the Filter over it fused in.
    MapScan {
        /// What to scan.
        spec: ScanSpec,
        /// Output attributes.
        output: BTreeSet<Variable>,
    },
    /// `MJ_A`: a co-located (directed) join evaluated independently on every
    /// node, possible because its inputs are partitioned on `A`.
    MapJoin {
        /// Join attributes.
        attributes: BTreeSet<Variable>,
        /// Input operators.
        inputs: Vec<PhysId>,
        /// Output attributes.
        output: BTreeSet<Variable>,
    },
    /// `MF_A`: the repartition phase of a repartition join; shuffles its
    /// input on `A`.
    MapShuffler {
        /// Shuffle attributes.
        attributes: BTreeSet<Variable>,
        /// Input operator.
        input: PhysId,
        /// Output attributes.
        output: BTreeSet<Variable>,
    },
    /// `RJ_A`: the join phase of a repartition join; gathers its inputs by
    /// the values of `A` and joins them on each node.
    ReduceJoin {
        /// Join attributes.
        attributes: BTreeSet<Variable>,
        /// Input operators.
        inputs: Vec<PhysId>,
        /// Output attributes.
        output: BTreeSet<Variable>,
    },
    /// `π_A`: projection onto `A`.
    Project {
        /// Projected variables in output order.
        variables: Vec<Variable>,
        /// Input operator.
        input: PhysId,
    },
}

impl PhysicalOp {
    /// The operator's input ids.
    pub fn inputs(&self) -> Vec<PhysId> {
        match self {
            PhysicalOp::MapScan { .. } => Vec::new(),
            PhysicalOp::MapShuffler { input, .. } | PhysicalOp::Project { input, .. } => {
                vec![*input]
            }
            PhysicalOp::MapJoin { inputs, .. } | PhysicalOp::ReduceJoin { inputs, .. } => {
                inputs.clone()
            }
        }
    }

    /// The operator's output attributes.
    pub fn output(&self) -> BTreeSet<Variable> {
        match self {
            PhysicalOp::MapScan { output, .. }
            | PhysicalOp::MapJoin { output, .. }
            | PhysicalOp::MapShuffler { output, .. }
            | PhysicalOp::ReduceJoin { output, .. } => output.clone(),
            PhysicalOp::Project { variables, .. } => variables.iter().cloned().collect(),
        }
    }

    /// Short operator name for rendering.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::MapScan { .. } => "MapScan",
            PhysicalOp::MapJoin { .. } => "MapJoin",
            PhysicalOp::MapShuffler { .. } => "MapShuffler",
            PhysicalOp::ReduceJoin { .. } => "ReduceJoin",
            PhysicalOp::Project { .. } => "Project",
        }
    }

    /// Returns `true` for operators that run in the map phase of a job.
    pub fn is_map_side(&self) -> bool {
        !matches!(self, PhysicalOp::ReduceJoin { .. })
    }
}

/// The ordering properties of one operator's output, computed by the
/// interesting-orders pass ([`crate::translate::interesting_orders`]).
///
/// Orderings are variable sequences: rows sorted lexicographically by the
/// listed variables' columns, in sequence (the plan-level counterpart of the
/// relation layer's `SortOrder`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpOrdering {
    /// The ordering this operator's consumer wants its output in: the
    /// consuming join's attributes (so the join can merge without
    /// re-sorting) or the final projection's variable order (so the root
    /// canonicalization is free). Empty when no consumer cares.
    pub required: Vec<Variable>,
    /// The ordering this operator's output actually delivers: the required
    /// order when the operator has to (or can cheaply) produce it, or its
    /// natural order — index order for scans, join-key order for joins —
    /// when that already satisfies the requirement.
    pub delivered: Vec<Variable>,
}

impl OpOrdering {
    /// Returns `true` when the delivered order satisfies the requirement
    /// (the required variables are a prefix of the delivered sequence).
    pub fn is_satisfied(&self) -> bool {
        self.required.len() <= self.delivered.len()
            && self.delivered[..self.required.len()] == self.required[..]
    }
}

/// A physical plan: a rooted DAG of physical operators, each carrying the
/// ordering properties assigned by the interesting-orders pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalPlan {
    ops: Vec<PhysicalOp>,
    root: PhysId,
    /// Per-operator ordering properties, indexed like `ops`.
    orders: Vec<OpOrdering>,
    /// Joins whose output stays run-length factorized until the final
    /// projection boundary, indexed like `ops`
    /// (see [`crate::translate::factorized_joins`]).
    factorized: Vec<bool>,
}

impl PhysicalPlan {
    /// Creates a plan from an operator arena and root id, running the
    /// interesting-orders pass to attach ordering properties to every
    /// operator.
    ///
    /// # Panics
    ///
    /// Panics if any referenced operator id is out of bounds, or if the
    /// arena is not bottom-up (every input must have a smaller id than its
    /// consumer — the order the interesting-orders pass relies on, and what
    /// keeps the plan acyclic for the executor's post-order walk).
    pub fn new(ops: Vec<PhysicalOp>, root: PhysId) -> Self {
        assert!(root.index() < ops.len(), "root out of bounds");
        for (index, op) in ops.iter().enumerate() {
            for input in op.inputs() {
                assert!(
                    input.index() < index,
                    "arena not bottom-up: operator {index} consumes input {}",
                    input.index()
                );
            }
        }
        let orders = crate::translate::interesting_orders(&ops);
        let factorized = crate::translate::factorized_joins(&ops, root);
        Self {
            ops,
            root,
            orders,
            factorized,
        }
    }

    /// The root operator id.
    pub fn root(&self) -> PhysId {
        self.root
    }

    /// The ordering properties of the operator with the given id.
    pub fn ordering(&self, id: PhysId) -> &OpOrdering {
        &self.orders[id.index()]
    }

    /// Returns `true` when the join with the given id keeps its output in
    /// run-length factorized form (expanded only at the final projection).
    pub fn factorized(&self, id: PhysId) -> bool {
        self.factorized[id.index()]
    }

    /// Returns `true` when the operator with the given id is a *co-located*
    /// join: a MapJoin whose inputs are all scans. The scans of one MapJoin
    /// are placed by its join variable, so node `n`'s part of every input
    /// holds every row that can meet on node `n`; any other join — every
    /// ReduceJoin, and a MapJoin over anything but scans — must shuffle its
    /// inputs first. This is the one place the executor asks.
    pub fn co_located(&self, id: PhysId) -> bool {
        match self.op(id) {
            PhysicalOp::MapJoin { inputs, .. } => inputs
                .iter()
                .all(|&input| matches!(self.op(input), PhysicalOp::MapScan { .. })),
            _ => false,
        }
    }

    /// The operator with the given id.
    pub fn op(&self, id: PhysId) -> &PhysicalOp {
        &self.ops[id.index()]
    }

    /// All operators.
    pub fn ops(&self) -> &[PhysicalOp] {
        &self.ops
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ids of all operators of a given kind, in arena order.
    pub fn ops_where(&self, predicate: impl Fn(&PhysicalOp) -> bool) -> Vec<PhysId> {
        (0..self.ops.len())
            .map(PhysId)
            .filter(|id| predicate(self.op(*id)))
            .collect()
    }

    /// Number of reduce joins (shuffling joins) in the plan.
    pub fn reduce_join_count(&self) -> usize {
        self.ops_where(|op| matches!(op, PhysicalOp::ReduceJoin { .. }))
            .len()
    }

    /// Number of map joins (co-located joins) in the plan.
    pub fn map_join_count(&self) -> usize {
        self.ops_where(|op| matches!(op, PhysicalOp::MapJoin { .. }))
            .len()
    }

    /// Pretty-prints the plan as an indented operator tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(self.root, 0, &mut out);
        out
    }

    fn render_into(&self, id: PhysId, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let op = self.op(id);
        let attrs: Vec<String> = op.output().iter().map(ToString::to_string).collect();
        let ordering = self.ordering(id);
        let order_note = if ordering.delivered.is_empty() {
            String::new()
        } else {
            let delivered: Vec<String> =
                ordering.delivered.iter().map(ToString::to_string).collect();
            format!(" sorted[{}]", delivered.join(","))
        };
        match op {
            PhysicalOp::MapScan { spec, .. } => {
                out.push_str(&format!(
                    "{indent}MapScan t{} [{} placement, {}] -> ({}){}\n",
                    spec.pattern_index,
                    spec.placement,
                    spec.pattern,
                    attrs.join(","),
                    order_note
                ));
            }
            other => {
                out.push_str(&format!(
                    "{indent}{} -> ({}){}\n",
                    other.name(),
                    attrs.join(","),
                    order_note
                ));
                for input in other.inputs() {
                    self.render_into(input, depth + 1, out);
                }
            }
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(names: &[&str]) -> BTreeSet<Variable> {
        names.iter().map(|n| Variable::new(*n)).collect()
    }

    fn scan(idx: usize, placement: TriplePosition, out: &[&str]) -> PhysicalOp {
        PhysicalOp::MapScan {
            spec: ScanSpec {
                pattern_index: idx,
                pattern: TriplePattern::new(
                    PatternTerm::variable("s"),
                    PatternTerm::iri("p"),
                    PatternTerm::variable("o"),
                ),
                placement,
                property: Some(TermId(1)),
                type_object: None,
                residual: Vec::new(),
            },
            output: vars(out),
        }
    }

    fn sample_plan() -> PhysicalPlan {
        let ops = vec![
            scan(0, TriplePosition::Subject, &["s", "o"]),
            scan(1, TriplePosition::Subject, &["s", "q"]),
            PhysicalOp::MapJoin {
                attributes: vars(&["s"]),
                inputs: vec![PhysId(0), PhysId(1)],
                output: vars(&["s", "o", "q"]),
            },
            scan(2, TriplePosition::Object, &["o", "r"]),
            PhysicalOp::ReduceJoin {
                attributes: vars(&["o"]),
                inputs: vec![PhysId(2), PhysId(3)],
                output: vars(&["s", "o", "q", "r"]),
            },
            PhysicalOp::Project {
                variables: vec![Variable::new("s"), Variable::new("r")],
                input: PhysId(4),
            },
        ];
        PhysicalPlan::new(ops, PhysId(5))
    }

    #[test]
    fn op_kind_counts() {
        let plan = sample_plan();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.map_join_count(), 1);
        assert_eq!(plan.reduce_join_count(), 1);
        assert_eq!(
            plan.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. }))
                .len(),
            3
        );
    }

    #[test]
    fn map_side_classification() {
        let plan = sample_plan();
        assert!(plan.op(PhysId(0)).is_map_side());
        assert!(plan.op(PhysId(2)).is_map_side());
        assert!(!plan.op(PhysId(4)).is_map_side());
    }

    #[test]
    fn output_attributes_follow_operator_semantics() {
        let plan = sample_plan();
        assert_eq!(plan.op(plan.root()).output(), vars(&["s", "r"]));
        assert_eq!(plan.op(PhysId(2)).output(), vars(&["s", "o", "q"]));
    }

    #[test]
    fn render_mentions_scans_and_joins() {
        let text = sample_plan().render();
        assert!(text.contains("MapScan t0"));
        assert!(text.contains("MapJoin"));
        assert!(text.contains("ReduceJoin"));
        assert!(text.contains("Project"));
    }

    #[test]
    #[should_panic(expected = "root out of bounds")]
    fn invalid_root_panics() {
        let _ = PhysicalPlan::new(vec![], PhysId(0));
    }
}
