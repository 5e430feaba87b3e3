//! Logical → physical plan translation (Section 5.2), plus the
//! interesting-orders pass attaching ordering properties to the plan.
//!
//! * Every *edge* out of a logical Match operator becomes its own MapScan
//!   ([`ScanSpec::new`]: the property and `rdf:type` class files its
//!   constants name, plus any residual subject/object constant it checks),
//!   reading the placement replica of the variable its consumer joins on, so
//!   that first-level joins are co-located.
//! * A logical Join whose inputs are all Match operators becomes a MapJoin;
//!   any other Join becomes a ReduceJoin, with a MapShuffler inserted on top
//!   of inputs that are themselves ReduceJoins (a reduce join cannot consume
//!   another reduce join's output directly).
//! * Project maps to the physical projection.
//! * [`interesting_orders`] (run by [`PhysicalPlan::new`]) propagates each
//!   consumer's *required* ordering down the plan and each operator's
//!   *delivered* ordering up, so the executor only sorts where the two
//!   disagree — the classic interesting-orders reasoning applied to the
//!   sort-merge execution stack.

use crate::physical::{OpOrdering, PhysId, PhysicalOp, PhysicalPlan, ScanSpec};
use cliquesquare_core::{LogicalOp, LogicalPlan, OpId};
use cliquesquare_rdf::{Graph, TriplePosition};
use cliquesquare_sparql::{PatternTerm, TriplePattern, Variable};
use std::collections::BTreeSet;
use std::ops::Range;

/// Picks the placement replica for a scan feeding a join on `attributes`:
/// the position (subject / property / object) of the placement variable
/// inside the pattern. The placement variable is the smallest join attribute,
/// so every input of the same join picks the same variable and the join is
/// co-located.
fn placement_for(pattern: &TriplePattern, attributes: &BTreeSet<Variable>) -> TriplePosition {
    let placement_var = attributes.iter().next();
    if let Some(var) = placement_var {
        for (term, position) in [
            (&pattern.subject, TriplePosition::Subject),
            (&pattern.property, TriplePosition::Property),
            (&pattern.object, TriplePosition::Object),
        ] {
            if term.as_variable() == Some(var) {
                return position;
            }
        }
    }
    TriplePosition::Subject
}

/// The variable sequences of one [`interesting_orders`] run: every
/// variable is interned once, as its index in `names`, and every order is a
/// range of ids in `seq`, so both sweeps compare and share small ids and an
/// order passed on is a range, not a copy.
#[derive(Default)]
struct Orders<'o> {
    names: Vec<&'o Variable>,
    seq: Vec<usize>,
}

impl<'o> Orders<'o> {
    /// The id of `variable`.
    fn id(&mut self, variable: &'o Variable) -> usize {
        match self.names.iter().position(|&name| name == variable) {
            Some(id) => id,
            None => {
                self.names.push(variable);
                self.names.len() - 1
            }
        }
    }

    /// Appends `variables` as a new order.
    fn push(&mut self, variables: impl IntoIterator<Item = &'o Variable>) -> Range<usize> {
        let start = self.seq.len();
        for variable in variables {
            let id = self.id(variable);
            self.seq.push(id);
        }
        start..self.seq.len()
    }

    /// The ids of `order`.
    fn get(&self, order: &Range<usize>) -> &[usize] {
        &self.seq[order.clone()]
    }

    /// The longest prefix of `order` whose variables all `keep` holds: the
    /// first dropped variable ends the claim (it broke ties in a way the
    /// narrower output can no longer observe).
    fn prefix(&self, order: &Range<usize>, keep: impl Fn(&Variable) -> bool) -> Range<usize> {
        let kept = (self.get(order).iter())
            .take_while(|&&id| keep(self.names[id]))
            .count();
        order.start..order.start + kept
    }

    /// `order` as variables.
    fn named(&self, order: &Range<usize>) -> Vec<Variable> {
        (self.get(order).iter())
            .map(|&id| self.names[id].clone())
            .collect()
    }

    /// The ordering a MapScan's output rows satisfy, appended as a new
    /// order.
    ///
    /// A scan's files ([`cliquesquare_mapreduce::PartitionedStore::scan_files`])
    /// deliver triples placement-major (`scan_order`: the placement
    /// position's value first, then subject, property, object), and the
    /// executor converts triples to binding rows in that order. Translated
    /// to columns: positions bound to constants are equal on every scanned
    /// row (the property file restriction, the `rdf:type` object file, and
    /// the scan's residual constants) and contribute nothing; a position
    /// repeating an already-listed variable is equal to it by the binder's
    /// repeated-variable check and is skipped; and a variable the output
    /// schema drops ends the claim — later positions only order rows
    /// *within* ties of the dropped value, which the output can no longer
    /// see.
    fn scan(&mut self, spec: &'o ScanSpec, output: &BTreeSet<Variable>) -> Range<usize> {
        let start = self.seq.len();
        for position in cliquesquare_mapreduce::scan_order(spec.placement) {
            let term = match position {
                TriplePosition::Subject => &spec.pattern.subject,
                TriplePosition::Property => &spec.pattern.property,
                TriplePosition::Object => &spec.pattern.object,
            };
            let PatternTerm::Variable(variable) = term else {
                continue;
            };
            let id = self.id(variable);
            if self.seq[start..].contains(&id) {
                continue;
            }
            if !output.contains(variable) {
                break;
            }
            self.seq.push(id);
        }
        start..self.seq.len()
    }
}

/// The **interesting-orders pass**: assigns every operator of a physical
/// plan arena its [`OpOrdering`] — the ordering its consumer requires and
/// the ordering its output delivers.
///
/// The pass runs in two sweeps over the bottom-up arena (inputs always
/// precede consumers):
///
/// 1. **Requirements, top-down** (descending ids): a join requires each of
///    its inputs ordered by its join attributes (so the sort-merge can
///    consume them without re-sorting), a projection requires its input
///    ordered by the projected variable sequence (so the final
///    canonicalization at the root is free), and a MapShuffler forwards its
///    own requirement to its input.
///    When an operator feeds several consumers (DAG plans), their claims are
///    *split* into prefix-compatible groups (`winning_claim`): each
///    consumer's requirement decomposes into the prefix the producer can
///    serve for the whole group plus a residual the consumer re-sorts
///    locally, and the group satisfying the most consumers wins (ties go to
///    the earliest claimant, which keeps tree-shaped plans byte-identical to
///    the historical first-claim-wins rule). Correctness never depends on
///    the choice because the executor consults the *actual* tracked order of
///    every relation.
/// 2. **Delivered orders, bottom-up** (ascending ids): scans deliver their
///    index order, joins deliver their natural key order when it satisfies
///    the requirement and otherwise sort their output into the required
///    order, shufflers forward their input's order, and projections keep
///    the longest delivered prefix whose variables survive the projection.
///
/// Both sweeps run over interned variable ids (`Orders`); the variables
/// are named again only in the returned orderings.
pub fn interesting_orders(ops: &[PhysicalOp]) -> Vec<OpOrdering> {
    let n = ops.len();
    let mut orders = Orders::default();

    // Every consumer claims an order of each of its inputs: the claims on
    // operator `i` are `claims[first[i]..first[i + 1]]`, filled in the
    // order the sweep makes them (descending consumer id).
    let mut first = vec![0usize; n + 1];
    for op in ops {
        for input in op.inputs() {
            first[input.index() + 1] += 1;
        }
    }
    for index in 0..n {
        first[index + 1] += first[index];
    }
    let mut filled = first.clone();
    let mut claims = vec![0..0; first[n]];

    // Sweep 1: requirements flow from consumers (higher ids) to inputs. An
    // operator's own requirement is final by the time the sweep reaches it
    // (all consumers have larger ids).
    let mut required = vec![0..0; n];
    let mut keys = vec![0..0; n];
    let mut groups = Vec::new();
    for index in (0..n).rev() {
        let own = &claims[first[index]..first[index + 1]];
        let winner = winning_claim(&orders.seq, own, &mut groups);
        required[index] = winner.map_or(0..0, |at| own[at].clone());
        let claim = match &ops[index] {
            PhysicalOp::Project { variables, .. } => orders.push(variables),
            PhysicalOp::MapShuffler { .. } => required[index].clone(),
            PhysicalOp::MapJoin { attributes, .. } | PhysicalOp::ReduceJoin { attributes, .. } => {
                keys[index] = orders.push(attributes);
                keys[index].clone()
            }
            PhysicalOp::MapScan { .. } => continue,
        };
        for input in ops[index].inputs() {
            claims[filled[input.index()]] = claim.clone();
            filled[input.index()] += 1;
        }
    }

    // Sweep 2: delivered orders flow from inputs to consumers.
    let mut delivered: Vec<Range<usize>> = Vec::with_capacity(n);
    for (index, op) in ops.iter().enumerate() {
        let order = match op {
            PhysicalOp::MapScan { spec, output } => orders.scan(spec, output),
            PhysicalOp::MapShuffler { input, output, .. } => {
                orders.prefix(&delivered[input.index()], |v| output.contains(v))
            }
            PhysicalOp::MapJoin { .. } | PhysicalOp::ReduceJoin { .. } => {
                let wanted = orders.get(&required[index]);
                match wanted.is_empty() || orders.get(&keys[index]).starts_with(wanted) {
                    true => keys[index].clone(),
                    false => required[index].clone(),
                }
            }
            PhysicalOp::Project { variables, input } => {
                orders.prefix(&delivered[input.index()], |v| variables.contains(v))
            }
        };
        delivered.push(order);
    }
    (required.iter().zip(&delivered))
        .map(|(required, delivered)| OpOrdering {
            required: orders.named(required),
            delivered: orders.named(delivered),
        })
        .collect()
}

/// Resolves the order claims of an operator's consumers — ranges of `seq`
/// — into the single ordering the operator should deliver: the index of
/// the claim that represents it, `None` when no claim is non-empty.
///
/// Claims are greedily grouped by *prefix compatibility* (two orders are
/// compatible when one is a prefix of the other; the group keeps the longer
/// one, which serves every member — each consumer that asked for the shorter
/// prefix still sees its requirement satisfied). The group with the most
/// claimants wins; ties go to the earliest-formed group, so an operator with
/// a single consumer — every tree-shaped plan — resolves exactly as the
/// historical first-claim-wins rule did. Consumers outside the winning group
/// re-sort locally, which the executor detects through the tracked order on
/// the relation itself. `groups` is scratch space: (representative claim,
/// claimant count) per group.
fn winning_claim<T: PartialEq>(
    seq: &[T],
    claims: &[Range<usize>],
    groups: &mut Vec<(usize, usize)>,
) -> Option<usize> {
    groups.clear();
    for (at, claim) in claims.iter().enumerate() {
        let claim = &seq[claim.clone()];
        if claim.is_empty() {
            continue;
        }
        let compatible = groups.iter_mut().find(|(order, _)| {
            let order = &seq[claims[*order].clone()];
            let shared = order.len().min(claim.len());
            order[..shared] == claim[..shared]
        });
        match compatible {
            Some((order, count)) => {
                if claim.len() > claims[*order].len() {
                    *order = at;
                }
                *count += 1;
            }
            None => groups.push((at, 1)),
        }
    }
    let mut best: Option<(usize, usize)> = None;
    for &(order, count) in groups.iter() {
        if best.is_none_or(|(_, most)| count > most) {
            best = Some((order, count));
        }
    }
    best.map(|(order, _)| order)
}

/// Marks the joins whose output may stay **run-length factorized** (see
/// [`crate::factorized`]) instead of materializing cross products eagerly.
/// A join qualifies when
///
/// 1. it has at least two inputs (a single-input join is the identity),
/// 2. its *only* consumer is the root Project, so the runs are expanded
///    exactly once, at the final projection boundary, and
/// 3. its inputs pairwise share **only** the join attributes: aligned key
///    groups then combine as pure cross products, with no cross-input
///    equality checks to filter combinations.
///
/// Everything else (joins feeding shufflers or other joins, inputs with
/// shared non-join variables) takes the eager row-major path unchanged.
pub(crate) fn factorized_joins(ops: &[PhysicalOp], root: PhysId) -> Vec<bool> {
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    for (index, op) in ops.iter().enumerate() {
        for input in op.inputs() {
            consumers[input.index()].push(index);
        }
    }
    let mut marked = vec![false; ops.len()];
    for (index, op) in ops.iter().enumerate() {
        let (attributes, inputs) = match op {
            PhysicalOp::MapJoin {
                attributes, inputs, ..
            }
            | PhysicalOp::ReduceJoin {
                attributes, inputs, ..
            } => (attributes, inputs),
            _ => continue,
        };
        if inputs.len() < 2 {
            continue;
        }
        let feeds_root_project = consumers[index] == [root.index()]
            && matches!(ops[root.index()], PhysicalOp::Project { .. });
        if !feeds_root_project {
            continue;
        }
        let outputs: Vec<BTreeSet<Variable>> =
            inputs.iter().map(|&i| ops[i.index()].output()).collect();
        let share_only_keys = outputs.iter().enumerate().all(|(i, a)| {
            outputs[i + 1..]
                .iter()
                .all(|b| a.intersection(b).all(|v| attributes.contains(v)))
        });
        marked[index] = share_only_keys;
    }
    marked
}

/// Translates a logical plan into a physical MapReduce plan. The returned
/// plan carries the ordering properties of [`interesting_orders`], which
/// [`crate::executor`] uses to elide redundant sorts.
pub fn translate(plan: &LogicalPlan, graph: &Graph) -> PhysicalPlan {
    let mut ops: Vec<PhysicalOp> = Vec::new();
    // Physical id of each translated non-Match logical operator.
    let mut translated: Vec<Option<PhysId>> = vec![None; plan.len()];

    // Resolves a logical input of `consumer_attributes`-joining operator,
    // creating a dedicated scan for Match inputs.
    fn resolve_input(
        plan: &LogicalPlan,
        graph: &Graph,
        ops: &mut Vec<PhysicalOp>,
        translated: &[Option<PhysId>],
        input: OpId,
        consumer_attributes: &BTreeSet<Variable>,
    ) -> PhysId {
        match plan.op(input) {
            LogicalOp::Match {
                pattern_index,
                pattern,
                output,
            } => {
                let placement = placement_for(pattern, consumer_attributes);
                ops.push(PhysicalOp::MapScan {
                    spec: ScanSpec::new(*pattern_index, pattern.clone(), placement, graph),
                    output: output.clone(),
                });
                PhysId(ops.len() - 1)
            }
            _ => translated[input.index()].expect("inputs are translated before consumers"),
        }
    }

    // The logical arena is bottom-up: inputs always precede consumers.
    for (index, op) in plan.ops().iter().enumerate() {
        let id = OpId(index);
        match op {
            LogicalOp::Match { .. } => {
                // Scans are created lazily, one per outgoing edge.
            }
            LogicalOp::Join {
                attributes,
                inputs,
                output,
            } => {
                let all_matches = inputs.iter().all(|i| plan.op(*i).is_match());
                let mut physical_inputs = Vec::with_capacity(inputs.len());
                for &input in inputs {
                    let mut phys =
                        resolve_input(plan, graph, &mut ops, &translated, input, attributes);
                    if !all_matches && matches!(ops[phys.index()], PhysicalOp::ReduceJoin { .. }) {
                        // A reduce join cannot directly consume another
                        // reduce join's output: repartition it first.
                        ops.push(PhysicalOp::MapShuffler {
                            attributes: attributes.clone(),
                            input: phys,
                            output: ops[phys.index()].output(),
                        });
                        phys = PhysId(ops.len() - 1);
                    }
                    physical_inputs.push(phys);
                }
                let join = if all_matches {
                    PhysicalOp::MapJoin {
                        attributes: attributes.clone(),
                        inputs: physical_inputs,
                        output: output.clone(),
                    }
                } else {
                    PhysicalOp::ReduceJoin {
                        attributes: attributes.clone(),
                        inputs: physical_inputs,
                        output: output.clone(),
                    }
                };
                ops.push(join);
                translated[id.index()] = Some(PhysId(ops.len() - 1));
            }
            LogicalOp::Project { variables, input } => {
                let attrs: BTreeSet<Variable> = variables.iter().cloned().collect();
                let phys = resolve_input(plan, graph, &mut ops, &translated, *input, &attrs);
                ops.push(PhysicalOp::Project {
                    variables: variables.clone(),
                    input: phys,
                });
                translated[id.index()] = Some(PhysId(ops.len() - 1));
            }
        }
    }

    let root = translated[plan.root().index()].expect("root translated");
    PhysicalPlan::new(ops, root)
}

/// Rebinds a cached physical plan to a structurally identical query with
/// (possibly) different constants — the warm path of the template plan
/// cache: the expensive decompose→optimize→translate pipeline ran once for
/// the template, and each repetition only re-resolves its constants.
///
/// The plan's variable names stay those of the template query it was built
/// from (answer rows depend only on pattern structure, constants and the
/// projection's position order, never on variable *names*). Constants live
/// only in the scans: each MapScan's pattern takes `query`'s constants at
/// its constant positions and is rebuilt with [`ScanSpec::new`] on its
/// cached placement, the constructor [`translate`] uses — so the file
/// restrictions and residual constants are exactly those a cold
/// translation of `query` resolves.
///
/// Returns `None` when `query` does not structurally match the plan (a
/// pattern index out of range, or a constant position that is not constant
/// in `query`) — callers fall back to full planning. A correctly keyed
/// cache never takes that path; it guards against key collisions.
pub fn rebind_constants(
    plan: &PhysicalPlan,
    query: &cliquesquare_sparql::BgpQuery,
    graph: &Graph,
) -> Option<PhysicalPlan> {
    let ops = (plan.ops().iter())
        .map(|op| {
            let PhysicalOp::MapScan { spec, output } = op else {
                return Some(op.clone());
            };
            let new_pattern = query.patterns().get(spec.pattern_index)?;
            let mut pattern = spec.pattern.clone();
            for (cached, new) in [
                (&mut pattern.subject, &new_pattern.subject),
                (&mut pattern.property, &new_pattern.property),
                (&mut pattern.object, &new_pattern.object),
            ] {
                if !cached.is_variable() {
                    *cached = PatternTerm::Constant(new.as_constant()?.clone());
                }
            }
            Some(PhysicalOp::MapScan {
                spec: ScanSpec::new(spec.pattern_index, pattern, spec.placement, graph),
                output: output.clone(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    // `PhysicalPlan::new` re-runs the interesting-orders and factorization
    // passes; both depend only on operator structure and variables, which
    // rebinding leaves untouched, so the rebuilt plan is the cached plan
    // with fresh constants.
    Some(PhysicalPlan::new(ops, plan.root()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::UNKNOWN_CONSTANT;
    use cliquesquare_core::{Optimizer, Variant};
    use cliquesquare_rdf::term::vocab;
    use cliquesquare_rdf::{LubmGenerator, LubmScale, Term};
    use cliquesquare_sparql::parser::parse_query;

    fn lubm_graph() -> Graph {
        LubmGenerator::new(LubmScale::tiny()).generate()
    }

    fn best_plan(query: &str, variant: Variant) -> LogicalPlan {
        let q = parse_query(query).unwrap();
        let result = Optimizer::with_variant(variant).optimize(&q);
        result
            .flattest_plans()
            .first()
            .map(|p| (*p).clone())
            .expect("plan found")
    }

    #[test]
    fn first_level_join_becomes_map_join() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        assert_eq!(physical.map_join_count(), 1);
        assert_eq!(physical.reduce_join_count(), 0);
        // Both scans read the object placement (the join variable d is in
        // object position of both patterns).
        let scans = physical.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. }));
        assert_eq!(scans.len(), 2);
        for id in scans {
            if let PhysicalOp::MapScan { spec, .. } = physical.op(id) {
                assert_eq!(spec.placement, TriplePosition::Object);
                assert!(spec.property.is_some());
            }
        }
    }

    #[test]
    fn type_patterns_use_type_split_files() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        let mut saw_type_scan = false;
        for id in physical.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. })) {
            if let PhysicalOp::MapScan { spec, .. } = physical.op(id) {
                if spec.type_object.is_some() {
                    saw_type_scan = true;
                    assert_ne!(spec.type_object, Some(UNKNOWN_CONSTANT));
                }
            }
        }
        assert!(
            saw_type_scan,
            "rdf:type pattern should narrow to a class file"
        );
    }

    #[test]
    fn second_level_joins_become_reduce_joins() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
            Variant::Msc,
        );
        assert_eq!(logical.height(), 2);
        let physical = translate(&logical, &graph);
        assert!(physical.reduce_join_count() >= 1);
        assert!(physical.map_join_count() >= 1);
    }

    #[test]
    fn reduce_join_over_reduce_join_gets_a_shuffler() {
        let graph = lubm_graph();
        // A long chain forces at least two stacked reduce joins under MXC
        // (binary-ish exact covers give taller plans).
        let logical = best_plan(
            "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f . ?f ub:p6 ?g }",
            Variant::Mxc,
        );
        let physical = translate(&logical, &graph);
        if logical.height() >= 3 {
            let shufflers = physical.ops_where(|op| matches!(op, PhysicalOp::MapShuffler { .. }));
            assert!(!shufflers.is_empty());
        }
    }

    #[test]
    fn constants_missing_from_data_map_to_the_sentinel() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?x WHERE { ?x ub:nonexistentProperty <http://nowhere.example> . ?x ub:worksFor ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        let mut saw_sentinel = false;
        for op in physical.ops() {
            if let PhysicalOp::MapScan { spec, .. } = op {
                if spec.property == Some(UNKNOWN_CONSTANT) {
                    saw_sentinel = true;
                }
            }
        }
        assert!(saw_sentinel);
    }

    #[test]
    fn shared_match_gets_one_scan_per_consumer() {
        let graph = lubm_graph();
        let q = parse_query("SELECT ?x WHERE { ?x ub:p1 ?y . ?y ub:p2 ?z . ?y ub:p3 ?w }").unwrap();
        // SC may build DAG plans where one pattern feeds two joins.
        let result = Optimizer::with_variant(Variant::Sc).optimize(&q);
        for logical in &result.plans {
            let physical = translate(logical, &graph);
            let scans = physical.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. }));
            // At least one scan per pattern; shared patterns may scan twice.
            assert!(scans.len() >= q.len());
            assert!(physical.ops().len() >= logical.len());
        }
    }

    /// Every scan's delivered order starts with its placement variable (when
    /// that variable is in the output): the store scans placement-major.
    #[test]
    fn scans_deliver_their_placement_variable_first() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        for id in physical.ops_where(|op| matches!(op, PhysicalOp::MapScan { .. })) {
            let PhysicalOp::MapScan { spec, output } = physical.op(id) else {
                unreachable!()
            };
            let ordering = physical.ordering(id);
            assert!(!ordering.delivered.is_empty(), "scan delivers an order");
            let placement_var = match spec.placement {
                TriplePosition::Subject => spec.pattern.subject.as_variable(),
                TriplePosition::Property => spec.pattern.property.as_variable(),
                TriplePosition::Object => spec.pattern.object.as_variable(),
            };
            if let Some(var) = placement_var {
                if output.contains(var) {
                    assert_eq!(&ordering.delivered[0], var);
                }
            }
        }
    }

    /// Joins require their inputs ordered by the join attributes, and the
    /// scans feeding a first-level join deliver exactly that prefix.
    #[test]
    fn join_inputs_are_required_in_key_order_and_scans_satisfy_it() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        let joins = physical.ops_where(|op| {
            matches!(
                op,
                PhysicalOp::MapJoin { .. } | PhysicalOp::ReduceJoin { .. }
            )
        });
        assert!(!joins.is_empty());
        for id in joins {
            let attrs: Vec<Variable> = match physical.op(id) {
                PhysicalOp::MapJoin { attributes, .. }
                | PhysicalOp::ReduceJoin { attributes, .. } => attributes.iter().cloned().collect(),
                _ => unreachable!(),
            };
            for &input in physical.op(id).inputs() {
                let ordering = physical.ordering(input);
                assert_eq!(
                    ordering.required, attrs,
                    "a join input must be required in the join's key order"
                );
                assert!(
                    ordering.is_satisfied(),
                    "a first-level scan input delivers the required prefix: {ordering:?}"
                );
            }
        }
    }

    /// A join below a projection delivers the projection's variable order
    /// (so the final canonicalization is free), unless its natural key order
    /// already satisfies it.
    #[test]
    fn the_projection_requirement_reaches_the_root_join() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        let PhysicalOp::Project { variables, input } = physical.op(physical.root()) else {
            panic!("root must be a projection");
        };
        // The requirement flows through shufflers down to the first
        // order-producing operator.
        let mut id = *input;
        loop {
            assert_eq!(&physical.ordering(id).required, variables);
            match physical.op(id) {
                PhysicalOp::MapShuffler { input, .. } => id = *input,
                _ => break,
            }
        }
        let delivered = &physical.ordering(id).delivered;
        assert!(
            delivered.len() >= variables.len() && delivered[..variables.len()] == variables[..],
            "the root join delivers the projection's order: {delivered:?} vs {variables:?}"
        );
        // The projection therefore delivers its own variables in order — the
        // plan-level statement that the final canonicalization is elided.
        assert_eq!(&physical.ordering(physical.root()).delivered, variables);
    }

    /// A shuffler forwards its consumer's requirement to the reduce join
    /// below it, which then delivers that order: the multi-job sort elision.
    #[test]
    fn stacked_reduce_joins_propagate_orders_through_the_shuffler() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?d . ?d ub:p4 ?e . ?e ub:p5 ?f . ?f ub:p6 ?g }",
            Variant::Mxc,
        );
        let physical = translate(&logical, &graph);
        let shufflers = physical.ops_where(|op| matches!(op, PhysicalOp::MapShuffler { .. }));
        if shufflers.is_empty() {
            return; // this optimizer variant found a flatter plan
        }
        for id in shufflers {
            let PhysicalOp::MapShuffler { input, .. } = physical.op(id) else {
                unreachable!()
            };
            let own = physical.ordering(id);
            let below = physical.ordering(*input);
            assert_eq!(own.required, below.required, "requirement passes through");
            assert!(
                below.is_satisfied(),
                "the reduce join below the shuffler adopts (or naturally \
                 satisfies) the requirement: {below:?}"
            );
            assert!(
                own.is_satisfied(),
                "the shuffler forwards a satisfied order"
            );
        }
    }

    /// The pass on a hand-built arena: requirements flow top-down, delivered
    /// orders bottom-up, and an unconstrained join keeps its natural order.
    #[test]
    fn interesting_orders_on_a_hand_built_arena() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        let orders = interesting_orders(physical.ops());
        assert_eq!(orders.len(), physical.len());
        for (index, ordering) in orders.iter().enumerate() {
            assert_eq!(physical.ordering(PhysId(index)), ordering);
            // Delivered orders never repeat a variable.
            for (i, v) in ordering.delivered.iter().enumerate() {
                assert!(!ordering.delivered[..i].contains(v));
            }
        }
    }

    #[test]
    fn project_is_preserved_at_the_root() {
        let graph = lubm_graph();
        let logical = best_plan(
            "SELECT ?p WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }",
            Variant::Msc,
        );
        let physical = translate(&logical, &graph);
        assert!(matches!(
            physical.op(physical.root()),
            PhysicalOp::Project { .. }
        ));
    }

    /// [`winning_claim`] over `claims`, as variables.
    fn resolve_claims(claims: &[Vec<Variable>]) -> Vec<Variable> {
        let seq: Vec<&Variable> = claims.iter().flatten().collect();
        let mut ranges = Vec::new();
        for claim in claims {
            let start = ranges.last().map_or(0, |range: &Range<usize>| range.end);
            ranges.push(start..start + claim.len());
        }
        let winner = winning_claim(&seq, &ranges, &mut Vec::new());
        winner.map_or_else(Vec::new, |at| claims[at].clone())
    }

    /// [`winning_claim`] groups prefix-compatible orders, keeps the longest
    /// representative, lets the largest group win, and breaks ties toward
    /// the earliest claimant (the historical first-claim-wins behaviour).
    #[test]
    fn resolve_claims_prefers_the_largest_prefix_compatible_group() {
        let v = |name: &str| Variable::new(name);
        // Single claim: returned as-is.
        assert_eq!(resolve_claims(&[vec![v("a")]]), vec![v("a")]);
        // Empty claim set (or all-empty claims): no requirement.
        assert!(resolve_claims(&[]).is_empty());
        assert!(resolve_claims(&[vec![], vec![]]).is_empty());
        // Prefix-compatible claims merge and keep the longest order.
        assert_eq!(
            resolve_claims(&[vec![v("a")], vec![v("a"), v("b")]]),
            vec![v("a"), v("b")]
        );
        // Two claimants of [a]-prefixed orders beat one claimant of [c].
        assert_eq!(
            resolve_claims(&[vec![v("c")], vec![v("a"), v("b")], vec![v("a")]]),
            vec![v("a"), v("b")]
        );
        // A tie goes to the earliest claimant.
        assert_eq!(resolve_claims(&[vec![v("x")], vec![v("y")]]), vec![v("x")]);
        // Incompatible at the first column → separate groups even if the
        // tails agree.
        assert_eq!(
            resolve_claims(&[vec![v("x"), v("k")], vec![v("y"), v("k")]]),
            vec![v("x"), v("k")]
        );
    }

    #[test]
    fn rebind_to_the_same_query_reproduces_the_plan() {
        let graph = lubm_graph();
        let query = parse_query(
            "SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d . ?x ub:advisor ?a }",
        )
        .unwrap();
        let logical = Optimizer::with_variant(Variant::Msc)
            .optimize(&query)
            .flattest_plans()
            .first()
            .map(|p| (*p).clone())
            .expect("plan found");
        let physical = translate(&logical, &graph);
        let rebound = rebind_constants(&physical, &query, &graph).expect("same query rebinds");
        assert_eq!(rebound, physical);
    }

    /// A rebound plan is the plan a cold translation builds for the new
    /// constants, and answers alike, for every kind of constant a template
    /// holds: the class of an `rdf:type` pattern, a residual subject, a
    /// residual object, the property, and a constant absent from the data.
    #[test]
    fn rebind_swaps_constants_and_matches_cold_planning_answers() {
        use crate::executor::Executor;
        use cliquesquare_mapreduce::{Cluster, ClusterConfig};

        let graph = lubm_graph();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(2));
        let plan_for = |q: &cliquesquare_sparql::BgpQuery| {
            let logical = Optimizer::with_variant(Variant::Msc)
                .optimize(q)
                .flattest_plans()
                .first()
                .map(|p| (*p).clone())
                .expect("plan found");
            translate(&logical, cluster.graph())
        };
        let executor = Executor::sequential(&cluster);
        let university = "<http://www.University0.edu>";
        let department = "<http://www.Department0.University0.edu>";
        let professor = "<http://www.Department0.University0.edu/FullProfessor0>";
        // (template, repeat, the repeat has answers): same shape, other
        // constants.
        let cases = [
            (
                "SELECT ?x ?d WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }"
                    .to_string(),
                "SELECT ?x ?d WHERE { ?x rdf:type ub:UndergraduateStudent . ?x ub:memberOf ?d }"
                    .to_string(),
                true,
            ),
            (
                "SELECT ?d ?s WHERE { <http://www.Department1.University0.edu/FullProfessor0> ub:worksFor ?d . ?s ub:memberOf ?d }"
                    .to_string(),
                format!("SELECT ?d ?s WHERE {{ {professor} ub:worksFor ?d . ?s ub:memberOf ?d }}"),
                true,
            ),
            (
                "SELECT ?x ?d WHERE { ?x ub:memberOf <http://www.Department1.University0.edu> . ?x ub:advisor ?d }"
                    .to_string(),
                format!("SELECT ?x ?d WHERE {{ ?x ub:memberOf {department} . ?x ub:advisor ?d }}"),
                true,
            ),
            (
                "SELECT ?x ?d WHERE { ?x ub:worksFor ?d . ?d ub:subOrganizationOf ?u }".to_string(),
                "SELECT ?x ?d WHERE { ?x ub:memberOf ?d . ?d ub:subOrganizationOf ?u }".to_string(),
                true,
            ),
            (
                format!("SELECT ?x WHERE {{ ?x ub:memberOf ?d . ?d ub:subOrganizationOf {university} }}"),
                "SELECT ?x WHERE { ?x ub:memberOf ?d . ?d ub:subOrganizationOf <http://nowhere.example> }"
                    .to_string(),
                false,
            ),
        ];
        for (template, repeat, answered) in &cases {
            let template = parse_query(template).unwrap();
            let repeat = parse_query(repeat).unwrap();
            let cached = plan_for(&template);
            let rebound =
                rebind_constants(&cached, &repeat, cluster.graph()).expect("template rebinds");
            let cold = plan_for(&repeat);
            assert_eq!(rebound, cold, "rebinding {template} to {repeat}");
            let warm = executor.execute(&rebound);
            assert_eq!(warm.results, executor.execute(&cold).results);
            assert_eq!(!warm.results.is_empty(), *answered, "{repeat}");
        }
        // The type split follows the new class constant.
        let new_class = cluster
            .graph()
            .lookup(&Term::iri(vocab::ub("UndergraduateStudent")));
        let rebound = rebind_constants(
            &plan_for(&parse_query(&cases[0].0).unwrap()),
            &parse_query(&cases[0].1).unwrap(),
            cluster.graph(),
        )
        .unwrap();
        assert!(new_class.is_some());
        assert!(rebound.ops().iter().any(|op| matches!(
            op,
            PhysicalOp::MapScan { spec, .. } if spec.type_object == new_class
        )));
        // The absent constant resolves to the sentinel, as a residual.
        let absent = plan_for(&parse_query(&cases[4].1).unwrap());
        assert!(absent.ops().iter().any(|op| matches!(
            op,
            PhysicalOp::MapScan { spec, .. }
                if spec.residual.iter().any(|c| c.constant == UNKNOWN_CONSTANT)
        )));
    }

    #[test]
    fn rebind_rejects_structurally_different_queries() {
        let graph = lubm_graph();
        let template =
            parse_query("SELECT ?x WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }")
                .unwrap();
        // Constant position became a variable: not the same template.
        let other = parse_query("SELECT ?x WHERE { ?x rdf:type ?c . ?x ub:memberOf ?d }").unwrap();
        let logical = Optimizer::with_variant(Variant::Msc)
            .optimize(&template)
            .flattest_plans()
            .first()
            .map(|p| (*p).clone())
            .expect("plan found");
        let physical = translate(&logical, &graph);
        assert!(rebind_constants(&physical, &other, &graph).is_none());
    }
}
