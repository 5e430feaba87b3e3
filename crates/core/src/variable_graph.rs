//! Variable (multi)graphs — the query representation of Section 3.1.

use cliquesquare_sparql::{BgpQuery, Variable};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A node of a [`VariableGraph`].
///
/// A node corresponds to a set of triple patterns of the original query that
/// have already been joined on their common variables (Definition 3.1). In
/// the initial graph each node holds exactly one triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphNode {
    /// Indices of the query's triple patterns covered by this node.
    pub patterns: BTreeSet<usize>,
    /// Variables exposed by this node (union of its patterns' variables).
    pub variables: BTreeSet<Variable>,
    /// Indices of the nodes of the *previous* variable graph this node was
    /// built from by clique reduction. Empty for the initial graph.
    pub derived_from: BTreeSet<usize>,
}

impl GraphNode {
    /// Creates a node covering a single triple pattern.
    pub fn leaf(pattern_index: usize, variables: BTreeSet<Variable>) -> Self {
        Self {
            patterns: BTreeSet::from([pattern_index]),
            variables,
            derived_from: BTreeSet::new(),
        }
    }

    /// Returns `true` if the node shares `variable` with another node's
    /// variable set.
    pub fn mentions(&self, variable: &Variable) -> bool {
        self.variables.contains(variable)
    }
}

/// A variable multigraph `(N, E, V)`: nodes are sets of triple patterns,
/// and there is an edge labelled `v` between two nodes iff both mention the
/// variable `v` (Definition 3.1).
///
/// Edges are not materialized: they are fully determined by the nodes'
/// variable sets, and all algorithms only need per-variable incidence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariableGraph {
    nodes: Vec<GraphNode>,
}

impl VariableGraph {
    /// Builds the initial variable graph of a query: one node per triple
    /// pattern.
    pub fn from_query(query: &BgpQuery) -> Self {
        let nodes = query
            .patterns()
            .iter()
            .enumerate()
            .map(|(i, p)| GraphNode::leaf(i, p.variables().into_iter().collect()))
            .collect();
        Self { nodes }
    }

    /// Builds a graph directly from nodes (used by clique reduction).
    pub fn from_nodes(nodes: Vec<GraphNode>) -> Self {
        Self { nodes }
    }

    /// Returns the nodes of the graph.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Returns the number of nodes `|N|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the *join variables* of the graph: variables mentioned by at
    /// least two distinct nodes (each such variable labels at least one edge).
    pub fn join_variables(&self) -> Vec<Variable> {
        self.variable_incidence()
            .into_iter()
            .filter(|(_, nodes)| nodes.len() >= 2)
            .map(|(v, _)| v)
            .collect()
    }

    /// Returns, for every variable, the set of node indices mentioning it.
    pub fn variable_incidence(&self) -> BTreeMap<Variable, BTreeSet<usize>> {
        let mut incidence: BTreeMap<Variable, BTreeSet<usize>> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for v in &node.variables {
                incidence.entry(v.clone()).or_default().insert(i);
            }
        }
        incidence
    }

    /// Returns the *maximal variable clique* of `variable`: all nodes
    /// incident to an edge labelled with it (Definition 3.2), or `None` if
    /// the variable labels no edge (fewer than two nodes mention it).
    pub fn maximal_clique(&self, variable: &Variable) -> Option<BTreeSet<usize>> {
        let nodes: BTreeSet<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.mentions(variable))
            .map(|(i, _)| i)
            .collect();
        (nodes.len() >= 2).then_some(nodes)
    }

    /// Returns all maximal cliques, keyed by their variable.
    pub fn maximal_cliques(&self) -> BTreeMap<Variable, BTreeSet<usize>> {
        self.variable_incidence()
            .into_iter()
            .filter(|(_, nodes)| nodes.len() >= 2)
            .collect()
    }

    /// Returns the labelled edges of the graph as `(node, variable, node)`
    /// triples with `node1 < node2`. Mostly useful for inspection and tests.
    pub fn edges(&self) -> Vec<(usize, Variable, usize)> {
        let mut edges = Vec::new();
        for (v, nodes) in self.maximal_cliques() {
            let nodes: Vec<usize> = nodes.into_iter().collect();
            for i in 0..nodes.len() {
                for j in i + 1..nodes.len() {
                    edges.push((nodes[i], v.clone(), nodes[j]));
                }
            }
        }
        edges
    }

    /// Returns `true` if the graph is connected (ignoring isolated single
    /// node graphs, which are trivially connected).
    pub fn is_connected(&self) -> bool {
        if self.nodes.len() <= 1 {
            return true;
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        visited[0] = true;
        let incidence = self.variable_incidence();
        while let Some(i) = stack.pop() {
            for v in &self.nodes[i].variables {
                if let Some(peers) = incidence.get(v) {
                    for &j in peers {
                        if !visited[j] {
                            visited[j] = true;
                            stack.push(j);
                        }
                    }
                }
            }
        }
        visited.into_iter().all(|v| v)
    }

    /// Returns the variables shared by **all** of the given nodes.
    ///
    /// For a clique generated from variable `v` this always contains `v`;
    /// it is the attribute set `A` of the n-ary join the clique induces.
    pub fn common_variables(&self, nodes: &BTreeSet<usize>) -> BTreeSet<Variable> {
        let mut iter = nodes.iter();
        let Some(&first) = iter.next() else {
            return BTreeSet::new();
        };
        (self.nodes[first].variables.iter())
            .filter(|variable| {
                (iter.clone()).all(|&other| self.nodes[other].variables.contains(*variable))
            })
            .cloned()
            .collect()
    }
}

impl fmt::Display for VariableGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, node) in self.nodes.iter().enumerate() {
            let patterns: Vec<String> = node.patterns.iter().map(|p| format!("t{p}")).collect();
            let vars: Vec<String> = node.variables.iter().map(|v| v.to_string()).collect();
            writeln!(
                f,
                "N{i}: [{}] vars {{{}}}",
                patterns.join(", "),
                vars.join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_sparql::parser::parse_query;

    /// The paper's running example query Q1 (Figure 1), using generic
    /// property names p1..p11.
    pub(crate) fn paper_q1() -> BgpQuery {
        parse_query(
            "SELECT ?a ?b WHERE {
                ?a ub:p1 ?b .
                ?a ub:p2 ?c .
                ?d ub:p3 ?a .
                ?d ub:p4 ?e .
                ?l ub:p5 ?d .
                ?f ub:p6 ?d .
                ?f ub:p7 ?g .
                ?g ub:p8 ?h .
                ?g ub:p9 ?i .
                ?i ub:p10 ?j .
                ?j ub:p11 \"C1\" }",
        )
        .unwrap()
    }

    #[test]
    fn initial_graph_has_one_node_per_pattern() {
        let q = paper_q1();
        let g = VariableGraph::from_query(&q);
        assert_eq!(g.len(), 11);
        for (i, node) in g.nodes().iter().enumerate() {
            assert_eq!(node.patterns, BTreeSet::from([i]));
            assert!(node.derived_from.is_empty());
        }
    }

    #[test]
    fn maximal_cliques_of_paper_q1() {
        let q = paper_q1();
        let g = VariableGraph::from_query(&q);
        // The maximal clique of d is {t3, t4, t5, t6} (0-based: {2,3,4,5}).
        let cd = g.maximal_clique(&Variable::new("d")).unwrap();
        assert_eq!(cd, BTreeSet::from([2, 3, 4, 5]));
        let ca = g.maximal_clique(&Variable::new("a")).unwrap();
        assert_eq!(ca, BTreeSet::from([0, 1, 2]));
        // b appears in a single pattern: no edge, no maximal clique.
        assert!(g.maximal_clique(&Variable::new("b")).is_none());
        // The join variables of Q1 are a, d, f, g, i, j.
        let jv: Vec<String> = g
            .join_variables()
            .iter()
            .map(|v| v.name().to_string())
            .collect();
        assert_eq!(jv, vec!["a", "d", "f", "g", "i", "j"]);
    }

    #[test]
    fn connectivity() {
        let q = paper_q1();
        let g = VariableGraph::from_query(&q);
        assert!(g.is_connected());

        let disconnected = parse_query("SELECT ?a WHERE { ?a ub:p ?b . ?x ub:q ?y }").unwrap();
        assert!(!VariableGraph::from_query(&disconnected).is_connected());
    }

    #[test]
    fn common_variables_of_clique() {
        let q = paper_q1();
        let g = VariableGraph::from_query(&q);
        let clique = BTreeSet::from([2, 3, 4, 5]);
        let common = g.common_variables(&clique);
        assert_eq!(common, BTreeSet::from([Variable::new("d")]));
        assert!(g.common_variables(&BTreeSet::new()).is_empty());
    }

    #[test]
    fn edges_are_symmetric_and_labelled() {
        let q = parse_query("SELECT ?a WHERE { ?a ub:p1 ?b . ?b ub:p2 ?c . ?c ub:p3 ?a }").unwrap();
        let g = VariableGraph::from_query(&q);
        let edges = g.edges();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|(i, _, j)| i < j));
    }

    #[test]
    fn single_node_graph() {
        let q = parse_query("SELECT ?a WHERE { ?a ub:p1 ?b }").unwrap();
        let g = VariableGraph::from_query(&q);
        assert_eq!(g.len(), 1);
        assert!(g.is_connected());
        assert!(g.join_variables().is_empty());
        assert!(g.maximal_cliques().is_empty());
    }
}
