//! Conjunctive (BGP) queries.

use crate::pattern::{TriplePattern, Variable};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A Basic Graph Pattern query: `SELECT ?v1 … ?vm WHERE { t1 … tn }`.
///
/// Following the paper we consider queries without cartesian products: a
/// query whose variable graph is disconnected can be split into ×-free
/// subqueries with [`BgpQuery::connected_components`], processed separately,
/// and recombined at the end.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpQuery {
    name: String,
    distinguished: Vec<Variable>,
    patterns: Vec<TriplePattern>,
}

impl BgpQuery {
    /// Creates a query from its distinguished variables and triple patterns.
    pub fn new(distinguished: Vec<Variable>, patterns: Vec<TriplePattern>) -> Self {
        Self {
            name: String::new(),
            distinguished,
            patterns,
        }
    }

    /// Creates a named query (names label rows in benchmark reports).
    pub fn named(
        name: impl Into<String>,
        distinguished: Vec<Variable>,
        patterns: Vec<TriplePattern>,
    ) -> Self {
        Self {
            name: name.into(),
            distinguished,
            patterns,
        }
    }

    /// Returns the query name (possibly empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the query name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Returns the distinguished (projected) variables.
    pub fn distinguished(&self) -> &[Variable] {
        &self.distinguished
    }

    /// Returns the triple patterns.
    pub fn patterns(&self) -> &[TriplePattern] {
        &self.patterns
    }

    /// Returns the number of triple patterns (`#tps` in Figure 22).
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the query has no triple patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Returns all distinct variables of the query, in first occurrence order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for p in &self.patterns {
            for v in p.variables() {
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Returns the *join variables*: variables occurring in at least two
    /// distinct triple patterns (`#jv` in Figure 22).
    pub fn join_variables(&self) -> Vec<Variable> {
        let mut counts: BTreeMap<Variable, usize> = BTreeMap::new();
        for p in &self.patterns {
            for v in p.variables() {
                *counts.entry(v).or_default() += 1;
            }
        }
        self.variables()
            .into_iter()
            .filter(|v| counts.get(v).copied().unwrap_or(0) >= 2)
            .collect()
    }

    /// Returns, for each join variable, the indexes of the patterns using it.
    pub fn join_variable_occurrences(&self) -> BTreeMap<Variable, Vec<usize>> {
        let mut occ: BTreeMap<Variable, Vec<usize>> = BTreeMap::new();
        for (i, p) in self.patterns.iter().enumerate() {
            for v in p.variables() {
                occ.entry(v).or_default().push(i);
            }
        }
        occ.retain(|_, idxs| idxs.len() >= 2);
        occ
    }

    /// Returns `true` if the query's variable graph is connected (no
    /// cartesian product between its triple patterns). Counts components
    /// without building them: this runs on every served request.
    pub fn is_connected(&self) -> bool {
        self.component_ids().1 <= 1
    }

    /// Labels every pattern with the id of its connected component (ids
    /// follow the first pattern of each component) and counts the components.
    fn component_ids(&self) -> (Vec<usize>, usize) {
        let n = self.patterns.len();
        let mut component = vec![usize::MAX; n];
        let mut next = 0usize;
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = next;
            next += 1;
            let mut stack = vec![start];
            component[start] = id;
            while let Some(i) = stack.pop() {
                #[allow(clippy::needless_range_loop)]
                for j in 0..n {
                    if component[j] == usize::MAX
                        && share_a_variable(&self.patterns[i], &self.patterns[j])
                    {
                        component[j] = id;
                        stack.push(j);
                    }
                }
            }
        }
        (component, next)
    }

    /// Splits the query into connected (×-free) sub-queries.
    ///
    /// Each component keeps the distinguished variables it mentions.
    pub fn connected_components(&self) -> Vec<BgpQuery> {
        let (component, next) = self.component_ids();
        (0..next)
            .map(|id| {
                let patterns: Vec<_> = self
                    .patterns
                    .iter()
                    .zip(&component)
                    .filter(|(_, &c)| c == id)
                    .map(|(p, _)| p.clone())
                    .collect();
                let vars: BTreeSet<_> = patterns.iter().flat_map(|p| p.variables()).collect();
                let distinguished = self
                    .distinguished
                    .iter()
                    .filter(|v| vars.contains(*v))
                    .cloned()
                    .collect();
                BgpQuery::named(format!("{}#{id}", self.name), distinguished, patterns)
            })
            .collect()
    }
}

/// `true` if the two patterns mention a common variable.
fn share_a_variable(a: &TriplePattern, b: &TriplePattern) -> bool {
    a.terms()
        .into_iter()
        .filter_map(|term| term.as_variable())
        .any(|variable| b.mentions(variable))
}

impl fmt::Display for BgpQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT")?;
        for v in &self.distinguished {
            write!(f, " {v}")?;
        }
        writeln!(f, " WHERE {{")?;
        for p in &self.patterns {
            writeln!(f, "  {p} .")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternTerm;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let parse = |t: &str| {
            if let Some(name) = t.strip_prefix('?') {
                PatternTerm::variable(name)
            } else {
                PatternTerm::iri(t)
            }
        };
        TriplePattern::new(parse(s), parse(p), parse(o))
    }

    fn chain3() -> BgpQuery {
        BgpQuery::new(
            vec![Variable::new("a"), Variable::new("c")],
            vec![
                tp("?a", "p1", "?b"),
                tp("?b", "p2", "?c"),
                tp("?c", "p3", "?d"),
            ],
        )
    }

    #[test]
    fn variables_and_join_variables() {
        let q = chain3();
        assert_eq!(q.len(), 3);
        assert_eq!(q.variables().len(), 4);
        let jv = q.join_variables();
        assert_eq!(jv, vec![Variable::new("b"), Variable::new("c")]);
    }

    #[test]
    fn join_variable_occurrences() {
        let q = chain3();
        let occ = q.join_variable_occurrences();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[&Variable::new("b")], vec![0, 1]);
        assert_eq!(occ[&Variable::new("c")], vec![1, 2]);
    }

    #[test]
    fn connectivity() {
        let q = chain3();
        assert!(q.is_connected());
        let disconnected = BgpQuery::new(
            vec![Variable::new("a"), Variable::new("x")],
            vec![tp("?a", "p1", "?b"), tp("?x", "p2", "?y")],
        );
        assert!(!disconnected.is_connected());
        let comps = disconnected.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 1);
        assert_eq!(comps[0].distinguished(), &[Variable::new("a")]);
        assert_eq!(comps[1].distinguished(), &[Variable::new("x")]);
    }

    #[test]
    fn empty_query() {
        let q = BgpQuery::new(vec![], vec![]);
        assert!(q.is_empty());
        assert!(q.connected_components().is_empty());
        assert!(q.join_variables().is_empty());
    }

    #[test]
    fn display_round_trip_shape() {
        let q = chain3();
        let text = q.to_string();
        assert!(text.starts_with("SELECT ?a ?c WHERE {"));
        assert!(text.contains("?a <p1> ?b ."));
        assert!(text.ends_with('}'));
    }

    #[test]
    fn star_query_has_single_join_variable() {
        let q = BgpQuery::new(
            vec![Variable::new("x")],
            vec![
                tp("?x", "p1", "?a"),
                tp("?x", "p2", "?b"),
                tp("?x", "p3", "?c"),
            ],
        );
        assert_eq!(q.join_variables(), vec![Variable::new("x")]);
        assert!(q.is_connected());
    }
}
