//! Triple patterns: the atoms of Basic Graph Pattern queries.

use cliquesquare_rdf::{ntriples, Term};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A SPARQL variable, e.g. `?x`. The stored name excludes the leading `?`.
///
/// The name is shared, not owned: a clone is a reference-count bump, so the
/// variable sets that planning copies at every layer (variable graphs, plan
/// operators, interesting orders, distinct-count maps, relation schemas)
/// never copy a string. Equality, ordering and hashing are those of the name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Variable(Arc<str>);

impl Variable {
    /// Creates a variable from its name (without the `?` sigil).
    pub fn new(name: impl Into<String>) -> Self {
        Variable(Arc::from(name.into()))
    }

    /// Returns the variable's name without the `?` sigil.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl From<&str> for Variable {
    fn from(s: &str) -> Self {
        Variable::new(s.trim_start_matches('?'))
    }
}

/// A term of a triple pattern: either a variable or an RDF constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PatternTerm {
    /// A variable to be bound by query evaluation.
    Variable(Variable),
    /// A constant IRI or literal that must match exactly.
    Constant(Term),
}

impl PatternTerm {
    /// Creates a variable pattern term.
    pub fn variable(name: impl Into<String>) -> Self {
        PatternTerm::Variable(Variable::new(name))
    }

    /// Creates a constant IRI pattern term.
    pub fn iri(value: impl Into<String>) -> Self {
        PatternTerm::Constant(Term::iri(value))
    }

    /// Creates a constant literal pattern term.
    pub fn literal(value: impl Into<String>) -> Self {
        PatternTerm::Constant(Term::literal(value))
    }

    /// Returns the variable if the term is one.
    pub fn as_variable(&self) -> Option<&Variable> {
        match self {
            PatternTerm::Variable(v) => Some(v),
            PatternTerm::Constant(_) => None,
        }
    }

    /// Returns the constant if the term is one.
    pub fn as_constant(&self) -> Option<&Term> {
        match self {
            PatternTerm::Variable(_) => None,
            PatternTerm::Constant(t) => Some(t),
        }
    }

    /// Returns `true` if the term is a variable.
    pub fn is_variable(&self) -> bool {
        matches!(self, PatternTerm::Variable(_))
    }
}

impl fmt::Display for PatternTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternTerm::Variable(v) => write!(f, "{v}"),
            // Escaped, so the text of a query re-parses to the same literal.
            PatternTerm::Constant(Term::Literal(text)) => {
                write!(f, "\"{}\"", ntriples::escape_literal(text))
            }
            PatternTerm::Constant(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern `(s p o)` where each position is a variable or constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TriplePattern {
    /// The subject position.
    pub subject: PatternTerm,
    /// The property position.
    pub property: PatternTerm,
    /// The object position.
    pub object: PatternTerm,
}

impl TriplePattern {
    /// Creates a triple pattern from its three positions.
    pub fn new(subject: PatternTerm, property: PatternTerm, object: PatternTerm) -> Self {
        Self {
            subject,
            property,
            object,
        }
    }

    /// Returns the three positions in `s, p, o` order.
    pub fn terms(&self) -> [&PatternTerm; 3] {
        [&self.subject, &self.property, &self.object]
    }

    /// Returns the distinct variables occurring in the pattern, in first
    /// occurrence order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut vars = Vec::new();
        for term in self.terms() {
            if let Some(v) = term.as_variable() {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
        vars
    }

    /// Returns `true` if the pattern mentions `variable`.
    pub fn mentions(&self, variable: &Variable) -> bool {
        self.terms()
            .iter()
            .any(|t| t.as_variable() == Some(variable))
    }

    /// Returns the variables shared between `self` and `other`.
    pub fn shared_variables(&self, other: &TriplePattern) -> Vec<Variable> {
        self.variables()
            .into_iter()
            .filter(|v| other.mentions(v))
            .collect()
    }

    /// Number of constant positions (a crude selectivity indicator).
    pub fn constant_count(&self) -> usize {
        self.terms().iter().filter(|t| !t.is_variable()).count()
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.subject, self.property, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let parse = |t: &str| {
            if let Some(name) = t.strip_prefix('?') {
                PatternTerm::variable(name)
            } else if let Some(lit) = t.strip_prefix('"') {
                PatternTerm::literal(lit.trim_end_matches('"'))
            } else {
                PatternTerm::iri(t)
            }
        };
        TriplePattern::new(parse(s), parse(p), parse(o))
    }

    #[test]
    fn variable_display_and_from() {
        assert_eq!(Variable::new("x").to_string(), "?x");
        assert_eq!(Variable::from("?y"), Variable::new("y"));
        assert_eq!(Variable::from("z").name(), "z");
    }

    #[test]
    fn pattern_term_accessors() {
        let v = PatternTerm::variable("a");
        let c = PatternTerm::iri("http://x");
        assert!(v.is_variable());
        assert!(!c.is_variable());
        assert_eq!(v.as_variable().unwrap().name(), "a");
        assert!(v.as_constant().is_none());
        assert!(c.as_variable().is_none());
        assert_eq!(c.as_constant().unwrap().value(), "http://x");
    }

    #[test]
    fn triple_pattern_variables_deduplicated_in_order() {
        let p = tp("?a", "?a", "?b");
        assert_eq!(p.variables(), vec![Variable::new("a"), Variable::new("b")]);
        assert_eq!(p.constant_count(), 0);
    }

    #[test]
    fn shared_variables() {
        let p1 = tp("?a", "p1", "?b");
        let p2 = tp("?b", "p2", "?c");
        let p3 = tp("?x", "p3", "?y");
        assert_eq!(p1.shared_variables(&p2), vec![Variable::new("b")]);
        assert!(p1.shared_variables(&p3).is_empty());
        assert!(p1.mentions(&Variable::new("a")));
        assert!(!p1.mentions(&Variable::new("c")));
    }

    #[test]
    fn constant_count_and_display() {
        let p = tp("?a", "p", "\"C1\"");
        assert_eq!(p.constant_count(), 2);
        assert_eq!(p.to_string(), "?a <p> \"C1\"");
    }
}
