//! In-memory RDF graph: a dictionary plus a triple list.

use crate::dictionary::Dictionary;
use crate::term::{Term, TermId};
use crate::triple::{Triple, TriplePosition};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Triple offsets by the term id at one position.
type PositionIndex = HashMap<TermId, Vec<usize>>;

/// A dictionary-encoded, in-memory RDF graph.
///
/// The graph is its dictionary plus its triple list. The three positional
/// indexes (by subject, by property, by object) are derived: each is built
/// on its first read through [`index_of`](Self::index_of) or
/// [`match_pattern`](Self::match_pattern) and dropped by any insertion, so
/// a graph that is only partitioned never builds one. This is the "local
/// store" view of the data; queries are served from the partitioned
/// placement built by `cliquesquare-mapreduce`.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Graph {
    dictionary: Dictionary,
    triples: Vec<Triple>,
    /// One lazily built index per position, in [`TriplePosition::ALL`]
    /// order.
    #[serde(skip)]
    indexes: [OnceLock<PositionIndex>; 3],
}

/// Graphs are equal when their dictionaries and triples are: the indexes
/// are derived from those, whether built yet or not.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.dictionary == other.dictionary && self.triples == other.triples
    }
}

impl Eq for Graph {}

/// A graph is a sink for term triples: each is encoded and inserted
/// through [`Graph::insert_terms`], in arrival order.
impl Extend<(Term, Term, Term)> for Graph {
    fn extend<I: IntoIterator<Item = (Term, Term, Term)>>(&mut self, triples: I) {
        for (subject, property, object) in triples {
            self.insert_terms(subject, property, object);
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph from an already-encoded triple list and the dictionary
    /// that encoded it: the bulk-load constructor. Inserting the same
    /// terms one by one through [`insert_terms`](Self::insert_terms) yields
    /// an equal graph. Panics if a triple references an id outside the
    /// dictionary.
    pub fn from_parts(dictionary: Dictionary, triples: Vec<Triple>) -> Self {
        let terms = dictionary.len() as u32;
        assert!(
            triples
                .iter()
                .all(|t| t.as_array().iter().all(|id| id.0 < terms)),
            "triple references an id outside the dictionary"
        );
        Self {
            dictionary,
            triples,
            indexes: Default::default(),
        }
    }

    /// Returns the number of triples in the graph.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Returns `true` if the graph contains no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Returns a reference to the graph's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Returns the full triple list.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Encodes a term through the graph's dictionary.
    pub fn encode(&mut self, term: Term) -> TermId {
        self.dictionary.encode(term)
    }

    /// Looks up a term's id without inserting it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.dictionary.lookup(term)
    }

    /// Decodes a term id.
    pub fn decode(&self, id: TermId) -> Option<&Term> {
        self.dictionary.decode(id)
    }

    /// Encodes the three terms and inserts the resulting triple. With
    /// [`from_parts`](Self::from_parts) the only way in, so every id of a
    /// graph's triples is one of its dictionary's.
    pub fn insert_terms(&mut self, subject: Term, property: Term, object: Term) -> Triple {
        let triple = Triple::new(
            self.dictionary.encode(subject),
            self.dictionary.encode(property),
            self.dictionary.encode(object),
        );
        self.triples.push(triple);
        self.indexes = Default::default();
        triple
    }

    /// The index slice (triple positions into [`triples`](Self::triples))
    /// for a component value, empty when the value never occurs there. The
    /// first read of a position builds that position's index.
    pub fn index_of(&self, position: TriplePosition, value: TermId) -> &[usize] {
        self.index(position)
            .get(&value)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The positional index of `position`, built on first read: each term
    /// id occurring there maps to the ascending offsets of its triples.
    fn index(&self, position: TriplePosition) -> &PositionIndex {
        self.indexes[position as usize].get_or_init(|| {
            let mut index = PositionIndex::new();
            for (offset, triple) in self.triples.iter().enumerate() {
                index.entry(triple.get(position)).or_default().push(offset);
            }
            index
        })
    }

    /// Iterates over the triples matching an optional pattern on each
    /// position.
    ///
    /// `None` matches anything; `Some(id)` requires equality. This is the
    /// basic access path used by the simulated Match operators. The scan is
    /// driven by the *smallest* index among the constrained positions (full
    /// triple list when no position is constrained), and the remaining
    /// constraints are checked on the fly — no intermediate vector is
    /// allocated.
    pub fn match_pattern(
        &self,
        subject: Option<TermId>,
        property: Option<TermId>,
        object: Option<TermId>,
    ) -> impl Iterator<Item = Triple> + '_ {
        // Pick the most selective available index to drive the scan.
        let mut driver: Option<&[usize]> = None;
        for (constant, position) in [
            (subject, TriplePosition::Subject),
            (property, TriplePosition::Property),
            (object, TriplePosition::Object),
        ] {
            if let Some(id) = constant {
                let ids = self.index_of(position, id);
                if driver.is_none_or(|best| ids.len() < best.len()) {
                    driver = Some(ids);
                }
            }
        }
        let candidates: Box<dyn Iterator<Item = &Triple> + '_> = match driver {
            Some(ids) => Box::new(ids.iter().map(move |&i| &self.triples[i])),
            None => Box::new(self.triples.iter()),
        };
        candidates
            .filter(move |t| subject.is_none_or(|s| t.subject == s))
            .filter(move |t| property.is_none_or(|p| t.property == p))
            .filter(move |t| object.is_none_or(|o| t.object == o))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.insert_terms(Term::iri("a"), Term::iri("p1"), Term::iri("b"));
        g.insert_terms(Term::iri("a"), Term::iri("p2"), Term::iri("c"));
        g.insert_terms(Term::iri("d"), Term::iri("p1"), Term::iri("a"));
        g.insert_terms(Term::iri("d"), Term::iri("p2"), Term::literal("x"));
        g
    }

    #[test]
    fn insert_and_len() {
        let g = sample_graph();
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn positional_lookup() {
        let g = sample_graph();
        let a = g.lookup(&Term::iri("a")).unwrap();
        let p1 = g.lookup(&Term::iri("p1")).unwrap();
        assert_eq!(g.match_pattern(Some(a), None, None).count(), 2);
        assert_eq!(g.match_pattern(None, Some(p1), None).count(), 2);
        assert_eq!(g.match_pattern(None, None, Some(a)).count(), 1);
        assert_eq!(g.index_of(TriplePosition::Subject, a), [0, 1]);
        assert_eq!(g.index_of(TriplePosition::Object, a), [2]);
    }

    #[test]
    fn match_pattern_combinations() {
        let g = sample_graph();
        let a = g.lookup(&Term::iri("a")).unwrap();
        let p2 = g.lookup(&Term::iri("p2")).unwrap();
        assert_eq!(g.match_pattern(None, None, None).count(), 4);
        assert_eq!(g.match_pattern(Some(a), None, None).count(), 2);
        assert_eq!(g.match_pattern(Some(a), Some(p2), None).count(), 1);
        assert_eq!(g.match_pattern(Some(a), Some(p2), Some(a)).count(), 0);
    }

    #[test]
    fn match_pattern_unknown_ids_yield_nothing() {
        let g = sample_graph();
        assert_eq!(g.match_pattern(Some(TermId(999)), None, None).count(), 0);
        assert!(g.index_of(TriplePosition::Property, TermId(999)).is_empty());
    }

    #[test]
    fn stats_and_cardinalities() {
        let g = sample_graph();
        let distinct = |position| {
            let values: HashSet<TermId> = g.triples().iter().map(|t| t.get(position)).collect();
            values
        };
        assert_eq!(distinct(TriplePosition::Subject).len(), 2);
        assert_eq!(distinct(TriplePosition::Property).len(), 2);
        assert_eq!(distinct(TriplePosition::Object).len(), 4);
        let cards: Vec<usize> = distinct(TriplePosition::Property)
            .into_iter()
            .map(|p| g.index_of(TriplePosition::Property, p).len())
            .collect();
        assert_eq!(cards, [2, 2]);
    }

    #[test]
    fn insertion_drops_the_indexes_it_invalidates() {
        let mut g = sample_graph();
        let a = g.lookup(&Term::iri("a")).unwrap();
        assert_eq!(g.index_of(TriplePosition::Subject, a).len(), 2);
        let added = g.insert_terms(Term::iri("a"), Term::iri("p3"), Term::iri("e"));
        assert_eq!(g.index_of(TriplePosition::Subject, a), [0, 1, 4]);
        assert_eq!(
            g.match_pattern(None, Some(added.property), None)
                .collect::<Vec<_>>(),
            [added]
        );
    }

    #[test]
    fn equality_ignores_which_indexes_were_read() {
        let g = sample_graph();
        let clone = g.clone();
        assert_eq!(g, clone);
        let a = g.lookup(&Term::iri("a")).unwrap();
        assert_eq!(g.match_pattern(Some(a), None, None).count(), 2);
        assert_eq!(g, clone);
        assert_eq!(clone, g.clone());
    }

    #[test]
    fn from_parts_matches_incremental_insertion() {
        let incremental = sample_graph();
        let rebuilt = Graph::from_parts(
            incremental.dictionary().clone(),
            incremental.triples().to_vec(),
        );
        assert_eq!(rebuilt, incremental);
        for position in TriplePosition::ALL {
            for triple in incremental.triples() {
                let value = triple.get(position);
                assert_eq!(
                    rebuilt.index_of(position, value),
                    incremental.index_of(position, value)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the dictionary")]
    fn from_parts_rejects_dangling_ids() {
        let g = sample_graph();
        let mut triples = g.triples().to_vec();
        triples.push(Triple::new(TermId(0), TermId(999), TermId(0)));
        Graph::from_parts(g.dictionary().clone(), triples);
    }

    #[test]
    fn dictionary_shared_between_inserts() {
        let mut g = Graph::new();
        let t1 = g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"));
        let t2 = g.insert_terms(Term::iri("b"), Term::iri("p"), Term::iri("a"));
        assert_eq!(t1.subject, t2.object);
        assert_eq!(t1.property, t2.property);
        assert_eq!(g.dictionary().len(), 3);
    }
}
