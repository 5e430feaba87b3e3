//! Indexed in-memory RDF graph store.

use crate::dictionary::Dictionary;
use crate::term::{Term, TermId};
use crate::triple::{Triple, TriplePosition};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An indexed, dictionary-encoded, in-memory RDF graph.
///
/// The graph keeps the full triple list plus three positional indexes
/// (by subject, by property, by object). This is the "local store" view of
/// the data; the distributed placement of triples across compute nodes is
/// handled by the partitioner in `cliquesquare-mapreduce`.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    dictionary: Dictionary,
    triples: Vec<Triple>,
    by_subject: HashMap<TermId, Vec<usize>>,
    by_property: HashMap<TermId, Vec<usize>>,
    by_object: HashMap<TermId, Vec<usize>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph from an already-encoded triple list and the dictionary
    /// that encoded it, constructing the three positional indexes here.
    ///
    /// This is the bulk-load constructor: inserting the same triples one by
    /// one through [`insert`](Self::insert) yields an identical graph, but
    /// pays three hash-map probes per triple interleaved with the encode
    /// path. Panics if a triple references an id outside the dictionary.
    pub fn from_parts(dictionary: Dictionary, triples: Vec<Triple>) -> Self {
        let by_subject = Self::position_index(&triples, TriplePosition::Subject);
        let by_property = Self::position_index(&triples, TriplePosition::Property);
        let by_object = Self::position_index(&triples, TriplePosition::Object);
        Self::from_parts_with_indexes(dictionary, triples, by_subject, by_property, by_object)
    }

    /// Builds the positional index of `triples` for one position: a map from
    /// each term id occurring there to the ascending list of triple offsets.
    ///
    /// The three positional indexes are independent of each other, so a
    /// parallel loader can build them on separate workers and assemble the
    /// graph with [`from_parts_with_indexes`](Self::from_parts_with_indexes);
    /// the result is identical to sequential insertion because offsets are
    /// appended in triple order either way.
    pub fn position_index(
        triples: &[Triple],
        position: TriplePosition,
    ) -> HashMap<TermId, Vec<usize>> {
        let mut index: HashMap<TermId, Vec<usize>> = HashMap::new();
        for (offset, triple) in triples.iter().enumerate() {
            index.entry(triple.get(position)).or_default().push(offset);
        }
        index
    }

    /// Assembles a graph from pre-built parts (see
    /// [`position_index`](Self::position_index)). In debug builds the
    /// indexes are verified against a fresh rebuild and every id against the
    /// dictionary, so a loader bug cannot silently produce a graph that
    /// violates the index invariants.
    pub fn from_parts_with_indexes(
        dictionary: Dictionary,
        triples: Vec<Triple>,
        by_subject: HashMap<TermId, Vec<usize>>,
        by_property: HashMap<TermId, Vec<usize>>,
        by_object: HashMap<TermId, Vec<usize>>,
    ) -> Self {
        let terms = dictionary.len() as u32;
        assert!(
            triples
                .iter()
                .all(|t| t.as_array().iter().all(|id| id.0 < terms)),
            "triple references an id outside the dictionary"
        );
        debug_assert_eq!(
            by_subject,
            Self::position_index(&triples, TriplePosition::Subject)
        );
        debug_assert_eq!(
            by_property,
            Self::position_index(&triples, TriplePosition::Property)
        );
        debug_assert_eq!(
            by_object,
            Self::position_index(&triples, TriplePosition::Object)
        );
        Self {
            dictionary,
            triples,
            by_subject,
            by_property,
            by_object,
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

    /// Returns a mutable reference to the graph's dictionary.
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        &mut self.dictionary
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

    /// Inserts an already-encoded triple.
    pub fn insert(&mut self, triple: Triple) {
        let idx = self.triples.len();
        self.by_subject.entry(triple.subject).or_default().push(idx);
        self.by_property
            .entry(triple.property)
            .or_default()
            .push(idx);
        self.by_object.entry(triple.object).or_default().push(idx);
        self.triples.push(triple);
    }

    /// Encodes the three terms and inserts the resulting triple.
    pub fn insert_terms(&mut self, subject: Term, property: Term, object: Term) -> Triple {
        let triple = Triple::new(
            self.dictionary.encode(subject),
            self.dictionary.encode(property),
            self.dictionary.encode(object),
        );
        self.insert(triple);
        triple
    }

    /// The index slice (triple positions into [`triples`](Self::triples))
    /// for a component value, empty when the value never occurs there.
    pub fn index_of(&self, position: TriplePosition, value: TermId) -> &[usize] {
        self.index(position)
            .get(&value)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The distinct values occurring at `position` (the keys of that
    /// positional index), in no particular order; `len()` is their count.
    pub fn values_at(
        &self,
        position: TriplePosition,
    ) -> impl ExactSizeIterator<Item = TermId> + '_ {
        self.index(position).keys().copied()
    }

    fn index(&self, position: TriplePosition) -> &HashMap<TermId, Vec<usize>> {
        match position {
            TriplePosition::Subject => &self.by_subject,
            TriplePosition::Property => &self.by_property,
            TriplePosition::Object => &self.by_object,
        }
    }

    /// Iterates over the triples whose component at `position` equals
    /// `value`, without materializing a vector.
    pub fn triples_with(
        &self,
        position: TriplePosition,
        value: TermId,
    ) -> impl Iterator<Item = Triple> + '_ {
        self.index_of(position, value)
            .iter()
            .map(move |&i| self.triples[i])
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
        assert_eq!(g.triples_with(TriplePosition::Subject, a).count(), 2);
        assert_eq!(g.triples_with(TriplePosition::Property, p1).count(), 2);
        assert_eq!(g.triples_with(TriplePosition::Object, a).count(), 1);
        assert_eq!(g.index_of(TriplePosition::Subject, a).len(), 2);
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
        assert_eq!(
            g.triples_with(TriplePosition::Property, TermId(999))
                .count(),
            0
        );
    }

    #[test]
    fn stats_and_cardinalities() {
        let g = sample_graph();
        assert_eq!(g.values_at(TriplePosition::Subject).len(), 2);
        assert_eq!(g.values_at(TriplePosition::Property).len(), 2);
        assert_eq!(g.values_at(TriplePosition::Object).len(), 4);
        let cards: Vec<usize> = g
            .values_at(TriplePosition::Property)
            .map(|p| g.index_of(TriplePosition::Property, p).len())
            .collect();
        assert_eq!(cards, [2, 2]);
    }

    #[test]
    fn from_parts_matches_incremental_insertion() {
        let incremental = sample_graph();
        let rebuilt = Graph::from_parts(
            incremental.dictionary().clone(),
            incremental.triples().to_vec(),
        );
        assert_eq!(rebuilt, incremental);

        let by_subject = Graph::position_index(incremental.triples(), TriplePosition::Subject);
        let by_property = Graph::position_index(incremental.triples(), TriplePosition::Property);
        let by_object = Graph::position_index(incremental.triples(), TriplePosition::Object);
        let assembled = Graph::from_parts_with_indexes(
            incremental.dictionary().clone(),
            incremental.triples().to_vec(),
            by_subject,
            by_property,
            by_object,
        );
        assert_eq!(assembled, incremental);
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
