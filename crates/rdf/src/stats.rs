//! Data statistics backing the cost model's selectivity estimates.
//!
//! [`GraphStatistics`] summarizes a loaded graph the way a relational
//! optimizer's catalog would: per-predicate triple counts, per-predicate
//! distinct subject/object counts (the denominators of distinct-count join
//! estimation) and per-class `rdf:type` counts (mirroring the store's split
//! type files) — the values the Section 5.4 cost model reads.
//!
//! The catalog comes from one grouping pass over the [`Graph`]'s triple
//! list, which reads none of the graph's positional indexes: the pass groups
//! the triple offsets by property and marks, per term id, whether it occurs
//! as a subject and as an object (the distinct totals). Each predicate's
//! entry is then one sort + dedup of the subject and object columns its
//! offsets select (for `rdf:type`, the run lengths of the sorted object
//! column are the class counts). Predicates are independent, so
//! [`GraphStatistics::compute_with`] hands one task per predicate to a
//! caller-supplied wave runner; `cliquesquare_mapreduce::compute_statistics`
//! runs them as one task wave, and any runner that returns the results in
//! task order yields the same catalog.

use crate::graph::Graph;
use crate::term::{vocab, Term, TermId};
use crate::triple::TriplePosition;
use std::collections::HashMap;

/// Statistics of one predicate (property value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of triples with this property.
    pub triples: usize,
    /// Number of distinct subject values among those triples.
    pub distinct_subjects: usize,
    /// Number of distinct object values among those triples.
    pub distinct_objects: usize,
}

/// What one predicate's task computes: its [`PredicateStats`] and, for
/// `rdf:type`, the triple count of each class (ascending by class id).
pub type PredicateEntry = (PredicateStats, Vec<(TermId, usize)>);

/// One predicate's task of [`GraphStatistics::compute_with`].
pub type PredicateTask<'g> = Box<dyn FnOnce() -> PredicateEntry + Send + 'g>;

/// Catalog-style statistics of a loaded graph, carried on the cluster
/// snapshot and read by the cost model's selectivity estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStatistics {
    triples: usize,
    distinct_subjects: usize,
    distinct_objects: usize,
    rdf_type: Option<TermId>,
    predicates: HashMap<TermId, PredicateStats>,
    type_classes: HashMap<TermId, usize>,
}

impl GraphStatistics {
    /// Computes the statistics of `graph`, running the per-predicate tasks
    /// inline one after another.
    pub fn compute(graph: &Graph) -> Self {
        Self::compute_with(graph, |tasks| {
            tasks.into_iter().map(|task| task()).collect()
        })
    }

    /// Computes the statistics of `graph` with one task per predicate, run
    /// by `run_wave`, which must return the tasks' results in task order.
    pub fn compute_with<'g>(
        graph: &'g Graph,
        run_wave: impl FnOnce(Vec<PredicateTask<'g>>) -> Vec<PredicateEntry>,
    ) -> Self {
        let rdf_type = graph.lookup(&Term::iri(vocab::RDF_TYPE));
        let mut by_property: HashMap<TermId, Vec<usize>> = HashMap::new();
        let mut is_subject = vec![false; graph.dictionary().len()];
        let mut is_object = is_subject.clone();
        for (offset, triple) in graph.triples().iter().enumerate() {
            by_property.entry(triple.property).or_default().push(offset);
            is_subject[triple.subject.index()] = true;
            is_object[triple.object.index()] = true;
        }
        let (properties, groups): (Vec<TermId>, Vec<Vec<usize>>) = by_property.into_iter().unzip();
        let tasks = properties
            .iter()
            .zip(groups)
            .map(|(&property, offsets)| {
                let count_classes = Some(property) == rdf_type;
                let task = move || predicate_entry(graph, &offsets, count_classes);
                Box::new(task) as PredicateTask<'g>
            })
            .collect();
        let entries = run_wave(tasks);
        assert_eq!(entries.len(), properties.len(), "one entry per task");
        let mut type_classes = HashMap::new();
        let predicates = properties
            .into_iter()
            .zip(entries)
            .map(|(property, (stats, classes))| {
                type_classes.extend(classes);
                (property, stats)
            })
            .collect();
        Self {
            triples: graph.len(),
            distinct_subjects: is_subject.into_iter().filter(|&seen| seen).count(),
            distinct_objects: is_object.into_iter().filter(|&seen| seen).count(),
            rdf_type,
            predicates,
            type_classes,
        }
    }

    /// Total triples in the graph.
    pub fn triples(&self) -> usize {
        self.triples
    }

    /// Distinct subject values across the graph.
    pub fn distinct_subjects(&self) -> usize {
        self.distinct_subjects
    }

    /// Distinct property values across the graph.
    pub fn distinct_properties(&self) -> usize {
        self.predicates.len()
    }

    /// Distinct object values across the graph.
    pub fn distinct_objects(&self) -> usize {
        self.distinct_objects
    }

    /// The dictionary id of `rdf:type`, if the graph has one.
    pub fn rdf_type(&self) -> Option<TermId> {
        self.rdf_type
    }

    /// Statistics of one predicate (`None` if the graph never uses it).
    pub fn predicate(&self, property: TermId) -> Option<&PredicateStats> {
        self.predicates.get(&property)
    }

    /// Triples carrying `rdf:type` with the given class object.
    pub fn type_class_triples(&self, class: TermId) -> usize {
        self.type_classes.get(&class).copied().unwrap_or(0)
    }

    /// Exact cardinality of a property-restricted scan: how many triples a
    /// `MapScan` with the given file restrictions reads, answered from the
    /// catalog without touching the store.
    pub fn scan_cardinality(&self, property: Option<TermId>, type_object: Option<TermId>) -> usize {
        match (property, type_object) {
            (Some(p), Some(class)) if Some(p) == self.rdf_type => self.type_class_triples(class),
            (Some(p), _) => self.predicate(p).map_or(0, |stats| stats.triples),
            (None, _) => self.triples,
        }
    }

    /// Distinct values the given predicate's triples have at `position`:
    /// the denominator of distinct-count join estimation for a scan of that
    /// predicate joined on the variable at `position`. The property
    /// position of a constant-property scan has exactly one value.
    pub fn distinct_at(&self, property: TermId, position: TriplePosition) -> usize {
        match position {
            TriplePosition::Subject => self.predicate(property).map_or(0, |s| s.distinct_subjects),
            TriplePosition::Property => usize::from(self.predicates.contains_key(&property)),
            TriplePosition::Object => self.predicate(property).map_or(0, |s| s.distinct_objects),
        }
    }
}

/// One predicate's catalog entry: the subject and object columns of the
/// triples at `offsets` (all of that predicate's), each sorted once; with
/// `count_classes`, the object runs are kept as the class counts.
fn predicate_entry(graph: &Graph, offsets: &[usize], count_classes: bool) -> PredicateEntry {
    let sorted_column = |position| {
        let mut column: Vec<TermId> = offsets
            .iter()
            .map(|&offset| graph.triples()[offset].get(position))
            .collect();
        column.sort_unstable();
        column
    };
    let mut subjects = sorted_column(TriplePosition::Subject);
    subjects.dedup();
    let objects = sorted_column(TriplePosition::Object);
    let runs = || objects.chunk_by(|a, b| a == b);
    let stats = PredicateStats {
        triples: offsets.len(),
        distinct_subjects: subjects.len(),
        distinct_objects: runs().count(),
    };
    let classes = if count_classes {
        runs().map(|run| (run[0], run.len())).collect()
    } else {
        Vec::new()
    };
    (stats, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lubm::{LubmGenerator, LubmScale};
    use std::collections::HashSet;

    fn graph() -> Graph {
        LubmGenerator::new(LubmScale::tiny()).generate()
    }

    /// The distinct values at `position`, read off the triple list.
    fn values_at(g: &Graph, position: TriplePosition) -> HashSet<TermId> {
        g.triples().iter().map(|t| t.get(position)).collect()
    }

    #[test]
    fn totals_match_graph_stats() {
        let g = graph();
        let stats = GraphStatistics::compute(&g);
        assert_eq!(stats.triples(), g.len());
        assert_eq!(
            stats.distinct_subjects(),
            values_at(&g, TriplePosition::Subject).len()
        );
        assert_eq!(
            stats.distinct_properties(),
            values_at(&g, TriplePosition::Property).len()
        );
        assert_eq!(
            stats.distinct_objects(),
            values_at(&g, TriplePosition::Object).len()
        );
    }

    #[test]
    fn per_predicate_counts_match_the_index() {
        let g = graph();
        let stats = GraphStatistics::compute(&g);
        for property in values_at(&g, TriplePosition::Property) {
            let expected = g.index_of(TriplePosition::Property, property).len();
            let per_predicate = stats.predicate(property).expect("predicate present");
            assert_eq!(per_predicate.triples, expected, "property {property:?}");
            assert!(per_predicate.distinct_subjects <= expected);
            assert!(per_predicate.distinct_objects <= expected);
            assert!(per_predicate.distinct_subjects >= 1);
            assert_eq!(stats.scan_cardinality(Some(property), None), expected);
        }
        assert_eq!(stats.scan_cardinality(None, None), g.len());
        assert_eq!(stats.scan_cardinality(Some(TermId(9_999_999)), None), 0);
    }

    #[test]
    fn type_classes_match_pattern_matching() {
        let g = graph();
        let stats = GraphStatistics::compute(&g);
        let rdf_type = stats.rdf_type().expect("LUBM has rdf:type");
        assert!(g
            .lookup(&Term::iri(vocab::ub("GraduateStudent")))
            .is_some_and(|grad| stats.type_class_triples(grad) > 0));
        // Every class count equals the graph's own pattern match.
        for class in g
            .match_pattern(None, Some(rdf_type), None)
            .map(|t| t.object)
        {
            assert_eq!(
                stats.scan_cardinality(Some(rdf_type), Some(class)),
                g.match_pattern(None, Some(rdf_type), Some(class)).count()
            );
        }
    }

    #[test]
    fn empty_graph_statistics_are_empty() {
        let stats = GraphStatistics::compute(&Graph::new());
        assert_eq!(stats.triples(), 0);
        assert_eq!(stats.distinct_subjects(), 0);
        assert_eq!(stats.distinct_properties(), 0);
        assert_eq!(stats.scan_cardinality(None, None), 0);
    }

    #[test]
    fn distinct_at_reports_positional_denominators() {
        let mut g = Graph::new();
        // Two subjects share one object through p; one subject has q.
        g.insert_terms(Term::iri("s1"), Term::iri("p"), Term::iri("o"));
        g.insert_terms(Term::iri("s2"), Term::iri("p"), Term::iri("o"));
        g.insert_terms(Term::iri("s1"), Term::iri("q"), Term::iri("o2"));
        let stats = GraphStatistics::compute(&g);
        let p = g.lookup(&Term::iri("p")).unwrap();
        let q = g.lookup(&Term::iri("q")).unwrap();
        assert_eq!(stats.distinct_at(p, TriplePosition::Subject), 2);
        assert_eq!(stats.distinct_at(p, TriplePosition::Object), 1);
        assert_eq!(stats.distinct_at(p, TriplePosition::Property), 1);
        assert_eq!(stats.distinct_at(q, TriplePosition::Subject), 1);
        assert_eq!(stats.distinct_at(TermId(77), TriplePosition::Subject), 0);
    }
}
