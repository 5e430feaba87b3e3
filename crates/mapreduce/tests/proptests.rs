//! Property-based tests for the simulated cluster's cost accounting and the
//! partitioned store's build and index access paths.

use cliquesquare_mapreduce::{
    CostParameters, ExecutionMetrics, FileKey, PartitionedStore, Runtime,
};
use cliquesquare_rdf::term::vocab;
use cliquesquare_rdf::{Graph, Term, TermId, Triple, TriplePosition};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn metrics_strategy() -> impl Strategy<Value = ExecutionMetrics> {
    (
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..1_000_000,
        0u64..20,
        0u64..40,
        0u64..40,
    )
        .prop_map(
            |(read, written, shuffled, comparisons, join, jobs, map, reduce)| ExecutionMetrics {
                tuples_read: read,
                tuples_written: written,
                tuples_shuffled: shuffled,
                comparisons,
                join_output_tuples: join,
                jobs,
                map_tasks: map,
                reduce_tasks: reduce,
            },
        )
}

proptest! {
    /// Merging metrics is commutative and adds every counter.
    #[test]
    fn merge_is_commutative_and_additive(a in metrics_strategy(), b in metrics_strategy()) {
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(ab.tuples_read, a.tuples_read + b.tuples_read);
        prop_assert_eq!(ab.jobs, a.jobs + b.jobs);
    }

    /// Simulated time never increases when more nodes are added, and never
    /// drops below the sequential job/task overhead.
    #[test]
    fn more_nodes_never_slow_things_down(m in metrics_strategy(), nodes in 1usize..64) {
        let params = CostParameters { nodes, ..CostParameters::default() };
        let with_nodes = m.simulated_seconds(&params);
        let with_more = m.simulated_seconds(&CostParameters { nodes: nodes * 2, ..params });
        prop_assert!(with_more <= with_nodes + 1e-9);
        let overhead = m.jobs as f64 * params.job_startup
            + (m.map_tasks + m.reduce_tasks) as f64 * params.task_startup;
        prop_assert!(with_nodes + 1e-9 >= overhead);
    }

    /// Total work scales linearly with the cost parameters.
    #[test]
    fn total_work_is_linear_in_parameters(m in metrics_strategy(), factor in 1u32..10) {
        let base = CostParameters {
            read: 1.0,
            write: 1.0,
            shuffle: 1.0,
            check: 1.0,
            join: 1.0,
            job_startup: 0.0,
            task_startup: 0.0,
            nodes: 1,
        };
        let scaled = CostParameters {
            read: factor as f64,
            write: factor as f64,
            shuffle: factor as f64,
            check: factor as f64,
            join: factor as f64,
            ..base
        };
        let a = m.total_work_seconds(&base);
        let b = m.total_work_seconds(&scaled);
        prop_assert!((b - a * factor as f64).abs() < 1e-6 * b.max(1.0));
    }

    /// The replicas used as indexes agree with reading everything: for
    /// every placement, every file selector (one property, one `rdf:type`
    /// class, all of `rdf:type`, no restriction at all) and every constant
    /// position — the placement position included — a seek returns, node
    /// for node, the rows and the order that filtering the full scan by the
    /// constant gives; and a keyed read — a seek of a key set at the
    /// placement position, the scan's own replica, over several files for
    /// no property or all of `rdf:type` — returns the full scan filtered by
    /// the key set. Constants cover values present in the selected files,
    /// present only under other properties, and absent from the dictionary.
    #[test]
    fn seeks_and_keyed_reads_equal_filtered_scans(
        raw in proptest::collection::vec((0u32..12, 0u32..4, 0u32..12), 1..100),
        typed in proptest::collection::vec((0u32..12, 0u32..3), 0..30),
        nodes in 1usize..6,
        key_mask in 0u32..4096,
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &raw {
            // Subjects and objects share one namespace, so a value occurs at
            // both positions.
            graph.insert_terms(
                Term::iri(format!("n{s}")),
                Term::iri(format!("p{p}")),
                Term::iri(format!("n{o}")),
            );
        }
        for (s, class) in &typed {
            graph.insert_terms(
                Term::iri(format!("n{s}")),
                Term::iri(vocab::RDF_TYPE),
                Term::iri(format!("c{class}")),
            );
        }
        let store = PartitionedStore::build(&graph, nodes);
        let id = |name: String| graph.lookup(&Term::iri(name));
        let mut selectors = vec![(None, None), (id("p0".into()), None), (id("p3".into()), None)];
        if let Some(rdf_type) = store.rdf_type() {
            selectors.push((Some(rdf_type), None));
            selectors.push((Some(rdf_type), id("c0".into())));
        }
        // Every term of the graph, one id past the dictionary, and the
        // executor's sentinel for constants the data does not contain.
        let mut constants: Vec<TermId> = graph
            .triples()
            .iter()
            .flat_map(|t| t.as_array())
            .collect();
        constants.sort_unstable();
        constants.dedup();
        let keys: Vec<TermId> = constants
            .iter()
            .enumerate()
            .filter(|(index, _)| key_mask >> (index % 12) & 1 == 1)
            .map(|(_, id)| *id)
            .collect();
        constants.push(TermId(constants.len() as u32 + 1));
        constants.push(TermId(u32::MAX));
        for placement in TriplePosition::ALL {
            for &(property, class) in &selectors {
                let full: Vec<Vec<_>> = (0..store.nodes())
                    .map(|node| {
                        let files = store.scan_files(node, placement, property, class);
                        files.read().into_owned()
                    })
                    .collect();
                for position in TriplePosition::ALL {
                    for &constant in &constants {
                        let sought = store.seek(placement, property, class, position, &[constant]);
                        for (node, triples) in full.iter().enumerate() {
                            let filtered: Vec<_> = triples
                                .iter()
                                .filter(|t| t.get(position) == constant)
                                .copied()
                                .collect();
                            prop_assert_eq!(
                                &sought[node], &filtered,
                                "{} replica, {:?}/{:?}, {} = {:?}, node {}",
                                placement, property, class, position, constant, node
                            );
                        }
                    }
                }
                let keyed = store.seek(placement, property, class, placement, &keys);
                for (node, triples) in full.iter().enumerate() {
                    let filtered: Vec<_> = triples
                        .iter()
                        .filter(|t| keys.binary_search(&t.get(placement)).is_ok())
                        .copied()
                        .collect();
                    let files = store.scan_files(node, placement, property, class);
                    prop_assert_eq!(files.rows(), triples.len());
                    prop_assert_eq!(&keyed[node], &filtered);
                }
            }
        }
    }

    /// One seek of `k` keys is `k` seeks of one: for every placement, file
    /// selector and key position, node for node, a seek of a sorted key set
    /// returns the union of the single-key seeks of its keys, in scan order
    /// — the placement value, then the triple. The keys are any subset of
    /// the graph's terms, plus values absent from it.
    #[test]
    fn a_k_key_seek_is_the_union_of_its_single_key_seeks(
        raw in proptest::collection::vec((0u32..12, 0u32..4, 0u32..12), 1..100),
        typed in proptest::collection::vec((0u32..12, 0u32..3), 0..30),
        nodes in 1usize..6,
        key_mask in 0u64..(1 << 20),
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &raw {
            graph.insert_terms(
                Term::iri(format!("n{s}")),
                Term::iri(format!("p{p}")),
                Term::iri(format!("n{o}")),
            );
        }
        for (s, class) in &typed {
            graph.insert_terms(
                Term::iri(format!("n{s}")),
                Term::iri(vocab::RDF_TYPE),
                Term::iri(format!("c{class}")),
            );
        }
        let store = PartitionedStore::build(&graph, nodes);
        let id = |name: &str| graph.lookup(&Term::iri(name));
        let mut selectors = vec![(None, None), (id("p0"), None), (id("p3"), None)];
        if let Some(rdf_type) = store.rdf_type() {
            selectors.push((Some(rdf_type), None));
            selectors.push((Some(rdf_type), id("c0")));
        }
        let mut candidates: Vec<TermId> = (0..graph.dictionary().len() as u32 + 2)
            .map(TermId)
            .collect();
        candidates.push(TermId(u32::MAX));
        let keys: Vec<TermId> = candidates
            .into_iter()
            .enumerate()
            .filter(|(index, _)| key_mask >> (index % 20) & 1 == 1)
            .map(|(_, key)| key)
            .collect();
        for placement in TriplePosition::ALL {
            for &(property, class) in &selectors {
                for position in TriplePosition::ALL {
                    let sought = store.seek(placement, property, class, position, &keys);
                    prop_assert_eq!(sought.len(), store.nodes());
                    let mut union: Vec<Vec<Triple>> = vec![Vec::new(); store.nodes()];
                    for key in &keys {
                        let one = store.seek(placement, property, class, position, &[*key]);
                        for (node, triples) in one.into_iter().enumerate() {
                            union[node].extend(triples);
                        }
                    }
                    for (node, triples) in union.iter_mut().enumerate() {
                        triples.sort_by_key(|t| (t.get(placement), *t));
                        prop_assert_eq!(
                            &sought[node], &*triples,
                            "{} replica, {:?}/{:?}, {} in {:?}, node {}",
                            placement, property, class, position, keys, node
                        );
                    }
                }
            }
        }
    }

    /// The build against an oracle that shares none of its code: on every
    /// node, the file of every key is the graph's triples with that key's
    /// property (and class, for `rdf:type`) placed on that node, sorted by
    /// placement value and then by triple; no other file exists. Subjects,
    /// objects and classes are drawn from small domains, so triples repeat,
    /// and classes are named like properties, so a class id can equal a
    /// property id. Every partition count 1–9 at threads 1, 2 and 8.
    #[test]
    fn every_file_is_its_key_and_partition_filtered_sorted(
        raw in proptest::collection::vec((0u32..10, 0u32..4, 0u32..10), 0..60),
        typed in proptest::collection::vec((0u32..10, 0u32..5), 0..30),
        with_type in any::<bool>(),
        repeats in proptest::collection::vec(0usize..90, 0..10),
    ) {
        let mut terms = Vec::new();
        for (s, p, o) in raw {
            terms.push((format!("n{s}"), format!("p{p}"), format!("n{o}")));
        }
        if with_type {
            for (s, class) in typed {
                terms.push((format!("n{s}"), vocab::RDF_TYPE.to_string(), format!("p{class}")));
            }
        }
        for at in repeats {
            if let Some(triple) = terms.get(at).cloned() {
                terms.push(triple);
            }
        }
        let mut graph = Graph::new();
        for (s, p, o) in terms {
            graph.insert_terms(Term::iri(s), Term::iri(p), Term::iri(o));
        }
        let rdf_type = graph.lookup(&Term::iri(vocab::RDF_TYPE));
        let mut keys = BTreeSet::new();
        for triple in graph.triples() {
            let class = (Some(triple.property) == rdf_type).then_some(triple.object);
            keys.insert((triple.property, class));
        }
        for partitions in 1..=9 {
            for threads in [1, 2, 8] {
                let runtime = Runtime::with_threads(threads);
                let store = PartitionedStore::build_with(&graph, partitions, &runtime);
                let mut files = 0;
                for placement in TriplePosition::ALL {
                    for node in 0..partitions {
                        for &(property, class) in &keys {
                            let mut expected: Vec<Triple> = graph
                                .triples()
                                .iter()
                                .filter(|t| t.property == property)
                                .filter(|t| class.is_none_or(|class| t.object == class))
                                .filter(|t| store.node_of(t.get(placement)) == node)
                                .copied()
                                .collect();
                            expected.sort_by_key(|t| (t.get(placement), *t));
                            files += usize::from(!expected.is_empty());
                            let key = FileKey::new(placement, property, class);
                            prop_assert_eq!(
                                store.file(node, &key), expected.as_slice(),
                                "{} partitions, {} threads, node {}, {:?}",
                                partitions, threads, node, key
                            );
                        }
                    }
                }
                prop_assert_eq!(store.stats().files, files);
                prop_assert_eq!(store.stats().stored_triples, 3 * graph.len());
            }
        }
    }
}
