//! Property-based tests for the simulated cluster's cost accounting and the
//! partitioned store's index access paths.

use cliquesquare_mapreduce::{CostParameters, ExecutionMetrics, PartitionedStore};
use cliquesquare_rdf::term::vocab;
use cliquesquare_rdf::{Graph, Term, TermId, TriplePosition};
use proptest::prelude::*;

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
    /// constant gives; and a keyed read returns the full scan filtered by
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
                        let sought = store.seek(placement, property, class, position, constant);
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
                for (node, triples) in full.iter().enumerate() {
                    let filtered: Vec<_> = triples
                        .iter()
                        .filter(|t| keys.binary_search(&t.get(placement)).is_ok())
                        .copied()
                        .collect();
                    let files = store.scan_files(node, placement, property, class);
                    prop_assert_eq!(files.rows(), triples.len());
                    prop_assert_eq!(files.read_keys(&keys), filtered);
                }
            }
        }
    }
}
