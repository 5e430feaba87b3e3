//! Property-based tests for the execution layer: the n-ary hash join of
//! [`Relation`] against a brute-force nested-loop oracle, the k-way ordered
//! merge against a stable sort, the count and head of a factorized join's
//! distinct projection against its expansion, and partition/scan invariants
//! of the simulated store.

use cliquesquare_engine::{join_runs, Relation};
use cliquesquare_mapreduce::PartitionedStore;
use cliquesquare_rdf::{Graph, Term, TermId, TriplePosition};
use cliquesquare_sparql::Variable;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn v(name: &str) -> Variable {
    Variable::new(name)
}

fn relation(schema: &[&str], rows: Vec<Vec<u32>>) -> Relation {
    Relation::new(
        schema.iter().map(|s| v(s)).collect(),
        rows.into_iter()
            .map(|r| r.into_iter().map(TermId).collect())
            .collect(),
    )
}

/// Brute-force binary join used as an oracle.
fn oracle_join(left: &Relation, right: &Relation, attrs: &[Variable]) -> usize {
    let mut count = 0usize;
    for l in left.rows() {
        'rows: for r in right.rows() {
            for attr in attrs {
                let lc = left.column(attr).unwrap();
                let rc = right.column(attr).unwrap();
                if l[lc] != r[rc] {
                    continue 'rows;
                }
            }
            // Shared non-join attributes must also agree.
            for (ci, var) in right.schema().iter().enumerate() {
                if attrs.contains(var) {
                    continue;
                }
                if let Some(lc) = left.column(var) {
                    if l[lc] != r[ci] {
                        continue 'rows;
                    }
                }
            }
            count += 1;
        }
    }
    count
}

/// One merge input: its order descriptor (picked among those its arity
/// allows), its key runs as `(key, length class)`, and whether its payload
/// repeats (so equal rows occur across inputs) or tags every row.
type PartSpec = (usize, Vec<(u32, usize)>, bool);

/// Builds merge input `index` of the given arity, sorted by the descriptor
/// it claims (the empty one claims nothing; `sort_by_columns` claims the
/// rest) — its own pick, or the case's `common` one. Column 0 is the run
/// key — runs of 1 to 1 000 rows — column 1 a small domain, the rest tag
/// the row with its input and position unless `repeats`.
fn merge_input(
    index: usize,
    arity: usize,
    spec: &PartSpec,
    common: Option<usize>,
) -> (Relation, Vec<usize>) {
    let (descriptor, runs, repeats) = spec;
    let descriptor = common.unwrap_or(*descriptor);
    let descriptors: Vec<Vec<usize>> = [vec![], vec![0], vec![0, 1], vec![1, 0], vec![0, 1, 2]]
        .into_iter()
        .filter(|columns| columns.iter().all(|&c| c < arity))
        .collect();
    let descriptor = descriptors[descriptor % descriptors.len()].clone();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for &(key, class) in runs {
        let length = [1, 1, 2, 3, 5, 8, 40, 500, 1_000][class];
        for _ in 0..length {
            let position = rows.len() as u32;
            let tag = if *repeats {
                position % 2
            } else {
                index as u32 * 100_000 + position
            };
            rows.push(
                [key, position % 3, tag, tag]
                    .into_iter()
                    .take(arity)
                    .collect(),
            );
        }
    }
    rows.sort_by_key(|row| descriptor.iter().map(|&c| row[c]).collect::<Vec<_>>());
    let schema = ["k", "a", "b", "c"]
        .iter()
        .take(arity)
        .map(|s| v(s))
        .collect();
    let mut relation = Relation::empty(schema);
    for row in &rows {
        relation.push_row(&row.iter().copied().map(TermId).collect::<Vec<_>>());
    }
    relation.sort_by_columns(&descriptor);
    (relation, descriptor)
}

/// One input of a random star join: how many payload columns it provides
/// (0 to 2), whether its first payload column tags every row uniquely (so
/// its payload never repeats across keys) or draws from a small domain, and
/// its rows as `(key x, key y, payload, payload)` draws.
type StarInput = (usize, bool, Vec<(u32, u32, u32, u32)>);

/// Builds input `index` of a star join on `keys` (`x`, or `x` and `y`):
/// schema `keys ++ [a<index>, b<index>][..payload]`, rows as drawn —
/// repeated rows included — in no order.
fn star_input(index: usize, keys: &[Variable], spec: &StarInput) -> Relation {
    let (payload, unique, draws) = spec;
    let mut schema = keys.to_vec();
    schema.extend(
        [format!("a{index}"), format!("b{index}")]
            .iter()
            .take(*payload)
            .map(|name| v(name)),
    );
    let rows = draws.iter().enumerate().map(|(position, &(x, y, a, b))| {
        let a = if *unique { 100 + position as u32 } else { a };
        let row = [x, y]
            .into_iter()
            .take(keys.len())
            .chain([a, b].into_iter().take(*payload));
        row.map(TermId).collect()
    });
    Relation::new(schema, rows.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `merge_ordered` equals the naive stable merge — concatenate the
    /// inputs in order, stable-sort by the descriptor prefix every non-empty
    /// input shares — row for row: ties across inputs go to the earlier
    /// input, rows of one input keep their order, clustered runs are copied
    /// whole, empty inputs and mixed descriptors change nothing else. Half
    /// the cases give every input one descriptor, as the executor does.
    #[test]
    fn merge_ordered_equals_a_stable_sort_of_the_concatenation(
        arity in 0usize..5,
        common in (any::<bool>(), 0usize..5),
        specs in proptest::collection::vec(
            (0usize..5, proptest::collection::vec((0u32..8, 0usize..9), 0..4), any::<bool>()),
            1..10,
        ),
    ) {
        let inputs: Vec<(Relation, Vec<usize>)> = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| merge_input(index, arity, spec, common.0.then_some(common.1)))
            .collect();
        let mut shared: Option<Vec<usize>> = None;
        for (_, descriptor) in inputs.iter().filter(|(relation, _)| !relation.is_empty()) {
            shared = Some(match shared {
                None => descriptor.clone(),
                Some(prefix) => prefix
                    .iter()
                    .zip(descriptor)
                    .take_while(|(a, b)| a == b)
                    .map(|(a, _)| *a)
                    .collect(),
            });
        }
        let shared = shared.unwrap_or_default();
        let mut expected: Vec<&[TermId]> = inputs.iter().flat_map(|(r, _)| r.rows()).collect();
        expected.sort_by_key(|row| shared.iter().map(|&c| row[c]).collect::<Vec<_>>());

        let merged = Relation::merge_ordered(inputs.iter().map(|(r, _)| r.clone()).collect());
        prop_assert_eq!(merged.len(), expected.len());
        prop_assert_eq!(merged.rows().collect::<Vec<_>>(), expected);
        prop_assert!(merged.order().satisfies(&shared));
    }

    /// The bounded projection of a factorized star join is its expansion,
    /// de-duplicated, counted and cut — for 2 to 4 inputs on one or two key
    /// columns, inputs that repeat rows, and projections that keep or drop
    /// the keys and keep none, some or all of each input's payload. It
    /// declines (`None`) exactly when rows can repeat across runs: a key
    /// column is dropped and no kept payload column is free of repeats
    /// across the joined keys — or nothing is kept at all.
    #[test]
    fn bounded_projection_equals_the_expansion_counted_and_cut(
        two_keys in any::<bool>(),
        specs in proptest::collection::vec(
            (0usize..3, any::<bool>(),
             proptest::collection::vec((0u32..3, 0u32..2, 0u32..4, 0u32..2), 0..12)),
            2..5,
        ),
        picks in proptest::collection::vec(0usize..16, 0..6),
        bound in (any::<bool>(), 0usize..40),
    ) {
        let keys: Vec<Variable> = if two_keys { vec![v("x"), v("y")] } else { vec![v("x")] };
        let inputs: Vec<Relation> = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| star_input(index, &keys, spec))
            .collect();
        let refs: Vec<&Relation> = inputs.iter().collect();
        let runs = join_runs(&refs, &keys, &[]);
        let mut projection: Vec<Variable> = Vec::new();
        for pick in picks {
            let variable = runs.schema()[pick % runs.schema().len()].clone();
            if !projection.contains(&variable) {
                projection.push(variable);
            }
        }
        let bound = if bound.0 { usize::MAX } else { bound.1 };

        // The model of "rows can repeat across runs", from the inputs alone.
        let key_of = |input: &Relation, row: &[TermId]| -> Vec<TermId> {
            keys.iter().map(|k| row[input.column(k).unwrap()]).collect()
        };
        let joined_keys: BTreeSet<Vec<TermId>> = inputs[0]
            .rows()
            .map(|row| key_of(&inputs[0], row))
            .filter(|key| inputs.iter().all(|i| i.rows().any(|row| &key_of(i, row) == key)))
            .collect();
        let vouches = |input: &Relation| {
            let kept = projection.iter().filter(|p| !keys.contains(p));
            kept.filter_map(|p| input.column(p)).any(|column| {
                let mut per_key: BTreeMap<Vec<TermId>, BTreeSet<TermId>> = BTreeMap::new();
                for row in input.rows().filter(|row| joined_keys.contains(&key_of(input, row))) {
                    per_key.entry(key_of(input, row)).or_default().insert(row[column]);
                }
                let all: BTreeSet<&TermId> = per_key.values().flatten().collect();
                all.len() == per_key.values().map(BTreeSet::len).sum::<usize>()
            })
        };
        let keys_kept = keys.iter().all(|k| projection.contains(k));
        let countable = !projection.is_empty()
            && (keys_kept || joined_keys.is_empty() || inputs.iter().any(vouches));

        let bounded = runs.project_bounded(&projection, bound);
        prop_assert_eq!(bounded.is_some(), countable, "projection {:?}", projection);
        if let Some(bounded) = bounded {
            let mut expected = runs.project_expand(&projection).distinct();
            prop_assert_eq!(bounded.count, expected.len());
            expected.truncate(bound);
            prop_assert_eq!(&bounded.head, &expected);
            prop_assert!(bounded.head.is_canonical());
            prop_assert_eq!(bounded.witness.is_some(), !keys_kept && runs.runs() > 0);
            if let Some((_, payload)) = bounded.witness {
                prop_assert!(payload.is_canonical());
                prop_assert_eq!(payload.distinct_len(), payload.len());
            }
        }
    }

    /// The hash join returns exactly the rows the nested-loop oracle returns,
    /// regardless of input order.
    #[test]
    fn hash_join_matches_nested_loop(
        left_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
        right_rows in proptest::collection::vec((0u32..6, 0u32..6), 0..25),
    ) {
        let left = relation(&["x", "a"], left_rows.iter().map(|&(x, a)| vec![x, a]).collect());
        let right = relation(&["x", "b"], right_rows.iter().map(|&(x, b)| vec![x, b]).collect());
        let attrs = vec![v("x")];
        let joined = Relation::join(&[&left, &right], &attrs, &[]);
        prop_assert_eq!(joined.len(), oracle_join(&left, &right, &attrs));
        let swapped = Relation::join(&[&right, &left], &attrs, &[]);
        prop_assert_eq!(swapped.len(), joined.len());
    }

    /// A three-way star join equals joining twice pairwise.
    #[test]
    fn nary_join_equals_cascaded_binary_joins(
        r1 in proptest::collection::vec((0u32..5, 0u32..5), 0..15),
        r2 in proptest::collection::vec((0u32..5, 0u32..5), 0..15),
        r3 in proptest::collection::vec((0u32..5, 0u32..5), 0..15),
    ) {
        let a = relation(&["x", "a"], r1.iter().map(|&(x, y)| vec![x, y]).collect());
        let b = relation(&["x", "b"], r2.iter().map(|&(x, y)| vec![x, y]).collect());
        let c = relation(&["x", "c"], r3.iter().map(|&(x, y)| vec![x, y]).collect());
        let attrs = vec![v("x")];
        let nary = Relation::join(&[&a, &b, &c], &attrs, &[]);
        let ab = Relation::join(&[&a, &b], &attrs, &[]);
        let cascaded = Relation::join(&[&ab, &c], &attrs, &[]);
        prop_assert_eq!(nary.len(), cascaded.len());
        prop_assert_eq!(
            nary.clone().distinct().sorted().len(),
            cascaded.clone().distinct().sorted().len()
        );
    }

    /// Projection never increases the row count and keeps only requested
    /// columns; distinct never increases it further.
    #[test]
    fn project_and_distinct_shrink(
        rows in proptest::collection::vec((0u32..4, 0u32..4, 0u32..4), 0..30),
    ) {
        let rel = relation(&["a", "b", "c"], rows.iter().map(|&(a, b, c)| vec![a, b, c]).collect());
        let projected = rel.project(&[v("a"), v("c")]);
        prop_assert_eq!(projected.len(), rel.len());
        prop_assert_eq!(projected.schema().len(), 2);
        prop_assert!(projected.clone().distinct().len() <= projected.len());
    }

    /// Partitioning any graph over any cluster size stores every triple three
    /// times, and a per-property scan returns exactly the property's triples
    /// no matter which placement replica is read.
    #[test]
    fn partitioning_preserves_all_triples(
        raw in proptest::collection::vec((0u32..15, 0u32..4, 0u32..15), 1..120),
        nodes in 1usize..9,
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &raw {
            graph.insert_terms(
                Term::iri(format!("s{s}")),
                Term::iri(format!("p{p}")),
                Term::iri(format!("o{o}")),
            );
        }
        let store = PartitionedStore::build(&graph, nodes);
        let stats = store.stats();
        prop_assert_eq!(stats.stored_triples, graph.len() * 3);
        prop_assert_eq!(stats.nodes, nodes.max(1));
        let properties: BTreeSet<TermId> = graph.triples().iter().map(|t| t.property).collect();
        for property in properties {
            let expected = graph.match_pattern(None, Some(property), None).count();
            for placement in TriplePosition::ALL {
                prop_assert_eq!(
                    store.scan_cardinality(placement, Some(property), None),
                    expected
                );
            }
        }
    }
}
