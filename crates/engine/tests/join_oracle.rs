//! Differential tests for the n-ary **sort-merge** join: on random
//! relations, [`Relation::join`] must produce exactly the multiset of rows
//! that a naive nested-loop oracle produces — covering duplicate keys,
//! empty inputs, shared non-join attributes, cross products (no join
//! attributes), and single-input identity joins, on both the
//! sorted-leading-key fast path and the column-permuted re-sort path.
//! The raw emission *sequence* is pinned too
//! (`emission_order_matches_the_nested_loop`): stable re-sorts downstream
//! and the factorized expansion both depend on it — and so is the sequence
//! a consumer's `delivered` order makes of it, eager and expanded alike
//! (`delivered_order_matches_the_sorted_nested_loop`).

use cliquesquare_engine::{join_runs, Relation};
use cliquesquare_rdf::TermId;
use cliquesquare_sparql::Variable;
use proptest::prelude::*;

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

/// Nested-loop n-ary join oracle: enumerates every combination of one row
/// per input, keeps the combinations that agree on every shared variable
/// (join attributes and incidental shared columns alike), and merges them
/// into output rows over the union schema. Returns the sorted multiset.
fn oracle_join(inputs: &[&Relation], attributes: &[Variable]) -> Vec<Vec<TermId>> {
    let mut out = oracle_sequence(inputs, attributes);
    out.sort_unstable();
    out
}

/// The oracle's rows in nested-loop order: input 0 outermost, every input
/// in the order its rows are stored.
fn oracle_sequence(inputs: &[&Relation], attributes: &[Variable]) -> Vec<Vec<TermId>> {
    let mut schema: Vec<Variable> = Vec::new();
    for rel in inputs {
        for var in rel.schema() {
            if !schema.contains(var) {
                schema.push(var.clone());
            }
        }
    }
    // Every input must contain every join attribute (the J_A contract).
    for rel in inputs {
        for attr in attributes {
            assert!(rel.column(attr).is_some());
        }
    }
    let mut out: Vec<Vec<TermId>> = Vec::new();
    let seed: Vec<Option<TermId>> = vec![None; schema.len()];
    fn recurse(
        inputs: &[&Relation],
        schema: &[Variable],
        depth: usize,
        partial: &[Option<TermId>],
        out: &mut Vec<Vec<TermId>>,
    ) {
        if depth == inputs.len() {
            out.push(partial.iter().map(|c| c.expect("all bound")).collect());
            return;
        }
        'rows: for row in inputs[depth].rows() {
            let mut next = partial.to_vec();
            for (src, var) in inputs[depth].schema().iter().enumerate() {
                let dst = schema.iter().position(|s| s == var).expect("union");
                match next[dst] {
                    None => next[dst] = Some(row[src]),
                    Some(existing) if existing != row[src] => continue 'rows,
                    Some(_) => {}
                }
            }
            recurse(inputs, schema, depth + 1, &next, out);
        }
    }
    recurse(inputs, &schema, 0, &seed, &mut out);
    out
}

/// A small deterministic generator (splitmix64), so one proptest seed
/// shapes a whole family of inputs.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % u64::from(bound)) as u32
    }
}

/// `count` inputs that all bind the join attributes `k0..k{arity}` — at a
/// random column each, drawn from a domain of three values so keys repeat
/// within an input and go missing from others — plus a payload column of
/// their own; with `shared`, inputs 0 and 1 also both bind the non-key
/// column `s`. About half the inputs are then sorted on the key (tracked:
/// the merge takes them as they are), the rest stay in generation order
/// (the join's index sort visits them).
fn random_inputs(
    rng: &mut Rng,
    count: usize,
    arity: usize,
    shared: bool,
) -> (Vec<Relation>, Vec<Variable>) {
    let attributes: Vec<Variable> = (0..arity).map(|k| v(&format!("k{k}"))).collect();
    let inputs = (0..count)
        .map(|i| {
            let mut schema = attributes.clone();
            schema.push(v(&format!("p{i}")));
            if shared && i < 2 {
                schema.push(v("s"));
            }
            for slot in (1..schema.len()).rev() {
                schema.swap(slot, rng.below(slot as u32 + 1) as usize);
            }
            let rows = (0..rng.below(13))
                .map(|_| {
                    (schema.iter())
                        .map(|var| match var.name().as_bytes()[0] {
                            b'k' => TermId(rng.below(3)),
                            b's' => TermId(rng.below(2)),
                            _ => TermId(rng.below(50)),
                        })
                        .collect()
                })
                .collect();
            let mut relation = Relation::new(schema, rows);
            if rng.below(2) == 0 {
                let key_cols: Vec<usize> = (attributes.iter())
                    .map(|a| relation.column(a).expect("every input binds the key"))
                    .collect();
                relation.sort_by_columns(&key_cols);
            }
            relation
        })
        .collect();
    (inputs, attributes)
}

/// The engine join's rows as a sorted multiset.
fn joined_rows(inputs: &[&Relation], attributes: &[Variable]) -> Vec<Vec<TermId>> {
    let joined = Relation::join(inputs, attributes, &[]).sorted();
    joined.rows().map(<[TermId]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Order, not only multiset: the rows of `join(.., &[])` *in sequence*
    /// are the nested loop's (input 0 outermost, every input in stored
    /// order) stably sorted by the key — key groups ascending, each
    /// group's cross product nested in input order, rows that a shared
    /// non-key column rejects gone without disturbing the rest. Where
    /// factorization is legal the expanded runs are the same sequence, and
    /// the alignment alone finds exactly the keys every input holds.
    #[test]
    fn emission_order_matches_the_nested_loop(
        count in 2usize..6,
        arity in 1usize..4,
        shared in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (inputs, attributes) = random_inputs(&mut Rng(seed), count, arity, shared);
        let inputs: Vec<&Relation> = inputs.iter().collect();
        let joined = Relation::join(&inputs, &attributes, &[]);
        let key_cols: Vec<usize> = (attributes.iter())
            .map(|a| joined.column(a).expect("the output binds the key"))
            .collect();
        let key_of = |row: &[TermId]| key_cols.iter().map(|&c| row[c]).collect::<Vec<_>>();
        let mut expected = oracle_sequence(&inputs, &attributes);
        expected.sort_by_key(|row| key_of(row));
        let rows: Vec<Vec<TermId>> = joined.rows().map(<[TermId]>::to_vec).collect();
        prop_assert_eq!(&rows, &expected);
        // (At most one row satisfies any order; asking for none claims none.)
        prop_assert!(joined.len() <= 1 || joined.order().satisfies(&key_cols));
        if !shared {
            let expanded = join_runs(&inputs, &attributes, &[]).expand();
            prop_assert_eq!(expanded.schema(), joined.schema());
            let rows: Vec<Vec<TermId>> = expanded.rows().map(<[TermId]>::to_vec).collect();
            prop_assert_eq!(&rows, &expected);
        }
        let keys_of = |input: &Relation| -> std::collections::BTreeSet<Vec<TermId>> {
            let cols: Vec<usize> = (attributes.iter())
                .map(|a| input.column(a).expect("every input binds the key"))
                .collect();
            input.rows().map(|row| cols.iter().map(|&c| row[c]).collect()).collect()
        };
        let common = (inputs.iter().map(|input| keys_of(input)))
            .reduce(|a, b| &a & &b)
            .expect("at least two inputs");
        prop_assert_eq!(Relation::key_groups(&inputs, &attributes), common.len());
    }

    /// The order a consumer asks for, whatever `delivered` holds — nothing,
    /// a prefix of the key, payload columns, the whole schema, or among
    /// payload columns a variable no input binds (skipped): the rows *in
    /// sequence* are the nested loop's stably sorted by the key, then by the
    /// delivered columns the output has, and the output claims that order.
    /// Where factorization is legal the expanded runs are the same sequence.
    #[test]
    fn delivered_order_matches_the_sorted_nested_loop(
        count in 2usize..5,
        arity in 1usize..4,
        shared in any::<bool>(),
        kind in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let (inputs, attributes) = random_inputs(&mut rng, count, arity, shared);
        let inputs: Vec<&Relation> = inputs.iter().collect();
        let mut schema: Vec<Variable> = Vec::new();
        for var in inputs.iter().flat_map(|input| input.schema()) {
            if !schema.contains(var) {
                schema.push(var.clone());
            }
        }
        let mut payload: Vec<Variable> =
            schema.iter().filter(|var| !attributes.contains(var)).cloned().collect();
        for slot in (1..payload.len()).rev() {
            payload.swap(slot, rng.below(slot as u32 + 1) as usize);
        }
        let delivered: Vec<Variable> = match kind {
            0 => Vec::new(),
            1 => attributes[..=rng.below(arity as u32) as usize].to_vec(),
            2 => payload[..=rng.below(payload.len() as u32) as usize].to_vec(),
            3 => schema.clone(),
            _ => {
                let mut with_absent = payload.clone();
                with_absent.insert(rng.below(payload.len() as u32 + 1) as usize, v("absent"));
                with_absent
            }
        };

        let column = |var: &Variable| schema.iter().position(|s| s == var);
        let key_cols: Vec<usize> = attributes.iter().filter_map(column).collect();
        let delivered_cols: Vec<usize> = delivered.iter().filter_map(column).collect();
        let pick = |row: &Vec<TermId>, cols: &[usize]| {
            cols.iter().map(|&c| row[c]).collect::<Vec<_>>()
        };
        let mut expected = oracle_sequence(&inputs, &attributes);
        expected.sort_by_key(|row| pick(row, &key_cols));
        expected.sort_by_key(|row| pick(row, &delivered_cols));

        let joined = Relation::join(&inputs, &attributes, &delivered);
        prop_assert_eq!(joined.schema(), &schema[..]);
        let rows: Vec<Vec<TermId>> = joined.rows().map(<[TermId]>::to_vec).collect();
        prop_assert_eq!(&rows, &expected, "delivered {:?}", delivered);
        prop_assert!(joined.order().satisfies(&delivered_cols));
        if !shared {
            let expanded = join_runs(&inputs, &attributes, &delivered).expand();
            let rows: Vec<Vec<TermId>> = expanded.rows().map(<[TermId]>::to_vec).collect();
            prop_assert_eq!(&rows, &expected, "delivered {:?}", delivered);
        }
    }

    /// Binary join on one attribute, tiny domain → lots of duplicate keys,
    /// plus the empty-input edge (0-row vectors are generated).
    #[test]
    fn binary_join_matches_oracle(
        left_rows in proptest::collection::vec((0u32..4, 0u32..4), 0..20),
        right_rows in proptest::collection::vec((0u32..4, 0u32..4), 0..20),
    ) {
        let left = relation(&["x", "a"], left_rows.iter().map(|&(x, a)| vec![x, a]).collect());
        let right = relation(&["x", "b"], right_rows.iter().map(|&(x, b)| vec![x, b]).collect());
        let attrs = vec![v("x")];
        prop_assert_eq!(
            joined_rows(&[&left, &right], &attrs),
            oracle_join(&[&left, &right], &attrs)
        );
    }

    /// The key column placed *last* forces the column-permuted re-sort path;
    /// the result must be identical to the leading-key layout.
    #[test]
    fn trailing_key_resort_path_matches_oracle(
        left_rows in proptest::collection::vec((0u32..4, 0u32..4), 0..20),
        right_rows in proptest::collection::vec((0u32..4, 0u32..4), 0..20),
    ) {
        let trailing = relation(&["a", "x"], left_rows.iter().map(|&(x, a)| vec![a, x]).collect());
        let right = relation(&["x", "b"], right_rows.iter().map(|&(x, b)| vec![x, b]).collect());
        let attrs = vec![v("x")];
        prop_assert_eq!(
            joined_rows(&[&trailing, &right], &attrs),
            oracle_join(&[&trailing, &right], &attrs)
        );
    }

    /// Three-way join on `x` where two inputs also share the non-join
    /// attribute `z`: combinations disagreeing on `z` must be rejected.
    #[test]
    fn shared_non_join_attributes_match_oracle(
        r1 in proptest::collection::vec((0u32..3, 0u32..3), 0..12),
        r2 in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3), 0..12),
        r3 in proptest::collection::vec((0u32..3, 0u32..3), 0..12),
    ) {
        let a = relation(&["x", "z"], r1.iter().map(|&(x, z)| vec![x, z]).collect());
        let b = relation(&["x", "z", "b"], r2.iter().map(|&(x, z, c)| vec![x, z, c]).collect());
        let c = relation(&["x", "c"], r3.iter().map(|&(x, y)| vec![x, y]).collect());
        let attrs = vec![v("x")];
        prop_assert_eq!(
            joined_rows(&[&a, &b, &c], &attrs),
            oracle_join(&[&a, &b, &c], &attrs)
        );
    }

    /// Multi-attribute keys: join on (x, y) with duplicates in both columns.
    #[test]
    fn multi_attribute_keys_match_oracle(
        left_rows in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3), 0..15),
        right_rows in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3), 0..15),
    ) {
        let left = relation(&["x", "y", "a"], left_rows.iter().map(|&(x, y, a)| vec![x, y, a]).collect());
        let right = relation(&["y", "x", "b"], right_rows.iter().map(|&(x, y, b)| vec![y, x, b]).collect());
        let attrs = vec![v("x"), v("y")];
        prop_assert_eq!(
            joined_rows(&[&left, &right], &attrs),
            oracle_join(&[&left, &right], &attrs)
        );
    }

    /// No join attributes at all: the join degrades to a consistency-checked
    /// cross product (used by the SHAPE baseline on disconnected fragments).
    #[test]
    fn cross_product_matches_oracle(
        left_rows in proptest::collection::vec(0u32..5, 0..10),
        right_rows in proptest::collection::vec(0u32..5, 0..10),
    ) {
        let left = relation(&["a"], left_rows.iter().map(|&a| vec![a]).collect());
        let right = relation(&["b"], right_rows.iter().map(|&b| vec![b]).collect());
        prop_assert_eq!(
            joined_rows(&[&left, &right], &[]),
            oracle_join(&[&left, &right], &[])
        );
    }

    /// A single-input join is the identity up to canonical order — and the
    /// oracle agrees.
    #[test]
    fn single_input_identity_matches_oracle(
        rows in proptest::collection::vec((0u32..6, 0u32..6), 0..20),
    ) {
        let r = relation(&["x", "a"], rows.iter().map(|&(x, a)| vec![x, a]).collect());
        let attrs = vec![v("x")];
        prop_assert_eq!(joined_rows(&[&r], &attrs), oracle_join(&[&r], &attrs));
        let identity = Relation::join(&[&r], &attrs, &[]);
        prop_assert_eq!(identity.len(), r.len());
    }
}
