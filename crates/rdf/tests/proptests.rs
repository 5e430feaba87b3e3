//! Property-based tests for the RDF substrate: dictionary encoding,
//! N-Triples round-tripping (including escape sequences) and survival of
//! untrusted text, sharded bulk-load encoding, graph index consistency and
//! the statistics catalog against a brute-force count.

use cliquesquare_rdf::load::{merge_dictionaries, remap_triples, EncodedShard};
use cliquesquare_rdf::term::vocab;
use cliquesquare_rdf::{
    ntriples, Dictionary, Graph, GraphStatistics, PredicateStats, Term, TermId, TriplePosition,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(|s| Term::iri(format!("http://example.org/{s}"))),
        "[A-Za-z0-9 ]{0,12}".prop_map(Term::literal),
    ]
}

/// Literals drawing from the characters the N-Triples escapes cover:
/// quotes, backslashes, newlines, carriage returns, tabs, control
/// characters and non-ASCII text.
fn spiky_literal_strategy() -> impl Strategy<Value = Term> {
    "[a-zA-Z\"\\\\\n\r\t\u{1}\u{7f}éλ ]{0,16}".prop_map(Term::literal)
}

/// Term texts for the dictionary's index: random texts with non-ASCII
/// characters, plus a fixed stem at every length 0–24, so every tail length
/// of the hash's 8-byte words runs in every case.
fn dictionary_texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-c0-9/éλ€]{0,24}", 1..24).prop_map(|mut texts| {
        let stem = "http://ex.org/abcdefghijk";
        texts.extend((0..=24).map(|len| stem[..len].to_string()));
        texts
    })
}

/// What N-Triples lines are made of (`|`-separated), including `\u` / `\U`
/// escapes cut short and surrogate code points.
const NTRIPLES_TOKENS: &str =
    "<http://e/s>|<|>|\"|\"lit\"|\\|\\u|\\u00|\\u00e9|\\uD800|\\uDFFF|\\U|\\U0001|\
    \\U0001F600|\\UFFFFFFFF|\\n|^^|@|@en|_:|_:b0|.| |\n|#|é";

proptest! {
    /// Arbitrary bytes, read as text, parse to triples or to an error.
    #[test]
    fn arbitrary_bytes_never_panic_the_ntriples_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let _ = ntriples::parse(&String::from_utf8_lossy(&bytes));
    }

    /// So does any sequence of N-Triples tokens, which gets deeper into
    /// terms, escapes and suffixes than raw bytes do.
    #[test]
    fn token_soup_never_panics_the_ntriples_parser(
        picks in proptest::collection::vec(any::<usize>(), 0..60)
    ) {
        let tokens: Vec<&str> = NTRIPLES_TOKENS.split('|').collect();
        let text: String = picks.iter().map(|pick| tokens[pick % tokens.len()]).collect();
        let _ = ntriples::parse(&text);
    }

    /// Encoding then decoding any sequence of terms returns the same terms,
    /// and equal terms always receive equal identifiers.
    #[test]
    fn dictionary_round_trips(terms in proptest::collection::vec(term_strategy(), 1..60)) {
        let mut dictionary = Dictionary::new();
        let ids: Vec<_> = terms.iter().cloned().map(|t| dictionary.encode(t)).collect();
        for (term, id) in terms.iter().zip(&ids) {
            prop_assert_eq!(dictionary.decode(*id), Some(term));
            prop_assert_eq!(dictionary.lookup(term), Some(*id));
        }
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j]);
            }
        }
        prop_assert!(dictionary.len() <= terms.len());
    }

    /// Over term lists with repeats, IRI/literal twins of one text,
    /// non-ASCII text and every text length 0–24: ids are first-occurrence
    /// ranks whether the index grows from empty, from `with_capacity(0)` or
    /// is pre-sized; `lookup` agrees with `encode` and finds no unseen term;
    /// and merging the dictionaries of any split into shards gives the
    /// sequential dictionary and ids.
    #[test]
    fn dictionary_ids_are_first_occurrence_ranks(
        texts in dictionary_texts(),
        picks in proptest::collection::vec(any::<usize>(), 1..200),
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        // A pick names a text and a kind, so both kinds of one text occur.
        let terms: Vec<Term> = picks
            .iter()
            .map(|pick| {
                let text = texts[(pick / 2) % texts.len()].clone();
                if pick % 2 == 0 { Term::iri(text) } else { Term::literal(text) }
            })
            .collect();
        let mut ranks: BTreeMap<&Term, TermId> = BTreeMap::new();
        let expected: Vec<TermId> = terms
            .iter()
            .map(|term| {
                let next = TermId(ranks.len() as u32);
                *ranks.entry(term).or_insert(next)
            })
            .collect();
        let unseen: Vec<Term> = texts
            .iter()
            .flat_map(|text| {
                [
                    Term::iri(text.clone()),
                    Term::literal(text.clone()),
                    Term::iri(format!("{text}\0")),
                ]
            })
            .filter(|term| !ranks.contains_key(term))
            .collect();

        let mut sequential = Dictionary::new();
        for mut dictionary in [
            Dictionary::new(),
            Dictionary::with_capacity(0),
            Dictionary::with_capacity(terms.len()),
        ] {
            let ids: Vec<TermId> = terms.iter().map(|t| dictionary.encode(t.clone())).collect();
            prop_assert_eq!(&ids, &expected);
            for (term, id) in terms.iter().zip(&ids) {
                prop_assert_eq!(dictionary.lookup(term), Some(*id));
            }
            for term in &unseen {
                prop_assert_eq!(dictionary.lookup(term), None);
            }
            prop_assert_eq!(dictionary.len(), ranks.len());
            sequential = dictionary;
        }

        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % terms.len()).collect();
        cuts.push(terms.len());
        cuts.sort_unstable();
        let mut start = 0;
        let mut shards = Vec::new();
        let mut local_ids = Vec::new();
        for cut in cuts {
            let mut shard = Dictionary::new();
            local_ids.push(terms[start..cut].iter().map(|t| shard.encode(t.clone())).collect::<Vec<_>>());
            shards.push(shard);
            start = cut;
        }
        let (merged, remaps) = merge_dictionaries(shards);
        prop_assert_eq!(&merged, &sequential);
        let merged_ids: Vec<TermId> = local_ids
            .iter()
            .zip(&remaps)
            .flat_map(|(ids, remap)| ids.iter().map(|id| remap[id.index()]))
            .collect();
        prop_assert_eq!(merged_ids, expected);
        for term in &unseen {
            prop_assert_eq!(merged.lookup(term), None);
        }
    }

    /// Serializing a graph to N-Triples and parsing it back preserves every
    /// triple (in order).
    #[test]
    fn ntriples_round_trips(
        triples in proptest::collection::vec(
            (term_strategy(), "[a-z]{1,6}", term_strategy()),
            1..40,
        )
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &triples {
            // Subjects and properties must be IRIs in RDF; literals generated
            // by the strategy are coerced.
            let subject = Term::iri(format!("http://example.org/s/{}", s.value().replace(' ', "_")));
            let property = Term::iri(format!("http://example.org/p/{p}"));
            graph.insert_terms(subject, property, o.clone());
        }
        let text = ntriples::serialize(&graph);
        let reparsed = ntriples::parse_into_graph(&text).expect("serialized output parses");
        prop_assert_eq!(reparsed.len(), graph.len());
        prop_assert_eq!(ntriples::serialize(&reparsed), text);
    }

    /// `Graph → write_ntriples → parse_ntriples → Graph` preserves the term
    /// set and the triple set even when literals contain every character the
    /// escape rules cover (quotes, backslashes, newlines, tabs, control
    /// characters, non-ASCII).
    #[test]
    fn graph_round_trips_through_ntriples_with_escapes(
        triples in proptest::collection::vec(
            ("[a-z]{1,6}", "[a-z]{1,4}", spiky_literal_strategy()),
            1..30,
        )
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &triples {
            graph.insert_terms(
                Term::iri(format!("http://example.org/s/{s}")),
                Term::iri(format!("http://example.org/p/{p}")),
                o.clone(),
            );
        }
        let text = ntriples::serialize(&graph);
        let reparsed = ntriples::parse_into_graph(&text).expect("escaped output parses");

        // Term-set equality.
        let terms = |g: &Graph| -> BTreeSet<Term> {
            g.dictionary().iter().map(|(_, t)| t.clone()).collect()
        };
        prop_assert_eq!(terms(&reparsed), terms(&graph));

        // Triple-set equality (decoded, so ids don't have to match).
        let decoded = |g: &Graph| -> Vec<(Term, Term, Term)> {
            g.triples()
                .iter()
                .map(|t| {
                    (
                        g.decode(t.subject).unwrap().clone(),
                        g.decode(t.property).unwrap().clone(),
                        g.decode(t.object).unwrap().clone(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(decoded(&reparsed), decoded(&graph));

        // In fact the loader contract is stronger: same insertion order means
        // the whole graph (ids, indexes) round-trips bit-identically.
        prop_assert_eq!(&reparsed, &graph);
    }

    /// Every sink encodes what a sequential `insert_terms` loop encodes:
    /// streaming the triples into a graph gives that graph, and streaming
    /// each chunk of any split into its own shard (per-shard dictionaries →
    /// ordered merge → remap) gives exactly its ids and triples.
    #[test]
    fn sharded_encode_matches_sequential(
        triples in proptest::collection::vec(
            (term_strategy(), term_strategy(), term_strategy()),
            1..40,
        ),
        splits in proptest::collection::vec(1usize..40, 0..4),
    ) {
        // Sequential baseline: one insert per triple into one graph.
        let mut sequential = Graph::new();
        for (s, p, o) in triples.iter().cloned() {
            sequential.insert_terms(s, p, o);
        }
        let mut streamed = Graph::new();
        streamed.extend(triples.iter().cloned());
        prop_assert_eq!(&streamed, &sequential);

        // Sharded: split at the (sorted, deduped, clamped) positions.
        let mut cuts: Vec<usize> = splits.iter().map(|&c| c % triples.len()).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut chunks: Vec<Vec<(Term, Term, Term)>> = Vec::new();
        let mut rest = triples.as_slice();
        let mut consumed = 0;
        for cut in cuts {
            let (head, tail) = rest.split_at(cut - consumed);
            if !head.is_empty() {
                chunks.push(head.to_vec());
            }
            rest = tail;
            consumed = cut;
        }
        if !rest.is_empty() {
            chunks.push(rest.to_vec());
        }

        let (dictionaries, locals): (Vec<_>, Vec<_>) = chunks
            .into_iter()
            .map(|chunk| {
                let mut shard = EncodedShard::default();
                shard.extend(chunk);
                (shard.dictionary, shard.triples)
            })
            .unzip();
        let (merged, remaps) = merge_dictionaries(dictionaries);
        let remapped: Vec<_> = locals
            .iter()
            .zip(&remaps)
            .flat_map(|(t, r)| remap_triples(t, r))
            .collect();
        prop_assert_eq!(Graph::from_parts(merged, remapped), sequential);
    }

    /// Every positional index returns exactly the triples carrying the value
    /// at that position.
    #[test]
    fn graph_indexes_are_consistent(
        raw in proptest::collection::vec((0u32..20, 0u32..5, 0u32..20), 1..80)
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &raw {
            graph.insert_terms(
                Term::iri(format!("s{s}")),
                Term::iri(format!("p{p}")),
                Term::iri(format!("o{o}")),
            );
        }
        for position in TriplePosition::ALL {
            for (id, _) in graph.dictionary().iter() {
                let indexed: Vec<_> = graph
                    .index_of(position, id)
                    .iter()
                    .map(|&offset| graph.triples()[offset])
                    .collect();
                let scanned: Vec<_> = graph
                    .triples()
                    .iter()
                    .filter(|t| t.get(position) == id)
                    .copied()
                    .collect();
                prop_assert_eq!(indexed, scanned);
            }
        }
        prop_assert_eq!(graph.len(), raw.len());
        let properties: BTreeSet<_> = graph.triples().iter().map(|t| t.property).collect();
        prop_assert!(graph.dictionary().len() >= properties.len());
    }

    /// The catalog equals a brute-force count over the triple list, on
    /// graphs whose small id ranges repeat triples and whose property pool
    /// includes `rdf:type` (with classes that other properties also reach).
    #[test]
    fn statistics_match_a_brute_force_count(
        raw in proptest::collection::vec((0u32..8, 0u32..4, 0u32..8), 1..60)
    ) {
        let mut graph = Graph::new();
        for (s, p, o) in &raw {
            let property = match p {
                0 => Term::iri(vocab::RDF_TYPE),
                p => Term::iri(format!("p{p}")),
            };
            graph.insert_terms(Term::iri(format!("n{s}")), property, Term::iri(format!("n{o}")));
        }
        let rdf_type = graph.lookup(&Term::iri(vocab::RDF_TYPE));
        let mut predicates: BTreeMap<TermId, (usize, BTreeSet<TermId>, BTreeSet<TermId>)> =
            BTreeMap::new();
        let mut classes: BTreeMap<TermId, usize> = BTreeMap::new();
        for t in graph.triples() {
            let (count, subjects, objects) = predicates.entry(t.property).or_default();
            *count += 1;
            subjects.insert(t.subject);
            objects.insert(t.object);
            if Some(t.property) == rdf_type {
                *classes.entry(t.object).or_default() += 1;
            }
        }
        let distinct = |position| graph.triples().iter().map(|t| t.get(position)).collect::<BTreeSet<_>>().len();

        let stats = GraphStatistics::compute(&graph);
        prop_assert_eq!(stats.triples(), raw.len());
        prop_assert_eq!(stats.distinct_subjects(), distinct(TriplePosition::Subject));
        prop_assert_eq!(stats.distinct_properties(), distinct(TriplePosition::Property));
        prop_assert_eq!(stats.distinct_objects(), distinct(TriplePosition::Object));
        prop_assert_eq!(stats.rdf_type(), rdf_type);
        prop_assert_eq!(stats.scan_cardinality(None, None), raw.len());
        for (property, (count, subjects, objects)) in &predicates {
            let expected = PredicateStats {
                triples: *count,
                distinct_subjects: subjects.len(),
                distinct_objects: objects.len(),
            };
            prop_assert_eq!(stats.predicate(*property), Some(&expected));
        }
        for (id, _) in graph.dictionary().iter() {
            let expected = classes.get(&id).copied().unwrap_or(0);
            prop_assert_eq!(stats.type_class_triples(id), expected);
            if let Some(rdf_type) = rdf_type {
                prop_assert_eq!(stats.scan_cardinality(Some(rdf_type), Some(id)), expected);
            }
        }
        // Every predicate × position, plus a property the graph never uses.
        let unknown = TermId(graph.dictionary().len() as u32);
        for property in predicates.keys().copied().chain([unknown]) {
            let entry = predicates.get(&property);
            prop_assert_eq!(
                stats.scan_cardinality(Some(property), None),
                entry.map_or(0, |e| e.0)
            );
            for position in TriplePosition::ALL {
                let expected = entry.map_or(0, |(_, subjects, objects)| match position {
                    TriplePosition::Subject => subjects.len(),
                    TriplePosition::Property => 1,
                    TriplePosition::Object => objects.len(),
                });
                prop_assert_eq!(stats.distinct_at(property, position), expected);
            }
        }
    }
}
