//! Sharded bulk-load primitives: chunk splitting, per-shard dictionary
//! encoding, and the order-preserving merge pass.
//!
//! Loading a graph sequentially funnels every triple through one
//! [`Dictionary`], which serializes the whole ingest path. The bulk loader
//! (see `cliquesquare_mapreduce::load`) instead splits the input into
//! chunks, encodes each chunk against its own *shard* dictionary on a
//! worker thread, and then merges the shards. The merge assigns final dense
//! [`TermId`]s in **global first-occurrence order** — the exact order the
//! sequential path would have produced — so a parallel load is bit-identical
//! to a sequential one at any thread or chunk count:
//!
//! * sequentially, a term's id reflects its first occurrence in the
//!   concatenated input stream;
//! * a term's first occurrence lies in the first chunk containing it, and a
//!   shard dictionary's local id order *is* first-occurrence order within
//!   its chunk;
//! * therefore walking the shards in chunk order, and each shard's terms in
//!   local id order, visits all terms in global first-occurrence order.
//!
//! [`merge_dictionaries`] implements exactly that walk and hands back one
//! remap table per shard; [`remap_triples`] rewrites a shard's local-id
//! triples to final ids (independently per shard, so it parallelizes too).
//! These functions are deliberately free of any threading so this crate
//! stays dependency-light; the task-wave orchestration lives in
//! `cliquesquare_mapreduce::load`.

use crate::dictionary::{term_hash, Dictionary};
use crate::ntriples::{self, ParseError};
use crate::term::{Term, TermId};
use crate::triple::Triple;

/// One line-aligned chunk of a larger N-Triples document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtriplesChunk<'a> {
    /// The chunk's text (whole lines; chunks concatenate back to the input).
    pub text: &'a str,
    /// 1-based line number of the chunk's first line within the document,
    /// so parse errors report global line numbers.
    pub first_line: usize,
}

/// Splits an N-Triples document into at most `chunks` line-aligned pieces of
/// roughly equal byte size.
///
/// Chunk boundaries always fall *after* a newline, so no line is ever split
/// and the concatenation of all chunk texts is exactly `text`. Fewer chunks
/// are returned when the document is too small to split further.
pub fn split_ntriples(text: &str, chunks: usize) -> Vec<NtriplesChunk<'_>> {
    let chunks = chunks.max(1);
    if chunks == 1 || text.len() <= chunks {
        return if text.is_empty() {
            Vec::new()
        } else {
            vec![NtriplesChunk {
                text,
                first_line: 1,
            }]
        };
    }
    let target = text.len().div_ceil(chunks);
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    let mut line = 1;
    while start < text.len() {
        let tentative = (start + target).min(text.len());
        let end = if tentative >= text.len() {
            text.len()
        } else {
            match bytes[tentative..].iter().position(|&b| b == b'\n') {
                Some(newline) => tentative + newline + 1,
                None => text.len(),
            }
        };
        let chunk = &text[start..end];
        out.push(NtriplesChunk {
            text: chunk,
            first_line: line,
        });
        line += chunk.bytes().filter(|&b| b == b'\n').count();
        start = end;
    }
    out
}

/// Parses one chunk produced by [`split_ntriples`] into term triples,
/// appending to a caller-supplied buffer and reporting errors with
/// document-global line numbers. The streaming bulk loader keeps one
/// recycled buffer per in-flight chunk, so parsing a document of `c` chunks
/// allocates `O(workers)` triple buffers instead of `c`. On error the
/// buffer may hold a partial prefix; the caller clears it before recycling.
pub fn parse_chunk_into(
    chunk: NtriplesChunk<'_>,
    out: &mut Vec<(Term, Term, Term)>,
) -> Result<(), ParseError> {
    ntriples::parse_from_into(chunk.text, chunk.first_line, out)
}

/// One chunk's triples, encoded against a shard-local dictionary.
///
/// The triple ids are *shard-local*: meaningful only relative to
/// `dictionary` until [`merge_dictionaries`] + [`remap_triples`] rewrite
/// them to final global ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedShard {
    /// The shard's private dictionary (local first-occurrence id order).
    pub dictionary: Dictionary,
    /// The chunk's triples under shard-local ids, in input order.
    pub triples: Vec<Triple>,
}

/// Encodes one chunk of term triples against a fresh shard dictionary —
/// the per-worker step of the parallel encode wave. Drains the
/// caller-supplied buffer so its capacity survives for the next chunk;
/// pairs with [`parse_chunk_into`] in the streaming loader's fused
/// parse→encode task.
pub fn encode_shard_from(terms: &mut Vec<(Term, Term, Term)>) -> EncodedShard {
    let mut dictionary = Dictionary::new();
    let mut triples = Vec::with_capacity(terms.len());
    for (s, p, o) in terms.drain(..) {
        let triple = Triple::new(
            dictionary.encode(s),
            dictionary.encode(p),
            dictionary.encode(o),
        );
        triples.push(triple);
    }
    EncodedShard {
        dictionary,
        triples,
    }
}

/// Merges shard dictionaries into one global dictionary, assigning final
/// dense ids in global first-occurrence order (the sequential order — see
/// the module docs), and returns one remap table per shard:
/// `remaps[shard][local_id.index()]` is the final [`TermId`].
///
/// The global index is sized once up front (the summed shard sizes bound
/// the distinct-term count), so the merge never rehashes mid-way.
pub fn merge_dictionaries(shards: Vec<Dictionary>) -> (Dictionary, Vec<Vec<TermId>>) {
    let upper_bound: usize = shards.iter().map(Dictionary::len).sum();
    let mut global = Dictionary::with_capacity(upper_bound);
    let remaps = shards
        .into_iter()
        .map(|shard| {
            shard
                .into_terms()
                .into_iter()
                .map(|term| global.encode(term))
                .collect()
        })
        .collect();
    (global, remaps)
}

/// Sentinel marking a shard-local id whose term first occurred in an
/// earlier shard: [`assign_final_ids`] leaves these slots unassigned and
/// [`resolve_shard_remap`] patches them from the first occurrence's shard.
pub const MERGE_UNASSIGNED: TermId = TermId(u32::MAX);

/// Hashes every term of a shard dictionary, in local-id order. One hash
/// wave runs per shard; the hashes drive partition routing, per-partition
/// dedup probing, *and* the final index build, so each term's text is
/// hashed exactly once across the whole merge.
pub fn shard_term_hashes(shard: &Dictionary) -> Vec<u64> {
    shard.terms().iter().map(term_hash).collect()
}

/// One partition's slice of the merge plan: which shard-local terms are
/// global first occurrences, and where each repeat occurrence first
/// appeared.
///
/// Because all occurrences of a term share a [`term_hash`], they land in
/// the same partition, so "first occurrence within this partition's scan"
/// equals "global first occurrence" — partitions are independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePartition {
    /// Per shard: strictly ascending local ids whose term first occurs at
    /// that position (walking shards in order, each shard in local order).
    pub new_locals: Vec<Vec<u32>>,
    /// Per shard: `(local, first_shard, first_local)` for every repeat
    /// occurrence, pointing at the term's global first occurrence.
    pub duplicates: Vec<Vec<(u32, u32, u32)>>,
}

/// Scans all shards for the terms hashing into `partition` (of
/// `partitions`) and splits them into first occurrences and duplicates.
/// Partitions are disjoint, so one such scan per partition can run as its
/// own task on the parallel runtime.
///
/// The dedup set is open-addressing keyed by the precomputed hashes and
/// sized once from an exact occurrence count, so the scan re-hashes no
/// strings and never rehashes the table.
pub fn partition_merge_plan(
    shards: &[Dictionary],
    hashes: &[Vec<u64>],
    partitions: usize,
    partition: usize,
) -> MergePartition {
    debug_assert_eq!(shards.len(), hashes.len());
    let modulus = partitions.max(1) as u64;
    let target = partition as u64;
    let occurrences: usize = hashes
        .iter()
        .map(|shard| shard.iter().filter(|&&h| h % modulus == target).count())
        .sum();
    let capacity = (occurrences * 8 / 7 + 1).next_power_of_two();
    let mask = capacity - 1;
    // Slots hold 1-based indexes into `entries`; an entry records the hash
    // and first occurrence `(shard, local)` of one distinct term.
    let mut slots = vec![0u32; capacity];
    let mut entries: Vec<(u64, u32, u32)> = Vec::with_capacity(occurrences);
    let mut new_locals = vec![Vec::new(); shards.len()];
    let mut duplicates: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); shards.len()];
    for (s, shard) in shards.iter().enumerate() {
        let terms = shard.terms();
        for (l, &hash) in hashes[s].iter().enumerate() {
            if hash % modulus != target {
                continue;
            }
            let mut slot = (hash as usize) & mask;
            loop {
                match slots[slot] {
                    0 => {
                        entries.push((hash, s as u32, l as u32));
                        slots[slot] = entries.len() as u32;
                        new_locals[s].push(l as u32);
                        break;
                    }
                    stored => {
                        let (entry_hash, fs, fl) = entries[(stored - 1) as usize];
                        if entry_hash == hash
                            && shards[fs as usize].terms()[fl as usize] == terms[l]
                        {
                            duplicates[s].push((l as u32, fs, fl));
                            break;
                        }
                    }
                }
                slot = (slot + 1) & mask;
            }
        }
    }
    MergePartition {
        new_locals,
        duplicates,
    }
}

/// Prefix-sums the per-shard first-occurrence counts across all partition
/// plans: returns each shard's final-id base and the distinct-term total.
///
/// Sequentially, the new terms of shard `s` receive the contiguous id block
/// `[base, base + new)` in ascending local order (a term's global
/// first-occurrence rank is the number of distinct terms first occurring at
/// a lexicographically smaller `(shard, local)` position), which is exactly
/// how [`assign_final_ids`] hands ids out — so the partitioned merge is
/// bit-identical to [`merge_dictionaries`].
pub fn merge_bases(plans: &[MergePartition], shard_count: usize) -> (Vec<u32>, usize) {
    let mut bases = Vec::with_capacity(shard_count);
    let mut total = 0usize;
    for s in 0..shard_count {
        bases.push(u32::try_from(total).expect("dictionary overflow"));
        total += plans.iter().map(|p| p.new_locals[s].len()).sum::<usize>();
    }
    (bases, total)
}

/// Assigns final ids to one shard's first-occurrence terms: ascending local
/// ids get consecutive ids from `base`. Duplicate slots stay
/// [`MERGE_UNASSIGNED`] until [`resolve_shard_remap`]. Runs independently
/// per shard.
pub fn assign_final_ids(
    shard: usize,
    shard_len: usize,
    plans: &[MergePartition],
    base: u32,
) -> Vec<TermId> {
    let mut is_new = vec![false; shard_len];
    for plan in plans {
        for &l in &plan.new_locals[shard] {
            is_new[l as usize] = true;
        }
    }
    let mut finals = vec![MERGE_UNASSIGNED; shard_len];
    let mut next = base;
    for (l, &fresh) in is_new.iter().enumerate() {
        if fresh {
            finals[l] = TermId(next);
            next += 1;
        }
    }
    finals
}

/// Completes one shard's remap table by patching every duplicate slot with
/// the id assigned at the term's first occurrence. Safe to run as soon as
/// *all* shards' [`assign_final_ids`] are done (first occurrences are
/// always "new" entries, so the referenced slots are already assigned).
/// Runs independently per shard.
pub fn resolve_shard_remap(
    shard: usize,
    finals: &[Vec<TermId>],
    plans: &[MergePartition],
) -> Vec<TermId> {
    let mut remap = finals[shard].clone();
    for plan in plans {
        for &(l, fs, fl) in &plan.duplicates[shard] {
            let id = finals[fs as usize][fl as usize];
            debug_assert_ne!(id, MERGE_UNASSIGNED, "duplicate points at a duplicate");
            remap[l as usize] = id;
        }
    }
    debug_assert!(remap.iter().all(|&id| id != MERGE_UNASSIGNED));
    remap
}

/// Moves every first-occurrence term (and its precomputed hash) into the
/// id-ordered global table. Walking shards in order and locals in ascending
/// order visits final ids `0, 1, 2, …` exactly once, so this is a single
/// sequential move with no positional writes.
pub fn merged_term_table(
    shards: Vec<Dictionary>,
    hashes: &[Vec<u64>],
    finals: &[Vec<TermId>],
    distinct: usize,
) -> (Vec<Term>, Vec<u64>) {
    let mut terms = Vec::with_capacity(distinct);
    let mut term_hashes = Vec::with_capacity(distinct);
    for (s, shard) in shards.into_iter().enumerate() {
        for (l, term) in shard.into_terms().into_iter().enumerate() {
            let id = finals[s][l];
            if id != MERGE_UNASSIGNED {
                debug_assert_eq!(id.index(), terms.len(), "ids not visited densely");
                terms.push(term);
                term_hashes.push(hashes[s][l]);
            }
        }
    }
    (terms, term_hashes)
}

/// The partitioned merge, phase by phase, run sequentially: the reference
/// orchestration of [`shard_term_hashes`] → [`partition_merge_plan`] →
/// [`merge_bases`] → [`assign_final_ids`] → [`resolve_shard_remap`] →
/// [`merged_term_table`]. Bit-identical to [`merge_dictionaries`] for any
/// partition count (differential-tested, including by proptest); the
/// parallel task-wave orchestration of the same phases lives in
/// `cliquesquare_mapreduce::load`.
pub fn merge_dictionaries_partitioned(
    shards: Vec<Dictionary>,
    partitions: usize,
) -> (Dictionary, Vec<Vec<TermId>>) {
    let hashes: Vec<Vec<u64>> = shards.iter().map(shard_term_hashes).collect();
    let plans: Vec<MergePartition> = (0..partitions.max(1))
        .map(|p| partition_merge_plan(&shards, &hashes, partitions, p))
        .collect();
    let (bases, distinct) = merge_bases(&plans, shards.len());
    let finals: Vec<Vec<TermId>> = shards
        .iter()
        .enumerate()
        .map(|(s, shard)| assign_final_ids(s, shard.len(), &plans, bases[s]))
        .collect();
    let remaps: Vec<Vec<TermId>> = (0..shards.len())
        .map(|s| resolve_shard_remap(s, &finals, &plans))
        .collect();
    let (terms, term_hashes) = merged_term_table(shards, &hashes, &finals, distinct);
    let dictionary = Dictionary::from_id_ordered_terms_with_hashes(terms, &term_hashes);
    (dictionary, remaps)
}

/// Rewrites a shard's local-id triples to final global ids through its
/// remap table from [`merge_dictionaries`]. Runs independently per shard.
pub fn remap_triples(triples: &[Triple], remap: &[TermId]) -> Vec<Triple> {
    triples
        .iter()
        .map(|t| {
            Triple::new(
                remap[t.subject.index()],
                remap[t.property.index()],
                remap[t.object.index()],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(text: impl Into<String>) -> Term {
        Term::iri(text)
    }

    #[test]
    fn split_preserves_text_and_lines() {
        let text: String = (0..40)
            .map(|i| format!("<http://example.org/s{i}> <p> <o{}> .\n", i % 5))
            .collect();
        for chunks in [1, 2, 3, 7, 100] {
            let split = split_ntriples(&text, chunks);
            assert!(split.len() <= chunks.max(1));
            let rejoined: String = split.iter().map(|c| c.text).collect();
            assert_eq!(rejoined, text, "chunks={chunks}");
            // Every chunk starts where the previous left off, line-wise.
            let mut expected_line = 1;
            for chunk in &split {
                assert_eq!(chunk.first_line, expected_line, "chunks={chunks}");
                assert!(chunk.text.ends_with('\n') || chunk.text.is_empty());
                expected_line += chunk.text.bytes().filter(|&b| b == b'\n').count();
            }
        }
    }

    #[test]
    fn split_handles_empty_and_unterminated_input() {
        assert!(split_ntriples("", 4).is_empty());
        let no_newline = "<a> <p> <b> .";
        let split = split_ntriples(no_newline, 4);
        let rejoined: String = split.iter().map(|c| c.text).collect();
        assert_eq!(rejoined, no_newline);
    }

    #[test]
    fn chunk_parse_errors_report_global_lines() {
        let text = "<a> <p> <b> .\n<a> <p> <c> .\nbroken line\n<a> <p> <d> .\n";
        let split = split_ntriples(text, 4);
        let error = split
            .iter()
            .filter_map(|&c| parse_chunk_into(c, &mut Vec::new()).err())
            .next()
            .expect("one chunk fails");
        assert_eq!(error.line, 3);
    }

    #[test]
    fn merge_matches_sequential_encoding_order() {
        // Terms repeat across chunk boundaries on purpose.
        let stream: Vec<Term> = ["a", "b", "a", "c", "b", "d", "e", "c", "f", "a"]
            .iter()
            .map(|t| iri(*t))
            .collect();
        let mut sequential = Dictionary::new();
        let sequential_ids: Vec<TermId> = stream
            .iter()
            .map(|t| sequential.encode(t.clone()))
            .collect();

        for split_at in [1, 3, 5, 9] {
            let (left, right) = stream.split_at(split_at);
            let shard = |terms: &[Term]| {
                let mut d = Dictionary::new();
                let ids: Vec<TermId> = terms.iter().map(|t| d.encode(t.clone())).collect();
                (d, ids)
            };
            let (d0, ids0) = shard(left);
            let (d1, ids1) = shard(right);
            let (global, remaps) = merge_dictionaries(vec![d0, d1]);
            assert_eq!(global, sequential, "split_at={split_at}");
            let merged_ids: Vec<TermId> = ids0
                .iter()
                .map(|id| remaps[0][id.index()])
                .chain(ids1.iter().map(|id| remaps[1][id.index()]))
                .collect();
            assert_eq!(merged_ids, sequential_ids, "split_at={split_at}");
        }
    }

    #[test]
    fn encode_and_remap_round_trip() {
        let terms = vec![
            (iri("s1"), iri("p"), iri("o1")),
            (iri("s2"), iri("p"), Term::literal("x")),
            (iri("s1"), iri("q"), iri("s2")),
        ];
        let shard = encode_shard_from(&mut terms.clone());
        assert_eq!(shard.triples.len(), 3);
        assert_eq!(shard.dictionary.len(), 6);
        let (global, remaps) = merge_dictionaries(vec![shard.dictionary.clone()]);
        let remapped = remap_triples(&shard.triples, &remaps[0]);
        // A single shard merges onto itself: ids unchanged.
        assert_eq!(global, shard.dictionary);
        assert_eq!(remapped, shard.triples);
        for ((s, p, o), triple) in terms.iter().zip(&remapped) {
            assert_eq!(global.decode(triple.subject), Some(s));
            assert_eq!(global.decode(triple.property), Some(p));
            assert_eq!(global.decode(triple.object), Some(o));
        }
    }

    #[test]
    fn empty_shards_merge_cleanly() {
        let (global, remaps) = merge_dictionaries(vec![Dictionary::new(), Dictionary::new()]);
        assert!(global.is_empty());
        assert_eq!(remaps, vec![Vec::<TermId>::new(), Vec::new()]);
        assert!(remap_triples(&[], &[]).is_empty());
    }

    /// Builds shard dictionaries from slices of one term stream, the way
    /// the encode wave would.
    fn shards_of(stream: &[Term], cuts: &[usize]) -> Vec<Dictionary> {
        let mut shards = Vec::new();
        let mut start = 0;
        for &cut in cuts.iter().chain(std::iter::once(&stream.len())) {
            let mut d = Dictionary::new();
            for term in &stream[start..cut] {
                d.encode(term.clone());
            }
            shards.push(d);
            start = cut;
        }
        shards
    }

    #[test]
    fn partitioned_merge_is_bit_identical_to_sequential() {
        let stream: Vec<Term> = ["a", "b", "a", "c", "b", "d", "e", "c", "f", "a", "g", "e"]
            .iter()
            .map(|t| iri(*t))
            .chain((0..50).map(|i| Term::literal(format!("v{}", i % 17))))
            .collect();
        for cuts in [vec![], vec![4], vec![3, 7], vec![2, 5, 9, 30]] {
            let shards = shards_of(&stream, &cuts);
            let (expected_dict, expected_remaps) = merge_dictionaries(shards.clone());
            for partitions in [1, 2, 3, 7, 64] {
                let (dict, remaps) = merge_dictionaries_partitioned(shards.clone(), partitions);
                assert_eq!(dict, expected_dict, "cuts={cuts:?} partitions={partitions}");
                assert_eq!(
                    remaps, expected_remaps,
                    "cuts={cuts:?} partitions={partitions}"
                );
                // The rebuilt index answers lookups, not just equality.
                for (id, term) in expected_dict.iter() {
                    assert_eq!(dict.lookup(term), Some(id));
                }
            }
        }
    }

    #[test]
    fn partitioned_merge_handles_empty_and_trivial_shards() {
        let (dict, remaps) =
            merge_dictionaries_partitioned(vec![Dictionary::new(), Dictionary::new()], 4);
        assert!(dict.is_empty());
        assert_eq!(remaps, vec![Vec::<TermId>::new(), Vec::new()]);

        let mut only = Dictionary::new();
        only.encode(iri("x"));
        only.encode(iri("y"));
        let (dict, remaps) = merge_dictionaries_partitioned(vec![only.clone()], 8);
        assert_eq!(dict, only);
        assert_eq!(remaps, vec![vec![TermId(0), TermId(1)]]);
    }

    #[test]
    fn partition_plans_cover_every_local_id_exactly_once() {
        let stream: Vec<Term> = (0..40).map(|i| iri(format!("t{}", i % 13))).collect();
        let shards = shards_of(&stream, &[11, 25]);
        let hashes: Vec<Vec<u64>> = shards.iter().map(shard_term_hashes).collect();
        let partitions = 5;
        let plans: Vec<MergePartition> = (0..partitions)
            .map(|p| partition_merge_plan(&shards, &hashes, partitions, p))
            .collect();
        for (s, shard) in shards.iter().enumerate() {
            let mut seen = vec![0u32; shard.len()];
            for plan in &plans {
                assert!(plan.new_locals[s].windows(2).all(|w| w[0] < w[1]));
                for &l in &plan.new_locals[s] {
                    seen[l as usize] += 1;
                }
                for &(l, fs, fl) in &plan.duplicates[s] {
                    seen[l as usize] += 1;
                    // Duplicates point at a strictly earlier occurrence of
                    // an equal term.
                    assert!((fs as usize, fl as usize) < (s, l as usize));
                    assert_eq!(
                        shards[fs as usize].terms()[fl as usize],
                        shard.terms()[l as usize]
                    );
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "shard {s}: {seen:?}");
        }
    }

    #[test]
    fn encode_shard_from_recycles_the_buffer() {
        let mut buffer = vec![
            (iri("s"), iri("p"), iri("o")),
            (iri("s"), iri("p"), Term::literal("l")),
        ];
        let capacity = buffer.capacity();
        let shard = encode_shard_from(&mut buffer);
        assert!(buffer.is_empty());
        assert_eq!(buffer.capacity(), capacity);
        assert_eq!(
            shard.triples,
            [
                Triple::new(TermId(0), TermId(1), TermId(2)),
                Triple::new(TermId(0), TermId(1), TermId(3)),
            ]
        );
        assert_eq!(
            shard.dictionary.decode(TermId(3)),
            Some(&Term::literal("l"))
        );
    }
}
