//! Sharded bulk-load primitives: chunk splitting, per-shard dictionary
//! encoding, and the order-preserving merge pass.
//!
//! Loading a graph sequentially funnels every triple through one
//! [`Dictionary`], which serializes the whole ingest path. The bulk loader
//! (see `cliquesquare_mapreduce::load`) instead splits the input into
//! chunks and hands each worker an empty [`EncodedShard`]: the chunk's
//! parser or generator writes its triples straight into the shard (it is an
//! [`Extend`] sink), which encodes every term against its own *shard*
//! dictionary as it arrives, so no decoded triple list is ever held. The
//! shards are then merged. The merge assigns final dense [`TermId`]s in
//! **global first-occurrence order** — the exact order the sequential path
//! would have produced — so a parallel load is bit-identical to a
//! sequential one at any thread or chunk count:
//!
//! * sequentially, a term's id reflects its first occurrence in the
//!   concatenated input stream;
//! * a term's first occurrence lies in the first chunk containing it, and a
//!   shard dictionary's local id order *is* first-occurrence order within
//!   its chunk, because a shard encodes in arrival order;
//! * therefore walking the shards in chunk order, and each shard's terms in
//!   local id order, visits all terms in global first-occurrence order.
//!
//! [`merge_dictionaries`] implements exactly that walk, on one thread, and
//! hands back one remap table per shard; [`remap_triples`] rewrites a
//! shard's local-id triples to final ids (independently per shard, so the
//! loader runs it as a parallel wave). The walk is the loader's only merge,
//! and it hashes no term: each shard hands over the hashes its dictionary
//! kept. Merge and remap together are a few percent of a load (traced
//! `load_merge_s` ≈ 0.07 s of a 2.1 M-triple LUBM load on two cores), and a
//! hash-partitioned parallel merge that won this stage never moved the
//! whole load's time, so it was removed.
//! These functions are deliberately free of any threading so this crate
//! stays dependency-light; the task-wave orchestration lives in
//! `cliquesquare_mapreduce::load`.

use crate::dictionary::Dictionary;
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

/// A shard is a sink for term triples: each term is encoded against the
/// shard dictionary as it arrives and the triple is appended, so local ids
/// follow first occurrence in arrival order.
impl Extend<(Term, Term, Term)> for EncodedShard {
    fn extend<I: IntoIterator<Item = (Term, Term, Term)>>(&mut self, triples: I) {
        for (s, p, o) in triples {
            let triple = Triple::new(
                self.dictionary.encode(s),
                self.dictionary.encode(p),
                self.dictionary.encode(o),
            );
            self.triples.push(triple);
        }
    }
}

/// Merges shard dictionaries into one global dictionary, assigning final
/// dense ids in global first-occurrence order (the sequential order — see
/// the module docs), and returns one remap table per shard:
/// `remaps[shard][local_id.index()]` is the final [`TermId`].
///
/// Each shard hands over its terms together with the hashes its dictionary
/// kept ([`Dictionary::into_terms`]), so the merge reads a term's text only
/// to compare it with a global term of the same hash, and hashes none. The
/// global index is sized once up front (the summed shard sizes bound the
/// distinct-term count), so the merge never grows it mid-way.
pub fn merge_dictionaries(shards: Vec<Dictionary>) -> (Dictionary, Vec<Vec<TermId>>) {
    let upper_bound: usize = shards.iter().map(Dictionary::len).sum();
    let mut global = Dictionary::with_capacity(upper_bound);
    let remaps = shards
        .into_iter()
        .map(|shard| {
            let (terms, hashes) = shard.into_terms();
            terms
                .into_iter()
                .zip(hashes)
                .map(|(term, hash)| global.encode_hashed(term, hash))
                .collect()
        })
        .collect();
    (global, remaps)
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
    use crate::ntriples;

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
            .filter_map(|c| ntriples::parse_from_into(c.text, c.first_line, &mut Vec::new()).err())
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
        let mut shard = EncodedShard::default();
        shard.extend(terms.clone());
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

    #[test]
    fn a_shard_encodes_in_arrival_order() {
        let mut shard = EncodedShard::default();
        shard.extend([(iri("s"), iri("p"), iri("o"))]);
        shard.extend([(iri("s"), iri("p"), Term::literal("l"))]);
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
