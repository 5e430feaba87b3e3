//! Bidirectional dictionary encoding of RDF terms.
//!
//! Each term is hashed once, when it is first encoded: the dictionary keeps
//! a 32-bit hash beside every id, so a probe compares kept hashes before it
//! reads any term text, growing the index re-inserts ids from the kept
//! hashes without reading text, and the bulk loader's shard merge hands the
//! shards' hashes to the global dictionary instead of hashing again.

use crate::term::{Term, TermId};
use serde::{Deserialize, Serialize};

/// Initial capacity of the hash index (slots, always a power of two).
const INITIAL_INDEX_CAPACITY: usize = 16;

/// A bidirectional dictionary mapping [`Term`]s to dense [`TermId`]s.
///
/// Dictionary encoding is the standard technique used by RDF stores (and by
/// the CliqueSquare prototype) to replace long IRI/literal strings with
/// compact integers before join processing. Identifiers are assigned in
/// insertion order starting from zero.
///
/// Every term's text is stored **once**, in the id-ordered `terms` table;
/// beside it, `hashes[id]` keeps the term's 32-bit hash (4 bytes a term).
/// The reverse direction is an open-addressing hash index whose slots hold
/// only term ids: a term's home slot is derived from its hash by
/// multiply-shift, and a probe compares the query's hash against
/// `hashes[id]` before it compares the text of `terms[id]`, so a probe past
/// a different term reads neither that term nor its string. The index is
/// rebuilt from `hashes` alone when it grows. The historical
/// `HashMap<Term, TermId>` design stored every string twice, doubling the
/// dictionary's memory footprint — see [`Dictionary::heap_bytes`] and the
/// memory regression test.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Dictionary {
    terms: Vec<Term>,
    /// `hashes[id]` is the [`term_hash`] of `terms[id]`.
    hashes: Vec<u32>,
    /// Open-addressing (linear probing) index: each slot stores `id + 1`,
    /// `0` meaning empty. The capacity is a power of two.
    index: Vec<u32>,
}

/// Two dictionaries are equal when they assign the same ids to the same
/// terms, i.e. their id-ordered term tables are equal. The hash index is an
/// acceleration structure whose slot layout depends on the growth history
/// (a bulk-loaded dictionary pre-sized with [`Dictionary::with_capacity`]
/// and an organically grown one can index the same mapping differently), so
/// it does not participate in equality; the kept hashes follow from the
/// terms.
impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.terms == other.terms
    }
}

impl Eq for Dictionary {}

/// The odd multiplier of [`term_hash`]'s word loop (2^64 / φ).
const WORD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A stable 32-bit hash of a term, independent of the process and platform.
///
/// The text is read eight bytes at a time as little-endian words, the last
/// word zero-padded; each word is xored into the state, which is then
/// multiplied by an odd constant and rotated, so the state costs one
/// dependent multiply per eight bytes. For a fixed word each step is a
/// bijection of the state, so two texts of one length that differ in a
/// single word never share a 64-bit state. The kind tag and the text length
/// are mixed in last, and the murmur3 64-bit finalizer spreads every input
/// bit over the high half that is kept.
fn term_hash(term: &Term) -> u32 {
    let mix = |state: u64, word: u64| (state ^ word).wrapping_mul(WORD_MULTIPLIER).rotate_left(29);
    let bytes = term.value().as_bytes();
    let mut state = 0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        state = mix(
            state,
            u64::from_le_bytes(word.try_into().expect("eight bytes")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        state = mix(state, u64::from_le_bytes(padded));
    }
    let tag: u64 = if term.is_iri() { 1 } else { 2 };
    state ^= (bytes.len() as u64) << 2 | tag;
    state ^= state >> 33;
    state = state.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    state ^= state >> 33;
    state = state.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    state ^= state >> 33;
    (state >> 32) as u32
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary pre-sized for `capacity` distinct terms.
    ///
    /// The open-addressing index is allocated once at a size that keeps the
    /// load factor below 7/8 for `capacity` terms, so a bulk load of up to
    /// that many terms never grows the index (see the
    /// `reserve_avoids_rehashing` test).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            terms: Vec::with_capacity(capacity),
            hashes: Vec::with_capacity(capacity),
            index: vec![0; Self::slots_for(capacity)],
        }
    }

    /// The smallest power-of-two slot count keeping `terms` entries below
    /// the 7/8 load-factor ceiling.
    fn slots_for(terms: usize) -> usize {
        let mut slots = INITIAL_INDEX_CAPACITY;
        while (terms + 1) * 8 > slots * 7 {
            slots *= 2;
        }
        slots
    }

    /// Returns the number of distinct terms stored in the dictionary.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the dictionary contains no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The home slot of `hash` in an index of `slots` slots (a power of
    /// two): the hash's high bits, by multiply-shift.
    fn home_slot(hash: u32, slots: usize) -> usize {
        ((u64::from(hash) * slots as u64) >> 32) as usize
    }

    /// The slot `term` (whose hash is `hash`) occupies, or the empty slot
    /// where it would be inserted. The index is never full (load factor is
    /// kept below 7/8). Only a slot whose id kept the same hash has its
    /// term's text compared.
    fn probe(&self, term: &Term, hash: u32) -> usize {
        debug_assert!(self.index.len().is_power_of_two());
        let mask = self.index.len() - 1;
        let mut slot = Self::home_slot(hash, self.index.len());
        loop {
            match self.index[slot] {
                0 => return slot,
                stored => {
                    let id = (stored - 1) as usize;
                    if self.hashes[id] == hash && self.terms[id] == *term {
                        return slot;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index and re-inserts every id at the home slot of its
    /// kept hash: no term text is read.
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(INITIAL_INDEX_CAPACITY);
        let mask = slots - 1;
        self.index = vec![0; slots];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = Self::home_slot(hash, slots);
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = id as u32 + 1;
        }
    }

    /// Encodes `term`, inserting it if it was not present, and returns its id.
    pub fn encode(&mut self, term: Term) -> TermId {
        let hash = term_hash(&term);
        self.encode_hashed(term, hash)
    }

    /// [`encode`](Self::encode) for a term whose [`term_hash`] is already
    /// known — the shard merge passes each shard's kept hash.
    pub(crate) fn encode_hashed(&mut self, term: Term, hash: u32) -> TermId {
        debug_assert_eq!(hash, term_hash(&term));
        if (self.terms.len() + 1) * 8 > self.index.len() * 7 {
            self.grow_index();
        }
        let slot = self.probe(&term, hash);
        if self.index[slot] != 0 {
            return TermId(self.index[slot] - 1);
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("dictionary overflow"));
        self.index[slot] = id.0 + 1;
        self.terms.push(term);
        self.hashes.push(hash);
        id
    }

    /// Looks up the id of `term` without inserting it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        if self.index.is_empty() {
            return None;
        }
        match self.index[self.probe(term, term_hash(term))] {
            0 => None,
            stored => Some(TermId(stored - 1)),
        }
    }

    /// Decodes an id back into its term. Returns `None` for unknown ids.
    pub fn decode(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }

    /// Consumes the dictionary and returns its id-ordered term table and the
    /// hashes kept beside it (`terms[id]` is the term of `TermId(id)`,
    /// `hashes[id]` its hash).
    ///
    /// This is the hand-off used by the bulk loader's merge pass: a shard
    /// dictionary's terms are moved — not cloned — into the global
    /// dictionary together with their hashes, so the merge hashes no text
    /// (see [`crate::load::merge_dictionaries`]).
    pub fn into_terms(self) -> (Vec<Term>, Vec<u32>) {
        (self.terms, self.hashes)
    }

    /// Estimated heap footprint in bytes: the term table (one `Term` slot
    /// plus the text bytes per term, stored once), the 4-byte kept hash per
    /// term and the 4-byte id slots of the hash index. String capacity is
    /// approximated by its length.
    pub fn heap_bytes(&self) -> usize {
        let term_slots = self.terms.capacity() * std::mem::size_of::<Term>();
        let text: usize = self.terms.iter().map(|t| t.value().len()).sum();
        let hashes = self.hashes.capacity() * std::mem::size_of::<u32>();
        let index = self.index.capacity() * std::mem::size_of::<u32>();
        term_slots + text + hashes + index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(Term::iri("a"));
        let b = d.encode(Term::iri("b"));
        let a2 = d.encode(Term::iri("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_round_trips() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/1"),
            Term::literal("hello"),
            Term::iri("http://x/2"),
        ];
        let ids: Vec<_> = terms.iter().cloned().map(|t| d.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.decode(*id), Some(t));
            assert_eq!(d.lookup(t), Some(*id));
        }
        assert_eq!(d.decode(TermId(99)), None);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut d = Dictionary::new();
        for i in 0..100u32 {
            let id = d.encode(Term::iri(format!("t{i}")));
            assert_eq!(id, TermId(i));
        }
        let collected: Vec<_> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn iri_and_literal_with_same_text_are_distinct() {
        let mut d = Dictionary::new();
        let i = d.encode(Term::iri("v"));
        let l = d.encode(Term::literal("v"));
        assert_ne!(i, l);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.lookup(&Term::iri("x")), None);
    }

    #[test]
    fn survives_many_growth_cycles() {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = (0..10_000u32)
            .map(|i| d.encode(Term::iri(format!("http://example.org/resource/{i}"))))
            .collect();
        assert_eq!(d.len(), 10_000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                d.lookup(&Term::iri(format!("http://example.org/resource/{i}"))),
                Some(*id)
            );
        }
        // Re-encoding never mints a new id.
        assert_eq!(
            d.encode(Term::iri("http://example.org/resource/42")),
            ids[42]
        );
        assert_eq!(d.len(), 10_000);
    }

    /// Bulk loads size the index once: after `with_capacity(n)`, encoding
    /// `n` terms never reallocates the index, so the open-addressing table
    /// is built exactly once instead of once per doubling.
    #[test]
    fn reserve_avoids_rehashing() {
        let n = 10_000;
        let mut presized = Dictionary::with_capacity(n);
        let slots_before = presized.index.len();
        for i in 0..n {
            presized.encode(Term::iri(format!("http://example.org/{i}")));
        }
        assert_eq!(presized.index.len(), slots_before, "with_capacity rehashed");

        // Same mapping as an organically grown dictionary.
        let mut grown = Dictionary::new();
        for i in 0..n {
            grown.encode(Term::iri(format!("http://example.org/{i}")));
        }
        assert_eq!(presized, grown);
    }

    #[test]
    fn with_capacity_zero_is_usable() {
        let mut d = Dictionary::with_capacity(0);
        assert_eq!(d.encode(Term::iri("a")), TermId(0));
        assert_eq!(d.lookup(&Term::iri("a")), Some(TermId(0)));
    }

    #[test]
    fn into_terms_returns_id_ordered_table() {
        let mut d = Dictionary::new();
        d.encode(Term::iri("a"));
        d.encode(Term::literal("b"));
        d.encode(Term::iri("a"));
        let (terms, hashes) = d.into_terms();
        assert_eq!(terms, vec![Term::iri("a"), Term::literal("b")]);
        assert_eq!(hashes, vec![term_hash(&terms[0]), term_hash(&terms[1])]);
    }

    /// Equality is on the id → term mapping, not the index layout.
    #[test]
    fn equality_ignores_index_capacity() {
        let mut organic = Dictionary::new();
        let mut presized = Dictionary::with_capacity(4096);
        for i in 0..100 {
            organic.encode(Term::iri(format!("t{i}")));
            presized.encode(Term::iri(format!("t{i}")));
        }
        assert_ne!(organic.index.len(), presized.index.len());
        assert_eq!(organic, presized);
        presized.encode(Term::iri("extra"));
        assert_ne!(organic, presized);
    }

    /// Memory-footprint regression test: the term text must be stored once.
    ///
    /// The historical layout (`Vec<Term>` + `HashMap<Term, TermId>`) owned
    /// every string twice, so its footprint was ≥ 2× the text bytes before
    /// any hash-table overhead. The id-keyed probing index keeps the
    /// footprint below 1.5× the text bytes for realistically sized IRIs.
    #[test]
    fn terms_are_stored_once() {
        let mut d = Dictionary::new();
        let mut text_bytes = 0usize;
        for i in 0..4096u32 {
            let iri = format!(
                "http://swat.cse.lehigh.edu/onto/univ-bench.owl#Department{i}/University{i}.edu/GraduateStudent{i}"
            );
            text_bytes += iri.len();
            d.encode(Term::iri(iri));
        }
        let heap = d.heap_bytes();
        assert!(heap > text_bytes, "footprint must include the text itself");
        assert!(
            heap < text_bytes + text_bytes / 2,
            "dictionary stores term text more than once: {heap} bytes of heap \
             for {text_bytes} bytes of text"
        );
    }

    /// The kept hashes are part of the footprint: 4 bytes a term.
    #[test]
    fn heap_bytes_counts_the_kept_hashes() {
        let mut d = Dictionary::with_capacity(1000);
        for i in 0..1000 {
            d.encode(Term::iri(format!("t{i}")));
        }
        let text: usize = d.terms.iter().map(|t| t.value().len()).sum();
        let expected = d.terms.capacity() * std::mem::size_of::<Term>()
            + text
            + d.hashes.capacity() * 4
            + d.index.capacity() * 4;
        assert_eq!(d.hashes.len(), 1000);
        assert_eq!(d.heap_bytes(), expected);
    }

    /// The hash must spread terms that differ only in their last bytes:
    /// 100 k LUBM-shaped IRIs that share a long prefix and differ in their
    /// trailing digits land on a short mean probe (a hash that ignored the
    /// tail would pile them into a few clusters).
    #[test]
    fn lubm_shaped_iris_probe_short() {
        let mut d = Dictionary::new();
        let mut iris = Vec::new();
        for u in 0..10 {
            for dep in 0..20 {
                for i in 0..500 {
                    iris.push(Term::iri(format!(
                        "http://www.Department{dep}.University{u}.edu/GraduateStudent{i}"
                    )));
                }
            }
        }
        for iri in &iris {
            d.encode(iri.clone());
        }
        assert_eq!(d.len(), 100_000);
        let mask = d.index.len() - 1;
        let probes: usize = d
            .hashes
            .iter()
            .enumerate()
            .map(|(id, &hash)| {
                let mut slot = Dictionary::home_slot(hash, d.index.len());
                let mut length = 1;
                while d.index[slot] != id as u32 + 1 {
                    slot = (slot + 1) & mask;
                    length += 1;
                }
                length
            })
            .sum();
        let mean = probes as f64 / d.len() as f64;
        // Linear probing at this load factor (≈ 0.76) averages ≈ 2.6 slots
        // for a uniform hash.
        assert!(mean < 3.5, "mean probe length {mean:.2}");
        for (id, iri) in iris.iter().enumerate() {
            assert_eq!(d.lookup(iri), Some(TermId(id as u32)));
        }
    }

    /// The hash is a fixed function of the kind and the text, not of the
    /// process or the platform.
    #[test]
    fn term_hash_is_stable() {
        assert_eq!(term_hash(&Term::iri("http://example.org/a")), 25_647_284);
        assert_eq!(term_hash(&Term::literal("")), 985_606_688);
        assert_eq!(term_hash(&Term::iri("caf\u{e9}")), 2_007_052_460);
        assert_ne!(term_hash(&Term::iri("v")), term_hash(&Term::literal("v")));
        assert_ne!(term_hash(&Term::iri("a")), term_hash(&Term::iri("a\0")));
        assert_ne!(term_hash(&Term::iri("")), term_hash(&Term::literal("")));
    }
}
