//! Bidirectional dictionary encoding of RDF terms.

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
/// the reverse direction is an open-addressing hash index whose slots hold
/// only term ids (id-keyed probing: a probe compares the query term against
/// `terms[id]`). The historical `HashMap<Term, TermId>` design stored every
/// string twice, doubling the dictionary's memory footprint — see
/// [`Dictionary::heap_bytes`] and the memory regression test.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Dictionary {
    terms: Vec<Term>,
    /// Open-addressing (linear probing) index: each slot stores `id + 1`,
    /// `0` meaning empty. The capacity is a power of two.
    index: Vec<u32>,
}

/// Two dictionaries are equal when they assign the same ids to the same
/// terms, i.e. their id-ordered term tables are equal. The hash index is an
/// acceleration structure whose slot layout depends on the growth history
/// (a bulk-loaded dictionary pre-sized with [`Dictionary::with_capacity`]
/// and an organically grown one can index the same mapping differently), so
/// it does not participate in equality.
impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.terms == other.terms
    }
}

impl Eq for Dictionary {}

/// A stable 64-bit hash of a term (FNV-1a over a kind tag plus the text),
/// independent of the process and platform.
fn term_hash(term: &Term) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let tag: u8 = if term.is_iri() { 1 } else { 2 };
    hash ^= u64::from(tag);
    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    for &byte in term.value().as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
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
    /// that many terms never pays a mid-load rehash (see
    /// [`reserve`](Self::reserve) and the `reserve_avoids_rehashing` test).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut dictionary = Self {
            terms: Vec::with_capacity(capacity),
            index: Vec::new(),
        };
        dictionary.rebuild_index(Self::slots_for(capacity));
        dictionary
    }

    /// Ensures the dictionary can take `additional` more distinct terms
    /// without growing: the term table reserves the extra slots and the hash
    /// index is rebuilt once at the final size (instead of paying a
    /// rehash-per-doubling while the terms stream in).
    pub fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        let slots = Self::slots_for(self.terms.len() + additional);
        if slots > self.index.len() {
            self.rebuild_index(slots);
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

    /// The slot `term` hashes to, or the empty slot where it would be
    /// inserted. The index is never full (load factor is kept below 7/8).
    fn probe(&self, term: &Term) -> usize {
        debug_assert!(self.index.len().is_power_of_two());
        let mask = self.index.len() - 1;
        let mut slot = (term_hash(term) as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return slot,
                stored => {
                    let id = TermId(stored - 1);
                    if self.terms[id.index()] == *term {
                        return slot;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index and re-inserts every id (terms are untouched).
    fn grow_index(&mut self) {
        self.rebuild_index((self.index.len() * 2).max(INITIAL_INDEX_CAPACITY));
    }

    /// Reallocates the index at `capacity` slots (a power of two) and
    /// re-inserts every id (terms are untouched).
    fn rebuild_index(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        self.index = vec![0; capacity];
        let mask = capacity - 1;
        for (position, term) in self.terms.iter().enumerate() {
            let mut slot = (term_hash(term) as usize) & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = position as u32 + 1;
        }
    }

    /// Encodes `term`, inserting it if it was not present, and returns its id.
    pub fn encode(&mut self, term: Term) -> TermId {
        if self.index.is_empty() || (self.terms.len() + 1) * 8 > self.index.len() * 7 {
            self.grow_index();
        }
        let slot = self.probe(&term);
        if self.index[slot] != 0 {
            return TermId(self.index[slot] - 1);
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("dictionary overflow"));
        self.index[slot] = id.0 + 1;
        self.terms.push(term);
        id
    }

    /// Looks up the id of `term` without inserting it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        if self.index.is_empty() {
            return None;
        }
        match self.index[self.probe(term)] {
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

    /// Consumes the dictionary and returns its id-ordered term table
    /// (`table[id]` is the term of `TermId(id)`).
    ///
    /// This is the hand-off used by the bulk loader's merge pass: a shard
    /// dictionary's terms are moved — not cloned — into the global
    /// dictionary (see [`crate::load::merge_dictionaries`]).
    pub fn into_terms(self) -> Vec<Term> {
        self.terms
    }

    /// Estimated heap footprint in bytes: the term table (one `Term` slot
    /// plus the text bytes per term, stored once) plus the 4-byte id slots
    /// of the hash index. String capacity is approximated by its length.
    pub fn heap_bytes(&self) -> usize {
        let term_slots = self.terms.capacity() * std::mem::size_of::<Term>();
        let text: usize = self.terms.iter().map(|t| t.value().len()).sum();
        let index = self.index.capacity() * std::mem::size_of::<u32>();
        term_slots + text + index
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

    /// Bulk loads size the index once: after `with_capacity(n)` (or a
    /// matching `reserve`), encoding `n` terms never reallocates the index,
    /// so the open-addressing table is built exactly once instead of once
    /// per doubling.
    #[test]
    fn reserve_avoids_rehashing() {
        let n = 10_000;
        let mut presized = Dictionary::with_capacity(n);
        let slots_before = presized.index.len();
        for i in 0..n {
            presized.encode(Term::iri(format!("http://example.org/{i}")));
        }
        assert_eq!(presized.index.len(), slots_before, "with_capacity rehashed");

        let mut reserved = Dictionary::new();
        for i in 0..100 {
            reserved.encode(Term::iri(format!("http://example.org/{i}")));
        }
        reserved.reserve(n - reserved.len());
        let slots_before = reserved.index.len();
        for i in 0..n {
            reserved.encode(Term::iri(format!("http://example.org/{i}")));
        }
        assert_eq!(reserved.index.len(), slots_before, "reserve rehashed");

        // Same mapping as an organically grown dictionary.
        let mut grown = Dictionary::new();
        for i in 0..n {
            grown.encode(Term::iri(format!("http://example.org/{i}")));
        }
        assert_eq!(presized, grown);
        assert_eq!(reserved, grown);
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
        assert_eq!(d.into_terms(), vec![Term::iri("a"), Term::literal("b")]);
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
}
