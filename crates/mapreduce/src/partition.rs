//! The CliqueSquare RDF partitioner (Section 5.1).
//!
//! The partitioner exploits the 3× replication of distributed file systems:
//! every triple is stored three times, placed on a compute node according to
//! its **subject**, **property** and **object** value respectively, so that
//! triples sharing a value in any position are co-located. Within a node,
//! triples are grouped into a *subject*, *property* and *object* partition
//! (according to the attribute that placed them), and each partition is
//! further split into one file per property value. Because most RDF datasets
//! have a very large `rdf:type` property, its file is additionally split by
//! object value. Each replica is built by one exact-size scatter
//! ([`PartitionedStore::build_with`]).
//!
//! The net effect is that every first-level join of a plan (s-s, s-o, p-o, …)
//! can be evaluated locally on each node (PWOC / co-located joins), and a
//! Match operator for a triple pattern with a constant property only reads
//! the files named after that property.
//!
//! Every file is stored sorted in the [`scan_order`] of its replica, so the
//! three replicas double as three indexes: a scan hands a file out as it is
//! stored, and a sorted set of values at any position is one equal range per
//! value, found by galloping in the replica placed by that position
//! ([`PartitionedStore::seek`]; a constant is the one-value set, and a set
//! of placement values is looked up in the scan's own replica).

use crate::runtime::Runtime;
use cliquesquare_rdf::{Graph, Term, TermId, Triple, TriplePosition};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Identifies one HDFS-style file within a compute node's local storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileKey {
    /// The placement attribute of the replica this file belongs to.
    pub placement: TriplePosition,
    /// The property value the file groups.
    pub property: TermId,
    /// For `rdf:type` files only: the object (class) value splitting the file.
    pub type_object: Option<TermId>,
}

impl FileKey {
    /// The file of `property` in the `placement` replica, narrowed to one
    /// class when `type_object` is set (the `rdf:type` files).
    pub fn new(placement: TriplePosition, property: TermId, type_object: Option<TermId>) -> Self {
        Self {
            placement,
            property,
            type_object,
        }
    }
}

/// Summary statistics of a partitioned store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementStats {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Triples in the source graph.
    pub source_triples: usize,
    /// Stored triples across all replicas (3× the source).
    pub stored_triples: usize,
    /// Total number of files across all nodes and placements.
    pub files: usize,
    /// Largest number of stored triples on any single node.
    pub max_node_load: usize,
    /// Smallest number of stored triples on any single node.
    pub min_node_load: usize,
}

impl PlacementStats {
    /// Load imbalance: max node load divided by the ideal (average) load.
    pub fn skew(&self) -> f64 {
        if self.stored_triples == 0 || self.nodes == 0 {
            return 1.0;
        }
        let ideal = self.stored_triples as f64 / self.nodes as f64;
        self.max_node_load as f64 / ideal
    }
}

/// The replicated, property-grouped triple store of the simulated cluster.
///
/// Equality compares the full per-node file maps (each file's triples in
/// stored order), which is what the bulk-load bit-identity tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedStore {
    nodes: usize,
    rdf_type: Option<TermId>,
    source_triples: usize,
    /// `files[node]` maps a file key to the triples stored in that file,
    /// sorted in the [`scan_order`] of the key's placement.
    files: Vec<NodeFiles>,
}

type NodeFiles = HashMap<FileKey, Vec<Triple>>;

/// The node of `nodes` a value places its triple on: [`node_of_hash`] of
/// its term id. Node ids stay `usize`: the partition count
/// ([`partitions_for`](crate::partitions_for)) passes 255 at 128 threads.
fn node_of(id: TermId, nodes: usize) -> usize {
    node_of_hash(u64::from(id.0), nodes)
}

/// The node of `nodes` that `hash` falls on, deterministically, so that
/// placement and the shuffle are reproducible across runs and platforms:
/// Fibonacci hashing — multiply by 2⁶⁴/φ, keep the high 32 bits — then
/// multiply-shift onto `0..nodes`. Every bit of `hash` moves the node, so
/// strided ids spread evenly. (Reducing the product modulo `nodes` reads
/// only its low bits, and the multiplier is odd: at 4 nodes that is
/// `id mod 4`.)
pub fn node_of_hash(hash: u64, nodes: usize) -> usize {
    let high = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    ((high * nodes as u64) >> 32) as usize
}

/// The index order [`ScanFiles::read`] delivers triples in for a replica of
/// `placement`: the placement position first (the value the partition is
/// grouped by), then the remaining positions in subject, property, object
/// order. Later positions repeat the placement position harmlessly —
/// ordering by an already-ordered position adds nothing.
///
/// The engine's interesting-orders pass reads this to tag leaf-scan outputs
/// with the ordering they already satisfy, so scans feeding a join on the
/// placement variable start pre-ordered for free.
pub fn scan_order(placement: TriplePosition) -> [TriplePosition; 4] {
    [
        placement,
        TriplePosition::Subject,
        TriplePosition::Property,
        TriplePosition::Object,
    ]
}

/// The sort key of [`scan_order`]: the placement value, then the triple.
/// A total order on triples, so sorting or merging by it has one result
/// whatever order the inputs arrive in.
fn scan_key(triple: &Triple, placement: TriplePosition) -> (TermId, Triple) {
    (triple.get(placement), *triple)
}

/// Sorts every file of one node's map into the scan order of its replica.
/// All triples of a file carry the file's property, so the order is decided
/// by the two other positions — the placement position first (the subject
/// leads a property-placed file) — which pack into one integer sort key.
fn sort_files(mut files: NodeFiles) -> NodeFiles {
    for (key, triples) in &mut files {
        let packed = |triple: &Triple| {
            let (major, minor) = match key.placement {
                TriplePosition::Object => (triple.object, triple.subject),
                _ => (triple.subject, triple.object),
            };
            u64::from(major.0) << 32 | u64::from(minor.0)
        };
        if !triples.is_sorted_by_key(packed) {
            triples.sort_unstable_by_key(packed);
        }
    }
    files
}

/// K-way merge of files that are each in `scan_order(placement)`.
fn merge_files(files: &[&[Triple]], placement: TriplePosition) -> Vec<Triple> {
    let entry = |file: usize, at: usize| {
        let triple = files[file].get(at)?;
        Some(Reverse((scan_key(triple, placement), file, at)))
    };
    let mut heap: BinaryHeap<_> = (0..files.len()).filter_map(|file| entry(file, 0)).collect();
    let mut out = Vec::with_capacity(files.iter().map(|file| file.len()).sum());
    while let Some(Reverse(((_, triple), file, at))) = heap.pop() {
        out.push(triple);
        heap.extend(entry(file, at + 1));
    }
    out
}

/// Index of the first element of `sorted` for which `before` no longer
/// holds, by exponential search from the front: `O(log answer)` probes, so
/// looking up an ascending key sequence from the previous hit costs the
/// logarithm of each gap and a dense sequence degrades to a linear pass.
fn gallop(sorted: &[Triple], before: impl Fn(&Triple) -> bool) -> usize {
    let mut bound = 1;
    while bound <= sorted.len() && before(&sorted[bound - 1]) {
        bound *= 2;
    }
    let from = bound / 2;
    from + sorted[from..bound.min(sorted.len())].partition_point(before)
}

/// Hands `found` each equal range of `file` — stored in
/// `scan_order(position)` — whose value at `position` is one of `keys`
/// (ascending), in key order, galloping over the file from the previous
/// key's hit.
fn equal_ranges<'a>(
    file: &'a [Triple],
    position: TriplePosition,
    keys: &[TermId],
    mut found: impl FnMut(&'a [Triple]),
) {
    let mut rest = file;
    for &key in keys {
        rest = &rest[gallop(rest, |triple| triple.get(position) < key)..];
        let equal = gallop(rest, |triple| triple.get(position) == key);
        found(&rest[..equal]);
        rest = &rest[equal..];
        if rest.is_empty() {
            break;
        }
    }
}

/// The files one scan reads on one node, each in `scan_order(placement)`.
#[derive(Debug)]
pub struct ScanFiles<'a> {
    placement: TriplePosition,
    files: Vec<&'a [Triple]>,
}

impl<'a> ScanFiles<'a> {
    /// Stored triples in the files: what [`read`](Self::read) returns.
    pub fn rows(&self) -> usize {
        self.files.iter().map(|file| file.len()).sum()
    }

    /// Every triple, in [`scan_order`]. One file is handed out as stored;
    /// several (a variable property, `rdf:type` without a class) are merged.
    pub fn read(&self) -> Cow<'a, [Triple]> {
        match self.files.as_slice() {
            [] => Cow::Borrowed(&[]),
            [file] => Cow::Borrowed(file),
            files => Cow::Owned(merge_files(files, self.placement)),
        }
    }
}

/// One task of the partition build: the `placement` replica, as each
/// node's files. Every `(node, file id)` slot is counted, allocated at its
/// exact size, filled in graph order and sorted in place.
fn scatter(
    triples: &[Triple],
    file_ids: &[u32],
    keys: &[(TermId, Option<TermId>)],
    placement: TriplePosition,
    nodes: usize,
) -> Vec<NodeFiles> {
    let slot = |(triple, &file): (&Triple, &u32)| {
        node_of(triple.get(placement), nodes) * keys.len() + file as usize
    };
    let mut counts = vec![0; nodes * keys.len()];
    for at in triples.iter().zip(file_ids) {
        counts[slot(at)] += 1;
    }
    let mut slots: Vec<Vec<Triple>> = counts.into_iter().map(Vec::with_capacity).collect();
    for at in triples.iter().zip(file_ids) {
        slots[slot(at)].push(*at.0);
    }
    let mut files = vec![NodeFiles::new(); nodes];
    for (at, triples) in slots.into_iter().enumerate() {
        let (property, class) = keys[at % keys.len()];
        if !triples.is_empty() {
            files[at / keys.len()].insert(FileKey::new(placement, property, class), triples);
        }
    }
    files.into_iter().map(sort_files).collect()
}

impl PartitionedStore {
    /// Partitions `graph` across `nodes` compute nodes.
    pub fn build(graph: &Graph, nodes: usize) -> Self {
        Self::build_with(graph, nodes, &Runtime::sequential())
    }

    /// Partitions `graph` across `nodes` compute nodes, building the store
    /// on `runtime`'s task waves.
    ///
    /// One wave, one task per placement. A pass over the graph first
    /// numbers every triple's file — its property, and its class if the
    /// property is `rdf:type` — in first-occurrence order, once for all
    /// three replicas. Each task then scatters the triples into files
    /// allocated at their exact size and sorts each into the [`scan_order`]
    /// of its replica; a node's map is the union of the three replicas'.
    /// Neither a file's triples nor the sort key depend on the thread
    /// count, so the store is bit-identical at any.
    pub fn build_with(graph: &Graph, nodes: usize, runtime: &Runtime) -> Self {
        let nodes = nodes.max(1);
        let rdf_type = graph.lookup(&Term::iri(cliquesquare_rdf::term::vocab::RDF_TYPE));
        let triples = graph.triples();
        // `seen[2 × p]` is one more than the file id of property `p`, and
        // `seen[2 × c + 1]` of rdf:type class `c`; 0 until first met. Every
        // id of a graph's triples is one of its dictionary's.
        let mut seen = vec![0; 2 * graph.dictionary().len()];
        let mut keys = Vec::new();
        let file_ids: Vec<u32> = triples
            .iter()
            .map(|triple| {
                let class = (Some(triple.property) == rdf_type).then_some(triple.object);
                let at = class.map_or(2 * triple.property.0 as usize, |c| 2 * c.0 as usize + 1);
                if seen[at] == 0 {
                    keys.push((triple.property, class));
                    seen[at] = keys.len() as u32;
                }
                seen[at] - 1
            })
            .collect();
        let (file_ids, keys) = (&file_ids, &keys);
        let replicas = runtime.run_wave(
            TriplePosition::ALL
                .map(|placement| move || scatter(triples, file_ids, keys, placement, nodes))
                .into(),
        );
        let mut files = vec![NodeFiles::new(); nodes];
        for replica in replicas {
            for (node, placed) in files.iter_mut().zip(replica) {
                node.extend(placed);
            }
        }
        Self {
            nodes,
            rdf_type,
            source_triples: graph.len(),
            files,
        }
    }

    /// Number of compute nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node holding the triples whose placement value is `value`, in
    /// every replica: the only node whose files a read of that key can
    /// find anything in.
    pub fn node_of(&self, value: TermId) -> usize {
        node_of(value, self.nodes)
    }

    /// The dictionary id of `rdf:type` in the source graph, if present.
    pub fn rdf_type(&self) -> Option<TermId> {
        self.rdf_type
    }

    /// Returns the triples of one file on one node (empty if absent).
    pub fn file(&self, node: usize, key: &FileKey) -> &[Triple] {
        self.files
            .get(node)
            .and_then(|m| m.get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The files of a single compute node that a scan of a triple-pattern
    /// access path reads (the per-node unit of work of a map task wave):
    ///
    /// * `placement` selects which replica to read (chosen from the join
    ///   variable position of the pattern, so the scan is co-located with
    ///   the first-level join).
    /// * `property = Some(p)` reads only the files named after `p`
    ///   (all files of the placement partition otherwise).
    /// * `type_object = Some(c)` additionally narrows an `rdf:type` scan to
    ///   the file of class `c`.
    ///
    /// [`ScanFiles::read`] returns the triples sorted placement-major — by
    /// the value of the `placement` position first, then by `(subject,
    /// property, object)` — i.e. in [`scan_order`]. This is the order the
    /// replica's files are stored in, and it is what lets a scan feeding a
    /// join on the placement variable start pre-ordered.
    pub fn scan_files(
        &self,
        node: usize,
        placement: TriplePosition,
        property: Option<TermId>,
        type_object: Option<TermId>,
    ) -> ScanFiles<'_> {
        let files = self.files.get(node).into_iter().flatten();
        ScanFiles {
            placement,
            files: files
                .filter(|(key, _)| {
                    key.placement == placement
                        && property.is_none_or(|p| key.property == p)
                        && type_object.is_none_or(|class| key.type_object == Some(class))
                })
                .map(|(_, triples)| triples.as_slice())
                .collect(),
        }
    }

    /// The triples of a scan that carry one of `keys` (ascending) at
    /// `position`, per compute node: node for node the rows, in the order,
    /// that filtering the node's [`ScanFiles::read`] by the key set gives —
    /// without reading the scan's files. Every such triple sits in the
    /// replica placed by `position`, on the node owning its key, as one
    /// equal range per key and matching file; the matches are routed to the
    /// nodes the `placement` replica keeps them on and sorted into its scan
    /// order. A residual constant is the one-key seek.
    pub fn seek(
        &self,
        placement: TriplePosition,
        property: Option<TermId>,
        type_object: Option<TermId>,
        position: TriplePosition,
        keys: &[TermId],
    ) -> Vec<Vec<Triple>> {
        debug_assert!(keys.is_sorted(), "seek keys ascend");
        let mut owned: Vec<Vec<TermId>> = vec![Vec::new(); self.nodes];
        for &key in keys {
            owned[node_of(key, self.nodes)].push(key);
        }
        let mut routed: Vec<Vec<Triple>> = vec![Vec::new(); self.nodes];
        for (owner, keys) in owned
            .iter()
            .enumerate()
            .filter(|(_, keys)| !keys.is_empty())
        {
            for file in self
                .scan_files(owner, position, property, type_object)
                .files
            {
                equal_ranges(file, position, keys, |range| {
                    for triple in range {
                        routed[node_of(triple.get(placement), self.nodes)].push(*triple);
                    }
                });
            }
        }
        for triples in &mut routed {
            triples.sort_unstable_by_key(|triple| scan_key(triple, placement));
        }
        routed
    }

    /// Total number of tuples a scan reads: the
    /// [`scan_files`](Self::scan_files) rows of every node.
    pub fn scan_cardinality(
        &self,
        placement: TriplePosition,
        property: Option<TermId>,
        type_object: Option<TermId>,
    ) -> usize {
        (0..self.nodes)
            .map(|node| {
                self.scan_files(node, placement, property, type_object)
                    .rows()
            })
            .sum()
    }

    /// Computes summary statistics of the placement.
    pub fn stats(&self) -> PlacementStats {
        let loads: Vec<usize> = self
            .files
            .iter()
            .map(|m| m.values().map(Vec::len).sum())
            .collect();
        PlacementStats {
            nodes: self.nodes,
            source_triples: self.source_triples,
            stored_triples: loads.iter().sum(),
            files: self.files.iter().map(HashMap::len).sum(),
            max_node_load: loads.iter().copied().max().unwrap_or(0),
            min_node_load: loads.iter().copied().min().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_rdf::term::vocab;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use std::collections::HashSet;

    fn store(nodes: usize) -> (Graph, PartitionedStore) {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let store = PartitionedStore::build(&graph, nodes);
        (graph, store)
    }

    /// A seek of placement values finds each triple on the node its key is
    /// placed on: the keys one node owns are that node's whole read and
    /// nothing on any other, and every key at once is every node's read.
    #[test]
    fn placement_seeks_find_each_key_on_its_own_node() {
        let (graph, store) = store(4);
        let takes = graph.lookup(&Term::iri(vocab::ub("takesCourse")));
        let subject = TriplePosition::Subject;
        let read = |node| {
            store
                .scan_files(node, subject, takes, None)
                .read()
                .into_owned()
        };
        let full: Vec<Vec<Triple>> = (0..store.nodes()).map(read).collect();
        let mut subjects: Vec<TermId> = full.iter().flatten().map(|t| t.subject).collect();
        subjects.sort_unstable();
        subjects.dedup();
        assert_eq!(store.seek(subject, takes, None, subject, &subjects), full);
        for (node, read) in full.iter().enumerate() {
            let own: Vec<TermId> = (subjects.iter().copied())
                .filter(|&key| store.node_of(key) == node)
                .collect();
            assert!(!own.is_empty() && own.len() < subjects.len(), "node {node}");
            let sought = store.seek(subject, takes, None, subject, &own);
            for (at, triples) in sought.iter().enumerate() {
                let expected = if at == node { &read[..] } else { &[] };
                assert_eq!(triples, expected, "keys of node {node}, node {at}");
            }
        }
    }

    /// Placement spreads strided ids evenly: ids `k · stride` for strides
    /// 1, 2, 4 and 8, over 2, 4, 7 and 8 nodes, put at most 1.1 times its
    /// share on any node. (The hash read modulo the node count put every
    /// id of stride 4 on one node at 4 nodes.)
    #[test]
    fn strided_ids_spread_evenly_over_the_nodes() {
        const IDS: u64 = 10_000;
        for stride in [1, 2, 4, 8] {
            for nodes in [2usize, 4, 7, 8] {
                let mut load = vec![0u64; nodes];
                for k in 0..IDS {
                    load[node_of(TermId((k * stride) as u32), nodes)] += 1;
                }
                let share = IDS as f64 / nodes as f64;
                let most = *load.iter().max().unwrap() as f64;
                assert!(
                    most <= 1.1 * share,
                    "stride {stride}, {nodes} nodes: {load:?}"
                );
            }
        }
    }

    #[test]
    fn every_triple_is_stored_three_times() {
        let (graph, store) = store(4);
        let stats = store.stats();
        assert_eq!(stats.source_triples, graph.len());
        assert_eq!(stats.stored_triples, graph.len() * 3);
        assert_eq!(stats.nodes, 4);
        assert!(stats.files > 0);
        assert!(stats.skew() >= 1.0);
    }

    #[test]
    fn property_scan_matches_graph_cardinality() {
        let (graph, store) = store(4);
        let works_for = graph.lookup(&Term::iri(vocab::ub("worksFor"))).unwrap();
        let expected = graph.match_pattern(None, Some(works_for), None).count();
        for placement in TriplePosition::ALL {
            let scanned = store.scan_cardinality(placement, Some(works_for), None);
            assert_eq!(scanned, expected, "placement {placement}");
        }
    }

    #[test]
    fn rdf_type_files_are_split_by_class() {
        let (graph, store) = store(3);
        let rdf_type = store.rdf_type().unwrap();
        let grad = graph
            .lookup(&Term::iri(vocab::ub("GraduateStudent")))
            .unwrap();
        let narrowed = store.scan_cardinality(TriplePosition::Subject, Some(rdf_type), Some(grad));
        let all_types = store.scan_cardinality(TriplePosition::Subject, Some(rdf_type), None);
        assert!(narrowed > 0);
        assert!(narrowed < all_types);
        let expected = graph
            .match_pattern(None, Some(rdf_type), Some(grad))
            .count();
        assert_eq!(narrowed, expected);
    }

    #[test]
    fn subject_placement_colocates_subject_joins() {
        // All triples sharing a subject land on the same node in the
        // subject-placement replica: a subject-subject join is PWOC.
        let (graph, store) = store(5);
        let mut subject_to_node: HashMap<TermId, usize> = HashMap::new();
        for node in 0..store.nodes() {
            for (key, triples) in &store.files[node] {
                if key.placement != TriplePosition::Subject {
                    continue;
                }
                for t in triples {
                    let prev = subject_to_node.insert(t.subject, node);
                    if let Some(prev_node) = prev {
                        assert_eq!(prev_node, node, "subject split across nodes");
                    }
                }
            }
        }
        assert!(!subject_to_node.is_empty());
        let subjects: HashSet<TermId> = graph.triples().iter().map(|t| t.subject).collect();
        assert_eq!(subject_to_node.len(), subjects.len());
    }

    #[test]
    fn object_placement_colocates_object_joins() {
        let (_, store) = store(5);
        let mut object_to_node: HashMap<TermId, usize> = HashMap::new();
        for node in 0..store.nodes() {
            for (key, triples) in &store.files[node] {
                if key.placement != TriplePosition::Object {
                    continue;
                }
                for t in triples {
                    let prev = object_to_node.insert(t.object, node);
                    if let Some(prev_node) = prev {
                        assert_eq!(prev_node, node, "object split across nodes");
                    }
                }
            }
        }
        assert!(!object_to_node.is_empty());
    }

    #[test]
    fn full_scan_reads_everything_once_per_placement() {
        let (graph, store) = store(2);
        for placement in TriplePosition::ALL {
            assert_eq!(store.scan_cardinality(placement, None, None), graph.len());
        }
    }

    #[test]
    fn unknown_property_scan_is_empty() {
        let (_, store) = store(2);
        assert_eq!(
            store.scan_cardinality(TriplePosition::Subject, Some(TermId(999_999)), None),
            0
        );
    }

    #[test]
    fn single_node_store_is_supported() {
        let (graph, store) = store(1);
        assert_eq!(store.nodes(), 1);
        assert_eq!(store.stats().stored_triples, graph.len() * 3);
    }

    /// Every stored file is in the scan order of its replica whatever the
    /// build's thread count, and [`ScanFiles::read`] delivers triples
    /// placement-major — sorted by the value at the replica's placement
    /// position first, then by the full triple — also where it merges
    /// several files (no property, or `rdf:type` without a class).
    #[test]
    fn files_and_scans_are_in_placement_major_order() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let placement_major = |triples: &[Triple], placement| {
            triples.is_sorted_by_key(|triple| scan_key(triple, placement))
        };
        for threads in [1, 2, 8] {
            let store = PartitionedStore::build_with(&graph, 3, &Runtime::with_threads(threads));
            let rdf_type = store.rdf_type();
            for (node, files) in store.files.iter().enumerate() {
                for (key, triples) in files {
                    assert!(
                        placement_major(triples, key.placement),
                        "threads={threads} node {node} file {key:?} not in scan order"
                    );
                }
            }
            let mut merged = 0;
            for placement in TriplePosition::ALL {
                assert_eq!(scan_order(placement)[0], placement);
                for node in 0..store.nodes() {
                    for property in [None, rdf_type] {
                        let files = store.scan_files(node, placement, property, None);
                        merged += usize::from(files.files.len() > 1);
                        let triples = files.read();
                        assert_eq!(triples.len(), files.rows());
                        assert!(
                            placement_major(&triples, placement),
                            "node {node} scan of {placement} replica not placement-major sorted"
                        );
                    }
                }
            }
            assert!(merged >= 6, "scans of several files: {merged}");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let a = PartitionedStore::build(&graph, 4);
        let b = PartitionedStore::build(&graph, 4);
        for placement in TriplePosition::ALL {
            for node in 0..4 {
                let read = |store: &PartitionedStore| {
                    store
                        .scan_files(node, placement, None, None)
                        .read()
                        .into_owned()
                };
                assert_eq!(read(&a), read(&b));
            }
        }
    }

    /// The parallel build (the placement tasks on several threads) is
    /// bit-identical to the sequential one: same file keys, same triples
    /// per file, in the same stored order.
    #[test]
    fn parallel_build_is_bit_identical() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let sequential = PartitionedStore::build(&graph, 5);
        for threads in [1, 2, 8] {
            let parallel = PartitionedStore::build_with(&graph, 5, &Runtime::with_threads(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
            assert_eq!(parallel.stats(), sequential.stats(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_build_of_tiny_graphs_is_supported() {
        let mut graph = Graph::new();
        graph.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"));
        let parallel = PartitionedStore::build_with(&graph, 3, &Runtime::with_threads(4));
        assert_eq!(parallel, PartitionedStore::build(&graph, 3));
        let empty = Graph::new();
        let store = PartitionedStore::build_with(&empty, 3, &Runtime::with_threads(4));
        assert_eq!(store.stats().stored_triples, 0);
        assert_eq!(store, PartitionedStore::build(&empty, 3));
    }

    /// Partition ids are not narrowed: at 300 partitions, more than
    /// `u8::MAX`, every replica places each triple on the node its value
    /// hashes to, nodes past 255 included. Two threads run the build's
    /// three tasks.
    #[test]
    fn partitions_past_255_are_placed() {
        let mut graph = Graph::new();
        for i in 0..2_000 {
            let subject = Term::iri(format!("s{i}"));
            graph.insert_terms(subject, Term::iri("p"), Term::iri(format!("o{}", i % 7)));
        }
        let store = PartitionedStore::build_with(&graph, 300, &Runtime::with_threads(2));
        assert_eq!(store, PartitionedStore::build(&graph, 300));
        assert_eq!(store.stats().stored_triples, 3 * graph.len());
        let mut past_255 = 0;
        for (node, files) in store.files.iter().enumerate() {
            for (key, triples) in files {
                for triple in triples {
                    assert_eq!(store.node_of(triple.get(key.placement)), node);
                }
                past_255 += if node > 255 { triples.len() } else { 0 };
            }
        }
        assert!(past_255 > 0);
    }
}
