//! The eight clique-decomposition variants and their enumeration
//! (Section 4.3).
//!
//! A decomposition method is determined by three independent choices:
//!
//! 1. **maximal** cliques only (`+` suffix) vs. **partial** cliques,
//! 2. **exact** covers (`XC`) vs. **simple** covers (`SC`),
//! 3. **minimum-size** covers only (`M` prefix) vs. all covers,
//!
//! giving the variants MXC+, XC+, MSC+, SC+, MXC, XC, MSC and SC.
//!
//! Cover enumeration follows the classic branching on the lowest uncovered
//! node, which enumerates every *irredundant* cover exactly once (a cover is
//! irredundant if every clique contributes at least one otherwise-uncovered
//! node). Covers containing fully redundant cliques add no new joins and are
//! deliberately not enumerated; this matches the intent of Definition 3.3,
//! which requires decompositions to strictly shrink the graph.

use crate::clique::{Clique, Decomposition};
use crate::variable_graph::VariableGraph;
use cliquesquare_sparql::Variable;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// One of the eight CliqueSquare decomposition variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Variant {
    /// Minimum exact covers of maximal cliques.
    MxcPlus,
    /// Exact covers of maximal cliques.
    XcPlus,
    /// Minimum simple covers of maximal cliques.
    MscPlus,
    /// Simple covers of maximal cliques.
    ScPlus,
    /// Minimum exact covers of partial cliques.
    Mxc,
    /// Exact covers of partial cliques.
    Xc,
    /// Minimum simple covers of partial cliques (the paper's recommended
    /// variant).
    Msc,
    /// Simple covers of partial cliques (the complete, largest search space).
    Sc,
}

impl Variant {
    /// All eight variants in the order used by the paper's tables.
    pub const ALL: [Variant; 8] = [
        Variant::MxcPlus,
        Variant::XcPlus,
        Variant::MscPlus,
        Variant::ScPlus,
        Variant::Mxc,
        Variant::Xc,
        Variant::Msc,
        Variant::Sc,
    ];

    /// Returns `true` if the variant only uses maximal cliques.
    pub fn maximal_only(self) -> bool {
        matches!(
            self,
            Variant::MxcPlus | Variant::XcPlus | Variant::MscPlus | Variant::ScPlus
        )
    }

    /// Returns `true` if the variant requires exact (disjoint) covers.
    pub fn exact_cover(self) -> bool {
        matches!(
            self,
            Variant::MxcPlus | Variant::XcPlus | Variant::Mxc | Variant::Xc
        )
    }

    /// Returns `true` if the variant keeps only minimum-size covers.
    pub fn minimum_only(self) -> bool {
        matches!(
            self,
            Variant::MxcPlus | Variant::MscPlus | Variant::Mxc | Variant::Msc
        )
    }

    /// The paper's name for the variant (e.g. `"MSC+"`).
    pub fn name(self) -> &'static str {
        match self {
            Variant::MxcPlus => "MXC+",
            Variant::XcPlus => "XC+",
            Variant::MscPlus => "MSC+",
            Variant::ScPlus => "SC+",
            Variant::Mxc => "MXC",
            Variant::Xc => "XC",
            Variant::Msc => "MSC",
            Variant::Sc => "SC",
        }
    }

    /// Parses a variant from the paper's name (case-insensitive).
    pub fn parse(name: &str) -> Option<Variant> {
        let normalized = name.trim().to_ascii_uppercase();
        Variant::ALL.into_iter().find(|v| v.name() == normalized)
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Enumeration limits protecting against the exponential variants (SC, XC).
///
/// The paper stops each optimization run after a 100-second timeout; we use
/// explicit counts instead so results stay deterministic across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecompositionLimits {
    /// Maximum number of decompositions returned for a single graph.
    pub max_decompositions: usize,
    /// Maximum number of partial candidate cliques generated for a single
    /// graph. Every maximal clique is a candidate even past it.
    pub max_candidate_cliques: usize,
}

impl Default for DecompositionLimits {
    fn default() -> Self {
        Self {
            max_decompositions: 20_000,
            max_candidate_cliques: 50_000,
        }
    }
}

impl DecompositionLimits {
    /// Effectively unlimited enumeration (use only on small queries).
    pub fn unlimited() -> Self {
        Self {
            max_decompositions: usize::MAX,
            max_candidate_cliques: usize::MAX,
        }
    }
}

/// A set of graph nodes as a bitset of any width: node `i` is bit `i % 64`
/// of word `i / 64`. Sets of one graph have the same number of words, so
/// equal sets are equal vectors. Ordered as a `BTreeSet<usize>` of the
/// same nodes is: by their ascending members, lexicographically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NodeSet(Vec<u64>);

impl NodeSet {
    /// The empty set of a graph of `n` nodes.
    fn empty(n: usize) -> Self {
        NodeSet(vec![0; n.div_ceil(64)])
    }

    /// The set of `nodes`, of a graph of `n` nodes.
    fn of(n: usize, nodes: impl IntoIterator<Item = usize>) -> Self {
        let mut set = Self::empty(n);
        for node in nodes {
            set.0[node / 64] |= 1 << (node % 64);
        }
        set
    }

    fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (self.0.iter().enumerate()).flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    at * 64 + bit
                })
            })
        })
    }

    fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & b == 0)
    }

    /// The lowest node of `0..n` not in the set, if any.
    fn first_missing(&self, n: usize) -> Option<usize> {
        let at = self.0.iter().position(|&word| word != u64::MAX)?;
        let node = at * 64 + self.0[at].trailing_ones() as usize;
        (node < n).then_some(node)
    }

    /// Makes the set `a ∪ b`.
    fn set_union(&mut self, a: &NodeSet, b: &NodeSet) {
        for ((word, a), b) in self.0.iter_mut().zip(&a.0).zip(&b.0) {
            *word = a | b;
        }
    }
}

impl Ord for NodeSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for NodeSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A candidate clique used during cover enumeration.
#[derive(Debug, Clone)]
struct Candidate {
    variable: Variable,
    nodes: NodeSet,
}

/// Generates the candidate cliques for `graph` under `variant`.
///
/// For `+` variants these are exactly the maximal cliques; otherwise every
/// non-empty subset of each maximal clique is a candidate (Definition 3.2).
/// Candidates with identical node sets are deduplicated, keeping the first
/// generating variable: the induced join is identical either way.
///
/// Partial cliques stop at [`DecompositionLimits::max_candidate_cliques`].
/// A maximal clique's subsets come in mask order, the full clique last, so
/// when the cap cuts the enumeration every maximal clique not generated yet
/// is appended after it: the graph keeps its largest cliques, and with them
/// a decomposition for every connected graph, even when the cap falls
/// before the first subset holding a clique's last members.
fn candidate_cliques(
    graph: &VariableGraph,
    variant: Variant,
    limits: &DecompositionLimits,
) -> Vec<Candidate> {
    let n = graph.len();
    let mut seen: HashSet<NodeSet> = HashSet::new();
    let mut candidates = Vec::new();
    let mut capped = false;
    for (variable, maximal) in graph.maximal_cliques() {
        let members: Vec<usize> = maximal.into_iter().collect();
        if !variant.maximal_only() && !capped {
            // Partial cliques: all non-empty subsets of the maximal clique,
            // in mask order. A member past the word's bits is in no mask the
            // cap lets through, so its bit reads as zero instead of shifting
            // out of the word.
            let word = usize::BITS as usize;
            let last_mask = if members.len() < word {
                (1usize << members.len()) - 1
            } else {
                usize::MAX
            };
            for mask in 1..=last_mask {
                let nodes = NodeSet::of(
                    n,
                    (members.iter().enumerate())
                        .filter(|&(bit, _)| bit < word && (mask >> bit) & 1 != 0)
                        .map(|(_, &node)| node),
                );
                if seen.insert(nodes.clone()) {
                    candidates.push(Candidate {
                        variable: variable.clone(),
                        nodes,
                    });
                }
                if candidates.len() >= limits.max_candidate_cliques {
                    capped = true;
                    break;
                }
            }
        }
        // The maximal clique itself: already generated as the last mask
        // unless the cap cut its subsets (or this variant takes no others).
        let maximal = NodeSet::of(n, members);
        if !seen.contains(&maximal) {
            seen.insert(maximal.clone());
            candidates.push(Candidate {
                variable,
                nodes: maximal,
            });
        }
    }
    candidates
}

/// Enumerates the clique decompositions of `graph` for the given `variant`.
///
/// Returns an empty vector when no valid decomposition exists (which is how
/// MXC+ and XC+ fail on queries like Figure 10) or when the graph has fewer
/// than two nodes.
pub fn decompositions(
    graph: &VariableGraph,
    variant: Variant,
    limits: &DecompositionLimits,
) -> Vec<Decomposition> {
    let n = graph.len();
    if n < 2 {
        return Vec::new();
    }
    let mut candidates = candidate_cliques(graph, variant, limits);
    if candidates.is_empty() {
        return Vec::new();
    }
    // Try large cliques first: small covers are then found early, which both
    // speeds up the search and keeps it correct under the enumeration cap.
    candidates.sort_by(|a, b| {
        b.nodes
            .len()
            .cmp(&a.nodes.len())
            .then(a.nodes.cmp(&b.nodes))
    });

    // node -> candidate indices containing it
    let mut containing: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, cand) in candidates.iter().enumerate() {
        for node in cand.nodes.iter() {
            containing[node].push(ci);
        }
    }
    // A node mentioned by no candidate can never be covered.
    if containing.iter().any(Vec::is_empty) {
        return Vec::new();
    }

    let max_cover_size = n - 1; // Definition 3.3: |D| < |N|
    let mut search = CoverSearch {
        candidates: &candidates,
        containing: &containing,
        n,
        exact: variant.exact_cover(),
        max_size: max_cover_size,
        max_covers: limits.max_decompositions,
        chosen: Vec::new(),
        covered: vec![NodeSet::empty(n); n + 1],
        covers: Vec::new(),
    };
    if variant.minimum_only() {
        // Iterative deepening on the cover size: the first size that admits a
        // cover is the minimum, and bounding the depth keeps the search exact
        // even for queries on which unbounded enumeration would be capped.
        for size in 1..=max_cover_size {
            search.max_size = size;
            search.enumerate(0);
            if !search.covers.is_empty() {
                break;
            }
        }
        // Deepening can admit covers smaller than the bound on later levels of
        // the recursion, but by construction the first non-empty level only
        // contains minimum-size covers; keep the filter as a safety net.
        if let Some(min_size) = search.covers.iter().map(Vec::len).min() {
            search.covers.retain(|c| c.len() == min_size);
        }
    } else {
        search.enumerate(0);
    }

    (search.covers.into_iter())
        .map(|cover| {
            Decomposition::new(
                cover
                    .into_iter()
                    .map(|ci| {
                        Clique::new(candidates[ci].variable.clone(), candidates[ci].nodes.iter())
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The enumeration of irredundant covers of one graph by its candidates.
struct CoverSearch<'c> {
    candidates: &'c [Candidate],
    /// Per node, the candidates containing it.
    containing: &'c [Vec<usize>],
    n: usize,
    exact: bool,
    max_size: usize,
    max_covers: usize,
    /// The candidates of the cover being built.
    chosen: Vec<usize>,
    /// `covered[d]`: the nodes the first `d` chosen candidates cover.
    covered: Vec<NodeSet>,
    covers: Vec<Vec<usize>>,
}

impl CoverSearch<'_> {
    /// Recursive enumeration of irredundant covers, `depth` candidates
    /// chosen: branch on the candidates containing the lowest uncovered
    /// node. Each irredundant cover is produced exactly once because the
    /// order in which its cliques are selected is uniquely determined by
    /// that rule.
    fn enumerate(&mut self, depth: usize) {
        if self.covers.len() >= self.max_covers {
            return;
        }
        let Some(next) = self.covered[depth].first_missing(self.n) else {
            if self.chosen.len() <= self.max_size {
                self.covers.push(self.chosen.clone());
            }
            return;
        };
        if self.chosen.len() >= self.max_size {
            return; // cannot add more cliques and still satisfy |D| < |N|
        }
        for &ci in &self.containing[next] {
            let cand = &self.candidates[ci].nodes;
            if self.exact && !cand.is_disjoint(&self.covered[depth]) {
                continue;
            }
            let (here, below) = self.covered.split_at_mut(depth + 1);
            below[0].set_union(&here[depth], cand);
            self.chosen.push(ci);
            self.enumerate(depth + 1);
            self.chosen.pop();
            if self.covers.len() >= self.max_covers {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_examples;
    use cliquesquare_querygen::SyntheticWorkload;
    use std::collections::BTreeSet;

    fn graph(q: &cliquesquare_sparql::BgpQuery) -> VariableGraph {
        VariableGraph::from_query(q)
    }

    #[test]
    fn variant_flags_and_names() {
        assert!(Variant::MxcPlus.maximal_only());
        assert!(Variant::MxcPlus.exact_cover());
        assert!(Variant::MxcPlus.minimum_only());
        assert!(!Variant::Sc.maximal_only());
        assert!(!Variant::Sc.exact_cover());
        assert!(!Variant::Sc.minimum_only());
        assert_eq!(Variant::MscPlus.name(), "MSC+");
        assert_eq!(Variant::parse("msc+"), Some(Variant::MscPlus));
        assert_eq!(Variant::parse("SC"), Some(Variant::Sc));
        assert_eq!(Variant::parse("bogus"), None);
        assert_eq!(Variant::ALL.len(), 8);
        assert_eq!(Variant::Msc.to_string(), "MSC");
    }

    #[test]
    fn figure10_mxc_plus_and_xc_plus_find_no_decomposition() {
        // The maximal cliques {t1,t2} and {t2,t3} overlap on t2, so no exact
        // cover made only of maximal cliques exists (Section 4.4).
        let g = graph(&paper_examples::figure10_query());
        assert!(decompositions(&g, Variant::MxcPlus, &DecompositionLimits::default()).is_empty());
        assert!(decompositions(&g, Variant::XcPlus, &DecompositionLimits::default()).is_empty());
    }

    #[test]
    fn figure10_msc_plus_finds_the_overlapping_cover() {
        let g = graph(&paper_examples::figure10_query());
        let decs = decompositions(&g, Variant::MscPlus, &DecompositionLimits::default());
        assert_eq!(decs.len(), 1);
        assert_eq!(decs[0].len(), 2);
        assert!(!decs[0].is_exact());
    }

    #[test]
    fn figure10_sc_contains_partial_cover_used_in_proof() {
        // {{t1,t2},{t3}} is the partial-clique cover used in the SC+ proof.
        let g = graph(&paper_examples::figure10_query());
        let decs = decompositions(&g, Variant::Sc, &DecompositionLimits::default());
        let target: Vec<BTreeSet<usize>> = vec![BTreeSet::from([0, 1]), BTreeSet::from([2])];
        assert!(decs.iter().any(|d| d.signature() == target));
        // SC also contains the MSC+ cover.
        let overlap: Vec<BTreeSet<usize>> = vec![BTreeSet::from([0, 1]), BTreeSet::from([1, 2])];
        assert!(decs.iter().any(|d| d.signature() == overlap));
    }

    #[test]
    fn all_decompositions_are_valid() {
        for query in paper_examples::all() {
            let g = graph(&query);
            for variant in Variant::ALL {
                for d in decompositions(&g, variant, &DecompositionLimits::default()) {
                    assert!(
                        d.is_valid_for(&g),
                        "{variant} produced invalid {d} for {}",
                        query.name()
                    );
                    if variant.exact_cover() {
                        assert!(d.is_exact(), "{variant} produced non-exact {d}");
                    }
                    if variant.maximal_only() {
                        let maximal = g.maximal_cliques();
                        for c in &d.cliques {
                            assert!(
                                maximal.values().any(|m| *m == c.nodes),
                                "{variant} produced non-maximal clique {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn minimum_variants_only_return_smallest_covers() {
        for query in paper_examples::all() {
            let g = graph(&query);
            for (min_variant, all_variant) in [
                (Variant::Msc, Variant::Sc),
                (Variant::MscPlus, Variant::ScPlus),
                (Variant::Mxc, Variant::Xc),
                (Variant::MxcPlus, Variant::XcPlus),
            ] {
                let min_decs = decompositions(&g, min_variant, &DecompositionLimits::default());
                let all_decs = decompositions(&g, all_variant, &DecompositionLimits::default());
                if let Some(global_min) = all_decs.iter().map(Decomposition::len).min() {
                    for d in &min_decs {
                        assert_eq!(d.len(), global_min);
                    }
                }
                // Every minimum cover is also in the unrestricted space.
                for d in &min_decs {
                    assert!(all_decs.iter().any(|o| o.signature() == d.signature()));
                }
            }
        }
    }

    #[test]
    fn maximal_spaces_are_subsets_of_partial_spaces() {
        // Restricted to the small example queries: on Figure 1's Q1 the
        // unrestricted SC enumeration hits the decomposition cap, which would
        // make the inclusion comparison meaningless.
        let queries = [
            paper_examples::figure10_query(),
            paper_examples::figure11_qx(),
            paper_examples::figure14_query(),
        ];
        for query in queries {
            let g = graph(&query);
            for (plus, full) in [
                (Variant::ScPlus, Variant::Sc),
                (Variant::XcPlus, Variant::Xc),
            ] {
                let plus_sigs: BTreeSet<_> =
                    decompositions(&g, plus, &DecompositionLimits::default())
                        .iter()
                        .map(Decomposition::signature)
                        .collect();
                let full_sigs: BTreeSet<_> =
                    decompositions(&g, full, &DecompositionLimits::default())
                        .iter()
                        .map(Decomposition::signature)
                        .collect();
                assert!(
                    plus_sigs.is_subset(&full_sigs),
                    "{plus} ⊄ {full} on {}",
                    query.name()
                );
            }
        }
    }

    #[test]
    fn star_query_has_single_minimum_decomposition() {
        let q = cliquesquare_sparql::parser::parse_query(
            "SELECT ?x WHERE { ?x ub:p1 ?a . ?x ub:p2 ?b . ?x ub:p3 ?c . ?x ub:p4 ?d }",
        )
        .unwrap();
        let g = graph(&q);
        for variant in [
            Variant::Msc,
            Variant::MscPlus,
            Variant::Mxc,
            Variant::MxcPlus,
        ] {
            let decs = decompositions(&g, variant, &DecompositionLimits::default());
            assert_eq!(decs.len(), 1, "{variant}");
            assert_eq!(decs[0].len(), 1);
            assert_eq!(decs[0].cliques[0].len(), 4);
        }
    }

    #[test]
    fn limits_cap_enumeration() {
        let g = graph(&paper_examples::figure1_q1());
        let limits = DecompositionLimits {
            max_decompositions: 5,
            max_candidate_cliques: 100,
        };
        let decs = decompositions(&g, Variant::Sc, &limits);
        assert!(decs.len() <= 5);
        assert!(!decs.is_empty());
    }

    #[test]
    fn a_capped_enumeration_keeps_every_maximal_clique() {
        // 16 arms: 65 535 subsets, cut at 50 000 before the full clique.
        // 64 and 70 arms: more members than a mask has bits.
        for arms in [16, 17, 64, 70] {
            let g = graph(&SyntheticWorkload::fanout_star(arms));
            let full: BTreeSet<usize> = (0..arms).collect();
            let limits = DecompositionLimits::default();
            let candidates = candidate_cliques(&g, Variant::Msc, &limits);
            assert_eq!(candidates.len(), limits.max_candidate_cliques + 1, "{arms}");
            let last = candidates.last().map(|c| c.nodes.iter().collect());
            assert_eq!(last, Some(full.clone()), "{arms}");
            let decs = decompositions(&g, Variant::Msc, &limits);
            assert_eq!(decs.len(), 1, "{arms}");
            assert_eq!(decs[0].cliques[0].nodes, full, "{arms}");
        }
    }

    #[test]
    fn graphs_under_the_cap_keep_their_exact_candidates() {
        // 15 arms: all 32 767 subsets fit under the cap, full clique last.
        let g = graph(&SyntheticWorkload::fanout_star(15));
        let candidates = candidate_cliques(&g, Variant::Msc, &DecompositionLimits::default());
        assert_eq!(candidates.len(), (1 << 15) - 1);
        assert_eq!(candidates.last().map(|c| c.nodes.len()), Some(15));
        // The cap cuts one clique's subsets, the other maximal cliques follow
        // whole: Figure 1's Q1 under a cap of 10.
        let q1 = graph(&paper_examples::figure1_q1());
        let limits = DecompositionLimits {
            max_decompositions: 5,
            max_candidate_cliques: 10,
        };
        let candidates = candidate_cliques(&q1, Variant::Sc, &limits);
        for maximal in q1.maximal_cliques().values() {
            assert!(candidates
                .iter()
                .any(|c| c.nodes.iter().eq(maximal.iter().copied())));
        }
    }

    #[test]
    fn single_node_graph_has_no_decomposition() {
        let q = cliquesquare_sparql::parser::parse_query("SELECT ?a WHERE { ?a ub:p ?b }").unwrap();
        let g = graph(&q);
        assert!(decompositions(&g, Variant::Msc, &DecompositionLimits::default()).is_empty());
    }

    /// FNV-1a over the `Debug` text of the decompositions of every distinct
    /// graph the reductions reach from each query's graph (depth first, in
    /// decomposition order, at most `max_graphs` graphs per query), under
    /// `variant` and `limits`.
    fn decomposition_digest(
        queries: &[cliquesquare_sparql::BgpQuery],
        variant: Variant,
        limits: &DecompositionLimits,
        max_graphs: usize,
    ) -> u64 {
        fn visit(
            graph: &VariableGraph,
            variant: Variant,
            limits: &DecompositionLimits,
            max_graphs: usize,
            seen: &mut BTreeSet<Vec<BTreeSet<usize>>>,
            digest: &mut u64,
        ) {
            let decs = decompositions(graph, variant, limits);
            for byte in format!("{decs:?}").bytes() {
                *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
            for d in &decs {
                let child = crate::clique::reduce(graph, d);
                let key = child.nodes().iter().map(|n| n.patterns.clone()).collect();
                if child.len() > 1 && seen.len() < max_graphs && seen.insert(key) {
                    visit(&child, variant, limits, max_graphs, seen, digest);
                }
            }
        }
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for query in queries {
            let mut seen = BTreeSet::new();
            let graph = VariableGraph::from_query(query);
            visit(&graph, variant, limits, max_graphs, &mut seen, &mut digest);
        }
        digest
    }

    /// The decompositions of every graph the search reaches from the paper
    /// examples, LUBM Q1–Q14, SP²B S1–S6 and synthetic shapes of 2–10
    /// patterns, under all eight variants, are pinned text for text and in
    /// order: candidate order, the candidate cap and cover order are part
    /// of what `Optimizer::optimize` returns. The exhaustive variants run
    /// under small limits, which also pins where the caps cut.
    #[test]
    fn decompositions_match_their_pinned_digest() {
        use cliquesquare_querygen::{lubm_queries, sp2b_queries, WorkloadConfig};
        let mut queries = paper_examples::all();
        queries.extend(lubm_queries());
        queries.extend(sp2b_queries());
        queries.extend(SyntheticWorkload::generate(WorkloadConfig {
            queries_per_shape: 9,
            min_patterns: 2,
            max_patterns: 10,
            seed: 7,
        }));
        queries.extend([16, 70].map(SyntheticWorkload::fanout_star));
        let small = DecompositionLimits {
            max_decompositions: 100,
            max_candidate_cliques: 300,
        };
        let mut digests = Vec::new();
        for variant in Variant::ALL {
            let limits = match variant.minimum_only() {
                true => DecompositionLimits::default(),
                false => small,
            };
            digests.push(decomposition_digest(&queries, variant, &limits, 200));
        }
        // Recorded before the enumeration moved to node bitsets, in
        // `Variant::ALL` order.
        let pinned = [
            "176b55ecc8c86494",
            "d4a1de1a1b6e4149",
            "11f846b2559be675",
            "00bebb0a1b7ea66e",
            "e15edb0b01ecac7e",
            "a370674041b8a74f",
            "d37812df308cdecd",
            "d52bbd865e20e8ae",
        ];
        let printed: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        assert_eq!(printed, pinned);
    }

    #[test]
    fn figure14_exact_cover_requires_three_cliques() {
        // Exact covers must use singletons for two of the satellite patterns,
        // so their minimum size is 3, while simple covers reach size 3 with
        // the three overlapping maximal cliques.
        let g = graph(&paper_examples::figure14_query());
        let xc = decompositions(&g, Variant::Mxc, &DecompositionLimits::default());
        assert!(!xc.is_empty());
        assert!(xc.iter().all(|d| d.len() == 3));
        let msc_plus = decompositions(&g, Variant::MscPlus, &DecompositionLimits::default());
        assert!(msc_plus.iter().all(|d| d.len() <= 3));
    }
}
