//! Deterministic SP²Bench-like synthetic data generator.
//!
//! SP²Bench (Schmidt et al., ICDE 2009) models the DBLP bibliography:
//! unlike the star-shaped LUBM universities, its structure is dominated by
//! **power-law skew** (a few prolific authors and journals account for most
//! publications) and **long citation chains** (articles citing recent
//! articles citing recent articles …). Those are exactly the distributions
//! that stress shuffle skew handling and chain-shaped join plans, so this
//! generator complements [`crate::lubm`] as the second bulk-load and query
//! workload.
//!
//! The generator follows the same parallelization contract as the LUBM one:
//! data is produced in fixed-size **units** (batches of authors, then
//! batches of articles), each unit drawing from its own splitmix-seeded RNG
//! stream, so any subset of units can be generated on any worker and the
//! concatenation over `unit = 0..units()` reproduces
//! [`Sp2bGenerator::generate`] bit for bit (see
//! `cliquesquare_mapreduce::load::BulkLoader::load_sp2b`).
//!
//! Skew is injected by sampling author/journal indexes from a cubic
//! power-law transform of a uniform draw (index 0 is the most prolific);
//! citation targets are sampled with a strong recency bias (most references
//! go a handful of articles back), which strings consecutive articles into
//! long `dcterms:references` chains.

use crate::graph::Graph;
use crate::term::{vocab as core_vocab, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// IRI constants of the SP²Bench/DBLP-flavoured vocabulary.
pub mod vocab {
    /// The `bench:` namespace of SP²Bench document classes.
    pub const BENCH: &str = "http://localhost/vocabulary/bench/";
    /// Dublin Core elements (`dc:`).
    pub const DC: &str = "http://purl.org/dc/elements/1.1/";
    /// Dublin Core terms (`dcterms:`).
    pub const DCTERMS: &str = "http://purl.org/dc/terms/";
    /// The SWRC ontology (`swrc:`).
    pub const SWRC: &str = "http://swrc.ontoware.org/ontology#";
    /// Friend-of-a-friend (`foaf:`).
    pub const FOAF: &str = "http://xmlns.com/foaf/0.1/";
}

/// Scale parameters of the SP²Bench-like generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sp2bScale {
    /// Number of articles.
    pub articles: usize,
    /// Size of the global author pool articles draw from (with power-law
    /// skew: author 0 is the most prolific).
    pub authors: usize,
    /// Number of journals articles are published in (power-law skewed).
    pub journals: usize,
    /// Authors or articles per generation unit (the parallel batch size).
    pub unit_size: usize,
    /// Maximum `dcterms:references` citations per article.
    pub max_references: usize,
    /// Random seed controlling all probabilistic choices.
    pub seed: u64,
}

impl Default for Sp2bScale {
    fn default() -> Self {
        Self {
            articles: 2000,
            authors: 500,
            journals: 40,
            unit_size: 100,
            max_references: 8,
            seed: 0xd61b_5eed,
        }
    }
}

impl Sp2bScale {
    /// A small scale suitable for unit tests (a couple thousand triples).
    pub fn tiny() -> Self {
        Self {
            articles: 200,
            authors: 60,
            journals: 10,
            unit_size: 50,
            max_references: 4,
            seed: 11,
        }
    }

    /// The default scale resized to `articles` articles; the author pool
    /// and journal count grow sublinearly, deepening the skew at scale.
    pub fn with_articles(articles: usize) -> Self {
        Self {
            articles,
            authors: (articles / 4).max(50),
            journals: (articles / 50).max(8),
            ..Self::default()
        }
    }

    /// A rough upper bound on the number of triples the scale generates.
    pub fn estimated_triples(&self) -> usize {
        // Two triples per author; per article: type, title, issued, journal,
        // pages, one or two creators, and up to max_references citations
        // (half on average).
        self.authors * 2 + self.articles * (7 + self.max_references.div_ceil(2))
    }
}

/// Deterministic SP²Bench-like data generator.
#[derive(Debug, Clone)]
pub struct Sp2bGenerator {
    scale: Sp2bScale,
}

impl Sp2bGenerator {
    /// Creates a generator with the given scale.
    pub fn new(scale: Sp2bScale) -> Self {
        Self { scale }
    }

    /// Returns the generator's scale.
    pub fn scale(&self) -> &Sp2bScale {
        &self.scale
    }

    /// The number of generation units: author batches first, then article
    /// batches, each covering `unit_size` entities.
    pub fn units(&self) -> usize {
        self.author_units() + self.scale.articles.div_ceil(self.scale.unit_size.max(1))
    }

    fn author_units(&self) -> usize {
        self.scale.authors.div_ceil(self.scale.unit_size.max(1))
    }

    /// Generates the dataset into a fresh [`Graph`].
    pub fn generate(&self) -> Graph {
        let mut graph = Graph::new();
        self.generate_into(&mut graph);
        graph
    }

    /// Generates the dataset into an existing graph, streaming each unit's
    /// triples straight into it.
    pub fn generate_into(&self, graph: &mut Graph) {
        for unit in 0..self.units() {
            self.unit_triples_into(unit, graph);
        }
    }

    /// The RNG seed of unit `u`: a splitmix64-style mix of the scale seed
    /// and the unit number, so every unit draws from an independent,
    /// platform-stable stream.
    fn unit_seed(&self, unit: usize) -> u64 {
        let mut z = self
            .scale
            .seed
            .wrapping_add((unit as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Writes all triples of one unit into `out`, in deterministic emission
    /// order. `out` is any sink of term triples: a `Vec`, a [`Graph`], or
    /// the bulk loader's encoding shard, which encodes each triple as it
    /// arrives.
    pub fn unit_triples_into(&self, unit: usize, out: &mut impl Extend<(Term, Term, Term)>) {
        let s = &self.scale;
        let unit_size = s.unit_size.max(1);
        let author_units = self.author_units();
        if unit < author_units {
            let start = unit * unit_size;
            let end = ((unit + 1) * unit_size).min(s.authors);
            for a in start..end {
                let person = author_iri(a);
                out.extend([(
                    person.clone(),
                    Term::iri(core_vocab::RDF_TYPE),
                    Term::iri(format!("{}Person", vocab::FOAF)),
                )]);
                out.extend([(
                    person,
                    Term::iri(format!("{}name", vocab::FOAF)),
                    Term::literal(format!("Author {a}")),
                )]);
            }
            return;
        }

        let mut rng = StdRng::seed_from_u64(self.unit_seed(unit));
        let batch = unit - author_units;
        let start = batch * unit_size;
        let end = ((batch + 1) * unit_size).min(s.articles);

        let rdf_type = Term::iri(core_vocab::RDF_TYPE);
        let c_article = Term::iri(format!("{}Article", vocab::BENCH));
        let p_title = Term::iri(format!("{}title", vocab::DC));
        let p_creator = Term::iri(format!("{}creator", vocab::DC));
        let p_issued = Term::iri(format!("{}issued", vocab::DCTERMS));
        let p_references = Term::iri(format!("{}references", vocab::DCTERMS));
        let p_journal = Term::iri(format!("{}journal", vocab::SWRC));
        let p_pages = Term::iri(format!("{}pages", vocab::SWRC));

        for i in start..end {
            let article = article_iri(i);
            out.extend([(article.clone(), rdf_type.clone(), c_article.clone())]);
            out.extend([(
                article.clone(),
                p_title.clone(),
                Term::literal(format!("Article {i}")),
            )]);
            // Publication years drift forward with the article index, so a
            // citation to a nearby earlier article is a citation to a
            // recent year — the DBLP recency pattern.
            let year = 1950 + i * 60 / s.articles.max(1);
            out.extend([(
                article.clone(),
                p_issued.clone(),
                Term::literal(format!("{year}")),
            )]);
            out.extend([(
                article.clone(),
                p_journal.clone(),
                journal_iri(power_law(&mut rng, s.journals)),
            )]);
            out.extend([(
                article.clone(),
                p_pages.clone(),
                Term::literal(format!("{}", 1 + rng.gen_range(0..40))),
            )]);
            // One or two creators from the skewed author pool; the second
            // is offset from the first so it is always distinct.
            let first = power_law(&mut rng, s.authors);
            out.extend([(article.clone(), p_creator.clone(), author_iri(first))]);
            if s.authors > 1 && rng.gen_bool(0.5) {
                let offset = 1 + power_law(&mut rng, s.authors - 1);
                let second = (first + offset) % s.authors;
                out.extend([(article.clone(), p_creator.clone(), author_iri(second))]);
            }
            // Recency-biased citations: most references reach only a few
            // articles back, chaining consecutive articles together.
            let references = rng.gen_range(0..s.max_references.min(i) + 1);
            let mut cited: Vec<usize> = Vec::with_capacity(references);
            for _ in 0..references {
                let gap = 1 + (unit_float(&mut rng).powi(4) * 16.0) as usize;
                if gap > i {
                    continue;
                }
                let target = i - gap;
                if !cited.contains(&target) {
                    cited.push(target);
                    out.extend([(article.clone(), p_references.clone(), article_iri(target))]);
                }
            }
        }
    }
}

fn article_iri(i: usize) -> Term {
    Term::iri(format!("http://dblp.example.org/article/{i}"))
}

fn author_iri(a: usize) -> Term {
    Term::iri(format!("http://dblp.example.org/person/{a}"))
}

fn journal_iri(j: usize) -> Term {
    Term::iri(format!("http://dblp.example.org/journal/{j}"))
}

/// A uniform draw in `[0, 1)` built from the RNG's raw 64-bit output (the
/// vendored `rand` has no float sampling).
fn unit_float(rng: &mut StdRng) -> f64 {
    (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64
}

/// A power-law-skewed index in `[0, n)`: the cubic transform concentrates
/// mass near zero, so low indexes (prolific authors, major journals) are
/// drawn far more often than the tail.
fn power_law(rng: &mut StdRng, n: usize) -> usize {
    let u = unit_float(rng);
    ((n as f64 * u * u * u) as usize).min(n.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g1 = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
        let g2 = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
        assert_eq!(g1.triples(), g2.triples());
        assert!(!g1.is_empty());
    }

    #[test]
    fn unit_chunks_concatenate_to_generate() {
        let generator = Sp2bGenerator::new(Sp2bScale::tiny());
        let mut chunked = Graph::new();
        for unit in 0..generator.units() {
            let mut triples = Vec::new();
            generator.unit_triples_into(unit, &mut triples);
            for (s, p, o) in triples {
                chunked.insert_terms(s, p, o);
            }
        }
        assert_eq!(chunked, generator.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let mut scale = Sp2bScale::tiny();
        let g1 = Sp2bGenerator::new(scale).generate();
        scale.seed += 1;
        let g2 = Sp2bGenerator::new(scale).generate();
        assert_ne!(g1.triples(), g2.triples());
    }

    #[test]
    fn scale_estimate_is_close() {
        let scale = Sp2bScale::default();
        let actual = Sp2bGenerator::new(scale).generate().len();
        let estimate = scale.estimated_triples();
        assert!(
            actual <= estimate && actual * 2 >= estimate,
            "estimate {estimate} too far from actual {actual}"
        );
    }

    /// The author distribution must be genuinely skewed: the most prolific
    /// author's `dc:creator` in-degree dwarfs the mean.
    #[test]
    fn author_distribution_is_power_law_skewed() {
        let g = Sp2bGenerator::new(Sp2bScale::default()).generate();
        let p_creator = g
            .lookup(&Term::iri(format!("{}creator", vocab::DC)))
            .expect("creator property present");
        let mut counts = std::collections::HashMap::new();
        for triple in g.match_pattern(None, Some(p_creator), None) {
            *counts.entry(triple.object).or_insert(0usize) += 1;
        }
        let total: usize = counts.values().sum();
        let max = *counts.values().max().unwrap();
        let mean = total / counts.len().max(1);
        assert!(
            max >= mean * 4,
            "no skew: max in-degree {max} vs mean {mean}"
        );
    }

    /// Citations must chain: some article references an article that itself
    /// references another (the shape SP²Bench chain queries walk).
    #[test]
    fn citations_form_chains() {
        let g = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
        let p_references = g
            .lookup(&Term::iri(format!("{}references", vocab::DCTERMS)))
            .expect("references property present");
        let sources: std::collections::HashSet<_> = g
            .match_pattern(None, Some(p_references), None)
            .map(|t| t.subject)
            .collect();
        let chained = g
            .match_pattern(None, Some(p_references), None)
            .filter(|t| sources.contains(&t.object))
            .count();
        assert!(chained > 10, "only {chained} two-hop citation links");
    }

    #[test]
    fn larger_scale_generates_more_triples() {
        let small = Sp2bGenerator::new(Sp2bScale::with_articles(200)).generate();
        let big = Sp2bGenerator::new(Sp2bScale::with_articles(1000)).generate();
        assert!(big.len() > 2 * small.len());
    }
}
