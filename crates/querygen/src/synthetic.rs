//! Synthetic BGP query generator (the Section 6.2 optimizer workload).
//!
//! The paper uses the query generator of \[10\] to build 120 synthetic queries
//! whose shape is *chain*, *star*, or *random* with *thin* and *dense*
//! variants (dense queries have many variables shared across triple
//! patterns, thin ones are close to chains). Queries have between 1 and 10
//! triple patterns. This module reproduces that workload deterministically
//! from a seed.

use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntheticShape {
    /// `?v1 p1 ?v2 . ?v2 p2 ?v3 . …`
    Chain,
    /// `?x p1 ?v1 . ?x p2 ?v2 . …`
    Star,
    /// Randomly attached patterns sharing few variables (close to a chain).
    RandomThin,
    /// Randomly attached patterns drawing from a small variable pool, so
    /// many variables are shared by many patterns.
    RandomDense,
}

impl SyntheticShape {
    /// The four shapes in the order the paper's tables list them
    /// (chain, dense, thin, star).
    pub const ALL: [SyntheticShape; 4] = [
        SyntheticShape::Chain,
        SyntheticShape::RandomDense,
        SyntheticShape::RandomThin,
        SyntheticShape::Star,
    ];

    /// A short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SyntheticShape::Chain => "chain",
            SyntheticShape::Star => "star",
            SyntheticShape::RandomThin => "thin",
            SyntheticShape::RandomDense => "dense",
        }
    }
}

impl fmt::Display for SyntheticShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of queries generated per shape.
    pub queries_per_shape: usize,
    /// Smallest number of triple patterns.
    pub min_patterns: usize,
    /// Largest number of triple patterns.
    pub max_patterns: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        // 4 shapes × 30 queries = the paper's 120-query workload,
        // 1–10 triple patterns per query.
        Self {
            queries_per_shape: 30,
            min_patterns: 1,
            max_patterns: 10,
            seed: 0xC11_95A5,
        }
    }
}

impl WorkloadConfig {
    /// A small workload for unit tests.
    pub fn small() -> Self {
        Self {
            queries_per_shape: 5,
            min_patterns: 2,
            max_patterns: 6,
            seed: 42,
        }
    }
}

/// Deterministic synthetic workload generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntheticWorkload;

impl SyntheticWorkload {
    /// Generates one query of the given shape with `patterns` triple
    /// patterns, using `rng` for the random attachment choices.
    pub fn query(shape: SyntheticShape, patterns: usize, rng: &mut StdRng) -> BgpQuery {
        let patterns = patterns.max(1);
        let triples = match shape {
            SyntheticShape::Chain => chain(patterns),
            SyntheticShape::Star => star(patterns),
            SyntheticShape::RandomThin => random(patterns, patterns + 1, rng),
            SyntheticShape::RandomDense => random(patterns, (patterns / 2).max(2), rng),
        };
        let mut distinguished: Vec<Variable> = Vec::new();
        for pattern in &triples {
            for v in pattern.variables() {
                if distinguished.len() < 2 && !distinguished.contains(&v) {
                    distinguished.push(v);
                }
            }
        }
        BgpQuery::named(
            format!("{}-{patterns}", shape.label()),
            distinguished,
            triples,
        )
    }

    /// Generates the full workload described by `config`: for every shape,
    /// `queries_per_shape` queries with sizes cycling through the configured
    /// range.
    pub fn generate(config: WorkloadConfig) -> Vec<BgpQuery> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let span = config.max_patterns.max(config.min_patterns) - config.min_patterns + 1;
        let mut queries = Vec::new();
        for shape in SyntheticShape::ALL {
            for index in 0..config.queries_per_shape {
                let size = config.min_patterns + (index % span);
                let mut query = Self::query(shape, size, &mut rng);
                query.set_name(format!("{}-{size}-{index}", shape.label()));
                queries.push(query);
            }
        }
        queries
    }

    /// Generates the workload of one shape only.
    pub fn generate_shape(shape: SyntheticShape, config: WorkloadConfig) -> Vec<BgpQuery> {
        Self::generate(config)
            .into_iter()
            .filter(|q| q.name().starts_with(shape.label()))
            .collect()
    }

    /// A high-fan-out star that distinguishes the **leaves**, not the hub:
    /// `SELECT ?v1 … ?vn WHERE { ?v0 p1 ?v1 . ?v0 p2 ?v2 . … }`. The
    /// projection drops the join key, so the result is a per-key cross
    /// product of the leaf bindings — the adversarial case for join
    /// intermediates (output quadratic-and-worse in the input), and the
    /// query shape run-length factorized joins keep sublinear.
    pub fn fanout_star(patterns: usize) -> BgpQuery {
        let patterns = patterns.max(1);
        let triples = star(patterns);
        let leaves: Vec<Variable> = (1..=patterns)
            .map(|i| Variable::new(format!("v{i}")))
            .collect();
        BgpQuery::named(format!("fanout-star-{patterns}"), leaves, triples)
    }

    /// A deep chain that distinguishes only its two **endpoints**:
    /// `SELECT ?v0 ?vn WHERE { ?v0 p1 ?v1 . ?v1 p2 ?v2 . … }`. Every
    /// interior variable is a join key that the final projection drops — a
    /// long pipeline of intermediates much wider than the answer.
    pub fn deep_chain(patterns: usize) -> BgpQuery {
        let patterns = patterns.max(1);
        let triples = chain(patterns);
        let endpoints = vec![Variable::new("v0"), Variable::new(format!("v{patterns}"))];
        BgpQuery::named(format!("deep-chain-{patterns}"), endpoints, triples)
    }

    /// The adversarial execution workload: fan-out stars and deep chains of
    /// every size in `2..=max_patterns`, for the differential execution
    /// proptests (shapes whose intermediates dwarf their answers).
    pub fn adversarial_workload(max_patterns: usize) -> Vec<BgpQuery> {
        let mut queries = Vec::new();
        for n in 2..=max_patterns.max(2) {
            queries.push(Self::fanout_star(n));
            queries.push(Self::deep_chain(n));
        }
        queries
    }

    /// A cyclic query: a chain whose last pattern closes back on the first
    /// variable — `?v0 p1 ?v1 . ?v1 p2 ?v2 . … ?v(n-1) pn ?v0`. Cycles
    /// break the acyclicity assumptions chain/star estimators lean on: the
    /// closing edge is far more selective than independent-join reasoning
    /// predicts, so estimators that ignore it overestimate wildly. At least
    /// three patterns (two patterns would repeat an edge).
    pub fn cycle(patterns: usize) -> BgpQuery {
        let patterns = patterns.max(3);
        let triples = (0..patterns)
            .map(|i| TriplePattern::new(var(i), prop(i + 1), var((i + 1) % patterns)))
            .collect();
        BgpQuery::named(
            format!("cycle-{patterns}"),
            vec![Variable::new("v0")],
            triples,
        )
    }

    /// A cross product: two independent chains sharing no variable —
    /// `?v0 … ?v(left)` and `?w0 … ?w(right)`. The result is the Cartesian
    /// product of the two sides, the worst case for any cardinality
    /// estimator that damps joins. The query is *disconnected*, which the
    /// clique-based planner rejects; estimator tests price each connected
    /// component separately and multiply.
    pub fn cross_product(left: usize, right: usize) -> BgpQuery {
        let (left, right) = (left.max(1), right.max(1));
        let wvar = |i: usize| PatternTerm::variable(format!("w{i}"));
        let mut triples: Vec<TriplePattern> = (0..left)
            .map(|i| TriplePattern::new(var(i), prop(i + 1), var(i + 1)))
            .collect();
        triples.extend(
            (0..right).map(|i| TriplePattern::new(wvar(i), prop(left + i + 1), wvar(i + 1))),
        );
        BgpQuery::named(
            format!("cross-{left}x{right}"),
            vec![Variable::new("v0"), Variable::new("w0")],
            triples,
        )
    }

    /// The adversarial *estimation* workload: cyclic queries and cross
    /// products of every size in `3..=max_patterns`, for the estimator
    /// differential tests. Kept separate from
    /// [`adversarial_workload`](Self::adversarial_workload) because cross
    /// products are disconnected and cannot be executed by the engine
    /// end-to-end.
    pub fn estimator_adversarial_workload(max_patterns: usize) -> Vec<BgpQuery> {
        let mut queries = Vec::new();
        for n in 3..=max_patterns.max(3) {
            queries.push(Self::cycle(n));
            queries.push(Self::cross_product(n - 1, n / 2));
        }
        queries
    }
}

fn var(i: usize) -> PatternTerm {
    PatternTerm::variable(format!("v{i}"))
}

fn prop(i: usize) -> PatternTerm {
    PatternTerm::iri(format!("http://synthetic.example/p{i}"))
}

/// `?v0 p1 ?v1 . ?v1 p2 ?v2 . …`
fn chain(n: usize) -> Vec<TriplePattern> {
    (0..n)
        .map(|i| TriplePattern::new(var(i), prop(i + 1), var(i + 1)))
        .collect()
}

/// `?v0 p1 ?v1 . ?v0 p2 ?v2 . …`
fn star(n: usize) -> Vec<TriplePattern> {
    (0..n)
        .map(|i| TriplePattern::new(var(0), prop(i + 1), var(i + 1)))
        .collect()
}

/// Randomly attached patterns over a pool of `pool` variables. Every pattern
/// after the first reuses at least one variable already used, keeping the
/// query connected; a small pool makes the query dense, a large pool thin.
fn random(n: usize, pool: usize, rng: &mut StdRng) -> Vec<TriplePattern> {
    let pool = pool.max(2);
    let mut used: Vec<usize> = vec![0];
    let mut triples = Vec::with_capacity(n);
    for i in 0..n {
        let subject = if i == 0 {
            0
        } else {
            used[rng.gen_range(0..used.len())]
        };
        // The object is any pool variable different from the subject; it may
        // or may not already be used, which controls density.
        let mut object = rng.gen_range(0..pool);
        if object == subject {
            object = (object + 1) % pool;
        }
        for v in [subject, object] {
            if !used.contains(&v) {
                used.push(v);
            }
        }
        triples.push(TriplePattern::new(var(subject), prop(i + 1), var(object)));
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_sparql::analysis::{self, QueryShape};

    #[test]
    fn default_workload_has_120_queries() {
        let queries = SyntheticWorkload::generate(WorkloadConfig::default());
        assert_eq!(queries.len(), 120);
        let sizes: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        assert_eq!(*sizes.iter().min().unwrap(), 1);
        assert_eq!(*sizes.iter().max().unwrap(), 10);
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            (avg - 5.5).abs() < 0.6,
            "average size {avg} far from the paper's 5.5"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticWorkload::generate(WorkloadConfig::default());
        let b = SyntheticWorkload::generate(WorkloadConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn chains_and_stars_classify_correctly() {
        let mut rng = StdRng::seed_from_u64(1);
        let chain = SyntheticWorkload::query(SyntheticShape::Chain, 6, &mut rng);
        assert_eq!(analysis::classify(&chain), QueryShape::Chain);
        let star = SyntheticWorkload::query(SyntheticShape::Star, 6, &mut rng);
        assert_eq!(analysis::classify(&star), QueryShape::Star);
    }

    #[test]
    fn all_generated_queries_are_connected() {
        for query in SyntheticWorkload::generate(WorkloadConfig::default()) {
            assert!(query.is_connected(), "{} is disconnected", query.name());
        }
    }

    #[test]
    fn dense_queries_share_more_variables_than_thin_ones() {
        let config = WorkloadConfig {
            queries_per_shape: 20,
            min_patterns: 6,
            max_patterns: 8,
            seed: 7,
        };
        let avg_join_vars = |shape: SyntheticShape| {
            let queries = SyntheticWorkload::generate_shape(shape, config);
            let per_pattern: f64 = queries
                .iter()
                .map(|q| q.join_variables().len() as f64 / q.len() as f64)
                .sum::<f64>()
                / queries.len() as f64;
            per_pattern
        };
        // Thin queries have roughly one join variable per extra pattern;
        // dense ones concentrate the joins on fewer variables.
        assert!(
            avg_join_vars(SyntheticShape::RandomDense)
                <= avg_join_vars(SyntheticShape::RandomThin) + 0.05
        );
    }

    #[test]
    fn per_shape_generation_filters_by_name() {
        let stars =
            SyntheticWorkload::generate_shape(SyntheticShape::Star, WorkloadConfig::small());
        assert_eq!(stars.len(), 5);
        assert!(stars.iter().all(|q| q.name().starts_with("star")));
    }

    #[test]
    fn adversarial_shapes_project_away_their_join_keys() {
        let star = SyntheticWorkload::fanout_star(5);
        assert_eq!(star.len(), 5);
        assert_eq!(star.distinguished().len(), 5);
        assert!(!star.distinguished().contains(&Variable::new("v0")));
        assert_eq!(analysis::classify(&star), QueryShape::Star);

        let chain = SyntheticWorkload::deep_chain(6);
        assert_eq!(chain.len(), 6);
        assert_eq!(
            chain.distinguished(),
            &[Variable::new("v0"), Variable::new("v6")]
        );
        assert_eq!(analysis::classify(&chain), QueryShape::Chain);

        let workload = SyntheticWorkload::adversarial_workload(6);
        assert_eq!(workload.len(), 10);
        assert!(workload.iter().all(|q| q.is_connected()));
    }

    #[test]
    fn cycles_are_connected_and_cross_products_are_not() {
        let cycle = SyntheticWorkload::cycle(4);
        assert_eq!(cycle.len(), 4);
        assert!(cycle.is_connected());
        // The cycle closes: v0 appears in the first and the last pattern.
        assert!(cycle
            .patterns()
            .last()
            .unwrap()
            .mentions(&Variable::new("v0")));

        let cross = SyntheticWorkload::cross_product(2, 3);
        assert_eq!(cross.len(), 5);
        assert!(!cross.is_connected());
        assert_eq!(cross.connected_components().len(), 2);

        let workload = SyntheticWorkload::estimator_adversarial_workload(5);
        assert_eq!(workload.len(), 6);
        assert!(workload.iter().any(|q| q.is_connected()));
        assert!(workload.iter().any(|q| !q.is_connected()));
    }

    #[test]
    fn single_pattern_queries_are_supported() {
        let mut rng = StdRng::seed_from_u64(3);
        for shape in SyntheticShape::ALL {
            let q = SyntheticWorkload::query(shape, 1, &mut rng);
            assert_eq!(q.len(), 1);
            assert!(!q.distinguished().is_empty());
        }
    }
}
