//! A simulation of SHAPE with 2-hop forward semantic hash partitioning
//! (Lee & Liu, *Scaling Queries over Big RDF Graphs with Semantic Hash
//! Partitioning*, PVLDB 2013) — the "SHAPE-2f" baseline of Figure 21.
//!
//! SHAPE partitions triples by hashing their subject and replicating every
//! triple reachable within two forward hops of the anchor, so that any query
//! fully contained in such a 2-hop forward tree is **PWOC**: each node
//! answers it locally with its RDF-3X store and results are simply
//! concatenated. Queries exceeding the guarantee are split into 2-hop
//! fragments, each evaluated locally, and the fragments are combined with
//! one MapReduce (binary) join per step — SHAPE's optimizer is heuristic and
//! produces a single plan.
//!
//! The simulation reproduces exactly that behaviour over our cluster: local
//! fragment evaluation uses indexed access (cost proportional to the
//! fragment's *result*, not to full scans), while every inter-fragment join
//! pays the full shuffle and job overhead.

use crate::report::SystemRunReport;
use cliquesquare_engine::reference::reference_eval;
use cliquesquare_engine::Relation;
use cliquesquare_mapreduce::{Cluster, ExecutionMetrics};
use cliquesquare_sparql::{BgpQuery, PatternTerm, Variable};
use std::collections::BTreeSet;

/// The SHAPE-2f comparator system.
#[derive(Debug, Clone, Copy)]
pub struct ShapeSystem<'a> {
    cluster: &'a Cluster,
}

impl<'a> ShapeSystem<'a> {
    /// Creates a SHAPE instance over the given cluster.
    pub fn new(cluster: &'a Cluster) -> Self {
        Self { cluster }
    }

    /// Splits a query into 2-hop forward fragments: each fragment contains a
    /// subject star plus the subject stars of its objects (one forward hop
    /// further). A query producing a single fragment is PWOC for SHAPE-2f.
    pub fn fragments(query: &BgpQuery) -> Vec<Vec<usize>> {
        let patterns = query.patterns();
        let mut remaining: BTreeSet<usize> = (0..patterns.len()).collect();
        let mut fragments = Vec::new();
        while let Some(&seed) = remaining.iter().next() {
            let anchor = patterns[seed].subject.clone();
            // First hop: the anchor's subject star.
            let mut fragment: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| patterns[i].subject == anchor)
                .collect();
            // Second hop: subject stars of the objects of the first hop.
            let objects: Vec<PatternTerm> = fragment
                .iter()
                .map(|&i| patterns[i].object.clone())
                .collect();
            for object in objects {
                if !object.is_variable() {
                    continue;
                }
                for &i in remaining.iter() {
                    if patterns[i].subject == object && !fragment.contains(&i) {
                        fragment.push(i);
                    }
                }
            }
            if fragment.is_empty() {
                fragment.push(seed);
            }
            for &i in &fragment {
                remaining.remove(&i);
            }
            fragment.sort_unstable();
            fragments.push(fragment);
        }
        fragments
    }

    /// Returns `true` if SHAPE-2f can answer the query without any MapReduce
    /// job (parallelizable without communication).
    pub fn is_pwoc(query: &BgpQuery) -> bool {
        Self::fragments(query).len() <= 1
    }

    /// Runs a query and reports jobs, answers and simulated time.
    pub fn run(&self, query: &BgpQuery) -> SystemRunReport {
        let graph = self.cluster.graph();
        let fragments = Self::fragments(query);
        let mut metrics = ExecutionMetrics::default();

        // Evaluate every fragment locally (RDF-3X style indexed access: the
        // dominant cost is proportional to the fragment's result size plus
        // one index lookup per pattern).
        let mut fragment_results: Vec<Relation> = Vec::with_capacity(fragments.len());
        for fragment in &fragments {
            let patterns: Vec<_> = fragment
                .iter()
                .map(|&i| query.patterns()[i].clone())
                .collect();
            let variables: Vec<Variable> = patterns
                .iter()
                .flat_map(|p| p.variables())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let sub_query = BgpQuery::new(variables, patterns.clone());
            let result = reference_eval(graph, &sub_query);
            metrics.tuples_read += result.len() as u64 + patterns.len() as u64;
            metrics.comparisons += result.len() as u64;
            fragment_results.push(result);
        }

        // PWOC: results are concatenated locally, no job is launched.
        // Otherwise combine fragments left-deep, one MapReduce job per join,
        // preferring fragments that share variables with the accumulator.
        let mut iter = fragment_results.into_iter();
        let mut accumulated = iter.next().unwrap_or_else(|| Relation::empty(Vec::new()));
        let mut pending: Vec<Relation> = iter.collect();
        while !pending.is_empty() {
            let accumulated_vars: BTreeSet<Variable> =
                accumulated.schema().iter().cloned().collect();
            let next_index = pending
                .iter()
                .position(|relation| {
                    relation
                        .schema()
                        .iter()
                        .any(|v| accumulated_vars.contains(v))
                })
                .unwrap_or(0);
            let next = pending.remove(next_index);
            let shared: Vec<Variable> = next
                .schema()
                .iter()
                .filter(|v| accumulated_vars.contains(*v))
                .cloned()
                .collect();
            metrics.tuples_shuffled += accumulated.len() as u64 + next.len() as u64;
            let joined = Relation::join(&[&accumulated, &next], &shared, &[]);
            metrics.join_output_tuples += joined.len() as u64;
            metrics.tuples_written += joined.len() as u64;
            metrics.jobs += 1;
            metrics.map_tasks += 1;
            metrics.reduce_tasks += 1;
            accumulated = joined;
        }

        // `distinct_len` counts without cloning or re-ordering the rows.
        let projected = if query.distinguished().is_empty() {
            accumulated
        } else {
            accumulated.project(query.distinguished())
        };
        let result_count = projected.distinct_len();
        let jobs = fragments.len().saturating_sub(1);
        SystemRunReport {
            system: "SHAPE-2f".to_string(),
            query: query.name().to_string(),
            jobs,
            job_descriptor: jobs.to_string(),
            result_count,
            simulated_seconds: metrics.simulated_seconds(&self.cluster.config().cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_engine::reference::reference_count;
    use cliquesquare_mapreduce::ClusterConfig;
    use cliquesquare_querygen::lubm_queries::{self, lubm_query};
    use cliquesquare_rdf::{LubmGenerator, LubmScale};

    fn cluster() -> Cluster {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        Cluster::load(graph, ClusterConfig::with_nodes(4))
    }

    #[test]
    fn paper_pwoc_queries_are_detected() {
        // The paper reports Q2, Q4, Q9 and Q10 as PWOC for SHAPE-2f.
        for name in ["Q2", "Q4", "Q9", "Q10"] {
            let q = lubm_query(name).unwrap();
            assert!(
                ShapeSystem::is_pwoc(&q),
                "{name} should be PWOC for SHAPE-2f"
            );
        }
        // ... and Q1, Q3 are not.
        for name in ["Q1", "Q3"] {
            let q = lubm_query(name).unwrap();
            assert!(
                !ShapeSystem::is_pwoc(&q),
                "{name} should not be PWOC for SHAPE-2f"
            );
        }
    }

    #[test]
    fn fragments_cover_every_pattern_exactly_once() {
        for query in lubm_queries::lubm_queries() {
            let fragments = ShapeSystem::fragments(&query);
            let mut seen = BTreeSet::new();
            for fragment in &fragments {
                for &i in fragment {
                    assert!(
                        seen.insert(i),
                        "pattern {i} of {} in two fragments",
                        query.name()
                    );
                }
            }
            assert_eq!(seen.len(), query.len());
        }
    }

    #[test]
    fn results_match_the_reference_evaluator() {
        let cluster = cluster();
        let shape = ShapeSystem::new(&cluster);
        for name in ["Q1", "Q2", "Q4", "Q7", "Q10"] {
            let q = lubm_query(name).unwrap();
            let report = shape.run(&q);
            assert_eq!(
                report.result_count,
                reference_count(cluster.graph(), &q),
                "{name} answers differ"
            );
        }
    }

    #[test]
    fn pwoc_queries_use_no_jobs_and_are_fast() {
        let cluster = cluster();
        let shape = ShapeSystem::new(&cluster);
        let pwoc = shape.run(&lubm_query("Q2").unwrap());
        assert_eq!(pwoc.jobs, 0);
        let non_pwoc = shape.run(&lubm_query("Q14").unwrap());
        assert!(non_pwoc.jobs >= 1);
        assert!(pwoc.simulated_seconds < non_pwoc.simulated_seconds);
    }
}
