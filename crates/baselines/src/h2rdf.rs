//! A simulation of H2RDF+ (Papailiou et al., *H2RDF+: High-performance
//! Distributed Joins over Large-scale RDF Graphs*, IEEE BigData 2013) — the
//! second comparator system of Figure 21.
//!
//! H2RDF+ stores aggressively indexed, sorted triples in HBase and executes
//! **left-deep** sequences of joins: patterns are ordered by estimated
//! selectivity and joined one after the other, each join running as its own
//! MapReduce job (the first join can often run as a map-only merge join over
//! the sorted indexes, the later ones shuffle the accumulated intermediate
//! result). The consequence the paper highlights — and that this simulation
//! reproduces — is that a query with `n` patterns needs on the order of
//! `n − 1` sequential jobs, each paying start-up latency and re-reading the
//! previous job's output, which is what makes H2RDF+ orders of magnitude
//! slower than CSQ on non-selective queries.

use crate::report::SystemRunReport;
use cliquesquare_engine::reference::reference_eval;
use cliquesquare_engine::Relation;
use cliquesquare_mapreduce::{Cluster, ExecutionMetrics};
use cliquesquare_sparql::{BgpQuery, TriplePattern, Variable};
use std::collections::BTreeSet;

/// The H2RDF+ comparator system.
#[derive(Debug, Clone, Copy)]
pub struct H2RdfSystem<'a> {
    cluster: &'a Cluster,
}

impl<'a> H2RdfSystem<'a> {
    /// Creates an H2RDF+ instance over the given cluster.
    pub fn new(cluster: &'a Cluster) -> Self {
        Self { cluster }
    }

    /// Evaluates one triple pattern through the simulated HBase index.
    fn pattern_relation(&self, pattern: &TriplePattern) -> Relation {
        let variables: Vec<Variable> = pattern.variables();
        let query = BgpQuery::new(variables, vec![pattern.clone()]);
        reference_eval(self.cluster.graph(), &query)
    }

    /// The left-deep join order: repeatedly pick the smallest remaining
    /// pattern that stays connected to the already-joined ones.
    pub fn join_order(&self, query: &BgpQuery) -> Vec<usize> {
        let cardinalities: Vec<usize> = query
            .patterns()
            .iter()
            .map(|p| self.pattern_relation(p).len())
            .collect();
        let mut remaining: BTreeSet<usize> = (0..query.len()).collect();
        let mut bound: BTreeSet<Variable> = BTreeSet::new();
        let mut order = Vec::with_capacity(query.len());
        while !remaining.is_empty() {
            let connected: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| {
                    bound.is_empty()
                        || query.patterns()[i]
                            .variables()
                            .iter()
                            .any(|v| bound.contains(v))
                })
                .collect();
            let candidates = if connected.is_empty() {
                remaining.iter().copied().collect()
            } else {
                connected
            };
            let next = candidates
                .into_iter()
                .min_by_key(|&i| cardinalities[i])
                .expect("non-empty candidates");
            remaining.remove(&next);
            bound.extend(query.patterns()[next].variables());
            order.push(next);
        }
        order
    }

    /// Runs a query and reports jobs, answers and simulated time.
    pub fn run(&self, query: &BgpQuery) -> SystemRunReport {
        let order = self.join_order(query);
        let mut metrics = ExecutionMetrics::default();
        let mut map_only_jobs = 0usize;

        let mut iterator = order.iter();
        let first = iterator.next().expect("query has at least one pattern");
        let mut accumulated = self.pattern_relation(&query.patterns()[*first]);
        metrics.tuples_read += accumulated.len() as u64;

        for (step, &index) in iterator.enumerate() {
            let next = self.pattern_relation(&query.patterns()[index]);
            metrics.tuples_read += next.len() as u64;
            let accumulated_vars: BTreeSet<Variable> =
                accumulated.schema().iter().cloned().collect();
            let shared: Vec<Variable> = next
                .schema()
                .iter()
                .filter(|v| accumulated_vars.contains(*v))
                .cloned()
                .collect();
            // The first join over two sorted base indexes runs map-only;
            // every later join shuffles the accumulated intermediate result.
            let map_only = step == 0;
            if map_only {
                map_only_jobs += 1;
            } else {
                metrics.tuples_shuffled += accumulated.len() as u64 + next.len() as u64;
                metrics.reduce_tasks += 1;
            }
            let joined = Relation::join(&[&accumulated, &next], &shared, &[]);
            metrics.join_output_tuples += joined.len() as u64;
            metrics.tuples_written += joined.len() as u64;
            metrics.jobs += 1;
            metrics.map_tasks += 1;
            accumulated = joined;
        }

        // `distinct_len` counts without cloning or re-ordering the rows.
        let projected = if query.distinguished().is_empty() {
            accumulated
        } else {
            accumulated.project(query.distinguished())
        };
        let result_count = projected.distinct_len();
        let jobs = metrics.jobs as usize;
        let job_descriptor = if jobs == map_only_jobs && jobs <= 1 {
            "M".to_string()
        } else {
            jobs.to_string()
        };
        SystemRunReport {
            system: "H2RDF+".to_string(),
            query: query.name().to_string(),
            jobs,
            job_descriptor,
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
    use cliquesquare_querygen::lubm_queries::lubm_query;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};

    fn cluster() -> Cluster {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        Cluster::load(graph, ClusterConfig::with_nodes(4))
    }

    #[test]
    fn one_job_per_join() {
        let cluster = cluster();
        let system = H2RdfSystem::new(&cluster);
        for name in ["Q1", "Q4", "Q7", "Q12"] {
            let q = lubm_query(name).unwrap();
            let report = system.run(&q);
            assert_eq!(report.jobs, q.len() - 1, "{name}");
        }
    }

    #[test]
    fn join_order_stays_connected() {
        let cluster = cluster();
        let system = H2RdfSystem::new(&cluster);
        for name in ["Q7", "Q11", "Q14"] {
            let q = lubm_query(name).unwrap();
            let order = system.join_order(&q);
            assert_eq!(order.len(), q.len());
            let mut bound: BTreeSet<Variable> =
                q.patterns()[order[0]].variables().into_iter().collect();
            for &i in &order[1..] {
                let vars = q.patterns()[i].variables();
                assert!(
                    vars.iter().any(|v| bound.contains(v)),
                    "{name}: pattern {i} joined without a shared variable"
                );
                bound.extend(vars);
            }
        }
    }

    #[test]
    fn results_match_the_reference_evaluator() {
        let cluster = cluster();
        let system = H2RdfSystem::new(&cluster);
        for name in ["Q1", "Q5", "Q10", "Q13"] {
            let q = lubm_query(name).unwrap();
            let report = system.run(&q);
            assert_eq!(
                report.result_count,
                reference_count(cluster.graph(), &q),
                "{name} answers differ"
            );
        }
    }

    #[test]
    fn more_patterns_mean_more_sequential_jobs_and_time() {
        let cluster = cluster();
        let system = H2RdfSystem::new(&cluster);
        let small = system.run(&lubm_query("Q1").unwrap());
        let large = system.run(&lubm_query("Q12").unwrap());
        assert!(large.jobs > small.jobs);
        assert!(large.simulated_seconds > small.simulated_seconds);
    }
}
