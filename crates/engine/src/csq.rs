//! The CSQ façade: optimize a query with CliqueSquare, pick the cheapest
//! plan with the MapReduce cost model, and execute it on the simulated
//! cluster.

use crate::cost::{MapReduceCostModel, PlanChooser};
use crate::executor::{ExecutionOutput, Executor};
use crate::translate::translate;
use cliquesquare_core::{Leaf, LogicalPlan, Optimizer, OptimizerConfig, Variant};
use cliquesquare_mapreduce::{Cluster, Runtime};
use cliquesquare_sparql::BgpQuery;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::time::Instant;

/// Configuration of a [`Csq`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CsqConfig {
    /// Optimizer variant (the paper recommends and ships MSC).
    pub variant: Variant,
    /// Cap on the number of candidate plans considered by the cost model.
    pub max_candidate_plans: usize,
    /// Degree of execution parallelism: `1` (the default) runs task waves
    /// sequentially, `N > 1` runs them on `N` OS threads. Results and
    /// simulated seconds are bit-identical at every setting; only the
    /// measured wall-clock time changes.
    pub threads: usize,
}

impl Default for CsqConfig {
    fn default() -> Self {
        Self {
            variant: Variant::Msc,
            max_candidate_plans: 2_000,
            threads: 1,
        }
    }
}

impl CsqConfig {
    /// This configuration with an explicit execution thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The runtime the configuration selects.
    pub fn runtime(&self) -> Runtime {
        Runtime::with_threads(self.threads)
    }
}

/// The outcome of running one query end to end.
#[derive(Debug, Clone)]
pub struct CsqReport {
    /// Name of the query (if it had one).
    pub query: String,
    /// Number of candidate plans produced by the optimizer.
    pub candidate_plans: usize,
    /// Wall-clock optimization time in milliseconds.
    pub optimization_ms: f64,
    /// The logical plan chosen by the cost model.
    pub chosen_plan: LogicalPlan,
    /// Height of the chosen plan.
    pub plan_height: usize,
    /// The paper-style job descriptor of the executed plan (`"M"`, `"1"`, …).
    pub job_descriptor: String,
    /// Number of MapReduce jobs executed.
    pub jobs: usize,
    /// Number of distinct query answers.
    pub result_count: usize,
    /// Simulated response time in seconds.
    pub simulated_seconds: f64,
    /// Measured wall-clock execution time in seconds (on `threads` threads).
    pub wall_seconds: f64,
    /// Number of OS threads the execution ran task waves on.
    pub threads: usize,
    /// The full execution output (job schedule, per-job metrics, results).
    pub execution: ExecutionOutput,
}

/// What [`Csq::choose`] returns.
#[derive(Debug, Clone)]
pub struct Chosen {
    /// The plan the cost model chose.
    pub plan: LogicalPlan,
    /// Number of leaves the search reached: the candidate plans
    /// [`Csq::plan`] would list.
    pub candidates: usize,
    /// Wall-clock milliseconds of the search and the choice.
    pub optimize_ms: f64,
}

/// The CSQ prototype: CliqueSquare optimization + cost-based selection +
/// MapReduce execution (Section 6's "CSQ system").
#[derive(Debug, Clone)]
pub struct Csq {
    cluster: Cluster,
    config: CsqConfig,
}

impl Csq {
    /// Creates a CSQ instance over a loaded cluster.
    pub fn new(cluster: Cluster, config: CsqConfig) -> Self {
        Self { cluster, config }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The configuration.
    pub fn config(&self) -> &CsqConfig {
        &self.config
    }

    /// Optimizes `query`, returning the candidate plans, the one chosen by
    /// the cost model (without executing it) and the milliseconds both took.
    ///
    /// The candidates are everything the optimizer generated, exact
    /// duplicates included (the paper's plan counts), and the chosen plan
    /// is the one [`choose`](Self::choose) returns: one search builds every
    /// leaf and offers each to the cost model's choice rule.
    ///
    /// # Panics
    ///
    /// As [`choose`](Self::choose).
    pub fn plan(&self, query: &BgpQuery) -> (Vec<LogicalPlan>, LogicalPlan, f64) {
        let mut plans = Vec::new();
        let chosen = self.search(query, |chooser, leaf| {
            let plan = Rc::new(leaf.plan());
            chooser.offer(leaf.height(), || Rc::clone(&plan));
            plans.push(plan);
        });
        let plans = (plans.into_iter())
            .map(|plan| Rc::try_unwrap(plan).expect("the chooser is dropped"))
            .collect();
        (plans, chosen.plan, chosen.optimize_ms)
    }

    /// What a plan-cache miss costs: optimizes `query` and returns the plan
    /// the cost model chooses, without collecting the candidates. Each leaf
    /// of the search goes to the cost model's choice rule as the search
    /// reaches it, and its plan is built only when its height lets it win.
    ///
    /// # Panics
    ///
    /// Panics if the optimizer finds no plan, i.e. the query is empty or a
    /// cross product (`!query.is_connected()`). Every maximal clique stays a
    /// candidate however many partial ones the enumeration cap cuts, so MSC
    /// finds a plan for every connected query, and the server, which
    /// answers an empty query or a cross product with a 400 before
    /// planning, no longer reaches this panic.
    pub fn choose(&self, query: &BgpQuery) -> Chosen {
        self.search(query, |chooser, leaf| {
            chooser.offer(leaf.height(), || Rc::new(leaf.plan()))
        })
    }

    /// One search of `query` under this configuration, handing each leaf
    /// and the chooser to `visit`.
    fn search(
        &self,
        query: &BgpQuery,
        mut visit: impl FnMut(&mut PlanChooser<'_, Rc<LogicalPlan>>, &Leaf<'_>),
    ) -> Chosen {
        let started = Instant::now();
        let optimizer_config = OptimizerConfig::variant(self.config.variant)
            .with_max_plans(self.config.max_candidate_plans);
        let model = MapReduceCostModel::new(&self.cluster);
        let mut chooser = model.chooser();
        let summary =
            Optimizer::new(optimizer_config).search(query, |leaf| visit(&mut chooser, leaf));
        let chosen = chooser.into_best().unwrap_or_else(|| {
            panic!(
                "no plan found for query {:?} (disconnected or empty?)",
                query.name()
            )
        });
        Chosen {
            plan: Rc::unwrap_or_clone(chosen),
            candidates: summary.leaves,
            optimize_ms: started.elapsed().as_secs_f64() * 1000.0,
        }
    }

    /// Runs `query` end to end and reports what happened. Plan choice is
    /// always made by the deterministic cost model; only the execution of
    /// the chosen plan uses the configured runtime.
    pub fn run(&self, query: &BgpQuery) -> CsqReport {
        let chosen = self.choose(query);
        let physical = translate(&chosen.plan, self.cluster.graph());
        let execution =
            Executor::with_runtime(&self.cluster, self.config.runtime()).execute(&physical);
        CsqReport {
            query: query.name().to_string(),
            candidate_plans: chosen.candidates,
            optimization_ms: chosen.optimize_ms,
            plan_height: chosen.plan.height(),
            job_descriptor: execution.schedule.descriptor(),
            jobs: execution.schedule.job_count,
            result_count: execution.distinct_count(),
            simulated_seconds: execution.simulated_seconds,
            wall_seconds: execution.wall_seconds,
            threads: execution.threads,
            chosen_plan: chosen.plan,
            execution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_count;
    use cliquesquare_mapreduce::ClusterConfig;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use cliquesquare_sparql::parser::parse_query;

    fn csq() -> Csq {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        Csq::new(cluster, CsqConfig::default())
    }

    #[test]
    fn end_to_end_join_query() {
        let csq = csq();
        let q =
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }").unwrap();
        let report = csq.run(&q);
        assert!(report.candidate_plans >= 1);
        assert_eq!(report.plan_height, 1);
        assert_eq!(report.jobs, 1);
        assert!(report.result_count > 0);
        assert_eq!(
            report.result_count,
            reference_count(csq.cluster().graph(), &q)
        );
        assert!(report.simulated_seconds > 0.0);
    }

    #[test]
    fn six_pattern_lubm_query_is_correct() {
        let csq = csq();
        let q = parse_query(
            "SELECT ?x ?y ?z WHERE { ?x rdf:type ub:UndergraduateStudent . ?y rdf:type ub:FullProfessor . \
             ?z rdf:type ub:Course . ?x ub:advisor ?y . ?x ub:takesCourse ?z . ?y ub:teacherOf ?z }",
        )
        .unwrap();
        let report = csq.run(&q);
        assert_eq!(
            report.result_count,
            reference_count(csq.cluster().graph(), &q)
        );
        assert!(report.plan_height <= 2);
    }

    #[test]
    fn chosen_plan_is_among_the_flattest() {
        let csq = csq();
        let q = parse_query(
            "SELECT ?x ?z WHERE { ?x ub:advisor ?y . ?y ub:worksFor ?z . ?z ub:subOrganizationOf ?u }",
        )
        .unwrap();
        let (candidates, chosen, _) = csq.plan(&q);
        let min_height = candidates.iter().map(LogicalPlan::height).min().unwrap();
        assert_eq!(chosen.height(), min_height);
    }

    #[test]
    fn parallel_csq_agrees_with_sequential() {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        let q =
            parse_query("SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d }").unwrap();
        let sequential = Csq::new(cluster.clone(), CsqConfig::default().with_threads(1)).run(&q);
        let parallel = Csq::new(cluster, CsqConfig::default().with_threads(4)).run(&q);
        assert_eq!(parallel.threads, 4);
        assert_eq!(sequential.result_count, parallel.result_count);
        assert_eq!(sequential.job_descriptor, parallel.job_descriptor);
        assert_eq!(sequential.simulated_seconds, parallel.simulated_seconds);
        assert_eq!(sequential.execution.results, parallel.execution.results);
        assert!(parallel.wall_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "no plan found")]
    fn disconnected_query_panics_with_clear_message() {
        let csq = csq();
        let q = parse_query("SELECT ?a WHERE { ?a ub:p ?b . ?x ub:q ?y }").unwrap();
        let _ = csq.run(&q);
    }
}
