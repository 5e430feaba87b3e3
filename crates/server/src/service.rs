//! The serving boundary: SPARQL text in, structured answers or errors out.

use crate::plancache::{CachedPlan, PlanCache, TemplateKey, DEFAULT_CAPACITY};
use cliquesquare_engine::relation::Rows;
use cliquesquare_engine::{
    rebind_constants, translate, Csq, CsqConfig, Executor, MapReduceCostModel, PhysicalPlan,
    Relation,
};
use cliquesquare_mapreduce::{Cluster, Runtime};
use cliquesquare_obs::{QueryProfile, SpanNode};
use cliquesquare_querygen::lubm_queries::lubm_queries;
use cliquesquare_rdf::{Graph, TermId};
use cliquesquare_sparql::parser::parse_query;
use cliquesquare_sparql::{BgpQuery, Variable};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default cap on the number of result rows one answer carries, so a single
/// huge query cannot balloon an HTTP response without bound. The full
/// distinct count is always reported.
pub const DEFAULT_MAX_ROWS: usize = 1_000;

/// A structured serving error. Nothing else crosses the serving boundary:
/// worker panics are caught, the job's wave is cancelled on the scheduler,
/// and the failure surfaces here as [`ServeError::Internal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request text is not a well-formed BGP query (HTTP 400).
    BadQuery(String),
    /// The request asked for a named query the service does not know
    /// (HTTP 404).
    UnknownQuery(String),
    /// The request's path is not one the endpoint serves (HTTP 404).
    UnknownPath(String),
    /// The request's path is served, but not for its method (HTTP 405).
    MethodNotAllowed {
        /// The method the request used.
        method: String,
        /// The methods the path accepts, as the `Allow` header lists them.
        allow: &'static str,
    },
    /// The request body exceeds the configured size limit (HTTP 413).
    TooLarge {
        /// The configured limit in bytes.
        limit: usize,
        /// The size the request declared or reached.
        actual: usize,
    },
    /// The request framed its body with `Transfer-Encoding`, which the
    /// endpoint does not decode: it reads bodies by `Content-Length` only
    /// (HTTP 411).
    LengthRequired,
    /// Query execution panicked; the job was cancelled and the worker pool
    /// survived (HTTP 500).
    Internal(String),
    /// The client did not deliver its request within the connection's read
    /// timeout (HTTP 408).
    Timeout,
}

impl ServeError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadQuery(_) => 400,
            ServeError::UnknownQuery(_) | ServeError::UnknownPath(_) => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::LengthRequired => 411,
            ServeError::TooLarge { .. } => 413,
            ServeError::Internal(_) => 500,
            ServeError::Timeout => 408,
        }
    }

    /// The HTTP reason phrase for [`status`](Self::status).
    pub fn reason(&self) -> &'static str {
        match self {
            ServeError::BadQuery(_) => "Bad Request",
            ServeError::UnknownQuery(_) | ServeError::UnknownPath(_) => "Not Found",
            ServeError::MethodNotAllowed { .. } => "Method Not Allowed",
            ServeError::LengthRequired => "Length Required",
            ServeError::TooLarge { .. } => "Payload Too Large",
            ServeError::Internal(_) => "Internal Server Error",
            ServeError::Timeout => "Request Timeout",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadQuery(message) => write!(f, "malformed query: {message}"),
            ServeError::UnknownQuery(name) => write!(f, "unknown query name: {name:?}"),
            ServeError::UnknownPath(path) => write!(f, "unknown path: {path:?}"),
            ServeError::MethodNotAllowed { method, allow } => {
                write!(f, "method {method:?} not allowed here (allowed: {allow})")
            }
            ServeError::LengthRequired => write!(
                f,
                "Transfer-Encoding is not supported: send the body with a Content-Length"
            ),
            ServeError::TooLarge { limit, actual } => {
                write!(
                    f,
                    "request of {actual} bytes exceeds the {limit}-byte limit"
                )
            }
            ServeError::Internal(message) => write!(f, "query execution failed: {message}"),
            ServeError::Timeout => write!(f, "request not received before the read timeout"),
        }
    }
}

/// An answer's rows as the bounded root cut them: dictionary ids, beside the
/// graph whose dictionary decodes them. Nothing is decoded on the serving
/// path until the HTTP writer renders each cell straight from
/// [`Graph::decode`] into the response body; [`decoded`](Self::decoded) is
/// for tests and in-process callers that want the terms as text.
#[derive(Clone)]
pub struct AnswerRows {
    relation: Relation,
    graph: Arc<Graph>,
}

impl AnswerRows {
    /// The rows of `relation`, to be decoded through `graph`'s dictionary.
    pub fn new(relation: Relation, graph: Arc<Graph>) -> Self {
        Self { relation, graph }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// The rows as id slices, in canonical order.
    pub(crate) fn ids(&self) -> Rows<'_> {
        self.relation.rows()
    }

    /// The graph whose dictionary decodes the ids.
    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The rows with every cell decoded to its term's text (`<iri>`,
    /// `"literal"`), or `#id` for an id the dictionary does not hold.
    pub fn decoded(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        let decode = |&id: &TermId| match self.graph.decode(id) {
            Some(term) => term.to_string(),
            None => id.to_string(),
        };
        self.ids().map(move |row| row.iter().map(decode).collect())
    }
}

/// Shows the decoded rows, not the whole graph behind them.
impl fmt::Debug for AnswerRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.decoded()).finish()
    }
}

/// One served query's answer: the distinct bindings, still as ids, plus the
/// execution facts a client needs to reason about them.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The query's name (empty for ad-hoc SPARQL text).
    pub query: String,
    /// The projected variables, in schema order (`?x`, `?y`, …).
    pub variables: Vec<String>,
    /// Distinct rows in canonical order, capped at the service's row limit:
    /// the bounded root's cut, decoded only when rendered.
    pub rows: AnswerRows,
    /// The full distinct answer count (may exceed `rows.len()`), exact on
    /// every path of the executor's bounded root
    /// ([`Executor::execute_bounded`]): counted on the factorized runs or on
    /// each part's rows where those provably share no row, over the whole
    /// expanded and de-duplicated answer otherwise.
    pub total_rows: usize,
    /// Whether `rows` was truncated to the row limit.
    pub truncated: bool,
    /// Paper-style job descriptor of the executed plan (`"M"`, `"1"`, …).
    pub job_descriptor: String,
    /// Simulated response time on the modeled cluster, in seconds.
    pub simulated_seconds: f64,
    /// Measured wall-clock execution time, in seconds: the whole of
    /// [`Executor::execute_bounded`], so it includes counting `total_rows`
    /// and cutting to the row limit; rendering `rows` comes after it.
    pub wall_seconds: f64,
    /// Measured wall-clock planning time (plan choice + translation on a
    /// cache miss, constant rebinding on a hit), in seconds. Disjoint from
    /// [`wall_seconds`](Self::wall_seconds), which covers execution only.
    pub plan_seconds: f64,
    /// Whether the physical plan came from the template plan cache.
    pub cache_hit: bool,
    /// Per-query execution profile (parse → plan → execute span tree),
    /// present only when the request asked for one with `profile=1`.
    pub profile: Option<QueryProfile>,
}

/// A shared, thread-safe query service over one loaded cluster.
///
/// The cluster's graph and partitioned store are immutable `Arc` snapshots:
/// every in-flight query reads the same loaded data with no copies and no
/// locks. All queries execute through one [`Runtime`] — pass a
/// [`Runtime::serving`] runtime to interleave their task waves on a shared
/// worker pool.
#[derive(Debug)]
pub struct QueryService {
    csq: Csq,
    executor: Executor,
    named: BTreeMap<String, BgpQuery>,
    max_rows: usize,
    plan_cache: Option<PlanCache>,
    served: AtomicU64,
    failed: AtomicU64,
}

impl QueryService {
    /// Creates a service over `cluster` executing on `runtime`. The named
    /// query catalog is the LUBM mix (`Q1` … `Q14`). The template plan
    /// cache is on by default with [`DEFAULT_CAPACITY`] entries; disable it
    /// with [`with_plan_cache`](Self::with_plan_cache)`(None)`.
    pub fn new(cluster: Cluster, runtime: Runtime) -> Self {
        let named = lubm_queries()
            .into_iter()
            .map(|q| (q.name().to_string(), q))
            .collect();
        cliquesquare_obs::global()
            .gauge(
                "csq_cluster_partitions",
                "Physical partitions of the served cluster: files per store replica, tasks per wave",
                &[],
            )
            .set(cluster.nodes() as i64);
        Self {
            executor: Executor::with_runtime(&cluster, runtime),
            csq: Csq::new(cluster, CsqConfig::default()),
            named,
            max_rows: DEFAULT_MAX_ROWS,
            plan_cache: Some(PlanCache::new(DEFAULT_CAPACITY)),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// This service with a different result-row cap.
    pub fn with_max_rows(mut self, max_rows: usize) -> Self {
        self.max_rows = max_rows.max(1);
        self
    }

    /// This service with the template plan cache capped at `capacity`
    /// entries, or with the cache disabled (`None`). Answers are
    /// bit-identical either way — the cache only decides whether repeated
    /// templates pay for planning again.
    pub fn with_plan_cache(mut self, capacity: Option<usize>) -> Self {
        self.plan_cache = capacity.map(PlanCache::new);
        self
    }

    /// The plan cache, when enabled.
    pub fn plan_cache(&self) -> Option<&PlanCache> {
        self.plan_cache.as_ref()
    }

    /// Number of worker threads the serving runtime uses.
    pub fn threads(&self) -> usize {
        self.executor.runtime().threads()
    }

    /// `(served, failed)` request counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.served.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// Parses and executes ad-hoc SPARQL text.
    pub fn execute_text(&self, text: &str) -> Result<QueryAnswer, ServeError> {
        self.execute_text_opts(text, false)
    }

    /// [`execute_text`](Self::execute_text), optionally capturing a
    /// per-query execution profile. Answers are bit-identical either way;
    /// profiling only fills [`QueryAnswer::profile`].
    pub fn execute_text_opts(&self, text: &str, profile: bool) -> Result<QueryAnswer, ServeError> {
        let parse_started = Instant::now();
        let query = match parse_query(text) {
            Ok(query) => query,
            Err(error) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::BadQuery(error.to_string()));
            }
        };
        let parse_seconds = parse_started.elapsed().as_secs_f64();
        self.run_opts(&query, profile.then_some(parse_seconds))
    }

    /// Executes a catalog query by name (`Q1` … `Q14`).
    pub fn execute_named(&self, name: &str) -> Result<QueryAnswer, ServeError> {
        self.execute_named_opts(name, false)
    }

    /// [`execute_named`](Self::execute_named), optionally capturing a
    /// per-query execution profile.
    pub fn execute_named_opts(&self, name: &str, profile: bool) -> Result<QueryAnswer, ServeError> {
        let Some(query) = self.named.get(name).cloned() else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::UnknownQuery(name.to_string()));
        };
        self.run_opts(&query, profile.then_some(0.0))
    }

    /// Plans and executes one parsed query, catching any panic at the
    /// boundary. A worker-thread panic cancels the job's remaining tasks on
    /// the scheduler, re-raises on this (submitting) thread, and is caught
    /// here — the worker pool keeps serving other jobs throughout.
    pub fn run(&self, query: &BgpQuery) -> Result<QueryAnswer, ServeError> {
        self.run_opts(query, None)
    }

    /// `parse_seconds` is `Some` to request a profile; its value is the
    /// already-spent parse time credited as the tree's first span.
    fn run_opts(
        &self,
        query: &BgpQuery,
        parse_seconds: Option<f64>,
    ) -> Result<QueryAnswer, ServeError> {
        if !query.is_connected() {
            // The optimizer only builds ×-free plans (`Csq::choose` asserts it
            // found one), so a cross product is turned away as the client's
            // error before planning.
            self.failed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::BadQuery(
                "the triple patterns form a cross product (they do not all connect \
                 through shared variables)"
                    .to_string(),
            ));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.run_unguarded(query, parse_seconds)
        }));
        match outcome {
            Ok(answer) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                Ok(answer)
            }
            Err(payload) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Internal(panic_message(payload.as_ref())))
            }
        }
    }

    /// Produces the physical plan for `query`: on a plan-cache hit the
    /// cached template plan is rebound to this query's constants (skipping
    /// decomposition, plan-space search and translation entirely); on a
    /// miss the full pipeline runs and the result is cached under the
    /// query's template key.
    fn plan_physical(&self, query: &BgpQuery) -> Planned {
        let graph = self.csq.cluster().graph();
        let key = match &self.plan_cache {
            Some(cache) => {
                let key = TemplateKey::of(query);
                if key.is_none() {
                    cache.note_uncacheable();
                }
                key
            }
            None => None,
        };
        if let (Some(cache), Some(key)) = (&self.plan_cache, &key) {
            if let Some(cached) = cache.lookup(key) {
                match rebind_constants(&cached.plan, query, graph) {
                    Some(rebound) => {
                        // The plan carries the template's variable names;
                        // first-occurrence order aligns them with this
                        // query's names for presenting the answer schema.
                        let rename = cached
                            .variables
                            .iter()
                            .cloned()
                            .zip(query.variables())
                            .collect();
                        return Planned {
                            plan: Arc::new(rebound),
                            optimize_ms: 0.0,
                            candidates: 0,
                            rename: Some(rename),
                        };
                    }
                    // A template-key collision (the key should rule this
                    // out; guarded anyway): drop the colliding entry and
                    // fall back to full planning.
                    None => cache.remove(key),
                }
            }
        }
        let chosen = self.csq.choose(query);
        let plan = Arc::new(translate(&chosen.plan, graph));
        if let (Some(cache), Some(key)) = (&self.plan_cache, key) {
            cache.insert(
                key,
                CachedPlan {
                    plan: Arc::clone(&plan),
                    variables: query.variables(),
                },
            );
        }
        Planned {
            plan,
            optimize_ms: chosen.optimize_ms,
            candidates: chosen.candidates,
            rename: None,
        }
    }

    fn run_unguarded(&self, query: &BgpQuery, parse_seconds: Option<f64>) -> QueryAnswer {
        let epoch = Instant::now();
        let planned = self.plan_physical(query);
        let physical = &planned.plan;
        let cache_hit = planned.rename.is_some();
        let plan_seconds = epoch.elapsed().as_secs_f64();
        let estimates = parse_seconds
            .map(|_| MapReduceCostModel::new(self.csq.cluster()).estimate_cards(physical));
        let bounded = self
            .executor
            .execute_bounded(physical, self.max_rows, estimates.as_deref());
        let (output, total_rows) = (bounded.execution, bounded.total_rows);
        let profile = parse_seconds.map(|parse_seconds| {
            let mut root = SpanNode::new("query");
            root.wall_seconds = parse_seconds + epoch.elapsed().as_secs_f64();
            let mut parse = SpanNode::new("parse");
            parse.wall_seconds = parse_seconds;
            let mut plan = SpanNode::new("plan");
            plan.start_seconds = parse_seconds;
            plan.wall_seconds = plan_seconds;
            plan.add_attr("optimize_us", (planned.optimize_ms * 1_000.0) as u64);
            plan.add_attr("cache_hit", cache_hit as u64);
            plan.add_attr("candidates", planned.candidates as u64);
            root.children.push(parse);
            root.children.push(plan);
            if let Some(mut execute) = output.profile.clone() {
                execute.shift(parse_seconds + plan_seconds);
                root.children.push(execute);
            }
            QueryProfile {
                query: query.name().to_string(),
                threads: self.threads(),
                total_wall_seconds: root.wall_seconds,
                root,
            }
        });
        let results = output.results;
        QueryAnswer {
            query: query.name().to_string(),
            // On a cache hit the plan's schema carries the template's
            // variable names; translate them back to this query's names.
            variables: results
                .schema()
                .iter()
                .map(|v| {
                    let mut pairs = planned.rename.iter().flatten();
                    let renamed = pairs.find(|(template, _)| template == v);
                    renamed.map_or(v, |(_, name)| name).to_string()
                })
                .collect(),
            truncated: total_rows > results.len(),
            rows: AnswerRows::new(results, self.csq.cluster().graph_arc()),
            total_rows,
            job_descriptor: output.schedule.descriptor(),
            simulated_seconds: output.simulated_seconds,
            wall_seconds: output.wall_seconds,
            plan_seconds,
            cache_hit,
            profile,
        }
    }
}

/// What [`QueryService::plan_physical`] hands to execution.
struct Planned {
    plan: Arc<PhysicalPlan>,
    /// Optimizer milliseconds (plan search + pricing); 0 on a cache hit.
    optimize_ms: f64,
    /// How many leaves (candidate plans) the search reached; 0 on a cache
    /// hit.
    candidates: usize,
    /// On a cache hit, each of the cached plan's variables beside this
    /// query's name for it (a handful of pairs sharing their names: no
    /// string is copied or hashed); `None` on a miss.
    rename: Option<Vec<(Variable, Variable)>>,
}

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// every `panic!`/`assert!` in the workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "query worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesquare_mapreduce::ClusterConfig;
    use cliquesquare_rdf::{LubmGenerator, LubmScale};
    use std::sync::Arc;

    fn service() -> QueryService {
        let graph = LubmGenerator::new(LubmScale::tiny()).generate();
        let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
        QueryService::new(cluster, Runtime::serving(2))
    }

    #[test]
    fn named_query_answers_match_the_single_job_path() {
        let svc = service();
        let answer = svc.execute_named("Q1").expect("Q1 serves");
        let report = svc.csq.run(&svc.named["Q1"]);
        assert_eq!(answer.total_rows, report.result_count);
        assert_eq!(answer.job_descriptor, report.job_descriptor);
        assert_eq!(svc.counters().0, 1);
    }

    #[test]
    fn malformed_sparql_is_a_400() {
        let svc = service();
        let error = svc.execute_text("SELECT WHERE oops {").unwrap_err();
        assert_eq!(error.status(), 400);
        assert!(matches!(error, ServeError::BadQuery(_)));
        assert_eq!(svc.counters(), (0, 1));
    }

    #[test]
    fn unknown_query_name_is_a_404() {
        let svc = service();
        let error = svc.execute_named("Q99").unwrap_err();
        assert_eq!(error.status(), 404);
        assert_eq!(error.to_string(), "unknown query name: \"Q99\"");
    }

    #[test]
    fn planner_panic_is_contained_and_the_pool_survives() {
        let svc = service();
        // The parser never produces a query without patterns; one built by
        // hand makes the planner panic ("no plan found"), and the serving
        // boundary must turn that into a 500 and keep serving.
        let error = svc.run(&BgpQuery::new(Vec::new(), Vec::new())).unwrap_err();
        assert_eq!(error.status(), 500);
        assert!(error.to_string().contains("no plan found"));
        assert!(svc.execute_named("Q2").is_ok());
        assert_eq!(svc.counters(), (1, 1));
    }

    #[test]
    fn a_cross_product_is_a_400_and_counts_as_failed() {
        let svc = service();
        let error = svc
            .execute_text("SELECT ?a WHERE { ?a ub:p ?b . ?x ub:q ?y }")
            .unwrap_err();
        assert_eq!(error.status(), 400);
        assert!(error.to_string().contains("cross product"), "{error}");
        assert_eq!(svc.counters(), (0, 1));
    }

    #[test]
    fn row_cap_truncates_but_reports_the_full_count() {
        let svc = service().with_max_rows(1);
        let answer = svc
            .execute_text("SELECT ?x ?y WHERE { ?x ub:advisor ?y }")
            .expect("advisor query serves");
        assert!(answer.total_rows > 1);
        assert_eq!(answer.rows.len(), 1);
        assert!(answer.truncated);
    }

    #[test]
    fn concurrent_clients_get_bit_identical_answers() {
        let svc = Arc::new(service());
        let solo: Vec<QueryAnswer> = ["Q1", "Q2", "Q4", "Q14"]
            .iter()
            .map(|name| svc.execute_named(name).unwrap())
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    ["Q1", "Q2", "Q4", "Q14"]
                        .iter()
                        .map(|name| svc.execute_named(name).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let interleaved = handle.join().unwrap();
            for (a, b) in solo.iter().zip(&interleaved) {
                assert!(a.rows.decoded().eq(b.rows.decoded()));
                assert_eq!(a.total_rows, b.total_rows);
                assert_eq!(a.job_descriptor, b.job_descriptor);
            }
        }
    }
}
