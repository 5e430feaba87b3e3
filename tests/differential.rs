//! The differential matrix: every answer that leaves the system equals
//! `engine::reference`'s, checked in one table.
//!
//! A **row** is a dataset and its queries, one `#[test]` each, so a failure
//! names its row; every assertion message names its cell. Two sets of axes
//! run on the rows:
//!
//! * **Engine axes, as a product:** partitions {1, 2, 3, 4, 7} × runtime
//!   {sequential, scoped threads 2 and 8, serving pool 1, 2 and 8} × plan
//!   {the one `Csq::plan` chooses (the same at 1 and 7 partitions), plus
//!   `BinaryPlanner`'s best bushy and best linear plans on LUBM and SP²B} ×
//!   entry {`execute`, `execute_profiled`, `execute_bounded` at
//!   k ∈ {1, 7, 1 000, ∞} with and without estimates}. `execute_bounded` is
//!   the service's entry and runs on the runtimes the service runs on: the
//!   sequential runtime and the serving pools. The distinct rows are the
//!   reference's. Within one partition count the result relation of an
//!   entry, the job counters, the job descriptor and the simulated seconds
//!   are bit-identical across runtimes and entries. A bounded answer is the
//!   unbounded distinct answer cut at k, its count that answer's length, and
//!   the bounded cells of a plan take one route (runs, eager parts, or the
//!   gather).
//! * **Service axes, all pairs** ([`SERVICE_CELLS`]): threads {1, 2, 8} ×
//!   partitions {1, 4, 7} × plan cache {on, off} × pass {cold, warm} ×
//!   profile {on, off} × `max_rows` {1, 1 000, ∞} × transport {in-process
//!   `QueryService`, HTTP} × clients {solo, two noise clients}. Rows, count,
//!   truncation and variables are the reference's, decoded and cut, and with
//!   the cache on a request hits exactly when its template was served before.
//!
//! A new execution path is one more value on one of these axes.

use cliquesquare_baselines::BinaryPlanner;
use cliquesquare_core::LogicalPlan;
use cliquesquare_engine::reference::reference_eval;
use cliquesquare_engine::{
    rebind_constants, translate, Csq, CsqConfig, Executor, MapReduceCostModel, PhysId, PhysicalOp,
    PhysicalPlan, Relation, ScanSpec,
};
use cliquesquare_mapreduce::{Cluster, ClusterConfig, CostParameters, Runtime};
use cliquesquare_obs::json::push_strings;
use cliquesquare_obs::SpanNode;
use cliquesquare_querygen::lubm_queries::lubm_queries;
use cliquesquare_querygen::sp2b_queries::sp2b_queries;
use cliquesquare_querygen::{SyntheticShape, SyntheticWorkload, WorkloadConfig};
use cliquesquare_rdf::{
    ntriples, Graph, LubmGenerator, LubmScale, Sp2bGenerator, Sp2bScale, Term, TermId,
    TriplePosition,
};
use cliquesquare_server::plancache::DEFAULT_CAPACITY;
use cliquesquare_server::{HttpServer, QueryService, ServerConfig, TemplateKey};
use cliquesquare_sparql::parser::parse_query;
use cliquesquare_sparql::{BgpQuery, PatternTerm, TriplePattern, Variable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: [usize; 5] = [1, 2, 3, 4, 7];

/// The entries, as `(bound, spans)`: `execute` (no bound, no spans),
/// `execute_profiled` (no bound, spans) and `execute_bounded` at each bound
/// without and with estimates (which record spans).
const BOUNDS: [Option<usize>; 5] = [None, Some(1), Some(7), Some(1_000), Some(usize::MAX)];

/// How the root of a bounded execution was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Route {
    /// Counted on the factorized runs; only the head was expanded.
    Runs,
    /// Counted on each eager part's rows.
    Eager,
    /// Expanded, gathered, de-duplicated and cut (`bounded: 0`, or a root
    /// that is no projection at all).
    Fallback,
}

fn attr(node: &SpanNode, name: &str) -> Option<u64> {
    let found = node.attrs.iter().find(|(n, _)| n == name);
    found.map(|&(_, value)| value)
}

/// `name` summed over every span of the tree.
fn attr_sum(root: &SpanNode, name: &str) -> u64 {
    let children = root.children.iter().map(|child| attr_sum(child, name));
    attr(root, name).unwrap_or(0) + children.sum::<u64>()
}

/// The first of `plan`'s operators consuming the one a span names
/// (`MapScan#3`), with its id.
fn consumer_of<'p>(plan: &'p PhysicalPlan, span: &str) -> Option<(u64, &'p PhysicalOp)> {
    let id = PhysId(span.split_once('#')?.1.parse().ok()?);
    let mut ops = plan.ops().iter().enumerate();
    let (consumer, op) = ops.find(|(_, op)| op.inputs().contains(&id))?;
    Some((consumer as u64, op))
}

/// Whether the scan a span names was sought by the key set of a join above
/// its consumer (`keys_in`, and `keys_from` names another operator): keys
/// that crossed a level of the plan.
fn level_crossing(plan: &PhysicalPlan, span: &SpanNode) -> bool {
    let consumer = consumer_of(plan, &span.name).map(|(id, _)| id);
    let sought = attr(span, "keys_in").is_some();
    sought && attr(span, "keys_from").is_some_and(|join| Some(join) != consumer)
}

/// The property of the scan a span names (`MapScan#3`), if it is a scan of
/// a constant property.
fn scan_property(plan: &PhysicalPlan, span: &str) -> Option<Term> {
    let id = PhysId(span.split_once('#')?.1.parse().ok()?);
    let PhysicalOp::MapScan { spec, .. } = plan.ops().get(id.index())? else {
        return None;
    };
    match &spec.pattern.property {
        PatternTerm::Constant(property) => Some(property.clone()),
        PatternTerm::Variable(_) => None,
    }
}

/// The route a profiled bounded execution's span tree reports.
fn route_of(execute: &SpanNode) -> Route {
    let operators = execute.children.iter().flat_map(|job| &job.children);
    let mut projections = operators.filter(|op| op.name.starts_with("Project#"));
    let Some(project) = projections.next_back() else {
        return Route::Fallback;
    };
    match attr(project, "bounded") {
        Some(1) if attr(project, "runs_emitted").is_some() => Route::Runs,
        Some(1) => Route::Eager,
        _ => Route::Fallback,
    }
}

/// What a plan's cells showed besides their answers; the counters come from
/// the sequential `execute_profiled` cell of each partition count, summed.
#[derive(Debug, Default)]
struct Observed {
    /// The route the bounded cells took (the same in every one).
    route: Option<Route>,
    /// Scans that read only the keys of a key set in scope (`keys_in`).
    restricted_scans: usize,
    /// Of those, the inputs of a ReduceJoin: keys gathered from an input
    /// that is not co-located.
    reduce_restricted_scans: usize,
    /// Of those, the scans sought by the key set of a join above their
    /// consumer (`keys_from`), keys that crossed a level of the plan.
    ancestor_keyed_scans: usize,
    /// Scans that read their files in full and dropped, as they bound them,
    /// the triples whose key is not in a key set in scope (`keys_filtered`).
    filtered_scans: usize,
    /// The properties of those scans whose filter dropped triples.
    filtered_properties: BTreeSet<Term>,
    /// Operators with a wave that ran on the submitting thread (`inline`).
    inline_waves: usize,
    /// Waves the serving pools' schedulers ran, over every cell.
    pool_waves: u64,
    runs_emitted: u64,
    /// How far the rows expanded at the root are from the joins' output (a
    /// star whose one join is factorized expands exactly its join output).
    expansion_gap: u64,
}

/// A dataset loaded at every partition count, the modelled cluster held at
/// the paper's seven nodes, with the engine runtimes its cells run on.
struct Dataset {
    name: &'static str,
    clusters: Vec<Cluster>,
    /// Each runtime, and whether the service executes on it.
    runtimes: Vec<(&'static str, Runtime, bool)>,
}

impl Dataset {
    fn new(name: &'static str, graph: Graph) -> Self {
        let cost = CostParameters::default();
        assert_eq!(cost.nodes, 7);
        let clusters = PARTITIONS
            .map(|nodes| Cluster::load(graph.clone(), ClusterConfig { nodes, cost }))
            .to_vec();
        Self {
            name,
            clusters,
            runtimes: vec![
                ("sequential", Runtime::sequential(), true),
                ("threads=2", Runtime::with_threads(2), false),
                ("threads=8", Runtime::with_threads(8), false),
                ("serving=1", Runtime::serving(1), true),
                ("serving=2", Runtime::serving(2), true),
                ("serving=8", Runtime::serving(8), true),
            ],
        }
    }

    fn graph(&self) -> &Graph {
        self.clusters[0].graph()
    }

    fn cluster(&self, partitions: usize) -> &Cluster {
        let found = self.clusters.iter().find(|c| c.nodes() == partitions);
        found.expect("a loaded partition count")
    }

    /// The plan `Csq::plan` chooses: the same on the narrowest and the
    /// widest layout.
    fn csq_plan(&self, query: &BgpQuery) -> LogicalPlan {
        let plan_on = |c: &Cluster| Csq::new(c.clone(), CsqConfig::default()).plan(query).1;
        let (narrowest, name) = (plan_on(&self.clusters[0]), (self.name, query.name()));
        let same = narrowest == plan_on(self.cluster(7));
        assert!(same, "{name:?}: 1 and 7 partitions chose different plans");
        narrowest
    }

    /// Every engine cell of `query` under the plan `Csq::plan` chooses and,
    /// with `binary`, under the best bushy and best linear binary plans (a
    /// plan equal to one already checked is not run again).
    fn check_query(&self, query: &BgpQuery, binary: bool) -> Observed {
        let chosen = translate(&self.csq_plan(query), self.graph());
        let observed = self.check_plan(query, "csq", &chosen);
        if binary {
            let planner = BinaryPlanner::new(self.graph());
            let mut checked = vec![chosen];
            for (label, plan) in [
                ("bushy", planner.best_bushy(query)),
                ("linear", planner.best_linear(query)),
            ] {
                let plan = translate(&plan.expect("a connected query"), self.graph());
                if !checked.contains(&plan) {
                    self.check_plan(query, label, &plan);
                    checked.push(plan);
                }
            }
        }
        observed
    }

    /// Waves the serving runtimes' schedulers have run so far.
    fn pool_waves(&self) -> u64 {
        let schedulers = self
            .runtimes
            .iter()
            .filter_map(|(_, runtime, _)| runtime.scheduler());
        schedulers.map(|scheduler| scheduler.stats().waves).sum()
    }

    /// Every engine cell of `plan`, held to the reference answer of `query`.
    fn check_plan(&self, query: &BgpQuery, label: &str, plan: &PhysicalPlan) -> Observed {
        let reference = reference_eval(self.graph(), query);
        let mut descriptor = None;
        let mut observed = Observed::default();
        let pool_waves = self.pool_waves();
        for cluster in &self.clusters {
            let at = format!("{}: {} ({label} plan)", self.name, query.name());
            let at = format!("{at}, partitions={}", cluster.nodes());
            let estimates = MapReduceCostModel::new(cluster).estimate_cards(plan);
            // Every cell of this partition count is held to the sequential
            // `execute`, and that to the reference. A query distinguishing
            // every variable may run without a root projection, in the
            // join's column order: the columns are aligned.
            let base = Executor::sequential(cluster).execute(plan);
            let full = base.results.clone().distinct();
            let aligned = full.project(reference.schema()).distinct();
            assert_eq!(aligned, reference, "{at}");
            for (runtime_name, runtime, serves) in &self.runtimes {
                let executor = Executor::with_runtime(cluster, runtime.clone());
                for (bound, spans) in BOUNDS.iter().flat_map(|&b| [(b, false), (b, true)]) {
                    let cell = format!("{at}, {runtime_name}, bound={bound:?}, spans={spans}");
                    let (output, head) = match bound {
                        None if spans => (executor.execute_profiled(plan), None),
                        None => (executor.execute(plan), None),
                        Some(_) if !serves => continue,
                        Some(k) => {
                            let with = spans.then_some(&estimates[..]);
                            let bounded = executor.execute_bounded(plan, k, with);
                            let mut head = full.clone();
                            head.truncate(k);
                            assert_eq!(bounded.total_rows, full.len(), "{cell}");
                            (bounded.execution, Some(head))
                        }
                    };
                    let expected = head.as_ref().unwrap_or(&base.results);
                    assert_eq!(&output.results, expected, "{cell}");
                    assert!(output.results.is_canonical(), "{cell}");
                    assert_eq!(output.job_metrics, base.job_metrics, "{cell}");
                    let jobs = output.schedule.descriptor();
                    assert_eq!(descriptor.get_or_insert(jobs.clone()), &jobs, "{cell}");
                    let modelled = output.metrics.simulated_seconds(&CostParameters::default());
                    assert_eq!(output.simulated_seconds, modelled, "{cell}");
                    assert_eq!(output.profile.is_some(), spans, "{cell}");
                    let Some(execute) = &output.profile else {
                        continue;
                    };
                    let gather = execute.children.last().expect("Gather closes execute");
                    let gather = (&gather.name[..], gather.rows_out as usize);
                    assert_eq!(gather, ("Gather", output.results.len()), "{cell}");
                    if head.is_some() {
                        let taken = route_of(execute);
                        assert_eq!(*observed.route.get_or_insert(taken), taken, "{cell}");
                    } else if *runtime_name == "sequential" {
                        let operators = execute.children.iter().flat_map(|j| &j.children);
                        for op in operators {
                            let restricted = attr(op, "keys_in").is_some();
                            observed.restricted_scans += usize::from(restricted);
                            let consumer = consumer_of(plan, &op.name);
                            let by_reduce =
                                matches!(consumer, Some((_, PhysicalOp::ReduceJoin { .. })));
                            observed.reduce_restricted_scans +=
                                usize::from(restricted && by_reduce);
                            observed.ancestor_keyed_scans += usize::from(level_crossing(plan, op));
                            observed.inline_waves += usize::from(attr(op, "inline").is_some());
                            if let Some(dropped) = attr(op, "keys_filtered") {
                                observed.filtered_scans += 1;
                                let property = scan_property(plan, &op.name);
                                observed
                                    .filtered_properties
                                    .extend(property.filter(|_| dropped > 0));
                            }
                        }
                        observed.runs_emitted += attr_sum(execute, "runs_emitted");
                        let expanded = attr_sum(execute, "rows_expanded");
                        let joined = output.metrics.join_output_tuples;
                        observed.expansion_gap += expanded.abs_diff(joined);
                    }
                }
            }
        }
        observed.pool_waves = self.pool_waves() - pool_waves;
        observed
    }

    /// Every service cell of [`SERVICE_CELLS`] over `queries` — asked by
    /// catalog name when `named`, as SPARQL text otherwise — in order: a cold
    /// pass, then a warm one.
    fn check_service(&self, queries: &[BgpQuery], named: bool) {
        let references: Vec<Relation> = (queries.iter())
            .map(|query| reference_eval(self.graph(), query))
            .collect();
        let keys: Vec<Option<TemplateKey>> = queries.iter().map(TemplateKey::of).collect();
        for (threads, partitions, max_rows, cache, http, noise, profile_cold) in SERVICE_CELLS {
            // The reference answers, decoded and cut.
            let wanted: Vec<Vec<String>> = (queries.iter().zip(&references))
                .map(|(query, reference)| {
                    let variables = query.distinguished().iter().map(Variable::to_string);
                    let decode =
                        |id: &TermId| self.graph().decode(*id).expect("loaded").to_string();
                    let rows = reference.rows().take(max_rows);
                    let rows = rows.map(|row| row.iter().map(decode).collect()).collect();
                    let (total, truncated) = (reference.len(), reference.len() > max_rows);
                    answer_lines((variables.collect(), rows, total, truncated))
                })
                .collect();
            let service =
                QueryService::new(self.cluster(partitions).clone(), Runtime::serving(threads));
            let capacity = cache.then_some(DEFAULT_CAPACITY);
            let service = Arc::new(service.with_max_rows(max_rows).with_plan_cache(capacity));
            let config = ServerConfig::default();
            let server =
                http.then(|| HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", config));
            let server = server.map(|bound| bound.expect("bind"));
            let stopped = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let _stop = Stop(&stopped, server.as_ref());
                if let Some(server) = &server {
                    scope.spawn(|| server.serve().expect("serve"));
                }
                // Two noise clients serve the row's first queries on the same
                // pool, interleaved with the checked requests until the cell
                // ends, without crowding them out.
                for offset in (0..2).filter(|_| noise) {
                    let (service, stopped) = (&service, &stopped);
                    scope.spawn(move || {
                        while !stopped.load(Ordering::Relaxed) {
                            for query in queries.iter().skip(offset).take(3) {
                                service.run(query).expect("noise serves");
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    });
                }
                for (pass, profile) in [("cold", profile_cold), ("warm", !profile_cold)] {
                    for (index, query) in queries.iter().enumerate() {
                        let axes = (threads, partitions, max_rows, cache, http, noise, profile);
                        let cell =
                            format!("{}: {} ({pass} pass), {axes:?}", self.name, query.name());
                        let served = match &server {
                            Some(server) => {
                                let addr = server.local_addr().expect("addr");
                                let (lines, profiled) = over_http(addr, query, named, profile);
                                assert_eq!(profiled, profile, "{cell}");
                                lines
                            }
                            None => {
                                let answer = match named {
                                    true => service.execute_named_opts(query.name(), profile),
                                    false => service.execute_text_opts(&query.to_string(), profile),
                                };
                                let answer = answer.expect(&cell);
                                assert_eq!(answer.profile.is_some(), profile, "{cell}");
                                let seen = pass == "warm" || keys[..index].contains(&keys[index]);
                                let hit = keys[index].is_some() && seen;
                                let checked = cache && !noise;
                                assert!(!checked || answer.cache_hit == hit, "{cell}: hit {hit}");
                                let (total, truncated) = (answer.total_rows, answer.truncated);
                                let rows = answer.rows.decoded().collect();
                                answer_lines((answer.variables, rows, total, truncated))
                            }
                        };
                        assert_eq!(served, wanted[index], "{cell}");
                    }
                }
            });
        }
    }
}

/// Ends a service cell's noise clients and HTTP server when the cell ends,
/// passed or failed: a failing assertion unwinds through it before the
/// scope joins them (so it must not panic itself).
struct Stop<'a>(&'a AtomicBool, Option<&'a HttpServer>);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
        if let Some(Ok(server)) = self.1.map(HttpServer::shutdown_handle) {
            server.stop();
        }
    }
}

/// The [`answer_lines`] of the 200 that `addr` answers `query` with —
/// asked by catalog name when `named`, as POSTed SPARQL text otherwise — and
/// whether the body carries a profile.
fn over_http(
    addr: SocketAddr,
    query: &BgpQuery,
    named: bool,
    profile: bool,
) -> (Vec<String>, bool) {
    let flag = if profile { "profile=1" } else { "" };
    let text = query.to_string();
    let request = match named {
        true => format!("GET /query?name={}&{flag} HTTP/1.1\r\n\r\n", query.name()),
        false => format!(
            "POST /sparql?{flag} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{text}",
            text.len()
        ),
    };
    answer_of(addr, &request)
}

/// The [`answer_lines`] of the 200 that `addr` answers `request` with, and
/// whether the body carries a profile.
fn answer_of(addr: SocketAddr, request: &str) -> (Vec<String>, bool) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("a response");
    assert!(head.starts_with("HTTP/1.1 200 "), "{response}");
    let keys = ["variables", "total_rows", "truncated"].map(|key| format!("  \"{key}\""));
    let carries =
        |line: &&str| line.starts_with("    [") || keys.iter().any(|k| line.starts_with(k));
    let carried = body.lines().filter(carries);
    let lines = carried.map(|line| line.trim_end_matches(',').to_string());
    let profiled = body.contains("\"profile\": {");
    (lines.collect(), profiled)
}

/// The lines of an HTTP body that carry an answer `(variables, rows,
/// total_rows, truncated)`, written by `obs::json::push_strings`, trailing
/// commas dropped.
fn answer_lines(answer: (Vec<String>, Vec<Vec<String>>, usize, bool)) -> Vec<String> {
    let strings = |items: &[String]| {
        let mut line = String::new();
        push_strings(&mut line, items);
        line
    };
    let (variables, rows, total, truncated) = answer;
    let head = [
        format!("  \"variables\": [{}]", strings(&variables)),
        format!("  \"total_rows\": {total}"),
        format!("  \"truncated\": {truncated}"),
    ];
    let rows = rows.iter().map(|row| format!("    [{}]", strings(row)));
    head.into_iter().chain(rows).collect()
}

/// The service cells: `(threads, partitions, max_rows, plan cache, HTTP,
/// two noise clients, profile on the cold pass)`, the warm pass profiling
/// the other way. Nine cells meet every pair of values of these seven axes
/// (`service_cells_cover_every_pair`); both passes run in every cell.
const SERVICE_CELLS: [(usize, usize, usize, bool, bool, bool, bool); 9] = [
    (1, 1, 1, false, false, true, true),
    (1, 4, 1_000, true, true, true, false),
    (1, 7, usize::MAX, true, false, false, true),
    (2, 1, 1_000, true, false, false, true),
    (2, 4, usize::MAX, false, true, false, true),
    (2, 7, 1, true, true, true, false),
    (8, 1, usize::MAX, true, true, true, false),
    (8, 4, 1, true, false, false, true),
    (8, 7, 1_000, false, false, false, false),
];

#[test]
fn service_cells_cover_every_pair() {
    let values: [&[usize]; 7] = [
        &[1, 2, 8],
        &[1, 4, 7],
        &[1, 1_000, usize::MAX],
        &[0, 1],
        &[0, 1],
        &[0, 1],
        &[0, 1],
    ];
    let cells =
        SERVICE_CELLS.map(|(t, p, m, c, h, n, f)| [t, p, m, c as _, h as _, n as _, f as _]);
    for (a, b) in (0..7).flat_map(|a| (a + 1..7).map(move |b| (a, b))) {
        for x in values[a] {
            for y in values[b] {
                let met = cells.iter().any(|cell| cell[a] == *x && cell[b] == *y);
                assert!(met, "axes {a} and {b}: ({x}, {y}) meet in no cell");
            }
        }
    }
}

/// `texts` parsed, named `{label} 0`, `{label} 1`, ….
fn parse_all(label: &str, texts: &[&str]) -> Vec<BgpQuery> {
    let parse = |(index, text): (usize, &&str)| {
        let mut query = parse_query(text).expect("parses");
        query.set_name(format!("{label} {index}"));
        query
    };
    texts.iter().enumerate().map(parse).collect()
}

#[test]
fn lubm() {
    let lubm = Dataset::new("LUBM", LubmGenerator::new(LubmScale::tiny()).generate());
    let queries = lubm_queries();
    let observed: Vec<Observed> = queries.iter().map(|q| lubm.check_query(q, true)).collect();
    // Q1 drops its join key and is still counted on the runs: ?P vouches.
    assert_eq!(observed[0].route, Some(Route::Runs), "Q1");
    let eager = observed.iter().any(|o| o.route == Some(Route::Eager));
    assert!(eager, "{observed:?}");
    // Q11's first job reads only what can meet the constant-fed side of
    // its second: its scans seek that side's keys across the job boundary
    // (`keys_from`). Q5's and Q10's `takesCourse` scans hold a key set too
    // large to seek, and drop triples as they bind them. Tiny waves all run on the
    // submitting thread, so the pools' schedulers see none.
    assert!(
        observed[10].ancestor_keyed_scans > 0,
        "Q11: {:?}",
        observed[10]
    );
    let takes_course = Term::iri(format!("{}takesCourse", cliquesquare_rdf::term::vocab::UB));
    for query in [4, 9] {
        let filtered = &observed[query].filtered_properties;
        assert!(filtered.contains(&takes_course), "{:?}", observed[query]);
    }
    for (query, observed) in queries.iter().zip(&observed) {
        let at = format!("{}: {observed:?}", query.name());
        assert!(
            observed.inline_waves > 0 && observed.pool_waves == 0,
            "{at}"
        );
    }
    lubm.check_service(&queries, true);
}

/// LUBM at 24 universities, large enough for both sides of the decisions
/// tiny data never reaches: one department's advisees (the `point_lookup`
/// Q4 shape) read the undergraduate class file by key for a reduce join,
/// and Q1's scans and star join are too large to run inline, so the serving
/// pools run waves.
#[test]
fn lubm_at_24_universities() {
    let graph = LubmGenerator::new(LubmScale::with_universities(24)).generate();
    let lubm = Dataset::new("LUBM 24", graph);
    let advisees = parse_query(
        "SELECT ?X ?Y WHERE { ?X rdf:type ub:UndergraduateStudent . ?Y rdf:type ub:FullProfessor . \
         ?X ub:advisor ?Y . ?Y ub:worksFor <http://www.Department0.University0.edu> }",
    )
    .unwrap();
    let q1 = cliquesquare_querygen::lubm_queries::lubm_query("Q1").expect("Q1");
    let lookup = lubm.check_query(&advisees, false);
    assert!(lookup.reduce_restricted_scans > 0, "advisees: {lookup:?}");
    let star = lubm.check_query(&q1, false);
    assert_eq!(star.reduce_restricted_scans, 0, "Q1: {star:?}");
    assert!(star.pool_waves > 0, "Q1: {star:?}");
    lubm.check_service(&[advisees, q1], false);
}

#[test]
fn sp2b() {
    let sp2b = Dataset::new("SP2B", Sp2bGenerator::new(Sp2bScale::tiny()).generate());
    let queries = sp2b_queries();
    let observed: Vec<Observed> = queries.iter().map(|q| sp2b.check_query(q, true)).collect();
    for query in &queries {
        let answers = reference_eval(sp2b.graph(), query).len();
        assert!(answers > 0, "{} has an empty answer", query.name());
    }
    let runs = observed.iter().any(|o| o.route == Some(Route::Runs));
    assert!(runs, "{observed:?}");
    // S3 keeps the ends of a chain and drops what joined them: pairs repeat
    // across runs, so the gather has to count.
    assert_eq!(observed[2].route, Some(Route::Fallback), "S3");
    sp2b.check_service(&queries, false);
}

/// An IRI of the key-passing graph's vocabulary.
fn keyed(name: impl std::fmt::Display) -> String {
    format!("http://keys.example/{name}")
}

/// Ten departments, two of them part of the hub named "H" and eight of the
/// one named "G"; `members` members and `workers` workers spread over them
/// round-robin, each member taking one of seven courses.
fn key_passing_graph(members: usize, workers: usize) -> Graph {
    let iri = |name: String| Term::iri(keyed(name));
    let mut graph = Graph::new();
    for hub in ["H", "G"] {
        graph.insert_terms(
            iri(format!("hub{hub}")),
            iri("name".into()),
            Term::literal(hub),
        );
    }
    for d in 0..10 {
        let hub = if d < 2 { "hubH" } else { "hubG" };
        graph.insert_terms(iri(format!("d{d}")), iri("partOf".into()), iri(hub.into()));
    }
    for m in 0..members {
        let (member, department) = (iri(format!("s{m}")), iri(format!("d{}", m % 10)));
        graph.insert_terms(member.clone(), iri("memberOf".into()), department);
        graph.insert_terms(member, iri("takes".into()), iri(format!("c{}", m % 7)));
    }
    for w in 0..workers {
        let department = iri(format!("d{}", w % 10));
        graph.insert_terms(iri(format!("w{w}")), iri("worksFor".into()), department);
    }
    graph
}

/// The members of hub `hub`'s departments and their courses.
const MEMBERS_OF_HUB: &str = "SELECT ?S ?C WHERE { ?S :memberOf ?D . ?S :takes ?C . \
                              ?D :partOf ?H . ?H :name \"{hub}\" }";

/// `text` with `{hub}` replaced by `hub` and every `:name` written as the
/// key-passing graph's IRI, named `label`.
fn keyed_query(label: &str, text: &str, hub: &str) -> BgpQuery {
    let text = text.replace("{hub}", hub);
    let mut pieces = text.split(':');
    let mut expanded = pieces.next().unwrap_or_default().to_string();
    for piece in pieces {
        let end = piece.find([' ', '.', '}']).unwrap_or(piece.len());
        expanded.push_str(&format!("<{}>{}", keyed(&piece[..end]), &piece[end..]));
    }
    let mut query = parse_query(&expanded).expect("parses");
    query.set_name(label.to_string());
    query
}

/// Of the scans a plan's profile says were sought by an ancestor join's
/// keys ([`level_crossing`]), those that share exactly one variable with
/// that join's attributes — the key variable — as `(at the scan's placement
/// position, off it)`.
fn keyed_positions(plan: &PhysicalPlan, execute: &SpanNode) -> (usize, usize) {
    let (mut at, mut off) = (0, 0);
    let operators = execute.children.iter().flat_map(|job| &job.children);
    for op in operators.filter(|op| level_crossing(plan, op)) {
        let (Some(join), Some((_, id))) = (attr(op, "keys_from"), op.name.split_once('#')) else {
            continue;
        };
        let PhysicalOp::MapScan { spec, output } = plan.op(PhysId(id.parse().unwrap())) else {
            panic!("{} carries keys_from", op.name);
        };
        let Some(
            PhysicalOp::MapJoin { attributes, .. } | PhysicalOp::ReduceJoin { attributes, .. },
        ) = plan.ops().get(join as usize)
        else {
            panic!("{} names no join", op.name);
        };
        let shared: Vec<&Variable> = output.intersection(attributes).collect();
        let placement = TriplePosition::ALL
            .iter()
            .position(|&p| p == spec.placement);
        let placed = spec.pattern.terms()[placement.unwrap()].as_variable();
        if let [variable] = shared[..] {
            match placed == Some(variable) {
                true => at += 1,
                false => off += 1,
            }
        }
    }
    (at, off)
}

/// The plan of `query`'s profiled sequential `execute` at 4 partitions in
/// `dataset`, and where its keyed scans read ([`keyed_positions`]).
fn keyed_at(dataset: &Dataset, plan: &PhysicalPlan) -> (usize, usize) {
    let output = Executor::sequential(dataset.cluster(4)).execute_profiled(plan);
    keyed_positions(plan, &output.profile.expect("profiled"))
}

/// Keys crossing a level of the plan where they can go wrong, each query at
/// every cell of the matrix: a key source of no rows (a hub name absent
/// from the data); the key variable off the restricted scan's placement
/// position (members placed by ?S, keyed by ?D) and at it (placed by ?D);
/// an operator shared by two consumers under the join supplying the keys,
/// evaluated unrestricted while its sibling scan is sought — neither
/// sought nor filtered, whether the key set in scope would seek or filter;
/// and a key set one row over the `RESTRICT_ROWS_PER_KEY` (64) cut, which
/// is not passed (the scan filters its full read instead), where one at the
/// cut is.
#[test]
fn key_passing() {
    // The hub's two departments against 128 memberships: at the cut.
    let at_cut = Dataset::new("keys, at the cut", key_passing_graph(128, 2_000));
    let off_placement = keyed_query("off placement", MEMBERS_OF_HUB, "H");
    let observed = at_cut.check_query(&off_placement, false);
    assert!(observed.ancestor_keyed_scans > 0, "{observed:?}");
    let plan = translate(&at_cut.csq_plan(&off_placement), at_cut.graph());
    assert!(matches!(keyed_at(&at_cut, &plan), (0, off) if off > 0));

    let absent = keyed_query("absent hub", MEMBERS_OF_HUB, "X");
    assert!(reference_eval(at_cut.graph(), &absent).is_empty());
    let observed = at_cut.check_query(&absent, false);
    assert!(observed.ancestor_keyed_scans > 0, "{observed:?}");

    let at_placement = keyed_query(
        "at placement",
        "SELECT ?S ?W WHERE { ?S :memberOf ?D . ?W :worksFor ?D . ?D :partOf ?H . ?H :name \"H\" }",
        "H",
    );
    at_cut.check_query(&at_placement, false);
    let plan = translate(&at_cut.csq_plan(&at_placement), at_cut.graph());
    assert!(matches!(keyed_at(&at_cut, &plan), (at, _) if at > 0));

    // One row over: 2 × 64 keyed rows against 127 stored memberships.
    let over_cut = Dataset::new("keys, over the cut", key_passing_graph(127, 0));
    let observed = over_cut.check_query(&keyed_query("over the cut", MEMBERS_OF_HUB, "H"), false);
    assert_eq!(observed.ancestor_keyed_scans, 0, "{observed:?}");
    assert!(observed.filtered_scans > 0, "{observed:?}");

    // The members' star is shared: the hub's side joins it first, then the
    // root's other input joins it to the workers, whose scan is sought by
    // the root's keys while the star stays whole.
    let shared = keyed_query(
        "shared",
        "SELECT ?S ?W WHERE { ?S :memberOf ?D . ?S :takes ?C . ?D :partOf ?H . \
         ?H :name \"H\" . ?W :worksFor ?D }",
        "H",
    );
    let plan = shared_star_plan(at_cut.graph());
    let observed = at_cut.check_plan(&shared, "shared star", &plan);
    assert!(observed.ancestor_keyed_scans > 0, "{observed:?}");
    let star = PhysId(2);
    let output = Executor::sequential(at_cut.cluster(4)).execute_profiled(&plan);
    let operators = output.profile.iter().flat_map(|execute| &execute.children);
    let star_span = operators
        .flat_map(|job| &job.children)
        .find(|op| op.name == "MapJoin#2");
    let star_rows = star_span.expect("the star ran").rows_out;
    let whole = reference_eval(
        at_cut.graph(),
        &keyed_query(
            "star",
            "SELECT ?S ?C ?D WHERE { ?S :memberOf ?D . ?S :takes ?C }",
            "",
        ),
    );
    assert_eq!(
        (plan.op(star).name(), star_rows),
        ("MapJoin", whole.len() as u64)
    );
    // The hub's two departments are in scope above the star: at the cut
    // its members' scan would seek them, one row over it filter by them.
    // Its scans hold only the star's own key set (`MapJoin#2`).
    let shared_over = Dataset::new("keys, shared over the cut", key_passing_graph(127, 2_000));
    let plan_over = shared_star_plan(shared_over.graph());
    shared_over.check_plan(&shared, "shared star", &plan_over);
    for (dataset, plan) in [(&at_cut, &plan), (&shared_over, &plan_over)] {
        let output = Executor::sequential(dataset.cluster(4)).execute_profiled(plan);
        let execute = output.profile.expect("profiled");
        let operators = execute.children.iter().flat_map(|job| &job.children);
        for scan in operators.filter(|op| ["MapScan#0", "MapScan#1"].contains(&&op.name[..])) {
            let keys_from = attr(scan, "keys_from");
            assert!(
                keys_from.is_none_or(|join| join == 2),
                "{}: {scan:?}",
                dataset.name
            );
        }
    }

    at_cut.check_service(&[off_placement, absent, at_placement], false);
}

/// The scan of pattern `(s, p, o)`, its property `p` in the key-passing
/// vocabulary, placed by `placement`.
fn keyed_scan(
    graph: &Graph,
    index: usize,
    (s, p, o): (PatternTerm, &str, PatternTerm),
    placement: TriplePosition,
) -> PhysicalOp {
    let pattern = TriplePattern::new(s, PatternTerm::iri(keyed(p)), o);
    let output = pattern.variables().into_iter().collect();
    let spec = ScanSpec::new(index, pattern, placement, graph);
    PhysicalOp::MapScan { spec, output }
}

fn variables(names: &[&str]) -> BTreeSet<Variable> {
    names.iter().map(|&name| Variable::new(name)).collect()
}

/// The plan of the `shared` query of [`key_passing`] whose members' star
/// (`MapJoin#2`) has two consumers under the root: the join with the hub's
/// side, and the join with the workers.
fn shared_star_plan(graph: &Graph) -> PhysicalPlan {
    let var = PatternTerm::variable;
    let scan = |index, pattern, placement| keyed_scan(graph, index, pattern, placement);
    let (subject, object) = (TriplePosition::Subject, TriplePosition::Object);
    let ops = vec![
        scan(0, (var("S"), "memberOf", var("D")), subject),
        scan(1, (var("S"), "takes", var("C")), subject),
        PhysicalOp::MapJoin {
            attributes: variables(&["S"]),
            inputs: vec![PhysId(0), PhysId(1)],
            output: variables(&["C", "D", "S"]),
        },
        scan(2, (var("D"), "partOf", var("H")), object),
        scan(3, (var("H"), "name", PatternTerm::literal("H")), subject),
        PhysicalOp::MapJoin {
            attributes: variables(&["H"]),
            inputs: vec![PhysId(3), PhysId(4)],
            output: variables(&["D", "H"]),
        },
        PhysicalOp::ReduceJoin {
            attributes: variables(&["D"]),
            inputs: vec![PhysId(2), PhysId(5)],
            output: variables(&["C", "D", "H", "S"]),
        },
        scan(4, (var("W"), "worksFor", var("D")), object),
        PhysicalOp::ReduceJoin {
            attributes: variables(&["D"]),
            inputs: vec![PhysId(2), PhysId(7)],
            output: variables(&["C", "D", "S", "W"]),
        },
        PhysicalOp::MapShuffler {
            attributes: variables(&["C", "D", "S"]),
            input: PhysId(6),
            output: variables(&["C", "D", "H", "S"]),
        },
        PhysicalOp::MapShuffler {
            attributes: variables(&["C", "D", "S"]),
            input: PhysId(8),
            output: variables(&["C", "D", "S", "W"]),
        },
        PhysicalOp::ReduceJoin {
            attributes: variables(&["C", "D", "S"]),
            inputs: vec![PhysId(9), PhysId(10)],
            output: variables(&["C", "D", "H", "S", "W"]),
        },
        PhysicalOp::Project {
            variables: vec![Variable::new("S"), Variable::new("W")],
            input: PhysId(11),
        },
    ];
    PhysicalPlan::new(ops, PhysId(12))
}

/// The plan of the `both keys` query of [`keys_of_a_join_and_of_an_ancestor`]:
/// the members' and workers' star on ?D (`MapJoin#2`), below the root's
/// join with the hub's departments on ?D (`ReduceJoin#6`).
fn both_keys_plan(graph: &Graph) -> PhysicalPlan {
    let var = PatternTerm::variable;
    let scan = |index, pattern, placement| keyed_scan(graph, index, pattern, placement);
    let (subject, object) = (TriplePosition::Subject, TriplePosition::Object);
    let ops = vec![
        scan(0, (var("S"), "memberOf", var("D")), object),
        scan(1, (var("W"), "worksFor", var("D")), object),
        PhysicalOp::MapJoin {
            attributes: variables(&["D"]),
            inputs: vec![PhysId(0), PhysId(1)],
            output: variables(&["D", "S", "W"]),
        },
        scan(2, (var("D"), "partOf", var("H")), object),
        scan(3, (var("H"), "name", PatternTerm::literal("H")), subject),
        PhysicalOp::MapJoin {
            attributes: variables(&["H"]),
            inputs: vec![PhysId(3), PhysId(4)],
            output: variables(&["D", "H"]),
        },
        PhysicalOp::ReduceJoin {
            attributes: variables(&["D"]),
            inputs: vec![PhysId(2), PhysId(5)],
            output: variables(&["D", "H", "S", "W"]),
        },
        PhysicalOp::Project {
            variables: vec![Variable::new("S"), Variable::new("W")],
            input: PhysId(6),
        },
    ];
    PhysicalPlan::new(ops, PhysId(7))
}

/// A scan both of whose key sets pass the cut: the workers' scan under the
/// members' star, once the members' scan ran sought by the hub's two
/// departments (2 × 64 against 128 memberships), holds the root's key set
/// on ?D (2 rows) and its own join's (the ≈ 26 members' rows, × 64 against
/// 2 000 workers). It seeks the smaller, the root's, and every cell still
/// answers as the reference does.
#[test]
fn keys_of_a_join_and_of_an_ancestor() {
    let at_cut = Dataset::new("keys, both", key_passing_graph(128, 2_000));
    let query = keyed_query(
        "both keys",
        "SELECT ?S ?W WHERE { ?S :memberOf ?D . ?W :worksFor ?D . ?D :partOf ?H . \
         ?H :name \"H\" }",
        "H",
    );
    let plan = both_keys_plan(at_cut.graph());
    let observed = at_cut.check_plan(&query, "both keys", &plan);
    assert!(observed.ancestor_keyed_scans > 0, "{observed:?}");
    for cluster in &at_cut.clusters {
        let output = Executor::sequential(cluster).execute_profiled(&plan);
        let execute = output.profile.expect("profiled");
        let mut operators = execute.children.iter().flat_map(|job| &job.children);
        let workers = operators.find(|op| op.name == "MapScan#1");
        let workers = workers.expect("the workers' scan ran");
        let at = format!("partitions={}: {workers:?}", cluster.nodes());
        assert_eq!(attr(workers, "keys_from"), Some(6), "{at}");
    }
}

/// `subjects` subjects with two `rare` values each, and `common` triples of
/// `common` spread over forty subjects, the rare ones among them.
fn rare_and_common(subjects: usize, common: usize) -> Graph {
    let iri = |name: String| Term::iri(keyed(name));
    let mut graph = Graph::new();
    for s in 0..subjects {
        for value in [s, s + 100] {
            graph.insert_terms(
                iri(format!("s{s}")),
                iri("rare".into()),
                iri(format!("r{value}")),
            );
        }
    }
    for c in 0..common {
        let subject = iri(format!("s{}", c % 40));
        graph.insert_terms(subject, iri("common".into()), iri(format!("o{c}")));
    }
    graph
}

/// The cut counts a key set's rows, not its distinct keys: in a co-located
/// star whose smallest scan holds two rows per key (4 subjects, 8 rows),
/// the other scan seeks those keys against 8 × 64 stored rows — by its own
/// join's key set, which crosses no level — and against one row fewer
/// reads in full, filtering by the same keys as it binds. A key set's
/// bitmap spans the ids up to its largest, and the filter probes it with
/// ids on either side of that range: over the cut the rare subjects hold
/// the lowest ids, so common subjects probe past the set's last word; with
/// two rare subjects added after every common triple, the set's last words
/// lie past every id the common file probes.
#[test]
fn a_co_located_star_at_the_seek_cut() {
    let star = "SELECT ?S ?A ?B WHERE { ?S :rare ?A . ?S :common ?B }";
    let at_cut = Dataset::new("star, at the cut", rare_and_common(4, 8 * 64));
    let query = keyed_query("star at the cut", star, "");
    let observed = at_cut.check_query(&query, false);
    assert!(observed.restricted_scans > 0, "{observed:?}");
    assert_eq!(observed.ancestor_keyed_scans, 0, "{observed:?}");
    at_cut.check_service(&[query], false);

    let iri = |name: String| Term::iri(keyed(name));
    let over_cut = rare_and_common(4, 8 * 64 - 1);
    let mut keys_past = over_cut.clone();
    for s in 0..2 {
        for value in [s, s + 100] {
            let (subject, object) = (iri(format!("late{s}")), iri(format!("r{}", 200 + value)));
            keys_past.insert_terms(subject, iri("rare".into()), object);
        }
    }
    // The last bitmap word each property's subjects reach.
    let last_word = |graph: &Graph, property: &str| {
        let property = graph.lookup(&iri(property.into())).expect("present");
        let triples = graph.triples().iter().filter(|t| t.property == property);
        triples.map(|t| t.subject.0 / 64).max().expect("triples")
    };
    assert!(last_word(&over_cut, "common") > last_word(&over_cut, "rare"));
    assert!(last_word(&keys_past, "rare") > last_word(&keys_past, "common"));
    for (name, graph) in [
        ("star over the cut", over_cut),
        ("star over the cut, keys past the probes", keys_past),
    ] {
        let dataset = Dataset::new(name, graph);
        let observed = dataset.check_query(&keyed_query(name, star, ""), false);
        assert_eq!(observed.restricted_scans, 0, "{name}: {observed:?}");
        assert!(observed.filtered_scans > 0, "{name}: {observed:?}");
    }
}

/// `key_passing_graph(128, 2 000)` with every course taught by two of three
/// teachers: `c{k} taughtBy t{(k + j) mod 3}` for j < 2.
fn taught_graph() -> Graph {
    let mut graph = key_passing_graph(128, 2_000);
    let iri = |name: String| Term::iri(keyed(name));
    for k in 0..7 {
        for j in 0..2 {
            let teacher = iri(format!("t{}", (k + j) % 3));
            graph.insert_terms(iri(format!("c{k}")), iri("taughtBy".into()), teacher);
        }
    }
    graph
}

/// A bounded root that drops its join key is answered by one route at
/// every partition count: whether some kept column vouches for the runs is
/// decided over every part's columns, not each part's first.
#[test]
fn one_route_at_every_partition_count() {
    let taught = Dataset::new("keys, taught", taught_graph());
    let query = keyed_query(
        "teachers",
        "SELECT ?S ?T WHERE { ?S :takes ?C . ?C :taughtBy ?T . ?S :memberOf ?D . \
         ?D :partOf ?H . ?H :name \"H\" }",
        "H",
    );
    let observed = taught.check_query(&query, false);
    assert_eq!(observed.route, Some(Route::Runs), "{observed:?}");
    taught.check_service(&[query], false);
}

fn synthetic_node(index: usize) -> Term {
    Term::iri(format!("http://synthetic.example/node{index}"))
}

/// `triples` random triples over the synthetic workload's property
/// vocabulary and `nodes` nodes, every tenth inserted twice when `doubled`
/// (a graph is not a set; no count may take its join inputs for one).
fn synthetic_graph(seed: u64, triples: usize, nodes: usize, doubled: bool) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = Graph::new();
    for index in 0..triples {
        let (s, o) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        let property = format!("http://synthetic.example/p{}", rng.gen_range(1..11));
        for _ in 0..1 + usize::from(doubled && index % 10 == 0) {
            graph.insert_terms(synthetic_node(s), Term::iri(&property), synthetic_node(o));
        }
    }
    graph
}

/// `query` with the `pick`-th of its variables that occur exactly once (the
/// free end of a chain, a leaf of a star) bound to `constant`: the query
/// stays connected and becomes selective. `None` when every variable joins.
fn bind_a_leaf(query: &BgpQuery, pick: usize, constant: &Term) -> Option<BgpQuery> {
    let occurrences = |v: &Variable| {
        let terms = query.patterns().iter().flat_map(|p| p.terms());
        terms.filter(|t| t.as_variable() == Some(v)).count()
    };
    let variables = query.variables();
    let leaves: Vec<&Variable> = variables.iter().filter(|v| occurrences(v) == 1).collect();
    let leaf = *leaves.get(pick % leaves.len().max(1))?;
    let bind = |term: &PatternTerm| match term.as_variable() {
        Some(v) if v == leaf => PatternTerm::Constant(constant.clone()),
        _ => term.clone(),
    };
    Some(BgpQuery::named(
        format!("{}+leaf", query.name()),
        variables.iter().filter(|v| *v != leaf).cloned().collect(),
        query
            .patterns()
            .iter()
            .map(|p| TriplePattern::new(bind(&p.subject), bind(&p.property), bind(&p.object)))
            .collect(),
    ))
}

#[test]
fn synthetic() {
    let synthetic = Dataset::new("synthetic", synthetic_graph(7, 1000, 60, true));
    let generated = SyntheticWorkload::generate(WorkloadConfig::small());
    let routes = generated
        .iter()
        .map(|query| synthetic.check_query(query, false).route);
    let routes: BTreeSet<Option<Route>> = routes.collect();
    assert!(routes.len() >= 2, "one route only: {routes:?}");
    // A fan-out star and a deep chain keep key-dropping projections: their
    // joins emit runs, and the star's expansion is exactly its join output.
    let star = SyntheticWorkload::fanout_star(3);
    let chain = SyntheticWorkload::deep_chain(3);
    let fanout = synthetic.check_query(&star, false);
    assert!(fanout.runs_emitted > 0, "{fanout:?}");
    assert_eq!(fanout.expansion_gap, 0, "{fanout:?}");
    synthetic.check_query(&chain, false);
    synthetic.check_service(&[generated.clone(), vec![star, chain]].concat(), false);
    // The first query of each shape, one leaf bound: its siblings read by
    // key. A bound leaf matches about one in `nodes` of a property's
    // triples, and a key set is sought only against 64 stored rows per row
    // (`RESTRICT_ROWS_PER_KEY`), so these run on a graph of 512 nodes.
    let sparse = Dataset::new("synthetic, sparse", synthetic_graph(7, 4_000, 512, true));
    let selective: Vec<BgpQuery> = (generated.iter().enumerate().step_by(5))
        .filter_map(|(index, query)| bind_a_leaf(query, index, &synthetic_node(index)))
        .collect();
    for query in &selective {
        let restricted = sparse.check_query(query, false).restricted_scans;
        assert!(restricted > 0, "{}: no scan read by key", query.name());
    }
    sparse.check_service(&selective, false);
}

/// Eight departments of three professors and four members each, nothing
/// shared — then, if `shared` names two departments, one more professor
/// working for both and one more member of both. Returns the graph and the
/// departments' terms.
fn departments(shared: Option<(usize, usize)>) -> (Graph, Vec<Term>) {
    let iri = |text: String| Term::iri(format!("http://adversarial.example/{text}"));
    let works_for = Term::iri("http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor");
    let member_of = Term::iri("http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf");
    let mut graph = Graph::new();
    let departments: Vec<Term> = (0..8).map(|d| iri(format!("Department{d}"))).collect();
    for (d, department) in departments.iter().enumerate() {
        for p in 0..3 {
            let professor = iri(format!("Department{d}/Professor{p}"));
            graph.insert_terms(professor, works_for.clone(), department.clone());
        }
        for s in 0..4 {
            let student = iri(format!("Department{d}/Student{s}"));
            graph.insert_terms(student, member_of.clone(), department.clone());
        }
    }
    if let Some((a, b)) = shared {
        for department in [&departments[a], &departments[b]] {
            graph.insert_terms(iri("Visitor".into()), works_for.clone(), department.clone());
            graph.insert_terms(iri("Auditor".into()), member_of.clone(), department.clone());
        }
    }
    (graph, departments)
}

/// The graphs the count on the runs must not get wrong: Q1's shape with a
/// professor in two departments that share a member, whose runs sit in one
/// partition at one partition count and in two at another.
#[test]
fn departments_sharing_a_pair() {
    let q1 = [parse_query("SELECT ?P ?S WHERE { ?P ub:worksFor ?D . ?S ub:memberOf ?D }").unwrap()];
    // Nothing shared: ?P vouches for the runs and the root counts on them.
    let unshared = Dataset::new("departments", departments(None).0);
    assert_eq!(unshared.check_query(&q1[0], false).route, Some(Route::Runs));
    unshared.check_service(&q1, false);

    // The visitor works for two departments that share the auditor: the
    // pair (visitor, auditor) comes out of both runs, neither ?P nor ?S can
    // vouch, and exactness is the gather's — in one partition (the part's
    // own check fails) and across two (only the merged check can).
    let (graph, terms) = departments(Some((0, 1)));
    let shared = Dataset::new("departments, shared pair", graph);
    // The node holding a department's `worksFor` triples: Q1's scans are
    // placed by ?D, the object.
    let works_for = Term::iri("http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor");
    let node_of = |cluster: &Cluster, department: &Term| {
        let (graph, object) = (cluster.graph(), TriplePosition::Object);
        let (property, id) = (graph.lookup(&works_for), graph.lookup(department));
        let store = cluster.store();
        let sought = store.seek(object, property, None, object, &[id.expect("loaded")]);
        sought.iter().position(|triples| !triples.is_empty())
    };
    let apart = |cluster: &Cluster| node_of(cluster, &terms[0]) != node_of(cluster, &terms[1]);
    assert!(!apart(shared.cluster(1)) && shared.clusters.iter().any(apart));
    let observed = shared.check_query(&q1[0], false);
    assert_eq!(observed.route, Some(Route::Fallback));
    // 8 × 3 × 4 pairs, the visitor with 2 × 4 students, the auditor with
    // 2 × 3 professors, and the visitor with the auditor once.
    let answers = reference_eval(shared.graph(), &q1[0]).len();
    assert_eq!(answers, 96 + 8 + 6 + 1);
    let plan = translate(&shared.csq_plan(&q1[0]), shared.graph());
    let raw = Executor::sequential(shared.cluster(4)).execute(&plan);
    assert_eq!(raw.results.len(), answers + 1, "the pair repeats");
    shared.check_service(&q1, false);
}

/// Literals with escapes, loaded from N-Triples and asked for in SPARQL:
/// the query's literal decodes to the very term the load stored.
#[test]
fn escaped_literals() {
    let text = "<s1> <label> \"a\\\"b\" .\n<s2> <label> \"x\\\\y\" .\n\
                <s3> <label> \"l\\nm\" .\n<s1> <knows> <s2> .\n<s2> <knows> <s3> .\n\
                <s3> <label> \"it\\'s \\U0001F600\" .\n";
    let graph = ntriples::parse_into_graph(text).expect("parses");
    for literal in ["a\"b", "x\\y", "l\nm", "it's \u{1F600}"] {
        assert!(
            graph.lookup(&Term::literal(literal)).is_some(),
            "{literal:?}"
        );
    }
    let literals = Dataset::new("escaped literals", graph);
    let queries = parse_all(
        "literal",
        &[
            r#"SELECT ?s WHERE { ?s <label> "a\"b" }"#,
            r#"SELECT ?s ?t WHERE { ?s <knows> ?t.?t <label> "x\\y" }"#,
            r#"SELECT ?s WHERE { ?s <label> "l\nm" }"#,
            r#"SELECT ?s WHERE { ?s <label> "it\'s \U0001F600" }"#,
        ],
    );
    for query in &queries {
        let answers = reference_eval(literals.graph(), query).len();
        assert_eq!(answers, 1, "{}", query.name());
        literals.check_query(query, false);
    }
    literals.check_service(&queries, false);
}

/// Text forms of one query: `SELECT DISTINCT` and `SELECT REDUCED` ask for
/// the distinct rows every answer already is, and a `#` comment before or
/// after the query is skipped. Each form parses to the plain query (same
/// template), and each POSTed form is answered with the plain query's
/// variables, count and rows.
#[test]
fn select_modifiers_and_comments() {
    let lubm = Dataset::new(
        "text forms",
        LubmGenerator::new(LubmScale::tiny()).generate(),
    );
    let texts = [
        "SELECT ?x ?y WHERE { ?x ub:worksFor ?y }",
        "SELECT DISTINCT ?x ?y WHERE { ?x ub:worksFor ?y }",
        "select reduced ?x ?y WHERE { ?x ub:worksFor ?y }",
        "# lecturers\nSELECT ?x ?y WHERE { ?x ub:worksFor ?y }",
        "SELECT ?x ?y WHERE { ?x ub:worksFor ?y } # trailing",
        "SELECT DISTINCT ?x ?y # who\nWHERE { ?x ub:worksFor ?y . # works where\n}\n",
    ];
    let queries = parse_all("text form", &texts);
    for (text, query) in texts.iter().zip(&queries) {
        assert_eq!(
            query.distinguished(),
            queries[0].distinguished(),
            "{text:?}"
        );
        assert_eq!(query.patterns(), queries[0].patterns(), "{text:?}");
        assert_eq!(TemplateKey::of(query), TemplateKey::of(&queries[0]));
    }
    let service = QueryService::new(lubm.cluster(4).clone(), Runtime::serving(2));
    let config = ServerConfig::default();
    let server = HttpServer::bind(Arc::new(service), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let stopped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let _stop = Stop(&stopped, Some(&server));
        scope.spawn(|| server.serve().expect("serve"));
        let post = |text: &str| {
            let request = format!(
                "POST /sparql HTTP/1.1\r\nContent-Length: {}\r\n\r\n{text}",
                text.len()
            );
            answer_of(addr, &request).0
        };
        let plain = post(texts[0]);
        assert!(plain.len() > 3, "{plain:?}");
        for text in &texts[1..] {
            assert_eq!(post(text), plain, "{text:?}");
        }
    });
    lubm.check_service(&queries[..1], false);
}

/// Plan-cache template families over LUBM, one `TemplateKey` each: the
/// first query is planned, and every query runs on that plan rebound to its
/// constants.
const TEMPLATE_FAMILIES: &[&[&str]] = &[
    // A class constant across the 1-row and 7-row cuts (16, 1, 2 and 0
    // rows on tiny LUBM), absent from the data, and back.
    &[
        "SELECT ?x ?n WHERE { ?x rdf:type ub:UndergraduateStudent . ?x ub:name ?n }",
        "SELECT ?x ?n WHERE { ?x rdf:type ub:University . ?x ub:name ?n }",
        "SELECT ?x ?n WHERE { ?x rdf:type ub:Department . ?x ub:name ?n }",
        "SELECT ?x ?n WHERE { ?x rdf:type ub:NoSuchClass . ?x ub:name ?n }",
        "SELECT ?x ?n WHERE { ?x rdf:type ub:UndergraduateStudent . ?x ub:name ?n }",
    ],
    // One constant used twice, then two different constants.
    &[
        "SELECT ?s ?p WHERE { ?s ub:memberOf <http://www.Department0.University0.edu> . \
         ?s ub:advisor ?p . ?p ub:worksFor <http://www.Department0.University0.edu> }",
        "SELECT ?s ?p WHERE { ?s ub:memberOf <http://www.Department0.University0.edu> . \
         ?s ub:advisor ?p . ?p ub:worksFor <http://www.Department1.University0.edu> }",
        "SELECT ?s ?p WHERE { ?s ub:memberOf <http://www.Department1.University0.edu> . \
         ?s ub:advisor ?p . ?p ub:worksFor <http://www.Department1.University0.edu> }",
    ],
    // Residual subject and object constants, which rewrite the scan's
    // `FilterCondition`s: one sought, one checked per triple.
    &[
        "SELECT ?p ?s WHERE { <http://www.Department0.University0.edu/FullProfessor0> ?p \
         <http://www.Department0.University0.edu> . ?s ?p ?d }",
        "SELECT ?p ?s WHERE { <http://www.Department0.University0.edu/FullProfessor0> ?p \
         <http://www.Department1.University0.edu> . ?s ?p ?d }",
        "SELECT ?p ?s WHERE { <http://www.Department1.University0.edu/Lecturer0> ?p \
         <http://www.Department1.University0.edu> . ?s ?p ?d }",
    ],
    // A constant that empties one join input: absent from the dictionary,
    // then present but never under that property.
    &[
        "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . \
         ?d ub:subOrganizationOf <http://www.University0.edu> }",
        "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . \
         ?d ub:subOrganizationOf <http://www.University999.edu> }",
        "SELECT ?p ?s WHERE { ?p ub:worksFor ?d . ?s ub:memberOf ?d . \
         ?d ub:subOrganizationOf <http://www.Department0.University0.edu> }",
    ],
];

/// One shape with `rdf:type` and with another property in the property
/// slot: two templates, which must key apart.
const KEYED_APART: &[&str] = &[
    "SELECT ?x ?d WHERE { ?x rdf:type ub:GraduateStudent . ?x ub:memberOf ?d }",
    "SELECT ?x ?d WHERE { ?x ub:advisor \
     <http://www.Department0.University0.edu/FullProfessor0> . ?x ub:memberOf ?d }",
];

#[test]
fn plan_cache_templates() {
    let tiny = LubmGenerator::new(LubmScale::tiny()).generate();
    let lubm = Dataset::new("templates", tiny);
    let apart = parse_all("keyed apart", KEYED_APART);
    assert_ne!(TemplateKey::of(&apart[0]), TemplateKey::of(&apart[1]));
    let mut restricted = 0;
    for query in &apart {
        restricted += lubm.check_query(query, false).restricted_scans;
    }
    let mut served = apart;
    for (family, texts) in TEMPLATE_FAMILIES.iter().enumerate() {
        let queries = parse_all(&format!("family {family} query"), texts);
        let cached = translate(&lubm.csq_plan(&queries[0]), lubm.graph());
        for query in &queries {
            assert_eq!(TemplateKey::of(query), TemplateKey::of(&queries[0]));
            let rebound = rebind_constants(&cached, query, lubm.graph()).expect("rebinds");
            let observed = lubm.check_plan(query, "rebound", &rebound);
            restricted += observed.restricted_scans;
        }
        served.extend(queries);
    }
    // Constants bind the siblings' keys: the restricted reads are covered.
    assert!(restricted > 0, "no template read by key");
    lubm.check_service(&served, false);
}

/// Strategy: a random query shape, size and seed (same distribution as the
/// synthetic optimizer workload of Section 6.2).
fn query_strategy() -> impl Strategy<Value = BgpQuery> {
    (0usize..4, 2usize..7, any::<u64>()).prop_map(|(shape, size, seed)| {
        let shape = SyntheticShape::ALL[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticWorkload::query(shape, size, &mut rng)
    })
}

/// Nodes of the random graphs; with 6 000 triples the files are long enough
/// (about 200 rows per node) that a scan next to a constant-bound sibling
/// reads by key.
const RANDOM_NODES: usize = 400;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A random query projecting every variable, and the same query made
    /// selective by binding one of its leaves to a node, on a random graph.
    #[test]
    fn random_queries_on_random_graphs(
        query in query_strategy(),
        seed in any::<u64>(),
        leaf in 0usize..8,
        node in 0usize..RANDOM_NODES,
    ) {
        let random = Dataset::new("random", synthetic_graph(seed, 6000, RANDOM_NODES, false));
        let (name, patterns) = (query.name().to_string(), query.patterns().to_vec());
        let query = BgpQuery::named(name, query.variables(), patterns);
        random.check_query(&query, false);
        if let Some(selective) = bind_a_leaf(&query, leaf, &synthetic_node(node)) {
            random.check_query(&selective, false);
        }
    }
}
