//! Cross-cutting observability guarantees:
//!
//! * profiling a query must never change its answer, at any thread count;
//! * the per-query span tree must tile the measured wall clock — parse,
//!   plan and execute spans cover the query, job spans and the root gather
//!   cover the execution;
//! * the sort and run counters a profile attaches to its operators must add
//!   up to the thread-local relation counters of a sequential run;
//! * the HTTP latency histogram counts each request once.

use cliquesquare::engine::csq::{Csq, CsqConfig};
use cliquesquare::engine::relation::stats as relation_stats;
use cliquesquare::engine::{translate, Executor};
use cliquesquare::mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare::obs::LATENCY_SECONDS_BUCKETS;
use cliquesquare::querygen::lubm_queries::{lubm_queries, lubm_query};
use cliquesquare::rdf::{LubmGenerator, LubmScale};
use cliquesquare_server::{HttpServer, QueryService, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn cluster() -> Cluster {
    let graph = LubmGenerator::new(LubmScale::tiny()).generate();
    Cluster::load(graph, ClusterConfig::with_nodes(4))
}

#[test]
fn profiling_is_bit_neutral_at_every_thread_count() {
    let cluster = cluster();
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    for threads in [1, 2, 8] {
        let executor = Executor::with_runtime(&cluster, Runtime::with_threads(threads));
        for query in lubm_queries() {
            let (_, chosen, _) = csq.plan(&query);
            let physical = translate(&chosen, cluster.graph());
            let plain = executor.execute(&physical);
            let profiled = executor.execute_profiled(&physical);
            assert_eq!(
                plain.results,
                profiled.results,
                "{} at {threads} thread(s): profiling changed the answer set",
                query.name()
            );
            assert_eq!(
                plain.schedule.descriptor(),
                profiled.schedule.descriptor(),
                "{} at {threads} thread(s): profiling changed the job structure",
                query.name()
            );
            assert!(plain.profile.is_none());
            let tree = profiled.profile.expect("profiled run returns a span tree");
            assert!(!tree.children.is_empty(), "execute span has job children");
        }
    }
}

#[test]
fn profile_spans_tile_the_measured_wall_clock() {
    let service = QueryService::new(cluster(), Runtime::serving(2));
    let answer = service
        .execute_named_opts("Q2", true)
        .expect("Q2 serves profiled");
    let profile = answer.profile.expect("profile attached");
    assert_eq!(profile.query, "Q2");
    assert_eq!(profile.threads, 2);
    assert!(profile.total_wall_seconds > 0.0);
    assert_eq!(profile.root.name, "query");

    let names: Vec<&str> = profile
        .root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, ["parse", "plan", "execute"]);

    // parse + plan + execute cover the whole query: nothing else happens
    // between those phases, so their walls sum to the total up to the
    // instrumentation gaps themselves.
    let phase_sum = profile.root.children_wall_seconds();
    let total = profile.root.wall_seconds;
    assert!(
        (phase_sum - total).abs() <= 0.1 * total + 1e-3,
        "phase walls {phase_sum}s do not tile the query total {total}s"
    );

    // Jobs run one after another inside the execution and the root gather
    // follows the last, so their walls are disjoint and must fit inside the
    // execute span.
    let execute = &profile.root.children[2];
    // The span says what fan-out its waves ran at.
    assert_eq!(execute.attrs, [("partitions".to_string(), 4)]);
    let span_sum = execute.children_wall_seconds();
    assert!(
        span_sum <= execute.wall_seconds + 1e-3,
        "job and gather walls {span_sum}s exceed the execute span {}s",
        execute.wall_seconds
    );
    let (gather, jobs) = execute.children.split_last().expect("execute has children");
    assert!(!jobs.is_empty(), "execute span has job children");
    for job in jobs {
        assert!(job.name.starts_with("job "));
        assert!(
            !job.children.is_empty(),
            "{}: job span has operator children",
            job.name
        );
    }
    // The gather produced the answer the client saw (before `distinct`).
    assert_eq!(gather.name, "Gather");
    assert!(gather.children.is_empty());
    assert_eq!(gather.rows_in, gather.rows_out);
    assert!(gather.rows_out as usize >= answer.total_rows);
}

/// The `plan` span says how big the search was: every candidate the
/// optimizer produced on a plan-cache miss, none on a hit, and how many of
/// them were built and priced — a few, on a miss.
#[test]
fn the_plan_span_counts_the_candidates_of_a_miss() {
    let service = QueryService::new(cluster(), Runtime::serving(2));
    for (candidates, cache_hit) in [(1_434, 0), (0, 1)] {
        let answer = service
            .execute_named_opts("Q14", true)
            .expect("Q14 serves profiled");
        let profile = answer.profile.expect("profile attached");
        let plan = &profile.root.children[1];
        assert_eq!(plan.name, "plan");
        let attr = |name: &str| plan.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(attr("cache_hit"), Some(cache_hit));
        assert_eq!(attr("candidates"), Some(candidates));
        let priced = attr("priced").expect("the plan span counts priced plans");
        match cache_hit {
            0 => assert!((1..100).contains(&priced), "{priced} priced"),
            _ => assert_eq!(priced, 0),
        }
    }
}

/// Nothing relation-sized happens outside a span. On Q1, whose root holds
/// over ten thousand rows, the job spans and the `Gather` span together
/// cover the `execute` wall at every thread count — no silent merge after
/// the last operator. On Q11, with two reduce joins, each ReduceJoin span
/// carries the tasks of both its waves, and a MapScan span restricted by a
/// key set carries the one task that seeks its keys (`keys_in`) or builds
/// the set it filters by (`keys_filtered`) before one task per node — unless
/// an earlier scan filtered by the same join's keys built that set, which
/// it then shares (Q11: one per pass). The profiled answers are the
/// unprofiled ones.
#[test]
fn job_and_gather_spans_cover_the_execution() {
    let graph = LubmGenerator::new(LubmScale::with_universities(8)).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(4));
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    for (name, large_root) in [("Q1", true), ("Q11", false)] {
        let query = lubm_query(name).expect("a LUBM query");
        let (_, chosen, _) = csq.plan(&query);
        let physical = translate(&chosen, cluster.graph());
        for threads in [1, 2, 8] {
            let executor = Executor::with_runtime(&cluster, Runtime::with_threads(threads));
            let plain = executor.execute(&physical);
            assert_eq!(plain.results.len() >= 10_000, large_root, "{name}");
            // A wall-clock share: the best of a few runs, so one preemption
            // between two spans cannot fail the test.
            let mut best_cover: f64 = 0.0;
            let (mut reduce_spans, mut filtered_scans, mut shared_sets) = (0, 0, 0);
            for _ in 0..5 {
                let profiled = executor.execute_profiled(&physical);
                assert_eq!(plain.results, profiled.results, "{name} threads={threads}");
                let execute = profiled.profile.expect("profiled run returns a span tree");
                let gather = execute.children.last().expect("execute has children");
                let mut filtered_from = Vec::new();
                assert_eq!(gather.name, "Gather");
                assert_eq!(gather.rows_out, plain.results.len() as u64);
                assert_eq!(gather.tasks.len(), 1, "the gather is one task");
                for operator in execute.children.iter().flat_map(|job| &job.children) {
                    let routed = operator.attrs.iter().find(|(n, _)| n == "route_tasks");
                    assert_eq!(routed.is_some(), operator.name.starts_with("ReduceJoin#"));
                    if let Some((_, routed)) = routed {
                        reduce_spans += 1;
                        assert_eq!(
                            operator.tasks.len(),
                            *routed as usize + cluster.nodes(),
                            "route tasks, then one reduce task per node"
                        );
                    }
                    if operator.name.starts_with("MapScan#") {
                        let attr = |name| operator.attrs.iter().find(|(n, _)| n == name);
                        let filters = attr("keys_filtered").is_some();
                        let from = attr("keys_from").map(|&(_, join)| join);
                        filtered_scans += usize::from(filters);
                        let shares = filters
                            && operator.tasks.len() == cluster.nodes()
                            && filtered_from.contains(&from);
                        shared_sets += usize::from(shares);
                        if filters {
                            filtered_from.push(from);
                        }
                        let key_task = (filters && !shares) || attr("keys_in").is_some();
                        assert_eq!(
                            operator.tasks.len(),
                            usize::from(key_task) + cluster.nodes(),
                            "the key task, then one scan task per node"
                        );
                    }
                }
                // Spans follow one another, so the union is the sum of the
                // stretches each adds past the furthest end seen so far.
                let (mut covered, mut frontier) = (0.0, 0.0);
                for span in &execute.children {
                    let end = span.start_seconds + span.wall_seconds;
                    covered += (end - span.start_seconds.max(frontier)).max(0.0);
                    frontier = end.max(frontier);
                }
                best_cover = best_cover.max(covered / execute.wall_seconds);
            }
            assert_eq!(reduce_spans, 5 * physical.reduce_join_count());
            assert!(
                filtered_scans > 0,
                "{name} threads={threads}: a scan filters at bind"
            );
            assert_eq!(
                shared_sets,
                if name == "Q11" { 5 } else { 0 },
                "{name} threads={threads}: key sets shared"
            );
            assert!(
                !large_root || best_cover >= 0.95,
                "{name} threads={threads}: job and gather spans cover only {:.1}% of the \
                 execute wall",
                best_cover * 100.0
            );
        }
    }
}

/// An operator's counters are the sum of its tasks' deltas, taken on
/// whichever thread ran each task: summed over the profile they equal a
/// sequential `reset` → `execute` → `snapshot` of the same plan, on scoped
/// threads and on the serving pool alike.
#[test]
fn profiled_counters_are_the_sum_of_task_deltas() {
    let cluster = cluster();
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    // A map-only star, a shuffled chain, and a two-job plan whose joins
    // pass keys across the job boundary. (Not Q11: the tiny data lacks its
    // University3, so its key source is empty and nothing below it runs.)
    for name in ["Q2", "Q5", "Q14"] {
        let (_, chosen, _) = csq.plan(&lubm_query(name).expect("a LUBM query"));
        let physical = translate(&chosen, cluster.graph());
        relation_stats::reset();
        std::hint::black_box(Executor::sequential(&cluster).execute(&physical));
        let local = relation_stats::snapshot();
        let expected = [
            ("sorts_performed", local.sorts_performed),
            ("rows_sorted", local.rows_sorted),
            ("key_groups", local.key_groups),
            ("sorts_elided", local.sorts_elided),
            ("join_inputs_presorted", local.join_inputs_presorted),
            ("runs_emitted", local.runs_emitted),
            ("rows_expanded", local.rows_expanded),
        ];
        assert!(local.sorts_elided > 0, "{name} elides sorts");
        assert!(local.key_groups > 0, "{name} aligns key groups");
        for threads in [1, 2, 8] {
            for runtime in [Runtime::with_threads(threads), Runtime::serving(threads)] {
                let executor = Executor::with_runtime(&cluster, runtime);
                let execute = executor
                    .execute_profiled(&physical)
                    .profile
                    .expect("profiled");
                let mut spans = vec![&execute];
                let mut summed = expected.map(|(attr, _)| (attr, 0));
                while let Some(span) = spans.pop() {
                    spans.extend(&span.children);
                    for (attr, sum) in &mut summed {
                        let value = span.attrs.iter().find(|(name, _)| name == attr);
                        *sum += value.map_or(0, |(_, value)| *value);
                    }
                }
                assert_eq!(summed, expected, "{name} threads={threads}");
            }
        }
    }
}

/// `csq_http_request_seconds` counts each request once, observed when its
/// response has been written: an answered query and a request that stalls
/// into its 408 alike. No other test of this binary serves HTTP, so the
/// process-wide histogram moves by this test's requests alone.
#[test]
fn each_http_request_is_one_latency_observation() {
    let service = Arc::new(QueryService::new(cluster(), Runtime::serving(2)));
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let server = HttpServer::bind(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.serve().expect("serve"));
    let observed = |endpoint: &str| {
        let histogram = cliquesquare::obs::global().histogram(
            "csq_http_request_seconds",
            "End-to-end HTTP request handling time",
            &[("endpoint", endpoint)],
            LATENCY_SECONDS_BUCKETS,
        );
        histogram.snapshot().count()
    };
    // The server closes the connection after observing: once the client
    // has read to the end, the count has moved.
    let exchange = |request: &[u8]| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    };
    for (endpoint, request, status) in [
        (
            "query",
            &b"GET /query?name=Q1 HTTP/1.1\r\n\r\n"[..],
            "HTTP/1.1 200 ",
        ),
        ("error", &b"GET /health HT"[..], "HTTP/1.1 408 "),
    ] {
        let before = observed(endpoint);
        let response = exchange(request);
        assert!(response.starts_with(status), "{response}");
        assert_eq!(observed(endpoint), before + 1, "{endpoint}");
    }
    handle.stop();
    thread.join().expect("server thread");
}
