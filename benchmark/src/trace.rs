//! The traced run: the benchmark's own span recorder around each call into
//! a layer, and the per-layer budget measured from outside — by timing the
//! crates' public functions and reading the values they already return.
//! Nothing under `crates/` is instrumented for this; spans inside the
//! program are a later change. The end-to-end numbers never come from here.

use crate::json::{escape, number};
use crate::run::{measured, run_pass, Gate, Measured, Options, PassLog};
use crate::spec;
use crate::stats::{self, rounds, Floors, Rng};
use crate::sut::{self, get_request, Dataset, Sut, STAGES};
use crate::workload::{Request, Workload};
use cliquesquare_core::{Optimizer, OptimizerConfig};
use cliquesquare_engine::relation::stats as relation_stats;
use cliquesquare_engine::{rebind_constants, translate, Csq, CsqConfig, Executor, PhysicalPlan};
use cliquesquare_mapreduce::{compute_statistics, PartitionedStore, Runtime};
use cliquesquare_obs::SpanNode;
use cliquesquare_rdf::{ntriples, Graph, LubmGenerator, Sp2bGenerator, Term};
use cliquesquare_sparql::parser::parse_query;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Spans kept before the recorder only counts: bounds memory and the size
/// of the trace file on long runs.
const MAX_SPANS: usize = 200_000;
/// Text handed to `ntriples::parse` for `rdf.ntriples_parse_mb_per_s`.
const PARSE_SLICE_BYTES: usize = 8 << 20;
/// The physical operator kinds of `engine.op_self_ms.*`.
const OP_KINDS: [&str; 6] = [
    "MapScan",
    "Filter",
    "MapJoin",
    "MapShuffler",
    "ReduceJoin",
    "Project",
];

struct Span {
    name: String,
    start: f64,
    duration: f64,
    parent: Option<usize>,
    request: usize,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Seconds since the recorder's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records one finished span and returns its id for children to name.
    pub fn span(
        &mut self,
        name: &str,
        start: f64,
        duration: f64,
        parent: Option<usize>,
        request: usize,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start,
            duration,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Operator spans of an `execute_profiled` tree, under `parent`.
    fn operators(&mut self, execute: &SpanNode, base: f64, parent: Option<usize>, request: usize) {
        for operator in execute.children.iter().flat_map(|job| &job.children) {
            self.span(
                &operator.name,
                base + operator.start_seconds,
                operator.wall_seconds,
                parent,
                request,
            );
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"id\": {id}, \"parent\": {}, \"request\": {}}}}}{}\n",
                escape(&span.name),
                number(span.start * 1e6),
                number(span.duration * 1e6),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.request,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!("], \"droppedSpans\": {}}}\n", self.dropped));
        out
    }
}

/// Where result documents and trace files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Loader-stage floors across the builds a traced run made: every restart
/// cycle on `cold_restart`, the one build elsewhere.
pub struct LoadFloors {
    /// input, encode, merge, index, partition, cluster.
    floors: Floors,
    peak_inflight_bytes: u64,
}

impl Default for LoadFloors {
    fn default() -> Self {
        Self {
            floors: Floors::new(6),
            peak_inflight_bytes: 0,
        }
    }
}

impl LoadFloors {
    pub fn observe(&mut self, sut: &Sut) {
        let report = &sut.report;
        for (index, seconds) in [
            report.input_seconds,
            report.encode_seconds,
            report.merge_seconds,
            report.index_seconds,
            report.partition_seconds,
            sut.stages[4],
        ]
        .into_iter()
        .enumerate()
        {
            self.floors.observe(index, seconds);
        }
        self.peak_inflight_bytes = self.peak_inflight_bytes.max(sut.report.peak_inflight_bytes);
    }
}

/// Floors of the in-process path: `QueryService` returns its own planning
/// and execution walls; what is left of its total is finalization
/// (distinct + decode).
struct ServiceFloors {
    total: Floors,
    plan: Floors,
    execute: Floors,
    finalize: Floors,
    total_rows: Vec<usize>,
}

impl ServiceFloors {
    fn new(requests: usize) -> Self {
        Self {
            total: Floors::new(requests),
            plan: Floors::new(requests),
            execute: Floors::new(requests),
            finalize: Floors::new(requests),
            total_rows: vec![0; requests],
        }
    }

    /// Every request once, straight into the service.
    fn round(&mut self, sut: &Sut, requests: &[Request], gate: &mut Gate, recorder: &mut Recorder) {
        for (index, request) in requests.iter().enumerate() {
            let start = recorder.now();
            // On a thread of its own, as the server runs it: a query on the
            // long-lived harness thread allocates from a different arena and
            // measured 10 % slower than the same query behind the socket.
            let (answer, total) = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        stats::timed(|| match &request.text {
                            Some(text) => sut.service.execute_text(text),
                            None => sut.service.execute_named(request.query.name()),
                        })
                    })
                    .join()
                    .expect("in-process query thread panicked")
            });
            match answer {
                Err(error) => gate.fail(&request.label, &format!("in-process: {error}")),
                Ok(answer) => {
                    let finalize = (total - answer.plan_seconds - answer.wall_seconds).max(0.0);
                    self.total.observe(index, total);
                    self.plan.observe(index, answer.plan_seconds);
                    self.execute.observe(index, answer.wall_seconds);
                    self.finalize.observe(index, finalize);
                    self.total_rows[index] = answer.total_rows;
                    let root = recorder.span("service.execute", start, total, None, index);
                    let mut at = start;
                    for (name, seconds) in [
                        ("server.plan", answer.plan_seconds),
                        ("engine.execute", answer.wall_seconds),
                        ("server.finalize", finalize),
                    ] {
                        recorder.span(name, at, seconds, root, index);
                        at += seconds;
                    }
                }
            }
        }
    }
}

/// The whole per-layer table for one workload, in `spec::PER_LAYER` order
/// (a metric that does not apply to the workload reads 0). On
/// `cold_restart`, `cycles` is the pass log of the restart cycles and
/// `cycle_loads` their loader floors; elsewhere the one build stands in.
pub fn measure(
    sut: &Sut,
    workload: &Workload,
    options: &Options,
    gate: &mut Gate,
    rng: &mut Rng,
    cycles: &PassLog,
    cycle_loads: Option<LoadFloors>,
) -> Vec<Measured> {
    let requests = &workload.requests;
    let n = requests.len();
    let graph = sut.cluster.graph();
    // Tiny smoke rounds are nearly free, and three of them keep its
    // accounting away from single-sample luck.
    let min_rounds = if options.smoke { 3 } else { 2 };
    let slice = |share: f64| {
        if options.smoke {
            0.0
        } else {
            options.seconds * share
        }
    };
    let mut recorder = Recorder::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut repeats: Vec<(&'static str, usize)> = Vec::new();

    // Set-up stages of the build(s) this run made.
    let cold = workload.restart_each_pass;
    let loads = cycle_loads.unwrap_or_else(|| {
        let mut loads = LoadFloors::default();
        loads.observe(sut);
        loads
    });
    let mut at = 0.0;
    for (name, seconds) in STAGES.iter().zip(sut.stages) {
        recorder.span(&format!("setup.{name}"), at, seconds, None, 0);
        at += seconds;
    }
    for (name, stage) in [
        "mapreduce.load_input_s",
        "mapreduce.load_encode_s",
        "mapreduce.load_merge_s",
        "mapreduce.load_index_s",
        "mapreduce.load_partition_s",
        "mapreduce.cluster_build_s",
    ]
    .into_iter()
    .zip(0..)
    {
        values.insert(name, loads.floors.get(stage));
    }
    values.insert(
        "mapreduce.load_peak_inflight_mb",
        loads.peak_inflight_bytes as f64 / 1e6,
    );
    values.insert("rdf.distinct_terms", sut.report.distinct_terms as f64);
    values.insert(
        "rdf.dictionary_mb",
        graph.dictionary().heap_bytes() as f64 / 1e6,
    );

    // 1. HTTP passes — untraced, traced, and with `profile=1` — and the
    //    same requests in-process, taking turns on the same warm system so
    //    that all their floors see the same stretch of machine weather.
    //    Traced over untraced is what the recorder costs, profiled over
    //    untraced what the profiler costs, and untraced minus in-process
    //    what the HTTP front end costs.
    let mut untraced = PassLog::new(n);
    let mut traced = PassLog::new(n);
    let mut with_profile = PassLog::new(n);
    let mut service = ServiceFloors::new(n);
    let (hits_before, misses_before, _) = plan_cache_counters(sut);
    let http_rounds = rounds(min_rounds, slice(0.5), |_| {
        run_pass(
            sut.addr,
            requests,
            rng,
            gate,
            Some(&mut untraced),
            None,
            false,
        );
        run_pass(
            sut.addr,
            requests,
            rng,
            gate,
            Some(&mut traced),
            Some(&mut recorder),
            false,
        );
        run_pass(
            sut.addr,
            requests,
            rng,
            gate,
            Some(&mut with_profile),
            None,
            true,
        );
        service.round(sut, requests, gate, &mut recorder);
    });
    let (hits, misses, _) = plan_cache_counters(sut);
    repeats.push(("http_and_service", http_rounds));
    // On `cold_restart` the floors that matter are the cold ones of the
    // restart cycles; the warm passes above only price the observers.
    let served = if cold { cycles } else { &untraced };
    let pass_floor = served.floors.sum();
    let lookups = (hits - hits_before) + (misses - misses_before);
    values.insert(
        "server.plancache_hit_rate",
        if cold {
            0.0
        } else {
            (hits - hits_before) as f64 / lookups.max(1) as f64
        },
    );
    values.insert(
        "server.response_kb",
        untraced.body_bytes as f64 / 1e3 / http_rounds as f64,
    );
    values.insert("server.transfer_ms", served.transfer_floors.sum() * 1e3);
    values.insert(
        "trace_overhead_pct",
        percent_over(traced.floors.sum(), untraced.floors.sum()),
    );
    values.insert(
        "obs.profile_overhead_pct",
        percent_over(with_profile.floors.sum(), untraced.floors.sum()),
    );
    values.insert("engine.execute_ms", service.execute.sum() * 1e3);
    values.insert("server.finalize_ms", service.finalize.sum() * 1e3);
    values.insert("server.plan_hit_us", service.plan.sum() * 1e6);
    values.insert(
        "server.http_overhead_ms",
        (pass_floor - service.total.sum()) * 1e3,
    );

    // 3. Planning, piece by piece, as a cache miss pays for it — and the
    //    rebind a hit pays instead.
    let csq = Csq::new(sut.cluster.clone(), CsqConfig::default());
    let optimizer = Optimizer::new(
        OptimizerConfig::variant(csq.config().variant)
            .with_max_plans(csq.config().max_candidate_plans),
    );
    let mut parse = Floors::new(n);
    let mut optimize = Floors::new(n);
    let mut translate_floor = Floors::new(n);
    let mut rebind = Floors::new(n);
    let mut plans: Vec<Option<PhysicalPlan>> = vec![None; n];
    let mut plans_explored = 0;
    let mut decompositions_explored = 0;
    let planning_rounds = rounds(min_rounds, slice(0.08), |round| {
        for (index, request) in requests.iter().enumerate() {
            if let Some(text) = &request.text {
                let start = recorder.now();
                let (parsed, seconds) = stats::timed(|| parse_query(text));
                std::hint::black_box(parsed.is_ok());
                parse.observe(index, seconds);
                recorder.span("sparql.parse", start, seconds, None, index);
            }
            let start = recorder.now();
            let ((candidates, chosen, _), seconds) = stats::timed(|| csq.plan(&request.query));
            optimize.observe(index, seconds);
            recorder.span("core.optimize", start, seconds, None, index);
            let start = recorder.now();
            let (plan, seconds) = stats::timed(|| translate(&chosen, graph));
            translate_floor.observe(index, seconds);
            recorder.span("engine.translate", start, seconds, None, index);
            let start = recorder.now();
            let (rebound, seconds) =
                stats::timed(|| rebind_constants(&plan, &request.query, graph));
            if rebound.is_some() {
                rebind.observe(index, seconds);
                recorder.span("engine.rebind", start, seconds, None, index);
            }
            if round == 0 {
                plans_explored += candidates.len();
                decompositions_explored +=
                    optimizer.optimize(&request.query).decompositions_explored;
                plans[index] = Some(plan);
            }
        }
    });
    repeats.push(("planning", planning_rounds));
    values.insert("sparql.parse_us", parse.sum() * 1e6);
    values.insert("core.optimize_ms", optimize.sum() * 1e3);
    values.insert("core.plans_explored", plans_explored as f64);
    values.insert(
        "core.decompositions_explored",
        decompositions_explored as f64,
    );
    values.insert("engine.translate_us", translate_floor.sum() * 1e6);
    values.insert("engine.rebind_us", rebind.sum() * 1e6);
    let plans: Vec<PhysicalPlan> = plans.into_iter().flatten().collect();

    // 4. The sequential executor, all of it on this thread: the
    //    thread-local relation counters are then exact and repeatable, and
    //    its floor is the numerator of the parallel speed-up. The
    //    denominator is the same plans on the serving pool, interleaved,
    //    whose scheduler also counts the tasks and waves.
    let sequential = Executor::sequential(&sut.cluster);
    let mut sequential_floor = Floors::new(n);
    let mut counted = relation_stats::RelationStats::default();
    let (mut tuples_read, mut tuples_shuffled) = (0, 0);
    let parallel = Executor::with_runtime(&sut.cluster, sut.serving.clone());
    let mut parallel_floor = Floors::new(n);
    let scheduler_before = sut.serving.scheduler().map(|s| s.stats());
    let sequential_rounds = rounds(min_rounds, slice(0.22), |round| {
        for (index, plan) in plans.iter().enumerate() {
            relation_stats::reset();
            let start = recorder.now();
            let (output, seconds) = stats::timed(|| sequential.execute(plan));
            let stats = relation_stats::snapshot();
            sequential_floor.observe(index, seconds);
            recorder.span("engine.execute_sequential", start, seconds, None, index);
            if round == 0 {
                counted.join_rows_out += stats.join_rows_out;
                counted.sorts_performed += stats.sorts_performed;
                counted.sorts_elided += stats.sorts_elided;
                counted.runs_emitted += stats.runs_emitted;
                counted.rows_expanded += stats.rows_expanded;
                counted.peak_rows = counted.peak_rows.max(stats.peak_rows);
                counted.peak_bytes = counted.peak_bytes.max(stats.peak_bytes);
                counted.shuffle_peak_bytes =
                    counted.shuffle_peak_bytes.max(stats.shuffle_peak_bytes);
                tuples_read += output.metrics.tuples_read;
                tuples_shuffled += output.metrics.tuples_shuffled;
            }
            drop(output);
            let start = recorder.now();
            let (rows, seconds) = stats::timed(|| parallel.execute(plan).results.len());
            std::hint::black_box(rows);
            parallel_floor.observe(index, seconds);
            recorder.span("engine.execute_parallel", start, seconds, None, index);
        }
    });
    repeats.push(("sequential_parallel_execute", sequential_rounds));
    if let (Some(before), Some(after)) =
        (scheduler_before, sut.serving.scheduler().map(|s| s.stats()))
    {
        let queries = (sequential_rounds * n).max(1) as f64;
        values.insert(
            "mapreduce.tasks_per_query",
            (after.tasks - before.tasks) as f64 / queries,
        );
        values.insert(
            "mapreduce.waves_per_query",
            (after.waves - before.waves) as f64 / queries,
        );
    }
    for (name, value) in [
        ("engine.tuples_read", tuples_read),
        ("engine.tuples_shuffled", tuples_shuffled),
        ("engine.join_rows_out", counted.join_rows_out),
        ("engine.sorts_performed", counted.sorts_performed),
        ("engine.sorts_elided", counted.sorts_elided),
        ("engine.runs_emitted", counted.runs_emitted),
        ("engine.rows_expanded", counted.rows_expanded),
        ("engine.peak_rows", counted.peak_rows),
        ("engine.peak_bytes", counted.peak_bytes),
        ("engine.shuffle_peak_bytes", counted.shuffle_peak_bytes),
    ] {
        values.insert(name, value as f64);
    }
    values.insert(
        "engine.rows_read_per_result",
        tuples_read as f64 / service.total_rows.iter().sum::<usize>().max(1) as f64,
    );
    values.insert(
        "mapreduce.parallel_speedup",
        sequential_floor.sum() / parallel_floor.sum().max(f64::MIN_POSITIVE),
    );

    // 5. The profiled executor on the serving runtime: self time per
    //    operator kind (operator spans have no children, so self = wall).
    let profiled = Executor::with_runtime(&sut.cluster, sut.serving.clone());
    let mut op_self: Vec<Floors> = OP_KINDS.iter().map(|_| Floors::new(n)).collect();
    let mut shuffle_bytes = 0;
    let profiled_rounds = rounds(min_rounds, slice(0.1), |round| {
        for (index, plan) in plans.iter().enumerate() {
            let start = recorder.now();
            let (output, seconds) = stats::timed(|| profiled.execute_profiled(plan));
            let root = recorder.span("engine.execute_profiled", start, seconds, None, index);
            let Some(execute) = &output.profile else {
                continue;
            };
            recorder.operators(execute, start, root, index);
            let mut per_kind = [0.0; OP_KINDS.len()];
            for operator in execute.children.iter().flat_map(|job| &job.children) {
                let kind = operator.name.split('#').next().unwrap_or_default();
                if let Some(slot) = OP_KINDS.iter().position(|k| *k == kind) {
                    per_kind[slot] += operator.wall_seconds;
                }
                if round == 0 {
                    shuffle_bytes += operator
                        .attrs
                        .iter()
                        .filter(|(name, _)| name == "shuffle_bytes")
                        .map(|(_, value)| value)
                        .sum::<u64>();
                }
            }
            for (slot, seconds) in per_kind.into_iter().enumerate() {
                op_self[slot].observe(index, seconds);
            }
        }
    });
    repeats.push(("profiled_execute", profiled_rounds));
    for (layer, floors) in spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("engine.op_self_ms."))
        .zip(&op_self)
    {
        values.insert(layer.name, floors.sum() * 1e3);
    }
    values.insert("engine.shuffle_bytes", shuffle_bytes as f64);

    // 6. The fixed cost of one HTTP exchange (accept, spawn, read, write),
    //    and of one `/metrics` scrape.
    let mut fixed_cost = |target: &str, name: &str| {
        let raw = get_request(target);
        let mut floor = f64::INFINITY;
        rounds(10, slice(0.02), |_| {
            let start = recorder.now();
            if let Some(response) = gate.exchange(sut.addr, target, &raw) {
                floor = floor.min(response.latency);
                recorder.span(name, start, response.latency, None, 0);
            }
        });
        if floor.is_finite() {
            floor
        } else {
            0.0
        }
    };
    let http_floor = fixed_cost("/health", "server.http");
    values.insert("server.http_floor_us", http_floor * 1e6);
    values.insert(
        "obs.metrics_scrape_us",
        fixed_cost("/metrics", "obs.metrics_scrape") * 1e6,
    );

    // 7. The loader's pieces, each timed alone.
    let load_runtime = Runtime::with_threads(sut::nproc());
    let nodes = sut.cluster.nodes();
    values.insert(
        "mapreduce.store_build_s",
        stats::floor_of(1, slice(0.03), || {
            PartitionedStore::build_with(graph, nodes, &load_runtime)
        }),
    );
    values.insert(
        "mapreduce.stats_build_s",
        stats::floor_of(1, slice(0.02), || compute_statistics(graph, &load_runtime)),
    );
    let (sample, generate_s) = generator_probe(&workload.dataset);
    values.insert("rdf.generate_s", generate_s);
    let parse_s = stats::floor_of(min_rounds, slice(0.02), || ntriples::parse(&sample));
    values.insert(
        "rdf.ntriples_parse_mb_per_s",
        sample.len() as f64 / 1e6 / parse_s.max(f64::MIN_POSITIVE),
    );

    // 8. Two closed-loop clients against one: a contention probe, so only
    //    on the workload where the server, not the engine, is the cost.
    if options.workload == "point_lookup" {
        let window = if options.smoke {
            0.2
        } else {
            (options.seconds * 0.07).min(2.0)
        };
        let one = closed_loop_rate(sut, requests, 1, window, gate);
        let two = closed_loop_rate(sut, requests, 2, window, gate);
        values.insert("server.two_client_ratio", two / one.max(f64::MIN_POSITIVE));
    }

    // Accounting: the blocking chain of one request is fixed HTTP cost →
    // parse → plan (hit: rebind; miss: optimize + translate) → execute →
    // finalize → transfer. What the pass floor holds beyond the sum of
    // those floors (body rendering, cold pools, noise) is unaccounted.
    let plan_floor = if cold {
        optimize.sum() + translate_floor.sum()
    } else {
        service.plan.sum()
    };
    let accounted = n as f64 * http_floor
        + parse.sum()
        + plan_floor
        + service.execute.sum()
        + service.finalize.sum()
        + served.transfer_floors.sum();
    values.insert(
        "accounted_share",
        accounted / pass_floor.max(f64::MIN_POSITIVE),
    );
    values.insert("unaccounted_ms", (pass_floor - accounted) * 1e3);

    let path = out_dir().join(format!("trace-{}.json", options.workload));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, recorder.chrome_json()));
    match written {
        Ok(()) => println!(
            "trace  {} spans ({} dropped) -> {}",
            recorder.spans.len(),
            recorder.dropped,
            path.display()
        ),
        Err(error) => eprintln!("warning: trace not written to {}: {error}", path.display()),
    }
    for (phase, count) in repeats {
        println!("fact   layer_repeats.{phase:<22} {count:>16} count");
    }
    spec::PER_LAYER
        .iter()
        .map(|m| measured(m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

fn percent_over(value: f64, base: f64) -> f64 {
    (value / base.max(f64::MIN_POSITIVE) - 1.0) * 100.0
}

fn plan_cache_counters(sut: &Sut) -> (u64, u64, u64) {
    sut.service
        .plan_cache()
        .map_or((0, 0, 0), |cache| cache.counters())
}

/// The generators alone on one thread (`rdf.generate_s`, for the whole
/// dataset), and up to [`PARSE_SLICE_BYTES`] of the dataset as N-Triples
/// text for the parser probe.
fn generator_probe(dataset: &Dataset) -> (String, f64) {
    let mut buffer: Vec<(Term, Term, Term)> = Vec::new();
    let mut sample = Graph::new();
    let mut sample_bytes = 0;
    let mut keep = |buffer: &mut Vec<(Term, Term, Term)>| {
        for (s, p, o) in buffer.drain(..) {
            if sample_bytes < PARSE_SLICE_BYTES {
                sample_bytes += s.value().len() + p.value().len() + o.value().len() + 12;
                sample.insert_terms(s, p, o);
            }
        }
    };
    let mut generate_s = 0.0;
    match dataset {
        Dataset::Lubm(scale) => {
            let generator = LubmGenerator::new(*scale);
            for university in 0..scale.universities {
                generate_s +=
                    stats::timed(|| generator.university_triples_into(university, &mut buffer)).1;
                keep(&mut buffer);
            }
        }
        Dataset::Sp2b(scale) => {
            let generator = Sp2bGenerator::new(*scale);
            for unit in 0..generator.units() {
                generate_s += stats::timed(|| generator.unit_triples_into(unit, &mut buffer)).1;
                keep(&mut buffer);
            }
        }
        // `cold_restart` loads text, not a generator: no generate time,
        // and the parser probe reads a slice of the very text it loads.
        Dataset::NTriples(text) => {
            let cut = text[..text.len().min(PARSE_SLICE_BYTES)]
                .rfind('\n')
                .map_or(0, |newline| newline + 1);
            return (text[..cut].to_string(), 0.0);
        }
    }
    (ntriples::serialize(&sample), generate_s)
}

/// Requests per second of `clients` closed-loop clients over `window_s`.
fn closed_loop_rate(
    sut: &Sut,
    requests: &[Request],
    clients: usize,
    window_s: f64,
    gate: &mut Gate,
) -> f64 {
    let started = Instant::now();
    let per_client: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let (mut done, mut failed) = (0u64, 0u64);
                    let mut index = client * requests.len() / clients;
                    while started.elapsed().as_secs_f64() < window_s {
                        match sut::fetch(sut.addr, &requests[index % requests.len()].raw) {
                            Ok(response) if response.status == 200 && response.complete => {
                                done += 1
                            }
                            _ => failed += 1,
                        }
                        index += 1;
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let done: u64 = per_client.iter().map(|(done, _)| done).sum();
    let failed: u64 = per_client.iter().map(|(_, failed)| failed).sum();
    gate.attempted += done + failed;
    for _ in 0..failed {
        gate.fail("two-client probe", "non-200, short read or I/O error");
    }
    done as f64 / elapsed
}
