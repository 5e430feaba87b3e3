//! The benchmark's own tables: workloads, end-to-end metrics, per-layer
//! metrics and the command that runs them. `BENCHMARK.json` at the
//! repository root is `csq_benchmark manifest` written to a file; the smoke
//! test asserts the two are identical, so the names cannot drift.

use crate::json::escape;

/// How long one run measures, in seconds. Uniform across workloads; sized
/// so that 4 + 22 × 4 runs with their set-up stay well inside the driver's
/// 3420 s cap (see README.md, "Run shape").
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from the checkout root; it appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "lubm_mix",
        why: "LUBM 1200 universities (2.1 M triples), Q1-Q14 by name over HTTP: engine execution (scan, shuffle, sort-merge join, expand) dominates every request, so executor and scheduler work shows here",
    },
    WorkloadSpec {
        name: "sp2b_heavy",
        why: "SP2Bench 60 k articles, S1-S6 via POST /sparql: citation chains and power-law self-joins push skewed keys through shuffle and distinct, catching a kernel tuned only to LUBM stars",
    },
    WorkloadSpec {
        name: "point_lookup",
        why: "90 selective Q2/Q3/Q4-shaped lookups with seeded constants on the 2.1 M LUBM graph: accept, HTTP read, parse, plan-cache rebind, scan and write dominate; a join or shuffle change must predict none",
    },
    WorkloadSpec {
        name: "cold_restart",
        why: "the write side: parse 140 k triples of N-Triples, merge dictionaries, index, partition, plan 14 cache misses and answer Q1-Q14 once per restart cycle; the work the other three amortise away",
    },
];

/// One end-to-end metric. Every one is a floor or a high-water mark, lower
/// is better, and `bound` is the share of the parent's median by which it
/// may worsen. The bounds come from the stability table in README.md: this
/// box's minutes-long slow phases move every timing by 5-20 % between
/// identical runs, so the timings carry the widest bound the contract
/// allows, and `slowest_query_floor_ms`, which needed more, is a fact.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_floor_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_floor_geomean_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
    },
];

/// One per-layer metric of the traced run. Per-layer metrics have no bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: &[Layer] = &[
    layer("sparql.parse_us", "us", "lower"),
    layer("core.optimize_ms", "ms", "lower"),
    layer("core.plans_explored", "count", "lower"),
    layer("core.decompositions_explored", "count", "lower"),
    layer("engine.translate_us", "us", "lower"),
    layer("engine.rebind_us", "us", "lower"),
    layer("engine.execute_ms", "ms", "lower"),
    layer("engine.op_self_ms.MapScan", "ms", "lower"),
    layer("engine.op_self_ms.Filter", "ms", "lower"),
    layer("engine.op_self_ms.MapJoin", "ms", "lower"),
    layer("engine.op_self_ms.MapShuffler", "ms", "lower"),
    layer("engine.op_self_ms.ReduceJoin", "ms", "lower"),
    layer("engine.op_self_ms.Project", "ms", "lower"),
    layer("engine.tuples_read", "count", "lower"),
    layer("engine.tuples_shuffled", "count", "lower"),
    layer("engine.shuffle_bytes", "bytes", "lower"),
    layer("engine.join_rows_out", "count", "lower"),
    layer("engine.sorts_performed", "count", "lower"),
    layer("engine.sorts_elided", "count", "higher"),
    layer("engine.runs_emitted", "count", "lower"),
    layer("engine.rows_expanded", "count", "lower"),
    layer("engine.rows_read_per_result", "ratio", "lower"),
    layer("engine.peak_rows", "count", "lower"),
    layer("engine.peak_bytes", "bytes", "lower"),
    layer("engine.shuffle_peak_bytes", "bytes", "lower"),
    layer("mapreduce.parallel_speedup", "ratio", "higher"),
    layer("mapreduce.tasks_per_query", "count", "lower"),
    layer("mapreduce.waves_per_query", "count", "lower"),
    layer("mapreduce.load_input_s", "s", "lower"),
    layer("mapreduce.load_encode_s", "s", "lower"),
    layer("mapreduce.load_merge_s", "s", "lower"),
    layer("mapreduce.load_index_s", "s", "lower"),
    layer("mapreduce.load_partition_s", "s", "lower"),
    layer("mapreduce.load_peak_inflight_mb", "MB", "lower"),
    layer("mapreduce.cluster_build_s", "s", "lower"),
    layer("mapreduce.store_build_s", "s", "lower"),
    layer("mapreduce.stats_build_s", "s", "lower"),
    layer("rdf.generate_s", "s", "lower"),
    layer("rdf.ntriples_parse_mb_per_s", "MB/s", "higher"),
    layer("rdf.distinct_terms", "count", "lower"),
    layer("rdf.dictionary_mb", "MB", "lower"),
    layer("server.http_floor_us", "us", "lower"),
    layer("server.http_overhead_ms", "ms", "lower"),
    layer("server.plan_hit_us", "us", "lower"),
    layer("server.plancache_hit_rate", "ratio", "higher"),
    layer("server.finalize_ms", "ms", "lower"),
    layer("server.response_kb", "kB", "lower"),
    layer("server.transfer_ms", "ms", "lower"),
    layer("server.two_client_ratio", "ratio", "higher"),
    layer("obs.profile_overhead_pct", "%", "lower"),
    layer("obs.metrics_scrape_us", "us", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("accounted_share", "ratio", "higher"),
    layer("unaccounted_ms", "ms", "lower"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", strings(COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", strings(PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            escape(w.why),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.bound,
            if i + 1 == END_TO_END.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better,
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
