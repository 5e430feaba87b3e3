//! Reproduces **Figure 20**: simulated execution time of the plan chosen by
//! the cost model among the CliqueSquare-MSC plans, versus the best binary
//! bushy plan and the best binary linear plan, for the 14 LUBM queries.
//! Next to each query we print the paper-style annotation
//! `Qi(#tps | jobs_MSC jobs_bushy jobs_linear)` where `M` denotes a map-only
//! job.
//!
//! The simulated columns come from the Section 5.4 cost model and are
//! independent of the thread count. The `wall …` columns are *measured*
//! wall-clock times of the chosen MSC plan on this machine: once on the
//! sequential runtime and once on `--threads N` OS threads (best of several
//! runs), together with the resulting real speedup. Both executions are
//! asserted to produce bit-identical answers.
//!
//! The `Mrow/s` column comes from the engine's relation counters: join
//! output rows per wall-second of the sequential execution. (That the flat
//! columnar layout performs no per-row heap allocation on the join and
//! shuffle paths is measured by the counting allocator of
//! `tests/join_allocations.rs`.) The `sorts` / `elided` / `resorts` columns
//! come from the same counters: index sorts the sequential execution
//! performed, ordering requirements the interesting-orders pass satisfied
//! without sorting, and join inputs that paid a column-permuted re-sort.
//!
//! Usage: `cargo run --release -p cliquesquare-bench --bin report_execution [-- --threads N] [--scale U] [--cardinality] [--snapshot [PATH]]`
//! (`--threads auto` uses all cores; default: sequential.
//! `--scale U` generates U LUBM universities — larger datasets amortize the
//! per-wave thread spawn cost, which is what the speedup column measures.
//! `--snapshot [PATH]` additionally writes each query's deterministic
//! fields — job descriptor, simulated seconds, result count, tuples read and
//! shuffled, sort / run / peak counters and, with `--cardinality`, q-errors — to `PATH`,
//! `BENCH_execution.json` by default. The file holds no wall-clock and no
//! thread count, so the committed copy is a golden file: CI re-records it
//! at `--scale 12 --cardinality` and gates on `git diff --exit-code`.
//! `--cardinality` additionally runs each query with the cost model's
//! per-operator estimates attached as `est_rows` span attributes, prints
//! estimated-vs-actual rows as per-query median/max q-error for the
//! statistics-driven estimator *and* the uniform baseline (plus the same
//! differential on the SP²Bench mix), and records the per-query medians
//! into the snapshot.
//! `--profile [PATH]` additionally runs each query once with per-query
//! profiling, asserts the profiled answers are bit-identical to the
//! unprofiled ones, and writes the span trees as a Chrome-trace JSON —
//! `BENCH_profile_trace.json` by default; open it in `chrome://tracing` or
//! Perfetto.)

use cliquesquare_baselines::BinaryPlanner;
use cliquesquare_bench::{
    fmt_f64, lubm_cluster, measure_seconds, report_scale, runtime_from_args, scale_from_args,
    snapshot_path_from_args, table, write_execution_snapshot, SnapshotQuery,
};
use cliquesquare_core::LogicalPlan;
use cliquesquare_engine::csq::{Csq, CsqConfig};
use cliquesquare_engine::relation::stats as relation_stats;
use cliquesquare_engine::{q_error, translate, Executor, MapReduceCostModel, PhysicalPlan};
use cliquesquare_mapreduce::Cluster;
use cliquesquare_querygen::lubm_queries;
use cliquesquare_sparql::BgpQuery;

/// Wall-clock measurement repetitions (best-of).
const REPEATS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runtime = runtime_from_args(&args);
    let cardinality = args.iter().any(|a| a == "--cardinality");
    let cluster = lubm_cluster(scale_from_args(&args, report_scale()));
    println!(
        "== Figure 20: MSC plans vs best binary bushy / linear plans ==\n\
         dataset: {} triples on {} nodes; measured columns on {} thread(s), best of {}\n",
        cluster.graph().len(),
        cluster.nodes(),
        runtime.threads(),
        REPEATS
    );
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let planner = BinaryPlanner::new(cluster.graph());
    let executor = Executor::sequential(&cluster);
    let parallel_executor = Executor::with_runtime(&cluster, runtime.clone());

    let mut rows = Vec::new();
    let mut snapshot_queries: Vec<SnapshotQuery> = Vec::new();
    let mut cardinality_rows: Vec<Vec<String>> = Vec::new();
    let mut all_stats_q: Vec<f64> = Vec::new();
    let mut all_uniform_q: Vec<f64> = Vec::new();
    for query in lubm_queries::lubm_queries() {
        let report = csq.run(&query);
        let run_binary = |plan: Option<LogicalPlan>| {
            plan.map(|p| executor.execute_logical(&p)).map(|out| {
                (
                    out.schedule.descriptor(),
                    out.simulated_seconds,
                    out.distinct_count(),
                )
            })
        };
        let bushy = run_binary(planner.best_bushy(&query)).expect("bushy plan");
        let linear = run_binary(planner.best_linear(&query)).expect("linear plan");
        assert_eq!(
            report.result_count,
            bushy.2,
            "{}: answer mismatch",
            query.name()
        );
        assert_eq!(
            report.result_count,
            linear.2,
            "{}: answer mismatch",
            query.name()
        );

        // Measured wall-clock of the chosen MSC plan: sequential vs parallel
        // runtime, identical answers enforced.
        let physical = translate(&report.chosen_plan, cluster.graph());
        let sequential_output = executor.execute(&physical);
        let parallel_output = parallel_executor.execute(&physical);
        assert_eq!(
            sequential_output.results,
            parallel_output.results,
            "{}: parallel runtime changed the answer set",
            query.name()
        );
        assert_eq!(
            sequential_output.schedule.descriptor(),
            parallel_output.schedule.descriptor(),
            "{}: parallel runtime changed the job descriptor",
            query.name()
        );
        let wall_seq = measure_seconds(REPEATS, || {
            std::hint::black_box(executor.execute(&physical));
        });
        let wall_par = measure_seconds(REPEATS, || {
            std::hint::black_box(parallel_executor.execute(&physical));
        });
        // Throughput / sort / run counters of one sequential execution.
        relation_stats::reset();
        std::hint::black_box(executor.execute(&physical));
        let rel_stats = relation_stats::snapshot();
        let join_mrows_per_s = rel_stats.join_rows_out as f64 / wall_seq / 1e6;
        // Since the shared-consumer order splitting in interesting_orders, no
        // LUBM query re-sorts any join input. Gate on it staying that way.
        assert_eq!(
            rel_stats.join_inputs_resorted,
            0,
            "{}: join input paid a re-sort (interesting-orders regression)",
            query.name()
        );
        // Q1 is the canonical star join: its factorized execution must emit
        // strictly fewer runs than it materializes result rows — the
        // output-sublinear intermediate the factorization exists for.
        if query.name() == "Q1" {
            assert!(
                rel_stats.runs_emitted > 0,
                "Q1: star join no longer takes the factorized path"
            );
            assert!(
                rel_stats.runs_emitted < report.result_count as u64,
                "Q1: factorized runs ({}) not sublinear in results ({})",
                rel_stats.runs_emitted,
                report.result_count
            );
        }

        // `--cardinality`: estimated vs actual rows per operator, for the
        // statistics-driven estimator and the uniform baseline, from one
        // profiled execution each (answers asserted unchanged).
        let q_summary = cardinality.then(|| {
            let stats = operator_q_errors(
                &MapReduceCostModel::new(&cluster),
                &executor,
                &physical,
                &sequential_output,
                query.name(),
            );
            let uniform = operator_q_errors(
                &MapReduceCostModel::uniform(&cluster),
                &executor,
                &physical,
                &sequential_output,
                query.name(),
            );
            (stats, uniform)
        });
        if let Some((stats, uniform)) = &q_summary {
            cardinality_rows.push(vec![
                query.name().to_string(),
                stats.len().to_string(),
                fmt_f64(median(&q_values(stats))),
                fmt_f64(max(&q_values(stats))),
                fmt_f64(median(&q_values(uniform))),
                fmt_f64(max(&q_values(uniform))),
            ]);
            all_stats_q.extend(q_values(stats));
            all_uniform_q.extend(q_values(uniform));
        }

        snapshot_queries.push(SnapshotQuery {
            name: query.name().to_string(),
            patterns: query.len(),
            jobs: report.job_descriptor.clone(),
            simulated_seconds: report.simulated_seconds,
            results: report.result_count,
            tuples_read: sequential_output.metrics.tuples_read,
            tuples_shuffled: sequential_output.metrics.tuples_shuffled,
            sorts_performed: rel_stats.sorts_performed,
            rows_sorted: rel_stats.rows_sorted,
            sorts_elided: rel_stats.sorts_elided,
            join_inputs_resorted: rel_stats.join_inputs_resorted,
            runs_emitted: rel_stats.runs_emitted,
            rows_expanded: rel_stats.rows_expanded,
            peak_rows: rel_stats.peak_rows,
            peak_bytes: rel_stats.peak_bytes,
            median_q_error: q_summary
                .as_ref()
                .map(|(stats, _)| median(&q_values(stats))),
            max_q_error: q_summary.as_ref().map(|(stats, _)| max(&q_values(stats))),
        });
        rows.push(vec![
            format!(
                "{}({}|{}{}{})",
                query.name(),
                query.len(),
                report.job_descriptor,
                bushy.0,
                linear.0
            ),
            report.plan_height.to_string(),
            fmt_f64(report.simulated_seconds),
            fmt_f64(bushy.1),
            fmt_f64(linear.1),
            fmt_f64(bushy.1 / report.simulated_seconds),
            fmt_f64(linear.1 / report.simulated_seconds),
            fmt_f64(wall_seq * 1e3),
            fmt_f64(wall_par * 1e3),
            fmt_f64(wall_seq / wall_par),
            fmt_f64(join_mrows_per_s),
            rel_stats.sorts_performed.to_string(),
            rel_stats.sorts_elided.to_string(),
            rel_stats.join_inputs_resorted.to_string(),
            rel_stats.runs_emitted.to_string(),
            rel_stats.rows_expanded.to_string(),
            rel_stats.peak_rows.to_string(),
            report.result_count.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "Query(#tps|jobs)",
                "MSC height",
                "MSC-Best (s)",
                "Best Bushy (s)",
                "Best Linear (s)",
                "bushy/MSC",
                "linear/MSC",
                "wall 1T (ms)",
                "wall NT (ms)",
                "speedup",
                "Mrow/s",
                "sorts",
                "elided",
                "resorts",
                "runs",
                "expanded",
                "peak rows",
                "|Q|",
            ],
            &rows
        )
    );
    println!(
        "Columns `MSC-Best`..`linear/MSC` are simulated (cost model, thread-independent); \
         `wall *` columns are measured on this machine. `Mrow/s` is join output throughput \
         of the sequential run; `sorts`/`elided` count index sorts performed vs ordering \
         requirements the interesting-orders pass satisfied without sorting, and \
         `resorts` counts join inputs that paid a re-sort. \
         `runs`/`expanded` count factorized join runs emitted vs rows materialized at the \
         projection boundary, and `peak rows` is the largest single join intermediate."
    );
    println!("Expected shape (paper): MSC plans are fastest for every query, up to ~2x vs bushy and up to ~16x vs linear.");

    if cardinality {
        println!("\n== Cardinality estimation: per-operator q-error (est vs measured rows) ==");
        println!(
            "{}",
            table(
                &[
                    "Query",
                    "ops",
                    "stats median",
                    "stats max",
                    "uniform median",
                    "uniform max",
                ],
                &cardinality_rows
            )
        );
        println!(
            "LUBM workload q-error: statistics median {} / max {}, uniform median {} / max {} \
             (q-error = max(est/actual, actual/est); 1.0 is perfect).",
            fmt_f64(median(&all_stats_q)),
            fmt_f64(max(&all_stats_q)),
            fmt_f64(median(&all_uniform_q)),
            fmt_f64(max(&all_uniform_q)),
        );
        sp2b_cardinality_differential(runtime.threads());
    }

    if let Some(path) = snapshot_path_from_args(&args) {
        write_execution_snapshot(
            &path,
            cluster.graph().len(),
            cluster.nodes(),
            &snapshot_queries,
        )
        .expect("write bench snapshot");
        println!("\nWrote counter snapshot to {path}.");
    }

    if let Some(path) = profile_path_from_args(&args) {
        write_profile_trace(&path, &csq, &parallel_executor);
    }
}

/// One operator's estimated-vs-actual cardinality: `(span, est, actual)`.
type OpCard = (String, u64, u64);

/// Executes `plan` profiled with `model`'s per-operator estimates attached,
/// asserts the answers match the unprofiled `reference` execution, and
/// extracts every `(est_rows, rows_out)` pair from the span tree.
fn operator_q_errors(
    model: &MapReduceCostModel,
    executor: &Executor,
    plan: &PhysicalPlan,
    reference: &cliquesquare_engine::ExecutionOutput,
    query_name: &str,
) -> Vec<OpCard> {
    let cards = model.estimate_cards(plan);
    let output = executor.execute_profiled_with_estimates(plan, &cards);
    assert_eq!(
        output.results, reference.results,
        "{query_name}: estimate-annotated profiling changed the answer set"
    );
    let mut pairs = Vec::new();
    if let Some(root) = output.profile {
        collect_estimates(&root, &mut pairs);
    }
    pairs
}

/// Walks a span tree collecting every node that carries an `est_rows`
/// attribute next to its measured `rows_out`.
fn collect_estimates(node: &cliquesquare_obs::SpanNode, out: &mut Vec<OpCard>) {
    if let Some(&(_, est)) = node.attrs.iter().find(|(name, _)| name == "est_rows") {
        out.push((node.name.clone(), est, node.rows_out));
    }
    for child in &node.children {
        collect_estimates(child, out);
    }
}

/// The q-errors of a per-operator cardinality list.
fn q_values(cards: &[OpCard]) -> Vec<f64> {
    cards
        .iter()
        .map(|&(_, est, actual)| q_error(est, actual))
        .collect()
}

/// Median of a non-empty sample (mean of the middle pair for even sizes);
/// 1.0 — the perfect q-error — for an empty one.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Largest value of a sample (1.0 for an empty one).
fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(1.0f64, f64::max)
}

/// The SP²B leg of the `--cardinality` differential: plans the SP²Bench
/// query mix on a tiny DBLP-like cluster and prints the workload median/max
/// q-error of the statistics estimator next to the uniform baseline. Kept
/// at a fixed small scale — the point is the estimator comparison on a
/// power-law (non-LUBM) value distribution, not wall-clock.
fn sp2b_cardinality_differential(threads: usize) {
    use cliquesquare_mapreduce::ClusterConfig;
    use cliquesquare_rdf::{Sp2bGenerator, Sp2bScale};

    let graph = Sp2bGenerator::new(Sp2bScale::tiny()).generate();
    let cluster = Cluster::load(graph, ClusterConfig::with_nodes(7));
    let csq = Csq::new(cluster.clone(), CsqConfig::default());
    let executor = Executor::sequential(&cluster);
    let mut stats_q = Vec::new();
    let mut uniform_q = Vec::new();
    let queries: Vec<BgpQuery> = cliquesquare_querygen::sp2b_queries();
    for query in &queries {
        let (_, chosen, _) = csq.plan(query);
        let physical = translate(&chosen, cluster.graph());
        let reference = executor.execute(&physical);
        stats_q.extend(q_values(&operator_q_errors(
            &MapReduceCostModel::new(&cluster),
            &executor,
            &physical,
            &reference,
            query.name(),
        )));
        uniform_q.extend(q_values(&operator_q_errors(
            &MapReduceCostModel::uniform(&cluster),
            &executor,
            &physical,
            &reference,
            query.name(),
        )));
    }
    println!(
        "SP2B workload q-error ({} queries, {} triples, {} thread(s)): \
         statistics median {} / max {}, uniform median {} / max {}.",
        queries.len(),
        cluster.graph().len(),
        threads,
        fmt_f64(median(&stats_q)),
        fmt_f64(max(&stats_q)),
        fmt_f64(median(&uniform_q)),
        fmt_f64(max(&uniform_q)),
    );
}

/// Parses `--profile [PATH]` (`BENCH_profile_trace.json` when no path
/// follows the flag).
fn profile_path_from_args(args: &[String]) -> Option<String> {
    let position = args.iter().position(|a| a == "--profile")?;
    Some(
        args.get(position + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_profile_trace.json".to_string()),
    )
}

/// Runs every LUBM query once profiled and once not on `executor`, asserts
/// the answers are bit-identical, and writes the profiles to `path` as
/// Chrome-trace JSON.
fn write_profile_trace(path: &str, csq: &Csq, executor: &Executor) {
    let mut profiles = Vec::new();
    for query in lubm_queries::lubm_queries() {
        let (_, chosen, _) = csq.plan(&query);
        let physical = translate(&chosen, csq.cluster().graph());
        let unprofiled = executor.execute(&physical);
        let profiled = executor.execute_profiled(&physical);
        assert_eq!(
            unprofiled.results,
            profiled.results,
            "{}: profiling changed the answer set",
            query.name()
        );
        let root = profiled
            .profile
            .expect("profiled execution returns a span tree");
        profiles.push(cliquesquare_obs::QueryProfile {
            query: query.name().to_string(),
            threads: executor.runtime().threads(),
            total_wall_seconds: root.wall_seconds,
            root,
        });
    }
    std::fs::write(path, cliquesquare_obs::chrome_trace(&profiles)).expect("write profile trace");
    println!(
        "\nWrote Chrome-trace profile of {} queries to {path} \
         (open in chrome://tracing or Perfetto).",
        profiles.len()
    );
}
