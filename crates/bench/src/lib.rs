//! Shared harness utilities for the paper-figure reports, the counter
//! snapshot and the criterion benches — timings are `benchmark/`'s. Each
//! `report_*` binary prints one figure of the paper's evaluation (Section 6);
//! `report_execution --snapshot` also records the deterministic counters of
//! the 14-query LUBM suite as `BENCH_execution.json`. See EXPERIMENTS.md at
//! the repository root for the mapping and recorded outputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cliquesquare_mapreduce::{Cluster, ClusterConfig, Runtime};
use cliquesquare_obs::json::push_escaped;
use cliquesquare_rdf::{Graph, LubmGenerator, LubmScale};
use std::time::Instant;

/// Default LUBM scale used by the execution reports: large enough that join
/// selectivities differentiate plans (and that the `"University3"` constant
/// of Q11/Q14 exists), small enough to run in seconds.
pub fn report_scale() -> LubmScale {
    LubmScale::with_universities(5)
}

/// A smaller scale for Criterion benches (they run each measurement many times).
pub fn bench_scale() -> LubmScale {
    LubmScale::tiny()
}

/// Generates the LUBM-like dataset at the given scale.
pub fn lubm_graph(scale: LubmScale) -> Graph {
    LubmGenerator::new(scale).generate()
}

/// Loads a 7-node cluster (the paper's testbed size) with the given scale.
pub fn lubm_cluster(scale: LubmScale) -> Cluster {
    Cluster::load(lubm_graph(scale), ClusterConfig::with_nodes(7))
}

/// Resolves the execution runtime of a report binary: `--threads N` (or
/// `auto` for the machine's available parallelism), the deterministic
/// sequential runtime without it. A `--threads` without a value or with a
/// malformed one (zero, negative, garbage) prints the error and exits with
/// status 2 instead of panicking.
pub fn runtime_from_args(args: &[String]) -> Runtime {
    parse_flag(args, "--threads", Runtime::try_from_option).unwrap_or_else(Runtime::sequential)
}

/// Parses `--scale U` (LUBM universities) from the argument list, falling
/// back to `default`. Lets the wall-clock speedup experiments run on a
/// larger dataset than the paper-figure default without recompiling. A
/// `--scale` without a value or with a malformed one (zero, negative,
/// garbage) prints the error and exits with status 2, as `--threads` does.
pub fn scale_from_args(args: &[String], default: LubmScale) -> LubmScale {
    parse_flag(args, "--scale", LubmScale::try_from_option).unwrap_or(default)
}

/// Parses the value of `flag` with `parse`, `None` when the flag is absent.
/// A flag given without a value, or with one `parse` rejects, prints the
/// error naming the flag and exits with status 2.
fn parse_flag<T>(
    args: &[String],
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    match flag_value(args, flag).and_then(|value| value.map(parse).transpose()) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("error: invalid {flag}: {error}");
            std::process::exit(2);
        }
    }
}

/// The value of a `--flag value` / `--flag=value` argument: `Ok(None)` when
/// the flag is absent, an error when it is the last argument, with no value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return iter
                .next()
                .map(|value| Some(value.as_str()))
                .ok_or_else(|| "missing value".to_string());
        }
        if let Some(value) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Ok(Some(value));
        }
    }
    Ok(None)
}

/// Measures `f`'s wall-clock seconds as the best (minimum) of `repeats`
/// runs — the standard way to damp scheduler noise in speedup tables.
pub fn measure_seconds(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// Formats a fixed-width text table with a header row, used by every report
/// binary so figures are easy to diff against EXPERIMENTS.md.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let format_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = format_row(&header_cells);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&format_row(row));
        out.push('\n');
    }
    out
}

/// Formats a float with three significant decimals for report tables.
pub fn fmt_f64(value: f64) -> String {
    if value >= 1000.0 {
        format!("{value:.0}")
    } else if value >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Parses the `--snapshot [PATH]` flag: `Some(path)` when a snapshot was
/// requested (`BENCH_execution.json` when no path follows the flag).
pub fn snapshot_path_from_args(args: &[String]) -> Option<String> {
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--snapshot" {
            return Some(match iter.peek() {
                Some(value) if !value.starts_with("--") => (*value).clone(),
                _ => "BENCH_execution.json".to_string(),
            });
        }
        if let Some(value) = arg.strip_prefix("--snapshot=") {
            return Some(value.to_string());
        }
    }
    None
}

/// One query's entry in the execution bench snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotQuery {
    /// Query name (`Q1` … `Q14`).
    pub name: String,
    /// Number of triple patterns.
    pub patterns: usize,
    /// Paper-style job descriptor of the executed plan (`"M"`, `"1"`, …).
    pub jobs: String,
    /// Simulated response time (Section 5.4 cost model, thread-independent).
    pub simulated_seconds: f64,
    /// Number of distinct answers.
    pub results: usize,
    /// Triples the scans read (a sought read counts what it found, a
    /// filtered one every triple of its files).
    pub tuples_read: u64,
    /// Rows the shuffles routed.
    pub tuples_shuffled: u64,
    /// Index sorts the sequential execution actually performed.
    pub sorts_performed: u64,
    /// Rows those sorts moved through the sort kernel.
    pub rows_sorted: u64,
    /// Ordering requirements satisfied without a sort.
    pub sorts_elided: u64,
    /// Join inputs that paid a column-permuted re-sort.
    pub join_inputs_resorted: u64,
    /// Factorized join runs emitted instead of materialized cross products.
    pub runs_emitted: u64,
    /// Rows materialized when factorized runs expanded at the projection.
    pub rows_expanded: u64,
    /// Peak logical rows held by any single join intermediate.
    pub peak_rows: u64,
    /// Peak bytes held by any single join intermediate.
    pub peak_bytes: u64,
    /// Median per-operator q-error of the statistics-driven estimator
    /// against measured `rows_out` (`--cardinality` runs only).
    pub median_q_error: Option<f64>,
    /// Largest per-operator q-error (`--cardinality` runs only).
    pub max_q_error: Option<f64>,
}

/// Writes the 14-query LUBM counter snapshot as `BENCH_execution.json`.
/// Every field is a pure function of the code (plans, counters, simulated
/// seconds, q-errors) — no wall-clock and no thread count — so the committed
/// file is a golden file: CI re-records it and fails on any `git diff`.
pub fn write_execution_snapshot(
    path: &str,
    dataset_triples: usize,
    nodes: usize,
    queries: &[SnapshotQuery],
) -> std::io::Result<()> {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"execution\",\n");
    json.push_str("  \"workload\": \"LUBM Q1-Q14\",\n");
    json.push_str(&format!("  \"dataset_triples\": {dataset_triples},\n"));
    json.push_str(&format!("  \"nodes\": {nodes},\n"));
    json.push_str("  \"queries\": [\n");
    for (index, q) in queries.iter().enumerate() {
        json.push_str("    {\"name\": \"");
        push_escaped(&mut json, &q.name);
        json.push_str(&format!("\", \"patterns\": {}, \"jobs\": \"", q.patterns));
        push_escaped(&mut json, &q.jobs);
        json.push_str(&format!(
            "\", \"simulated_seconds\": {:.6}, \"results\": {}, \
             \"tuples_read\": {}, \"tuples_shuffled\": {}, \
             \"sorts_performed\": {}, \"rows_sorted\": {}, \"sorts_elided\": {}, \
             \"join_inputs_resorted\": {}, \"runs_emitted\": {}, \
             \"rows_expanded\": {}, \"peak_rows\": {}, \"peak_bytes\": {}",
            q.simulated_seconds,
            q.results,
            q.tuples_read,
            q.tuples_shuffled,
            q.sorts_performed,
            q.rows_sorted,
            q.sorts_elided,
            q.join_inputs_resorted,
            q.runs_emitted,
            q.rows_expanded,
            q.peak_rows,
            q.peak_bytes,
        ));
        // q-error fields only appear when the run measured them
        // (`--cardinality`).
        if let (Some(median), Some(max)) = (q.median_q_error, q.max_q_error) {
            json.push_str(&format!(
                ", \"median_q_error\": {median:.4}, \"max_q_error\": {max:.4}"
            ));
        }
        json.push_str(if index + 1 == queries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let text = table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "2.5".to_string()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f64(0.1234), "0.123");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(1234.6), "1235");
        assert_eq!(fmt_percent(0.5), "50.0%");
    }

    #[test]
    fn cluster_helpers_load_data() {
        let cluster = lubm_cluster(bench_scale());
        assert_eq!(cluster.nodes(), 7);
        assert!(cluster.graph().len() > 100);
    }

    #[test]
    fn runtime_argument_parsing() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert_eq!(runtime_from_args(&args(&["--threads", "4"])).threads(), 4);
        assert_eq!(runtime_from_args(&args(&["--threads=2"])).threads(), 2);
        assert!(runtime_from_args(&args(&["--threads", "auto"])).threads() >= 1);
        // No flag: sequential.
        assert_eq!(runtime_from_args(&args(&["--fast"])), Runtime::sequential());
    }

    #[test]
    fn scale_argument_parsing() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            scale_from_args(&args(&["--scale", "12"]), report_scale()),
            LubmScale::with_universities(12)
        );
        assert_eq!(
            scale_from_args(&args(&["--scale=3"]), report_scale()),
            LubmScale::with_universities(3)
        );
        assert_eq!(scale_from_args(&args(&[]), report_scale()), report_scale());
    }

    #[test]
    fn a_flag_without_a_value_is_an_error_not_its_default() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            flag_value(&args(&["--fast", "--scale"]), "--scale"),
            Err("missing value".to_string())
        );
        assert_eq!(
            flag_value(&args(&["--threads"]), "--threads"),
            Err("missing value".to_string())
        );
        assert_eq!(flag_value(&args(&["--fast"]), "--scale"), Ok(None));
        assert_eq!(flag_value(&args(&[]), "--threads"), Ok(None));
        assert_eq!(
            flag_value(&args(&["--scale", "3", "--fast"]), "--scale"),
            Ok(Some("3"))
        );
        assert_eq!(flag_value(&args(&["--scale="]), "--scale"), Ok(Some("")));
    }

    #[test]
    fn execution_snapshot_layout_is_fixed_byte_for_byte() {
        let queries = vec![
            SnapshotQuery {
                name: "Q\"1".to_string(),
                patterns: 2,
                jobs: "M".to_string(),
                simulated_seconds: 8.5,
                results: 42,
                tuples_read: 1_200,
                tuples_shuffled: 0,
                sorts_performed: 3,
                rows_sorted: 250,
                sorts_elided: 17,
                join_inputs_resorted: 1,
                runs_emitted: 5,
                rows_expanded: 40,
                peak_rows: 60,
                peak_bytes: 480,
                median_q_error: Some(1.25),
                max_q_error: Some(8.0),
            },
            SnapshotQuery {
                name: "Q2".to_string(),
                patterns: 3,
                jobs: "1".to_string(),
                simulated_seconds: 9.0,
                results: 7,
                tuples_read: 640,
                tuples_shuffled: 96,
                sorts_performed: 0,
                rows_sorted: 0,
                sorts_elided: 20,
                join_inputs_resorted: 0,
                runs_emitted: 0,
                rows_expanded: 0,
                peak_rows: 7,
                peak_bytes: 56,
                median_q_error: None,
                max_q_error: None,
            },
        ];
        let path = std::env::temp_dir().join("csq_snapshot_layout.json");
        let path = path.to_str().unwrap();
        write_execution_snapshot(path, 1000, 7, &queries).unwrap();
        let written = std::fs::read_to_string(path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(
            written,
            "{\n  \"benchmark\": \"execution\",\n  \"workload\": \"LUBM Q1-Q14\",\n  \
             \"dataset_triples\": 1000,\n  \"nodes\": 7,\n  \"queries\": [\n    \
             {\"name\": \"Q\\\"1\", \"patterns\": 2, \"jobs\": \"M\", \
             \"simulated_seconds\": 8.500000, \"results\": 42, \"tuples_read\": 1200, \
             \"tuples_shuffled\": 0, \"sorts_performed\": 3, \
             \"rows_sorted\": 250, \"sorts_elided\": 17, \"join_inputs_resorted\": 1, \
             \"runs_emitted\": 5, \"rows_expanded\": 40, \"peak_rows\": 60, \
             \"peak_bytes\": 480, \
             \"median_q_error\": 1.2500, \"max_q_error\": 8.0000},\n    \
             {\"name\": \"Q2\", \"patterns\": 3, \"jobs\": \"1\", \
             \"simulated_seconds\": 9.000000, \"results\": 7, \"tuples_read\": 640, \
             \"tuples_shuffled\": 96, \"sorts_performed\": 0, \
             \"rows_sorted\": 0, \"sorts_elided\": 20, \"join_inputs_resorted\": 0, \
             \"runs_emitted\": 0, \"rows_expanded\": 0, \"peak_rows\": 7, \
             \"peak_bytes\": 56}\n  ]\n}\n"
        );
        // A golden file holds nothing that varies run to run.
        assert!(!written.contains("wall") && !written.contains("threads"));
    }

    #[test]
    fn measure_seconds_returns_a_finite_minimum() {
        let seconds = measure_seconds(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(seconds.is_finite() && seconds >= 0.0);
    }
}
