//! `stability` — does the same code measure the same number twice? — and
//! `compare` — did a change move a number by more than the benchmark's
//! bound, given how far the same code moves it?

use crate::json::{self, Value};
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::trace::out_dir;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The per-layer counts that must repeat exactly for one seed.
const EXACT_COUNTS: &[&str] = &[
    "engine.tuples_read",
    "engine.tuples_shuffled",
    "engine.sorts_performed",
    "engine.sorts_elided",
    "engine.runs_emitted",
    "engine.rows_expanded",
    "core.plans_explored",
    "mapreduce.tasks_per_query",
    "rdf.distinct_terms",
];

/// One run document, reduced to what the reports need.
struct RunDoc {
    workload: String,
    trace: bool,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_doc(value: &Value) -> Result<RunDoc, String> {
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("run document without metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunDoc {
        workload: value
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run document without workload")?
            .to_string(),
        trace: value.get("trace").and_then(Value::as_bool).unwrap_or(false),
        correct: value
            .get("correct")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        metrics,
    })
}

/// Reads a result file: one run document, or `{"runs": [...]}`.
fn load(path: &Path) -> Result<Vec<RunDoc>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match value.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().map(run_doc).collect(),
        None => Ok(vec![run_doc(&value)?]),
    }
}

/// The values of `metric` over the runs of `workload` in one mode.
fn values_of(runs: &[RunDoc], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// `compare A.json B.json`: per workload × end-to-end metric, both medians,
/// the ratio with its base, the bound and a verdict; per-layer metrics
/// beside them without one. Returns whether nothing got worse.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (base, change) = (load(a)?, load(b)?);
    let mut all_ok = true;
    println!("A (base) = {}    B = {}", a.display(), b.display());
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>10} {:>7} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "spread"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let before = values_of(&base, workload.name, false, metric.name);
            let after = values_of(&change, workload.name, false, metric.name);
            if before.is_empty() || after.is_empty() {
                continue;
            }
            let (m_a, m_b) = (median(&before), median(&after));
            // The same-code spread recorded in either file: a difference
            // inside it cannot be told from noise.
            let noise = spread(&before)
                .into_iter()
                .chain(spread(&after))
                .fold(0.0, f64::max);
            let verdict = if noise > metric.bound {
                "unresolved"
            } else if m_b > m_a * (1.0 + metric.bound) {
                all_ok = false;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<26} {:>12.4} {:>12.4} {:>10.4} {:>7.2} {:>9.4}  {verdict}",
                workload.name,
                metric.name,
                m_a,
                m_b,
                m_b / m_a,
                metric.bound,
                noise
            );
        }
    }
    println!("\nper-layer (traced runs; no verdict)");
    for workload in WORKLOADS {
        for metric in PER_LAYER {
            let before = values_of(&base, workload.name, true, metric.name);
            let after = values_of(&change, workload.name, true, metric.name);
            if before.is_empty() || after.is_empty() {
                continue;
            }
            let (m_a, m_b) = (median(&before), median(&after));
            println!(
                "{:<14} {:<34} {:>14.4} {:>14.4} {:>10.4} {}",
                workload.name,
                metric.name,
                m_a,
                m_b,
                if m_a != 0.0 { m_b / m_a } else { 0.0 },
                metric.unit
            );
        }
    }
    for run in base.iter().chain(&change).filter(|r| !r.correct) {
        all_ok = false;
        println!("INCORRECT run of {}", run.workload);
    }
    Ok(all_ok)
}

/// Runs this very binary once and returns the document it wrote.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = out_dir().join("stability-run.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null());
    if smoke {
        command.arg("--smoke");
    }
    let status = command.status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "run of {workload} (seed {seed}) exited with {status}"
        ));
    }
    let document = std::fs::read_to_string(&out).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&out);
    Ok(document.trim().to_string())
}

/// `stability --sets 2 --runs 5`: every workload in interleaved sets on the
/// same binary (run i of every set uses seed i, so counts must agree
/// exactly), then per metric each set's median, quartiles and spread, and
/// the disagreement between set medians — the table the bounds come from.
/// Writes one result file per set for `compare`.
pub fn stability(args: &[String]) -> Result<bool, String> {
    let sets: usize = crate::parsed(args, "--sets", 2)?;
    let runs: usize = crate::parsed(args, "--runs", 5)?;
    let seconds: f64 = crate::parsed(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let chosen: Vec<&str> = match crate::flag(args, "--workloads") {
        Some(list) => list.split(',').collect(),
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    if sets < 2 || runs < 2 {
        return Err("stability needs at least 2 sets of 2 runs".to_string());
    }

    let mut documents: Vec<Vec<String>> = vec![Vec::new(); sets];
    for run in 0..runs {
        for workload in &chosen {
            for (set, documents) in documents.iter_mut().enumerate() {
                eprintln!("stability: run {}/{runs} set {set} {workload}", run + 1);
                documents.push(child_run(workload, 1 + run as u64, seconds, false, smoke)?);
            }
        }
    }
    for workload in &chosen {
        for (set, documents) in documents.iter_mut().enumerate() {
            eprintln!("stability: traced run set {set} {workload}");
            documents.push(child_run(workload, 1, seconds, true, smoke)?);
        }
    }

    let mut parsed_sets: Vec<Vec<RunDoc>> = Vec::new();
    let mut files: Vec<PathBuf> = Vec::new();
    for (set, documents) in documents.iter().enumerate() {
        let path = out_dir().join(format!("stability-set{set}.json"));
        std::fs::write(
            &path,
            format!("{{\"runs\": [\n{}\n]}}\n", documents.join(",\n")),
        )
        .map_err(|e| e.to_string())?;
        parsed_sets.push(load(&path)?);
        files.push(path);
    }

    let mut stable = true;
    println!(
        "| workload | metric | {} | disagreement | bound | |",
        (0..sets)
            .map(|s| format!("set {s} median [q1, q3] (spread)"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|---|", "---|".repeat(sets));
    for workload in &chosen {
        for metric in END_TO_END {
            let per_set: Vec<Vec<f64>> = parsed_sets
                .iter()
                .map(|set| values_of(set, workload, false, metric.name))
                .collect();
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            let low = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let high = medians.iter().copied().fold(0.0, f64::max);
            let disagreement = (high - low) / low.max(f64::MIN_POSITIVE);
            let worst_spread = per_set.iter().filter_map(|v| spread(v)).fold(0.0, f64::max);
            // `setup_s` is held to the agreement of medians only.
            let ok = disagreement <= metric.bound
                && (metric.name == "setup_s" || worst_spread <= metric.bound);
            stable &= ok;
            let cells: Vec<String> = per_set
                .iter()
                .map(|values| {
                    let q = quartiles(values).unwrap_or([0.0; 3]);
                    format!(
                        "{:.4} [{:.4}, {:.4}] ({:.2} %)",
                        median(values),
                        q[0],
                        q[2],
                        spread(values).unwrap_or(0.0) * 100.0
                    )
                })
                .collect();
            println!(
                "| {workload} | {} ({}) | {} | {:.2} % | {:.0} % | {} |",
                metric.name,
                metric.unit,
                cells.join(" | "),
                disagreement * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "UNSTABLE" }
            );
        }
    }

    println!("\nexact counts (traced run, seed 1), one column per set:");
    for workload in &chosen {
        for name in EXACT_COUNTS {
            let values: Vec<f64> = parsed_sets
                .iter()
                .flat_map(|set| values_of(set, workload, true, name))
                .collect();
            let identical = values.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
            stable &= identical;
            println!(
                "  {workload:<14} {name:<28} {} {}",
                values
                    .iter()
                    .map(|v| format!("{v:>14}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                if identical { "identical" } else { "DIFFERENT" }
            );
        }
    }
    println!(
        "\nresult files: {}",
        files
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(stable)
}
