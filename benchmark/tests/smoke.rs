//! Drives the built `csq_benchmark` on tiny datasets: every workload, both
//! modes, exactly the names and units `BENCHMARK.json` declares.

use cliquesquare_benchmark::json::{self, Value};
use cliquesquare_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_csq_benchmark");

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs one smoke workload and returns the parsed result line.
fn smoke_run(workload: &str, trace: bool) -> Value {
    let output = Command::new(BIN)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("csq_benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn the_manifest_is_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec::manifest(),
        "BENCHMARK.json differs from `csq_benchmark manifest`; regenerate it"
    );
    let printed = Command::new(BIN)
        .arg("manifest")
        .output()
        .expect("manifest runs");
    assert_eq!(String::from_utf8_lossy(&printed.stdout), on_disk);
    let value = json::parse(&on_disk).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = value
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(well_formed(name), "{name:?} is not a well-formed name");
    }
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = smoke_run(workload.name, trace);
            let context = format!("{} trace={trace}", workload.name);
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
                "{context}"
            );

            let declared: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
            let mut emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
            emitted.sort_unstable();
            expected.sort_unstable();
            assert_eq!(emitted, expected, "{context}");
            for (name, unit) in declared {
                let metric = &metrics[name];
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit),
                    "{context} {name}"
                );
                let value = metric.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{context} {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{context}: end-to-end {name} must never be 0");
                }
            }
            if trace {
                let share = metrics["accounted_share"]
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap();
                assert!(
                    share > 0.0 && share <= 1.05,
                    "{context}: accounted_share = {share}"
                );
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_an_error_without_a_result_line() {
    let output = Command::new(BIN)
        .args([
            "run",
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("csq_benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
