//! Self-tests of the benchmark at smoke size: every metric named in
//! BENCHMARK.json is printed with its unit and sample count, the result
//! line follows the contract, and a tampered digest or a failing run is
//! reported as a failure rather than as a number.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    match value {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one of BENCHMARK.json's lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = serde_json::parse_value_complete(&json).expect("BENCHMARK.json parses");
    match field(&spec, list) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs")
}

fn smoke(workload: &str, seed: &str, trace: &str, fault: &str) -> (String, Value) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "smoke",
        "--fault",
        fault,
    ]);
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    let result = serde_json::parse_value_complete(&last).expect("the last line is JSON");
    (stdout, result)
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Number(n) => n.as_f64(),
        other => panic!("expected a number, got {other:?}"),
    }
}

fn boolean(value: &Value) -> bool {
    match value {
        Value::Bool(b) => *b,
        other => panic!("expected a bool, got {other:?}"),
    }
}

/// Every declared metric is printed once as `metric <name> <value>
/// <unit> n=<count> ...` and appears in the result line with its unit.
fn assert_reports(list: &str, trace: &str, seed: &str) {
    let declared = declared(list);
    for workload in ["paper-combine", "wide-cohort", "policy-sweep"] {
        let (stdout, result) = smoke(workload, seed, trace, "none");
        assert!(boolean(field(&result, "correct")), "{workload}: {stdout}");
        assert_eq!(number(field(&result, "failed")), 0.0, "{workload}");
        assert!(number(field(&result, "attempted")) >= 1.0, "{workload}");
        let Value::Object(metrics) = field(&result, "metrics") else {
            panic!("metrics is not an object");
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            printed, names,
            "{workload} prints exactly the declared {list}"
        );
        for (name, unit) in &declared {
            let metric = field(field(&result, "metrics"), name);
            assert_eq!(text(field(metric, "unit")), unit, "{workload} {name}");
            assert!(
                number(field(metric, "value")).is_finite(),
                "{workload} {name}"
            );
            let line = stdout
                .lines()
                .find(|l| {
                    l.split_whitespace().nth(1) == Some(name.as_str()) && l.starts_with("metric ")
                })
                .unwrap_or_else(|| panic!("{workload}: no table line for {name}"));
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[3], unit, "{workload}: {line}");
            let n: usize = cols[4]
                .strip_prefix("n=")
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{workload}: no sample count in {line}"));
            assert!(n >= 1, "{workload}: {line}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_printed_with_units_and_counts() {
    assert_reports("end_to_end", "0", "101");
}

#[test]
fn per_layer_metrics_are_printed_with_units_and_counts() {
    assert_reports("per_layer", "1", "102");
}

#[test]
fn traced_run_partitions_its_wall_time() {
    let (stdout, result) = smoke("wide-cohort", "103", "1", "none");
    assert!(stdout.contains("traced reports equal the untraced run by digest chain: yes"));
    let share = number(field(
        field(field(&result, "metrics"), "trace.unattributed_share"),
        "value",
    ));
    assert!((0.0..=0.10).contains(&share), "unattributed share {share}");
    let layers = repo_root().join(".bench_out/wide-cohort-seed103.layers.txt");
    assert!(layers.is_file(), "layer table written");
    let trace =
        std::fs::read_to_string(repo_root().join(".bench_out/wide-cohort-seed103.trace.json"))
            .expect("Chrome trace written");
    assert!(matches!(
        serde_json::parse_value_complete(&trace),
        Ok(Value::Array(_))
    ));
}

#[test]
fn a_tampered_digest_is_a_failure() {
    for (workload, trace) in [
        ("paper-combine", "0"),
        ("policy-sweep", "0"),
        ("wide-cohort", "1"),
    ] {
        let (stdout, result) = smoke(workload, "104", trace, "digest");
        assert!(!boolean(field(&result, "correct")), "{workload}: {stdout}");
    }
}

#[test]
fn a_failing_run_is_counted_and_not_measured() {
    for (workload, trace) in [
        ("paper-combine", "0"),
        ("policy-sweep", "0"),
        ("policy-sweep", "1"),
    ] {
        let (stdout, result) = smoke(workload, "105", trace, "panic");
        assert!(!boolean(field(&result, "correct")), "{workload}: {stdout}");
        assert!(
            number(field(&result, "failed")) >= 1.0,
            "{workload}: {stdout}"
        );
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "paper-combine", "--seed", "1", "--trace", "0"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
