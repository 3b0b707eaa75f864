//! The benchmark's own smoke test: every workload, traced and untraced,
//! prints every metric `BENCHMARK.json` declares with its unit, fails no
//! op and passes its digest checks (seed 42 has recorded digests).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! a debug build runs the pipeline roughly ten times slower.

use std::path::PathBuf;
use std::process::Command;

use serde::value::{get_field, Value};

const WORKLOADS: [&str; 4] = ["cold-zoo", "warm-grid", "served-mix", "fleet-grid"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let map = value.as_map().unwrap_or_else(|| panic!("expected a map around `{key}`"));
    get_field(map, key).unwrap_or_else(|| panic!("missing `{key}`"))
}

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    field(&benchmark, section)
        .as_seq()
        .expect("a metric list")
        .iter()
        .map(|metric| {
            let text = |key| field(metric, key).as_str().expect("a string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_dbpim-perfbench"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "1", "--trace", trace])
        .arg("--smoke")
        .current_dir(repo_root())
        .output()
        .expect("the benchmark runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn check(workload: &str, trace: &str, section: &str) {
    let result = smoke(workload, trace);
    assert!(matches!(field(&result, "correct"), Value::Bool(true)), "{workload}: {result:?}");
    assert!(matches!(field(&result, "failed"), Value::I64(0)), "{workload}: error rate is not 0");
    assert!(matches!(field(&result, "attempted"), Value::I64(n) if *n > 0));
    let metrics = field(&result, "metrics").as_map().expect("a metric map");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, metric)| {
            assert!(matches!(field(metric, "value"), Value::F64(_) | Value::I64(_)), "{name}");
            (name.clone(), field(metric, "unit").as_str().expect("a unit").to_string())
        })
        .collect();
    assert_eq!(printed, declared(section), "{workload} --trace {trace}");
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for workload in WORKLOADS {
        check(workload, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics() {
    for workload in WORKLOADS {
        check(workload, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--seed", "1"], &["--workload", "cold-zoo", "--trace", "2"]]
    {
        let output =
            Command::new(env!("CARGO_BIN_EXE_dbpim-perfbench")).args(args).output().expect("runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
