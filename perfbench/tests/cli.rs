//! The command line: one JSON result line last, the exit code, and the
//! trace file.

use std::process::Command;

use serde::{Deserialize, Value};

fn perfbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("perfbench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

/// The value of `metric` in a result line.
fn value(line: &str, metric: &str) -> f64 {
    let result: Value = serde_json::from_str(line).expect("the result line is JSON");
    let m = result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .unwrap_or_else(|| panic!("{metric} missing"));
    f64::from_value(m.get("value").expect("a value")).expect("a number")
}

#[test]
fn result_line_is_last_and_exit_code_is_zero() {
    let (ok, out) = perfbench(&["--workload", "peak64", "--seconds", "0", "--seed", "3"]);
    assert!(ok, "{out}");
    let last = out.lines().last().expect("output");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{last}");
    assert!(matches!(result.get("attempted"), Some(Value::UInt(n)) if *n > 0));
    assert!(out.contains("manifest {\"workload\": \"peak64\""));
    assert!(value(last, "setup_s") > 0.0);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let (ok, out) = perfbench(&["--workload", "nonesuch"]);
    assert!(!ok);
    assert!(out.is_empty());
}

/// The fabric build's memory shows in a process of its own, and the
/// traced run writes its spans.
#[test]
fn traced_clos64_reports_its_build_memory_and_writes_spans() {
    let (ok, out) = perfbench(&["--workload", "clos64", "--seconds", "0", "--trace", "1"]);
    assert!(ok, "{out}");
    let last = out.lines().last().expect("output");
    assert!(value(last, "fabric.rss_build_mb") > 500.0, "{last}");
    assert!(value(last, "fabric.bytes_per_router") > 1e6, "{last}");
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("clos64-seed1-trace.json");
    let text = std::fs::read_to_string(trace).expect("trace file written");
    let file: TraceFile = serde_json::from_str(&text).expect("the trace file is JSON");
    assert_eq!(
        file.manifest.get("workload"),
        Some(&Value::Str("clos64".into()))
    );
    assert!(file.metrics.iter().any(|m| m.name == "fabric.rss_build_mb"));
    assert!(file.span_totals.iter().any(|t| t.name == "fabric.epoch"));
    for s in &file.spans {
        assert!(s.self_ns <= s.end_ns - s.start_ns, "span {}", s.id);
    }
}

#[derive(Deserialize)]
struct TraceFile {
    manifest: Value,
    metrics: Vec<Named>,
    span_totals: Vec<Named>,
    spans: Vec<Span>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Span {
    id: usize,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}
