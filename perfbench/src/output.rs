//! What a run prints and writes: the manifest, the result line, and the
//! trace file of a traced run. The manifest and the result line are one
//! line each, which `serde_json`'s pretty printer cannot write, so they
//! are written here by hand.

use std::fmt::Write as _;

use serde::{Serialize, Value};

use crate::fabric;
use crate::host;
use crate::metrics::Metric;
use crate::outcome::fnv;
use crate::run::{Config, Report};
use crate::workloads::{Shape, DEFAULT_SEED, HELD_OUT_SEED};

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number. Non-finite values are reported as failures by the run,
/// and written as 0 so the line still parses.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn object(entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Where the run came from and what it ran on.
pub fn manifest(cfg: &Config, rep: &Report) -> Vec<(String, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let (executor, shards) = match rep.params.shape {
        Shape::Fabric { .. } => match fabric::executor() {
            raw_fabric::Executor::Sharded { shards } => ("sharded", shards),
            e => (e.name(), 0),
        },
        _ => ("single router", 0),
    };
    let mut m: Vec<(String, String)> = vec![
        ("workload".into(), cfg.workload.name().into()),
        ("why".into(), cfg.workload.why().into()),
        ("seed".into(), cfg.seed.to_string()),
        ("default_seed".into(), DEFAULT_SEED.to_string()),
        ("held_out_seed".into(), HELD_OUT_SEED.to_string()),
        ("short".into(), cfg.short.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), cfg.trace.to_string()),
        ("reps".into(), rep.reps.to_string()),
        ("traced_reps".into(), rep.traced_reps.to_string()),
    ];
    for (k, v) in rep.params.describe() {
        m.push((k.into(), v));
    }
    m.extend([
        (
            "engine".into(),
            format!("{:?}", raw_xbar::RouterConfig::default().raw.engine),
        ),
        ("executor".into(), executor.into()),
        ("shards".into(), shards.to_string()),
        ("nproc".into(), host::nproc().to_string()),
        (
            "host_mem_mb".into(),
            (host::mem_total_bytes() >> 20).to_string(),
        ),
        ("host_slowdown".into(), format!("{:.4}", rep.slowdown)),
        (
            "raw_host_mcycles_per_s".into(),
            format!("{:.4}", rep.raw_mcycles_per_s),
        ),
        ("raw_host_kpps".into(), format!("{:.4}", rep.raw_kpps)),
        ("git_revision".into(), env("PERFBENCH_GIT_REV")),
        ("rustc".into(), env("PERFBENCH_RUSTC")),
        (
            "fingerprint".into(),
            format!(
                "{:016x}",
                fnv(&rep
                    .outcomes
                    .iter()
                    .map(|o| o.fingerprint)
                    .collect::<Vec<_>>())
            ),
        ),
    ]);
    m
}

pub fn manifest_json(m: &[(String, String)]) -> String {
    let quoted: Vec<(String, String)> = m.iter().map(|(k, v)| (k.clone(), quote(v))).collect();
    object(&quoted)
}

/// The last line of standard output.
pub fn result_line(rep: &Report) -> String {
    let metrics: Vec<(String, String)> = rep
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    num(m.value),
                    quote(m.unit)
                ),
            )
        })
        .collect();
    object(&[
        ("correct".into(), rep.check.ok().to_string()),
        ("attempted".into(), rep.check.attempted.max(1).to_string()),
        ("failed".into(), rep.check.failed().to_string()),
        ("metrics".into(), object(&metrics)),
    ])
}

#[derive(Serialize)]
struct TraceFile {
    manifest: Value,
    metrics: Vec<Metric>,
    span_totals: Vec<SpanTotal>,
    spans: Vec<SpanOut>,
}

#[derive(Serialize)]
struct SpanTotal {
    name: &'static str,
    count: u64,
    total_ms: f64,
    self_ms: f64,
}

#[derive(Serialize)]
struct SpanOut {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

/// The trace file: manifest, metrics, every span with its self time,
/// and the spans totalled by name.
pub fn trace_file(manifest: &[(String, String)], rep: &Report) -> String {
    let t = &rep.tracer;
    let mut spans = Vec::new();
    let mut span_totals: Vec<SpanTotal> = Vec::new();
    for (s, self_ns) in t.spans().iter().zip(t.self_ns()) {
        spans.push(SpanOut {
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            self_ns,
        });
        let (total_ms, self_ms) = (s.dur_ns() as f64 / 1e6, self_ns as f64 / 1e6);
        match span_totals.iter_mut().find(|e| e.name == s.name) {
            Some(e) => {
                e.count += 1;
                e.total_ms += total_ms;
                e.self_ms += self_ms;
            }
            None => span_totals.push(SpanTotal {
                name: s.name,
                count: 1,
                total_ms,
                self_ms,
            }),
        }
    }
    let file = TraceFile {
        manifest: Value::Object(
            manifest
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect(),
        ),
        metrics: rep.metrics.clone(),
        span_totals,
        spans,
    };
    let mut text = serde_json::to_string_pretty(&file).expect("the trace file serializes");
    text.push('\n');
    text
}
