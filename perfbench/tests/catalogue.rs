//! BENCHMARK.json names exactly the workloads and metrics the harness
//! prints, with the same units.

use perfbench::metrics::{per_layer_defs, END_TO_END};
use perfbench::workloads::Workload;
use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Listed>,
    end_to_end: Vec<Catalogued>,
    per_layer: Vec<Catalogued>,
}

#[derive(Deserialize)]
struct Listed {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Catalogued {
    name: String,
    unit: String,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Each metric's name and unit.
fn listed(v: &[Catalogued]) -> Vec<(String, String)> {
    v.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    let workloads: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert!(b.workloads.iter().all(|w| !w.why.is_empty()));
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&b.end_to_end), e2e);
    let layers: Vec<(String, String)> = per_layer_defs()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&b.per_layer), layers);
}
