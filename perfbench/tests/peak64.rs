mod common;

use common::{exercise, metric};
use perfbench::workloads::Workload;
use serde::Deserialize;

/// `x` to three significant digits.
fn sig3(x: f64) -> String {
    let decimals = (2 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

#[derive(Deserialize)]
struct Point {
    bytes: usize,
    gbps: f64,
}

/// The 64 B peak point the `repro` experiment published.
fn published_peak64_gbps() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig7_1_peak.json");
    let text = std::fs::read_to_string(path).expect("results/fig7_1_peak.json");
    let points: Vec<Point> = serde_json::from_str(&text).expect("results/fig7_1_peak.json parses");
    points
        .iter()
        .find(|p| p.bytes == 64)
        .expect("a 64 B point")
        .gbps
}

#[test]
fn peak64_reproduces_figure_7_1_and_is_deterministic() {
    let (e2e, traced) = exercise(Workload::Peak64, 1);
    let gbps = metric(&e2e, "sim_gbps");
    assert_eq!(sig3(gbps), sig3(published_peak64_gbps()));
    assert_eq!(sig3(gbps), "5.39");
    assert!((metric(&e2e, "sim_gbps_vs_paper") - gbps / 7.3).abs() < 1e-12);
    // Saturated: every tile of the permutation is busy or waiting on it.
    assert!(metric(&traced, "xbar.active_quanta_frac") > 0.0);
    assert_eq!(metric(&traced, "lookup.mem_stall_cycles"), 0.0);
    assert_eq!(metric(&traced, "fabric.epochs"), 0.0);
}
