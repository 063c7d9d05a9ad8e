//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two equal.

use raw_telemetry::TileState;
use serde::Serialize;

use crate::outcome::Layers;
use crate::router::ROLES;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 11] = [
    ("sim_gbps", "Gbps"),
    ("sim_mpps", "Mpps"),
    ("sim_gbps_vs_paper", "ratio"),
    ("sim_latency_p50_cycles", "cycles"),
    ("sim_latency_p999_cycles", "cycles"),
    ("sim_fct_p99_cycles", "cycles"),
    ("host_mcycles_per_s", "Mcycles/s"),
    ("host_kpps", "kpps"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("delivered_frac", "frac"),
];

/// Per-layer metrics that are the per-repetition total of one span
/// name, reported as the median over traced repetitions.
pub const SPAN_METRICS: [(&str, &str); 9] = [
    ("workloads.generate_s", "workloads.generate"),
    ("xbar.build_s", "xbar.build"),
    ("xbar.offer_s", "xbar.offer"),
    ("lookup.build_s", "lookup.build"),
    ("fib.synthesize_s", "fib.synthesize"),
    ("fib.assign_s", "fib.assign"),
    ("fabric.build_s", "fabric.build"),
    ("fabric.offer_s", "fabric.offer"),
    ("verify.fabric_s", "verify.fabric"),
];

/// Per-layer metrics, printed by a traced run, in print order.
pub fn per_layer_defs() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("workloads.generate_s", "s");
    add("workloads.packets", "count");
    add("xbar.build_s", "s");
    add("xbar.offer_s", "s");
    for stage in [
        "ingress",
        "lookup",
        "xbar_wait",
        "egress_launch",
        "serialize",
    ] {
        for q in ["p50", "p99"] {
            add(&format!("xbar.stage.{stage}.{q}"), "cycles");
        }
    }
    add("xbar.active_quanta_frac", "frac");
    add("xbar.grants", "count");
    add("xbar.input_backlog_max", "packets");
    for (role, _) in ROLES {
        for s in TileState::ALL {
            add(&format!("tile.{role}.{}_frac", s.name()), "frac");
        }
    }
    add("lookup.build_s", "s");
    add("lookup.table_bytes", "bytes");
    add("lookup.lookups", "count");
    add("lookup.l2_frac", "frac");
    add("lookup.mem_stall_cycles", "cycles");
    add("fib.synthesize_s", "s");
    add("fib.assign_s", "s");
    add("fib.flows", "count");
    add("fib.sim_flows", "count");
    add("sim.run_s", "s");
    add("sim.host_ns_per_cycle", "ns/cycle");
    add("sim.chunk_ms.p50", "ms");
    add("sim.chunk_ms.p99", "ms");
    add("sim.cache_miss_frac", "frac");
    add("fabric.build_s", "s");
    add("fabric.offer_s", "s");
    add("fabric.rss_build_mb", "MB");
    add("fabric.bytes_per_router", "bytes");
    add("fabric.epoch_ms.p50", "ms");
    add("fabric.epoch_ms.p99", "ms");
    add("fabric.epochs", "count");
    add("fabric.backpressure_epochs", "count");
    add("fabric.link_max_occupancy", "packets");
    add("fabric.total_latency_p99", "cycles");
    add("verify.fabric_s", "s");
    add("telemetry.overhead_frac", "frac");
    add("telemetry.conservation_violations", "count");
    v
}

#[derive(Clone, Debug, Serialize)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    /// An end-to-end metric; its unit comes from [`END_TO_END`].
    pub fn new(name: &str, value: f64) -> Metric {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("end-to-end metric is catalogued");
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Every per-layer metric in catalogue order. A layer the workload does
/// not run reads 0.
pub fn per_layer(l: &Layers) -> Vec<Metric> {
    per_layer_defs()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: l.get(&name).unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile (0 for an empty sample).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = per_layer_defs().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
