//! Shared checks of the per-workload tests: each runs a short version
//! of its workload untraced twice and traced once.

use perfbench::metrics::{per_layer_defs, END_TO_END};
use perfbench::run::{run, Config, Report};
use perfbench::workloads::Workload;

pub fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        short: true,
    }
}

/// Every metric is printed with its catalogue unit, every check passes,
/// repeats of one seed agree exactly, and tracing perturbs nothing.
/// Returns the untraced and the traced report.
pub fn exercise(workload: Workload, seed: u64) -> (Report, Report) {
    let a = run(&config(workload, seed, false));
    assert!(a.check.ok(), "checks failed: {:?}", a.check.describe());
    // The gate checked the first repetition of every draw.
    let offered: u64 = a.outcomes.iter().map(|o| o.offered).sum();
    assert_eq!(a.check.attempted, offered);
    let printed: Vec<(&str, &str)> = a
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(printed, END_TO_END.to_vec());
    for m in &a.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }

    let b = run(&config(workload, seed, false));
    assert!(b.check.ok(), "checks failed: {:?}", b.check.describe());
    assert_eq!(
        a.outcomes, b.outcomes,
        "same seed, different simulated result"
    );
    for (x, y) in a.metrics.iter().zip(&b.metrics) {
        if x.name.starts_with("sim_") || x.name == "delivered_frac" {
            assert_eq!(
                x.value, y.value,
                "{} differs between runs of one seed",
                x.name
            );
        }
    }

    let t = run(&config(workload, seed, true));
    assert!(
        t.check.ok(),
        "traced checks failed: {:?}",
        t.check.describe()
    );
    assert_eq!(
        t.outcomes[0], a.outcomes[0],
        "tracing changed the simulated result"
    );
    let printed: Vec<(String, &str)> = t.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(printed, per_layer_defs());
    for m in &t.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert!(t.traced_reps >= 2);
    let layer = |name: &str| t.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(layer("telemetry.conservation_violations"), 0.0);
    assert!(layer("sim.run_s") > 0.0);
    assert!(layer("workloads.generate_s") > 0.0);
    assert!(layer("workloads.packets") > 0.0);
    // Every span closed inside its parent.
    let spans = t.tracer.spans();
    assert!(!spans.is_empty());
    for s in spans {
        assert!(s.end_ns >= s.start_ns);
        if let Some(p) = s.parent {
            assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
        }
    }
    (a, t)
}

/// The value of metric `name` in `r`.
pub fn metric(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not printed"))
        .value
}
