//! Simulator-performance measurement (`repro -- simspeed`).
//!
//! Times representative workloads under both engine modes — per-cycle
//! (skipping off) and event-skip — and reports simulated Mcycles per
//! wall-clock second. Each scenario also produces a result fingerprint
//! so the table doubles as a determinism check: a speedup is only
//! admissible if both modes computed the same thing.
//!
//! Scenarios:
//! - `router-peak-64B` / `router-peak-1024B`: the Figure 7-1 peak
//!   pipeline at saturation. Line cards offer a word every cycle, so
//!   event-skip never engages — these rows time the busy-cycle step
//!   itself.
//! - `router-avg-64B` / `router-avg-1024B`: the Figure 7-1 "average"
//!   corner (uniform random destinations instead of the peak
//!   permutation), where contention stalls reshape the hot path.
//! - `drip-feed`: a 4-hop static-network pipe throttled by a
//!   rate-limited sink, quiet most cycles — these rows isolate the skip.
//! - `idle-fabric`: a fully idle machine, the skip's upper bound.
//!
//! Every (scenario, engine) cell is timed `repeats` times and the
//! median wall time is reported, because single runs on shared machines
//! jitter by ±10% — enough to fake or hide a 1.3× effect.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use raw_sim::{
    Dir, EdgePort, EngineMode, RawConfig, RawMachine, Route, SwPort, SwitchCtrl, SwitchInstr,
    SwitchProgram, WordSink, WordSource, NET0,
};
use raw_workloads::{generate, Workload};
use raw_xbar::{RawRouter, RouterConfig};

use crate::experiment_table;

/// The engine sweep order; per-cycle first so the speedup denominator
/// precedes it in the table.
pub const ENGINES: [EngineMode; 2] = [EngineMode::PerCycle, EngineMode::EventSkip];

/// Stable engine label used in reports and JSON.
pub fn engine_name(e: EngineMode) -> &'static str {
    match e {
        EngineMode::PerCycle => "per-cycle",
        EngineMode::EventSkip => "event-skip",
    }
}

/// One timed cell: one scenario under one engine (median of `repeats`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedRow {
    pub scenario: String,
    pub engine: String,
    /// Simulated cycles executed.
    pub sim_cycles: u64,
    /// Median wall time across repeats.
    pub wall_ms: f64,
    /// Simulated megacycles per wall-clock second (the unit every
    /// consumer of this table uses, including the criterion group).
    pub mcycles_per_sec: f64,
    /// Scenario-defined digest of the simulation's observable results;
    /// must match across engine modes.
    pub fingerprint: String,
}

/// The full `simspeed` report: the engine × scenario matrix plus
/// per-scenario speedup summaries.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedReport {
    /// Cycles simulated per router scenario (`1x` = the default span).
    pub router_cycles: u64,
    /// Timing repeats behind each median.
    pub repeats: u32,
    pub rows: Vec<SpeedRow>,
    pub speedups: Vec<ScenarioSpeedup>,
}

/// Per-scenario speedup, a ratio of median wall times.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioSpeedup {
    pub scenario: String,
    /// wall(per-cycle) / wall(event-skip).
    pub event_skip_vs_per_cycle: f64,
    pub fingerprints_match: bool,
}

/// Time `body` `repeats` times; return (cycles, median wall ms, fp).
/// The fingerprint must be identical across repeats (deterministic
/// simulation), which is asserted.
fn time_run(repeats: u32, mut body: impl FnMut() -> (u64, String)) -> (u64, f64, String) {
    let mut walls = Vec::with_capacity(repeats as usize);
    let mut out: Option<(u64, String)> = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let (cycles, fp) = body();
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some((c0, fp0)) = &out {
            assert_eq!(
                (*c0, fp0.as_str()),
                (cycles, fp.as_str()),
                "nondeterministic run"
            );
        } else {
            out = Some((cycles, fp));
        }
    }
    walls.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = walls[walls.len() / 2];
    let (cycles, fp) = out.unwrap();
    (cycles, median, fp)
}

fn router_scenario(w: &Workload, span: u64, engine: EngineMode) -> (u64, String) {
    let quantum = w.packet_bytes / 4;
    let mut cfg = RouterConfig {
        quantum_words: quantum,
        cut_through: true,
        ..RouterConfig::default()
    };
    cfg.raw.engine = engine;
    let mut r = RawRouter::new(cfg, experiment_table());
    for sp in generate(w) {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    r.run(span);
    let warm = (span / 10).min(20_000);
    let fp = format!(
        "delivered={} gbps={:.6} mpps={:.6} errors={}",
        r.delivered_count(),
        r.throughput_gbps(warm, span),
        r.pps(warm, span) / 1e6,
        r.parse_errors()
    );
    (span, fp)
}

/// A word source feeding a straight 4-hop pipe across the top row into a
/// sink that accepts one word every `interval` cycles: the machine is
/// provably quiet between accept windows, so almost every cycle is
/// skippable.
fn drip_scenario(words: u32, interval: u64, engine: EngineMode) -> (u64, String) {
    let cfg = RawConfig {
        engine,
        ..RawConfig::default()
    };
    let dim = cfg.dim;
    let mut m = RawMachine::new(cfg);
    let forward = SwitchProgram::new(vec![SwitchInstr::new(
        vec![Route::new(
            NET0,
            SwPort::from_dir(Dir::West),
            SwPort::from_dir(Dir::East),
        )],
        SwitchCtrl::Jump(0),
    )]);
    for c in 0..dim.cols {
        m.set_switch_program(dim.tile(0, c), NET0, forward.clone());
    }
    m.bind_device(
        EdgePort::new(dim.tile(0, 0), Dir::West, NET0),
        Box::new(WordSource::new(0..words)),
    );
    let (sink, collected) = WordSink::rate_limited(interval);
    m.bind_device(
        EdgePort::new(dim.tile(0, dim.cols - 1), Dir::East, NET0),
        Box::new(sink),
    );
    let span = (words as u64 + 16) * interval;
    m.run(span);
    let got = collected.lock().unwrap();
    let digest = got.iter().fold(0u64, |acc, &(cyc, w)| {
        acc.wrapping_mul(0x100000001b3).wrapping_add(cyc ^ w as u64)
    });
    (span, format!("delivered={} digest={digest:#x}", got.len()))
}

/// One drip-feed run, exposed for the `sim_speed` micro-benchmarks.
pub fn simspeed_drip_once(words: u32, interval: u64, engine: EngineMode) -> (u64, String) {
    drip_scenario(words, interval, engine)
}

/// A machine with no programs, no devices, nothing to do.
fn idle_scenario(span: u64, engine: EngineMode) -> (u64, String) {
    let cfg = RawConfig {
        engine,
        ..RawConfig::default()
    };
    let mut m = RawMachine::new(cfg);
    m.run(span);
    let idle: u64 = (0..m.last_activities().len())
        .map(|t| m.stats(raw_sim::TileId(t as u16)).counts[0])
        .sum();
    (span, format!("cycle={} idle_cycles={idle}", m.cycle()))
}

type Scenario = (String, Box<dyn Fn(EngineMode) -> (u64, String)>);

/// Run every scenario under both engine modes. `router_cycles` scales the
/// router scenarios (the CI smoke test passes a small span; the default
/// matches the Figure 7-1 measurement run). `repeats` runs behind each
/// median — use 1 for smoke, 3+ for reportable numbers.
pub fn simspeed_with(router_cycles: u64, repeats: u32) -> SpeedReport {
    let drip_words = (router_cycles / 64).clamp(64, 4_000) as u32;
    let peak_packets = move |bytes: usize| ((router_cycles as usize) / (bytes / 4)).clamp(64, 8000);
    let scenarios: Vec<Scenario> = vec![
        (
            "router-peak-64B".into(),
            Box::new(move |e| {
                router_scenario(&Workload::peak(64, peak_packets(64)), router_cycles, e)
            }),
        ),
        (
            "router-peak-1024B".into(),
            Box::new(move |e| {
                router_scenario(&Workload::peak(1024, peak_packets(1024)), router_cycles, e)
            }),
        ),
        (
            "router-avg-64B".into(),
            Box::new(move |e| {
                router_scenario(
                    &Workload::average(64, peak_packets(64) / 2, 7),
                    router_cycles,
                    e,
                )
            }),
        ),
        (
            "router-avg-1024B".into(),
            Box::new(move |e| {
                router_scenario(
                    &Workload::average(1024, peak_packets(1024) / 2, 7),
                    router_cycles,
                    e,
                )
            }),
        ),
        (
            "drip-feed".into(),
            Box::new(move |e| drip_scenario(drip_words, 64, e)),
        ),
        (
            "idle-fabric".into(),
            Box::new(move |e| idle_scenario(router_cycles.max(1_000_000), e)),
        ),
    ];

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, run) in &scenarios {
        let mut cells = Vec::new();
        for engine in ENGINES {
            let (cycles, wall_ms, fingerprint) = time_run(repeats, || run(engine));
            cells.push(SpeedRow {
                scenario: name.clone(),
                engine: engine_name(engine).into(),
                sim_cycles: cycles,
                wall_ms,
                mcycles_per_sec: cycles as f64 / (wall_ms / 1e3) / 1e6,
                fingerprint,
            });
        }
        let (pc, es) = (&cells[0], &cells[1]);
        speedups.push(ScenarioSpeedup {
            scenario: name.clone(),
            event_skip_vs_per_cycle: pc.wall_ms / es.wall_ms,
            fingerprints_match: pc.fingerprint == es.fingerprint,
        });
        rows.extend(cells);
    }
    SpeedReport {
        router_cycles,
        repeats,
        rows,
        speedups,
    }
}

/// [`simspeed_with`] at single-shot timing (CI smoke and tests).
pub fn simspeed(router_cycles: u64) -> SpeedReport {
    simspeed_with(router_cycles, 1)
}

/// One scenario line of the CI-diffable `BENCH_simspeed.json` digest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchScenario {
    pub scenario: String,
    pub per_cycle_mcps: f64,
    pub event_skip_mcps: f64,
    pub event_skip_vs_per_cycle: f64,
    pub fingerprints_match: bool,
}

/// The digest written to `BENCH_simspeed.json` at the repo root:
/// per-scenario Mcycles/s per engine mode plus the speedup, rounded
/// to two decimals, with no raw wall times.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchDigest {
    pub router_cycles: u64,
    pub repeats: u32,
    pub scenarios: Vec<BenchScenario>,
}

pub fn bench_digest(rep: &SpeedReport) -> BenchDigest {
    let round2 = |x: f64| crate::report::round_to(x, 2);
    let mcps = |scenario: &str, engine: &str| {
        rep.rows
            .iter()
            .find(|r| r.scenario == scenario && r.engine == engine)
            .map(|r| round2(r.mcycles_per_sec))
            .unwrap_or(0.0)
    };
    BenchDigest {
        router_cycles: rep.router_cycles,
        repeats: rep.repeats,
        scenarios: rep
            .speedups
            .iter()
            .map(|s| BenchScenario {
                scenario: s.scenario.clone(),
                per_cycle_mcps: mcps(&s.scenario, "per-cycle"),
                event_skip_mcps: mcps(&s.scenario, "event-skip"),
                event_skip_vs_per_cycle: round2(s.event_skip_vs_per_cycle),
                fingerprints_match: s.fingerprints_match,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_every_scenario() {
        let rep = simspeed(20_000);
        for s in &rep.speedups {
            assert!(
                s.fingerprints_match,
                "{}: engine modes diverged on observable results",
                s.scenario
            );
        }
        // 6 scenarios × 2 engine modes.
        assert_eq!(rep.rows.len(), 12);
        assert!(rep.rows.iter().all(|r| r.mcycles_per_sec > 0.0));
    }

    #[test]
    fn drip_feed_skips_most_cycles() {
        // The throttled pipe must produce identical deliveries in both
        // modes (the digest covers cycle stamps, not just values).
        let (c1, fp1) = drip_scenario(256, 64, EngineMode::EventSkip);
        let (c2, fp2) = drip_scenario(256, 64, EngineMode::PerCycle);
        assert_eq!(c1, c2);
        assert_eq!(fp1, fp2);
        assert!(fp1.contains("delivered=256"));
    }
}
