//! The §8.5 composition experiment: aggregate switching bandwidth of
//! multi-router Clos fabrics versus a single 4-port router and versus
//! the ring the paper rejects.
//!
//! Sweeps router count (1 / 6 / 12 via [`Topology`]), epoch size, and
//! spray mode on saturated fabric-uniform traffic. Every cell runs
//! twice — threaded executor and single-threaded reference — and the
//! two fingerprints must agree bit-for-bit; the report then sets the
//! ring-vs-Clos scaling story side by side using the
//! [`raw_xbar::ScalingCurve`] ring model.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use raw_fabric::{Executor, FabricConfig, FabricSummary, RawFabric, SprayMode, Topology};
use raw_workloads::{generate_n, Arrivals, Pattern, Workload};
use raw_xbar::ScalingCurve;

/// One sweep cell: a (topology, spray, epoch) point, run on both
/// executors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricCell {
    pub topology: String,
    pub spray: String,
    pub epoch_cycles: u64,
    pub routers: usize,
    pub ext_ports: usize,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub epochs: u64,
    pub cycles: u64,
    /// Aggregate delivered rate over the whole drained run.
    pub mpps: f64,
    pub gbps: f64,
    pub backpressure_epochs: u64,
    pub fingerprint: String,
    /// Threaded and single-threaded reference fingerprints agree.
    pub fingerprints_match: bool,
}

/// Ring versus Clos at the same external port count. `ring_norm` and
/// `fabric_norm` are per-port throughputs normalized to each model's
/// 4-port baseline; `fabric_speedup` is the raw aggregate-Mpps ratio
/// over the single router.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RingVsClosRow {
    pub ports: usize,
    pub ring_norm: f64,
    pub fabric_norm: f64,
    pub fabric_mpps: f64,
    pub fabric_speedup: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricReport {
    pub packet_bytes: usize,
    pub packets_per_port: usize,
    pub cells: Vec<FabricCell>,
    /// Best aggregate Mpps of the single router across its cells.
    pub single4_mpps: f64,
    /// Best aggregate Mpps of the 16-port Clos across its cells.
    pub clos16_mpps: f64,
    /// The headline: 16-port Clos over single 4-port router.
    pub clos_over_single: f64,
    pub all_fingerprints_match: bool,
    pub ring_curve: ScalingCurve,
    pub ring_vs_clos: Vec<RingVsClosRow>,
    /// Full telemetry summary (per-link stats, per-stage latency) of
    /// the best Clos16 cell.
    pub best_clos: FabricSummary,
    /// Executor scaling curve: 4 -> 256 ports, reference vs threaded vs
    /// sharded coordinators, fingerprint-verified per point.
    pub scaling: ScalingReport,
}

const EPOCH_SWEEP: [u64; 3] = [128, 512, 2048];
const PACKET_BYTES: usize = 64;

fn run_once(cfg: FabricConfig, w: &Workload, threaded: bool) -> RawFabric {
    let nports = cfg.topology.ext_ports();
    let mut fab = RawFabric::try_new(cfg).expect("valid fabric config");
    for s in generate_n(w, nports) {
        fab.offer(s.port, s.release, &s.packet);
    }
    assert!(
        fab.run_until_drained(500_000, threaded),
        "fabric wedged: {:?} delivered {}/{}",
        fab.summary().topology,
        fab.delivered_count(),
        fab.offered()
    );
    let errs = fab.conservation_errors();
    assert!(errs.is_empty(), "conservation violated: {errs:?}");
    fab
}

fn run_cell(
    topology: Topology,
    spray: SprayMode,
    epoch_cycles: u64,
    packets_per_port: usize,
) -> (FabricCell, FabricSummary) {
    let cfg = FabricConfig {
        topology,
        epoch_cycles,
        spray,
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: PACKET_BYTES,
        packets_per_port,
        seed: 42,
        ttl: 64,
    };
    let reference = run_once(cfg.clone(), &w, false);
    let threaded = run_once(cfg, &w, true);
    let summary = threaded.summary();
    let cycles = threaded.cycle();
    let cell = FabricCell {
        topology: topology.name().into(),
        spray: spray.name().into(),
        epoch_cycles,
        routers: topology.routers(),
        ext_ports: topology.ext_ports(),
        offered: threaded.offered(),
        delivered: threaded.delivered_count(),
        dropped: threaded.dropped_count(),
        epochs: threaded.epochs_run(),
        cycles,
        mpps: threaded.mpps(0, cycles),
        gbps: threaded.gbps(0, cycles),
        backpressure_epochs: summary.backpressure_epochs,
        fingerprint: format!("{:016x}", threaded.fingerprint()),
        fingerprints_match: reference.fingerprint() == threaded.fingerprint(),
    };
    (cell, summary)
}

/// The full sweep. `packets_per_port` sets the run length; the
/// boundary-pipeline fill (a few epochs) is amortized only when the
/// injection phase dwarfs it, so the aggregate-bandwidth headline wants
/// hundreds of packets per port (the `--smoke` mode trades that
/// fidelity for speed).
pub fn fabric_study(packets_per_port: usize) -> FabricReport {
    let mut cells = Vec::new();
    let mut best: Option<(f64, FabricSummary)> = None;
    for topology in [Topology::Single4, Topology::Folded8, Topology::Clos16] {
        for spray in [SprayMode::Hash, SprayMode::LeastOccupancy] {
            for epoch_cycles in EPOCH_SWEEP {
                let (cell, summary) = run_cell(topology, spray, epoch_cycles, packets_per_port);
                if topology == Topology::Clos16 && best.as_ref().is_none_or(|(m, _)| cell.mpps > *m)
                {
                    best = Some((cell.mpps, summary));
                }
                cells.push(cell);
            }
        }
    }
    let best_of = |name: &str| {
        cells
            .iter()
            .filter(|c| c.topology == name)
            .map(|c| c.mpps)
            .fold(0.0f64, f64::max)
    };
    let (single4_mpps, folded8_mpps, clos16_mpps) =
        (best_of("single4"), best_of("folded8"), best_of("clos16"));
    let ring_curve = ScalingCurve::measure(&[4, 8, 16], 30_000, 5);
    let ring4 = ring_curve.ring_at(4).expect("4-port ring point");
    let per_port4 = single4_mpps / 4.0;
    let ring_vs_clos = [(4usize, single4_mpps), (8, folded8_mpps), (16, clos16_mpps)]
        .iter()
        .map(|&(ports, mpps)| RingVsClosRow {
            ports,
            ring_norm: ring_curve.ring_at(ports).expect("ring point") / ring4,
            fabric_norm: (mpps / ports as f64) / per_port4,
            fabric_mpps: mpps,
            fabric_speedup: mpps / single4_mpps,
        })
        .collect();
    let (_, best_clos) = best.expect("Clos16 cells exist");
    let scaling = executor_scaling(packets_per_port);
    FabricReport {
        packet_bytes: PACKET_BYTES,
        packets_per_port,
        all_fingerprints_match: cells.iter().all(|c| c.fingerprints_match)
            && scaling.all_fingerprints_match,
        single4_mpps,
        clos16_mpps,
        clos_over_single: clos16_mpps / single4_mpps,
        cells,
        ring_curve,
        ring_vs_clos,
        best_clos,
        scaling,
    }
}

/// One point of the executor scaling curve: a topology drained on one
/// executor. `sim_mpps` (simulated-time throughput) is bit-identical
/// across executors — the executors race on *wall clock*, which is what
/// `wall_mpps` (delivered packets per wall second) measures.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingPoint {
    pub topology: String,
    pub routers: usize,
    pub ext_ports: usize,
    pub executor: String,
    /// Shard count (sharded executor only; 0 otherwise).
    pub shards: usize,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub epochs: u64,
    /// Aggregate simulated throughput over the drained run.
    pub sim_mpps: f64,
    /// Per external port — the flat line that says the fabric scales.
    pub sim_mpps_per_port: f64,
    pub wall_ms: f64,
    /// Delivered packets per wall second, in millions.
    pub wall_mpps: f64,
    pub fingerprint: String,
    pub matches_reference: bool,
    /// Peak resident memory over this point's runs, in MB: `VmHWM`,
    /// restarted before the point where the kernel allows it.
    pub peak_rss_mb: f64,
    /// Resident memory the point's first `RawFabric::try_new` added,
    /// per router. The heap's free pages go back to the kernel first
    /// (glibc only), so reuse of an earlier point's memory does not
    /// hide the build's cost.
    pub bytes_per_router: f64,
}

/// The executor scaling curve (`repro -- fabric` publishes this inside
/// `results/fabric.json` and as the `BENCH_fabric.json` digest):
/// every topology from the single router to the 7-stage 256-port Clos,
/// each drained on all three executors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingReport {
    /// Shard count used for the sharded points (the machine's available
    /// parallelism, capped by each fabric's router count).
    pub shards: usize,
    pub points: Vec<ScalingPoint>,
    /// Wall-throughput ratio, sharded over per-router threaded, at the
    /// 64-port Clos — the headline the sharding refactor must win.
    pub clos64_sharded_over_threaded: f64,
    pub clos256_sharded_over_threaded: f64,
    pub all_fingerprints_match: bool,
    /// Peak resident memory of the process up to the end of the sweep,
    /// in MB: the larger of the peak before the sweep and every point's
    /// peak. 0 where `/proc/self/status` cannot be read.
    pub peak_rss_mb: f64,
}

/// A memory field of `/proc/self/status`, in bytes (Linux only).
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident memory (`VmHWM`) of this process since it started or
/// since the last [`reset_peak_rss`].
fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM")
}

fn rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS")
}

/// Restart the `VmHWM` high-water mark at the current resident size
/// (Linux `clear_refs` code 5). Where the kernel refuses, the mark keeps
/// counting from process start, so later readings can only overstate.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand the allocator's free heap pages back to the kernel, so that
/// resident memory grows next only by what is allocated next rather
/// than staying flat while freed memory is reused.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers; it only returns
    // free pages of the process heap to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere freed memory stays resident, and builds after a larger
/// one can read low.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Run one topology to drain on one executor, timed. `repeats` re-runs
/// the (deterministic) simulation and keeps the *minimum* wall time —
/// the standard way to strip scheduler noise from a wall-clock race.
fn scaling_point(
    topology: Topology,
    exec: Executor,
    packets_per_port: usize,
    repeats: u32,
    reference_fp: Option<u64>,
) -> (ScalingPoint, u64) {
    let cfg = FabricConfig {
        topology,
        epoch_cycles: 512,
        spray: SprayMode::Hash,
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: PACKET_BYTES,
        packets_per_port,
        seed: 42,
        ttl: 64,
    };
    let nports = topology.ext_ports();
    let mut best_wall = f64::MAX;
    let mut fab = None;
    let mut build_bytes = None;
    release_free_heap();
    reset_peak_rss();
    for _ in 0..repeats.max(1) {
        let rss_before = rss_bytes();
        let mut f = RawFabric::try_new(cfg.clone()).expect("valid fabric config");
        if build_bytes.is_none() {
            build_bytes = rss_bytes()
                .zip(rss_before)
                .map(|(after, before)| after.saturating_sub(before));
        }
        for s in generate_n(&w, nports) {
            f.offer(s.port, s.release, &s.packet);
        }
        let start = Instant::now();
        assert!(
            f.run_until_drained_with(500_000, exec),
            "{} wedged on {}",
            topology.name(),
            exec.name()
        );
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        fab = Some(f);
    }
    let fab = fab.expect("at least one repeat");
    let errs = fab.conservation_errors();
    assert!(errs.is_empty(), "conservation violated: {errs:?}");
    let fp = fab.fingerprint();
    let cycles = fab.cycle();
    let sim_mpps = fab.mpps(0, cycles);
    let wall_secs = best_wall.max(1e-9);
    let shards = match exec {
        Executor::Sharded { shards } => shards,
        _ => 0,
    };
    let point = ScalingPoint {
        topology: topology.name().into(),
        routers: topology.routers(),
        ext_ports: nports,
        executor: exec.name().into(),
        shards,
        offered: fab.offered(),
        delivered: fab.delivered_count(),
        dropped: fab.dropped_count(),
        epochs: fab.epochs_run(),
        sim_mpps,
        sim_mpps_per_port: sim_mpps / nports as f64,
        wall_ms: wall_secs * 1e3,
        wall_mpps: fab.delivered_count() as f64 / wall_secs / 1e6,
        fingerprint: format!("{fp:016x}"),
        matches_reference: reference_fp.is_none_or(|r| r == fp),
        peak_rss_mb: mb(peak_rss_bytes().unwrap_or(0)),
        bytes_per_router: build_bytes.unwrap_or(0) as f64 / topology.routers() as f64,
    };
    (point, fp)
}

/// The full scaling sweep: 4 -> 256 external ports, reference vs
/// per-router threaded vs sharded coordinators. `packets_per_port` is
/// scaled down on the big fabrics to keep total packet volume (and
/// wall time) bounded — per-point sim throughput is unaffected because
/// the run is saturated either way.
pub fn executor_scaling(packets_per_port: usize) -> ScalingReport {
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Long (non-smoke) sweeps afford a second timing repeat per point;
    // `scaling_point` keeps the faster of the two.
    let repeats = if packets_per_port >= 500 { 2 } else { 1 };
    // Each point restarts the high-water mark; keep what came before.
    let peak_before = mb(peak_rss_bytes().unwrap_or(0));
    let mut points = Vec::new();
    for topology in [
        Topology::Single4,
        Topology::Folded8,
        Topology::Clos16,
        Topology::Clos64,
        Topology::Clos256,
    ] {
        let ppp = match topology.routers() {
            r if r >= 400 => (packets_per_port / 8).max(24),
            r if r >= 80 => (packets_per_port / 4).max(30),
            _ => packets_per_port,
        };
        let (reference, ref_fp) = scaling_point(topology, Executor::Reference, ppp, repeats, None);
        points.push(reference);
        let (threaded, _) = scaling_point(topology, Executor::Threaded, ppp, repeats, Some(ref_fp));
        points.push(threaded);
        let (sharded, _) = scaling_point(
            topology,
            Executor::Sharded { shards },
            ppp,
            repeats,
            Some(ref_fp),
        );
        points.push(sharded);
    }
    let wall = |t: Topology, e: &str| -> f64 {
        points
            .iter()
            .find(|p| p.topology == t.name() && p.executor == e)
            .map(|p| p.wall_mpps)
            .unwrap_or(0.0)
    };
    let ratio = |t: Topology| wall(t, "sharded") / wall(t, "threaded").max(1e-12);
    ScalingReport {
        shards,
        clos64_sharded_over_threaded: ratio(Topology::Clos64),
        clos256_sharded_over_threaded: ratio(Topology::Clos256),
        all_fingerprints_match: points.iter().all(|p| p.matches_reference),
        peak_rss_mb: points
            .iter()
            .map(|p| p.peak_rss_mb)
            .fold(peak_before, f64::max),
        points,
    }
}

/// One topology line of the CI-diffable `BENCH_fabric.json` digest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricBenchRow {
    pub topology: String,
    pub routers: usize,
    pub ext_ports: usize,
    /// Simulated-time throughput: deterministic, so CI can diff it
    /// exactly across runs and machines.
    pub sim_mpps: f64,
    pub sim_mpps_per_port: f64,
    /// Wall-clock executor race (machine-dependent; diff the trend, not
    /// the digits).
    pub sharded_over_threaded_wall: f64,
    pub sharded_over_reference_wall: f64,
    pub fingerprints_match: bool,
    /// Peak resident memory of the topology's largest executor run, MB
    /// (machine-dependent, like the wall-clock ratios).
    pub peak_rss_mb: f64,
    /// Resident memory the topology's build adds, per router.
    pub bytes_per_router: f64,
}

/// The digest written to `BENCH_fabric.json` at the repo root: the
/// executor scaling curve without raw wall times.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricBenchDigest {
    pub shards: usize,
    pub clos_over_single: f64,
    pub rows: Vec<FabricBenchRow>,
}

pub fn fabric_bench_digest(rep: &FabricReport) -> FabricBenchDigest {
    let round3 = |x: f64| crate::report::round_to(x, 3);
    let point = |t: &str, e: &str| {
        rep.scaling
            .points
            .iter()
            .find(|p| p.topology == t && p.executor == e)
    };
    let rows = SHIPPED_TOPOLOGIES
        .iter()
        .filter_map(|t| {
            let reference = point(t.name(), "reference")?;
            let threaded = point(t.name(), "threaded")?;
            let sharded = point(t.name(), "sharded")?;
            Some(FabricBenchRow {
                topology: t.name().into(),
                routers: reference.routers,
                ext_ports: reference.ext_ports,
                sim_mpps: round3(reference.sim_mpps),
                sim_mpps_per_port: round3(reference.sim_mpps_per_port),
                sharded_over_threaded_wall: round3(
                    sharded.wall_mpps / threaded.wall_mpps.max(1e-12),
                ),
                sharded_over_reference_wall: round3(
                    sharded.wall_mpps / reference.wall_mpps.max(1e-12),
                ),
                fingerprints_match: reference.matches_reference
                    && threaded.matches_reference
                    && sharded.matches_reference,
                peak_rss_mb: crate::report::round_to(
                    [reference, threaded, sharded]
                        .iter()
                        .map(|p| p.peak_rss_mb)
                        .fold(0.0, f64::max),
                    1,
                ),
                bytes_per_router: reference.bytes_per_router.round(),
            })
        })
        .collect();
    FabricBenchDigest {
        shards: rep.scaling.shards,
        clos_over_single: round3(rep.clos_over_single),
        rows,
    }
}

/// The topologies the repo ships (and the fabric experiments sweep).
pub const SHIPPED_TOPOLOGIES: [Topology; 5] = [
    Topology::Single4,
    Topology::Folded8,
    Topology::Clos16,
    Topology::Clos64,
    Topology::Clos256,
];

/// Run the whole-fabric static analyses (`RV5xx` deadlock, `RV6xx`
/// routing, `RV7xx` credit sizing) over every shipped topology under
/// the default fabric configuration — the verdicts `repro -- verify`
/// folds into `results/verify.json`. Every verdict must be empty: these
/// are exactly the fabrics `RawFabric::try_new` will build.
pub fn fabric_verify_verdicts() -> Vec<raw_verify::fabric::FabricVerdict> {
    SHIPPED_TOPOLOGIES
        .into_iter()
        .map(|t| {
            raw_fabric::verify_fabric(&FabricConfig {
                topology: t,
                ..FabricConfig::default()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_topologies_verify_with_zero_diagnostics() {
        for v in fabric_verify_verdicts() {
            assert!(v.diags.is_empty(), "{}: {:?}", v.name, v.diags);
        }
    }

    /// A miniature sweep cell end-to-end: both executors agree and the
    /// books close (the full sweep is exercised by `repro -- fabric`).
    #[test]
    fn clos_cell_runs_and_fingerprints_agree() {
        let (cell, summary) = run_cell(Topology::Clos16, SprayMode::Hash, 256, 8);
        assert!(cell.fingerprints_match);
        assert_eq!(cell.offered, 128);
        assert_eq!(cell.delivered + cell.dropped, cell.offered);
        assert_eq!(summary.links.len(), 32);
    }
}
