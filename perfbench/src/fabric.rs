//! The fabric workload (clos64): a multi-router Clos at saturation,
//! drained on the sharded executor.

use raw_fabric::{verify_fabric, Executor, FabricConfig, RawFabric, SprayMode};
use raw_lookup::ForwardingTable;
use raw_workloads::{
    expected_per_output_n, generate_n, Arrivals, Pattern, ScheduledPacket, Workload as TrafficSpec,
};

use crate::host;
use crate::outcome::{latencies, Check, Layers, SimOutcome};
use crate::router::releases;
use crate::trace::Tracer;
use crate::workloads::{draw_seed, Params, Shape};

/// Drain limit, in epochs.
const MAX_EPOCHS: u64 = 500_000;

pub struct FabricInst {
    fab: RawFabric,
    cfg: FabricConfig,
    exec: Executor,
    /// The offered schedule.
    sched: Vec<ScheduledPacket>,
    drained: bool,
    /// Resident memory the fabric build added, in bytes. Only the first
    /// build of a process reads true: later builds reuse memory the
    /// allocator kept from earlier ones.
    pub rss_build: u64,
    /// DIR-24-8 bytes of the fabric's tables, built again on their own
    /// (traced runs only).
    table_bytes: usize,
}

/// The sharded executor with one shard per available core.
pub fn executor() -> Executor {
    Executor::Sharded {
        shards: host::nproc(),
    }
}

fn config(p: &Params) -> FabricConfig {
    let Shape::Fabric {
        topology,
        epoch_cycles,
        ..
    } = p.shape
    else {
        unreachable!("clos64 is the only fabric workload")
    };
    FabricConfig {
        topology,
        epoch_cycles,
        spray: SprayMode::Hash,
        ..FabricConfig::default()
    }
}

/// Generate the traffic of draw `population`, build the fabric (its
/// verifier included), and offer every packet.
pub fn setup(p: &Params, seed: u64, population: usize, t: &mut Tracer) -> FabricInst {
    let Shape::Fabric {
        topology,
        packets_per_port,
        ..
    } = p.shape
    else {
        unreachable!("clos64 is the only fabric workload")
    };
    let cfg = config(p);
    let nports = topology.ext_ports();
    let spec = TrafficSpec {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: p.packet_bytes,
        packets_per_port,
        seed: draw_seed(seed, population, 1),
        ttl: 64,
    };
    let sched = t.span("workloads.generate", || generate_n(&spec, nports));
    let rss_before = host::rss_bytes();
    let mut fab = t.span("fabric.build", || {
        RawFabric::try_new(cfg.clone()).expect("the shipped Clos64 configuration verifies")
    });
    let rss_build = host::rss_bytes().saturating_sub(rss_before);
    t.span("fabric.offer", || {
        for s in &sched {
            fab.offer(s.port, s.release, &s.packet);
        }
    });
    FabricInst {
        fab,
        cfg,
        exec: executor(),
        sched,
        drained: false,
        rss_build,
        table_bytes: 0,
    }
}

/// Untimed extras of a traced run: the verifier and the table builds
/// that `RawFabric::try_new` runs inside, timed on their own.
pub fn traced_extras(inst: &mut FabricInst, t: &mut Tracer) {
    let verdict = t.span("verify.fabric", || verify_fabric(&inst.cfg));
    assert!(
        verdict.diags.is_empty(),
        "shipped fabric failed verification"
    );
    let mut bytes = 0;
    let open = t.enter("lookup.build");
    for spec in &inst.fab.plan.routers {
        // The compact split RawFabric::try_new builds its tables with.
        let table = ForwardingTable::build_with_l1_bits(&spec.routes, 16);
        bytes += table.dir.memory_bytes();
    }
    t.exit(open);
    inst.table_bytes = bytes;
}

/// Drain the fabric. A traced run advances one epoch per call, one span
/// each; the simulated result is the same either way.
pub fn simulate(inst: &mut FabricInst, t: &mut Tracer) {
    let fab = &mut inst.fab;
    if !t.enabled() {
        inst.drained = fab.run_until_drained_with(MAX_EPOCHS, inst.exec);
        return;
    }
    while fab.epochs_run() < MAX_EPOCHS {
        let limit = fab.epochs_run() + 1;
        let exec = inst.exec;
        if t.span("fabric.epoch", || fab.run_until_drained_with(limit, exec)) {
            inst.drained = true;
            return;
        }
    }
}

pub fn outcome(inst: &FabricInst, p: &Params) -> SimOutcome {
    let Shape::Fabric { warm_epochs, .. } = p.shape else {
        unreachable!("clos64 is the only fabric workload")
    };
    let fab = &inst.fab;
    let end = fab.cycle();
    let warm = (warm_epochs * inst.cfg.epoch_cycles).min(end.saturating_sub(1));
    // Every packet is released at cycle 0 and the fabric is drained:
    // latency and completion time measure how late each packet got out.
    let delivered: Vec<_> = (0..fab.ext_ports())
        .flat_map(|e| fab.delivered(e))
        .collect();
    let (latencies, fcts) = latencies(
        &releases(&inst.sched),
        delivered.iter().map(|(c, p)| (*c, p)),
    );
    let gbps = fab.gbps(warm, end);
    SimOutcome {
        gbps,
        mpps: fab.mpps(warm, end),
        gbps_vs_paper: gbps / p.paper_gbps,
        latencies,
        fcts,
        offered: fab.offered(),
        delivered: fab.delivered_count(),
        cycles: end,
        router_cycles: end * fab.plan.routers.len() as u64,
        fingerprint: fab.fingerprint(),
    }
}

pub fn check(inst: &FabricInst) -> Check {
    let fab = &inst.fab;
    let mut c = Check::new(fab.offered());
    if !inst.drained {
        c.fail_packets(
            "undelivered (drain wedged)",
            fab.offered() - fab.delivered_count() - fab.dropped_count(),
        );
    }
    c.fail_packets("dropped", fab.dropped_count());
    c.fail_packets("corrupt", fab.parse_errors());
    c.fail_packets("reordered", fab.flow_order_violations());
    for e in fab.conservation_errors() {
        c.expect(&format!("fabric conservation: {e}"), false);
    }
    let expected = expected_per_output_n(&inst.sched, fab.ext_ports());
    let mut misrouted = 0u64;
    for (ext, &want) in expected.iter().enumerate() {
        let out = fab.delivered(ext);
        misrouted += out
            .iter()
            .filter(|(_, p)| ((p.header.dst >> 16) & 0xff) as usize != ext)
            .count() as u64;
        c.expect(
            "every output delivered its expected count",
            out.len() == want,
        );
    }
    c.fail_packets("misrouted", misrouted);
    c
}

/// The resident memory of the first fabric build of the process, per
/// router and in total.
pub fn build_rss_layers(inst: &FabricInst, l: &mut Layers) {
    let routers = inst.fab.plan.routers.len() as f64;
    l.set(
        "fabric.rss_build_mb",
        inst.rss_build as f64 / (1 << 20) as f64,
    );
    l.set("fabric.bytes_per_router", inst.rss_build as f64 / routers);
}

pub fn layers(inst: &FabricInst, l: &mut Layers) {
    let fab = &inst.fab;
    let s = fab.summary();
    l.set("workloads.packets", inst.sched.len() as f64);
    l.set("lookup.table_bytes", inst.table_bytes as f64);
    l.set("fabric.epochs", s.epochs as f64);
    l.set("fabric.backpressure_epochs", s.backpressure_epochs as f64);
    l.set(
        "fabric.link_max_occupancy",
        s.links.iter().map(|k| k.max_occupancy).max().unwrap_or(0) as f64,
    );
    l.set("fabric.total_latency_p99", s.total_latency.p99 as f64);
}
