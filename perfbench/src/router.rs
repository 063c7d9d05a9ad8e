//! The single-router workloads (peak64, avg1024, fib1m-churn): set-up,
//! the simulated run, its outcome, the correctness gate, and the layer
//! counters of a traced run.

use std::collections::HashMap;
use std::sync::Arc;

use raw_fib::{assign_addresses, synthesize, FibConfig, FlowSpec, FlowTracker, SloStats};
use raw_lookup::{Engine, ForwardingTable, LookupMemModel, RouteEntry};
use raw_net::Packet;
use raw_sim::TileId;
use raw_telemetry::{shared, with_sink, Recorder, SharedSink, StageSpan, TileState};
use raw_workloads::{
    expected_per_output, flow_churn_descs, flow_order_violations, generate, Arrivals,
    ScheduledPacket, Workload as TrafficSpec,
};
use raw_xbar::{RawRouter, RouterConfig, NPORTS};

use crate::outcome::{fnv, latencies, Check, Layers, SimOutcome};
use crate::trace::Tracer;
use crate::workloads::{draw_seed, salt, Params, Shape};

/// Host-time granularity of a traced run: one `sim.chunk` span per
/// `CHUNK` simulated cycles (a multiple of the 256-cycle drain check, so
/// a chunked drain stops on the same cycle as an unchunked one).
const CHUNK: u64 = 16_384;
/// Drain limit of the open-loop workload, in cycles.
const DRAIN_LIMIT: u64 = 60_000_000;

/// The routes of a run and the forwarding table built from them. They
/// depend on the run's seed alone, so repetitions after the first few
/// reuse them rather than build them again.
#[derive(Clone)]
pub struct Fib {
    routes: Arc<Vec<RouteEntry>>,
    table: Arc<ForwardingTable>,
}

/// The flows of the open-loop workload.
struct Churn {
    specs: Vec<FlowSpec>,
    packet_bytes: usize,
}

pub struct RouterInst {
    router: RawRouter,
    fib: Fib,
    sink: Option<SharedSink>,
    /// The offered schedule.
    sched: Vec<ScheduledPacket>,
    churn: Option<Churn>,
    /// Largest released-but-not-injected queue seen at any line card
    /// (sampled once per traced chunk).
    backlog_max: usize,
}

/// The experiment forwarding table of the `repro` Figure 7-1 runs:
/// `10.<p>.0.0/16 -> p` and a default route.
fn experiment_routes() -> Vec<RouteEntry> {
    let mut routes: Vec<RouteEntry> = (0..NPORTS as u32)
        .map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p))
        .collect();
    routes.push(RouteEntry::new(0, 0, 0));
    routes
}

/// Build the routes and their forwarding table.
fn build_fib(p: &Params, seed: u64, t: &mut Tracer) -> Fib {
    let routes = match p.shape {
        Shape::Churn { prefixes, .. } => {
            let cfg = FibConfig::new(prefixes, NPORTS as u32, salt(seed, 0));
            t.span("fib.synthesize", || synthesize(&cfg))
        }
        _ => experiment_routes(),
    };
    let table = t.span("lookup.build", || ForwardingTable::build(&routes));
    Fib {
        routes: Arc::new(routes),
        table: Arc::new(table),
    }
}

/// Build the inputs of draw `population`, the router, and offer every
/// packet. The routes come from `fib` when it holds them; otherwise they
/// are built and left there.
pub fn setup(
    p: &Params,
    seed: u64,
    population: usize,
    fib: &mut Option<Fib>,
    t: &mut Tracer,
) -> RouterInst {
    let bytes = p.packet_bytes;
    let fib = fib.get_or_insert_with(|| build_fib(p, seed, t)).clone();
    let (routes, table) = (&fib.routes, &fib.table);
    let (sched, churn, cfg) = match p.shape {
        Shape::Saturated {
            pattern,
            packets_per_port,
            ..
        } => {
            let spec = TrafficSpec {
                pattern,
                arrivals: Arrivals::Saturation,
                packet_bytes: bytes,
                packets_per_port,
                seed: draw_seed(seed, population, 1),
                ttl: 64,
            };
            let sched = t.span("workloads.generate", || generate(&spec));
            let quantum = (bytes / 4).min(256);
            let cfg = RouterConfig {
                quantum_words: quantum,
                cut_through: bytes / 4 <= 256,
                ..RouterConfig::default()
            };
            (sched, None, cfg)
        }
        Shape::Churn {
            flows_per_port,
            alpha_milli,
            mean_iat_cycles,
            max_flow_pkts,
            hit_bias,
            ..
        } => {
            let spec = TrafficSpec {
                pattern: raw_workloads::Pattern::FlowChurn {
                    flows_per_port,
                    alpha_milli,
                    mean_iat_cycles,
                    max_flow_pkts,
                },
                arrivals: Arrivals::Saturation,
                packet_bytes: bytes,
                packets_per_port: 0,
                seed: draw_seed(seed, population, 2),
                ttl: 64,
            };
            let descs = t.span("workloads.generate", || flow_churn_descs(&spec, NPORTS));
            let specs = t.span("fib.assign", || {
                let s = draw_seed(seed, population, 3);
                assign_addresses(&descs, routes, table, Engine::Dir24_8, hit_bias, s)
            });
            let sched = t.span("workloads.generate", || churn_packets(&specs, bytes));
            let cfg = RouterConfig {
                quantum_words: bytes / 4,
                cut_through: true,
                engine: Engine::Dir24_8,
                lookup_mem: Some(LookupMemModel::default()),
                ..RouterConfig::default()
            };
            let churn = Churn {
                specs,
                packet_bytes: bytes,
            };
            (sched, Some(churn), cfg)
        }
        Shape::Fabric { .. } => unreachable!("fabric workloads run in fabric.rs"),
    };

    let sink = t
        .enabled()
        .then(|| shared(Recorder::new(16, raw_sim::NUM_STATIC_NETS)));
    let table_for_router = Arc::clone(table);
    let mut router = t.span("xbar.build", || match &sink {
        Some(s) => RawRouter::new_with_telemetry(cfg, table_for_router, s.clone()),
        None => RawRouter::new(cfg, table_for_router),
    });
    t.span("xbar.offer", || {
        for s in &sched {
            router.offer(s.port, s.release, &s.packet);
        }
    });
    RouterInst {
        router,
        fib,
        sink,
        sched,
        churn,
        backlog_max: 0,
    }
}

/// Materialize every flow's packets with its FIB address, merged per
/// port in release order (the order `raw_workloads::generate_n` gives a
/// flow-churn schedule), so the line cards see the open-loop arrivals.
fn churn_packets(specs: &[FlowSpec], bytes: usize) -> Vec<ScheduledPacket> {
    let gap = (bytes / 4) as u64;
    let mut keyed: Vec<(usize, u64, u32, u32, u32, u32)> = Vec::new();
    for s in specs {
        for k in 0..s.desc.pkts {
            keyed.push((
                s.desc.port,
                s.desc.start + k as u64 * gap,
                s.desc.flow,
                k,
                s.desc.src,
                s.dst_addr,
            ));
        }
    }
    keyed.sort_unstable();
    keyed
        .into_iter()
        .map(|(port, release, _, k, src, dst)| {
            let mut p = Packet::synthetic(src, dst, bytes, 64, (port as u32) << 24 | k);
            p.header.id = (k & 0xffff) as u16;
            p.header.checksum = p.header.compute_checksum();
            ScheduledPacket {
                port,
                release,
                packet: p,
            }
        })
        .collect()
}

/// Run the simulation. A traced run advances in `CHUNK`-cycle steps, one
/// span each; the simulated result is the same either way.
pub fn simulate(inst: &mut RouterInst, p: &Params, t: &mut Tracer) {
    let traced = t.enabled();
    let r = &mut inst.router;
    match p.shape {
        Shape::Saturated { warm, window, .. } => {
            let total = warm + window;
            if !traced {
                r.run(total);
                return;
            }
            while r.machine.cycle() < total {
                let step = CHUNK.min(total - r.machine.cycle());
                t.span("sim.chunk", || r.run(step));
                inst.backlog_max = inst.backlog_max.max(released_backlog(r, &inst.sched));
            }
        }
        Shape::Churn { .. } => {
            if !traced {
                r.run_until_drained(DRAIN_LIMIT);
                return;
            }
            while r.machine.cycle() < DRAIN_LIMIT {
                let drained = t.span("sim.chunk", || r.run_until_drained(CHUNK));
                inst.backlog_max = inst.backlog_max.max(released_backlog(r, &inst.sched));
                if drained {
                    break;
                }
            }
        }
        Shape::Fabric { .. } => unreachable!("fabric workloads run in fabric.rs"),
    }
}

/// Packets released by now but not yet fully injected, at the most
/// loaded line card (the line card's own backlog also counts packets
/// whose release lies in the future).
fn released_backlog(r: &mut RawRouter, sched: &[ScheduledPacket]) -> usize {
    let now = r.machine.cycle();
    (0..NPORTS)
        .map(|port| {
            let future = sched
                .iter()
                .filter(|s| s.port == port && s.release > now)
                .count();
            r.input_backlog(port).saturating_sub(future)
        })
        .max()
        .unwrap_or(0)
}

/// Every `(cycle, packet)` delivered so far, per output.
fn delivered(r: &RawRouter) -> Vec<Vec<(u64, Packet)>> {
    (0..NPORTS).map(|port| r.delivered(port)).collect()
}

/// Each offered packet's release, by `(source, IP id)`.
pub fn releases(sched: &[ScheduledPacket]) -> HashMap<(u32, u16), u64> {
    sched
        .iter()
        .map(|s| ((s.packet.header.src, s.packet.header.id), s.release))
        .collect()
}

/// The simulated result of the run. On the saturated workloads every
/// packet is released at cycle 0 and no flow ends inside the window:
/// latency and completion time there only measure how far into the run
/// a packet got out.
pub fn outcome(inst: &RouterInst, p: &Params) -> SimOutcome {
    let r = &inst.router;
    let out = delivered(r);
    let clock_hz = r.cfg.raw.clock_mhz as f64 * 1e6;
    let cycles = r.machine.cycle();
    let (from, to) = match p.shape {
        Shape::Saturated { warm, window, .. } => (warm, warm + window),
        Shape::Churn { warm, .. } => {
            let end = out.iter().flatten().map(|(c, _)| c + 1).max();
            (warm, end.unwrap_or(warm + 1).max(warm + 1))
        }
        Shape::Fabric { .. } => unreachable!("fabric workloads run in fabric.rs"),
    };
    let (latencies, fcts) = latencies(
        &releases(&inst.sched),
        out.iter().flatten().map(|(c, p)| (*c, p)),
    );
    let secs = (to - from) as f64 / clock_hz;
    let gbps = r.delivered_bits_between(from, to) as f64 / secs / 1e9;
    let mut fp = Vec::new();
    for (port, stream) in out.iter().enumerate() {
        for (cycle, pkt) in stream {
            fp.extend([
                port as u64,
                *cycle,
                pkt.header.src as u64,
                pkt.header.id as u64,
            ]);
        }
    }
    SimOutcome {
        gbps,
        mpps: r.delivered_packets_between(from, to) as f64 / secs / 1e6,
        gbps_vs_paper: gbps / p.paper_gbps,
        latencies,
        fcts,
        offered: r.offered(),
        delivered: r.delivered_count(),
        cycles,
        router_cycles: cycles,
        fingerprint: fnv(&fp),
    }
}

/// The correctness gate. Drains a saturated run to its end first, so
/// every offered packet is accounted for. fib1m-churn's reference LPM is
/// built from the run's routes on the first call and kept in `oracle`.
pub fn check(inst: &mut RouterInst, oracle: &mut Option<Lpm>) -> Check {
    let r = &mut inst.router;
    let mut c = Check::new(r.offered());
    if !r.run_until_drained(DRAIN_LIMIT) {
        c.fail_packets(
            "undelivered (drain wedged)",
            r.offered() - r.delivered_count() - r.dropped_count(),
        );
    }
    c.fail_packets("dropped", r.dropped_count());
    c.fail_packets("corrupt", r.parse_errors());
    let out = delivered(r);
    let reordered: usize = out
        .iter()
        .map(|s| flow_order_violations(&s.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>()))
        .sum();
    c.fail_packets("reordered", reordered as u64);
    c.expect(
        "conservation: offered == delivered + dropped",
        r.offered() == r.delivered_count() + r.dropped_count(),
    );
    match &inst.churn {
        None => {
            // Destinations are 10.<p>.x.x: output p, counted per output.
            let misrouted: u64 = out
                .iter()
                .enumerate()
                .map(|(port, s)| {
                    s.iter()
                        .filter(|(_, p)| ((p.header.dst >> 16) & 0xff) as usize != port)
                        .count() as u64
                })
                .sum();
            c.fail_packets("misrouted", misrouted);
            let expected = expected_per_output(&inst.sched);
            for (port, s) in out.iter().enumerate() {
                c.expect(
                    "every output delivered its expected count",
                    s.len() == expected[port],
                );
            }
        }
        Some(churn) => {
            let oracle = oracle.get_or_insert_with(|| Lpm::new(&inst.fib.routes));
            let hop_of: HashMap<u32, u32> = churn
                .specs
                .iter()
                .map(|s| (s.desc.src, oracle.lookup(s.dst_addr).unwrap_or(0)))
                .collect();
            let misrouted: u64 = out
                .iter()
                .enumerate()
                .map(|(port, s)| {
                    s.iter()
                        .filter(|(_, p)| hop_of.get(&p.header.src) != Some(&(port as u32)))
                        .count() as u64
                })
                .sum();
            c.fail_packets("misrouted", misrouted);
            let mut tracker = FlowTracker::new(&churn.specs, churn.packet_bytes);
            for s in &out {
                tracker.record_all(s);
            }
            let slo = tracker.slo();
            c.expect(
                "every flow completed",
                slo.flows_completed == churn.specs.len() as u64,
            );
            c.expect("no stray packets", slo.stray_packets == 0);
            let (mut lat, mut fct) = latencies(
                &releases(&inst.sched),
                out.iter().flatten().map(|(c, p)| (*c, p)),
            );
            let (lat, fct) = (SloStats::of(&mut lat), SloStats::of(&mut fct));
            c.expect(
                "latency and completion times agree with FlowSlo",
                (lat.p50, lat.p999, fct.p99) == (slo.latency.p50, slo.latency.p999, slo.fct.p99),
            );
        }
    }
    c
}

/// A reference longest-prefix match: one exact-match map per prefix
/// length, probed from /32 down. It shares no code with the router's
/// Patricia or DIR-24-8 engines and answers as
/// `raw_lookup::reference_lpm` does, without its linear scan.
pub struct Lpm {
    by_len: Vec<HashMap<u32, u32>>,
}

impl Lpm {
    pub fn new(routes: &[RouteEntry]) -> Lpm {
        let mut by_len = vec![HashMap::new(); 33];
        for r in routes {
            by_len[r.len as usize].insert(r.prefix & mask(r.len), r.next_hop);
        }
        Lpm { by_len }
    }

    pub fn lookup(&self, addr: u32) -> Option<u32> {
        (0..=32u8)
            .rev()
            .find_map(|len| self.by_len[len as usize].get(&(addr & mask(len))).copied())
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

/// Per-layer counters of a traced run, read after its simulation.
pub fn layers(inst: &RouterInst, l: &mut Layers) {
    let r = &inst.router;
    l.set("workloads.packets", inst.sched.len() as f64);
    l.set(
        "lookup.table_bytes",
        inst.fib.table.dir.memory_bytes() as f64,
    );
    let (mut lookups, mut l2, mut stall) = (0u64, 0u64, 0u64);
    for s in &r.lk_stats {
        let s = s.lock().expect("lookup stats lock");
        lookups += s.lookups;
        l2 += s.l2_lookups;
        stall += s.mem_stall_cycles;
    }
    l.set("lookup.lookups", lookups as f64);
    l.set("lookup.l2_frac", ratio(l2, lookups));
    l.set("lookup.mem_stall_cycles", stall as f64);
    let (mut quanta, mut active, mut grants) = (0u64, 0u64, 0u64);
    for s in &r.xb_stats {
        let s = s.lock().expect("crossbar stats lock");
        quanta += s.quanta;
        active += s.active_quanta;
        grants += s.grants_issued;
    }
    l.set("xbar.active_quanta_frac", ratio(active, quanta));
    l.set("xbar.grants", grants as f64);
    l.set("xbar.input_backlog_max", inst.backlog_max as f64);
    let (mut hits, mut misses) = (0u64, 0u64);
    for tile in 0..r.layout.dim.tiles() {
        let (h, m) = r.machine.cache_stats(TileId(tile as u16));
        hits += h;
        misses += m;
    }
    l.set("sim.cache_miss_frac", ratio(misses, hits + misses));
    if let Some(churn) = &inst.churn {
        l.set("fib.flows", churn.specs.len() as f64);
        l.set("fib.sim_flows", churn.specs.len() as f64);
    }
    let Some(sink) = &inst.sink else { return };
    let cycles = r.machine.cycle();
    with_sink::<Recorder, _>(sink, |rec| {
        l.set(
            "telemetry.conservation_violations",
            rec.conservation_violations(cycles).len() as f64,
        );
        for span in [
            StageSpan::Ingress,
            StageSpan::Lookup,
            StageSpan::XbarWait,
            StageSpan::EgressLaunch,
            StageSpan::Serialize,
        ] {
            let h = rec.stage_histogram(span);
            for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
                l.set(
                    format!("xbar.stage.{}.{tag}", span.name()),
                    h.value_at_quantile(q) as f64,
                );
            }
        }
        for (role, tile_of) in ROLES {
            let mut counts = [0u64; TileState::COUNT];
            for ports in &r.layout.ports {
                let t = tile_of(ports).index();
                for (c, v) in counts.iter_mut().zip(rec.tile_state_counts(t)) {
                    *c += v;
                }
            }
            let total: u64 = counts.iter().sum();
            for s in TileState::ALL {
                l.set(
                    format!("tile.{role}.{}_frac", s.name()),
                    ratio(counts[s.index()], total),
                );
            }
        }
    });
}

type TileOf = fn(&raw_xbar::layout::PortTiles) -> TileId;

/// The four tile roles of Figure 7-2 and how to find each port's tile.
pub const ROLES: [(&str, TileOf); 4] = [
    ("ingress", |p| p.ingress),
    ("lookup", |p| p.lookup),
    ("xbar", |p| p.crossbar),
    ("egress", |p| p.egress),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
