//! The assembled 4-port Raw router: machine + switch code + tile
//! programs + line cards, with measurement helpers for the paper's
//! experiments.

use std::sync::{Arc, LazyLock, Mutex};

use raw_lookup::{Engine, ForwardingTable};
use raw_net::{ComputeOp, Packet};
use raw_sim::{EdgePort, RawConfig, RawMachine, TraceWindow, NET0, NET1};

use crate::codegen;
use crate::config::{ConfigSpace, SchedPolicy};
use crate::devices::{LineCardIn, LineCardOut, OutCollector, OutFraming};
use crate::layout::{RouterLayout, NPORTS};
/// Per-crossbar-tile decision log: `(quantum, table index, routine pc)`.
pub type DecisionLog = Arc<Mutex<Vec<(usize, usize, usize)>>>;

use crate::programs::{
    CrossbarProgram, EgressMode, EgressProgram, EgressStats, IngressProgram, IngressStats,
    LookupProgram, LookupStats, XbarStats, XBAR_TABLE_BASE,
};

/// Router-level configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Routing-quantum size in payload words (§5.1: "one quantum of
    /// routing time … measured by the number of 32-bit words").
    pub quantum_words: usize,
    /// Egress mode: cut-through (packets must fit one quantum) or
    /// store-and-forward reassembly.
    pub cut_through: bool,
    pub policy: SchedPolicy,
    /// Weighted-token QoS (§8.7): port `i` holds the token for
    /// `weights[i]` consecutive quanta per rotation.
    pub weights: [u32; NPORTS],
    pub engine: Engine,
    /// Ingress header-verification/rewrite cost in cycles.
    pub verify_cycles: u32,
    /// Crossbar jump-table index computation cost in cycles.
    pub idx_cycles: u32,
    /// Computation-in-fabric opcode stamped on fragment tags (§8.3).
    pub compute_op: ComputeOp,
    /// Ingress queueing discipline: the paper's FIFO (with cut-through)
    /// or virtual output queueing (HOL-blocking-free, store-and-forward).
    pub queueing: crate::programs::IngressQueueing,
    /// Run the Crossbar Processors as generated Raw *assembly* on the
    /// `raw-isa` interpreter instead of native state machines (§6.5).
    /// Implies the destination-mask jump table (as with `multicast`) and
    /// requires uniform token weights.
    pub asm_crossbar: bool,
    /// Enable the §8.6 multicast extension: the configuration space and
    /// jump tables cover destination *masks* (16^4 x 4 points), and the
    /// forwarding table may return `raw_lookup::encode_multicast` hops.
    /// Requires a quantum small enough that the larger minimized set
    /// still fits switch instruction memory.
    pub multicast: bool,
    /// Record protocol events into [`RawRouter::events`].
    pub debug_events: bool,
    /// Deterministic lookup-table fault injection (chaos testing): forced
    /// misses fall back to the default route after a penalty.
    pub lookup_fault: Option<LookupFault>,
    /// Two-level lookup memory cost model: when set, each Lookup
    /// Processor charges model-driven L1/L2 costs from the lookup's
    /// access trace instead of the flat [`raw_lookup::LookupCostModel`],
    /// and the L2 share surfaces in telemetry as the `lookup_stall`
    /// tile-state bucket. `None` (the default) preserves the flat model
    /// bit-for-bit.
    pub lookup_mem: Option<raw_lookup::LookupMemModel>,
    /// Crossbar arbitration policy. [`raw_sched::SchedKind::Token`] is
    /// the paper's protocol unchanged. The alternatives (iSLIP,
    /// crosspoint-queued) replace the token walk with a replicated
    /// per-slot arbiter over VOQ occupancy masks: same static network,
    /// same ingest and egress paths, different matchings. Non-token
    /// arbiters require VOQ queueing, unicast traffic, the native
    /// crossbar cores, and the shortest-first policy (the only one under
    /// which every injective matching is ring-routable).
    pub arbiter: raw_sched::SchedKind,
    pub raw: RawConfig,
}

/// Lookup-miss fault-injection parameters (see
/// [`crate::programs::LookupProgram::inject_misses`]). Each port's
/// Lookup Processor draws from its own stream, salted from `seed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupFault {
    pub seed: u64,
    /// Forced-miss probability in parts-per-million.
    pub miss_ppm: u32,
    /// Extra cycles a forced miss costs (the fruitless full walk plus
    /// the default-route fetch).
    pub penalty_cycles: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            quantum_words: 64,
            cut_through: true,
            policy: SchedPolicy::default(),
            weights: [1; NPORTS],
            engine: Engine::Patricia,
            verify_cycles: 8,
            idx_cycles: 4,
            compute_op: ComputeOp::None,
            queueing: crate::programs::IngressQueueing::Fifo,
            asm_crossbar: false,
            multicast: false,
            debug_events: false,
            lookup_fault: None,
            lookup_mem: None,
            arbiter: raw_sched::SchedKind::Token,
            raw: RawConfig::default(),
        }
    }
}

/// Expand token weights into the cyclic token schedule.
pub fn token_schedule(weights: [u32; NPORTS]) -> Vec<u8> {
    let mut seq = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        for _ in 0..w.max(1) {
            seq.push(i as u8);
        }
    }
    seq
}

/// The assembled router.
pub struct RawRouter {
    pub machine: RawMachine,
    /// Optional protocol event log (see [`RouterConfig::debug_events`]).
    pub events: crate::programs::EventLog,
    /// Per-crossbar-tile (quantum, table index, routine pc) decisions,
    /// recorded when `debug_events` is set.
    pub xb_decisions: [DecisionLog; NPORTS],
    /// Architectural watches on the interpreted crossbar cores
    /// (`asm_crossbar` mode only).
    pub asm_watches: Vec<raw_isa::WatchHandle>,
    pub layout: RouterLayout,
    pub cfg: RouterConfig,
    pub cs: Arc<ConfigSpace>,
    in_ports: [EdgePort; NPORTS],
    out_ports: [EdgePort; NPORTS],
    out_cols: [Arc<Mutex<OutCollector>>; NPORTS],
    pub ig_stats: [Arc<Mutex<IngressStats>>; NPORTS],
    pub lk_stats: [Arc<Mutex<LookupStats>>; NPORTS],
    pub xb_stats: [Arc<Mutex<XbarStats>>; NPORTS],
    pub eg_stats: [Arc<Mutex<EgressStats>>; NPORTS],
    offered: u64,
}

impl RawRouter {
    pub fn new(cfg: RouterConfig, table: Arc<ForwardingTable>) -> RawRouter {
        match RawRouter::try_new(cfg, table) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`RawRouter::new`] with a telemetry sink attached (panicking
    /// constructor for tests and harnesses).
    pub fn new_with_telemetry(
        cfg: RouterConfig,
        table: Arc<ForwardingTable>,
        telemetry: raw_telemetry::SharedSink,
    ) -> RawRouter {
        match RawRouter::try_new_with_telemetry(cfg, table, Some(telemetry)) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build the router, validating the configuration and every generated
    /// switch program ([`raw_sim::SwitchProgram::validate`]) at the
    /// codegen boundary instead of relying on downstream assertions.
    pub fn try_new(cfg: RouterConfig, table: Arc<ForwardingTable>) -> Result<RawRouter, String> {
        RawRouter::try_new_with_telemetry(cfg, table, None)
    }

    /// [`RawRouter::try_new`] with a telemetry sink threaded through the
    /// machine (tile-state and switch-stall attribution) and the
    /// ingress/egress programs (packet lifecycle stamps). `RouterConfig`
    /// stays `Clone + Debug`, so the sink is a separate argument.
    pub fn try_new_with_telemetry(
        cfg: RouterConfig,
        table: Arc<ForwardingTable>,
        telemetry: Option<raw_telemetry::SharedSink>,
    ) -> Result<RawRouter, String> {
        if !(1..=raw_net::MAX_FRAG_WORDS).contains(&cfg.quantum_words) {
            return Err(format!(
                "quantum of {} words must fit the fragment tag's word-count field (1..={})",
                cfg.quantum_words,
                raw_net::MAX_FRAG_WORDS
            ));
        }
        if cfg.quantum_words <= raw_net::IPV4_HEADER_WORDS {
            return Err(format!(
                "quantum of {} words must exceed the {}-word IP header",
                cfg.quantum_words,
                raw_net::IPV4_HEADER_WORDS
            ));
        }
        let layout = RouterLayout::canonical();
        let mut machine = RawMachine::new(cfg.raw.clone());
        if let Some(sink) = &telemetry {
            machine.set_telemetry(Arc::clone(sink));
        }
        // A NullSink receives no-ops only; don't thread it into the
        // per-packet program stamps (the machine keeps the handle so
        // `take_telemetry` still returns it).
        let telemetry = telemetry.filter(|s| !raw_telemetry::is_null(s));
        if cfg.asm_crossbar && !cfg.weights.iter().all(|&w| w == 1) {
            return Err("the assembly crossbar uses a plain modulo-4 token".into());
        }
        if !cfg.arbiter.is_token() {
            if cfg.queueing != crate::programs::IngressQueueing::Voq {
                return Err(format!(
                    "the {} arbiter bids VOQ occupancy masks and requires VOQ queueing",
                    cfg.arbiter.name()
                ));
            }
            if cfg.multicast {
                return Err(format!(
                    "the {} arbiter computes unicast matchings; multicast needs the token protocol",
                    cfg.arbiter.name()
                ));
            }
            if cfg.asm_crossbar {
                return Err(format!(
                    "the {} arbiter runs on the native crossbar cores only",
                    cfg.arbiter.name()
                ));
            }
            if cfg.policy != SchedPolicy::ShortestFirst {
                return Err(format!(
                    "the {} arbiter requires the shortest-first ring policy: only under it is \
                     every injective matching simultaneously routable",
                    cfg.arbiter.name()
                ));
            }
        }
        let cs = Arc::new(if cfg.multicast || cfg.asm_crossbar {
            ConfigSpace::enumerate_multicast(cfg.policy)
        } else {
            ConfigSpace::enumerate(cfg.policy)
        });
        // Build the structure the configured engine reads now, so its
        // cost lands in construction rather than in the first `run`.
        if cfg.engine == Engine::Dir24_8 {
            LazyLock::force(&table.dir);
        }
        let token_seq = token_schedule(cfg.weights);
        let dim = layout.dim;

        let events: crate::programs::EventLog = Arc::new(Mutex::new(Vec::new()));
        let mut xb_decisions: Vec<DecisionLog> = Vec::new();
        let mut asm_watches: Vec<raw_isa::WatchHandle> = Vec::new();
        let mut in_ports = Vec::with_capacity(NPORTS);
        let mut out_ports = Vec::with_capacity(NPORTS);
        let mut out_cols = Vec::with_capacity(NPORTS);
        let mut ig_stats = Vec::with_capacity(NPORTS);
        let mut lk_stats = Vec::with_capacity(NPORTS);
        let mut xb_stats = Vec::with_capacity(NPORTS);
        let mut eg_stats = Vec::with_capacity(NPORTS);

        for (i, p) in layout.ports.iter().enumerate() {
            let port = i as u8;
            // --- Ingress ---
            let ig_code = codegen::gen_ingress_switch(p, cfg.quantum_words);
            ig_code
                .program
                .validate()
                .map_err(|e| format!("port {i} ingress switch program: {e}"))?;
            machine.set_switch_program(p.ingress, NET0, ig_code.program.clone());
            let (mut ig, igs) = IngressProgram::new(
                port,
                p,
                &ig_code,
                cfg.quantum_words,
                dim.coords(p.lookup),
                cfg.verify_cycles,
                cfg.compute_op,
                cfg.queueing,
                !cfg.arbiter.is_token(),
            );
            if cfg.debug_events {
                ig.events = Some(Arc::clone(&events));
            }
            ig.telemetry = telemetry.clone();
            machine.set_program(p.ingress, Box::new(ig));
            ig_stats.push(igs);
            let in_port = EdgePort::new(p.ingress, p.in_edge, NET0);
            machine.bind_device(in_port, Box::new(LineCardIn::new()));
            in_ports.push(in_port);

            // --- Lookup ---
            let (mut lk, lks) =
                LookupProgram::new(port, Arc::clone(&table), cfg.engine, dim.coords(p.ingress));
            if let Some(f) = cfg.lookup_fault {
                // Salt the seed per port so the four streams differ while
                // the whole campaign stays a function of one seed.
                lk.inject_misses(f.seed.wrapping_add(i as u64), f.miss_ppm, f.penalty_cycles);
            }
            if let Some(m) = cfg.lookup_mem {
                lk.set_mem_model(m);
            }
            machine.set_program(p.lookup, Box::new(lk));
            lk_stats.push(lks);

            // --- Crossbar ---
            let xb_code = codegen::gen_crossbar_switch(p, &cs, cfg.quantum_words);
            xb_code
                .program
                .validate()
                .map_err(|e| format!("port {i} crossbar switch program: {e}"))?;
            machine.set_switch_program(p.crossbar, NET0, xb_code.program.clone());
            if cfg.asm_crossbar {
                // The §6.5 path: generated Raw assembly with a
                // PC-carrying jump table, interpreted cycle-accurately.
                let image = crate::asm_xbar::table_image_pc(&cs, i, &xb_code);
                machine.write_tile_mem(p.crossbar, 0, &image);
                let core = crate::asm_xbar::gen_crossbar_asm(i, xb_code.hdr_pc);
                let (core, watch) = core.watched();
                asm_watches.push(watch);
                machine.set_program(p.crossbar, Box::new(core));
                // Statistics are not collected from the interpreted core;
                // keep placeholder slots so indices line up.
                let (_unused, xbs) = CrossbarProgram::new(
                    port,
                    &xb_code,
                    token_seq.clone(),
                    cfg.idx_cycles,
                    true,
                    None,
                );
                xb_decisions.push(Arc::new(Mutex::new(Vec::new())));
                xb_stats.push(xbs);
            } else {
                let image = CrossbarProgram::table_image(&cs, i);
                machine.write_tile_mem(p.crossbar, XBAR_TABLE_BASE as usize, &image);
                // Each crossbar tile runs its own replica of the arbiter;
                // identical bid vectors keep the replicas in lockstep
                // (the raw-sched lockstep test), mirroring how the token
                // counter is replicated rather than transmitted.
                let sched = (!cfg.arbiter.is_token()).then(|| cfg.arbiter.build(NPORTS));
                let (mut xb, xbs) = CrossbarProgram::new(
                    port,
                    &xb_code,
                    token_seq.clone(),
                    cfg.idx_cycles,
                    cfg.multicast,
                    sched,
                );
                if cfg.debug_events {
                    xb.events = Some(Arc::clone(&events));
                }
                xb_decisions.push(Arc::clone(&xb.decisions));
                machine.set_program(p.crossbar, Box::new(xb));
                xb_stats.push(xbs);
            }

            // --- Egress ---
            let eg_code = codegen::gen_egress_switch(p, cfg.quantum_words);
            eg_code
                .program
                .validate()
                .map_err(|e| format!("port {i} egress switch program: {e}"))?;
            machine.set_switch_program(p.egress, NET0, eg_code.program.clone());
            let eg_net1 = codegen::gen_egress_net1(p);
            eg_net1
                .validate()
                .map_err(|e| format!("port {i} egress net-1 switch program: {e}"))?;
            machine.set_switch_program(p.egress, NET1, eg_net1);
            let mode = if cfg.cut_through {
                EgressMode::CutThrough
            } else {
                EgressMode::StoreForward
            };
            let (mut eg, egs) = EgressProgram::new(port, &eg_code, cfg.quantum_words, mode);
            eg.telemetry = telemetry.clone();
            machine.set_program(p.egress, Box::new(eg));
            eg_stats.push(egs);
            let (framing, out_port) = if cfg.cut_through {
                (
                    OutFraming::TaggedQuantum {
                        quantum: cfg.quantum_words,
                    },
                    EdgePort::new(p.egress, p.out_edge, NET0),
                )
            } else {
                (
                    OutFraming::RawPackets,
                    EdgePort::new(p.egress, p.out_edge, NET1),
                )
            };
            let (out, col) = LineCardOut::new(framing);
            machine.bind_device(out_port, Box::new(out));
            out_ports.push(out_port);
            out_cols.push(col);
        }

        Ok(RawRouter {
            machine,
            events,
            asm_watches,
            xb_decisions: xb_decisions.try_into().map_err(|_| ()).unwrap(),
            layout,
            cfg,
            cs,
            in_ports: in_ports.try_into().map_err(|_| ()).unwrap(),
            out_ports: out_ports.try_into().map_err(|_| ()).unwrap(),
            out_cols: out_cols.try_into().map_err(|_| ()).unwrap(),
            ig_stats: ig_stats.try_into().map_err(|_| ()).unwrap(),
            lk_stats: lk_stats.try_into().map_err(|_| ()).unwrap(),
            xb_stats: xb_stats.try_into().map_err(|_| ()).unwrap(),
            eg_stats: eg_stats.try_into().map_err(|_| ()).unwrap(),
            offered: 0,
        })
    }

    /// Queue a packet for injection on input `port` at `release` cycles.
    pub fn offer(&mut self, port: usize, release: u64, pkt: &Packet) {
        if self.cfg.cut_through {
            assert!(
                pkt.total_words() <= self.cfg.quantum_words,
                "cut-through egress requires packets (<= {} words) to fit one quantum; got {}",
                self.cfg.quantum_words,
                pkt.total_words()
            );
        }
        let lc = self
            .machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound");
        lc.offer(release, pkt);
        self.offered += 1;
    }

    /// Total packets offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Queue a raw word stream on input `port` at `release` — the fault
    /// injection path for corrupted packets (no cut-through size check:
    /// a malformed stream is exactly what is being tested). Counts as
    /// one offered packet. A stream truncated short of its claimed
    /// length should be padded with [`crate::devices::WIRE_IDLE`] words
    /// back to that length, so the ingress observes the cut while the
    /// wire framing stays aligned under back-to-back traffic.
    pub fn offer_raw(&mut self, port: usize, release: u64, words: Vec<u32>) {
        let lc = self
            .machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound");
        lc.offer_words(release, words);
        self.offered += 1;
    }

    /// Slow-line-card fault: input `port` emits only idle frames during
    /// `[start, start+len)`; an in-flight packet finishes first.
    pub fn pause_input(&mut self, port: usize, start: u64, len: u64) {
        self.machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound")
            .pause_window(start, len);
    }

    /// Egress-backpressure fault: output `port` refuses words during
    /// `[start, start+len)`, pushing back into the fabric.
    pub fn stall_output(&mut self, port: usize, start: u64, len: u64) {
        self.machine
            .device_mut::<LineCardOut>(self.out_ports[port])
            .expect("line card bound")
            .stall_window(start, len);
    }

    /// Packets queued at input `port`'s line card that the fabric has
    /// not yet consumed (the in-flight packet counts as one). A
    /// multi-router fabric reads this to decide whether the upstream
    /// link may hand over more packets — receiver congestion becomes
    /// link occupancy becomes sender backpressure.
    pub fn input_backlog(&mut self, port: usize) -> usize {
        self.machine
            .device_mut::<LineCardIn>(self.in_ports[port])
            .expect("line card bound")
            .backlog()
    }

    /// Classified ingress drops aggregated across ports, indexed by
    /// [`raw_telemetry::DropReason::index`].
    pub fn drop_reasons(&self) -> [u64; raw_telemetry::DropReason::COUNT] {
        let mut out = [0u64; raw_telemetry::DropReason::COUNT];
        for s in &self.ig_stats {
            let s = s.lock().unwrap();
            for (o, d) in out.iter_mut().zip(s.drops.iter()) {
                *o += d;
            }
        }
        out
    }

    pub fn run(&mut self, cycles: u64) {
        self.machine.run(cycles);
    }

    /// Packets the ingresses dropped (bad header / expired TTL).
    pub fn dropped_count(&self) -> u64 {
        self.ig_stats
            .iter()
            .map(|s| s.lock().unwrap().packets_dropped)
            .sum()
    }

    /// Run until every offered packet has been delivered or dropped, or
    /// `max_cycles` pass. Returns true on full accounting.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        let deadline = self.machine.cycle() + max_cycles;
        while self.machine.cycle() < deadline {
            if self.delivered_count() + self.dropped_count() >= self.offered {
                return true;
            }
            self.machine.run(256);
        }
        self.delivered_count() + self.dropped_count() >= self.offered
    }

    /// Packets delivered at output `port`, in arrival order.
    pub fn delivered(&self, port: usize) -> Vec<(u64, Packet)> {
        self.out_cols[port].lock().unwrap().packets.clone()
    }

    pub fn collector(&self, port: usize) -> Arc<Mutex<OutCollector>> {
        Arc::clone(&self.out_cols[port])
    }

    pub fn delivered_count(&self) -> u64 {
        self.out_cols
            .iter()
            .map(|c| c.lock().unwrap().packets.len() as u64)
            .sum()
    }

    /// Total output parse errors across ports (must be zero in a healthy
    /// run).
    pub fn parse_errors(&self) -> u64 {
        self.out_cols
            .iter()
            .map(|c| {
                let c = c.lock().unwrap();
                c.parse_errors + c.unexpected_fragments
            })
            .sum()
    }

    /// Bits of delivered IP packets whose completion fell in
    /// `[from_cycle, to_cycle)`.
    pub fn delivered_bits_between(&self, from_cycle: u64, to_cycle: u64) -> u64 {
        self.out_cols
            .iter()
            .map(|c| {
                c.lock()
                    .unwrap()
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from_cycle..to_cycle).contains(cyc))
                    .map(|(_, p)| p.total_bytes() as u64 * 8)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Packets delivered in a cycle window.
    pub fn delivered_packets_between(&self, from_cycle: u64, to_cycle: u64) -> u64 {
        self.out_cols
            .iter()
            .map(|c| {
                c.lock()
                    .unwrap()
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from_cycle..to_cycle).contains(cyc))
                    .count() as u64
            })
            .sum()
    }

    /// Aggregate throughput over a cycle window, in Gbps at the
    /// configured clock.
    pub fn throughput_gbps(&self, from_cycle: u64, to_cycle: u64) -> f64 {
        let bits = self.delivered_bits_between(from_cycle, to_cycle) as f64;
        let secs = (to_cycle - from_cycle) as f64 / (self.cfg.raw.clock_mhz as f64 * 1e6);
        bits / secs / 1e9
    }

    /// Packets per second over a cycle window (the paper's Mpps metric,
    /// scaled).
    pub fn pps(&self, from_cycle: u64, to_cycle: u64) -> f64 {
        let pkts = self.delivered_packets_between(from_cycle, to_cycle) as f64;
        let secs = (to_cycle - from_cycle) as f64 / (self.cfg.raw.clock_mhz as f64 * 1e6);
        pkts / secs
    }

    /// Start a Figure 7-3 style utilization trace.
    pub fn start_trace(&mut self, start_cycle: u64, len: usize) {
        self.machine.start_trace(start_cycle, len);
    }

    pub fn take_trace(&mut self) -> Option<TraceWindow> {
        self.machine.take_trace()
    }

    /// The synchronous token counters of all four crossbar tiles must
    /// agree (§5.1). Returns the counts for assertion in tests.
    pub fn token_counters(&self) -> [u64; NPORTS] {
        std::array::from_fn(|i| self.xb_stats[i].lock().unwrap().quanta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<ForwardingTable> {
        use raw_lookup::RouteEntry;
        let routes: Vec<RouteEntry> = (0..4)
            .map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p))
            .collect();
        Arc::new(ForwardingTable::build(&routes))
    }

    #[test]
    fn try_new_rejects_bad_configurations() {
        let e = RawRouter::try_new(
            RouterConfig {
                quantum_words: 0,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("zero quantum must be rejected");
        assert!(e.contains("quantum"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                quantum_words: raw_net::IPV4_HEADER_WORDS,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("header-sized quantum must be rejected");
        assert!(e.contains("IP header"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                asm_crossbar: true,
                weights: [2, 1, 1, 1],
                quantum_words: 16,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("weighted token with asm crossbar must be rejected");
        assert!(e.contains("token"), "{e}");

        // A non-token arbiter needs VOQ queueing, unicast traffic, the
        // native crossbar cores, and the shortest-first ring policy.
        let islip = raw_sched::SchedKind::Islip { iters: 4 };
        let e = RawRouter::try_new(
            RouterConfig {
                arbiter: islip,
                ..RouterConfig::default()
            },
            table(),
        )
        .err()
        .expect("scheduler without VOQ must be rejected");
        assert!(e.contains("VOQ"), "{e}");

        let voq_base = RouterConfig {
            arbiter: islip,
            queueing: crate::programs::IngressQueueing::Voq,
            cut_through: false,
            ..RouterConfig::default()
        };
        let e = RawRouter::try_new(
            RouterConfig {
                multicast: true,
                quantum_words: 16,
                ..voq_base.clone()
            },
            table(),
        )
        .err()
        .expect("scheduler with multicast must be rejected");
        assert!(e.contains("multicast"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                asm_crossbar: true,
                quantum_words: 16,
                ..voq_base.clone()
            },
            table(),
        )
        .err()
        .expect("scheduler with asm crossbar must be rejected");
        assert!(e.contains("native"), "{e}");

        let e = RawRouter::try_new(
            RouterConfig {
                policy: SchedPolicy::CwFirst,
                ..voq_base.clone()
            },
            table(),
        )
        .err()
        .expect("scheduler with CwFirst must be rejected");
        assert!(e.contains("shortest-first"), "{e}");

        // And the valid scheduler configuration is accepted.
        assert!(RawRouter::try_new(voq_base, table()).is_ok());
    }

    #[test]
    fn try_new_accepts_the_default_configuration() {
        assert!(RawRouter::try_new(RouterConfig::default(), table()).is_ok());
    }
}
