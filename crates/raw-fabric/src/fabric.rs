//! The fabric executor: M routers + links, advanced in barrier-
//! synchronized epochs.
//!
//! One epoch = `epoch_cycles` router cycles. Within an epoch every
//! router runs completely independently (no shared state, no message
//! passing); all cross-router transfers — collecting completed packets
//! from egress collectors into link queues, draining link queues into
//! the next stage's input line cards, injecting external arrivals, and
//! scheduling credit-backpressure stalls — happen at the epoch boundary,
//! in a single-threaded coordinator, in fixed link order. Because the
//! boundary is sequential and deterministic and the intra-epoch work is
//! independent per router, running the routers on worker threads (one
//! per router, two [`std::sync::Barrier`] waits per epoch) produces
//! *bit-identical* results to running them one after another on the
//! coordinator thread. [`RawFabric::fingerprint`] digests everything
//! observable so the equivalence is asserted, not assumed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use serde::{Deserialize, Serialize};

use raw_lookup::{ForwardingTable, RouteEntry};
use raw_net::Packet;
use raw_telemetry::{Histogram, LinkStats, StageLatency};
use raw_xbar::{IngressQueueing, OutCollector, RawRouter, RouterConfig, NPORTS};

use crate::link::FabricLink;
use crate::shard::{partition_routers, Executor, LinkB, ShardMutant, ShardPlan};
use crate::topology::{self, dst_ext_port, stamp_middle, Topology, TopologyPlan};

// The threaded executor hands each router to a worker thread; everything
// a router owns must therefore be Send. Checked here so a non-Send
// device or sink added later fails at compile time, not at runtime.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RawRouter>();
};

/// How injection picks the middle-stage route for each new flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SprayMode {
    /// FNV-1a of `(source address, destination external port)` modulo
    /// the spray width: stateless, perfectly reproducible, and
    /// flow-pinned by construction.
    Hash,
    /// Pin each new flow to the uplink with the fewest queued +
    /// in-flight packets at first sight (deterministic tie-break toward
    /// lower indices). Adapts to skew; still flow-pinned, so intra-flow
    /// order survives.
    LeastOccupancy,
}

impl SprayMode {
    pub fn name(&self) -> &'static str {
        match self {
            SprayMode::Hash => "hash",
            SprayMode::LeastOccupancy => "least-occupancy",
        }
    }
}

/// Why a [`FabricConfig`] is rejected before any fabric is built. Each
/// class maps onto the `RV7xx` diagnostic the `raw-verify` fabric
/// analysis reports for the same defect ([`FabricConfigError::code`]),
/// so the dynamic gate and the static proof speak one vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricConfigError {
    /// `epoch_cycles == 0`: the credit protocol samples once per epoch.
    ZeroEpoch,
    /// Store-and-forward egress has no per-epoch emission bound to size
    /// link credits against.
    StoreAndForwardEgress,
    /// A link that drains zero packets per epoch never empties.
    ZeroLinkRate,
    /// Link capacity cannot hold the stall threshold plus one slot of
    /// progress room.
    CapacityBelowBurst { capacity: usize, bound: usize },
}

impl FabricConfigError {
    /// The `RV7xx` code the static verifier assigns this failure class.
    pub fn code(&self) -> &'static str {
        match self {
            FabricConfigError::ZeroEpoch => "RV705",
            FabricConfigError::StoreAndForwardEgress => "RV704",
            FabricConfigError::ZeroLinkRate => "RV702",
            FabricConfigError::CapacityBelowBurst { .. } => "RV701",
        }
    }
}

impl std::fmt::Display for FabricConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricConfigError::ZeroEpoch => write!(f, "epoch_cycles must be positive"),
            FabricConfigError::StoreAndForwardEgress => write!(
                f,
                "the fabric composes cut-through routers: store-and-forward egress has no \
                 per-epoch emission bound to size link credits against"
            ),
            FabricConfigError::ZeroLinkRate => {
                write!(f, "link rate must be at least 1 packet/epoch")
            }
            FabricConfigError::CapacityBelowBurst { capacity, bound } => write!(
                f,
                "link capacity {capacity} cannot hold the stall threshold plus one epoch \
                 burst ({bound} packets)"
            ),
        }
    }
}

impl std::error::Error for FabricConfigError {}

/// Why [`RawFabric::try_new`] refused to build a fabric.
#[derive(Clone, Debug)]
pub enum FabricError {
    /// The scalar config check ([`FabricConfig::validate`]) failed.
    Config(FabricConfigError),
    /// The whole-fabric static verifier found `RV5xx`–`RV7xx`
    /// violations: the topology + config combination could deadlock,
    /// misroute, or overflow a link even though each scalar is sane.
    Verify(Vec<raw_verify::Diag>),
    /// A member router rejected the per-router configuration.
    Router(String),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Config(e) => write!(f, "{} ({})", e, e.code()),
            FabricError::Verify(diags) => {
                write!(
                    f,
                    "fabric verification failed with {} finding(s):",
                    diags.len()
                )?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            FabricError::Router(e) => write!(f, "router configuration rejected: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<FabricConfigError> for FabricError {
    fn from(e: FabricConfigError) -> FabricError {
        FabricError::Config(e)
    }
}

/// Fabric-wide configuration. `link_capacity` / `link_rate` of 0 mean
/// "derive from the epoch size" (wire-speed drain, 3 epochs of buffer).
#[derive(Clone, Debug)]
pub struct FabricConfig {
    pub topology: Topology,
    pub epoch_cycles: u64,
    pub spray: SprayMode,
    pub link_capacity: usize,
    pub link_rate: usize,
    /// Guaranteed link-drain slots per epoch even when the receiver's
    /// backlog exceeds its input window. The default of 1 is the escape
    /// valve that turns a spray-skew freeze on the folded topology's
    /// leaf<->spine cycle into a trickle (see [`RawFabric`]'s boundary
    /// step 2); 0 reconstructs the historical pre-fix behavior, which
    /// the static verifier rejects on cyclic topologies (`RV503`).
    pub min_receive_window: usize,
    /// Configuration applied to every member router.
    pub router: RouterConfig,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            topology: Topology::Clos16,
            epoch_cycles: 512,
            spray: SprayMode::Hash,
            link_capacity: 0,
            link_rate: 0,
            min_receive_window: 1,
            // VOQ ingress is load-bearing, not a preference: the folded
            // topology's leaf<->spine links form a cyclic channel
            // dependency, and FIFO head-of-line blocking couples that
            // cycle into the link-credit loop — a stalled uplink head
            // packet blocks locally-deliverable packets behind it,
            // input backlogs pin every drain window at zero, and the
            // fabric deadlocks under sustained load. Per-output virtual
            // queues keep the external sinks draining, which breaks the
            // cycle (the 3-stage Clos is feed-forward and never cycles,
            // but gets VOQ's HOL win for free).
            router: RouterConfig {
                quantum_words: 16,
                cut_through: true,
                queueing: IngressQueueing::Voq,
                ..RouterConfig::default()
            },
        }
    }
}

impl FabricConfig {
    /// Worst-case packets one egress port can complete in one epoch
    /// (quantum + tag word per packet, plus margin for a packet that
    /// straddles the boundary). This is the stall threshold the credit
    /// check compares link credits against, and the declared emission
    /// bound the static verifier's symbolic occupancy proof re-derives.
    pub fn emission_bound(&self) -> usize {
        (self.epoch_cycles as usize / (self.router.quantum_words + 1)) + 2
    }

    /// Per-epoch link drain rate after applying the derive-from-epoch
    /// default.
    pub fn resolved_rate(&self) -> usize {
        if self.link_rate > 0 {
            self.link_rate
        } else {
            self.emission_bound()
        }
    }

    /// Link queue capacity after applying the derive-from-epoch default.
    pub fn resolved_capacity(&self) -> usize {
        if self.link_capacity > 0 {
            self.link_capacity
        } else {
            3 * self.emission_bound()
        }
    }

    pub fn validate(&self) -> Result<(), FabricConfigError> {
        if self.epoch_cycles == 0 {
            return Err(FabricConfigError::ZeroEpoch);
        }
        if !self.router.cut_through {
            return Err(FabricConfigError::StoreAndForwardEgress);
        }
        let (rate, cap, bound) = (
            self.resolved_rate(),
            self.resolved_capacity(),
            self.emission_bound(),
        );
        if rate < 1 {
            return Err(FabricConfigError::ZeroLinkRate);
        }
        // The no-overflow invariant: if credits >= bound the sender may
        // emit freely (at most `bound` arrivals next boundary); if
        // credits < bound the sender is stalled for the whole next
        // epoch and nothing arrives. Capacity must leave room for one
        // full burst above the stall threshold.
        if cap < bound + 1 {
            return Err(FabricConfigError::CapacityBelowBurst {
                capacity: cap,
                bound,
            });
        }
        Ok(())
    }
}

enum PendingPayload {
    Pkt(Packet),
    Raw(Vec<u32>),
}

struct PendingOffer {
    release: u64,
    seq: u64,
    ext: usize,
    payload: PendingPayload,
}

#[derive(Clone, Copy)]
struct Life {
    inject: u64,
    stage_entry: u64,
}

/// The serializable outcome summary of a fabric run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricSummary {
    pub topology: String,
    pub spray: String,
    pub routers: usize,
    pub ext_ports: usize,
    pub epoch_cycles: u64,
    pub epochs: u64,
    pub cycles: u64,
    pub offered: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub backpressure_epochs: u64,
    pub links: Vec<LinkStats>,
    /// Per-stage traversal latency (ingress/leaf, middle/spine, egress).
    pub stages: Vec<StageLatency>,
    pub total_latency: StageLatency,
    pub flow_order_violations: u64,
}

/// A multi-router fabric: the composition the paper's §8.5 calls for.
pub struct RawFabric {
    pub cfg: FabricConfig,
    pub plan: TopologyPlan,
    routers: Vec<Mutex<RawRouter>>,
    /// Mutex-wrapped for the sharded executor: a link is touched by its
    /// sender's shard in phase A and its receiver's shard in phase B,
    /// so no static ownership split covers both phases. The locks are
    /// uncontended by construction (each phase partitions the links).
    links: Vec<Mutex<FabricLink>>,
    /// Per link: the sending router's collector for the link's port.
    link_cols: Vec<Arc<Mutex<OutCollector>>>,
    /// Per external output: the egress router's collector (never
    /// drained — this is the fabric's delivered stream).
    ext_cols: Vec<Arc<Mutex<OutCollector>>>,
    /// Scan cursor into each external collector (latency recording).
    ext_seen: Vec<usize>,
    pending: Vec<PendingOffer>,
    next_pending: usize,
    offered: u64,
    delivered: u64,
    epochs_run: u64,
    /// Flow -> pinned middle (LeastOccupancy mode only). Lookup-only:
    /// never iterated, so the map's order cannot leak into results.
    flow_pins: HashMap<(u32, u8), u8>,
    /// (src, ip id) -> injection/stage timestamps. Lookup-only.
    life: HashMap<(u32, u16), Life>,
    /// One histogram per topology stage level.
    stage_hist: Vec<Histogram>,
    total_hist: Histogram,
    backpressure_epochs: u64,
    /// Seeded executor bug for the differential battery (tests only).
    shard_mutant: ShardMutant,
}

/// Phase-B latency event, buffered by the draining shard and applied by
/// the sequential coordinator tail: the packet keyed `key` left a
/// router of stage `stage` at this boundary.
struct LatEvent {
    key: (u32, u16),
    stage: usize,
}

fn fnv_flow(src: u32, dst_ext: u8) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.to_be_bytes().into_iter().chain([dst_ext]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl RawFabric {
    pub fn try_new(cfg: FabricConfig) -> Result<RawFabric, FabricError> {
        cfg.validate()?;
        let plan = topology::plan(cfg.topology);
        // The whole-fabric static gate: deadlock freedom, routing
        // soundness, and the symbolic credit-sizing proof must all hold
        // before a single router is instantiated.
        let verdict = crate::verify::verify_spec(&plan, &cfg);
        if !verdict.diags.is_empty() {
            return Err(FabricError::Verify(verdict.diags));
        }
        // One table per distinct route set: every router of a Clos stage
        // holds the same routes, so a fabric builds a handful of tables,
        // not one per router. A router on the DIR engine builds the
        // shared DIR table once; the compact 16-bit split keeps it small.
        let mut tables: HashMap<&[RouteEntry], Arc<ForwardingTable>> = HashMap::new();
        let mut routers = Vec::with_capacity(plan.routers.len());
        for spec in &plan.routers {
            let table = tables
                .entry(&spec.routes)
                .or_insert_with(|| Arc::new(ForwardingTable::build_with_l1_bits(&spec.routes, 16)));
            routers.push(Mutex::new(
                RawRouter::try_new_with_telemetry(cfg.router.clone(), Arc::clone(table), None)
                    .map_err(FabricError::Router)?,
            ));
        }
        let (rate, capacity) = (cfg.resolved_rate(), cfg.resolved_capacity());
        let links: Vec<Mutex<FabricLink>> = plan
            .links
            .iter()
            .enumerate()
            .map(|(i, &spec)| Mutex::new(FabricLink::new(i, spec, capacity, rate)))
            .collect();
        let link_cols = plan
            .links
            .iter()
            .map(|l| routers[l.from.0].lock().unwrap().collector(l.from.1))
            .collect();
        let ext_cols: Vec<_> = plan
            .ext_out
            .iter()
            .map(|&(r, p)| routers[r].lock().unwrap().collector(p))
            .collect();
        let n_ext = plan.ext_out.len();
        Ok(RawFabric {
            plan,
            routers,
            links,
            link_cols,
            ext_cols,
            ext_seen: vec![0; n_ext],
            pending: Vec::new(),
            next_pending: 0,
            offered: 0,
            delivered: 0,
            epochs_run: 0,
            flow_pins: HashMap::new(),
            life: HashMap::new(),
            stage_hist: (0..cfg.topology.stages())
                .map(|_| Histogram::for_cycles())
                .collect(),
            total_hist: Histogram::for_cycles(),
            backpressure_epochs: 0,
            shard_mutant: ShardMutant::None,
            cfg,
        })
    }

    pub fn ext_ports(&self) -> usize {
        self.plan.ext_out.len()
    }

    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    pub fn cycle(&self) -> u64 {
        self.epochs_run * self.cfg.epoch_cycles
    }

    /// Queue one packet for external input `ext` at `release`. The
    /// destination external port comes from the address second octet
    /// (the [`topology::fabric_addr`] scheme); the middle octet is
    /// stamped at injection, so callers build addresses with any `m`.
    pub fn offer(&mut self, ext: usize, release: u64, pkt: &Packet) {
        assert!(ext < self.ext_ports(), "external input {ext} out of range");
        assert!(
            dst_ext_port(pkt) < self.ext_ports(),
            "destination external port {} out of range",
            dst_ext_port(pkt)
        );
        let seq = self.pending.len() as u64;
        self.pending.push(PendingOffer {
            release,
            seq,
            ext,
            payload: PendingPayload::Pkt(pkt.clone()),
        });
        self.offered += 1;
    }

    /// Queue a raw (possibly corrupt) word stream — the fault-injection
    /// path. No spray stamp: a mangled header is rejected at the
    /// stage-1 ingress parse, and the experiment address scheme makes
    /// even an unstamped survivor route correctly via middle 0.
    pub fn offer_raw(&mut self, ext: usize, release: u64, words: Vec<u32>) {
        assert!(ext < self.ext_ports(), "external input {ext} out of range");
        let seq = self.pending.len() as u64;
        self.pending.push(PendingOffer {
            release,
            seq,
            ext,
            payload: PendingPayload::Raw(words),
        });
        self.offered += 1;
    }

    /// Freeze one inter-router link's drain for `len` epochs (fault
    /// injection; the credit machinery turns the standing queue into
    /// sender backpressure automatically).
    pub fn stall_link(&mut self, link: usize, start_epoch: u64, len: u64) {
        self.links[link].lock().unwrap().stall(start_epoch, len);
    }

    /// Install a seeded sharded-executor bug (differential battery
    /// only). The healthy executor must never be run with one of these.
    #[doc(hidden)]
    pub fn set_shard_mutant(&mut self, m: ShardMutant) {
        self.shard_mutant = m;
    }

    /// Pause the line card behind external input `ext` (idle frames
    /// during the window).
    pub fn pause_ext_input(&mut self, ext: usize, start: u64, len: u64) {
        let (r, p) = self.plan.ext_in[ext];
        self.routers[r].lock().unwrap().pause_input(p, start, len);
    }

    /// Backpressure external output `ext` for a cycle window.
    pub fn stall_ext_output(&mut self, ext: usize, start: u64, len: u64) {
        let (r, p) = self.plan.ext_out[ext];
        self.routers[r].lock().unwrap().stall_output(p, start, len);
    }

    fn is_local(&self, ingress_router: usize, dst_ext: usize) -> bool {
        match self.plan.topology {
            Topology::Folded8 => dst_ext / 2 == ingress_router,
            _ => false,
        }
    }

    fn choose_middle(
        &mut self,
        links: &[Mutex<FabricLink>],
        ingress_router: usize,
        pkt: &Packet,
    ) -> u8 {
        let w = self.plan.topology.spray_width();
        let d = dst_ext_port(pkt);
        if w <= 1 || self.is_local(ingress_router, d) {
            return 0;
        }
        let key = (pkt.header.src, d as u8);
        match self.cfg.spray {
            SprayMode::Hash => (fnv_flow(key.0, key.1) % w as u64) as u8,
            SprayMode::LeastOccupancy => {
                if let Some(&m) = self.flow_pins.get(&key) {
                    return m;
                }
                let mut best = 0u8;
                let mut best_occ = usize::MAX;
                for (m, &li) in self.plan.uplinks[ingress_router].iter().enumerate() {
                    let l = links[li].lock().unwrap();
                    let occ = l.occupancy() + l.inflight_sprayed;
                    if occ < best_occ {
                        best_occ = occ;
                        best = m as u8;
                    }
                }
                self.flow_pins.insert(key, best);
                best
            }
        }
    }

    /// Boundary phase A for one link (sender-side): collect packets that
    /// finished crossing the sender during the previous epoch into the
    /// link queue. Touches only the sender's per-port collector and the
    /// link's own queue, so phase-A work on different links commutes.
    fn collect_link(
        links: &[Mutex<FabricLink>],
        link_cols: &[Arc<Mutex<OutCollector>>],
        li: usize,
    ) {
        let done: Vec<(u64, Packet)> = std::mem::take(&mut link_cols[li].lock().unwrap().packets);
        let mut link = links[li].lock().unwrap();
        for (_, p) in done {
            link.inflight_sprayed = link.inflight_sprayed.saturating_sub(1);
            link.push(p);
        }
    }

    /// [`RawFabric::collect_link`] with the seeded
    /// [`ShardMutant::DelayBoundaryLink`] bug: this boundary pushes the
    /// *previous* epoch's stashed packets and stashes the fresh ones.
    fn collect_link_delayed(
        links: &[Mutex<FabricLink>],
        link_cols: &[Arc<Mutex<OutCollector>>],
        li: usize,
        stash: &mut Vec<Packet>,
    ) {
        let done: Vec<(u64, Packet)> = std::mem::take(&mut link_cols[li].lock().unwrap().packets);
        let release: Vec<Packet> = std::mem::take(stash);
        stash.extend(done.into_iter().map(|(_, p)| p));
        let mut link = links[li].lock().unwrap();
        for p in release {
            link.inflight_sprayed = link.inflight_sprayed.saturating_sub(1);
            link.push(p);
        }
    }

    /// Boundary phase B for one link (receiver-side): drain the link at
    /// its rate into the receiver's line card, bounded by the receiver's
    /// input window — a congested router keeps a backlog, the link
    /// refuses to hand over more, the queue fills, and the credit check
    /// turns that into sender stalls: hop-by-hop backpressure with
    /// nothing hidden in unbounded buffers. The window never closes
    /// completely (`min_receive_window`, default one packet per epoch):
    /// the folded topology's leaf<->spine cycle can otherwise deadlock
    /// when a skewed spray fills one VOQ, VOQ admission blocks the
    /// ingress line card, and every drain window along the cycle pins
    /// at zero — the escape slot turns that permanent freeze into a
    /// trickle that drains once the skew passes. Setting it to 0
    /// reconstructs that historical deadlock, which `try_new`'s static
    /// gate rejects (RV503) on cyclic topologies. Only injected link
    /// faults (stall windows) may freeze a drain outright.
    ///
    /// Latency bookkeeping against the shared life map is *not* done
    /// here: each drained packet becomes a [`LatEvent`] the sequential
    /// coordinator tail applies. Touches only the link's queue and the
    /// receiver's per-port line card, so phase-B work on different
    /// links commutes (each packet is on exactly one link, so the
    /// buffered events have unique keys and commute too).
    fn drain_link(
        cfg: &FabricConfig,
        routers: &[Mutex<RawRouter>],
        links: &[Mutex<FabricLink>],
        lb: &LinkB,
        epoch: u64,
        t: u64,
        events: &mut Vec<LatEvent>,
    ) {
        let window = 2 * cfg.emission_bound();
        let backlog = routers[lb.to_r].lock().unwrap().input_backlog(lb.to_p);
        let allowed = window.saturating_sub(backlog).max(cfg.min_receive_window);
        for p in links[lb.li].lock().unwrap().drain(epoch, allowed) {
            events.push(LatEvent {
                key: (p.header.src, p.header.id),
                stage: lb.stage,
            });
            routers[lb.to_r].lock().unwrap().offer(lb.to_p, t, &p);
        }
    }

    /// Apply the phase-B latency events: the packet left a router of
    /// stage `stage` at boundary time `t`. Events have unique keys (one
    /// packet crosses one link per boundary), so application order
    /// across shards cannot matter.
    fn apply_lat_events(&mut self, t: u64, events: Vec<LatEvent>) {
        for e in events {
            if let Some(life) = self.life.get_mut(&e.key) {
                self.stage_hist[e.stage].record(t - life.stage_entry);
                life.stage_entry = t;
            }
        }
    }

    /// The sequential boundary tail: external delivery accounting,
    /// injection (with spray selection against shared flow state), and
    /// the credit check. Order-sensitive, so every executor runs it on
    /// exactly one thread, after all phase-B drains.
    fn boundary_tail(&mut self, routers: &[Mutex<RawRouter>], links: &[Mutex<FabricLink>], t: u64) {
        let t_end = t + self.cfg.epoch_cycles;
        let last = self.stage_hist.len() - 1;

        // 3. Account external deliveries since the last boundary.
        for (ext, col) in self.ext_cols.iter().enumerate() {
            let col = col.lock().unwrap();
            for (cycle, p) in &col.packets[self.ext_seen[ext]..] {
                self.delivered += 1;
                if let Some(life) = self.life.remove(&(p.header.src, p.header.id)) {
                    self.stage_hist[last].record(cycle - life.stage_entry);
                    self.total_hist.record(cycle - life.inject);
                }
            }
            self.ext_seen[ext] = col.packets.len();
        }

        // 4. Inject external arrivals released inside this epoch.
        while self.next_pending < self.pending.len()
            && self.pending[self.next_pending].release < t_end
        {
            let po = &mut self.pending[self.next_pending];
            let (r, port) = self.plan.ext_in[po.ext];
            let release = po.release.max(t);
            match std::mem::replace(&mut po.payload, PendingPayload::Raw(Vec::new())) {
                PendingPayload::Pkt(mut p) => {
                    let m = self.choose_middle(links, r, &p);
                    stamp_middle(&mut p, m);
                    let d = dst_ext_port(&p);
                    if self.plan.topology.spray_width() > 1 && !self.is_local(r, d) {
                        let li = self.plan.uplinks[r][m as usize];
                        links[li].lock().unwrap().inflight_sprayed += 1;
                    }
                    self.life.insert(
                        (p.header.src, p.header.id),
                        Life {
                            inject: release,
                            stage_entry: release,
                        },
                    );
                    routers[r].lock().unwrap().offer(port, release, &p);
                }
                PendingPayload::Raw(words) => {
                    routers[r].lock().unwrap().offer_raw(port, release, words);
                }
            }
            self.next_pending += 1;
        }

        // 5. Credit check: stall any sender whose link cannot absorb a
        //    full epoch of emission.
        let bound = self.cfg.emission_bound();
        for link in links {
            let mut l = link.lock().unwrap();
            let credits = l.sample_credits();
            if credits < bound {
                let (r, p) = l.spec.from;
                routers[r]
                    .lock()
                    .unwrap()
                    .stall_output(p, t, self.cfg.epoch_cycles);
                l.stats.backpressure_epochs += 1;
                self.backpressure_epochs += 1;
            }
        }
    }

    /// The full single-threaded boundary at the start of epoch
    /// `epochs_run`: phase A for every link, phase B for every link
    /// (both in the shard plan's order), then the sequential tail. The
    /// reference and threaded executors call this directly; the sharded
    /// executor distributes phases A and B and runs only the tail here.
    fn boundary_seq(
        &mut self,
        sp: &ShardPlan,
        routers: &[Mutex<RawRouter>],
        links: &[Mutex<FabricLink>],
        link_cols: &[Arc<Mutex<OutCollector>>],
    ) {
        let epoch = self.epochs_run;
        let t = epoch * self.cfg.epoch_cycles;
        for sls in &sp.sender_links {
            for &li in sls {
                Self::collect_link(links, link_cols, li);
            }
        }
        let mut events = Vec::new();
        for rls in &sp.recv_links {
            for lb in rls {
                Self::drain_link(&self.cfg, routers, links, lb, epoch, t, &mut events);
            }
        }
        self.apply_lat_events(t, events);
        self.boundary_tail(routers, links, t);
    }

    /// Everything offered is now delivered or dropped (and injection is
    /// complete).
    fn closed(&self, routers: &[Mutex<RawRouter>]) -> bool {
        self.next_pending == self.pending.len()
            && self.delivered + Self::dropped_of(routers) >= self.offered
    }

    fn dropped_of(routers: &[Mutex<RawRouter>]) -> u64 {
        routers
            .iter()
            .map(|r| r.lock().unwrap().dropped_count())
            .sum()
    }

    fn advance_with(&mut self, exec: Executor, max_epochs: u64, stop_when_closed: bool) -> bool {
        self.pending[self.next_pending..].sort_by_key(|p| (p.release, p.seq));
        let k = self.cfg.epoch_cycles;
        let routers = std::mem::take(&mut self.routers);
        let links = std::mem::take(&mut self.links);
        let link_cols = std::mem::take(&mut self.link_cols);
        let limit = max_epochs;
        let done = match exec {
            Executor::Reference => {
                let sp = ShardPlan::build(
                    &self.plan,
                    &partition_routers(&self.plan, 1),
                    ShardMutant::None,
                );
                let mut done = false;
                while self.epochs_run < limit {
                    self.boundary_seq(&sp, &routers, &links, &link_cols);
                    if stop_when_closed && self.closed(&routers) {
                        done = true;
                        break;
                    }
                    for r in &routers {
                        r.lock().unwrap().run(k);
                    }
                    self.epochs_run += 1;
                }
                done || (stop_when_closed && self.closed(&routers))
            }
            Executor::Threaded => {
                let sp = ShardPlan::build(
                    &self.plan,
                    &partition_routers(&self.plan, 1),
                    ShardMutant::None,
                );
                let barrier = Barrier::new(routers.len() + 1);
                let stop = AtomicBool::new(false);
                crossbeam::scope(|s| {
                    for r in &routers {
                        let barrier = &barrier;
                        let stop = &stop;
                        s.spawn(move |_| loop {
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            r.lock().unwrap().run(k);
                            barrier.wait();
                        });
                    }
                    let mut done = false;
                    while self.epochs_run < limit {
                        self.boundary_seq(&sp, &routers, &links, &link_cols);
                        if stop_when_closed && self.closed(&routers) {
                            done = true;
                            break;
                        }
                        barrier.wait(); // workers start the epoch
                        barrier.wait(); // workers finished the epoch
                        self.epochs_run += 1;
                    }
                    stop.store(true, Ordering::SeqCst);
                    barrier.wait(); // release workers into the stop check
                    done || (stop_when_closed && self.closed(&routers))
                })
                .expect("fabric worker panicked")
            }
            Executor::Sharded { shards } => {
                let want = if shards == 0 {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    shards
                };
                let assign = partition_routers(&self.plan, want);
                let sp = ShardPlan::build(&self.plan, &assign, self.shard_mutant);
                if self.shard_mutant == ShardMutant::SkipBarrier {
                    // The seeded missing-barrier bug, emulated
                    // deterministically: each shard runs phase A then
                    // phase B back-to-back in shard order, so an early
                    // shard drains links whose sender lives in a later
                    // shard before that shard has collected — exactly
                    // the stale exchange the lost barrier would allow,
                    // without the nondeterminism of a real race.
                    let mut done = false;
                    while self.epochs_run < limit {
                        let epoch = self.epochs_run;
                        let t = epoch * k;
                        let mut events = Vec::new();
                        for sh in 0..sp.routers_of.len() {
                            for &li in &sp.sender_links[sh] {
                                Self::collect_link(&links, &link_cols, li);
                            }
                            for lb in &sp.recv_links[sh] {
                                Self::drain_link(
                                    &self.cfg,
                                    &routers,
                                    &links,
                                    lb,
                                    epoch,
                                    t,
                                    &mut events,
                                );
                            }
                        }
                        self.apply_lat_events(t, events);
                        self.boundary_tail(&routers, &links, t);
                        if stop_when_closed && self.closed(&routers) {
                            done = true;
                            break;
                        }
                        for rs in &sp.routers_of {
                            for &r in rs {
                                routers[r].lock().unwrap().run(k);
                            }
                        }
                        self.epochs_run += 1;
                    }
                    done || (stop_when_closed && self.closed(&routers))
                } else {
                    self.run_sharded(&sp, &routers, &links, &link_cols, limit, stop_when_closed)
                }
            }
        };
        self.routers = routers;
        self.links = links;
        self.link_cols = link_cols;
        done
    }

    /// The sharded executor: one worker per shard runs phase A over its
    /// sender-owned links, phase B over its receiver-owned links, and
    /// its own routers' epochs, with five barrier waits per epoch; the
    /// coordinator runs the sequential tail between phases B and the
    /// router runs. See the `shard` module docs for why this is
    /// bit-identical to the reference.
    #[allow(clippy::too_many_arguments)]
    fn run_sharded(
        &mut self,
        sp: &ShardPlan,
        routers: &[Mutex<RawRouter>],
        links: &[Mutex<FabricLink>],
        link_cols: &[Arc<Mutex<OutCollector>>],
        limit: u64,
        stop_when_closed: bool,
    ) -> bool {
        let s = sp.routers_of.len();
        let k = self.cfg.epoch_cycles;
        if s == 1 {
            // One shard owns every router and every link: there is
            // nothing to synchronize with, so run the shard's schedule
            // inline on the caller — no workers, no barriers. (The
            // DelayBoundaryLink mutant still applies: it is a phase-A
            // bug, not a synchronization bug.)
            let mut stash: Vec<Packet> = Vec::new();
            let mut done = false;
            while self.epochs_run < limit {
                let epoch = self.epochs_run;
                let t = epoch * k;
                for &li in &sp.sender_links[0] {
                    if self.shard_mutant == ShardMutant::DelayBoundaryLink(li) {
                        Self::collect_link_delayed(links, link_cols, li, &mut stash);
                    } else {
                        Self::collect_link(links, link_cols, li);
                    }
                }
                let mut events = Vec::new();
                for lb in &sp.recv_links[0] {
                    Self::drain_link(&self.cfg, routers, links, lb, epoch, t, &mut events);
                }
                self.apply_lat_events(t, events);
                self.boundary_tail(routers, links, t);
                if stop_when_closed && self.closed(routers) {
                    done = true;
                    break;
                }
                for &r in &sp.routers_of[0] {
                    routers[r].lock().unwrap().run(k);
                }
                self.epochs_run += 1;
            }
            return done || (stop_when_closed && self.closed(routers));
        }
        let cfg = self.cfg.clone();
        let mutant = self.shard_mutant;
        let barrier = Barrier::new(s + 1);
        let stop = AtomicBool::new(false);
        let skip_run = AtomicBool::new(false);
        let epoch_now = AtomicU64::new(self.epochs_run);
        let event_bufs: Vec<Mutex<Vec<LatEvent>>> =
            (0..s).map(|_| Mutex::new(Vec::new())).collect();
        // DelayBoundaryLink stash: the mutated link's collected packets
        // wait here one epoch before entering the queue.
        let delay_stash: Mutex<Vec<Packet>> = Mutex::new(Vec::new());
        crossbeam::scope(|scope| {
            for (sh, ebuf) in event_bufs.iter().enumerate() {
                let (barrier, stop, skip_run, epoch_now) = (&barrier, &stop, &skip_run, &epoch_now);
                let (routers, links, link_cols) = (routers, links, link_cols);
                let (sp, cfg) = (&*sp, &cfg);
                let stash = &delay_stash;
                scope.spawn(move |_| loop {
                    barrier.wait(); // 1: epoch gate (coordinator published epoch_now)
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let epoch = epoch_now.load(Ordering::SeqCst);
                    let t = epoch * k;
                    // Phase A: collect this shard's sender-owned links.
                    for &li in &sp.sender_links[sh] {
                        if mutant == ShardMutant::DelayBoundaryLink(li) {
                            Self::collect_link_delayed(
                                links,
                                link_cols,
                                li,
                                &mut stash.lock().unwrap(),
                            );
                        } else {
                            Self::collect_link(links, link_cols, li);
                        }
                    }
                    barrier.wait(); // 2: all phase A done fabric-wide
                                    // Phase B: drain this shard's receiver-owned links,
                                    // buffering latency events for the coordinator tail.
                    let mut events = Vec::new();
                    for lb in &sp.recv_links[sh] {
                        Self::drain_link(cfg, routers, links, lb, epoch, t, &mut events);
                    }
                    *ebuf.lock().unwrap() = events;
                    barrier.wait(); // 3: all phase B done; tail runs
                    barrier.wait(); // 4: tail done
                    if !skip_run.load(Ordering::SeqCst) {
                        for &r in &sp.routers_of[sh] {
                            routers[r].lock().unwrap().run(k);
                        }
                    }
                    barrier.wait(); // 5: epoch's router work done
                });
            }
            let mut done = false;
            loop {
                if self.epochs_run >= limit {
                    stop.store(true, Ordering::SeqCst);
                    barrier.wait(); // release workers into the stop check
                    break;
                }
                let epoch = self.epochs_run;
                let t = epoch * k;
                epoch_now.store(epoch, Ordering::SeqCst);
                barrier.wait(); // 1
                barrier.wait(); // 2
                barrier.wait(); // 3
                for ebuf in &event_bufs {
                    let events = std::mem::take(&mut *ebuf.lock().unwrap());
                    self.apply_lat_events(t, events);
                }
                self.boundary_tail(routers, links, t);
                if stop_when_closed && self.closed(routers) {
                    done = true;
                    skip_run.store(true, Ordering::SeqCst);
                    stop.store(true, Ordering::SeqCst);
                    barrier.wait(); // 4: workers skip their router runs
                    barrier.wait(); // 5
                    barrier.wait(); // 1: workers observe stop and exit
                    break;
                }
                barrier.wait(); // 4: tail done, workers run routers
                barrier.wait(); // 5: routers done
                self.epochs_run += 1;
            }
            done || (stop_when_closed && self.closed(routers))
        })
        .expect("fabric shard worker panicked")
    }

    /// Advance exactly `n` more epochs (fixed horizon — for throughput
    /// windows). `threaded` selects the per-router parallel executor;
    /// results are bit-identical either way.
    pub fn run_epochs(&mut self, n: u64, threaded: bool) {
        self.run_epochs_with(
            n,
            if threaded {
                Executor::Threaded
            } else {
                Executor::Reference
            },
        );
    }

    /// Advance exactly `n` more epochs on the chosen executor.
    pub fn run_epochs_with(&mut self, n: u64, exec: Executor) {
        self.advance_with(exec, self.epochs_run + n, false);
    }

    /// Run until every offered packet is delivered or dropped, or
    /// `max_epochs` total epochs pass. Returns true on full accounting.
    pub fn run_until_drained(&mut self, max_epochs: u64, threaded: bool) -> bool {
        self.run_until_drained_with(
            max_epochs,
            if threaded {
                Executor::Threaded
            } else {
                Executor::Reference
            },
        )
    }

    /// [`RawFabric::run_until_drained`] on the chosen executor.
    pub fn run_until_drained_with(&mut self, max_epochs: u64, exec: Executor) -> bool {
        self.advance_with(exec, max_epochs, true)
    }

    pub fn offered(&self) -> u64 {
        self.offered
    }

    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    pub fn dropped_count(&self) -> u64 {
        Self::dropped_of(&self.routers)
    }

    pub fn parse_errors(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| r.lock().unwrap().parse_errors())
            .sum()
    }

    /// Delivered packets at external output `ext`, in arrival order.
    pub fn delivered(&self, ext: usize) -> Vec<(u64, Packet)> {
        self.ext_cols[ext].lock().unwrap().packets.clone()
    }

    /// Fabric-wide packets delivered with completion cycles in
    /// `[from, to)`.
    pub fn delivered_packets_between(&self, from: u64, to: u64) -> u64 {
        self.ext_cols
            .iter()
            .map(|c| {
                c.lock()
                    .unwrap()
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from..to).contains(cyc))
                    .count() as u64
            })
            .sum()
    }

    /// Aggregate Mpps over a cycle window at the configured clock.
    pub fn mpps(&self, from: u64, to: u64) -> f64 {
        let secs = (to - from) as f64 / (self.cfg.router.raw.clock_mhz as f64 * 1e6);
        self.delivered_packets_between(from, to) as f64 / secs / 1e6
    }

    /// Aggregate Gbps over a cycle window.
    pub fn gbps(&self, from: u64, to: u64) -> f64 {
        let bits: u64 = self
            .ext_cols
            .iter()
            .map(|c| {
                c.lock()
                    .unwrap()
                    .packets
                    .iter()
                    .filter(|(cyc, _)| (from..to).contains(cyc))
                    .map(|(_, p)| p.total_bytes() as u64 * 8)
                    .sum::<u64>()
            })
            .sum();
        let secs = (to - from) as f64 / (self.cfg.router.raw.clock_mhz as f64 * 1e6);
        bits as f64 / secs / 1e9
    }

    /// Per-router classified drops, aggregated fabric-wide.
    pub fn drop_reasons(&self) -> [u64; raw_telemetry::DropReason::COUNT] {
        let mut out = [0u64; raw_telemetry::DropReason::COUNT];
        for r in &self.routers {
            for (o, d) in out.iter_mut().zip(r.lock().unwrap().drop_reasons()) {
                *o += d;
            }
        }
        out
    }

    /// Within-flow order violations summed over external outputs.
    pub fn flow_order_violations(&self) -> u64 {
        self.ext_cols
            .iter()
            .map(|c| {
                let pkts: Vec<Packet> = c
                    .lock()
                    .unwrap()
                    .packets
                    .iter()
                    .map(|(_, p)| p.clone())
                    .collect();
                raw_workloads::flow_order_violations(&pkts) as u64
            })
            .sum()
    }

    /// Every conservation invariant of the fabric, as human-readable
    /// violations (empty == healthy). Meaningful after a drained run.
    pub fn conservation_errors(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let dropped = self.dropped_count();
        if self.delivered + dropped != self.offered {
            errs.push(format!(
                "offered {} != delivered {} + dropped {dropped}",
                self.offered, self.delivered
            ));
        }
        if self.next_pending != self.pending.len() {
            errs.push(format!(
                "{} offers were never injected",
                self.pending.len() - self.next_pending
            ));
        }
        for l in &self.links {
            let l = l.lock().unwrap();
            if l.occupancy() != 0 {
                errs.push(format!(
                    "link {} still holds {} packets",
                    l.stats.link,
                    l.occupancy()
                ));
            }
        }
        if !self.life.is_empty() {
            errs.push(format!(
                "{} tracked packets neither delivered nor dropped",
                self.life.len()
            ));
        }
        if self.parse_errors() != 0 {
            errs.push(format!(
                "{} corrupt packets leaked through to an output",
                self.parse_errors()
            ));
        }
        // Per-router closure: everything a router accepted either sits
        // in a collector, was forwarded over a link, or was dropped.
        for (ri, r) in self.routers.iter().enumerate() {
            let r = r.lock().unwrap();
            let forwarded: u64 = self
                .links
                .iter()
                .map(|l| l.lock().unwrap())
                .filter(|l| l.spec.from.0 == ri)
                .map(|l| l.stats.packets)
                .sum();
            let (off, del, drop) = (r.offered(), r.delivered_count(), r.dropped_count());
            if del + forwarded + drop != off {
                errs.push(format!(
                    "router {ri}: offered {off} != delivered {del} + forwarded \
                     {forwarded} + dropped {drop}"
                ));
            }
            for p in 0..NPORTS {
                let s = r.ig_stats[p].lock().unwrap();
                let classified: u64 = s.drops.iter().sum();
                if s.packets_dropped != classified {
                    errs.push(format!(
                        "router {ri} port {p}: packets_dropped {} != classified {classified}",
                        s.packets_dropped
                    ));
                }
            }
        }
        errs
    }

    /// FNV-1a digest of everything observable: external delivery streams
    /// (cycle + exact words), per-router classified drops, offered
    /// count, and the epoch clock. The threaded and single-threaded
    /// executors must produce equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for c in &self.ext_cols {
            for (cycle, p) in &c.lock().unwrap().packets {
                mix(*cycle);
                for w in p.to_words() {
                    mix(u64::from(w));
                }
            }
        }
        for r in &self.routers {
            for d in r.lock().unwrap().drop_reasons() {
                mix(d);
            }
        }
        mix(self.offered);
        mix(self.epochs_run);
        h
    }

    /// Reduce the run to its serializable summary.
    pub fn summary(&self) -> FabricSummary {
        // The 3-level Clos keeps its historical stage names; deeper (or
        // shallower) fabrics get positional names.
        let stage_names: Vec<String> = if self.stage_hist.len() == 3 {
            ["ingress", "middle", "egress"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            (0..self.stage_hist.len())
                .map(|i| format!("stage{i}"))
                .collect()
        };
        FabricSummary {
            topology: self.plan.topology.name().to_string(),
            spray: self.cfg.spray.name().to_string(),
            routers: self.plan.routers.len(),
            ext_ports: self.ext_ports(),
            epoch_cycles: self.cfg.epoch_cycles,
            epochs: self.epochs_run,
            cycles: self.cycle(),
            offered: self.offered,
            delivered: self.delivered,
            dropped: self.dropped_count(),
            backpressure_epochs: self.backpressure_epochs,
            links: self
                .links
                .iter()
                .map(|l| l.lock().unwrap().stats.clone())
                .collect(),
            stages: self
                .stage_hist
                .iter()
                .zip(&stage_names)
                .map(|(h, n)| StageLatency::from_histogram(n, h))
                .collect(),
            total_latency: StageLatency::from_histogram("total", &self.total_hist),
            flow_order_violations: self.flow_order_violations(),
        }
    }
}
