//! The whole-chip cycle-driven machine: tiles, switches, networks, devices.
//!
//! Execution order within a cycle is fixed and deterministic:
//!
//! 1. edge devices inject words into edge input FIFOs;
//! 2. tile processors tick (at most one retiring action each);
//! 3. switch processors evaluate their current instruction's routes;
//! 4. the dynamic networks advance one hop.
//!
//! Every FIFO entry is timestamped and only consumable on a *later* cycle,
//! so no word moves more than one network hop per cycle regardless of the
//! iteration order, and the tile-processor receive path carries one extra
//! cycle of decode delay — together these reproduce the 5-cycle
//! tile-to-tile send of Figure 3-2.

use crate::cache::{CacheConfig, DCache, MissModel};
use crate::device::{EdgeDevice, EdgePort};
use crate::dynamic::DynNet;
use crate::fifo::TsFifo;
use crate::geom::{GridDim, TileId};
use crate::program::{mem_grow_target, TileIo, TileProgram};
use crate::resolved::{edge_slot, resolve_program, ResolvedProgram};
use crate::switch::{SwitchProgram, SwitchState, NUM_STATIC_NETS};
use crate::trace::{Activity, TileStats, TraceWindow};
use raw_telemetry::{SharedSink, SwitchStallCause, TileState};

/// Refine a coarse [`Activity`] into the telemetry [`TileState`]. The
/// token-wait and arb-wait hints (set by a program through
/// [`TileIo::hint_token_wait`][crate::program::TileIo::hint_token_wait] /
/// [`TileIo::hint_arb_wait`][crate::program::TileIo::hint_arb_wait])
/// reclassify cycles that would otherwise read as idle or
/// blocked-receive while waiting on the crossbar grant protocol (the
/// arb hint wins when a program sets both).
#[inline]
pub(crate) fn refine_state(
    a: Activity,
    token_hint: bool,
    arb_hint: bool,
    lookup_hint: bool,
) -> TileState {
    // The lookup-stall hint reclassifies the cycle outright: the lookup
    // program spends the modeled table-memory latency in `compute`
    // cycles (so the engine sees ordinary progress) and hints that they
    // are memory-bound. A blocked-send cycle keeps its FIFO cause — the
    // hint describes the table chase, not the reply path.
    if lookup_hint && !matches!(a, Activity::BlockedSend) {
        return TileState::LookupStall;
    }
    let wait = if arb_hint {
        Some(TileState::ArbWait)
    } else if token_hint {
        Some(TileState::TokenWait)
    } else {
        None
    };
    match (a, wait) {
        (Activity::Busy, _) => TileState::Busy,
        (Activity::Idle, Some(w)) => w,
        (Activity::Idle, None) => TileState::Idle,
        (Activity::BlockedSend, _) => TileState::FifoFull,
        (Activity::BlockedRecv, Some(w)) => w,
        (Activity::BlockedRecv, None) => TileState::FifoEmpty,
        (Activity::CacheStall, _) => TileState::CacheStall,
    }
}

/// How the machine advances simulated time. Both modes step busy cycles
/// through the same engine and produce bit-identical results —
/// statistics, traces, telemetry, word timing — on every workload; they
/// differ only in whether provably quiet stretches are skipped. The
/// determinism test suite compares them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineMode {
    /// Step every cycle, skipping nothing. The reference (oracle) mode.
    PerCycle,
    /// Jump over provably quiet stretches in bulk (event-skip
    /// fast-forward). The default.
    EventSkip,
}

impl EngineMode {
    /// May `run` jump over provably quiet stretches of cycles?
    #[inline]
    pub fn skips(self) -> bool {
        !matches!(self, EngineMode::PerCycle)
    }
}

/// Machine-wide configuration. Defaults model the 250 MHz Raw prototype.
#[derive(Clone, Debug)]
pub struct RawConfig {
    pub dim: GridDim,
    /// Capacity of each static-network link input FIFO (Raw: 4).
    pub link_fifo_capacity: usize,
    /// Capacity of each `$csti` FIFO.
    pub csti_capacity: usize,
    /// Capacity of the shared `$csto` FIFO.
    pub csto_capacity: usize,
    /// Extra pipeline delay on processor network reads (decode stage).
    pub proc_recv_delay: u64,
    pub cache: CacheConfig,
    pub miss_model: MissModel,
    pub dirty_evict_penalty: u32,
    /// Per-tile local memory size in words (backing store behind the cache).
    pub local_mem_words: usize,
    pub dyn_fifo_capacity: usize,
    pub cdni_capacity: usize,
    /// Clock frequency used to convert cycles to seconds (Raw: 250 MHz).
    pub clock_mhz: u64,
    /// Whether quiet stretches are skipped (see [`EngineMode`]). Both
    /// modes are bit-identical; they trade host work per simulated cycle.
    pub engine: EngineMode,
}

impl Default for RawConfig {
    fn default() -> Self {
        RawConfig {
            dim: GridDim::RAW_PROTOTYPE,
            link_fifo_capacity: 4,
            csti_capacity: 4,
            csto_capacity: 4,
            proc_recv_delay: 1,
            cache: CacheConfig::RAW_PROTOTYPE,
            miss_model: MissModel::default(),
            dirty_evict_penalty: 12,
            local_mem_words: 1 << 20,
            dyn_fifo_capacity: 4,
            cdni_capacity: 8,
            clock_mhz: 250,
            engine: EngineMode::EventSkip,
        }
    }
}

pub(crate) struct Tile {
    /// `None` until `set_program` installs one: such a tile records
    /// `Activity::Idle` each cycle, what `IdleProgram` would, without
    /// building a `TileIo` to tick.
    pub(crate) program: Option<Box<dyn TileProgram>>,
    pub(crate) switch_state: [SwitchState; NUM_STATIC_NETS],
    pub(crate) cache: DCache,
    /// Local memory backing store, materialized lazily in chunks up to
    /// `RawConfig::local_mem_words` as addresses are touched (a 4 MB
    /// address space per tile would otherwise be zeroed eagerly on every
    /// machine construction).
    pub(crate) mem: Vec<u32>,
    pub(crate) stall_until: u64,
    pub(crate) csti: [TsFifo; NUM_STATIC_NETS],
    pub(crate) csto: TsFifo,
    pub(crate) stats: TileStats,
    /// Cycles the switch spent with an instruction unable to complete.
    pub(crate) switch_stall_cycles: u64,
}

/// The simulated Raw chip.
pub struct RawMachine {
    pub(crate) cfg: RawConfig,
    pub(crate) cycle: u64,
    pub(crate) tiles: Vec<Tile>,
    /// Installed switch programs in resolved form (see the `resolved`
    /// module), indexed `tile * NUM_STATIC_NETS + net`.
    switches: Vec<ResolvedProgram>,
    /// Static-network link input FIFOs: `link_in[tile][net][dir]` holds
    /// words that arrived *at* `tile` from direction `dir` and await
    /// routing by `tile`'s switch.
    pub(crate) link_in: Vec<[[TsFifo; 4]; NUM_STATIC_NETS]>,
    pub(crate) dyn_nets: Vec<DynNet>,
    pub(crate) devices: Vec<Box<dyn EdgeDevice>>,
    /// Direct-indexed device lookup: `device_table[(tile * nets + net) * 4
    /// + dir]` is the index into `devices`, or `NO_DEVICE`. Replaces a
    /// `BTreeMap<EdgePort, usize>` that sat on the per-route hot path.
    device_table: Vec<u16>,
    device_ports: Vec<EdgePort>,
    /// Indices of the bound devices that may inject
    /// ([`EdgeDevice::is_injector`]), in bind order: the injection phase
    /// polls only these.
    injectors: Vec<u16>,
    pub(crate) trace: Option<TraceWindow>,
    /// Attached telemetry sink. `None` (the default) costs one branch per
    /// cycle phase and nothing else — the event-skip fast path and the
    /// zero-allocation hot path are preserved.
    telemetry: Option<SharedSink>,
    /// False when the attached sink is a [`raw_telemetry::NullSink`]:
    /// every NullSink callback is a no-op, so the machine elides the
    /// per-cycle lock-and-publish entirely (observationally identical,
    /// and it keeps NullSink at the same cost as no sink at all).
    pub(crate) telemetry_active: bool,
    /// Per-tile token-wait hint from the most recent tick (see
    /// [`refine_state`]).
    pub(crate) token_hint: Vec<bool>,
    /// Per-tile arbitration-wait hint from the most recent tick (see
    /// [`refine_state`]; scheduler mode's analogue of `token_hint`).
    pub(crate) arb_hint: Vec<bool>,
    /// Per-tile lookup-memory-stall hint from the most recent tick (see
    /// [`refine_state`]; set by the lookup program's table-memory model).
    pub(crate) lookup_hint: Vec<bool>,
    /// Last switch stall cause per `(tile, net)`, maintained only while a
    /// telemetry sink is attached; fast-forward credits skipped stall
    /// cycles to it, mirroring `switch_stall_cycles` bulk crediting.
    pub(crate) last_switch_cause: Vec<[SwitchStallCause; NUM_STATIC_NETS]>,
    /// The activity each tile recorded on the most recent cycle (the state
    /// a skipped quiet cycle would repeat).
    pub(crate) last_activity: Vec<Activity>,
    /// Scheduled per-tile stall windows `(start, end)`, sorted by start;
    /// `step_processors` folds the front window into `stall_until` once
    /// the cycle reaches it (fault injection: cache-miss storms).
    pub(crate) stall_windows: Vec<Vec<(u64, u64)>>,
    /// Cycle at which something last made forward progress.
    pub(crate) last_progress: u64,
    /// Words dropped at unbound edge output ports.
    pub edge_drops: u64,
    /// Total static-network route firings.
    pub routes_fired: u64,
    pub(crate) dyn_moved_before: u64,
}

/// Sentinel for an unbound slot in `RawMachine::device_table`.
const NO_DEVICE: u16 = u16::MAX;

impl RawMachine {
    pub fn new(cfg: RawConfig) -> RawMachine {
        let n = cfg.dim.tiles();
        let tiles = (0..n)
            .map(|_| Tile {
                program: None,
                switch_state: std::array::from_fn(|_| SwitchState::new()),
                cache: DCache::new(cfg.cache, cfg.miss_model, cfg.dirty_evict_penalty),
                mem: Vec::new(),
                stall_until: 0,
                csti: std::array::from_fn(|_| TsFifo::new(cfg.csti_capacity)),
                csto: TsFifo::new(cfg.csto_capacity),
                stats: TileStats::default(),
                switch_stall_cycles: 0,
            })
            .collect();
        let link_in = (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    std::array::from_fn(|_| TsFifo::new(cfg.link_fifo_capacity))
                })
            })
            .collect();
        // The idle program has no routes, so its resolved form is the
        // same on every switch.
        let idle = resolve_program(cfg.dim, TileId(0), 0, &SwitchProgram::idle());
        let switches = vec![idle; n * NUM_STATIC_NETS];
        let dyn_nets = (0..2)
            .map(|_| DynNet::new(cfg.dim, cfg.dyn_fifo_capacity, cfg.cdni_capacity))
            .collect();
        RawMachine {
            cfg,
            cycle: 0,
            tiles,
            switches,
            link_in,
            dyn_nets,
            devices: Vec::new(),
            device_table: vec![NO_DEVICE; n * NUM_STATIC_NETS * 4],
            device_ports: Vec::new(),
            injectors: Vec::new(),
            trace: None,
            telemetry: None,
            telemetry_active: false,
            token_hint: vec![false; n],
            arb_hint: vec![false; n],
            lookup_hint: vec![false; n],
            last_switch_cause: vec![[SwitchStallCause::FifoEmpty; NUM_STATIC_NETS]; n],
            last_activity: vec![Activity::Idle; n],
            stall_windows: vec![Vec::new(); n],
            last_progress: 0,
            edge_drops: 0,
            routes_fired: 0,
            dyn_moved_before: 0,
        }
    }

    pub fn config(&self) -> &RawConfig {
        &self.cfg
    }

    pub fn dim(&self) -> GridDim {
        self.cfg.dim
    }

    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Install a tile-processor program.
    pub fn set_program(&mut self, tile: TileId, program: Box<dyn TileProgram>) {
        self.tiles[tile.index()].program = Some(program);
    }

    /// Install the switch program driving static network `net` at `tile`
    /// (PC reset to 0), resolving its routes once into the form the
    /// switch step runs (see the `resolved` module). Panics unless every
    /// route targets `net` and the program passes
    /// [`SwitchProgram::validate`]: its fields are public, so a program
    /// assembled through them may bypass [`crate::SwitchInstr::new`].
    ///
    /// Modeling note: real Raw has a single switch processor per tile
    /// whose instruction controls both static crossbars; this simulator
    /// gives each network an independent instruction stream so that a
    /// free-running ingest path on one network cannot couple to (and
    /// deadlock) a processor-steered schedule on the other. The paper's
    /// Rotating Crossbar algorithm uses a single network (§5.3), so its
    /// fidelity is unaffected.
    pub fn set_switch_program(&mut self, tile: TileId, net: usize, prog: SwitchProgram) {
        for i in &prog.instrs {
            for r in &i.routes {
                assert_eq!(
                    r.net, net,
                    "route on net {} in program for net {}",
                    r.net, net
                );
            }
        }
        if let Err(e) = prog.validate() {
            panic!("invalid switch program for tile {} net {net}: {e}", tile.0);
        }
        self.switches[tile.index() * NUM_STATIC_NETS + net] =
            resolve_program(self.cfg.dim, tile, net, &prog);
        self.tiles[tile.index()].switch_state[net] = SwitchState::new();
    }

    /// The device bound at device-table `slot` (see `edge_slot`), if any.
    #[inline]
    pub(crate) fn device_in_slot(&self, slot: usize) -> Option<usize> {
        match self.device_table[slot] {
            NO_DEVICE => None,
            i => Some(i as usize),
        }
    }

    /// The device bound at `(tile, net, dir)`, if any.
    #[inline]
    fn device_at(&self, tile: usize, net: usize, dir: usize) -> Option<usize> {
        self.device_in_slot(edge_slot(tile, net, dir))
    }

    /// Bind a device to an edge port. Panics if the port is interior or
    /// already bound.
    pub fn bind_device(&mut self, port: EdgePort, dev: Box<dyn EdgeDevice>) {
        assert!(
            self.cfg.dim.is_edge(port.tile, port.dir),
            "{:?} is not an edge port",
            port
        );
        let slot = edge_slot(port.tile.index(), port.net, port.dir.index());
        assert!(
            self.device_table[slot] == NO_DEVICE,
            "{:?} already has a device",
            port
        );
        assert!(self.devices.len() < NO_DEVICE as usize);
        self.device_table[slot] = self.devices.len() as u16;
        if dev.is_injector() {
            self.injectors.push(self.devices.len() as u16);
        }
        self.device_ports.push(port);
        self.devices.push(dev);
    }

    /// Retrieve a bound device by concrete type.
    pub fn device_mut<T: 'static>(&mut self, port: EdgePort) -> Option<&mut T> {
        let i = self.device_at(port.tile.index(), port.net, port.dir.index())?;
        self.devices[i].as_any_mut().downcast_mut::<T>()
    }

    pub fn device_ref<T: 'static>(&self, port: EdgePort) -> Option<&T> {
        let i = self.device_at(port.tile.index(), port.net, port.dir.index())?;
        self.devices[i].as_any().downcast_ref::<T>()
    }

    pub fn stats(&self, tile: TileId) -> &TileStats {
        &self.tiles[tile.index()].stats
    }

    pub fn cache_stats(&self, tile: TileId) -> (u64, u64) {
        let c = &self.tiles[tile.index()].cache;
        (c.hits, c.misses)
    }

    pub fn switch_stall_cycles(&self, tile: TileId) -> u64 {
        self.tiles[tile.index()].switch_stall_cycles
    }

    /// The activity each tile recorded on the most recent cycle.
    pub fn last_activities(&self) -> &[Activity] {
        &self.last_activity
    }

    /// Direct access to a tile's local memory for setup/inspection.
    /// Materializes the tile's full backing store; for large setup writes
    /// prefer [`RawMachine::write_tile_mem`], which only materializes the
    /// chunks it touches.
    pub fn tile_mem_mut(&mut self, tile: TileId) -> &mut Vec<u32> {
        let t = &mut self.tiles[tile.index()];
        if t.mem.len() < self.cfg.local_mem_words {
            t.mem.resize(self.cfg.local_mem_words, 0);
        }
        &mut t.mem
    }

    /// Write `words` into a tile's local memory starting at word address
    /// `base`, growing the lazily-allocated backing store only as far as
    /// the write reaches.
    pub fn write_tile_mem(&mut self, tile: TileId, base: usize, words: &[u32]) {
        let end = base + words.len();
        assert!(
            end <= self.cfg.local_mem_words,
            "write [{base}, {end}) exceeds local memory ({} words)",
            self.cfg.local_mem_words
        );
        let t = &mut self.tiles[tile.index()];
        if t.mem.len() < end {
            t.mem
                .resize(mem_grow_target(end, self.cfg.local_mem_words), 0);
        }
        t.mem[base..end].copy_from_slice(words);
    }

    /// Diagnostic: occupancy of a static-network link input FIFO.
    pub fn link_occupancy(&self, tile: TileId, net: usize, dir: crate::geom::Dir) -> usize {
        self.link_in[tile.index()][net][dir.index()].len()
    }

    /// Diagnostic: `(csto_len, csti0_len, csti1_len)` at a tile.
    pub fn proc_queue_occupancy(&self, tile: TileId) -> (usize, usize, usize) {
        let t = &self.tiles[tile.index()];
        (t.csto.len(), t.csti[0].len(), t.csti[1].len())
    }

    /// Diagnostic: the switch PC and halted flag for `net` at a tile.
    pub fn switch_status(&self, tile: TileId, net: usize) -> (usize, bool) {
        let st = &self.tiles[tile.index()].switch_state[net];
        (st.pc, st.halted)
    }

    /// Attach a telemetry sink. The machine publishes refined per-tile
    /// cycle states and per-`(tile, net)` switch stall causes into it;
    /// tile programs holding a clone of the same handle publish packet
    /// lifecycle events. Observation only — attaching a sink never
    /// changes simulation results.
    pub fn set_telemetry(&mut self, sink: SharedSink) {
        self.telemetry_active = !raw_telemetry::is_null(&sink);
        self.telemetry = Some(sink);
    }

    /// Detach the telemetry sink, returning the handle.
    pub fn take_telemetry(&mut self) -> Option<SharedSink> {
        self.telemetry_active = false;
        self.telemetry.take()
    }

    /// The sink to publish into, or `None` when publishing would be a
    /// no-op (detached, or a NullSink is attached).
    #[inline]
    pub(crate) fn active_sink(&self) -> Option<&SharedSink> {
        if self.telemetry_active {
            self.telemetry.as_ref()
        } else {
            None
        }
    }

    /// Schedule a forced processor stall on `tile` for the half-open
    /// cycle window `[start, start + len)` — fault injection modeling a
    /// cache-miss storm or an external memory hog. The stalled cycles are
    /// recorded as [`Activity::CacheStall`], so traces, statistics, and
    /// telemetry conservation all account for them; overlapping windows
    /// merge through the same `stall_until` mechanism real cache misses
    /// use, and the event-skip engine treats window starts and ends as
    /// time events, keeping fast-forward results bit-identical.
    pub fn schedule_stall(&mut self, tile: TileId, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let v = &mut self.stall_windows[tile.index()];
        let pos = v.partition_point(|&(s, _)| s <= start);
        v.insert(pos, (start, start + len));
    }

    /// Stall windows not yet folded into `stall_until` for `tile`.
    pub fn pending_stall_windows(&self, tile: TileId) -> usize {
        self.stall_windows[tile.index()].len()
    }

    /// Begin recording a per-tile activity trace window.
    pub fn start_trace(&mut self, start_cycle: u64, len: usize) {
        assert!(
            start_cycle >= self.cycle,
            "trace window must start in the future"
        );
        self.trace = Some(TraceWindow::new(self.cfg.dim.tiles(), start_cycle, len));
    }

    /// Take the recorded trace window, if any.
    pub fn take_trace(&mut self) -> Option<TraceWindow> {
        self.trace.take()
    }

    /// Cycles since anything in the machine made forward progress.
    pub fn idle_cycles(&self) -> u64 {
        self.cycle.saturating_sub(self.last_progress)
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        self.step_cycle();
    }

    /// Advance one cycle. Returns true when the cycle was *quiet*: nothing
    /// made forward progress and no switch performed a control-only
    /// transition (nop/`WaitPc` advance). After a quiet cycle the machine
    /// is in a fixed point that only the passage of time can disturb —
    /// FIFO entries aging into visibility, a cache stall expiring, a
    /// device becoming ready — which is exactly the condition under which
    /// `next_event_cycle` / `fast_forward_to` may skip ahead.
    fn step_cycle(&mut self) -> bool {
        let cycle = self.cycle;
        let mut progress = false;

        // 1. Device injection at edge input FIFOs. Devices that never
        // inject return `None` from `pull_in`, so only injectors are
        // polled.
        for &i in &self.injectors {
            let port = self.device_ports[i as usize];
            let fifo = &mut self.link_in[port.tile.index()][port.net][port.dir.index()];
            if fifo.has_space() {
                if let Some(w) = self.devices[i as usize].pull_in(cycle) {
                    let ok = fifo.push(w, cycle);
                    debug_assert!(ok);
                    progress = true;
                }
            }
        }

        // 2. Tile processors.
        progress |= self.step_processors(cycle);

        // 3. Switch processors. The resolved programs are moved out for
        // the phase so each switch can read its program in place while
        // firing routes into the machine.
        let mut sw_ctrl = false;
        let switches = std::mem::take(&mut self.switches);
        for (i, prog) in switches.iter().enumerate() {
            let (p, c) = self.step_switch(i / NUM_STATIC_NETS, i % NUM_STATIC_NETS, prog, cycle);
            progress |= p;
            sw_ctrl |= c;
        }
        self.switches = switches;

        // 4. Dynamic networks.
        for d in &mut self.dyn_nets {
            d.step(cycle);
        }
        let dyn_moved: u64 = self.dyn_nets.iter().map(|d| d.words_moved).sum();
        if dyn_moved != self.dyn_moved_before {
            progress = true;
            self.dyn_moved_before = dyn_moved;
        }

        if progress {
            self.last_progress = cycle;
        }
        self.cycle += 1;
        !progress && !sw_ctrl
    }

    pub(crate) fn step_processors(&mut self, cycle: u64) -> bool {
        let mut progress = false;
        let n = self.tiles.len();
        let cols = self.cfg.dim.cols as u32;
        for t in 0..n {
            while let Some(&(s, e)) = self.stall_windows[t].first() {
                if cycle < s {
                    break;
                }
                self.stall_windows[t].remove(0);
                let su = &mut self.tiles[t].stall_until;
                *su = (*su).max(e);
            }
            let (activity, hint) = if cycle < self.tiles[t].stall_until {
                (Activity::CacheStall, (false, false, false))
            } else {
                let mut program = self.tiles[t].program.take();
                let outcome = if let Some(prog) = program.as_mut() {
                    let tile = &mut self.tiles[t];
                    let col = (t as u32) % cols;
                    let col_hops = col.min(cols - 1 - col);
                    let mut io = TileIo::new(
                        cycle,
                        TileId(t as u16),
                        &mut tile.csti,
                        &mut tile.csto,
                        &mut tile.switch_state,
                        &mut tile.cache,
                        &mut tile.mem,
                        self.cfg.local_mem_words,
                        &mut self.dyn_nets,
                        col_hops,
                        self.cfg.proc_recv_delay,
                        &mut tile.stall_until,
                    );
                    prog.tick(&mut io);
                    let hint = (io.token_wait_hint, io.arb_wait_hint, io.lookup_stall_hint);
                    (io.take_activity(), hint)
                } else {
                    (Activity::Idle, (false, false, false))
                };
                self.tiles[t].program = program;
                outcome
            };
            self.tiles[t].stats.record(activity);
            self.last_activity[t] = activity;
            self.token_hint[t] = hint.0;
            self.arb_hint[t] = hint.1;
            self.lookup_hint[t] = hint.2;
            if let Some(tr) = &mut self.trace {
                tr.record(t, cycle, activity);
            }
            progress |= activity == Activity::Busy;
        }
        if let Some(sink) = self.active_sink() {
            // One lock per cycle for all tiles; programs stamp their own
            // packet events inside `tick`, outside this critical section.
            let mut g = sink.lock().unwrap();
            for t in 0..n {
                g.tile_cycles(
                    t as u16,
                    refine_state(
                        self.last_activity[t],
                        self.token_hint[t],
                        self.arb_hint[t],
                        self.lookup_hint[t],
                    ),
                    1,
                );
            }
        }
        progress
    }

    /// The earliest cycle `>= self.cycle` on which any component might do
    /// something it could not do on the cycle just stepped, or `None` if
    /// no such cycle exists (a true deadlock / fully drained machine).
    ///
    /// Only meaningful immediately after a *quiet* cycle (see
    /// `step_cycle`): in that state every enabled transition has already
    /// been tried and refused, every refusal depends only on FIFO
    /// visibility ages, cache-stall deadlines, and device readiness — all
    /// pure functions of time — and FIFO *space* cannot change without
    /// some transition firing first. The minimum over every such time
    /// threshold is therefore a sound skip target: every cycle strictly
    /// before it would replay the quiet cycle exactly.
    pub(crate) fn next_event_cycle(&self) -> Option<u64> {
        let now = self.cycle;
        let mut best = u64::MAX;
        // Returns true when the event is this very cycle: `now` cannot be
        // beaten, so the caller stops scanning immediately (the common
        // case on a busy machine, where a just-enqueued word becomes
        // visible next cycle). Candidates in the past are stale — an
        // unconsumed word whose visibility came and went — and waiting on
        // them changes nothing, so they are ignored.
        let mut consider = |v: u64| -> bool {
            if v == now {
                return true;
            }
            if v > now && v < best {
                best = v;
            }
            false
        };
        let prd = self.cfg.proc_recv_delay;
        for (t, tile) in self.tiles.iter().enumerate() {
            for net in 0..NUM_STATIC_NETS {
                let st = &tile.switch_state[net];
                // A pending PC load applies (to a halted switch) on a later
                // cycle without any progress marker; never skip past one.
                if st.pending_pc.is_some() {
                    return Some(now);
                }
                // Defense in depth: a non-halted switch sitting at a
                // route-less instruction advances every cycle. After a
                // quiet cycle this cannot happen (the advance is a control
                // transition, which vetoes quietness), but refuse to skip
                // if it somehow does.
                if !st.halted {
                    let prog = &self.switches[t * NUM_STATIC_NETS + net];
                    if let Some(instr) = prog.instrs.get(st.pc) {
                        if instr.routes.is_empty() {
                            return Some(now);
                        }
                    }
                }
                if let Some(ts) = tile.csti[net].front_ts() {
                    if consider(ts + prd + 1) {
                        return Some(now);
                    }
                }
                for d in 0..4 {
                    if let Some(ts) = self.link_in[t][net][d].front_ts() {
                        if consider(ts + 1) {
                            return Some(now);
                        }
                    }
                }
            }
            if tile.stall_until >= now && consider(tile.stall_until) {
                return Some(now);
            }
            // A scheduled stall window beginning is a state change (idle
            // or blocked cycles become CacheStall); never skip past it.
            if let Some(&(s, _)) = self.stall_windows[t].first() {
                if consider(s.max(now)) {
                    return Some(now);
                }
            }
            if let Some(ts) = tile.csto.front_ts() {
                if consider(ts + 1) {
                    return Some(now);
                }
            }
        }
        for d in &self.dyn_nets {
            if let Some(v) = d.next_visibility_event(now, prd) {
                if consider(v) {
                    return Some(now);
                }
            }
        }
        for (i, dev) in self.devices.iter().enumerate() {
            let port = self.device_ports[i];
            // Injection only matters while the edge FIFO has space; space
            // cannot appear without routing progress, which is itself an
            // event.
            if self.link_in[port.tile.index()][port.net][port.dir.index()].has_space() {
                if let Some(v) = dev.next_inject_event(now) {
                    if consider(v.max(now)) {
                        return Some(now);
                    }
                }
            }
            if let Some(v) = dev.next_accept_event(now) {
                if consider(v.max(now)) {
                    return Some(now);
                }
            }
        }
        if best == u64::MAX {
            None
        } else {
            Some(best)
        }
    }

    /// Jump straight from `self.cycle` to `target`, crediting the skipped
    /// cycles in bulk: each tile repeats its last recorded activity (into
    /// stats and the trace window), and every non-halted switch accrues
    /// stall cycles — exactly what per-cycle stepping would have recorded,
    /// since a skipped cycle by construction repeats the previous one.
    /// `last_progress` is untouched: skipped cycles made no progress.
    pub(crate) fn fast_forward_to(&mut self, target: u64) {
        let span = target.saturating_sub(self.cycle);
        if span == 0 {
            return;
        }
        let from = self.cycle;
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            let a = self.last_activity[t];
            tile.stats.counts[a.index()] += span;
            for st in &tile.switch_state {
                if !st.halted {
                    tile.switch_stall_cycles += span;
                }
            }
            if let Some(tr) = &mut self.trace {
                tr.record_span(t, from, span, a);
            }
        }
        if let Some(sink) = self.active_sink() {
            // Bulk-credit the skipped cycles exactly as per-cycle stepping
            // would have: each tile repeats its refined state, and every
            // non-halted switch repeats its last attributed stall cause (a
            // skipped quiet cycle replays the previous cycle's refusals).
            let mut g = sink.lock().unwrap();
            for (t, tile) in self.tiles.iter().enumerate() {
                g.tile_cycles(
                    t as u16,
                    refine_state(
                        self.last_activity[t],
                        self.token_hint[t],
                        self.arb_hint[t],
                        self.lookup_hint[t],
                    ),
                    span,
                );
                for (net, st) in tile.switch_state.iter().enumerate() {
                    if !st.halted {
                        g.switch_stalls(t as u16, net as u8, self.last_switch_cause[t][net], span);
                    }
                }
            }
        }
        self.cycle = target;
    }

    /// Run exactly `n` cycles through the configured engine. With an
    /// engine that skips (the default), quiet stretches are jumped in
    /// bulk; the observable end state is identical to stepping each
    /// cycle.
    pub fn run(&mut self, n: u64) {
        let deadline = self.cycle + n;
        while self.cycle < deadline {
            let quiet = self.step_cycle();
            if quiet && self.cfg.engine.skips() {
                let target = self.next_event_cycle().unwrap_or(deadline).min(deadline);
                self.fast_forward_to(target);
            }
        }
    }

    /// Run until `pred` holds (checked after each cycle) or `max_cycles`
    /// elapse. Returns true if the predicate held.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        mut pred: impl FnMut(&RawMachine) -> bool,
    ) -> bool {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline {
            self.step();
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Run until nothing makes progress for `window` consecutive cycles
    /// (or `max_cycles` pass). Returns a report distinguishing a clean
    /// finish (everything idle) from a blocked state (a potential
    /// deadlock, §5.5).
    pub fn run_until_quiescent(&mut self, window: u64, max_cycles: u64) -> QuiescenceReport {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline && self.idle_cycles() < window {
            let quiet = self.step_cycle();
            if quiet && self.cfg.engine.skips() {
                // Stop exactly where per-cycle stepping would declare
                // quiescence, so the reported cycle matches.
                let cap = (self.last_progress + window).min(deadline);
                let target = self.next_event_cycle().unwrap_or(cap).min(cap);
                self.fast_forward_to(target);
            }
        }
        let blocked_tiles: Vec<TileId> = self
            .last_activity
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_blocked())
            .map(|(i, _)| TileId(i as u16))
            .collect();
        QuiescenceReport {
            cycle: self.cycle,
            quiescent: self.idle_cycles() >= window,
            blocked_tiles,
        }
    }

    /// Seconds of wall-clock time `cycles` represent at the configured
    /// clock frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.cfg.clock_mhz as f64 * 1e6)
    }
}

/// Result of [`RawMachine::run_until_quiescent`].
#[derive(Clone, Debug)]
pub struct QuiescenceReport {
    pub cycle: u64,
    /// True if the machine went quiet (nothing moved for the window).
    pub quiescent: bool,
    /// Tiles whose processors were blocked when the run stopped. A
    /// quiescent machine with blocked tiles is deadlocked or starved.
    pub blocked_tiles: Vec<TileId>,
}

impl QuiescenceReport {
    /// Quiescent with at least one blocked processor: the textbook
    /// static-network deadlock signature of §5.5.
    pub fn is_deadlock(&self) -> bool {
        self.quiescent && !self.blocked_tiles.is_empty()
    }
}
