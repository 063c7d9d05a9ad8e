//! Tile-processor programs and their per-cycle execution contract.
//!
//! The router's tile code (ingress, lookup, crossbar, egress controllers)
//! runs as *cycle-stepped state machines*: the machine calls
//! [`TileProgram::tick`] once per simulated cycle, and the program performs
//! **at most one retiring action** through the [`TileIo`] handle. Every
//! action has the cost structure the paper's hand-written Raw assembly has:
//!
//! * a static-network receive consumes one cycle and blocks (the network
//!   registers stall the pipeline when empty);
//! * a send into `$csto` consumes one cycle and blocks when the FIFO is
//!   full;
//! * a cache access consumes one cycle on a hit and stalls the processor
//!   for the miss latency otherwise — so buffering a word from the network
//!   into local memory is a receive plus a store, "two processor cycles per
//!   word" (§4.4), while [`TileIo::load_send`] models the one-cycle
//!   `lw $csto, off($r)` load-and-forward idiom;
//! * pure computation is accounted with [`TileIo::compute`] (one cycle per
//!   call, callers loop for multi-cycle work).
//!
//! Actions either complete (the program advances its state) or report a
//! stall (the program retries on the next tick). The [`crate::trace`]
//! module records which of the two happened each cycle, which is exactly
//! the data behind the per-tile utilization plots of Figure 7-3.

use crate::cache::{Access, DCache};
use crate::dynamic::DynNet;
use crate::fifo::TsFifo;
use crate::geom::TileId;
use crate::switch::{NetId, SwitchState, NUM_STATIC_NETS};
use crate::trace::Activity;

/// Tile local memory is materialized on demand in chunks of this many
/// words (64 KB), so the default 4 MB per-tile address space costs nothing
/// until a program actually touches it.
pub(crate) const MEM_CHUNK_WORDS: usize = 1 << 14;

/// Backing-store length to allocate so that word `needed - 1` exists:
/// `needed` rounded up to a chunk boundary, capped at the configured
/// per-tile memory size.
pub(crate) fn mem_grow_target(needed: usize, limit: usize) -> usize {
    debug_assert!(needed <= limit);
    (needed.div_ceil(MEM_CHUNK_WORDS) * MEM_CHUNK_WORDS).min(limit)
}

/// A program running on one tile processor.
pub trait TileProgram: Send {
    /// Execute one cycle. Perform at most one retiring action on `io`.
    fn tick(&mut self, io: &mut TileIo<'_>);

    /// Optional human-readable label for traces and utilization plots.
    fn label(&self) -> &str {
        "tile"
    }
}

/// A tile with no program: permanently idle.
pub struct IdleProgram;

impl TileProgram for IdleProgram {
    fn tick(&mut self, _io: &mut TileIo<'_>) {}

    fn label(&self) -> &str {
        "idle"
    }
}

/// Per-cycle access to a tile's architectural resources. Constructed by the
/// machine for each tick; the activity recorded on drop feeds utilization
/// statistics.
pub struct TileIo<'a> {
    pub cycle: u64,
    pub tile: TileId,
    pub(crate) csti: &'a mut [TsFifo; NUM_STATIC_NETS],
    pub(crate) csto: &'a mut TsFifo,
    pub(crate) switch: &'a mut [SwitchState; NUM_STATIC_NETS],
    pub(crate) cache: &'a mut DCache,
    pub(crate) mem: &'a mut Vec<u32>,
    /// Architectural size of local memory in words; `mem` lazily grows in
    /// chunks up to this bound as addresses are touched.
    pub(crate) mem_limit: usize,
    pub(crate) dyn_nets: &'a mut [DynNet],
    /// Column hops to the nearest east/west DRAM port, for the
    /// distance-based miss model.
    pub(crate) col_hops: u32,
    pub(crate) proc_recv_delay: u64,
    pub(crate) stall_until: &'a mut u64,
    pub(crate) activity: Activity,
    /// Set by [`TileIo::hint_token_wait`]; read by the machine to refine
    /// this cycle's activity for telemetry.
    pub(crate) token_wait_hint: bool,
    /// Set by [`TileIo::hint_arb_wait`]: like the token hint, but the
    /// wait is on a per-slot scheduler decision (iSLIP / crosspoint).
    pub(crate) arb_wait_hint: bool,
    /// Set by [`TileIo::hint_lookup_stall`]: this cycle is stalled on
    /// forwarding-table memory (a modeled level-2 fetch or an injected
    /// miss walk), not ordinary computation.
    pub(crate) lookup_stall_hint: bool,
    acted: bool,
}

impl<'a> TileIo<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cycle: u64,
        tile: TileId,
        csti: &'a mut [TsFifo; NUM_STATIC_NETS],
        csto: &'a mut TsFifo,
        switch: &'a mut [SwitchState; NUM_STATIC_NETS],
        cache: &'a mut DCache,
        mem: &'a mut Vec<u32>,
        mem_limit: usize,
        dyn_nets: &'a mut [DynNet],
        col_hops: u32,
        proc_recv_delay: u64,
        stall_until: &'a mut u64,
    ) -> TileIo<'a> {
        TileIo {
            cycle,
            tile,
            csti,
            csto,
            switch,
            cache,
            mem,
            mem_limit,
            dyn_nets,
            col_hops,
            proc_recv_delay,
            stall_until,
            activity: Activity::Idle,
            token_wait_hint: false,
            arb_wait_hint: false,
            lookup_stall_hint: false,
            acted: false,
        }
    }

    pub(crate) fn take_activity(self) -> Activity {
        self.activity
    }

    #[inline]
    fn begin_action(&mut self) {
        debug_assert!(
            !self.acted,
            "tile {} performed two retiring actions in one cycle",
            self.tile
        );
        self.acted = true;
    }

    // ---- queries (free, do not retire) ----

    /// True if a static-network word is readable this cycle on `net`.
    pub fn can_recv_static(&self, net: NetId) -> bool {
        self.csti[net].has_visible(self.cycle, self.proc_recv_delay)
    }

    /// True if `$csto` can take another word.
    pub fn can_send_static(&self) -> bool {
        self.csto.has_space()
    }

    /// True if the switch processor for static network `net` is halted at
    /// a `WaitPc` (the "confirmation from the switch processor stating
    /// that the routing is finished" of §6.5).
    pub fn switch_halted(&self, net: NetId) -> bool {
        self.switch[net].halted && self.switch[net].pending_pc.is_none()
    }

    /// True if a dynamic-network word is deliverable this cycle.
    pub fn can_recv_dyn(&self, net: usize) -> bool {
        self.dyn_nets[net].can_recv(self.tile, self.cycle, self.proc_recv_delay)
    }

    /// True if the dynamic-network inject FIFO has space.
    pub fn can_send_dyn(&self, net: usize) -> bool {
        self.dyn_nets[net].can_inject(self.tile)
    }

    // ---- retiring actions ----

    /// Spend one cycle computing.
    pub fn compute(&mut self) {
        self.begin_action();
        self.activity = Activity::Busy;
    }

    /// Explicitly spend the cycle idle (same as doing nothing).
    pub fn idle(&mut self) {
        self.begin_action();
        self.activity = Activity::Idle;
    }

    /// Read a word from static network `net` (`$csti` / `$csti2`).
    /// `None` means the pipeline stalled on an empty network register.
    pub fn recv_static(&mut self, net: NetId) -> Option<u32> {
        self.begin_action();
        match self.csti[net].pop_visible(self.cycle, self.proc_recv_delay) {
            Some(w) => {
                self.activity = Activity::Busy;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// Write a word to `$csto` for the switch to route. `false` means the
    /// pipeline stalled on a full output FIFO.
    #[must_use]
    pub fn send_static(&mut self, word: u32) -> bool {
        self.begin_action();
        if self.csto.push(word, self.cycle) {
            self.activity = Activity::Busy;
            true
        } else {
            self.activity = Activity::BlockedSend;
            false
        }
    }

    fn mem_slot(&mut self, word_addr: u32) -> &mut u32 {
        let i = word_addr as usize;
        assert!(
            i < self.mem_limit,
            "tile {} accessed word address {:#x} beyond local memory ({} words)",
            self.tile,
            word_addr,
            self.mem_limit
        );
        if i >= self.mem.len() {
            let target = mem_grow_target(i + 1, self.mem_limit);
            self.mem.resize(target, 0);
        }
        &mut self.mem[i]
    }

    /// Load a word from local data memory through the cache. `None` means
    /// the access missed and the processor is stalled for the miss latency;
    /// retry after the stall to complete the load.
    pub fn load(&mut self, word_addr: u32) -> Option<u32> {
        self.begin_action();
        match self.cache.access(word_addr, false, self.col_hops) {
            Access::Hit => {
                self.activity = Activity::Busy;
                Some(*self.mem_slot(word_addr))
            }
            Access::Miss { latency } => {
                self.activity = Activity::CacheStall;
                *self.stall_until = self.cycle + latency as u64;
                None
            }
        }
    }

    /// Store a word to local data memory through the cache. `false` means
    /// a miss stall; retry to complete.
    #[must_use]
    pub fn store(&mut self, word_addr: u32, word: u32) -> bool {
        self.begin_action();
        match self.cache.access(word_addr, true, self.col_hops) {
            Access::Hit => {
                self.activity = Activity::Busy;
                *self.mem_slot(word_addr) = word;
                true
            }
            Access::Miss { latency } => {
                self.activity = Activity::CacheStall;
                *self.stall_until = self.cycle + latency as u64;
                false
            }
        }
    }

    /// The one-cycle `lw $csto, off($r)` idiom: load a word and forward it
    /// straight into the static network. Returns `false` on a full `$csto`
    /// (blocked-send) or a cache miss (stall); retry to complete.
    #[must_use]
    pub fn load_send(&mut self, word_addr: u32) -> bool {
        self.begin_action();
        if !self.csto.has_space() {
            self.activity = Activity::BlockedSend;
            return false;
        }
        match self.cache.access(word_addr, false, self.col_hops) {
            Access::Hit => {
                let w = *self.mem_slot(word_addr);
                let pushed = self.csto.push(w, self.cycle);
                debug_assert!(pushed);
                self.activity = Activity::Busy;
                true
            }
            Access::Miss { latency } => {
                self.activity = Activity::CacheStall;
                *self.stall_until = self.cycle + latency as u64;
                false
            }
        }
    }

    /// The `op $csto, $csti, $r` idiom: receive a word from static
    /// network `net`, transform it in the ALU, and forward it through
    /// `$csto`, all in one instruction cycle — the mechanism behind the
    /// paper's computation-in-the-switch-fabric proposal (§8.3).
    pub fn recv_op_send(&mut self, net: NetId, f: impl FnOnce(u32) -> u32) -> Option<u32> {
        self.begin_action();
        if !self.csto.has_space() {
            self.activity = Activity::BlockedSend;
            return None;
        }
        match self.csti[net].pop_visible(self.cycle, self.proc_recv_delay) {
            Some(w) => {
                let out = f(w);
                let pushed = self.csto.push(out, self.cycle);
                debug_assert!(pushed);
                self.activity = Activity::Busy;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// The `move $csto, $csti` idiom: forward a word from static network
    /// `net` straight back out through `$csto` in one cycle.
    pub fn recv_send(&mut self, net: NetId) -> Option<u32> {
        self.begin_action();
        if !self.csto.has_space() {
            self.activity = Activity::BlockedSend;
            return None;
        }
        match self.csti[net].pop_visible(self.cycle, self.proc_recv_delay) {
            Some(w) => {
                let pushed = self.csto.push(w, self.cycle);
                debug_assert!(pushed);
                self.activity = Activity::Busy;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// Load a new program counter into the switch processor for static
    /// network `net` (one cycle; takes effect on the switch's next cycle).
    pub fn set_switch_pc(&mut self, net: NetId, pc: usize) {
        self.begin_action();
        self.activity = Activity::Busy;
        self.switch[net].load_pc(pc, self.cycle);
    }

    /// Inject a word into dynamic network `net` (`$cdno`).
    #[must_use]
    pub fn send_dyn(&mut self, net: usize, word: u32) -> bool {
        self.begin_action();
        if self.dyn_nets[net].inject(self.tile, word, self.cycle) {
            self.activity = Activity::Busy;
            true
        } else {
            self.activity = Activity::BlockedSend;
            false
        }
    }

    /// Read a word from dynamic network `net` (`$cdni`).
    pub fn recv_dyn(&mut self, net: usize) -> Option<u32> {
        self.begin_action();
        match self.dyn_nets[net].recv(self.tile, self.cycle, self.proc_recv_delay) {
            Some(w) => {
                self.activity = Activity::Busy;
                Some(w)
            }
            None => {
                self.activity = Activity::BlockedRecv;
                None
            }
        }
    }

    /// Direct, un-timed access to local memory for test setup and result
    /// inspection (does not retire and does not touch the cache model).
    /// Materializes the tile's full backing store.
    pub fn mem_raw(&mut self) -> &mut Vec<u32> {
        if self.mem.len() < self.mem_limit {
            self.mem.resize(self.mem_limit, 0);
        }
        self.mem
    }

    /// Mark this cycle as spent waiting on a token/grant protocol rather
    /// than ordinary idleness or an empty FIFO. Does not retire and does
    /// not change simulation behavior — it only refines how an attached
    /// telemetry sink classifies the cycle (token-wait instead of idle /
    /// fifo-empty stall attribution).
    pub fn hint_token_wait(&mut self) {
        self.token_wait_hint = true;
    }

    /// Like [`TileIo::hint_token_wait`], but the wait is on a per-slot
    /// *scheduler* decision (iSLIP or crosspoint arbitration rather than
    /// the rotating token). Telemetry credits the cycle to the
    /// `arb_wait` bucket so scheduler head-to-heads can attribute
    /// arbitration stalls separately.
    pub fn hint_arb_wait(&mut self) {
        self.arb_wait_hint = true;
    }

    /// Mark this cycle as stalled on forwarding-table *memory* — the
    /// level-2 fetch of a DIR-24-8 lookup under a memory model, or the
    /// fruitless walk of an injected lookup miss. Like the other hints
    /// it never changes simulation behavior: the cycle still advances
    /// (the program typically pairs it with [`TileIo::compute`]), only
    /// an attached telemetry sink reclassifies it into the
    /// `lookup_stall` bucket instead of busy.
    pub fn hint_lookup_stall(&mut self) {
        self.lookup_stall_hint = true;
    }

    /// Permit one more retiring call within this cycle.
    ///
    /// Hand-written tile programs perform one action per tick, but a single
    /// *machine instruction* may legitimately touch several architectural
    /// queues in one cycle — `add $1, $csti, $csti2` pops both static
    /// networks, `lw $csto, off($r)` combines a cache access with a network
    /// push. The ISA interpreter calls this between the component
    /// operations of one instruction; the whole instruction still costs
    /// exactly one cycle (plus stalls).
    pub fn allow_compound(&mut self) {
        self.acted = false;
    }
}
