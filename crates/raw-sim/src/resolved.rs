//! Install-time route resolution: the form the machine stores and runs
//! for every switch program, and the switch step that executes it.
//!
//! A [`SwitchProgram`] names routes by crossbar port (`$cWi -> $cEo`).
//! Which FIFO a port names, whether a mesh direction crosses to a
//! neighbor tile or leaves the chip, and which routes could ever share a
//! source are all fixed once the program is installed — the paper's
//! router is compile-time scheduled (§5.3, §6.2). `RawMachine::
//! set_switch_program` therefore lowers each program once, through
//! [`resolve_program`], and the per-cycle work reduces to visibility
//! checks, space checks, and word moves.
//!
//! An off-chip destination resolves to its slot in the machine's
//! direct-indexed device table, not to a device: the device bound there
//! is looked up when the route fires, so binding a device after the
//! program is installed needs no re-resolution.
//!
//! Route *grouping* is not precomputed, because it cannot be: a group is
//! every not-yet-fired route at and after the scan point that shares the
//! lead route's source, so a multicast group refused on one cycle may
//! fire a strict subset from a later scan position. The switch step
//! therefore forms groups as it scans; where an instruction's sources are
//! pairwise distinct (all but a handful of a router's instructions) every
//! group it forms is a single route.

use crate::geom::{GridDim, TileId};
use crate::machine::RawMachine;
use crate::switch::{SwPort, SwitchCtrl, SwitchProgram, NUM_STATIC_NETS};
use raw_telemetry::SwitchStallCause;

/// A resolved route source: the exact FIFO the word is popped from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RouteSrc {
    /// The processor's shared `$csto` FIFO at `tile`.
    Csto { tile: u16 },
    /// `link_in[tile][net][dir]`.
    Link { tile: u16, net: u8, dir: u8 },
}

/// A resolved route destination: the exact FIFO or off-chip edge slot
/// the word is pushed into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RouteDst {
    /// The processor-facing `$csti` FIFO for `net` at `tile`.
    Csti { tile: u16, net: u8 },
    /// The neighbor tile's link input FIFO `link_in[tile][net][dir]`.
    Link { tile: u16, net: u8, dir: u8 },
    /// An off-chip link: index into the machine's device table. A bound
    /// device receives the word; an unbound slot drops it (counted in
    /// `edge_drops`).
    Edge { slot: u32 },
}

/// One switch route with both endpoints resolved. Routes sharing a
/// `RouteSrc` within one instruction form a multicast group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ResolvedRoute {
    pub(crate) src: RouteSrc,
    pub(crate) dst: RouteDst,
}

/// One resolved switch instruction.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedInstr {
    /// Routes in program order (the `fired` bitmask indexes this list,
    /// bit *i* ↔ `routes[i]`).
    pub(crate) routes: Vec<ResolvedRoute>,
    /// `fired == all_mask` completes the instruction
    /// (`(1 << routes.len()) - 1`; 0 for a route-less instruction).
    pub(crate) all_mask: u32,
    pub(crate) ctrl: SwitchCtrl,
}

/// A whole switch program resolved for one `(tile, net)`.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedProgram {
    pub(crate) instrs: Vec<ResolvedInstr>,
}

/// Index into `RawMachine::device_table` for an edge port's coordinates.
#[inline]
pub(crate) fn edge_slot(tile: usize, net: usize, dir: usize) -> usize {
    (tile * NUM_STATIC_NETS + net) * 4 + dir
}

/// Lower `prog`, installed on static network `net` at `tile` of a `dim`
/// grid, to its resolved form. The caller has validated the program, so
/// every instruction fits the 32-bit `fired` mask.
pub(crate) fn resolve_program(
    dim: GridDim,
    tile: TileId,
    net: usize,
    prog: &SwitchProgram,
) -> ResolvedProgram {
    let t = tile.index();
    let instrs = prog
        .instrs
        .iter()
        .map(|i| {
            let routes: Vec<ResolvedRoute> = i
                .routes
                .iter()
                .map(|r| {
                    let src = match r.src {
                        SwPort::Proc => RouteSrc::Csto { tile: t as u16 },
                        p => RouteSrc::Link {
                            tile: t as u16,
                            net: net as u8,
                            dir: p.dir().unwrap().index() as u8,
                        },
                    };
                    let dst = match r.dst {
                        SwPort::Proc => RouteDst::Csti {
                            tile: t as u16,
                            net: net as u8,
                        },
                        p => {
                            let d = p.dir().unwrap();
                            match dim.neighbor(tile, d) {
                                Some(nb) => RouteDst::Link {
                                    tile: nb.index() as u16,
                                    net: net as u8,
                                    dir: d.opposite().index() as u8,
                                },
                                None => RouteDst::Edge {
                                    slot: edge_slot(t, net, d.index()) as u32,
                                },
                            }
                        }
                    };
                    ResolvedRoute { src, dst }
                })
                .collect();
            ResolvedInstr {
                all_mask: ((1u64 << routes.len()) - 1) as u32,
                routes,
                ctrl: i.ctrl,
            }
        })
        .collect();
    ResolvedProgram { instrs }
}

impl RawMachine {
    /// One switch tick for `(t, net)` running `prog`: pending-PC
    /// application, halt handling, a PC past the end halting as a control
    /// transition, firing, completion and control flow, stall accounting,
    /// and first-refused-group cause attribution. Returns
    /// `(progress, control_transition)`: whether any route fired, and
    /// whether the switch advanced through a route-less instruction
    /// (which changes switch state without counting as progress — a
    /// cycle containing one must not be skipped over).
    pub(crate) fn step_switch(
        &mut self,
        t: usize,
        net: usize,
        prog: &ResolvedProgram,
        cycle: u64,
    ) -> (bool, bool) {
        self.tiles[t].switch_state[net].apply_pending_pc(cycle);
        if self.tiles[t].switch_state[net].halted {
            return (false, false);
        }
        let pc = self.tiles[t].switch_state[net].pc;
        if pc >= prog.instrs.len() {
            self.tiles[t].switch_state[net].halted = true;
            return (false, true);
        }
        let instr = &prog.instrs[pc];
        let mut fired = self.tiles[t].switch_state[net].fired;
        let mut any_fired = false;
        // First refused group's block cause, for stall attribution —
        // computed only while a telemetry sink is attached.
        let attribute = self.telemetry_active;
        let mut block_cause: Option<SwitchStallCause> = None;
        // Dynamic-subgroup scan: at each unfired position, the group is
        // every not-yet-fired route *at or after* it with the same source.
        let routes = instr.routes.as_slice();
        for gi in 0..routes.len() {
            if fired & (1 << gi) != 0 {
                continue;
            }
            let lead_src = routes[gi].src;
            let mut group: u32 = 0;
            for (j, r) in routes.iter().enumerate().skip(gi) {
                if fired & (1 << j) == 0 && r.src == lead_src {
                    group |= 1 << j;
                }
            }
            match self.try_fire_group(routes, group, cycle) {
                Ok(()) => {
                    fired |= group;
                    any_fired = true;
                }
                Err(cause) => {
                    if attribute && block_cause.is_none() {
                        block_cause = Some(cause);
                    }
                }
            }
        }
        self.tiles[t].switch_state[net].fired = fired;
        let mut ctrl_transition = false;
        if fired == instr.all_mask {
            let st = &mut self.tiles[t].switch_state[net];
            st.fired = 0;
            match instr.ctrl {
                SwitchCtrl::Next => {
                    st.pc += 1;
                    if st.pc >= prog.instrs.len() {
                        st.halted = true;
                    }
                }
                SwitchCtrl::Jump(pc) => st.pc = pc,
                SwitchCtrl::WaitPc => st.halted = true,
            }
            // A route-less instruction (nop / WaitPc) completing is a pure
            // control transition: switch state changed with no progress.
            ctrl_transition = !any_fired;
        } else if !any_fired {
            self.tiles[t].switch_stall_cycles += 1;
            if let Some(cause) = block_cause {
                self.last_switch_cause[t][net] = cause;
                if let Some(sink) = self.active_sink() {
                    sink.lock()
                        .unwrap()
                        .switch_stalls(t as u16, net as u8, cause, 1);
                }
            }
        }
        (any_fired, ctrl_transition)
    }

    /// Check-and-fire for a multicast group (`group` is a bitmask over
    /// `routes`, all sharing a source): the shared source must be visible
    /// and every member destination willing, in that order of refusal
    /// cause; the popped word is duplicated across members in list order.
    #[inline]
    fn try_fire_group(
        &mut self,
        routes: &[ResolvedRoute],
        group: u32,
        cycle: u64,
    ) -> Result<(), SwitchStallCause> {
        let src = routes[group.trailing_zeros() as usize].src;
        if !self.src_visible(src, cycle) {
            return Err(SwitchStallCause::FifoEmpty);
        }
        let mut bits = group;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.dst_accepts(routes[j].dst, cycle)?;
        }
        let word = self.pop_src(src, cycle);
        let mut bits = group;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.push_dst(routes[j].dst, word, cycle);
        }
        Ok(())
    }

    /// Is the word at `src` visible to the switch this cycle?
    #[inline]
    fn src_visible(&self, src: RouteSrc, cycle: u64) -> bool {
        match src {
            RouteSrc::Csto { tile } => self.tiles[tile as usize].csto.has_visible(cycle, 0),
            RouteSrc::Link { tile, net, dir } => {
                self.link_in[tile as usize][net as usize][dir as usize].has_visible(cycle, 0)
            }
        }
    }

    /// Would `dst` accept a word this cycle? On refusal, the stall cause.
    #[inline]
    fn dst_accepts(&self, dst: RouteDst, cycle: u64) -> Result<(), SwitchStallCause> {
        let ok = match dst {
            RouteDst::Csti { tile, net } => {
                self.tiles[tile as usize].csti[net as usize].has_space()
            }
            RouteDst::Link { tile, net, dir } => {
                self.link_in[tile as usize][net as usize][dir as usize].has_space()
            }
            RouteDst::Edge { slot } => {
                return match self.device_in_slot(slot as usize) {
                    Some(i) if !self.devices[i].can_push(cycle) => {
                        Err(SwitchStallCause::DeviceBackpressure)
                    }
                    _ => Ok(()),
                };
            }
        };
        if ok {
            Ok(())
        } else {
            Err(SwitchStallCause::FifoFull)
        }
    }

    #[inline]
    fn pop_src(&mut self, src: RouteSrc, cycle: u64) -> u32 {
        match src {
            RouteSrc::Csto { tile } => self.tiles[tile as usize]
                .csto
                .pop_visible(cycle, 0)
                .unwrap(),
            RouteSrc::Link { tile, net, dir } => self.link_in[tile as usize][net as usize]
                [dir as usize]
                .pop_visible(cycle, 0)
                .unwrap(),
        }
    }

    #[inline]
    fn push_dst(&mut self, dst: RouteDst, word: u32, cycle: u64) {
        match dst {
            RouteDst::Csti { tile, net } => {
                let ok = self.tiles[tile as usize].csti[net as usize].push(word, cycle);
                debug_assert!(ok);
            }
            RouteDst::Link { tile, net, dir } => {
                let ok = self.link_in[tile as usize][net as usize][dir as usize].push(word, cycle);
                debug_assert!(ok);
            }
            RouteDst::Edge { slot } => match self.device_in_slot(slot as usize) {
                Some(i) => self.devices[i].push_out(word, cycle),
                None => self.edge_drops += 1,
            },
        }
        self.routes_fired += 1;
    }
}
