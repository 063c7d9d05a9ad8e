//! The static switch processor.
//!
//! Each Raw tile contains one six-stage switch processor that configures the
//! tile's *two* static-network crossbars on a per-cycle basis. A switch
//! instruction names a set of routes (`$cWi -> $cEo, $cWi -> $cPo, ...`) plus
//! a control operation (fall through, jump, or wait for the tile processor
//! to load a new program counter — the mechanism the Rotating Crossbar uses
//! to select the next fabric configuration from its jump table).
//!
//! Routing semantics follow the Raw specification as described in the paper:
//!
//! * the static network is **flow controlled** — a route only fires when its
//!   source word is available and every destination has buffer space;
//! * all routes in one instruction that share a source fire **together**
//!   (the hardware crossbar duplicates the word, which is what makes the
//!   multicast extension of §8.6 cheap);
//! * an instruction **completes** only when all of its routes have fired;
//!   the switch stalls in place until then. This is the property that makes
//!   careless schedules deadlock the static network (§5.5) and that the
//!   compile-time scheduler must respect.

use crate::geom::Dir;

/// A port of the static-network crossbar at one tile: the four mesh
/// directions plus the tile processor itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SwPort {
    N,
    E,
    S,
    W,
    /// The tile processor: as a source this is the `$csto` FIFO (shared by
    /// both networks, as on real Raw); as a destination it is the network's
    /// `$csti` FIFO.
    Proc,
}

impl SwPort {
    pub const ALL: [SwPort; 5] = [SwPort::N, SwPort::E, SwPort::S, SwPort::W, SwPort::Proc];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            SwPort::N => 0,
            SwPort::E => 1,
            SwPort::S => 2,
            SwPort::W => 3,
            SwPort::Proc => 4,
        }
    }

    /// The mesh direction of this port, or `None` for `Proc`.
    #[inline]
    pub fn dir(self) -> Option<Dir> {
        match self {
            SwPort::N => Some(Dir::North),
            SwPort::E => Some(Dir::East),
            SwPort::S => Some(Dir::South),
            SwPort::W => Some(Dir::West),
            SwPort::Proc => None,
        }
    }

    #[inline]
    pub fn from_dir(d: Dir) -> SwPort {
        match d {
            Dir::North => SwPort::N,
            Dir::East => SwPort::E,
            Dir::South => SwPort::S,
            Dir::West => SwPort::W,
        }
    }
}

/// Which of the two static networks a route uses.
pub type NetId = usize;
pub const NET0: NetId = 0;
pub const NET1: NetId = 1;
pub const NUM_STATIC_NETS: usize = 2;

/// One crossbar connection for one cycle: move a word from `src` to `dst`
/// on static network `net`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    pub net: NetId,
    pub src: SwPort,
    pub dst: SwPort,
}

impl Route {
    pub fn new(net: NetId, src: SwPort, dst: SwPort) -> Route {
        assert!(net < NUM_STATIC_NETS);
        Route { net, src, dst }
    }
}

/// Control operation attached to a switch instruction, executed once all of
/// the instruction's routes have fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchCtrl {
    /// Fall through to the next instruction.
    Next,
    /// Unconditional jump to an instruction index.
    Jump(usize),
    /// Halt until the tile processor loads a new program counter (the
    /// "load the address of the configuration into the program counter of
    /// the switch processor" step of §6.5). An instruction with `WaitPc`
    /// must carry no routes.
    WaitPc,
}

/// A single switch instruction: up to a crossbar-full of routes plus a
/// control operation.
#[derive(Clone, Debug)]
pub struct SwitchInstr {
    pub routes: Vec<Route>,
    pub ctrl: SwitchCtrl,
}

impl SwitchInstr {
    pub fn new(routes: Vec<Route>, ctrl: SwitchCtrl) -> SwitchInstr {
        match SwitchInstr::try_new(routes, ctrl) {
            Ok(i) => i,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validating constructor: the same checks as [`SwitchInstr::new`],
    /// reported as an error instead of a panic so codegen paths can
    /// surface malformed schedules at construction time.
    pub fn try_new(routes: Vec<Route>, ctrl: SwitchCtrl) -> Result<SwitchInstr, String> {
        check_instr(&routes, ctrl)?;
        Ok(SwitchInstr { routes, ctrl })
    }

    /// Convenience: an instruction that only waits for a new PC.
    pub fn wait_pc() -> SwitchInstr {
        SwitchInstr::new(Vec::new(), SwitchCtrl::WaitPc)
    }

    /// Convenience: route-less cycle (a switch `nop`).
    pub fn nop() -> SwitchInstr {
        SwitchInstr::new(Vec::new(), SwitchCtrl::Next)
    }
}

/// The construction invariants of one instruction, shared by
/// [`SwitchInstr::try_new`] and [`SwitchProgram::validate`].
fn check_instr(routes: &[Route], ctrl: SwitchCtrl) -> Result<(), String> {
    if ctrl == SwitchCtrl::WaitPc && !routes.is_empty() {
        return Err("WaitPc instructions carry no routes".into());
    }
    if routes.len() > MAX_ROUTES_PER_INSTR {
        return Err(format!(
            "{} routes exceed the crossbar's {MAX_ROUTES_PER_INSTR}-route instruction limit",
            routes.len()
        ));
    }
    // A destination may be driven by only one source per network in a
    // single instruction (a crossbar output has one input selected).
    for (i, a) in routes.iter().enumerate() {
        for b in &routes[i + 1..] {
            if a.net == b.net && a.dst == b.dst {
                return Err(format!(
                    "two routes drive {:?} on net {} in one instruction",
                    a.dst, a.net
                ));
            }
        }
    }
    Ok(())
}

/// A switch processor's instruction memory. The Raw prototype gives each
/// tile 8,192 words of switch memory; the constructor enforces a
/// configurable bound so the configuration-space arguments of Chapter 6 are
/// checkable in code.
#[derive(Clone, Debug, Default)]
pub struct SwitchProgram {
    pub instrs: Vec<SwitchInstr>,
}

/// Switch memory limit of the Raw prototype, in instructions. Raw stores
/// one 64-bit switch instruction per word-pair of its 8,192-word (64-bit
/// word) switch memory.
pub const SWITCH_IMEM_INSTRS: usize = 8192;

/// Most routes one switch instruction can name (the machine tracks route
/// completion in a 32-bit `fired` mask).
pub const MAX_ROUTES_PER_INSTR: usize = 32;

impl SwitchProgram {
    pub fn new(instrs: Vec<SwitchInstr>) -> SwitchProgram {
        SwitchProgram { instrs }
    }

    /// An empty program: the switch halts immediately in `WaitPc`.
    pub fn idle() -> SwitchProgram {
        SwitchProgram::new(vec![SwitchInstr::wait_pc()])
    }

    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// True if the program fits the prototype's switch instruction memory.
    pub fn fits_switch_imem(&self) -> bool {
        self.instrs.len() <= SWITCH_IMEM_INSTRS
    }

    /// Re-check every construction invariant of the whole program (the
    /// fields are public, so code that assembles instructions directly can
    /// bypass [`SwitchInstr::new`]): per-instruction route conflicts and
    /// `WaitPc` purity, control-flow targets in bounds, and the
    /// instruction-memory limit. Used by codegen boundaries and the
    /// `raw-verify` static analyses.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fits_switch_imem() {
            return Err(format!(
                "program of {} instructions exceeds the {SWITCH_IMEM_INSTRS}-instruction \
                 switch memory",
                self.instrs.len()
            ));
        }
        for (pc, i) in self.instrs.iter().enumerate() {
            check_instr(&i.routes, i.ctrl).map_err(|e| format!("pc {pc}: {e}"))?;
            if let SwitchCtrl::Jump(target) = i.ctrl {
                if target >= self.instrs.len() {
                    return Err(format!(
                        "pc {pc}: jump target {target} outside the {}-instruction program",
                        self.instrs.len()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Run-time state of one switch processor.
#[derive(Clone, Debug)]
pub struct SwitchState {
    pub pc: usize,
    /// Bitmask of routes of the current instruction that have already
    /// fired (the instruction completes when all have).
    pub fired: u32,
    /// PC write from the tile processor, applied at the start of the next
    /// switch cycle (one cycle of latency, like every proc->switch path).
    pub pending_pc: Option<(usize, u64)>,
    /// True while the switch sits at a `WaitPc` with no pending PC.
    pub halted: bool,
}

impl SwitchState {
    pub fn new() -> SwitchState {
        SwitchState {
            pc: 0,
            fired: 0,
            pending_pc: None,
            halted: false,
        }
    }

    /// Record a PC load from the tile processor during `cycle`.
    pub fn load_pc(&mut self, pc: usize, cycle: u64) {
        self.pending_pc = Some((pc, cycle));
    }

    /// Apply a pending PC if it was loaded on an earlier cycle and the
    /// switch has reached a `WaitPc` sync point. A PC loaded while a
    /// routine is still running takes effect when the routine finishes —
    /// it never hijacks an instruction mid-flight.
    pub fn apply_pending_pc(&mut self, cycle: u64) {
        if let Some((pc, set_at)) = self.pending_pc {
            if set_at < cycle && self.halted {
                self.pc = pc;
                self.fired = 0;
                self.halted = false;
                self.pending_pc = None;
            }
        }
    }
}

impl Default for SwitchState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swport_roundtrip() {
        for p in SwPort::ALL {
            if let Some(d) = p.dir() {
                assert_eq!(SwPort::from_dir(d), p);
            }
        }
        assert_eq!(SwPort::Proc.dir(), None);
    }

    #[test]
    #[should_panic(expected = "two routes drive")]
    fn conflicting_destinations_rejected() {
        SwitchInstr::new(
            vec![
                Route::new(NET0, SwPort::N, SwPort::Proc),
                Route::new(NET0, SwPort::W, SwPort::Proc),
            ],
            SwitchCtrl::Next,
        );
    }

    #[test]
    fn same_dst_on_other_net_allowed() {
        // Each network has its own crossbar, so the "same" output on the
        // other network is a distinct resource.
        let i = SwitchInstr::new(
            vec![
                Route::new(NET0, SwPort::N, SwPort::Proc),
                Route::new(NET1, SwPort::W, SwPort::Proc),
            ],
            SwitchCtrl::Next,
        );
        assert_eq!(i.routes.len(), 2);
    }

    #[test]
    fn multicast_same_source_allowed() {
        let i = SwitchInstr::new(
            vec![
                Route::new(NET0, SwPort::W, SwPort::E),
                Route::new(NET0, SwPort::W, SwPort::Proc),
            ],
            SwitchCtrl::Next,
        );
        assert_eq!(i.routes.len(), 2);
    }

    #[test]
    fn pending_pc_applies_next_cycle() {
        let mut s = SwitchState::new();
        s.halted = true;
        s.load_pc(7, 10);
        s.apply_pending_pc(10);
        assert!(s.halted, "PC load must not take effect in the same cycle");
        s.apply_pending_pc(11);
        assert!(!s.halted);
        assert_eq!(s.pc, 7);
    }

    #[test]
    fn imem_bound() {
        let p = SwitchProgram::new(vec![SwitchInstr::nop(); SWITCH_IMEM_INSTRS]);
        assert!(p.fits_switch_imem());
        let p = SwitchProgram::new(vec![SwitchInstr::nop(); SWITCH_IMEM_INSTRS + 1]);
        assert!(!p.fits_switch_imem());
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        let e = SwitchInstr::try_new(
            vec![
                Route::new(NET0, SwPort::N, SwPort::Proc),
                Route::new(NET0, SwPort::W, SwPort::Proc),
            ],
            SwitchCtrl::Next,
        )
        .unwrap_err();
        assert!(e.contains("two routes drive"), "{e}");
        let e = SwitchInstr::try_new(
            vec![Route::new(NET0, SwPort::N, SwPort::Proc)],
            SwitchCtrl::WaitPc,
        )
        .unwrap_err();
        assert!(e.contains("WaitPc"), "{e}");
        assert!(SwitchInstr::try_new(
            vec![Route::new(NET0, SwPort::W, SwPort::E)],
            SwitchCtrl::Next
        )
        .is_ok());
    }

    #[test]
    fn program_validate_catches_bypassed_invariants() {
        // A well-formed program passes.
        let good = SwitchProgram::new(vec![
            SwitchInstr::new(
                vec![Route::new(NET0, SwPort::W, SwPort::E)],
                SwitchCtrl::Next,
            ),
            SwitchInstr::wait_pc(),
        ]);
        assert!(good.validate().is_ok());

        // Constructor-bypassing mutants (public fields) are caught.
        let mut bad = good.clone();
        bad.instrs[1]
            .routes
            .push(Route::new(NET0, SwPort::W, SwPort::E));
        assert!(bad.validate().unwrap_err().contains("WaitPc"));

        let mut bad = good.clone();
        bad.instrs[0]
            .routes
            .push(Route::new(NET0, SwPort::N, SwPort::E));
        assert!(bad.validate().unwrap_err().contains("two routes drive"));

        let mut bad = good.clone();
        bad.instrs[0].ctrl = SwitchCtrl::Jump(99);
        assert!(bad.validate().unwrap_err().contains("jump target"));

        let bad = SwitchProgram::new(vec![SwitchInstr::nop(); SWITCH_IMEM_INSTRS + 1]);
        assert!(bad.validate().unwrap_err().contains("switch memory"));
    }
}
