//! Differential tests: randomly generated switch schedules, device
//! bindings, and fault windows must execute bit-identically with
//! event-skip on and off (`EngineMode::EventSkip` against the
//! `EngineMode::PerCycle` oracle), plus the corner cases of install-time
//! route resolution — multicast groups that fire a subset after a
//! partial block, and edge devices bound after the switch program that
//! routes to them.
//!
//! Both modes run the same resolved routes, so the mode comparison checks
//! only the skip. Route resolution itself (neighbor direction, edge slot,
//! source/destination order) is checked against outcomes that do not
//! depend on the engine: `relay_paths_deliver_every_word` routes words
//! along random paths and expects every one at the far edge, in order,
//! and the multicast test pins its absolute counts.

use proptest::prelude::*;

use raw_sim::{
    Dir, EdgePort, EngineMode, GridDim, RawConfig, RawMachine, Route, SwPort, SwitchCtrl,
    SwitchInstr, SwitchProgram, TileId, WordSink, WordSource, NET0, NUM_STATIC_NETS,
};

/// Tiny deterministic generator so one drawn seed reproduces the whole
/// scenario.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random but structurally valid switch program for `net`: random
/// routes (duplicate sources allowed — multicast groups — but each
/// destination driven at most once), random control flow with in-bounds
/// jumps, optional trailing WaitPc.
fn random_program(r: &mut Lcg, net: usize) -> SwitchProgram {
    let len = 1 + r.below(4) as usize;
    let mut instrs = Vec::with_capacity(len);
    for pc in 0..len {
        if r.chance(15) {
            instrs.push(SwitchInstr::wait_pc());
            continue;
        }
        let mut routes = Vec::new();
        let mut used_dst = Vec::new();
        for _ in 0..r.below(4) {
            let src = SwPort::ALL[r.below(5) as usize];
            let dst = SwPort::ALL[r.below(5) as usize];
            if used_dst.contains(&dst) {
                continue;
            }
            used_dst.push(dst);
            routes.push(Route::new(net, src, dst));
        }
        let ctrl = match r.below(3) {
            0 => SwitchCtrl::Next,
            1 => SwitchCtrl::Jump(r.below(len as u64) as usize),
            _ => {
                if pc + 1 == len {
                    // Loop somewhere instead of running off the end
                    // every time.
                    SwitchCtrl::Jump(r.below(len as u64) as usize)
                } else {
                    SwitchCtrl::Next
                }
            }
        };
        instrs.push(SwitchInstr::new(routes, ctrl));
    }
    let prog = SwitchProgram::new(instrs);
    prog.validate().expect("generated program must be valid");
    prog
}

fn build_machine(seed: u64, engine: EngineMode) -> RawMachine {
    let mut r = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let dim = GridDim { rows: 2, cols: 3 };
    let mut m = RawMachine::new(RawConfig {
        dim,
        engine,
        ..RawConfig::default()
    });
    for t in 0..dim.tiles() {
        for net in 0..NUM_STATIC_NETS {
            if r.chance(80) {
                m.set_switch_program(TileId(t as u16), net, random_program(&mut r, net));
            }
        }
        if r.chance(30) {
            m.schedule_stall(TileId(t as u16), r.below(120), 1 + r.below(60));
        }
    }
    // Random sources/sinks on edge ports.
    for t in 0..dim.tiles() {
        let tile = TileId(t as u16);
        for dir in [Dir::North, Dir::East, Dir::South, Dir::West] {
            if dim.neighbor(tile, dir).is_some() {
                continue;
            }
            for net in 0..NUM_STATIC_NETS {
                if r.chance(35) {
                    let n = 8 + r.below(48) as u32;
                    m.bind_device(
                        EdgePort::new(tile, dir, net),
                        Box::new(WordSource::new(0..n)),
                    );
                } else if r.chance(30) {
                    let interval = 1 + r.below(4);
                    m.bind_device(
                        EdgePort::new(tile, dir, net),
                        Box::new(WordSink::rate_limited(interval).0),
                    );
                }
            }
        }
    }
    m
}

fn fingerprint(m: &RawMachine) -> Vec<u64> {
    let mut v = vec![m.cycle(), m.edge_drops, m.routes_fired];
    for t in 0..m.dim().tiles() {
        let tile = TileId(t as u16);
        v.extend(m.stats(tile).counts.iter().copied());
        v.push(m.switch_stall_cycles(tile));
        let (csto, c0, c1) = m.proc_queue_occupancy(tile);
        v.extend([csto as u64, c0 as u64, c1 as u64]);
        for net in 0..NUM_STATIC_NETS {
            let (pc, halted) = m.switch_status(tile, net);
            v.push(pc as u64);
            v.push(halted as u64);
            for dir in [Dir::North, Dir::East, Dir::South, Dir::West] {
                v.push(m.link_occupancy(tile, net, dir) as u64);
            }
        }
    }
    v
}

/// A simple path through a random grid: it enters from off chip at
/// `entry`, visits each tile of `hops` once, and leaves off chip through
/// the last hop's exit direction. Each hop is `(tile, in_side, out_side)`.
struct RelayPath {
    dim: GridDim,
    entry: EdgePort,
    exit: EdgePort,
    hops: Vec<(TileId, Dir, Dir)>,
}

/// Draw a random self-avoiding path from an off-chip port to another.
/// Returns `None` when the walk boxes itself in; the caller redraws.
fn random_relay_path(r: &mut Lcg, net: usize) -> Option<RelayPath> {
    let dim = GridDim {
        rows: 1 + r.below(4) as u16,
        cols: 1 + r.below(4) as u16,
    };
    let tile = TileId(r.below(dim.tiles() as u64) as u16);
    let offchip: Vec<Dir> = Dir::ALL
        .into_iter()
        .filter(|&d| dim.neighbor(tile, d).is_none())
        .collect();
    if offchip.is_empty() {
        return None;
    }
    let in_dir = offchip[r.below(offchip.len() as u64) as usize];
    let entry = EdgePort::new(tile, in_dir, net);
    let mut visited = vec![tile];
    let mut hops = Vec::new();
    let (mut at, mut from) = (tile, in_dir);
    loop {
        let choices: Vec<Dir> = Dir::ALL
            .into_iter()
            .filter(|&d| d != from)
            .filter(|&d| dim.neighbor(at, d).is_none_or(|nb| !visited.contains(&nb)))
            .collect();
        if choices.is_empty() {
            return None;
        }
        let out = choices[r.below(choices.len() as u64) as usize];
        hops.push((at, from, out));
        match dim.neighbor(at, out) {
            Some(nb) => {
                visited.push(nb);
                at = nb;
                from = out.opposite();
            }
            None => {
                return Some(RelayPath {
                    dim,
                    entry,
                    exit: EdgePort::new(at, out, net),
                    hops,
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// event-skip == per-cycle on arbitrary schedules.
    #[test]
    fn engines_agree_on_random_schedules(seed in any::<u64>(), span in 50u64..400) {
        let mut reference = build_machine(seed, EngineMode::PerCycle);
        reference.run(span);
        let mut skip = build_machine(seed, EngineMode::EventSkip);
        skip.run(span);
        prop_assert_eq!(fingerprint(&skip), fingerprint(&reference));
    }

    /// Words relayed along a random path all reach the sink at its far
    /// end, in order, with nothing dropped or left buffered: an outcome
    /// fixed by the routes alone, so a mis-resolved neighbor, edge slot
    /// or route direction fails it under either engine.
    #[test]
    fn relay_paths_deliver_every_word(seed in any::<u64>()) {
        let mut r = Lcg(seed);
        let net = r.below(NUM_STATIC_NETS as u64) as usize;
        let path = loop {
            if let Some(p) = random_relay_path(&mut r, net) {
                break p;
            }
        };
        let words = 1 + r.below(40) as u32;
        let interval = 1 + r.below(4);
        for engine in [EngineMode::PerCycle, EngineMode::EventSkip] {
            let mut m = RawMachine::new(RawConfig {
                dim: path.dim,
                engine,
                ..RawConfig::default()
            });
            for &(tile, from, to) in &path.hops {
                m.set_switch_program(
                    tile,
                    net,
                    SwitchProgram::new(vec![SwitchInstr::new(
                        vec![Route::new(net, SwPort::from_dir(from), SwPort::from_dir(to))],
                        SwitchCtrl::Jump(0),
                    )]),
                );
            }
            m.bind_device(path.entry, Box::new(WordSource::new(0..words)));
            let (sink, got) = WordSink::rate_limited(interval);
            m.bind_device(path.exit, Box::new(sink));
            m.run((words as u64 + 8) * interval + 4 * path.hops.len() as u64 + 16);
            let delivered: Vec<u32> = got.lock().unwrap().iter().map(|&(_, w)| w).collect();
            prop_assert_eq!(delivered, (0..words).collect::<Vec<_>>(), "{:?}", engine);
            prop_assert_eq!(m.edge_drops, 0);
            prop_assert_eq!(m.routes_fired, words as u64 * path.hops.len() as u64);
        }
    }
}

/// Multicast with one destination backpressured. Tile 0 duplicates each
/// westbound word to its own processor's `$csti` and east to tile 1,
/// which forwards it off the unbound east edge. Nothing drains `$csti`,
/// so after it fills the pair is refused, and the scan fires the east
/// branch alone from the later scan position; the instruction then waits
/// forever on the `$csti` branch.
#[test]
fn multicast_partial_block_matches_per_cycle() {
    let build = |engine: EngineMode| {
        let mut m = RawMachine::new(RawConfig {
            dim: GridDim { rows: 1, cols: 2 },
            engine,
            ..RawConfig::default()
        });
        m.set_switch_program(
            TileId(0),
            NET0,
            SwitchProgram::new(vec![SwitchInstr::new(
                vec![
                    Route::new(NET0, SwPort::W, SwPort::Proc),
                    Route::new(NET0, SwPort::W, SwPort::E),
                ],
                SwitchCtrl::Jump(0),
            )]),
        );
        m.set_switch_program(
            TileId(1),
            NET0,
            SwitchProgram::new(vec![SwitchInstr::new(
                vec![Route::new(NET0, SwPort::W, SwPort::E)],
                SwitchCtrl::Jump(0),
            )]),
        );
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new(0u32..32)),
        );
        m
    };
    let mut reference = build(EngineMode::PerCycle);
    reference.run(200);
    let mut skip = build(EngineMode::EventSkip);
    skip.run(200);
    assert_eq!(fingerprint(&skip), fingerprint(&reference));
    // Four pairs fill the 4-deep `$csti`, then one east-only subgroup
    // fires: five words leave the chip and fourteen routes fire in all
    // (four pairs, one subgroup, five forwards at tile 1).
    let (_, csti0, _) = reference.proc_queue_occupancy(TileId(0));
    assert_eq!(csti0, 4);
    assert_eq!(reference.edge_drops, 5);
    assert_eq!(reference.routes_fired, 14);
}

/// An edge device bound after the switch program that routes to it
/// still receives every word: resolution records the edge slot, and the
/// device there is looked up when the route fires.
#[test]
fn device_bound_after_switch_program_receives_words() {
    let run = |engine: EngineMode| {
        let mut m = RawMachine::new(RawConfig {
            dim: GridDim { rows: 1, cols: 2 },
            engine,
            ..RawConfig::default()
        });
        for t in 0..2 {
            m.set_switch_program(
                TileId(t),
                NET0,
                SwitchProgram::new(vec![SwitchInstr::new(
                    vec![Route::new(NET0, SwPort::W, SwPort::E)],
                    SwitchCtrl::Jump(0),
                )]),
            );
        }
        m.bind_device(
            EdgePort::new(TileId(0), Dir::West, NET0),
            Box::new(WordSource::new(0u32..24)),
        );
        let (sink, got) = WordSink::rate_limited(3);
        m.bind_device(EdgePort::new(TileId(1), Dir::East, NET0), Box::new(sink));
        m.run(200);
        let words: Vec<(u64, u32)> = got.lock().unwrap().clone();
        (words, m.edge_drops, fingerprint(&m))
    };
    let (words, drops, fp) = run(EngineMode::PerCycle);
    assert_eq!(drops, 0, "words dropped at a bound edge");
    assert_eq!(
        words.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
        (0u32..24).collect::<Vec<_>>()
    );
    assert_eq!(run(EngineMode::EventSkip), (words, drops, fp));
}
