//! Routing-table generation and the Lookup Processor's cycle-cost model.
//!
//! The router maps destination IP addresses to one of its output ports.
//! The network processor builds per-port forwarding tables (§2.2.1); for
//! experiments we synthesize tables with realistic prefix-length mixes
//! and derive the cycles a Lookup Processor spends per lookup from the
//! memory accesses each structure performs.

use std::sync::LazyLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dir24::Dir24_8;
use crate::patricia::{PatriciaTable, RouteEntry};

/// Next-hop values at or above this flag encode a multicast port set in
/// their low bits (`next_hop = MULTICAST_FLAG | mask`). Class-D prefixes
/// installed by a multicast routing protocol use this form; unicast
/// routes store a plain port number.
pub const MULTICAST_FLAG: u32 = 0x100;

/// Decoded next hop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hop {
    Unicast(u32),
    /// A set of output ports (bit `p` = port `p`).
    Multicast(u8),
}

/// Decode a stored next-hop value.
pub fn decode_hop(next_hop: u32) -> Hop {
    if next_hop >= MULTICAST_FLAG {
        Hop::Multicast((next_hop & 0xf) as u8)
    } else {
        Hop::Unicast(next_hop)
    }
}

/// Encode a multicast port set as a next-hop value.
pub fn encode_multicast(mask: u8) -> u32 {
    assert!(mask != 0 && mask < 16);
    MULTICAST_FLAG | mask as u32
}

/// Generate `n` distinct random prefixes mapping to `ports` next hops.
/// The prefix-length distribution is weighted toward /16–/24, the shape
/// of real BGP tables (a /0 default route is always included).
pub fn synth_table(n: usize, ports: u32, seed: u64) -> Vec<RouteEntry> {
    assert!(ports >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![RouteEntry::new(0, 0, rng.gen_range(0..ports))];
    let mut seen = std::collections::HashSet::new();
    seen.insert((0u32, 0u8));
    while out.len() < n {
        let len: u8 = match rng.gen_range(0..100) {
            0..=9 => rng.gen_range(8..=15),
            10..=54 => rng.gen_range(16..=23),
            55..=94 => 24,
            _ => rng.gen_range(25..=32),
        };
        let prefix = crate::patricia::mask(rng.gen::<u32>(), len);
        if seen.insert((prefix, len)) {
            out.push(RouteEntry::new(prefix, len, rng.gen_range(0..ports)));
        }
    }
    out
}

/// Addresses drawn to hit the table: with probability `hit_bias` an
/// address inside a random route's prefix, else uniform.
pub fn synth_addresses(routes: &[RouteEntry], n: usize, hit_bias: f64, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if !routes.is_empty() && rng.gen_bool(hit_bias) {
                let r = routes[rng.gen_range(0..routes.len())];
                let host_bits = 32 - r.len as u32;
                let noise = if host_bits == 0 {
                    0
                } else {
                    rng.gen::<u32>() & (u32::MAX >> (32 - host_bits))
                };
                r.prefix | noise
            } else {
                rng.gen()
            }
        })
        .collect()
}

/// Cycle-cost model for a lookup on the Raw Lookup Processor: each
/// data-structure memory access costs `cycles_per_access` (a cached local
/// access is ~3 cycles; the off-chip table of §4.2 costs more), plus a
/// fixed instruction overhead.
#[derive(Clone, Copy, Debug)]
pub struct LookupCostModel {
    pub fixed_overhead: u32,
    pub cycles_per_access: u32,
}

impl Default for LookupCostModel {
    fn default() -> Self {
        // A handful of instructions to unpack the header and reply, plus
        // cached-table accesses.
        LookupCostModel {
            fixed_overhead: 6,
            cycles_per_access: 3,
        }
    }
}

impl LookupCostModel {
    pub fn cost(&self, accesses: u32) -> u32 {
        self.fixed_overhead + self.cycles_per_access * accesses
    }
}

/// Two-level memory-hierarchy cost model for the DIR-24-8 engine: the
/// first access hits the on-chip level-1 array, every further access
/// (the long-prefix chain to a level-2 block) goes to the slower table
/// memory. Unlike [`LookupCostModel`]'s flat per-access charge, this
/// model splits a lookup into *busy* cycles (instruction overhead plus
/// the L1 probe) and *stall* cycles (the L2 chase) so telemetry can
/// attribute the memory-bound share of a lookup separately
/// (`TileState::LookupStall` in raw-telemetry).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookupMemModel {
    /// Instruction overhead to unpack the header and reply.
    pub overhead_cycles: u32,
    /// Cycles for the level-1 direct-index probe (on-chip SRAM).
    pub l1_cycles: u32,
    /// Cycles per additional access — the level-2 block fetch from the
    /// large table memory (§4.2's off-chip table; DRAM-class latency).
    pub l2_cycles: u32,
}

impl Default for LookupMemModel {
    fn default() -> Self {
        // L1 matches the cached-access cost of [`LookupCostModel`]; the
        // L2 fetch models the big-table memory a full BGP FIB needs.
        LookupMemModel {
            overhead_cycles: 6,
            l1_cycles: 3,
            l2_cycles: 30,
        }
    }
}

impl LookupMemModel {
    /// Cycles the lookup retires as useful work: the fixed overhead plus
    /// the first (level-1) access.
    pub fn busy_cycles(&self) -> u32 {
        self.overhead_cycles + self.l1_cycles
    }

    /// Cycles stalled on table memory: every access past the first.
    pub fn stall_cycles(&self, accesses: u32) -> u32 {
        self.l2_cycles * accesses.saturating_sub(1)
    }

    /// Total modeled lookup latency for a trace of `accesses` accesses.
    pub fn cost(&self, accesses: u32) -> u32 {
        self.busy_cycles() + self.stall_cycles(accesses)
    }
}

/// The DIR-24-8 half of a [`ForwardingTable`]: built from its own copy
/// of the routes the first time it is dereferenced (or forced with
/// [`LazyLock::force`]).
pub type LazyDir = LazyLock<Dir24_8, Box<dyn FnOnce() -> Dir24_8 + Send>>;

/// A route set behind both lookup structures, with a common interface
/// for the router and the benchmarks. The Patricia trie is built with
/// the table; the DIR-24-8 table only when a lookup or a caller first
/// reaches it, so a router on the Patricia engine never pays for the
/// DIR table's level-1 array.
pub struct ForwardingTable {
    pub patricia: PatriciaTable,
    pub dir: LazyDir,
    pub cost: LookupCostModel,
}

/// Which lookup engine the router uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    Patricia,
    Dir24_8,
}

impl ForwardingTable {
    pub fn build(routes: &[RouteEntry]) -> ForwardingTable {
        ForwardingTable::build_with_l1_bits(routes, 24)
    }

    /// Build with a reduced DIR level-1 split (see [`DirTable::with_bits`]).
    /// The canonical 24-bit level 1 is a 2^24-slot array; a 16-bit split
    /// runs the identical algorithm in 2^16 slots. Use it wherever the
    /// DIR engine's memory layout is not itself under measurement.
    ///
    /// [`DirTable::with_bits`]: crate::DirTable::with_bits
    pub fn build_with_l1_bits(routes: &[RouteEntry], l1_bits: u8) -> ForwardingTable {
        let owned = routes.to_vec();
        ForwardingTable {
            patricia: PatriciaTable::build(routes),
            dir: LazyLock::new(Box::new(move || Dir24_8::from_vec(owned, l1_bits))),
            cost: LookupCostModel::default(),
        }
    }

    /// Lookup with `engine`, returning `(next_hop, cycles)`.
    pub fn lookup(&self, engine: Engine, addr: u32) -> (Option<u32>, u32) {
        let (hop, accesses) = self.lookup_traced(engine, addr);
        (hop, self.cost.cost(accesses))
    }

    /// Lookup with `engine`, returning the raw `(next_hop, accesses)`
    /// trace (for callers that apply their own cost model, e.g.
    /// [`LookupMemModel`]).
    pub fn lookup_traced(&self, engine: Engine, addr: u32) -> (Option<u32>, u32) {
        match engine {
            Engine::Patricia => self.patricia.lookup_traced(addr),
            Engine::Dir24_8 => self.dir.lookup_traced(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_table_has_default_and_size() {
        let t = synth_table(1000, 4, 1);
        assert_eq!(t.len(), 1000);
        assert!(t.iter().any(|r| r.len == 0), "default route present");
        assert!(t.iter().all(|r| r.next_hop < 4));
        // Deterministic.
        assert_eq!(synth_table(1000, 4, 1)[10].prefix, t[10].prefix);
    }

    #[test]
    fn engines_agree_on_synthetic_tables() {
        let routes = synth_table(2000, 4, 7);
        let ft = ForwardingTable::build(&routes);
        for addr in synth_addresses(&routes, 5000, 0.8, 8) {
            let (a, _) = ft.lookup(Engine::Patricia, addr);
            let (b, _) = ft.lookup(Engine::Dir24_8, addr);
            assert_eq!(a, b, "engines disagree on {addr:#x}");
        }
    }

    #[test]
    fn dir_is_constant_accesses() {
        let routes = synth_table(2000, 4, 3);
        let ft = ForwardingTable::build(&routes);
        for addr in synth_addresses(&routes, 1000, 0.9, 4) {
            let (_, cost) = ft.lookup(Engine::Dir24_8, addr);
            let model = ft.cost;
            assert!(cost <= model.cost(2));
        }
    }

    #[test]
    fn every_address_hits_default_route() {
        let routes = synth_table(100, 4, 11);
        let ft = ForwardingTable::build(&routes);
        for addr in [0u32, u32::MAX, 0x12345678] {
            assert!(ft.lookup(Engine::Patricia, addr).0.is_some());
            assert!(ft.lookup(Engine::Dir24_8, addr).0.is_some());
        }
    }

    #[test]
    fn multicast_hops_roundtrip() {
        assert_eq!(decode_hop(2), Hop::Unicast(2));
        assert_eq!(decode_hop(encode_multicast(0b1011)), Hop::Multicast(0b1011));
        // A class-D route through the trie carries the encoding intact.
        let routes = vec![
            RouteEntry::new(0, 0, 1),
            RouteEntry::new(0xe000_0000, 4, encode_multicast(0b0110)),
        ];
        let ft = ForwardingTable::build(&routes);
        let (hop, _) = ft.lookup(Engine::Patricia, 0xe000_0001);
        assert_eq!(decode_hop(hop.unwrap()), Hop::Multicast(0b0110));
        let (hop, _) = ft.lookup(Engine::Dir24_8, 0xe000_0001);
        assert_eq!(decode_hop(hop.unwrap()), Hop::Multicast(0b0110));
    }

    #[test]
    fn cost_model_scales() {
        let m = LookupCostModel::default();
        assert_eq!(m.cost(1), 9);
        assert_eq!(m.cost(2), 12);
        assert!(m.cost(32) > m.cost(2), "trie worst case costs more");
    }
}
