//! What one repetition of a workload produces: the simulated result,
//! the correctness verdict, and the per-layer counters of a traced run.

use std::collections::{BTreeMap, HashMap};

use raw_net::Packet;

/// The simulated result of one repetition. Deterministic per seed: every
/// repetition of a run must produce an equal value.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    pub gbps: f64,
    pub mpps: f64,
    pub gbps_vs_paper: f64,
    /// Per delivered packet: cycles from its scheduled release to its
    /// delivery, in delivery order per output.
    pub latencies: Vec<u64>,
    /// Per flow (packets sharing a source address): cycles from its
    /// first release to its last delivery.
    pub fcts: Vec<u64>,
    pub offered: u64,
    pub delivered: u64,
    /// Simulated cycles the run advanced.
    pub cycles: u64,
    /// Simulated cycles summed over routers (the simulator's work).
    pub router_cycles: u64,
    /// Digest of every delivery: output, cycle, and packet identity.
    pub fingerprint: u64,
}

/// Latencies and flow completion times of a delivered stream. `release`
/// maps each offered packet's `(source, IP id)` to its release cycle;
/// a flow starts at the earliest release of its source.
pub fn latencies<'a>(
    release: &HashMap<(u32, u16), u64>,
    delivered: impl Iterator<Item = (u64, &'a Packet)>,
) -> (Vec<u64>, Vec<u64>) {
    let mut start: HashMap<u32, u64> = HashMap::new();
    for (&(src, _), &r) in release {
        let s = start.entry(src).or_insert(r);
        *s = (*s).min(r);
    }
    let mut lat = Vec::new();
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for (cycle, pkt) in delivered {
        let key = (pkt.header.src, pkt.header.id);
        let r = *release.get(&key).expect("every delivery was offered");
        lat.push(cycle - r);
        let l = last.entry(pkt.header.src).or_default();
        *l = (*l).max(cycle);
    }
    let fct = last
        .into_iter()
        .map(|(src, end)| end - start[&src])
        .collect();
    (lat, fct)
}

/// The correctness verdict of a run.
#[derive(Clone, Debug, Default)]
pub struct Check {
    /// Packets offered.
    pub attempted: u64,
    /// Packets that failed, by reason.
    pub failed_packets: Vec<(String, u64)>,
    /// Other checks that failed.
    pub failed_checks: Vec<String>,
}

impl Check {
    pub fn new(attempted: u64) -> Check {
        Check {
            attempted,
            ..Check::default()
        }
    }

    /// Count `n` failed packets under `reason` (zero counts nothing).
    pub fn fail_packets(&mut self, reason: &str, n: u64) {
        if n > 0 {
            self.failed_packets.push((reason.to_string(), n));
        }
    }

    /// Record `what` as failed unless `ok`.
    pub fn expect(&mut self, what: &str, ok: bool) {
        if !ok && !self.failed_checks.iter().any(|f| f == what) {
            self.failed_checks.push(what.to_string());
        }
    }

    /// Add the verdict of another draw: its packets and its failures.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed_packets.extend(other.failed_packets);
        for what in &other.failed_checks {
            self.expect(what, false);
        }
    }

    pub fn packets_failed(&self) -> u64 {
        self.failed_packets.iter().map(|(_, n)| n).sum()
    }

    /// Failed packets plus one per other failed check.
    pub fn failed(&self) -> u64 {
        self.packets_failed() + self.failed_checks.len() as u64
    }

    pub fn ok(&self) -> bool {
        self.failed() == 0
    }

    pub fn describe(&self) -> Vec<String> {
        self.failed_packets
            .iter()
            .map(|(r, n)| format!("{n} packets {r}"))
            .chain(self.failed_checks.iter().cloned())
            .collect()
    }
}

/// Per-layer values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.0.insert(name.into(), v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// FNV-1a over 64-bit words.
pub fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}
