//! The four workloads: what each runs, at which size, and why.

use raw_fabric::Topology;
use raw_workloads::Pattern;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed no tuning used. A claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20030917;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Peak64,
    Avg1024,
    Fib1mChurn,
    Clos64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Peak64,
        Workload::Avg1024,
        Workload::Fib1mChurn,
        Workload::Clos64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Peak64 => "peak64",
            Workload::Avg1024 => "avg1024",
            Workload::Fib1mChurn => "fib1m-churn",
            Workload::Clos64 => "clos64",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Peak64 => {
                "Figure 7-1 peak at 64 B: every tile busy every cycle, so host time is the \
                 raw-sim hot loop and the per-packet quantum path sets sim_gbps"
            }
            Workload::Avg1024 => {
                "Figure 7-1 average at 1,024 B: body streaming and token contention dominate \
                 and per-packet overhead is amortized"
            }
            Workload::Fib1mChurn => {
                "1M-prefix FIB through DIR-24-8 with the lookup memory model, open-loop flow \
                 churn below saturation, so latency moves where throughput cannot"
            }
            Workload::Clos64 => {
                "80-router 5-stage Clos on the sharded executor: the only workload that runs \
                 raw-fabric epochs, links and shards, and its 1 GB build"
            }
        }
    }
}

/// The traffic and size of one workload.
#[derive(Clone, Debug)]
pub enum Shape {
    /// One 4-port router at saturation, measured over `[warm, warm+window)`
    /// as Figure 7-1 is.
    Saturated {
        pattern: Pattern,
        packets_per_port: usize,
        warm: u64,
        window: u64,
    },
    /// One 4-port router forwarding against a synthesized FIB, fed by
    /// open-loop flow churn and drained.
    Churn {
        prefixes: usize,
        flows_per_port: u32,
        alpha_milli: u32,
        mean_iat_cycles: u64,
        max_flow_pkts: u32,
        /// Share of flows whose destination is drawn inside a route's
        /// prefix; the rest are uniform over the address space.
        hit_bias: f64,
        warm: u64,
    },
    /// A multi-router fabric at saturation, drained.
    Fabric {
        topology: Topology,
        packets_per_port: usize,
        epoch_cycles: u64,
        warm_epochs: u64,
    },
}

/// Everything that sizes a workload.
#[derive(Clone, Debug)]
pub struct Params {
    pub workload: Workload,
    pub packet_bytes: usize,
    pub shape: Shape,
    /// The paper's Figure 7-1 value `sim_gbps` is divided by.
    pub paper_gbps: f64,
    /// Which Figure 7-1 value that is.
    pub paper_ref: &'static str,
    /// Independent input draws per run. Repetition `r` of a run simulates
    /// draw `r % populations`, and each simulated metric is the median
    /// over the draws: one draw of a bursty workload sets its tail
    /// figures by a few flows, so a single draw is not steady.
    pub populations: usize,
}

/// Figure 7-1 measurement window of the `repro` experiments.
const WARM: u64 = 20_000;
const WINDOW: u64 = 200_000;

/// Packets per port that keep a port busy for `cycles` (the `repro`
/// Figure 7-1 sizing, so the peak64 figure is the published one).
fn packets_for(bytes: usize, cycles: u64) -> usize {
    ((cycles as usize) / (bytes / 4)).clamp(64, 8000)
}

impl Params {
    /// The benchmark's size.
    pub fn full(w: Workload) -> Params {
        Params::sized(w, false)
    }

    /// A shorter run of the same workload, for the harness's own tests.
    pub fn short(w: Workload) -> Params {
        Params::sized(w, true)
    }

    fn sized(w: Workload, short: bool) -> Params {
        let (packet_bytes, shape, paper_gbps, paper_ref, populations) = match w {
            // The peak figure is cheap at full size, and the test compares
            // it with results/fig7_1_peak.json, so it is never shortened.
            Workload::Peak64 => (
                64,
                Shape::Saturated {
                    pattern: Pattern::Permutation { shift: 2 },
                    packets_per_port: packets_for(64, WARM + WINDOW),
                    warm: WARM,
                    window: WINDOW,
                },
                7.3,
                "Figure 7-1 peak, 64 B",
                // The permutation draws nothing: every draw is the same.
                1,
            ),
            Workload::Avg1024 => {
                let window = if short { 40_000 } else { WINDOW };
                (
                    1024,
                    Shape::Saturated {
                        pattern: Pattern::Uniform,
                        packets_per_port: packets_for(1024, WARM + window),
                        warm: WARM,
                        window,
                    },
                    18.6,
                    "Figure 7-1 average, 1,024 B",
                    5,
                )
            }
            Workload::Fib1mChurn => (
                64,
                Shape::Churn {
                    prefixes: if short { 20_000 } else { 1_000_000 },
                    flows_per_port: if short { 100 } else { 2_500 },
                    alpha_milli: 1300,
                    // Flows of at most 32 packets: with the 4,096 cap of
                    // the repro fib study, a handful of flows per draw
                    // carry most packets and every tail figure swings 3x
                    // between seeds. The spacing keeps that study's ~0.7
                    // load on the hottest output at the smaller mean size
                    // (2.76 packets a flow against 3.66).
                    mean_iat_cycles: 750,
                    max_flow_pkts: 32,
                    // Every destination inside a route's prefix. The fib
                    // study's 10 % of uniform destinations fall mostly to
                    // the default route, whose next hop is one draw per
                    // FIB: whether it landed on the hot output moved the
                    // hot load, and every latency figure, between seeds.
                    hit_bias: 1.0,
                    warm: WARM,
                },
                5.0,
                "Figure 7-1 average, 64 B",
                16,
            ),
            Workload::Clos64 => (
                64,
                Shape::Fabric {
                    topology: Topology::Clos64,
                    packets_per_port: if short { 4 } else { 48 },
                    epoch_cycles: 512,
                    warm_epochs: 4,
                },
                // 64 uniform external ports against 16 of the paper's 4-port
                // routers at their 64 B average.
                16.0 * 5.0,
                "16 x Figure 7-1 average, 64 B",
                3,
            ),
        };
        Params {
            workload: w,
            packet_bytes,
            shape,
            paper_gbps,
            paper_ref,
            populations,
        }
    }

    /// The parameters as manifest entries.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let mut v = vec![("packet_bytes", self.packet_bytes.to_string())];
        match &self.shape {
            Shape::Saturated {
                pattern,
                packets_per_port,
                warm,
                window,
            } => {
                v.push(("pattern", format!("{pattern:?}")));
                v.push(("packets_per_port", packets_per_port.to_string()));
                v.push(("warm_cycles", warm.to_string()));
                v.push(("window_cycles", window.to_string()));
            }
            Shape::Churn {
                prefixes,
                flows_per_port,
                alpha_milli,
                mean_iat_cycles,
                max_flow_pkts,
                hit_bias,
                warm,
            } => {
                v.push(("prefixes", prefixes.to_string()));
                v.push(("flows_per_port", flows_per_port.to_string()));
                v.push(("alpha_milli", alpha_milli.to_string()));
                v.push(("mean_iat_cycles", mean_iat_cycles.to_string()));
                v.push(("max_flow_pkts", max_flow_pkts.to_string()));
                v.push(("hit_bias", hit_bias.to_string()));
                v.push(("warm_cycles", warm.to_string()));
            }
            Shape::Fabric {
                topology,
                packets_per_port,
                epoch_cycles,
                warm_epochs,
            } => {
                v.push(("topology", topology.name().to_string()));
                v.push(("routers", topology.routers().to_string()));
                v.push(("packets_per_port", packets_per_port.to_string()));
                v.push(("epoch_cycles", epoch_cycles.to_string()));
                v.push(("warm_epochs", warm_epochs.to_string()));
            }
        }
        v.push(("populations", self.populations.to_string()));
        v.push(("paper_gbps", self.paper_gbps.to_string()));
        v.push(("paper_ref", self.paper_ref.to_string()));
        v
    }
}

/// The seed of input `input` of draw `population` of a run.
pub fn draw_seed(seed: u64, population: usize, input: u64) -> u64 {
    salt(salt(seed, population as u64), input)
}

/// Derive an independent seed for one input of a run.
pub fn salt(seed: u64, input: u64) -> u64 {
    // SplitMix64 finalizer: nearby run seeds give unrelated input seeds.
    let mut z = seed ^ input.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
