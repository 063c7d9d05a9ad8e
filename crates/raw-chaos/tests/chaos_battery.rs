//! The adversarial battery: random fault campaigns against the full
//! router, checking graceful degradation (count-and-drop, never panic,
//! never wedge), flow-order preservation, conservation of every
//! accounting plane, and bit-identical replay in both engine modes.

use proptest::prelude::*;

use raw_chaos::*;
use raw_fabric::{FabricConfig, Topology};
use raw_net::{CorruptRng, Packet};
use raw_sim::{EngineMode, RawConfig, NUM_STATIC_NETS};
use raw_telemetry::{shared, with_sink, DropReason, Recorder, SharedSink};
use raw_workloads::{generate, generate_n, Arrivals, Pattern, ScheduledPacket, Workload};
use raw_xbar::{IngressQueueing, RawRouter, RouterConfig, NPORTS};

/// VOQ ingress (so truncation faults are legal) on the 64-byte quantum.
fn voq_cfg(engine: EngineMode) -> RouterConfig {
    RouterConfig {
        quantum_words: 16,
        cut_through: true,
        queueing: IngressQueueing::Voq,
        raw: RawConfig {
            engine,
            ..RawConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// Derive a full random-but-valid [`FaultPlan`] from one seed, so the
/// proptest signature stays one draw and the plan replays exactly.
fn random_plan(seed: u64) -> FaultPlan {
    let mut r = CorruptRng::new(seed ^ 0x7b5e_55ed);
    let mut plan = FaultPlan::zero(r.next_u64());
    plan.header_flip_ppm = r.below(60_000);
    plan.payload_flip_ppm = r.below(60_000);
    plan.bad_checksum_ppm = r.below(60_000);
    plan.ttl_expire_ppm = r.below(60_000);
    plan.bad_version_ppm = r.below(60_000);
    plan.bad_ihl_ppm = r.below(60_000);
    plan.truncate_ppm = r.below(60_000);
    plan.lookup_miss_ppm = r.below(40_000);
    plan.lookup_penalty_cycles = r.below(64);
    for _ in 0..r.below(4) {
        plan.tile_stalls.push(StallSpec {
            port: r.below(4) as usize,
            element: r.below(4) as u8,
            start: 200 + u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(700)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.input_pauses.push(WindowSpec {
            port: r.below(4) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(500)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.output_stalls.push(WindowSpec {
            port: r.below(4) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(300)),
        });
    }
    plan
}

/// Run a chaos campaign and return the full delivered streams alongside
/// the fingerprint (for byte-level comparisons).
fn chaos_streams(
    cfg: RouterConfig,
    plan: &FaultPlan,
    sched: &[ScheduledPacket],
) -> (u64, Vec<Vec<(u64, Packet)>>) {
    let sink: SharedSink = shared(Recorder::new(16, NUM_STATIC_NETS));
    let mut cr = ChaosRouter::try_new(cfg, chaos_table(), plan.clone(), Some(sink)).unwrap();
    for sp in sched {
        cr.offer(sp.port, sp.release, &sp.packet);
    }
    assert!(cr.router.run_until_drained(4_000_000), "wedged");
    let streams = (0..NPORTS).map(|p| cr.router.delivered(p)).collect();
    (fingerprint(&cr.router), streams)
}

/// The unwrapped baseline with the identical telemetry arrangement.
fn plain_streams(cfg: RouterConfig, sched: &[ScheduledPacket]) -> (u64, Vec<Vec<(u64, Packet)>>) {
    let sink: SharedSink = shared(Recorder::new(16, NUM_STATIC_NETS));
    let mut r = RawRouter::new_with_telemetry(cfg, chaos_table(), sink);
    for sp in sched {
        r.offer(sp.port, sp.release, &sp.packet);
    }
    assert!(r.run_until_drained(4_000_000), "wedged");
    let streams = (0..NPORTS).map(|p| r.delivered(p)).collect();
    (fingerprint(&r), streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random fault plan over uniform traffic: accounting closes
    /// (`delivered + dropped == offered`), every drop lands in exactly
    /// one classified bucket mirrored by telemetry, no corrupt packet
    /// leaks through the fabric, per-tile cycle conservation holds, and
    /// surviving packets are never reordered within a flow.
    #[test]
    fn random_fault_plans_degrade_gracefully(
        seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let plan = random_plan(seed);
        let sched = generate(&Workload::average(64, 40, wl_seed));
        let res = run_chaos(
            voq_cfg(EngineMode::EventSkip), chaos_table(), &plan, &sched, 4_000_000,
        ).unwrap();
        prop_assert!(res.errors.is_empty(), "plan seed {seed:#x}: {:?}", res.errors);
        prop_assert!(res.drained, "plan seed {seed:#x} wedged");
        prop_assert_eq!(res.offered, sched.len() as u64);
        prop_assert_eq!(
            res.flow_order_violations, 0,
            "plan seed {:#x} reordered a flow", seed
        );
        prop_assert_eq!(res.dropped, res.injected.expected_drops());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same plan and traffic replay bit-identically: per-cycle and
    /// event-skip engine modes, and repeated runs, all agree on the exact delivered words, arrival cycles, drop
    /// counters, and final cycle count.
    #[test]
    fn same_seed_reruns_are_bit_identical_in_every_engine_mode(
        seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let plan = random_plan(seed);
        let sched = generate(&Workload::average(64, 30, wl_seed));
        let (ff_a, ff_streams) = chaos_streams(voq_cfg(EngineMode::EventSkip), &plan, &sched);
        let (ff_b, _) = chaos_streams(voq_cfg(EngineMode::EventSkip), &plan, &sched);
        let (pc, pc_streams) = chaos_streams(voq_cfg(EngineMode::PerCycle), &plan, &sched);
        prop_assert_eq!(ff_a, ff_b, "fast-forward rerun diverged (seed {:#x})", seed);
        prop_assert_eq!(ff_a, pc, "engine modes diverged (seed {:#x})", seed);
        prop_assert_eq!(ff_streams, pc_streams);
    }
}

/// Satellite: a zero-rate plan is a no-op wrapper — byte-identical
/// delivered streams versus the unwrapped router on the fig7-1 peak and
/// average workloads, in every engine mode.
#[test]
fn zero_rate_plan_is_byte_identical_to_unwrapped_router() {
    let peak = generate(&Workload::peak(64, 60));
    let avg = generate(&Workload::average(64, 60, 42));
    for (name, sched) in [("fig7-1-peak", &peak), ("fig7-1-avg", &avg)] {
        for engine in [EngineMode::PerCycle, EngineMode::EventSkip] {
            let plan = FaultPlan::zero(0xC4A0);
            let (cf, cs) = chaos_streams(voq_cfg(engine), &plan, sched);
            let (pf, ps) = plain_streams(voq_cfg(engine), sched);
            assert_eq!(cs, ps, "{name} {engine:?}: delivered streams differ");
            assert_eq!(cf, pf, "{name} {engine:?}: fingerprints differ");
        }
    }
}

/// Acceptance: the reference plan (seed 0xC4A0, 1% header corruption,
/// one 500-cycle stall window per tile, 0.5% lookup misses) completes
/// the fig7-1 peak workload at both packet-size corners with full
/// accounting, and replays identically.
#[test]
fn reference_plan_completes_fig7_1_peak_at_both_corners() {
    for bytes in [64usize, 1024] {
        let quantum = (bytes / 4).min(256);
        let cfg = || RouterConfig {
            quantum_words: quantum,
            cut_through: bytes / 4 <= 256,
            ..RouterConfig::default()
        };
        let packets = if bytes == 64 { 200 } else { 40 };
        let sched = generate(&Workload::peak(bytes, packets));
        let plan = FaultPlan::reference();
        let run = || run_chaos(cfg(), chaos_table(), &plan, &sched, 8_000_000).unwrap();
        let a = run();
        assert!(a.errors.is_empty(), "{bytes}B: {:?}", a.errors);
        assert!(a.drained, "{bytes}B: reference plan wedged the router");
        assert_eq!(a.delivered + a.dropped, a.offered);
        assert_eq!(a.flow_order_violations, 0);
        let b = run();
        assert_eq!(a.fingerprint, b.fingerprint, "{bytes}B: rerun diverged");
        assert_eq!(a.drops, b.drops);
    }
}

/// Satellite: seeded mutants of the drop accounting. Breaking any one
/// [`DropReason`] counter — in either direction, with or without a
/// sympathetic total bump, or on the telemetry mirror — must trip the
/// conservation check. This is what makes the invariant trustworthy.
#[test]
fn broken_drop_counters_are_caught_by_conservation() {
    let sched = generate(&Workload::peak(64, 10));
    for i in 0..DropReason::COUNT {
        let sink: SharedSink = shared(Recorder::new(16, NUM_STATIC_NETS));
        let mut r = RawRouter::new_with_telemetry(
            voq_cfg(EngineMode::EventSkip),
            chaos_table(),
            sink.clone(),
        );
        for sp in &sched {
            r.offer(sp.port, sp.release, &sp.packet);
        }
        assert!(r.run_until_drained(1_000_000));
        let errs = |r: &RawRouter, sink: &SharedSink| {
            with_sink::<Recorder, _>(sink, |rec| conservation_errors(r, Some(rec)))
        };
        assert!(errs(&r, &sink).is_empty(), "clean run must conserve");

        // Mutant A: a classified bucket bumped without the total.
        let port = i % NPORTS;
        r.ig_stats[port].lock().unwrap().drops[i] += 1;
        let found = errs(&r, &sink);
        assert!(
            found.iter().any(|e| e.contains("classified drop sum")),
            "mutant A on bucket {i} escaped: {found:?}"
        );

        // Mutant B: the total bumped in sympathy — the per-port sums now
        // agree, but offered-conservation and the telemetry mirror break.
        r.ig_stats[port].lock().unwrap().packets_dropped += 1;
        let found = errs(&r, &sink);
        assert!(
            found.iter().any(|e| e.contains("offered")),
            "mutant B on bucket {i} escaped offered-conservation: {found:?}"
        );
        assert!(
            found.iter().any(|e| e.contains("telemetry")),
            "mutant B on bucket {i} escaped the telemetry mirror: {found:?}"
        );

        // Mutant C: a spurious drop event on the telemetry side only.
        r.ig_stats[port].lock().unwrap().drops[i] -= 1;
        r.ig_stats[port].lock().unwrap().packets_dropped -= 1;
        assert!(errs(&r, &sink).is_empty(), "mutants must revert cleanly");
        sink.lock()
            .unwrap()
            .packet_drop(0, port as u8, DropReason::ALL[i]);
        let found = errs(&r, &sink);
        assert!(
            found.iter().any(|e| e.contains("telemetry")),
            "mutant C on bucket {i} escaped: {found:?}"
        );
    }
}

/// A random-but-valid fabric fault campaign from one seed: external
/// packet corruption, inter-router link stalls, and external line-card
/// windows. Single-router window classes (tile stalls, per-port
/// pauses) stay empty — their port indices mean internal ports.
fn random_fabric_plan(seed: u64) -> FabricFaultPlan {
    let mut r = CorruptRng::new(seed ^ 0xfa6b_71c0_c105_0000);
    let mut plan = FabricFaultPlan::zero(r.next_u64());
    plan.packet.header_flip_ppm = r.below(40_000);
    plan.packet.payload_flip_ppm = r.below(40_000);
    plan.packet.bad_checksum_ppm = r.below(40_000);
    plan.packet.ttl_expire_ppm = r.below(40_000);
    plan.packet.bad_version_ppm = r.below(40_000);
    plan.packet.bad_ihl_ppm = r.below(40_000);
    plan.packet.truncate_ppm = r.below(40_000);
    // Arm lookup faults only half the time, so the other half checks
    // the flow-order invariant (a forced miss legally splits a flow
    // across two middle stages).
    if r.chance_ppm(500_000) {
        plan.packet.lookup_miss_ppm = r.below(20_000);
        plan.packet.lookup_penalty_cycles = r.below(64);
    }
    for _ in 0..r.below(4) {
        plan.link_stalls.push(LinkStallSpec {
            link: r.below(32) as usize,
            start_epoch: u64::from(r.below(16)),
            epochs: 1 + u64::from(r.below(6)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.ext_input_pauses.push(WindowSpec {
            port: r.below(16) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(600)),
        });
    }
    if r.chance_ppm(500_000) {
        plan.ext_output_stalls.push(WindowSpec {
            port: r.below(16) as usize,
            start: u64::from(r.below(4_000)),
            len: 1 + u64::from(r.below(600)),
        });
    }
    plan
}

/// One full fabric chaos campaign; returns the fabric for inspection.
fn run_chaos_fabric(plan: &FabricFaultPlan, wl_seed: u64, threaded: bool) -> ChaosFabric {
    let cfg = FabricConfig {
        topology: Topology::Clos16,
        epoch_cycles: 256,
        router: RouterConfig {
            queueing: IngressQueueing::Voq,
            ..FabricConfig::default().router
        },
        ..FabricConfig::default()
    };
    let w = Workload {
        pattern: Pattern::FabricUniform,
        arrivals: Arrivals::Saturation,
        packet_bytes: 64,
        packets_per_port: 10,
        seed: wl_seed,
        ttl: 64,
    };
    let mut cf = ChaosFabric::try_new(cfg, plan.clone()).unwrap();
    for sp in generate_n(&w, 16) {
        cf.offer(sp.port, sp.release, &sp.packet);
    }
    assert!(cf.fabric.run_until_drained(50_000, threaded), "wedged");
    cf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Graceful degradation scales to the fabric: any random fault
    /// campaign against the 16-port Clos keeps every conservation
    /// plane closed, never wedges, replays bit-identically on both
    /// executors, and — when no lookup faults are armed — never
    /// reorders a surviving flow.
    #[test]
    fn random_fabric_fault_plans_degrade_gracefully(
        seed in any::<u64>(),
        wl_seed in any::<u64>(),
    ) {
        let plan = random_fabric_plan(seed);
        let cf = run_chaos_fabric(&plan, wl_seed, false);
        let errs = cf.fabric.conservation_errors();
        prop_assert!(errs.is_empty(), "plan seed {seed:#x}: {errs:?}");
        prop_assert_eq!(cf.fabric.offered(), 160);
        if plan.packet.lookup_miss_ppm == 0 {
            prop_assert_eq!(
                cf.fabric.flow_order_violations(), 0,
                "plan seed {:#x} reordered a flow", seed
            );
        }
        let replay = run_chaos_fabric(&plan, wl_seed, true);
        prop_assert_eq!(replay.injected, cf.injected);
        prop_assert_eq!(
            replay.fabric.fingerprint(), cf.fabric.fingerprint(),
            "plan seed {:#x} diverged between executors", seed
        );
    }
}
