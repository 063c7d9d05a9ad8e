//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p raw-bench --bin repro -- all
//! cargo run --release -p raw-bench --bin repro -- fig7-1-peak
//! ```
//!
//! Each subcommand prints the paper-formatted table (with the paper's
//! reported values beside ours) and writes `results/<exp>.json`.

use std::path::PathBuf;

use raw_bench::*;

fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

fn run_fig7_1_peak() {
    println!("== Figure 7-1 (top): peak throughput vs packet size ==");
    let pts = peak_sweep();
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.bytes.to_string(),
                fmt2(p.gbps),
                fmt2(p.mpps),
                fmt2(p.paper_gbps),
                format!("{:.2}x", p.paper_gbps / p.gbps),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["bytes", "Gbps", "Mpps", "paper Gbps", "paper/ours"],
            &rows
        )
    );
    let click = click_baseline();
    println!(
        "Click baseline (64 B): {:.2} Gbps (paper bar: {:.2} Gbps); Raw/Click at 1024 B: {:.0}x",
        click[0].gbps,
        PAPER_CLICK_GBPS,
        pts.last().unwrap().gbps / click[0].gbps
    );
    write_json(&results_dir(), "fig7_1_peak", &pts).unwrap();
    write_json(&results_dir(), "click_baseline", &click).unwrap();
}

fn run_fig7_1_avg() {
    println!("== Figure 7-1 (bottom): average throughput (uniform traffic) ==");
    let pts = avg_sweep();
    let peak = peak_sweep();
    let rows: Vec<Vec<String>> = pts
        .iter()
        .zip(&peak)
        .map(|(p, pk)| {
            vec![
                p.bytes.to_string(),
                fmt2(p.gbps),
                fmt2(p.paper_gbps),
                format!("{:.0}%", 100.0 * p.gbps / pk.gbps),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["bytes", "Gbps", "paper Gbps", "avg/peak"], &rows)
    );
    println!("(the paper reports average ≈ 69% of peak)");
    write_json(&results_dir(), "fig7_1_avg", &pts).unwrap();
}

fn run_fig7_2() {
    println!("== Figure 7-2: mapping of router elements to Raw tiles ==");
    use raw_xbar::RouterLayout;
    let l = RouterLayout::canonical();
    let mut roles = vec![String::new(); 16];
    for (i, p) in l.ports.iter().enumerate() {
        roles[p.ingress.index()] = format!("Ig{i}");
        roles[p.lookup.index()] = format!("Lk{i}");
        roles[p.crossbar.index()] = format!("Xb{i}");
        roles[p.egress.index()] = format!("Eg{i}");
    }
    println!("        Out0    Out1");
    for r in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|c| format!("{:>4}({:>2})", roles[r * 4 + c], r * 4 + c))
            .collect();
        let side = match r {
            1 => "In0 >  ",
            2 => "In3 >  ",
            _ => "       ",
        };
        let end = match r {
            1 => "  < In1",
            2 => "  < In2",
            _ => "",
        };
        println!("{side}{}{end}", row.join(" "));
    }
    println!("        Out3    Out2");
    println!("(Xb tiles 5-6-10-9 form the rotating ring, clockwise 0->1->2->3)");
}

fn run_fig7_3() {
    println!("== Figure 7-3: per-tile utilization, 800 cycles ==");
    for bytes in [64usize, 1024] {
        let (ascii, csv) = fig7_3(bytes);
        println!(
            "--- {bytes}-byte packets ('#' busy, '.' blocked, ' ' idle; bucket = 8 cycles) ---"
        );
        println!("{ascii}");
        std::fs::create_dir_all(results_dir()).unwrap();
        std::fs::write(results_dir().join(format!("fig7_3_{bytes}.csv")), csv).unwrap();
    }
    println!("CSV traces written to results/fig7_3_*.csv");
}

fn run_table6_1() {
    println!("== §6.1-6.2 / Table 6.1: configuration-space minimization ==");
    let t = table6_1();
    println!("global configuration space (5^4 x 4):  {}", t.global_space);
    println!(
        "distinct switch-code configurations:   {} (paper: {})",
        t.switch_code_configs, t.paper_minimized
    );
    println!(
        "  + ingress-blocked boolean:           {}",
        t.with_grant_flag
    );
    println!("  clients only (Table 6.1 alphabet):   {}", t.clients_only);
    println!(
        "reduction factor:                      {:.1}x (paper: ~{:.0}x)",
        t.reduction_factor, t.paper_reduction
    );
    println!(
        "switch program @ quantum 64:           {} instrs (IMEM: {}) -> fits",
        t.program_instrs_q64, t.switch_imem
    );
    println!(
        "unminimized program @ quantum 64:      {} instrs -> {:.0}x over IMEM",
        t.unminimized_instrs_q64,
        t.unminimized_instrs_q64 as f64 / t.switch_imem as f64
    );
    write_json(&results_dir(), "table6_1", &t).unwrap();
}

fn run_fig3_2() {
    println!("== Figure 3-2: tile-to-tile send timing ==");
    let f = fig3_2();
    println!(
        "total cycles: {} (paper: {}), send-to-use: {} (paper: {})",
        f.total_cycles, f.paper_total, f.send_to_use, f.paper_send_to_use
    );
    write_json(&results_dir(), "fig3_2", &f).unwrap();
}

fn run_ch2() {
    println!("== §2.2.2 claims: HOL blocking, VOQ+iSLIP, cells vs packets ==");
    let c = ch2_claims();
    let rows: Vec<Vec<String>> = c
        .rows
        .iter()
        .map(|r| {
            vec![
                fmt2(r.load),
                format!("{:.3}", r.fifo_delivered),
                format!("{:.3}", r.voq_delivered),
            ]
        })
        .collect();
    println!("{}", table(&["load", "FIFO", "VOQ+iSLIP"], &rows));
    println!(
        "saturation: FIFO {:.3} (paper ~{:.3}), VOQ {:.3} (paper ~{:.1})",
        c.fifo_saturation, c.paper_fifo, c.voq_saturation, c.paper_voq
    );
    println!(
        "cells vs variable packets: {:.3} vs {:.3} (paper: ~1.0 vs ~0.6)",
        c.cells_throughput, c.packets_throughput
    );
    write_json(&results_dir(), "ch2_claims", &c).unwrap();
}

fn run_fairness() {
    println!("== §5.4 fairness + §8.7 weighted-token QoS (all->port0 hotspot) ==");
    for weights in [[1u32, 1, 1, 1], [4, 1, 1, 1]] {
        let f = fairness(weights);
        println!(
            "weights {:?}: per-source deliveries {:?}, Jain index {:.3}",
            f.weights, f.per_source, f.jain_index
        );
        write_json(&results_dir(), &format!("fairness_w{}", weights[0]), &f).unwrap();
    }
}

fn run_net2() {
    println!("== §5.3: sufficiency of a single static network ==");
    let u = ring_utilization();
    println!(
        "output-link words/cycle: {:.3}; busiest ring link words/cycle: {:.3}; ring capacity: {:.1}",
        u.out_words_per_cycle, u.ring_words_per_cycle, u.ring_capacity
    );
    println!(
        "ring headroom at peak: {:.0}% -> a second static network adds idle capacity only",
        100.0 * (u.ring_capacity - u.ring_words_per_cycle)
    );
    write_json(&results_dir(), "ring_utilization", &u).unwrap();
}

fn run_deadlock() {
    println!("== §5.5: randomized deadlock sweep ==");
    let d = deadlock_sweep(12);
    println!(
        "{}/{} random workloads drained completely ({} packets total, zero corruption)",
        d.drained, d.trials, d.packets_total
    );
    assert_eq!(d.drained, d.trials, "deadlock or loss detected!");
    write_json(&results_dir(), "deadlock_sweep", &d).unwrap();
}

fn run_multicast() {
    println!("== §8.6: multicast fanout in the fabric (end to end) ==");
    let m = multicast_demo();
    println!(
        "{} fanout-3 copies delivered: {} cycles with fabric multicast vs {} with \
         input replication ({:.2}x speedup)",
        m.copies,
        m.cycles_with_fanout,
        m.cycles_with_replication,
        m.cycles_with_replication as f64 / m.cycles_with_fanout as f64
    );
    println!(
        "multicast configuration space: {} global points minimized to {} local configurations",
        m.mcast_global_space, m.mcast_minimized
    );
    write_json(&results_dir(), "multicast", &m).unwrap();
}

fn run_scaling() {
    println!("== §8.5: scalability (ring vs mesh-of-4-port-routers) ==");
    let rows = scaling_study();
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.ports.to_string(),
                format!("{:.3}", r.ring_throughput),
                format!("{:.3}", r.mesh_throughput),
            ]
        })
        .collect();
    println!("{}", table(&["ports", "ring tput", "mesh tput"], &t));
    write_json(&results_dir(), "scaling", &rows).unwrap();
}

fn run_quantum() {
    println!("== ablation: quantum size & the fragmentation path (1024 B packets) ==");
    let rows = quantum_ablation();
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.quantum_words.to_string(),
                if r.cut_through {
                    "cut-through"
                } else {
                    "store-fwd"
                }
                .into(),
                fmt2(r.gbps),
            ]
        })
        .collect();
    println!("{}", table(&["quantum", "egress", "Gbps"], &t));
    write_json(&results_dir(), "quantum_ablation", &rows).unwrap();
}

fn run_asm() {
    println!("== §6.5: Crossbar Processors in generated Raw assembly ==");
    let a = asm_crossbar_study();
    println!(
        "512 B peak (quantum 128): native state machines {:.2} Gbps, \
         interpreted assembly {:.2} Gbps",
        a.native_gbps_512, a.asm_gbps_512
    );
    println!(
        "({}-instruction tile program: header exchange, ring all-to-all, jump-table \
         index, lw, grant, swpcr)",
        a.asm_program_instrs
    );
    write_json(&results_dir(), "asm_crossbar", &a).unwrap();
}

fn run_voq() {
    println!("== §4.4 ingress queueing: FIFO (the paper's design) vs VOQ extension ==");
    let v = voq_study();
    println!(
        "HOL victim completion:  FIFO {} cycles, VOQ {} cycles ({:.2}x earlier)",
        v.fifo_victim_cycle,
        v.voq_victim_cycle,
        v.fifo_victim_cycle as f64 / v.voq_victim_cycle as f64
    );
    println!(
        "whole-workload drain:   FIFO {} cycles, VOQ {} cycles",
        v.fifo_total_cycle, v.voq_total_cycle
    );
    println!(
        "(VOQ un-blocks the victims at the cost of store-and-forward buffering — \
         the Chapter-2 trade, measured on the Raw fabric)"
    );
    write_json(&results_dir(), "voq_study", &v).unwrap();
}

fn run_latency() {
    println!("== latency vs offered load (256 B packets, uniform destinations) ==");
    let rows = latency_sweep();
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.load_pct),
                format!("{:.0}", r.mean_cycles),
                r.p95_cycles.to_string(),
                r.delivered.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["load", "mean cyc", "p95 cyc", "delivered"], &t)
    );
    println!("(queueing delay grows with load — the MGR §2.2.1 trade-off)");
    write_json(&results_dir(), "latency", &rows).unwrap();
}

fn run_lookup() {
    println!("== ablation: lookup engine (§8.2 direction) ==");
    let rows = lookup_ablation();
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.clone(),
                fmt2(r.gbps_64b),
                fmt2(r.mean_lookup_cycles),
            ]
        })
        .collect();
    println!("{}", table(&["engine", "64B Gbps", "lookup cyc"], &t));
    write_json(&results_dir(), "lookup_ablation", &rows).unwrap();
}

fn run_simspeed() {
    // `repro -- simspeed [cycles] [repeats]`: a smaller span makes a
    // smoke test (CI); the defaults match the Figure 7-1 measurement
    // run with median-of-3 timing.
    let cycles = match std::env::args().nth(2) {
        None => 220_000,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("simspeed: '{s}' is not a cycle count")),
    };
    let repeats = match std::env::args().nth(3) {
        None => 3,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("simspeed: '{s}' is not a repeat count")),
    };
    println!(
        "== simulator performance: wall-clock per engine mode ({cycles} router cycles, \
         median of {repeats}) =="
    );
    let rep = simspeed_with(cycles, repeats);
    let rows: Vec<Vec<String>> = rep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.engine.clone(),
                r.sim_cycles.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.2}", r.mcycles_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["scenario", "engine", "sim cycles", "wall ms", "Mcyc/s"],
            &rows
        )
    );
    let srows: Vec<Vec<String>> = rep
        .speedups
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                format!("{:.2}x", s.event_skip_vs_per_cycle),
                if s.fingerprints_match {
                    "identical"
                } else {
                    "DIVERGED"
                }
                .into(),
            ]
        })
        .collect();
    println!("{}", table(&["scenario", "skip/percyc", "results"], &srows));
    for s in &rep.speedups {
        assert!(
            s.fingerprints_match,
            "{}: engine modes must not change simulation results",
            s.scenario
        );
    }
    write_json(&results_dir(), "simspeed", &rep).unwrap();
    // CI-diffable digest at the repo root: the speedup and per-mode
    // throughput, without raw wall times.
    write_bench_digest("simspeed", &bench_digest(&rep)).unwrap();
}

fn run_telemetry() {
    // `repro -- telemetry [cycles]`: a smaller span makes a smoke test
    // (CI); the default matches the Figure 7-1 measurement span.
    let cycles = match std::env::args().nth(2) {
        None => 220_000,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("telemetry: '{s}' is not a cycle count")),
    };
    println!("== telemetry: per-stage latency breakdown & stall attribution ({cycles} cycles) ==");
    let (rep, trace) = telemetry_report(cycles);
    for run in &rep.runs {
        println!(
            "--- {} ({} packets completed, {:.2} Gbps) ---",
            run.name, run.summary.packets_completed, run.gbps
        );
        let rows: Vec<Vec<String>> = run
            .summary
            .stages
            .iter()
            .map(|s| {
                vec![
                    s.stage.clone(),
                    format!("{:.1}", s.mean_cycles),
                    s.p50.to_string(),
                    s.p90.to_string(),
                    s.p99.to_string(),
                    s.p999.to_string(),
                    s.max.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            table(
                &["stage", "mean", "p50", "p90", "p99", "p999", "max"],
                &rows
            )
        );
        let stalled: Vec<Vec<String>> = run
            .summary
            .tiles
            .iter()
            .filter(|t| t.top_stall != "none")
            .map(|t| {
                vec![
                    t.tile.to_string(),
                    format!("{:.0}%", 100.0 * t.busy as f64 / t.total.max(1) as f64),
                    t.fifo_full.to_string(),
                    t.fifo_empty.to_string(),
                    t.token_wait.to_string(),
                    t.lookup_stall.to_string(),
                    t.top_stall.clone(),
                ]
            })
            .collect();
        if !stalled.is_empty() {
            println!(
                "{}",
                table(
                    &[
                        "tile",
                        "busy",
                        "fifo-full",
                        "fifo-empty",
                        "token-wait",
                        "lookup-stall",
                        "top stall"
                    ],
                    &stalled
                )
            );
        }
    }
    write_json(&results_dir(), "telemetry", &rep).unwrap();
    std::fs::write(results_dir().join("telemetry_trace.json"), trace).unwrap();
    println!(
        "wrote results/telemetry.json; results/telemetry_trace.json loads in chrome://tracing"
    );
}

fn run_chaos() {
    // `repro -- chaos [cycles]`: a smaller span makes a smoke test (CI);
    // the default matches the Figure 7-1 measurement span.
    let cycles = match std::env::args().nth(2) {
        None => 220_000,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("chaos: '{s}' is not a cycle count")),
    };
    println!("== chaos: reference fault plan, graceful degradation soak ({cycles} cycles) ==");
    let rep = chaos_report(cycles);
    println!(
        "plan: seed {:#06x}, header corruption {}ppm, lookup misses {}ppm (+{} cycles), \
         {} tile stall windows of {} cycles",
        rep.plan.seed,
        rep.plan.header_flip_ppm,
        rep.plan.lookup_miss_ppm,
        rep.plan.lookup_penalty_cycles,
        rep.plan.tile_stalls.len(),
        rep.plan.tile_stalls.first().map_or(0, |s| s.len),
    );
    let rows: Vec<Vec<String>> = rep
        .runs
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.offered.to_string(),
                r.delivered.to_string(),
                r.dropped.to_string(),
                r.lookup_misses.to_string(),
                r.latency_p50.to_string(),
                r.latency_p99.to_string(),
                r.fingerprint.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "scenario",
                "offered",
                "delivered",
                "dropped",
                "lk-miss",
                "lat p50",
                "lat p99",
                "fingerprint"
            ],
            &rows
        )
    );
    for r in &rep.runs {
        let buckets: Vec<String> = r
            .drops
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        println!("{:>18} drops: {}", r.name, buckets.join(" "));
        assert_eq!(r.delivered + r.dropped, r.offered, "accounting must close");
        assert_eq!(r.flow_order_violations, 0, "flows must stay ordered");
    }
    println!(
        "zero-rate plan vs unwrapped router: {}",
        if rep.zero_plan_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    assert!(rep.zero_plan_identical);
    write_json(&results_dir(), "chaos", &rep).unwrap();
    println!("wrote results/chaos.json (two runs per scenario, fingerprints verified equal)");
}

fn run_fabric() {
    // `repro -- fabric [--smoke | <packets/port>]`: the smoke run
    // shrinks the per-cell run length for CI; the default is long
    // enough to amortize the epoch-boundary pipeline fill that the
    // aggregate-bandwidth headline depends on.
    let (ppp, smoke) = match std::env::args().nth(2).as_deref() {
        None => (1_000usize, false),
        Some("--smoke") => (120, true),
        Some(s) => (
            s.parse()
                .unwrap_or_else(|_| panic!("fabric: '{s}' is not a packet count")),
            false,
        ),
    };
    println!(
        "== fabric: Clos composition of 4-port routers, threaded vs reference \
         ({ppp} packets/port) =="
    );
    let rep = fabric_study(ppp);
    let rows: Vec<Vec<String>> = rep
        .cells
        .iter()
        .map(|c| {
            vec![
                c.topology.clone(),
                c.spray.clone(),
                c.epoch_cycles.to_string(),
                c.routers.to_string(),
                c.offered.to_string(),
                c.dropped.to_string(),
                format!("{:.3}", c.mpps),
                format!("{:.2}", c.gbps),
                c.backpressure_epochs.to_string(),
                if c.fingerprints_match {
                    "ok"
                } else {
                    "DIVERGED"
                }
                .into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "topology",
                "spray",
                "epoch",
                "routers",
                "offered",
                "dropped",
                "Mpps",
                "Gb/s",
                "bp-epochs",
                "fp",
            ],
            &rows
        )
    );
    let t: Vec<Vec<String>> = rep
        .ring_vs_clos
        .iter()
        .map(|r| {
            vec![
                r.ports.to_string(),
                format!("{:.3}", r.ring_norm),
                format!("{:.3}", r.fabric_norm),
                format!("{:.3}", r.fabric_mpps),
                format!("{:.2}x", r.fabric_speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "ports",
                "ring/port (norm)",
                "clos/port (norm)",
                "clos Mpps",
                "speedup",
            ],
            &t
        )
    );
    println!(
        "16-port Clos aggregate: {:.3} Mpps = {:.2}x the single 4-port router",
        rep.clos16_mpps, rep.clos_over_single
    );
    // Executor scaling curve: 4 -> 256 external ports, reference vs
    // per-router threaded vs sharded coordinators.
    let srows: Vec<Vec<String>> = rep
        .scaling
        .points
        .iter()
        .map(|p| {
            vec![
                p.topology.clone(),
                p.routers.to_string(),
                p.ext_ports.to_string(),
                p.executor.clone(),
                p.offered.to_string(),
                format!("{:.3}", p.sim_mpps),
                format!("{:.4}", p.sim_mpps_per_port),
                format!("{:.1}", p.wall_ms),
                format!("{:.4}", p.wall_mpps),
                if p.matches_reference {
                    "ok"
                } else {
                    "DIVERGED"
                }
                .into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "topology",
                "routers",
                "ports",
                "executor",
                "offered",
                "sim Mpps",
                "sim Mpps/port",
                "wall ms",
                "wall Mpps",
                "fp",
            ],
            &srows
        )
    );
    println!(
        "sharded ({} shard{}) over threaded, wall clock: Clos64 {:.2}x, Clos256 {:.2}x",
        rep.scaling.shards,
        if rep.scaling.shards == 1 { "" } else { "s" },
        rep.scaling.clos64_sharded_over_threaded,
        rep.scaling.clos256_sharded_over_threaded,
    );
    assert!(
        rep.all_fingerprints_match,
        "an executor diverged from the single-threaded reference"
    );
    // Golden scaling smoke: conservation closed and nonzero aggregate
    // throughput on every executor at every scale (each scaling point
    // already asserted `conservation_errors().is_empty()` internally).
    for p in &rep.scaling.points {
        assert_eq!(
            p.offered,
            p.delivered + p.dropped,
            "{}/{}: offered != delivered + dropped",
            p.topology,
            p.executor
        );
        assert!(
            p.sim_mpps > 0.0 && p.wall_mpps > 0.0,
            "{}/{}: zero aggregate throughput",
            p.topology,
            p.executor
        );
    }
    let per_router: Vec<String> = rep
        .scaling
        .points
        .iter()
        .filter(|p| p.executor == "reference")
        .map(|p| format!("{} {:.0} KB", p.topology, p.bytes_per_router / 1024.0))
        .collect();
    println!("build memory per router: {}", per_router.join(", "));
    println!(
        "peak resident memory through the scaling sweep: {:.0} MB",
        rep.scaling.peak_rss_mb
    );
    if smoke {
        assert!(
            rep.clos_over_single >= 1.5,
            "smoke: Clos16 only {:.2}x a single router",
            rep.clos_over_single
        );
        // The resident-memory gate. This smoke run peaks at about
        // 0.57 GB on a 2-core 16 GB Linux host, and at about 0.68 GB
        // where the heap is not trimmed between scaling points; Clos256
        // (448 routers sharing seven route tables) sets the peak. The
        // 1.5 GB budget is about twice the larger figure, room for
        // allocator, thread-stack and platform variation, and it still
        // fails long before the >16 GB that building every router's
        // tables eagerly once needed here.
        const SMOKE_RSS_BUDGET_MB: f64 = 1536.0;
        if rep.scaling.peak_rss_mb > 0.0 {
            assert!(
                rep.scaling.peak_rss_mb <= SMOKE_RSS_BUDGET_MB,
                "smoke: peak resident memory {:.0} MB exceeds the {SMOKE_RSS_BUDGET_MB} MB budget",
                rep.scaling.peak_rss_mb
            );
        } else {
            println!("smoke: /proc/self/status unreadable, resident-memory gate skipped");
        }
    } else {
        assert!(
            rep.clos_over_single >= 3.0,
            "Clos16 only {:.2}x a single router (acceptance floor is 3x)",
            rep.clos_over_single
        );
        // The sharding acceptance: at the 64-port Clos, partitioned
        // coordinators must beat the one-thread-per-router executor on
        // wall clock. (Not asserted in smoke mode, where the shortened
        // runs leave the race inside timing noise.)
        assert!(
            rep.scaling.clos64_sharded_over_threaded > 1.0,
            "sharded coordinators did not beat the per-router threaded executor at Clos64 \
             ({:.2}x)",
            rep.scaling.clos64_sharded_over_threaded
        );
    }
    write_json(&results_dir(), "fabric", &rep).unwrap();
    write_bench_digest("fabric", &fabric_bench_digest(&rep)).unwrap();
    println!(
        "wrote results/fabric.json + BENCH_fabric.json (every cell fingerprint-verified \
         on all executors)"
    );
}

fn run_sched() {
    // `repro -- sched [--smoke]`: the E19 scheduler head-to-head. The
    // smoke run halves the per-cell span for CI; both lengths keep the
    // measured window (the second half of the run) in steady state.
    let (cycles, ppp) = match std::env::args().nth(2).as_deref() {
        None => (240_000u64, 10_000usize),
        Some("--smoke") => (120_000, 4_000),
        Some(s) => panic!("sched: unknown argument '{s}' (expected --smoke)"),
    };
    println!(
        "== sched: rotating token vs iSLIP vs crosspoint-queued, {} patterns x {} arbiters \
         ({cycles} cycles/cell) ==",
        sched_patterns().len(),
        raw_xbar::SchedKind::all().len()
    );
    let rep = sched_report(cycles, ppp);
    let rows: Vec<Vec<String>> = rep
        .cells
        .iter()
        .map(|c| {
            vec![
                c.pattern.clone(),
                c.scheduler.clone(),
                format!("{:.3}", c.gbps),
                c.delivered.to_string(),
                c.p50.to_string(),
                c.p99.to_string(),
                c.p999.to_string(),
                format!("{:.3}", c.input_fairness),
                (c.arb_wait_cycles + c.token_wait_cycles).to_string(),
                c.sched_matched.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "pattern",
                "arbiter",
                "gbps",
                "delivered",
                "p50",
                "p99",
                "p999",
                "jain",
                "arb-wait",
                "matched"
            ],
            &rows
        )
    );
    let srows: Vec<Vec<String>> = rep
        .speedups
        .iter()
        .map(|s| {
            vec![
                s.pattern.clone(),
                format!("{:.2}x", s.islip_over_token),
                format!("{:.2}x", s.cq_over_token),
            ]
        })
        .collect();
    println!("{}", table(&["pattern", "islip/token", "cq/token"], &srows));
    write_json(&results_dir(), "sched", &rep).unwrap();
    let adv = rep
        .speedups
        .iter()
        .find(|s| s.pattern == "adversary")
        .expect("adversary row");
    for (nm, x) in [("islip", adv.islip_over_token), ("cq", adv.cq_over_token)] {
        assert!(
            x >= 2.0,
            "{nm} at {x:.2}x the token on the adversary — below the 2.0x floor"
        );
    }
    println!(
        "adversary floor met: islip {:.2}x, cq {:.2}x over the FIFO token (>= 2.0x)",
        adv.islip_over_token, adv.cq_over_token
    );
}

fn run_verify() {
    println!(
        "== static verification: conflict / lockstep / deadlock / jump-table / fabric / sched =="
    );
    let mut report = raw_verify::verify_all(&raw_verify::VerifyOptions::default());

    // Whole-fabric analyses (RV5xx–RV7xx) over every shipped topology,
    // merged into the same report so results/verify.json carries one
    // unified verdict.
    let verdicts = raw_bench::fabric_verify_verdicts();
    for v in &verdicts {
        report.programs_checked.push(format!("fabric-{}", v.name));
        report.coverage.fabric_topologies += 1;
        report.coverage.fabric_cdg_nodes += v.cdg_nodes;
        report.coverage.fabric_cdg_edges += v.cdg_edges;
        report.coverage.fabric_route_walks += v.route_walks;
        report.coverage.fabric_coverage_points += v.coverage_points;
        report.coverage.fabric_links += v.links_checked;
        report.diagnostics.extend(v.diags.iter().cloned());
    }
    report
        .analyses
        .extend(raw_verify::fabric::fabric_reports(&verdicts));

    // Scheduler analyses (RV8xx): drive the executable arbiters over the
    // exhaustive request space and persistent-demand traces.
    let sched_verdicts =
        raw_verify::sched::sched_verdicts(&raw_verify::sched::SchedVerifyOptions::default());
    for v in &sched_verdicts {
        report.programs_checked.push(format!("sched-{}", v.name));
        report.coverage.sched_matchings += v.matchings_checked;
        report.coverage.sched_trace_slots += v.trace_slots;
        report.diagnostics.extend(v.diags.iter().cloned());
    }
    report
        .analyses
        .extend(raw_verify::sched::sched_reports(&sched_verdicts));
    report.pass = report.diagnostics.is_empty();

    let rows: Vec<Vec<String>> = report
        .analyses
        .iter()
        .map(|a| {
            vec![
                a.name.to_string(),
                a.code_prefix.to_string(),
                if a.pass { "pass" } else { "FAIL" }.into(),
                a.checked.to_string(),
                a.detail.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["analysis", "codes", "verdict", "checked", "detail"],
            &rows
        )
    );
    let cov = &report.coverage;
    println!(
        "coverage: {}/{} unicast and {}/{} multicast global indices, {} body routines, \
         {} lockstep scenarios (max FIFO high-water {} of 4), {} policies",
        cov.unicast_points,
        cov.unicast_space,
        cov.multicast_points,
        cov.multicast_space,
        cov.body_routines,
        cov.lockstep_scenarios,
        cov.max_fifo_high_water,
        cov.policies
    );
    println!(
        "fabric coverage: {} topologies, {} CDG nodes / {} edges, {} routing walks, \
         {} address-coverage points, {} links credit-checked",
        cov.fabric_topologies,
        cov.fabric_cdg_nodes,
        cov.fabric_cdg_edges,
        cov.fabric_route_walks,
        cov.fabric_coverage_points,
        cov.fabric_links
    );
    println!(
        "sched coverage: {} matchings validity/routability-checked, {} persistent-demand slots",
        cov.sched_matchings, cov.sched_trace_slots
    );
    for d in &report.diagnostics {
        println!("  {d}");
    }
    write_json(&results_dir(), "verify", &report).unwrap();
    assert!(
        report.pass,
        "static verification failed with {} diagnostic(s)",
        report.diagnostics.len()
    );
    println!("all generated switch schedules verify");
}

fn run_fib() {
    // `repro -- fib [smoke]`: the full study sweeps table size
    // {1K, 64K, 1M} x flow count {10K, 1M}; smoke runs the 64K x 10K
    // cell CI exercises.
    let smoke = std::env::args().nth(2).as_deref() == Some("smoke");
    let rep = fib_study(smoke);

    println!(
        "FIB study: BGP-shaped tables vs flow churn ({}B packets, Pareto alpha {:.1})",
        rep.packet_bytes,
        rep.alpha_milli as f64 / 1000.0
    );
    let rows: Vec<Vec<String>> = rep
        .cells
        .iter()
        .map(|c| {
            vec![
                c.prefixes.to_string(),
                c.flows.to_string(),
                format!("{:.1}", c.dir_memory_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", c.dir_bytes_per_prefix),
                c.dir_l2_blocks.to_string(),
                format!(
                    "{:.2}",
                    100.0 * c.lookup.l2 as f64 / c.lookup.lookups.max(1) as f64
                ),
                format!("{:.1}", c.lookup.avg_cycles),
                format!("{:.1}", 100.0 * c.lookup.stall_frac),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["prefixes", "flows", "MiB", "B/pfx", "l2blks", "l2%", "cyc/lkp", "stall%"],
            &rows
        )
    );

    println!("simulated window per cell (lookup memory model armed, Dir24-8):");
    let rows: Vec<Vec<String>> = rep
        .cells
        .iter()
        .map(|c| {
            vec![
                c.prefixes.to_string(),
                c.sim.sim_flows.to_string(),
                c.sim.delivered.to_string(),
                c.sim.lookup_stall_cycles.to_string(),
                c.sim.slo.latency.p50.to_string(),
                c.sim.slo.latency.p99.to_string(),
                c.sim.slo.latency.p999.to_string(),
                c.sim.slo.fct.p99.to_string(),
                c.sim.slo.fct.p999.to_string(),
                c.sim.slo.flows_completed.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "prefixes",
                "simflows",
                "delivered",
                "lkp-stall",
                "lat-p50",
                "lat-p99",
                "lat-p999",
                "fct-p99",
                "fct-p999",
                "completed",
            ],
            &rows
        )
    );
    for c in &rep.cells {
        if c.sim.sim_flows < c.flows {
            println!(
                "  note: {} prefixes / {} flows: simulated the first {} flows; the other {} \
                 are covered by the descriptor-level model columns",
                c.prefixes,
                c.flows,
                c.sim.sim_flows,
                c.flows - c.sim.sim_flows
            );
        }
    }

    if let Some(big) = rep.cells.iter().max_by_key(|c| c.prefixes) {
        println!("miss-cost sensitivity at {} prefixes:", big.prefixes);
        let rows: Vec<Vec<String>> = big
            .sensitivity
            .iter()
            .map(|b| {
                vec![
                    b.l2_cycles.to_string(),
                    format!("{:.2}", b.avg_cycles),
                    format!("{:.1}", 100.0 * b.stall_frac),
                ]
            })
            .collect();
        println!("{}", table(&["l2-cyc", "cyc/lkp", "stall%"], &rows));
    }

    println!(
        "fabric point: {} flows through {} -> {}/{} delivered, {} reorders",
        rep.fabric.flows,
        rep.fabric.topology,
        rep.fabric.delivered,
        rep.fabric.offered,
        rep.fabric.order_violations
    );

    write_json(&results_dir(), "fib", &rep).unwrap();
    write_bench_digest("fib", &fib_bench_digest(&rep)).unwrap();
    println!("wrote results/fib.json + BENCH_fib.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let all = cmd == "all";
    let mut matched = false;
    let mut run = |name: &str, f: &dyn Fn()| {
        if all || cmd == name {
            matched = true;
            f();
            println!();
        }
    };
    run("fig3-2", &run_fig3_2);
    run("table6-1", &run_table6_1);
    run("fig7-2", &run_fig7_2);
    run("fig7-1-peak", &run_fig7_1_peak);
    run("fig7-1-avg", &run_fig7_1_avg);
    run("fig7-3", &run_fig7_3);
    run("ch2-claims", &run_ch2);
    run("fairness", &run_fairness);
    run("ablation-net2", &run_net2);
    run("deadlock-sweep", &run_deadlock);
    run("multicast", &run_multicast);
    run("scaling", &run_scaling);
    run("ablation-quantum", &run_quantum);
    run("ablation-lookup", &run_lookup);
    run("ablation-voq", &run_voq);
    run("asm-crossbar", &run_asm);
    run("latency", &run_latency);
    run("simspeed", &run_simspeed);
    run("telemetry", &run_telemetry);
    run("chaos", &run_chaos);
    run("fabric", &run_fabric);
    run("sched", &run_sched);
    run("fib", &run_fib);
    run("verify", &run_verify);
    if !matched {
        eprintln!(
            "unknown experiment '{cmd}'. Available: all fig3-2 table6-1 fig7-2 fig7-1-peak \
             fig7-1-avg fig7-3 ch2-claims fairness ablation-net2 deadlock-sweep \
             multicast scaling ablation-quantum ablation-lookup ablation-voq asm-crossbar latency \
             simspeed telemetry chaos fabric sched fib verify"
        );
        std::process::exit(2);
    }
}
