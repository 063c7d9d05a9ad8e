//! One benchmark run: repeat a workload for the time given, check it,
//! and reduce the repetitions to the end-to-end metrics (untraced) or
//! the per-layer metrics (traced).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use raw_fib::SloStats;

use crate::fabric::{self, FabricInst};
use crate::host::{self, Calibrator};
use crate::metrics::{self, Metric};
use crate::outcome::{Check, Layers, SimOutcome};
use crate::router::{self, Fib, Lpm, RouterInst};
use crate::trace::Tracer;
use crate::workloads::{Params, Shape, Workload};

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds to spend repeating the workload.
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Run the short version of the workload (tests).
    pub short: bool,
}

impl Config {
    pub fn params(&self) -> Params {
        if self.short {
            Params::short(self.workload)
        } else {
            Params::full(self.workload)
        }
    }
}

/// Repetitions to make even when the time given runs out first.
const MIN_REPS: usize = 3;
/// Repetitions of a fib1m-churn run that build every input themselves:
/// its set-up samples. The other workloads build every input on every
/// repetition.
const SETUP_SAMPLES: usize = 5;

pub struct Report {
    pub params: Params,
    pub check: Check,
    /// The simulated result of each input draw, from its first repetition.
    pub outcomes: Vec<SimOutcome>,
    pub metrics: Vec<Metric>,
    /// Untraced and traced repetitions made.
    pub reps: usize,
    pub traced_reps: usize,
    /// Median host slowdown against nominal, and the uncalibrated host
    /// rates (untraced repetitions).
    pub slowdown: f64,
    pub raw_mcycles_per_s: f64,
    pub raw_kpps: f64,
    /// The spans of the traced repetitions (empty when untraced).
    pub tracer: Tracer,
}

enum Inst {
    Router(RouterInst),
    Fabric(FabricInst),
}

impl Inst {
    fn setup(p: &Params, seed: u64, draw: usize, fib: &mut Option<Fib>, t: &mut Tracer) -> Inst {
        match p.shape {
            Shape::Fabric { .. } => Inst::Fabric(fabric::setup(p, seed, draw, t)),
            _ => Inst::Router(router::setup(p, seed, draw, fib, t)),
        }
    }

    fn simulate(&mut self, p: &Params, t: &mut Tracer) {
        match self {
            Inst::Router(r) => router::simulate(r, p, t),
            Inst::Fabric(f) => fabric::simulate(f, t),
        }
    }

    fn outcome(&self, p: &Params) -> SimOutcome {
        match self {
            Inst::Router(r) => router::outcome(r, p),
            Inst::Fabric(f) => fabric::outcome(f, p),
        }
    }

    fn check(&mut self, oracle: &mut Option<Lpm>) -> Check {
        match self {
            Inst::Router(r) => router::check(r, oracle),
            Inst::Fabric(f) => fabric::check(f),
        }
    }

    fn layers(&self, l: &mut Layers) {
        match self {
            Inst::Router(r) => router::layers(r, l),
            Inst::Fabric(f) => fabric::layers(f, l),
        }
    }
}

/// Host timings of one repetition.
struct Rep {
    /// How much slower than nominal the host ran around the simulation:
    /// the calibration kernel's time over its nominal time.
    slowdown: f64,
    /// Set-up time, if the repetition built every input itself.
    setup_s: Option<f64>,
    sim_s: f64,
    outcome: SimOutcome,
}

/// Set up input draw `draw` and simulate it once. `setup_s` runs from
/// the start of the workload to its first simulated cycle; it counts
/// only when the routes were not taken from `fib`.
fn one_rep(
    p: &Params,
    seed: u64,
    draw: usize,
    fib: &mut Option<Fib>,
    cal: &mut Calibrator,
    t: &mut Tracer,
) -> (Rep, Inst) {
    let full = fib.is_none();
    let start = Instant::now();
    let open = t.enter("setup");
    let mut inst = Inst::setup(p, seed, draw, fib, t);
    t.exit(open);
    let setup_s = full.then(|| start.elapsed().as_secs_f64());
    if let (true, Inst::Fabric(f)) = (t.enabled(), &mut inst) {
        fabric::traced_extras(f, t);
    }
    let before = cal.time_s();
    let open = t.enter("sim.run");
    let start = Instant::now();
    inst.simulate(p, t);
    let sim_s = start.elapsed().as_secs_f64();
    t.exit(open);
    let slowdown = (before * cal.time_s()).sqrt() / host::CALIBRATION_NOMINAL_S;
    let outcome = inst.outcome(p);
    (
        Rep {
            slowdown,
            setup_s,
            sim_s,
            outcome,
        },
        inst,
    )
}

/// Simulated Mcycles per host second of a repetition, uncalibrated.
fn mcycles_per_s(r: &Rep) -> f64 {
    r.outcome.router_cycles as f64 / r.sim_s / 1e6
}

/// Delivered kilopackets per host second of a repetition, uncalibrated.
fn kpps(r: &Rep) -> f64 {
    r.outcome.delivered as f64 / r.sim_s / 1e3
}

/// Every repetition of a draw must reproduce its first simulated result
/// exactly.
fn compare(check: &mut Check, first: &SimOutcome, o: &SimOutcome) {
    check.expect("simulated metrics identical across repetitions", first == o);
}

pub fn run(cfg: &Config) -> Report {
    let p = cfg.params();
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // An untraced run simulates every draw, and draw 0 twice. A traced
    // run simulates draw 0 only, so its traced and untraced host times
    // time the same work.
    let (draws, min_reps) = if cfg.trace {
        (1, MIN_REPS)
    } else {
        (p.populations, MIN_REPS.max(p.populations + 1))
    };
    // Only fib1m-churn reuses its routes and table after its set-up
    // samples: the FIB is the same for every draw and costs seconds.
    let reuse_fib = matches!(p.shape, Shape::Churn { .. });

    // Untraced repetitions: the end-to-end metrics, and the correctness
    // gate on the first repetition of every draw. The gate drains and
    // inspects the run after it is timed; its time does not count
    // against the budget.
    let mut fib = None;
    let mut oracle = None;
    let mut cal = Calibrator::default();
    let mut quiet = Tracer::new(false);
    let mut check = Check::default();
    let mut layers = Layers::default();
    let mut outcomes: Vec<SimOutcome> = Vec::new();
    let mut reps = Vec::new();
    let mut checking = Duration::ZERO;
    let start = Instant::now();
    while reps.len() < min_reps || (start.elapsed() - checking).as_secs_f64() < budget {
        let draw = reps.len() % draws;
        if reps.len() < SETUP_SAMPLES || !reuse_fib {
            fib = None;
        }
        let (rep, mut inst) = one_rep(&p, cfg.seed, draw, &mut fib, &mut cal, &mut quiet);
        if reps.is_empty() {
            if let Inst::Fabric(f) = &inst {
                fabric::build_rss_layers(f, &mut layers);
            }
        }
        match outcomes.get(draw) {
            Some(first) => compare(&mut check, first, &rep.outcome),
            None => {
                let gate = Instant::now();
                check.merge(inst.check(&mut oracle));
                checking += gate.elapsed();
                outcomes.push(rep.outcome.clone());
            }
        }
        reps.push(rep);
    }
    let peak_rss = host::peak_rss_bytes();
    drop((fib, oracle));
    let host = |f: &dyn Fn(&Rep) -> f64| metrics::median(&reps.iter().map(f).collect::<Vec<_>>());

    let mut tracer = Tracer::new(cfg.trace);
    let mut traced_reps = 0;
    let metrics = if cfg.trace {
        let mut per_rep: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let mut traced_sim = Vec::new();
        let start = Instant::now();
        while traced_reps < MIN_REPS || start.elapsed().as_secs_f64() < budget {
            let first = tracer.spans().len();
            let open = tracer.enter("rep");
            let (rep, inst) = one_rep(&p, cfg.seed, 0, &mut None, &mut cal, &mut tracer);
            tracer.exit(open);
            compare(&mut check, &outcomes[0], &rep.outcome);
            inst.layers(&mut layers);
            let mut sums = BTreeMap::new();
            for s in &tracer.spans()[first..] {
                *sums.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 / 1e9;
            }
            per_rep.push(sums);
            traced_sim.push(rep.sim_s);
            traced_reps += 1;
        }
        let vc = layers
            .get("telemetry.conservation_violations")
            .unwrap_or(0.0);
        check.expect("telemetry conservation holds", vc == 0.0);
        for (metric, span) in metrics::SPAN_METRICS {
            let v: Vec<f64> = per_rep
                .iter()
                .map(|m| *m.get(span).unwrap_or(&0.0))
                .collect();
            layers.set(metric, metrics::median(&v));
        }
        for (name, span) in [
            ("sim.chunk_ms", "sim.chunk"),
            ("fabric.epoch_ms", "fabric.epoch"),
        ] {
            let ms: Vec<f64> = tracer.durations_s(span).iter().map(|s| s * 1e3).collect();
            layers.set(format!("{name}.p50"), metrics::quantile(&ms, 0.5));
            layers.set(format!("{name}.p99"), metrics::quantile(&ms, 0.99));
        }
        // The simulator's own time is taken with telemetry off: the
        // untraced repetitions of this run simulate the same draw.
        let untraced_sim = host(&|r| r.sim_s);
        layers.set("sim.run_s", untraced_sim);
        layers.set("sim.host_ns_per_cycle", host(&|r| 1e3 / mcycles_per_s(r)));
        layers.set(
            "telemetry.overhead_frac",
            metrics::median(&traced_sim) / untraced_sim - 1.0,
        );
        metrics::per_layer(&layers)
    } else {
        let sim = |f: &dyn Fn(&SimOutcome) -> f64| {
            metrics::median(&outcomes.iter().map(f).collect::<Vec<_>>())
        };
        // Latency and completion-time percentiles pool every draw.
        let pool = |f: &dyn Fn(&SimOutcome) -> &Vec<u64>| {
            let mut all: Vec<u64> = outcomes.iter().flat_map(|o| f(o).iter().copied()).collect();
            SloStats::of(&mut all)
        };
        let (lat, fct) = (pool(&|o| &o.latencies), pool(&|o| &o.fcts));
        let setups: Vec<f64> = reps.iter().filter_map(|r| r.setup_s).collect();
        let failed = check.packets_failed().min(check.attempted);
        vec![
            Metric::new("sim_gbps", sim(&|o| o.gbps)),
            Metric::new("sim_mpps", sim(&|o| o.mpps)),
            Metric::new("sim_gbps_vs_paper", sim(&|o| o.gbps_vs_paper)),
            Metric::new("sim_latency_p50_cycles", lat.p50 as f64),
            Metric::new("sim_latency_p999_cycles", lat.p999 as f64),
            Metric::new("sim_fct_p99_cycles", fct.p99 as f64),
            // Host rates at nominal host speed (see host::Calibrator).
            Metric::new(
                "host_mcycles_per_s",
                host(&|r| mcycles_per_s(r) * r.slowdown),
            ),
            Metric::new("host_kpps", host(&|r| kpps(r) * r.slowdown)),
            Metric::new("setup_s", metrics::median(&setups)),
            Metric::new("peak_rss_mb", peak_rss as f64 / (1 << 20) as f64),
            Metric::new(
                "delivered_frac",
                1.0 - failed as f64 / check.attempted.max(1) as f64,
            ),
        ]
    };
    for m in &metrics {
        check.expect(&format!("{} is finite", m.name), m.value.is_finite());
    }
    Report {
        params: p,
        check,
        outcomes,
        metrics,
        reps: reps.len(),
        traced_reps,
        slowdown: host(&|r| r.slowdown),
        raw_mcycles_per_s: host(&mcycles_per_s),
        raw_kpps: host(&kpps),
        tracer,
    }
}
