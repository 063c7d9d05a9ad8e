//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out-dir DIR]`: run one workload, print every metric with its unit,
//! and end with one JSON result line. Exits 1 if any check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::output;
use perfbench::run::{run, Config};
use perfbench::workloads::{Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] \
         [--trace 0|1] [--out-dir DIR]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(&value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|_| seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out-dir" => {
                out_dir = PathBuf::from(&value);
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        short: false,
    };
    let rep = run(&cfg);
    let manifest = output::manifest(&cfg, &rep);

    println!(
        "perfbench {} seed {seed}: {} reps",
        workload.name(),
        rep.reps
    );
    for m in &rep.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in rep.check.describe() {
        println!("  FAILED: {f}");
    }
    println!("manifest {}", output::manifest_json(&manifest));
    if trace {
        let path = out_dir.join(format!("{}-seed{seed}-trace.json", workload.name()));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, output::trace_file(&manifest, &rep)));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", output::result_line(&rep));
    if rep.check.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
