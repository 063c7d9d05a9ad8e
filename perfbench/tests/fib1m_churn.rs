mod common;

use common::{exercise, metric};
use perfbench::router::Lpm;
use perfbench::workloads::Workload;
use raw_fib::{synthesize, FibConfig};
use raw_lookup::reference_lpm;

#[test]
fn fib_churn_simulates_every_flow_and_stalls_on_lookup_memory() {
    let (e2e, traced) = exercise(Workload::Fib1mChurn, 5);
    let flows = metric(&traced, "fib.flows");
    assert!(flows > 0.0);
    assert_eq!(flows, metric(&traced, "fib.sim_flows"));
    assert!(metric(&traced, "lookup.mem_stall_cycles") > 0.0);
    assert!(metric(&traced, "tile.lookup.lookup_stall_frac") > 0.0);
    assert!(metric(&e2e, "sim_latency_p999_cycles") >= metric(&e2e, "sim_latency_p50_cycles"));
}

#[test]
fn harness_oracle_agrees_with_reference_lpm() {
    let routes = synthesize(&FibConfig::new(3_000, 4, 11));
    let lpm = Lpm::new(&routes);
    let mut addr = 0x1234_5678u32;
    for r in routes.iter().take(500) {
        for a in [r.prefix, r.prefix | 1, addr] {
            assert_eq!(lpm.lookup(a), reference_lpm(&routes, a), "address {a:#x}");
        }
        addr = addr.wrapping_mul(2_654_435_761).wrapping_add(1);
    }
}
