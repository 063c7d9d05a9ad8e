mod common;

use common::{config, exercise, metric};
use perfbench::run::run;
use perfbench::workloads::Workload;

#[test]
fn avg1024_runs_checks_and_follows_its_seed() {
    let (e2e, traced) = exercise(Workload::Avg1024, 3);
    assert!(metric(&e2e, "sim_gbps") > 5.0);
    assert!(metric(&traced, "tile.xbar.busy_frac") > 0.0);
    // The destinations are drawn from the seed.
    let other = run(&config(Workload::Avg1024, 4, false));
    assert!(other.check.ok());
    assert_ne!(other.outcomes, e2e.outcomes);
}
