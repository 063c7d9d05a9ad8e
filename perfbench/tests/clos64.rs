mod common;

use common::{exercise, metric};
use perfbench::workloads::Workload;

#[test]
fn clos64_drains_and_shows_its_build_cost() {
    let (e2e, traced) = exercise(Workload::Clos64, 2);
    // The 80-router build is the known memory cost; it must show.
    assert!(metric(&e2e, "peak_rss_mb") > 500.0);
    assert!(metric(&traced, "fabric.epochs") > 0.0);
    assert!(metric(&traced, "fabric.epoch_ms.p50") > 0.0);
    assert!(metric(&traced, "verify.fabric_s") > 0.0);
    assert!(metric(&traced, "lookup.table_bytes") > 0.0);
}
