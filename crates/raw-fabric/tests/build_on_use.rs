//! A `ForwardingTable` builds its DIR-24-8 table only when a lookup
//! first reaches it, and a fabric builds one table per distinct route
//! set. This file holds that contract against a counting allocator:
//!
//! * a Clos64 `RawFabric::try_new` stays under a per-router byte bound
//!   and makes no allocation as large as a DIR level-1 array;
//! * a router on the DIR engine has its DIR table built by the time its
//!   constructor returns;
//! * that router's first `run` allocates no DIR table.
//!
//! One test per file: the counting allocator must observe only its own
//! workload (the default harness runs tests in one process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

use raw_fabric::{FabricConfig, RawFabric, Topology};
use raw_lookup::{Engine, ForwardingTable, RouteEntry};
use raw_net::Packet;
use raw_xbar::{RawRouter, RouterConfig};

struct CountingAlloc;

/// Net live heap bytes (allocated minus freed) since process start.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// Largest single block requested since the last reset.
static MAX_BLOCK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        MAX_BLOCK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        MAX_BLOCK.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        MAX_BLOCK.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes of the smallest DIR level-1 array a `ForwardingTable` can
/// build: 2^16 four-byte slots (the fabric's compact split). No other
/// structure of a router or a fabric allocates a block this large.
const DIR_L1_MIN_BYTES: usize = 4 << 16;

/// Live bytes a Clos64 build may keep per router: 1 MiB. A router
/// measures about 0.70 MB here (its tile machine, programs, collectors
/// and its share of the fabric's Patricia tries). When every router
/// built its own Patricia trie and compact DIR table eagerly, it kept
/// about 14.4 MB.
const CLOS64_BYTES_PER_ROUTER: usize = 1 << 20;

/// Run `f` and return its result, the net bytes it left allocated and
/// the largest block it requested.
fn measure<T>(f: impl FnOnce() -> T) -> (T, i64, usize) {
    MAX_BLOCK.store(0, Ordering::Relaxed);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let out = f();
    let live = LIVE_BYTES.load(Ordering::Relaxed) - before;
    (out, live, MAX_BLOCK.load(Ordering::Relaxed))
}

#[test]
fn tables_are_built_only_for_the_engine_that_reads_them() {
    // A Clos64 fabric runs the Patricia engine: its build must hold no
    // DIR table, and with one table per distinct route set it stays
    // far below the eager build's per-router cost.
    let cfg = FabricConfig {
        topology: Topology::Clos64,
        ..FabricConfig::default()
    };
    assert_eq!(cfg.router.engine, Engine::Patricia);
    let (fab, live, max_block) = measure(|| RawFabric::try_new(cfg).expect("Clos64 verifies"));
    let routers = fab.plan.routers.len();
    assert_eq!(routers, 80);
    assert!(
        max_block < DIR_L1_MIN_BYTES,
        "the Clos64 build allocated a {max_block}-byte block: a DIR table was materialised"
    );
    let per_router = live as usize / routers;
    assert!(
        per_router < CLOS64_BYTES_PER_ROUTER,
        "the Clos64 build keeps {per_router} bytes per router (bound {CLOS64_BYTES_PER_ROUTER})"
    );
    drop(fab);

    // A router on the DIR engine builds its DIR table in its
    // constructor...
    let routes: Vec<RouteEntry> = (0..4)
        .map(|p| RouteEntry::new(0x0a00_0000 | (p << 16), 16, p))
        .collect();
    let table = Arc::new(ForwardingTable::build_with_l1_bits(&routes, 16));
    assert!(LazyLock::get(&table.dir).is_none(), "built before use");
    let router_cfg = RouterConfig {
        engine: Engine::Dir24_8,
        ..RouterConfig::default()
    };
    let (mut router, _, max_block) = measure(|| RawRouter::new(router_cfg, Arc::clone(&table)));
    assert!(
        LazyLock::get(&table.dir).is_some(),
        "a DIR-engine router must build its table at construction"
    );
    assert!(max_block >= DIR_L1_MIN_BYTES, "no DIR level 1 allocated");

    // ...so its first run allocates none.
    for src in 0..4u32 {
        for dst in 0..4u32 {
            let p = Packet::synthetic(0x0a0a_0000 + src, 0x0a00_0001 | (dst << 16), 64, 64, 1);
            router.offer(src as usize, 0, &p);
        }
    }
    let (drained, _, max_block) = measure(|| router.run_until_drained(60_000));
    assert!(drained, "the DIR-engine router did not drain");
    assert!(
        max_block < DIR_L1_MIN_BYTES,
        "the first run allocated a {max_block}-byte block: the DIR table was built in `run`"
    );
    assert_eq!((0..4).map(|p| router.delivered(p).len()).sum::<usize>(), 16);
}
