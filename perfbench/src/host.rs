//! What the host is, and what this process holds (Linux `/proc`).

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A `kB` field of a `/proc` status-style file, in bytes (0 if absent).
fn proc_kb(path: &str, field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resident memory now.
pub fn rss_bytes() -> u64 {
    proc_kb("/proc/self/status", "VmRSS")
}

/// Peak resident memory of this process so far.
pub fn peak_rss_bytes() -> u64 {
    proc_kb("/proc/self/status", "VmHWM")
}

/// Host memory.
pub fn mem_total_bytes() -> u64 {
    proc_kb("/proc/meminfo", "MemTotal")
}

/// Duration of the calibration kernel's timed pass on the nominal host
/// (a 2-core virtual machine at its usual speed), in seconds.
pub const CALIBRATION_NOMINAL_S: f64 = 0.0027;

/// A fixed host-speed probe: random read-modify-writes over a 4 MB
/// table, which shares no code with the repository. Its time moves with
/// the host's speed, as contention for the shared caches of a
/// virtual machine changes it by up to 2x between minutes. Host metrics
/// are scaled by it so that they measure the simulator, not the
/// neighbours.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: (0..1u64 << 19).collect(),
        }
    }
}

impl Calibrator {
    /// Host seconds the kernel takes now. An untimed pass first brings
    /// the table back into cache, so the timed pass measures the host's
    /// speed and not what the simulation just evicted.
    pub fn time_s(&mut self) -> f64 {
        self.pass();
        let start = std::time::Instant::now();
        self.pass();
        start.elapsed().as_secs_f64()
    }

    fn pass(&mut self) {
        let n = self.table.len();
        let (mut x, mut acc) = (1u64, 0u64);
        for _ in 0..1_000_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize & (n - 1);
            acc = acc.wrapping_add(self.table[i]).rotate_left(5) ^ x;
            self.table[i] = acc;
        }
        std::hint::black_box(acc);
    }
}
