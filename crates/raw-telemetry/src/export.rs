//! Neutral activity-trace export: the CSV and ASCII renderings behind
//! Figure 7-3, decoupled from the simulator's `Activity` type so every
//! trace consumer goes through one exporter.
//!
//! `raw_sim::TraceWindow::to_activity_trace` converts a recorded window
//! into an [`ActivityTrace`], whose renderings keep the `fig7_3_*.csv`
//! output format byte-stable.

use std::fmt::Write as _;

/// Coarse class of a per-cycle state, used by the ASCII renderer (the
/// paper's Figure 7-3 plots busy vs. "blocked on transmit, receive, or
/// cache miss" vs. idle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActivityClass {
    Busy,
    Blocked,
    Idle,
}

/// A window of dense per-tile, per-cycle state samples. `samples[tile][i]`
/// is an index into `states`; cycle numbers start at `start_cycle`.
#[derive(Clone, Debug)]
pub struct ActivityTrace {
    pub start_cycle: u64,
    /// `(csv name, class)` per state index.
    pub states: Vec<(String, ActivityClass)>,
    pub samples: Vec<Vec<u8>>,
}

impl ActivityTrace {
    /// CSV rows `tile,cycle,state` for external plotting — the stable
    /// `fig7_3_*.csv` format.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tile,cycle,state\n");
        for (t, row) in self.samples.iter().enumerate() {
            for (i, &s) in row.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{}",
                    t,
                    self.start_cycle + i as u64,
                    self.states[s as usize].0
                );
            }
        }
        out
    }

    /// Render in the style of Figure 7-3: one row per tile, buckets of
    /// `bucket` cycles; `#` mostly-busy, `.` mostly-blocked (gray in the
    /// paper), ` ` mostly idle.
    pub fn render_ascii(&self, bucket: usize) -> String {
        let bucket = bucket.max(1);
        let mut out = String::new();
        for (t, row) in self.samples.iter().enumerate() {
            let _ = write!(out, "{t:>2} |");
            for chunk in row.chunks(bucket) {
                let busy = chunk
                    .iter()
                    .filter(|&&s| self.states[s as usize].1 == ActivityClass::Busy)
                    .count();
                let blocked = chunk
                    .iter()
                    .filter(|&&s| self.states[s as usize].1 == ActivityClass::Blocked)
                    .count();
                let idle = chunk.len() - busy - blocked;
                let c = if busy >= blocked && busy >= idle {
                    '#'
                } else if blocked >= idle {
                    '.'
                } else {
                    ' '
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ActivityTrace {
        ActivityTrace {
            start_cycle: 10,
            states: vec![
                ("idle".to_string(), ActivityClass::Idle),
                ("busy".to_string(), ActivityClass::Busy),
                ("blocked_send".to_string(), ActivityClass::Blocked),
            ],
            samples: vec![vec![1, 1, 2, 0], vec![0, 0, 0, 0]],
        }
    }

    #[test]
    fn csv_format_is_stable() {
        let csv = sample_trace().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "tile,cycle,state");
        assert_eq!(lines[1], "0,10,busy");
        assert_eq!(lines[3], "0,12,blocked_send");
        assert_eq!(lines[5], "1,10,idle");
    }

    #[test]
    fn ascii_majority_rule() {
        let s = sample_trace().render_ascii(2);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // Tile 0: [busy,busy] -> '#', [blocked,idle] -> '.' (ties favor
        // busy over blocked over idle).
        assert!(lines[0].ends_with("#."));
        assert!(lines[1].ends_with("  "));
    }
}
