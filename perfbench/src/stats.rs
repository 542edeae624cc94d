//! Small numeric helpers: percentiles, medians, answer digests and the
//! process's peak resident set size.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;
use uniq_catalog::Row;

/// The `p`-th percentile (0–100) of `values`, linearly interpolated
/// between the two nearest ranks. Sorts `values` in place; 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// The median of `values` (sorts in place; 0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Statements per window of [`Latencies`], at least.
pub const WINDOW: usize = 100;

/// The window length for a stream whose statement kinds repeat in
/// decks of `deck` statements: the fewest whole decks that hold
/// [`WINDOW`] statements, so every window holds the same mix.
pub fn window_for(deck: usize) -> usize {
    let deck = deck.max(1);
    deck * WINDOW.div_ceil(deck)
}

/// Statements after which [`Latencies::peak_rss_mib`] is read.
pub const RSS_AT: usize = 5_000;

/// Per-statement latencies of a closed loop, summarised in windows of
/// consecutive statements: each window's median latency and its
/// throughput (statements per second of busy time), both at the host's
/// reference speed (see [`crate::host`]) and as measured. Run-level
/// figures are medians over windows, so a burst of load from outside
/// the process moves a few windows, not the result. Memory stays flat
/// however many statements run (peak RSS is a metric); every measured
/// latency is also kept when asked for.
#[derive(Debug)]
pub struct Latencies {
    peak_rss: Option<f64>,
    recorded: usize,
    window_len: usize,
    scaled: Vec<f64>,
    raw: Vec<f64>,
    medians: Vec<f64>,
    rates: Vec<f64>,
    raw_medians: Vec<f64>,
    raw_rates: Vec<f64>,
    all: Option<Vec<f64>>,
}

impl Latencies {
    /// An empty record with windows of `len` statements; `keep_all`
    /// keeps every measured latency as well.
    pub fn new(keep_all: bool, len: usize) -> Latencies {
        Latencies {
            peak_rss: None,
            recorded: 0,
            window_len: len.max(1),
            scaled: Vec::new(),
            raw: Vec::new(),
            medians: Vec::new(),
            rates: Vec::new(),
            raw_medians: Vec::new(),
            raw_rates: Vec::new(),
            all: keep_all.then(Vec::new),
        }
    }

    /// Record one statement's latency; `scale` turns it into the time
    /// at reference speed.
    pub fn push(&mut self, took: Duration, scale: f64) {
        let us = took.as_nanos() as f64 / 1e3;
        if let Some(all) = &mut self.all {
            all.push(us);
        }
        self.raw.push(us);
        self.scaled.push(us * scale);
        self.recorded += 1;
        if self.raw.len() == self.window_len {
            self.close_window();
        }
        if self.recorded == RSS_AT {
            self.peak_rss = Some(peak_rss_mib());
        }
    }

    /// The process's peak resident set once [`RSS_AT`] statements were
    /// recorded, or now if fewer were. A loop that runs faster does not
    /// read higher: `serve_write_subscribe`'s tables grow with every
    /// write, and the deferred answer digests with every statement.
    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_rss.unwrap_or_else(peak_rss_mib)
    }

    fn close_window(&mut self) {
        self.rates.push(throughput(&self.scaled));
        self.medians.push(median(&mut self.scaled));
        self.raw_rates.push(throughput(&self.raw));
        self.raw_medians.push(median(&mut self.raw));
        self.scaled.clear();
        self.raw.clear();
    }

    /// Statements recorded.
    pub fn len(&self) -> usize {
        self.recorded
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Median over windows of the window's median latency at reference
    /// speed, in microseconds. A run shorter than one window is one
    /// window; a partial last window is left out otherwise.
    pub fn p50_us(&mut self) -> f64 {
        self.close_short_run();
        median(&mut self.medians.clone())
    }

    /// Median over windows of the window's statements per second at
    /// reference speed.
    pub fn stmts_per_s(&mut self) -> f64 {
        self.close_short_run();
        median(&mut self.rates.clone())
    }

    /// [`Latencies::p50_us`] as measured.
    pub fn p50_raw_us(&mut self) -> f64 {
        self.close_short_run();
        median(&mut self.raw_medians.clone())
    }

    /// [`Latencies::stmts_per_s`] as measured.
    pub fn stmts_per_s_raw(&mut self) -> f64 {
        self.close_short_run();
        median(&mut self.raw_rates.clone())
    }

    fn close_short_run(&mut self) {
        if self.medians.is_empty() && !self.raw.is_empty() {
            self.close_window();
        }
    }

    /// Every measured latency in microseconds, in the order the
    /// statements ran (empty unless kept).
    pub fn all(&self) -> &[f64] {
        self.all.as_deref().unwrap_or_default()
    }
}

/// Statements per second of busy time.
fn throughput(latencies_us: &[f64]) -> f64 {
    let busy: f64 = latencies_us.iter().sum();
    if busy > 0.0 {
        latencies_us.len() as f64 * 1e6 / busy
    } else {
        0.0
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An order-independent digest of a multiset of rows: the row count plus
/// two wrapping sums of per-row hashes. Equal multisets give equal
/// digests regardless of row order, so a result can be checked without
/// sorting it or keeping it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    rows: u64,
    sum: u64,
    mixed: u64,
}

impl Digest {
    /// The digest of `rows`.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add(row);
        }
        d
    }

    /// Add one row.
    pub fn add(&mut self, row: &Row) {
        // `DefaultHasher::new` uses fixed keys, so digests repeat across
        // runs and processes.
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        let x = h.finish();
        self.rows += 1;
        self.sum = self.sum.wrapping_add(x);
        self.mixed = self
            .mixed
            .wrapping_add(x.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    /// Number of rows digested.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_types::Value;

    #[test]
    fn percentile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn windows_give_medians_and_memory_stays_flat() {
        let mut lat = Latencies::new(false, WINDOW);
        // Three windows of 100 statements at 1, 2 and 9 us (measured
        // on a host at half the reference speed), plus 50 left over.
        for us in [1, 2, 9] {
            for _ in 0..WINDOW {
                lat.push(Duration::from_micros(us), 0.5);
            }
        }
        for _ in 0..50 {
            lat.push(Duration::from_micros(100), 0.5);
        }
        assert_eq!(lat.len(), 350);
        assert_eq!(lat.p50_raw_us(), 2.0);
        assert_eq!(lat.stmts_per_s_raw(), 5e5);
        assert_eq!(lat.p50_us(), 1.0);
        assert_eq!(lat.stmts_per_s(), 1e6);
        assert!(lat.all().is_empty());
        assert!(lat.raw.capacity() <= 2 * WINDOW);
        // Fewer statements than one window: the run is one window.
        let mut short = Latencies::new(true, WINDOW);
        short.push(Duration::from_micros(5), 1.0);
        short.push(Duration::from_micros(7), 1.0);
        assert_eq!(short.p50_us(), 6.0);
        assert_eq!(short.len(), 2);
        assert_eq!(short.all(), &[5.0, 7.0]);
    }

    #[test]
    fn windows_hold_whole_decks() {
        assert_eq!(window_for(14), 112);
        assert_eq!(window_for(15), 105);
        assert_eq!(window_for(100), 100);
        assert_eq!(window_for(0), 100);
    }

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let a = vec![Value::Int(1)];
        let b = vec![Value::Int(2)];
        assert_eq!(Digest::of([&a, &b]), Digest::of([&b, &a]));
        assert_ne!(Digest::of([&a, &b]), Digest::of([&a, &a, &b]));
        assert_ne!(Digest::of([&a]), Digest::of([&b]));
    }
}
