//! The host-speed reference.
//!
//! The benchmark runs on a share of a machine that other tenants load.
//! Two things slow it, for seconds to minutes at a time, and a slowdown
//! that lasts a whole run moves every window of it, so no median over
//! windows removes it:
//!
//! - the virtual CPUs run slower (up to 1.5×) while the process's CPU
//!   time keeps pace with wall time;
//! - the hypervisor deschedules the virtual CPUs (steal time; up to a
//!   quarter of the time they wanted to run).
//!
//! So the closed loops time a fixed kernel in the benchmark's own code
//! every [`EVERY`] between statements — formatted-key insertions into a
//! `HashMap` and a sequential sum over an 8 MiB buffer; of the
//! candidates tried (a dependent walk through memory, register-only
//! arithmetic, a tokenizer), their geometric mean followed the
//! statements' speed most closely — and read the machine's steal
//! counter, and express each latency at the host's reference speed: the
//! measured time × [`NOMINAL_US`] / the kernel's CPU time (median of
//! its last [`KEEP`] timings) × (1 − the share of the CPUs' wanted time
//! stolen over the last [`STEAL_SPAN`] timings). The kernel is timed by
//! the thread's CPU clock, which leaves out stolen time, so the two
//! factors do not count a steal twice. A change in the engine
//! moves the scaled figure as much as the measured one; a slowdown of
//! the host moves the kernel or the steal counter along with the
//! statements and largely cancels. The measured figures are reported
//! beside the scaled ones (`p50_raw_us`, `stmts_per_s_raw`,
//! `host.ref_us`, `host.steal_frac`).

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Interval between two timings of the kernel. The kernel takes about
/// 1.6 ms, so it costs under 2% of a run.
const EVERY: Duration = Duration::from_millis(100);

/// Timings in the trailing median the scale is taken from.
const KEEP: usize = 5;

/// Timings the steal share is taken over (about two seconds).
const STEAL_SPAN: usize = 20;

/// Fewest CPU ticks (10 ms each) a steal share is taken over; over
/// fewer the previous share stands.
const MIN_TICKS: u64 = 10;

/// The kernel's time — the geometric mean of its two parts' times — on
/// the 2-vCPU Xeon virtual machine the benchmark was built on, at its
/// usual speed, in microseconds: at that speed scaled and measured times
/// agree.
pub const NOMINAL_US: f64 = 600.0;

/// Words of the summed buffer (8 MiB of `u32`).
const BUFFER: usize = 1 << 21;
/// Insertions into the string-keyed map per timing.
const INSERTS: u64 = 1_000;

/// Times the kernel and turns measured times into reference-speed times.
pub struct HostClock {
    buffer: Vec<u32>,
    recent: VecDeque<f64>,
    all: Vec<f64>,
    last: Instant,
    ticks: VecDeque<CpuTicks>,
    first: Option<CpuTicks>,
    steal: f64,
    scale: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::new()
    }
}

impl HostClock {
    /// Fill the summed buffer and take the first timings.
    pub fn new() -> HostClock {
        let mut clock = HostClock {
            buffer: (0..BUFFER as u32).collect(),
            recent: VecDeque::with_capacity(KEEP + 1),
            all: Vec::new(),
            last: Instant::now(),
            ticks: VecDeque::with_capacity(STEAL_SPAN + 1),
            first: CpuTicks::read(),
            steal: 0.0,
            scale: 1.0,
        };
        for _ in 0..KEEP {
            clock.sample();
        }
        clock
    }

    /// Time the kernel if [`EVERY`] has passed since the last timing.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// Time the kernel now.
    pub fn sample(&mut self) {
        let hash_us = cpu_us(|| {
            black_box(hash_strings());
        });
        let sum_us = cpu_us(|| {
            black_box(sum(black_box(&self.buffer)));
        });
        let us = (hash_us * sum_us).sqrt();
        self.last = Instant::now();
        if self.recent.len() == KEEP {
            self.recent.pop_front();
        }
        self.recent.push_back(us);
        self.all.push(us);
        if let Some(now) = CpuTicks::read() {
            if self.ticks.len() == STEAL_SPAN {
                self.ticks.pop_front();
            }
            self.ticks.push_back(now);
            if let Some(share) = self.ticks.front().and_then(|then| now.steal_since(then)) {
                self.steal = share;
            }
        }
        let mut recent: Vec<f64> = self.recent.iter().copied().collect();
        self.scale = NOMINAL_US / crate::stats::median(&mut recent).max(f64::MIN_POSITIVE)
            * (1.0 - self.steal);
    }

    /// Measured time × `scale()` is the time at reference speed.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// `took` at reference speed, in seconds.
    pub fn scaled_s(&self, took: Duration) -> f64 {
        took.as_secs_f64() * self.scale()
    }

    /// Median kernel time over every timing, in microseconds.
    pub fn ref_us(&self) -> f64 {
        crate::stats::median(&mut self.all.clone())
    }

    /// Share of the CPUs' wanted time stolen since the clock was made
    /// (0 where `/proc/stat` is unavailable).
    pub fn steal_frac(&self) -> f64 {
        match (self.first, CpuTicks::read()) {
            (Some(first), Some(now)) => now.steal_since(&first).unwrap_or(0.0),
            _ => 0.0,
        }
    }
}

/// The machine's cumulative CPU time from the first line of
/// `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    /// Time the CPUs were wanted: every state but idle and iowait.
    wanted: u64,
    /// The part of it the hypervisor ran something else.
    stolen: u64,
}

impl CpuTicks {
    fn read() -> Option<CpuTicks> {
        CpuTicks::parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    fn parse(stat: &str) -> Option<CpuTicks> {
        let fields = stat.lines().next()?.strip_prefix("cpu ")?;
        // user nice system idle iowait irq softirq steal
        let v: Vec<u64> = fields
            .split_whitespace()
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        let [user, nice, system, _idle, _iowait, irq, softirq, steal] = v[..] else {
            return None;
        };
        Some(CpuTicks {
            wanted: user + nice + system + irq + softirq + steal,
            stolen: steal,
        })
    }

    /// Share of the wanted time since `then` that was stolen, when at
    /// least [`MIN_TICKS`] were wanted.
    fn steal_since(&self, then: &CpuTicks) -> Option<f64> {
        let wanted = self.wanted.saturating_sub(then.wanted);
        let stolen = self.stolen.saturating_sub(then.stolen);
        (wanted >= MIN_TICKS).then(|| (stolen as f64 / wanted as f64).min(0.9))
    }
}

/// The calling thread's CPU time running `f`, in microseconds. The
/// kernel counts steal time out of a thread's CPU time, and time other
/// threads ran on its CPU, so neither inflates the kernel's timing (the
/// steal share corrects for the first separately). Wall time where the
/// thread clock is unavailable.
fn cpu_us(f: impl FnOnce()) -> f64 {
    let (wall, cpu) = (Instant::now(), thread_cpu());
    f();
    match (cpu, thread_cpu()) {
        (Some(before), Some(after)) => after.saturating_sub(before).as_nanos() as f64 / 1e3,
        _ => wall.elapsed().as_nanos() as f64 / 1e3,
    }
}

/// `CLOCK_THREAD_CPUTIME_ID` of the calling thread.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields
    // on 64-bit Linux) through a pointer to a live, writable one.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    (rc == 0).then(|| Duration::new(time.sec as u64, time.nsec as u32))
}

/// No thread clock: the caller falls back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Option<Duration> {
    None
}

/// Sum `buffer`, as a scan streams a column.
fn sum(buffer: &[u32]) -> u64 {
    buffer.iter().map(|&w| u64::from(w)).sum()
}

/// Count formatted keys in a `HashMap`, as a front end allocates and
/// hashes names.
fn hash_strings() -> u64 {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *counts.entry(format!("k{}", x % 997)).or_default() += i;
    }
    counts.values().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_wanted_time() {
        let then =
            CpuTicks::parse("cpu  100 0 20 500 5 0 0 10 0 0\ncpu0 1 2 3\n").expect("parses");
        let now = CpuTicks::parse("cpu  160 0 30 900 5 0 0 40 0 0\n").expect("parses");
        // 100 ticks wanted (60 user, 10 system, 30 steal), 30 stolen.
        assert_eq!(now.steal_since(&then), Some(0.3));
        assert_eq!(then.steal_since(&then), None);
        assert!(CpuTicks::parse("intr 1 2 3\n").is_none());
    }

    #[test]
    fn the_thread_clock_counts_work() {
        let us = cpu_us(|| {
            black_box(hash_strings());
        });
        assert!(us > 0.0 && us < 1e6, "{us}");
    }

    #[test]
    fn scale_is_positive_and_finite() {
        let mut clock = HostClock::new();
        clock.sample();
        assert!(clock.scale() > 0.0 && clock.scale().is_finite());
        assert!(clock.ref_us() > 0.0);
    }
}
