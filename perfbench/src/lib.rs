//! End-to-end and per-layer benchmark of the uniqueness engine.
//!
//! Four workloads, each generated from a seed and driven through a real
//! surface — an in-process `Session`, or `uniqd` over loopback via
//! `Server::start` and `Client` — with every answer checked. An
//! untraced run prints the end-to-end metrics; a traced run replays the
//! same stream one layer call at a time and prints the per-layer ones.
//! See `README.md` beside this crate for the workloads, their sizes and
//! the layers each exercises.

pub mod analytic;
pub mod compile_miss;
pub mod data;
pub mod host;
pub mod inproc;
pub mod metrics;
pub mod pipeline;
pub mod point_cached;
pub mod serve;
pub mod stats;
pub mod trace;

use metrics::Report;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;
use uniq_types::Result;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["compile_miss", "analytic_scan", "serve_write_subscribe"];

/// Workloads that run by name but are not in `BENCHMARK.json`.
/// `point_cached` (~15 µs cached point queries) swung by up to 1.6×
/// between consecutive runs on the 2-vCPU host the benchmark was built
/// on; in two of three ten-seed sets its spread exceeded the largest
/// bound (0.25) a gated metric may have.
pub const UNGATED: [&str; 1] = ["point_cached"];

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A few rows per table, for the smoke test.
    Tiny,
}

impl Scale {
    /// Times the set-up is repeated in an untraced run (`setup_s` is
    /// their median).
    pub fn setup_reps(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Tiny => 1,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`] or [`UNGATED`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where a traced run writes its spans, if anywhere.
    pub spans: Option<PathBuf>,
}

impl RunConfig {
    /// The measured time as a `Duration`.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// Write the traced run's spans, when a path was given. A failure to
    /// write is reported but does not fail the run.
    pub fn write_spans(&self, tr: &Tracer) {
        if let Some(path) = &self.spans {
            if let Err(e) = tr.write_tsv(path) {
                eprintln!(
                    "perfbench: could not write spans to {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Result<Report> {
    match cfg.workload.as_str() {
        "point_cached" => inproc::run(
            cfg,
            &mut point_cached::PointCached::new(cfg.seed, cfg.scale),
        ),
        "compile_miss" => inproc::run(
            cfg,
            &mut compile_miss::CompileMiss::new(cfg.seed, cfg.scale)?,
        ),
        "analytic_scan" => inproc::run(cfg, &mut analytic::AnalyticScan::new(cfg.seed, cfg.scale)),
        "serve_write_subscribe" => serve::run(cfg),
        other => Err(uniq_types::Error::internal(format!(
            "unknown workload {other}"
        ))),
    }
}
