//! The metric table and the result line.
//!
//! `BENCHMARK.json` names the same metrics; the smoke test checks that
//! the two lists agree.

use std::collections::BTreeMap;

/// One metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("stmts_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// Printed by every traced run (`--trace 1`). Times and counters are per
/// statement of the traced stream unless the name says otherwise; a
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("p50_us", "us"),
    m("p50_raw_us", "us"),
    m("stmts_per_s_raw", "1/s"),
    m("host.ref_us", "us"),
    m("host.steal_frac", "ratio"),
    m("p99_us", "us"),
    m("sql.parse_us", "us"),
    m("sql.canon_us", "us"),
    m("plancache.probe_us", "us"),
    m("plancache.insert_us", "us"),
    m("plancache.hit_rate", "ratio"),
    m("plancache.evictions", "count"),
    m("plan.bind_us", "us"),
    m("core.rewrite_us", "us"),
    m("core.rule_attempts", "count"),
    m("core.rules_fired", "count"),
    m("proof.check_us", "us"),
    m("proof.proved_frac", "ratio"),
    m("cost.plan_us", "us"),
    m("exec.run_us", "us"),
    m("exec.rows_scanned", "count"),
    m("exec.hash_probes", "count"),
    m("exec.probe_steps", "count"),
    m("exec.vector_ops", "count"),
    m("exec.materialized_rows", "count"),
    m("exec.morsels", "count"),
    m("exec.examined_per_row_out", "ratio"),
    m("server.rtt_us", "us"),
    m("wire.codec_us", "us"),
    m("wire.bytes_per_stmt", "B"),
    m("server.residual_us", "us"),
    m("snapshot.publish_us", "us"),
    m("snapshot.live_chain_len", "count"),
    m("ivm.maintain_us", "us"),
    m("ivm.delta_rows", "count"),
    m("ivm.view_updates", "count"),
    m("write_p50_us", "us"),
    m("write_p99_us", "us"),
    m("delta_p50_us", "us"),
    m("delta_p99_us", "us"),
    m("trace.stmt_us", "us"),
    m("trace.unattributed_frac", "ratio"),
    m("trace.overhead_frac", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations (statements, writes, deltas awaited) attempted.
    pub attempted: u64,
    /// Operations that returned an error or timed out.
    pub failed: u64,
    /// A note on each failure and wrong answer (only the first few are
    /// kept).
    pub notes: Vec<String>,
    /// Total number of mismatched answers.
    pub mismatch_count: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

/// Notes kept per run.
const KEEP_NOTES: usize = 5;

impl Report {
    /// Count one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < KEEP_NOTES {
            self.notes.push(format!("failed: {}", what()));
        }
    }

    /// Add a note for standard error.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Record a wrong answer.
    pub fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatch_count += 1;
        if self.notes.len() < KEEP_NOTES {
            self.notes.push(format!("wrong answer: {}", what()));
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatch_count == 0 && self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with the metrics of `defs`. A
    /// metric the run did not set is an error in the benchmark, so it
    /// panics rather than print a made-up value.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
