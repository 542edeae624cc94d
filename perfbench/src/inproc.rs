//! The loop shared by the three in-process workloads: set-up timed
//! several times, a closed loop of `Session::query` calls for the
//! untraced run, and the layer-by-layer replay for the traced run.

use crate::host::HostClock;
use crate::metrics::Report;
use crate::pipeline::Pipeline;
use crate::stats::{mean, median, percentile, window_for, Digest, Latencies};
use crate::trace::{Tracer, ROOT};
use crate::RunConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uniq_catalog::Row;
use uniq_engine::{ColumnStore, ExecStats, PlanCache, Session};
use uniq_types::Result;
use uniq_workload::rng::SplitMix64;

/// Statements replayed at most by the traced run; spans for more would
/// only cost memory.
pub const MAX_TRACED: usize = 20_000;

/// How a statement's answer is checked.
#[derive(Debug, Clone)]
pub enum Check {
    /// The answer, as a multiset, has this digest.
    Digest(Digest),
    /// The answer is exactly this row sequence (ordered output).
    Sequence(Arc<Vec<Row>>),
    /// The answer equals the same statement run with rewrites off,
    /// computed outside the timed loop.
    RewritesOff,
}

/// One statement of a workload stream.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// SQL text.
    pub sql: String,
    /// Its expected answer.
    pub check: Check,
}

/// What an in-process workload supplies to the shared loop.
pub trait InProcess {
    /// Build the session the statements run against — data, indexes,
    /// statistics and a warm plan cache. Timed as set-up.
    fn build(&self) -> Result<Session>;
    /// Compute expected answers from the generated data (untimed).
    fn prepare_checks(&mut self, session: &Session) -> Result<()>;
    /// Statement `i` of the seeded stream.
    fn statement(&mut self, i: usize) -> Stmt;
    /// Texts the serving path has cached before timing starts.
    fn warm_texts(&self) -> Vec<String>;
    /// Statements per deck of the stream's statement kinds (1 when the
    /// stream has no deck).
    fn deck_len(&self) -> usize {
        1
    }
}

/// Run `sql` through a session once per text so its plans are cached.
pub fn warm(session: &Session, texts: &[String]) -> Result<()> {
    for sql in texts {
        session.query(sql)?;
    }
    Ok(())
}

/// A deterministic per-statement RNG: statement `i` of seed `seed`
/// draws the same values whatever ran before it.
pub fn stmt_rng(seed: u64, i: usize) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    SplitMix64::seed_from_u64(mix.next_u64())
}

/// A shuffled deck: slot `i` of the stream draws a kind from a deck
/// holding each kind `weights[k]` times, reshuffled (by seed) for every
/// deck. The mix is exact over each deck, so throughput and percentiles
/// do not drift with the seed's luck.
pub struct Deck {
    seed: u64,
    cards: Vec<usize>,
    current: usize,
    order: Vec<usize>,
}

impl Deck {
    /// A deck with `weights[k]` cards of kind `k`.
    pub fn new(seed: u64, weights: &[usize]) -> Deck {
        let cards: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(k, &w)| std::iter::repeat_n(k, w))
            .collect();
        Deck {
            seed,
            order: Vec::new(),
            cards,
            current: usize::MAX,
        }
    }

    /// Cards per deck.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// Whether the deck has no cards.
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }

    /// The kind at stream position `i`.
    pub fn kind(&mut self, i: usize) -> usize {
        let n = self.cards.len();
        let deck = i / n;
        if deck != self.current {
            let mut rng = stmt_rng(self.seed ^ 0x5EED_DECC, deck);
            self.order = self.cards.clone();
            for j in (1..n).rev() {
                self.order.swap(j, rng.gen_range(0..=j));
            }
            self.current = deck;
        }
        self.order[i % n]
    }
}

/// Checks an answer; returns a description of the mismatch.
fn verify(check: &Check, rows: &[Row]) -> Option<String> {
    match check {
        Check::Digest(want) => {
            let got = Digest::of(rows);
            (got != *want).then(|| format!("{} rows, expected {}", got.rows(), want.rows()))
        }
        Check::Sequence(want) => {
            (rows != want.as_slice()).then(|| format!("{rows:?}, expected {want:?}"))
        }
        Check::RewritesOff => None,
    }
}

/// Answers that must match a rewrites-off run, checked after the loop:
/// stream position and answer digest (the text is generated again).
#[derive(Default)]
struct Deferred(Vec<(usize, Digest)>);

impl Deferred {
    fn check(self, spec: &mut dyn InProcess, session: &Session, report: &mut Report) {
        let none = uniq_plan::HostVars::new();
        for (i, got) in self.0 {
            let sql = spec.statement(i).sql;
            match session.query_unoptimized(&sql, &none) {
                Ok(out) if Digest::of(&out.rows) == got => {}
                Ok(out) => report.mismatch(|| {
                    format!(
                        "{sql}: {} rows, rewrites-off answer has {}",
                        got.rows(),
                        out.rows.len()
                    )
                }),
                Err(e) => report.mismatch(|| format!("{sql}: rewrites-off run failed: {e}")),
            }
        }
    }
}

/// Build `spec`'s session `reps` times; returns the last session and
/// the median build time in seconds at the host's reference speed.
fn timed_setup(spec: &dyn InProcess, reps: usize, clock: &mut HostClock) -> Result<(Session, f64)> {
    let mut times = Vec::new();
    let mut session = None;
    for _ in 0..reps.max(1) {
        drop(session.take());
        clock.sample();
        let t = Instant::now();
        let built = spec.build()?;
        let took = t.elapsed();
        clock.sample();
        times.push(clock.scaled_s(took));
        session = Some(built);
    }
    Ok((
        session.expect("at least one set-up ran"),
        median(&mut times),
    ))
}

/// The closed loop: statements back to back for `budget`, at most
/// `limit` of them. Returns the latencies of the statements that
/// succeeded (every one of them kept when `limit` is finite).
fn untraced_loop(
    spec: &mut dyn InProcess,
    session: &Session,
    clock: &mut HostClock,
    budget: Duration,
    limit: usize,
    report: &mut Report,
    deferred: &mut Deferred,
) -> Latencies {
    let mut lat = Latencies::new(limit != usize::MAX, window_for(spec.deck_len()));
    let deadline = Instant::now() + budget;
    let mut i = 0;
    while i < limit && Instant::now() < deadline {
        clock.tick();
        let stmt = spec.statement(i);
        i += 1;
        report.attempt();
        let t = Instant::now();
        let out = session.query(&stmt.sql);
        let took = t.elapsed();
        match out {
            Ok(out) => {
                lat.push(took, clock.scale());
                if let Check::RewritesOff = stmt.check {
                    deferred.0.push((i - 1, Digest::of(&out.rows)));
                } else if let Some(what) = verify(&stmt.check, &out.rows) {
                    report.mismatch(|| format!("{}: {what}", stmt.sql));
                }
            }
            Err(e) => report.fail(|| format!("{}: {e}", stmt.sql)),
        }
    }
    lat
}

/// Run one in-process workload.
pub fn run(cfg: &RunConfig, spec: &mut dyn InProcess) -> Result<Report> {
    let mut report = Report::default();
    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps() };
    let mut clock = HostClock::new();
    let (session, setup_s) = timed_setup(spec, reps, &mut clock)?;
    spec.prepare_checks(&session)?;
    let mut deferred = Deferred::default();

    if !cfg.trace {
        let mut lat = untraced_loop(
            spec,
            &session,
            &mut clock,
            cfg.budget(),
            usize::MAX,
            &mut report,
            &mut deferred,
        );
        deferred.check(spec, &session, &mut report);
        report.set("stmts_per_s", lat.stmts_per_s());
        report.set("setup_s", setup_s);
        report.set("peak_rss_mib", lat.peak_rss_mib());
        report.note(format!(
            "p50 {:.1} us at reference speed; as measured: p50 {:.1} us, {:.1} stmts/s; \
             reference kernel {:.1} us (nominal {}); steal {:.3}",
            lat.p50_us(),
            lat.p50_raw_us(),
            lat.stmts_per_s_raw(),
            clock.ref_us(),
            crate::host::NOMINAL_US,
            clock.steal_frac()
        ));
        return Ok(report);
    }

    // Traced run: an untraced pass gives the baseline, then the same
    // statements are replayed through the layer calls.
    let half = cfg.budget() / 2;
    let mut lat = untraced_loop(
        spec,
        &session,
        &mut clock,
        half,
        MAX_TRACED,
        &mut report,
        &mut deferred,
    );
    set_loop_metrics(&mut lat, &clock, &mut report);
    let columns = session
        .planner
        .columnar
        .then(|| ColumnStore::build(&session.db));
    let cache = PlanCache::new(session.cache.capacity());
    let pipeline = Pipeline {
        db: &session.db,
        optimizer: session.optimizer,
        exec: session.exec,
        planner: session.planner,
        stats: session.statistics(),
        columns: columns.as_ref(),
        cache: &cache,
        epoch: 1,
    };
    let mut scratch = Tracer::new();
    for sql in spec.warm_texts() {
        pipeline.query(&mut scratch, 0, &sql)?;
    }
    let before = cache.stats();
    let mut tr = Tracer::new();
    let mut acc = LayerCounters::default();
    let deadline = Instant::now() + half;
    let mut n = 0;
    while n < lat.len() && Instant::now() < deadline {
        let stmt = spec.statement(n);
        report.attempt();
        let root = tr.begin(n as u32, ROOT);
        let out = pipeline.query(&mut tr, n as u32, &stmt.sql);
        tr.end(root);
        n += 1;
        match out {
            Ok(out) => {
                acc.absorb(&out.stats, out.rows.len(), out.compiled.as_ref());
                if let Check::RewritesOff = stmt.check {
                    deferred.0.push((n - 1, Digest::of(&out.rows)));
                } else if let Some(what) = verify(&stmt.check, &out.rows) {
                    report.mismatch(|| format!("replay {}: {what}", stmt.sql));
                }
            }
            Err(e) => report.fail(|| format!("replay {}: {e}", stmt.sql)),
        }
    }
    deferred.check(spec, &session, &mut report);
    let after = cache.stats();
    let lookups = (after.hits + after.misses - before.hits - before.misses).max(1) as f64;
    report.set(
        "plancache.hit_rate",
        (after.hits - before.hits) as f64 / lookups,
    );
    report.set(
        "plancache.evictions",
        (after.evictions - before.evictions) as f64 / n.max(1) as f64,
    );
    report.set("p99_us", percentile(&mut lat.all().to_vec(), 99.0));
    let baseline_us = mean(&lat.all()[..n]);
    acc.report(&tr, n, baseline_us, &mut report);
    zero_wire_layers(&mut report);
    cfg.write_spans(&tr);
    Ok(report)
}

/// The per-layer metrics of a traced run's untraced half: the median
/// latency at reference speed and as measured, the throughput as
/// measured, the reference kernel's time and the steal share.
pub fn set_loop_metrics(lat: &mut Latencies, clock: &HostClock, report: &mut Report) {
    report.set("p50_us", lat.p50_us());
    report.set("p50_raw_us", lat.p50_raw_us());
    report.set("stmts_per_s_raw", lat.stmts_per_s_raw());
    report.set("host.ref_us", clock.ref_us());
    report.set("host.steal_frac", clock.steal_frac());
}

/// Per-layer counters accumulated over a traced pass.
#[derive(Default)]
pub struct LayerCounters {
    exec: ExecStats,
    rows_out: u64,
    rule_attempts: u64,
    fired: u64,
    proved: u64,
}

impl LayerCounters {
    /// Add one statement's executor counters, answer size and (when it
    /// compiled) rewrite trace.
    pub fn absorb(
        &mut self,
        exec: &ExecStats,
        rows_out: usize,
        compiled: Option<&uniq_core::pipeline::RewriteTrace>,
    ) {
        self.exec.merge(exec);
        self.rows_out += rows_out as u64;
        if let Some(trace) = compiled {
            self.rule_attempts += trace.rule_stats.iter().map(|r| r.attempts).sum::<u64>();
            self.fired += trace.steps.len() as u64;
            self.proved += trace.steps.iter().filter(|s| s.proof.is_proved()).count() as u64;
        }
    }

    /// Set the layer metrics common to every workload: span self times
    /// per statement, counters per statement, and the two trace ratios.
    /// `baseline_us` is the untraced mean time of the same statements.
    pub fn report(&self, tr: &Tracer, n: usize, baseline_us: f64, report: &mut Report) {
        let n = n.max(1) as f64;
        let self_ns = tr.self_times();
        let per_stmt_us = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
        for (metric, span) in [
            ("sql.parse_us", "sql.parse"),
            ("sql.canon_us", "sql.canon"),
            ("plancache.probe_us", "plancache.probe"),
            ("plancache.insert_us", "plancache.insert"),
            ("plan.bind_us", "plan.bind"),
            ("core.rewrite_us", "core.rewrite"),
            ("proof.check_us", "proof.check"),
            ("cost.plan_us", "cost.plan"),
            ("exec.run_us", "exec.run"),
        ] {
            report.set(metric, per_stmt_us(span));
        }
        let e = &self.exec;
        for (metric, count) in [
            ("core.rule_attempts", self.rule_attempts),
            ("core.rules_fired", self.fired),
            ("exec.rows_scanned", e.rows_scanned),
            ("exec.hash_probes", e.hash_probes),
            ("exec.probe_steps", e.probe_steps),
            ("exec.vector_ops", e.vector_ops),
            ("exec.materialized_rows", e.materialized_rows),
            ("exec.morsels", e.morsels),
        ] {
            report.set(metric, count as f64 / n);
        }
        report.set(
            "proof.proved_frac",
            if self.fired == 0 {
                0.0
            } else {
                self.proved as f64 / self.fired as f64
            },
        );
        let examined = e.rows_scanned + e.probe_steps + e.topk_rows_examined;
        report.set(
            "exec.examined_per_row_out",
            examined as f64 / self.rows_out.max(1) as f64,
        );
        let stmt_us = tr.total(ROOT) as f64 / 1e3 / n;
        report.set("trace.stmt_us", stmt_us);
        report.set(
            "trace.unattributed_frac",
            per_stmt_us(ROOT) / stmt_us.max(f64::MIN_POSITIVE),
        );
        report.set(
            "trace.overhead_frac",
            stmt_us / baseline_us.max(f64::MIN_POSITIVE) - 1.0,
        );
    }
}

/// The wire, snapshot and maintenance layers, which in-process
/// workloads bypass.
fn zero_wire_layers(report: &mut Report) {
    for metric in [
        "server.rtt_us",
        "wire.codec_us",
        "wire.bytes_per_stmt",
        "server.residual_us",
        "snapshot.publish_us",
        "snapshot.live_chain_len",
        "ivm.maintain_us",
        "ivm.delta_rows",
        "ivm.view_updates",
        "write_p50_us",
        "write_p99_us",
        "delta_p50_us",
        "delta_p99_us",
    ] {
        report.set(metric, 0.0);
    }
}
