//! `serve_write_subscribe`: `uniqd` over loopback on a `SharedEngine`.
//!
//! Connection A runs a closed loop: one INSERT script (a new supplier
//! plus its part), then a fixed number of cached point reads.
//! Connection B holds two subscriptions — the E22 set-tier view and the
//! E22 counting-tier view — and a thread of its own receives the pushed
//! `ViewDelta`s. Every write's part has a color of its own, so each
//! write changes both views and both push a delta.
//!
//! Snapshot publish, incremental view maintenance and the
//! codec/connection path each set a different metric here and do no
//! work in the in-process workloads.

use crate::data::{project, Tables, CITIES};
use crate::host::HostClock;
use crate::inproc::{set_loop_metrics, stmt_rng, LayerCounters, MAX_TRACED};
use crate::metrics::Report;
use crate::pipeline::Pipeline;
use crate::stats::{mean, median, percentile, window_for, Latencies, WINDOW};
use crate::trace::{Tracer, ROOT};
use crate::{RunConfig, Scale};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uniq_catalog::{Database, SnapshotStore};
use uniq_core::optimize_output;
use uniq_core::pipeline::Optimizer;
use uniq_cost::Statistics;
use uniq_engine::{MaintainOutcome, MaterializedView, PlanCache, SharedEngine};
use uniq_plan::bind_output;
use uniq_server::{Client, DeltaEvent, Frame, QueryReply, Server, ServerConfig, SubscribeReply};
use uniq_sql::{parse_statement, Statement};
use uniq_types::{Error, Result, Value};
use uniq_workload::{indexed_database, ScaleConfig};

/// The E22 set-tier view: DISTINCT over a key-covering join.
const SET_VIEW: &str = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
/// The E22 counting-tier view: DISTINCT over non-key columns.
const COUNTING_VIEW: &str =
    "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO";

/// Keys of written suppliers start here, far above the generated ones.
const WRITE_KEY_BASE: i64 = 10_000_000;
/// OEM part numbers of written parts start here (generated ones are
/// `1_000_001..`).
const WRITE_OEM_BASE: i64 = 90_000_000;
/// How long a write's deltas may take to arrive before they count as
/// failed.
const DELTA_TIMEOUT: Duration = Duration::from_secs(5);
/// Frames the server buffers per connection. A full queue refuses a
/// delta and drops its subscription, by design, so a subscriber that
/// lags is never served stale. The default (8 frames, 4 writes' deltas)
/// fills whenever the host deschedules connection B's server-side
/// writer thread for ~30 ms, which a shared host does now and then; the
/// benchmark measures delivery, not that policy.
const WRITE_QUEUE: usize = 1024;
/// Poll interval of connection B's receive loop.
const RECV_POLL: Duration = Duration::from_millis(100);

/// Sizes.
struct Sizes {
    config: ScaleConfig,
    read_keys: usize,
    reads_per_write: usize,
}

impl Sizes {
    fn new(seed: u64, scale: Scale) -> Sizes {
        let (suppliers, read_keys) = match scale {
            Scale::Full => (2_000, 200),
            Scale::Tiny => (50, 10),
        };
        Sizes {
            config: ScaleConfig {
                suppliers,
                parts_per_supplier: 4,
                agents_per_supplier: 2,
                seed,
                ..ScaleConfig::default()
            },
            read_keys,
            reads_per_write: 10,
        }
    }
}

/// The seeded statement stream.
struct Stream {
    seed: u64,
    reads: Vec<String>,
    keys: Vec<i64>,
    expected: Vec<Vec<Vec<Value>>>,
    reads_per_write: usize,
}

/// One statement of connection A's loop.
enum Op {
    /// Write number `w`: a new supplier in `city` and its part.
    Write {
        w: i64,
        city: &'static str,
        script: String,
    },
    /// Cached point read `r` of the read pool.
    Read(usize),
}

impl Stream {
    fn new(seed: u64, sizes: &Sizes) -> Stream {
        let mut rng = stmt_rng(seed ^ 0x5E7E, 0);
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        while keys.len() < sizes.read_keys {
            let k = rng.gen_range(1..=sizes.config.suppliers as i64);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        let reads = keys
            .iter()
            .map(|k| format!("SELECT S.SNAME, S.SCITY, S.BUDGET FROM SUPPLIER S WHERE S.SNO = {k}"))
            .collect();
        Stream {
            seed,
            reads,
            keys,
            expected: Vec::new(),
            reads_per_write: sizes.reads_per_write,
        }
    }

    /// Expected read answers, from the generated rows.
    fn prepare_checks(&mut self, db: &Database) -> Result<()> {
        let tables = Tables::read(db)?;
        let by_key = tables.suppliers_by_key();
        self.expected = self
            .keys
            .iter()
            .map(|k| {
                by_key
                    .get(k)
                    .map(|row| vec![project(row, &[1, 2, 3])])
                    .ok_or_else(|| Error::internal(format!("supplier {k} was not generated")))
            })
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Whether statement `i` is a write.
    fn is_write(&self, i: usize) -> bool {
        i.is_multiple_of(self.reads_per_write + 1)
    }

    /// Statement `i`: every `reads_per_write + 1`-th is a write.
    fn op(&self, i: usize) -> Op {
        let cycle = self.reads_per_write + 1;
        if self.is_write(i) {
            let w = (i / cycle) as i64;
            let mut rng = stmt_rng(self.seed ^ 0x3217E, i);
            let city = CITIES[rng.gen_range(0..CITIES.len())];
            let budget = rng.gen_range(1..100_000);
            Op::Write {
                w,
                city,
                script: format!(
                    "INSERT INTO SUPPLIER VALUES ({sno}, 'W{w}', '{city}', {budget}, 'Active'); \
                     INSERT INTO PARTS VALUES ({sno}, 1, 'wpart', {oem}, '{color}');",
                    sno = WRITE_KEY_BASE + w,
                    oem = WRITE_OEM_BASE + w,
                    color = write_color(w),
                ),
            }
        } else {
            Op::Read(stmt_rng(self.seed, i).gen_range(0..self.reads.len()))
        }
    }
}

/// The color of write `w`'s part: unique, so the counting view gains a
/// row on every write.
fn write_color(w: i64) -> String {
    format!("W{w}")
}

/// A running server with its two connections.
struct Served {
    engine: Arc<SharedEngine>,
    server: Server,
    a: Client,
    b: Client,
    set: SubscribeReply,
    counting: SubscribeReply,
}

/// Start the engine, the server and both connections, subscribe B and
/// warm the read plans. Timed as set-up.
fn start(sizes: &Sizes, stream: &Stream) -> Result<Served> {
    let io = |e: &dyn std::fmt::Display| Error::internal(format!("loopback: {e}"));
    let engine = Arc::new(SharedEngine::new(indexed_database(&sizes.config)?));
    engine.analyze();
    let config = ServerConfig {
        write_queue: WRITE_QUEUE,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", config).map_err(|e| io(&e))?;
    let mut a = Client::connect(server.local_addr()).map_err(|e| io(&e))?;
    let mut b = Client::connect(server.local_addr()).map_err(|e| io(&e))?;
    let set = b.subscribe(SET_VIEW).map_err(|e| io(&e))?;
    let counting = b.subscribe(COUNTING_VIEW).map_err(|e| io(&e))?;
    for sql in &stream.reads {
        a.query(sql).map_err(|e| io(&e))?;
    }
    Ok(Served {
        engine,
        server,
        a,
        b,
        set,
        counting,
    })
}

/// A pushed delta with its arrival time.
type Arrival = (Instant, DeltaEvent);

/// Connection B's receive loop: forwards every delta with its arrival
/// time until `stop` is set, then hands the connection back.
fn receive(
    mut b: Client,
    stop: Arc<AtomicBool>,
) -> (JoinHandle<(Client, Option<String>)>, Receiver<Arrival>) {
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let err = loop {
            match b.recv_delta(RECV_POLL) {
                Ok(Some(event)) => {
                    if tx.send((Instant::now(), event)).is_err() {
                        break None;
                    }
                }
                Ok(None) if stop.load(Ordering::Acquire) => break None,
                Ok(None) => {}
                Err(e) => break Some(e.to_string()),
            }
        };
        (b, err)
    });
    (handle, rx)
}

/// One write as sent: when, and the row it must push into each view.
struct Sent {
    at: Instant,
    /// Sent by the traced pass (its delta latency is not reported).
    traced: bool,
    rows: [Vec<Value>; 2],
}

/// Latencies and pending writes of connection A's loop.
struct Loop {
    reads: Latencies,
    writes_us: Vec<f64>,
    all: Latencies,
    sent: Vec<Sent>,
    next: usize,
}

/// What one statement of connection A's loop got back.
enum Done {
    /// A write: its script and the Ack message.
    Write { script: String, ack: String },
    /// A read of pool entry `r`.
    Read { r: usize, reply: QueryReply },
}

/// Send statement `lp.next` on connection A and wait for the reply:
/// count the attempt and any failure, check a read's answer, and book a
/// write for delta matching. Returns the reply and the round trip.
fn call(
    a: &mut Client,
    stream: &Stream,
    lp: &mut Loop,
    traced: bool,
    report: &mut Report,
) -> Option<(Done, Duration)> {
    let i = lp.next;
    lp.next += 1;
    report.attempt();
    let t = Instant::now();
    match stream.op(i) {
        Op::Write { w, city, script } => match a.exec(&script) {
            Ok(ack) => {
                let took = t.elapsed();
                lp.sent.push(Sent {
                    at: t,
                    traced,
                    rows: [
                        vec![Value::Int(WRITE_KEY_BASE + w), Value::Int(1)],
                        vec![Value::str(write_color(w)), Value::str(city)],
                    ],
                });
                Some((Done::Write { script, ack }, took))
            }
            Err(e) => {
                report.fail(|| format!("write {w}: {e}"));
                None
            }
        },
        Op::Read(r) => match a.query(&stream.reads[r]) {
            Ok(reply) => {
                let took = t.elapsed();
                if reply.rows != stream.expected[r] {
                    report.mismatch(|| {
                        format!(
                            "{}: {:?}, expected {:?}",
                            stream.reads[r], reply.rows, stream.expected[r]
                        )
                    });
                }
                Some((Done::Read { r, reply }, took))
            }
            Err(e) => {
                report.fail(|| format!("{}: {e}", stream.reads[r]));
                None
            }
        },
    }
}

/// Run the next statement untraced and record its latency.
fn step(
    a: &mut Client,
    stream: &Stream,
    lp: &mut Loop,
    clock: &mut HostClock,
    report: &mut Report,
) {
    // Between a write's cycle of reads and the next write the server is
    // idle, so the kernel does not share the host with its work.
    if stream.is_write(lp.next) {
        clock.tick();
    }
    if let Some((done, took)) = call(a, stream, lp, false, report) {
        lp.all.push(took, clock.scale());
        match done {
            Done::Write { .. } => lp.writes_us.push(took.as_nanos() as f64 / 1e3),
            Done::Read { .. } => lp.reads.push(took, clock.scale()),
        }
    }
}

/// Match the received deltas to the writes: each write must push exactly
/// its own row into each view, once, within [`DELTA_TIMEOUT`] of the
/// last write. Returns the delta latency (send → last of its two
/// deltas) of each untraced write and the rows each view gained.
fn match_deltas(
    ids: [u64; 2],
    rx: &Receiver<Arrival>,
    sent: &[Sent],
    report: &mut Report,
) -> (Vec<f64>, [Vec<Vec<Value>>; 2]) {
    let by_row: [HashMap<&Vec<Value>, usize>; 2] = [0, 1].map(|view| {
        sent.iter()
            .enumerate()
            .map(|(i, s)| (&s.rows[view], i))
            .collect()
    });
    let mut arrived: [Vec<Option<Instant>>; 2] = [vec![None; sent.len()], vec![None; sent.len()]];
    let mut gained: [Vec<Vec<Value>>; 2] = [Vec::new(), Vec::new()];
    let mut outstanding = 2 * sent.len();
    let deadline = Instant::now() + DELTA_TIMEOUT;
    while outstanding > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        let Ok((at, event)) = rx.recv_timeout(wait) else {
            break;
        };
        let Some(view) = ids.iter().position(|&id| id == event.id) else {
            report.mismatch(|| format!("delta for unknown subscription {}", event.id));
            continue;
        };
        if !event.deleted.is_empty() {
            report.mismatch(|| format!("delta {} deleted {:?}", event.id, event.deleted));
        }
        let [row] = event.inserted.as_slice() else {
            report.mismatch(|| {
                format!(
                    "delta {} inserted {:?}, expected one row",
                    event.id, event.inserted
                )
            });
            continue;
        };
        gained[view].push(row.clone());
        match by_row[view].get(row) {
            Some(&i) if arrived[view][i].is_none() => {
                arrived[view][i] = Some(at);
                outstanding -= 1;
            }
            _ => report.mismatch(|| format!("unexpected delta {}: {row:?}", event.id)),
        }
    }
    let mut delta_us = Vec::new();
    for (i, s) in sent.iter().enumerate() {
        report.attempt();
        match (arrived[0][i], arrived[1][i]) {
            (Some(a), Some(b)) if !s.traced => {
                delta_us.push(a.max(b).duration_since(s.at).as_nanos() as f64 / 1e3)
            }
            (Some(_), Some(_)) => {}
            _ => report.fail(|| {
                format!(
                    "deltas of the write of {:?} not received within {DELTA_TIMEOUT:?}",
                    s.rows[0]
                )
            }),
        }
    }
    (delta_us, gained)
}

/// Each view — its initial rows plus the rows its deltas inserted —
/// must equal a fresh query at the end.
fn check_views(
    a: &mut Client,
    views: [(&str, &SubscribeReply, Vec<Vec<Value>>); 2],
    report: &mut Report,
) {
    for (sql, reply, gained) in views {
        let view: HashSet<Vec<Value>> = reply.rows.iter().cloned().chain(gained).collect();
        report.attempt();
        match a.query(sql) {
            Ok(fresh) => {
                let fresh: HashSet<Vec<Value>> = fresh.rows.into_iter().collect();
                if fresh != view {
                    report.mismatch(|| {
                        format!(
                            "{sql}: view has {} rows, a fresh query {}",
                            view.len(),
                            fresh.len()
                        )
                    });
                }
            }
            Err(e) => report.fail(|| format!("{sql}: {e}")),
        }
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Report> {
    let sizes = Sizes::new(cfg.seed, cfg.scale);
    let mut stream = Stream::new(cfg.seed, &sizes);
    let mut report = Report::default();

    let reps = if cfg.trace { 1 } else { cfg.scale.setup_reps() };
    let mut clock = HostClock::new();
    let mut setup_times = Vec::new();
    let mut served = None;
    for _ in 0..reps {
        if let Some(old) = served.take() {
            stop(old);
        }
        clock.sample();
        let t = Instant::now();
        served = Some(start(&sizes, &stream)?);
        let took = t.elapsed();
        clock.sample();
        setup_times.push(clock.scaled_s(took));
    }
    let Served {
        engine,
        mut server,
        mut a,
        b,
        set,
        counting,
    } = served.expect("at least one set-up ran");
    stream.prepare_checks(&engine.snapshot())?;
    let stop_b = Arc::new(AtomicBool::new(false));
    let (receiver, rx) = receive(b, Arc::clone(&stop_b));

    let budget = if cfg.trace {
        cfg.budget() / 2
    } else {
        cfg.budget()
    };
    // Traced runs keep every latency, for p99 and the untraced baseline.
    let mut lp = Loop {
        reads: Latencies::new(cfg.trace, WINDOW),
        writes_us: Vec::new(),
        all: Latencies::new(cfg.trace, window_for(sizes.reads_per_write + 1)),
        sent: Vec::new(),
        next: 0,
    };
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline && (!cfg.trace || lp.next < MAX_TRACED) {
        step(&mut a, &stream, &mut lp, &mut clock, &mut report);
    }
    if cfg.trace {
        set_loop_metrics(&mut lp.reads, &clock, &mut report);
        // Throughput over reads and writes, as `stmts_per_s` is.
        report.set("stmts_per_s_raw", lp.all.stmts_per_s_raw());
    }
    let traced = if cfg.trace {
        let baseline_us = mean(lp.all.all());
        traced_pass(
            cfg,
            &engine,
            &mut a,
            &stream,
            &mut lp,
            baseline_us,
            &mut report,
        )
    } else {
        Ok(())
    };

    let (mut delta_us, [set_rows, counting_rows]) =
        match_deltas([set.id, counting.id], &rx, &lp.sent, &mut report);
    stop_b.store(true, Ordering::Release);
    let joined = receiver.join();
    check_views(
        &mut a,
        [
            (SET_VIEW, &set, set_rows),
            (COUNTING_VIEW, &counting, counting_rows),
        ],
        &mut report,
    );
    if cfg.trace {
        report.set(
            "snapshot.live_chain_len",
            engine.store().live_chain_len() as f64,
        );
    }
    drop(a);
    match joined {
        Ok((b, err)) => {
            if let Some(e) = err {
                report.fail(|| format!("connection B: {e}"));
            }
            drop(b);
        }
        Err(_) => report.fail(|| "connection B's receiver panicked".into()),
    }
    server.shutdown();
    traced?;

    if cfg.trace {
        report.set("p99_us", percentile(&mut lp.reads.all().to_vec(), 99.0));
        report.set("write_p50_us", percentile(&mut lp.writes_us, 50.0));
        report.set("write_p99_us", percentile(&mut lp.writes_us, 99.0));
        report.set("delta_p50_us", percentile(&mut delta_us, 50.0));
        report.set("delta_p99_us", percentile(&mut delta_us, 99.0));
    } else {
        report.set("stmts_per_s", lp.all.stmts_per_s());
        report.set("setup_s", median(&mut setup_times));
        report.set("peak_rss_mib", lp.all.peak_rss_mib());
        eprintln!(
            "perfbench: serve_write_subscribe: {} reads, {} writes; read p50 {:.1} us at \
             reference speed; as measured: read p50 {:.1} us, {:.1} stmts/s; reference \
             kernel {:.1} us; steal {:.3}; write p50 {:.0} us, p99 {:.0} us; delta p50 {:.0} us, \
             p99 {:.0} us",
            lp.reads.len(),
            lp.writes_us.len(),
            lp.reads.p50_us(),
            lp.reads.p50_raw_us(),
            lp.all.stmts_per_s_raw(),
            clock.ref_us(),
            clock.steal_frac(),
            percentile(&mut lp.writes_us, 50.0),
            percentile(&mut lp.writes_us, 99.0),
            percentile(&mut delta_us, 50.0),
            percentile(&mut delta_us, 99.0),
        );
    }
    Ok(report)
}

/// Close both connections and stop the server.
fn stop(served: Served) {
    let Served {
        mut server, a, b, ..
    } = served;
    drop(a);
    drop(b);
    server.shutdown();
}

/// Parse, bind and optimize `sql` and materialize it over `snap`, as
/// the engine does when a subscription is registered.
fn mirror_view(engine: &SharedEngine, sql: &str, snap: Arc<Database>) -> Result<MaterializedView> {
    let Statement::Query(ast) = parse_statement(sql)? else {
        return Err(Error::internal("views are queries"));
    };
    let canonical = ast.to_string();
    let bound = bind_output(snap.catalog(), &ast)?;
    let (query, _) = optimize_output(&Optimizer::new(engine.optimizer), &bound);
    let columns = query.output_names();
    MaterializedView::new(canonical, query, columns, snap, engine.exec)
}

/// Encode and decode `frames` as the client and server do; returns the
/// bytes on the wire.
fn codec(frames: &[Frame]) -> Result<u64> {
    let mut bytes = 0;
    for frame in frames {
        let encoded = frame.encode();
        bytes += encoded.len() as u64;
        let decoded =
            Frame::decode(&encoded[4..]).map_err(|e| Error::internal(format!("codec: {e}")))?;
        std::hint::black_box(decoded);
    }
    Ok(bytes)
}

/// The traced pass: the stream continues on connection A, and after
/// each statement the work the server did for it is replayed one layer
/// call at a time — a read through [`Pipeline`] on a pinned snapshot, a
/// write through a mirror `SnapshotStore` and mirror views — plus the
/// codec on the same frames. The statement's root span is the client
/// call's round trip; what the replayed layers do not explain is the
/// server's residual (decode, queue, socket write, locks, push).
fn traced_pass(
    cfg: &RunConfig,
    engine: &Arc<SharedEngine>,
    a: &mut Client,
    stream: &Stream,
    lp: &mut Loop,
    baseline_us: f64,
    report: &mut Report,
) -> Result<()> {
    let mirror = SnapshotStore::new((*engine.snapshot()).clone());
    let mut views =
        [SET_VIEW, COUNTING_VIEW].map(|sql| mirror_view(engine, sql, mirror.snapshot()));
    if let Some(Err(e)) = views.iter().find(|v| v.is_err()) {
        return Err(Error::internal(format!("mirror view: {e}")));
    }
    // The engine keeps its statistics private; collecting them again
    // from the head gives the replay the same physical plans.
    let statistics = Statistics::collect(&engine.snapshot());
    let mut planner = engine.planner;
    planner.cost_based = true;
    let cache = PlanCache::new(engine.cache().capacity());
    let replay = |tr: &mut Tracer, n: u32, sql: &str, snap: &Database| {
        Pipeline {
            db: snap,
            optimizer: engine.optimizer,
            exec: engine.exec,
            planner,
            stats: Some(&statistics),
            columns: None,
            cache: &cache,
            epoch: 1,
        }
        .query(tr, n, sql)
    };
    let mut scratch = Tracer::new();
    for sql in &stream.reads {
        replay(&mut scratch, 0, sql, &engine.snapshot())?;
    }
    let cache_before = cache.stats();
    let subs_before = engine.stats().subs;

    let mut tr = Tracer::new();
    let mut acc = LayerCounters::default();
    let mut rtt_reads_us = Vec::new();
    let mut bytes = 0u64;
    let deadline = Instant::now() + cfg.budget() / 2;
    let mut n = 0u32;
    while Instant::now() < deadline && (n as usize) < MAX_TRACED {
        let Some((done, took)) = call(a, stream, lp, true, report) else {
            continue;
        };
        let rtt_ns = took.as_nanos() as u64;
        let root = tr.begin(n, ROOT);
        let replay_start = tr.now_ns();
        // Each arm returns the exchange's frames and how long the
        // in-process replay of the server's work took.
        let (frames, replay_ns) = match done {
            Done::Write { script, ack } => {
                let span = tr.begin(n, "snapshot.publish");
                let published = mirror.run_script(&script);
                tr.end(span);
                published?;
                let head = mirror.snapshot();
                for view in views.iter_mut().flatten() {
                    let span = tr.begin(n, "ivm.maintain");
                    let outcome = view.maintain(&head);
                    tr.end(span);
                    if !matches!(outcome?, MaintainOutcome::Delta { .. }) {
                        report.mismatch(|| format!("mirror view {} saw no delta", view.sql()));
                    }
                }
                let replay_ns = tr.now_ns() - replay_start;
                let pushed = lp.sent.last().expect("the write was booked").rows.clone();
                let mut frames = vec![Frame::Exec { sql: script }, Frame::Ack { message: ack }];
                frames.extend(
                    pushed
                        .into_iter()
                        .zip(1..)
                        .map(|(row, id)| Frame::ViewDelta {
                            id,
                            inserted: vec![row],
                            deleted: vec![],
                        }),
                );
                (frames, replay_ns)
            }
            Done::Read { r, reply } => {
                let sql = &stream.reads[r];
                rtt_reads_us.push(rtt_ns as f64 / 1e3);
                let snap = engine.snapshot();
                let out = replay(&mut tr, n, sql, &snap)?;
                let replay_ns = tr.now_ns() - replay_start;
                if out.rows != stream.expected[r] {
                    report.mismatch(|| format!("replay {sql}: {:?}", out.rows));
                }
                acc.absorb(&out.stats, out.rows.len(), out.compiled.as_ref());
                let frames = vec![
                    Frame::Query { sql: sql.clone() },
                    Frame::RowHeader {
                        columns: reply.columns,
                        cache_hit: reply.cache_hit,
                    },
                    Frame::RowBatch {
                        rows: reply.rows,
                        last: true,
                    },
                ];
                (frames, replay_ns)
            }
        };
        bytes += codec_span(&mut tr, n, &frames, rtt_ns, replay_ns)?;
        tr.end(root);
        tr.set_duration(root, rtt_ns);
        n += 1;
    }

    let n = n.max(1) as f64;
    acc.report(&tr, n as usize, baseline_us, report);
    let self_ns = tr.self_times();
    let per_stmt_us = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    for (metric, span) in [
        ("wire.codec_us", "wire.codec"),
        ("server.residual_us", "server.residual"),
        ("snapshot.publish_us", "snapshot.publish"),
        ("ivm.maintain_us", "ivm.maintain"),
    ] {
        report.set(metric, per_stmt_us(span));
    }
    report.set("server.rtt_us", mean(&rtt_reads_us));
    report.set("wire.bytes_per_stmt", bytes as f64 / n);
    let cache_after = cache.stats();
    let lookups =
        (cache_after.hits + cache_after.misses - cache_before.hits - cache_before.misses).max(1);
    report.set(
        "plancache.hit_rate",
        (cache_after.hits - cache_before.hits) as f64 / lookups as f64,
    );
    report.set(
        "plancache.evictions",
        (cache_after.evictions - cache_before.evictions) as f64 / n,
    );
    let subs = engine.stats().subs;
    report.set(
        "ivm.delta_rows",
        (subs.delta_rows - subs_before.delta_rows) as f64 / n,
    );
    report.set(
        "ivm.view_updates",
        (subs.view_updates - subs_before.view_updates) as f64 / n,
    );
    cfg.write_spans(&tr);
    Ok(())
}

/// Time the codec on a statement's frames and book what neither the
/// replay nor the codec explains of the round trip as the server's
/// residual. Returns the bytes on the wire.
fn codec_span(
    tr: &mut Tracer,
    n: u32,
    frames: &[Frame],
    rtt_ns: u64,
    replay_ns: u64,
) -> Result<u64> {
    let span = tr.begin(n, "wire.codec");
    let start = tr.now_ns();
    let bytes = codec(frames);
    let codec_ns = tr.now_ns() - start;
    tr.end(span);
    let residual = rtt_ns.saturating_sub(replay_ns + codec_ns);
    tr.record(n, "server.residual", tr.now_ns(), residual);
    bytes
}
