//! Serving parity: the embedded `Session` and the server's
//! `SharedEngine` must behave identically, because both run the one
//! query pipeline.
//!
//! One corpus runs over the sample database through both surfaces in
//! three configurations: static executor options, cost-based after
//! `ANALYZE`, and columnar after `ANALYZE`. For every statement the two
//! surfaces must agree on rows, rewrite trace, executor work counters,
//! per-operator cardinalities and the plan-cache hit sequence, and on
//! the `EXPLAIN` text apart from the server's `Subscription:` note.
//! Every configuration renders one physical plan, and a cost-based
//! plan's rendered operators are exactly the operators its queries
//! report cardinalities for.
//! Wall-clock fields (per-rule and proof-checker nanoseconds) are the
//! only values zeroed before comparison.

use uniqueness::core::pipeline::RewriteTrace;
use uniqueness::engine::{QueryOutput, Session, SharedEngine, SubscriptionSink};
use uniqueness::plan::HostVars;

/// Joins, DISTINCT, subqueries, set operations, aggregation and an
/// index-served Top-K, covering the rewrite rules, the columnar kernels
/// and the row fallback.
const CORPUS: &[&str] = &[
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
    "SELECT DISTINCT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
     WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = :CITY",
    "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 OR S.SNO = 2",
    "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
    "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
     INTERSECT SELECT ALL A.SNO FROM AGENTS A",
    "SELECT S.SNO FROM SUPPLIER S EXCEPT SELECT A.SNO FROM AGENTS A",
    "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SCITY ORDER BY N DESC LIMIT 2",
    "SELECT S.SNO, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SNO",
    "SELECT COUNT(DISTINCT S.SNO) AS N FROM SUPPLIER S",
    "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2",
];

/// The statement the engine also holds a live subscription on, so its
/// `EXPLAIN` carries the note the session's never does.
const SUBSCRIBED: &str =
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";

/// How a configuration sets up the session.
type Configure = fn(Session) -> Session;

/// A configuration: its name, the session set-up, and whether the
/// engine runs `ANALYZE` (the engine plans physically once it has).
const CONFIGS: &[(&str, Configure, bool)] = &[
    ("static", |s| s, false),
    ("cost-based", Session::with_cost_based, true),
    ("columnar", Session::with_columnar, true),
];

#[derive(Debug, Clone, Copy)]
enum Step {
    Query,
    Explain,
}

/// The same session configuration served both ways.
fn surfaces(configure: Configure, analyze: bool) -> (Session, SharedEngine) {
    let mut db = uniqueness::catalog::sample::supplier_database().unwrap();
    db.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
        .unwrap();
    let session = configure(Session::new(db.clone()));
    let mut engine = SharedEngine::new(db);
    engine.optimizer = session.optimizer;
    engine.exec = session.exec;
    engine.planner = session.planner;
    if analyze {
        engine.analyze();
    }
    let sink: SubscriptionSink = Box::new(|_, _| true);
    engine.subscribe(SUBSCRIBED, sink).unwrap();
    (session, engine)
}

fn without_wall_clock(mut trace: RewriteTrace) -> RewriteTrace {
    for rule in &mut trace.rule_stats {
        rule.nanos = 0;
        rule.proof_nanos = 0;
    }
    trace
}

/// Everything a query reports except its stage timings.
fn observable(out: QueryOutput) -> impl std::fmt::Debug + PartialEq {
    (
        out.columns,
        out.rows,
        without_wall_clock(out.trace),
        out.stats,
        out.cards,
        out.cache_hit,
    )
}

/// `EXPLAIN` text with the per-rule wall time (the last field of each
/// `Rule stats` line) cut off.
fn without_rule_times(text: &str) -> String {
    let mut in_rule_stats = false;
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with("Rule stats") {
            in_rule_stats = true;
        } else if !line.starts_with("  ") {
            in_rule_stats = false;
        }
        let kept = match line.rfind('/') {
            Some(cut) if in_rule_stats && line.starts_with("  ") => &line[..cut],
            _ => line,
        };
        out.push_str(kept);
        out.push('\n');
    }
    out
}

#[test]
fn session_and_shared_engine_serve_identically() {
    let hostvars = HostVars::new().with("CITY", "Toronto");
    for &(config, configure, analyze) in CONFIGS {
        let (session, engine) = surfaces(configure, analyze);
        for (i, sql) in CORPUS.iter().chain([&SUBSCRIBED]).enumerate() {
            // Alternate the order so both a compiling and a cached
            // EXPLAIN, and both a missing and a hitting query, occur.
            let steps = if i % 2 == 0 {
                [Step::Query, Step::Query, Step::Explain]
            } else {
                [Step::Explain, Step::Query, Step::Explain]
            };
            for step in steps {
                let context = format!("{config}, {step:?}: {sql}");
                match step {
                    Step::Query => {
                        let embedded = session.query_with(sql, &hostvars).unwrap();
                        let served = engine.query_with(sql, &hostvars).unwrap();
                        assert_eq!(observable(embedded), observable(served), "{context}");
                    }
                    Step::Explain => {
                        let embedded = session.explain(sql).unwrap();
                        let served = engine.explain(sql).unwrap();
                        let (served, note) = match served.split_once("\nSubscription: ") {
                            Some((text, note)) => (text.to_string(), Some(note.to_string())),
                            None => (served, None),
                        };
                        assert_eq!(note.is_some(), *sql == SUBSCRIBED, "{context}");
                        assert_eq!(
                            without_rule_times(&embedded),
                            without_rule_times(&served),
                            "{context}"
                        );
                        assert_eq!(
                            embedded.matches("Physical plan:").count(),
                            1,
                            "one EXPLAIN format on every surface: {context}"
                        );
                        assert!(!embedded.contains("Cost-based plan"), "{context}");
                    }
                }
            }
        }
        let covered = engine.query(CORPUS[2]).unwrap();
        assert_eq!(
            covered.stats.vector_ops > 0,
            config == "columnar",
            "{config}: the engine runs the columnar kernels exactly when configured"
        );
    }
}

/// The operator labels of an `EXPLAIN`'s physical plan, top-down.
fn plan_labels(explain: &str) -> Vec<String> {
    let (_, plan) = explain
        .split_once("Physical plan:\n")
        .expect("physical plan");
    plan.lines()
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.trim_start().split(" est=").next().unwrap().to_string())
        .collect()
}

#[test]
fn explain_renders_the_operators_a_query_reports() {
    let hostvars = HostVars::new().with("CITY", "Toronto");
    for &(config, configure, analyze) in CONFIGS {
        let (session, engine) = surfaces(configure, analyze);
        for sql in CORPUS {
            let context = format!("{config}: {sql}");
            let explained = plan_labels(&session.explain(sql).unwrap());
            assert!(!explained.is_empty(), "{context}");
            assert_eq!(
                explained,
                plan_labels(&engine.explain(sql).unwrap()),
                "{context}"
            );
            let out = session.query_with(sql, &hostvars).unwrap();
            match out.cards {
                Some(cards) => {
                    assert!(analyze, "only an estimated plan reports cards: {context}");
                    let reported: Vec<String> = cards.rows.into_iter().map(|r| r.op).collect();
                    assert_eq!(explained, reported, "{context}");
                }
                None => assert!(!analyze, "a cost-based plan reports cards: {context}"),
            }
        }
    }
}
