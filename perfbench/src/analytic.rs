//! `analytic_scan`: joins, DISTINCT, set operations, EXISTS, GROUP BY,
//! COUNT(DISTINCT) and index Top-K over the 20,000-supplier database,
//! through `Session::with_columnar().with_degree(2)` with every plan
//! cached. The executor — row fallback, columnar kernels, morsel
//! workers, aggregation — is nearly all of the time.
//!
//! EXCEPT is left out of this mix: at this size the engine's EXCEPT is
//! quadratic in its inputs (about 0.7 s at 2,000 suppliers and over a
//! minute at 20,000), so one statement would outlast a run. It stays in
//! `compile_miss`, where the database is small.

use crate::data::{distinct, int, project, Tables, AGENT_CITIES, CITIES, COLORS};
use crate::inproc::{stmt_rng, warm, Check, Deck, InProcess, Stmt};
use crate::stats::Digest;
use crate::Scale;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use uniq_catalog::Row;
use uniq_engine::Session;
use uniq_types::{Result, Value};
use uniq_workload::{indexed_database, ScaleConfig};

/// The ordered index the Top-K statements walk.
const BUDGET_INDEX: &str = "CREATE INDEX IDX_S_BUDGET_SNO ON SUPPLIER (BUDGET, SNO);";

/// Executor degree (morsel workers).
const DEGREE: usize = 2;

/// One statement shape with its parameters.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// E17's key join, filtered on color.
    Join(&'static str),
    /// DISTINCT over the key join (elided: the output covers both keys).
    JoinDistinctKey(&'static str),
    /// DISTINCT over non-key columns of the join.
    JoinDistinctCity,
    /// INTERSECT of suppliers in a city and suppliers with an agent in
    /// an agent city.
    Intersect(&'static str, &'static str),
    /// EXISTS: suppliers with a part of a color.
    Exists(&'static str),
    /// GROUP BY a non-key column.
    GroupCity,
    /// Key-covered GROUP BY (grouping elided).
    GroupKey,
    /// COUNT(DISTINCT key) (degraded to COUNT).
    CountDistinct,
    /// COUNT(*) over the key join.
    CountJoin,
    /// ORDER BY (BUDGET, SNO) LIMIT k over the ordered index.
    TopK(usize),
}

/// Stream weight of each kind, in the order of [`kinds`]. One deck of
/// statements holds each kind this many times. The cheap kinds (1–5 ms:
/// grouping, COUNT(DISTINCT), Top-K) come more often than the scans and
/// joins (15–40 ms), so a run holds enough statements for its 99th
/// percentile.
const WEIGHTS: [usize; 10] = [1, 1, 1, 1, 1, 2, 2, 2, 1, 3];

/// Every shape, grouped by kind (the index into [`WEIGHTS`]).
fn kinds() -> Vec<Vec<Shape>> {
    let intersect = CITIES
        .iter()
        .flat_map(|&city| AGENT_CITIES.map(|acity| Shape::Intersect(city, acity)))
        .collect();
    vec![
        COLORS.map(Shape::Join).to_vec(),
        COLORS.map(Shape::JoinDistinctKey).to_vec(),
        vec![Shape::JoinDistinctCity],
        intersect,
        COLORS.map(Shape::Exists).to_vec(),
        vec![Shape::GroupCity],
        vec![Shape::GroupKey],
        vec![Shape::CountDistinct],
        vec![Shape::CountJoin],
        [5, 10, 20, 50].map(Shape::TopK).to_vec(),
    ]
}

impl Shape {
    fn sql(self) -> String {
        match self {
            Shape::Join(c) => format!(
                "SELECT P.PNO, S.SCITY FROM PARTS P, SUPPLIER S \
                 WHERE P.SNO = S.SNO AND P.COLOR = '{c}'"
            ),
            Shape::JoinDistinctKey(c) => format!(
                "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
                 WHERE S.SNO = P.SNO AND P.COLOR = '{c}'"
            ),
            Shape::JoinDistinctCity => "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
                 WHERE P.SNO = S.SNO"
                .into(),
            Shape::Intersect(city, acity) => format!(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = '{city}' \
                 INTERSECT SELECT A.SNO FROM AGENTS A WHERE A.ACITY = '{acity}'"
            ),
            Shape::Exists(c) => format!(
                "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
                 (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = '{c}')"
            ),
            Shape::GroupCity => {
                "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SCITY".into()
            }
            Shape::GroupKey => "SELECT S.SNO, COUNT(*) AS N, SUM(S.BUDGET) AS B \
                 FROM SUPPLIER S GROUP BY S.SNO"
                .into(),
            Shape::CountDistinct => "SELECT COUNT(DISTINCT S.SNO) AS N FROM SUPPLIER S".into(),
            Shape::CountJoin => "SELECT COUNT(*) AS N FROM PARTS P, SUPPLIER S \
                 WHERE P.SNO = S.SNO"
                .into(),
            Shape::TopK(k) => {
                format!("SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET, S.SNO LIMIT {k}")
            }
        }
    }

    /// The expected answer, from the generated rows and the generator's
    /// configuration.
    fn expect(self, t: &Tables, config: &ScaleConfig) -> Check {
        let city_of: HashMap<i64, &Value> =
            t.suppliers.iter().map(|s| (int(&s[0]), &s[2])).collect();
        let digest = |rows: Vec<Row>| Check::Digest(Digest::of(&rows));
        let str_is = |v: &Value, want: &str| *v == Value::str(want);
        match self {
            Shape::Join(c) => digest(
                t.parts
                    .iter()
                    .filter(|p| str_is(&p[4], c))
                    .map(|p| vec![p[1].clone(), city_of[&int(&p[0])].clone()])
                    .collect(),
            ),
            Shape::JoinDistinctKey(c) => digest(
                t.parts
                    .iter()
                    .filter(|p| str_is(&p[4], c))
                    .map(|p| project(p, &[0, 1]))
                    .collect(),
            ),
            Shape::JoinDistinctCity => digest(distinct(
                t.parts
                    .iter()
                    .map(|p| vec![p[4].clone(), city_of[&int(&p[0])].clone()]),
            )),
            Shape::Intersect(city, acity) => {
                let with_agent: HashSet<i64> = t
                    .agents
                    .iter()
                    .filter(|a| str_is(&a[3], acity))
                    .map(|a| int(&a[0]))
                    .collect();
                digest(
                    t.suppliers
                        .iter()
                        .filter(|s| str_is(&s[2], city) && with_agent.contains(&int(&s[0])))
                        .map(|s| project(s, &[0]))
                        .collect(),
                )
            }
            Shape::Exists(c) => {
                let with_part = suppliers_with_part(t, c);
                digest(
                    t.suppliers
                        .iter()
                        .filter(|s| with_part.contains(&int(&s[0])))
                        .map(|s| project(s, &[0, 1]))
                        .collect(),
                )
            }
            Shape::GroupCity => {
                let mut counts: HashMap<&Value, i64> = HashMap::new();
                for s in &t.suppliers {
                    *counts.entry(&s[2]).or_default() += 1;
                }
                digest(
                    counts
                        .into_iter()
                        .map(|(city, n)| vec![city.clone(), Value::Int(n)])
                        .collect(),
                )
            }
            Shape::GroupKey => digest(
                t.suppliers
                    .iter()
                    .map(|s| vec![s[0].clone(), Value::Int(1), s[3].clone()])
                    .collect(),
            ),
            // Closed forms from the generator's configuration.
            Shape::CountDistinct => digest(vec![vec![Value::Int(config.suppliers as i64)]]),
            Shape::CountJoin => digest(vec![vec![Value::Int(
                (config.suppliers * config.parts_per_supplier) as i64,
            )]]),
            Shape::TopK(k) => {
                let mut by_budget: Vec<(i64, i64)> = t
                    .suppliers
                    .iter()
                    .map(|s| (int(&s[3]), int(&s[0])))
                    .collect();
                by_budget.sort_unstable();
                Check::Sequence(Arc::new(
                    by_budget
                        .into_iter()
                        .take(k)
                        .map(|(budget, sno)| vec![Value::Int(sno), Value::Int(budget)])
                        .collect(),
                ))
            }
        }
    }
}

fn suppliers_with_part(t: &Tables, color: &str) -> HashSet<i64> {
    t.parts
        .iter()
        .filter(|p| p[4] == Value::str(color))
        .map(|p| int(&p[0]))
        .collect()
}

/// The workload's seeded inputs.
pub struct AnalyticScan {
    config: ScaleConfig,
    kinds: Vec<Vec<Shape>>,
    checks: Vec<Vec<Check>>,
    deck: Deck,
    seed: u64,
}

impl AnalyticScan {
    /// Inputs for `seed` at `scale`.
    pub fn new(seed: u64, scale: Scale) -> AnalyticScan {
        let suppliers = match scale {
            Scale::Full => 20_000,
            Scale::Tiny => 200,
        };
        AnalyticScan {
            config: ScaleConfig {
                suppliers,
                parts_per_supplier: 5,
                agents_per_supplier: 2,
                seed,
                ..ScaleConfig::default()
            },
            kinds: kinds(),
            checks: Vec::new(),
            deck: Deck::new(seed, &WEIGHTS),
            seed,
        }
    }
}

impl InProcess for AnalyticScan {
    fn build(&self) -> Result<Session> {
        let mut db = indexed_database(&self.config)?;
        db.run_script(BUDGET_INDEX)?;
        let session = Session::new(db).with_degree(DEGREE).with_columnar();
        warm(&session, &self.warm_texts())?;
        Ok(session)
    }

    fn prepare_checks(&mut self, session: &Session) -> Result<()> {
        let tables = Tables::read(&session.db)?;
        self.checks = self
            .kinds
            .iter()
            .map(|shapes| {
                shapes
                    .iter()
                    .map(|s| s.expect(&tables, &self.config))
                    .collect()
            })
            .collect();
        Ok(())
    }

    fn statement(&mut self, i: usize) -> Stmt {
        let kind = self.deck.kind(i);
        let shapes = &self.kinds[kind];
        let j = stmt_rng(self.seed, i).gen_range(0..shapes.len());
        Stmt {
            sql: shapes[j].sql(),
            check: self.checks[kind][j].clone(),
        }
    }

    fn warm_texts(&self) -> Vec<String> {
        self.kinds.iter().flatten().map(|s| s.sql()).collect()
    }

    fn deck_len(&self) -> usize {
        self.deck.len()
    }
}
