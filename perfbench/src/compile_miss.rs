//! `compile_miss`: every statement text is new (a salted literal makes
//! it unique), so every statement misses the plan cache and, once 1,024
//! plans are cached, evicts one. Binding, rewriting with its proof
//! checks, and physical planning dominate; the database is small.
//!
//! The mix: `generate_corpus` DISTINCT queries, EXISTS chains (the
//! subquery→join rewrite), INTERSECT/EXCEPT (the set-operation
//! rewrites), DISTINCT over key joins (Theorem 1), and key-covered
//! GROUP BY / COUNT(DISTINCT) (the aggregate elisions).
//!
//! The expected answer of each statement is the same statement run with
//! rewrites off (`Session::query_unoptimized`), computed outside the
//! timed loop. That is the engine checking itself; an evaluator that
//! shares no code with the engine would be a stronger oracle.

use crate::data::{AGENT_CITIES, CITIES, COLORS};
use crate::inproc::{stmt_rng, warm, Check, Deck, InProcess, Stmt};
use crate::Scale;
use uniq_engine::Session;
use uniq_types::Result;
use uniq_workload::{generate_corpus, indexed_database, ScaleConfig};

/// Salts start here; generated keys stay far below, so `X.SNO <> salt`
/// is true on every row and only makes the text unique.
const SALT_BASE: usize = 1_000_000;

/// Seed of the `generate_corpus` template library.
const CORPUS_SEED: u64 = 0xC0_4705;

/// Stream positions of the statements that fill the plan cache during
/// set-up, far past any position a timed run reaches, so their texts
/// never recur.
const PREFILL_AT: usize = 1 << 40;

/// Deck weights, one per statement kind of [`CompileMiss::sql`].
const WEIGHTS: [usize; 11] = [4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];

/// The workload's seeded inputs.
pub struct CompileMiss {
    config: ScaleConfig,
    corpus: Vec<String>,
    prefill: Vec<String>,
    deck: Deck,
    seed: u64,
}

impl CompileMiss {
    /// Inputs for `seed` at `scale`.
    pub fn new(seed: u64, scale: Scale) -> Result<CompileMiss> {
        let (suppliers, corpus_size, prefill) = match scale {
            Scale::Full => (50, 300, uniq_engine::plancache::DEFAULT_CAPACITY),
            Scale::Tiny => (10, 30, 64),
        };
        // The corpus is a fixed template library, the same for every
        // seed (a seed-dependent pool would change the mix's cost from
        // seed to seed); the seed picks from it. Keep queries whose
        // tables are joined on SNO: a cross product would make
        // execution, not compilation, the cost.
        let corpus = generate_corpus(CORPUS_SEED, corpus_size, 1)?
            .into_iter()
            .map(|q| q.sql)
            .filter(|sql| joined_or_single(sql))
            .collect();
        let mut workload = CompileMiss {
            config: ScaleConfig {
                suppliers,
                parts_per_supplier: 2,
                agents_per_supplier: 2,
                seed,
                ..ScaleConfig::default()
            },
            corpus,
            prefill: Vec::new(),
            deck: Deck::new(seed, &WEIGHTS),
            seed,
        };
        workload.prefill = (0..prefill).map(|j| workload.sql(PREFILL_AT + j)).collect();
        Ok(workload)
    }

    /// Statement text `i`: kind from the deck, parameters from the
    /// statement's RNG, uniqueness from the salt.
    fn sql(&mut self, i: usize) -> String {
        let salt = SALT_BASE + i;
        let mut rng = stmt_rng(self.seed, i);
        let color = COLORS[rng.gen_range(0..COLORS.len())];
        let city = CITIES[rng.gen_range(0..CITIES.len())];
        let acity = AGENT_CITIES[rng.gen_range(0..AGENT_CITIES.len())];
        match self.deck.kind(i) {
            0 => salt_corpus(&self.corpus[rng.gen_range(0..self.corpus.len())], salt),
            1 => format!(
                "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO <> {salt} AND EXISTS \
                 (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = '{color}')"
            ),
            2 => format!(
                "SELECT DISTINCT S.SNO, S.SCITY FROM SUPPLIER S WHERE S.SNO <> {salt} AND EXISTS \
                 (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND EXISTS \
                 (SELECT * FROM AGENTS A WHERE A.SNO = P.SNO AND A.ACITY = '{acity}'))"
            ),
            3 => {
                let pno = rng.gen_range(1..=2);
                format!(
                    "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO <> {salt} \
                     AND EXISTS (SELECT * FROM PARTS P0 WHERE P0.SNO = S.SNO AND P0.PNO = {pno}) \
                     AND EXISTS (SELECT * FROM AGENTS A1 WHERE A1.SNO = S.SNO AND A1.ACITY = '{acity}')"
                )
            }
            4 => format!(
                "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SNO <> {salt} AND S.SCITY = '{city}' \
                 INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = '{acity}'"
            ),
            5 => format!(
                "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO <> {salt} \
                 EXCEPT SELECT P.SNO FROM PARTS P WHERE P.COLOR = '{color}'"
            ),
            6 => format!(
                "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                 WHERE S.SNO = P.SNO AND P.COLOR = '{color}' AND S.SNO <> {salt}"
            ),
            7 => format!(
                "SELECT DISTINCT S.SNO, A.ANO, A.ANAME FROM SUPPLIER S, AGENTS A \
                 WHERE S.SNO = A.SNO AND A.ACITY = '{acity}' AND S.SNO <> {salt}"
            ),
            8 => format!(
                "SELECT DISTINCT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A \
                 WHERE S.SNO = P.SNO AND S.SNO = A.SNO AND S.SNO <> {salt}"
            ),
            9 => format!(
                "SELECT S.SNO, COUNT(*) AS N, SUM(S.BUDGET) AS B FROM SUPPLIER S \
                 WHERE S.SNO <> {salt} GROUP BY S.SNO"
            ),
            _ => format!(
                "SELECT COUNT(DISTINCT S.SNO) AS N FROM SUPPLIER S \
                 WHERE S.SNO <> {salt} AND S.SCITY = '{city}'"
            ),
        }
    }
}

/// A single-table corpus query, or one whose two tables are joined on
/// `SNO`.
fn joined_or_single(sql: &str) -> bool {
    let aliases = ["S", "P", "A"];
    let from = sql.split(" FROM ").nth(1).unwrap_or("");
    let tables = from.split(" WHERE ").next().unwrap_or("");
    !tables.contains(',')
        || aliases.iter().any(|a| {
            aliases
                .iter()
                .any(|b| a != b && sql.contains(&format!("{a}.SNO = {b}.SNO")))
        })
}

/// Add the always-true `alias.SNO <> salt` conjunct to a corpus query,
/// using the alias of its first table.
fn salt_corpus(sql: &str, salt: usize) -> String {
    let alias = sql
        .split(" FROM ")
        .nth(1)
        .and_then(|from| from.split_whitespace().nth(1))
        .map(|a| a.trim_end_matches(','))
        .unwrap_or("S");
    if sql.contains(" WHERE ") {
        format!("{sql} AND {alias}.SNO <> {salt}")
    } else {
        format!("{sql} WHERE {alias}.SNO <> {salt}")
    }
}

impl InProcess for CompileMiss {
    /// The session starts with a full plan cache, so every timed
    /// statement evicts a plan.
    fn build(&self) -> Result<Session> {
        let session = Session::new(indexed_database(&self.config)?).with_cost_based();
        warm(&session, &self.prefill)?;
        Ok(session)
    }

    fn prepare_checks(&mut self, _session: &Session) -> Result<()> {
        Ok(())
    }

    fn statement(&mut self, i: usize) -> Stmt {
        Stmt {
            sql: self.sql(i),
            check: Check::RewritesOff,
        }
    }

    fn warm_texts(&self) -> Vec<String> {
        self.prefill.clone()
    }

    fn deck_len(&self) -> usize {
        self.deck.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salting_uses_the_first_alias() {
        assert_eq!(
            salt_corpus(
                "SELECT DISTINCT P.PNO FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO",
                7
            ),
            "SELECT DISTINCT P.PNO FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO AND P.SNO <> 7"
        );
        assert_eq!(
            salt_corpus("SELECT DISTINCT A.ANO FROM AGENTS A", 9),
            "SELECT DISTINCT A.ANO FROM AGENTS A WHERE A.SNO <> 9"
        );
    }

    #[test]
    fn cross_products_are_filtered() {
        assert!(joined_or_single(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1"
        ));
        assert!(joined_or_single(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO"
        ));
        assert!(!joined_or_single(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.BUDGET = 1"
        ));
    }

    #[test]
    fn texts_are_unique_and_repeat_per_seed() {
        let mut a = CompileMiss::new(3, Scale::Tiny).unwrap();
        let mut b = CompileMiss::new(3, Scale::Tiny).unwrap();
        let ta: Vec<String> = (0..50).map(|i| a.sql(i)).collect();
        let tb: Vec<String> = (0..50).map(|i| b.sql(i)).collect();
        assert_eq!(ta, tb);
        let unique: std::collections::HashSet<_> = ta.iter().collect();
        assert_eq!(unique.len(), ta.len());
    }
}
