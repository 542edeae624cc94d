//! `point_cached`: seeded key lookups and parts-of-supplier index joins
//! through an in-process, cost-based `Session` whose plan cache holds
//! every distinct text before timing starts. Parse, canonicalisation,
//! the cache probe and a one-row index probe are the whole cost.

use crate::data::{project, Tables};
use crate::inproc::{stmt_rng, warm, Check, InProcess, Stmt};
use crate::stats::Digest;
use crate::Scale;
use std::collections::HashSet;
use uniq_engine::Session;
use uniq_types::{Error, Result, Value};
use uniq_workload::rng::SplitMix64;
use uniq_workload::{indexed_database, ScaleConfig};

/// The parts-of-supplier join probes PARTS through this index; without
/// it the join shape scans all of PARTS.
const PARTS_INDEX: &str = "CREATE INDEX IDX_P_SNO ON PARTS (SNO);";

/// Statement shapes per key: the supplier lookup and the parts join.
const SHAPES: usize = 2;

/// The workload's seeded inputs.
pub struct PointCached {
    config: ScaleConfig,
    keys: Vec<i64>,
    texts: Vec<String>,
    checks: Vec<Check>,
    seed: u64,
}

impl PointCached {
    /// Inputs for `seed` at `scale`.
    pub fn new(seed: u64, scale: Scale) -> PointCached {
        let (suppliers, pool) = match scale {
            Scale::Full => (20_000, 350),
            Scale::Tiny => (60, 20),
        };
        let config = ScaleConfig {
            suppliers,
            parts_per_supplier: 5,
            agents_per_supplier: 2,
            seed,
            ..ScaleConfig::default()
        };
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9017_CAC4);
        let mut seen = HashSet::new();
        let mut keys = Vec::with_capacity(pool);
        while keys.len() < pool {
            let k = rng.gen_range(1..=suppliers as i64);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        let texts = keys
            .iter()
            .flat_map(|k| {
                [
                    format!("SELECT S.SNAME, S.SCITY, S.BUDGET FROM SUPPLIER S WHERE S.SNO = {k}"),
                    format!(
                        "SELECT P.PNO, P.PNAME, P.COLOR FROM SUPPLIER S, PARTS P \
                         WHERE S.SNO = P.SNO AND S.SNO = {k}"
                    ),
                ]
            })
            .collect();
        PointCached {
            config,
            keys,
            texts,
            checks: Vec::new(),
            seed,
        }
    }
}

impl InProcess for PointCached {
    fn build(&self) -> Result<Session> {
        let mut db = indexed_database(&self.config)?;
        db.run_script(PARTS_INDEX)?;
        let session = Session::new(db).with_cost_based();
        warm(&session, &self.texts)?;
        Ok(session)
    }

    fn prepare_checks(&mut self, session: &Session) -> Result<()> {
        let tables = Tables::read(&session.db)?;
        let by_key = tables.suppliers_by_key();
        self.checks.clear();
        for &k in &self.keys {
            let supplier = by_key
                .get(&k)
                .ok_or_else(|| Error::internal(format!("supplier {k} was not generated")))?;
            self.checks
                .push(Check::Digest(Digest::of([&project(supplier, &[1, 2, 3])])));
            let parts: Vec<_> = tables
                .parts
                .iter()
                .filter(|p| p[0] == Value::Int(k))
                .map(|p| project(p, &[1, 2, 4]))
                .collect();
            self.checks.push(Check::Digest(Digest::of(&parts)));
        }
        debug_assert_eq!(self.checks.len(), self.keys.len() * SHAPES);
        Ok(())
    }

    fn statement(&mut self, i: usize) -> Stmt {
        let t = stmt_rng(self.seed, i).gen_range(0..self.texts.len());
        Stmt {
            sql: self.texts[t].clone(),
            check: self.checks[t].clone(),
        }
    }

    fn warm_texts(&self) -> Vec<String> {
        self.texts.clone()
    }
}
