//! The serving path replayed one layer call at a time, for the traced
//! run.
//!
//! [`Pipeline::query`] makes the calls `Session::query_with` (and
//! `SharedEngine::query_with`) make, in the same order, with a span
//! around each public layer call:
//!
//! | span | call |
//! |---|---|
//! | `sql.parse` | `uniq_sql::parse_statement` |
//! | `sql.canon` | AST `to_string`, `PlanCache::sql_hash`, options tag, `PlanCache::fingerprint_with` |
//! | `plancache.probe` | `PlanCache::get` |
//! | `plan.bind` | `uniq_plan::bind_output` (miss only) |
//! | `core.rewrite` | `uniq_core::optimize_output` (miss only) |
//! | `proof.check` | the checker time inside the rewrite, from its `RewriteTrace` |
//! | `cost.plan` | `uniq_cost::plan_output` (miss only, cost-based) |
//! | `plancache.insert` | `PlanCache::insert` (miss only) |
//! | `exec.run` | `Executor::run_output` |
//!
//! What the serving path does between those calls (cloning the cached
//! trace and columns, the cardinality report, building the output) runs
//! here too, outside every layer span, so it shows up as unattributed
//! time exactly as it would in the engine.

use crate::trace::Tracer;
use uniq_catalog::{Database, Row};
use uniq_core::optimize_output;
use uniq_core::pipeline::{Optimizer, OptimizerOptions, RewriteTrace};
use uniq_cost::{plan_output, PlannerOptions, Statistics};
use uniq_engine::{CachedPlan, ColumnStore, ExecOptions, ExecStats, Executor, PlanCache};
use uniq_plan::{bind_output, HostVars};
use uniq_sql::{parse_statement, Statement};
use uniq_types::{fnv64, Error, Result};

/// One engine configuration plus the state a query runs against.
pub struct Pipeline<'a> {
    /// The database (or pinned snapshot) the statement runs on.
    pub db: &'a Database,
    /// Rewrite configuration.
    pub optimizer: OptimizerOptions,
    /// Executor options.
    pub exec: ExecOptions,
    /// Planner options; physical planning happens when `cost_based` is
    /// set and statistics exist.
    pub planner: PlannerOptions,
    /// Statistics collected by `analyze`.
    pub stats: Option<&'a Statistics>,
    /// Column store for columnar execution.
    pub columns: Option<&'a ColumnStore>,
    /// The replay's own plan cache.
    pub cache: &'a PlanCache,
    /// Statistics epoch mixed into the options tag.
    pub epoch: u64,
}

/// What one replayed statement produced.
pub struct Replayed {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Executor work counters.
    pub stats: ExecStats,
    /// The rewrite trace, when the statement compiled (plan-cache miss).
    pub compiled: Option<RewriteTrace>,
}

impl Pipeline<'_> {
    /// Run `sql` through the layer calls, recording spans under the
    /// innermost open span of `tr`.
    pub fn query(&self, tr: &mut Tracer, stmt: u32, sql: &str) -> Result<Replayed> {
        let span = tr.begin(stmt, "sql.parse");
        let parsed = parse_statement(sql);
        tr.end(span);
        let Statement::Query(ast) = parsed? else {
            return Err(Error::internal("the replay executes queries only"));
        };

        let span = tr.begin(stmt, "sql.canon");
        let canonical = ast.to_string();
        let sql_hash = PlanCache::sql_hash(&canonical);
        let tag = fnv64(
            format!(
                "{:?}|{:?}|{:?}|{}",
                self.optimizer, self.exec, self.planner, self.epoch
            )
            .as_bytes(),
        );
        let fingerprint = PlanCache::fingerprint_with(sql_hash, tag);
        tr.end(span);

        let version = self.db.version();
        let span = tr.begin(stmt, "plancache.probe");
        let cached = self.cache.get(fingerprint, &canonical, version);
        tr.end(span);

        if let Some(plan) = cached {
            let (rows, stats) = self.execute(tr, stmt, &plan)?;
            // The hit path's output assembly: cloned header and trace.
            std::hint::black_box((plan.columns.clone(), plan.trace.clone()));
            return Ok(Replayed {
                rows,
                stats,
                compiled: None,
            });
        }

        let span = tr.begin(stmt, "plan.bind");
        let bound = bind_output(self.db.catalog(), &ast);
        tr.end(span);
        let bound = bound?;

        let span = tr.begin(stmt, "core.rewrite");
        let start = tr.now_ns();
        let (query, trace) = optimize_output(&Optimizer::new(self.optimizer), &bound);
        let proof_ns: u64 = trace.rule_stats.iter().map(|r| r.proof_nanos).sum();
        tr.record(stmt, "proof.check", start, proof_ns);
        tr.end(span);

        let span = tr.begin(stmt, "cost.plan");
        let physical = match self.stats {
            Some(stats) if self.planner.cost_based => Some(std::sync::Arc::new(plan_output(
                &query,
                stats,
                self.planner,
            ))),
            _ => None,
        };
        tr.end(span);

        let columns = query.output_names();
        let plan = CachedPlan {
            query,
            trace: trace.clone(),
            columns,
            physical,
        };
        let span = tr.begin(stmt, "plancache.insert");
        self.cache
            .insert(fingerprint, &canonical, version, plan.clone());
        tr.end(span);

        let (rows, stats) = self.execute(tr, stmt, &plan)?;
        Ok(Replayed {
            rows,
            stats,
            compiled: Some(trace),
        })
    }

    fn execute(
        &self,
        tr: &mut Tracer,
        stmt: u32,
        plan: &CachedPlan,
    ) -> Result<(Vec<Row>, ExecStats)> {
        let hostvars = HostVars::new();
        let span = tr.begin(stmt, "exec.run");
        let mut executor = Executor::new(self.db, &hostvars, self.exec).with_columns(self.columns);
        let rows = executor.run_output(&plan.query, plan.physical.as_deref());
        tr.end(span);
        let rows = rows?;
        let cards = plan
            .physical
            .as_deref()
            .map(|p| p.card_report(executor.actuals()));
        std::hint::black_box(cards);
        Ok((rows, executor.stats))
    }
}
