//! The one serving path behind [`Session`](crate::Session) and
//! [`SharedEngine`](crate::SharedEngine).
//!
//! parse → canonical fingerprint → plan-cache probe → on a miss, bind +
//! optimize + physical plan + insert → execute. Every cached plan
//! carries a physical plan: the cost-based one when the surface plans
//! physically and has statistics, otherwise the fixed plan of its static
//! [`ExecOptions`]. `EXPLAIN` walks the same path, runs the plan and
//! renders it with each operator's measured rows; `compile` is the
//! uncached bind + optimize step a subscription materializes its view
//! from. The two surfaces differ only in the [`Pipeline`] they build:
//! which database it runs on (the session's own, or a snapshot the
//! engine pinned once for the whole statement) and whether statistics
//! license cost-based planning.

use crate::columnar::ColumnStore;
use crate::exec::{ExecOptions, Executor};
use crate::plancache::{CachedPlan, PlanCache};
use crate::session::QueryOutput;
use crate::stats::StageTimings;
use std::sync::Arc;
use std::time::Instant;
use uniq_catalog::Database;
use uniq_core::optimize_output;
use uniq_core::pipeline::{Optimizer, OptimizerOptions, RewriteTrace};
use uniq_cost::{session_plan, PlannerOptions, Statistics};
use uniq_plan::{bind_output, BoundOutput, BoundQuery, HostVars};
use uniq_sql::{parse_statement, Query, Statement};
use uniq_types::{fnv64, Error, Result};

/// What `ANALYZE` produced: statistics for the cost-based planner, the
/// column store when the planner licenses columnar blocks (built from
/// the same database, so the two stay in step; the executor falls back
/// to rows once it goes stale), and the epoch mixed into plan
/// fingerprints so plans chosen under older statistics are recompiled.
/// The default (epoch 0) is a database that was never analyzed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Analysis {
    pub(crate) stats: Option<Arc<Statistics>>,
    pub(crate) columns: Option<Arc<ColumnStore>>,
    pub(crate) epoch: u64,
}

impl Analysis {
    /// Analyze `db` under `planner` and stamp the result with `epoch`.
    pub(crate) fn collect(db: &Database, planner: PlannerOptions, epoch: u64) -> Analysis {
        Analysis {
            stats: Some(Arc::new(Statistics::collect(db))),
            columns: planner.columnar.then(|| Arc::new(ColumnStore::build(db))),
            epoch,
        }
    }
}

/// One statement's view of a serving surface: the database it runs on
/// plus the configuration and shared state the serving path reads.
pub(crate) struct Pipeline<'a> {
    pub(crate) db: &'a Database,
    pub(crate) cache: &'a PlanCache,
    pub(crate) optimizer: OptimizerOptions,
    pub(crate) exec: ExecOptions,
    pub(crate) planner: PlannerOptions,
    pub(crate) analysis: &'a Analysis,
    /// Plan cost-based whenever `analysis` has statistics; otherwise
    /// the fixed plan of the static [`ExecOptions`] strategies runs.
    pub(crate) cost_based: bool,
}

/// Run `f`, storing its wall-clock time in `slot`.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_nanos() as u64;
    out
}

/// Parse `sql`, which must be a query.
fn parse(sql: &str) -> Result<Query> {
    match parse_statement(sql)? {
        Statement::Query(ast) => Ok(ast),
        _ => Err(Error::internal(
            "expected a query; DDL/DML goes through run_script / execute",
        )),
    }
}

impl Pipeline<'_> {
    /// The tag mixed into plan fingerprints so differently configured
    /// surfaces never share plans: the optimizer knobs, the static
    /// executor strategies (parallel degree and kernel choice included
    /// — a plan compiled at degree 4 embeds per-operator `deg`s a serial
    /// session must not reuse), the planner configuration and the
    /// statistics epoch (re-`ANALYZE` recompiles). All option structs
    /// are small `Copy` types, so their `Debug` form is a faithful,
    /// cheap serialization of every knob.
    fn options_tag(&self) -> u64 {
        let (o, e, p) = (self.optimizer, self.exec, self.planner);
        fnv64(format!("{o:?}|{e:?}|{p:?}|{}", self.analysis.epoch).as_bytes())
    }

    /// Parse, bind, optimize and execute `sql` through the plan cache.
    /// Hits skip binding and the whole rewrite pipeline; host-variable
    /// *values* are applied at execution, so one cached plan serves
    /// every binding of the same text.
    pub(crate) fn query(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        let mut timings = StageTimings::new();
        let (plan, cache_hit, _) = self.prepare(sql, &mut timings)?;
        self.execute(&plan, cache_hit, hostvars, timings)
    }

    /// `EXPLAIN`: the rewrite trace, then the physical plan with every
    /// operator's estimated (`est=?` on a fixed plan) and measured rows.
    /// A miss compiles and caches the plan exactly as a query would.
    /// Returns the rendered text and the canonical query text.
    pub(crate) fn explain(&self, sql: &str) -> Result<(String, String)> {
        let (plan, cache_hit, canonical) = self.prepare(sql, &mut StageTimings::new())?;
        let source = if cache_hit { "cached" } else { "compiled" };
        let fixed;
        let physical = match plan.physical.as_deref() {
            Some(p) => p,
            None => {
                fixed = uniq_cost::fixed_plan(&plan.query, self.exec);
                &fixed
            }
        };
        // EXPLAIN binds no host variables, so a query that needs them
        // cannot run and renders `act=?`.
        let hostvars = HostVars::new();
        let mut executor = self.executor(&hostvars);
        let ran = executor.run_output(&plan.query, Some(physical)).is_ok();
        let actuals = ran.then(|| executor.actuals());
        let text = format!(
            "Plan: {source}\n{}Physical plan:\n{}",
            crate::explain::render_trace(&plan.trace),
            physical.render(1, actuals)
        );
        Ok((text, canonical))
    }

    /// Bind and optimize `sql` with no cache and no cost-based plan, for
    /// a view that is materialized once and then maintained
    /// incrementally. Returns the canonical text and the plan.
    pub(crate) fn compile(&self, sql: &str) -> Result<(String, CachedPlan)> {
        let ast = parse(sql)?;
        let bound = bind_output(self.db.catalog(), &ast)?;
        let plan = self.optimize(&bound, false, &mut StageTimings::new());
        Ok((ast.to_string(), plan))
    }

    /// Optimize and execute an already-bound query (no cache: there is
    /// no query text to key on).
    pub(crate) fn query_bound(
        &self,
        bound: &BoundQuery,
        hostvars: &HostVars,
    ) -> Result<QueryOutput> {
        let mut timings = StageTimings::new();
        let plan = self.optimize(&BoundOutput::plain(bound.clone()), true, &mut timings);
        self.execute(&plan, false, hostvars, timings)
    }

    /// Parse, bind and execute `sql` with no rewriting, under the fixed
    /// plan: the baseline every rewrite is measured against.
    pub(crate) fn query_unoptimized(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        let mut timings = StageTimings::new();
        let ast = timed(&mut timings.parse_ns, || parse(sql))?;
        let query = timed(&mut timings.bind_ns, || {
            bind_output(self.db.catalog(), &ast)
        })?;
        let plan = CachedPlan {
            columns: query.output_names(),
            query,
            trace: RewriteTrace::default(),
            physical: None,
        };
        self.execute(&plan, false, hostvars, timings)
    }

    /// Parse and canonicalize `sql`, then probe the plan cache; on a
    /// miss, compile the plan and insert it. Returns the plan, whether
    /// the cache served it, and the canonical text.
    fn prepare(
        &self,
        sql: &str,
        timings: &mut StageTimings,
    ) -> Result<(Arc<CachedPlan>, bool, String)> {
        let t = Instant::now();
        let ast = parse(sql)?;
        let canonical = ast.to_string();
        timings.parse_ns = t.elapsed().as_nanos() as u64;
        // Hash the canonical text once; the tag mixes in O(1).
        let sql_hash = PlanCache::sql_hash(&canonical);
        let fingerprint = PlanCache::fingerprint_with(sql_hash, self.options_tag());
        let version = self.db.version();
        if let Some(plan) = self.cache.get(fingerprint, &canonical, version) {
            return Ok((plan, true, canonical));
        }
        let bound = timed(&mut timings.bind_ns, || {
            bind_output(self.db.catalog(), &ast)
        })?;
        let plan = self.optimize(&bound, true, timings);
        let plan = self.cache.insert(fingerprint, &canonical, version, plan);
        Ok((plan, false, canonical))
    }

    /// Run the rewrite pipeline over `bound` and plan it physically:
    /// cost-based when `cost_based` is set, this pipeline plans
    /// cost-based and `ANALYZE` has collected statistics; otherwise the
    /// fixed plan of the static strategies.
    fn optimize(
        &self,
        bound: &BoundOutput,
        cost_based: bool,
        timings: &mut StageTimings,
    ) -> CachedPlan {
        timed(&mut timings.optimize_ns, || {
            let (query, trace) = optimize_output(&Optimizer::new(self.optimizer), bound);
            let stats = self.analysis.stats.as_deref();
            let stats = stats.filter(|_| cost_based && self.cost_based);
            let physical = session_plan(&query, stats, self.planner, self.exec);
            CachedPlan {
                columns: query.output_names(),
                physical: Some(Arc::new(physical)),
                query,
                trace,
            }
        })
    }

    fn executor<'h>(&'h self, hostvars: &'h HostVars) -> Executor<'h> {
        Executor::new(self.db, hostvars, self.exec).with_columns(self.analysis.columns.as_deref())
    }

    /// Run `plan` and assemble its output.
    fn execute(
        &self,
        plan: &CachedPlan,
        cache_hit: bool,
        hostvars: &HostVars,
        mut timings: StageTimings,
    ) -> Result<QueryOutput> {
        let mut executor = self.executor(hostvars);
        let physical = plan.physical.as_deref();
        let rows = timed(&mut timings.execute_ns, || {
            executor.run_output(&plan.query, physical)
        })?;
        Ok(QueryOutput {
            columns: plan.columns.clone(),
            rows,
            trace: plan.trace.clone(),
            stats: executor.stats,
            timings,
            cache_hit,
            cards: physical
                .filter(|p| p.estimated())
                .map(|p| p.card_report(executor.actuals())),
        })
    }
}
