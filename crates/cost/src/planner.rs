//! The physical planners: one traversal, two ways of choosing.
//!
//! Both planners walk a bound query the same way and register every
//! operator through one emitter, which formats the labels `EXPLAIN`
//! prints and fills the [`OpInfo`] registry. They differ only in how
//! each node's physical choices are made.
//!
//! **Cost-based** ([`plan_output`], [`plan_query`]). For every query
//! block the planner chooses a join input order (greedy: start from the
//! smallest filtered table, then repeatedly add the table minimizing
//! the estimated intermediate size) and, per pipeline step, a physical
//! method. Costs are expressed in the executor's own counters so the
//! model is falsifiable:
//!
//! * a nested-loop step re-scans its table once per outer partial →
//!   `outer × rows` scans;
//! * a hash step scans its table once to build and probes once per
//!   outer partial → `rows + outer`;
//! * a cross step (no equality keys) materializes the build side once →
//!   `rows` scans;
//! * sort-based duplicate elimination costs `n·log₂n` comparisons,
//!   hash-based costs `n` probes.
//!
//! Two provable caps tighten the estimates: a join whose equality keys
//! cover a candidate key of the incoming table emits at most the outer
//! side (each outer partial matches at most one row), and a block
//! proved duplicate-free by Algorithm 1 / the FD test emits at most the
//! product of its projected columns' active domains
//! ([`Estimator::unique_output_bound`]).
//!
//! **Fixed** ([`fixed_plan`]). Without statistics, a session's static
//! [`ExecOptions`] become a plan: tables join in `FROM` order, every
//! step uses the session's join method, every duplicate elimination and
//! set operation its distinct method, and every top-level operator the
//! session's resolved degree. A fixed plan carries no estimates and no
//! index or columnar licenses; it still marks key-covered hash steps
//! unique, by the same rule the cost-based planner applies.

use crate::estimate::Estimator;
use crate::physical::{
    BlockPlan, Degree, DistinctMethod, DistinctStep, ExecOptions, JoinMethod, JoinStep, OpId,
    OpInfo, OutputOp, PhysNode, PhysicalPlan, UNREGISTERED,
};
use crate::stats::Statistics;
use std::collections::BTreeSet;
use uniq_plan::{AttrRef, BScalar, BoundAggItem, BoundExpr, BoundOutput, BoundQuery, BoundSpec};
use uniq_proof::Justification;
use uniq_sql::{CmpOp, SetOp};

/// Per-morsel dispatch overhead expressed in row-work units: adding a
/// worker to an operator only pays off while every worker still owns at
/// least this much estimated work (thread hand-off, partition vectors
/// and result stitching all cost real time; see DESIGN.md §6).
pub const ROWS_PER_WORKER: f64 = 512.0;

/// Session-level planner configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Use collected statistics to choose per-node physical operators;
    /// when `false`, the fixed plan of the session's static
    /// [`ExecOptions`] runs.
    pub cost_based: bool,
    /// Worker budget for per-operator parallel-degree choices. The
    /// planner never exceeds it and scales each operator down to the
    /// degree its estimated work (already tightened by the
    /// uniqueness-derived cardinality caps) can amortize against
    /// [`ROWS_PER_WORKER`].
    pub degree: Degree,
    /// License blocks for the vectorized columnar executor when every
    /// conjunct and join step is covered by its kernels (see
    /// [`BlockPlan::columnar`]). Off by default: the row executor
    /// remains the oracle every columnar plan is checked against.
    pub columnar: bool,
}

/// Plan a bound (typically optimizer-rewritten) query against collected
/// statistics.
pub fn plan_query(query: &BoundQuery, stats: &Statistics, options: PlannerOptions) -> PhysicalPlan {
    let mut planner = Planner::cost(stats, options, true);
    let (root, _) = planner.node(query);
    planner.finish(root, Vec::new())
}

/// Plan a full (optimizer-rewritten) query — body plus aggregation /
/// `ORDER BY` / `LIMIT` output operators — against collected statistics.
///
/// Output-operator estimates carry the uniqueness-derived hard bounds:
/// an aggregate can emit at most `min(input, Π dom(group col))` groups
/// — and *exactly* its input when the grouping was proof-elided (every
/// row is its own group); a limit emits at most `k`. When the `ORDER
/// BY` columns are an ascending prefix of an ordered index on a plain
/// single-table block, the sort is dropped entirely and the limit
/// carries an early-stop license: the executor walks the index in order
/// and stops after `k` emitted rows.
pub fn plan_output(
    output: &BoundOutput,
    stats: &Statistics,
    options: PlannerOptions,
) -> PhysicalPlan {
    Planner::cost(stats, options, true).output(output)
}

/// The plan a session runs for `output`: cost-based against `stats`
/// when the session has them, otherwise the fixed plan of `exec`'s
/// static strategies. Either way `exec.early_stop` decides whether an
/// ordered index may serve `ORDER BY … LIMIT k` with an early stop.
pub fn session_plan(
    output: &BoundOutput,
    stats: Option<&Statistics>,
    options: PlannerOptions,
    exec: ExecOptions,
) -> PhysicalPlan {
    match stats {
        Some(stats) => Planner::cost(stats, options, exec.early_stop).output(output),
        None => fixed_plan(output, exec),
    }
}

/// The fixed plan of `exec`'s static strategies for `output`, with every
/// operator registered and labelled for `EXPLAIN` and actuals.
pub fn fixed_plan(output: &BoundOutput, exec: ExecOptions) -> PhysicalPlan {
    Planner::fixed(exec, true).output(output)
}

/// [`fixed_plan`] without a registry: every operator id is
/// [`UNREGISTERED`] and no label is formatted. This is what an executor
/// runs when it is handed no plan.
pub fn fixed_plan_unregistered(output: &BoundOutput, exec: ExecOptions) -> PhysicalPlan {
    Planner::fixed(exec, false).output(output)
}

/// The unregistered fixed plan of one query node: what the executor
/// falls back to when a cached plan no longer mirrors the query's shape.
pub fn fixed_node(query: &BoundQuery, exec: ExecOptions) -> PhysNode {
    Planner::fixed(exec, false).node(query).0
}

/// The unregistered fixed plan of one block, built per evaluation for an
/// `IN` subquery (subqueries stay outside the operator registry).
pub fn fixed_block(spec: &BoundSpec, exec: ExecOptions) -> BlockPlan {
    Planner::fixed(exec, false).block(spec).0
}

/// License the `ORDER BY key-prefix LIMIT k` early stop: the output is
/// a plain (no aggregate, `SELECT ALL`) single-table block, every
/// `ORDER BY` column is ascending, and the ordered columns form a
/// prefix of an ordered (B-tree) index's column list — walking that
/// index in canonical order (`NULL`s first, matching the engine's total
/// order) yields rows already sorted, so the scan may stop as soon as
/// `k` rows pass the residual filter.
///
/// Public because the license is re-derived: the executor calls this
/// again at run time against the (possibly newer) bound schema and only
/// takes the early-stop path when the re-derivation still names the
/// planned index — a cached plan can outlive an index drop.
pub fn early_stop_license(output: &BoundOutput) -> Option<Justification> {
    output.limit?;
    if output.agg.is_some() || output.order_by.is_empty() {
        return None;
    }
    let spec = output.body.as_spec()?;
    if spec.distinct != uniq_sql::Distinct::All || spec.from.len() != 1 {
        return None;
    }
    if output.order_by.iter().any(|(_, desc)| *desc) {
        return None;
    }
    let table = &spec.from[0];
    let range = table.attr_range();
    let mut cols = Vec::new();
    for (p, _) in &output.order_by {
        let attr = spec.projection.get(*p)?.attr;
        if !range.contains(&attr) {
            return None;
        }
        cols.push(attr - range.start);
    }
    table.schema.indexes.iter().find_map(|def| {
        (def.ordered && def.columns.len() >= cols.len() && def.columns[..cols.len()] == cols[..])
            .then(|| {
                let desc: Vec<&str> = cols
                    .iter()
                    .map(|&c| table.schema.columns[c].name.as_str())
                    .collect();
                Justification::ix_scan(&def.name, def.unique, desc.join(","))
            })
    })
}

/// Assign each top-level conjunct of `spec`'s predicate to the earliest
/// position of `order` at which every `FROM` table it references is
/// bound — references made from inside nested subqueries included,
/// since those see the block's attributes as correlated outers. The
/// executor evaluates each conjunct at its position; a conjunct that
/// references no table lands at position 0.
pub fn conjunct_levels<'s>(spec: &'s BoundSpec, order: &[usize]) -> Vec<Vec<&'s BoundExpr>> {
    let mut pos = vec![0usize; spec.from.len()];
    for (k, &t) in order.iter().enumerate() {
        pos[t] = k;
    }
    let mut levels: Vec<Vec<&BoundExpr>> = vec![Vec::new(); spec.from.len()];
    for c in spec.predicate.iter().flat_map(|p| p.conjuncts()) {
        let mut level = 0usize;
        visit_attrs(c, 0, &mut |depth, a| {
            if a.up == depth {
                if let Some(t) = table_of(spec, a.idx) {
                    level = level.max(pos[t]);
                }
            }
        });
        levels[level].push(c);
    }
    levels
}

/// How a plan's physical choices are made.
enum Chooser<'a> {
    /// Per node, from estimated costs in executor work units.
    Cost { est: Estimator<'a>, columnar: bool },
    /// One join and one distinct method everywhere, tables in `FROM`
    /// order.
    Fixed {
        join: JoinMethod,
        distinct: DistinctMethod,
    },
}

/// One join step as chosen, before it is registered.
struct StepChoice {
    method: JoinMethod,
    /// The step has equality keys (a hash step without them is a cross
    /// join).
    keyed: bool,
    unique: bool,
    ix: Option<Justification>,
    deg: usize,
    est: f64,
}

/// One block as chosen, before its operators are registered.
struct BlockChoice {
    order: Vec<usize>,
    scan_est: f64,
    scan_deg: usize,
    ixscan: Option<Justification>,
    columnar: bool,
    joins: Vec<StepChoice>,
    project_est: f64,
    /// Method, estimate and degree of the duplicate elimination.
    distinct: Option<(DistinctMethod, f64, usize)>,
}

struct Planner<'a> {
    chooser: Chooser<'a>,
    /// Worker budget (the degree of every fixed-plan operator).
    max_deg: usize,
    /// Whether an ordered index may serve `ORDER BY … LIMIT k`.
    early_stop: bool,
    /// The operator registry; `None` registers nothing.
    ops: Option<Vec<OpInfo>>,
}

impl<'a> Planner<'a> {
    fn cost(stats: &'a Statistics, options: PlannerOptions, early_stop: bool) -> Planner<'a> {
        Planner {
            chooser: Chooser::Cost {
                est: Estimator::new(stats),
                columnar: options.columnar,
            },
            max_deg: options.degree.resolve(),
            early_stop,
            ops: Some(Vec::new()),
        }
    }

    fn fixed(exec: ExecOptions, registered: bool) -> Planner<'a> {
        Planner {
            chooser: Chooser::Fixed {
                join: exec.join,
                distinct: exec.distinct,
            },
            max_deg: exec.degree.resolve(),
            early_stop: exec.early_stop,
            ops: registered.then(Vec::new),
        }
    }

    fn finish(&mut self, root: PhysNode, output: Vec<OutputOp>) -> PhysicalPlan {
        PhysicalPlan {
            root,
            output,
            ops: self.ops.take().unwrap_or_default(),
        }
    }

    /// Register one operator — the one labeller both planners share.
    /// The label is formatted only when there is a registry to keep it.
    fn op(&mut self, label: impl FnOnce() -> String, est: f64, deg: usize) -> OpId {
        let estimated = matches!(self.chooser, Chooser::Cost { .. });
        let Some(ops) = &mut self.ops else {
            return UNREGISTERED;
        };
        ops.push(OpInfo {
            label: label(),
            est: estimated.then(|| est.min(u64::MAX as f64).ceil() as u64),
            deg,
        });
        ops.len() - 1
    }

    /// Workers for an operator expected to perform `work` row-units.
    /// Cost-based: one per [`ROWS_PER_WORKER`] of estimated work,
    /// clamped to the session budget. Estimates already carry the
    /// uniqueness-derived caps, so a key-covered join or duplicate-free
    /// block is never over-parallelized on the strength of a loose
    /// guess. Fixed: the whole budget.
    fn op_degree(&self, work: f64) -> usize {
        match self.chooser {
            Chooser::Fixed { .. } => self.max_deg,
            Chooser::Cost { .. } if self.max_deg <= 1 => 1,
            Chooser::Cost { .. } => ((work / ROWS_PER_WORKER) as usize).clamp(1, self.max_deg),
        }
    }

    /// Duplicate elimination over about `n` rows. Hash counting costs
    /// `n` probes; sort-merge costs about `n·log₂n` comparisons — hash
    /// wins beyond tiny inputs.
    fn distinct_method(&self, n: f64) -> DistinctMethod {
        match self.chooser {
            Chooser::Fixed { distinct, .. } => distinct,
            Chooser::Cost { .. } if sort_cost(n) <= n => DistinctMethod::Sort,
            Chooser::Cost { .. } => DistinctMethod::Hash,
        }
    }

    fn output(&mut self, output: &BoundOutput) -> PhysicalPlan {
        let (root, body_est) = self.node(&output.body);
        let mut est = body_est;
        let mut out_ops: Vec<OutputOp> = Vec::new();

        if let Some(agg) = &output.agg {
            // Group-count hard bound: the distinct group tuples cannot
            // exceed the product of the grouping columns' active domains.
            // A proof-elided grouping emits exactly its input; an empty
            // group set produces the one global group even on empty input.
            est = match &self.chooser {
                Chooser::Fixed { .. } => 0.0,
                _ if agg.group_count == 0 => 1.0,
                _ if agg.group_elided => body_est,
                Chooser::Cost { est: e, .. } => {
                    let dom = output
                        .body
                        .as_spec()
                        .map(|spec| {
                            (0..agg.group_count)
                                .map(|p| e.attr_domain(spec, spec.projection[p].attr))
                                .product::<f64>()
                        })
                        .unwrap_or(f64::INFINITY);
                    body_est.min(dom)
                }
            };
            // The aggregate touches every input row once, elided or not —
            // that work amortizes the parallel partial-aggregate pass.
            let deg = self.op_degree(body_est);
            let id = self.op(
                || {
                    let cols: Vec<String> = agg
                        .items
                        .iter()
                        .map(|item| agg_item_label(output, item))
                        .collect();
                    format!("Aggregate [{}]", cols.join(", "))
                },
                est,
                deg,
            );
            out_ops.push(OutputOp::Agg {
                id,
                deg,
                group_elided: agg.group_elided,
                count_distinct_elided: agg.count_distinct_elided,
            });
        }

        let early_stop = self
            .early_stop
            .then(|| early_stop_license(output))
            .flatten();
        if !output.order_by.is_empty() && early_stop.is_none() {
            let id = self.op(
                || {
                    let names = output.output_names();
                    let cols: Vec<String> = output
                        .order_by
                        .iter()
                        .map(|(p, desc)| {
                            format!("{}{}", names[*p], if *desc { " DESC" } else { "" })
                        })
                        .collect();
                    format!("Sort [{}]", cols.join(", "))
                },
                est,
                1,
            );
            out_ops.push(OutputOp::Sort { id });
        }

        if let Some(k) = output.limit {
            est = est.min(k as f64);
            let id = self.op(|| format!("Limit {k}"), est, 1);
            out_ops.push(OutputOp::Limit { id, early_stop });
        }

        self.finish(root, out_ops)
    }

    fn node(&mut self, query: &BoundQuery) -> (PhysNode, f64) {
        match query {
            BoundQuery::Spec(spec) => {
                let (block, est) = self.block(spec);
                (PhysNode::Block(block), est)
            }
            BoundQuery::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (l, l_est) = self.node(left);
                let (r, r_est) = self.node(right);
                let mut est = match op {
                    SetOp::Union => l_est + r_est,
                    // INTERSECT [ALL] emits min(j,k) copies per tuple.
                    SetOp::Intersect => l_est.min(r_est),
                    // EXCEPT [ALL] emits at most the left input.
                    SetOp::Except => l_est,
                };
                // UNION-aware hard cap: a distinct set operation can
                // never emit more than its merged output domains admit,
                // whatever the operand estimates say.
                if let Chooser::Cost { est: e, .. } = &self.chooser {
                    if let Some(bound) = e.query_hard_bound(query) {
                        est = est.min(bound);
                    }
                }
                let concat = *op == SetOp::Union && *all;
                let n = l_est + r_est;
                let method = if concat {
                    DistinctMethod::Sort
                } else {
                    self.distinct_method(n)
                };
                // UNION ALL concatenates — no counting pass to fan out.
                let deg = if concat { 1 } else { self.op_degree(n) };
                let id = self.op(
                    || {
                        let name = match op {
                            SetOp::Intersect => "Intersect",
                            SetOp::Except => "Except",
                            SetOp::Union => "Union",
                        };
                        let strategy = match (concat, method) {
                            (true, _) => "concat",
                            (false, DistinctMethod::Sort) => "sort-merge",
                            (false, DistinctMethod::Hash) => "hash-count",
                        };
                        format!("{name}{} [{strategy}]", if *all { "All" } else { "" })
                    },
                    est,
                    deg,
                );
                (
                    PhysNode::SetOp {
                        method,
                        id,
                        deg,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    est,
                )
            }
        }
    }

    fn block(&mut self, spec: &BoundSpec) -> (BlockPlan, f64) {
        let (choice, est) = match &self.chooser {
            Chooser::Cost { est, columnar } => self.cost_block(est, *columnar, spec),
            Chooser::Fixed { join, .. } => (self.fixed_block(spec, *join), 0.0),
        };
        (self.emit_block(spec, choice), est)
    }

    /// Register a chosen block's operators: join steps in order, then
    /// the scan, the projection and the duplicate elimination. A step
    /// (or the scan) that evaluates a surviving subquery conjunct names
    /// its kind in its label.
    fn emit_block(&mut self, spec: &BoundSpec, c: BlockChoice) -> BlockPlan {
        let marks: Vec<String> = if self.ops.is_some() {
            conjunct_levels(spec, &c.order)
                .iter()
                .map(|level| subquery_marker(level))
                .collect()
        } else {
            Vec::new()
        };
        let mark = |k: usize| marks.get(k).map_or("", String::as_str);
        let mut joins = Vec::with_capacity(c.joins.len());
        for (k, step) in c.joins.into_iter().enumerate() {
            let table = &spec.from[c.order[k + 1]];
            let kind = match (&step.ix, step.method, step.keyed) {
                (Some(_), _, _) => "IxJoin",
                (None, JoinMethod::NestedLoop, _) => "NestedLoop",
                (None, JoinMethod::Hash, true) => "HashJoin",
                (None, JoinMethod::Hash, false) => "CrossJoin",
            };
            let id = self.op(
                || {
                    format!(
                        "{kind} with Scan {} AS {}{}",
                        table.schema.name,
                        table.binding,
                        mark(k + 1)
                    )
                },
                step.est,
                step.deg,
            );
            joins.push(JoinStep {
                method: step.method,
                id,
                deg: step.deg,
                unique: step.unique,
                ix: step.ix,
            });
        }
        let t0 = &spec.from[c.order[0]];
        let scan = self.op(
            || {
                // Columnar scans over a table with string columns read
                // dictionary codes, not the strings themselves.
                let dict = c.columnar
                    && t0
                        .schema
                        .columns
                        .iter()
                        .any(|col| col.data_type == uniq_types::DataType::Str);
                let enc = if dict { " enc=dict" } else { "" };
                format!("Scan {} AS {}{enc}{}", t0.schema.name, t0.binding, mark(0))
            },
            c.scan_est,
            c.scan_deg,
        );
        let project = self.op(
            || {
                let cols: Vec<String> = spec
                    .projection
                    .iter()
                    .map(|p| spec.attr_name(p.attr))
                    .collect();
                format!("Project [{}]", cols.join(", "))
            },
            c.project_est,
            1,
        );
        let distinct = c.distinct.map(|(method, est, deg)| {
            let label = match method {
                DistinctMethod::Sort => "SortDistinct",
                DistinctMethod::Hash => "HashDistinct",
            };
            DistinctStep {
                method,
                id: self.op(|| label.to_string(), est, deg),
                deg,
            }
        });
        BlockPlan {
            order: c.order,
            scan,
            scan_deg: c.scan_deg,
            joins,
            project,
            distinct,
            columnar: c.columnar,
            ixscan: c.ixscan,
        }
    }

    /// The fixed block: `FROM` order, `join` at every step.
    fn fixed_block(&self, spec: &BoundSpec, join: JoinMethod) -> BlockChoice {
        let order: Vec<usize> = (0..spec.from.len()).collect();
        let levels = conjunct_levels(spec, &order);
        let joins = (1..spec.from.len())
            .map(|t| {
                let start = spec.from[t].attr_range().start;
                let (keyed, covered) = step_keys(spec, t, &levels[t], |idx| idx < start);
                StepChoice {
                    method: join,
                    keyed,
                    unique: covered && join == JoinMethod::Hash,
                    ix: None,
                    deg: self.max_deg,
                    est: 0.0,
                }
            })
            .collect();
        BlockChoice {
            order,
            scan_est: 0.0,
            scan_deg: self.max_deg,
            ixscan: None,
            columnar: false,
            joins,
            project_est: 0.0,
            distinct: (spec.distinct == uniq_sql::Distinct::Distinct)
                .then(|| (self.distinct_method(0.0), 0.0, self.max_deg)),
        }
    }

    /// The cost-based block choice, with the block's estimated output.
    fn cost_block(&self, e: &Estimator, columnar: bool, spec: &BoundSpec) -> (BlockChoice, f64) {
        let n = spec.from.len();
        let conjuncts: Vec<&BoundExpr> = spec
            .predicate
            .as_ref()
            .map(|p| p.conjuncts())
            .unwrap_or_default();
        let owners: Vec<BTreeSet<usize>> =
            conjuncts.iter().map(|c| owner_tables(spec, c)).collect();
        let raw: Vec<f64> = spec
            .from
            .iter()
            .map(|t| e.table_rows(&t.schema.name))
            .collect();
        let filtered = |t: usize| filtered_rows(e, spec, t, &conjuncts, &owners, raw[t]);

        // Greedy join ordering: start from the smallest filtered table.
        let first = (0..n)
            .min_by(|&a, &b| filtered(a).total_cmp(&filtered(b)))
            .expect("block with empty FROM clause");
        let mut order = vec![first];
        let mut placed: BTreeSet<usize> = BTreeSet::from([first]);
        let mut applied = vec![false; conjuncts.len()];
        let mut cur = filtered(first);
        for (i, o) in owners.iter().enumerate() {
            if o.iter().all(|t| placed.contains(t)) {
                applied[i] = true;
            }
        }

        // Columnar coverage: every conjunct must compile to a code-range
        // or code-equality kernel, and every join step chosen below must
        // be a keyed hash join (the columnar executor has no nested-loop
        // or cross kernel). Tracked alongside the greedy loop so the
        // verdict reflects the order actually chosen.
        let mut columnar = columnar && conjuncts.iter().all(|c| columnar_conjunct(spec, c));

        let mut joins: Vec<StepChoice> = Vec::new();
        while placed.len() < n {
            // Choose the table minimizing the estimated step output.
            let (next, step_est, has_keys, covered) = (0..n)
                .filter(|t| !placed.contains(t))
                .map(|t| {
                    let step = step_conjuncts(&conjuncts, &owners, &applied, &placed, t);
                    let (est, keys, covered) =
                        step_estimate(e, spec, t, &placed, &step, cur, raw[t]);
                    (t, est, keys, covered)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("unplaced table exists");

            // Method choice in executor work units.
            let nl_cost = cur * raw[next];
            let hash_cost = if has_keys {
                raw[next] + cur
            } else {
                // Cross step: build side scanned once, no probes.
                raw[next]
            };
            // Prefer hash unless nested loops are cheaper by a clear
            // margin (2×) — under-estimated outer cardinalities make
            // nested loops catastrophically wrong, hash merely slower.
            let method = if 2.0 * nl_cost <= hash_cost {
                JoinMethod::NestedLoop
            } else {
                JoinMethod::Hash
            };
            // Index-nested-loop probe: one index probe per outer partial
            // plus the emitted rows, no build pass at all. Preferred
            // over a hash join whenever the build cost dominates (the
            // probed table never gets scanned), and promoted to a
            // guaranteed one-row lookup when the index is unique.
            let step = step_conjuncts(&conjuncts, &owners, &applied, &placed, next);
            let probe = crate::sarg::find_index_probe(spec, next, &step, &|idx| {
                table_of(spec, idx).is_some_and(|t| placed.contains(&t))
            });
            let mut step_est = step_est;
            if probe.as_ref().is_some_and(|p| p.unique) {
                // Each probe of a unique index matches at most one row.
                step_est = step_est.min(cur);
            }
            let ix_cost = cur + step_est;
            let use_ix = probe.is_some() && ix_cost < hash_cost && ix_cost < nl_cost;
            // Degree amortized against the step's own work estimate;
            // index probes run serially (each probe is a point lookup —
            // there is no build side to partition).
            let deg = if use_ix {
                1
            } else {
                self.op_degree(match method {
                    JoinMethod::NestedLoop => nl_cost,
                    JoinMethod::Hash => hash_cost,
                })
            };
            let ix = probe
                .filter(|_| use_ix)
                .map(|p| Justification::ix_join(&p.index, p.unique));
            joins.push(StepChoice {
                method,
                keyed: has_keys,
                unique: covered && method == JoinMethod::Hash,
                ix,
                deg,
                est: step_est,
            });
            columnar = columnar && !use_ix && has_keys && method == JoinMethod::Hash;
            placed.insert(next);
            order.push(next);
            cur = step_est;
            for (i, o) in owners.iter().enumerate() {
                if !applied[i] && o.iter().all(|t| placed.contains(t)) {
                    applied[i] = true;
                }
            }
        }

        // Uniqueness-derived hard cap on the block output.
        let mut out_est = cur;
        if let Some(bound) = e.unique_output_bound(spec) {
            out_est = out_est.min(bound);
        }

        let mut scan_est = filtered(order[0]);
        // Sargable index on the first table: serve the scan by a point
        // probe / range scan instead of reading every row. A unique
        // fully-bound probe returns at most one row — a hard bound the
        // estimate adopts — and any index access is licensed only when
        // it beats the full scan's work.
        let scan_conjuncts: Vec<&BoundExpr> = conjuncts
            .iter()
            .zip(&owners)
            .filter(|(_, o)| o.iter().all(|&x| x == order[0]))
            .map(|(c, _)| *c)
            .collect();
        let mut ixscan = None;
        if let Some(s) = crate::sarg::find_index_sarg(spec, order[0], &scan_conjuncts) {
            if s.unique {
                scan_est = scan_est.min(1.0);
            }
            if scan_est + 1.0 < raw[order[0]] {
                ixscan = Some(Justification::ix_scan(&s.index, s.unique, &s.desc));
            }
        }
        // Index scans are point lookups — nothing to morselize — and
        // the columnar kernels read full column vectors, so an index
        // block stays on the serial row path.
        columnar = columnar && ixscan.is_none();
        // A scan's work is the raw table, whatever the filter keeps.
        let scan_deg = if ixscan.is_some() {
            1
        } else {
            self.op_degree(raw[order[0]])
        };

        // Distinct output can never exceed the projected domains.
        let distinct = (spec.distinct == uniq_sql::Distinct::Distinct).then(|| {
            let d_est = out_est.min(e.projection_domain(spec));
            (
                self.distinct_method(out_est),
                d_est,
                self.op_degree(out_est),
            )
        });
        // The block emits what its registered distinct estimate says.
        let final_est = distinct
            .map(|(_, d_est, _)| (d_est.min(u64::MAX as f64).ceil() as u64) as f64)
            .unwrap_or(out_est);
        (
            BlockChoice {
                order,
                scan_est,
                scan_deg,
                ixscan,
                columnar,
                joins,
                project_est: out_est,
                distinct,
            },
            final_est,
        )
    }
}

/// Display label of one aggregate output item, e.g. `SNO`,
/// `COUNT(DISTINCT S.SNO)`, `SUM(P.WEIGHT)`, `COUNT(*)`.
fn agg_item_label(output: &BoundOutput, item: &BoundAggItem) -> String {
    match item {
        BoundAggItem::Group { name, .. } => name.to_string(),
        BoundAggItem::Agg {
            func,
            distinct,
            arg,
            ..
        } => {
            let arg_s = match (arg, output.body.as_spec()) {
                (Some(p), Some(spec)) => spec.attr_name(spec.projection[*p].attr),
                (None, _) => "*".into(),
                (Some(_), None) => "?".into(),
            };
            format!(
                "{}({}{arg_s})",
                func.name(),
                if *distinct { "DISTINCT " } else { "" }
            )
        }
    }
}

/// ` subquery(EXISTS, NOT IN)`: the kinds of the subqueries a pipeline
/// position evaluates, or nothing when it evaluates none.
fn subquery_marker(conjuncts: &[&BoundExpr]) -> String {
    fn kinds(e: &BoundExpr, out: &mut Vec<&'static str>) {
        match e {
            BoundExpr::Exists { negated, .. } => {
                out.push(if *negated { "NOT EXISTS" } else { "EXISTS" })
            }
            BoundExpr::InSubquery { negated, .. } => {
                out.push(if *negated { "NOT IN" } else { "IN" })
            }
            BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
                kinds(a, out);
                kinds(b, out);
            }
            BoundExpr::Not(a) => kinds(a, out),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for c in conjuncts {
        kinds(c, &mut out);
    }
    if out.is_empty() {
        String::new()
    } else {
        format!(" subquery({})", out.join(", "))
    }
}

/// Estimated rows of table `t` after its table-local conjuncts.
fn filtered_rows(
    e: &Estimator,
    spec: &BoundSpec,
    t: usize,
    conjuncts: &[&BoundExpr],
    owners: &[BTreeSet<usize>],
    raw: f64,
) -> f64 {
    let sel: f64 = conjuncts
        .iter()
        .zip(owners)
        .filter(|(_, o)| o.iter().all(|&x| x == t))
        .map(|(c, _)| e.selectivity(spec, c))
        .product();
    raw * sel
}

/// The not-yet-applied conjuncts that become applicable when table `t`
/// joins the `placed` prefix.
fn step_conjuncts<'e>(
    conjuncts: &[&'e BoundExpr],
    owners: &[BTreeSet<usize>],
    applied: &[bool],
    placed: &BTreeSet<usize>,
    t: usize,
) -> Vec<&'e BoundExpr> {
    conjuncts
        .iter()
        .zip(owners)
        .zip(applied)
        .filter(|((_, o), done)| !**done && o.iter().all(|x| placed.contains(x) || *x == t))
        .map(|((c, _), _)| *c)
        .collect()
}

/// Estimated output of joining `t` onto the current prefix through the
/// step's conjuncts, plus whether they carry equality keys usable by a
/// hash join and whether those keys cover a candidate key of `t`
/// (licensing the unique-key kernel and the outer-side cardinality
/// cap).
fn step_estimate(
    e: &Estimator,
    spec: &BoundSpec,
    t: usize,
    placed: &BTreeSet<usize>,
    step: &[&BoundExpr],
    cur: f64,
    raw: f64,
) -> (f64, bool, bool) {
    let mut est = cur * raw;
    for c in step {
        est *= e.selectivity(spec, c);
    }
    let (keyed, covered) = step_keys(spec, t, step, |idx| {
        placed.contains(&table_of(spec, idx).unwrap_or(usize::MAX))
    });
    // Key coverage: each outer partial matches at most one row of a
    // table whose candidate key the join keys cover.
    if covered {
        est = est.min(cur);
    }
    (est, keyed, covered)
}

/// Whether a join step's conjuncts carry equality keys from
/// already-placed attributes (per `is_placed`) into table `t`, and
/// whether those keys cover a candidate key of `t` — each outer partial
/// then matches at most one row.
fn step_keys(
    spec: &BoundSpec,
    t: usize,
    step: &[&BoundExpr],
    is_placed: impl Fn(usize) -> bool,
) -> (bool, bool) {
    let range = spec.from[t].attr_range();
    let key_columns: BTreeSet<usize> = step
        .iter()
        .filter_map(|c| equi_join_key(c, &range, &is_placed))
        .map(|(_, new)| new - range.start)
        .collect();
    let covered = spec.from[t]
        .schema
        .candidate_keys()
        .any(|k| k.columns.iter().all(|c| key_columns.contains(c)));
    (!key_columns.is_empty(), covered)
}

/// `n·log₂n` — the comparison cost of sorting `n` rows.
fn sort_cost(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else {
        n * n.log2()
    }
}

/// The `FROM` position owning product attribute `idx`.
fn table_of(spec: &BoundSpec, idx: usize) -> Option<usize> {
    spec.from.iter().position(|t| t.attr_range().contains(&idx))
}

/// The set of `FROM` positions a conjunct references at its own block
/// level, including references made from inside nested subqueries
/// (which see the block's attributes as correlated outers).
fn owner_tables(spec: &BoundSpec, conjunct: &BoundExpr) -> BTreeSet<usize> {
    let mut owners = BTreeSet::new();
    visit_attrs(conjunct, 0, &mut |depth, a: &AttrRef| {
        if a.up == depth {
            if let Some(t) = table_of(spec, a.idx) {
                owners.insert(t);
            }
        }
    });
    owners
}

/// Is this conjunct `built_attr = new_attr` (either direction) linking an
/// already-bound attribute (per `is_placed`) to the table occupying
/// `range`? Returns the `(built attr, new attr)` pair: the planners read
/// join keys with it, the row and columnar executors and the view
/// maintainer resolve them.
pub fn equi_join_key(
    c: &BoundExpr,
    range: &std::ops::Range<usize>,
    is_placed: &dyn Fn(usize) -> bool,
) -> Option<(usize, usize)> {
    let BoundExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let (a, b) = match (left, right) {
        (BScalar::Attr(a), BScalar::Attr(b)) if a.is_local() && b.is_local() => (a.idx, b.idx),
        _ => return None,
    };
    match (range.contains(&a), range.contains(&b)) {
        (false, true) if is_placed(a) => Some((a, b)),
        (true, false) if is_placed(b) => Some((b, a)),
        _ => None,
    }
}

/// Whether a conjunct is covered by the columnar kernels: a comparison
/// between a local attribute and a type-matching literal (any operator —
/// sorted dictionaries make every comparison a code-range test, and a
/// `NULL` literal compiles to the empty range), or a local equality
/// between attributes of two different tables (a hash/direct-index join
/// key). Everything else — `OR`, `BETWEEN`, `IN`, subqueries,
/// same-table column comparisons — runs on the row executor.
fn columnar_conjunct(spec: &BoundSpec, c: &BoundExpr) -> bool {
    let BoundExpr::Cmp { op, left, right } = c else {
        return false;
    };
    match (left, right) {
        (BScalar::Attr(a), BScalar::Attr(b)) if a.is_local() && b.is_local() => {
            let (ta, tb) = (table_of(spec, a.idx), table_of(spec, b.idx));
            *op == CmpOp::Eq && ta.is_some() && tb.is_some() && ta != tb
        }
        (BScalar::Attr(a), BScalar::Literal(v)) | (BScalar::Literal(v), BScalar::Attr(a))
            if a.is_local() =>
        {
            let Some(t) = table_of(spec, a.idx) else {
                return false;
            };
            let col = a.idx - spec.from[t].attr_range().start;
            let dt = spec.from[t].schema.columns[col].data_type;
            match v.data_type() {
                None => true, // NULL literal: compiles to the empty range.
                Some(lit) => {
                    lit == dt && matches!(dt, uniq_types::DataType::Int | uniq_types::DataType::Str)
                }
            }
        }
        _ => false,
    }
}

/// Visit every attribute reference with its subquery depth (0 for the
/// conjunct's own block, one more per enclosing subquery).
pub fn visit_attrs(e: &BoundExpr, depth: usize, f: &mut impl FnMut(usize, &AttrRef)) {
    let scalar = |s: &BScalar, f: &mut dyn FnMut(usize, &AttrRef)| {
        if let BScalar::Attr(a) = s {
            f(depth, a);
        }
    };
    match e {
        BoundExpr::Cmp { left, right, .. } => {
            scalar(left, f);
            scalar(right, f);
        }
        BoundExpr::Between {
            scalar: s,
            low,
            high,
            ..
        } => {
            scalar(s, f);
            scalar(low, f);
            scalar(high, f);
        }
        BoundExpr::InList {
            scalar: s, list, ..
        } => {
            scalar(s, f);
            for item in list {
                scalar(item, f);
            }
        }
        BoundExpr::IsNull { scalar: s, .. } => scalar(s, f),
        BoundExpr::Exists { subquery, .. } => {
            if let Some(p) = &subquery.predicate {
                visit_attrs(p, depth + 1, f);
            }
        }
        BoundExpr::InSubquery {
            scalar: s,
            subquery,
            ..
        } => {
            scalar(s, f);
            if let Some(p) = &subquery.predicate {
                visit_attrs(p, depth + 1, f);
            }
        }
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
            visit_attrs(a, depth, f);
            visit_attrs(b, depth, f);
        }
        BoundExpr::Not(a) => visit_attrs(a, depth, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn plan(sql: &str) -> (PhysicalPlan, BoundQuery) {
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        (plan_query(&q, &stats, PlannerOptions::default()), q)
    }

    fn block(p: &PhysicalPlan) -> &BlockPlan {
        match &p.root {
            PhysNode::Block(b) => b,
            PhysNode::SetOp { .. } => panic!("expected block"),
        }
    }

    #[test]
    fn filtered_table_is_scanned_first() {
        // PARTS filtered by COLOR='RED' (7 × 1/3 ≈ 2.3) is smaller than
        // SUPPLIER (5): the planner reorders the join to scan PARTS
        // first even though it is written second.
        let (p, _) = plan(
            "SELECT S.SNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        assert_eq!(b.order, vec![1, 0], "PARTS first, then SUPPLIER");
        assert_eq!(b.joins.len(), 1);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert!(p.ops[b.joins[0].id]
            .label
            .contains("HashJoin with Scan SUPPLIER"));
    }

    #[test]
    fn key_covered_join_capped_by_outer_side() {
        // Joining PARTS onto SUPPLIER by SUPPLIER's primary key: each
        // part matches at most one supplier, so the join estimate is
        // capped at the PARTS side.
        let (p, _) = plan(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        let join_est = p.ops[b.joins[0].id].est;
        let scan_est = p.ops[b.scan].est;
        assert!(
            join_est <= scan_est,
            "join est {join_est:?} must not exceed outer est {scan_est:?}"
        );
    }

    #[test]
    fn unique_block_output_capped_by_domain_product() {
        // Projecting the SUPPLIER key → provably unique → est capped by
        // the key's domain (5 suppliers), and exact here.
        let (p, _) = plan("SELECT DISTINCT S.SNO FROM SUPPLIER S");
        let b = block(&p);
        assert_eq!(p.ops[b.project].est, Some(5));
        let d = b.distinct.unwrap();
        assert_eq!(p.ops[d.id].est, Some(5));
    }

    #[test]
    fn cross_join_labelled_and_hash_materialized() {
        let (p, _) = plan("SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A");
        let b = block(&p);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert!(
            p.ops[b.joins[0].id].label.contains("CrossJoin"),
            "{:?}",
            p.ops
        );
        assert_eq!(p.ops[b.joins[0].id].est, Some(25));
    }

    #[test]
    fn distinct_method_scales_with_estimate() {
        // 5×5 cross product of 25 rows: hashing (25 probes) beats
        // sorting (25·log₂25 ≈ 116 comparisons).
        let (p, _) = plan("SELECT DISTINCT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A");
        let b = block(&p);
        assert_eq!(b.distinct.unwrap().method, DistinctMethod::Hash);
        // A tiny single-table block keeps the sort default.
        let (p2, _) = plan("SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 3");
        let b2 = block(&p2);
        assert_eq!(b2.distinct.unwrap().method, DistinctMethod::Sort);
    }

    #[test]
    fn setop_nodes_get_method_and_estimate() {
        let (p, _) = plan("SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A");
        let PhysNode::SetOp { method, id, .. } = &p.root else {
            panic!("expected setop root");
        };
        assert_eq!(*method, DistinctMethod::Hash);
        assert!(p.ops[*id].label.contains("Intersect [hash-count]"));
        // INTERSECT emits at most the smaller side (5 rows each way),
        // tightened by the hard domain cap: a distinct intersection over
        // SNO can emit at most min(dom) = 4 distinct values.
        assert_eq!(p.ops[*id].est, Some(4));
    }

    #[test]
    fn union_estimate_is_capped_by_the_merged_domains() {
        // Operand estimates sum to 10 (5 suppliers + 5 agents), but a
        // distinct UNION over the city columns can emit at most
        // dom(SCITY) + dom(ACITY) = 3 + 4 = 7 rows — the Chen–Schneider
        // hard bound is strictly tighter than the additive estimate.
        let (p, _) = plan("SELECT S.SCITY FROM SUPPLIER S UNION SELECT A.ACITY FROM AGENTS A");
        let PhysNode::SetOp { id, .. } = &p.root else {
            panic!("expected setop root");
        };
        assert_eq!(p.ops[*id].est, Some(7));
        // UNION ALL has no dedup: the additive estimate stands.
        let (p2, _) = plan("SELECT S.SCITY FROM SUPPLIER S UNION ALL SELECT A.ACITY FROM AGENTS A");
        let PhysNode::SetOp { id: id2, .. } = &p2.root else {
            panic!("expected setop root");
        };
        assert_eq!(p2.ops[*id2].est, Some(10));
    }

    #[test]
    fn empty_outer_estimate_turns_join_into_nested_loop() {
        // `S.SNO = NULL` never matches → outer estimate 0 → nested
        // loops cost 0 scans, cheaper than building a hash table.
        let (p, _) = plan(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = NULL AND S.SNO = P.SNO",
        );
        let b = block(&p);
        assert_eq!(b.order[0], 0, "empty SUPPLIER side first");
        assert_eq!(b.joins[0].method, JoinMethod::NestedLoop);
    }

    #[test]
    fn serial_budget_never_assigns_parallel_degrees() {
        let (p, _) = plan(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
             UNION SELECT A.SNO FROM AGENTS A",
        );
        assert!(p.ops.iter().all(|op| op.deg == 1), "{:?}", p.ops);
        assert!(!p.render(0, None).contains("deg="));
    }

    #[test]
    fn key_covered_hash_join_is_marked_unique() {
        // SUPPLIER joins in by its full primary key → unique kernel.
        let (p, _) = plan(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert!(b.joins[0].unique, "PK-covered join must be unique");
        // Joining on the non-key COLOR column must not be.
        let (p2, _) = plan("SELECT P.PNO FROM PARTS P, PARTS Q WHERE P.COLOR = Q.COLOR");
        let b2 = block(&p2);
        assert!(!b2.joins[0].unique, "COLOR covers no candidate key");
    }

    #[test]
    fn degrees_scale_with_estimated_work_and_respect_the_budget() {
        use crate::physical::Degree;
        use uniq_workload::{scaled_database, ScaleConfig};
        let db = scaled_database(&ScaleConfig {
            suppliers: 2400,
            parts_per_supplier: 4,
            ..Default::default()
        })
        .unwrap();
        let stats = Statistics::collect(&db);
        let sql = "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let budget = PlannerOptions {
            cost_based: true,
            degree: Degree::Fixed(4),
            columnar: false,
        };
        let p = plan_query(&q, &stats, budget);
        let b = block(&p);
        // 2400 suppliers and 9600 parts amortize 4 workers everywhere.
        assert_eq!(b.scan_deg, 4, "{:?}", p.ops);
        assert_eq!(b.joins[0].deg, 4, "{:?}", p.ops);
        assert!(p.render(0, None).contains("deg=4"));
        // A tiny query under the same budget stays serial: no operator
        // has ROWS_PER_WORKER of estimated work.
        let tiny_db = supplier_database().unwrap();
        let tiny_stats = Statistics::collect(&tiny_db);
        let tq = bind_query(tiny_db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let tp = plan_query(&tq, &tiny_stats, budget);
        assert!(tp.ops.iter().all(|op| op.deg == 1), "{:?}", tp.ops);
    }

    fn plan_columnar(sql: &str) -> (PhysicalPlan, BoundQuery) {
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let opts = PlannerOptions {
            columnar: true,
            ..PlannerOptions::default()
        };
        (plan_query(&q, &stats, opts), q)
    }

    #[test]
    fn covered_blocks_are_licensed_columnar() {
        let sql = "SELECT S.SNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let (p, _) = plan_columnar(sql);
        let b = block(&p);
        assert!(b.columnar, "keyed hash join + str literal is covered");
        // PARTS scans first and carries string columns → dict marker.
        assert!(
            p.ops[b.scan].label.contains("Scan PARTS AS P enc=dict"),
            "{:?}",
            p.ops
        );
        assert!(p.render(0, None).contains("exec=columnar"));
        // Same query without the option: row plan, no markers.
        let (p2, _) = plan(sql);
        let b2 = block(&p2);
        assert!(!b2.columnar);
        assert!(!p2.ops[b2.scan].label.contains("enc=dict"), "{:?}", p2.ops);
    }

    #[test]
    fn uncovered_shapes_stay_on_the_row_path() {
        for sql in [
            // OR is not a conjunct the kernels compile.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 OR S.SNO = 2",
            // BETWEEN never reaches the predicate compiler.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO BETWEEN 1 AND 3",
            // Keyless cross join: no columnar cross kernel.
            "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
            // Empty outer flips the step to nested loops.
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = NULL AND S.SNO = P.SNO",
            // Subqueries are row-executor territory.
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)",
            // Same-table column comparison is not a join key.
            "SELECT P.PNO FROM PARTS P WHERE P.PNO = P.SNO",
        ] {
            let (p, _) = plan_columnar(sql);
            let b = block(&p);
            assert!(!b.columnar, "{sql} must not be columnar");
            assert!(!p.render(0, None).contains("exec=columnar"), "{sql}");
        }
        // A NULL-literal comparison compiles (to the empty range) and
        // keeps the block columnar when it is the only predicate.
        let (p, _) = plan_columnar("SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = NULL");
        assert!(block(&p).columnar, "NULL literal compiles to Never");
    }

    fn indexed_supplier_db() -> uniq_catalog::Database {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);
             CREATE INDEX IDX_P_COLOR ON PARTS (COLOR);",
        )
        .unwrap();
        db
    }

    fn plan_on(db: &uniq_catalog::Database, sql: &str) -> PhysicalPlan {
        let stats = Statistics::collect(db);
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        plan_query(&q, &stats, PlannerOptions::default())
    }

    #[test]
    fn sargable_point_scan_becomes_an_ixscan_with_the_hard_bound() {
        let db = indexed_supplier_db();
        let p = plan_on(&db, "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 3");
        let b = block(&p);
        let ix = b.ixscan.as_ref().expect("unique point probe licensed");
        assert_eq!(ix.index(), Some("IDX_S_SNO"));
        assert!(ix.is_unique_index());
        assert_eq!(
            p.ops[b.scan].est,
            Some(1),
            "unique probe estimate is the hard bound 1"
        );
        assert_eq!(b.scan_deg, 1, "point lookups have nothing to morselize");
        assert!(p.render(0, None).contains("ixscan(IDX_S_SNO, SNO=3)"));
        // Without a sargable conjunct the scan stays full.
        let p2 = plan_on(&db, "SELECT S.SNAME FROM SUPPLIER S");
        assert!(block(&p2).ixscan.is_none());
    }

    #[test]
    fn key_join_prefers_the_index_probe_when_build_cost_dominates() {
        let db = indexed_supplier_db();
        let p = plan_on(
            &db,
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        // PARTS (filtered smaller) scans first; SUPPLIER joins in by a
        // probe of its unique index instead of building a hash table.
        assert_eq!(b.order[0], 1, "PARTS first");
        let ix = b.joins[0].ix.as_ref().expect("index probe licensed");
        assert_eq!(ix.index(), Some("IDX_S_SNO"));
        assert!(ix.is_unique_index());
        assert_eq!(b.joins[0].deg, 1);
        assert!(p.ops[b.joins[0].id]
            .label
            .contains("IxJoin with Scan SUPPLIER"));
        assert!(p.render(0, None).contains("ixjoin(IDX_S_SNO) unique=yes"));
        // The same query without indexes keeps the hash join.
        let plain = supplier_database().unwrap();
        let p2 = plan_on(
            &plain,
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        assert!(block(&p2).joins[0].ix.is_none());
    }

    #[test]
    fn index_operators_revoke_the_columnar_license() {
        let db = indexed_supplier_db();
        let stats = Statistics::collect(&db);
        let sql = "SELECT S.SNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let opts = PlannerOptions {
            columnar: true,
            ..PlannerOptions::default()
        };
        let p = plan_query(&q, &stats, opts);
        let b = block(&p);
        assert!(
            b.ixscan.is_some() || b.joins.iter().any(|j| j.ix.is_some()),
            "an index operator should be chosen here"
        );
        assert!(
            !b.columnar,
            "index access paths run on the serial row pipeline"
        );
    }

    #[test]
    fn every_operator_has_a_registry_slot() {
        let (p, _) = plan(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
             UNION SELECT A.SNO FROM AGENTS A",
        );
        // ops: scan+join+project+distinct (block 1) + scan+project
        // (block 2) + setop.
        assert_eq!(p.ops.len(), 7);
        let rendered = p.render(0, None);
        assert_eq!(rendered.lines().count(), 7);
        assert!(rendered.lines().all(|l| l.contains("est=")), "{rendered}");
    }
}
