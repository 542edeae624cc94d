//! Morsel-driven intra-query parallelism.
//!
//! These are operator kernels, not a second executor: the one planned
//! pipeline in [`crate::exec`] calls them wherever its plan — cost-based
//! or fixed — assigns an operator a degree above 1.
//!
//! Scans are split into fixed-size *morsels* ([`MORSEL_SIZE`] rows)
//! claimed off a shared atomic cursor by a scoped worker pool
//! (`std::thread::scope` — no dependencies, no detached threads).
//! Equi-joins run as partitioned hash joins: both sides are partitioned
//! on the join-key hash, then each partition gets an independent
//! build+probe task. Duplicate elimination and set operations partition
//! on the *full row* hash — `Value`'s structural `Eq`/`Hash` coincides
//! with the paper's `=̇` (see [`crate::setops`]), so every copy of a
//! tuple lands in the same partition and each worker's local counts
//! (`min(j,k)`, `max(j−k,0)`, dedup) are globally correct with no
//! cross-thread merge.
//!
//! Two uniqueness-derived kernels ride on top:
//!
//! * when a join step's keys cover a candidate key of the build side
//!   (the plan's `unique` flag, set by the cost-based and the fixed
//!   planner alike), the partition task builds a *unique-key* table —
//!   one slot per key, no bucket chains — and each probe costs exactly
//!   one step instead of walking a chain;
//! * blocks the optimizer proved duplicate-free never reach the dedup
//!   operator at all (the rewrite removed it), so the parallel path
//!   inherits that saving for free.
//!
//! Each worker owns a serial [`Executor`] for predicate evaluation
//! (correlated subqueries stay single-threaded inside their worker) and
//! a private [`ExecStats`]; tallies are folded back with
//! [`ExecStats::merge`], which is associative, so counters are exact
//! regardless of how morsels were interleaved. Task results are gathered
//! in task-index order, making output order deterministic for a fixed
//! degree — tests still compare `ORDER`-free results as multisets, since
//! *different* degrees partition differently.

use crate::exec::{classify_step_conjuncts, Executor, StepConjuncts};
use crate::setops::{combine_setop, distinct};
use crate::stats::{DistinctMethod, ExecStats};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use uniq_catalog::Row;
use uniq_plan::{BoundExpr, FromTable};
use uniq_sql::SetOp;
use uniq_types::{Error, Result, Value};

/// Rows per scan morsel. Large enough that a morsel amortizes the
/// claim/dispatch overhead (one atomic increment plus one mutex store),
/// small enough that a filtered scan over a few hundred thousand rows
/// still yields hundreds of units for load balancing.
pub const MORSEL_SIZE: usize = 1024;

/// Run `count` tasks on up to `degree` scoped workers, gathering results
/// in task-index order (the deterministic-output guarantee). Workers
/// claim task indices off a shared atomic cursor; the first error aborts
/// the remaining tasks and is returned. Shared with the columnar kernels
/// in [`crate::columnar`], which hand out column-chunk morsels through
/// the same scheduler.
pub(crate) fn run_tasks<T, F>(degree: usize, count: usize, task: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let workers = degree.min(count).max(1);
    if workers <= 1 {
        return (0..count).map(task).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<Error>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                if failure.lock().is_ok_and(|f| f.is_some()) {
                    return;
                }
                match task(i) {
                    Ok(v) => *slots[i].lock().expect("result slot poisoned") = Some(v),
                    Err(e) => {
                        let mut f = failure.lock().expect("failure slot poisoned");
                        if f.is_none() {
                            *f = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("failure slot poisoned") {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .ok_or_else(|| Error::internal("parallel task produced no result"))
        })
        .collect()
}

/// Split owned rows into owned chunks of at most `size` rows, preserving
/// order.
fn own_chunks(rows: Vec<Row>, size: usize) -> Vec<Vec<Row>> {
    let size = size.max(1);
    let mut out = Vec::with_capacity(rows.len().div_ceil(size));
    let mut it = rows.into_iter();
    loop {
        let chunk: Vec<Row> = it.by_ref().take(size).collect();
        if chunk.is_empty() {
            return out;
        }
        out.push(chunk);
    }
}

/// Wrap owned partitions/chunks so each task can take sole ownership of
/// its slice without cloning (each index is taken exactly once).
fn cells(parts: Vec<Vec<Row>>) -> Vec<Mutex<Vec<Row>>> {
    parts.into_iter().map(Mutex::new).collect()
}

fn take_cell(cells: &[Mutex<Vec<Row>>], i: usize) -> Vec<Row> {
    std::mem::take(&mut *cells[i].lock().expect("partition cell poisoned"))
}

/// Hash of a whole row under `Value`'s structural `Hash` (which
/// coincides with `=̇`, so `=̇`-equal rows always share a partition).
fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in row {
        v.hash(&mut h);
    }
    h.finish()
}

/// Partition owned rows into `parts` buckets by a key hash; rows whose
/// key is `None` (a NULL join key — never matches under `WHERE =`) are
/// dropped.
fn partition_rows(
    rows: Vec<Row>,
    parts: usize,
    key: impl Fn(&Row) -> Option<u64>,
) -> Vec<Vec<Row>> {
    let mut out: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
    for row in rows {
        if let Some(h) = key(&row) {
            out[(h % parts as u64) as usize].push(row);
        }
    }
    out
}

/// Morsel-parallel filtered scan of `table` into full-arity scratch
/// tuples (level 0 of a block pipeline).
pub(crate) fn par_scan(
    ex: &Executor<'_>,
    table: &FromTable,
    conjuncts: &[&BoundExpr],
    outer: &[Vec<Value>],
    arity: usize,
    degree: usize,
) -> Result<(Vec<Row>, ExecStats)> {
    let rows = ex.db.rows(&table.schema.name)?;
    let offset = table.offset;
    let chunks: Vec<&[Row]> = rows.chunks(MORSEL_SIZE).collect();
    let outputs = run_tasks(degree, chunks.len(), |i| {
        let mut w = ex.serial_worker();
        let mut scratch = vec![Value::Null; arity];
        let mut out = Vec::new();
        'rows: for row in chunks[i] {
            w.stats.rows_scanned += 1;
            scratch[offset..offset + row.len()].clone_from_slice(row);
            for c in conjuncts {
                if !w.eval(c, outer, &scratch)?.false_interpreted() {
                    continue 'rows;
                }
            }
            out.push(scratch.clone());
        }
        Ok((out, w.stats))
    })?;
    let mut stats = ExecStats::new();
    stats.morsels += outputs.len() as u64;
    let mut all = Vec::new();
    for (rows, s) in outputs {
        stats.merge(&s);
        all.extend(rows);
    }
    Ok((all, stats))
}

/// One partitioned-hash-join step: radix-partition the (parallel,
/// filtered) build side and the probe partials on the join-key hash,
/// then run one independent build+probe task per partition. With a
/// key-covered build side (`unique_hint`, the plan's
/// [`JoinStep::unique`](uniq_cost::JoinStep::unique)) each partition
/// uses the unique-key kernel: one slot per key, probe costs exactly
/// one step. Residual conjuncts are filtered morsel-parallel afterwards.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_hash_step(
    ex: &Executor<'_>,
    table: &FromTable,
    outer: &[Vec<Value>],
    partials: Vec<Row>,
    conjuncts: &[&BoundExpr],
    arity: usize,
    is_placed: &dyn Fn(usize) -> bool,
    degree: usize,
    unique_hint: bool,
) -> Result<(Vec<Row>, ExecStats)> {
    let range = table.attr_range();
    let StepConjuncts {
        self_conj,
        join_keys,
        residual,
    } = classify_step_conjuncts(conjuncts, &range, is_placed);
    let mut stats = ExecStats::new();

    // Build side: morsel-parallel filtered scan keeping raw table rows.
    let rows = ex.db.rows(&table.schema.name)?;
    let chunks: Vec<&[Row]> = rows.chunks(MORSEL_SIZE).collect();
    let built = run_tasks(degree, chunks.len(), |i| {
        let mut w = ex.serial_worker();
        let mut scratch = vec![Value::Null; arity];
        let mut out = Vec::new();
        'rows: for row in chunks[i] {
            w.stats.rows_scanned += 1;
            scratch[range.start..range.end].clone_from_slice(row);
            for c in &self_conj {
                if !w.eval(c, outer, &scratch)?.false_interpreted() {
                    continue 'rows;
                }
            }
            out.push(row.clone());
        }
        Ok((out, w.stats))
    })?;
    stats.morsels += built.len() as u64;
    let mut build: Vec<Row> = Vec::new();
    for (rows, s) in built {
        stats.merge(&s);
        build.extend(rows);
    }

    let mut next: Vec<Row>;
    if join_keys.is_empty() {
        // Cartesian with the build side, morsel-parallel over partials.
        let p_cells = cells(own_chunks(partials, MORSEL_SIZE));
        stats.morsels += p_cells.len() as u64;
        let outputs = run_tasks(degree, p_cells.len(), |i| {
            let mut out = Vec::new();
            for partial in take_cell(&p_cells, i) {
                for row in &build {
                    let mut tuple = partial.clone();
                    tuple[range.start..range.end].clone_from_slice(row);
                    out.push(tuple);
                }
            }
            Ok(out)
        })?;
        next = outputs.into_iter().flatten().collect();
    } else {
        stats.hash_joins += 1;
        let unique = ex.opts.unique_kernels && unique_hint;
        let build_hash = |row: &Row| -> Option<u64> {
            let mut h = DefaultHasher::new();
            for &(_, new_attr) in &join_keys {
                let v = &row[new_attr - range.start];
                if v.is_null() {
                    return None;
                }
                v.hash(&mut h);
            }
            Some(h.finish())
        };
        let probe_hash = |tuple: &Row| -> Option<u64> {
            let mut h = DefaultHasher::new();
            for &(built_attr, _) in &join_keys {
                let v = &tuple[built_attr];
                if v.is_null() {
                    return None;
                }
                v.hash(&mut h);
            }
            Some(h.finish())
        };
        let build_cells = cells(partition_rows(build, degree, build_hash));
        let probe_cells = cells(partition_rows(partials, degree, probe_hash));
        stats.morsels += degree as u64;
        let outputs = run_tasks(degree, degree, |p| {
            let mut local = ExecStats::new();
            let build = take_cell(&build_cells, p);
            let probes = take_cell(&probe_cells, p);
            let build_key = |row: &Row| -> Vec<Value> {
                join_keys
                    .iter()
                    .map(|&(_, new)| row[new - range.start].clone())
                    .collect()
            };
            let probe_key = |tuple: &Row| -> Vec<Value> {
                join_keys
                    .iter()
                    .map(|&(built, _)| tuple[built].clone())
                    .collect()
            };
            let mut out = Vec::new();
            if unique {
                // Unique-key kernel: at most one build row per key
                // (candidate-key coverage), so one slot, no chain, and
                // every probe costs exactly one step.
                let mut map: HashMap<Vec<Value>, usize> = HashMap::with_capacity(build.len());
                for (i, row) in build.iter().enumerate() {
                    let displaced = map.insert(build_key(row), i);
                    debug_assert!(displaced.is_none(), "unique-key kernel on a duplicated key");
                }
                for partial in probes {
                    local.hash_probes += 1;
                    local.probe_steps += 1;
                    if let Some(&i) = map.get(&probe_key(&partial)) {
                        let mut tuple = partial;
                        tuple[range.start..range.end].clone_from_slice(&build[i]);
                        out.push(tuple);
                    }
                }
            } else {
                let mut map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                for (i, row) in build.iter().enumerate() {
                    map.entry(build_key(row)).or_default().push(i);
                }
                for partial in probes {
                    local.hash_probes += 1;
                    match map.get(&probe_key(&partial)) {
                        Some(matches) => {
                            // Chained bucket: one step per entry plus
                            // the end-of-chain check.
                            local.probe_steps += matches.len() as u64 + 1;
                            for &i in matches {
                                let mut tuple = partial.clone();
                                tuple[range.start..range.end].clone_from_slice(&build[i]);
                                out.push(tuple);
                            }
                        }
                        None => local.probe_steps += 1,
                    }
                }
            }
            Ok((out, local))
        })?;
        next = Vec::new();
        for (rows, s) in outputs {
            stats.merge(&s);
            next.extend(rows);
        }
    }

    // Residual conjuncts, morsel-parallel over the joined tuples.
    if !residual.is_empty() {
        let cells_in = cells(own_chunks(next, MORSEL_SIZE));
        stats.morsels += cells_in.len() as u64;
        let outputs = run_tasks(degree, cells_in.len(), |i| {
            let mut w = ex.serial_worker();
            let mut out = Vec::new();
            'tuples: for tuple in take_cell(&cells_in, i) {
                for c in &residual {
                    if !w.eval(c, outer, &tuple)?.false_interpreted() {
                        continue 'tuples;
                    }
                }
                out.push(tuple);
            }
            Ok((out, w.stats))
        })?;
        next = Vec::new();
        for (rows, s) in outputs {
            stats.merge(&s);
            next.extend(rows);
        }
    }
    Ok((next, stats))
}

/// One parallel nested-loop step: partials are chunked (smaller chunks
/// the bigger the inner table, so each task stays near one morsel of
/// scans) and each worker re-scans the table per partial.
pub(crate) fn par_nl_step(
    ex: &Executor<'_>,
    table: &FromTable,
    outer: &[Vec<Value>],
    partials: Vec<Row>,
    conjuncts: &[&BoundExpr],
    degree: usize,
) -> Result<(Vec<Row>, ExecStats)> {
    let rows = ex.db.rows(&table.schema.name)?;
    let range = table.attr_range();
    let chunk = (MORSEL_SIZE / rows.len().max(1)).max(1);
    let p_cells = cells(own_chunks(partials, chunk));
    let outputs = run_tasks(degree, p_cells.len(), |i| {
        let mut w = ex.serial_worker();
        let mut out = Vec::new();
        for partial in take_cell(&p_cells, i) {
            'rows: for row in rows {
                w.stats.rows_scanned += 1;
                let mut tuple = partial.clone();
                tuple[range.start..range.end].clone_from_slice(row);
                for c in conjuncts {
                    if !w.eval(c, outer, &tuple)?.false_interpreted() {
                        continue 'rows;
                    }
                }
                out.push(tuple);
            }
        }
        Ok((out, w.stats))
    })?;
    let mut stats = ExecStats::new();
    stats.morsels += outputs.len() as u64;
    let mut all = Vec::new();
    for (rows, s) in outputs {
        stats.merge(&s);
        all.extend(rows);
    }
    Ok((all, stats))
}

/// Partition-local duplicate elimination: partition on the full-row
/// hash (all `=̇`-equal copies share a partition), dedup each partition
/// independently, concatenate — no cross-thread merge needed.
pub(crate) fn par_distinct(
    rows: Vec<Row>,
    method: DistinctMethod,
    degree: usize,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    if degree <= 1 {
        return distinct(rows, method, stats);
    }
    let parts = cells(partition_rows(rows, degree, |r| Some(row_hash(r))));
    stats.morsels += parts.len() as u64;
    let outputs = run_tasks(degree, parts.len(), |p| {
        let mut local = ExecStats::new();
        let out = distinct(take_cell(&parts, p), method, &mut local)?;
        Ok((out, local))
    })?;
    let mut all = Vec::new();
    for (rows, s) in outputs {
        stats.merge(&s);
        all.extend(rows);
    }
    Ok(all)
}

/// Partition-local set operation: both inputs partition on the full-row
/// hash, so each partition holds *all* copies of every tuple assigned to
/// it and the per-partition multiplicity counts (`min(j,k)` for
/// `INTERSECT ALL`, `max(j−k,0)` for `EXCEPT ALL`, …) are globally
/// correct. `UNION ALL` is pure concatenation and stays serial.
pub(crate) fn par_setop(
    op: SetOp,
    all: bool,
    left: Vec<Row>,
    right: Vec<Row>,
    method: DistinctMethod,
    degree: usize,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    if degree <= 1 || (op == SetOp::Union && all) {
        return combine_setop(op, all, left, right, method, stats);
    }
    let l_parts = cells(partition_rows(left, degree, |r| Some(row_hash(r))));
    let r_parts = cells(partition_rows(right, degree, |r| Some(row_hash(r))));
    stats.morsels += degree as u64;
    let outputs = run_tasks(degree, degree, |p| {
        let mut local = ExecStats::new();
        let out = combine_setop(
            op,
            all,
            take_cell(&l_parts, p),
            take_cell(&r_parts, p),
            method,
            &mut local,
        )?;
        Ok((out, local))
    })?;
    let mut all_rows = Vec::new();
    for (rows, s) in outputs {
        stats.merge(&s);
        all_rows.extend(rows);
    }
    Ok(all_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    fn counts(rows: &[Row]) -> HashMap<Row, usize> {
        let mut m = HashMap::new();
        for r in rows {
            *m.entry(r.clone()).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn run_tasks_preserves_index_order() {
        let out = run_tasks(4, 100, |i| Ok(i * 2)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_propagates_the_first_error() {
        let r: Result<Vec<()>> = run_tasks(3, 50, |i| {
            if i == 7 {
                Err(Error::internal("boom"))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn run_tasks_serial_fallback_handles_empty_and_single() {
        assert_eq!(run_tasks(8, 0, Ok).unwrap(), Vec::<usize>::new());
        assert_eq!(run_tasks(1, 3, Ok).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn own_chunks_covers_all_rows_in_order() {
        let rows = int_rows(&(0..10).collect::<Vec<_>>());
        let chunks = own_chunks(rows.clone(), 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().flatten().cloned().collect::<Vec<_>>(), rows);
        assert!(own_chunks(Vec::new(), 3).is_empty());
    }

    #[test]
    fn partitioning_keeps_equal_rows_together() {
        let rows = int_rows(&[1, 2, 3, 1, 2, 1]);
        let parts = partition_rows(rows, 4, |r| Some(row_hash(r)));
        for part in &parts {
            // Every copy of a value lands in exactly one partition.
            for row in part {
                assert!(!parts
                    .iter()
                    .filter(|p| !std::ptr::eq(*p, part))
                    .any(|p| p.contains(row)));
            }
        }
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn par_distinct_agrees_with_serial_for_every_degree() {
        let rows = int_rows(&[5, 1, 5, 2, 1, 5, 9, 2, 2]);
        let mut serial_stats = ExecStats::new();
        let expected = distinct(rows.clone(), DistinctMethod::Sort, &mut serial_stats).unwrap();
        for degree in 1..=8 {
            for method in [DistinctMethod::Sort, DistinctMethod::Hash] {
                let mut stats = ExecStats::new();
                let got = par_distinct(rows.clone(), method, degree, &mut stats).unwrap();
                assert_eq!(counts(&got), counts(&expected), "deg={degree} {method:?}");
            }
        }
    }

    #[test]
    fn par_setop_counts_match_serial_multiplicities() {
        let l = int_rows(&[1, 1, 1, 2, 3, 3]);
        let r = int_rows(&[1, 2, 2, 3]);
        for (op, all) in [
            (SetOp::Intersect, true),
            (SetOp::Intersect, false),
            (SetOp::Except, true),
            (SetOp::Except, false),
            (SetOp::Union, true),
            (SetOp::Union, false),
        ] {
            let mut s = ExecStats::new();
            let expected =
                combine_setop(op, all, l.clone(), r.clone(), DistinctMethod::Sort, &mut s).unwrap();
            for degree in 2..=5 {
                let mut s = ExecStats::new();
                let got = par_setop(
                    op,
                    all,
                    l.clone(),
                    r.clone(),
                    DistinctMethod::Sort,
                    degree,
                    &mut s,
                )
                .unwrap();
                assert_eq!(counts(&got), counts(&expected), "{op:?} all={all}");
            }
        }
    }

    #[test]
    fn null_rows_share_a_partition_with_each_other() {
        // `=̇` treats NULLs as equal, so structural hashing must too.
        let rows = [
            vec![Value::Null, Value::Int(1)],
            vec![Value::Null, Value::Int(1)],
        ];
        assert_eq!(row_hash(&rows[0]), row_hash(&rows[1]));
    }
}
