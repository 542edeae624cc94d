//! The front half of `EXPLAIN`: what the optimizer did.
//!
//! [`render_trace`] prints the rewrite steps and per-rule counters. The
//! back half — the physical plan, one operator per line with its
//! estimated and actual rows — is [`uniq_cost::PhysicalPlan::render`],
//! the one renderer for cost-based and fixed plans alike.

use uniq_core::pipeline::RewriteTrace;

/// Render a [`RewriteTrace`]: the ordered steps (rule, licensing
/// theorem, before/after SQL) followed by the per-rule counters. This is
/// the front half of `EXPLAIN` output — what the optimizer did and what
/// it cost — shown identically for freshly compiled and cached plans.
pub fn render_trace(trace: &RewriteTrace) -> String {
    let mut out = String::new();
    if trace.steps.is_empty() {
        out.push_str(&format!(
            "Rewrites: none ({} pass(es), {} uniqueness test(s) computed)\n",
            trace.passes, trace.uniqueness_tests_computed
        ));
    } else {
        out.push_str(&format!(
            "Rewrites: {} step(s) in {} pass(es), {} uniqueness test(s) computed, {} memoized\n",
            trace.steps.len(),
            trace.passes,
            trace.uniqueness_tests_computed,
            trace.uniqueness_tests_memoized
        ));
        for (i, step) in trace.steps.iter().enumerate() {
            out.push_str(&format!(
                "  {}. {} [{}] proof={}\n",
                i + 1,
                step.rule,
                step.theorem,
                step.proof.marker()
            ));
            out.push_str(&format!("     before: {}\n", step.sql_before));
            out.push_str(&format!("     after:  {}\n", step.sql_after));
            out.push_str(&format!("     why: {}\n", step.why));
        }
    }
    let active: Vec<_> = trace.rule_stats.iter().filter(|s| s.attempts > 0).collect();
    if !active.is_empty() {
        out.push_str("Rule stats (attempts/fires/uniqueness tests/time):\n");
        for s in active {
            out.push_str(&format!(
                "  {}: {}/{}/{}/{}\n",
                s.rule,
                s.attempts,
                s.fires,
                s.uniqueness_tests,
                fmt_ns(s.nanos)
            ));
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Degree, DistinctMethod, JoinMethod};
    use crate::ExecOptions;
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::BoundOutput;

    /// The fixed plan `opts` runs for `sql`, rendered without actuals.
    fn plan(sql: &str, opts: ExecOptions) -> String {
        let db = supplier_schema().unwrap();
        let ast = uniq_sql::parse_full_query(sql).unwrap();
        let bound = uniq_plan::bind_output(db.catalog(), &ast).unwrap();
        uniq_cost::fixed_plan(&bound, opts).render(0, None)
    }

    /// The same after the relational rewrites, as a session would run it.
    fn output_plan(sql: &str, opts: ExecOptions) -> String {
        let db = supplier_schema().unwrap();
        let ast = uniq_sql::parse_full_query(sql).unwrap();
        let bound = uniq_plan::bind_output(db.catalog(), &ast).unwrap();
        let optimizer = uniq_core::pipeline::Optimizer::new(
            uniq_core::pipeline::OptimizerOptions::relational(),
        );
        let (output, _) = uniq_core::optimize_output(&optimizer, &bound);
        uniq_cost::fixed_plan(&output, opts).render(0, None)
    }

    #[test]
    fn distinct_join_plan() {
        let p = plan(
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            ExecOptions::default(),
        );
        assert!(p.contains("SortDistinct est=? act=?"), "{p}");
        assert!(p.contains("HashJoin with Scan PARTS AS P"), "{p}");
        assert!(p.contains("Scan SUPPLIER AS S"), "{p}");
        assert!(!p.contains("Filter"), "{p}");
    }

    #[test]
    fn keyless_hash_step_is_a_cross_join() {
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S, AGENTS A WHERE S.BUDGET > A.ANO",
            ExecOptions::default(),
        );
        assert!(p.contains("CrossJoin with Scan AGENTS AS A"), "{p}");
        assert!(!p.contains("HashJoin"), "{p}");
    }

    #[test]
    fn exists_marks_the_operator_that_evaluates_it() {
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
            ExecOptions::default(),
        );
        assert!(p.contains("Scan SUPPLIER AS S subquery(EXISTS)"), "{p}");
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S, AGENTS A WHERE S.SNO = A.SNO \
             AND A.ANO NOT IN (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)",
            ExecOptions::default(),
        );
        assert!(
            p.contains("HashJoin with Scan AGENTS AS A subquery(NOT IN)"),
            "{p}"
        );
        // Subqueries stay outside the operator registry.
        assert_eq!(p.lines().count(), 3, "{p}");
    }

    #[test]
    fn setop_renders_method() {
        let sort = plan(
            "SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A",
            ExecOptions::default(),
        );
        assert!(sort.contains("Intersect [sort-merge]"), "{sort}");
        let hash = plan(
            "SELECT S.SNO FROM SUPPLIER S EXCEPT ALL SELECT A.SNO FROM AGENTS A",
            ExecOptions {
                distinct: DistinctMethod::Hash,
                ..Default::default()
            },
        );
        assert!(hash.contains("ExceptAll [hash-count]"), "{hash}");
    }

    #[test]
    fn trace_rendering_names_rule_theorem_and_timing() {
        let db = supplier_schema().unwrap();
        let q = uniq_plan::bind_query(
            db.catalog(),
            &uniq_sql::parse_query(
                "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                 WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            )
            .unwrap(),
        )
        .unwrap();
        let outcome = uniq_core::pipeline::Optimizer::new(
            uniq_core::pipeline::OptimizerOptions::relational(),
        )
        .optimize(&q);
        let text = render_trace(&outcome.trace);
        assert!(
            text.contains("distinct-removal [Theorem 1] proof=✓"),
            "{text}"
        );
        assert!(text.contains("before: SELECT DISTINCT"), "{text}");
        assert!(text.contains("after:  SELECT ALL"), "{text}");
        assert!(text.contains("Rule stats"), "{text}");
        // The rewritten block runs without a duplicate elimination.
        let physical =
            uniq_cost::fixed_plan(&BoundOutput::plain(outcome.query), ExecOptions::default())
                .render(1, None);
        assert!(!physical.contains("Distinct"), "{physical}");
        assert!(physical.contains("Scan SUPPLIER AS S"), "{physical}");
    }

    #[test]
    fn aggregate_sort_limit_render_above_the_body() {
        let p = output_plan(
            "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
             GROUP BY S.SCITY ORDER BY N DESC LIMIT 3",
            ExecOptions::default(),
        );
        let limit = p.find("Limit 3").expect(&p);
        let sort = p.find("Sort [N DESC]").expect(&p);
        let agg = p.find("Aggregate [SCITY, COUNT(*)]").expect(&p);
        let scan = p.find("Scan SUPPLIER AS S").expect(&p);
        assert!(limit < sort && sort < agg && agg < scan, "{p}");
        assert!(!p.contains("group-elided"), "SCITY is no key: {p}");
    }

    #[test]
    fn key_covered_group_by_renders_the_elision_marker() {
        let p = output_plan(
            "SELECT S.SNO, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SNO",
            ExecOptions::default(),
        );
        assert!(p.contains("Aggregate [SNO, COUNT(*)]"), "{p}");
        assert!(p.contains("group-elided"), "{p}");
    }

    #[test]
    fn early_stop_follows_the_session_choice() {
        let mut db = supplier_schema().unwrap();
        db.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
            .unwrap();
        let sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2";
        let ast = uniq_sql::parse_full_query(sql).unwrap();
        let bound = uniq_plan::bind_output(db.catalog(), &ast).unwrap();
        let on = uniq_cost::fixed_plan(&bound, ExecOptions::default()).render(0, None);
        assert!(on.contains("early-stop(IDX_S_BUDGET)"), "{on}");
        assert!(!on.contains("Sort ["), "the index serves the order: {on}");
        let off = ExecOptions {
            early_stop: false,
            ..Default::default()
        };
        let plain = uniq_cost::fixed_plan(&bound, off).render(0, None);
        assert!(plain.contains("Sort [BUDGET]"), "{plain}");
        assert!(!plain.contains("early-stop"), "{plain}");
    }

    #[test]
    fn empty_trace_renders_none() {
        let text = render_trace(&RewriteTrace::default());
        assert!(text.contains("Rewrites: none"), "{text}");
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(50), "50ns");
        assert_eq!(fmt_ns(2_500), "2.5µs");
        assert_eq!(fmt_ns(3_000_000), "3.0ms");
    }

    #[test]
    fn parallel_session_annotates_operators_with_degree() {
        let opts = ExecOptions {
            degree: Degree::Fixed(4),
            ..Default::default()
        };
        let p = plan(
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            opts,
        );
        assert!(p.contains("SortDistinct est=? act=? deg=4"), "{p}");
        assert!(
            p.contains("HashJoin with Scan PARTS AS P est=? act=? deg=4"),
            "{p}"
        );
        assert!(p.contains("Scan SUPPLIER AS S est=? act=? deg=4"), "{p}");
        // Serial plans carry no degree annotation anywhere.
        let serial = plan(
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            ExecOptions::default(),
        );
        assert!(!serial.contains("deg="), "{serial}");
        // UNION ALL is concatenation — never annotated.
        let union_all = plan(
            "SELECT S.SNO FROM SUPPLIER S UNION ALL SELECT A.SNO FROM AGENTS A",
            opts,
        );
        assert!(
            !union_all.lines().next().unwrap().contains("deg="),
            "{union_all}"
        );
    }

    #[test]
    fn hash_option_off_forces_nested_loops() {
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            ExecOptions {
                join: JoinMethod::NestedLoop,
                ..Default::default()
            },
        );
        assert!(p.contains("NestedLoop with Scan PARTS AS P"), "{p}");
        assert!(!p.contains("HashJoin"), "{p}");
    }
}
