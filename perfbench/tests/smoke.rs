//! Smoke test: every workload at a tiny size, traced and untraced, with
//! all checks passing and every named metric printed with its unit; the
//! metric and workload names agree with `BENCHMARK.json`; bad input
//! exits non-zero without a result line.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, Scale, UNGATED, WORKLOADS};
use std::process::Command;

fn tiny(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.into(),
        seed: 7,
        seconds: 0.4,
        trace,
        scale: Scale::Tiny,
        spans: None,
    }
}

#[test]
fn every_workload_passes_and_prints_every_metric() {
    for workload in WORKLOADS.iter().chain(&UNGATED) {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(&tiny(workload, trace))
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(
                report.correct(),
                "{workload} trace={trace}: {} mismatch(es), {} failed of {}: {:?}",
                report.mismatch_count,
                report.failed,
                report.attempted,
                report.notes
            );
            let line = report.json(defs);
            for d in defs {
                let entry = format!("\"{}\": {{\"value\": ", d.name);
                let unit = format!("\"unit\": \"{}\"}}", d.unit);
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {} missing from {line}", d.name));
                assert!(line[at..].starts_with(&entry) && line[at..].contains(&unit));
            }
            if !trace {
                for d in defs {
                    assert!(
                        report.values[d.name] > 0.0,
                        "{workload}: end-to-end metric {} reads 0",
                        d.name
                    );
                }
            }
        }
    }
}

/// The `name` values inside the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn names(defs: &[MetricDef]) -> Vec<String> {
    defs.iter().map(|d| d.name.to_string()).collect()
}

#[test]
fn benchmark_json_names_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    assert_eq!(names_under(&json, "workloads"), WORKLOADS.to_vec());
    assert_eq!(names_under(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(names_under(&json, "per_layer"), names(PER_LAYER));
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(json.contains(&entry), "unit of {} differs", d.name);
    }
}

#[test]
fn bad_input_exits_non_zero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload point_cached --seed 1 --seconds 1",
        "--workload point_cached --seed x --seconds 1 --trace 0",
    ] {
        let out = Command::new(bin)
            .args(args.split(' '))
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn the_binary_prints_the_result_last() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    let out = Command::new(bin)
        .args("--workload point_cached --seed 3 --seconds 0.3 --trace 0 --scale tiny".split(' '))
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"stmts_per_s\": {\"value\": "));
}
