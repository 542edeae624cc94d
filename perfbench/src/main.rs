//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! [--scale full|tiny] [--spans <path>]`
//!
//! A traced run writes its spans to `--spans`, by default
//! `perfbench/out/spans-<workload>-<seed>.tsv` under the working
//! directory.
//!
//! Prints diagnostics on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 only when every answer was correct
//! and no operation failed; 2 on bad arguments or an unknown workload.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, Scale, UNGATED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}|{}> --seed <n> --seconds <n> --trace <0|1> \
         [--scale full|tiny] [--spans <path>]",
        WORKLOADS.join("|"),
        UNGATED.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".into()),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().chain(&UNGATED).any(|w| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.ok_or("--trace is required")?;
    if trace && spans.is_none() {
        spans = Some(PathBuf::from(format!(
            "perfbench/out/spans-{workload}-{seed}.tsv"
        )));
    }
    Ok(RunConfig {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        spans,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(problem) => return usage(&problem),
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.json(defs));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} wrong answer(s), {} failed of {} operation(s)",
            report.mismatch_count, report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
