//! The report binary rejects experiment names it does not know, so a
//! typo fails loudly instead of printing nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_experiment_prints_usage_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("e99")
        .output()
        .expect("run report");
    assert!(!out.status.success(), "e99 must fail: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: report"), "{stderr}");
    assert!(stderr.contains("\"e99\""), "{stderr}");
    assert!(out.stdout.is_empty(), "no experiment ran");
}
