//! Runs every workload, end to end and traced, at smoke size.

use std::process::Command;

#[test]
fn every_workload_runs_and_checks_clean_at_smoke_size() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--smoke",
        ])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "benchmark failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for workload in ["qws-100k-d10", "indep-4m-d2", "serve-churn"] {
        for trace in [0, 1] {
            let prefix = format!("{workload} trace={trace}: {{\"correct\": true");
            assert!(stdout.contains(&prefix), "missing {prefix}");
        }
    }
    assert!(
        !dir.join(".perfbench-data").exists(),
        "generated inputs are removed"
    );
}
