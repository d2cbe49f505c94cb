//! The `mrsky` pipeline commands refuse flags they do not know: a retired
//! or mistyped flag must fail loudly instead of silently running the
//! default configuration.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mrsky(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrsky"))
        .args(args)
        .output()
        .expect("mrsky binary runs")
}

/// A small generated dataset in a scratch directory of its own per test
/// (`tag`) and process, so parallel tests never delete each other's input.
fn dataset(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("mrsky-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let csv = dir.join("services.csv");
    let path = csv.to_str().expect("utf-8 temp path").to_string();
    let out = mrsky(&["generate", "--out", &path, "--n", "300", "--dims", "3"]);
    assert!(out.status.success(), "generate failed: {out:?}");
    (dir, path)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_and_retired_kernels_are_rejected() {
    let (dir, data) = dataset("flags");

    for command in ["skyline", "compare", "sweep"] {
        let out = mrsky(&[command, "--data", &data, "--row-shuffle"]);
        assert!(!out.status.success(), "{command} accepted --row-shuffle");
        assert!(
            stderr(&out).contains("--row-shuffle"),
            "{command} error must name the flag: {}",
            stderr(&out)
        );
    }

    let out = mrsky(&["skyline", "--data", &data, "--kernel", "dnc"]);
    assert!(!out.status.success(), "skyline accepted --kernel dnc");
    assert!(
        stderr(&out).contains("dnc"),
        "error must name the kernel: {}",
        stderr(&out)
    );

    // every accepted flag still parses, values included
    let out = mrsky(&[
        "skyline",
        "--data",
        &data,
        "--servers",
        "4",
        "--kernel",
        "sfs",
        "--no-sector-prune",
    ]);
    assert!(out.status.success(), "valid run failed: {}", stderr(&out));
    let out = mrsky(&["sweep", "--data", &data, "--servers", "2,4", "--json"]);
    assert!(out.status.success(), "valid sweep failed: {}", stderr(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_value_flag_without_its_value_is_rejected() {
    let (dir, data) = dataset("missing-value");
    for command in ["skyline", "compare", "sweep"] {
        let out = mrsky(&[command, "--data", &data, "--servers"]);
        assert_eq!(out.status.code(), Some(1), "{command}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("`--servers` expects a value"),
            "{command} error must name the flag: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_csv_with_ragged_rows_fails_with_the_line_number() {
    let dir = std::env::temp_dir().join(format!("mrsky-cli-ragged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let csv = dir.join("ragged.csv");
    std::fs::write(&csv, "0,1,2\n1,2,1,3\n").expect("write fixture");
    let out = mrsky(&["skyline", "--data", csv.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("CSV line 2"),
        "error must name the line: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
