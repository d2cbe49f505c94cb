//! End-to-end wall-clock benchmark for the MapReduce skyline suite.
//!
//! ```text
//! perfbench --workload qws-100k-d10|indep-4m-d2|serve-churn|all
//!           --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The process generates the workload's inputs from `--seed`, then runs
//! every measured repetition in a fresh child process (this executable
//! again, with a `child-*` first argument) so each one pays what a user
//! of `mrsky` pays and reports its own peak resident memory. Human
//! readable tables go to stdout; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). See
//! `perfbench/README.md` for the workloads and how to read the output.

mod batch;
mod oracle;
mod serve;
mod stats;
mod tiling;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("sim_s", "s"),
    ("qws.ingest.busy_s", "s"),
    ("qws.ingest.rows_per_s", "1/s"),
    ("core.driver.plan_s", "s"),
    ("core.fit.busy_s", "s"),
    ("audit.plan.busy_s", "s"),
    ("core.pipeline.to_block_s", "s"),
    ("core.pipeline.profile_s", "s"),
    ("core.pipeline.prelude_s", "s"),
    ("skyline.filter.busy_s", "s"),
    ("mapreduce.job1.wall_s", "s"),
    ("mapreduce.job1.shuffle_bytes", "bytes"),
    ("mapreduce.job1.filter_ratio", "ratio"),
    ("skyline.kernel.busy_s", "s"),
    ("skyline.kernel.comparisons", "count"),
    ("skyline.kernel.survivor_ratio", "ratio"),
    ("core.driver.collect_s", "s"),
    ("mapreduce.job2.wall_s", "s"),
    ("mapreduce.job2.candidates", "count"),
    ("mapreduce.job2.survivor_ratio", "ratio"),
    ("core.driver.report_s", "s"),
    ("core.driver.finish_s", "s"),
    ("core.validate.busy_s", "s"),
    ("core.validate.dominance_tests", "count"),
    ("skyline.skyband.repairs", "count"),
    ("skyline.skyband.rebuilds", "count"),
    ("skyline.skyband.rebuilds_per_delete", "ratio"),
    ("serve.apply.busy_s", "s"),
    ("serve.query.busy_s", "s"),
    ("serve.wait_p99_us", "us"),
    ("serve.dlq.dead_lettered", "count"),
    ("serve.admission.shed", "count"),
    ("serve.breaker.rejected", "count"),
    ("serve.insert.p50_us", "us"),
    ("serve.insert.p99_us", "us"),
    ("serve.delete.p50_us", "us"),
    ("serve.delete.p99_us", "us"),
    ("serve.query.p50_us", "us"),
    ("serve.query.p99_us", "us"),
    ("serve.max_rate_ops_s", "ops/s"),
    ("loadgen.lateness_p99_us", "us"),
];

/// What one workload run reports.
pub struct Outcome {
    /// Every output matched its check.
    pub correct: bool,
    /// Operations attempted (queries, validations or requests).
    pub attempted: u64,
    /// Operations that errored, were refused or answered wrongly.
    pub failed: u64,
    /// Metric name → value, in the units of [`END_TO_END`]/[`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: `metrics` holds exactly the names in `table`, in
    /// table order; names the workload did not measure read 0.
    fn to_json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinities; a metric that produced one is a bug in
/// the benchmark, reported as 0 so the line still parses.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget per run, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for checking the benchmark itself.
    pub smoke: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("--workload NAME is required")?;
    let num = |name: &str, default: &str| -> Result<f64, String> {
        let s = flag(args, name).unwrap_or(default);
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or(format!("{name} expects a non-negative number, got `{s}`"))
    };
    let seed = flag(args, "--seed").unwrap_or("1");
    let trace = flag(args, "--trace").unwrap_or("0");
    Ok(Args {
        workload: workload.to_string(),
        seed: seed
            .parse()
            .map_err(|_| format!("--seed expects an unsigned integer, got `{seed}`"))?,
        seconds: num("--seconds", "10")?,
        trace: match trace {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["qws-100k-d10", "indep-4m-d2", "serve-churn"];

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    match name {
        "serve-churn" => serve::run(args),
        other => match batch::spec(other, args.smoke) {
            Some(spec) => batch::run(&spec, args),
            None => Err(format!(
                "unknown workload `{other}` (expected {} or all)",
                WORKLOADS.join("|")
            )),
        },
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("child-batch") => batch::child(&argv[1..]).map(|()| None),
        Some("child-serve") => serve::child(&argv[1..]).map(|()| None),
        _ => parse_args(&argv).and_then(|args| run(&args).map(Some)),
    };
    match result {
        Ok(None | Some(true)) => ExitCode::SUCCESS,
        Ok(Some(false)) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the requested workload(s), prints the result line, and returns
/// whether every output was correct.
fn run(args: &Args) -> Result<bool, String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.workload != "all" {
        let out = run_workload(&args.workload, args)?;
        if !args.trace {
            // an end-to-end metric that was not measured must not read 0
            for (name, _) in END_TO_END {
                match out.metrics.get(name) {
                    Some(v) if v.is_finite() && *v > 0.0 => {}
                    other => return Err(format!("{name} was not measured ({other:?})")),
                }
            }
        }
        println!("{}", out.to_json(table));
        return Ok(out.correct);
    }
    // One command for everything: each workload end to end, then traced.
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let mut lines = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            let sub = Args {
                trace,
                ..args.clone()
            };
            let out = run_workload(name, &sub)?;
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            lines.push(format!(
                "{name} trace={}: {}",
                u8::from(trace),
                out.to_json(table)
            ));
            all.correct &= out.correct;
            all.attempted += out.attempted;
            all.failed += out.failed;
        }
    }
    for l in &lines {
        println!("{l}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        all.correct, all.attempted, all.failed
    );
    Ok(all.correct)
}

/// Seed of a run's `j`-th input: the run's own seed for the first, and
/// a fixed mix of it for the rest, so the same `--seed` gives the same
/// inputs.
pub fn input_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Host threads the program may use: what `std` reports for this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What a child process reported: `name value` lines collected by name,
/// plus `text name value` lines.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// Numeric values by name, in the order printed.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Text values by name.
    pub text: BTreeMap<String, String>,
}

impl ChildReport {
    /// All values printed under `name`.
    pub fn all(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// The single value printed under `name`.
    pub fn one(&self, name: &str) -> Result<f64, String> {
        match self.all(name) {
            [v] => Ok(*v),
            other => Err(format!("child printed {} values for `{name}`", other.len())),
        }
    }
}

/// Prints one value for the parent to collect.
pub fn report(name: &str, value: f64) {
    println!("{name} {value}");
}

/// Runs this executable again with `args`, waits for it, and parses what
/// it printed. A child that fails is an error: its stderr is inherited.
pub fn run_child(args: &[String]) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {} exited with {}", args[0], out.status));
    }
    let mut rep = ChildReport::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("text"), Some(name), Some(value)) => {
                rep.text.insert(name.to_string(), value.to_string());
            }
            (Some(name), Some(value), None) => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("child printed a non-number: `{line}`"))?;
                rep.values.entry(name.to_string()).or_default().push(v);
            }
            _ => return Err(format!("unparseable child line: `{line}`")),
        }
    }
    Ok(rep)
}

/// Runs children from `make_args(i)` until `seconds` of wall time have
/// passed and at least `min` have run.
pub fn run_children(
    seconds: f64,
    min: usize,
    mut make_args: impl FnMut(usize) -> Vec<String>,
) -> Result<Vec<ChildReport>, String> {
    let start = Instant::now();
    let mut reports = Vec::new();
    while reports.len() < min || start.elapsed().as_secs_f64() < seconds {
        reports.push(run_child(&make_args(reports.len()))?);
    }
    Ok(reports)
}

fn command_text(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// HEAD of the git checkout the benchmark runs from; `unknown` when the
/// directory is not the top of a git work tree (an enclosing repository's
/// commit would be the wrong one).
fn git_commit() -> String {
    let top = command_text("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(std::fs::canonicalize);
    match (std::fs::canonicalize(&top), here) {
        (Ok(top), Ok(here)) if top == here => command_text("git", &["rev-parse", "HEAD"]),
        _ => "unknown".to_string(),
    }
}

/// Prints the run's environment as one `env {...}` line. `extra` holds
/// workload-specific `(key, value)` pairs such as n, d and input bytes.
pub fn print_env(workload: &str, args: &Args, extra: &[(&str, String)]) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut fields = vec![
        ("workload", workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("smoke", args.smoke.to_string()),
        ("nproc", host_threads().to_string()),
        ("host_threads", host_threads().to_string()),
        ("cpu", cpu),
        ("rustc", command_text("rustc", &["--version"])),
        ("git_commit", git_commit()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    println!("env {{{}}}", body.join(", "));
}

/// Prints one row of the human-readable table.
pub fn print_row(name: &str, unit: &str, samples: &[f64], digits: usize) {
    println!(
        "  {name:<34} {unit:<6} {}",
        stats::describe(samples, digits)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units, or the result line breaks the
    /// benchmark's contract.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let s = section(key);
            let entries = s.matches("\"name\"").count();
            assert_eq!(entries, table.len(), "{key}: entry count");
            for (name, unit) in table {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&needle), "{key}: missing {needle}");
            }
        }
    }

    #[test]
    fn result_line_has_every_table_metric() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: BTreeMap::from([("wall_s", 1.25), ("setup_s", f64::NAN)]),
        };
        let line = out.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
