//! Batch workloads: input file → validated skyline, through the same
//! public calls `mrsky skyline` makes (`Dataset::load_csv`,
//! `SkylineJob::run_resilient` with MR-Angle on 8 simulated servers and no
//! chaos, `validate_report`).

use crate::stats::{mean_over_inputs, median};
use crate::tiling::{tile, Tile, WallClock};
use crate::{oracle, print_env, print_row, report, run_children, Args, ChildReport, Outcome};
use mr_skyline::algorithms::build_partitioner;
use mr_skyline::{validate_report, Algorithm, SkylineJob, SkylineRunReport};
use mrsky_trace::{EventKind, TraceEvent, Tracer, VecSink};
use qws_data::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use skyline_algos::block::PointBlock;
use skyline_algos::filter::select_filter_points;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Simulated servers, as in the paper's cluster.
const SERVERS: usize = 8;

/// Where generated inputs live while a run uses them, relative to the
/// directory the benchmark runs from. Removed when the run ends.
const DATA_DIR: &str = ".perfbench-data";

/// Input distribution.
#[derive(Debug, Clone, Copy)]
enum Source {
    Qws,
    Independent,
}

/// One batch workload.
#[derive(Debug, Clone)]
pub struct Spec {
    name: &'static str,
    n: usize,
    d: usize,
    source: Source,
    /// Datasets generated per end-to-end run, each from its own seed
    /// derived from `--seed`; children take them in turn and every metric
    /// is a mean over them, so one dataset's skyline size does not set the
    /// run's figures.
    inputs: usize,
    /// `run_resilient` calls per child; the first is part of the child's
    /// end-to-end pass, the rest add `query_s` samples.
    query_reps: usize,
    /// `validate_report` calls per child, likewise.
    validate_reps: usize,
}

/// The batch workload called `name`, at smoke size if asked.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let (name, n, d, source, inputs, query_reps, validate_reps) = match name {
        // The paper's Fig. 5b configuration: kernels, merge and
        // validation do the most work.
        "qws-100k-d10" => ("qws-100k-d10", 100_000, 10, Source::Qws, 4, 6, 2),
        // Ingest, block copy, profile and filter selection do almost all
        // the work; the broadcast filter drops nearly every row.
        "indep-4m-d2" => ("indep-4m-d2", 4_000_000, 2, Source::Independent, 1, 1, 1),
        _ => return None,
    };
    let n = if smoke { n / 100 } else { n };
    Some(Spec {
        name,
        n,
        d,
        source,
        inputs,
        query_reps,
        validate_reps,
    })
}

fn generate(spec: &Spec, seed: u64) -> Dataset {
    match spec.source {
        Source::Qws => generate_qws(&QwsConfig::new(spec.n, spec.d).with_seed(seed)),
        Source::Independent => generate_synthetic(
            &SyntheticConfig::new(spec.n, spec.d, Distribution::Independent).with_seed(seed),
        ),
    }
}

fn job(threads: usize) -> SkylineJob {
    let mut job = SkylineJob::new(Algorithm::MrAngle, SERVERS);
    job.threads = threads;
    job
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Skyline ids and coordinates, folded: equal fingerprints mean equal
/// answers across processes.
fn answer_fingerprint(r: &SkylineRunReport) -> u64 {
    oracle::fingerprint(
        r.global_skyline
            .iter()
            .flat_map(|p| std::iter::once(p.id()).chain(p.coords().iter().map(|c| c.to_bits()))),
    )
}

/// Removes the generated inputs when the run ends, however it ends.
struct InputFiles(Vec<PathBuf>);

impl Drop for InputFiles {
    fn drop(&mut self) {
        for f in &self.0 {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_dir(DATA_DIR);
    }
}

/// One generated dataset and its expected answer.
struct Input {
    path: String,
    skyline: usize,
    ids_fp: u64,
    bytes: u64,
}

/// Runs one batch workload from the parent process.
pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    // Inputs and the expected answers, before any timing. The traced run
    // takes its layers from one child, so it needs one input only.
    let count = if args.trace { 1 } else { spec.inputs };
    std::fs::create_dir_all(DATA_DIR).map_err(|e| format!("cannot create {DATA_DIR}: {e}"))?;
    let mut files = InputFiles(Vec::new());
    let mut inputs = Vec::new();
    for j in 0..count {
        let seed = crate::input_seed(args.seed, j);
        let data = generate(spec, seed);
        let expected = oracle::skyline_ids(data.points().iter().map(|p| (p.id(), p.coords())));
        let path = Path::new(DATA_DIR).join(format!("{}-{}-{j}.csv", spec.name, args.seed));
        files.0.push(path.clone());
        data.save_csv(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        inputs.push(Input {
            path: path.display().to_string(),
            skyline: expected.len(),
            ids_fp: oracle::fingerprint(expected.iter().copied()),
            bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
        });
    }
    let list = |f: fn(&Input) -> String| inputs.iter().map(f).collect::<Vec<_>>().join("/");
    print_env(
        spec.name,
        args,
        &[
            ("n", spec.n.to_string()),
            ("d", spec.d.to_string()),
            ("distribution", format!("{:?}", spec.source).to_lowercase()),
            ("inputs", count.to_string()),
            ("input_bytes", list(|i| i.bytes.to_string())),
            ("skyline", list(|i| i.skyline.to_string())),
            ("algorithm", "mr-angle".to_string()),
            ("servers", SERVERS.to_string()),
            ("query_reps", spec.query_reps.to_string()),
            ("validate_reps", spec.validate_reps.to_string()),
        ],
    );
    let child_args = |j: usize, traced: bool| -> Vec<String> {
        let input = &inputs[j % inputs.len()];
        vec![
            "child-batch".into(),
            input.path.clone(),
            (j % inputs.len()).to_string(),
            spec.query_reps.to_string(),
            spec.validate_reps.to_string(),
            u8::from(traced).to_string(),
            input.skyline.to_string(),
            input.ids_fp.to_string(),
        ]
    };
    let children = if args.trace {
        // untraced and traced children alternate, so the overhead pairs
        // see the same machine state
        run_children(args.seconds, 4, |i| child_args(0, i % 2 == 1))?
    } else {
        run_children(args.seconds, 2 * count, |i| child_args(i, false))?
    };
    summarize(spec, args, &children)
}

fn summarize(spec: &Spec, args: &Args, children: &[ChildReport]) -> Result<Outcome, String> {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // input → the answers its children computed
    let mut answers: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    for c in children {
        attempted += c.one("attempted")? as u64;
        failed += c.one("failed")? as u64;
        if let Some(fp) = c.text.get("answer") {
            let input = c.one("input")? as u64;
            answers.entry(input).or_default().insert(fp.clone());
        }
    }
    // every process given the same input must compute the same skyline
    failed += answers.values().filter(|a| a.len() > 1).count() as u64;
    let correct = failed == 0;
    println!(
        "{} (trace={}): {} child processes, {attempted} checked operations, {failed} failed",
        spec.name,
        u8::from(args.trace),
        children.len()
    );
    let mut metrics = BTreeMap::new();
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    if !args.trace {
        // (input, value) pairs: every figure is a mean over the inputs of
        // a per-input statistic.
        let paired = |name: &str| -> Vec<(usize, f64)> {
            children
                .iter()
                .flat_map(|c| {
                    let input = c.one("input").unwrap_or(0.0) as usize;
                    c.all(name).iter().map(move |v| (input, *v))
                })
                .collect()
        };
        for (name, label, unit) in [
            ("setup_s", "setup_s", "s"),
            ("query_s", "query_s", "s"),
            ("validate_s", "validate_s", "s"),
            ("wall_s", "wall_s (one child's first pass)", "s"),
            ("peak_rss_mb", "peak_rss_mb", "MB"),
            ("sim_s", "sim_s", "s"),
        ] {
            let pooled: Vec<f64> = paired(name).iter().map(|(_, x)| *x).collect();
            print_row(label, unit, &pooled, 4);
        }
        // The result line: per stage, the median of each input's samples,
        // averaged over the inputs; `wall_s` sums the three stages.
        let stat = |name: &str| mean_over_inputs(&paired(name), median).unwrap_or(f64::NAN);
        metrics.insert("setup_s", stat("setup_s"));
        metrics.insert("query_s", stat("query_s"));
        metrics.insert(
            "wall_s",
            stat("setup_s") + stat("query_s") + stat("validate_s"),
        );
        metrics.insert("peak_rss_mb", stat("peak_rss_mb"));
        for (name, unit) in crate::END_TO_END {
            println!("  result {name:<27} {unit:<6} {:.6}", metrics[name]);
        }
        println!(
            "  {:<34} {:<6} {}",
            "failed_frac",
            "ratio",
            failed as f64 / attempted.max(1) as f64
        );
    } else {
        let wall_s = |traced: bool| -> Vec<f64> {
            children
                .iter()
                .filter(|c| (c.one("traced").unwrap_or(0.0) == 1.0) == traced)
                .flat_map(|c| c.all("wall_s").iter().copied())
                .collect()
        };
        let (untraced, traced) = (wall_s(false), wall_s(true));
        metrics.insert("trace.overhead_s", med(&traced) - med(&untraced));
        // Every layer comes from one traced child, the one with the median
        // traced wall time, so its tiles and `unattributed_s` still sum to
        // its `trace.wall_s`.
        let mut runs: Vec<&ChildReport> = children
            .iter()
            .filter(|c| c.one("traced").unwrap_or(0.0) == 1.0)
            .collect();
        runs.sort_by(|a, b| {
            let wall = |c: &ChildReport| c.one("trace.wall_s").unwrap_or(0.0);
            wall(a).total_cmp(&wall(b))
        });
        let chosen = runs
            .get(runs.len().saturating_sub(1) / 2)
            .ok_or("no traced child")?;
        println!("  layers of the median of {} traced children:", runs.len());
        for (name, unit) in crate::PER_LAYER {
            if let Ok(v) = chosen.one(name) {
                println!("  {name:<34} {unit:<6} {v:.6}");
                metrics.insert(name, v);
            }
        }
        println!(
            "  {:<34} {:<6} {:.6}",
            "trace.overhead_s", "s", metrics["trace.overhead_s"]
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Child process: one end-to-end run (`load_csv` → `run_resilient` →
/// `validate_report`), then the extra query and validation repetitions.
///
/// Arguments: `FILE INPUT QUERY_REPS VALIDATE_REPS TRACED EXPECTED_SIZE
/// EXPECTED_IDS_FINGERPRINT`.
pub fn child(argv: &[String]) -> Result<(), String> {
    let [file, input, reps, validate_reps, traced, size, ids_fp] = argv else {
        return Err("child-batch FILE INPUT REPS VALIDATE_REPS TRACED SIZE IDS_FP".to_string());
    };
    let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number `{s}`"));
    let (reps, validate_reps) = (parse(reps)?.max(1), parse(validate_reps)?.max(1));
    let traced = parse(traced)? == 1;
    let (size, ids_fp) = (parse(size)?, parse(ids_fp)?);
    report("input", parse(input)? as f64);
    let threads = crate::host_threads();
    let clock = WallClock::start();
    let tracer = if traced {
        Tracer::with_clock(Box::new(VecSink::new()), Box::new(clock))
    } else {
        Tracer::disabled()
    };

    let load0 = clock.us();
    let t = Instant::now();
    let data = Dataset::load_csv(file.clone(), Path::new(file))
        .map_err(|e| format!("cannot load {file}: {e}"))?;
    let setup = secs(t);
    let load1 = clock.us();
    let job = job(threads).with_tracer(tracer.clone());
    let run0 = clock.us();
    let t = Instant::now();
    let first = job
        .run_resilient(&data)
        .map_err(|audit| format!("plan audit refused the run:\n{}", audit.render_text()))?;
    let query = secs(t);
    let run1 = clock.us();
    let t = Instant::now();
    let valid = validate_report(&first, &data);
    let validate = secs(t);
    let val1 = clock.us();
    let wall = setup + query + validate;

    // Checks, outside every timed call.
    let mut attempted = 2u64;
    let mut failed = 0u64;
    if let Err(e) = &valid {
        eprintln!("perfbench: validate_report failed: {e}");
        failed += 1;
    }
    let got_ids = oracle::fingerprint(first.global_skyline.iter().map(|p| p.id()));
    if first.global_skyline.len() as u64 != size || got_ids != ids_fp {
        eprintln!(
            "perfbench: skyline has {} points, the benchmark's oracle expects {size}{}",
            first.global_skyline.len(),
            if got_ids == ids_fp {
                ""
            } else {
                " (ids differ)"
            }
        );
        failed += 1;
    }
    let answer = answer_fingerprint(&first);

    report("traced", if traced { 1.0 } else { 0.0 });
    report("setup_s", setup);
    report("query_s", query);
    report("validate_s", validate);
    report("wall_s", wall);
    report("sim_s", first.metrics.sim_total);
    if traced {
        let events = tracer.drain();
        let marks = Marks {
            load: (load0, load1),
            run: (run0, run1),
            validate_end: val1,
        };
        layers(&marks, &events, &first, &data, &job)?;
    } else {
        for _ in 1..reps {
            let t = Instant::now();
            let again = job
                .run_resilient(&data)
                .map_err(|_| "plan audit refused a repeat")?;
            report("query_s", secs(t));
            attempted += 1;
            if answer_fingerprint(&again) != answer {
                eprintln!("perfbench: a repeated query returned a different skyline");
                failed += 1;
            }
        }
        for _ in 1..validate_reps {
            let t = Instant::now();
            let again = validate_report(&first, &data);
            report("validate_s", secs(t));
            attempted += 1;
            if let Err(e) = again {
                eprintln!("perfbench: a repeated validate_report failed: {e}");
                failed += 1;
            }
        }
    }
    report("peak_rss_mb", crate::peak_rss_mb()?);
    report("attempted", attempted as f64);
    report("failed", failed as f64);
    println!("text answer {answer:016x}");
    Ok(())
}

/// The benchmark's own span boundaries on the shared clock, in µs.
struct Marks {
    load: (u64, u64),
    run: (u64, u64),
    validate_end: u64,
}

fn span_at(events: &[TraceEvent], name: &str) -> Result<(u64, u64), String> {
    let begin = events.iter().find_map(|e| match &e.kind {
        EventKind::SpanBegin { name: n } if n == name => Some(e.wall_us),
        _ => None,
    });
    let end = events.iter().find_map(|e| match &e.kind {
        EventKind::SpanEnd { name: n } if n == name => Some(e.wall_us),
        _ => None,
    });
    begin
        .zip(end)
        .ok_or_else(|| format!("trace has no complete `{name}` span"))
}

fn job_at(events: &[TraceEvent], suffix: &str) -> Result<(u64, u64), String> {
    let start = events.iter().find_map(|e| match &e.kind {
        EventKind::JobStarted { job } if job.ends_with(suffix) => Some(e.wall_us),
        _ => None,
    });
    let end = events.iter().find_map(|e| match &e.kind {
        EventKind::JobFinished { job, .. } if job.ends_with(suffix) => Some(e.wall_us),
        _ => None,
    });
    start
        .zip(end)
        .ok_or_else(|| format!("trace has no started and finished `*{suffix}` job"))
}

/// Derives the per-layer metrics of one traced run and prints them.
fn layers(
    m: &Marks,
    events: &[TraceEvent],
    run: &SkylineRunReport,
    data: &Dataset,
    job: &SkylineJob,
) -> Result<(), String> {
    let (dr0, dr1) = span_at(events, "driver.run")?;
    let (p0, p1) = span_at(events, "pipeline.partition_profile")?;
    let (j1s, j1e) = job_at(events, "-partition")?;
    let (j2s, j2e) = job_at(events, "-merge")?;
    let (run0, run1) = m.run;
    let tiles = [
        ("qws.ingest.busy_s", m.load.0, m.load.1),
        ("core.driver.plan_s", run0, dr0),
        ("core.pipeline.to_block_s", dr0, p0),
        ("core.pipeline.profile_s", p0, p1),
        ("core.pipeline.prelude_s", p1, j1s),
        ("mapreduce.job1.wall_s", j1s, j1e),
        ("core.driver.collect_s", j1e, j2s),
        ("mapreduce.job2.wall_s", j2s, j2e),
        ("core.driver.report_s", j2e, dr1),
        ("core.driver.finish_s", dr1, run1),
        ("core.validate.busy_s", run1, m.validate_end),
    ]
    .map(|(layer, start_us, end_us)| Tile {
        layer,
        start_us,
        end_us,
    });
    let tiling = tile(m.validate_end, &tiles)?;
    report("trace.wall_s", tiling.wall_us as f64 / 1e6);
    report("unattributed_s", tiling.unattributed_us as f64 / 1e6);
    for (layer, us) in &tiling.layers {
        report(layer, *us as f64 / 1e6);
    }

    let n = data.len() as f64;
    report(
        "qws.ingest.rows_per_s",
        n / tiling.seconds("qws.ingest.busy_s").max(1e-9),
    );
    let (mut kernel_us, mut comparisons, mut k_in, mut k_out) = (0u64, 0u64, 0u64, 0u64);
    let (mut shuffle_bytes, mut filtered) = (0u64, 0u64);
    for e in events {
        match &e.kind {
            EventKind::KernelRun {
                kernel,
                input,
                output,
                comparisons: c,
                elapsed_us,
                ..
            } if kernel != "presort-merge" => {
                kernel_us += elapsed_us;
                comparisons += c;
                k_in += input;
                k_out += output;
            }
            EventKind::ShufflePartition { job, bytes, .. } if job.ends_with("-partition") => {
                shuffle_bytes += bytes;
            }
            EventKind::RowsFiltered { filtered: f, .. } => filtered += f,
            _ => {}
        }
    }
    report("skyline.kernel.busy_s", kernel_us as f64 / 1e6);
    report("skyline.kernel.comparisons", comparisons as f64);
    report(
        "skyline.kernel.survivor_ratio",
        k_out as f64 / k_in.max(1) as f64,
    );
    report("mapreduce.job1.shuffle_bytes", shuffle_bytes as f64);
    report("mapreduce.job1.filter_ratio", filtered as f64 / n);
    let candidates = run.merge_candidates();
    report("mapreduce.job2.candidates", candidates as f64);
    report(
        "mapreduce.job2.survivor_ratio",
        run.global_skyline.len() as f64 / candidates.max(1) as f64,
    );
    report(
        "core.validate.dominance_tests",
        run.global_skyline.len() as f64 * n,
    );

    // Layers the program does not trace, timed directly on the same
    // inputs after the tiled run.
    let t = Instant::now();
    let fitted = build_partitioner(Algorithm::MrAngle, &job.config, data, SERVERS);
    report("core.fit.busy_s", secs(t));
    fitted.map_err(|e| format!("partitioner fit failed: {e}"))?;
    let t = Instant::now();
    let audit = job.audit(data);
    report("audit.plan.busy_s", secs(t));
    if audit.has_errors() {
        return Err("plan audit reported errors".to_string());
    }
    let mut block = PointBlock::with_capacity(data.dim(), data.len());
    for p in data.points() {
        block.push_point(p);
    }
    let k = job.config.filter_points_for(data.dim());
    let t = Instant::now();
    let chosen = select_filter_points(&block, k);
    report("skyline.filter.busy_s", secs(t));
    if chosen.len() != k.min(block.len()) {
        return Err(format!(
            "filter selection chose {} of {k} points",
            chosen.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_specs_are_tiny_and_named() {
        let s = spec("qws-100k-d10", true).expect("known");
        assert_eq!((s.n, s.d), (1000, 10));
        assert!(spec("nope", false).is_none());
    }
}
