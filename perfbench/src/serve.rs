//! `serve-churn`: `mrsky-serve` under an open-loop request stream.
//!
//! Twenty-four tenants are preloaded to a live set of [`LIVE_TARGET`] points in
//! d = 3 over the loadgen value domain (integers 0..63). The stream then
//! keeps each live set near that size: inserts and deletes balance, 30% of
//! requests are queries, and 3% of inserts carry a poisoned (NaN) payload,
//! as in `mrsky loadgen`. One generator thread issues request `i` when it
//! is due, at `i / rate` seconds, whether or not the previous one has
//! finished, and times it from that due time.

use crate::oracle;
use crate::stats::{mean_over_inputs, median, percentile, percentile_supported};
use crate::tiling::{tile, Tile, WallClock};
use crate::{print_env, print_row, report, run_child, Args, ChildReport, Outcome};
use mrsky_chaos::FaultPlan;
use mrsky_serve::{Mutation, Op, ServeConfig, ServeError, SkylineService};
use mrsky_trace::{Tracer, VecSink};
use skyline_algos::point::Point;
use std::collections::BTreeMap;
use std::time::Instant;

/// Tenants. Every request pays for a skyline extraction that is
/// quadratic in its tenant's skyband, whose size hangs on the few points
/// near the origin of the 64-value grid. With three tenants (as
/// `mrsky loadgen` uses) the medians swung with the seed; twenty-four
/// average that out.
const TENANTS: usize = 24;
const DIM: usize = 3;
/// Live points per tenant, kept through the run.
const LIVE_TARGET: usize = 5000;
const QUERY_PERMILLE: u64 = 300;
/// `mrsky loadgen`'s default poison rate.
const POISON_PERMILLE: u64 = 30;
/// Offered rate of the measured open-loop stream: about a quarter of the
/// service's capacity on a 2-core host, so most requests find it idle and
/// the tail shows the queueing behind skyband rebuilds.
const RATE_OPS_S: f64 = 250.0;
/// Requests in the measured stream: 30% are queries, so every class
/// yields over 1000 samples, which a p99 needs.
const MIN_STREAM: usize = 4000;
/// All-request p99 limit behind `serve.max_rate_ops_s`: about two
/// skyband rebuilds of a 5k live set (~11 ms each on a 2-core host), so a
/// rate meets it while a request waits behind at most about one rebuild.
const LATENCY_LIMIT_US: f64 = 25_000.0;
/// Offered rates tried for `serve.max_rate_ops_s`, ascending; the first
/// rate that misses the limit ends the ladder.
const LADDER_OPS_S: [f64; 12] = [
    200.0, 250.0, 300.0, 400.0, 500.0, 650.0, 800.0, 1000.0, 1300.0, 1600.0, 2000.0, 2500.0,
];
/// Requests per ladder step: enough for a p99 with ten samples beyond it.
const LADDER_STEP_OPS: usize = 1000;
/// Request scripts per end-to-end run, each generated from its own seed
/// derived from `--seed`: replays take them in turn and every figure is a
/// mean over them, so one script's skyband sizes do not set the run's
/// figures.
const SCRIPTS: usize = 4;

/// Request class, for per-class latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Insert,
    Delete,
    Query,
    /// An insert whose payload is poisoned: the service must refuse it.
    Poison,
}

impl Class {
    const TIMED: [Class; 3] = [Class::Insert, Class::Delete, Class::Query];

    fn name(self) -> &'static str {
        match self {
            Class::Insert => "insert",
            Class::Delete => "delete",
            Class::Query => "query",
            Class::Poison => "poison",
        }
    }

    fn of(op: &Op) -> Class {
        match op {
            Op::Query { .. } => Class::Query,
            Op::Mutate {
                mutation: Mutation::Delete { .. },
                ..
            } => Class::Delete,
            Op::Mutate {
                mutation: Mutation::Insert { coords, .. },
                ..
            } if coords.iter().any(|c| !c.is_finite()) => Class::Poison,
            Op::Mutate { .. } => Class::Insert,
        }
    }
}

/// splitmix64: the benchmark's own seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The generated requests: the preload, then the measured stream.
struct Script {
    preload: Vec<Op>,
    stream: Vec<Op>,
}

fn tenant(t: usize) -> String {
    format!("tenant-{t}")
}

/// Generates the preload and `stream_ops` stream requests from `seed`.
fn script(seed: u64, live_target: usize, stream_ops: usize) -> Script {
    let mut rng = Rng(seed ^ 0x7365_7276_652d_6368);
    let mut next_id = 1u64;
    let mut seq = [0u64; TENANTS];
    let mut live: Vec<Vec<u64>> = vec![Vec::new(); TENANTS];
    let mut insert = |rng: &mut Rng, t: usize, live: &mut Vec<Vec<u64>>, poison: bool| {
        let id = next_id;
        next_id += 1;
        let coords: Vec<f64> = (0..DIM)
            .map(|d| {
                if poison && d == 0 {
                    f64::NAN
                } else {
                    rng.below(64) as f64
                }
            })
            .collect();
        if !poison {
            live[t].push(id);
        }
        Mutation::Insert { id, coords }
    };
    let mut preload = Vec::with_capacity(TENANTS * live_target);
    for _ in 0..live_target {
        for (t, seq) in seq.iter_mut().enumerate() {
            *seq += 1;
            let mutation = insert(&mut rng, t, &mut live, false);
            preload.push(Op::Mutate {
                tenant: tenant(t),
                seq: *seq,
                mutation,
            });
        }
    }
    let mut stream = Vec::with_capacity(stream_ops);
    for _ in 0..stream_ops {
        let t = rng.below(TENANTS as u64) as usize;
        if rng.below(1000) < QUERY_PERMILLE {
            stream.push(Op::Query { tenant: tenant(t) });
            continue;
        }
        // Deletes are as likely as inserts at the target size; a drift of
        // 100 points either way makes one of them certain.
        let drift = live[t].len() as i64 - live_target as i64;
        let delete_permille = (500 + drift * 5).clamp(0, 1000) as u64;
        seq[t] += 1;
        let mutation = if !live[t].is_empty() && rng.below(1000) < delete_permille {
            let pick = rng.below(live[t].len() as u64) as usize;
            Mutation::Delete {
                id: live[t].swap_remove(pick),
            }
        } else {
            let poison = rng.below(1000) < POISON_PERMILLE;
            insert(&mut rng, t, &mut live, poison)
        };
        stream.push(Op::Mutate {
            tenant: tenant(t),
            seq: seq[t],
            mutation,
        });
    }
    Script { preload, stream }
}

/// Due-time accounting of one open-loop request, all in ns since the
/// stream's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the request was due.
    pub due: u64,
    /// When the previous request's call returned.
    pub prev_end: u64,
    /// When this request's call started.
    pub start: u64,
    /// When it returned.
    pub end: u64,
}

impl Timing {
    /// What the client saw: from due time to the answer.
    pub fn latency(&self) -> u64 {
        self.end.saturating_sub(self.due)
    }

    /// Time the request waited behind the previous one.
    pub fn wait(&self) -> u64 {
        self.prev_end.min(self.start).saturating_sub(self.due)
    }

    /// How late the generator itself issued the request once it could:
    /// after its due time and after the previous call returned.
    pub fn lateness(&self) -> u64 {
        self.start.saturating_sub(self.due.max(self.prev_end))
    }
}

/// What a service call returned, kept for checking after the stream.
enum Answer {
    Applied,
    Refused(ServeError),
    Skyline { points: Vec<Point>, stale: bool },
    QueryFailed(ServeError),
}

struct Driven {
    timings: Vec<Timing>,
    answers: Vec<Answer>,
    wall_ns: u64,
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn call(svc: &SkylineService, op: &Op) -> Answer {
    match op {
        Op::Mutate {
            tenant,
            seq,
            mutation,
        } => match svc.apply(tenant, *seq, mutation) {
            Ok(_) => Answer::Applied,
            Err(e) => Answer::Refused(e),
        },
        Op::Query { tenant } => match svc.query(tenant) {
            Ok(r) => Answer::Skyline {
                points: r.skyline,
                stale: r.stale,
            },
            Err(e) => Answer::QueryFailed(e),
        },
    }
}

/// Issues `ops` in order from this thread. With a rate, request `i` is
/// due at `i / rate` s (open loop); without one, each is due when the
/// previous returns (closed loop).
fn drive(svc: &SkylineService, ops: &[Op], rate: Option<f64>) -> Driven {
    let mut timings = Vec::with_capacity(ops.len());
    let mut answers = Vec::with_capacity(ops.len());
    let t0 = Instant::now();
    let mut prev_end = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let due = match rate {
            Some(r) => (i as f64 / r * 1e9) as u64,
            None => prev_end,
        };
        // Spin rather than sleep, so no request pays the generator's
        // wake-up delay. No pause hint either: under a hypervisor a pause
        // loop can be taken for lock spinning and the vCPU descheduled.
        while ns_since(t0) < due {}
        let start = ns_since(t0);
        let answer = call(svc, op);
        let end = ns_since(t0);
        timings.push(Timing {
            due,
            prev_end,
            start,
            end,
        });
        answers.push(answer);
        prev_end = end;
    }
    Driven {
        timings,
        answers,
        wall_ns: prev_end,
    }
}

/// A preloaded service, and how long building it took.
fn setup(script: &Script, tracer: Tracer) -> Result<(SkylineService, f64), String> {
    let t = Instant::now();
    let svc = SkylineService::new(ServeConfig::default(), FaultPlan::off(), tracer);
    for op in &script.preload {
        if let Answer::Refused(e) = call(&svc, op) {
            return Err(format!("preload insert refused: {e}"));
        }
    }
    Ok((svc, t.elapsed().as_secs_f64()))
}

/// The acknowledged live sets, mirrored outside the service.
struct Mirror {
    live: Vec<BTreeMap<u64, Vec<f64>>>,
    /// Cached oracle answer per tenant, dropped on every mutation.
    cached: Vec<Option<Vec<u64>>>,
}

impl Mirror {
    fn new() -> Self {
        Self {
            live: vec![BTreeMap::new(); TENANTS],
            cached: vec![None; TENANTS],
        }
    }

    fn index(tenant: &str) -> usize {
        tenant
            .strip_prefix("tenant-")
            .and_then(|t| t.parse().ok())
            .unwrap_or(0)
    }

    fn apply(&mut self, tenant: &str, m: &Mutation) {
        let t = Self::index(tenant);
        self.cached[t] = None;
        match m {
            Mutation::Insert { id, coords } => {
                self.live[t].entry(*id).or_insert_with(|| coords.clone());
            }
            Mutation::Delete { id } => {
                self.live[t].remove(id);
            }
        }
    }

    /// Whether `points` is exactly the tenant's skyline: same ids, and
    /// bit-identical coordinates.
    fn matches(&mut self, tenant: &str, points: &[Point]) -> bool {
        let t = Self::index(tenant);
        let live = &self.live[t];
        let want = self.cached[t].get_or_insert_with(|| {
            oracle::skyline_ids(live.iter().map(|(id, c)| (*id, c.as_slice())))
        });
        let mut got: Vec<&Point> = points.iter().collect();
        got.sort_unstable_by_key(|p| p.id());
        got.len() == want.len()
            && got.iter().zip(want.iter()).all(|(p, id)| {
                p.id() == *id
                    && live.get(id).is_some_and(|c| {
                        c.len() == p.coords().len()
                            && c.iter()
                                .zip(p.coords())
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    })
            })
    }
}

/// Outcome counts of a checked request sequence.
#[derive(Debug, Default)]
struct Checked {
    attempted: u64,
    failed: u64,
    stale: u64,
}

/// Replays the script against a fresh mirror and checks every answer.
/// Poisoned inserts must be refused as poison; every other request must
/// succeed, and every fresh query must equal the oracle's skyline.
fn check(script: &Script, ops: &[Op], answers: &[Answer]) -> (Checked, Mirror) {
    let mut mirror = Mirror::new();
    for op in &script.preload {
        if let Op::Mutate {
            tenant, mutation, ..
        } = op
        {
            mirror.apply(tenant, mutation);
        }
    }
    let mut c = Checked::default();
    for (op, answer) in ops.iter().zip(answers) {
        c.attempted += 1;
        let ok = match (op, answer) {
            (Op::Mutate { .. }, Answer::Refused(ServeError::PoisonMutation { .. })) => {
                Class::of(op) == Class::Poison
            }
            (
                Op::Mutate {
                    tenant, mutation, ..
                },
                Answer::Applied,
            ) => {
                mirror.apply(tenant, mutation);
                Class::of(op) != Class::Poison
            }
            (Op::Query { tenant }, Answer::Skyline { points, stale }) => {
                if *stale {
                    c.stale += 1;
                    true
                } else {
                    mirror.matches(tenant, points)
                }
            }
            (_, Answer::Refused(e) | Answer::QueryFailed(e)) => {
                eprintln!("perfbench: {} refused: {e}", Class::of(op).name());
                false
            }
            _ => false,
        };
        if !ok {
            c.failed += 1;
        }
    }
    (c, mirror)
}

/// Quiesces: every tenant's final skyline must equal the oracle's,
/// bit for bit.
fn check_final(svc: &SkylineService, mirror: &mut Mirror) -> u64 {
    (0..TENANTS)
        .filter(|&t| match svc.query(&tenant(t)) {
            Ok(r) => r.stale || !mirror.matches(&tenant(t), &r.skyline),
            Err(_) => true,
        })
        .count() as u64
}

/// Checks one driven sequence end to end, final skylines included.
fn checked_run(script: &Script, svc: &SkylineService, ops: &[Op], answers: &[Answer]) -> Checked {
    let (mut c, mut mirror) = check(script, ops, answers);
    c.attempted += TENANTS as u64;
    c.failed += check_final(svc, &mut mirror);
    c
}

impl Checked {
    fn add(&mut self, other: &Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.stale += other.stale;
    }
}

fn class_samples(ops: &[Op], timings: &[Timing], class: Class, f: fn(&Timing) -> u64) -> Vec<f64> {
    ops.iter()
        .zip(timings)
        .filter(|(op, _)| Class::of(op) == class)
        .map(|(_, t)| f(t) as f64 / 1e3)
        .collect()
}

/// Live points per tenant and measured stream requests for one child.
fn sizes(smoke: bool) -> (usize, usize) {
    if smoke {
        return (200, 400);
    }
    (LIVE_TARGET, MIN_STREAM)
}

/// Runs `serve-churn` from the parent: one fresh child process.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (live, stream) = sizes(args.smoke);
    print_env(
        "serve-churn",
        args,
        &[
            ("scripts", SCRIPTS.to_string()),
            ("tenants", TENANTS.to_string()),
            ("d", DIM.to_string()),
            ("distribution", "uniform-int-0..63".to_string()),
            ("live_per_tenant", live.to_string()),
            ("stream_requests", stream.to_string()),
            ("rate_ops_s", RATE_OPS_S.to_string()),
            ("latency_limit_us", LATENCY_LIMIT_US.to_string()),
            ("generator", "open loop, one thread".to_string()),
        ],
    );
    let child = run_child(&[
        "child-serve".to_string(),
        args.seed.to_string(),
        live.to_string(),
        stream.to_string(),
        (args.seconds as u64).to_string(),
        u8::from(args.trace).to_string(),
        u8::from(args.smoke).to_string(),
    ])?;
    summarize(args, &child)
}

fn summarize(args: &Args, c: &ChildReport) -> Result<Outcome, String> {
    let attempted = c.one("attempted")? as u64;
    let failed = c.one("failed")? as u64;
    println!(
        "serve-churn (trace={}): {attempted} checked requests, {failed} failed, {} stale",
        u8::from(args.trace),
        c.one("stale")?
    );
    let mut metrics = BTreeMap::new();
    if !args.trace {
        print_row("setup_s", "s", c.all("setup_s"), 4);
        print_row("wall_s (closed-loop stream)", "s", c.all("wall_s"), 4);
        print_row("query_us (closed-loop call)", "us", c.all("query_us"), 1);
        print_row(
            "query_us (median call per replay)",
            "us",
            c.all("query_med_us"),
            1,
        );
        print_row("peak_rss_mb", "MB", c.all("peak_rss_mb"), 1);
        println!(
            "  {:<34} {:<6} {}",
            "failed_frac",
            "ratio",
            failed as f64 / attempted.max(1) as f64
        );
        // (script, value) pairs, one per replay
        let paired = |name: &str| -> Vec<(usize, f64)> {
            c.all("script")
                .iter()
                .zip(c.all(name))
                .map(|(j, v)| (*j as usize, *v))
                .collect()
        };
        // The result line: per script, the median over its replays,
        // averaged over the scripts.
        let stat = |name: &str| {
            mean_over_inputs(&paired(name), median).ok_or(format!("child reported no {name}"))
        };
        metrics.insert("setup_s", stat("setup_s")?);
        metrics.insert("wall_s", stat("wall_s")?);
        metrics.insert("query_s", stat("query_med_us")? / 1e6);
        metrics.insert(
            "peak_rss_mb",
            median(c.all("peak_rss_mb")).ok_or("child reported no peak_rss_mb")?,
        );
        for (name, unit) in crate::END_TO_END {
            println!("  result {name:<27} {unit:<6} {:.9}", metrics[name]);
        }
    } else {
        for class in Class::TIMED {
            let name = format!("{}_latency_us", class.name());
            print_row(&format!("{name} (@{RATE_OPS_S}/s)"), "us", c.all(&name), 1);
        }
        for (step, result) in &c.text {
            println!("  {step:<34} {result}");
        }
        for (name, unit) in crate::PER_LAYER {
            if let Ok(v) = c.one(name) {
                println!("  {name:<34} {unit:<6} {v}");
                metrics.insert(name, v);
            }
        }
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Child process: set up, drive, check, report.
///
/// Arguments: `SEED LIVE_PER_TENANT STREAM_REQUESTS SECONDS TRACED SMOKE`.
pub fn child(argv: &[String]) -> Result<(), String> {
    let [seed, live, stream, seconds, traced, smoke] = argv else {
        return Err("child-serve SEED LIVE STREAM SECONDS TRACED SMOKE".to_string());
    };
    let started = Instant::now();
    let num = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number `{s}`"));
    let (seed, live, stream) = (num(seed)?, num(live)? as usize, num(stream)? as usize);
    let (seconds, traced, smoke) = (num(seconds)?, num(traced)? == 1, num(smoke)? == 1);
    let ladder_ops = if smoke { 100 } else { LADDER_STEP_OPS };
    // Generated when a replay starts, so only one script is held at a
    // time and peak memory is the service's, not the scripts'.
    let script_for = |j: usize| {
        script(
            crate::input_seed(seed, j),
            live,
            stream + ladder_ops * LADDER_OPS_S.len(),
        )
    };
    let mut total = Checked::default();
    if traced {
        let script = &script_for(0);
        let measured = &script.stream[..stream];
        // Open loop at the fixed rate: per-class latency from due time.
        let (open_svc, _) = setup(script, Tracer::disabled())?;
        let open = drive(&open_svc, measured, Some(RATE_OPS_S));
        total.add(&checked_run(script, &open_svc, measured, &open.answers));
        drop(open_svc);
        for class in Class::TIMED {
            for v in class_samples(measured, &open.timings, class, Timing::latency) {
                report(&format!("{}_latency_us", class.name()), v);
            }
        }
        let (svc, _) = setup(script, Tracer::disabled())?;
        let closed = drive(&svc, measured, None);
        layers(script, measured, &open, closed.wall_ns, &mut total)?;
        // The ladder continues the closed-loop service's stream.
        let (mut ops, mut answers) = (measured.to_vec(), closed.answers);
        let rest = &script.stream[stream..];
        report(
            "serve.max_rate_ops_s",
            ladder(&svc, rest, ladder_ops, &mut ops, &mut answers),
        );
        total.add(&checked_run(script, &svc, &ops, &answers));
    } else {
        // Closed-loop replays of the scripts, in turn, on fresh services
        // until the run's time is spent: each gives a set-up, a `wall_s`
        // and the query call times.
        let mut replays = 0;
        while replays < SCRIPTS || started.elapsed().as_secs() < seconds {
            let j = replays % SCRIPTS;
            let script = &script_for(j);
            let measured = &script.stream[..stream];
            let (svc, s) = setup(script, Tracer::disabled())?;
            let closed = drive(&svc, measured, None);
            let queries = class_samples(measured, &closed.timings, Class::Query, Timing::latency);
            report("script", j as f64);
            report("setup_s", s);
            report("wall_s", closed.wall_ns as f64 / 1e9);
            report("query_med_us", median(&queries).unwrap_or(f64::NAN));
            for v in queries {
                report("query_us", v);
            }
            total.add(&checked_run(script, &svc, measured, &closed.answers));
            replays += 1;
        }
    }
    report("peak_rss_mb", crate::peak_rss_mb()?);
    report("attempted", total.attempted as f64);
    report("failed", total.failed as f64);
    report("stale", total.stale as f64);
    Ok(())
}

/// The traced child's per-layer metrics.
fn layers(
    script: &Script,
    measured: &[Op],
    open: &Driven,
    closed_wall_ns: u64,
    total: &mut Checked,
) -> Result<(), String> {
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
    for class in Class::TIMED {
        let v = class_samples(measured, &open.timings, class, Timing::latency);
        if !percentile_supported(v.len(), 99.0) {
            eprintln!(
                "perfbench: only {} {} samples; its p99 has fewer than ten beyond it",
                v.len(),
                class.name()
            );
        }
        report(&format!("serve.{}.p50_us", class.name()), pct(&v, 50.0));
        report(&format!("serve.{}.p99_us", class.name()), pct(&v, 99.0));
    }
    let all = |f: fn(&Timing) -> u64| -> Vec<f64> {
        open.timings.iter().map(|t| f(t) as f64 / 1e3).collect()
    };
    report("serve.wait_p99_us", pct(&all(Timing::wait), 99.0));
    report("loadgen.lateness_p99_us", pct(&all(Timing::lateness), 99.0));

    // The same closed-loop stream with the tracer on: its extra wall time
    // is the tracing overhead, and its calls tile its wall axis.
    let clock = WallClock::start();
    let (traced_svc, _) = setup(
        script,
        Tracer::with_clock(Box::new(VecSink::new()), Box::new(clock)),
    )?;
    let traced = drive(&traced_svc, measured, None);
    total.add(&checked_run(script, &traced_svc, measured, &traced.answers));
    let traced_wall = traced.wall_ns as f64 / 1e9;
    report(
        "trace.overhead_s",
        traced_wall - closed_wall_ns as f64 / 1e9,
    );
    let tiles: Vec<Tile> = measured
        .iter()
        .zip(&traced.timings)
        .map(|(op, t)| Tile {
            layer: if Class::of(op) == Class::Query {
                "serve.query.busy_s"
            } else {
                "serve.apply.busy_s"
            },
            start_us: t.start / 1000,
            end_us: t.end / 1000,
        })
        .collect();
    let tiling = tile(traced.wall_ns / 1000, &tiles)?;
    report("trace.wall_s", tiling.wall_us as f64 / 1e6);
    report("unattributed_s", tiling.unattributed_us as f64 / 1e6);
    for (layer, us) in &tiling.layers {
        report(layer, *us as f64 / 1e6);
    }
    let stats = traced_svc.stats();
    let deletes = measured
        .iter()
        .filter(|op| Class::of(op) == Class::Delete)
        .count();
    report(
        "skyline.skyband.repairs",
        stats.skyband.repairs_from_buffer as f64,
    );
    report(
        "skyline.skyband.rebuilds",
        stats.skyband.underflow_rebuilds as f64,
    );
    report(
        "skyline.skyband.rebuilds_per_delete",
        stats.skyband.underflow_rebuilds as f64 / deletes.max(1) as f64,
    );
    report("serve.dlq.dead_lettered", stats.dead_lettered as f64);
    report("serve.admission.shed", stats.shed as f64);
    report("serve.breaker.rejected", stats.breaker_rejected as f64);

    Ok(())
}

/// Capacity: the highest ladder rate whose all-request p99 meets
/// [`LATENCY_LIMIT_US`] with no growing backlog. Steps continue `svc`'s
/// stream; their requests and answers are appended for checking.
fn ladder(
    svc: &SkylineService,
    rest: &[Op],
    step_ops: usize,
    ops: &mut Vec<Op>,
    answers: &mut Vec<Answer>,
) -> f64 {
    let mut max_rate = 0.0;
    for (step, rate) in LADDER_OPS_S.iter().enumerate() {
        let chunk = &rest[step * step_ops..(step + 1) * step_ops];
        let d = drive(svc, chunk, Some(*rate));
        let lat: Vec<f64> = d.timings.iter().map(|t| t.latency() as f64 / 1e3).collect();
        let p99 = percentile(&lat, 99.0).unwrap_or(f64::INFINITY);
        // A backlog that grows leaves the last request waiting longest.
        let backlog_us = d
            .timings
            .last()
            .map_or(0, |t| t.start.saturating_sub(t.due)) as f64
            / 1e3;
        let meets = p99 <= LATENCY_LIMIT_US && backlog_us <= LATENCY_LIMIT_US;
        println!(
            "text ladder@{:05}_ops_s p99 {p99:.1} us, final backlog {backlog_us:.1} us, {}",
            *rate as u32,
            if meets {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        ops.extend_from_slice(chunk);
        answers.extend(d.answers);
        if !meets {
            break;
        }
        max_rate = *rate;
    }
    max_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_time_counts_from_the_due_time() {
        // due at 100, but the previous call ran until 250; the generator
        // then took 5 more to issue it, and the call took 40
        let t = Timing {
            due: 100,
            prev_end: 250,
            start: 255,
            end: 295,
        };
        assert_eq!(t.latency(), 195, "from due time, not from the call");
        assert_eq!(t.wait(), 150, "queued behind the previous request");
        assert_eq!(t.lateness(), 5, "the generator's own delay");
        assert_eq!(t.wait() + t.lateness() + (t.end - t.start), t.latency());
    }

    #[test]
    fn an_idle_service_imposes_no_wait() {
        let t = Timing {
            due: 100,
            prev_end: 60,
            start: 103,
            end: 110,
        };
        assert_eq!((t.wait(), t.lateness(), t.latency()), (0, 3, 10));
    }

    #[test]
    fn script_is_seeded_and_holds_the_live_size() {
        let a = script(5, 300, 3000);
        let b = script(5, 300, 3000);
        assert_eq!(format!("{:?}", a.stream), format!("{:?}", b.stream));
        assert_ne!(
            format!("{:?}", a.stream),
            format!("{:?}", script(6, 300, 3000).stream)
        );
        let mut mirror = Mirror::new();
        for op in a.preload.iter().chain(&a.stream) {
            if let Op::Mutate {
                tenant, mutation, ..
            } = op
            {
                if Class::of(op) != Class::Poison {
                    mirror.apply(tenant, mutation);
                }
            }
        }
        for live in &mirror.live {
            assert!(
                (200..=400).contains(&live.len()),
                "live size {}",
                live.len()
            );
        }
        let count = |c: Class| a.stream.iter().filter(|op| Class::of(op) == c).count();
        assert!(count(Class::Query) > 700 && count(Class::Query) < 1100);
        assert!(count(Class::Poison) > 0);
    }

    #[test]
    fn a_fault_free_stream_checks_clean_and_a_wrong_answer_does_not() {
        let s = script(9, 50, 400);
        let (svc, _) = setup(&s, Tracer::disabled()).expect("preload");
        let mut d = drive(&svc, &s.stream, None);
        let c = checked_run(&s, &svc, &s.stream, &d.answers);
        assert_eq!((c.failed, c.stale), (0, 0));
        assert_eq!(c.attempted, 400 + TENANTS as u64);
        let q = s
            .stream
            .iter()
            .position(|op| Class::of(op) == Class::Query)
            .expect("a query");
        if let Answer::Skyline { points, .. } = &mut d.answers[q] {
            points.pop();
        }
        let (bad, _) = check(&s, &s.stream, &d.answers);
        assert_eq!(bad.failed, 1);
    }
}
