//! Ingestion of the **real QWS dataset file** for users who have it.
//!
//! The QWS v2 distribution (Al-Masri & Mahmoud) is a CSV with one service
//! per line:
//!
//! ```text
//! Response Time, Availability, Throughput, Successability, Reliability,
//! Compliance, Best Practices, Latency, Documentation, Service Name, WSDL Address
//! ```
//!
//! [`load_qws_file`] parses that layout, **orients** every attribute to the
//! workspace's lower-is-better convention via the catalogue in
//! [`attributes`](crate::attributes), and reorders columns to the canonical
//! attribute order (response time first, latency second…). The real file has
//! no price column, so the loaded dataset has the nine QWS attributes; the
//! synthetic generator's `price` axis is simply absent.
//!
//! Lines starting with `#` and blank lines are skipped; by default a
//! malformed line is an error (silently dropping services would bias every
//! measurement). [`IngestOptions::max_bad_records`] relaxes that: up to the
//! budget, malformed rows are diverted to a [`DeadLetter`] report — with
//! their line numbers and reasons — instead of aborting the load, and every
//! quarantined row is traced as a `record_quarantined` event. A chaos
//! [`FaultPlan`] can additionally poison rows at the `ingest-row` site to
//! exercise exactly that path.

use crate::attributes::QWS_ATTRIBUTES;
use crate::dataset::Dataset;
use mrsky_chaos::{DeadLetter, FaultPlan, FaultSite};
use mrsky_trace::{EventKind, Tracer};
use skyline_algos::block::PointBlock;
use std::io::BufRead;
use std::path::Path;

/// Column order of the raw QWS v2 file.
const QWS_FILE_COLUMNS: [&str; 9] = [
    "response_time",
    "availability",
    "throughput",
    "successability",
    "reliability",
    "compliance",
    "best_practices",
    "latency",
    "documentation",
];

/// The canonical attribute order of datasets produced by [`load_qws_file`]
/// (the workspace order minus the synthetic `price` axis).
pub const LOADED_ATTRIBUTE_ORDER: [&str; 9] = [
    "response_time",
    "latency",
    "availability",
    "throughput",
    "successability",
    "reliability",
    "compliance",
    "best_practices",
    "documentation",
];

/// How leniently the ingest treats malformed input, and what chaos it
/// injects while reading.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// `None` (default): strict — the first malformed or non-finite row
    /// aborts the load with an error. `Some(n)`: up to `n` malformed rows
    /// are quarantined into the dead-letter report; row `n + 1` aborts.
    pub max_bad_records: Option<u64>,
    /// Seeded fault plan; rules at [`FaultSite::IngestRow`] poison
    /// otherwise-valid rows (one coordinate becomes NaN before
    /// validation), exercising the quarantine path deterministically.
    pub chaos: FaultPlan,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            max_bad_records: None,
            chaos: FaultPlan::off(),
        }
    }
}

impl IngestOptions {
    /// Strict ingest (the default): any malformed row is an error.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Lenient ingest: tolerate up to `budget` malformed rows.
    pub fn with_bad_record_budget(budget: u64) -> Self {
        Self {
            max_bad_records: Some(budget),
            chaos: FaultPlan::off(),
        }
    }
}

/// Everything a (possibly lenient) ingest produced.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The loaded, oriented dataset.
    pub dataset: Dataset,
    /// Service names, index-aligned with point ids.
    pub names: Vec<String>,
    /// Quarantined rows (empty on a strict or fully-clean load).
    pub dead_letter: DeadLetter,
}

/// Loads a QWS-format CSV file into an oriented [`Dataset`]. Returns the
/// dataset and the service names, index-aligned with point ids.
pub fn load_qws_file(path: &Path) -> std::io::Result<(Dataset, Vec<String>)> {
    load_qws_file_traced(path, &Tracer::disabled())
}

/// [`load_qws_file`] with ingestion tracing: emits
/// [`IngestStarted`](EventKind::IngestStarted)/[`IngestFinished`](EventKind::IngestFinished)
/// events on `tracer` and records `qws.ingest.*` counters (service count,
/// skipped comment/blank lines, values clamped into catalogue range) into
/// the process-global metrics registry.
///
/// This entry point is strict — a malformed or non-finite row aborts the
/// load with an error rather than being skipped — so
/// `IngestFinished.rejected` is 0 on every successful load. Use
/// [`load_qws_file_with`] with [`IngestOptions::max_bad_records`] for the
/// lenient, quarantining loader.
pub fn load_qws_file_traced(
    path: &Path,
    tracer: &Tracer,
) -> std::io::Result<(Dataset, Vec<String>)> {
    let report = load_qws_file_with(path, tracer, &IngestOptions::strict())?;
    Ok((report.dataset, report.names))
}

/// The full-control loader behind [`load_qws_file`]: tracing, optional
/// malformed-row quarantine, and chaos row poisoning (see
/// [`IngestOptions`]).
///
/// # Errors
///
/// I/O errors; any malformed row under strict options; or the
/// `max_bad_records + 1`-th malformed row under lenient options (the
/// dead-letter budget is exhausted — by then the report names every
/// offender, but the load still refuses to succeed).
pub fn load_qws_file_with(
    path: &Path,
    tracer: &Tracer,
    opts: &IngestOptions,
) -> std::io::Result<IngestReport> {
    // Services accumulate straight into one columnar block: a single flat
    // coordinate buffer for the whole file instead of one heap row per
    // service. Ids are row indices, so they are stable across any
    // block/point round-trip.
    let mut block = PointBlock::new(LOADED_ATTRIBUTE_ORDER.len());
    let mut names = Vec::new();
    let dead = ingest_rows(path, tracer, opts, |id, coords, name| {
        block
            .push(id, coords)
            .expect("parse_row validated dimension and finiteness");
        names.push(name);
    })?;
    if block.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "QWS file contains no services",
        ));
    }
    let n = block.len();
    Ok(IngestReport {
        dataset: Dataset::new(format!("qws-file(n={n})"), block.to_points()),
        names,
        dead_letter: dead,
    })
}

/// One bounded chunk of a streamed ingest: `chunk_rows` services (fewer in
/// the final chunk) as a columnar block whose ids continue the file's
/// 0-based row numbering from `first_id`.
#[derive(Debug, Clone)]
pub struct IngestChunk {
    /// The chunk's services, columnar.
    pub block: PointBlock,
    /// Service names, index-aligned with the block's rows.
    pub names: Vec<String>,
    /// Id of the chunk's first service (= services seen before it).
    pub first_id: u64,
}

/// Streaming ingest: parses the file exactly like [`load_qws_file_with`]
/// but hands services to `sink` in bounded [`IngestChunk`]s of at most
/// `chunk_rows` services, so peak memory is one chunk (plus the reader's
/// line buffer) instead of the whole file. Returns the dead-letter report.
///
/// # Errors
///
/// Same as [`load_qws_file_with`], plus `chunk_rows == 0` and empty files
/// are `InvalidData` errors.
pub fn load_qws_file_chunked(
    path: &Path,
    tracer: &Tracer,
    opts: &IngestOptions,
    chunk_rows: usize,
    sink: &mut dyn FnMut(IngestChunk),
) -> std::io::Result<DeadLetter> {
    if chunk_rows == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "chunk_rows must be at least 1",
        ));
    }
    let mut block = PointBlock::new(LOADED_ATTRIBUTE_ORDER.len());
    let mut names: Vec<String> = Vec::with_capacity(chunk_rows);
    let mut first_id = 0u64;
    let mut total = 0u64;
    let dead = ingest_rows(path, tracer, opts, |id, coords, name| {
        block
            .push(id, coords)
            .expect("parse_row validated dimension and finiteness");
        names.push(name);
        total += 1;
        if block.len() >= chunk_rows {
            sink(IngestChunk {
                block: std::mem::replace(&mut block, PointBlock::new(LOADED_ATTRIBUTE_ORDER.len())),
                names: std::mem::take(&mut names),
                first_id,
            });
            first_id = id + 1;
        }
    })?;
    if !block.is_empty() {
        sink(IngestChunk {
            block,
            names,
            first_id,
        });
    }
    if total == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "QWS file contains no services",
        ));
    }
    Ok(dead)
}

/// The shared row pump behind the whole-file and chunked loaders: opens the
/// file, streams it line by line through **one reused buffer** (no per-line
/// `String` allocation), parses/orients/validates each row, and calls
/// `on_row(id, coords, name)` for every accepted service. Emits the ingest
/// trace events and `qws.ingest.*` counters.
fn ingest_rows(
    path: &Path,
    tracer: &Tracer,
    opts: &IngestOptions,
    mut on_row: impl FnMut(u64, &[f64], String),
) -> std::io::Result<DeadLetter> {
    let source = path.display().to_string();
    tracer.emit(|| EventKind::IngestStarted {
        source: source.clone(),
    });
    let strict = opts.max_bad_records.is_none();
    let mut dead = DeadLetter::with_budget(opts.max_bad_records.unwrap_or(0) as usize);
    let mut skipped = 0u64;
    let mut clamped = 0u64;
    let mut services = 0u64;
    let file = std::fs::File::open(path)?;
    // attribute specs in raw-file column order, then an output permutation
    let file_specs: Vec<&crate::attributes::AttributeSpec> = QWS_FILE_COLUMNS
        .iter()
        .map(|name| {
            QWS_ATTRIBUTES
                .iter()
                .find(|a| a.name == *name)
                .expect("catalogue covers every QWS column")
        })
        .collect();
    let out_of: Vec<usize> = LOADED_ATTRIBUTE_ORDER
        .iter()
        .map(|name| {
            QWS_FILE_COLUMNS
                .iter()
                .position(|c| c == name)
                .expect("orders cover the same attributes")
        })
        .collect();

    let mut reader = std::io::BufReader::new(file);
    let mut buf = String::with_capacity(256);
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        let lineno_here = lineno;
        lineno += 1;
        let trimmed = buf.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            skipped += 1;
            continue;
        }
        let poison = opts
            .chaos
            .decide(FaultSite::IngestRow, &source, lineno_here as u64, 0);
        if let Some(kind) = poison {
            tracer.emit(|| EventKind::FaultInjected {
                site: FaultSite::IngestRow.as_str().to_string(),
                fault: kind.as_str().to_string(),
                scope: source.clone(),
                index: lineno_here as u64,
                attempt: 0,
            });
        }
        match parse_row(
            trimmed,
            &file_specs,
            &out_of,
            poison.is_some(),
            &mut clamped,
        ) {
            Ok((coords, name)) => {
                on_row(services, &coords, name);
                services += 1;
            }
            Err(reason) if strict => return Err(bad_line(lineno_here, &reason)),
            Err(reason) => {
                tracer.emit(|| EventKind::RecordQuarantined {
                    source: source.clone(),
                    line: (lineno_here + 1) as u64,
                    reason: reason.clone(),
                });
                if !dead.push(&source, (lineno_here + 1) as u64, &reason) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "too many bad records (budget {}):\n{}",
                            dead.max_bad_records,
                            dead.render()
                        ),
                    ));
                }
            }
        }
    }
    let registry = mrsky_trace::metrics();
    registry.incr("qws.ingest.services", services);
    registry.incr("qws.ingest.lines_skipped", skipped);
    registry.incr("qws.ingest.values_clamped", clamped);
    registry.incr("qws.ingest.quarantined", dead.len() as u64);
    tracer.emit(|| EventKind::IngestFinished {
        services,
        rejected: dead.len() as u64,
    });
    Ok(dead)
}

/// Parses, clamps, orients, and validates one CSV row. `Err` is the
/// human-readable rejection reason (strict loads turn it into an error,
/// lenient loads into a dead-letter record). When `poison` is set a chaos
/// fault corrupts the first QoS value before validation, so the row is
/// rejected exactly as a genuinely corrupt one would be.
fn parse_row(
    trimmed: &str,
    file_specs: &[&crate::attributes::AttributeSpec],
    out_of: &[usize],
    poison: bool,
    clamped: &mut u64,
) -> Result<([f64; 9], String), String> {
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if fields.len() < 10 {
        return Err("fewer than 10 fields".to_string());
    }
    let mut raw = [0.0f64; 9];
    for (i, slot) in raw.iter_mut().enumerate() {
        *slot = fields[i]
            .parse::<f64>()
            .map_err(|_| "non-numeric QoS field".to_string())?;
    }
    if poison {
        raw[0] = f64::NAN;
    }
    let mut coords = [0.0f64; 9];
    for (slot, &file_col) in coords.iter_mut().zip(out_of) {
        let spec = file_specs[file_col];
        // clamp into the catalogue range first: the real file has a
        // handful of out-of-range artefacts
        let v = raw[file_col].clamp(spec.range.0, spec.range.1);
        *clamped += u64::from(v.is_finite() && v != raw[file_col]);
        *slot = spec.orient(v);
    }
    // "NaN" parses as a perfectly legal f64, and poisoning injects one:
    // reject either before the row reaches the block
    if coords.iter().any(|c| !c.is_finite()) {
        return Err("non-finite QoS field".to_string());
    }
    Ok((coords, fields[9].to_string()))
}

fn bad_line(lineno: usize, what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("malformed QWS line {}: {what}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_fixture(lines: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qws-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "fixture-{}.csv",
            u64::from(std::process::id()) + lines.len() as u64 * 1000
        ));
        let mut f = std::fs::File::create(&path).unwrap();
        for l in lines {
            writeln!(f, "{l}").unwrap();
        }
        path
    }

    // RT, Avail, Thr, Succ, Rel, Compl, BP, Lat, Doc, Name, WSDL
    const GOOD: &str =
        "120.5, 95.0, 10.2, 96.0, 73.0, 80.0, 60.0, 30.5, 50.0, FastWeather, http://x/a?wsdl";
    const SLOW: &str =
        "2500.0, 40.0, 1.0, 45.0, 40.0, 50.0, 40.0, 900.0, 10.0, SlowWeather, http://x/b?wsdl";

    #[test]
    fn loads_orients_and_reorders() {
        let path = write_fixture(&["# header comment", GOOD, "", SLOW]);
        let (data, names) = load_qws_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(data.len(), 2);
        assert_eq!(data.dim(), 9);
        assert_eq!(names, vec!["FastWeather", "SlowWeather"]);
        // column 0 = oriented response time = raw - 37
        assert!((data.points()[0].coord(0) - (120.5 - 37.0)).abs() < 1e-9);
        // column 2 = oriented availability = 100 - raw
        assert!((data.points()[0].coord(2) - (100.0 - 95.0)).abs() < 1e-9);
        // the fast service dominates the slow one on every axis
        assert!(skyline_algos::dominance::dominates(
            &data.points()[0],
            &data.points()[1]
        ));
    }

    #[test]
    fn attribute_order_matches_catalogue_names() {
        for name in LOADED_ATTRIBUTE_ORDER {
            assert!(
                QWS_ATTRIBUTES.iter().any(|a| a.name == name),
                "{name} missing from catalogue"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let line = "10.0, 150.0, 10.0, 96.0, 73.0, 80.0, 60.0, 30.0, 50.0, Weird, http://x?wsdl";
        let path = write_fixture(&[line]);
        let (data, _) = load_qws_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // availability clamped to 100 → oriented 0; response time clamped to 37 → 0
        assert_eq!(data.points()[0].coord(2), 0.0);
        assert_eq!(data.points()[0].coord(0), 0.0);
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "1,2,3",                                                  // too few fields
            "a, 95, 10, 96, 73, 80, 60, 30, 50, Name, http://x?wsdl", // non-numeric
        ] {
            let path = write_fixture(&[GOOD, bad]);
            assert!(load_qws_file(&path).is_err(), "{bad}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn non_finite_values_are_errors() {
        let line = "NaN, 95.0, 10.0, 96.0, 73.0, 80.0, 60.0, 30.0, 50.0, NanSvc, http://x?wsdl";
        let path = write_fixture(&[GOOD, line]);
        let err = load_qws_file(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn ids_are_stable_across_block_round_trip() {
        let path = write_fixture(&[GOOD, SLOW, GOOD, SLOW]);
        let (data, names) = load_qws_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // ids are 0-based file order, aligned with names, and survive a
        // block round-trip verbatim
        let block = PointBlock::from_points(data.points()).unwrap();
        assert_eq!(block.ids(), &[0, 1, 2, 3]);
        assert_eq!(block.to_points(), data.points());
        assert_eq!(names.len(), block.len());
        for (i, p) in data.points().iter().enumerate() {
            assert_eq!(p.id(), i as u64);
        }
    }

    #[test]
    fn traced_load_emits_ingest_events_and_counters() {
        let path = write_fixture(&["# header", GOOD, "", SLOW]);
        let before = mrsky_trace::metrics().snapshot();
        mrsky_trace::metrics().set_enabled(true);
        let tracer = Tracer::in_memory();
        let (data, _) = load_qws_file_traced(&path, &tracer).unwrap();
        mrsky_trace::metrics().set_enabled(false);
        let after = mrsky_trace::metrics().snapshot();
        std::fs::remove_file(&path).ok();
        assert_eq!(data.len(), 2);
        let events = tracer.drain();
        assert!(matches!(
            events.first().map(|e| &e.kind),
            Some(EventKind::IngestStarted { source }) if source.contains("fixture")
        ));
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(EventKind::IngestFinished {
                services: 2,
                rejected: 0
            })
        ));
        let delta = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        // other tests may ingest concurrently while the flag is up: assert >=
        assert!(delta("qws.ingest.services") >= 2);
        assert!(delta("qws.ingest.lines_skipped") >= 2, "comment + blank");
    }

    #[test]
    fn untraced_load_emits_nothing() {
        let path = write_fixture(&[GOOD]);
        let tracer = Tracer::disabled();
        let (data, _) = load_qws_file_traced(&path, &tracer).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(data.len(), 1);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn empty_file_is_an_error() {
        let path = write_fixture(&["# only a comment"]);
        assert!(load_qws_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn write_named_fixture(tag: &str, lines: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qws-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fixture-{tag}-{}.csv", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        for l in lines {
            writeln!(f, "{l}").unwrap();
        }
        path
    }

    const BAD_SHORT: &str = "1,2,3";
    const BAD_NAN: &str =
        "NaN, 95.0, 10.0, 96.0, 73.0, 80.0, 60.0, 30.0, 50.0, NanSvc, http://x?wsdl";

    #[test]
    fn lenient_load_quarantines_bad_rows_and_reports_them() {
        let path = write_named_fixture("lenient", &[GOOD, BAD_SHORT, SLOW, BAD_NAN]);
        let tracer = Tracer::in_memory();
        let opts = IngestOptions::with_bad_record_budget(5);
        let report = load_qws_file_with(&path, &tracer, &opts).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.dataset.len(), 2);
        assert_eq!(report.names, vec!["FastWeather", "SlowWeather"]);
        // the dead letter names both offenders with 1-based line numbers
        let recs = report.dead_letter.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].line, 2);
        assert!(
            recs[0].reason.contains("fewer than 10"),
            "{}",
            recs[0].reason
        );
        assert_eq!(recs[1].line, 4);
        assert!(recs[1].reason.contains("non-finite"), "{}", recs[1].reason);
        assert!(!report.dead_letter.over_budget());
        // every quarantine is traced, and the finish event counts them
        let events = tracer.drain();
        let quarantined: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::RecordQuarantined { line, .. } => Some(*line),
                _ => None,
            })
            .collect();
        assert_eq!(quarantined, vec![2, 4]);
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::IngestFinished {
                services: 2,
                rejected: 2
            }
        )));
    }

    #[test]
    fn blown_bad_record_budget_aborts_with_a_dead_letter_report() {
        let path = write_named_fixture("budget", &[GOOD, BAD_SHORT, BAD_NAN]);
        let opts = IngestOptions::with_bad_record_budget(1);
        let err = load_qws_file_with(&path, &Tracer::disabled(), &opts).unwrap_err();
        std::fs::remove_file(&path).ok();
        let msg = err.to_string();
        assert!(msg.contains("too many bad records"), "{msg}");
        // the report still names every offender, including the one over budget
        assert!(msg.contains(":2: fewer than 10"), "{msg}");
        assert!(msg.contains(":3: non-finite"), "{msg}");
    }

    #[test]
    fn default_options_are_strict() {
        let path = write_named_fixture("strict", &[GOOD, BAD_SHORT]);
        let err =
            load_qws_file_with(&path, &Tracer::disabled(), &IngestOptions::default()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("malformed QWS line 2"), "{err}");
    }

    #[test]
    fn chaos_row_poisoning_is_deterministic_and_traced() {
        use mrsky_chaos::{FaultKind, SiteRule};
        // 30 valid rows differing only in response time (GOOD minus its
        // leading "120.5")
        let lines: Vec<String> = (0..30)
            .map(|i| format!("{}{}", 100 + i, &GOOD[5..]))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let path = write_named_fixture("poison", &refs);
        let opts = IngestOptions {
            max_bad_records: Some(30),
            chaos: FaultPlan {
                seed: 11,
                rules: vec![SiteRule {
                    site: FaultSite::IngestRow,
                    kind: FaultKind::PoisonRow,
                    permille: 400,
                }],
                ..FaultPlan::off()
            },
        };
        let tracer = Tracer::in_memory();
        let first = load_qws_file_with(&path, &tracer, &opts).unwrap();
        let second = load_qws_file_with(&path, &Tracer::disabled(), &opts).unwrap();
        std::fs::remove_file(&path).ok();
        // some rows poisoned, some survive; every row is accounted for
        assert!(!first.dead_letter.is_empty(), "seed 11 should poison rows");
        assert_ne!(first.dataset.len(), 0);
        assert_eq!(first.dataset.len() + first.dead_letter.len(), 30);
        // the same plan over the same file quarantines the same rows
        assert_eq!(first.dead_letter, second.dead_letter);
        assert_eq!(first.dataset.points(), second.dataset.points());
        // each poisoned row traced a fault injection and a quarantine
        let events = tracer.drain();
        let faults = events
            .iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::FaultInjected { site, fault, .. }
                    if site == "ingest-row" && fault == "poison-row")
            })
            .count();
        let quarantines = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RecordQuarantined { .. }))
            .count();
        assert_eq!(faults, first.dead_letter.len());
        assert_eq!(quarantines, first.dead_letter.len());
    }

    #[test]
    fn strict_load_fails_on_a_poisoned_row() {
        use mrsky_chaos::{FaultKind, SiteRule};
        let path = write_named_fixture("poison-strict", &[GOOD, SLOW]);
        let opts = IngestOptions {
            max_bad_records: None,
            chaos: FaultPlan {
                seed: 3,
                rules: vec![SiteRule {
                    site: FaultSite::IngestRow,
                    kind: FaultKind::PoisonRow,
                    permille: 999,
                }],
                ..FaultPlan::off()
            },
        };
        let err = load_qws_file_with(&path, &Tracer::disabled(), &opts).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn loaded_data_runs_through_the_skyline_stack() {
        use skyline_algos::prelude::*;
        let lines: Vec<String> = (0..40)
            .map(|i| {
                format!(
                    "{}, {}, 5.0, 80.0, 60.0, 70.0, 55.0, {}, 40.0, Svc{}, http://x/{i}?wsdl",
                    100.0 + 70.0 * f64::from(i % 7),
                    60.0 + 4.0 * f64::from(i % 9),
                    10.0 + 30.0 * f64::from(i % 5),
                    i
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let path = write_fixture(&refs);
        let (data, _) = load_qws_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let sky = naive_skyline_ids(data.points());
        assert!(!sky.is_empty() && sky.len() < data.len());
    }

    #[test]
    fn chunked_ingest_concatenates_to_the_whole_file() {
        let lines: Vec<String> = (0..13)
            .map(|i| format!("{}{}", 100 + i, &GOOD[5..]))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let path = write_named_fixture("chunked", &refs);
        let whole =
            load_qws_file_with(&path, &Tracer::disabled(), &IngestOptions::default()).unwrap();
        let mut chunks = Vec::new();
        let dead = load_qws_file_chunked(
            &path,
            &Tracer::disabled(),
            &IngestOptions::default(),
            5,
            &mut |c| chunks.push(c),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(dead.is_empty());
        // bounded chunks: 13 rows at 5/chunk → 5, 5, 3, ids contiguous
        assert_eq!(
            chunks.iter().map(|c| c.block.len()).collect::<Vec<_>>(),
            vec![5, 5, 3]
        );
        assert_eq!(
            chunks.iter().map(|c| c.first_id).collect::<Vec<_>>(),
            vec![0, 5, 10]
        );
        let mut names = Vec::new();
        let mut points = Vec::new();
        for c in &chunks {
            assert!(c.block.len() <= 5, "chunk exceeds its bound");
            assert_eq!(c.block.len(), c.names.len());
            names.extend(c.names.iter().cloned());
            points.extend(c.block.to_points());
        }
        assert_eq!(names, whole.names);
        assert_eq!(points, whole.dataset.points());
    }

    #[test]
    fn chunked_ingest_matches_whole_file_under_chaos_quarantine() {
        use mrsky_chaos::{FaultKind, SiteRule};
        let lines: Vec<String> = (0..30)
            .map(|i| format!("{}{}", 100 + i, &GOOD[5..]))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let path = write_named_fixture("chunked-chaos", &refs);
        let opts = IngestOptions {
            max_bad_records: Some(30),
            chaos: FaultPlan {
                seed: 11,
                rules: vec![SiteRule {
                    site: FaultSite::IngestRow,
                    kind: FaultKind::PoisonRow,
                    permille: 400,
                }],
                ..FaultPlan::off()
            },
        };
        let whole = load_qws_file_with(&path, &Tracer::disabled(), &opts).unwrap();
        let mut streamed = Vec::new();
        let dead = load_qws_file_chunked(&path, &Tracer::disabled(), &opts, 4, &mut |c| {
            streamed.extend(c.block.to_points());
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
        // the same rows are poisoned either way: ids, coords, and the
        // dead-letter report are identical
        assert_eq!(dead, whole.dead_letter);
        assert_eq!(streamed, whole.dataset.points());
    }

    #[test]
    fn chunked_ingest_rejects_zero_rows_and_empty_files() {
        let path = write_named_fixture("chunked-bad", &[GOOD]);
        let err = load_qws_file_chunked(
            &path,
            &Tracer::disabled(),
            &IngestOptions::default(),
            0,
            &mut |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        std::fs::remove_file(&path).ok();
        let empty = write_named_fixture("chunked-empty", &["# nothing"]);
        let err = load_qws_file_chunked(
            &empty,
            &Tracer::disabled(),
            &IngestOptions::default(),
            8,
            &mut |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("no services"), "{err}");
        std::fs::remove_file(&empty).ok();
    }
}
