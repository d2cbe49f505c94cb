//! Observability overhead guard: instrumentation must be free when nobody
//! is watching.
//!
//! Every hot kernel in `skyline_algos` now carries `mrsky-trace` recording
//! sites (an atomic-flag check per call when the registry is disabled, a
//! sharded-mutex update when enabled). This bench measures `block_bnl` at
//! d=6 over 100k correlated (QWS-like) services — the paper's central
//! workload shape — three ways:
//!
//! * registry **disabled** (the default everyone pays),
//! * registry **enabled** (what `--metrics` costs),
//! * a disabled [`Tracer`] emit site in a tight loop (what a
//!   `tracer.emit(..)` costs when no sink is attached).
//!
//! Outside `--test` smoke runs the guard *asserts* that the enabled
//! registry stays within 5% of the disabled path on the kernel, and writes
//! the medians to `BENCH_trace.json` at the workspace root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mrsky_trace::{EventKind, Tracer};
use qws_data::{generate_synthetic, Distribution, SyntheticConfig};
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{block_bnl_stats, BnlConfig};
use std::time::Instant;

const N: usize = 100_000;
const D: usize = 6;

/// Maximum relative cost of an enabled metrics registry on the BNL kernel.
const MAX_OVERHEAD_PCT: f64 = 5.0;

fn dataset() -> PointBlock {
    let pts = generate_synthetic(&SyntheticConfig::new(N, D, Distribution::Correlated));
    PointBlock::from_points(pts.points()).expect("uniform dims")
}

fn median_wall_ns(samples: usize, mut f: impl FnMut() -> usize) -> f64 {
    black_box(f()); // warm-up
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn bench_trace_overhead(c: &mut Criterion) {
    let block = dataset();
    let cfg = BnlConfig::default();
    let registry = mrsky_trace::metrics();
    registry.set_enabled(false);

    let mut group = c.benchmark_group(format!("trace_overhead/corr_d{D}_n{N}"));
    group.sample_size(10);
    group.bench_function("block_bnl_registry_disabled", |b| {
        b.iter(|| block_bnl_stats(&block, &cfg).0.len());
    });
    group.bench_function("block_bnl_registry_enabled", |b| {
        registry.set_enabled(true);
        b.iter(|| block_bnl_stats(&block, &cfg).0.len());
        registry.set_enabled(false);
    });
    let tracer = Tracer::disabled();
    group.bench_function("disabled_tracer_emit_x1k", |b| {
        b.iter(|| {
            for i in 0..1000u64 {
                tracer.emit(|| EventKind::KernelRun {
                    kernel: "bnl".to_string(),
                    input: i,
                    output: 0,
                    comparisons: 0,
                    passes: 1,
                    elapsed_us: 0,
                });
            }
            0usize
        });
    });
    group.finish();

    if std::env::args().any(|a| a == "--test") {
        return;
    }
    registry.set_enabled(false);
    let disabled_ns = median_wall_ns(7, || block_bnl_stats(&block, &cfg).0.len());
    registry.set_enabled(true);
    let enabled_ns = median_wall_ns(7, || block_bnl_stats(&block, &cfg).0.len());
    registry.set_enabled(false);
    let emit_ns = median_wall_ns(7, || {
        for i in 0..1_000_000u64 {
            // black_box defeats dead-code elimination of the disabled
            // branch, so this times the real per-site flag check
            black_box(&tracer).emit(|| EventKind::KernelRun {
                kernel: "bnl".to_string(),
                input: black_box(i),
                output: 0,
                comparisons: 0,
                passes: 1,
                elapsed_us: 0,
            });
        }
        0
    }) / 1e6;
    let overhead_pct = (enabled_ns - disabled_ns) / disabled_ns * 100.0;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    let json = format!(
        "{{\n  \"bench\": \"trace/block_bnl_overhead\",\n  \"distribution\": \"correlated\",\n  \"n\": {N},\n  \"d\": {D},\n  \"registry_disabled_ns\": {disabled_ns:.0},\n  \"registry_enabled_ns\": {enabled_ns:.0},\n  \"enabled_overhead_pct\": {overhead_pct:.2},\n  \"disabled_tracer_emit_ns\": {emit_ns:.2},\n  \"max_overhead_pct\": {MAX_OVERHEAD_PCT}\n}}\n"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path} (enabled-registry overhead {overhead_pct:+.2}%)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    assert!(
        overhead_pct < MAX_OVERHEAD_PCT,
        "enabled metrics registry costs {overhead_pct:.2}% on block_bnl \
         (budget {MAX_OVERHEAD_PCT}%)\n{json}"
    );
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
