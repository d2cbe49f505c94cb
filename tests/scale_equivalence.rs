//! Property-based exactness proofs for the raw-scale machinery: the
//! zero-copy block shuffle and the work-stealing executor must match the
//! independent oracle, and reduce-input spilling must be *bit-identical*
//! to the in-memory pipeline — across all four partitioning schemes, all
//! data distributions, chaos fault interleavings, a mid-run kill/resume,
//! and any host thread count. These optimisations move bytes differently;
//! they may never change an answer.

use mr_skyline_suite::chaos::FaultPlan;
use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{
    generate_qws, generate_synthetic, Dataset, Distribution, QwsConfig, SyntheticConfig,
};
use mr_skyline_suite::skyline::point::Point;
use mr_skyline_suite::skyline::seq::naive_skyline_ids;
use proptest::prelude::*;
use std::sync::Once;

/// Chaos faults abort tasks by panicking on purpose, and every one of them
/// is caught and retried. Keep those expected panics out of the test
/// output while leaving real panics loud.
fn quiet_chaos_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let text = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !(text.starts_with("chaos:") || text.starts_with("mrsky-chaos:")) {
                default_hook(info);
            }
        }));
    });
}

/// The skyline as sorted `(id, coordinate bit patterns)` rows — equality
/// on this is bit-for-bit equality, not approximate.
fn fingerprint(report: &SkylineRunReport) -> Vec<(u64, Vec<u64>)> {
    let mut rows: Vec<(u64, Vec<u64>)> = report
        .global_skyline
        .iter()
        .map(|p| (p.id(), p.coords().iter().map(|c| c.to_bits()).collect()))
        .collect();
    rows.sort();
    rows
}

const ALL_SCHEMES: [Algorithm; 4] = [
    Algorithm::MrAngle,
    Algorithm::MrDim,
    Algorithm::MrGrid,
    Algorithm::MrRandom,
];

/// Datasets from every distribution family the paper benchmarks.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let shape = (40usize..240, 2usize..5, 0u64..1u64 << 32);
    (0usize..4, shape).prop_map(|(family, (n, d, seed))| match family {
        0 => generate_synthetic(
            &SyntheticConfig::new(n, d, Distribution::AntiCorrelated).with_seed(seed),
        ),
        1 => generate_synthetic(
            &SyntheticConfig::new(n, d, Distribution::Correlated).with_seed(seed),
        ),
        2 => generate_synthetic(
            &SyntheticConfig::new(n, d, Distribution::Independent).with_seed(seed),
        ),
        _ => generate_qws(&QwsConfig::new(n, d).with_seed(seed)),
    })
}

/// The scaled pipeline with an optional reduce-input spill budget; `None`
/// keeps every reduce input in memory.
fn scaled(spill_dir: Option<&std::path::Path>) -> AlgoConfig {
    AlgoConfig {
        spill_budget_bytes: spill_dir.map(|_| 0), // spill every reduce input
        spill_dir: spill_dir.map(std::path::Path::to_path_buf),
        ..AlgoConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Block shuffle + work stealing returns the independent sequential
    /// oracle's skyline on every partitioning scheme.
    #[test]
    fn scaled_pipeline_is_bit_identical_on_every_scheme(
        data in arb_dataset(),
        servers in 1usize..6,
    ) {
        let oracle = naive_skyline_ids(data.points());
        for alg in ALL_SCHEMES {
            let fast = SkylineJob::new(alg, servers)
                .with_config(scaled(None))
                .run(&data);
            let mut ids: Vec<u64> = fast.global_skyline.iter().map(Point::id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, oracle.clone(), "{} vs oracle", alg);
        }
    }

    /// Same property with chaos interleaved and every reduce input forced
    /// through the disk spill: injected faults, retries, shuffle
    /// disruption, and the spill round-trip must compose without changing
    /// a single bit.
    #[test]
    fn scaled_pipeline_survives_chaos_and_spilling_exactly(
        data in arb_dataset(),
        seed_val in 0u64..1u64 << 16,
        heavy_bit in 0u8..2,
    ) {
        quiet_chaos_panics();
        let plan = if heavy_bit == 1 { FaultPlan::heavy(seed_val) } else { FaultPlan::light(seed_val) };
        let dir = std::env::temp_dir()
            .join(format!("mrsky-scale-eq-{}", std::process::id()));
        for alg in ALL_SCHEMES {
            let chaotic = SkylineJob::new(alg, 4)
                .with_config(scaled(Some(&dir)))
                .with_chaos(plan.clone())
                .run(&data);
            let calm = SkylineJob::new(alg, 4)
                .with_config(scaled(None))
                .run(&data);
            prop_assert_eq!(fingerprint(&chaotic), fingerprint(&calm), "{}", alg);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A simulated driver crash mid-run (kill switch after N checkpoint
    /// writes) with the scale machinery armed: the resumed run restores
    /// finished partitions and still matches an uninterrupted run bit for bit.
    #[test]
    fn scaled_pipeline_survives_kill_and_resume(
        data in arb_dataset(),
        kill_after in 1u64..6,
    ) {
        quiet_chaos_panics();
        let ckpt = std::env::temp_dir().join(format!(
            "mrsky-scale-kill-{}-{kill_after}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&ckpt);
        let mut plan = FaultPlan::off();
        plan.kill_after_checkpoints = Some(kill_after);
        let killed = SkylineJob::new(Algorithm::MrAngle, 4)
            .with_config(scaled(None))
            .with_chaos(plan)
            .with_checkpoints(&ckpt)
            .run_resilient(&data)
            .expect("audit clean");
        let base = SkylineJob::new(Algorithm::MrAngle, 4)
            .with_config(scaled(None))
            .run(&data);
        prop_assert_eq!(fingerprint(&killed), fingerprint(&base));
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

/// Deterministic spot check on a larger anti-correlated input: the spill
/// path must actually fire (counter-proven) while the answer stays exact —
/// guarding against a silently disabled spill passing the equivalence
/// properties vacuously.
#[test]
fn spill_really_fires_and_stays_exact() {
    let data = generate_synthetic(
        &SyntheticConfig::new(4000, 4, Distribution::AntiCorrelated).with_seed(7),
    );
    let dir = std::env::temp_dir().join(format!("mrsky-scale-spot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spilled = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(AlgoConfig {
            spill_budget_bytes: Some(0),
            spill_dir: Some(dir.clone()),
            ..AlgoConfig::default()
        })
        .run(&data);
    let base = SkylineJob::new(Algorithm::MrAngle, 8)
        .with_config(scaled(None))
        .run(&data);
    let spilled_inputs = spilled
        .metrics
        .reduce
        .counters
        .get("spilled_inputs")
        .copied()
        .unwrap_or(0);
    assert!(spilled_inputs > 0, "spill path never fired");
    assert_eq!(fingerprint(&spilled), fingerprint(&base));
    // spilling must not leave files behind once every input is consumed
    let _ = std::fs::remove_dir_all(&dir);
}

/// Schedule independence under deliberate skew: one partition gets almost
/// all the points (correlated data + range partitioning), so with several
/// threads the work-stealing pool really rebalances around one long reduce
/// task. One thread and four threads must produce the identical report:
/// the same skyline bits, the same simulated timeline, the same wire bytes.
#[test]
fn thread_count_is_invisible_under_skew() {
    let data =
        generate_synthetic(&SyntheticConfig::new(3000, 3, Distribution::Correlated).with_seed(11));
    let run = |threads: usize| {
        let mut job = SkylineJob::new(Algorithm::MrDim, 8);
        job.threads = threads;
        job.run(&data)
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    assert_eq!(serial.metrics.sim_total, parallel.metrics.sim_total);
    assert_eq!(serial.metrics.shuffle_bytes, parallel.metrics.shuffle_bytes);
}
