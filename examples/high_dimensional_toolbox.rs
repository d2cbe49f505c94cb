//! What to do when the skyline itself explodes: at 10 QoS attributes the
//! paper measures thousands of "optimal" services. This example runs the
//! post-processing toolbox on one dataset:
//!
//! * the MapReduce skyline under random vs angular partitioning (angular
//!   chunking shrinks the merge input),
//! * k-dominant skylines (services good on at least k of d attributes),
//! * top-k dominating services,
//! * k representatives (coverage + diversity).
//!
//! ```text
//! cargo run --release --example high_dimensional_toolbox
//! ```

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::qws::{generate_qws, QwsConfig};
use mr_skyline_suite::skyline::kdominant::k_dominant_skyline;
use mr_skyline_suite::skyline::representative::{
    distance_based_representatives, max_dominance_representatives,
};
use mr_skyline_suite::skyline::topk::top_k_dominating;

fn main() {
    let d = 8;
    let registry = generate_qws(&QwsConfig::new(30_000, d));
    println!("{} services x {d} attributes\n", registry.len());

    // --- the MapReduce skyline, two partitioning strategies ---
    let random = SkylineJob::new(Algorithm::MrRandom, 8).run(&registry);
    let angular = SkylineJob::new(Algorithm::MrAngle, 8).run(&registry);
    assert_eq!(random.global_skyline.len(), angular.global_skyline.len());
    println!(
        "skyline: {} services ({:.1}% of the registry)",
        angular.global_skyline.len(),
        100.0 * angular.global_skyline.len() as f64 / registry.len() as f64
    );
    println!(
        "  random partitions:  {:>8} merge candidates, local optimality {:.2}",
        random.merge_candidates(),
        random.optimality
    );
    println!(
        "  angular partitions: {:>8} merge candidates, local optimality {:.2}",
        angular.merge_candidates(),
        angular.optimality
    );
    let skyline = angular.global_skyline;

    // --- k-dominant skylines shrink the answer ---
    println!(
        "\nk-dominant skylines (within the {}-point skyline):",
        skyline.len()
    );
    for k in (d - 3..=d).rev() {
        let kd = k_dominant_skyline(&skyline, k);
        println!("  k = {k:>2}: {:>6} services survive", kd.len());
    }

    // --- top dominators ---
    println!("\ntop-5 dominating services (how much of the registry each beats):");
    for entry in top_k_dominating(registry.points(), 5) {
        println!(
            "  service {:<6} dominates {:>6} services ({:.1}%)",
            entry.point.id(),
            entry.dominated,
            100.0 * entry.dominated as f64 / registry.len() as f64
        );
    }

    // --- representatives ---
    let covering = max_dominance_representatives(&skyline, registry.points(), 5);
    let diverse = distance_based_representatives(&skyline, 5);
    println!(
        "\n5 covering representatives: {:?}",
        covering
            .iter()
            .map(mr_skyline_suite::skyline::point::Point::id)
            .collect::<Vec<_>>()
    );
    println!(
        "5 diverse representatives:  {:?}",
        diverse
            .iter()
            .map(mr_skyline_suite::skyline::point::Point::id)
            .collect::<Vec<_>>()
    );
}
