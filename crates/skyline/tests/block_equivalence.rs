//! Property-based equivalence of the columnar kernels against the AoS
//! oracle: `block_bnl` (any window size) and `presort_merge` must return
//! exactly the skyline id-set of `naive_skyline` over `&[Point]` for
//! arbitrary datasets — including duplicated coordinates and fully equal
//! rows, which small integer grids force constantly. CI runs this file with
//! `--features strict-invariants` so every kernel call additionally
//! self-checks minimality and completeness.

use proptest::prelude::*;
use skyline_algos::block::PointBlock;
use skyline_algos::kernel::{block_bnl, presort_merge, BnlConfig};
use skyline_algos::point::Point;
use skyline_algos::seq::naive_skyline_ids;

fn arb_points() -> impl Strategy<Value = Vec<Point>> {
    (1usize..=6).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0u8..6, d), 1..80).prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| {
                    Point::new(
                        i as u64,
                        row.iter().map(|&v| f64::from(v)).collect::<Vec<_>>(),
                    )
                })
                .collect()
        })
    })
}

fn oracle_ids(pts: &[Point]) -> Vec<u64> {
    naive_skyline_ids(pts)
}

fn block_ids(b: &PointBlock) -> Vec<u64> {
    let mut ids = b.ids().to_vec();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_bnl_matches_aos_oracle(pts in arb_points(), window in 0usize..20) {
        let block = PointBlock::from_points(&pts).unwrap();
        // window 0 means unbounded; small windows force multi-pass overflow
        let cfg = if window == 0 {
            BnlConfig::unbounded()
        } else {
            BnlConfig::with_window(window)
        };
        let sky = block_bnl(&block, &cfg);
        prop_assert_eq!(block_ids(&sky), oracle_ids(&pts));
    }

    #[test]
    fn presort_merge_matches_aos_oracle(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        let sky = presort_merge(&block);
        prop_assert_eq!(block_ids(&sky), oracle_ids(&pts));
    }

    #[test]
    fn block_round_trip_is_lossless(pts in arb_points()) {
        let block = PointBlock::from_points(&pts).unwrap();
        prop_assert_eq!(block.to_points(), pts);
    }
}

#[test]
fn exact_duplicates_all_survive_every_kernel() {
    let pts: Vec<Point> = (0..5).map(|i| Point::new(i, vec![1.0, 2.0])).collect();
    let block = PointBlock::from_points(&pts).unwrap();
    assert_eq!(
        block_ids(&block_bnl(&block, &BnlConfig::default())).len(),
        5
    );
    assert_eq!(block_ids(&presort_merge(&block)).len(), 5);
    assert_eq!(oracle_ids(&pts).len(), 5);
}
