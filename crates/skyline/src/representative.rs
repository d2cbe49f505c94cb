//! Representative skylines — selecting `k` services that summarise the
//! skyline.
//!
//! High-dimensional skylines are large (the paper measures thousands of
//! skyline services at `d = 10`), which defeats the purpose of presenting
//! "the best" services to a user. The authors' own companion work (Chen et
//! al., *Service Recommendation: Similarity-based Representative Skyline*,
//! SERVICES 2010 — reference [12] of the paper) and Lin et al.'s *k most
//! representative skyline operator* (ICDE 2007 — reference [23]) both
//! postprocess the skyline down to `k` representatives. This module provides
//! the two classic selectors:
//!
//! * [`max_dominance_representatives`] — greedily picks the `k` skyline
//!   points whose dominance regions cover the most (remaining) dominated
//!   points, the Lin et al. objective under a greedy `(1 − 1/e)`
//!   approximation (the objective is submodular coverage).
//! * [`distance_based_representatives`] — greedy max-min (farthest-point)
//!   selection in normalised attribute space: a diversity-style summary in
//!   the spirit of similarity-based representative skylines.

use crate::dominance::dominates;
use crate::point::Point;

/// Picks up to `k` skyline points maximising the number of dataset points
/// covered (dominated) by at least one representative, greedily.
///
/// `skyline` must be the skyline of `dataset` (or a superset filter of it);
/// points of `dataset` that are themselves in `skyline` are never counted as
/// coverage. Returns the representatives in selection order (most covering
/// first).
pub fn max_dominance_representatives(skyline: &[Point], dataset: &[Point], k: usize) -> Vec<Point> {
    if k == 0 || skyline.is_empty() {
        return Vec::new();
    }
    // coverage[s][j] = skyline point s dominates dataset point j
    let targets: Vec<&Point> = dataset
        .iter()
        .filter(|p| !skyline.iter().any(|s| s.id() == p.id()))
        .collect();
    let mut covered = vec![false; targets.len()];
    let mut available: Vec<usize> = (0..skyline.len()).collect();
    let mut reps = Vec::with_capacity(k.min(skyline.len()));

    while reps.len() < k && !available.is_empty() {
        let Some((best_pos, best_gain)) = available
            .iter()
            .enumerate()
            .map(|(pos, &s)| {
                let gain = targets
                    .iter()
                    .enumerate()
                    .filter(|(j, t)| !covered[*j] && dominates(&skyline[s], t))
                    .count();
                (pos, gain)
            })
            .max_by_key(|&(pos, gain)| (gain, std::cmp::Reverse(pos)))
        else {
            break;
        };
        if best_gain == 0 && !reps.is_empty() {
            // Remaining picks cover nothing new — zero-gain representatives
            // carry no information, so stop early rather than padding to k.
            break;
        }
        let s = available.swap_remove(best_pos);
        for (j, t) in targets.iter().enumerate() {
            if !covered[j] && dominates(&skyline[s], t) {
                covered[j] = true;
            }
        }
        reps.push(skyline[s].clone());
    }
    reps
}

/// Picks up to `k` skyline points by greedy max-min distance in
/// range-normalised coordinates, seeding with the point closest to the
/// origin (the "best overall" service).
pub fn distance_based_representatives(skyline: &[Point], k: usize) -> Vec<Point> {
    if k == 0 || skyline.is_empty() {
        return Vec::new();
    }
    let d = skyline[0].dim();
    // normalise each dimension to [0, 1] over the skyline's own range
    let mut min = vec![f64::INFINITY; d];
    let mut max = vec![f64::NEG_INFINITY; d];
    for p in skyline {
        for i in 0..d {
            min[i] = min[i].min(p.coord(i));
            max[i] = max[i].max(p.coord(i));
        }
    }
    let norm = |p: &Point| -> Vec<f64> {
        (0..d)
            .map(|i| {
                let w = max[i] - min[i];
                if w > 0.0 {
                    (p.coord(i) - min[i]) / w
                } else {
                    0.0
                }
            })
            .collect()
    };
    let coords: Vec<Vec<f64>> = skyline.iter().map(norm).collect();
    let dist2 =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };

    // seed: minimal normalised L2 from the origin
    let Some(seed) = (0..skyline.len()).min_by(|&a, &b| {
        let za = coords[a].iter().map(|v| v * v).sum::<f64>();
        let zb = coords[b].iter().map(|v| v * v).sum::<f64>();
        za.total_cmp(&zb)
            .then(skyline[a].id().cmp(&skyline[b].id()))
    }) else {
        return Vec::new();
    };

    let mut chosen = vec![seed];
    let mut min_d2: Vec<f64> = coords.iter().map(|c| dist2(c, &coords[seed])).collect();
    while chosen.len() < k.min(skyline.len()) {
        let Some(next) = (0..skyline.len())
            .filter(|i| !chosen.contains(i))
            .max_by(|&a, &b| {
                min_d2[a]
                    .total_cmp(&min_d2[b])
                    .then(skyline[b].id().cmp(&skyline[a].id()))
            })
        else {
            break;
        };
        chosen.push(next);
        for i in 0..skyline.len() {
            min_d2[i] = min_d2[i].min(dist2(&coords[i], &coords[next]));
        }
    }
    chosen.into_iter().map(|i| skyline[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{naive_skyline, naive_skyline_ids};

    fn contour(n: usize) -> Vec<Point> {
        // anti-correlated contour: everything is a skyline point
        (0..n)
            .map(|i| Point::new(i as u64, vec![i as f64, (n - 1 - i) as f64]))
            .collect()
    }

    #[test]
    fn k_zero_and_empty() {
        assert!(max_dominance_representatives(&[], &[], 3).is_empty());
        assert!(max_dominance_representatives(&contour(5), &contour(5), 0).is_empty());
        assert!(distance_based_representatives(&[], 3).is_empty());
        assert!(distance_based_representatives(&contour(5), 0).is_empty());
    }

    #[test]
    fn max_dominance_picks_the_big_coverer() {
        // skyline {a, b}; a dominates 3 points, b dominates 1
        let a = Point::new(0, vec![0.0, 0.0]);
        let b = Point::new(1, vec![-1.0, 10.0]);
        let dataset = vec![
            a.clone(),
            b.clone(),
            Point::new(2, vec![1.0, 1.0]),
            Point::new(3, vec![2.0, 2.0]),
            Point::new(4, vec![3.0, 3.0]),
            Point::new(5, vec![-0.5, 11.0]),
        ];
        let sky = vec![a, b];
        let reps = max_dominance_representatives(&sky, &dataset, 1);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].id(), 0);
    }

    #[test]
    fn max_dominance_respects_marginal_gain() {
        // c's coverage is a subset of a's; after picking a, b (small but
        // disjoint coverage) must win over c.
        let a = Point::new(0, vec![0.0, 5.0]);
        let _c = Point::new(1, vec![0.5, 5.5]); // dominated? no: worse on both vs a... make skyline-valid
        let b = Point::new(2, vec![5.0, 0.0]);
        // a dominates p3,p4; c would dominate p4 only; b dominates p5
        let dataset = vec![
            a.clone(),
            b.clone(),
            Point::new(3, vec![1.0, 6.0]),
            Point::new(4, vec![2.0, 7.0]),
            Point::new(5, vec![6.0, 1.0]),
        ];
        let sky = naive_skyline(&dataset);
        assert_eq!(naive_skyline_ids(&dataset), vec![0, 2]);
        let reps = max_dominance_representatives(&sky, &dataset, 2);
        let rep_ids: Vec<u64> = reps.iter().map(Point::id).collect();
        assert!(rep_ids.contains(&0) && rep_ids.contains(&2));
    }

    #[test]
    fn max_dominance_stops_at_zero_gain() {
        // a covers everything coverable; a second pick would add nothing and
        // is therefore omitted even though k = 2
        let a = Point::new(0, vec![0.0, 0.0]);
        let b = Point::new(1, vec![-1.0, 1000.0]);
        let dataset = vec![a.clone(), b.clone(), Point::new(2, vec![1.0, 1.0])];
        let reps = max_dominance_representatives(&[a, b], &dataset, 2);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].id(), 0);
    }

    #[test]
    fn max_dominance_with_no_coverage_returns_one() {
        // nothing is dominated at all: a single (arbitrary) representative
        let sky = contour(3);
        let reps = max_dominance_representatives(&sky, &sky, 2);
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn distance_reps_are_spread_along_the_contour() {
        let sky = contour(100);
        let reps = distance_based_representatives(&sky, 3);
        assert_eq!(reps.len(), 3);
        let mut xs: Vec<f64> = reps.iter().map(|p| p.coord(0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // expect near both extremes and the middle-ish
        assert!(xs[0] < 25.0, "{xs:?}");
        assert!(xs[2] > 75.0, "{xs:?}");
    }

    #[test]
    fn distance_reps_seed_is_best_overall() {
        // symmetric contour: the seed minimises normalised distance to origin
        let sky = contour(11);
        let reps = distance_based_representatives(&sky, 1);
        assert_eq!(reps.len(), 1);
        assert_eq!(
            reps[0].id(),
            5,
            "middle of the contour is closest to origin"
        );
    }

    #[test]
    fn k_larger_than_skyline_returns_all() {
        let sky = contour(4);
        assert_eq!(distance_based_representatives(&sky, 10).len(), 4);
    }

    #[test]
    fn representatives_are_skyline_members() {
        let sky = contour(30);
        for rep in distance_based_representatives(&sky, 5) {
            assert!(sky.iter().any(|p| p.id() == rep.id()));
        }
    }
}
