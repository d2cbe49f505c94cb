//! Cross-checking a reported skyline against its dataset.
//!
//! Used by integration tests, the CLI and chaos replay, and available to
//! users who want belt-and-braces verification of a production run. The
//! validator is standalone: it has its own dominance test and its own L1
//! score, and it calls none of the local kernels (BNL, SFS, SaLSa) nor the
//! shared dominance module. `mrsky-audit lint`'s `oracle-independence` rule
//! keeps it that way, so agreement is evidence about the kernel, not the
//! kernel agreeing with itself.
//!
//! # Why checking members is enough
//!
//! **Lemma.** Let `R` be a set of dataset rows such that (a) no member of
//! `R` is dominated by another member, and (b) every row outside `R` is
//! dominated by some member. Then `R` is exactly the skyline.
//!
//! *Proof.* Skyline ⊆ `R`: by (b) every non-member is dominated, so it is
//! not a skyline point. `R` ⊆ skyline: suppose a member `m` is dominated by
//! some row. Dominance is a strict partial order on a finite set, so
//! following dominators downwards from `m` ends at a row `s` that no row
//! dominates, and by transitivity `s` dominates `m`. `s` is a skyline point,
//! hence a member by the first half, and then `m` is dominated by a member,
//! contradicting (a). ∎
//!
//! The lemma needs the members to be real rows, so each reported point is
//! first matched to a row with the same id and bit-equal coordinates.
//!
//! # Why an L1 prefix is enough
//!
//! The L1 score is summed left to right in `f64`. Rounded addition is
//! monotone in each operand, so `p ≤ q` on every coordinate implies
//! `L1(p) ≤ L1(q)`: a row can only be dominated by rows whose score is no
//! larger. Rounding can tie the two sums (`[1e16, 0.5]` and `[1e16, 1.0]`
//! both sum to `1e16`), so the prefix bound is `≤`, never `<`. Members are
//! kept sorted by score, so each check scans only a prefix, and the
//! low-score members that come first dominate almost every row, which ends
//! most scans after a few tests.
//!
//! Total cost on the happy path: one id-matching pass, a sort of the
//! members, about |R|²/2 prefix tests for (a) and, for (b), a handful of
//! tests per row (tens on anti-correlated data, whose skyline points all
//! score alike).

use crate::report::SkylineRunReport;
use qws_data::Dataset;
use skyline_algos::point::Point;
use std::fmt;

/// Ways a report can fail validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The reported skyline misses a true skyline point.
    MissingPoint {
        /// Id of the missing service.
        id: u64,
    },
    /// The reported skyline contains a dominated point.
    DominatedPoint {
        /// Id of the dominated service.
        id: u64,
        /// Id of a dominating service.
        dominated_by: u64,
    },
    /// A reported skyline id does not exist in the dataset.
    UnknownPoint {
        /// The foreign id.
        id: u64,
    },
    /// A reported skyline id exists in the dataset, but no row with that
    /// id has the reported coordinates.
    AlteredPoint {
        /// Id of the altered service.
        id: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingPoint { id } => {
                write!(f, "true skyline point {id} missing from result")
            }
            ValidationError::DominatedPoint { id, dominated_by } => {
                write!(f, "result point {id} is dominated by {dominated_by}")
            }
            ValidationError::UnknownPoint { id } => {
                write!(f, "result point {id} does not exist in the dataset")
            }
            ValidationError::AlteredPoint { id } => {
                write!(f, "result point {id} has coordinates no dataset row has")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks `skyline` against the dataset from first principles, using the
/// lemma in the module doc.
///
/// Errors come in priority order: an [`UnknownPoint`] or [`AlteredPoint`]
/// (first in report order) before any [`DominatedPoint`], and that before
/// any [`MissingPoint`], whose id is always a true skyline point absent
/// from `skyline`. Reporting the same row twice is not an error.
///
/// [`UnknownPoint`]: ValidationError::UnknownPoint
/// [`AlteredPoint`]: ValidationError::AlteredPoint
/// [`DominatedPoint`]: ValidationError::DominatedPoint
/// [`MissingPoint`]: ValidationError::MissingPoint
pub fn validate_against_oracle(
    skyline: &[Point],
    dataset: &Dataset,
) -> Result<(), ValidationError> {
    let rows = dataset.points();
    let is_member = match_members(skyline, rows)?;
    let members = ByL1::sorted(rows, &is_member);

    // (a): no member is dominated by another member.
    for (k, (&score, m)) in members.scored().enumerate() {
        if let Some(j) = members.dominator(m, score) {
            return Err(ValidationError::DominatedPoint {
                id: rows[members.rows[k]].id(),
                dominated_by: rows[members.rows[j]].id(),
            });
        }
    }
    // (b): every non-member is dominated by some member.
    let undominated = rows.iter().enumerate().find(|&(i, row)| {
        !is_member[i] && members.dominator(row.coords(), l1(row.coords())).is_none()
    });
    match undominated {
        None => Ok(()),
        Some((i, _)) => Err(explain_failure(rows, &members, i)),
    }
}

/// Matches every reported point to the dataset rows with the same id and
/// bit-equal coordinates, and returns the membership flag of each row.
fn match_members(skyline: &[Point], rows: &[Point]) -> Result<Vec<bool>, ValidationError> {
    let mut by_id: Vec<(u64, usize)> = skyline
        .iter()
        .enumerate()
        .map(|(k, p)| (p.id(), k))
        .collect();
    by_id.sort_unstable();
    let mut id_seen = vec![false; skyline.len()];
    let mut matched = vec![false; skyline.len()];
    let mut is_member = vec![false; rows.len()];
    for (i, row) in rows.iter().enumerate() {
        let lo = by_id.partition_point(|&(id, _)| id < row.id());
        for &(_, k) in by_id[lo..].iter().take_while(|&&(id, _)| id == row.id()) {
            id_seen[k] = true;
            if bit_equal(skyline[k].coords(), row.coords()) {
                matched[k] = true;
                is_member[i] = true;
            }
        }
    }
    match (0..skyline.len()).find(|&k| !matched[k]) {
        None => Ok(is_member),
        Some(k) if id_seen[k] => Err(ValidationError::AlteredPoint {
            id: skyline[k].id(),
        }),
        Some(k) => Err(ValidationError::UnknownPoint {
            id: skyline[k].id(),
        }),
    }
}

/// Explains a failed completeness check at non-member row `failed`: a
/// member dominated by any row comes first; otherwise the walk down from
/// `failed` through its dominators ends at a skyline point that the report
/// lacks (it dominates or is `failed`, so no member can be it).
fn explain_failure(rows: &[Point], members: &ByL1, failed: usize) -> ValidationError {
    let all = ByL1::sorted(rows, &vec![true; rows.len()]);
    for (k, (&score, m)) in members.scored().enumerate() {
        if let Some(j) = all.dominator(m, score) {
            return ValidationError::DominatedPoint {
                id: rows[members.rows[k]].id(),
                dominated_by: rows[all.rows[j]].id(),
            };
        }
    }
    let mut at = failed;
    while let Some(j) = all.dominator(rows[at].coords(), l1(rows[at].coords())) {
        at = all.rows[j];
    }
    ValidationError::MissingPoint { id: rows[at].id() }
}

/// A set of rows copied into one flat row-major buffer, sorted by
/// `(L1, row index)`.
struct ByL1 {
    dim: usize,
    coords: Vec<f64>,
    scores: Vec<f64>,
    /// Dataset row index of each sorted entry.
    rows: Vec<usize>,
}

impl ByL1 {
    /// The rows with `keep[i]` set.
    fn sorted(rows: &[Point], keep: &[bool]) -> Self {
        let mut order: Vec<(f64, usize)> = (0..rows.len())
            .filter(|&i| keep[i])
            .map(|i| (l1(rows[i].coords()), i))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let dim = rows.first().map_or(1, Point::dim);
        let mut coords = Vec::with_capacity(order.len() * dim);
        for &(_, i) in &order {
            coords.extend_from_slice(rows[i].coords());
        }
        Self {
            dim,
            coords,
            scores: order.iter().map(|&(s, _)| s).collect(),
            rows: order.iter().map(|&(_, i)| i).collect(),
        }
    }

    /// `(score, coordinates)` of every entry, in sorted order.
    fn scored(&self) -> impl Iterator<Item = (&f64, &[f64])> {
        self.scores.iter().zip(self.coords.chunks_exact(self.dim))
    }

    /// The first entry, in ascending score order, that dominates `q`.
    /// Only entries scoring at most `score` (the L1 of `q`) can.
    fn dominator(&self, q: &[f64], score: f64) -> Option<usize> {
        self.scored()
            .take_while(|&(&s, _)| s <= score)
            .position(|(_, m)| dominates(m, q))
    }
}

/// Left-to-right `f64` sum of the coordinates: monotone under dominance.
fn l1(coords: &[f64]) -> f64 {
    coords.iter().fold(0.0, |sum, &v| sum + v)
}

/// Lower-is-better dominance: `p ≤ q` everywhere and `p < q` somewhere.
fn dominates(p: &[f64], q: &[f64]) -> bool {
    let mut strictly_less = false;
    for (a, b) in p.iter().zip(q) {
        if a > b {
            return false;
        }
        strictly_less |= a < b;
    }
    strictly_less
}

fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Validates a full run report against its dataset.
pub fn validate_report(
    report: &SkylineRunReport,
    dataset: &Dataset,
) -> Result<(), ValidationError> {
    validate_against_oracle(&report.global_skyline, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::driver::SkylineJob;
    use qws_data::{generate_qws, QwsConfig};
    use std::collections::HashSet;

    #[test]
    fn valid_report_passes() {
        let data = generate_qws(&QwsConfig::new(300, 3));
        let report = SkylineJob::new(Algorithm::MrAngle, 4).run(&data);
        assert_eq!(validate_report(&report, &data), Ok(()));
    }

    #[test]
    fn detects_missing_point() {
        let data = generate_qws(&QwsConfig::new(200, 2));
        let mut report = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        let removed = report.global_skyline.pop().expect("non-empty skyline");
        let err = validate_report(&report, &data).unwrap_err();
        assert_eq!(err, ValidationError::MissingPoint { id: removed.id() });
    }

    #[test]
    fn detects_dominated_point() {
        let data = generate_qws(&QwsConfig::new(200, 2));
        let mut report = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        // graft a clearly dominated dataset point into the result
        let sky_ids: HashSet<u64> = report.global_skyline.iter().map(Point::id).collect();
        let dominated = data
            .points()
            .iter()
            .find(|p| !sky_ids.contains(&p.id()))
            .expect("some non-skyline point exists")
            .clone();
        report.global_skyline.push(dominated);
        assert!(matches!(
            validate_report(&report, &data).unwrap_err(),
            ValidationError::DominatedPoint { .. }
        ));
    }

    #[test]
    fn detects_unknown_point() {
        let data = generate_qws(&QwsConfig::new(100, 2));
        let mut report = SkylineJob::new(Algorithm::MrDim, 2).run(&data);
        report
            .global_skyline
            .push(Point::new(9_999_999, vec![0.0, 0.0]));
        assert_eq!(
            validate_report(&report, &data).unwrap_err(),
            ValidationError::UnknownPoint { id: 9_999_999 }
        );
    }

    #[test]
    fn detects_altered_point() {
        let data = generate_qws(&QwsConfig::new(200, 2));
        let mut report = SkylineJob::new(Algorithm::MrAngle, 2).run(&data);
        // a real id whose coordinates moved: better on every dimension, so
        // it would pass a check that only looks at dominance
        let p = report.global_skyline.pop().expect("non-empty skyline");
        let moved: Vec<f64> = p.coords().iter().map(|v| v * 0.5).collect();
        report.global_skyline.push(Point::new(p.id(), moved));
        assert_eq!(
            validate_report(&report, &data).unwrap_err(),
            ValidationError::AlteredPoint { id: p.id() }
        );
    }

    /// `[1e16, 0.5]` dominates `[1e16, 1.0]`, yet both L1 sums round to
    /// `1e16`: a strict `<` prefix bound would miss every case below.
    #[test]
    fn rounding_tied_scores_still_compare() {
        let (a, b) = (
            Point::new(1, vec![1e16, 0.5]),
            Point::new(2, vec![1e16, 1.0]),
        );
        assert_eq!(l1(a.coords()), l1(b.coords()));
        // b first, so the completeness walk starts at the dominated row
        let data = Dataset::new("tie", vec![b.clone(), a.clone()]);
        let check = |sky: &[&Point]| {
            let sky: Vec<Point> = sky.iter().map(|&p| p.clone()).collect();
            validate_against_oracle(&sky, &data)
        };
        let dominated = Err(ValidationError::DominatedPoint {
            id: 2,
            dominated_by: 1,
        });
        assert_eq!(check(&[&a, &b]), dominated);
        assert_eq!(check(&[&b]), dominated);
        assert_eq!(check(&[&a]), Ok(()));
        assert_eq!(check(&[]), Err(ValidationError::MissingPoint { id: 1 }));
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(ValidationError::MissingPoint { id: 3 }
            .to_string()
            .contains("missing"));
        assert!(ValidationError::DominatedPoint {
            id: 1,
            dominated_by: 2
        }
        .to_string()
        .contains("dominated by 2"));
        assert!(ValidationError::UnknownPoint { id: 7 }
            .to_string()
            .contains("not exist"));
        assert!(ValidationError::AlteredPoint { id: 5 }
            .to_string()
            .contains("coordinates"));
    }
}
