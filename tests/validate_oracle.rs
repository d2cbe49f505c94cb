//! Property test of the skyline validator: on small random datasets, its
//! verdict on the pipeline's report, and on mutations of that report,
//! agrees with a naive O(n²) reference written here, and every error keeps
//! the error contract:
//!
//! - variant priority: `UnknownPoint`/`AlteredPoint` > `DominatedPoint` >
//!   `MissingPoint`;
//! - `dominated_by` really dominates `id`;
//! - a `MissingPoint` id is a true skyline point absent from the report.

use mr_skyline_suite::mr::prelude::*;
use mr_skyline_suite::mr::ValidationError;
use mr_skyline_suite::qws::Dataset;
use mr_skyline_suite::skyline::point::Point;
use proptest::prelude::*;

/// Coordinate values: a small grid, so duplicate rows and tied L1 scores
/// are common, plus two huge values whose sums with the small ones round
/// to ties although one row dominates the other.
const VALUES: [f64; 8] = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 1e16, 1e16 + 2.0];

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=4).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0usize..VALUES.len(), d), 1..60)
            .prop_map(|rows| {
                let points = rows
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        Point::new(i as u64, row.iter().map(|&v| VALUES[v]).collect::<Vec<_>>())
                    })
                    .collect();
                Dataset::new("validate-prop", points)
            })
    })
}

/// One edit to a report: `(kind, a, b)`, with `a` and `b` picking the
/// member, row or dimension it touches.
type Mutation = (u8, usize, usize);

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..6, 0usize..1000, 0usize..1000), 0..4)
}

fn mutate(report: &mut Vec<Point>, rows: &[Point], (kind, a, b): Mutation) {
    let foreign_id = rows.len() as u64 + 1000;
    match kind {
        // drop a member
        0 if !report.is_empty() => {
            report.remove(a % report.len());
        }
        // graft any row (a non-member, unless it happens to be a member)
        1 => report.push(rows[a % rows.len()].clone()),
        // move one coordinate of a member by one ulp, either way
        2 if !report.is_empty() => {
            let k = a % report.len();
            let mut coords = report[k].coords().to_vec();
            let i = b % coords.len();
            coords[i] = if b % 2 == 0 {
                coords[i].next_up()
            } else {
                coords[i].next_down()
            };
            report[k] = Point::new(report[k].id(), coords);
        }
        // an id no row has, with a real row's coordinates
        3 => {
            let coords = rows[a % rows.len()].coords().to_vec();
            report.push(Point::new(foreign_id, coords));
        }
        // report a member twice
        4 if !report.is_empty() => {
            let p = report[a % report.len()].clone();
            report.push(p);
        }
        // a member taking another row's id
        5 if !report.is_empty() => {
            let k = a % report.len();
            let id = rows[b % rows.len()].id();
            report[k] = Point::new(id, report[k].coords().to_vec());
        }
        _ => {}
    }
}

fn dominates(p: &Point, q: &Point) -> bool {
    let (a, b) = (p.coords(), q.coords());
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

fn same_row(p: &Point, q: &Point) -> bool {
    p.id() == q.id()
        && p.coords()
            .iter()
            .zip(q.coords())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The naive reference: which tier of error the report deserves.
#[derive(Debug, PartialEq)]
enum Expected {
    Valid,
    Foreign,
    Dominated,
    Missing,
}

fn reference(report: &[Point], rows: &[Point]) -> Expected {
    if report.iter().any(|p| !rows.iter().any(|q| same_row(p, q))) {
        return Expected::Foreign;
    }
    if report.iter().any(|p| rows.iter().any(|q| dominates(q, p))) {
        return Expected::Dominated;
    }
    let mut skyline = rows
        .iter()
        .filter(|p| !rows.iter().any(|q| dominates(q, p)));
    if skyline.any(|s| !report.iter().any(|p| same_row(p, s))) {
        return Expected::Missing;
    }
    Expected::Valid
}

/// Checks the validator's verdict against the reference and the contract.
fn check(report: &[Point], data: &Dataset) {
    let rows = data.points();
    let expected = reference(report, rows);
    let verdict = validate_against_oracle(report, data);
    let row = |id: u64| rows.iter().find(|q| q.id() == id);
    match (&expected, &verdict) {
        (Expected::Valid, Ok(())) => {}
        (Expected::Foreign, Err(ValidationError::UnknownPoint { id })) => {
            assert!(report.iter().any(|p| p.id() == *id), "{id} not reported");
            assert!(row(*id).is_none(), "{id} is a real id");
        }
        (Expected::Foreign, Err(ValidationError::AlteredPoint { id })) => {
            assert!(row(*id).is_some(), "{id} is not a real id");
            assert!(
                report
                    .iter()
                    .any(|p| p.id() == *id && !rows.iter().any(|q| same_row(p, q))),
                "every report point with id {id} is a real row"
            );
        }
        (Expected::Dominated, Err(ValidationError::DominatedPoint { id, dominated_by })) => {
            let (p, q) = (row(*id), row(*dominated_by));
            assert!(report.iter().any(|r| r.id() == *id), "{id} not reported");
            assert!(
                p.zip(q).is_some_and(|(p, q)| dominates(q, p)),
                "{dominated_by} does not dominate {id}"
            );
        }
        (Expected::Missing, Err(ValidationError::MissingPoint { id })) => {
            let s = row(*id);
            assert!(
                s.is_some_and(|s| !rows.iter().any(|q| dominates(q, s))),
                "{id} is not a skyline point"
            );
            assert!(!report.iter().any(|p| p.id() == *id), "{id} is reported");
        }
        _ => panic!(
            "reference says {expected:?}, validator {verdict:?}\nreport {report:?}\ndata {rows:?}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn verdicts_match_the_naive_reference(
        data in arb_dataset(),
        mutations in arb_mutations(),
        servers in 1usize..5,
    ) {
        let report = SkylineJob::new(Algorithm::MrAngle, servers).run(&data);
        let mut sky = report.global_skyline;
        prop_assert_eq!(reference(&sky, data.points()), Expected::Valid);
        check(&sky, &data);
        for m in mutations {
            mutate(&mut sky, data.points(), m);
            check(&sky, &data);
        }
    }
}
