//! Feature-gated kernel invariant checks (`strict-invariants`).
//!
//! Every skyline kernel funnels its result through [`check_skyline_block`]
//! before returning. With the `strict-invariants` cargo feature **off** (the
//! default) the call compiles to nothing; with it **on**, the result is
//! verified against the definition of a skyline:
//!
//! 1. **membership** — every output point is an input point (by id);
//! 2. **minimality** — no output point dominates another output point
//!    (this also exercises dominance antisymmetry: if `a` dominates `b`
//!    then `b` must not dominate `a`);
//! 3. **completeness** — every input point absent from the output is
//!    dominated by some output point (nothing was pruned unsoundly);
//! 4. **irreflexivity** — no output point dominates itself.
//!
//! The checks are `O(n·m·d)` (`n` inputs, `m` skyline members), which is why
//! they hide behind a feature rather than `debug_assert!` alone: release
//! benchmarks and large sweeps must not pay for them, but
//! `cargo test --features strict-invariants` turns every existing test into
//! a soundness proof of the kernel that produced its result.

#[cfg(feature = "strict-invariants")]
use crate::dominance::dominates;
#[cfg(feature = "strict-invariants")]
use crate::point::Point;

/// Asserts that `skyline` is exactly the skyline of `input`.
///
/// Compiled only with the `strict-invariants` feature.
#[cfg(feature = "strict-invariants")]
pub fn check_skyline(kernel: &'static str, input: &[Point], skyline: &[Point]) {
    use std::collections::HashSet;

    let input_ids: HashSet<u64> = input.iter().map(Point::id).collect();
    for s in skyline {
        assert!(
            input_ids.contains(&s.id()),
            "strict-invariants[{kernel}]: output point id {} is not an input point",
            s.id()
        );
        assert!(
            !dominates(s, s),
            "strict-invariants[{kernel}]: dominance is not irreflexive on id {}",
            s.id()
        );
    }
    for (i, a) in skyline.iter().enumerate() {
        for b in &skyline[i + 1..] {
            assert!(
                !(dominates(a, b) && dominates(b, a)),
                "strict-invariants[{kernel}]: dominance antisymmetry violated between ids {} and {}",
                a.id(),
                b.id()
            );
            assert!(
                !dominates(a, b) && !dominates(b, a),
                "strict-invariants[{kernel}]: skyline not minimal — id {} vs id {}",
                a.id(),
                b.id()
            );
        }
    }
    let skyline_ids: HashSet<u64> = skyline.iter().map(Point::id).collect();
    for p in input {
        if skyline_ids.contains(&p.id()) {
            continue;
        }
        assert!(
            skyline.iter().any(|s| dominates(s, p)),
            "strict-invariants[{kernel}]: input id {} was dropped but is undominated",
            p.id()
        );
    }
}

/// Asserts that the block `skyline` is exactly the skyline of the block
/// `input` (see `check_skyline`). Conversion to `Point`s only happens when
/// the feature is on, so block kernels pay nothing in release builds.
#[cfg(feature = "strict-invariants")]
pub fn check_skyline_block(
    kernel: &'static str,
    input: &crate::block::PointBlock,
    skyline: &crate::block::PointBlock,
) {
    check_skyline(kernel, &input.to_points(), &skyline.to_points());
}

/// No-op stand-in compiled when `strict-invariants` is disabled.
#[cfg(not(feature = "strict-invariants"))]
#[inline(always)]
pub fn check_skyline_block(
    _kernel: &'static str,
    _input: &crate::block::PointBlock,
    _skyline: &crate::block::PointBlock,
) {
}

#[cfg(all(test, feature = "strict-invariants"))]
mod tests {
    use super::*;

    fn p(id: u64, coords: Vec<f64>) -> Point {
        Point::new(id, coords)
    }

    #[test]
    fn accepts_a_correct_skyline() {
        let input = vec![
            p(0, vec![1.0, 2.0]),
            p(1, vec![2.0, 1.0]),
            p(2, vec![3.0, 3.0]),
        ];
        let skyline = vec![input[0].clone(), input[1].clone()];
        check_skyline("test", &input, &skyline);
    }

    #[test]
    #[should_panic(expected = "not minimal")]
    fn rejects_a_dominated_member() {
        let input = vec![p(0, vec![1.0, 1.0]), p(1, vec![2.0, 2.0])];
        let skyline = input.clone();
        check_skyline("test", &input, &skyline);
    }

    #[test]
    #[should_panic(expected = "undominated")]
    fn rejects_unsound_pruning() {
        let input = vec![p(0, vec![1.0, 2.0]), p(1, vec![2.0, 1.0])];
        let skyline = vec![input[0].clone()];
        check_skyline("test", &input, &skyline);
    }

    #[test]
    #[should_panic(expected = "not an input point")]
    fn rejects_fabricated_members() {
        let input = vec![p(0, vec![1.0, 2.0])];
        let skyline = vec![p(7, vec![0.5, 0.5])];
        check_skyline("test", &input, &skyline);
    }
}
