//! Tiling a traced run's wall axis into named layers.
//!
//! Every layer is a set of disjoint intervals on one microsecond clock
//! (the benchmark's [`WallClock`], which the program's tracer also
//! stamps with). Whatever part of `[0, wall]` no layer claims is the
//! run's `unattributed` time, so layers plus `unattributed` sum to the
//! wall time exactly.

use mrsky_trace::EpochClock;
use std::time::Instant;

/// Microseconds since a fixed epoch, shared by the benchmark's own spans
/// and the tracer it hands to the program.
#[derive(Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Microseconds since the epoch.
    pub fn us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl EpochClock for WallClock {
    fn now_us(&self) -> u64 {
        self.us()
    }
}

/// One interval claimed by a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Layer name.
    pub layer: &'static str,
    /// Interval start, µs since the epoch.
    pub start_us: u64,
    /// Interval end, µs since the epoch.
    pub end_us: u64,
}

/// Per-layer time over `[0, wall]`, in µs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiling {
    /// Layer name and summed duration, in order of first appearance.
    pub layers: Vec<(&'static str, u64)>,
    /// Time in `[0, wall]` that no layer claims.
    pub unattributed_us: u64,
    /// The tiled wall time.
    pub wall_us: u64,
}

impl Tiling {
    /// Duration of `layer` in seconds (0 when absent).
    pub fn seconds(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, us)| *us as f64 / 1e6)
            .sum()
    }
}

/// Tiles `[0, wall_us]` with `tiles`.
///
/// # Errors
///
/// A tile that ends before it starts, ends after `wall_us`, or overlaps
/// another tile means the events were read in the wrong order; the
/// tiling refuses it rather than double-count.
pub fn tile(wall_us: u64, tiles: &[Tile]) -> Result<Tiling, String> {
    let mut sorted = tiles.to_vec();
    sorted.sort_by_key(|t| (t.start_us, t.end_us));
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for t in &sorted {
        if t.end_us < t.start_us || t.end_us > wall_us {
            return Err(format!(
                "tile {} [{}, {}] is not inside [0, {wall_us}]",
                t.layer, t.start_us, t.end_us
            ));
        }
        if t.start_us < cursor {
            return Err(format!(
                "tile {} starts at {} before the previous tile ends at {cursor}",
                t.layer, t.start_us
            ));
        }
        covered += t.end_us - t.start_us;
        cursor = t.end_us;
    }
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    for t in tiles {
        let d = t.end_us - t.start_us;
        match layers.iter_mut().find(|(l, _)| *l == t.layer) {
            Some((_, sum)) => *sum += d,
            None => layers.push((t.layer, d)),
        }
    }
    Ok(Tiling {
        layers,
        unattributed_us: wall_us - covered,
        wall_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(layer: &'static str, start_us: u64, end_us: u64) -> Tile {
        Tile {
            layer,
            start_us,
            end_us,
        }
    }

    #[test]
    fn gaps_become_unattributed_and_everything_sums_to_wall() {
        let tiles = [
            t("ingest", 5, 40),
            t("job1", 40, 90),
            t("validate", 95, 120),
        ];
        let tiling = tile(130, &tiles).expect("disjoint tiles");
        // 0..5, 90..95 and 120..130 are claimed by nobody
        assert_eq!(tiling.unattributed_us, 20);
        let layered: u64 = tiling.layers.iter().map(|(_, us)| us).sum();
        assert_eq!(layered + tiling.unattributed_us, tiling.wall_us);
        assert_eq!(tiling.seconds("job1"), 50e-6);
        assert_eq!(tiling.seconds("absent"), 0.0);
    }

    #[test]
    fn a_layer_may_claim_several_intervals() {
        let tiles = [t("job", 0, 10), t("gap", 10, 12), t("job", 12, 20)];
        let tiling = tile(20, &tiles).expect("disjoint tiles");
        assert_eq!(tiling.layers, vec![("job", 18), ("gap", 2)]);
        assert_eq!(tiling.unattributed_us, 0);
    }

    #[test]
    fn overlapping_or_inverted_or_late_tiles_are_refused() {
        assert!(tile(100, &[t("a", 0, 50), t("b", 40, 60)]).is_err());
        assert!(tile(100, &[t("a", 30, 20)]).is_err());
        assert!(tile(100, &[t("a", 90, 101)]).is_err());
        assert!(tile(100, &[t("a", 0, 0), t("b", 0, 100)]).is_ok());
    }
}
