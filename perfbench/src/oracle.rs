//! The benchmark's own skyline oracle. It shares no code with the
//! program's kernels, skyband buffer or validator, so a result it agrees
//! with was not checked against itself. Smaller is better in every
//! dimension, as in the program.

/// `a` dominates `b`: no larger anywhere and smaller somewhere.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut smaller = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        smaller |= x < y;
    }
    smaller
}

/// Ids, ascending, of the rows no other row dominates.
///
/// Rows are visited by ascending coordinate sum, so a dominator usually
/// arrives before the rows it dominates and the window of survivors stays
/// small; a survivor that a later row dominates is evicted, which keeps
/// the answer exact when rounding ties two sums.
pub fn skyline_ids<'a>(rows: impl Iterator<Item = (u64, &'a [f64])>) -> Vec<u64> {
    let mut by_sum: Vec<(f64, u64, &[f64])> =
        rows.map(|(id, c)| (c.iter().sum::<f64>(), id, c)).collect();
    by_sum.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut window: Vec<(u64, &[f64])> = Vec::new();
    for (_, id, c) in by_sum {
        if window.iter().any(|(_, w)| dominates(w, c)) {
            continue;
        }
        window.retain(|(_, w)| !dominates(c, w));
        window.push((id, c));
    }
    let mut ids: Vec<u64> = window.into_iter().map(|(id, _)| id).collect();
    ids.sort_unstable();
    ids
}

/// FNV-1a over a sequence of words: a cheap fingerprint for comparing
/// answers across processes.
pub fn fingerprint(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_needs_a_strict_improvement() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[0.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn skyline_matches_the_definition() {
        let rows: Vec<(u64, Vec<f64>)> = (0..200u64)
            .map(|i| {
                (
                    i,
                    vec![
                        ((i * 37) % 23) as f64,
                        ((i * 11) % 19) as f64,
                        (i % 7) as f64,
                    ],
                )
            })
            .collect();
        let got = skyline_ids(rows.iter().map(|(id, c)| (*id, c.as_slice())));
        let want: Vec<u64> = rows
            .iter()
            .filter(|(_, p)| !rows.iter().any(|(_, q)| dominates(q, p)))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(got, want);
    }
}
