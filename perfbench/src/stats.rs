//! Sample summaries: a median plus the highest percentile that still has
//! at least ten samples beyond it, with the sample count.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The arithmetic mean. `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Mean over inputs of a per-input statistic: `samples` pairs each value
/// with the input it was measured on. Every input weighs the same,
/// however many samples it has. `None` when empty.
pub fn mean_over_inputs(samples: &[(usize, f64)], stat: fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let mut by_input: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(input, v) in samples {
        by_input.entry(input).or_default().push(v);
    }
    let per_input: Vec<f64> = by_input.values().filter_map(|v| stat(v)).collect();
    mean(&per_input)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let rank = (p * v.len() as f64 / 100.0).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Whether the nearest-rank percentile `p` of `n` samples has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    n >= rank + TAIL_MIN_BEYOND && rank >= 1
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, as `(percentile, value)`: the sample at sorted index
/// `n - 11`, whose percentile is `(n - 10) / n`. `None` below 11 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let idx = n - TAIL_MIN_BEYOND - 1;
    let pct = (idx + 1) as f64 / n as f64 * 100.0;
    // Floor to one decimal so the label never overstates the percentile.
    Some(((pct * 10.0).floor() / 10.0, v[idx]))
}

/// One line of the human-readable report: `median`, the tail rule and
/// the sample count.
pub fn describe(samples: &[f64], digits: usize) -> String {
    let Some(med) = median(samples) else {
        return "no samples".to_string();
    };
    let tail = match tail(samples) {
        Some((pct, v)) => format!("p{pct} {v:.digits$}"),
        None => "tail n/a (<11 samples)".to_string(),
    };
    format!("median {med:.digits$}  {tail}  n={}", samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled on purpose: summaries must not assume sorted input
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn every_input_weighs_the_same() {
        // input 0 has three samples, input 1 one: the mean of their
        // medians, not the median of all four
        let s = [(0, 1.0), (1, 10.0), (0, 3.0), (0, 2.0)];
        assert_eq!(mean_over_inputs(&s, median), Some(6.0));
        assert_eq!(mean_over_inputs(&s, mean), Some(6.0));
        assert_eq!(mean_over_inputs(&[], median), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let s = ramp(1000);
        let (pct, v) = tail(&s).expect("1000 samples");
        assert_eq!(pct, 99.0);
        assert_eq!(v, 990.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let (pct, v) = tail(&ramp(11)).expect("11 samples");
        assert_eq!(v, 1.0, "only the minimum has ten samples beyond it");
        assert_eq!(pct, 9.0);
    }

    #[test]
    fn tail_label_never_overstates() {
        // 999 samples: index 988 is the 98.998…th percentile, shown as 98.9
        let (pct, _) = tail(&ramp(999)).expect("999 samples");
        assert_eq!(pct, 98.9);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(21, 50.0));
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(1000), 50.0), Some(500.0));
    }
}
