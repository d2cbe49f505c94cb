//! Runtime local-kernel selection: a calibrated cost heuristic that picks
//! the cheapest skyline kernel for a block from three cheap statistics —
//! cardinality, dimensionality, and a sampled correlation estimate.
//!
//! The three kernels occupy different regimes:
//!
//! * [`block_bnl`](crate::kernel::block_bnl) pays no presort, so it wins
//!   wherever the expected skyline is tiny — small blocks, low
//!   dimensionality (d ≤ 3 under any distribution), and correlated data at
//!   moderate cardinality: the window holds the whole answer and every
//!   scan is short.
//! * [`block_salsa`](crate::salsa::block_salsa) wins when the scan volume
//!   is huge *and* its early-stop watermark fires, which needs a point
//!   with a small *maximum* coordinate — the signature of correlated data
//!   at large n and d ≥ 5.
//! * [`block_sfs`](crate::kernel::block_sfs) is the robust sort-based
//!   default for the regimes left over: independent and anti-correlated
//!   data at d ≥ 4–5, where skylines are large, BNL's bounded window
//!   thrashes through multiple passes, and no early-stop bound can fire.
//!
//! The decision statistic for correlated-vs-not is the **mean pairwise
//! Pearson correlation** across dimensions, estimated from a deterministic
//! stride sample via the variance identity
//! `Var(Σ X_k) = Σ Var(X_k) + 2 Σ_{j<k} Cov(X_j, X_k)`:
//! one pass over the sample yields per-column variances and the row-sum
//! variance, and the normalized excess
//! `ρ̂ = (Var(S) − Σ σ_k²) / (2 Σ_{j<k} σ_j σ_k)` falls in `[-1, 1]`.
//! No RNG is involved, so selection is deterministic and replay-stable.

use crate::block::PointBlock;
use crate::kernel::{block_bnl_stats, block_sfs_stats, BnlConfig, KernelStats};
use crate::salsa::block_salsa_stats;

/// A concrete block-skyline kernel, the unit of runtime dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKernel {
    /// Block-Nested-Loops with a self-organising window.
    Bnl,
    /// Sort-Filter-Skyline (entropy-score presort, single pass).
    Sfs,
    /// SaLSa (min-coordinate presort, early-stop watermark).
    Salsa,
}

impl BlockKernel {
    /// Stable lowercase name, used in trace events and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            BlockKernel::Bnl => "bnl",
            BlockKernel::Sfs => "sfs",
            BlockKernel::Salsa => "salsa",
        }
    }

    /// Runs this kernel on `block`. `bnl` configures the BNL window; the
    /// sort-based kernels have no knobs.
    pub fn run(self, block: &PointBlock, bnl: &BnlConfig) -> (PointBlock, KernelStats) {
        match self {
            BlockKernel::Bnl => block_bnl_stats(block, bnl),
            BlockKernel::Sfs => block_sfs_stats(block),
            BlockKernel::Salsa => block_salsa_stats(block),
        }
    }
}

/// Calibrated decision boundaries for [`KernelChoice::select`].
///
/// Defaults are fit to the `kernels` bench sweep (kernel × d ∈ {2,4,6,8} ×
/// n ∈ {10k,100k,1M} × distribution, see `BENCH_kernels.json`) on the
/// reference host; they are knobs rather than constants so the bench
/// harness can probe alternative boundaries without rebuilding.
#[derive(Debug, Clone)]
pub struct KernelChoice {
    /// Below this many rows the presort is not worth it: BNL.
    pub small_input: usize,
    /// Mean pairwise correlation at or above which the block counts as
    /// *correlated* — tiny skylines, and a good-everywhere point that can
    /// arm the SaLSa watermark.
    pub correlated_cutoff: f64,
    /// Mean pairwise correlation at or below which a d=4 block counts as
    /// *anti-correlated* enough for the SFS presort to pay (at d≥5 it
    /// always does, at d≤3 it never does).
    pub anti_cutoff: f64,
    /// At or below this many dimensions skylines stay small enough that
    /// BNL's window never thrashes — sorting is pure overhead.
    pub low_dims: usize,
    /// On correlated data BNL's window holds the handful of skyline points
    /// and every scan is short; only past this many rows does the scan
    /// volume itself justify a presort.
    pub salsa_min_rows: usize,
}

impl Default for KernelChoice {
    fn default() -> Self {
        Self {
            small_input: 1024,
            correlated_cutoff: 0.15,
            anti_cutoff: -0.20,
            low_dims: 3,
            salsa_min_rows: 300_000,
        }
    }
}

impl KernelChoice {
    /// Picks a kernel for a block of `rows` × `dims` whose sampled mean
    /// pairwise correlation is `correlation_estimate`.
    ///
    /// The boundary is a decision list fit to the measured sweep, not a
    /// cost formula. The governing quantity is the expected skyline size
    /// (it sets BNL's window length and pass count): small blocks, low
    /// dimensionality, and correlated data all keep it tiny — BNL. Large
    /// correlated blocks have huge scan volume but an early-stop point —
    /// SaLSa (except at d≤3, where the watermark arms too slowly and the
    /// entropy order wins — SFS; and at d = `low_dims + 1`, where BNL's
    /// window still holds the skyline — BNL). Independent/anti-correlated
    /// blocks at d≥4–5 grow skylines that thrash BNL's window — SFS.
    pub fn select(&self, rows: usize, dims: usize, correlation_estimate: f64) -> BlockKernel {
        if rows < self.small_input || dims < 2 {
            return BlockKernel::Bnl;
        }
        if correlation_estimate >= self.correlated_cutoff {
            if rows <= self.salsa_min_rows {
                BlockKernel::Bnl
            } else if dims <= self.low_dims {
                BlockKernel::Sfs
            } else if dims == self.low_dims + 1 {
                // The correlated crossover band mirrors the anti side: at
                // d = low_dims + 1 the skyline still fits BNL's window and
                // the watermark arms too late to beat a presort-free scan.
                BlockKernel::Bnl
            } else {
                BlockKernel::Salsa
            }
        } else if dims <= self.low_dims {
            BlockKernel::Bnl
        } else if dims > self.low_dims + 1 || correlation_estimate <= self.anti_cutoff {
            BlockKernel::Sfs
        } else {
            // d == low_dims + 1 and not anti enough: the crossover band —
            // measured margins here are under ~20% either way.
            BlockKernel::Bnl
        }
    }

    /// Samples `block` and selects a kernel for it — the `Auto` path used
    /// by the pipeline per partition.
    pub fn select_for_block(&self, block: &PointBlock) -> BlockKernel {
        self.select(block.len(), block.dim(), correlation_estimate(block))
    }
}

/// Rows examined by [`correlation_estimate`] — enough for a stable sign
/// and magnitude of ρ̂, cheap enough to be noise next to any kernel.
const SAMPLE_ROWS: usize = 256;

/// Estimates the mean pairwise Pearson correlation across dimensions from
/// a deterministic stride sample of at most [`SAMPLE_ROWS`] rows.
///
/// Returns a value clamped to `[-1, 1]`; degenerate blocks (under two
/// rows, one dimension, or zero variance in every column) report `0.0`.
pub fn correlation_estimate(block: &PointBlock) -> f64 {
    let n = block.len();
    let d = block.dim();
    if n < 2 || d < 2 {
        return 0.0;
    }
    let step = n.div_ceil(SAMPLE_ROWS).max(1);
    let mut count = 0.0f64;
    let mut col_sum = vec![0.0f64; d];
    let mut col_sq = vec![0.0f64; d];
    let mut row_sum_total = 0.0f64;
    let mut row_sum_sq = 0.0f64;
    let mut i = 0;
    while i < n {
        let row = block.row(i);
        let mut s = 0.0;
        for (k, &v) in row.iter().enumerate() {
            col_sum[k] += v;
            col_sq[k] += v * v;
            s += v;
        }
        row_sum_total += s;
        row_sum_sq += s * s;
        count += 1.0;
        i += step;
    }
    if count < 2.0 {
        return 0.0;
    }
    let var = |sum: f64, sq: f64| (sq / count - (sum / count).powi(2)).max(0.0);
    let col_vars: Vec<f64> = (0..d).map(|k| var(col_sum[k], col_sq[k])).collect();
    let var_sum: f64 = col_vars.iter().sum();
    let sigma_sum: f64 = col_vars.iter().map(|v| v.sqrt()).sum();
    // 2 Σ_{j<k} σ_j σ_k = (Σ σ_k)² − Σ σ_k²
    let denom = sigma_sum * sigma_sum - var_sum;
    if denom <= f64::EPSILON {
        return 0.0;
    }
    let total_var = var(row_sum_total, row_sum_sq);
    ((total_var - var_sum) / denom).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn block_from(rows: &[Vec<f64>]) -> PointBlock {
        let mut b = PointBlock::new(rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            b.push(i as u64, r).unwrap();
        }
        b
    }

    fn synthetic(n: usize, d: usize, rho: f64, seed: u64) -> PointBlock {
        // shared-level mixture: coordinate = sqrt(rho)*level + sqrt(1-rho)*noise
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = PointBlock::new(d);
        let (a, c) = (rho.max(0.0).sqrt(), (1.0 - rho.max(0.0)).sqrt());
        for i in 0..n {
            let level: f64 = rng.gen_range(0.0..1.0);
            let row: Vec<f64> = (0..d)
                .map(|_| a * level + c * rng.gen_range(0.0..1.0))
                .collect();
            b.push(i as u64, &row).unwrap();
        }
        b
    }

    #[test]
    fn correlated_blocks_read_high() {
        let rho = correlation_estimate(&synthetic(4000, 4, 0.9, 1));
        assert!(rho > 0.5, "rho = {rho}");
    }

    #[test]
    fn independent_blocks_read_near_zero() {
        let rho = correlation_estimate(&synthetic(4000, 4, 0.0, 2));
        assert!(rho.abs() < 0.15, "rho = {rho}");
    }

    #[test]
    fn anti_correlated_blocks_read_negative() {
        // two dimensions that sum to 1: perfectly anti-correlated
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = PointBlock::new(2);
        for i in 0..4000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            b.push(i as u64, &[x, 1.0 - x]).unwrap();
        }
        let rho = correlation_estimate(&b);
        assert!(rho < -0.9, "rho = {rho}");
    }

    #[test]
    fn degenerate_blocks_report_zero() {
        assert_eq!(correlation_estimate(&PointBlock::new(3)), 0.0);
        let constant = block_from(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert_eq!(correlation_estimate(&constant), 0.0);
        let single = block_from(&[vec![1.0, 2.0]]);
        assert_eq!(correlation_estimate(&single), 0.0);
    }

    #[test]
    fn estimate_is_deterministic() {
        let b = synthetic(10_000, 5, 0.4, 7);
        assert_eq!(correlation_estimate(&b), correlation_estimate(&b));
    }

    #[test]
    fn boundaries_route_to_the_expected_kernels() {
        let c = KernelChoice::default();
        assert_eq!(c.select(100, 4, 0.0), BlockKernel::Bnl, "small input");
        assert_eq!(
            c.select(100_000, 4, 0.9),
            BlockKernel::Bnl,
            "correlated at moderate n: tiny skyline, short scans"
        );
        assert_eq!(
            c.select(1_000_000, 6, 0.9),
            BlockKernel::Salsa,
            "correlated at scale: the watermark pays"
        );
        assert_eq!(
            c.select(1_000_000, 4, 0.9),
            BlockKernel::Bnl,
            "correlated crossover band: window beats any presort at d=4"
        );
        assert_eq!(
            c.select(1_000_000, 2, 0.9),
            BlockKernel::Sfs,
            "correlated 2-D at scale: entropy order beats the watermark"
        );
        assert_eq!(c.select(100_000, 6, -0.5), BlockKernel::Sfs, "anti");
        assert_eq!(c.select(100_000, 4, -0.3), BlockKernel::Sfs, "anti d=4");
        assert_eq!(c.select(100_000, 6, 0.0), BlockKernel::Sfs, "independent");
        assert_eq!(
            c.select(1_000_000, 4, 0.0),
            BlockKernel::Bnl,
            "independent d=4: skyline stays in one window"
        );
        assert_eq!(c.select(100_000, 2, -0.9), BlockKernel::Bnl, "2-D anti");
        assert_eq!(c.select(100_000, 1, 0.0), BlockKernel::Bnl, "1-D");
    }

    #[test]
    fn all_kernels_agree_through_the_dispatcher() {
        let b = synthetic(500, 3, 0.2, 11);
        let cfg = BnlConfig::default();
        let mut results: Vec<Vec<u64>> = [BlockKernel::Bnl, BlockKernel::Sfs, BlockKernel::Salsa]
            .iter()
            .map(|k| {
                let (sky, stats) = k.run(&b, &cfg);
                assert_eq!(stats.output_len, sky.len() as u64);
                let mut ids = sky.ids().to_vec();
                ids.sort_unstable();
                ids
            })
            .collect();
        let first = results.remove(0);
        for r in results {
            assert_eq!(r, first);
        }
    }

    #[test]
    fn select_for_block_uses_the_sampled_estimate() {
        let c = KernelChoice {
            salsa_min_rows: 4000,
            ..KernelChoice::default()
        };
        assert_eq!(
            c.select_for_block(&synthetic(5000, 6, 0.9, 13)),
            BlockKernel::Salsa,
            "reads as correlated, past the scan-volume bar"
        );
        assert_eq!(
            c.select_for_block(&synthetic(5000, 6, 0.0, 14)),
            BlockKernel::Sfs,
            "reads as independent at d=6"
        );
    }
}
