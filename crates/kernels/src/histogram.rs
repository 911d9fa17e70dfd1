//! `hist` — histogram calculation (Table 2: "histogram with local
//! privatisation, requires reduction stage").

use soc_arch::{AccessPattern, WorkProfile};

/// Problem configuration for `hist`.
#[derive(Clone, Copy, Debug)]
pub struct HistogramConfig {
    /// Number of input items.
    pub n: usize,
    /// Number of bins.
    pub bins: usize,
    /// Number of repetitions.
    pub passes: usize,
}

impl HistogramConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        HistogramConfig { n: 4_500_000, bins: 256, passes: 3 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        HistogramConfig { n: 50_000, bins: 64, passes: 2 }
    }

    /// Work profile: ~3 integer ops-equivalent per item per pass (hash, bin,
    /// increment), irregular bin updates; inputs stream from DRAM. The merge
    /// of privatised histograms is the serial tail.
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        let p = self.passes as f64;
        WorkProfile::new("hist", 3.0 * n * p, 4.0 * n * p, AccessPattern::Irregular)
            .with_parallel_fraction(0.97)
            .with_imbalance(0.05)
    }
}

/// Deterministic pseudo-random input keys (xorshift-mixed indices).
pub fn inputs(cfg: &HistogramConfig) -> Vec<u32> {
    (0..cfg.n as u32)
        .map(|i| {
            let mut x = i.wrapping_mul(2654435761).wrapping_add(12345);
            x ^= x >> 13;
            x = x.wrapping_mul(0x5bd1e995);
            x ^= x >> 15;
            x
        })
        .collect()
}

#[inline]
fn bin_of(key: u32, bins: usize) -> usize {
    (key as usize) % bins
}

/// Histogram (all passes accumulate into the same counts).
pub fn run(cfg: &HistogramConfig, keys: &[u32]) -> Vec<u64> {
    let mut counts = vec![0u64; cfg.bins];
    for _ in 0..cfg.passes {
        for &k in keys {
            counts[bin_of(k, cfg.bins)] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_input_size_times_passes() {
        let cfg = HistogramConfig::small();
        let keys = inputs(&cfg);
        let counts = run(&cfg, &keys);
        assert_eq!(counts.iter().sum::<u64>(), (cfg.n * cfg.passes) as u64);
    }

    #[test]
    fn known_distribution() {
        let cfg = HistogramConfig { n: 8, bins: 4, passes: 1 };
        let keys = [0u32, 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(run(&cfg, &keys), vec![2, 2, 2, 2]);
    }

    #[test]
    fn hash_spreads_keys_roughly_uniformly() {
        let cfg = HistogramConfig { n: 100_000, bins: 16, passes: 1 };
        let keys = inputs(&cfg);
        let counts = run(&cfg, &keys);
        let expect = cfg.n as f64 / cfg.bins as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bin {b}: {c} vs {expect}");
        }
    }

    #[test]
    fn profile_reflects_irregular_pattern() {
        let p = HistogramConfig::nominal().profile();
        assert_eq!(p.pattern, AccessPattern::Irregular);
        assert!(p.imbalance > 0.0);
    }
}
