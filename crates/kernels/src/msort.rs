//! `msort` — generic merge sort (Table 2: "barrier operations"). A bottom-up
//! merge sort that joins sorted runs level by level — in a parallel sort each
//! level ends in the barrier the paper's property names.

use soc_arch::{AccessPattern, WorkProfile};

/// Problem configuration for `msort`.
#[derive(Clone, Copy, Debug)]
pub struct MsortConfig {
    /// Number of keys.
    pub n: usize,
}

impl MsortConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        MsortConfig { n: 1_200_000 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        MsortConfig { n: 10_000 }
    }

    /// Work profile: ~2 ops-equivalent per element per merge level over the
    /// out-of-cache levels; traffic is one read + one write of the array per
    /// out-of-cache level (in-cache base runs are free). Barrier levels limit
    /// the parallel fraction.
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        // Runs below ~32K elements sort inside the L2 of every platform.
        let levels = ((self.n as f64) / 32_768.0).log2().max(1.0).ceil();
        WorkProfile::new(
            "msort",
            2.0 * n * levels,
            2.0 * 8.0 * n * levels,
            AccessPattern::Streaming,
        )
        .with_parallel_fraction(0.85)
    }
}

/// Deterministic pseudo-random input keys.
pub fn inputs(cfg: &MsortConfig) -> Vec<f64> {
    (0..cfg.n)
        .map(|i| {
            let mut x =
                (i as u64).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x ^= x >> 33;
            (x % 1_000_000) as f64 * 1e-3 - 500.0
        })
        .collect()
}

fn merge(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for o in out.iter_mut() {
        if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            *o = a[i];
            i += 1;
        } else {
            *o = b[j];
            j += 1;
        }
    }
}

/// Bottom-up merge sort (stable).
pub fn run(cfg: &MsortConfig, data: &[f64]) -> Vec<f64> {
    let n = cfg.n;
    let mut a = data.to_vec();
    let mut b = vec![0.0; n];
    let mut width = 1;
    while width < n {
        for start in (0..n).step_by(2 * width) {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            merge(&a[start..mid], &a[mid..end], &mut b[start..end]);
        }
        std::mem::swap(&mut a, &mut b);
        width *= 2;
    }
    a
}

/// Whether a slice is sorted ascending.
pub fn is_sorted(data: &[f64]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_small_known_input() {
        let cfg = MsortConfig { n: 7 };
        let out = run(&cfg, &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]);
        assert_eq!(out, vec![1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0]);
    }

    #[test]
    fn sorted_output_is_permutation() {
        let cfg = MsortConfig { n: 5000 };
        let data = inputs(&cfg);
        let out = run(&cfg, &data);
        assert!(is_sorted(&out));
        let mut expect = data;
        expect.sort_by(f64::total_cmp);
        assert_eq!(out, expect);
    }

    #[test]
    fn profile_has_barrier_limited_parallelism() {
        let p = MsortConfig::nominal().profile();
        assert!(p.parallel_fraction < 0.9);
    }
}
