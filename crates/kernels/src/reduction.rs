//! `red` — reduction operation (Table 2: "varying levels of parallelism
//! (scalar sum)"). A two-pass sum: elementwise transform + global reduce.

use soc_arch::{AccessPattern, WorkProfile};

/// Problem configuration for `red`.
#[derive(Clone, Copy, Debug)]
pub struct ReductionConfig {
    /// Vector length.
    pub n: usize,
    /// Number of reduction passes (the paper iterates the kernel).
    pub passes: usize,
}

impl ReductionConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        ReductionConfig { n: 9_000_000, passes: 2 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        ReductionConfig { n: 10_000, passes: 2 }
    }

    /// Work profile: 2 flops per element per pass (scale + accumulate),
    /// streaming read traffic; the final tree-combine is the serial tail
    /// ("varying levels of parallelism").
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        let p = self.passes as f64;
        WorkProfile::new("red", 2.0 * n * p, 8.0 * n * p, AccessPattern::Streaming)
            .with_parallel_fraction(0.98)
    }
}

/// Deterministic input vector.
pub fn inputs(cfg: &ReductionConfig) -> Vec<f64> {
    (0..cfg.n).map(|i| ((i % 997) as f64 - 498.0) * 1e-3).collect()
}

/// Reduction: `sum(0.5 * x[i])` per pass, chained so passes are not dead
/// code.
pub fn run(cfg: &ReductionConfig, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for _ in 0..cfg.passes {
        let mut s = 0.0;
        for &v in x {
            s += 0.5 * v;
        }
        acc += s;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_of_known_vector() {
        let cfg = ReductionConfig { n: 4, passes: 1 };
        assert_eq!(run(&cfg, &[2.0, 4.0, 6.0, 8.0]), 10.0);
    }

    #[test]
    fn passes_accumulate() {
        let cfg1 = ReductionConfig { n: 4, passes: 1 };
        let cfg3 = ReductionConfig { n: 4, passes: 3 };
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(run(&cfg3, &x), 3.0 * run(&cfg1, &x));
    }

    #[test]
    fn profile_parallel_fraction_below_one() {
        let p = ReductionConfig::nominal().profile();
        assert!(p.parallel_fraction < 1.0);
        assert_eq!(p.pattern, AccessPattern::Streaming);
    }
}
