//! `vecop` — vector operation (Table 2: "common operation in regular
//! numerical codes"). A DAXPY-style update `z[i] = alpha * x[i] + y[i]`.

use soc_arch::{AccessPattern, WorkProfile};

/// Problem configuration for `vecop`.
#[derive(Clone, Copy, Debug)]
pub struct VecopConfig {
    /// Vector length.
    pub n: usize,
    /// Scale factor.
    pub alpha: f64,
}

impl VecopConfig {
    /// The paper-scale problem used for Fig 3/4 modelling.
    pub fn nominal() -> Self {
        VecopConfig { n: 4_500_000, alpha: 1.5 }
    }

    /// A small instance for functional tests.
    pub fn small() -> Self {
        VecopConfig { n: 4096, alpha: 1.5 }
    }

    /// Work profile: 2 flops/element (mul + add); reads `x` and `y`, writes
    /// `z` — 24 bytes of streaming DRAM traffic per element.
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile::new("vecop", 2.0 * n, 24.0 * n, AccessPattern::Streaming)
    }
}

/// Deterministic input vectors for a given size.
pub fn inputs(cfg: &VecopConfig) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..cfg.n).map(|i| (i % 1000) as f64 * 0.001).collect();
    let y: Vec<f64> = (0..cfg.n).map(|i| ((i * 7) % 1000) as f64 * 0.002).collect();
    (x, y)
}

/// DAXPY.
pub fn run(cfg: &VecopConfig, x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), cfg.n);
    assert_eq!(y.len(), cfg.n);
    assert_eq!(z.len(), cfg.n);
    for i in 0..cfg.n {
        z[i] = cfg.alpha * x[i] + y[i];
    }
}

/// Output checksum: the sum of `z`.
pub fn checksum(z: &[f64]) -> f64 {
    z.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_formula() {
        let cfg = VecopConfig { n: 8, alpha: 2.0 };
        let x = vec![1.0; 8];
        let y = vec![3.0; 8];
        let mut z = vec![0.0; 8];
        run(&cfg, &x, &y, &mut z);
        assert!(z.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn profile_counts_are_exact() {
        let cfg = VecopConfig { n: 1000, alpha: 1.0 };
        let p = cfg.profile();
        assert_eq!(p.flops, 2000.0);
        assert_eq!(p.dram_bytes, 24_000.0);
        assert_eq!(p.pattern, AccessPattern::Streaming);
        assert_eq!(p.parallel_fraction, 1.0);
    }
}
