//! `dmmm` — dense matrix–matrix multiplication (Table 2: "data reuse and
//! compute performance"). Cache-blocked `C = A · B` on row-major square
//! matrices.

use soc_arch::{AccessPattern, WorkProfile};

/// Cache block edge (elements). 64×64×8 B = 32 KiB per block operand — fits
/// the 32 KiB L1 of every evaluated platform with the usual three-block
/// working set in L2.
pub const BLOCK: usize = 64;

/// Problem configuration for `dmmm`.
#[derive(Clone, Copy, Debug)]
pub struct DmmmConfig {
    /// Matrix edge length.
    pub n: usize,
}

impl DmmmConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        DmmmConfig { n: 416 }
    }

    /// Test-scale problem (deliberately not a multiple of BLOCK to exercise
    /// edge handling).
    pub fn small() -> Self {
        DmmmConfig { n: 97 }
    }

    /// Work profile: `2n³` flops; DRAM traffic modelled as ~4 full passes
    /// over the three `n²` matrices (blocked reuse keeps most traffic in
    /// cache). LocalityRich pattern.
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        WorkProfile::new(
            "dmmm",
            2.0 * n * n * n,
            4.0 * 3.0 * 8.0 * n * n,
            AccessPattern::LocalityRich,
        )
    }
}

/// Deterministic input matrices (row-major `n × n`).
pub fn inputs(cfg: &DmmmConfig) -> (Vec<f64>, Vec<f64>) {
    let n = cfg.n;
    let a: Vec<f64> = (0..n * n).map(|i| ((i % 13) as f64 - 6.0) * 0.25).collect();
    let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64 - 3.0) * 0.5).collect();
    (a, b)
}

/// Naive triple loop, used as the correctness reference.
pub fn run_naive(cfg: &DmmmConfig, a: &[f64], b: &[f64], c: &mut [f64]) {
    let n = cfg.n;
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Cache-blocked multiplication.
pub fn run(cfg: &DmmmConfig, a: &[f64], b: &[f64], c: &mut [f64]) {
    let n = cfg.n;
    c.fill(0.0);
    for ii in (0..n).step_by(BLOCK) {
        let ie = (ii + BLOCK).min(n);
        for kk in (0..n).step_by(BLOCK) {
            let ke = (kk + BLOCK).min(n);
            for jj in (0..n).step_by(BLOCK) {
                let je = (jj + BLOCK).min(n);
                block_update(a, b, c, n, ii..ie, kk..ke, jj..je);
            }
        }
    }
}

fn block_update(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    irange: std::ops::Range<usize>,
    krange: std::ops::Range<usize>,
    jrange: std::ops::Range<usize>,
) {
    for i in irange {
        for k in krange.clone() {
            let aik = a[i * n + k];
            let brow = &b[k * n..k * n + n];
            let crow = &mut c[i * n..(i + 1) * n];
            for j in jrange.clone() {
                crow[j] += aik * brow[j];
            }
        }
    }
}

/// Frobenius-norm style checksum.
pub fn checksum(c: &[f64]) -> f64 {
    c.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn blocked_matches_naive() {
        let cfg = DmmmConfig::small();
        let (a, b) = inputs(&cfg);
        let mut c_ref = vec![0.0; cfg.n * cfg.n];
        let mut c_blk = vec![0.0; cfg.n * cfg.n];
        run_naive(&cfg, &a, &b, &mut c_ref);
        run(&cfg, &a, &b, &mut c_blk);
        assert!(max_abs_diff(&c_ref, &c_blk) < 1e-9);
    }

    #[test]
    fn identity_multiplication() {
        let n = 65;
        let cfg = DmmmConfig { n };
        let mut ident = vec![0.0; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        let (a, _) = inputs(&cfg);
        let mut c = vec![0.0; n * n];
        run(&cfg, &a, &ident, &mut c);
        assert!(max_abs_diff(&a, &c) < 1e-12);
    }

    #[test]
    fn profile_flops_are_2n_cubed() {
        let p = DmmmConfig { n: 100 }.profile();
        assert_eq!(p.flops, 2_000_000.0);
        assert_eq!(p.pattern, AccessPattern::LocalityRich);
    }
}
