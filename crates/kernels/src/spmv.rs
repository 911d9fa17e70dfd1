//! `spvm` — sparse matrix–vector multiplication (Table 2: "load imbalance").
//! CSR format with a deliberately skewed row-length distribution: the
//! imbalance the paper's property names when rows are split across threads.

use soc_arch::{AccessPattern, WorkProfile};

/// A CSR sparse matrix.
#[derive(Clone, Debug)]
pub struct Csr {
    /// Number of rows (and columns; square).
    pub n: usize,
    /// Row pointer array, length `n + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices, length nnz.
    pub col_idx: Vec<u32>,
    /// Values, length nnz.
    pub values: Vec<f64>,
}

impl Csr {
    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// Problem configuration for `spvm`.
#[derive(Clone, Copy, Debug)]
pub struct SpmvConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Average non-zeros per row.
    pub avg_nnz_per_row: usize,
    /// Skew: every 64th row gets `skew ×` the average length (power-law-ish
    /// head, the source of load imbalance).
    pub skew: usize,
}

impl SpmvConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        SpmvConfig { n: 1 << 20, avg_nnz_per_row: 10, skew: 16 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        SpmvConfig { n: 2000, avg_nnz_per_row: 8, skew: 8 }
    }

    /// Expected non-zero count for this configuration.
    pub fn expected_nnz(&self) -> usize {
        let heavy = self.n.div_ceil(64); // rows with i % 64 == 0
        let light = self.n - heavy;
        light * self.avg_nnz_per_row + heavy * self.avg_nnz_per_row * self.skew
    }

    /// Work profile: 2 flops per non-zero; traffic = CSR streams (value 8 B +
    /// index 4 B per nnz) plus irregular gathers from `x` (charged as a
    /// partial cache-line per nnz). Load imbalance from the skewed rows.
    pub fn profile(&self) -> WorkProfile {
        let nnz = self.expected_nnz() as f64;
        WorkProfile::new("spvm", 2.0 * nnz, 12.0 * nnz + 0.1 * 64.0 * nnz, AccessPattern::Irregular)
            .with_parallel_fraction(0.98)
            .with_imbalance(0.30)
    }
}

/// Build the deterministic skewed CSR matrix.
pub fn build_matrix(cfg: &SpmvConfig) -> Csr {
    let n = cfg.n;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for i in 0..n {
        let len = if i % 64 == 0 { cfg.avg_nnz_per_row * cfg.skew } else { cfg.avg_nnz_per_row };
        for k in 0..len {
            // Deterministic scatter of column indices.
            let mut h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((k as u64).wrapping_mul(0xBF58476D1CE4E5B9));
            h ^= h >> 29;
            let col = (h % n as u64) as u32;
            col_idx.push(col);
            values.push(((h % 1000) as f64 - 500.0) * 1e-3);
        }
        row_ptr.push(col_idx.len());
    }
    Csr { n, row_ptr, col_idx, values }
}

/// Deterministic input vector.
pub fn input_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 113) as f64 - 56.0) * 0.01).collect()
}

/// SpMV: `y = A x`.
pub fn run(a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.n);
    assert_eq!(y.len(), a.n);
    for i in 0..a.n {
        let mut acc = 0.0;
        for k in a.row_ptr[i]..a.row_ptr[i + 1] {
            acc += a.values[k] * x[a.col_idx[k] as usize];
        }
        y[i] = acc;
    }
}

/// Result checksum.
pub fn checksum(y: &[f64]) -> f64 {
    y.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matrix_maps_x_to_x() {
        let n = 100;
        let a = Csr {
            n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        };
        let x = input_vector(n);
        let mut y = vec![0.0; n];
        run(&a, &x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn matrix_has_expected_nnz_and_skew() {
        let cfg = SpmvConfig::small();
        let a = build_matrix(&cfg);
        assert_eq!(a.nnz(), cfg.expected_nnz());
        // Row 0 is heavy, row 1 is light.
        let len0 = a.row_ptr[1] - a.row_ptr[0];
        let len1 = a.row_ptr[2] - a.row_ptr[1];
        assert_eq!(len0, cfg.avg_nnz_per_row * cfg.skew);
        assert_eq!(len1, cfg.avg_nnz_per_row);
    }

    #[test]
    fn linearity_of_spmv() {
        let cfg = SpmvConfig::small();
        let a = build_matrix(&cfg);
        let x = input_vector(cfg.n);
        let x2: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let mut y1 = vec![0.0; cfg.n];
        let mut y2 = vec![0.0; cfg.n];
        run(&a, &x, &mut y1);
        run(&a, &x2, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_carries_imbalance() {
        let p = SpmvConfig::nominal().profile();
        assert!(p.imbalance > 0.2);
        assert_eq!(p.pattern, AccessPattern::Irregular);
    }
}
