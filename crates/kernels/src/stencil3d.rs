//! `3dstc` — 3-D volume stencil computation (Table 2: "strided memory
//! accesses (7-point 3D stencil)"). Jacobi-style sweeps of a 7-point stencil
//! over an `n³` grid.

use soc_arch::{AccessPattern, WorkProfile};

/// Problem configuration for `3dstc`.
#[derive(Clone, Copy, Debug)]
pub struct Stencil3dConfig {
    /// Grid edge (including boundary layers).
    pub n: usize,
    /// Number of Jacobi sweeps.
    pub sweeps: usize,
}

impl Stencil3dConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        Stencil3dConfig { n: 120, sweeps: 4 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        Stencil3dConfig { n: 18, sweeps: 3 }
    }

    /// Work profile: 8 flops per interior point per sweep (6 adds of
    /// neighbours + centre scale + combine); each sweep streams the grid in
    /// and out of DRAM with plane-sized strides.
    pub fn profile(&self) -> WorkProfile {
        let pts = (self.n as f64).powi(3);
        let s = self.sweeps as f64;
        WorkProfile::new("3dstc", 8.0 * pts * s, 2.0 * 8.0 * pts * s, AccessPattern::Strided)
    }
}

/// Deterministic initial grid.
pub fn inputs(cfg: &Stencil3dConfig) -> Vec<f64> {
    let n = cfg.n;
    (0..n * n * n).map(|i| ((i % 101) as f64 - 50.0) * 0.01).collect()
}

const C_CENTER: f64 = 0.4;
const C_NEIGH: f64 = 0.1;

#[inline]
fn stencil_point(src: &[f64], n: usize, x: usize, y: usize, z: usize) -> f64 {
    let idx = (z * n + y) * n + x;
    C_CENTER * src[idx]
        + C_NEIGH
            * (src[idx - 1]
                + src[idx + 1]
                + src[idx - n]
                + src[idx + n]
                + src[idx - n * n]
                + src[idx + n * n])
}

/// Jacobi sweeps: ping-pong between `a` and `b`, returning the final grid.
pub fn run(cfg: &Stencil3dConfig, grid: &[f64]) -> Vec<f64> {
    let n = cfg.n;
    let mut a = grid.to_vec();
    let mut b = grid.to_vec();
    for _ in 0..cfg.sweeps {
        for z in 1..n - 1 {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    b[(z * n + y) * n + x] = stencil_point(&a, n, x, y, z);
                }
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Interior-sum checksum (boundary untouched by construction).
pub fn checksum(grid: &[f64]) -> f64 {
    grid.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_is_fixed_point() {
        // Coefficients sum to 1.0, so a constant field is invariant.
        let cfg = Stencil3dConfig { n: 10, sweeps: 5 };
        let grid = vec![3.5; 1000];
        let out = run(&cfg, &grid);
        for &v in &out {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn boundary_is_preserved() {
        let cfg = Stencil3dConfig { n: 8, sweeps: 2 };
        let grid = inputs(&cfg);
        let out = run(&cfg, &grid);
        let n = cfg.n;
        // Check a corner and an edge stay untouched.
        assert_eq!(out[0], grid[0]);
        assert_eq!(out[n - 1], grid[n - 1]);
        assert_eq!(out[(n * n) * (n - 1)], grid[(n * n) * (n - 1)]);
    }

    #[test]
    fn smoothing_reduces_variance() {
        let cfg = Stencil3dConfig { n: 20, sweeps: 6 };
        let grid = inputs(&cfg);
        let out = run(&cfg, &grid);
        let var = |g: &[f64]| {
            let m = g.iter().sum::<f64>() / g.len() as f64;
            g.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / g.len() as f64
        };
        assert!(var(&out) < var(&grid));
    }

    #[test]
    fn profile_scales_with_sweeps() {
        let p1 = Stencil3dConfig { n: 32, sweeps: 1 }.profile();
        let p4 = Stencil3dConfig { n: 32, sweeps: 4 }.profile();
        assert_eq!(p4.flops, 4.0 * p1.flops);
        assert_eq!(p4.dram_bytes, 4.0 * p1.dram_bytes);
        assert_eq!(p1.pattern, AccessPattern::Strided);
    }
}
