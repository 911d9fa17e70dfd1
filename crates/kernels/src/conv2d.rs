//! `2dcon` — 2-D convolution (Table 2: "spatial locality"). A 5×5 kernel
//! convolved over an image, repeated for a configurable number of passes.

use soc_arch::{AccessPattern, WorkProfile};

/// Convolution kernel radius (5×5 filter).
pub const RADIUS: usize = 2;
/// Filter edge length.
pub const K: usize = 2 * RADIUS + 1;

/// Problem configuration for `2dcon`.
#[derive(Clone, Copy, Debug)]
pub struct Conv2dConfig {
    /// Image edge length.
    pub n: usize,
    /// Number of convolution passes.
    pub passes: usize,
}

impl Conv2dConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        Conv2dConfig { n: 1368, passes: 2 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        Conv2dConfig { n: 40, passes: 2 }
    }

    /// Work profile: 2·K² flops per interior pixel per pass (multiply +
    /// accumulate over the 25-tap filter); strong spatial locality keeps
    /// DRAM traffic to one read + one write of the image per pass.
    pub fn profile(&self) -> WorkProfile {
        let px = (self.n as f64) * (self.n as f64);
        let p = self.passes as f64;
        WorkProfile::new(
            "2dcon",
            2.0 * (K * K) as f64 * px * p,
            2.0 * 8.0 * px * p,
            AccessPattern::LocalityRich,
        )
    }
}

/// A normalised 5×5 binomial-ish blur filter.
pub fn filter() -> [f64; K * K] {
    let w1d = [1.0, 4.0, 6.0, 4.0, 1.0];
    let mut f = [0.0; K * K];
    let mut sum = 0.0;
    for i in 0..K {
        for j in 0..K {
            f[i * K + j] = w1d[i] * w1d[j];
            sum += f[i * K + j];
        }
    }
    for v in &mut f {
        *v /= sum;
    }
    f
}

/// Deterministic input image.
pub fn inputs(cfg: &Conv2dConfig) -> Vec<f64> {
    let n = cfg.n;
    (0..n * n).map(|i| ((i * 31 % 251) as f64) / 251.0).collect()
}

#[inline]
fn conv_pixel(src: &[f64], n: usize, f: &[f64; K * K], x: usize, y: usize) -> f64 {
    let mut acc = 0.0;
    for fy in 0..K {
        let row = (y + fy - RADIUS) * n;
        for fx in 0..K {
            acc += f[fy * K + fx] * src[row + x + fx - RADIUS];
        }
    }
    acc
}

/// Convolution passes (boundary pixels are copied through).
pub fn run(cfg: &Conv2dConfig, image: &[f64]) -> Vec<f64> {
    let n = cfg.n;
    let f = filter();
    let mut a = image.to_vec();
    let mut b = image.to_vec();
    for _ in 0..cfg.passes {
        for y in RADIUS..n - RADIUS {
            for x in RADIUS..n - RADIUS {
                b[y * n + x] = conv_pixel(&a, n, &f, x, y);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Image checksum.
pub fn checksum(img: &[f64]) -> f64 {
    img.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_is_normalised() {
        let f = filter();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_image_is_fixed_point() {
        let cfg = Conv2dConfig { n: 16, passes: 3 };
        let img = vec![0.7; 256];
        let out = run(&cfg, &img);
        for &v in &out {
            assert!((v - 0.7).abs() < 1e-12);
        }
    }

    #[test]
    fn blur_reduces_extremes() {
        let cfg = Conv2dConfig { n: 20, passes: 1 };
        let mut img = vec![0.0; 400];
        img[10 * 20 + 10] = 1.0; // single spike
        let out = run(&cfg, &img);
        let m = out.iter().cloned().fold(0.0, f64::max);
        assert!(m < 0.2, "spike should spread, max {m}");
        // Energy (sum) is conserved away from boundaries.
        assert!((checksum(&out) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_flops_per_pixel() {
        let p = Conv2dConfig { n: 100, passes: 1 }.profile();
        assert_eq!(p.flops, 2.0 * 25.0 * 10_000.0);
    }
}
