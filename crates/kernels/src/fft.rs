//! `fft` — one-dimensional fast Fourier transform (Table 2: "peak
//! floating-point, variable-stride accesses"). Iterative radix-2
//! Cooley–Tukey on complex `f64` data.

use soc_arch::{AccessPattern, WorkProfile};

/// A complex number as a plain pair (kept dependency-free).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Cx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cx {
    /// Construct a complex value.
    pub fn new(re: f64, im: f64) -> Self {
        Cx { re, im }
    }

    #[inline]
    fn mul(self, o: Cx) -> Cx {
        Cx::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }

    #[inline]
    fn add(self, o: Cx) -> Cx {
        Cx::new(self.re + o.re, self.im + o.im)
    }

    #[inline]
    fn sub(self, o: Cx) -> Cx {
        Cx::new(self.re - o.re, self.im - o.im)
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Problem configuration for `fft`.
#[derive(Clone, Copy, Debug)]
pub struct FftConfig {
    /// Transform length; must be a power of two.
    pub n: usize,
}

impl FftConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        FftConfig { n: 1 << 19 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        FftConfig { n: 256 }
    }

    /// Work profile: `5 n log2 n` flops (the standard radix-2 count); DRAM
    /// traffic is the out-of-cache fraction of `log2 n` passes over the
    /// 16-byte complex array (later stages have long strides; early stages
    /// hit cache — we charge 40% of the full pass traffic).
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        let lg = (self.n as f64).log2();
        WorkProfile::new("fft", 5.0 * n * lg, 0.4 * lg * 2.0 * 16.0 * n, AccessPattern::Strided)
            .with_parallel_fraction(0.95)
    }
}

/// Deterministic input signal: a couple of tones plus a ramp.
pub fn inputs(cfg: &FftConfig) -> Vec<Cx> {
    let n = cfg.n;
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            Cx::new(
                (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * t).cos(),
                0.1 * t,
            )
        })
        .collect()
}

fn bit_reverse_permute(data: &mut [Cx]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

fn twiddles(n: usize, inverse: bool) -> Vec<Cx> {
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n / 2)
        .map(|k| {
            let ang = sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Cx::new(ang.cos(), ang.sin())
        })
        .collect()
}

/// In-place FFT (forward when `inverse == false`). The inverse transform
/// includes the `1/n` normalisation.
pub fn run(data: &mut [Cx], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    bit_reverse_permute(data);
    let tw = twiddles(n, inverse);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let w = tw[k * step];
                let u = data[start + k];
                let v = data[start + k + half].mul(w);
                data[start + k] = u.add(v);
                data[start + k + half] = u.sub(v);
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for v in data.iter_mut() {
            v.re *= inv_n;
            v.im *= inv_n;
        }
    }
}

/// Naive O(n²) DFT reference for correctness tests.
pub fn dft_reference(input: &[Cx]) -> Vec<Cx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Cx::default();
            for (j, &x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc.add(x.mul(Cx::new(ang.cos(), ang.sin())));
            }
            acc
        })
        .collect()
}

/// Spectrum-magnitude checksum.
pub fn checksum(data: &[Cx]) -> f64 {
    data.iter().map(|c| c.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Cx], b: &[Cx]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x.sub(*y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn fft_matches_naive_dft() {
        let cfg = FftConfig { n: 64 };
        let input = inputs(&cfg);
        let reference = dft_reference(&input);
        let mut data = input.clone();
        run(&mut data, false);
        assert!(max_err(&data, &reference) < 1e-9);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let cfg = FftConfig { n: 1024 };
        let input = inputs(&cfg);
        let mut data = input.clone();
        run(&mut data, false);
        run(&mut data, true);
        assert!(max_err(&data, &input) < 1e-10);
    }

    #[test]
    fn pure_tone_concentrates_energy() {
        let n = 256;
        let data: Vec<Cx> = (0..n)
            .map(|i| Cx::new((2.0 * std::f64::consts::PI * 5.0 * i as f64 / n as f64).cos(), 0.0))
            .collect();
        let mut d = data;
        run(&mut d, false);
        // Bins 5 and n-5 hold the energy.
        assert!(d[5].abs() > 100.0);
        assert!(d[n - 5].abs() > 100.0);
        assert!(d[10].abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut d = vec![Cx::default(); 12];
        run(&mut d, false);
    }

    #[test]
    fn parseval_energy_conserved() {
        let cfg = FftConfig { n: 512 };
        let input = inputs(&cfg);
        let time_energy: f64 = input.iter().map(|c| c.abs() * c.abs()).sum();
        let mut d = input;
        run(&mut d, false);
        let freq_energy: f64 = d.iter().map(|c| c.abs() * c.abs()).sum::<f64>() / 512.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }
}
