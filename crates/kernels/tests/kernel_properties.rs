//! Property-based tests of the micro-kernel suite: mathematical invariants
//! that must hold for arbitrary inputs, complementing the example-based
//! unit tests in each module.

use kernels::{conv2d, dmmm, fft, histogram, msort, nbody, reduction, spmv, stencil3d, vecop};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DAXPY is linear: z(αx, y) for doubled α equals z + αx.
    #[test]
    fn vecop_linearity(n in 1usize..2000, alpha in -10.0..10.0f64) {
        let cfg1 = vecop::VecopConfig { n, alpha };
        let cfg2 = vecop::VecopConfig { n, alpha: 2.0 * alpha };
        let (x, y) = vecop::inputs(&cfg1);
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        vecop::run(&cfg1, &x, &y, &mut z1);
        vecop::run(&cfg2, &x, &y, &mut z2);
        for i in 0..n {
            let expect = z1[i] + alpha * x[i];
            prop_assert!((z2[i] - expect).abs() < 1e-9 * (1.0 + expect.abs()));
        }
    }

    /// Matrix multiplication distributes over addition: (A+A)B = AB + AB.
    #[test]
    fn dmmm_distributivity(n in 2usize..40) {
        let cfg = dmmm::DmmmConfig { n };
        let (a, b) = dmmm::inputs(&cfg);
        let a2: Vec<f64> = a.iter().map(|v| 2.0 * v).collect();
        let mut ab = vec![0.0; n * n];
        let mut a2b = vec![0.0; n * n];
        dmmm::run(&cfg, &a, &b, &mut ab);
        dmmm::run(&cfg, &a2, &b, &mut a2b);
        for i in 0..n * n {
            prop_assert!((a2b[i] - 2.0 * ab[i]).abs() < 1e-9 * (1.0 + ab[i].abs()));
        }
    }

    /// The stencil is linear: scaling the input scales the output.
    #[test]
    fn stencil_homogeneity(n in 4usize..16, scale in 0.1..10.0f64) {
        let cfg = stencil3d::Stencil3dConfig { n, sweeps: 2 };
        let g = stencil3d::inputs(&cfg);
        let gs: Vec<f64> = g.iter().map(|v| scale * v).collect();
        let out1 = stencil3d::run(&cfg, &g);
        let out2 = stencil3d::run(&cfg, &gs);
        for i in 0..out1.len() {
            prop_assert!((out2[i] - scale * out1[i]).abs() < 1e-9 * (1.0 + out1[i].abs()));
        }
    }

    /// Convolution preserves the mean of periodic-free interiors only
    /// weakly, but it always maps a constant image to itself.
    #[test]
    fn conv_constant_fixed_point(n in 8usize..32, value in -100.0..100.0f64) {
        let cfg = conv2d::Conv2dConfig { n, passes: 2 };
        let img = vec![value; n * n];
        let out = conv2d::run(&cfg, &img);
        for v in out {
            prop_assert!((v - value).abs() < 1e-9 * (1.0 + value.abs()));
        }
    }

    /// FFT is linear: FFT(a + b) = FFT(a) + FFT(b).
    #[test]
    fn fft_additivity(log_n in 3u32..8, seed in 0u64..100) {
        let n = 1usize << log_n;
        let mk = |s: u64| -> Vec<fft::Cx> {
            (0..n).map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
                fft::Cx::new(((x % 1000) as f64) / 500.0 - 1.0, ((x % 777) as f64) / 388.5 - 1.0)
            }).collect()
        };
        let a = mk(seed);
        let b = mk(seed + 1);
        let sum: Vec<fft::Cx> = a.iter().zip(&b).map(|(x, y)| fft::Cx::new(x.re + y.re, x.im + y.im)).collect();
        let (mut fa, mut fb, mut fs) = (a, b, sum);
        fft::run(&mut fa, false);
        fft::run(&mut fb, false);
        fft::run(&mut fs, false);
        for i in 0..n {
            let er = (fs[i].re - fa[i].re - fb[i].re).abs();
            let ei = (fs[i].im - fa[i].im - fb[i].im).abs();
            prop_assert!(er < 1e-8 * (1.0 + fs[i].abs()) && ei < 1e-8 * (1.0 + fs[i].abs()));
        }
    }

    /// Reduction equals the closed-form sum.
    #[test]
    fn reduction_matches_closed_form(n in 1usize..5000, passes in 1usize..4) {
        let cfg = reduction::ReductionConfig { n, passes };
        let x = reduction::inputs(&cfg);
        let expect: f64 = passes as f64 * 0.5 * x.iter().sum::<f64>();
        let got = reduction::run(&cfg, &x);
        prop_assert!((got - expect).abs() < 1e-9 * (1.0 + expect.abs()));
    }

    /// Histogram totals are permutation-invariant.
    #[test]
    fn histogram_permutation_invariance(n in 1usize..3000, bins in 1usize..64) {
        let cfg = histogram::HistogramConfig { n, bins, passes: 1 };
        let keys = histogram::inputs(&cfg);
        let mut reversed = keys.clone();
        reversed.reverse();
        prop_assert_eq!(histogram::run(&cfg, &keys), histogram::run(&cfg, &reversed));
    }

    /// Sorting is idempotent: sorting a sorted array changes nothing.
    #[test]
    fn msort_idempotent(v in proptest::collection::vec(-1e6..1e6f64, 0..400)) {
        let cfg = msort::MsortConfig { n: v.len() };
        let once = msort::run(&cfg, &v);
        let twice = msort::run(&cfg, &once);
        prop_assert_eq!(once, twice);
    }

    /// N-body momentum conservation holds for arbitrary step counts.
    #[test]
    fn nbody_momentum_conservation(n in 2usize..64, steps in 1usize..6) {
        let cfg = nbody::NbodyConfig { n, steps, dt: 1e-3, eps2: 1e-4 };
        let bodies = nbody::inputs(&cfg);
        let p0 = nbody::total_momentum(&bodies);
        let out = nbody::run(&cfg, &bodies);
        let p1 = nbody::total_momentum(&out);
        for k in 0..3 {
            prop_assert!((p1[k] - p0[k]).abs() < 1e-10);
        }
    }

    /// SpMV is additive in the input vector: A(x+y) = Ax + Ay.
    #[test]
    fn spmv_additivity(n in 8usize..300) {
        let cfg = spmv::SpmvConfig { n, avg_nnz_per_row: 4, skew: 4 };
        let a = spmv::build_matrix(&cfg);
        let x = spmv::input_vector(n);
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let mut ax = vec![0.0; n];
        let mut ay = vec![0.0; n];
        let mut axy = vec![0.0; n];
        spmv::run(&a, &x, &mut ax);
        spmv::run(&a, &y, &mut ay);
        spmv::run(&a, &xy, &mut axy);
        for i in 0..n {
            let expect = ax[i] + ay[i];
            prop_assert!((axy[i] - expect).abs() < 1e-9 * (1.0 + expect.abs()));
        }
    }

    /// Work profiles scale consistently with problem size for the linear
    /// kernels (flops and bytes both scale by the size ratio).
    #[test]
    fn profiles_scale_linearly_for_vecop(n1 in 100usize..10_000, mult in 2usize..8) {
        let p1 = vecop::VecopConfig { n: n1, alpha: 1.0 }.profile();
        let p2 = vecop::VecopConfig { n: n1 * mult, alpha: 1.0 }.profile();
        prop_assert!((p2.flops / p1.flops - mult as f64).abs() < 1e-9);
        prop_assert!((p2.dram_bytes / p1.dram_bytes - mult as f64).abs() < 1e-9);
    }
}
