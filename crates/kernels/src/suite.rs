//! The micro-kernel suite registry — the paper's Table 2 — plus the
//! nominal work profiles that drive the Fig 3/4 modelling.

use serde::{Deserialize, Serialize};
use soc_arch::WorkProfile;

use crate::{
    amcd::AmcdConfig, conv2d::Conv2dConfig, dmmm::DmmmConfig, fft::FftConfig,
    histogram::HistogramConfig, msort::MsortConfig, nbody::NbodyConfig, reduction::ReductionConfig,
    spmv::SpmvConfig, stencil3d::Stencil3dConfig, vecop::VecopConfig,
};

/// Identifier of a micro-kernel (Table 2 order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum KernelId {
    /// Vector operation.
    Vecop,
    /// Dense matrix-matrix multiplication.
    Dmmm,
    /// 3D volume stencil computation.
    Stencil3d,
    /// 2D convolution.
    Conv2d,
    /// One-dimensional fast Fourier transform.
    Fft,
    /// Reduction operation.
    Reduction,
    /// Histogram calculation.
    Histogram,
    /// Generic merge sort.
    MergeSort,
    /// N-body calculation.
    NBody,
    /// Markov Chain Monte Carlo method.
    Amcd,
    /// Sparse vector-matrix multiplication.
    Spmv,
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Kernel identifier.
    pub id: KernelId,
    /// Table 2 "Kernel tag".
    pub tag: &'static str,
    /// Table 2 "Full name".
    pub full_name: &'static str,
    /// Table 2 "Properties".
    pub properties: &'static str,
    /// Nominal (paper-scale) work profile.
    pub profile: WorkProfile,
}

/// The complete suite in Table 2 order.
pub fn table2() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            id: KernelId::Vecop,
            tag: "vecop",
            full_name: "Vector operation",
            properties: "Common operation in regular numerical codes",
            profile: VecopConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Dmmm,
            tag: "dmmm",
            full_name: "Dense matrix-matrix multiplication",
            properties: "Data reuse and compute performance",
            profile: DmmmConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Stencil3d,
            tag: "3dstc",
            full_name: "3D volume stencil computation",
            properties: "Strided memory accesses (7-point 3D stencil)",
            profile: Stencil3dConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Conv2d,
            tag: "2dcon",
            full_name: "2D convolution",
            properties: "Spatial locality",
            profile: Conv2dConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Fft,
            tag: "fft",
            full_name: "One-dimensional Fast Fourier Transform",
            properties: "Peak floating-point, variable-stride accesses",
            profile: FftConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Reduction,
            tag: "red",
            full_name: "Reduction operation",
            properties: "Varying levels of parallelism (scalar sum)",
            profile: ReductionConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Histogram,
            tag: "hist",
            full_name: "Histogram calculation",
            properties: "Histogram with local privatisation, requires reduction stage",
            profile: HistogramConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::MergeSort,
            tag: "msort",
            full_name: "Generic merge sort",
            properties: "Barrier operations",
            profile: MsortConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::NBody,
            tag: "nbody",
            full_name: "N-body calculation",
            properties: "Irregular memory accesses",
            profile: NbodyConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Amcd,
            tag: "amcd",
            full_name: "Markov Chain Monte Carlo method",
            properties: "Embarrassingly parallel: peak compute performance",
            profile: AmcdConfig::nominal().profile(),
        },
        KernelSpec {
            id: KernelId::Spmv,
            tag: "spvm",
            full_name: "Sparce Vector-Matrix Multiplication", // [sic] Table 2
            properties: "Load imbalance",
            profile: SpmvConfig::nominal().profile(),
        },
    ]
}

/// The nominal work profiles in suite order — the input to the Fig 3/4
/// frequency sweeps ("the problem size for the kernels is the same for all
/// platforms", §3.1).
pub fn fig3_profiles() -> Vec<WorkProfile> {
    table2().into_iter().map(|k| k.profile).collect()
}

/// Functional smoke result for one kernel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SmokeResult {
    /// Kernel tag.
    pub tag: &'static str,
    /// Whether sequential and parallel runs agreed.
    pub seq_par_agree: bool,
    /// A scalar checksum of the output (for logging / cross-run comparison).
    pub checksum: f64,
}

/// Run every kernel at its small (test) size, sequentially and in parallel,
/// and report agreement — used by the quickstart example and integration
/// tests to demonstrate that the suite is real executable code, not just
/// profiles.
pub fn smoke_run_all() -> Vec<SmokeResult> {
    let mut out = Vec::new();

    {
        let cfg = VecopConfig::small();
        let (x, y) = crate::vecop::inputs(&cfg);
        let mut zs = vec![0.0; cfg.n];
        let mut zp = vec![0.0; cfg.n];
        crate::vecop::run_seq(&cfg, &x, &y, &mut zs);
        crate::vecop::run_par(&cfg, &x, &y, &mut zp);
        out.push(SmokeResult {
            tag: "vecop",
            seq_par_agree: zs == zp,
            checksum: crate::vecop::checksum(&zs),
        });
    }
    {
        let cfg = DmmmConfig::small();
        let (a, b) = crate::dmmm::inputs(&cfg);
        let mut cs = vec![0.0; cfg.n * cfg.n];
        let mut cp = vec![0.0; cfg.n * cfg.n];
        crate::dmmm::run_seq(&cfg, &a, &b, &mut cs);
        crate::dmmm::run_par(&cfg, &a, &b, &mut cp);
        let agree = cs.iter().zip(&cp).all(|(x, y)| (x - y).abs() < 1e-9);
        out.push(SmokeResult {
            tag: "dmmm",
            seq_par_agree: agree,
            checksum: crate::dmmm::checksum(&cs),
        });
    }
    {
        let cfg = Stencil3dConfig::small();
        let g = crate::stencil3d::inputs(&cfg);
        let s = crate::stencil3d::run_seq(&cfg, &g);
        let p = crate::stencil3d::run_par(&cfg, &g);
        out.push(SmokeResult {
            tag: "3dstc",
            seq_par_agree: s == p,
            checksum: crate::stencil3d::checksum(&s),
        });
    }
    {
        let cfg = Conv2dConfig::small();
        let img = crate::conv2d::inputs(&cfg);
        let s = crate::conv2d::run_seq(&cfg, &img);
        let p = crate::conv2d::run_par(&cfg, &img);
        out.push(SmokeResult {
            tag: "2dcon",
            seq_par_agree: s == p,
            checksum: crate::conv2d::checksum(&s),
        });
    }
    {
        let cfg = FftConfig::small();
        let input = crate::fft::inputs(&cfg);
        let mut s = input.clone();
        let mut p = input;
        crate::fft::run_seq(&mut s, false);
        crate::fft::run_par(&mut p, false);
        out.push(SmokeResult {
            tag: "fft",
            seq_par_agree: s == p,
            checksum: crate::fft::checksum(&s),
        });
    }
    {
        let cfg = ReductionConfig::small();
        let x = crate::reduction::inputs(&cfg);
        let s = crate::reduction::run_seq(&cfg, &x);
        let p = crate::reduction::run_par(&cfg, &x);
        out.push(SmokeResult {
            tag: "red",
            seq_par_agree: (s - p).abs() < 1e-9 * (1.0 + s.abs()),
            checksum: s,
        });
    }
    {
        let cfg = HistogramConfig::small();
        let keys = crate::histogram::inputs(&cfg);
        let s = crate::histogram::run_seq(&cfg, &keys);
        let p = crate::histogram::run_par(&cfg, &keys);
        out.push(SmokeResult {
            tag: "hist",
            seq_par_agree: s == p,
            checksum: s.iter().sum::<u64>() as f64,
        });
    }
    {
        let cfg = MsortConfig::small();
        let data = crate::msort::inputs(&cfg);
        let s = crate::msort::run_seq(&cfg, &data);
        let p = crate::msort::run_par(&cfg, &data);
        out.push(SmokeResult {
            tag: "msort",
            seq_par_agree: s == p && crate::msort::is_sorted(&s),
            checksum: s.iter().sum(),
        });
    }
    {
        let cfg = NbodyConfig::small();
        let bodies = crate::nbody::inputs(&cfg);
        let s = crate::nbody::run_seq(&cfg, &bodies);
        let p = crate::nbody::run_par(&cfg, &bodies);
        out.push(SmokeResult {
            tag: "nbody",
            seq_par_agree: s == p,
            checksum: crate::nbody::kinetic_energy(&s),
        });
    }
    {
        let cfg = AmcdConfig::small();
        let s = crate::amcd::run_seq(&cfg);
        let p = crate::amcd::run_par(&cfg);
        out.push(SmokeResult {
            tag: "amcd",
            seq_par_agree: (s.second_moment - p.second_moment).abs() < 1e-12,
            checksum: s.second_moment,
        });
    }
    {
        let cfg = SpmvConfig::small();
        let a = crate::spmv::build_matrix(&cfg);
        let x = crate::spmv::input_vector(cfg.n);
        let mut ys = vec![0.0; cfg.n];
        let mut yp = vec![0.0; cfg.n];
        crate::spmv::run_seq(&a, &x, &mut ys);
        crate::spmv::run_par(&a, &x, &mut yp);
        out.push(SmokeResult {
            tag: "spvm",
            seq_par_agree: ys == yp,
            checksum: crate::spmv::checksum(&ys),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eleven_kernels_in_paper_order() {
        let t = table2();
        assert_eq!(t.len(), 11);
        let tags: Vec<&str> = t.iter().map(|k| k.tag).collect();
        assert_eq!(
            tags,
            vec![
                "vecop", "dmmm", "3dstc", "2dcon", "fft", "red", "hist", "msort", "nbody", "amcd",
                "spvm"
            ]
        );
    }

    #[test]
    fn profiles_have_positive_work() {
        for k in table2() {
            assert!(k.profile.flops > 0.0, "{}", k.tag);
            assert!(k.profile.dram_bytes >= 0.0, "{}", k.tag);
        }
    }

    #[test]
    fn smoke_run_agrees_everywhere() {
        for r in smoke_run_all() {
            assert!(r.seq_par_agree, "kernel {} diverged between seq and par", r.tag);
            assert!(r.checksum.is_finite(), "kernel {} checksum", r.tag);
        }
    }

    #[test]
    fn suite_covers_all_access_patterns() {
        use soc_arch::AccessPattern;
        let patterns: std::collections::HashSet<_> =
            fig3_profiles().iter().map(|p| p.pattern).collect();
        for p in AccessPattern::ALL {
            assert!(patterns.contains(&p), "pattern {p:?} not exercised by the suite");
        }
    }
}
