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
    /// A scalar checksum of the output. Every kernel is deterministic, so the
    /// suite's tests pin each checksum bit for bit.
    pub checksum: f64,
}

/// Run every kernel once at its small (test) size and checksum its output —
/// used by the quickstart example and the tests to show that the suite is
/// real executable code, not just profiles.
pub fn smoke_run_all() -> Vec<SmokeResult> {
    use crate::{
        amcd, conv2d, dmmm, fft, histogram, msort, nbody, reduction, spmv, stencil3d, vecop,
    };

    // One checksum per kernel, in Table 2 order.
    let checksums = [
        {
            let cfg = VecopConfig::small();
            let (x, y) = vecop::inputs(&cfg);
            let mut z = vec![0.0; cfg.n];
            vecop::run(&cfg, &x, &y, &mut z);
            vecop::checksum(&z)
        },
        {
            let cfg = DmmmConfig::small();
            let (a, b) = dmmm::inputs(&cfg);
            let mut c = vec![0.0; cfg.n * cfg.n];
            dmmm::run(&cfg, &a, &b, &mut c);
            dmmm::checksum(&c)
        },
        {
            let cfg = Stencil3dConfig::small();
            stencil3d::checksum(&stencil3d::run(&cfg, &stencil3d::inputs(&cfg)))
        },
        {
            let cfg = Conv2dConfig::small();
            conv2d::checksum(&conv2d::run(&cfg, &conv2d::inputs(&cfg)))
        },
        {
            let mut data = fft::inputs(&FftConfig::small());
            fft::run(&mut data, false);
            fft::checksum(&data)
        },
        {
            let cfg = ReductionConfig::small();
            reduction::run(&cfg, &reduction::inputs(&cfg))
        },
        {
            let cfg = HistogramConfig::small();
            histogram::run(&cfg, &histogram::inputs(&cfg)).iter().sum::<u64>() as f64
        },
        {
            let cfg = MsortConfig::small();
            msort::run(&cfg, &msort::inputs(&cfg)).iter().sum()
        },
        {
            let cfg = NbodyConfig::small();
            nbody::kinetic_energy(&nbody::run(&cfg, &nbody::inputs(&cfg)))
        },
        amcd::run(&AmcdConfig::small()).second_moment,
        {
            let cfg = SpmvConfig::small();
            let mut y = vec![0.0; cfg.n];
            spmv::run(&spmv::build_matrix(&cfg), &spmv::input_vector(cfg.n), &mut y);
            spmv::checksum(&y)
        },
    ];
    table2()
        .into_iter()
        .zip(checksums)
        .map(|(k, checksum)| SmokeResult { tag: k.tag, checksum })
        .collect()
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
    fn smoke_checksums_are_pinned() {
        // The bits of each kernel's small-size checksum, in Table 2 order. A
        // change here is a change to a kernel's arithmetic or inputs. `fft`
        // and `amcd` call `sin`/`cos`/`hypot`/`exp`, whose last bit is the
        // platform libm's.
        let pinned: [(&str, u64); 11] = [
            ("vecop", 0x40bb97ae147ae149),
            ("dmmm", 0x406fe30fea687973),
            ("3dstc", 0xc021f35e74299d85),
            ("2dcon", 0x4088e8c658ec9f1b),
            ("fft", 0x407b7c64f6631671),
            ("red", 0xc02d028f5c28f5ca),
            ("hist", 0x40f86a0000000000),
            ("msort", 0xc0edc582e978dac2),
            ("nbody", 0x3f096c268d7e0685),
            ("amcd", 0x3fefd7ba38cd65de),
            ("spvm", 0x4041d253b8e4b87d),
        ];
        let got = smoke_run_all();
        assert_eq!(got.len(), pinned.len());
        for (r, (tag, bits)) in got.iter().zip(pinned) {
            assert_eq!(r.tag, tag);
            assert_eq!(
                r.checksum.to_bits(),
                bits,
                "{tag}: checksum {} has bits {:#018x}, pinned {bits:#018x}",
                r.checksum,
                r.checksum.to_bits()
            );
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
