//! # kernels — the paper's micro-kernel suite (Table 2) and STREAM
//!
//! Real, tested Rust implementations of all eleven micro-kernels the paper
//! uses to evaluate the platforms in §3.1, plus the STREAM bandwidth
//! benchmark of §3.2, one single-threaded `run` each. Every kernel also
//! exposes an instrumented [`soc_arch::WorkProfile`] derived from its
//! configuration, so the same kernel can be *executed* on the host (tests,
//! examples) and *modelled* on any Table-1 platform at any DVFS point and
//! thread count (figures, benches). The multi-core figures come from the
//! profile's parallel fraction and imbalance, not from threaded runs.
//!
//! ```
//! use kernels::vecop::{self, VecopConfig};
//!
//! let cfg = VecopConfig::small();
//! let (x, y) = vecop::inputs(&cfg);
//! let mut z = vec![0.0; cfg.n];
//! vecop::run(&cfg, &x, &y, &mut z);
//! assert!(vecop::checksum(&z).is_finite());
//! ```

#![warn(missing_docs)]
// Index-based loops are used deliberately throughout the numerical kernels:
// they mirror the index arithmetic of the reference algorithms.
#![allow(clippy::needless_range_loop)]

pub mod amcd;
pub mod conv2d;
pub mod dmmm;
pub mod fft;
pub mod histogram;
pub mod msort;
pub mod nbody;
pub mod reduction;
pub mod spmv;
pub mod stencil3d;
pub mod stream;
pub mod suite;
pub mod vecop;

pub use suite::{fig3_profiles, smoke_run_all, table2, KernelId, KernelSpec, SmokeResult};
