//! # hpc-apps — the production applications of the §4 scalability study
//!
//! Real implementations of all five Table-3 applications, written against
//! the `simmpi` message-passing runtime:
//!
//! * [`hpl`] — distributed LU with partial pivoting (High-Performance
//!   Linpack), residual-verified;
//! * [`treecode`] — Barnes–Hut octree N-body (PEPC), accuracy-verified
//!   against direct summation;
//! * [`hydro`] — 2-D finite-volume shallow-water solver (HYDRO),
//!   conservation-verified;
//! * [`md`] — Lennard-Jones molecular dynamics with cell lists (GROMACS),
//!   verified against brute-force forces;
//! * [`sem`] — spectral-element wave propagation (SPECFEM3D), wave-speed and
//!   energy verified.
//!
//! Every application runs in *Execute* mode (real numerics, used by tests
//! and examples) and *Model* mode (roofline-timed work + size-only
//! messages, used for the cluster-scale Fig 6 reproduction) — see
//! [`mode::Mode`].
//!
//! [`scaling`] drives the Fig 6 study; [`registry`] is Table 3 itself.

#![warn(missing_docs)]
// Index-based loops are used deliberately throughout the numerical kernels:
// they mirror the reference algorithms and keep parallel/serial variants
// textually comparable.
#![allow(clippy::needless_range_loop)]

pub mod hpl;
pub mod hydro;
pub mod md;
pub mod mode;
pub mod registry;
pub mod resilience;
pub mod scaling;
pub mod sem;
pub mod treecode;

pub use mode::Mode;
pub use registry::{table3, AppId, AppSpec};
pub use scaling::{
    final_efficiency, measure_scaling_cell, runnable_nodes, series_from_measurements,
    ScalingMeasurement, ScalingPoint, ScalingSeries, FIG6_NODES,
};
