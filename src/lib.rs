//! # socready — are mobile SoCs ready for HPC?
//!
//! A from-scratch Rust reproduction of Rajovic et al., *"Supercomputing with
//! Commodity CPUs: Are Mobile SoCs Ready for HPC?"* (SC '13): the platform
//! and power models of the evaluated SoCs, the Table-2 micro-kernel suite
//! and STREAM, a deterministic cluster/network/MPI simulation stack, the
//! five Table-3 applications, and the harness that regenerates every table
//! and figure of the paper. See `DESIGN.md` for the architecture and the
//! substitution table, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! This umbrella crate re-exports the workspace members under stable names:
//!
//! * [`arch`] — SoC/CPU/memory models and the roofline timing engine;
//! * [`power`] — wall-power models, the simulated WT230 meter, Green500;
//! * [`kernels`] — the 11 micro-kernels + STREAM (real implementations);
//! * [`des`] — the deterministic discrete-event core;
//! * [`net`] — interconnect models (TCP/IP vs Open-MX, topologies);
//! * [`mpi`] — the simulated MPI runtime;
//! * [`cluster`] — machine models (Tibidabo) and job energy accounting;
//! * [`apps`] — HPL, PEPC, HYDRO, GROMACS-like MD, SPECFEM3D-like SEM;
//! * [`trends`] — the Fig 1/2 historical datasets and regressions;
//! * [`sched`] — the multi-tenant datacenter scheduler replaying job
//!   streams of 10⁵–10⁷ jobs against the cluster models;
//! * [`harness`] — the artefact plan (each artefact's cells and their
//!   merge) and the parallel deterministic sweep executor behind the
//!   `repro` binary.
//!
//! ## Quickstart
//!
//! ```
//! use socready::prelude::*;
//!
//! // Model one kernel on two platforms of Table 1.
//! let work = WorkProfile::new("daxpy", 2e8, 2.4e9, AccessPattern::Streaming);
//! let t_arm = kernel_time(&Platform::tegra2().soc, 1.0, 1, &work);
//! let t_x86 = kernel_time(&Platform::core_i7_2760qm().soc, 2.4, 1, &work);
//! assert!(t_x86.total_s < t_arm.total_s);
//!
//! // Run a real MPI job on the simulated Tibidabo cluster.
//! let spec = JobSpec::new(Platform::tegra2(), 8);
//! let run = run_mpi(spec, |mut r| async move {
//!     r.allreduce(ReduceOp::Sum, vec![1.0]).await[0]
//! })
//! .unwrap();
//! assert!(run.results.iter().all(|&v| v == 8.0));
//! ```

#![warn(missing_docs)]

pub use ::bench as harness;
pub use cluster;
pub use des;
pub use hpc_apps as apps;
pub use kernels;
pub use netsim as net;
pub use sched;
pub use simmpi as mpi;
pub use soc_arch as arch;
pub use soc_power as power;
pub use trends;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use cluster::{green500, job_energy, Machine};
    pub use des::SimTime;
    pub use hpc_apps::Mode;
    pub use netsim::{EndpointModel, Network, ProtocolModel, TopologySpec};
    pub use simmpi::{run_mpi, JobSpec, Msg, Rank, ReduceOp};
    pub use soc_arch::{kernel_time, AccessPattern, Platform, Soc, WorkProfile};
    pub use soc_power::{PowerMeter, PowerModel};
}
