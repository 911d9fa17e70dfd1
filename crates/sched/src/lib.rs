//! # sched — multi-tenant datacenter scheduling above `cluster`
//!
//! The paper characterises Tibidabo one job at a time; production readiness
//! is a *job stream* question. This crate replays seeded synthetic arrival
//! streams of 10⁵–10⁷ jobs against a [`cluster::Machine`], with pluggable
//! queueing policies ([`Fcfs`], [`EasyBackfill`], [`FairShare`] with
//! optional preemption), one-step
//! placement that marks a job's nodes busy as it hands them out, so no two
//! decisions of a pass can share a node, a calibrated analytic [`RuntimeModel`] that prices each job
//! without a full MPI simulation, and PR 1 fault plans shrinking the
//! allocatable pool mid-campaign. The replay reports utilisation,
//! wait/slowdown distributions, energy per job, and SLO violations as a
//! [`DcReport`] — the `repro --headline datacenter` artefact.
//!
//! The input format (synthetic generator parameters) and the report schema
//! are specified in `docs/WORKLOAD_FORMAT.md`; where the crate sits in the
//! stack is mapped in `docs/ARCHITECTURE.md`.
//!
//! ```
//! use cluster::Machine;
//! use des::FaultPlan;
//! use sched::{DcConfig, DcSim, EasyBackfill, RuntimeModel, SyntheticSpec, Tenant};
//!
//! let machine = Machine::tibidabo();
//! let spec = SyntheticSpec::standard_mix(2_000, 42, 1.5, 64);
//! let tenants: Vec<Tenant> = spec
//!     .tenants
//!     .iter()
//!     .map(|t| Tenant { name: t.name.to_string(), share: t.share })
//!     .collect();
//! let model = RuntimeModel::for_machine(&machine);
//! let mut sim =
//!     DcSim::new(machine, model, Box::new(EasyBackfill), tenants, DcConfig::default());
//! let outcome = sim.run(spec.jobs(), &FaultPlan::none());
//! assert_eq!(outcome.report.completed, 2_000);
//! assert!(outcome.report.utilisation > 0.0);
//! ```

#![warn(missing_docs)]

mod metrics;
mod model;
mod placement;
mod policy;
mod sim;
mod workload;

pub use metrics::{ClassSlo, DcReport, DistSummary, TenantUsage};
pub use model::{job_energy_j, RuntimeModel, ScalingLaw, REF_NODE_GFLOPS};
pub use placement::{NodeFate, PlacementStore};
pub use policy::{
    shadow_time, Action, EasyBackfill, FairShare, Fcfs, PassBuf, Policy, QueuedJob, RunningJob,
    SchedView, SCAN_DEPTH,
};
pub use sim::{DcAudit, DcConfig, DcOutcome, DcSim, RuntimeMode, Tenant};
pub use workload::{Job, JobId, JobKind, QosClass, SyntheticSpec, TenantSpec};
