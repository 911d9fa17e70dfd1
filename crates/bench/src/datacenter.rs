//! The `datacenter` artefact: multi-tenant job-stream replays against the
//! Tibidabo-class machine (`repro --headline datacenter`).
//!
//! One cell per (policy, machine) case replays the same seeded synthetic
//! stream — the `sched` crate's three-tenant `standard_mix`, pitched at
//! [`OFFERED_LOAD`] of the machine's capacity — under FCFS, EASY backfill,
//! and preemptive fair-share on the 192-node Tibidabo, plus EASY on the
//! 1024-node scale-out variant. Every replay runs with a PR 1 fault plan
//! active: node crashes shrink the allocatable pool mid-campaign and the
//! victims resubmit or fail. A final cell validates the analytic
//! [`RuntimeModel`] the replays price jobs with against the real
//! `simmpi`/`des` stack (`hpc_apps::measure_scaling_cell`).
//!
//! Stream length scales with the run (`RunScales::datacenter_jobs`): 10⁴ at
//! `--golden`, 10⁵ at `--quick`, 10⁶ at full scale. Everything is
//! deterministic in the seeds alone, so the artefact is byte-identical for
//! any `--jobs N` (the CI `datacenter-smoke` stage gates this); the input
//! format and the report schema are specified in `docs/WORKLOAD_FORMAT.md`.

use cluster::Machine;
use des::{FaultPlan, FaultRates, SimTime};
use hpc_apps::hpl::HplShare;
use hpc_apps::AppId;
use sched::{
    DcConfig, DcReport, DcSim, EasyBackfill, FairShare, Fcfs, JobKind, Policy, RuntimeModel,
    SyntheticSpec, Tenant,
};
use serde::Serialize;
use simmpi::RunOpts;

/// Fraction of machine capacity every stream offers: high enough that real
/// queues form (waits, backfill opportunities, SLO pressure), low enough
/// that the queue stays bounded over 10⁶-job campaigns.
pub const OFFERED_LOAD: f64 = 0.9;

/// Seed of the synthetic job stream (shared by every cell so the policies
/// face identical arrivals on the 192-node machine).
pub const STREAM_SEED: u64 = 2013;

/// Seed of the fault plan.
pub const FAULT_SEED: u64 = 13;

/// Expected node crashes over one campaign: enough that every replay
/// exercises pool shrinkage and resubmission, few enough that the machine
/// survives to drain the stream.
pub const TARGET_CRASHES: f64 = 6.0;

/// The policy × machine grid, in canonical cell order.
pub const DATACENTER_CASES: &[DcCase] = &[
    DcCase { label: "fcfs/tibidabo", policy: "fcfs", scaled_nodes: None },
    DcCase { label: "easy/tibidabo", policy: "easy", scaled_nodes: None },
    DcCase { label: "fair/tibidabo", policy: "fair", scaled_nodes: None },
    DcCase { label: "easy/tibidabo-1024", policy: "easy", scaled_nodes: Some(1024) },
];

/// One replay case of the grid.
#[derive(Clone, Copy, Debug)]
pub struct DcCase {
    /// Cell label (also the `repro` cell id suffix).
    pub label: &'static str,
    /// Policy key: `fcfs` | `easy` | `fair`.
    pub policy: &'static str,
    /// `Some(n)` replays against `Machine::tibidabo_scaled(n)` instead of
    /// the 192-node prototype.
    pub scaled_nodes: Option<u32>,
}

fn policy_for(key: &str) -> Box<dyn Policy> {
    match key {
        "fcfs" => Box::new(Fcfs),
        "easy" => Box::new(EasyBackfill),
        "fair" => Box::new(FairShare::preempting()),
        other => unreachable!("unknown datacenter policy key {other}"),
    }
}

/// Replay one case of the grid over a `jobs`-job stream. Deterministic in
/// `(case, jobs)` alone.
pub fn datacenter_cell(case: &DcCase, jobs: u64) -> DcReport {
    let machine = match case.scaled_nodes {
        Some(n) => Machine::tibidabo_scaled(n),
        None => Machine::tibidabo(),
    };
    let model = RuntimeModel::for_machine(&machine);
    let mut spec = SyntheticSpec::standard_mix(jobs, STREAM_SEED, 1.0, 64);
    spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), OFFERED_LOAD);
    let tenants: Vec<Tenant> =
        spec.tenants.iter().map(|t| Tenant { name: t.name.to_string(), share: t.share }).collect();
    // The fault plan covers the expected campaign span (arrivals plus a
    // drain margin) with a crash rate tuned for TARGET_CRASHES strikes.
    let horizon_s = 1.2 * jobs as f64 / spec.arrival_rate_hz;
    let rates = FaultRates {
        crash_per_node_sec: TARGET_CRASHES / (machine.nodes() as f64 * horizon_s),
        ..FaultRates::none()
    };
    let faults =
        FaultPlan::generate(FAULT_SEED, machine.nodes(), SimTime::from_secs_f64(horizon_s), &rates);
    DcSim::new(machine, model, policy_for(case.policy), tenants, DcConfig::default())
        .run(spec.jobs(), &faults)
        .report
}

/// The model-validation cell: the analytic [`RuntimeModel`] against the
/// real `simmpi`/`des` stack on HYDRO (the stencil law's calibration app).
/// The single-node simulation calibrates the job's `work`; the analytic law
/// then predicts the `target_nodes` runtime, which is compared against the
/// full simulation at that width.
#[derive(Clone, Debug, Serialize)]
pub struct DcValidation {
    /// Application dispatched into the real stack.
    pub app: String,
    /// The scaling law validated against it.
    pub law: String,
    /// Width of the simulated run the prediction is compared against.
    pub target_nodes: u32,
    /// Simulated single-node seconds (calibrates `work`).
    pub anchor_secs: f64,
    /// Simulated seconds at `target_nodes`.
    pub simulated_secs: f64,
    /// Analytic prediction at `target_nodes` from the anchor alone.
    pub predicted_secs: f64,
    /// `(predicted − simulated) / simulated`, in percent.
    pub rel_err_pct: f64,
}

/// Run the validation cell at `target_nodes` under `opts`.
pub fn datacenter_validation(
    target_nodes: u32,
    opts: &RunOpts,
) -> Result<DcValidation, simmpi::MpiFault> {
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let no_hpl = HplShare::default();
    let cell = |n| hpc_apps::measure_scaling_cell(&machine, AppId::Hydro, n, opts, &no_hpl);
    let anchor = cell(1)?;
    let target = cell(target_nodes)?;
    // run_secs(kind, 1, work) == node_speed · work, so the anchor pins work.
    let work = anchor.seconds / model.node_speed;
    let predicted = model.run_secs(JobKind::Stencil, target_nodes, work);
    Ok(DcValidation {
        app: "hydro".into(),
        law: "stencil".into(),
        target_nodes,
        anchor_secs: anchor.seconds,
        simulated_secs: target.seconds,
        predicted_secs: predicted,
        rel_err_pct: 100.0 * (predicted - target.seconds) / target.seconds,
    })
}

/// The merged `datacenter` artefact.
#[derive(Clone, Debug, Serialize)]
pub struct DcStudy {
    /// Jobs per replayed stream.
    pub jobs: u64,
    /// Offered load every stream is pitched at.
    pub offered_load: f64,
    /// One report per [`DATACENTER_CASES`] entry, in grid order.
    pub cells: Vec<DcReport>,
    /// The analytic-model validation against the real stack.
    pub validation: DcValidation,
}

impl DcStudy {
    /// Render the artefact as the text block `repro` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Datacenter replay -- {} jobs/stream at {:.0}% offered load, faults active\n\
             (policies on identical seeded streams; schema in docs/WORKLOAD_FORMAT.md)\n\n",
            self.jobs,
            100.0 * self.offered_load
        ));
        for cell in &self.cells {
            out.push_str(&cell.render());
            out.push('\n');
        }
        let v = &self.validation;
        out.push_str(&format!(
            "model validation: {} on {} nodes -- simulated {:.1}s, analytic {:.1}s ({:+.1}%)\n",
            v.app, v.target_nodes, v.simulated_secs, v.predicted_secs, v.rel_err_pct
        ));
        out
    }
}

/// Assemble the study from its per-cell outputs (in [`DATACENTER_CASES`]
/// order, validation last) — the merge step of the `datacenter` artefact.
pub fn datacenter_study_from(jobs: u64, cells: Vec<DcReport>, validation: DcValidation) -> DcStudy {
    assert_eq!(cells.len(), DATACENTER_CASES.len(), "datacenter grid lost a cell");
    DcStudy { jobs, offered_load: OFFERED_LOAD, cells, validation }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_scale_cell_is_deterministic_and_faulted() {
        let case = &DATACENTER_CASES[1]; // easy/tibidabo
        let a = datacenter_cell(case, 2_000);
        let b = datacenter_cell(case, 2_000);
        assert_eq!(a, b);
        assert_eq!(a.jobs, 2_000);
        assert!(a.crashes > 0, "the fault plan must strike during the campaign");
        assert!(a.nodes_alive_end < a.nodes);
        assert_eq!(
            a.completed + a.wall_killed + a.fault_failed + a.unplaceable,
            2_000,
            "every job departs exactly once"
        );
    }

    #[test]
    fn validation_cell_predicts_within_reason() {
        let v = datacenter_validation(4, &RunOpts::default()).expect("validation simulation");
        assert!(v.anchor_secs > 0.0 && v.simulated_secs > 0.0);
        assert!(
            v.rel_err_pct.abs() < 60.0,
            "analytic stencil law wildly off: {:+.1}%",
            v.rel_err_pct
        );
    }
}
