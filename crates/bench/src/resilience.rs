//! The resilience headline: HPL time-to-solution under deterministic fault
//! injection, across cluster size and the §6.3 Google DIMM incidence range.
//!
//! The [`ResilienceStudy`] artefact has two parts:
//!
//! * a Model-mode sweep of cluster size × annual per-DIMM error incidence
//!   (0.04–0.20). Each [`resilience_cell`] runs the weak-scaling HPL job
//!   under a generated [`FaultPlan`] with coordinated checkpoint/restart
//!   and reports crashes survived, time-to-solution inflation over a
//!   fault-free run, and checkpoint overhead.
//! * [`resilience_contrast`] — the qualitative demonstration: an
//!   Execute-mode job under a crash schedule dense enough that
//!   restart-from-scratch can never finish, while checkpoint/restart
//!   ratchets through and produces a verified answer.
//!
//! Fault rates come from [`FaultCalibration`]: physical per-year DIMM rates
//! compressed by an acceleration factor so a simulated run sees O(1) faults.
//! The sweep uses a milder acceleration (1e5) than the calibration default,
//! sized so the hottest cell (largest cluster, 20% incidence) sees a handful
//! of crashes rather than dozens; link brownouts are kept rare
//! (`degrade_per_node_year = 0.05`) so the sweep isolates the DRAM axis
//! while still occasionally exercising the lossy-link retransmission path.

use cluster::{EccRisk, FaultCalibration, Machine};
use des::{FaultEvent, FaultKind, FaultPlan, SimTime};
use hpc_apps::hpl::{HplConfig, HplShare};
use hpc_apps::resilience::{run_hpl_resilient, run_hpl_resilient_with_baseline, ResilienceConfig};
use netsim::TopologySpec;
use serde::Serialize;
use simmpi::{JobSpec, MpiFault, RunOpts};
use soc_arch::Platform;

use crate::table::{f, render_table};

/// The incidence grid: Google's reported annual per-DIMM error incidence
/// range (§6.3), low / mid / high.
pub const INCIDENCE_GRID: [f64; 3] = [0.04, 0.12, 0.20];

/// One cell of the resilience sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceCell {
    /// Cluster nodes running the job (spares come from the rest of the
    /// 192-node Tibidabo topology).
    pub nodes: u32,
    /// Annual per-DIMM error incidence driving the fault rates.
    pub incidence: f64,
    /// Whether the campaign completed within its attempt budget.
    pub completed: bool,
    /// Attempts launched (1 = fault-free first try).
    pub attempts: u32,
    /// Node crashes survived.
    pub crashes: u32,
    /// Communication timeouts survived.
    pub timeouts: u32,
    /// Spare nodes promoted into the job.
    pub spares_used: u32,
    /// Fault-free baseline, virtual seconds.
    pub clean_secs: f64,
    /// Time to solution including failed attempts and restarts.
    pub total_secs: f64,
    /// `total_secs / clean_secs` when the campaign completed.
    pub inflation: Option<f64>,
    /// Virtual seconds spent writing checkpoints.
    pub checkpoint_secs: f64,
}

/// The checkpoint-vs-scratch demonstration.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceContrast {
    /// Did the checkpointing campaign complete?
    pub with_ckpt_completed: bool,
    /// Attempts the checkpointing campaign used.
    pub with_ckpt_attempts: u32,
    /// Crashes the checkpointing campaign survived.
    pub with_ckpt_crashes: u32,
    /// Verified HPL residual of the checkpointing campaign.
    pub with_ckpt_residual: Option<f64>,
    /// Did the restart-from-scratch campaign complete?
    pub no_ckpt_completed: bool,
    /// Attempts the scratch campaign burned before giving up.
    pub no_ckpt_attempts: u32,
}

/// The full resilience headline artefact.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceStudy {
    /// Acceleration factor applied to the physical fault rates.
    pub acceleration: f64,
    /// The sweep cells, in (nodes, incidence) order.
    pub cells: Vec<ResilienceCell>,
    /// The checkpoint-vs-scratch demonstration.
    pub contrast: ResilienceContrast,
}

fn sweep_calibration() -> FaultCalibration {
    FaultCalibration {
        acceleration: 1e5,
        degrade_per_node_year: 0.05,
        ..FaultCalibration::default()
    }
}

/// Run one grid cell on the Tibidabo model under `opts`, taking the
/// fault-free baseline from `hpl`; fails only if that baseline run does.
///
/// `nodes` is a logical node count (≤ 96, so the 192-node topology always
/// has spares). The fault schedule is a function of `seed`, so the cell is
/// bit-reproducible.
pub fn resilience_cell(
    nodes: u32,
    incidence: f64,
    seed: u64,
    opts: &RunOpts,
    hpl: &HplShare,
) -> Result<ResilienceCell, MpiFault> {
    let m = Machine::tibidabo();
    let cfg = HplConfig::tibidabo_weak(nodes);
    let nblk = cfg.n.div_ceil(cfg.nb);
    let rc = ResilienceConfig {
        // ~8 checkpoints per run keeps the write overhead below ~10% while
        // giving restarts something to ratchet on.
        ckpt_every_panels: (nblk / 8).max(4),
        write_bw_bytes: 20e6, // eMMC-class node-local storage
        restart_overhead: SimTime::from_millis(500),
        max_attempts: 12,
    };
    // Generous horizon: several fault-free run lengths, so faults can still
    // strike late attempts. ~1 GFLOPS/node sustained is the §4 ballpark.
    let est_clean = cfg.flops() / (nodes as f64 * 1e9);
    let horizon = SimTime::from_secs_f64(4.0 * est_clean);
    let rates = sweep_calibration().rates(&EccRisk::tibidabo(incidence));
    let plan = FaultPlan::generate(seed, m.nodes(), horizon, &rates);

    // The fault-free baseline is the Fig 6 HPL job of the same size.
    let job = m.job(nodes).with_opts(opts.clone());
    let clean_secs = hpl.run(job.clone(), cfg)?.result.seconds;
    let rep = run_hpl_resilient_with_baseline(job, cfg, &rc, &plan, clean_secs);
    Ok(ResilienceCell {
        nodes,
        incidence,
        completed: rep.completed,
        attempts: rep.attempts,
        crashes: rep.crashes,
        timeouts: rep.timeouts,
        spares_used: rep.spares_used,
        clean_secs: rep.clean_secs,
        total_secs: rep.total_secs,
        inflation: rep.completed.then_some(rep.inflation),
        checkpoint_secs: rep.checkpoint_secs,
    })
}

/// The Execute-mode checkpoint-vs-scratch demonstration: a crash lands in
/// every attempt window, so only the checkpointing policy can finish.
/// Fails only if a fault-free baseline run does.
pub fn resilience_contrast(opts: &RunOpts) -> Result<ResilienceContrast, MpiFault> {
    let crash = |node: u32, us: u64| FaultEvent {
        at: SimTime::from_micros(us),
        kind: FaultKind::NodeCrash { node },
    };
    let plan = FaultPlan::from_events(vec![crash(1, 1000), crash(2, 2100), crash(3, 3200)]);
    let base = JobSpec::new(Platform::tegra2(), 2)
        .with_topology(TopologySpec::Star { nodes: 8 })
        .with_opts(opts.clone());
    let cfg = HplConfig::small(64, 8);
    let rc = ResilienceConfig {
        ckpt_every_panels: 2,
        write_bw_bytes: 200e6,
        restart_overhead: SimTime::from_micros(100),
        max_attempts: 3,
    };
    let with = run_hpl_resilient(base.clone(), cfg, &rc, &plan)?;
    let without =
        run_hpl_resilient(base, cfg, &ResilienceConfig { ckpt_every_panels: 0, ..rc }, &plan)?;
    Ok(ResilienceContrast {
        with_ckpt_completed: with.completed,
        with_ckpt_attempts: with.attempts,
        with_ckpt_crashes: with.crashes,
        with_ckpt_residual: with.residual,
        no_ckpt_completed: without.completed,
        no_ckpt_attempts: without.attempts,
    })
}

/// Enumerate the sweep grid for `sizes`: `(nodes, incidence, seed)` per
/// cell, in the study's canonical (nodes-major, incidence-minor) order. The
/// seed derivation is part of the artefact's identity — goldens depend on
/// it.
pub fn resilience_grid(sizes: &[u32]) -> Vec<(u32, f64, u64)> {
    let mut grid = Vec::with_capacity(sizes.len() * INCIDENCE_GRID.len());
    for (i, &nodes) in sizes.iter().enumerate() {
        for (j, &incidence) in INCIDENCE_GRID.iter().enumerate() {
            let seed = 0xC0FFEE + (i * INCIDENCE_GRID.len() + j) as u64;
            grid.push((nodes, incidence, seed));
        }
    }
    grid
}

/// Assemble the study artefact from externally-computed cells (in
/// [`resilience_grid`] order) and the contrast demonstration.
pub fn resilience_study_from(
    cells: Vec<ResilienceCell>,
    contrast: ResilienceContrast,
) -> ResilienceStudy {
    ResilienceStudy { acceleration: sweep_calibration().acceleration, cells, contrast }
}

impl ResilienceStudy {
    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.nodes.to_string(),
                    format!("{:.0}%", 100.0 * c.incidence),
                    if c.completed { "yes".into() } else { "NO".into() },
                    c.attempts.to_string(),
                    c.crashes.to_string(),
                    c.timeouts.to_string(),
                    f(c.clean_secs),
                    f(c.total_secs),
                    match c.inflation {
                        Some(x) => format!("{x:.2}x"),
                        None => "-".into(),
                    },
                    format!("{:.1}%", 100.0 * c.checkpoint_secs / c.total_secs.max(1e-12)),
                ]
            })
            .collect();
        let mut out = render_table(
            &format!(
                "Resilience: HPL under injected faults (acceleration {:.0e}, ckpt/restart on)",
                self.acceleration
            ),
            &[
                "nodes",
                "incidence",
                "done",
                "attempts",
                "crashes",
                "timeouts",
                "clean (s)",
                "total (s)",
                "inflation",
                "ckpt ovh",
            ],
            &rows,
        );
        let c = &self.contrast;
        out.push_str(&format!(
            "checkpoint/restart vs scratch under a crash in every window:\n\
             \x20 with checkpoints:    completed={} attempts={} crashes={} residual={:?}\n\
             \x20 without checkpoints: completed={} attempts={}\n",
            c.with_ckpt_completed,
            c.with_ckpt_attempts,
            c.with_ckpt_crashes,
            c.with_ckpt_residual,
            c.no_ckpt_completed,
            c.no_ckpt_attempts,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contrast_shows_checkpointing_is_load_bearing() {
        let c = resilience_contrast(&RunOpts::default()).unwrap();
        assert!(c.with_ckpt_completed);
        assert!(c.with_ckpt_residual.unwrap() < 16.0);
        assert!(!c.no_ckpt_completed);
        assert_eq!(c.no_ckpt_attempts, 3);
    }
}
