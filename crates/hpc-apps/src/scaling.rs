//! The Fig 6 scalability study: run every Table-3 application on the
//! Tibidabo model across node counts and report speed-ups the way the paper
//! does — strong scaling for the applications (with the "assume linear at
//! the smallest runnable node count" convention for PEPC-style inputs), weak
//! scaling efficiency for HPL.

use cluster::Machine;
use serde::{Deserialize, Serialize};
use simmpi::{JobSpec, MpiFault, RunOpts};

use crate::hpl::{HplConfig, HplShare};
use crate::hydro::{run_hydro, HydroConfig};
use crate::md::{run_md, MdConfig};
use crate::registry::{table3, AppId};
use crate::sem::{run_sem, SemConfig};
use crate::treecode::{run_treecode, TreeConfig};

/// The node counts of the Fig 6 x-axis.
pub const FIG6_NODES: [u32; 7] = [4, 8, 16, 24, 32, 64, 96];

/// One point of one Fig 6 series.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: u32,
    /// Elapsed virtual seconds.
    pub seconds: f64,
    /// Speed-up (strong: vs the linear-extrapolated smallest run; weak for
    /// HPL: efficiency × nodes).
    pub speedup: f64,
}

/// One Fig 6 series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingSeries {
    /// Application name (Table 3).
    pub app: &'static str,
    /// Whether this is the weak-scaling series.
    pub weak: bool,
    /// The measured points.
    pub points: Vec<ScalingPoint>,
}

/// Returns `(seconds, hpl_efficiency)` — the efficiency is only meaningful
/// for HPL's weak-scaling series, whose run comes from `hpl`.
fn elapsed_for(
    app: AppId,
    spec: JobSpec,
    nodes: u32,
    hpl: &HplShare,
) -> Result<(f64, f64), MpiFault> {
    let peak_node = spec.platform.soc.peak_gflops_max();
    Ok(match app {
        AppId::Hpl => {
            let res = hpl.run(spec, HplConfig::tibidabo_weak(nodes))?.result;
            (res.seconds, res.gflops / (nodes as f64 * peak_node))
        }
        AppId::Pepc => (run_treecode(spec, TreeConfig::fig6())?.0, 0.0),
        AppId::Hydro => (run_hydro(spec, HydroConfig::fig6())?.0, 0.0),
        AppId::Gromacs => (run_md(spec, MdConfig::fig6())?.0, 0.0),
        AppId::Specfem3d => (run_sem(spec, SemConfig::fig6())?.0, 0.0),
    })
}

/// One raw Fig 6 measurement: a single (application, node-count) simulation.
/// This is the unit the parallel sweep executor schedules — every cell is an
/// independent DES run, so cells can execute on any worker thread and the
/// series is reassembled afterwards by [`series_from_measurements`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScalingMeasurement {
    /// Node count of this cell.
    pub nodes: u32,
    /// Elapsed virtual seconds.
    pub seconds: f64,
    /// HPL sustained-over-peak efficiency (0.0 for the strong-scaling apps).
    pub hpl_efficiency: f64,
}

/// The node counts an application actually runs at, applying the paper's
/// minimum-input-footprint convention: counts below `min_nodes` are dropped,
/// and if nothing survives the anchor point alone is run.
pub fn runnable_nodes(app: AppId, node_counts: &[u32]) -> Vec<u32> {
    let spec_row = table3().into_iter().find(|a| a.id == app).expect("unknown app");
    let mut counts: Vec<u32> =
        node_counts.iter().copied().filter(|&n| n >= spec_row.min_nodes).collect();
    if counts.is_empty() {
        // The requested range is entirely below the input's footprint (e.g.
        // a quick Fig 6 run below PEPC's 24-node minimum): run the anchor
        // point only.
        counts.push(spec_row.min_nodes);
    }
    counts
}

/// Run one (application, node-count) cell on `machine` under `opts`,
/// surfacing the fault (watchdog budget, injected crash, engine failure)
/// that stopped the run. An HPL cell takes its (fault-free) run from `hpl`.
pub fn measure_scaling_cell(
    machine: &Machine,
    app: AppId,
    nodes: u32,
    opts: &RunOpts,
    hpl: &HplShare,
) -> Result<ScalingMeasurement, MpiFault> {
    let spec = machine.job(nodes).with_opts(opts.clone());
    let (seconds, hpl_efficiency) = elapsed_for(app, spec, nodes, hpl)?;
    Ok(ScalingMeasurement { nodes, seconds, hpl_efficiency })
}

/// Assemble a Fig 6 series from per-cell measurements (in ascending node
/// order, as produced by [`runnable_nodes`]). The speed-up normalisation is
/// inherently a merge step: strong scaling needs the smallest runnable point
/// as its linear anchor, weak scaling needs each cell's own efficiency.
pub fn series_from_measurements(app: AppId, cells: &[ScalingMeasurement]) -> ScalingSeries {
    let spec_row = table3().into_iter().find(|a| a.id == app).expect("unknown app");
    assert!(!cells.is_empty(), "series needs at least one measurement");
    let mut points: Vec<ScalingPoint> = cells
        .iter()
        .map(|c| ScalingPoint { nodes: c.nodes, seconds: c.seconds, speedup: 0.0 })
        .collect();
    if spec_row.weak_scaling {
        // Weak scaling (HPL): the figure's y-value is the sustained
        // performance expressed in ideal-node equivalents — `n × efficiency`
        // (96 × 51% ≈ 49 at the paper's endpoint).
        for (p, c) in points.iter_mut().zip(cells) {
            p.speedup = p.nodes as f64 * c.hpl_efficiency;
        }
    } else {
        // Strong scaling, with the paper's convention: "we calculated the
        // speed-up assuming linear scaling on the smallest number of nodes
        // that could execute the benchmark".
        let base = points[0];
        for p in &mut points {
            p.speedup = base.nodes as f64 * base.seconds / p.seconds;
        }
    }
    ScalingSeries { app: spec_row.name, weak: spec_row.weak_scaling, points }
}

/// Parallel efficiency of the largest point of a series (speedup / nodes).
pub fn final_efficiency(s: &ScalingSeries) -> f64 {
    let last = s.points.last().expect("empty series");
    last.speedup / last.nodes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tibidabo() -> Machine {
        Machine::tibidabo()
    }

    fn series(m: &Machine, app: AppId, node_counts: &[u32]) -> ScalingSeries {
        let (opts, hpl) = (RunOpts::default(), HplShare::default());
        let cells: Vec<ScalingMeasurement> = runnable_nodes(app, node_counts)
            .into_iter()
            .map(|n| measure_scaling_cell(m, app, n, &opts, &hpl).unwrap())
            .collect();
        series_from_measurements(app, &cells)
    }

    #[test]
    fn specfem_scales_best_and_pepc_worst() {
        // The qualitative ordering of Fig 6 at scale.
        let m = tibidabo();
        let counts = [4, 16, 48];
        let sem = series(&m, AppId::Specfem3d, &counts);
        let pepc = series(&m, AppId::Pepc, &[24, 48]);
        let e_sem = final_efficiency(&sem);
        let e_pepc = final_efficiency(&pepc);
        assert!(e_sem > 0.8, "SPECFEM3D efficiency {e_sem}");
        assert!(e_pepc < e_sem, "PEPC {e_pepc} should trail SPECFEM3D {e_sem}");
    }

    #[test]
    fn hydro_loses_linearity_beyond_16_nodes() {
        let m = tibidabo();
        let s = series(&m, AppId::Hydro, &[4, 16, 64]);
        let e16 = s.points[1].speedup / 16.0;
        let e64 = s.points[2].speedup / 64.0;
        assert!(e16 > 0.75, "HYDRO at 16 nodes: {e16}");
        assert!(e64 < e16, "HYDRO should degrade past 16: {e64} !< {e16}");
    }

    #[test]
    fn speedups_are_monotonically_increasing() {
        let m = tibidabo();
        for app in [AppId::Hydro, AppId::Specfem3d, AppId::Gromacs] {
            let s = series(&m, app, &[4, 8, 16]);
            for w in s.points.windows(2) {
                assert!(
                    w[1].speedup > w[0].speedup,
                    "{}: {} !> {} at {} nodes",
                    s.app,
                    w[1].speedup,
                    w[0].speedup,
                    w[1].nodes
                );
            }
        }
    }

    #[test]
    fn pepc_respects_its_minimum_input_size() {
        let m = tibidabo();
        let s = series(&m, AppId::Pepc, &[4, 8, 24, 48]);
        assert_eq!(s.points[0].nodes, 24, "PEPC needs at least 24 nodes");
        // By the paper's convention the 24-node point is the linear anchor.
        assert!((s.points[0].speedup - 24.0).abs() < 1e-9);
    }
}
