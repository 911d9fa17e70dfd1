//! Calibrated analytic runtime and energy models.
//!
//! Replaying 10⁵–10⁷ jobs cannot afford a full `simmpi` run per job, so the
//! scheduler prices each job with a closed-form scaling law per [`JobKind`]
//! (an Amdahl serial fraction plus a logarithmic communication term — the
//! shape the repo's Fig 6 strong-scaling curves follow on the tree network)
//! and charges energy with the same formula `cluster::energy::job_energy`
//! applies to real runs. The `bench` crate's `datacenter` artefact carries a
//! validation cell that dispatches representative jobs into the real
//! `simmpi`/`des` stack and reports the model-vs-measured runtime ratios.

use cluster::Machine;

use crate::workload::{Job, JobKind};

/// Peak FP64 GFLOPS of one Tibidabo node (Tegra 2: 2 cores × 1 flop/cycle ×
/// 1 GHz) — the reference speed [`Job::work`] is expressed against.
pub const REF_NODE_GFLOPS: f64 = 2.0;

/// Per-kind scaling law: `t(n) = speed · work · (s + (1−s)/n + c·log2 n)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingLaw {
    /// Amdahl serial fraction `s` in `[0, 1)`.
    pub serial_frac: f64,
    /// Communication overhead `c` per doubling of the node count, as a
    /// fraction of the single-node time.
    pub comm_frac_per_log2: f64,
}

/// The analytic runtime model: a per-node speed factor relative to the
/// Tibidabo reference node plus one [`ScalingLaw`] per [`JobKind`].
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeModel {
    /// Slowdown of this machine's node relative to the reference Tegra-2
    /// node (1.0 on Tibidabo; < 1.0 on faster what-if nodes).
    pub node_speed: f64,
    /// Laws indexed in [`JobKind::ALL`] order.
    pub laws: [ScalingLaw; 4],
}

impl RuntimeModel {
    /// The model calibrated for the Tibidabo prototype. The per-kind
    /// constants echo the repo's Fig 6 behaviour on the hierarchical GbE
    /// tree: the solver tolerates scale best until its broadcasts bite, the
    /// stencil's halo exchanges are cheap, the tree walk has the largest
    /// serial fraction, and the spectral code sits in between.
    pub fn tibidabo() -> RuntimeModel {
        RuntimeModel {
            node_speed: 1.0,
            laws: [
                // Solver (HPL-like): tiny serial part, broadcast-heavy.
                ScalingLaw { serial_frac: 0.02, comm_frac_per_log2: 0.055 },
                // Stencil (HYDRO-like): nearest-neighbour halos are cheap.
                ScalingLaw { serial_frac: 0.01, comm_frac_per_log2: 0.030 },
                // Tree (PEPC-like): global tree build serialises.
                ScalingLaw { serial_frac: 0.05, comm_frac_per_log2: 0.040 },
                // Spectral (SEM-like): transposes cost per doubling.
                ScalingLaw { serial_frac: 0.02, comm_frac_per_log2: 0.048 },
            ],
        }
    }

    /// The model re-speeded for `machine`: the same scaling shapes with the
    /// node-speed factor taken from the machine's peak FP64 throughput
    /// relative to the reference Tegra-2 node.
    pub fn for_machine(machine: &Machine) -> RuntimeModel {
        let peak = machine.platform.soc.peak_gflops_max().max(1e-9);
        RuntimeModel { node_speed: REF_NODE_GFLOPS / peak, ..RuntimeModel::tibidabo() }
    }

    /// The law for `kind`.
    pub fn law(&self, kind: JobKind) -> ScalingLaw {
        self.laws[JobKind::ALL.iter().position(|&k| k == kind).expect("kind in ALL")]
    }

    /// Predicted wall-clock seconds for `work` reference-node compute
    /// seconds of `kind` spread over `nodes` nodes.
    ///
    /// ```
    /// use sched::{JobKind, RuntimeModel};
    ///
    /// let m = RuntimeModel::tibidabo();
    /// let t1 = m.run_secs(JobKind::Stencil, 1, 600.0);
    /// let t64 = m.run_secs(JobKind::Stencil, 64, 600.0);
    /// assert_eq!(t1, 600.0);             // one node runs the reference time
    /// assert!(t64 < t1 && t64 > t1 / 64.0); // speedup, but sub-linear
    /// ```
    pub fn run_secs(&self, kind: JobKind, nodes: u32, work: f64) -> f64 {
        let n = nodes.max(1) as f64;
        let law = self.law(kind);
        let frac =
            law.serial_frac + (1.0 - law.serial_frac) / n + law.comm_frac_per_log2 * n.log2();
        self.node_speed * work * frac
    }

    /// Average per-node busy fraction while the job runs: useful compute
    /// time per node over predicted elapsed time. Serial sections and
    /// communication waits show up as idleness, exactly as `simmpi`'s
    /// measured `compute_busy` fractions would.
    pub fn busy_frac(&self, kind: JobKind, nodes: u32, work: f64) -> f64 {
        let elapsed = self.run_secs(kind, nodes, work).max(1e-12);
        let per_node_compute = self.node_speed * work / nodes.max(1) as f64;
        (per_node_compute / elapsed).clamp(0.0, 1.0)
    }

    /// Predicted runtime for a job record (its kind, width and work).
    pub fn job_secs(&self, job: &Job) -> f64 {
        self.run_secs(job.kind, job.nodes, job.work)
    }
}

/// Analytic counterpart of `cluster::energy::job_energy`: Joules for a job
/// that held `nodes` nodes for `elapsed_s` seconds with the given average
/// busy fraction. Every node draws idle power for the whole job plus the
/// active increment (all cores at fmax, 1 GB/s of DRAM traffic, NIC up) for
/// its busy fraction; the machine's switches are charged in proportion to
/// the nodes held, as the Green500 measurement of §4 does.
pub fn job_energy_j(machine: &Machine, nodes: u32, elapsed_s: f64, busy_frac: f64) -> f64 {
    JobPower::of(machine).energy_j(nodes, elapsed_s, busy_frac)
}

/// The per-machine constants of [`job_energy_j`], read once, so a replay
/// charging 10⁶ jobs does not re-derive the node's power draw per job.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobPower {
    /// One node's draw with every core busy at fmax, watts.
    active_w: f64,
    /// One node's idle draw, watts.
    idle_w: f64,
    /// All switches' draw, watts.
    switches_w: f64,
    /// The machine's node count.
    nodes: f64,
}

impl JobPower {
    pub(crate) fn of(machine: &Machine) -> JobPower {
        let pm = &machine.node_power;
        let soc = &machine.platform.soc;
        JobPower {
            active_w: pm.platform_power_w(soc.fmax_ghz, soc.cores, 1.0, true),
            idle_w: pm.idle_power_w(),
            switches_w: machine.switches as f64 * machine.switch_power_w,
            nodes: machine.nodes() as f64,
        }
    }

    /// [`job_energy_j`] on this machine.
    pub(crate) fn energy_j(&self, nodes: u32, elapsed_s: f64, busy_frac: f64) -> f64 {
        let busy = busy_frac.clamp(0.0, 1.0);
        let node_power = nodes as f64 * (self.idle_w + busy * (self.active_w - self.idle_w));
        let switch_share = self.switches_w * (nodes as f64 / self.nodes).min(1.0);
        (node_power + switch_share) * elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_is_bounded_by_the_single_node_time() {
        let m = RuntimeModel::tibidabo();
        for kind in JobKind::ALL {
            let t1 = m.run_secs(kind, 1, 100.0);
            assert!((t1 - 100.0).abs() < 1e-9, "{kind:?} single-node time is the work itself");
            for pow in 1..=10 {
                let t = m.run_secs(kind, 1 << pow, 100.0);
                assert!(t > 0.0 && t < t1, "{kind:?} at {} nodes: {t}", 1 << pow);
            }
        }
    }

    #[test]
    fn busy_fraction_decays_with_width() {
        let m = RuntimeModel::tibidabo();
        let narrow = m.busy_frac(JobKind::Solver, 2, 100.0);
        let wide = m.busy_frac(JobKind::Solver, 128, 100.0);
        assert!(narrow > wide, "{narrow} vs {wide}");
        assert!((0.0..=1.0).contains(&narrow) && (0.0..=1.0).contains(&wide));
    }

    #[test]
    fn machine_speed_factor_rescales_runtimes() {
        let tib = RuntimeModel::for_machine(&Machine::tibidabo());
        assert!((tib.node_speed - 1.0).abs() < 1e-9, "Tibidabo is the reference");
        let arm = RuntimeModel::for_machine(&Machine::armv8_cluster(64));
        assert!(arm.node_speed < 1.0, "the projected ARMv8 node is faster");
        assert!(arm.run_secs(JobKind::Solver, 4, 100.0) < tib.run_secs(JobKind::Solver, 4, 100.0));
    }

    #[test]
    fn energy_mirrors_the_cluster_formula_shape() {
        let m = Machine::tibidabo();
        let idle = job_energy_j(&m, 4, 10.0, 0.0);
        let busy = job_energy_j(&m, 4, 10.0, 1.0);
        assert!(busy > idle && idle > 0.0);
        // Linear in time and in busy fraction.
        assert!(
            (job_energy_j(&m, 4, 20.0, 0.5) - 2.0 * job_energy_j(&m, 4, 10.0, 0.5)).abs() < 1e-9
        );
        let mid = job_energy_j(&m, 4, 10.0, 0.5);
        assert!((mid - (idle + busy) / 2.0).abs() < 1e-9);
    }
}
