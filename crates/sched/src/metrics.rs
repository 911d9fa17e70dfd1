//! Campaign reporting: what a replay produces.

use serde::Serialize;

/// Five-number summary of a per-job metric distribution.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DistSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl DistSummary {
    /// Summarise `values` (sorted in place; empty input gives all zeros).
    ///
    /// The values are sorted in the order `f64::total_cmp` gives, as
    /// integers: each is replaced by its order-preserving `u64` image, the
    /// images are sorted and mapped back. The sort is unstable, so it needs
    /// no scratch buffer; that cannot change a field, because equal images
    /// are bit-for-bit equal values.
    pub fn of(values: &mut [f64]) -> DistSummary {
        if values.is_empty() {
            return DistSummary { mean: 0.0, p50: 0.0, p95: 0.0, p99: 0.0, max: 0.0 };
        }
        for v in values.iter_mut() {
            *v = f64::from_bits(total_order_bits(*v));
        }
        values.sort_unstable_by_key(|v| v.to_bits());
        for v in values.iter_mut() {
            *v = from_total_order_bits(v.to_bits());
        }
        let q = |frac: f64| values[((values.len() - 1) as f64 * frac).round() as usize];
        DistSummary {
            mean: values.iter().sum::<f64>() / values.len() as f64,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max: *values.last().expect("non-empty"),
        }
    }
}

/// The order-preserving `u64` image of `x`: images compare as
/// `f64::total_cmp` compares the values, and distinct values have distinct
/// images, so equal images are bit-equal values.
pub(crate) fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negatives (sign bit set) count down from the bottom; the rest sit
    // above them in their own order.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The value whose [`total_order_bits`] image is `image`.
fn from_total_order_bits(image: u64) -> f64 {
    f64::from_bits(if image >> 63 == 1 { image & !(1 << 63) } else { !image })
}

/// SLO accounting for one QoS class.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ClassSlo {
    /// Class name (`batch` / `standard` / `interactive`).
    pub class: String,
    /// The class's bounded-slowdown SLO threshold.
    pub slo_slowdown: f64,
    /// Jobs of this class that left the system.
    pub jobs: u64,
    /// Jobs that violated the SLO (completed too slowly, or never
    /// completed at all).
    pub violations: u64,
}

/// Per-tenant consumption row.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantUsage {
    /// Tenant name.
    pub name: String,
    /// Configured fair-share weight.
    pub share: f64,
    /// Jobs the tenant submitted.
    pub jobs: u64,
    /// Node-seconds the tenant consumed.
    pub node_secs: f64,
    /// The tenant's fraction of all consumed node-seconds.
    pub used_frac: f64,
}

/// The result of replaying one job stream under one policy — the
/// `datacenter` artefact's per-cell payload (schema documented in
/// `docs/WORKLOAD_FORMAT.md`).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DcReport {
    /// Scheduling policy name.
    pub policy: String,
    /// Machine name.
    pub machine: String,
    /// Machine size at the start of the run (before faults).
    pub nodes: u32,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs killed at their wall-limit estimate.
    pub wall_killed: u64,
    /// Jobs abandoned after exhausting crash resubmissions.
    pub fault_failed: u64,
    /// Jobs rejected because they were wider than the (possibly
    /// fault-shrunk) alive pool.
    pub unplaceable: u64,
    /// Crash-triggered resubmissions.
    pub resubmits: u64,
    /// Fair-share evictions.
    pub preemptions: u64,
    /// Node crashes that struck an alive node.
    pub crashes: u64,
    /// Alive nodes left when the run ended.
    pub nodes_alive_end: u32,
    /// Virtual time from first submission to last departure, seconds.
    pub makespan_s: f64,
    /// Busy node-seconds over alive node-seconds, in `[0, 1]`.
    pub utilisation: f64,
    /// Queue-wait distribution over completed jobs, seconds.
    pub wait_s: DistSummary,
    /// Bounded-slowdown distribution over completed jobs
    /// (`(wait + run) / max(run, 10 s)`).
    pub slowdown: DistSummary,
    /// Energy per completed job, kilojoules.
    pub energy_per_job_kj: DistSummary,
    /// Total energy charged to job allocations (including partial runs that
    /// were killed or preempted), megajoules.
    pub energy_total_mj: f64,
    /// Jobs that violated their class SLO (see [`ClassSlo`]).
    pub slo_violations: u64,
    /// Per-class SLO breakdown, in fixed class order.
    pub slo_by_class: Vec<ClassSlo>,
    /// Per-tenant consumption, in tenant-table order.
    pub tenants: Vec<TenantUsage>,
}

impl DcReport {
    /// Render the report as the aligned text block `repro` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "policy {:<12} machine {} ({} nodes, {} alive at end)\n",
            self.policy, self.machine, self.nodes, self.nodes_alive_end
        ));
        out.push_str(&format!(
            "  jobs {}  completed {}  wall-killed {}  fault-failed {}  unplaceable {}\n",
            self.jobs, self.completed, self.wall_killed, self.fault_failed, self.unplaceable
        ));
        out.push_str(&format!(
            "  crashes {}  resubmits {}  preemptions {}  makespan {:.1}s  utilisation {:.1}%\n",
            self.crashes,
            self.resubmits,
            self.preemptions,
            self.makespan_s,
            100.0 * self.utilisation
        ));
        out.push_str(&format!(
            "  wait s     mean {:>9.1}  p50 {:>9.1}  p95 {:>9.1}  p99 {:>9.1}  max {:>9.1}\n",
            self.wait_s.mean, self.wait_s.p50, self.wait_s.p95, self.wait_s.p99, self.wait_s.max
        ));
        out.push_str(&format!(
            "  slowdown   mean {:>9.2}  p50 {:>9.2}  p95 {:>9.2}  p99 {:>9.2}  max {:>9.2}\n",
            self.slowdown.mean,
            self.slowdown.p50,
            self.slowdown.p95,
            self.slowdown.p99,
            self.slowdown.max
        ));
        out.push_str(&format!(
            "  energy/job mean {:>7.1}kJ  total {:.2}MJ  slo-violations {}\n",
            self.energy_per_job_kj.mean, self.energy_total_mj, self.slo_violations
        ));
        for c in &self.slo_by_class {
            out.push_str(&format!(
                "    class {:<12} slo<{:<5} jobs {:>8}  violations {}\n",
                c.class, c.slo_slowdown, c.jobs, c.violations
            ));
        }
        for t in &self.tenants {
            out.push_str(&format!(
                "    tenant {:<16} share {:.2}  jobs {:>8}  node-secs {:>12.0}  used {:.1}%\n",
                t.name,
                t.share,
                t.jobs,
                t.node_secs,
                100.0 * t.used_frac
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let d = DistSummary::of(&mut v);
        assert_eq!(d.mean, 50.5);
        assert_eq!(d.p50, 51.0, "index 49.5 rounds half-up to element 50");
        assert_eq!(d.p95, 95.0);
        assert_eq!(d.p99, 99.0);
        assert_eq!(d.max, 100.0);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let d = DistSummary::of(&mut []);
        assert_eq!(d, DistSummary { mean: 0.0, p50: 0.0, p95: 0.0, p99: 0.0, max: 0.0 });
    }
}
