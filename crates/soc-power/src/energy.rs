//! Energy-to-solution accounting for modelled kernel executions: combines the
//! `soc-arch` timing engine with the platform power model, reproducing the
//! paper's §3.1 measurement ("both power and performance are measured only
//! for the parallel region of the application").

use serde::{Deserialize, Serialize};
use soc_arch::{cached_kernel_time_fp, soc_fingerprint, Soc, WorkProfile};

use crate::model::PowerModel;

/// Modelled time + energy for one kernel execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Kernel name.
    pub name: &'static str,
    /// Modelled execution time, seconds.
    pub seconds: f64,
    /// Average platform power during the run, watts.
    pub watts: f64,
    /// Energy to solution, Joules.
    pub joules: f64,
}

/// Time + energy for one work profile on `soc` at `f_ghz` with `threads`
/// software threads, powered per `pm`.
pub fn kernel_energy(
    soc: &Soc,
    pm: &PowerModel,
    f_ghz: f64,
    threads: u32,
    work: &WorkProfile,
) -> EnergyBreakdown {
    kernel_energy_fp(soc_fingerprint(soc), soc, pm, f_ghz, threads, work)
}

/// [`kernel_energy`] for a caller that already fingerprinted `soc`
/// ([`soc_fingerprint`]): formatting the fingerprint costs far more than a
/// timing-cache hit, so a suite pays it once, not per kernel.
fn kernel_energy_fp(
    soc_fp: u64,
    soc: &Soc,
    pm: &PowerModel,
    f_ghz: f64,
    threads: u32,
    work: &WorkProfile,
) -> EnergyBreakdown {
    // Memoized: Figs 3/4 evaluate the same (platform, kernel, freq) cells
    // for both the speedup and the energy panels.
    let t = cached_kernel_time_fp(soc_fp, soc, f_ghz, threads, work);
    let active_cores = threads.min(soc.cores).max(1);
    let watts = pm.platform_power_w(f_ghz, active_cores, t.attained_bw_gbs, false);
    EnergyBreakdown { name: work.name, seconds: t.total_s, watts, joules: watts * t.total_s }
}

/// Total time and energy for a whole suite run back-to-back (one iteration of
/// the paper's measurement loop). Returns `(seconds, joules)`.
pub fn suite_energy(
    soc: &Soc,
    pm: &PowerModel,
    f_ghz: f64,
    threads: u32,
    suite: &[WorkProfile],
) -> (f64, f64) {
    let soc_fp = soc_fingerprint(soc);
    suite.iter().fold((0.0, 0.0), |(ts, js), w| {
        let e = kernel_energy_fp(soc_fp, soc, pm, f_ghz, threads, w);
        (ts + e.seconds, js + e.joules)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_arch::{AccessPattern, Platform};

    fn work() -> WorkProfile {
        WorkProfile::new("w", 1e9, 1e8, AccessPattern::Streaming)
    }

    #[test]
    fn energy_is_positive_and_consistent() {
        let p = Platform::tegra2();
        let pm = PowerModel::tegra2_devkit();
        let e = kernel_energy(&p.soc, &pm, 1.0, 1, &work());
        assert!(e.seconds > 0.0 && e.watts > 0.0);
        assert!((e.joules - e.seconds * e.watts).abs() < 1e-9);
    }

    #[test]
    fn suite_energy_sums_kernels() {
        let p = Platform::tegra3();
        let pm = PowerModel::tegra3_devkit();
        let suite = vec![work(), work()];
        let (t, j) = suite_energy(&p.soc, &pm, 1.3, 4, &suite);
        let single = kernel_energy(&p.soc, &pm, 1.3, 4, &work());
        assert!((t - 2.0 * single.seconds).abs() < 1e-12);
        assert!((j - 2.0 * single.joules).abs() < 1e-9);
    }

    #[test]
    fn higher_frequency_costs_more_power_but_can_save_energy() {
        // The paper's key energy observation: board power dominates, so
        // racing to finish at high frequency lowers energy-to-solution.
        let p = Platform::exynos5250();
        let pm = PowerModel::exynos5250_devkit();
        let lo = kernel_energy(&p.soc, &pm, 1.0, 1, &work());
        let hi = kernel_energy(&p.soc, &pm, 1.7, 1, &work());
        assert!(hi.watts > lo.watts);
        assert!(hi.joules < lo.joules, "race-to-idle should win: {} vs {}", hi.joules, lo.joules);
    }
}
