//! Tables 1–2 and Figs 3–5: the single-SoC evaluation (§3).

use kernels::{fig3_profiles, table2};
use serde::Serialize;
use soc_arch::{suite_speedup, Platform};
use soc_power::{suite_energy, PowerModel};

use crate::table::{f, render_table};

/// Render Table 1 (platform characteristics) from the models.
pub fn table1_render() -> String {
    let plats = Platform::table1();
    let mut rows = Vec::new();
    let push = |rows: &mut Vec<Vec<String>>, name: &str, vals: Vec<String>| {
        let mut r = vec![name.to_string()];
        r.extend(vals);
        rows.push(r);
    };
    push(&mut rows, "SoC", plats.iter().map(|p| p.soc.name.to_string()).collect());
    push(
        &mut rows,
        "Architecture",
        plats.iter().map(|p| p.soc.core.uarch.name().to_string()).collect(),
    );
    push(&mut rows, "Max freq (GHz)", plats.iter().map(|p| f(p.soc.fmax_ghz)).collect());
    push(&mut rows, "Cores", plats.iter().map(|p| p.soc.cores.to_string()).collect());
    push(&mut rows, "Threads", plats.iter().map(|p| p.soc.threads.to_string()).collect());
    push(&mut rows, "FP-64 GFLOPS", plats.iter().map(|p| f(p.soc.peak_gflops_max())).collect());
    push(
        &mut rows,
        "L1 I/D (KiB)",
        plats.iter().map(|p| format!("{}/{}", p.soc.cache.l1i_kib, p.soc.cache.l1d_kib)).collect(),
    );
    push(
        &mut rows,
        "L2 (KiB)",
        plats
            .iter()
            .map(|p| {
                format!(
                    "{}{}",
                    p.soc.cache.l2_kib,
                    if p.soc.cache.l2_shared { " shared" } else { " private" }
                )
            })
            .collect(),
    );
    push(
        &mut rows,
        "L3 (KiB)",
        plats.iter().map(|p| p.soc.cache.l3_kib.map_or("-".into(), |v| v.to_string())).collect(),
    );
    push(&mut rows, "Mem channels", plats.iter().map(|p| p.soc.mem.channels.to_string()).collect());
    push(
        &mut rows,
        "Mem width (bits)",
        plats.iter().map(|p| p.soc.mem.width_bits.to_string()).collect(),
    );
    push(&mut rows, "Peak BW (GB/s)", plats.iter().map(|p| f(p.soc.mem.peak_bw_gbs)).collect());
    push(&mut rows, "Kit", plats.iter().map(|p| p.kit_name.to_string()).collect());
    push(&mut rows, "Ethernet", plats.iter().map(|p| format!("{} Mb", p.eth_mbit)).collect());
    render_table(
        "Table 1: platforms under evaluation",
        &["", "tegra2", "tegra3", "exynos5250", "i7-2760qm"],
        &rows,
    )
}

/// Render Table 2 (the micro-kernel suite).
pub fn table2_render() -> String {
    let rows: Vec<Vec<String>> = table2()
        .iter()
        .map(|k| vec![k.tag.to_string(), k.full_name.to_string(), k.properties.to_string()])
        .collect();
    render_table("Table 2: micro-kernels", &["tag", "full name", "properties"], &rows)
}

/// One point of the Fig 3/4 sweeps.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SweepPoint {
    /// CPU frequency, GHz.
    pub freq_ghz: f64,
    /// Suite speedup vs Tegra 2 @ 1 GHz (same thread mode).
    pub speedup_vs_baseline: f64,
    /// Per-iteration energy, Joules.
    pub energy_j: f64,
    /// Per-iteration energy normalised to Tegra 2 @ 1 GHz serial.
    pub energy_norm: f64,
}

/// One platform's Fig 3/4 series.
#[derive(Clone, Debug, Serialize)]
pub struct SweepSeries {
    /// Platform id.
    pub platform: String,
    /// Threads used (1 = Fig 3, all = Fig 4).
    pub threads: u32,
    /// The DVFS sweep.
    pub points: Vec<SweepPoint>,
}

/// The full Fig 3 (threads = 1) or Fig 4 (threads = all) dataset.
#[derive(Clone, Debug, Serialize)]
pub struct Fig34 {
    /// "3" or "4".
    pub figure: &'static str,
    /// One series per platform.
    pub series: Vec<SweepSeries>,
}

/// The Fig 3/4 normalisation constant: per-iteration suite energy of the
/// Tegra 2 baseline at 1 GHz serial. Cheap (one modelled suite pass), so
/// every DVFS cell can recompute-free share it by value.
pub(crate) fn fig34_base_energy() -> f64 {
    let suite = fig3_profiles();
    let baseline = Platform::tegra2().soc;
    let pm = PowerModel::tegra2_devkit();
    suite_energy(&baseline, &pm, 1.0, 1, &suite).1
}

/// One platform's complete Fig 3 (`serial`) or Fig 4 DVFS series — the unit
/// of work the sweep executor schedules for these figures.
pub(crate) fn fig34_series_for(p: &Platform, serial: bool, base_energy: f64) -> SweepSeries {
    let suite = fig3_profiles();
    let baseline = Platform::tegra2().soc;
    let pm = PowerModel::for_platform(p.id).expect("power model");
    let threads = if serial { 1 } else { p.soc.threads };
    let points = p
        .soc
        .dvfs_ghz
        .iter()
        .map(|&freq| {
            let sp = suite_speedup(&p.soc, freq, threads, &baseline, 1.0, 1, &suite);
            let (_, e) = suite_energy(&p.soc, &pm, freq, threads, &suite);
            SweepPoint {
                freq_ghz: freq,
                speedup_vs_baseline: sp,
                energy_j: e,
                energy_norm: e / base_energy,
            }
        })
        .collect();
    SweepSeries { platform: p.id.to_string(), threads, points }
}

impl Fig34 {
    /// Text rendering of both panels (speedup and energy).
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.series {
            for p in &s.points {
                rows.push(vec![
                    s.platform.clone(),
                    s.threads.to_string(),
                    f(p.freq_ghz),
                    f(p.speedup_vs_baseline),
                    f(p.energy_j),
                    f(p.energy_norm),
                ]);
            }
        }
        render_table(
            &format!(
                "Fig {}: {} performance & energy vs frequency (baseline Tegra2@1GHz serial)",
                self.figure,
                if self.figure == "3" { "single-core" } else { "multi-core" }
            ),
            &["platform", "threads", "GHz", "speedup", "E (J/iter)", "E norm"],
            &rows,
        )
    }

    /// The point at a platform's maximum frequency.
    pub fn at_fmax(&self, platform: &str) -> Option<SweepPoint> {
        self.series.iter().find(|s| s.platform == platform).and_then(|s| s.points.last().copied())
    }
}

/// Fig 5: the STREAM table for all platforms, single-core and MPSoC.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5 {
    /// One row per platform×operation.
    pub rows: Vec<kernels::stream::StreamResult>,
}

/// One platform's Fig 5 STREAM rows — the per-cell unit for the sweep
/// executor; the figure is their in-order concatenation over Table 1.
pub(crate) fn fig5_rows_for(p: &Platform) -> Vec<kernels::stream::StreamResult> {
    kernels::stream::fig5_rows(&p.soc, p.id)
}

impl Fig5 {
    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| vec![r.platform.clone(), r.op.to_string(), f(r.single_gbs), f(r.multi_gbs)])
            .collect();
        render_table(
            "Fig 5: STREAM memory bandwidth (GB/s)",
            &["platform", "op", "single core", "MPSoC"],
            &rows,
        )
    }
}

/// Pretty peak-efficiency summary (§3.2's 62/27/52/57% sentence).
pub fn fig5_efficiency_summary() -> String {
    let mut out = String::from("STREAM multi-core efficiency vs Table-1 peak:\n");
    for p in Platform::table1() {
        let bw = kernels::stream::modeled_bandwidth_gbs(
            &p.soc,
            p.soc.cores,
            kernels::stream::StreamOp::Copy,
        );
        out.push_str(&format!("  {:12} {:.0}%\n", p.id, 100.0 * bw / p.soc.mem.peak_bw_gbs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        assert!(table1_render().contains("FP-64 GFLOPS"));
        assert!(table2_render().contains("vecop"));
    }

    /// Fig 3 (`serial`) or Fig 4 as the plan's merge assembles it.
    fn fig34(figure: &'static str, serial: bool) -> Fig34 {
        let base = fig34_base_energy();
        let series = Platform::table1().iter().map(|p| fig34_series_for(p, serial, base)).collect();
        Fig34 { figure, series }
    }

    #[test]
    fn fig3_series_cover_all_platforms_and_freqs() {
        let fg = fig34("3", true);
        assert_eq!(fg.series.len(), 4);
        for s in &fg.series {
            assert_eq!(s.threads, 1);
            assert!(!s.points.is_empty());
            // Speedup grows with frequency within a platform.
            assert!(s
                .points
                .windows(2)
                .all(|w| w[1].speedup_vs_baseline > w[0].speedup_vs_baseline));
        }
        // Baseline point: Tegra 2 @ 1 GHz has speedup 1 and energy_norm 1.
        let t2 = fg.at_fmax("tegra2").unwrap();
        assert!((t2.speedup_vs_baseline - 1.0).abs() < 1e-9);
        assert!((t2.energy_norm - 1.0).abs() < 1e-9);
        assert!(fg.render().contains("Fig 3: single-core"));
    }

    #[test]
    fn fig4_is_faster_than_fig3_at_fmax() {
        let f3 = fig34("3", true);
        let f4 = fig34("4", false);
        for id in ["tegra2", "tegra3", "exynos5250", "i7-2760qm"] {
            let s3 = f3.at_fmax(id).unwrap().speedup_vs_baseline;
            let s4 = f4.at_fmax(id).unwrap().speedup_vs_baseline;
            assert!(s4 > s3, "{id}: {s4} !> {s3}");
        }
    }

    #[test]
    fn fig5_has_16_rows() {
        let fg = Fig5 { rows: Platform::table1().iter().flat_map(fig5_rows_for).collect() };
        assert_eq!(fg.rows.len(), 16);
        assert!(fg.render().contains("Triad"));
        assert!(fig5_efficiency_summary().contains('%'));
    }
}
