//! Tables 3–4, Figs 6–7, and the §4 headline numbers (HPL/Green500 and the
//! latency-penalty estimates).

use cluster::{green500, table4, Machine};
use hpc_apps::hpl::{HplConfig, HplShare};
use hpc_apps::{fig6 as fig6_series, ScalingSeries};
use netsim::{penalty_table, PenaltyRow, ProtocolModel};
use serde::Serialize;
use simmpi::{pingpong, JobSpec, NetModel, PingPongPoint};
use soc_arch::Platform;
use soc_power::EfficiencyReport;

use crate::table::{f, render_table};

/// Render Table 3 (applications).
pub fn table3_render() -> String {
    let rows: Vec<Vec<String>> = hpc_apps::table3()
        .iter()
        .map(|a| {
            vec![
                a.name.to_string(),
                a.description.to_string(),
                if a.weak_scaling { "weak".into() } else { "strong".into() },
                a.min_nodes.to_string(),
            ]
        })
        .collect();
    render_table(
        "Table 3: applications for scalability evaluation",
        &["application", "description", "scaling", "min nodes"],
        &rows,
    )
}

/// Render Table 4 (network bytes/FLOPS).
pub fn table4_render() -> String {
    let rows: Vec<Vec<String>> = table4()
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                format!("{:.2}", r.ratios[0]),
                format!("{:.2}", r.ratios[1]),
                format!("{:.2}", r.ratios[2]),
            ]
        })
        .collect();
    render_table(
        "Table 4: network bytes/FLOPS ratios (FP64, excluding GPU)",
        &["platform", "1GbE", "10GbE", "40Gb InfiniBand"],
        &rows,
    )
}

/// Fig 6 output: the five scalability series on the Tibidabo model.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6 {
    /// Node counts requested.
    pub nodes: Vec<u32>,
    /// One series per Table-3 application.
    pub series: Vec<ScalingSeries>,
}

/// Generate Fig 6 on the Tibidabo model over the given node counts
/// (use [`hpc_apps::FIG6_NODES`] for the full figure; smaller lists for
/// quick runs).
pub fn fig6(nodes: &[u32]) -> Fig6 {
    let m = Machine::tibidabo();
    Fig6 { nodes: nodes.to_vec(), series: fig6_series(&m, nodes, &HplShare::default()) }
}

impl Fig6 {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.series {
            for p in &s.points {
                rows.push(vec![
                    s.app.to_string(),
                    if s.weak { "weak".into() } else { "strong".into() },
                    p.nodes.to_string(),
                    f(p.seconds),
                    f(p.speedup),
                    format!("{:.0}%", 100.0 * p.speedup / p.nodes as f64),
                ]);
            }
        }
        render_table(
            "Fig 6: scalability of HPC applications on Tibidabo",
            &["application", "mode", "nodes", "t (s)", "speed-up", "efficiency"],
            &rows,
        )
    }
}

/// One Fig 7 panel: a platform/protocol/frequency ping-pong sweep.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Panel {
    /// Panel label (e.g. "Tegra2 TCP/IP @1.0GHz").
    pub label: String,
    /// Small-message latency points (Fig 7a–c).
    pub latency: Vec<PingPongPoint>,
    /// Bandwidth points over large messages (Fig 7d–f).
    pub bandwidth: Vec<PingPongPoint>,
}

/// Fig 7 output: all six panels.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7 {
    /// The panels in paper order.
    pub panels: Vec<Fig7Panel>,
}

/// The six Fig 7 panel configurations, in paper order. Each entry is an
/// independent ping-pong scenario — the per-panel unit the sweep executor
/// schedules.
pub(crate) fn fig7_cases() -> Vec<(&'static str, Platform, f64, ProtocolModel)> {
    vec![
        ("Tegra2 TCP/IP @1.0GHz", Platform::tegra2(), 1.0, ProtocolModel::tcp_ip()),
        ("Tegra2 Open-MX @1.0GHz", Platform::tegra2(), 1.0, ProtocolModel::open_mx()),
        ("Exynos5 TCP/IP @1.0GHz", Platform::exynos5250(), 1.0, ProtocolModel::tcp_ip()),
        ("Exynos5 Open-MX @1.0GHz", Platform::exynos5250(), 1.0, ProtocolModel::open_mx()),
        ("Exynos5 TCP/IP @1.4GHz", Platform::exynos5250(), 1.4, ProtocolModel::tcp_ip()),
        ("Exynos5 Open-MX @1.4GHz", Platform::exynos5250(), 1.4, ProtocolModel::open_mx()),
    ]
}

/// Run one Fig 7 panel: the small-message latency sweep and the large-message
/// bandwidth sweep for one (platform, protocol, frequency) case.
pub(crate) fn fig7_panel(
    label: &str,
    plat: Platform,
    freq: f64,
    proto: ProtocolModel,
) -> Fig7Panel {
    fig7_panel_on(label, plat, freq, proto, None)
}

/// [`fig7_panel`] with the job pinned to a specific network model — the
/// `--ablate-net` harness runs every panel under both models regardless of
/// the process-wide default.
pub(crate) fn fig7_panel_on(
    label: &str,
    plat: Platform,
    freq: f64,
    proto: ProtocolModel,
    model: Option<NetModel>,
) -> Fig7Panel {
    let small = simmpi::small_sizes();
    let large: Vec<u64> = (10..=24).map(|e| 1u64 << e).collect();
    let spec = JobSpec::new(plat, 2).with_freq(freq).with_proto(proto).with_net_model(model);
    let latency = pingpong(spec.clone(), &small, 2);
    let bandwidth = pingpong(spec, &large, 1);
    Fig7Panel { label: label.to_string(), latency, bandwidth }
}

/// Generate Fig 7 (both rows of panels: latency and bandwidth).
pub fn fig7() -> Fig7 {
    let panels = fig7_cases()
        .into_iter()
        .map(|(label, plat, freq, proto)| fig7_panel(label, plat, freq, proto))
        .collect();
    Fig7 { panels }
}

impl Fig7 {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.panels {
            let lat_rows: Vec<Vec<String>> = p
                .latency
                .iter()
                .map(|x| vec![x.bytes.to_string(), format!("{:.1}", x.latency_us)])
                .collect();
            out.push_str(&render_table(
                &format!("Fig 7 latency: {}", p.label),
                &["bytes", "latency (us)"],
                &lat_rows,
            ));
            let bw_rows: Vec<Vec<String>> = p
                .bandwidth
                .iter()
                .map(|x| vec![x.bytes.to_string(), format!("{:.1}", x.bandwidth_mbs)])
                .collect();
            out.push_str(&render_table(
                &format!("Fig 7 bandwidth: {}", p.label),
                &["bytes", "MB/s"],
                &bw_rows,
            ));
        }
        out
    }

    /// The zero-ish-size latency of a panel (the Fig 7a–c headline value).
    pub fn small_latency_us(&self, label_contains: &str) -> Option<f64> {
        self.panels
            .iter()
            .find(|p| p.label.contains(label_contains))
            .and_then(|p| p.latency.get(1).map(|x| x.latency_us))
    }

    /// The peak bandwidth of a panel (the Fig 7d–f plateau).
    pub fn peak_bandwidth_mbs(&self, label_contains: &str) -> Option<f64> {
        self.panels
            .iter()
            .find(|p| p.label.contains(label_contains))
            .map(|p| p.bandwidth.iter().map(|x| x.bandwidth_mbs).fold(0.0, f64::max))
    }
}

/// The §4 HPL/Green500 headline on the Tibidabo model.
#[derive(Clone, Debug, Serialize)]
pub struct HplHeadline {
    /// Nodes used.
    pub nodes: u32,
    /// Problem size.
    pub n: usize,
    /// Virtual seconds.
    pub seconds: f64,
    /// Sustained GFLOPS.
    pub gflops: f64,
    /// Fraction of peak.
    pub efficiency: f64,
    /// Green500 report.
    pub green: EfficiencyReport,
}

/// Run the weak-scaling HPL headline on `nodes` Tibidabo nodes.
pub fn hpl_headline(nodes: u32) -> HplHeadline {
    try_hpl_headline(nodes).expect("HPL headline run failed")
}

/// [`hpl_headline`], surfacing the fault (watchdog event budget, injected
/// crash, engine failure) that stopped the run instead of panicking.
pub fn try_hpl_headline(nodes: u32) -> Result<HplHeadline, simmpi::MpiFault> {
    try_hpl_headline_on(&Machine::tibidabo(), nodes, &HplShare::default())
}

/// [`try_hpl_headline`] on an explicit machine — lets the `--ablate-net`
/// harness pin the machine's network model while keeping the same weak-scaling
/// HPL configuration — with the run taken from `hpl` (the Fig 6 point of
/// the same size is the same job).
pub fn try_hpl_headline_on(
    m: &Machine,
    nodes: u32,
    hpl: &HplShare,
) -> Result<HplHeadline, simmpi::MpiFault> {
    let cfg = HplConfig::tibidabo_weak(nodes);
    let run = hpl.run(m.job(nodes), cfg)?;
    let (seconds, gflops) = (run.result.seconds, run.result.gflops);
    let green = green500(m, &run.run, nodes, 1.0, gflops);
    Ok(HplHeadline {
        nodes,
        n: cfg.n,
        seconds,
        gflops,
        efficiency: gflops / m.peak_gflops(nodes),
        green,
    })
}

impl HplHeadline {
    /// Text rendering with the paper's comparison values.
    pub fn render(&self) -> String {
        format!(
            "== HPL on Tibidabo ({} nodes, N={}) ==\n\
             sustained: {:.1} GFLOPS (paper @96: 97)\n\
             efficiency: {:.1}% of peak (paper: 51%)\n\
             energy efficiency: {:.1} MFLOPS/W at {:.0} W (paper: 120)\n",
            self.nodes,
            self.n,
            self.gflops,
            100.0 * self.efficiency,
            self.green.mflops_per_watt,
            self.green.watts
        )
    }
}

/// The §4.1 latency-penalty table (X2).
pub fn latency_penalty() -> Vec<PenaltyRow> {
    // 100 µs ~ Tegra2 TCP/IP; 65 µs ~ Open-MX; ARM slowdown ≈ 2.0 (Fig 3a).
    penalty_table(&[65.0, 100.0], 2.0)
}

/// Render the latency-penalty estimates.
pub fn latency_penalty_render() -> String {
    let rows: Vec<Vec<String>> = latency_penalty()
        .iter()
        .map(|r| {
            vec![
                f(r.latency_us),
                format!("{:.0}%", 100.0 * r.snb_penalty),
                format!("{:.0}%", 100.0 * r.arm_penalty),
            ]
        })
        .collect();
    render_table(
        "S4.1: execution-time penalty of communication latency",
        &["latency (us)", "Sandy Bridge class", "ARM (Fig 3a scaled)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        assert!(table3_render().contains("SPECFEM3D"));
        assert!(table4_render().contains("InfiniBand"));
        assert!(latency_penalty_render().contains("%"));
    }

    #[test]
    fn fig7_headline_values_match_section_4_1() {
        let fg = fig7();
        let t2_tcp = fg.small_latency_us("Tegra2 TCP").unwrap();
        let t2_omx = fg.small_latency_us("Tegra2 Open-MX").unwrap();
        assert!((88.0..112.0).contains(&t2_tcp), "T2 TCP {t2_tcp}");
        assert!((57.0..73.0).contains(&t2_omx), "T2 OMX {t2_omx}");
        let e5_tcp = fg.small_latency_us("Exynos5 TCP/IP @1.0GHz").unwrap();
        assert!((112.0..138.0).contains(&e5_tcp), "E5 TCP {e5_tcp}");
        let bw_t2_omx = fg.peak_bandwidth_mbs("Tegra2 Open-MX").unwrap();
        assert!((108.0..122.0).contains(&bw_t2_omx), "T2 OMX BW {bw_t2_omx}");
        let bw_e5_omx10 = fg.peak_bandwidth_mbs("Exynos5 Open-MX @1.0GHz").unwrap();
        assert!((62.0..76.0).contains(&bw_e5_omx10), "E5 OMX BW {bw_e5_omx10}");
    }

    #[test]
    fn small_fig6_runs_quickly_and_sanely() {
        let fg = fig6(&[4, 8]);
        assert_eq!(fg.series.len(), 5);
        let rendered = fg.render();
        assert!(rendered.contains("HPL"));
        assert!(rendered.contains("HYDRO"));
    }

    #[test]
    fn hpl_headline_small_scale() {
        let h = hpl_headline(4);
        assert!(h.gflops > 0.0);
        assert!(h.efficiency > 0.4 && h.efficiency < 0.9, "{}", h.efficiency);
        assert!(h.green.mflops_per_watt > 80.0);
        assert!(h.render().contains("GFLOPS"));
    }
}
