//! Beyond-the-paper analyses (DESIGN.md §5): the §6.3 ECC-risk arithmetic
//! extended into a design table, the Energy-Efficient-Ethernet trade-off
//! behind [36], per-platform rooflines, and the IMB collective benchmarks
//! on the Tibidabo model.

use cluster::{risk_table, EccRisk, GOOGLE_ANNUAL_INCIDENCE};
use netsim::{eee_tradeoff, EeeModel};
use simmpi::{imb_collective, ImbOp, JobSpec, MpiFault, RunOpts};
use soc_arch::{roofline, Platform};

use crate::table::{f, render_table};

/// The §6.3 ECC risk table over cluster sizes.
pub fn ecc_risk_render() -> String {
    let rows: Vec<Vec<String>> = risk_table(&[96, 192, 500, 1500, 5000, 20_000])
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                format!("{:.1}%", 100.0 * r.daily_low),
                format!("{:.1}%", 100.0 * r.daily_high),
            ]
        })
        .collect();
    let mut out = render_table(
        "S6.3 extension: daily DRAM-error probability without ECC (2 DIMMs/node)",
        &["nodes", "4%/yr incidence", "20%/yr incidence"],
        &rows,
    );
    let paper = EccRisk::paper_example(GOOGLE_ANNUAL_INCIDENCE.0);
    out.push_str(&format!(
        "paper's example (1500 nodes): {:.0}% daily at the low end (text: \"30%\")\n",
        100.0 * paper.error_probability(1.0)
    ));
    out
}

/// The EEE latency/energy trade-off sweep.
pub fn eee_render() -> String {
    let m = EeeModel::gbe_1000base_t();
    let intervals = [50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0, 50_000.0];
    let rows: Vec<Vec<String>> = eee_tradeoff(&m, &intervals, 12.0, 65.0)
        .iter()
        .map(|p| {
            vec![
                f(p.interval_us),
                f(p.added_latency_us),
                format!("{:.0}%", 100.0 * p.energy_saving),
                format!("{:+.0}%", 100.0 * p.snb_penalty),
            ]
        })
        .collect();
    render_table(
        "EEE (802.3az) trade-off: message interval vs link energy vs exec-time penalty",
        &["msg interval (us)", "added latency (us)", "link energy saved", "exec-time penalty"],
        &rows,
    )
}

/// Per-platform rooflines at fmax, all cores.
pub fn roofline_render() -> String {
    let rows: Vec<Vec<String>> = Platform::table1()
        .iter()
        .map(|p| {
            let r = roofline(&p.soc, p.soc.fmax_ghz, p.soc.cores);
            vec![p.id.to_string(), f(r.peak_gflops), f(r.bandwidth_gbs), f(r.ridge_intensity)]
        })
        .collect();
    render_table(
        "Attained rooflines at fmax (streaming pattern, all cores)",
        &["platform", "peak GFLOPS", "BW GB/s", "ridge (flop/B)"],
        &rows,
    )
}

/// IMB collectives on the Tibidabo model, run under `opts`.
pub fn imb_render(opts: &RunOpts) -> Result<String, MpiFault> {
    let mk = |p: u32| {
        JobSpec::new(Platform::tegra2(), p)
            .with_topology(netsim::TopologySpec::tibidabo())
            .with_opts(opts.clone())
    };
    let mut rows = Vec::new();
    for op in [ImbOp::Barrier, ImbOp::Bcast, ImbOp::Allreduce, ImbOp::Exchange] {
        for ranks in [8u32, 32, 96] {
            let bytes = if op == ImbOp::Barrier { 0 } else { 8192 };
            let pt = imb_collective(mk(ranks), op, bytes, 2)?;
            rows.push(vec![
                op.name().to_string(),
                ranks.to_string(),
                bytes.to_string(),
                format!("{:.1}", pt.time_us),
            ]);
        }
    }
    Ok(render_table(
        "IMB collectives on the Tibidabo interconnect (TCP/IP)",
        &["operation", "ranks", "bytes", "time (us)"],
        &rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_tables_render() {
        assert!(ecc_risk_render().contains("1500"));
        assert!(eee_render().contains("%"));
        assert!(roofline_render().contains("ridge"));
    }

    #[test]
    fn imb_table_covers_all_ops() {
        let s = imb_render(&RunOpts::default()).unwrap();
        for op in ["Barrier", "Bcast", "Allreduce", "Exchange"] {
            assert!(s.contains(op), "missing {op}");
        }
    }
}
