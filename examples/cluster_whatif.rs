//! Cluster what-if: the paper's §7 outlook, quantified — what happens to the
//! Fig 6 applications and the Green500 number when Tibidabo's Tegra 2 nodes
//! are replaced with Exynos-5250 or projected ARMv8 nodes?
//!
//! ```text
//! cargo run --release --example cluster_whatif
//! ```

use socready::apps::hpl::{run_hpl, HplConfig};
use socready::apps::sem::{run_sem, SemConfig};
use socready::prelude::*;

fn hpl_on(machine: &Machine, nodes: u32) -> (f64, f64, f64) {
    let cfg = HplConfig {
        // Same global problem on every machine for a fair cross-machine race.
        n: 16_384,
        nb: 128,
        mode: Mode::Model,
    };
    let hpl = run_hpl(machine.job(nodes), cfg).expect("simulation failed");
    let g = green500(machine, &hpl.run, nodes, machine.platform.soc.fmax_ghz, hpl.result.gflops);
    (hpl.result.seconds, hpl.result.gflops, g.mflops_per_watt)
}

fn main() {
    let nodes = 16;
    let machines =
        [Machine::tibidabo(), Machine::arndale_cluster(nodes), Machine::armv8_cluster(nodes)];

    println!("fixed-size HPL (N=16384) on {nodes} nodes of each machine:\n");
    println!("{:<28} {:>10} {:>10} {:>12}", "machine", "time (s)", "GFLOPS", "MFLOPS/W");
    for m in &machines {
        let (t, gf, mw) = hpl_on(m, nodes);
        println!("{:<28} {:>10.1} {:>10.1} {:>12.1}", m.name, t, gf, mw);
    }

    println!("\nSPECFEM3D-style SEM strong scaling on each machine ({nodes} nodes):");
    for m in &machines {
        let cfg = SemConfig { steps: 10, ..SemConfig::fig6() };
        let (t, _) = run_sem(m.job(nodes), cfg).expect("SEM run failed");
        println!("  {:<28} {:>8.2} s/10 steps", m.name, t);
    }

    println!(
        "\nThe projection illustrates the paper's conclusion: the missing piece is not\n\
         the core — ARMv8-class mobile silicon closes most of the gap — but the\n\
         server features (ECC, integrated NICs, 64-bit) catalogued in S6.3."
    );
}
