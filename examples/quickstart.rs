//! Quickstart: run the real micro-kernel suite on the host, then model the
//! same suite on every platform of the paper's Table 1.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use socready::kernels::{fig3_profiles, smoke_run_all};
use socready::power::{suite_energy, PowerModel};
use socready::prelude::*;

fn main() {
    // 1. The suite is real, executable code: run every kernel once at test
    //    size and print a checksum of its output.
    println!("== executing the Table-2 micro-kernel suite on this host ==");
    for r in smoke_run_all() {
        println!("  {:6} checksum: {:.6e}", r.tag, r.checksum);
    }

    // 2. The same kernels, modelled on the paper's platforms at paper scale.
    println!("\n== modelling one suite iteration on the Table-1 platforms ==");
    let suite = fig3_profiles();
    for p in Platform::table1() {
        let pm = PowerModel::for_platform(p.id).expect("power model");
        let f = p.soc.fmax_ghz;
        let (t1, e1) = suite_energy(&p.soc, &pm, f, 1, &suite);
        let (tn, en) = suite_energy(&p.soc, &pm, f, p.soc.threads, &suite);
        println!(
            "  {:12} @{:.1}GHz  serial: {:6.2}s {:6.2}J   {}-thread: {:6.2}s {:6.2}J",
            p.id, f, t1, e1, p.soc.threads, tn, en
        );
    }

    // 3. And a real message-passing job on a simulated ARM cluster.
    println!("\n== running a 16-rank allreduce on the Tibidabo model ==");
    let m = Machine::tibidabo();
    let run = run_mpi(m.job(16), |mut r| async move {
        let rank_value = (r.rank() + 1) as f64;
        r.allreduce(ReduceOp::Sum, vec![rank_value]).await[0]
    })
    .expect("simulation failed");
    println!("  every rank computed sum = {} in {} of virtual time", run.results[0], run.elapsed);
}
