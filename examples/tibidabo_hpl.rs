//! Tibidabo HPL: the §4 cluster experiment end-to-end.
//!
//! First solves a small system with the *real* distributed LU (Execute mode,
//! residual-checked), then runs the paper's weak-scaling measurement on the
//! Tibidabo model and reports the Green500 numbers.
//!
//! ```text
//! cargo run --release --example tibidabo_hpl -- --ranks <nodes>
//! cargo run --release --example tibidabo_hpl -- --ranks <nodes> --trace hpl.jsonl
//! ```
//!
//! With `--trace PATH` every simulated run records a structured DES trace
//! (JSONL, docs/TRACE_FORMAT.md); fold it into a flamegraph with
//! `trace2flame PATH`.

use std::sync::Arc;

use des::{RingRecorder, Tracer};
use socready::apps::hpl::{run_hpl, HplConfig};
use socready::apps::Mode;
use socready::mpi::RunOpts;
use socready::prelude::*;

/// `--ranks N` (also accepts a bare positional count for compatibility).
fn ranks_arg(default: u32) -> u32 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--ranks" {
            return args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--ranks needs a number");
                std::process::exit(2);
            });
        }
        if a == "--trace" {
            args.next(); // value consumed by trace_arg
            continue;
        }
        if let Ok(n) = a.parse() {
            return n;
        }
    }
    default
}

/// `--trace PATH`: where to write the JSONL trace, if requested.
fn trace_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return Some(args.next().map(Into::into).unwrap_or_else(|| {
                eprintln!("--trace needs a path");
                std::process::exit(2);
            }));
        }
    }
    None
}

fn main() {
    let nodes: u32 = ranks_arg(16);
    let trace_path = trace_arg();
    let recorder = trace_path.as_ref().map(|_| Arc::new(RingRecorder::with_capacity(1 << 20)));
    let opts = RunOpts {
        tracer: recorder.clone().map(|rec| rec as Arc<dyn Tracer>),
        ..RunOpts::default()
    };
    // Beyond the prototype's 192 nodes, switch to the §7-style scaled model
    // (same Tegra-2 node and GbE tree, more edge switches).
    let m = if nodes > Machine::tibidabo().nodes() {
        let m = Machine::tibidabo_scaled(nodes);
        println!("note: {nodes} ranks exceeds Tibidabo's 192 nodes; using {}", m.name);
        m
    } else {
        Machine::tibidabo()
    };

    // 1. Correctness first: a real factorisation with pivoting on 4 ranks.
    let small = HplConfig::small(96, 8);
    let res = run_hpl(m.job(4).with_opts(opts.clone()), small).expect("HPL run failed").result;
    println!(
        "Execute mode, N=96 on 4 ranks: residual = {:.3} (HPL passes < 16)",
        res.residual.expect("verification runs on rank 0")
    );
    assert!(res.residual.unwrap() < 16.0);

    // 2. The paper's measurement: weak scaling at ~60% of node memory.
    let cfg = HplConfig::tibidabo_weak(nodes);
    println!(
        "\nweak-scaling HPL on {nodes} Tibidabo nodes (N = {}, nb = {}, {:?} mode)...",
        cfg.n,
        cfg.nb,
        Mode::Model
    );
    let hpl = run_hpl(m.job(nodes).with_opts(opts), cfg).expect("cluster simulation failed");
    let (secs, gflops) = (hpl.result.seconds, hpl.result.gflops);
    let peak = m.peak_gflops(nodes);
    let g = green500(&m, &hpl.run, nodes, 1.0, gflops);
    println!("  time          : {secs:.1} virtual seconds");
    println!(
        "  sustained     : {gflops:.1} GFLOPS ({:.1}% of {peak:.0} GFLOPS peak)",
        100.0 * gflops / peak
    );
    println!("  system power  : {:.0} W", g.watts);
    println!("  Green500      : {:.1} MFLOPS/W", g.mflops_per_watt);
    println!("\npaper, 96 nodes: 97 GFLOPS, 51% efficiency, 120 MFLOPS/W");

    if let (Some(path), Some(rec)) = (trace_path, recorder) {
        let records = rec.drain();
        socready::harness::write_trace(&path, &records, rec.dropped()).expect("write trace");
        eprintln!(
            "wrote {} trace records to {} ({} dropped); fold with: trace2flame {}",
            records.len(),
            path.display(),
            rec.dropped(),
            path.display()
        );
    }
}
