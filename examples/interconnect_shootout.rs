//! Interconnect shoot-out: §4.1 / Fig 7 — TCP/IP vs Open-MX, PCIe vs USB.
//!
//! ```text
//! cargo run --release --example interconnect_shootout -- --ranks <N>
//! cargo run --release --example interconnect_shootout -- --trace ring.jsonl
//! ```
//!
//! `--ranks N` sizes the ping-ring section (default 64): N ranks pass a
//! token around a ring under each protocol, one event-driven process per
//! rank in a single OS thread. `--trace PATH` records a structured DES
//! trace of every run (JSONL, docs/TRACE_FORMAT.md) for `trace2flame`.

use std::sync::Arc;

use des::{RingRecorder, Tracer};
use socready::mpi::{pingpong, run_mpi, JobSpec, Msg, RunOpts};
use socready::net::{penalty_table, ProtocolModel};
use socready::prelude::*;

/// `--ranks N` flag (default when absent).
fn ranks_arg(default: u32) -> u32 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--ranks" {
            return args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--ranks needs a number");
                std::process::exit(2);
            });
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
    let trace_path = trace_arg();
    let recorder = trace_path.as_ref().map(|_| Arc::new(RingRecorder::with_capacity(1 << 20)));
    let opts = RunOpts {
        tracer: recorder.clone().map(|rec| rec as Arc<dyn Tracer>),
        ..RunOpts::default()
    };
    let cases = [
        ("Tegra2  (PCIe NIC)  TCP/IP ", Platform::tegra2(), 1.0, ProtocolModel::tcp_ip()),
        ("Tegra2  (PCIe NIC)  Open-MX", Platform::tegra2(), 1.0, ProtocolModel::open_mx()),
        ("Exynos5 (USB3 NIC)  TCP/IP ", Platform::exynos5250(), 1.0, ProtocolModel::tcp_ip()),
        ("Exynos5 (USB3 NIC)  Open-MX", Platform::exynos5250(), 1.0, ProtocolModel::open_mx()),
        ("Exynos5 @1.4GHz     TCP/IP ", Platform::exynos5250(), 1.4, ProtocolModel::tcp_ip()),
        ("Exynos5 @1.4GHz     Open-MX", Platform::exynos5250(), 1.4, ProtocolModel::open_mx()),
    ];
    println!("{:<30} {:>12} {:>12}", "configuration", "latency (us)", "BW (MB/s)");
    for (name, plat, freq, proto) in cases {
        let spec = JobSpec::new(plat, 2).with_freq(freq).with_proto(proto).with_opts(opts.clone());
        let lat = pingpong(spec.clone(), &[4], 3).expect("ping-pong failed")[0].latency_us;
        let bw = pingpong(spec, &[16 << 20], 1).expect("ping-pong failed")[0].bandwidth_mbs;
        println!("{name:<30} {lat:>12.1} {bw:>12.1}");
    }
    println!("\npaper: Tegra2 100/65 us, 65/117 MB/s; Exynos 125/93 us, 63/69 MB/s (75 @1.4GHz)");

    let ranks = ranks_arg(64);
    println!("\n{ranks}-rank ping-ring (one event-driven process per rank):");
    for (name, proto) in
        [("TCP/IP ", ProtocolModel::tcp_ip()), ("Open-MX", ProtocolModel::open_mx())]
    {
        let spec =
            JobSpec::new(Platform::tegra2(), ranks).with_proto(proto).with_opts(opts.clone());
        let run = run_mpi(spec, |mut r| async move {
            let p = r.size();
            if p > 1 {
                if r.rank() == 0 {
                    r.send(1, 0, Msg::from_u64s(&[0])).await;
                    r.recv(p - 1, 0).await;
                } else {
                    let hops = r.recv(r.rank() - 1, 0).await.to_u64s()[0];
                    r.send((r.rank() + 1) % p, 0, Msg::from_u64s(&[hops + 1])).await;
                }
            }
            r.now().as_micros_f64()
        })
        .expect("ping-ring failed");
        let total_us = run.results.iter().cloned().fold(0.0, f64::max);
        println!("  {name}: {total_us:>10.1} us total, {:>7.2} us/hop", total_us / ranks as f64);
    }

    println!("\nwhat a given latency costs in execution time (S4.1, after [36]):");
    for row in penalty_table(&[65.0, 100.0], 2.0) {
        println!(
            "  {:>5.0} us  ->  +{:>2.0}% on a Sandy Bridge node, +{:>2.0}% on an ARM node",
            row.latency_us,
            100.0 * row.snb_penalty,
            100.0 * row.arm_penalty
        );
    }

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
