//! Fault storm: the resilience layer end-to-end.
//!
//! Three demonstrations on the simulated cluster stack:
//!
//! 1. a lossy link survived by bounded-backoff retransmission;
//! 2. an Execute-mode HPL campaign that rides out node crashes and a DRAM
//!    bit-flip via coordinated checkpoint/restart + residual-based SDC
//!    detection — and still produces a *verified* answer;
//! 3. the same crash schedule without checkpoints, which never finishes.
//!
//! Everything is deterministic: rerun it and every virtual timestamp,
//! retransmission and fault report is bit-identical.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```

use socready::apps::hpl::HplConfig;
use socready::apps::resilience::{run_hpl_resilient, ResilienceConfig};
use socready::des::{FaultEvent, FaultKind, FaultPlan};
use socready::mpi::RetryPolicy;
use socready::prelude::*;

fn crash(node: u32, us: u64) -> FaultEvent {
    FaultEvent { at: SimTime::from_micros(us), kind: FaultKind::NodeCrash { node } }
}

fn main() {
    // ---- 1. Lossy link: retransmit with exponential backoff --------------
    let lossy = FaultPlan::from_events(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::LinkDegrade { node: 1, loss: 0.4, duration: SimTime::from_secs(3600) },
    }]);
    let spec = JobSpec::new(Platform::tegra2(), 2)
        .with_fault_plan(lossy)
        .with_retry(RetryPolicy { max_retries: 24, ..RetryPolicy::default() });
    let run = run_mpi(spec, |mut r| async move {
        for m in 0..32u32 {
            if r.rank() == 0 {
                r.send(1, m, Msg::from_f64s(&[1.0, 2.0, 3.0, 4.0])).await;
            } else {
                assert_eq!(r.recv(0, m).await.to_f64s(), [1.0, 2.0, 3.0, 4.0]);
            }
        }
    })
    .expect("every message survives loss < 1 with enough retries");
    println!("lossy link (40% loss): 32 messages delivered intact");
    println!("  retransmissions: {}, elapsed: {:?}", run.net.retransmits, run.elapsed);

    // ---- 2. Crash storm, checkpoint/restart on ---------------------------
    // Two ranks on physical nodes {0,1}; nodes 2.. are spares. A fresh
    // crash lands in every attempt window.
    let storm = FaultPlan::from_events(vec![crash(1, 1000), crash(2, 2100), crash(3, 3200)]);
    let base = JobSpec::new(Platform::tegra2(), 2).with_topology(TopologySpec::Star { nodes: 8 });
    let cfg = HplConfig::small(64, 8);
    let rc = ResilienceConfig {
        ckpt_every_panels: 2,
        write_bw_bytes: 200e6,
        restart_overhead: SimTime::from_micros(100),
        max_attempts: 8,
    };
    let rep = run_hpl_resilient(base.clone(), cfg, &rc, &storm).expect("baseline failed");
    println!("\ncrash storm with checkpoint/restart:");
    println!("  completed      : {}", rep.completed);
    println!("  attempts       : {}", rep.attempts);
    println!("  crashes        : {} (spares used: {})", rep.crashes, rep.spares_used);
    println!("  residual       : {:?} (HPL passes < 16)", rep.residual);
    println!(
        "  time-to-solution: {:.3} ms vs {:.3} ms clean ({:.2}x inflation)",
        rep.total_secs * 1e3,
        rep.clean_secs * 1e3,
        rep.inflation
    );
    assert!(rep.completed && rep.residual.unwrap() < 16.0);

    // ---- 2b. Silent data corruption, caught by the residual --------------
    // A DRAM bit-flip after the last checkpoint corrupts the live matrix;
    // the first pass "succeeds" with a wrong answer, the scaled residual
    // exposes it, and the rollback re-runs clean.
    let flip = FaultPlan::from_events(vec![FaultEvent {
        at: SimTime::from_micros(1800),
        kind: FaultKind::BitFlip { node: 0 },
    }]);
    let sdc = run_hpl_resilient(
        JobSpec::new(Platform::tegra2(), 2),
        HplConfig::small(48, 8),
        &ResilienceConfig { ckpt_every_panels: 2, ..ResilienceConfig::default() },
        &flip,
    )
    .expect("baseline failed");
    println!("\nDRAM bit-flip (silent data corruption):");
    println!("  SDC detected   : {} (attempts: {})", sdc.sdc_detected, sdc.attempts);
    println!("  final residual : {:?} — verified after rollback", sdc.residual);
    assert!(sdc.completed && sdc.sdc_detected >= 1);

    // ---- 3. The same storm without checkpoints ---------------------------
    let scratch = run_hpl_resilient(
        base,
        cfg,
        &ResilienceConfig { ckpt_every_panels: 0, max_attempts: 3, ..rc },
        &storm,
    )
    .expect("baseline failed");
    println!("\nsame storm, restart-from-scratch (no checkpoints):");
    println!(
        "  completed      : {} after {} attempts ({} crashes)",
        scratch.completed, scratch.attempts, scratch.crashes
    );
    assert!(!scratch.completed, "scratch restart must keep losing its work");
    println!("\ncheckpointing is what turns a lethal fault rate into a slowdown.");
}
