//! Process-wide defaults (`set_default_net_model`, `set_default_tracer`,
//! `set_default_event_budget`) are snapshotted when a job starts: flipping
//! them from another thread while the job runs can never perturb it.
//!
//! Lives in its own integration-test binary because it mutates process-global
//! state: in a shared binary a concurrently running test could pick up a
//! flipped default. The job pins `net_model` explicitly, so a flip that lands
//! at the instant it starts changes nothing either.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netsim::NetModel;
use simmpi::{run_mpi, JobSpec, MpiRun, Msg, ReduceOp};
use soc_arch::Platform;

/// A 16-rank butterfly exchange with per-round compute: each round pairs
/// rank `r` with `r ^ 2^(round mod 4)`, then every rank joins an allreduce.
fn butterfly() -> MpiRun<u64> {
    let spec = JobSpec::new(Platform::tegra2(), 16).with_net_model(Some(NetModel::Event));
    run_mpi(spec, |mut r| async move {
        let me = r.rank();
        let mut acc = me as u64;
        for round in 0..8u32 {
            let partner = me ^ (1 << (round % 4));
            r.compute_secs(2e-5).await;
            let payload = Msg::from_u64s(&[acc, round as u64]);
            if me < partner {
                r.send(partner, round, payload).await;
                acc += r.recv(partner, round).await.to_u64s()[0];
            } else {
                acc += r.recv(partner, round).await.to_u64s()[0];
                r.send(partner, round, payload).await;
            }
        }
        let sum = r.allreduce(ReduceOp::Sum, vec![acc as f64]).await;
        acc + sum[0] as u64
    })
    .expect("butterfly job failed")
}

/// Every observable of two runs, compared field by field.
fn assert_runs_identical<R: std::fmt::Debug + PartialEq>(a: &MpiRun<R>, b: &MpiRun<R>, what: &str) {
    assert_eq!(a.elapsed, b.elapsed, "{what}: elapsed diverged");
    assert_eq!(a.results, b.results, "{what}: per-rank results diverged");
    assert_eq!(a.compute_busy, b.compute_busy, "{what}: compute tallies diverged");
    assert_eq!(a.comm_busy, b.comm_busy, "{what}: comm tallies diverged");
    assert_eq!(a.net.messages, b.net.messages, "{what}: message count diverged");
    assert_eq!(a.net.payload_bytes, b.net.payload_bytes, "{what}: payload bytes diverged");
    assert_eq!(a.net.retransmits, b.net.retransmits, "{what}: retransmit count diverged");
    assert_eq!(a.events, b.events, "{what}: dispatched-event count diverged");
}

#[test]
fn mid_run_default_flips_cannot_perturb_a_running_job() {
    let baseline = butterfly();

    let stop = Arc::new(AtomicBool::new(false));
    let flipper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let tracer: Arc<dyn des::Tracer> = Arc::new(des::NullTracer);
            while !stop.load(Ordering::Relaxed) {
                simmpi::set_default_net_model(NetModel::Flow);
                simmpi::set_default_tracer(Some(Arc::clone(&tracer)));
                simmpi::set_default_event_budget(Some(1 << 40));
                simmpi::set_default_net_model(NetModel::Event);
                simmpi::set_default_tracer(None);
                simmpi::set_default_event_budget(None);
            }
        })
    };
    let disturbed: Vec<_> = (0..5).map(|_| butterfly()).collect();
    stop.store(true, Ordering::Relaxed);
    flipper.join().expect("flipper thread panicked");
    simmpi::set_default_net_model(NetModel::Event);
    simmpi::set_default_tracer(None);
    simmpi::set_default_event_budget(None);

    for run in &disturbed {
        assert_runs_identical(&baseline, run, "run under default flips");
    }
}
