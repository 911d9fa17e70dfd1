//! The HPL-shaped job that the counted tests (`probe_counts.rs`,
//! `memory_bounds.rs`) measure.

use socready::cluster::Machine;
use socready::mpi::{run_mpi, JobSpec, MpiFault, Msg, RunOpts};

/// The 64-rank Tibidabo job the HPL-shaped program runs on, under `opts`.
pub fn hpl_spec(opts: RunOpts) -> JobSpec {
    Machine::tibidabo().job(64).with_opts(opts)
}

/// `rounds` rounds of a pipelined 256 KiB panel broadcast plus an 8 KiB halo
/// to the right neighbour, on the ranks of `spec`: `(messages, engine
/// events)`, or the fault that stopped the job.
pub fn hpl_shaped(spec: JobSpec, rounds: u32) -> Result<(u64, u64), MpiFault> {
    let run = run_mpi(spec, move |mut r| async move {
        let (me, p) = (r.rank(), r.size());
        let mut acc = 0u64;
        for round in 0..rounds {
            let root = round % p;
            let panel = (me == root).then(|| Msg::from_u64s(&[u64::from(round) + 1]));
            acc += r.bcast_pipelined(root, panel, 256 << 10, 32 << 10).await.to_u64s()[0];
            // Even ranks send first, so the ring of rendezvous sends cannot
            // deadlock.
            let (right, left) = ((me + 1) % p, (me + p - 1) % p);
            let halo = Msg::size_only(8 << 10);
            if me % 2 == 0 {
                r.send(right, round, halo).await;
                r.recv(left, round).await;
            } else {
                r.recv(left, round).await;
                r.send(right, round, halo).await;
            }
        }
        acc
    })?;
    let want = u64::from(rounds) * (u64::from(rounds) + 1) / 2;
    assert!(run.results.iter().all(|&a| a == want), "every rank received every panel");
    Ok((run.net.messages, run.events))
}
