//! Pins the work counts behind the performance ledger's layer probes
//! (`crates/bench/src/bin/ledger/src/probes.rs`): the events a pure-
//! scheduling token ring dispatches, and the messages and events of a
//! 64-rank HPL-shaped job under each network model. A change to how the
//! engine dispatches, or to how `simmpi` turns a message into events, moves
//! these counts; the ledger's per-event and per-message costs are only
//! comparable across commits while they hold.

use std::cell::RefCell;
use std::rc::Rc;

use socready::cluster::Machine;
use socready::des::{Engine, Pid, SimTime};
use socready::mpi::{run_mpi, Msg, NetModel};

/// A ring of `procs` processes passing one token for `laps` laps: each
/// holder advances 1 µs and wakes the next. Returns the events dispatched.
fn token_ring(procs: u32, laps: u32) -> u64 {
    let mut engine = Engine::new();
    let pids: Rc<RefCell<Vec<Pid>>> = Rc::new(RefCell::new(Vec::with_capacity(procs as usize)));
    for i in 0..procs {
        let ring = Rc::clone(&pids);
        let pid = engine.spawn_process(format!("ring{i}"), move |ctx| async move {
            for lap in 0..laps {
                if !(lap == 0 && i == 0) {
                    ctx.park().await;
                }
                ctx.advance(SimTime::from_micros(1)).await;
                if !(lap == laps - 1 && i == procs - 1) {
                    let next = ring.borrow()[((i + 1) % procs) as usize];
                    ctx.wake_at(next, ctx.now());
                }
            }
        });
        pids.borrow_mut().push(pid);
    }
    engine.run().expect("token ring completes").events
}

/// Rounds of a pipelined 256 KiB panel broadcast plus an 8 KiB halo to the
/// right neighbour, on 64 Tibidabo ranks: `(messages, engine events)`.
fn hpl_shaped(model: NetModel) -> (u64, u64) {
    const ROUNDS: u32 = 64;
    let spec = Machine::tibidabo().job(64).with_net_model(Some(model));
    let run = run_mpi(spec, |mut r| async move {
        let (me, p) = (r.rank(), r.size());
        let mut acc = 0u64;
        for round in 0..ROUNDS {
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
    })
    .expect("HPL-shaped job completes");
    let want = u64::from(ROUNDS) * (u64::from(ROUNDS) + 1) / 2;
    assert!(run.results.iter().all(|&a| a == want), "every rank received every panel");
    (run.net.messages, run.events)
}

#[test]
fn token_ring_dispatch_count_is_pinned() {
    // 1024 start events, 1024 × 512 timers and 1024 × 512 − 1 wakes.
    assert_eq!(token_ring(1024, 512), 1_049_599);
}

#[test]
fn hpl_shaped_job_counts_are_pinned_under_both_network_models() {
    assert_eq!(hpl_shaped(NetModel::Event), (36_352, 111_808));
    assert_eq!(hpl_shaped(NetModel::Flow), (36_352, 133_716));
}
