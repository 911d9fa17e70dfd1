//! Pins the work counts behind the performance ledger's layer probes
//! (`crates/bench/src/bin/ledger/src/probes.rs`): the events a pure-
//! scheduling token ring dispatches, and the messages and events of a
//! 64-rank HPL-shaped job under each network model. A change to how the
//! engine dispatches, or to how `simmpi` turns a message into events, moves
//! these counts; the ledger's per-event and per-message costs are only
//! comparable across commits while they hold.
//!
//! The same job also pins how many records a tracer is handed: none when
//! its `interest()` is `TraceFilter::NONE`, which is what keeps an installed
//! `NullTracer` as cheap as no tracer at all, and an exact count when it
//! wants every class. A crash plan whose crash never strikes leaves the
//! counts as they are, though every park of the doomed rank queues a
//! deadline that goes stale.

mod common;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{hpl_shaped, hpl_spec};
use socready::des::{
    Engine, FaultEvent, FaultKind, FaultPlan, Pid, SimTime, TraceFilter, TraceRecord, Tracer,
};
use socready::mpi::{MpiFault, NetModel, RunOpts};

/// Rounds of the HPL-shaped job whose counts are pinned here.
const ROUNDS: u32 = 64;

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

#[test]
fn token_ring_dispatch_count_is_pinned() {
    // 1024 start events, 1024 × 512 timers and 1024 × 512 − 1 wakes.
    assert_eq!(token_ring(1024, 512), 1_049_599);
}

/// A tracer with a fixed interest mask that counts the records it is handed.
struct CountingTracer {
    interest: TraceFilter,
    records: AtomicU64,
}

impl Tracer for CountingTracer {
    fn record(&self, _rec: TraceRecord) {
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    fn interest(&self) -> TraceFilter {
        self.interest
    }
}

#[test]
fn hpl_shaped_job_counts_are_pinned_under_both_network_models() {
    let model = |net_model| hpl_spec(RunOpts { net_model, ..RunOpts::default() });
    assert_eq!(hpl_shaped(model(NetModel::Event), ROUNDS), Ok((36_352, 111_808)));
    assert_eq!(hpl_shaped(model(NetModel::Flow), ROUNDS), Ok((36_352, 133_716)));
}

#[test]
fn tracer_record_counts_are_pinned_by_interest() {
    let traced = |interest| {
        let tracer = Arc::new(CountingTracer { interest, records: AtomicU64::new(0) });
        let spec = hpl_spec(RunOpts { tracer: Some(tracer.clone()), ..RunOpts::default() });
        let counts = hpl_shaped(spec, ROUNDS).expect("HPL-shaped job completes");
        (counts, tracer.records.load(Ordering::Relaxed))
    };
    assert_eq!(traced(TraceFilter::NONE), ((36_352, 111_808), 0));
    assert_eq!(traced(TraceFilter::ALL), ((36_352, 111_808), 452_576));
}

/// The HPL-shaped job with rank 37's node crashing at `at`.
fn crashing_at(at: SimTime) -> Result<(u64, u64), MpiFault> {
    let crash = FaultEvent { at, kind: FaultKind::NodeCrash { node: 37 } };
    let spec = hpl_spec(RunOpts::default()).with_fault_plan(FaultPlan::from_events(vec![crash]));
    hpl_shaped(spec, ROUNDS)
}

#[test]
fn faulted_hpl_shaped_job_counts_are_pinned() {
    // The job ends before 2 s. A crash scheduled at 10 s never strikes,
    // but every park of rank 37 carries it as a deadline, and each of those
    // deadlines goes stale when a peer wakes the rank first. None is
    // dispatched, so the counts are the clean job's.
    assert_eq!(crashing_at(SimTime::from_secs(10)), Ok((36_352, 111_808)));
    // A crash mid-run kills the rank at exactly its instant.
    let at = SimTime::from_millis(500);
    assert_eq!(crashing_at(at), Err(MpiFault::RankDied { rank: 37, node: 37, at }));
}
