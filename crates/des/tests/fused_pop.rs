//! Pins the dispatch order of a small program whose suspensions hit the two
//! edge cases of the engine's fused timer dispatch, where a suspending
//! process's own timer event takes part in the very next pop:
//!
//! * a stale `park_until` deadline sits at the queue top, earlier than the
//!   timer a sleeper just asked for: the stale event is still popped and
//!   counted before the timer;
//! * a timer lands on the same instant as the event at the queue top: the
//!   queued event (lower sequence number) dispatches first.
//!
//! The order, the event count and the abort point under every event budget
//! were recorded from the push-then-pop dispatcher the fused pop replaced.

use std::sync::Arc;

use des::{Engine, RingRecorder, SimError, SimTime, TraceEvent};

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// Three processes; `a` is pid 0, `b` pid 1, `c` pid 2.
fn program(eng: &mut Engine) {
    let a = eng.spawn_process("a", |ctx| async move {
        // Woken by `b` at 3 µs: the deadline event at 10 µs goes stale.
        assert!(ctx.park_until(us(10)).await);
        // Suspends at 3 µs with the stale deadline at the queue top.
        ctx.advance(us(20)).await;
        // A plain park: no timer to fuse, the next pop comes off the heap.
        ctx.park().await;
        assert_eq!(ctx.now(), us(27));
        // Times out: this deadline fires for real.
        assert!(!ctx.park_until(us(40)).await);
    });
    eng.spawn_process("b", move |ctx| async move {
        ctx.advance(us(3)).await;
        ctx.wake_at(a, us(3));
        ctx.advance(us(27)).await;
    });
    eng.spawn_process("c", move |ctx| async move {
        ctx.advance(us(25)).await;
        // Two wakes for the same park: the later one goes stale.
        ctx.wake_at(a, us(27));
        ctx.wake_at(a, us(28));
        // Ties the queue's top, the wake at 27 µs: `a` must run first.
        ctx.advance(us(2)).await;
        // Suspends with the stale wake at 28 µs at the queue top.
        ctx.advance(us(3)).await;
    });
}

/// `(pid, µs)` of every resume, in dispatch order, plus the run's result.
fn run(budget: Option<u64>) -> (Vec<(usize, u64)>, Result<des::RunReport, SimError>) {
    let rec = Arc::new(RingRecorder::with_capacity(256));
    let mut eng = Engine::new().with_tracer(rec.clone()).with_event_budget(budget);
    program(&mut eng);
    let result = eng.run();
    let resumes = rec
        .drain()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::ProcResume { pid } => Some((pid.index(), r.at.as_nanos() / 1_000)),
            _ => None,
        })
        .collect();
    (resumes, result)
}

#[test]
fn fused_pop_keeps_the_push_then_pop_order() {
    let (resumes, result) = run(None);
    assert_eq!(
        resumes,
        vec![
            (0, 0),
            (1, 0),
            (2, 0),
            (1, 3),
            (0, 3),
            // The stale deadline at 10 µs dispatches here, unseen.
            (0, 23),
            (2, 25),
            // The queued wake before the timer that tied it.
            (0, 27),
            (2, 27),
            // The stale wake at 28 µs.
            (1, 30),
            (2, 30),
            (0, 40),
        ]
    );
    let report = result.expect("program completes");
    assert_eq!(report.end_time, us(40));
    // Twelve resumes and two stale events.
    assert_eq!(report.events, 14);
}

#[test]
fn every_event_budget_aborts_where_push_then_pop_did() {
    // `(budget, virtual µs at the abort, events dispatched)`. A stale event
    // counts but does not move the clock.
    let want: [(u64, u64, u64); 13] = [
        (1, 0, 1),
        (2, 0, 2),
        (3, 0, 3),
        (4, 3, 4),
        (5, 3, 5),
        (6, 3, 6),
        (7, 23, 7),
        (8, 25, 8),
        (9, 27, 9),
        (10, 27, 10),
        (11, 27, 11),
        (12, 30, 12),
        (13, 30, 13),
    ];
    for (budget, at_us, events_at_abort) in want {
        match run(Some(budget)).1 {
            Err(SimError::EventBudgetExhausted { at, events, budget: b, .. }) => {
                assert_eq!((b, at, events), (budget, us(at_us), events_at_abort));
            }
            other => panic!("budget {budget}: expected exhaustion, got {other:?}"),
        }
    }
    // The run needs exactly 14 events, so a budget of 14 is enough.
    assert_eq!(run(Some(14)).1.expect("budget of 14 suffices").events, 14);
}
