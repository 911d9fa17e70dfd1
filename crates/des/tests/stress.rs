//! Stress and property tests for the DES engine: many processes, dense
//! wake graphs, and reproducibility under arbitrary schedules.

use des::{Engine, SimTime};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

#[test]
fn two_hundred_processes_with_chained_wakes() {
    // A relay: process i waits to be woken, then wakes i+1 after a delay.
    let n = 200u32;
    let mut eng = Engine::new();
    let mut pids = Vec::new();
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..n {
        let order = Arc::clone(&order);
        pids.push(eng.spawn_process(format!("relay{i}"), move |ctx| async move {
            if i > 0 {
                ctx.park().await;
            }
            order.lock().push(i);
            ctx.advance(SimTime::from_micros(1)).await;
        }));
    }
    // Re-spawn wiring: process i wakes i+1. We need the pids inside the
    // closures, so run a driver process that performs all the wakes as the
    // relay progresses.
    let pids_c = pids.clone();
    eng.spawn_process("driver", move |ctx| async move {
        for &pid in pids_c.iter().skip(1) {
            // Wake each successor at a strictly increasing time.
            ctx.advance(SimTime::from_micros(2)).await;
            ctx.wake_at(pid, ctx.now() + SimTime::from_micros(1));
        }
    });
    let report = eng.run().unwrap();
    assert_eq!(report.processes, n + 1);
    let got = order.lock().clone();
    assert_eq!(got.len() as u32, n);
    assert_eq!(got[0], 0);
    // The relay order is exactly ascending: driver wakes in index order at
    // increasing times.
    assert!(got.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn heavy_event_volume_completes() {
    let mut eng = Engine::new();
    for i in 0..32 {
        eng.spawn_process(format!("spinner{i}"), move |ctx| async move {
            for _ in 0..2000 {
                ctx.advance(SimTime::from_nanos(100 + i)).await;
            }
        });
    }
    let report = eng.run().unwrap();
    assert!(report.events >= 32 * 2000);
}

#[test]
fn concurrent_engines_are_independent_and_deterministic() {
    // The sweep harness drives one engine per scenario cell from a pool of
    // worker threads. Engines must not share hidden state: eight engines
    // running simultaneously on different OS threads must each produce the
    // same report as a lone serial run of the same scenario.
    let scenario = |k: u64| {
        let mut eng = Engine::new();
        for i in 0..8u64 {
            eng.spawn_process(format!("p{i}"), move |ctx| async move {
                for step in 0..50u64 {
                    ctx.advance(SimTime::from_nanos(1 + (i * 7 + step * 13 + k) % 997)).await;
                }
            });
        }
        eng.run().unwrap()
    };
    let serial: Vec<_> = (0..8).map(scenario).collect();
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|k| s.spawn(move || scenario(k))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (a, b) in serial.iter().zip(&concurrent) {
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.processes, b.processes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any mix of advance durations yields the analytic end time (sum of the
    /// max-duration process), and re-running is bit-identical.
    #[test]
    fn schedules_are_reproducible(durations in proptest::collection::vec(
        proptest::collection::vec(1u64..10_000, 1..30), 1..12))
    {
        let run = |durations: &[Vec<u64>]| {
            let mut eng = Engine::new();
            for (i, ds) in durations.iter().enumerate() {
                let ds = ds.clone();
                eng.spawn_process(format!("p{i}"), move |ctx| async move {
                    for &d in &ds {
                        ctx.advance(SimTime::from_nanos(d)).await;
                    }
                });
            }
            eng.run().unwrap()
        };
        let a = run(&durations);
        let b = run(&durations);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.events, b.events);
        let expect: u64 = durations.iter().map(|ds| ds.iter().sum::<u64>()).max().unwrap();
        prop_assert_eq!(a.end_time.as_nanos(), expect);
    }

    /// Interleaving order depends only on virtual time, never on host
    /// scheduling: a trace of (time, process) pairs is sorted by time.
    #[test]
    fn trace_is_time_ordered(steps in proptest::collection::vec((0usize..6, 1u64..1000), 1..60)) {
        // Distribute the steps over 6 processes.
        let mut per_proc: Vec<Vec<u64>> = vec![Vec::new(); 6];
        for (p, d) in steps {
            per_proc[p].push(d);
        }
        let trace = Arc::new(Mutex::new(Vec::new()));
        let mut eng = Engine::new();
        for (i, ds) in per_proc.into_iter().enumerate() {
            let trace = Arc::clone(&trace);
            eng.spawn_process(format!("p{i}"), move |ctx| async move {
                for d in ds {
                    ctx.advance(SimTime::from_nanos(d)).await;
                    trace.lock().push(ctx.now());
                }
            });
        }
        eng.run().unwrap();
        let t = trace.lock().clone();
        prop_assert!(t.windows(2).all(|w| w[0] <= w[1]), "out-of-order trace");
    }
}
