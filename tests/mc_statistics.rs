//! Pins the model checker's exploration statistics for every `repro --mc`
//! scenario under both network models. The search's verdict alone (PASS or
//! a counterexample) survives many changes that would silently shrink or
//! reshape the explored space; these counts do not. They move when the
//! engine's state hash, the `simmpi` state probe, the scheduling choices
//! offered or the commutation reduction change.

use socready::harness::{mc_scenario, McOverrides};
use socready::mpi::{NetModel, RunOpts};

/// `(runs, distinct_states, dedup_hits, commute_skips, max_depth_seen)`.
type Stats = (u64, u64, u64, u64, u32);

fn explore(name: &str, net_model: NetModel) -> Stats {
    let sc = mc_scenario(name).expect("scenario registered");
    let cfg = sc.config(&McOverrides::default());
    let r = sc.explore(&cfg, &RunOpts { net_model, ..RunOpts::default() });
    (r.runs, r.distinct_states, r.dedup_hits, r.commute_skips, r.max_depth_seen)
}

#[test]
fn exploration_statistics_are_pinned() {
    let want: [(&str, Stats, Stats); 4] = [
        ("retry-lossy", (6000, 11603, 5788, 1270, 33), (6000, 9427, 6606, 979, 39)),
        ("retry-lossy-broken", (3, 18, 0, 0, 2), (3, 20, 0, 0, 2)),
        ("ckpt-crash", (6, 204, 6, 0, 1), (6, 288, 6, 0, 1)),
        ("spare-race", (32, 1088, 32, 0, 3), (32, 1536, 32, 0, 3)),
    ];
    for (name, event, flow) in want {
        assert_eq!(explore(name, NetModel::Event), event, "{name} under the event model");
        assert_eq!(explore(name, NetModel::Flow), flow, "{name} under the flow model");
    }
}
