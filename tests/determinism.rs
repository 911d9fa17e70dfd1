//! The tentpole invariant, proved end-to-end on the executor `repro` runs:
//! a full golden-scale run of every artefact on 1 worker and on 8 workers
//! produces byte-identical rendered text and byte-identical JSON. Plus the
//! timing-cache property that makes the parallel sweep cheap: figure cells
//! share model evaluations, so a two-figure run must hit the cache. And the
//! tracing invariant: recording a structured trace never changes a single
//! artefact byte, and the trace itself is deterministic (`ci.sh`
//! additionally proves the first at the `repro --trace` binary level on a
//! quick sweep).

use std::sync::Arc;

use des::mc::RunOutcome;
use des::RingRecorder;
use socready::harness::trace::record_line;
use socready::harness::{
    counterexample_json, mc_scenario, run_plan, ArtefactOut, ArtefactOutcome, McOverrides, RunPlan,
    RunScales, SweepStats,
};
use socready::mpi::RunOpts;

/// A golden-scale plan of `keys` whose simulations run under `opts`.
fn golden_plan(keys: &[&str], opts: &RunOpts) -> RunPlan {
    let items: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
    RunPlan::from_items(&items, &RunScales::golden(), opts)
}

/// Run `plan` on `jobs` workers, resuming past the artefacts in `skip` as
/// `repro --resume` would, and return the artefacts it derived. Each cell
/// runs once, so any panic or typed fault fails the test.
fn run(plan: RunPlan, jobs: usize, skip: &[&str]) -> (Vec<ArtefactOut>, SweepStats) {
    let (arts, stats) = run_plan(plan, jobs, None, &|key| skip.contains(&key), |_| {});
    let derived = arts
        .into_iter()
        .filter_map(|a| match a.outcome {
            ArtefactOutcome::Completed(out) => Some(out),
            ArtefactOutcome::Skipped => None,
            ArtefactOutcome::Failed => panic!("{} failed: {:?}", a.key, a.quarantined()),
        })
        .collect();
    (derived, stats)
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical_across_all_artefacts() {
    let mk = || golden_plan(&["all"], &RunOpts::default());
    let (serial, stats1) = run(mk(), 1, &[]);
    let (parallel, stats8) = run(mk(), 8, &[]);

    assert_eq!(stats1.cells, stats8.cells, "plans enumerated different cell counts");
    assert_eq!(stats8.jobs, 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.key, b.key, "artefact order diverged");
        assert_eq!(a.blocks, b.blocks, "{}: rendered text diverged between 1 and 8 workers", a.key);
        match (&a.json, &b.json) {
            (Some((sa, ja)), Some((sb, jb))) => {
                assert_eq!(sa, sb, "{}: JSON stem diverged", a.key);
                assert_eq!(ja, jb, "{}: JSON bytes diverged between 1 and 8 workers", a.key);
            }
            (None, None) => {}
            _ => panic!("{}: JSON presence diverged", a.key),
        }
    }
}

#[test]
fn traced_run_produces_byte_identical_artefacts() {
    // Fig 7's ping-pong cells and the HPL headline spawn real simmpi
    // engines (closed-form figures never reach the DES). Each traced plan
    // records into its own ring through its run options, so the trace is
    // asserted exactly: two traced runs record the same lines, and both
    // write the untraced run's artefacts.
    let traced = || {
        let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
        let opts = RunOpts { tracer: Some(rec.clone()), ..RunOpts::default() };
        let (arts, _) = run(golden_plan(&["fig7", "hpl"], &opts), 1, &[]);
        assert_eq!(rec.dropped(), 0, "the trace must fit the ring");
        let lines: Vec<String> = rec.drain().iter().map(record_line).collect();
        (arts, lines)
    };
    let (first, first_trace) = traced();
    let (second, second_trace) = traced();
    let (untraced, _) = run(golden_plan(&["fig7", "hpl"], &RunOpts::default()), 1, &[]);

    assert!(!first_trace.is_empty(), "the traced run must actually have recorded events");
    assert!(first_trace == second_trace, "two traced runs recorded different traces");
    for traced in [&first, &second] {
        assert_same_artefacts(&untraced, traced, "tracing");
    }
}

/// `b` renders the same text and JSON as `a`, artefact by artefact.
fn assert_same_artefacts(a: &[ArtefactOut], b: &[ArtefactOut], what: &str) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.blocks, b.blocks, "{}: rendered text changed under {what}", a.key);
        assert_eq!(
            a.json.as_ref().map(|(_, j)| j),
            b.json.as_ref().map(|(_, j)| j),
            "{}: JSON bytes changed under {what}",
            a.key
        );
    }
}

#[test]
fn mc_counterexample_replays_are_byte_identical() {
    // The model checker's counterexamples must be deterministic artefacts:
    // two independent bounded searches over the broken-retry fixture find
    // the same minimal decision prefix (byte-identical JSON), and replaying
    // that prefix twice produces byte-identical trace lines. Each replay
    // records through its own RingRecorder on its run options.
    let sc = mc_scenario("retry-lossy-broken").expect("fixture scenario registered");
    let cfg = sc.config(&McOverrides::default());

    let mut jsons = Vec::new();
    for _ in 0..2 {
        let report = sc.explore(&cfg, &RunOpts::default());
        let ce = report.violation.expect("broken fixture must yield a counterexample");
        jsons.push(counterexample_json(sc.name, &cfg, &ce));
    }
    assert_eq!(jsons[0], jsons[1], "counterexample JSON diverged between searches");

    let report = sc.explore(&cfg, &RunOpts::default());
    let ce = report.violation.expect("broken fixture must yield a counterexample");
    let mut traces = Vec::new();
    for _ in 0..2 {
        let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
        let opts = RunOpts { tracer: Some(rec.clone()), ..RunOpts::default() };
        let rep = sc.replay(&cfg, ce.decisions.clone(), &opts);
        assert!(rep.divergence.is_none(), "replay diverged: {:?}", rep.divergence);
        match &rep.outcome {
            RunOutcome::Violation { property, .. } => {
                assert_eq!(property, &ce.property, "replay violated a different property")
            }
            other => panic!("replay must reproduce the violation, got {other:?}"),
        }
        assert_eq!(rec.dropped(), 0, "replay trace must fit the ring");
        let lines: Vec<String> = rec.drain().iter().map(record_line).collect();
        assert!(!lines.is_empty(), "replay must record trace events");
        traces.push(lines.join("\n"));
    }
    assert_eq!(traces[0], traces[1], "replayed counterexample traces diverged byte-for-byte");
}

/// The JSON bytes of `arts`, keyed by file stem, must equal the checked-in
/// goldens byte for byte.
fn assert_goldens(arts: &[ArtefactOut]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    for a in arts {
        let (stem, json) = a.json.as_ref().expect("artefact without JSON");
        let want = std::fs::read_to_string(dir.join(format!("{stem}.json"))).expect("golden");
        assert!(json == &want, "{stem}.json differs from its golden");
    }
}

#[test]
fn each_distinct_fault_free_hpl_job_simulates_once_per_plan() {
    // Golden scale: Fig 6 runs HPL at 4 and 8 nodes, the headline at 4, the
    // three resilience cells take their baseline at 2, and the ablation's
    // Fig 6 and HPL sides repeat 4 and 8 nodes under each pinned network
    // model. That is 12 requests for 5 distinct jobs: 2, 4 and 8 nodes under
    // the event model (the default), 4 and 8 under the flow model. Four
    // workers make concurrent consumers of one job wait for a single run.
    let plan = golden_plan(&["fig6", "hpl", "resilience", "ablate-net"], &RunOpts::default());
    let share = plan.hpl_share();
    let (arts, _) = run(plan, 4, &[]);
    assert_eq!((share.requests(), share.simulated()), (12, 5));
    assert_goldens(&arts);
}

#[test]
fn hpl_consumers_without_their_producer_still_match_the_goldens() {
    // The state `--resume` leaves when it skips a verified Fig 6: the
    // headline and the resilience cells are the first to ask for their
    // jobs, so they run the simulations themselves — and must write the
    // same bytes.
    let plan = golden_plan(&["fig6", "hpl", "resilience"], &RunOpts::default());
    let share = plan.hpl_share();
    let (arts, stats) = run(plan, 2, &["fig6"]);
    assert_eq!(arts.iter().map(|a| a.key).collect::<Vec<_>>(), ["hpl", "resilience"]);
    assert_eq!(stats.supervisor.resumed_skipped, 1);
    assert_eq!((share.requests(), share.simulated()), (4, 2));
    assert_goldens(&arts);
}

#[test]
fn two_figure_run_reuses_timing_cache() {
    // Fig 3 and Fig 4 sweep the same platforms over the same DVFS points and
    // kernels (threads differ, but the shared Tegra2@1GHz baseline and the
    // serial Tegra2 series coincide), so the second figure must score hits.
    let plan = golden_plan(&["fig3", "fig4"], &RunOpts::default());
    let (_, stats) = run(plan, 2, &[]);
    assert!(
        stats.timing_cache.hits > 0,
        "expected timing-cache hits on a fig3+fig4 run, got {:?}",
        stats.timing_cache
    );
    assert!(stats.timing_cache.hit_rate() > 0.0);
}
