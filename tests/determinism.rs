//! The tentpole invariant, proved end-to-end: a full golden-scale run of
//! every artefact on 1 worker and on 8 workers produces byte-identical
//! rendered text and byte-identical JSON. Plus the timing-cache property
//! that makes the parallel sweep cheap: figure cells share model
//! evaluations, so a two-figure run must hit the cache. And the tracing
//! invariant: recording a structured trace never changes a single artefact
//! byte (`ci.sh` additionally proves this at the `repro --trace` binary
//! level on a quick sweep).

use std::sync::Arc;

use des::mc::RunOutcome;
use des::RingRecorder;
use socready::harness::trace::record_line;
use socready::harness::{
    counterexample_json, mc_scenario, run_plan, McOverrides, RunPlan, RunScales, SweepConfig,
};

fn items(keys: &[&str]) -> Vec<String> {
    keys.iter().map(|s| s.to_string()).collect()
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical_across_all_artefacts() {
    let mk = || RunPlan::from_items(&items(&["all"]), &RunScales::golden());
    let (serial, stats1) = run_plan(mk(), &SweepConfig::with_jobs(1));
    let (parallel, stats8) = run_plan(mk(), &SweepConfig::with_jobs(8));

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
    // Same golden-scale artefacts, once recording into a ring tracer and
    // once untraced. Fig 7 is chosen because its ping-pong cells spawn real
    // simmpi engines (fig5/table3 are closed-form models that never reach
    // the DES, so they would leave the ring empty); table3 rides along as a
    // no-JSON artefact. The traced run goes first: the process-wide timing
    // cache would otherwise satisfy its cells without spawning a single
    // engine. The recorder observes every engine the process spawns while
    // installed (other tests running in parallel may add noise records —
    // harmless, the assertion is on artefact bytes, not on the trace).
    let mk = || RunPlan::from_items(&items(&["fig7", "table3"]), &RunScales::golden());
    let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
    simmpi::set_default_tracer(Some(rec.clone()));
    let (traced, _) = run_plan(mk(), &SweepConfig::serial());
    simmpi::set_default_tracer(None);

    let (untraced, _) = run_plan(mk(), &SweepConfig::serial());

    assert!(!rec.is_empty(), "the traced run must actually have recorded events");
    assert_eq!(untraced.len(), traced.len());
    for (a, b) in untraced.iter().zip(&traced) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.blocks, b.blocks, "{}: rendered text changed under tracing", a.key);
        assert_eq!(
            a.json.as_ref().map(|(_, j)| j),
            b.json.as_ref().map(|(_, j)| j),
            "{}: JSON bytes changed under tracing",
            a.key
        );
    }
}

#[test]
fn sharded_runs_produce_byte_identical_artefacts() {
    // The sharded-engine invariant at the artefact level: fig7 (ping-pong
    // cells spawning real simmpi engines) and the HPL headline rendered
    // under `--shards 2` and `--shards 4` must be byte-identical — text and
    // JSON — to the serial engine, which the golden tests in turn pin
    // against the checked-in pre-shard goldens. The sharded runs go first
    // so the process-wide timing cache cannot satisfy their cells without
    // spawning engines (the traced-run test's discipline); `ci.sh`
    // re-proves the same identity at the `repro --shards` binary level,
    // where every cache starts cold. Cells whose jobs are ineligible for
    // sharding fall back to the serial engine — that fallback being
    // invisible is part of the contract under test.
    let mk = || RunPlan::from_items(&items(&["fig7", "hpl"]), &RunScales::golden());
    let mut sharded = Vec::new();
    for n in [2u32, 4] {
        simmpi::set_default_shards(Some(n));
        sharded.push((n, run_plan(mk(), &SweepConfig::serial()).0));
    }
    simmpi::set_default_shards(None);
    let (serial, _) = run_plan(mk(), &SweepConfig::serial());

    for (n, arts) in &sharded {
        assert_eq!(serial.len(), arts.len());
        for (a, b) in serial.iter().zip(arts) {
            assert_eq!(a.key, b.key, "artefact order diverged at {n} shards");
            assert_eq!(a.blocks, b.blocks, "{}: rendered text diverged at {n} shards", a.key);
            assert_eq!(
                a.json.as_ref().map(|(_, j)| j),
                b.json.as_ref().map(|(_, j)| j),
                "{}: JSON bytes diverged at {n} shards",
                a.key
            );
        }
    }
}

#[test]
fn mc_counterexample_replays_are_byte_identical() {
    // The model checker's counterexamples must be deterministic artefacts:
    // two independent bounded searches over the broken-retry fixture find
    // the same minimal decision prefix (byte-identical JSON), and replaying
    // that prefix twice produces byte-identical trace lines. Each replay
    // records through its own ctl-carried RingRecorder — NOT the process
    // global tracer, which other tests running in parallel would pollute.
    let sc = mc_scenario("retry-lossy-broken").expect("fixture scenario registered");
    let cfg = sc.config(&McOverrides::default());

    let mut jsons = Vec::new();
    for _ in 0..2 {
        let report = sc.explore(&cfg);
        let ce = report.violation.expect("broken fixture must yield a counterexample");
        jsons.push(counterexample_json(sc.name, &cfg, &ce));
    }
    assert_eq!(jsons[0], jsons[1], "counterexample JSON diverged between searches");

    let report = sc.explore(&cfg);
    let ce = report.violation.expect("broken fixture must yield a counterexample");
    let mut traces = Vec::new();
    for _ in 0..2 {
        let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
        let rep = sc.replay(&cfg, ce.decisions.clone(), Some(rec.clone()));
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
fn assert_goldens(arts: &[socready::harness::ArtefactOut]) {
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
    let plan = RunPlan::from_items(
        &items(&["fig6", "hpl", "resilience", "ablate-net"]),
        &RunScales::golden(),
    );
    let share = plan.hpl_share();
    let (arts, _) = run_plan(plan, &SweepConfig::with_jobs(4));
    assert_eq!((share.requests(), share.simulated()), (12, 5));
    assert_goldens(&arts);
}

#[test]
fn hpl_consumers_without_their_producer_still_match_the_goldens() {
    // The state `--resume` leaves when it skips Fig 6: the headline and the
    // resilience cells are the first to ask for their jobs, so they run the
    // simulations themselves — and must write the same bytes.
    let plan = RunPlan::from_items(&items(&["hpl", "resilience"]), &RunScales::golden());
    let share = plan.hpl_share();
    let (arts, _) = run_plan(plan, &SweepConfig::with_jobs(2));
    assert_eq!(arts.iter().map(|a| a.key).collect::<Vec<_>>(), ["hpl", "resilience"]);
    assert_eq!((share.requests(), share.simulated()), (4, 2));
    assert_goldens(&arts);
}

#[test]
fn two_figure_run_reuses_timing_cache() {
    // Fig 3 and Fig 4 sweep the same platforms over the same DVFS points and
    // kernels (threads differ, but the shared Tegra2@1GHz baseline and the
    // serial Tegra2 series coincide), so the second figure must score hits.
    let plan = RunPlan::from_items(&items(&["fig3", "fig4"]), &RunScales::golden());
    let (_, stats) = run_plan(plan, &SweepConfig::with_jobs(2));
    assert!(
        stats.timing_cache.hits > 0,
        "expected timing-cache hits on a fig3+fig4 run, got {:?}",
        stats.timing_cache
    );
    assert!(stats.timing_cache.hit_rate() > 0.0);
}

#[test]
fn flow_model_ablation_is_byte_identical_across_schedules() {
    // The flow-level network model must be as deterministic as the event
    // model it replaces: the model-equivalence ablation (every golden
    // figure executed under BOTH network models) rendered on 1 worker and
    // on 8 workers is byte-identical, text and JSON. This exercises the
    // whole flow fast path — max-min re-shares, the batched alltoall
    // receiver, and flow start/finish event ordering — under a parallel
    // sweep schedule.
    let mk = || RunPlan::from_items(&items(&["ablate-net"]), &RunScales::golden());
    let (serial, _) = run_plan(mk(), &SweepConfig::with_jobs(1));
    let (parallel, stats8) = run_plan(mk(), &SweepConfig::with_jobs(8));

    assert_eq!(stats8.jobs, 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.key, b.key, "artefact order diverged");
        assert_eq!(a.blocks, b.blocks, "{}: ablation text diverged across schedules", a.key);
        assert_eq!(
            a.json.as_ref().map(|(_, j)| j),
            b.json.as_ref().map(|(_, j)| j),
            "{}: ablation JSON diverged across schedules",
            a.key
        );
    }
}
