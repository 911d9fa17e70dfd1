//! Model-checking scenarios for the resilience protocols (`repro --mc`).
//!
//! Each scenario wraps one PR-1 resilience protocol in a closed, small-world
//! job, declares the nondeterminism to enumerate (delivery orderings, lossy
//! drops, crash timings via [`McCtl::choose`]) and the predicates that must
//! hold, and hands the whole thing to the bounded explorer in [`des::mc`].
//! Each explored run gets its controller on its [`RunOpts`], so it reaches
//! exactly the jobs the scenario builds from those options.
//! The `repro` binary drives it:
//!
//! ```text
//! repro --mc retry-lossy              # explore; exit 3 on a violation
//! repro --mc-replay FILE              # reproduce a recorded counterexample
//! repro --mc ckpt-crash --mc-max-states 50000 --mc-max-depth 32
//! ```
//!
//! A violation is persisted as two artefacts: a replayable decision file
//! (`mc_<scenario>_counterexample.json`, parsed back by
//! [`parse_counterexample`]) and a structured trace of the minimized failing
//! schedule (`mc_<scenario>.trace.jsonl`, the PR-5 format documented in
//! `docs/TRACE_FORMAT.md`).

use std::sync::Arc;
use std::time::Duration;

use des::mc::{
    ChoiceKind, Counterexample, Decision, McConfig, McCtl, McReport, ReplayReport, RunOutcome,
};
use des::{FaultEvent, FaultKind, FaultPlan, SimError, SimTime};
use hpc_apps::hpl::HplConfig;
use hpc_apps::resilience::{run_hpl_resilient, ResilienceConfig, ResilienceReport};
use netsim::TopologySpec;
use serde::{Serialize, Value};
use simmpi::{run_mpi, JobSpec, MpiFault, Msg, RunOpts};
use soc_arch::Platform;

use crate::journal::{get, get_str, get_u64};

/// CLI-level overrides applied on top of a scenario's base [`McConfig`].
#[derive(Clone, Debug, Default)]
pub struct McOverrides {
    /// `--mc-max-states`: distinct-state budget.
    pub max_states: Option<u64>,
    /// `--mc-max-depth`: per-run decision-depth budget.
    pub max_depth: Option<u32>,
    /// `--max-cell-seconds`: wall-clock deadline for the whole search.
    pub deadline: Option<Duration>,
}

/// One registered model-checking scenario.
pub struct McScenario {
    /// Stable CLI name (`repro --mc <name>`).
    pub name: &'static str,
    /// One-line description shown in reports and `--help` errors.
    pub summary: &'static str,
    base: fn() -> McConfig,
    run: fn(&RunOpts) -> RunOutcome,
}

impl McScenario {
    /// The effective search configuration: scenario defaults plus overrides.
    pub fn config(&self, ov: &McOverrides) -> McConfig {
        let mut cfg = (self.base)();
        if let Some(s) = ov.max_states {
            cfg.max_states = s;
        }
        if let Some(d) = ov.max_depth {
            cfg.max_depth = d;
        }
        if ov.deadline.is_some() {
            cfg.deadline = ov.deadline;
        }
        cfg
    }

    /// Run the bounded search under `cfg` (obtain it from
    /// [`McScenario::config`] so overrides apply). Every explored run takes
    /// its network model and tracer from `opts`, plus the run's controller;
    /// each scenario keeps its own event budget.
    pub fn explore(&self, cfg: &McConfig, opts: &RunOpts) -> McReport {
        des::mc::explore(cfg, &mut |ctl| (self.run)(&under(opts, ctl)))
    }

    /// Replay a recorded decision prefix through this scenario under `opts`
    /// (a counterexample's trace is recorded through `opts.tracer`).
    pub fn replay(&self, cfg: &McConfig, decisions: Vec<Decision>, opts: &RunOpts) -> ReplayReport {
        des::mc::replay(cfg, decisions, &mut |ctl| (self.run)(&under(opts, ctl)))
    }
}

/// `opts` with `ctl` as the model-checking controller.
fn under(opts: &RunOpts, ctl: &Arc<McCtl>) -> RunOpts {
    RunOpts { mc: Some(Arc::clone(ctl)), ..opts.clone() }
}

/// An `arity`-way environment choice made by the run's controller; the
/// default branch 0 when `opts` carries none.
fn choose(opts: &RunOpts, arity: u32) -> u32 {
    opts.mc.as_ref().map_or(0, |ctl| ctl.choose(arity))
}

/// Every scenario `repro --mc` accepts.
pub fn mc_scenarios() -> &'static [McScenario] {
    &[
        McScenario {
            name: "retry-lossy",
            summary: "3-rank message ring over fully lossy links: retransmission keeps \
                      delivery exactly-once and the retry loops terminate",
            base: retry_lossy_cfg,
            run: retry_lossy_run,
        },
        McScenario {
            name: "retry-lossy-broken",
            summary: "regression fixture: stop-and-wait sender with spurious duplicate \
                      retransmissions and no receiver dedup (must yield a counterexample)",
            base: retry_lossy_broken_cfg,
            run: retry_lossy_broken_run,
        },
        McScenario {
            name: "ckpt-crash",
            summary: "checkpointed HPL with a node crash at each of 6 instants spanning \
                      the factorisation (including mid-checkpoint): always recovers on \
                      the spare",
            base: ckpt_crash_cfg,
            run: ckpt_crash_run,
        },
        McScenario {
            name: "spare-race",
            summary: "two crashes racing spare promotion (second strikes the survivor or \
                      the just-promoted spare) across a 4x4x2 timing grid: two spares \
                      always suffice",
            base: spare_race_cfg,
            run: spare_race_run,
        },
    ]
}

/// Look up a scenario by CLI name.
pub fn mc_scenario(name: &str) -> Option<&'static McScenario> {
    mc_scenarios().iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// scenario: retry-lossy

/// Ranks in the lossy ring.
const RETRY_RANKS: u32 = 3;
/// Messages each rank sends around the ring.
const RETRY_MSGS: u32 = 2;

/// Full-horizon loss windows on every node, so every eager transmission
/// consults the controller's drop oracle.
fn lossy_plan(nodes: u32) -> FaultPlan {
    FaultPlan::from_events(
        (0..nodes)
            .map(|node| FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::LinkDegrade {
                    node,
                    loss: 0.5,
                    duration: SimTime::from_secs_f64(3600.0),
                },
            })
            .collect(),
    )
}

fn retry_lossy_cfg() -> McConfig {
    McConfig {
        max_states: 100_000,
        max_runs: 6_000,
        max_depth: 40,
        time_slack: SimTime::from_micros(20),
        max_drops: 4,
        ..McConfig::default()
    }
}

fn retry_lossy_run(opts: &RunOpts) -> RunOutcome {
    let spec = JobSpec::new(Platform::tegra2(), RETRY_RANKS)
        .with_topology(TopologySpec::Star { nodes: RETRY_RANKS })
        .with_fault_plan(lossy_plan(RETRY_RANKS))
        .with_opts(opts.clone())
        .with_event_budget(Some(20_000));
    let run = run_mpi(spec, |mut r| async move {
        let p = r.size();
        let next = (r.rank() + 1) % p;
        let prev = (r.rank() + p - 1) % p;
        let mut got = Vec::new();
        for i in 0..RETRY_MSGS {
            r.send(next, i, Msg::from_u64s(&[((r.rank() as u64) << 8) | i as u64])).await;
            got.push(r.recv(prev, i).await.to_u64s());
        }
        got
    });
    match run {
        Err(MpiFault::Engine(SimError::Interrupted { .. })) => RunOutcome::Pruned,
        // Any fault is a liveness violation: the drop budget is below the
        // retry budget, so the protocol has no excuse not to terminate.
        Err(fault) => RunOutcome::Violation {
            property: "liveness.retry-terminates".into(),
            detail: format!("lossy ring failed to complete: {fault}"),
        },
        Ok(run) => {
            for (rank, got) in run.results.iter().enumerate() {
                let prev = (rank as u32 + RETRY_RANKS - 1) % RETRY_RANKS;
                let want: Vec<Vec<u64>> =
                    (0..RETRY_MSGS).map(|i| vec![((prev as u64) << 8) | i as u64]).collect();
                if got != &want {
                    return RunOutcome::Violation {
                        property: "safety.exactly-once".into(),
                        detail: format!("rank {rank} received {got:?}, expected {want:?}"),
                    };
                }
            }
            RunOutcome::Pass
        }
    }
}

// ---------------------------------------------------------------------------
// scenario: retry-lossy-broken

/// Sequence numbers the broken sender transmits.
const BROKEN_MSGS: u32 = 2;
/// Out-of-band tag closing the broken stream.
const BROKEN_DONE_TAG: u32 = 99;

fn retry_lossy_broken_cfg() -> McConfig {
    McConfig { explore_sched: false, ..McConfig::default() }
}

/// A deliberately broken stop-and-wait: the sender may retransmit a sequence
/// number it already delivered (a [`McCtl::choose`] models the spurious
/// timeout) and the receiver does not deduplicate — the model checker must
/// find the duplicate delivery.
fn retry_lossy_broken_run(opts: &RunOpts) -> RunOutcome {
    let spec = JobSpec::new(Platform::tegra2(), 2)
        .with_topology(TopologySpec::Star { nodes: 2 })
        .with_opts(opts.clone())
        .with_event_budget(Some(20_000));
    let run = run_mpi(spec, |mut r| async move {
        if r.rank() == 0 {
            for i in 0..BROKEN_MSGS {
                r.send(1, i, Msg::from_u64s(&[i as u64])).await;
                if choose(&r.spec().opts, 2) == 1 {
                    // The bug: a spurious retransmission of the same
                    // sequence number, with no receiver-side dedup.
                    r.send(1, i, Msg::from_u64s(&[i as u64])).await;
                }
            }
            r.send(1, BROKEN_DONE_TAG, Msg::empty()).await;
            Vec::new()
        } else {
            let mut counts = vec![0u64; BROKEN_MSGS as usize];
            loop {
                let (_, tag, _) = r.recv_filtered(Some(0), None).await;
                if tag == BROKEN_DONE_TAG {
                    break;
                }
                counts[tag as usize] += 1;
            }
            counts
        }
    });
    match run {
        Err(MpiFault::Engine(SimError::Interrupted { .. })) => RunOutcome::Pruned,
        Err(fault) => RunOutcome::Violation {
            property: "liveness.retry-terminates".into(),
            detail: format!("broken stop-and-wait failed to complete: {fault}"),
        },
        Ok(run) => {
            let counts = &run.results[1];
            for (seq, &n) in counts.iter().enumerate() {
                if n != 1 {
                    return RunOutcome::Violation {
                        property: "safety.exactly-once".into(),
                        detail: format!("sequence {seq} delivered {n} times"),
                    };
                }
            }
            RunOutcome::Pass
        }
    }
}

// ---------------------------------------------------------------------------
// scenarios: ckpt-crash / spare-race

fn resilience_cfg() -> ResilienceConfig {
    ResilienceConfig { restart_overhead: SimTime::from_micros(100), ..ResilienceConfig::default() }
}

/// Map one resilient-HPL campaign outcome to a model-checking verdict:
/// explorer interrupts are [`RunOutcome::Pruned`], a failed fault-free
/// baseline is a liveness violation, the
/// [`ResilienceReport::check_invariants`] safety predicate runs next, and a
/// campaign that had enough spares but did not complete is a liveness
/// violation.
fn hpl_verdict(
    rep: Result<ResilienceReport, MpiFault>,
    rc: &ResilienceConfig,
    spares: u32,
) -> RunOutcome {
    let rep = match rep {
        Ok(rep) => rep,
        Err(MpiFault::Engine(SimError::Interrupted { .. })) => return RunOutcome::Pruned,
        Err(fault) => {
            return RunOutcome::Violation {
                property: "liveness.baseline".into(),
                detail: format!("fault-free baseline failed: {fault}"),
            }
        }
    };
    if let Some(MpiFault::Engine(SimError::Interrupted { .. })) = &rep.fatal {
        return RunOutcome::Pruned;
    }
    if let Err(why) = rep.check_invariants(rc, spares) {
        return RunOutcome::Violation { property: "safety.invariants".into(), detail: why };
    }
    if !rep.completed {
        return RunOutcome::Violation {
            property: "liveness.recovers".into(),
            detail: format!(
                "campaign abandoned after {} attempt(s), {} of {spares} spare(s) used: {}",
                rep.attempts,
                rep.spares_used,
                rep.fatal.as_ref().map_or_else(|| "no fault".into(), |f| f.to_string()),
            ),
        };
    }
    RunOutcome::Pass
}

fn ckpt_crash_cfg() -> McConfig {
    // Crash timings are the only nondeterminism: keep the canonical
    // schedule (timeout semantics depend on exact times) and enumerate the
    // choose() grid exhaustively.
    McConfig { explore_sched: false, ..McConfig::default() }
}

fn ckpt_crash_run(opts: &RunOpts) -> RunOutcome {
    // One crash of node 1 at one of six instants spanning the ~1.1 ms
    // checkpointed factorisation, including mid-checkpoint-write windows.
    let slot = choose(opts, 6);
    let at = SimTime::from_micros(200 + 200 * slot as u64);
    let plan =
        FaultPlan::from_events(vec![FaultEvent { at, kind: FaultKind::NodeCrash { node: 1 } }]);
    let base = JobSpec::new(Platform::tegra2(), 2)
        .with_topology(TopologySpec::Star { nodes: 3 })
        .with_opts(opts.clone())
        .with_event_budget(Some(200_000));
    let rc = resilience_cfg();
    hpl_verdict(run_hpl_resilient(base, HplConfig::small(32, 8), &rc, &plan), &rc, 1)
}

fn spare_race_cfg() -> McConfig {
    McConfig { explore_sched: false, ..McConfig::default() }
}

fn spare_race_run(opts: &RunOpts) -> RunOutcome {
    // Two crashes with two spares: the first always takes node 1; the
    // second strikes either the surviving original node 0 or the spare
    // (node 2) just promoted in node 1's place, at every combination of a
    // 4x4 timing grid. Completion is mandatory in every branch.
    let a = choose(opts, 4);
    let b = choose(opts, 4);
    let second_on_spare = choose(opts, 2) == 1;
    let t1 = SimTime::from_micros(200 + 250 * a as u64);
    let t2 = t1 + SimTime::from_micros(150 + 150 * b as u64);
    let second_node = if second_on_spare { 2 } else { 0 };
    let plan = FaultPlan::from_events(vec![
        FaultEvent { at: t1, kind: FaultKind::NodeCrash { node: 1 } },
        FaultEvent { at: t2, kind: FaultKind::NodeCrash { node: second_node } },
    ]);
    let base = JobSpec::new(Platform::tegra2(), 2)
        .with_topology(TopologySpec::Star { nodes: 4 })
        .with_opts(opts.clone())
        .with_event_budget(Some(200_000));
    let rc = resilience_cfg();
    hpl_verdict(run_hpl_resilient(base, HplConfig::small(32, 8), &rc, &plan), &rc, 2)
}

// ---------------------------------------------------------------------------
// rendering

/// Deterministic stdout block for one search. Wall-clock derived numbers
/// (states/sec) are the caller's business and belong on stderr.
pub fn render_report(sc: &McScenario, cfg: &McConfig, report: &McReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== model checking: {} ==\n", sc.name));
    out.push_str(&format!("{}\n", sc.summary));
    out.push_str(&format!(
        "bounds: states<={} depth<={} runs<={} drops<={} slack={}ns sched={}\n",
        cfg.max_states,
        cfg.max_depth,
        cfg.max_runs,
        cfg.max_drops,
        cfg.time_slack.as_nanos(),
        if cfg.explore_sched { "on" } else { "off" },
    ));
    match (&report.violation, report.exhausted, report.truncated_by) {
        (Some(ce), _, _) => {
            out.push_str(&format!("result: VIOLATION of {}\n", ce.property));
            out.push_str(&format!("  {}\n", ce.detail));
            out.push_str(&format!(
                "  counterexample: {} decision(s), minimized from {}\n",
                ce.decisions.len(),
                ce.minimized_from,
            ));
        }
        (None, true, _) => {
            out.push_str("result: PASS (bounded space fully enumerated)\n");
        }
        (None, false, why) => {
            out.push_str(&format!(
                "result: PASS within budget (truncated by {})\n",
                why.unwrap_or("unknown"),
            ));
        }
    }
    out.push_str(&format!(
        "runs={} distinct_states={} dedup_hits={} (hit rate {:.1}%) commute_skips={} \
         max_depth_seen={}\n",
        report.runs,
        report.distinct_states,
        report.dedup_hits,
        100.0 * report.dedup_hit_rate(),
        report.commute_skips,
        report.max_depth_seen,
    ));
    out
}

/// Deterministic stdout block for one replay.
pub fn render_replay(scenario: &str, rep: &ReplayReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== replaying counterexample: {scenario} ==\n"));
    match &rep.outcome {
        RunOutcome::Violation { property, detail } => {
            out.push_str(&format!("result: VIOLATION of {property} reproduced\n"));
            out.push_str(&format!("  {detail}\n"));
        }
        RunOutcome::Pass => out.push_str("result: run PASSED (violation did NOT reproduce)\n"),
        RunOutcome::Pruned => out.push_str("result: run was pruned (unexpected in replay)\n"),
    }
    out.push_str(&format!("decisions applied: {}\n", rep.decisions_applied));
    if let Some(d) = &rep.divergence {
        out.push_str(&format!("divergence: {d}\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// counterexample files

/// Serialized form of a recorded decision.
#[derive(Serialize)]
struct CeDecision {
    kind: String,
    chosen: u32,
    arity: u32,
}

/// The search knobs that are part of decision alignment: a replay must run
/// under the exact configuration the prefix was recorded with.
#[derive(Serialize)]
struct CeConfig {
    max_depth: u32,
    max_drops: u32,
    time_slack_ns: u64,
    explore_sched: bool,
}

/// On-disk counterexample file (`mc_<scenario>_counterexample.json`).
#[derive(Serialize)]
struct CeFile {
    kind: String,
    version: u32,
    scenario: String,
    property: String,
    detail: String,
    minimized_from: u64,
    config: CeConfig,
    decisions: Vec<CeDecision>,
}

/// A parsed counterexample file, ready for [`McScenario::replay`].
pub struct ParsedCounterexample {
    /// Scenario the counterexample belongs to.
    pub scenario: String,
    /// The violated property's stable identifier.
    pub property: String,
    /// The recording-time search configuration (replay must reuse it).
    pub config: McConfig,
    /// The minimized decision prefix.
    pub decisions: Vec<Decision>,
}

/// Render the replayable counterexample artefact as pretty JSON.
pub fn counterexample_json(scenario: &str, cfg: &McConfig, ce: &Counterexample) -> String {
    let file = CeFile {
        kind: "mc_counterexample".into(),
        version: 1,
        scenario: scenario.into(),
        property: ce.property.clone(),
        detail: ce.detail.clone(),
        minimized_from: ce.minimized_from as u64,
        config: CeConfig {
            max_depth: cfg.max_depth,
            max_drops: cfg.max_drops,
            time_slack_ns: cfg.time_slack.as_nanos(),
            explore_sched: cfg.explore_sched,
        },
        decisions: ce
            .decisions
            .iter()
            .map(|d| CeDecision { kind: d.kind.as_str().into(), chosen: d.chosen, arity: d.arity })
            .collect(),
    };
    serde_json::to_string_pretty(&file).expect("counterexample serialization")
}

/// Parse a counterexample file produced by [`counterexample_json`],
/// reconstructing the scenario's base configuration with the recorded
/// alignment knobs applied.
pub fn parse_counterexample(text: &str) -> Result<ParsedCounterexample, String> {
    let doc =
        serde_json::from_str(text).map_err(|e| format!("malformed counterexample file: {e}"))?;
    let kind = get_str(&doc, "kind");
    if kind.as_deref() != Some("mc_counterexample") {
        return Err(format!(
            "not a counterexample file (kind = {:?})",
            kind.as_deref().unwrap_or("<missing>")
        ));
    }
    match get_u64(&doc, "version") {
        Some(1) => {}
        v => return Err(format!("unsupported counterexample version {v:?}")),
    }
    let scenario = get_str(&doc, "scenario").ok_or("counterexample file lacks a scenario name")?;
    let property = get_str(&doc, "property").ok_or("counterexample file lacks a property")?;
    let sc = mc_scenario(&scenario)
        .ok_or_else(|| format!("unknown scenario '{scenario}' in counterexample file"))?;
    let cfg_obj = get(&doc, "config").ok_or("counterexample file lacks a config block")?;
    let mut config = (sc.base)();
    config.max_depth = get_u64(cfg_obj, "max_depth").ok_or("config lacks max_depth")? as u32;
    config.max_drops = get_u64(cfg_obj, "max_drops").ok_or("config lacks max_drops")? as u32;
    config.time_slack =
        SimTime::from_nanos(get_u64(cfg_obj, "time_slack_ns").ok_or("config lacks time_slack_ns")?);
    config.explore_sched = match get(cfg_obj, "explore_sched") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("config lacks explore_sched".into()),
    };
    let Some(Value::Array(raw)) = get(&doc, "decisions") else {
        return Err("counterexample file lacks a decisions array".into());
    };
    let decisions = raw
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let kind = get_str(d, "kind")
                .and_then(|k| ChoiceKind::parse(&k))
                .ok_or_else(|| format!("decision {i} has an unknown kind"))?;
            let chosen =
                get_u64(d, "chosen").ok_or_else(|| format!("decision {i} lacks chosen"))?;
            let arity = get_u64(d, "arity").ok_or_else(|| format!("decision {i} lacks arity"))?;
            Ok(Decision { kind, chosen: chosen as u32, arity: arity as u32 })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParsedCounterexample { scenario, property, config, decisions })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_registry_is_consistent() {
        let names: Vec<_> = mc_scenarios().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["retry-lossy", "retry-lossy-broken", "ckpt-crash", "spare-race"]);
        for s in mc_scenarios() {
            assert!(mc_scenario(s.name).is_some());
        }
        assert!(mc_scenario("nope").is_none());
    }

    #[test]
    fn broken_fixture_yields_a_replayable_counterexample() {
        let sc = mc_scenario("retry-lossy-broken").unwrap();
        let cfg = sc.config(&McOverrides::default());
        let report = sc.explore(&cfg, &RunOpts::default());
        let ce = report.violation.expect("the seeded duplicate-delivery bug must be found");
        assert_eq!(ce.property, "safety.exactly-once");
        assert!(
            ce.decisions.iter().filter(|d| d.chosen != 0).count() == 1,
            "minimal counterexample needs exactly one non-default decision: {:?}",
            ce.decisions
        );

        // Round-trip through the artefact format and reproduce it.
        let text = counterexample_json(sc.name, &cfg, &ce);
        let parsed = parse_counterexample(&text).expect("round-trip parse");
        assert_eq!(parsed.scenario, sc.name);
        assert_eq!(parsed.decisions, ce.decisions);
        let rep = sc.replay(&parsed.config, parsed.decisions, &RunOpts::default());
        assert!(
            matches!(&rep.outcome, RunOutcome::Violation { property, .. }
                if *property == ce.property),
            "replay outcome: {:?}",
            rep.outcome
        );
        assert!(rep.divergence.is_none());
    }

    #[test]
    fn ckpt_crash_space_is_exhausted_and_clean() {
        let sc = mc_scenario("ckpt-crash").unwrap();
        let cfg = sc.config(&McOverrides::default());
        let report = sc.explore(&cfg, &RunOpts::default());
        assert!(report.violation.is_none(), "violation: {:?}", report.violation);
        assert!(report.exhausted, "truncated by {:?}", report.truncated_by);
        assert!(report.runs >= 6, "all six crash slots must be explored");
    }

    #[test]
    fn parse_rejects_garbage_and_wrong_kinds() {
        assert!(parse_counterexample("{").is_err());
        assert!(parse_counterexample("{\"kind\":\"trace_start\"}").is_err());
    }
}
