//! # mc — bounded model checking for deterministic simulations
//!
//! The engine normally follows one schedule: the earliest event wins every
//! tie and every random draw comes from the seeded
//! [`SimRng`](crate::SimRng). This module turns that single schedule into a
//! *search space*. A [`McCtl`] controller intercepts every nondeterministic
//! choice a run makes — which enabled event to dispatch next, whether a
//! lossy link drops a message, which branch of an explicit environment
//! choice ([`McCtl::choose`]) to take — and an [`explore`] loop enumerates
//! the alternatives depth-first up to configurable bounds.
//!
//! ## How a run reaches its controller
//!
//! [`explore`] and [`replay`] build one fresh controller per execution and
//! hand it to the run closure, which passes it on explicitly: an engine
//! takes it through [`Engine::set_mc`](crate::Engine::set_mc), and
//! `simmpi` carries it on a job's run options, so exactly the jobs built
//! from those options are model-checked. Nothing is ambient; a job whose
//! options carry no controller runs its canonical schedule.
//!
//! ## Execution model: fork-free re-execution
//!
//! Processes are opaque stackless coroutines, so scheduler state cannot be
//! snapshotted and restored. Instead the explorer uses *re-execution
//! replay*: every run starts from scratch, replays a recorded **decision
//! prefix**, and takes default choices beyond it (VeriSoft-style stateless
//! search). Runs are bit-deterministic, so a prefix identifies a unique
//! execution; the DFS frontier is simply a stack of prefixes.
//!
//! ## State model and deduplication
//!
//! After each dispatch the controller hashes an abstraction of the global
//! state: per-process status and resume count, the pending event queue as a
//! multiset of `(time-to-fire, process)` pairs, a domain probe the
//! simulation installs on its engine (e.g. simmpi mailbox contents, see
//! [`Engine::set_state_probe`](crate::Engine::set_state_probe)), and a salt
//! folding in the environment decisions (drops, [`McCtl::choose`] values)
//! taken so far. Two runs reaching the same hash at the same-or-smaller
//! decision depth are considered equivalent and the later one is pruned.
//! Resume counts make the hash loop-safe: a process iterating a loop
//! advances its own counter, so successive iterations never alias. The
//! hash abstracts absolute virtual time and payload contents — dedup is a
//! sound-ish heuristic, not a proof of equivalence, which is the usual
//! trade of hash-based stateless search.
//!
//! ## Reduction
//!
//! A sleep-set style check prunes commutative schedules: when an
//! alternative event fires at the same virtual time as the chosen one and
//! the run shows that every dispatch between the choice point and the
//! alternative's actual dispatch touched a disjoint footprint (a 64-bit
//! object mask maintained by the engine and by simmpi's cross-rank
//! instrumentation), reordering it first provably reaches a state the
//! explored schedule already covers, and the sibling branch is skipped.
//!
//! ## Bound semantics
//!
//! [`McConfig`] bounds the search: `max_states` distinct hashed states,
//! `max_depth` recorded decisions per run, `max_runs` executions, an
//! optional wall-clock `deadline`, and `max_drops` adversarial message
//! drops per run. A report with `exhausted = true` means the bounded space
//! was fully enumerated; `truncated_by` names the first budget that fired
//! otherwise. Violations come back as a [`Counterexample`] holding a
//! greedily minimized decision prefix that [`replay`] reproduces exactly.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::time::SimTime;

/// Which kind of nondeterministic choice a [`Decision`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceKind {
    /// Scheduler pick among simultaneously enabled events.
    Sched,
    /// Message-drop verdict on a lossy link (arity 2: deliver / drop).
    Drop,
    /// Explicit environment choice made by a scenario via [`McCtl::choose`].
    Choice,
}

impl ChoiceKind {
    /// Stable lower-case name used in counterexample files.
    pub fn as_str(self) -> &'static str {
        match self {
            ChoiceKind::Sched => "sched",
            ChoiceKind::Drop => "drop",
            ChoiceKind::Choice => "choice",
        }
    }

    /// Inverse of [`ChoiceKind::as_str`].
    pub fn parse(s: &str) -> Option<ChoiceKind> {
        match s {
            "sched" => Some(ChoiceKind::Sched),
            "drop" => Some(ChoiceKind::Drop),
            "choice" => Some(ChoiceKind::Choice),
            _ => None,
        }
    }
}

/// One recorded nondeterministic choice: the branch taken and how many
/// branches existed. A run's decision vector fully determines it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// What kind of choice point this was.
    pub kind: ChoiceKind,
    /// Index of the branch taken (`0` is the default schedule).
    pub chosen: u32,
    /// Number of branches that were available.
    pub arity: u32,
}

/// One enabled event offered to the controller at a scheduling choice.
#[derive(Clone, Copy, Debug)]
pub struct EnabledChoice {
    /// Firing time of the event.
    pub at: SimTime,
    /// Engine-unique sequence number (identity within one engine epoch).
    pub seq: u64,
    /// Index of the process the event resumes.
    pub pid: usize,
}

/// Bounds and knobs for a bounded model-checking search.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Stop after this many distinct hashed states have been observed.
    pub max_states: u64,
    /// Per-run cap on recorded decisions; beyond it every choice is forced
    /// to the default and the search reports `truncated_by = "depth"`.
    pub max_depth: u32,
    /// Stop after this many executions.
    pub max_runs: u64,
    /// Optional wall-clock deadline for the whole search.
    pub deadline: Option<Duration>,
    /// Two events are *simultaneously enabled* (a scheduling choice) when
    /// their firing times are within this slack of the earliest pending
    /// event. `ZERO` explores exact-tie orderings only, which preserves
    /// timeout semantics; widen it to explore bounded timing skew.
    pub time_slack: SimTime,
    /// Per-run budget of adversarial message drops; once spent, lossy
    /// links deliver (keeps retry-loop liveness decidable within bounds).
    pub max_drops: u32,
    /// Offer scheduling choices at all. Scenarios that only enumerate
    /// environment choices (crash timings) disable this to keep the run
    /// on the canonical schedule.
    pub explore_sched: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_states: 100_000,
            max_depth: 64,
            max_runs: 250_000,
            deadline: None,
            time_slack: SimTime::ZERO,
            max_drops: 0,
            explore_sched: true,
        }
    }
}

/// Verdict of one explored execution, returned by the scenario closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every predicate held.
    Pass,
    /// The run was cut short by the explorer (state already covered); not
    /// a verdict. Scenarios map [`SimError::Interrupted`] to this.
    ///
    /// [`SimError::Interrupted`]: crate::SimError::Interrupted
    Pruned,
    /// A predicate failed.
    Violation {
        /// Short stable identifier, e.g. `safety.exactly-once`.
        property: String,
        /// Human-readable description of what went wrong.
        detail: String,
    },
}

/// A minimal failing schedule: replaying `decisions` through [`replay`]
/// (with the same [`McConfig`]) deterministically reproduces the violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Identifier of the violated property.
    pub property: String,
    /// Description captured when the violation was first found.
    pub detail: String,
    /// Minimized decision prefix (defaults beyond it).
    pub decisions: Vec<Decision>,
    /// Decision count of the un-minimized violating run.
    pub minimized_from: usize,
}

/// Result of a bounded search.
#[derive(Clone, Debug)]
pub struct McReport {
    /// Executions performed (including minimization re-runs).
    pub runs: u64,
    /// Distinct state hashes observed.
    pub distinct_states: u64,
    /// State observations that hit an already-seen hash.
    pub dedup_hits: u64,
    /// Total state observations (distinct + hits), for the hit rate.
    pub observations: u64,
    /// Sibling branches skipped by the commutation reduction.
    pub commute_skips: u64,
    /// Deepest decision count reached by any run.
    pub max_depth_seen: u32,
    /// The bounded space was fully enumerated (no budget fired, no
    /// violation found).
    pub exhausted: bool,
    /// First budget that stopped the search: `"states"`, `"runs"`,
    /// `"deadline"` or `"depth"`.
    pub truncated_by: Option<&'static str>,
    /// The first violation found, if any (search stops at the first).
    pub violation: Option<Counterexample>,
    /// Wall-clock time spent.
    pub wall: Duration,
}

impl McReport {
    /// Fraction of state observations that were dedup hits, in `[0, 1]`.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.observations as f64
        }
    }
}

/// Result of replaying a recorded decision prefix via [`replay`].
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Verdict of the replayed run.
    pub outcome: RunOutcome,
    /// How many prefix decisions the run actually consumed.
    pub decisions_applied: usize,
    /// Set if the run requested a choice whose kind/arity disagreed with
    /// the prefix — the recording no longer matches the code.
    pub divergence: Option<String>,
}

// ---------------------------------------------------------------------------
// object footprints

/// Footprint bit for a process (engine auto-touches this on dispatch).
pub fn pid_bit(pid: usize) -> u64 {
    1u64 << (pid % 24)
}

/// Footprint bit for a cluster node's network link.
pub fn node_bit(node: u32) -> u64 {
    1u64 << (24 + (node % 24) as u64)
}

/// Footprint that conflicts with everything (conservative catch-all).
pub const OBJ_ALL: u64 = u64::MAX;

/// SplitMix64-style mixing step used for all MC state hashing.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// controller

/// One dispatched event's execution segment: which event ran (identified by
/// engine epoch + event seq), at what virtual time, and the footprint of
/// objects it touched before the next dispatch.
#[derive(Clone, Copy, Debug)]
struct Segment {
    epoch: u32,
    seq: u64,
    at: SimTime,
    fp: u64,
}

/// Bookkeeping for one recorded scheduling decision, enough to evaluate the
/// commutation reduction at expansion time.
#[derive(Clone, Debug)]
struct SchedRecord {
    trace_index: usize,
    seg_index: usize,
    epoch: u32,
    chosen_at: SimTime,
    alts: Vec<u64>,
    alt_ats: Vec<SimTime>,
}

#[derive(Default)]
struct CtlInner {
    prefix: Vec<Decision>,
    decisions: Vec<Decision>,
    scheds: Vec<SchedRecord>,
    segments: Vec<Segment>,
    epoch: u32,
    env_salt: u64,
    drops_used: u32,
    pruned: bool,
    depth_clipped: bool,
    divergence: Option<String>,
}

#[derive(Default)]
struct SharedStats {
    seen: HashMap<u64, u32>,
    distinct: u64,
    dedup_hits: u64,
    observations: u64,
}

/// Everything one finished run tells the explorer.
struct RunRecord {
    decisions: Vec<Decision>,
    scheds: Vec<SchedRecord>,
    segments: Vec<Segment>,
    pruned: bool,
    depth_clipped: bool,
    divergence: Option<String>,
}

/// The per-run model-checking controller.
///
/// [`explore`] and [`replay`] hand a fresh one to each execution, which
/// wires it into every engine it creates with
/// [`Engine::set_mc`](crate::Engine::set_mc). The engine consults it for
/// scheduling choices and state observation; the simulation layer consults
/// it for message-drop verdicts ([`McCtl::decide_drop`]), explicit
/// environment choices ([`McCtl::choose`]) and footprint hints
/// ([`McCtl::touch`]).
pub struct McCtl {
    time_slack: SimTime,
    explore_sched: bool,
    max_depth: u32,
    max_drops: u32,
    /// The search's state table; `None` (replay, minimization) observes
    /// nothing and never prunes.
    shared: Option<Arc<Mutex<SharedStats>>>,
    inner: Mutex<CtlInner>,
}

impl McCtl {
    /// A controller that forces `prefix` and takes default choices beyond
    /// it. `cfg` must be the configuration the prefix was recorded under
    /// (bounds are part of decision alignment).
    fn new(
        cfg: &McConfig,
        prefix: Vec<Decision>,
        shared: Option<Arc<Mutex<SharedStats>>>,
    ) -> Arc<McCtl> {
        Arc::new(McCtl {
            time_slack: cfg.time_slack,
            explore_sched: cfg.explore_sched,
            max_depth: cfg.max_depth,
            max_drops: cfg.max_drops,
            shared,
            inner: Mutex::new(CtlInner { prefix, ..CtlInner::default() }),
        })
    }

    /// Time slack defining simultaneous enablement (engine hook).
    pub fn time_slack(&self) -> SimTime {
        self.time_slack
    }

    /// Whether the engine should offer scheduling choices (engine hook).
    pub fn explore_sched(&self) -> bool {
        self.explore_sched
    }

    /// Begin a new engine epoch. Called by
    /// [`Engine::set_mc`](crate::Engine::set_mc); event sequence numbers
    /// are only unique within one engine, so segments from different
    /// engines must never be compared.
    pub fn begin_epoch(&self) {
        self.inner.lock().epoch += 1;
    }

    /// Pick among ≥ 2 simultaneously enabled events. Returns an index into
    /// `enabled`. Called by the engine dispatch loop only.
    pub fn sched_pick(&self, enabled: &[EnabledChoice]) -> usize {
        let arity = enabled.len() as u32;
        debug_assert!(arity >= 2);
        let mut g = self.inner.lock();
        if g.decisions.len() >= self.max_depth as usize {
            g.depth_clipped = true;
            return 0;
        }
        let chosen = Self::take_choice(&mut g, ChoiceKind::Sched, arity);
        let seg_index = g.segments.len();
        let epoch = g.epoch;
        let trace_index = g.decisions.len();
        g.scheds.push(SchedRecord {
            trace_index,
            seg_index,
            epoch,
            chosen_at: enabled[chosen as usize].at,
            alts: enabled.iter().map(|e| e.seq).collect(),
            alt_ats: enabled.iter().map(|e| e.at).collect(),
        });
        g.decisions.push(Decision { kind: ChoiceKind::Sched, chosen, arity });
        chosen as usize
    }

    /// Record a dispatched event and observe the post-choice state: the
    /// engine's scheduler hash and the hash of the engine's domain state
    /// probe ([`Engine::set_state_probe`](crate::Engine::set_state_probe),
    /// 0 without one). Returns `false` when the run should be abandoned
    /// because the state was already covered (the engine then aborts with
    /// [`SimError::Interrupted`](crate::SimError::Interrupted)).
    pub fn observe_dispatch(
        &self,
        pid: usize,
        seq: u64,
        at: SimTime,
        engine_hash: u64,
        probe_hash: u64,
    ) -> bool {
        let (hash, depth, in_prefix) = {
            let mut g = self.inner.lock();
            let epoch = g.epoch;
            g.segments.push(Segment { epoch, seq, at, fp: pid_bit(pid) });
            let in_prefix = g.decisions.len() < g.prefix.len();
            (mix(mix(engine_hash, probe_hash), g.env_salt), g.decisions.len() as u32, in_prefix)
        };
        // States reached while still forced by the prefix were observed by
        // the parent run; counting (or pruning on) them would make every
        // child prune itself against its own parent.
        if in_prefix {
            return true;
        }
        let Some(shared) = &self.shared else { return true };
        let mut s = shared.lock();
        let st = &mut *s;
        st.observations += 1;
        match st.seen.entry(hash) {
            Entry::Occupied(mut e) => {
                st.dedup_hits += 1;
                if *e.get() <= depth {
                    drop(s);
                    self.inner.lock().pruned = true;
                    return false;
                }
                if depth < *e.get() {
                    *e.get_mut() = depth;
                }
            }
            Entry::Vacant(e) => {
                e.insert(depth);
                st.distinct += 1;
            }
        }
        true
    }

    /// OR extra object bits into the current execution segment's footprint.
    /// Simulation layers call this when a process mutates state owned by
    /// another process (e.g. a cross-rank mailbox push).
    pub fn touch(&self, mask: u64) {
        let mut g = self.inner.lock();
        if let Some(seg) = g.segments.last_mut() {
            seg.fp |= mask;
        }
    }

    /// Adversarial verdict for one lossy-link transmission: `true` = drop.
    /// Deterministically forced to deliver once the per-run drop budget is
    /// spent (no decision is recorded for forced deliveries).
    pub fn decide_drop(&self) -> bool {
        let mut g = self.inner.lock();
        if g.drops_used >= self.max_drops {
            return false;
        }
        if g.decisions.len() >= self.max_depth as usize {
            g.depth_clipped = true;
            return false;
        }
        let chosen = Self::take_choice(&mut g, ChoiceKind::Drop, 2);
        let di = g.decisions.len();
        g.decisions.push(Decision { kind: ChoiceKind::Drop, chosen, arity: 2 });
        g.env_salt = mix(g.env_salt, (di as u64) << 16 | 0x100 | chosen as u64);
        if chosen == 1 {
            g.drops_used += 1;
            true
        } else {
            false
        }
    }

    /// Explicit environment choice with `arity` branches; scenarios use it
    /// to enumerate e.g. crash timings. Returns the branch index.
    pub fn choose(&self, arity: u32) -> u32 {
        assert!(arity >= 1, "choose() needs at least one branch");
        if arity == 1 {
            return 0;
        }
        let mut g = self.inner.lock();
        if g.decisions.len() >= self.max_depth as usize {
            g.depth_clipped = true;
            return 0;
        }
        let chosen = Self::take_choice(&mut g, ChoiceKind::Choice, arity);
        let di = g.decisions.len();
        g.decisions.push(Decision { kind: ChoiceKind::Choice, chosen, arity });
        g.env_salt = mix(g.env_salt, (di as u64) << 16 | 0x200 | chosen as u64);
        chosen
    }

    /// Prefix/recording mismatch noticed during replay, if any.
    pub fn divergence(&self) -> Option<String> {
        self.inner.lock().divergence.clone()
    }

    fn take_choice(g: &mut CtlInner, kind: ChoiceKind, arity: u32) -> u32 {
        let di = g.decisions.len();
        if di < g.prefix.len() {
            let want = g.prefix[di];
            if (want.kind != kind || want.arity != arity) && g.divergence.is_none() {
                g.divergence = Some(format!(
                    "decision {di}: recorded {}[{}] but run offered {}[{arity}]",
                    want.kind.as_str(),
                    want.arity,
                    kind.as_str(),
                ));
            }
            want.chosen.min(arity - 1)
        } else {
            0
        }
    }

    fn take_record(&self) -> RunRecord {
        let mut g = self.inner.lock();
        let g = &mut *g;
        RunRecord {
            decisions: std::mem::take(&mut g.decisions),
            scheds: std::mem::take(&mut g.scheds),
            segments: std::mem::take(&mut g.segments),
            pruned: g.pruned,
            depth_clipped: g.depth_clipped,
            divergence: g.divergence.take(),
        }
    }
}

// ---------------------------------------------------------------------------
// exploration

/// Enumerate the bounded decision tree of `run` depth-first under `cfg` and
/// return what was found. Each call of `run` executes the scenario once
/// under the fresh controller it is handed; it must be deterministic given
/// that controller's decisions. The search stops at the first violation,
/// which is greedily minimized before being reported.
pub fn explore(cfg: &McConfig, run: &mut dyn FnMut(&Arc<McCtl>) -> RunOutcome) -> McReport {
    let start = Instant::now();
    let shared = Arc::new(Mutex::new(SharedStats::default()));
    let mut report = McReport {
        runs: 0,
        distinct_states: 0,
        dedup_hits: 0,
        observations: 0,
        commute_skips: 0,
        max_depth_seen: 0,
        exhausted: false,
        truncated_by: None,
        violation: None,
        wall: Duration::ZERO,
    };
    let mut depth_clipped = false;

    let over_budget = |report: &McReport, shared: &Mutex<SharedStats>| -> Option<&'static str> {
        if shared.lock().distinct >= cfg.max_states {
            Some("states")
        } else if report.runs >= cfg.max_runs {
            Some("runs")
        } else if cfg.deadline.is_some_and(|d| start.elapsed() >= d) {
            Some("deadline")
        } else {
            None
        }
    };

    let mut frontier: Vec<Vec<Decision>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        if let Some(why) = over_budget(&report, &shared) {
            report.truncated_by = Some(why);
            break;
        }
        let ctl = McCtl::new(cfg, prefix.clone(), Some(shared.clone()));
        let outcome = run(&ctl);
        report.runs += 1;
        let rec = ctl.take_record();
        depth_clipped |= rec.depth_clipped;
        report.max_depth_seen = report.max_depth_seen.max(rec.decisions.len() as u32);
        if let RunOutcome::Violation { property, detail } = outcome {
            if !rec.pruned {
                let (decisions, minimized_from, extra_runs) =
                    minimize(cfg, run, rec.decisions, &property);
                report.runs += extra_runs;
                report.violation =
                    Some(Counterexample { property, detail, decisions, minimized_from });
                break;
            }
        }
        expand(&prefix, &rec, &mut frontier, &mut report.commute_skips);
    }
    if report.truncated_by.is_none() && depth_clipped {
        report.truncated_by = Some("depth");
    }
    report.exhausted = report.truncated_by.is_none() && report.violation.is_none();

    {
        let s = shared.lock();
        report.distinct_states = s.distinct;
        report.dedup_hits = s.dedup_hits;
        report.observations = s.observations;
    }
    report.wall = start.elapsed();
    report
}

/// Replay a recorded decision prefix once, with defaults beyond it and no
/// pruning, handing `run` the replaying controller. `cfg` must match the
/// exploration configuration the prefix was recorded under.
pub fn replay(
    cfg: &McConfig,
    decisions: Vec<Decision>,
    run: &mut dyn FnMut(&Arc<McCtl>) -> RunOutcome,
) -> ReplayReport {
    let applied = decisions.len();
    let ctl = McCtl::new(cfg, decisions, None);
    let outcome = run(&ctl);
    let rec = ctl.take_record();
    ReplayReport {
        outcome,
        decisions_applied: applied.min(rec.decisions.len()),
        divergence: rec.divergence,
    }
}

/// Push every unexplored sibling of the decisions this run took beyond its
/// prefix, deepest-first/smallest-alternative-first under LIFO popping, and
/// count commutation skips.
fn expand(
    prefix: &[Decision],
    rec: &RunRecord,
    frontier: &mut Vec<Vec<Decision>>,
    commute_skips: &mut u64,
) {
    for i in prefix.len()..rec.decisions.len() {
        let d = rec.decisions[i];
        if d.arity <= 1 {
            continue;
        }
        let sched = rec.scheds.iter().find(|s| s.trace_index == i);
        for alt in (d.chosen + 1..d.arity).rev() {
            if let Some(sr) = sched {
                if commutes(rec, sr, alt as usize) {
                    *commute_skips += 1;
                    continue;
                }
            }
            let mut child = rec.decisions[..i].to_vec();
            child.push(Decision { chosen: alt, ..d });
            frontier.push(child);
        }
    }
}

/// Sleep-set style check: the alternative event `sr.alts[alt]` fired later
/// in this run at the same virtual time, and every segment executed between
/// the choice point and that dispatch touched a disjoint footprint — so
/// scheduling it first commutes into a covered state and the sibling branch
/// can be skipped.
fn commutes(rec: &RunRecord, sr: &SchedRecord, alt: usize) -> bool {
    if sr.alt_ats[alt] != sr.chosen_at {
        return false;
    }
    let seq = sr.alts[alt];
    let mut union = 0u64;
    for seg in &rec.segments[sr.seg_index..] {
        if seg.epoch != sr.epoch || seg.at != sr.chosen_at {
            return false;
        }
        if seg.seq == seq {
            return seg.fp & union == 0;
        }
        union |= seg.fp;
    }
    false
}

fn trim_trailing_defaults(decisions: &mut Vec<Decision>) {
    while decisions.last().is_some_and(|d| d.chosen == 0) {
        decisions.pop();
    }
}

/// Greedy counterexample minimization: drop trailing default decisions,
/// then try resetting each non-default decision (last first) to the
/// default, keeping any change that still violates the same property.
fn minimize(
    cfg: &McConfig,
    run: &mut dyn FnMut(&Arc<McCtl>) -> RunOutcome,
    decisions: Vec<Decision>,
    property: &str,
) -> (Vec<Decision>, usize, u64) {
    let minimized_from = decisions.len();
    let mut cur = decisions;
    trim_trailing_defaults(&mut cur);
    let mut extra_runs = 0u64;
    let mut i = cur.len();
    while i > 0 {
        i -= 1;
        if cur[i].chosen == 0 {
            continue;
        }
        let mut cand = cur.clone();
        cand[i].chosen = 0;
        let ctl = McCtl::new(cfg, cand, None);
        let outcome = run(&ctl);
        extra_runs += 1;
        if matches!(&outcome, RunOutcome::Violation { property: p, .. } if p == property) {
            cur = ctl.take_record().decisions;
            trim_trailing_defaults(&mut cur);
            i = i.min(cur.len());
        }
    }
    trim_trailing_defaults(&mut cur);
    (cur, minimized_from, extra_runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pure choice scenario (no engine): two 3-way choices, violation iff
    /// the pair is (2, 1).
    fn pair_scenario(ctl: &Arc<McCtl>) -> RunOutcome {
        let a = ctl.choose(3);
        let b = ctl.choose(3);
        if (a, b) == (2, 1) {
            RunOutcome::Violation { property: "pair".into(), detail: format!("({a}, {b})") }
        } else {
            RunOutcome::Pass
        }
    }

    #[test]
    fn dfs_enumerates_choice_space_exhaustively() {
        let mut runs = 0u32;
        let cfg = McConfig::default();
        let report = explore(&cfg, &mut |ctl| {
            runs += 1;
            let _ = (ctl.choose(3), ctl.choose(3));
            RunOutcome::Pass
        });
        assert_eq!(runs, 9, "3x3 choice space must be enumerated exactly");
        assert!(report.exhausted);
        assert!(report.violation.is_none());
        assert_eq!(report.runs, 9);
    }

    #[test]
    fn dfs_finds_and_minimizes_the_violation() {
        let cfg = McConfig::default();
        let report = explore(&cfg, &mut pair_scenario);
        let ce = report.violation.expect("the (2,1) violation must be found");
        assert_eq!(ce.property, "pair");
        assert_eq!(
            ce.decisions,
            vec![
                Decision { kind: ChoiceKind::Choice, chosen: 2, arity: 3 },
                Decision { kind: ChoiceKind::Choice, chosen: 1, arity: 3 },
            ],
            "minimization must keep exactly the two load-bearing decisions"
        );
        assert!(!report.exhausted);
    }

    #[test]
    fn replay_reproduces_the_minimized_counterexample() {
        let cfg = McConfig::default();
        let ce = explore(&cfg, &mut pair_scenario).violation.unwrap();
        for _ in 0..2 {
            let rep = replay(&cfg, ce.decisions.clone(), &mut pair_scenario);
            assert_eq!(
                rep.outcome,
                RunOutcome::Violation { property: "pair".into(), detail: "(2, 1)".into() }
            );
            assert_eq!(rep.decisions_applied, 2);
            assert!(rep.divergence.is_none());
        }
    }

    #[test]
    fn replay_reports_divergence_on_arity_mismatch() {
        let cfg = McConfig::default();
        let bad = vec![Decision { kind: ChoiceKind::Drop, chosen: 1, arity: 2 }];
        let rep = replay(&cfg, bad, &mut |ctl| {
            let _ = ctl.choose(4);
            RunOutcome::Pass
        });
        assert!(rep.divergence.is_some(), "kind mismatch must be surfaced");
    }

    #[test]
    fn drop_budget_forces_delivery_when_spent() {
        let cfg = McConfig { max_drops: 1, ..McConfig::default() };
        let mut max_drops_seen = 0u32;
        let report = explore(&cfg, &mut |ctl| {
            let drops = (0..3).filter(|_| ctl.decide_drop()).count() as u32;
            max_drops_seen = max_drops_seen.max(drops);
            RunOutcome::Pass
        });
        assert!(report.exhausted);
        assert_eq!(max_drops_seen, 1, "budget must cap per-run drops");
    }

    /// One engine run under `ctl`: two processes become runnable at time
    /// zero (a tie), each records its turn in `log` and marks its footprint
    /// with `fp`.
    fn tie_run(ctl: &Arc<McCtl>, fp: u64) -> (RunOutcome, Vec<u32>) {
        use std::sync::Mutex as StdMutex;
        let log: Arc<StdMutex<Vec<u32>>> = Arc::default();
        let mut eng = crate::Engine::new();
        eng.set_mc(Arc::clone(ctl));
        for i in 0..2u32 {
            let log = Arc::clone(&log);
            let ctl = Arc::clone(ctl);
            eng.spawn_process(format!("p{i}"), move |_ctx| async move {
                if fp != 0 {
                    ctl.touch(fp);
                }
                log.lock().unwrap().push(i);
            });
        }
        let outcome = match eng.run() {
            Ok(_) => RunOutcome::Pass,
            Err(crate::SimError::Interrupted { .. }) => RunOutcome::Pruned,
            Err(e) => panic!("unexpected engine error: {e}"),
        };
        let order = log.lock().unwrap().clone();
        (outcome, order)
    }

    #[test]
    fn engine_explores_both_orders_of_conflicting_ties() {
        use std::sync::Mutex as StdMutex;
        let orders: Arc<StdMutex<Vec<Vec<u32>>>> = Arc::default();
        let orders_c = Arc::clone(&orders);
        let cfg = McConfig::default();
        // Both processes touch the same object, so their tie does NOT
        // commute and both interleavings must be executed.
        let report = explore(&cfg, &mut |ctl| {
            let (outcome, order) = tie_run(ctl, OBJ_ALL);
            orders_c.lock().unwrap().push(order);
            outcome
        });
        assert!(report.exhausted);
        let seen = orders.lock().unwrap();
        assert!(seen.contains(&vec![0, 1]) && seen.contains(&vec![1, 0]), "orders: {seen:?}");
    }

    #[test]
    fn commute_reduction_prunes_independent_ties() {
        let cfg = McConfig::default();
        // No shared object: the two time-zero dispatches have disjoint
        // footprints, so the swapped order is provably covered and the
        // sibling branch must be skipped without running.
        let report = explore(&cfg, &mut |ctl| tie_run(ctl, 0).0);
        assert!(report.exhausted);
        assert_eq!(report.runs, 1, "independent tie must not be re-explored");
        assert_eq!(report.commute_skips, 1);
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let cfg = McConfig { max_depth: 3, ..McConfig::default() };
        let report = explore(&cfg, &mut |ctl| {
            for _ in 0..8 {
                let _ = ctl.choose(2);
            }
            RunOutcome::Pass
        });
        assert!(!report.exhausted);
        assert_eq!(report.truncated_by, Some("depth"));
    }
}
