//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro --all            # everything at full scale (about half a minute)
//! repro --quick          # everything, Fig 6 truncated to 32 nodes
//! repro --golden         # everything, golden-test scale (seconds in debug)
//! repro --figure 6       # one figure (1, 2a, 2b, 3..7)
//! repro --table 4        # one table (1..4)
//! repro --headline hpl   # the §4 HPL/Green500 numbers (96 nodes)
//! repro --headline latency-penalty
//! repro --headline extensions   # beyond-the-paper analyses (ECC, EEE, ...)
//! repro --headline resilience   # fault injection + checkpoint/restart sweep
//! repro --headline datacenter   # multi-tenant job-stream replay (sched)
//! repro --ablate-net     # interconnect figures under both network models
//! repro --json DIR       # additionally dump machine-readable JSON
//! repro --jobs N         # run the scenario cells on N workers
//! repro --serial         # reference serial schedule (same bytes as --jobs N)
//! repro --resume         # skip artefacts whose journal+checksum verify
//! repro --fsck           # verify/repair artefacts against the journal
//! repro --max-cell-seconds S    # wall-clock watchdog per cell
//! repro --max-cell-events N     # DES event budget per simulation
//! repro --inject-panic S # sabotage cells whose label contains S (testing)
//! repro --trace PATH     # record a structured DES trace to PATH (JSONL)
//! repro --trace-filter C # comma list of proc,msg,span,fault (needs --trace or --mc)
//! repro --mc SCENARIO    # bounded model-check a resilience protocol
//! repro --mc-replay FILE # reproduce a recorded counterexample
//! repro --help           # print the full flag reference and exit 0
//! ```
//!
//! The run is decomposed into independent scenario cells and executed under
//! the sweep supervisor (`bench::run_plan`): artefacts settle
//! sequentially in canonical paper order (cells fan out over `--jobs`
//! workers inside each artefact), so stdout and every JSON artefact are
//! byte-identical for any `--jobs` value. Each cell runs once: a panicking,
//! failing or watchdogged cell is quarantined — its artefact is reported as
//! failed while every other artefact completes — and the exit code
//! distinguishes a degraded run (3) from a clean one (0); usage errors
//! exit 2.
//!
//! With `--json DIR`, every settled artefact is persisted immediately via
//! an atomic, fsync'd, checksummed write, and appended to the fsync'd run
//! journal `DIR/_journal.jsonl`; without it, nothing is persisted.
//! `--resume` skips artefacts whose journal record and on-disk checksum both
//! verify (their stdout blocks are not reprinted; a note goes to stderr).
//! `--fsck` audits the directory against the journal and reports orphaned
//! JSON files; when a journaled artefact is truncated, corrupted, missing or
//! failed, it re-runs the journal's own items and scale as `--resume` would
//! and exits 3. Wall-clock and timing-cache statistics — the only
//! nondeterministic outputs — go to stderr and, with `--json`, to
//! `_sweep_stats.json` (underscore-prefixed so artefact diffs exclude it,
//! like the journal).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bench::journal::{run_fingerprint, JournaledArtifact};
use bench::{
    read_journal, run_plan, verdicts, write_json_atomic, ArtefactOutcome, CellOutcome, Journal,
    McOverrides, RunPlan, RunScales, Verdict, WriteOutcome,
};
use des::{RingRecorder, TraceFilter, Tracer};
use simmpi::RunOpts;

struct Opts {
    items: Vec<String>,
    scales: RunScales,
    /// Scale name entering the run fingerprint (`golden`/`quick`/`full`).
    scale_name: &'static str,
    json_dir: Option<PathBuf>,
    /// Worker threads for scenario cells (`--serial` is 1, the default one
    /// per available core).
    jobs: usize,
    /// `--max-cell-seconds`: the wall-clock limit on each cell, when given.
    wall_limit: Option<Duration>,
    resume: bool,
    fsck: bool,
    event_budget: Option<u64>,
    inject_panic: Option<String>,
    trace_path: Option<PathBuf>,
    trace_filter: TraceFilter,
    mc: Option<String>,
    mc_replay: Option<PathBuf>,
    mc_overrides: McOverrides,
}

/// Every `items` key the plan dispatches on; a request outside this set
/// would silently run nothing, so `parse_args` rejects it up front.
const KNOWN_ITEMS: &[&str] = &[
    "all",
    "fig1",
    "fig2",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "table3",
    "table4",
    "hpl",
    "latency-penalty",
    "extensions",
    "resilience",
    "ablate-net",
    "datacenter",
];

/// Exit code for a run that finished but quarantined or lost artefacts.
const EXIT_DEGRADED: i32 = 3;

/// Records the ring recorder keeps before counting drops (`--trace`).
const TRACE_CAPACITY: usize = 1 << 20;

/// The `--help` text. `tests/repro_cli.rs` snapshots this string and
/// EXPERIMENTS.md documents the same flags — change all three together.
const HELP: &str = "\
repro - regenerate every table and figure of the paper

usage: repro [ITEMS] [OPTIONS]

items (default: everything, at --quick scale when no scale is given):
  --all                  everything (full scale unless --quick/--golden)
  --figure N             one figure: 1, 2a, 2b, 3, 4, 5, 6, 7
  --table N              one table: 1, 2, 3, 4
  --headline NAME        hpl | latency-penalty | extensions | resilience |
                         datacenter (multi-tenant job-stream replay: FCFS /
                         EASY backfill / preemptive fair-share against the
                         Tibidabo-class machine with faults active)
  --ablate-net           network-model ablation: the interconnect figures
                         (6, 7, HPL) under both the event and flow models,
                         condensed into a per-figure accuracy-delta table

scale:
  --quick                small sizes (Fig 6 truncated to 32 nodes)
  --golden               golden-test scale (seconds, used by CI regression)

execution:
  --jobs N               run scenario cells on N workers
  --serial               reference serial schedule (same bytes as --jobs N)
  --max-cell-seconds S   wall-clock watchdog per cell
  --max-cell-events N    DES event budget per simulation
  --inject-panic S       sabotage cells whose label contains S (testing)

artefacts:
  --json DIR             dump machine-readable JSON artefacts into DIR
  --resume               skip artefacts whose journal + checksum verify
  --fsck                 verify/repair artefacts against the journal

observability:
  --trace PATH           record a structured DES trace to PATH as JSONL
                         (see docs/TRACE_FORMAT.md; fold with trace2flame)
  --trace-filter C       keep only these event classes: a comma list of
                         proc, msg, span, fault (default: all); needs
                         --trace, or --mc with --json for its
                         counterexample trace

model checking:
  --mc SCENARIO          bounded model-check one resilience protocol:
                         retry-lossy | retry-lossy-broken | ckpt-crash |
                         spare-race; a violation exits 3, and with
                         --json DIR writes a replayable counterexample
                         plus its trace there
  --mc-replay FILE       deterministically reproduce a recorded
                         counterexample file (exit 3 when it reproduces)
  --mc-max-states N      override the scenario's distinct-state budget
  --mc-max-depth N       override the per-run decision-depth budget
                         (--max-cell-seconds doubles as the wall deadline)

exit codes:
  0  clean run
  2  usage error
  3  degraded: artefacts quarantined, lost, or repaired by --fsck;
     or a model-checking violation found / reproduced
";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut items: Vec<String> = Vec::new();
    let mut quick = false;
    let mut golden = false;
    let mut json_dir = None;
    let mut jobs: Option<usize> = None;
    let mut serial = false;
    let mut resume = false;
    let mut fsck = false;
    let mut wall_limit = None;
    let mut event_budget = None;
    let mut inject_panic = None;
    let mut trace_path = None;
    let mut trace_filter = None;
    let mut mc = None;
    let mut mc_replay = None;
    let mut mc_overrides = McOverrides::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => items.push("all".into()),
            // A bare `--quick` still means "everything, small sizes": the
            // empty-items default below adds "all" after parsing, so flag
            // order no longer matters.
            "--quick" => quick = true,
            "--golden" => golden = true,
            "--figure" => items.push(format!("fig{}", value(&mut args, "--figure"))),
            "--table" => items.push(format!("table{}", value(&mut args, "--table"))),
            "--headline" => items.push(value(&mut args, "--headline")),
            "--ablate-net" => items.push("ablate-net".into()),
            "--json" => json_dir = Some(PathBuf::from(value(&mut args, "--json"))),
            "--jobs" => {
                let v = value(&mut args, "--jobs");
                jobs = Some(v.parse().unwrap_or_else(|_| die(&format!("bad --jobs value '{v}'"))));
            }
            "--serial" => serial = true,
            "--resume" => resume = true,
            "--fsck" => fsck = true,
            "--max-cell-seconds" => {
                let v = value(&mut args, "--max-cell-seconds");
                let s: f64 = v
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| die(&format!("bad --max-cell-seconds value '{v}'")));
                wall_limit = Some(Duration::from_secs_f64(s));
            }
            "--max-cell-events" => {
                let v = value(&mut args, "--max-cell-events");
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| die(&format!("bad --max-cell-events value '{v}'")));
                event_budget = Some(n);
            }
            "--inject-panic" => inject_panic = Some(value(&mut args, "--inject-panic")),
            "--mc" => mc = Some(value(&mut args, "--mc")),
            "--mc-replay" => mc_replay = Some(PathBuf::from(value(&mut args, "--mc-replay"))),
            "--mc-max-states" => {
                let v = value(&mut args, "--mc-max-states");
                let n: u64 = v
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| die(&format!("bad --mc-max-states value '{v}'")));
                mc_overrides.max_states = Some(n);
            }
            "--mc-max-depth" => {
                let v = value(&mut args, "--mc-max-depth");
                let n: u32 = v
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| die(&format!("bad --mc-max-depth value '{v}'")));
                mc_overrides.max_depth = Some(n);
            }
            "--trace" => trace_path = Some(PathBuf::from(value(&mut args, "--trace"))),
            "--trace-filter" => {
                let v = value(&mut args, "--trace-filter");
                trace_filter = Some(TraceFilter::parse(&v).unwrap_or_else(|e| die(&e)));
            }
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if let Some(bad) = items.iter().find(|i| !KNOWN_ITEMS.contains(&i.as_str())) {
        die(&format!("unknown item '{bad}'; known: {}", KNOWN_ITEMS.join(", ")));
    }
    if mc.is_some() && mc_replay.is_some() {
        die("--mc and --mc-replay are mutually exclusive");
    }
    if let Some(name) = &mc {
        if bench::mc_scenario(name).is_none() {
            let known: Vec<_> = bench::mc_scenarios().iter().map(|s| s.name).collect();
            die(&format!("unknown --mc scenario '{name}'; known: {}", known.join(", ")));
        }
    }
    if mc.is_some() || mc_replay.is_some() {
        if !items.is_empty() {
            die("--mc/--mc-replay runs no artefacts; drop the item flags");
        }
        if resume || fsck {
            die("--mc/--mc-replay contradicts --resume/--fsck");
        }
    } else if mc_overrides.max_states.is_some() || mc_overrides.max_depth.is_some() {
        die("--mc-max-states/--mc-max-depth need --mc");
    } else if items.is_empty() {
        items.push("all".into());
        if !golden {
            quick = true;
        }
    }
    if serial && jobs.is_some_and(|j| j > 1) {
        die("--serial contradicts --jobs N>1");
    }
    if resume && json_dir.is_none() {
        die("--resume needs --json DIR (the journal lives there)");
    }
    if fsck && json_dir.is_none() {
        die("--fsck needs --json DIR");
    }
    if fsck && resume {
        die("--fsck and --resume are mutually exclusive");
    }
    if trace_filter.is_some() && trace_path.is_none() && (mc.is_none() || json_dir.is_none()) {
        die("--trace-filter needs --trace PATH, or --mc and --json DIR (the counterexample trace)");
    }
    let (scale_name, scales) = scale_named(if golden {
        "golden"
    } else if quick {
        "quick"
    } else {
        "full"
    })
    .expect("a scale of the table");
    let jobs = if serial {
        1
    } else {
        jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    };
    // --max-cell-seconds doubles as the model checker's wall deadline.
    mc_overrides.deadline = wall_limit;
    Opts {
        items,
        scales,
        scale_name,
        json_dir,
        jobs,
        wall_limit,
        resume,
        fsck,
        event_budget,
        inject_panic,
        trace_path,
        trace_filter: trace_filter.unwrap_or(TraceFilter::ALL),
        mc,
        mc_replay,
        mc_overrides,
    }
}

/// The run's trace recorder when `--trace` was given. Every simulation of
/// the run records into this one ring; the caller dumps it at exit.
fn trace_recorder(opts: &Opts) -> Option<Arc<RingRecorder>> {
    let path = opts.trace_path.as_ref()?;
    eprintln!("tracing to {} (capacity {TRACE_CAPACITY} records)", path.display());
    Some(Arc::new(RingRecorder::with_capacity(TRACE_CAPACITY).with_filter(opts.trace_filter)))
}

/// Drain the recorder and write the JSONL trace file. Trace I/O failures
/// degrade the run (exit 3) but never discard computed artefacts.
fn dump_trace(opts: &Opts, rec: &RingRecorder) -> bool {
    let path = opts.trace_path.as_ref().expect("tracer installed implies a path");
    let records = rec.drain();
    let dropped = rec.dropped();
    match bench::write_trace(path, &records, dropped) {
        Ok(()) => {
            eprintln!(
                "wrote {} trace records to {}{}",
                records.len(),
                path.display(),
                if dropped > 0 {
                    format!(" ({dropped} dropped: ring full, tail truncated)")
                } else {
                    String::new()
                },
            );
            true
        }
        Err(e) => {
            eprintln!("error: failed to write trace: {e}");
            false
        }
    }
}

/// The run scales by the name `parse_args` picks and the journal records.
fn scale_named(name: &str) -> Option<(&'static str, RunScales)> {
    match name {
        "golden" => Some(("golden", RunScales::golden())),
        "quick" => Some(("quick", RunScales::quick())),
        "full" => Some(("full", RunScales::full())),
        _ => None,
    }
}

/// The journaled artefacts `--resume` skips: those of this very plan
/// (same items, same scale) whose [`verdicts`] say verified.
fn verified_artifacts(dir: &Path, items: &[String], scale_name: &str) -> Vec<JournaledArtifact> {
    let st = read_journal(dir);
    if st.fingerprint.is_empty() {
        eprintln!("resume: no journal in {}; running everything", dir.display());
        return Vec::new();
    }
    if st.fingerprint != run_fingerprint(items, scale_name) {
        eprintln!(
            "resume: journal fingerprint {} does not match this invocation; running everything",
            st.fingerprint
        );
        return Vec::new();
    }
    verdicts(dir, &st)
        .into_iter()
        .filter(|(_, v)| *v == Verdict::Verified)
        .map(|(a, _)| a.clone())
        .collect()
}

/// Run the supervised sweep under `run`; returns the process exit code.
fn run_supervised(opts: &Opts, run: &RunOpts) -> i32 {
    let want = |k: &str| opts.items.iter().any(|i| i == "all" || i == k);
    if want("fig6") {
        eprintln!(
            "running Fig 6 on nodes {:?} (HPL weak scaling dominates the wall time)...",
            opts.scales.fig6_nodes
        );
    }
    if want("resilience") {
        eprintln!(
            "running the resilience sweep on nodes {:?} x incidence {:?}...",
            opts.scales.resilience_sizes,
            bench::INCIDENCE_GRID
        );
    }

    let mut plan = RunPlan::from_items(&opts.items, &opts.scales, run);
    if let Some(needle) = &opts.inject_panic {
        let hit = plan.inject_panic(needle);
        if hit == 0 {
            die(&format!("--inject-panic '{needle}' matched no cell"));
        }
        eprintln!("injected a panic into {hit} cell(s) matching '{needle}'");
    }

    let verified = match (&opts.json_dir, opts.resume) {
        (Some(dir), true) => verified_artifacts(dir, &opts.items, opts.scale_name),
        _ => Vec::new(),
    };
    let skip = |key: &'static str| verified.iter().any(|a| a.key == key);

    // The journal is (re)created up front: a resumed run re-journals the
    // verified artefacts it skips, so the journal always describes the
    // directory as it stands. A journal that cannot be written degrades the
    // run but does not stop it.
    let mut degraded = false;
    let mut journal = match &opts.json_dir {
        Some(dir) => match Journal::create(dir, &opts.items, opts.scale_name) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("error: cannot write journal: {e}");
                degraded = true;
                None
            }
        },
        None => None,
    };
    // First journal failure disables the journal (keeps the run alive) and
    // marks the run degraded.
    macro_rules! journal_try {
        ($call:expr) => {
            if let Some(j) = journal.as_mut() {
                #[allow(clippy::redundant_closure_call)]
                if let Err(e) = $call(j) {
                    eprintln!("error: journal write failed, disabling journal: {e}");
                    degraded = true;
                    journal = None;
                }
            }
        };
    }
    let (_, stats) = run_plan(plan, opts.jobs, opts.wall_limit, &skip, |art| {
        for r in &art.cells {
            let (status, failure) = match &r.outcome {
                CellOutcome::Completed => ("ok", None),
                CellOutcome::Quarantined { failure } => ("quarantined", Some(failure.brief())),
            };
            // Every cell runs once.
            journal_try!(|j: &mut Journal| j.cell(
                art.key,
                &r.label,
                status,
                1,
                r.wall_ms,
                failure.as_deref(),
            ));
        }
        match &art.outcome {
            ArtefactOutcome::Completed(out) => {
                for block in &out.blocks {
                    println!("{block}");
                }
                match (&out.json, &opts.json_dir) {
                    (Some((stem, content)), Some(dir)) => {
                        match write_json_atomic(dir, stem, content) {
                            Ok((outcome, checksum)) => {
                                let verb = match outcome {
                                    WriteOutcome::Written => "wrote",
                                    WriteOutcome::Unchanged => "unchanged",
                                };
                                eprintln!("{verb} {}", dir.join(format!("{stem}.json")).display());
                                journal_try!(|j: &mut Journal| j.artifact_json(
                                    art.key,
                                    stem,
                                    content.len() as u64,
                                    &checksum,
                                    false,
                                ));
                            }
                            Err(e) => {
                                eprintln!("error: failed to persist artefact {}: {e}", art.key);
                                degraded = true;
                                journal_try!(|j: &mut Journal| j.artifact_failed(art.key));
                            }
                        }
                    }
                    _ => journal_try!(|j: &mut Journal| j.artifact_text(art.key)),
                }
            }
            ArtefactOutcome::Skipped => {
                eprintln!("resume: {} verified against journal, skipping", art.key);
                if let Some(JournaledArtifact {
                    stem: Some(stem),
                    bytes,
                    checksum: Some(checksum),
                    ..
                }) = verified.iter().find(|a| a.key == art.key)
                {
                    journal_try!(
                        |j: &mut Journal| j.artifact_json(art.key, stem, *bytes, checksum, true)
                    );
                }
            }
            ArtefactOutcome::Failed => {
                degraded = true;
                eprintln!("error: artefact {} lost to quarantined cells:", art.key);
                for (label, brief) in art.quarantined() {
                    eprintln!("  {label}: {brief}");
                }
                journal_try!(|j: &mut Journal| j.artifact_failed(art.key));
            }
        }
    });

    if let Some(dir) = &opts.json_dir {
        let stats_json = serde_json::to_string_pretty(&stats).expect("stats serialization");
        match write_json_atomic(dir, "_sweep_stats", &stats_json) {
            Ok((WriteOutcome::Written, _)) => {
                eprintln!("wrote {}", dir.join("_sweep_stats.json").display())
            }
            Ok((WriteOutcome::Unchanged, _)) => {
                eprintln!("unchanged {}", dir.join("_sweep_stats.json").display())
            }
            Err(e) => {
                eprintln!("error: failed to persist sweep stats: {e}");
                degraded = true;
            }
        }
    }
    if let Some(j) = journal.as_mut() {
        if let Err(e) = j.run_end(!degraded) {
            eprintln!("error: journal write failed: {e}");
            degraded = true;
        }
    }
    eprintln!("{}", stats.summary());
    if let Some(line) = stats.supervisor.summary() {
        eprintln!("{line}");
    }
    if degraded {
        eprintln!("run DEGRADED: at least one artefact was quarantined or lost");
        EXIT_DEGRADED
    } else {
        0
    }
}

/// Run a bounded model-checking search (`--mc SCENARIO`) under `run`;
/// returns the process exit code (0 = no violation, 3 = violation found).
/// On violation under `--json DIR`, the minimized counterexample is
/// replayed once with a dedicated recorder to persist a replayable
/// decision file plus its structured trace in `DIR`.
fn run_mc(opts: &Opts, run: &RunOpts, name: &str) -> i32 {
    let sc = bench::mc_scenario(name).expect("validated in parse_args");
    let cfg = sc.config(&opts.mc_overrides);
    eprintln!("model checking {name} (strategy dfs, bounded)...");
    let report = sc.explore(&cfg, run);
    print!("{}", bench::mc::render_report(sc, &cfg, &report));
    // Wall-derived numbers are nondeterministic; keep them off stdout.
    eprintln!(
        "explored {} run(s), {} distinct state(s) in {:.3}s ({:.0} states/sec)",
        report.runs,
        report.distinct_states,
        report.wall.as_secs_f64(),
        report.distinct_states as f64 / report.wall.as_secs_f64().max(1e-9),
    );
    let Some(ce) = &report.violation else { return 0 };
    let Some(dir) = &opts.json_dir else {
        eprintln!("rerun with --json DIR to write a replayable counterexample and its trace");
        return EXIT_DEGRADED;
    };

    // Persist the counterexample artefacts: a replayable decision file and
    // the trace of the minimized failing schedule.
    let rec = Arc::new(RingRecorder::with_capacity(TRACE_CAPACITY).with_filter(opts.trace_filter));
    let traced = RunOpts { tracer: Some(rec.clone()), ..run.clone() };
    let replayed = sc.replay(&cfg, ce.decisions.clone(), &traced);
    if let Some(d) = &replayed.divergence {
        eprintln!("warning: counterexample replay diverged: {d}");
    }
    let stem = format!("mc_{name}_counterexample");
    match write_json_atomic(dir, &stem, &bench::counterexample_json(name, &cfg, ce)) {
        Ok(_) => eprintln!("wrote {}", dir.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!("error: failed to persist counterexample: {e}"),
    }
    let trace_path = dir.join(format!("mc_{name}.trace.jsonl"));
    match bench::write_trace(&trace_path, &rec.drain(), rec.dropped()) {
        Ok(()) => eprintln!("wrote {}", trace_path.display()),
        Err(e) => eprintln!("error: failed to persist counterexample trace: {e}"),
    }
    eprintln!("replay with: repro --mc-replay {}", dir.join(format!("{stem}.json")).display());
    EXIT_DEGRADED
}

/// Reproduce a recorded counterexample (`--mc-replay FILE`) under `run`;
/// returns the process exit code (3 when the violation reproduces, 0 when
/// the run now passes — i.e. the protocol was fixed).
fn run_mc_replay(run: &RunOpts, path: &Path) -> i32 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    let parsed = bench::parse_counterexample(&text).unwrap_or_else(|e| die(&e));
    let sc = bench::mc_scenario(&parsed.scenario).expect("parse validated the scenario");
    // With `--trace` the run's recorder captures the replayed run and is
    // dumped on exit like any other run's trace.
    let rep = sc.replay(&parsed.config, parsed.decisions, run);
    print!("{}", bench::mc::render_replay(&parsed.scenario, &rep));
    match rep.outcome {
        des::mc::RunOutcome::Violation { .. } => EXIT_DEGRADED,
        _ => 0,
    }
}

/// Audit every artefact of the journal's plan against the journal and the
/// files on disk, and report orphans. When anything fails the audit (a
/// plan artefact the journal never recorded counts as missing), re-run the
/// journal's own items at
/// its own scale as `--resume` would: the artefacts that verify are skipped,
/// everything else is derived, printed and persisted again, and the journal
/// is rewritten. Returns the process exit code: 0 when everything verified,
/// 3 when anything needed repair (or still fails).
fn run_fsck(opts: &mut Opts, run: &RunOpts) -> i32 {
    let dir = opts.json_dir.clone().expect("checked in parse_args");
    let st = read_journal(&dir);
    if st.fingerprint.is_empty() {
        die(&format!("no journal found in {}", dir.display()));
    }
    let (scale_name, scales) = scale_named(&st.scale)
        .unwrap_or_else(|| die(&format!("journal has unknown scale '{}'", st.scale)));

    let mut broken: Vec<&str> = Vec::new();
    for (a, verdict) in verdicts(&dir, &st) {
        let (key, stem) = (&a.key, a.stem.as_deref().unwrap_or_default());
        match verdict {
            Verdict::Verified => eprintln!("fsck: {key} ok"),
            Verdict::TextOnly => eprintln!("fsck: {key} ok (text-only, nothing persisted)"),
            Verdict::Missing => eprintln!("fsck: {key} MISSING ({stem}.json)"),
            Verdict::Corrupted => {
                eprintln!("fsck: {key} CORRUPTED ({stem}.json checksum mismatch)")
            }
            Verdict::Failed => eprintln!("fsck: {key} FAILED in the journaled run"),
        }
        if !matches!(verdict, Verdict::Verified | Verdict::TextOnly) {
            broken.push(key);
        }
    }
    // A run interrupted before its plan's end journaled only the artefacts
    // it reached; the rest of its plan is missing too.
    for key in RunPlan::from_items(&st.items, &scales, run).keys() {
        if !st.artifacts.iter().any(|a| a.key == key) {
            eprintln!("fsck: {key} MISSING (never journaled)");
            broken.push(key);
        }
    }
    // Orphans: visible JSON files the journal does not account for.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".json") {
                if !stem.starts_with(['_', '.'])
                    && !st.artifacts.iter().any(|a| a.stem.as_deref() == Some(stem))
                {
                    eprintln!("fsck: warning: orphaned artefact {name} (not in the journal)");
                }
            }
        }
    }
    if broken.is_empty() {
        eprintln!("fsck: all journaled artefacts verified");
        return 0;
    }

    eprintln!("fsck: re-deriving {} artefact(s): {}", broken.len(), broken.join(", "));
    opts.items = st.items.clone();
    opts.scale_name = scale_name;
    opts.scales = scales;
    opts.resume = true;
    if run_supervised(opts, run) == 0 {
        eprintln!("fsck: repaired {} artefact(s)", broken.len());
    } else {
        eprintln!("fsck: some artefacts could NOT be repaired");
    }
    EXIT_DEGRADED
}

fn main() {
    let mut opts = parse_args();
    let tracer = trace_recorder(&opts);
    // The run's options, decided once here (`--mc` adds each explored
    // run's controller); every simulation of the run gets them on its job
    // spec.
    let run = RunOpts {
        event_budget: opts.event_budget,
        tracer: tracer.clone().map(|rec| rec as Arc<dyn Tracer>),
        ..RunOpts::default()
    };
    let mut code = if let Some(name) = &opts.mc {
        run_mc(&opts, &run, name)
    } else if let Some(path) = &opts.mc_replay {
        run_mc_replay(&run, path)
    } else if opts.fsck {
        run_fsck(&mut opts, &run)
    } else {
        run_supervised(&opts, &run)
    };
    if let Some(rec) = tracer {
        if !dump_trace(&opts, &rec) && code == 0 {
            code = EXIT_DEGRADED;
        }
    }
    std::process::exit(code);
}
