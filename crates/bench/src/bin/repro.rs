//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro --all            # everything at full scale (Fig 6 takes minutes)
//! repro --quick          # everything, Fig 6 truncated to 32 nodes
//! repro --golden         # everything, golden-test scale (seconds in debug)
//! repro --figure 6       # one figure (1, 2a, 2b, 3..7)
//! repro --table 4        # one table (1..4)
//! repro --headline hpl   # the §4 HPL/Green500 numbers (96 nodes)
//! repro --headline latency-penalty
//! repro --headline extensions   # beyond-the-paper analyses (ECC, EEE, ...)
//! repro --headline resilience   # fault injection + checkpoint/restart sweep
//! repro --headline datacenter   # multi-tenant job-stream replay (sched)
//! repro --net-model flow # fair-sharing flow-level network model everywhere
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
//! repro --trace-filter C # comma list of proc,msg,span,fault (default all)
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
//! journal `DIR/_journal.jsonl`. `--resume` skips artefacts whose journal
//! record and on-disk checksum both verify (their stdout blocks are not
//! reprinted; a note goes to stderr). `--fsck` audits the directory against
//! the journal — truncated, corrupted, or missing artefacts are re-derived,
//! orphaned JSON files are reported — and exits 3 when anything needed
//! repair. Wall-clock and timing-cache statistics — the only
//! nondeterministic outputs — go to stderr and, with `--json`, to
//! `_sweep_stats.json` (underscore-prefixed so artefact diffs exclude it,
//! like the journal).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bench::artifact::checksum_on_disk;
use bench::journal::{run_fingerprint, Journal};
use bench::{
    read_journal, run_plan, write_json_atomic, ArtefactOutcome, CellOutcome, McOverrides, RunPlan,
    RunScales, WriteOutcome,
};
use des::{RingRecorder, TraceFilter, Tracer};
use simmpi::{NetModel, RunOpts};

struct Opts {
    items: Vec<String>,
    scales: RunScales,
    /// Scale name entering the run fingerprint (`golden`/`quick`/`full`,
    /// with a `+flow` suffix under `--net-model flow` — the artefacts of the
    /// two models must never verify against each other on `--resume`).
    scale_name: String,
    /// `--net-model`, when given.
    net_model: Option<NetModel>,
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
  --net-model NAME       network model for every simulation: event
                         (per-message store-and-forward, the default) |
                         flow (max-min fair-sharing flow-level throughput)
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
                         proc, msg, span, fault (default: all)

model checking:
  --mc SCENARIO          bounded model-check one resilience protocol:
                         retry-lossy | retry-lossy-broken | ckpt-crash |
                         spare-race; a violation exits 3 and writes a
                         replayable counterexample plus its trace (to
                         --json DIR, default repro_out)
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
    let mut trace_filter = TraceFilter::ALL;
    let mut mc = None;
    let mut mc_replay = None;
    let mut mc_overrides = McOverrides::default();
    let mut net_model: Option<NetModel> = None;
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
            "--net-model" => {
                let v = value(&mut args, "--net-model");
                net_model = Some(NetModel::parse(&v).unwrap_or_else(|e| die(&e)));
            }
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
                trace_filter = TraceFilter::parse(&v).unwrap_or_else(|e| die(&e));
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
    let (scales, base_scale) = if golden {
        (RunScales::golden(), "golden")
    } else if quick {
        (RunScales::quick(), "quick")
    } else {
        (RunScales::full(), "full")
    };
    // The fingerprint must distinguish the models: a flow-model run may not
    // --resume past artefacts an event-model run journaled, and vice versa.
    let scale_name = match net_model {
        Some(NetModel::Flow) => format!("{base_scale}+flow"),
        _ => base_scale.to_string(),
    };
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
        net_model,
        json_dir,
        jobs,
        wall_limit,
        resume,
        fsck,
        event_budget,
        inject_panic,
        trace_path,
        trace_filter,
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

/// Map a journaled scale name (without any `+flow` suffix) back to its
/// scales.
fn scales_by_name(name: &str) -> Option<RunScales> {
    match name {
        "golden" => Some(RunScales::golden()),
        "quick" => Some(RunScales::quick()),
        "full" => Some(RunScales::full()),
        _ => None,
    }
}

/// The artefacts of `items` to skip on `--resume`: journaled as ok, JSON on
/// disk, checksum verified. Returns `(key, stem, bytes, checksum)` tuples.
fn verified_artifacts(
    dir: &Path,
    items: &[String],
    scale_name: &str,
) -> Vec<(String, String, u64, String)> {
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
    st.artifacts
        .iter()
        .filter(|a| a.ok)
        .filter_map(|a| {
            let stem = a.stem.clone()?;
            let want = a.checksum.clone()?;
            (checksum_on_disk(dir, &stem).as_ref() == Some(&want))
                .then(|| (a.key.clone(), stem, a.bytes, want))
        })
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
        (Some(dir), true) => verified_artifacts(dir, &opts.items, &opts.scale_name),
        _ => Vec::new(),
    };
    let skip = |key: &'static str| verified.iter().any(|(k, _, _, _)| k == key);

    // The journal is (re)created up front: a resumed run re-journals the
    // verified artefacts it skips, so the journal always describes the
    // directory as it stands. A journal that cannot be written degrades the
    // run but does not stop it.
    let mut degraded = false;
    let mut journal = match &opts.json_dir {
        Some(dir) => match Journal::create(dir, &opts.items, &opts.scale_name) {
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
                // The resilience study is the one artefact with a default
                // JSON home: it documents a full fault-injection campaign,
                // so it is persisted even without --json.
                let target = match (&opts.json_dir, art.key) {
                    (Some(dir), _) => Some(dir.clone()),
                    (None, "resilience") => Some(PathBuf::from("repro_out")),
                    (None, _) => None,
                };
                match (&out.json, target) {
                    (Some((stem, content)), Some(dir)) => {
                        match write_json_atomic(&dir, stem, content) {
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
                if let Some((_, stem, bytes, checksum)) =
                    verified.iter().find(|(k, _, _, _)| k == art.key)
                {
                    journal_try!(
                        |j: &mut Journal| j.artifact_json(art.key, stem, *bytes, checksum, true,)
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
/// On violation, the minimized counterexample is replayed once with a
/// dedicated recorder to persist a replayable decision file plus its
/// structured trace.
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

    // Persist the counterexample artefacts: a replayable decision file and
    // the trace of the minimized failing schedule.
    let dir = opts.json_dir.clone().unwrap_or_else(|| PathBuf::from("repro_out"));
    let rec = Arc::new(RingRecorder::with_capacity(TRACE_CAPACITY).with_filter(opts.trace_filter));
    let traced = RunOpts { tracer: Some(rec.clone()), ..run.clone() };
    let replayed = sc.replay(&cfg, ce.decisions.clone(), &traced);
    if let Some(d) = &replayed.divergence {
        eprintln!("warning: counterexample replay diverged: {d}");
    }
    let stem = format!("mc_{name}_counterexample");
    match write_json_atomic(&dir, &stem, &bench::counterexample_json(name, &cfg, ce)) {
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

/// Verify every journaled artefact against the files on disk, re-derive the
/// broken ones under `run`, and report orphans. Returns the process exit
/// code: 0 when everything verified, 3 when anything needed repair (or still
/// fails).
fn run_fsck(opts: &Opts, run: &RunOpts) -> i32 {
    let dir = opts.json_dir.as_ref().expect("checked in parse_args");
    let st = read_journal(dir);
    if st.fingerprint.is_empty() {
        die(&format!("no journal found in {}", dir.display()));
    }
    // A `+flow` scale name marks a `--net-model flow` run: re-derive its
    // artefacts under the model that produced them.
    let (base_scale, run) = match st.scale.strip_suffix("+flow") {
        Some(base) => (base, RunOpts { net_model: NetModel::Flow, ..run.clone() }),
        None => (st.scale.as_str(), run.clone()),
    };
    let scales = scales_by_name(base_scale)
        .unwrap_or_else(|| die(&format!("journal has unknown scale '{}'", st.scale)));

    let mut broken: Vec<String> = Vec::new();
    let mut stems_in_journal: Vec<String> = Vec::new();
    for a in &st.artifacts {
        match (&a.stem, &a.checksum, a.ok) {
            (Some(stem), Some(want), true) => {
                stems_in_journal.push(stem.clone());
                match checksum_on_disk(dir, stem) {
                    Some(got) if &got == want => eprintln!("fsck: {} ok", a.key),
                    Some(_) => {
                        eprintln!("fsck: {} CORRUPTED ({stem}.json checksum mismatch)", a.key);
                        broken.push(a.key.clone());
                    }
                    None => {
                        eprintln!("fsck: {} MISSING ({stem}.json)", a.key);
                        broken.push(a.key.clone());
                    }
                }
            }
            (_, _, false) => {
                eprintln!("fsck: {} FAILED in the journaled run", a.key);
                broken.push(a.key.clone());
            }
            _ => eprintln!("fsck: {} ok (text-only, nothing persisted)", a.key),
        }
    }
    // Orphans: visible JSON files the journal does not account for.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".json") {
                if !stem.starts_with(['_', '.']) && !stems_in_journal.iter().any(|s| s == stem) {
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
    let plan = RunPlan::from_items(&broken, &scales, &run);
    let mut journal = match Journal::open_append(dir) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("error: cannot append to journal: {e}");
            None
        }
    };
    let mut repair_failed = false;
    run_plan(plan, opts.jobs, opts.wall_limit, &|_| false, |art| match &art.outcome {
        ArtefactOutcome::Completed(out) => {
            if let Some((stem, content)) = &out.json {
                match write_json_atomic(dir, stem, content) {
                    Ok((_, checksum)) => {
                        eprintln!(
                            "fsck: re-derived {}",
                            dir.join(format!("{stem}.json")).display()
                        );
                        // A failed journal append leaves the repaired file
                        // verifiable on disk; only a failed write is a
                        // failed repair.
                        if let Some(j) = journal.as_mut() {
                            let _ = j.artifact_json(
                                art.key,
                                stem,
                                content.len() as u64,
                                &checksum,
                                false,
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("error: failed to persist re-derived {}: {e}", art.key);
                        repair_failed = true;
                    }
                }
            }
        }
        ArtefactOutcome::Skipped => unreachable!("fsck skips nothing"),
        ArtefactOutcome::Failed => {
            eprintln!("error: artefact {} still fails to derive:", art.key);
            for (label, brief) in art.quarantined() {
                eprintln!("  {label}: {brief}");
            }
            repair_failed = true;
        }
    });
    if repair_failed {
        eprintln!("fsck: some artefacts could NOT be repaired");
    } else {
        eprintln!("fsck: repaired {} artefact(s)", broken.len());
    }
    EXIT_DEGRADED
}

fn main() {
    let opts = parse_args();
    if let Some(model) = opts.net_model {
        eprintln!("network model: {}", model.name());
    }
    let tracer = trace_recorder(&opts);
    // The run's options, decided once here (`--fsck` takes the network
    // model from the journal instead, and `--mc` adds each explored run's
    // controller); every simulation of the run gets them on its job spec.
    let run = RunOpts {
        net_model: opts.net_model.unwrap_or_default(),
        event_budget: opts.event_budget,
        tracer: tracer.clone().map(|rec| rec as Arc<dyn Tracer>),
        mc: None,
    };
    let mut code = if let Some(name) = &opts.mc {
        run_mc(&opts, &run, name)
    } else if let Some(path) = &opts.mc_replay {
        run_mc_replay(&run, path)
    } else if opts.fsck {
        run_fsck(&opts, &run)
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
