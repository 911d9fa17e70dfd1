//! `ledger` — the performance ledger of the `repro` binary: the wall time of
//! what users run, end to end, and where that time goes, layer by layer.
//!
//! ```text
//! bash crates/bench/src/bin/ledger/run.sh --workload quick --seed 2013 --seconds 30 --trace 0
//! bash crates/bench/src/bin/ledger/run.sh run [--out FILE] [--repeats K] [--seed N]
//! bash crates/bench/src/bin/ledger/run.sh compare BASE.json NEW.json
//! ```
//!
//! `run.sh` builds `repro` and the ledger in release mode, then runs the
//! ledger from the repository root. The first form is one benchmark run of
//! one workload (the `BENCHMARK.json` contract): it times `repro` children
//! for `--seconds`, checks their outputs, and prints one JSON object as the
//! last line of stdout — the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. `run` measures every workload in `--repeats` rotated
//! rounds, then makes one traced probe pass, and writes `results.json` plus
//! `ledger_trace.jsonl`. `compare` judges two such files. README.md
//! documents every metric, the workloads and both file formats.
//!
//! # Stable surface
//!
//! The layer probes call only `des::Engine::new`/`spawn_process`/`run`,
//! `simmpi::run_mpi`, `JobSpec::new`/`with_net_model`,
//! `cluster::Machine::tibidabo*`/`job`, the `sched` replay types
//! (`SyntheticSpec`, `RuntimeModel`, `DcSim` and its policies, with
//! `des::FaultPlan`), `soc_arch::cached_kernel_time`/`kernel_time`/
//! `cache_counters`, `bench::write_json_atomic` and `bench::Journal`, and
//! the outputs are digested with `bench::artifact::fnv1a64_hex`. They
//! never call `set_default_*`, `with_shards`, `Engine::spawn` or any `try_*`
//! function: open roadmap items may delete those, and this directory must
//! keep building unedited. For the same reason no workload passes
//! `--shards` or `--ckpt-every`.

mod compare;
mod metrics;
mod probes;
mod results;
mod stats;
mod workload;

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use metrics::{median, metric, quartiles};
use results::{BenchSpec, Group, Results};
use workload::{error_metric, measure, target_dir, workload, Digests, Run, Workload, WORKLOADS};

const USAGE: &str = "\
usage: ledger --workload NAME --seed N --seconds S --trace 0|1
       ledger run [--out FILE] [--repeats K] [--seed N]
       ledger compare BASE.json NEW.json
workloads: quick, quick-jobs2, paper-full, datacenter-full
";

/// Seed of the `sched` probe's stream when none is given (the
/// `datacenter` artefact's own stream seed).
const DEFAULT_SEED: u64 = 2013;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("--help" | "-h") => {
            print!("{USAGE}");
            Ok(0)
        }
        _ => cmd_bench(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `--flag value` pairs; `known` lists the accepted flags.
fn flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(flag.clone(), value.clone());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    f: &HashMap<String, String>,
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(flag) {
        Some(v) => v.parse().map_err(|_| format!("bad {flag} value '{v}'")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    }
}

/// The release `repro` build the ledger measures.
fn repro_path() -> Result<PathBuf, String> {
    let p = target_dir().join("release").join("repro");
    if p.is_file() {
        Ok(p)
    } else {
        Err(format!("{} not found: build it with `cargo build --release -p bench`", p.display()))
    }
}

/// The digests and cell count each workload's outputs must reproduce,
/// keyed by [`Workload::bytes_of`]: set by the first child that completes.
#[derive(Default)]
struct References(HashMap<&'static str, (Digests, u64)>);

impl References {
    /// `(attempted, failed)` cells over the timed children of `run`.
    fn account(&mut self, w: &Workload, run: &Run) -> (u64, u64) {
        let mut total = (0, 0);
        for c in &run.timed {
            if !self.0.contains_key(w.bytes_of) && c.completed(w) {
                let cells = c.stats.as_ref().map_or(0, |s| s.cells.len() as u64);
                self.0.insert(w.bytes_of, (c.digests.clone(), cells));
            }
            let (attempted, failed) = match self.0.get(w.bytes_of) {
                Some((digests, cells)) => c.cell_account(w, digests, *cells),
                None => c.cell_account(w, &Vec::new(), 1),
            };
            total = (total.0 + attempted, total.1 + failed);
        }
        total
    }
}

/// The metrics one measured run of `w` yields, each the median over the
/// run's samples: wall time, set-up, peak RSS, model errors, and per-layer
/// host time from the sweep stats. `None` for a model error the artefacts
/// lack.
fn run_metrics(w: &Workload, run: &Run) -> Vec<(&'static str, Option<f64>)> {
    let walls: Vec<f64> = run.timed.iter().map(|c| c.wall_s).collect();
    let rss: Vec<f64> = run.timed.iter().map(|c| c.rss_mb).collect();
    let mut out = vec![
        ("wall_s", Some(median(&walls))),
        ("setup_s", (!run.setup_s.is_empty()).then(|| median(&run.setup_s))),
        ("peak_rss_mb", Some(median(&rss))),
    ];
    out.extend(w.errors.iter().map(|&e| (e, error_metric(e, &run.dir.join("json")))));
    let mut per_layer: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for st in run.timed.iter().filter_map(|c| c.stats.as_ref()) {
        for (name, x) in st.bench_metrics().into_iter().chain(st.layer_cells()) {
            match per_layer.iter_mut().find(|(n, _)| *n == name) {
                Some((_, xs)) => xs.push(x),
                None => per_layer.push((name, vec![x])),
            }
        }
    }
    out.extend(per_layer.into_iter().map(|(n, xs)| (n, Some(median(&xs)))));
    out
}

/// The JSON artefacts a finished run wrote, as `(stem, content)`.
fn read_artefacts(w: &Workload, json: &Path) -> Result<Vec<(String, String)>, String> {
    w.artefacts
        .iter()
        .map(|stem| {
            let path = json.join(format!("{stem}.json"));
            fs::read_to_string(&path)
                .map(|t| (stem.to_string(), t))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Run the probes in a fresh trace and write it to `trace_path`.
fn traced_probes(
    seed: u64,
    artefacts: &[(String, String)],
    work: &Path,
    trace_path: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut tr = probes::Trace::new();
    let out = probes::run_probes(&mut tr, seed, artefacts, &work.join("probes"));
    fs::write(trace_path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(out)
}

fn unit(name: &str) -> &'static str {
    metric(name).map_or("", |m| m.unit)
}

/// One benchmark run of one workload (the `BENCHMARK.json` contract).
fn cmd_bench(args: &[String]) -> Result<i32, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = parsed(&f, "--workload", None)?;
    let w = workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = parsed(&f, "--seed", Some(DEFAULT_SEED))?;
    let seconds: f64 = parsed(&f, "--seconds", Some(30.0))?;
    let trace = match parsed::<u8>(&f, "--trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace value '{t}'")),
    };
    let spec = BenchSpec::load()?;
    let repro = repro_path()?;
    let work = target_dir().join("ledger");
    let run = measure(&repro, w, &work.join(w.name), seconds).map_err(|e| e.to_string())?;
    let (attempted, failed) = References::default().account(w, &run);
    let mut values = run_metrics(w, &run);
    let errors_ok = values.iter().filter(|(n, _)| w.errors.contains(n)).all(|(_, v)| v.is_some());
    let correct = failed == 0 && run.resumes_verified && errors_ok;

    let names: Vec<&str> = if trace {
        let artefacts = read_artefacts(w, &run.dir.join("json"))?;
        let probed = traced_probes(seed, &artefacts, &work, &work.join("ledger_trace.jsonl"))?;
        values.extend(probed.into_iter().map(|(n, x)| (n, Some(x))));
        spec.per_layer.iter().map(String::as_str).collect()
    } else {
        spec.end_to_end.iter().map(|e| e.0.as_str()).collect()
    };
    let mut metrics = Vec::new();
    for name in names {
        let v = values.iter().find(|(n, _)| *n == name).and_then(|(_, v)| *v);
        let v = v.ok_or_else(|| format!("workload {} yields no {name}", w.name))?;
        eprintln!("{:<16} {name:<28} {v:>16.6} {}", w.name, unit(name));
        metrics.push((
            name.to_string(),
            serde_json::Value::Object(vec![
                ("value".into(), serde_json::Value::Float(v)),
                ("unit".into(), serde_json::Value::String(unit(name).into())),
            ]),
        ));
    }
    eprintln!(
        "{} timed run(s), {} set-up sample(s), {failed}/{attempted} cells failed, correct: {correct}",
        run.timed.len(),
        run.setup_s.len()
    );
    let line = serde_json::Value::Object(vec![
        ("correct".into(), serde_json::Value::Bool(correct)),
        ("attempted".into(), serde_json::Value::UInt(attempted.max(1))),
        ("failed".into(), serde_json::Value::UInt(failed)),
        ("metrics".into(), serde_json::Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("result serialises"));
    Ok(0)
}

/// The output of a command, trimmed, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Every workload, `--repeats` rotated rounds, then one traced probe pass.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let f = flags(args, &["--out", "--repeats", "--seed"])?;
    let work = target_dir().join("ledger");
    let out: PathBuf = parsed(&f, "--out", Some(work.join("results.json")))?;
    let repeats: usize = parsed(&f, "--repeats", Some(3))?;
    let seed: u64 = parsed(&f, "--seed", Some(DEFAULT_SEED))?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    // Fail on an unwritable --out before minutes of measurement, not after.
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let repro = repro_path()?;
    let mut refs = References::default();
    let mut groups: Vec<Group> = WORKLOADS
        .iter()
        .map(|w| Group {
            name: w.name.into(),
            args: w.args.iter().map(|a| a.to_string()).collect(),
            ..Group::default()
        })
        .collect();

    // Untimed warm-up: page cache, CPU frequency, and the byte reference
    // both quick workloads must reproduce.
    let quick = &WORKLOADS[0];
    eprintln!("warm-up: {}", quick.name);
    let warm = measure(&repro, quick, &work.join(quick.name), 0.0).map_err(|e| e.to_string())?;
    refs.account(quick, &warm);

    let mut all_correct = true;
    for round in 0..repeats {
        for i in 0..WORKLOADS.len() {
            let k = (i + round) % WORKLOADS.len();
            let w = &WORKLOADS[k];
            let run = measure(&repro, w, &work.join(w.name), 0.0).map_err(|e| e.to_string())?;
            let (attempted, failed) = refs.account(w, &run);
            let g = &mut groups[k];
            g.attempted += attempted;
            g.failed += failed;
            g.push("fail_frac", failed as f64 / attempted.max(1) as f64);
            all_correct &= run.resumes_verified;
            for (name, v) in run_metrics(w, &run) {
                match v {
                    Some(x) => g.push(name, x),
                    None => all_correct = false,
                }
            }
            eprintln!(
                "round {}/{repeats} {:<16} {:>8.3} s  {failed}/{attempted} cells failed",
                round + 1,
                w.name,
                run.timed[0].wall_s
            );
        }
    }
    for (g, w) in groups.iter_mut().zip(WORKLOADS) {
        g.artefacts = refs.0.get(w.bytes_of).map(|r| r.0.clone()).unwrap_or_default();
    }

    eprintln!("traced probe pass (seed {seed}) ...");
    let artefacts = read_artefacts(quick, &work.join(quick.name).join("json"))?;
    let trace_path = out.with_file_name("ledger_trace.jsonl");
    let mut probes = Group { name: "probes".into(), ..Group::default() };
    for (name, x) in traced_probes(seed, &artefacts, &work, &trace_path)? {
        probes.push(name, x);
    }
    groups.push(probes);

    let results = Results {
        commit: command_output("git", &["rev-parse", "HEAD"]),
        date: command_output("date", &["-u", "+%Y-%m-%d"]),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        repeats: repeats as u64,
        seed,
        groups,
    };
    println!(
        "{:<16} {:<30} {:>8} {:>14} {:>14} {:>14}  n",
        "workload", "metric", "unit", "median", "q1", "q3"
    );
    for g in &results.groups {
        for (name, xs) in &g.metrics {
            let (q1, q3) = quartiles(xs);
            println!(
                "{:<16} {name:<30} {:>8} {:>14.6} {:>14.6} {:>14.6}  {}",
                g.name,
                unit(name),
                median(xs),
                q1,
                q3,
                xs.len()
            );
        }
    }
    fs::write(&out, results.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {} and {}", out.display(), trace_path.display());
    let failed: u64 = results.groups.iter().map(|g| g.failed).sum();
    Ok(if failed == 0 && all_correct { 0 } else { 3 })
}

/// Judge NEW against BASE with the `BENCHMARK.json` bounds; exit 1 on any
/// "worse".
fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [base, new] = args else { return Err("compare needs BASE.json and NEW.json".into()) };
    let load = |p: &String| {
        fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Results::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let worse = compare::compare(&BenchSpec::load()?, &load(base)?, &load(new)?)?;
    Ok(i32::from(worse))
}
