//! The four `repro` workloads, run as child processes and timed end to end.
//!
//! A child is timed from just before `spawn` to the moment `wait4` reaps it,
//! and `wait4` also reports its peak resident set. Every child writes its
//! artefacts with `--json` into the ledger's work directory; the ledger then
//! digests the artefacts and stdout, and reads the per-cell timings from
//! `_sweep_stats.json`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bench::artifact::fnv1a64_hex;

use crate::stats::{num_at, SweepStats};

/// One workload: a fixed `repro` command from the paper's experiment plan.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `repro` arguments (the ledger appends `--json DIR`).
    pub args: &'static [&'static str],
    /// Stems of the JSON artefacts every run must write.
    pub artefacts: &'static [&'static str],
    /// The workload whose artefact and stdout bytes this one must reproduce.
    pub bytes_of: &'static str,
    /// The model-error metrics this workload's artefacts carry.
    pub errors: &'static [&'static str],
    /// Wall seconds at f558312 on a 2-CPU host. A child taking four times
    /// longer is killed and counted as failed.
    pub expect_wall_s: f64,
}

const QUICK_ARTEFACTS: &[&str] = &[
    "fig1",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "hpl_headline",
    "resilience",
    "ablate_net",
    "datacenter",
];

/// The workloads, in the order `ledger run` starts its first round with.
pub const WORKLOADS: &[Workload] = &[
    // The default command users run; it touches every layer. Flow-model
    // ablation cells take over half its cell time.
    Workload {
        name: "quick",
        args: &["--quick", "--serial"],
        artefacts: QUICK_ARTEFACTS,
        bytes_of: "quick",
        errors: &["flow_fig7_err_pct", "dc_model_err_pct"],
        expect_wall_s: 10.0,
    },
    // The same cells and bytes on 2 workers: sweep scheduling and the
    // shared timing cache under contention.
    Workload {
        name: "quick-jobs2",
        args: &["--quick", "--jobs", "2"],
        artefacts: QUICK_ARTEFACTS,
        bytes_of: "quick",
        errors: &["flow_fig7_err_pct"],
        expect_wall_s: 7.5,
    },
    // Full-scale event-model simulation: 96-node HPL plus the resilience
    // campaign's fault, timeout and restart paths; no flow model, no sched.
    Workload {
        name: "paper-full",
        args: &["--figure", "6", "--headline", "hpl", "--headline", "resilience", "--serial"],
        artefacts: &["fig6", "hpl_headline", "resilience"],
        bytes_of: "paper-full",
        errors: &["hpl_gflops_err_pct", "hpl_mflops_w_err_pct"],
        expect_wall_s: 32.0,
    },
    // Four 10^6-job scheduler replays: the sched loop does nearly all the
    // work, and this is the peak-memory workload.
    Workload {
        name: "datacenter-full",
        args: &["--headline", "datacenter", "--serial"],
        artefacts: &["datacenter"],
        bytes_of: "datacenter-full",
        errors: &["dc_model_err_pct"],
        expect_wall_s: 10.0,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--resume` re-invocations per measured workload run, each one more
/// set-up sample: `repro` starts, plans, verifies every journaled artefact,
/// computes nothing, and exits. Each takes a few milliseconds.
pub const SETUP_RESUMES: usize = 49;

/// How a child process ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Exited with this code.
    Code(i32),
    /// Killed by this signal.
    Signal(i32),
    /// Killed by the ledger at the workload's deadline.
    TimedOut,
}

/// FNV-1a 64 digests of a run's outputs: `(file, hex)` for stdout and each
/// expected artefact, in workload order; a missing artefact has no entry.
pub type Digests = Vec<(String, String)>;

/// One `repro` child process.
#[derive(Clone, Debug)]
pub struct Child {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// Peak resident set, MB (2^20 bytes).
    pub rss_mb: f64,
    /// How it ended.
    pub exit: Exit,
    /// Its `_sweep_stats.json`, when it wrote a readable one.
    pub stats: Option<SweepStats>,
    /// Its output digests.
    pub digests: Digests,
}

impl Child {
    /// Exited 0 and wrote every artefact and its stats.
    pub fn completed(&self, w: &Workload) -> bool {
        self.exit == Exit::Code(0)
            && self.stats.is_some()
            && self.digests.len() == w.artefacts.len() + 1
    }

    /// One set-up sample: child wall minus the sweep's own wall, i.e.
    /// process start, plan build, journal create and stats write.
    pub fn setup_s(&self) -> Option<f64> {
        self.stats.as_ref().map(|s| self.wall_s - s.wall_s)
    }

    /// `(attempted, failed)` cells. A quarantined cell fails; every cell of
    /// the child fails when it did not complete or its bytes differ from
    /// `reference`. A child that wrote no stats attempted `expected_cells`.
    pub fn cell_account(
        &self,
        w: &Workload,
        reference: &Digests,
        expected_cells: u64,
    ) -> (u64, u64) {
        let cells = self.stats.as_ref().map_or(expected_cells, |s| s.cells.len() as u64);
        if !self.completed(w) || &self.digests != reference {
            return (cells, cells);
        }
        (cells, self.stats.as_ref().map_or(0, |s| s.quarantined).min(cells))
    }
}

/// The `repro` binary the ledger measures: the release build in Cargo's
/// target directory (`CARGO_TARGET_DIR`, else `target`).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux's `struct rusage` on 64-bit targets: two timevals, then 14 longs
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Block until child `pid` ends; its raw wait status and peak RSS in KiB.
fn reap(pid: i32) -> io::Result<(i32, i64)> {
    let mut status = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is a child this process spawned and has not reaped
        // (std's `Child::wait` is never called on it), and both pointers
        // refer to live, writable locals of the types wait4 expects.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            return Ok((status, ru.maxrss));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Run `cmd` to completion, killing it at `limit`: `(exit, wall_s, rss_mb)`.
fn run_timed(cmd: &mut Command, limit: Duration) -> io::Result<(Exit, f64, f64)> {
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let reaped = reap(pid);
            let _ = tx.send((reaped, t0.elapsed()));
        });
        let (reaped, wall, timed_out) = match rx.recv_timeout(limit) {
            Ok((r, wall)) => (r, wall, false),
            Err(_) => {
                let _ = child.kill();
                let (r, wall) = rx.recv().expect("reaper thread reports");
                (r, wall, true)
            }
        };
        let (status, kib) = reaped?;
        let exit = match (timed_out, status & 0x7f) {
            (true, _) => Exit::TimedOut,
            (false, 0) => Exit::Code((status >> 8) & 0xff),
            (false, sig) => Exit::Signal(sig),
        };
        Ok((exit, wall.as_secs_f64(), kib as f64 / 1024.0))
    })
}

/// Run `w` once into `dir` (cleared first), or with `resume` re-verify the
/// finished run already in `dir`.
fn run_child(repro: &Path, w: &Workload, dir: &Path, resume: bool) -> io::Result<Child> {
    let json = dir.join("json");
    if !resume {
        let _ = fs::remove_dir_all(dir);
    }
    fs::create_dir_all(dir)?;
    let tag = if resume { "resume" } else { "run" };
    let mut cmd = Command::new(repro);
    cmd.args(w.args).arg("--json").arg(&json);
    if resume {
        cmd.arg("--resume");
    }
    cmd.stdin(Stdio::null())
        .stdout(fs::File::create(dir.join(format!("{tag}.stdout")))?)
        .stderr(fs::File::create(dir.join(format!("{tag}.stderr")))?);
    let limit = Duration::from_secs_f64(4.0 * w.expect_wall_s);
    let (exit, wall_s, rss_mb) = run_timed(&mut cmd, limit)?;
    let stats = fs::read_to_string(json.join("_sweep_stats.json"))
        .ok()
        .and_then(|t| SweepStats::parse(&t).ok());
    let mut digests = Vec::new();
    if let Ok(out) = fs::read(dir.join(format!("{tag}.stdout"))) {
        digests.push(("stdout".to_string(), fnv1a64_hex(&out)));
    }
    for stem in w.artefacts {
        if let Ok(bytes) = fs::read(json.join(format!("{stem}.json"))) {
            digests.push((format!("{stem}.json"), fnv1a64_hex(&bytes)));
        }
    }
    Ok(Child { wall_s, rss_mb, exit, stats, digests })
}

/// One measured run of a workload: timed children, then set-up samples.
pub struct Run {
    /// The timed children, in order.
    pub timed: Vec<Child>,
    /// Every set-up sample, timed children's first.
    pub setup_s: Vec<f64>,
    /// Whether every `--resume` child exited 0 having verified and skipped
    /// every JSON artefact (the journal and checksums agree with the bytes).
    pub resumes_verified: bool,
    /// Where the last timed child wrote its output.
    pub dir: PathBuf,
}

/// Whether another timed child goes into a run that has spent `elapsed`
/// seconds on `done` children: always the first, then only while one more,
/// at the mean wall so far, would end within half a child of `seconds`. The
/// count is thus `seconds` over the child wall, rounded, and a run on a slow
/// host stays near `seconds` long.
fn another_child(done: usize, elapsed: f64, seconds: f64) -> bool {
    done == 0 || elapsed + 0.5 * elapsed / done as f64 <= seconds
}

/// Measure `w`: timed children back to back until they fill `seconds` (one
/// child when `seconds` is 0), stopping early at the first that fails, then
/// [`SETUP_RESUMES`] `--resume` children on the last one's output.
pub fn measure(repro: &Path, w: &Workload, dir: &Path, seconds: f64) -> io::Result<Run> {
    let mut timed: Vec<Child> = Vec::new();
    let mut elapsed = 0.0;
    while another_child(timed.len(), elapsed, seconds)
        && timed.last().is_none_or(|c| c.completed(w))
    {
        let c = run_child(repro, w, dir, false)?;
        elapsed += c.wall_s;
        timed.push(c);
    }
    let mut setup_s: Vec<f64> = timed.iter().filter_map(Child::setup_s).collect();
    let mut resumes_verified = timed.last().is_some_and(|c| c.completed(w));
    if resumes_verified {
        for _ in 0..SETUP_RESUMES {
            let c = run_child(repro, w, dir, true)?;
            resumes_verified &= c.exit == Exit::Code(0)
                && c.stats.as_ref().is_some_and(|s| s.resumed_skipped == w.artefacts.len() as u64);
            setup_s.extend(c.setup_s());
        }
    }
    Ok(Run { timed, setup_s, resumes_verified, dir: dir.to_path_buf() })
}

/// A model-error metric read from the artefacts in `json` (percent).
pub fn error_metric(name: &str, json: &Path) -> Option<f64> {
    let read = |stem: &str| {
        let text = fs::read_to_string(json.join(format!("{stem}.json"))).ok()?;
        serde_json::from_str(&text).ok()
    };
    let v = match name {
        "flow_fig7_err_pct" => 100.0 * num_at(&read("ablate_net")?, &["max_rel_err_fig7"])?,
        "dc_model_err_pct" => num_at(&read("datacenter")?, &["validation", "rel_err_pct"])?,
        // The paper's 96-node Tibidabo HPL: 97 GFLOPS at 120 MFLOPS/W (§4).
        "hpl_gflops_err_pct" => {
            100.0 * (num_at(&read("hpl_headline")?, &["gflops"])? - 97.0) / 97.0
        }
        "hpl_mflops_w_err_pct" => {
            let x = num_at(&read("hpl_headline")?, &["green", "mflops_per_watt"])?;
            100.0 * (x - 120.0) / 120.0
        }
        _ => return None,
    };
    v.is_finite().then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::FIXTURE;

    fn child(exit: Exit, quarantined: u64, digest: &str) -> Child {
        let mut stats = SweepStats::parse(FIXTURE).expect("fixture parses");
        stats.quarantined = quarantined;
        let w = workload("datacenter-full").expect("workload exists");
        let mut digests = vec![("stdout".to_string(), "00".to_string())];
        digests.extend(w.artefacts.iter().map(|a| (format!("{a}.json"), digest.to_string())));
        Child { wall_s: 1.0, rss_mb: 20.0, exit, stats: Some(stats), digests }
    }

    #[test]
    fn fail_accounting() {
        let w = workload("datacenter-full").expect("workload exists");
        let reference = child(Exit::Code(0), 0, "aa").digests;
        // Clean child: 9 fixture cells attempted, none failed.
        assert_eq!(child(Exit::Code(0), 0, "aa").cell_account(w, &reference, 5), (9, 0));
        // Quarantine alone fails just the quarantined cells...
        assert_eq!(child(Exit::Code(0), 2, "aa").cell_account(w, &reference, 5), (9, 2));
        // ...but repro exits 3 on quarantine, and a non-zero exit, a signal
        // or a timeout fails every cell of the child.
        assert_eq!(child(Exit::Code(3), 2, "aa").cell_account(w, &reference, 5), (9, 9));
        assert_eq!(child(Exit::Signal(9), 0, "aa").cell_account(w, &reference, 5), (9, 9));
        assert_eq!(child(Exit::TimedOut, 0, "aa").cell_account(w, &reference, 5), (9, 9));
        // Different artefact bytes fail every cell too.
        assert_eq!(child(Exit::Code(0), 0, "bb").cell_account(w, &reference, 5), (9, 9));
        // So does a missing artefact; without stats the expected count is used.
        let mut lost = child(Exit::Code(0), 0, "aa");
        lost.digests.pop();
        assert_eq!(lost.cell_account(w, &reference, 5), (9, 9));
        lost.stats = None;
        assert_eq!(lost.cell_account(w, &reference, 5), (5, 5));
    }

    #[test]
    fn children_fill_the_run() {
        // `seconds` 0 takes exactly one child.
        assert!(another_child(0, 0.0, 0.0));
        assert!(!another_child(1, 10.0, 0.0));
        // 10 s children in 30 s: three, the third ending at 30 s.
        assert!(another_child(2, 20.0, 30.0));
        assert!(!another_child(3, 30.0, 30.0));
        // 17 s children in 30 s: two, ending at 34 s rather than 17 s.
        assert!(another_child(1, 17.0, 30.0));
        assert!(!another_child(2, 34.0, 30.0));
        // A child longer than the run: just the one.
        assert!(!another_child(1, 32.0, 30.0));
    }

    #[test]
    fn timed_child_reports_exit_wall_and_rss() {
        let (exit, wall, rss) =
            run_timed(Command::new("sh").args(["-c", "exit 7"]), Duration::from_secs(10))
                .expect("sh runs");
        assert_eq!(exit, Exit::Code(7));
        assert!(wall > 0.0 && rss > 0.0, "wall {wall} rss {rss}");
        let (exit, wall, _) = run_timed(Command::new("sleep").arg("5"), Duration::from_millis(200))
            .expect("sleep runs");
        assert_eq!(exit, Exit::TimedOut);
        assert!(wall < 4.0, "the deadline killed it: {wall}");
    }
}
