//! CLI contract of the `repro` binary: the `--help` text (snapshotted —
//! EXPERIMENTS.md documents the same flags, change both together), and the
//! exit-code discipline (0 help, 2 usage errors).

use std::path::Path;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

#[test]
fn help_exits_zero_and_matches_the_snapshot() {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("help is UTF-8");
    // Every documented flag appears; the wording is pinned by key phrases so
    // incidental reformatting doesn't break the world, but a flag rename or
    // an exit-code change does.
    for flag in [
        "--all",
        "--figure N",
        "--table N",
        "--headline NAME",
        "--quick",
        "--golden",
        "--jobs N",
        "--serial",
        "--max-cell-seconds S",
        "--max-cell-events N",
        "--inject-panic S",
        "--json DIR",
        "--resume",
        "--fsck",
        "--trace PATH",
        "--trace-filter C",
        "--mc SCENARIO",
        "--mc-replay FILE",
        "--mc-max-states N",
        "--mc-max-depth N",
        "--net-model NAME",
        "--ablate-net",
    ] {
        assert!(text.contains(flag), "--help lost flag '{flag}':\n{text}");
    }
    for phrase in [
        "0  clean run",
        "2  usage error",
        "3  degraded",
        "docs/TRACE_FORMAT.md",
        "trace2flame",
        "proc, msg, span, fault",
        "model checking:",
        "retry-lossy-broken",
        "spare-race",
        "max-min fair-sharing flow-level throughput",
        "per-figure accuracy-delta table",
        "datacenter (multi-tenant job-stream replay",
    ] {
        assert!(text.contains(phrase), "--help lost phrase '{phrase}':\n{text}");
    }
    assert!(repro(&["-h"]).status.success(), "-h is an alias for --help");
}

#[test]
fn unknown_arguments_exit_two() {
    for args in [
        &["--bogus"][..],
        &["--figure", "99"],
        &["--trace-filter", "nonsense"],
        &["--net-model", "warp"],
        // Retired with the sharded engine and its window checkpoints.
        &["--shards", "2"],
        &["--ckpt-every", "4"],
        &["--ckpt-dir", "d"],
        // Retired when cells began to run exactly once.
        &["--retries", "2"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(!out.stderr.is_empty(), "{args:?} must explain itself on stderr");
    }
}

#[test]
fn contradictory_flags_exit_two() {
    assert_eq!(repro(&["--serial", "--jobs", "4"]).status.code(), Some(2));
    assert_eq!(repro(&["--resume"]).status.code(), Some(2), "--resume needs --json");
    assert_eq!(repro(&["--fsck"]).status.code(), Some(2), "--fsck needs --json");
}

#[test]
fn mc_usage_errors_exit_two() {
    for args in [
        &["--mc", "no-such-scenario"][..],
        &["--mc", "ckpt-crash", "--mc-replay", "x.json"],
        &["--mc", "ckpt-crash", "--figure", "7"],
        &["--mc-max-states", "1000"],
        &["--mc", "ckpt-crash", "--mc-max-depth", "0"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(!out.stderr.is_empty(), "{args:?} must explain itself on stderr");
    }
}

#[test]
fn flow_model_runs_are_byte_identical_across_processes() {
    // Two *independent processes* running the same golden figure under the
    // flow-level network model must write byte-identical JSON: the flow
    // fast path may keep no process-lifetime state (allocator addresses,
    // hash seeds, id counters) that leaks into artefact bytes. In-process
    // determinism is covered by tests/determinism.rs; this is the stronger
    // cross-process form.
    let dirs: Vec<_> = (0..2)
        .map(|run| {
            std::env::temp_dir().join(format!("repro_flow_det_{}_{run}", std::process::id()))
        })
        .collect();
    let mut jsons = Vec::new();
    for (run, dir) in dirs.iter().enumerate() {
        std::fs::create_dir_all(dir).expect("create artefact dir");
        let out = repro(&[
            "--golden",
            "--figure",
            "6",
            "--net-model",
            "flow",
            "--serial",
            "--json",
            dir.to_str().expect("tmp path is UTF-8"),
        ]);
        assert!(
            out.status.success(),
            "flow-model run {run} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        jsons.push(std::fs::read(dir.join("fig6.json")).expect("fig6.json written"));
    }
    assert_eq!(jsons[0], jsons[1], "flow-model fig6.json diverged between processes");

    // The flag took effect: the event-model golden has different bytes.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/fig6.json");
    let golden = std::fs::read(golden).expect("fig6 golden");
    assert_ne!(jsons[0], golden, "--net-model flow wrote the event-model fig6.json");

    // `--fsck` re-derives a lost artefact under the model its journal
    // records, with no `--net-model` flag on its own command line.
    let dir = &dirs[1];
    std::fs::remove_file(dir.join("fig6.json")).expect("delete fig6.json");
    let out = repro(&["--fsck", "--json", dir.to_str().expect("tmp path is UTF-8")]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a repaired run exits 3:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let repaired = std::fs::read(dir.join("fig6.json")).expect("fsck re-derived fig6.json");
    assert_eq!(repaired, jsons[0], "--fsck re-derived fig6.json under the wrong model");
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}
