//! CLI contract of the `repro` binary: the `--help` text (snapshotted —
//! EXPERIMENTS.md documents the same flags, change both together), the
//! exit-code discipline (0 help, 2 usage errors), and what it persists:
//! nothing without `--json`, and a journal `--fsck` repairs in place.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

/// A fresh, empty directory for one test.
fn empty_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("repro_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create test dir");
    d
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
        // Retired with the sharded engine and its window checkpoints.
        &["--shards", "2"],
        &["--ckpt-every", "4"],
        &["--ckpt-dir", "d"],
        // Retired when cells began to run exactly once.
        &["--retries", "2"],
        // Retired: only the ablation's cells choose a network model.
        &["--net-model", "flow"],
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
    // The filter acts only on the `--trace` recorder and on `--mc`'s
    // counterexample trace; without either it would be silently ignored.
    let filter_only = repro(&["--table", "1", "--trace-filter", "msg"]);
    assert_eq!(filter_only.status.code(), Some(2), "--trace-filter needs --trace or --mc");
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
    // Two *independent processes* running the network-model ablation, whose
    // flow side is the one place `repro` runs the flow-level model, must
    // write byte-identical JSON equal to the committed golden: the flow
    // model may keep no process-lifetime state (allocator addresses, hash
    // seeds, id counters) that leaks into artefact bytes. In-process
    // determinism is covered by tests/determinism.rs; this is the stronger
    // cross-process form.
    let dirs: Vec<_> = (0..2)
        .map(|run| {
            std::env::temp_dir().join(format!("repro_flow_det_{}_{run}", std::process::id()))
        })
        .collect();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens");
    for (run, dir) in dirs.iter().enumerate() {
        std::fs::create_dir_all(dir).expect("create artefact dir");
        let out = repro(&[
            "--golden",
            "--ablate-net",
            "--serial",
            "--json",
            dir.to_str().expect("tmp path is UTF-8"),
        ]);
        assert!(
            out.status.success(),
            "ablation run {run} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let jsons: Vec<_> = dirs
        .iter()
        .map(|dir| std::fs::read(dir.join("ablate_net.json")).expect("ablate_net.json written"))
        .collect();
    assert_eq!(jsons[0], jsons[1], "ablate_net.json diverged between processes");
    let want = std::fs::read(golden.join("ablate_net.json")).expect("ablate_net golden");
    assert_eq!(jsons[0], want, "ablate_net.json differs from its golden");

    // `--fsck` re-derives a lost artefact from the journal alone.
    let dir = &dirs[1];
    let dir_arg = dir.to_str().expect("tmp path is UTF-8");
    let out = repro(&["--golden", "--figure", "6", "--serial", "--json", dir_arg]);
    assert!(out.status.success(), "fig6 run failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let fig6 = std::fs::read(dir.join("fig6.json")).expect("fig6.json written");
    assert_eq!(fig6, std::fs::read(golden.join("fig6.json")).expect("fig6 golden"));
    std::fs::remove_file(dir.join("fig6.json")).expect("delete fig6.json");
    let out = repro(&["--fsck", "--json", dir_arg]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a repaired run exits 3:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let repaired = std::fs::read(dir.join("fig6.json")).expect("fsck re-derived fig6.json");
    assert_eq!(repaired, fig6, "--fsck re-derived different fig6.json bytes");
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn a_run_without_json_persists_nothing() {
    // The resilience study used to land in `./repro_out` when no `--json`
    // was given; now no artefact has a default home.
    let cwd = empty_dir("no_json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--golden", "--headline", "resilience", "--serial"])
        .current_dir(&cwd)
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty(), "the study still prints its table");
    let left: Vec<_> = std::fs::read_dir(&cwd).expect("read cwd").flatten().collect();
    assert!(left.is_empty(), "a run without --json wrote {left:?}");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn fsck_repairs_through_resume_and_rewrites_the_journal() {
    let dir = empty_dir("fsck");
    let dir_arg = dir.to_str().expect("tmp path is UTF-8");
    let run = ["--golden", "--figure", "1", "--figure", "5", "--table", "1", "--serial"];
    let first = repro(&[&run[..], &["--json", dir_arg]].concat());
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let read = |stem: &str| std::fs::read(dir.join(format!("{stem}.json"))).expect(stem);
    let (fig1, fig5) = (read("fig1"), read("fig5"));

    // Corrupt one journaled artefact and delete another.
    std::fs::write(dir.join("fig1.json"), &fig1[..fig1.len() / 2]).expect("truncate fig1");
    std::fs::remove_file(dir.join("fig5.json")).expect("delete fig5");
    let fsck = repro(&["--fsck", "--json", dir_arg]);
    let stderr = String::from_utf8_lossy(&fsck.stderr);
    assert_eq!(fsck.status.code(), Some(3), "a repaired directory exits 3:\n{stderr}");
    assert!(stderr.contains("fig1 CORRUPTED") && stderr.contains("fig5 MISSING"), "{stderr}");
    assert_eq!(read("fig1"), fig1, "--fsck re-derived different fig1.json bytes");
    assert_eq!(read("fig5"), fig5, "--fsck re-derived different fig5.json bytes");
    // The journal was rewritten, not appended to: one record per artefact.
    let journal = std::fs::read_to_string(dir.join("_journal.jsonl")).expect("journal");
    for key in ["fig1", "fig5", "table1"] {
        let needle = format!("\"kind\":\"artifact\",\"key\":\"{key}\"");
        assert_eq!(journal.matches(&needle).count(), 1, "{key} records in:\n{journal}");
    }
    // It re-ran everything but what verified (nothing here), so it printed
    // exactly what the first run printed.
    assert!(fsck.stdout == first.stdout, "--fsck must print the blocks it re-derives");

    // A resume of the original command now trusts both JSON artefacts.
    let resume = repro(&[&run[..], &["--json", dir_arg, "--resume"]].concat());
    assert_eq!(resume.status.code(), Some(0), "{}", String::from_utf8_lossy(&resume.stderr));
    let stats = std::fs::read_to_string(dir.join("_sweep_stats.json")).expect("sweep stats");
    assert!(stats.contains("\"resumed_skipped\": 2,"), "{stats}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_rederives_what_an_interrupted_run_never_journaled() {
    let dir = empty_dir("fsck_cut");
    let dir_arg = dir.to_str().expect("tmp path is UTF-8");
    let run = [
        "--golden", "--figure", "1", "--figure", "2a", "--figure", "2b", "--figure", "5",
        "--table", "1", "--table", "2", "--serial",
    ];
    let first = repro(&[&run[..], &["--json", dir_arg]].concat());
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let fig5 = std::fs::read(dir.join("fig5.json")).expect("fig5");

    // Leave the directory as a run killed after its third artefact would:
    // the journal ends with that artefact's record (fig2b), and no later
    // artefact (table1, table2, fig5) reached the disk.
    let journal_path = dir.join("_journal.jsonl");
    let journal = std::fs::read_to_string(&journal_path).expect("journal");
    let (third, _) = journal.match_indices("\"kind\":\"artifact\"").nth(2).expect("3 artefacts");
    let cut = third + journal[third..].find('\n').expect("whole record") + 1;
    let last = journal[..cut].lines().last().expect("a record");
    assert!(last.contains("\"kind\":\"artifact\",\"key\":\"fig2b\""), "{last}");
    std::fs::write(&journal_path, &journal[..cut]).expect("cut journal");
    std::fs::remove_file(dir.join("fig5.json")).expect("delete fig5");

    let fsck = repro(&["--fsck", "--json", dir_arg]);
    let stderr = String::from_utf8_lossy(&fsck.stderr);
    assert_eq!(fsck.status.code(), Some(3), "an interrupted run is not clean:\n{stderr}");
    for key in ["table1", "table2", "fig5"] {
        assert!(stderr.contains(&format!("fsck: {key} MISSING")), "{key}:\n{stderr}");
    }
    assert_eq!(std::fs::read(dir.join("fig5.json")).expect("fig5 re-derived"), fig5);
    let again = repro(&["--fsck", "--json", dir_arg]);
    assert_eq!(again.status.code(), Some(0), "{}", String::from_utf8_lossy(&again.stderr));
    std::fs::remove_dir_all(&dir).ok();
}
