//! Integration tests for the supervised-sweep persistence layer: the
//! prefix-tolerance property of the run journal, and the end-to-end
//! `--resume` contract — after an interrupted run or a truncated artefact,
//! resuming re-derives exactly the missing bytes and skips the verified
//! rest.

use std::path::{Path, PathBuf};

use bench::artifact::checksum_on_disk;
use bench::journal::{parse_journal, run_fingerprint, Journal, JOURNAL_FILE};
use bench::{read_journal, run_plan, write_json_atomic, ArtefactOutcome, RunPlan, RunScales};
use proptest::prelude::*;
use simmpi::RunOpts;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bench_itest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Build a representative journal (mixed record kinds, failures, repairs)
/// and return its exact on-disk bytes.
fn example_journal(dir: &Path, items: &[String]) -> Vec<u8> {
    let mut j = Journal::create(dir, items, "golden").unwrap();
    j.cell("fig5", "fig5/tegra2", "ok", 1, 0.8, None).unwrap();
    j.cell("fig5", "fig5/tegra3", "recovered", 3, 2.5, None).unwrap();
    j.artifact_json("fig5", "fig5", 421, "00aa00bb00cc00dd", false).unwrap();
    j.artifact_text("table1").unwrap();
    j.cell("hpl", "hpl/n=4", "quarantined", 2, 7.0, Some("panic: boom @ x.rs:1")).unwrap();
    j.artifact_failed("hpl").unwrap();
    j.artifact_json("hpl", "hpl_headline", 98, "1122334455667788", false).unwrap();
    j.run_end(true).unwrap();
    std::fs::read(dir.join(JOURNAL_FILE)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any byte-prefix of a journal parses to a valid resume state that is
    /// itself a prefix of the full state: same fingerprint (or none yet),
    /// a prefix of the cell log, and only artefact claims the full journal
    /// also makes. A SIGKILL can land anywhere; resume must never read
    /// state the journal did not durably record.
    #[test]
    fn any_byte_prefix_parses_to_a_valid_resume_state(cut_permille in 0u32..1001) {
        let dir = tmpdir("prefix_prop");
        let items = strings(&["fig5", "table1", "hpl"]);
        let full_bytes = example_journal(&dir, &items);
        let full = parse_journal(std::str::from_utf8(&full_bytes).unwrap());
        let _ = std::fs::remove_dir_all(&dir);

        let cut = (full_bytes.len() as u64 * cut_permille as u64 / 1000) as usize;
        let prefix = String::from_utf8_lossy(&full_bytes[..cut]).into_owned();
        let st = parse_journal(&prefix);

        // Fingerprint: either not yet seen, or exactly the run's.
        prop_assert!(
            st.fingerprint.is_empty() || st.fingerprint == run_fingerprint(&items, "golden"),
            "prefix invented a fingerprint: {}", st.fingerprint
        );
        // Cells: a prefix of the full cell log, in order.
        prop_assert!(st.cells.len() <= full.cells.len());
        prop_assert_eq!(&st.cells[..], &full.cells[..st.cells.len()]);
        // Artefacts: every claim the prefix makes, the full journal makes
        // for the same key at some point (last-wins may differ mid-stream,
        // e.g. hpl is `failed` before its repair record).
        for a in &st.artifacts {
            prop_assert!(
                full.artifacts.iter().any(|f| f.key == a.key),
                "prefix invented artefact {}", a.key
            );
        }
        // Completeness is monotone: only the full journal is complete.
        if st.complete {
            prop_assert_eq!(cut, full_bytes.len());
        }
    }
}

/// The `--resume` acceptance contract at library level: run a small plan to
/// JSON + journal, truncate one artefact on disk, then resume — the
/// truncated artefact fails verification and is re-derived byte-identically,
/// while verified artefacts are skipped without re-execution.
#[test]
fn resume_after_truncated_artifact_rederives_it_byte_identically() {
    let dir = tmpdir("resume_truncated");
    let items = strings(&["fig1", "fig2a", "fig5"]);
    let scales = RunScales::golden();

    // Reference run: persist every artefact and journal it.
    let mut journal = Journal::create(&dir, &items, "golden").unwrap();
    let run = |journal: &mut Journal, skip: &dyn Fn(&'static str) -> bool| {
        let mut executed: Vec<&'static str> = Vec::new();
        let plan = RunPlan::from_items(&items, &scales, &RunOpts::default());
        run_plan(plan, 1, None, skip, |art| match &art.outcome {
            ArtefactOutcome::Completed(out) => {
                executed.push(art.key);
                if let Some((stem, content)) = &out.json {
                    let (_, checksum) = write_json_atomic(&dir, stem, content).unwrap();
                    journal
                        .artifact_json(art.key, stem, content.len() as u64, &checksum, false)
                        .unwrap();
                }
            }
            ArtefactOutcome::Skipped => {}
            ArtefactOutcome::Failed => panic!("unexpected failure in {}", art.key),
        });
        executed
    };
    let first = run(&mut journal, &|_| false);
    assert_eq!(first, vec!["fig1", "fig2a", "fig5"]);
    let reference = std::fs::read(dir.join("fig5.json")).unwrap();

    // Truncate fig5.json mid-byte, as a crash during a non-atomic copy (or
    // a bit-rotted disk) would.
    std::fs::write(dir.join("fig5.json"), &reference[..reference.len() / 2]).unwrap();

    // Resume: verify each journaled artefact against disk; skip verified.
    let st = read_journal(&dir);
    assert_eq!(st.fingerprint, run_fingerprint(&items, "golden"));
    let verified: Vec<String> = st
        .artifacts
        .iter()
        .filter(|a| a.ok)
        .filter_map(|a| {
            let stem = a.stem.clone()?;
            (checksum_on_disk(&dir, &stem) == a.checksum).then(|| a.key.clone())
        })
        .collect();
    assert_eq!(verified, vec!["fig1", "fig2a"], "truncated fig5 must fail verification");

    let mut journal = Journal::create(&dir, &items, "golden").unwrap();
    let second = run(&mut journal, &|key| verified.iter().any(|k| k == key));
    assert_eq!(second, vec!["fig5"], "only the truncated artefact re-derives");
    let rederived = std::fs::read(dir.join("fig5.json")).unwrap();
    assert_eq!(rederived, reference, "re-derived artefact must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantined cell fails only its own artefact: the other artefacts of
/// the plan complete with byte-identical output, and the journal records
/// the quarantine evidence.
#[test]
fn injected_panic_quarantines_one_artifact_and_spares_the_rest() {
    let ref_dir = tmpdir("quarantine_ref");
    let hit_dir = tmpdir("quarantine_hit");
    let items = strings(&["fig1", "fig5", "table1"]);
    let scales = RunScales::golden();

    let run = |dir: &PathBuf, sabotage: bool| {
        let mut plan = RunPlan::from_items(&items, &scales, &RunOpts::default());
        if sabotage {
            assert!(plan.inject_panic("fig5") > 0);
        }
        let mut failed: Vec<&'static str> = Vec::new();
        let (arts, stats) = run_plan(plan, 4, None, &|_| false, |art| match &art.outcome {
            ArtefactOutcome::Completed(out) => {
                if let Some((stem, content)) = &out.json {
                    write_json_atomic(dir, stem, content).unwrap();
                }
            }
            ArtefactOutcome::Failed => failed.push(art.key),
            ArtefactOutcome::Skipped => {}
        });
        (arts, stats, failed)
    };

    let (_, clean_stats, clean_failed) = run(&ref_dir, false);
    assert!(clean_failed.is_empty());
    assert_eq!(clean_stats.supervisor.quarantined, 0);

    let (arts, stats, failed) = run(&hit_dir, true);
    assert_eq!(failed, vec!["fig5"]);
    assert!(stats.supervisor.quarantined > 0);
    let fig5 = arts.iter().find(|a| a.key == "fig5").unwrap();
    let evidence = fig5.quarantined();
    assert!(!evidence.is_empty());
    assert!(evidence[0].1.contains("injected panic"), "{:?}", evidence[0]);

    // The spared artefact is byte-identical to the clean run's.
    let a = std::fs::read(ref_dir.join("fig1.json")).unwrap();
    let b = std::fs::read(hit_dir.join("fig1.json")).unwrap();
    assert_eq!(a, b, "fig1 diverged under quarantine");
    assert!(!hit_dir.join("fig5.json").exists(), "quarantined artefact must not persist");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&hit_dir);
}
