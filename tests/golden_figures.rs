//! Golden-figure regression tests: every JSON artefact the `repro` binary
//! emits at `--golden` scale is regenerated in-process and compared against
//! the checked-in goldens under `tests/goldens/`.
//!
//! Each artefact must equal its golden byte for byte: the same check as
//! `tests/determinism.rs` and ci.sh's `cmp` of a `repro --golden` run, so a
//! reordered float expression or an inexact rounding fails here too.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- --golden --serial --json tests/goldens
//! rm tests/goldens/_sweep_stats.json tests/goldens/_journal.jsonl
//! ```
//!
//! `repro_out/` pins the paper items at full scale the same way; its
//! regeneration command is in EXPERIMENTS.md ("How to regenerate").

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use socready::harness::{run_plan, ArtefactOut, ArtefactOutcome, RunPlan, RunScales};
use socready::mpi::RunOpts;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// The stems of a directory's JSON files, sorted, skipping `_`-prefixed
/// execution stats.
fn json_stems(dir: &Path) -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
        .filter(|stem| !stem.starts_with('_'))
        .collect();
    stems.sort();
    stems
}

/// The JSON stems of the shared golden run, in plan order.
fn produced_stems() -> Vec<&'static str> {
    artefacts().iter().filter_map(|a| a.json.as_ref().map(|(s, _)| *s)).collect()
}

/// One golden-scale run of every artefact through the executor `repro`
/// runs, shared by all test cases in this binary. Each cell runs once, so
/// any panic or typed fault fails the suite. Uses several
/// workers: the determinism suite separately proves worker count cannot
/// change bytes.
fn artefacts() -> &'static [ArtefactOut] {
    static RUN: OnceLock<Vec<ArtefactOut>> = OnceLock::new();
    RUN.get_or_init(|| {
        let plan =
            RunPlan::from_items(&["all".to_string()], &RunScales::golden(), &RunOpts::default());
        let (arts, _) = run_plan(plan, 4, None, &|_| false, |_| {});
        arts.into_iter()
            .map(|a| match a.outcome {
                ArtefactOutcome::Completed(out) => out,
                _ => panic!("{} did not complete: {:?}", a.key, a.quarantined()),
            })
            .collect()
    })
}

fn check_artefact(stem: &str) {
    let art = artefacts()
        .iter()
        .find(|a| a.json.as_ref().is_some_and(|(s, _)| *s == stem))
        .unwrap_or_else(|| panic!("no artefact produced JSON stem {stem}"));
    let (_, content) = art.json.as_ref().unwrap();
    let path = goldens_dir().join(format!("{stem}.json"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        *content == golden,
        "{stem}.json differs from its golden; after an intentional change, regenerate \
         tests/goldens/ with `repro --golden --serial --json tests/goldens`, remove its two `_` \
         files, and `git diff` shows how"
    );
}

macro_rules! golden_tests {
    ($($name:ident => $stem:literal),+ $(,)?) => {
        $(#[test]
        fn $name() {
            check_artefact($stem);
        })+
    };
}

golden_tests! {
    fig1_matches_golden => "fig1",
    fig2a_matches_golden => "fig2a",
    fig2b_matches_golden => "fig2b",
    fig3_matches_golden => "fig3",
    fig4_matches_golden => "fig4",
    fig5_matches_golden => "fig5",
    fig6_matches_golden => "fig6",
    fig7_matches_golden => "fig7",
    hpl_headline_matches_golden => "hpl_headline",
    resilience_matches_golden => "resilience",
    ablate_net_matches_golden => "ablate_net",
    datacenter_matches_golden => "datacenter",
}

#[test]
fn every_committed_golden_is_still_generated() {
    // A renamed or dropped artefact must fail loudly, not rot silently.
    let produced = produced_stems();
    for stem in json_stems(&goldens_dir()) {
        assert!(
            produced.contains(&stem.as_str()),
            "tests/goldens/{stem}.json has no generating artefact (produced: {produced:?})"
        );
    }
}

#[test]
fn repro_out_pins_every_paper_artefact_the_plan_makes() {
    // ci.sh's paper-scale stage compares a full-scale run of the paper items
    // against exactly the JSON files in repro_out/. Every artefact of the
    // plan but the network ablation, which is not a paper item, must be
    // among them, so a new artefact cannot join the plan unpinned.
    let mut want: Vec<&str> =
        produced_stems().into_iter().filter(|stem| *stem != "ablate_net").collect();
    want.sort_unstable();
    let repro_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("repro_out");
    assert_eq!(json_stems(&repro_out), want, "repro_out/ must pin every paper artefact");
}
