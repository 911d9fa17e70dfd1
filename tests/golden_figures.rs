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
//! cargo run --release -p bench --bin repro -- --golden --json tests/goldens
//! rm tests/goldens/_sweep_stats.json   # execution stats are not artefacts
//! ```
//!
//! or `REGOLD=1 cargo test --test golden_figures`, which rewrites the files
//! from this very run.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use socready::harness::{run_plan, ArtefactOut, ArtefactOutcome, RunPlan, RunScales};
use socready::mpi::RunOpts;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
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

fn regen_requested() -> bool {
    std::env::var_os("REGOLD").is_some_and(|v| v == "1")
}

fn check_artefact(stem: &str) {
    let art = artefacts()
        .iter()
        .find(|a| a.json.as_ref().is_some_and(|(s, _)| *s == stem))
        .unwrap_or_else(|| panic!("no artefact produced JSON stem {stem}"));
    let (_, content) = art.json.as_ref().unwrap();
    let path = goldens_dir().join(format!("{stem}.json"));
    if regen_requested() {
        std::fs::write(&path, content).expect("rewrite golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        *content == golden,
        "{stem}.json differs from its golden; `REGOLD=1` rewrites it, and `git diff` shows how"
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
    let produced: Vec<&str> =
        artefacts().iter().filter_map(|a| a.json.as_ref().map(|(s, _)| *s)).collect();
    for entry in std::fs::read_dir(goldens_dir()).expect("goldens dir") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let Some(stem) = name.strip_suffix(".json") else { continue };
        if stem.starts_with('_') {
            continue; // execution stats, never a golden
        }
        assert!(
            produced.contains(&stem),
            "tests/goldens/{name} has no generating artefact (produced: {produced:?})"
        );
    }
}
