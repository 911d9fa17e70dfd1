//! Golden-figure regression tests: every JSON artefact the `repro` binary
//! emits at `--golden` scale is regenerated in-process and compared against
//! the checked-in goldens under `tests/goldens/`.
//!
//! Comparison rules: structure, key order, strings, booleans, and integers
//! (counts, node lists, ids) must match exactly; floating-point leaves are
//! compared with a 1e-9 relative tolerance so a change in summation order or
//! an intentionally value-preserving refactor does not trip the gate, while
//! any real model change does.
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

use serde_json::Value;
use socready::harness::{
    run_plan, ArtefactOut, ArtefactOutcome, RunPlan, RunScales, SupervisorConfig,
};
use socready::mpi::RunOpts;

/// Relative tolerance for float leaves.
const REL_TOL: f64 = 1e-9;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// One golden-scale run of every artefact through the executor `repro`
/// runs, shared by all test cases in this binary. Each cell gets one
/// attempt, so any panic or typed fault fails the suite. Uses several
/// workers: the determinism suite separately proves worker count cannot
/// change bytes.
fn artefacts() -> &'static [ArtefactOut] {
    static RUN: OnceLock<Vec<ArtefactOut>> = OnceLock::new();
    RUN.get_or_init(|| {
        let plan =
            RunPlan::from_items(&["all".to_string()], &RunScales::golden(), &RunOpts::default());
        let (arts, _) = run_plan(plan, 4, &SupervisorConfig::single_attempt(), &|_| false, |_| {});
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

/// Recursive comparison: exact everywhere except float leaves.
fn assert_close(path: &str, got: &Value, want: &Value) {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            let gk: Vec<&str> = g.iter().map(|(k, _)| k.as_str()).collect();
            let wk: Vec<&str> = w.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(gk, wk, "{path}: object keys changed");
            for ((k, gv), (_, wv)) in g.iter().zip(w) {
                assert_close(&format!("{path}.{k}"), gv, wv);
            }
        }
        (Value::Array(g), Value::Array(w)) => {
            assert_eq!(g.len(), w.len(), "{path}: array length changed");
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                assert_close(&format!("{path}[{i}]"), gv, wv);
            }
        }
        (Value::Float(g), Value::Float(w)) => {
            let scale = g.abs().max(w.abs()).max(1.0);
            assert!(
                (g - w).abs() <= REL_TOL * scale,
                "{path}: float {g} differs from golden {w} beyond {REL_TOL:e} relative"
            );
        }
        // Integers (counts, ids, node lists, byte sizes) are exact — a
        // UInt/Int kind flip for the same value is also a failure, because
        // the serializer derives the kind from the Rust type.
        _ => assert_eq!(got, want, "{path}: value changed"),
    }
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
    let golden_text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let got = serde_json::from_str(content).expect("generated artefact parses");
    let want = serde_json::from_str(&golden_text).expect("golden parses");
    assert_close(stem, &got, &want);
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

#[test]
fn tolerance_walker_rejects_structural_and_gross_numeric_drift() {
    let base = serde_json::from_str(r#"{"n": 4, "t": [1.0, 2.5]}"#).unwrap();
    // Identical and within-tolerance documents pass.
    assert_close("self", &base, &base);
    let nudged = serde_json::from_str(r#"{"n": 4, "t": [1.0000000000001, 2.5]}"#).unwrap();
    assert_close("nudge", &nudged, &base);
    // Integer drift, float drift beyond 1e-9, and shape changes all panic.
    for bad in [
        r#"{"n": 5, "t": [1.0, 2.5]}"#,
        r#"{"n": 4, "t": [1.001, 2.5]}"#,
        r#"{"n": 4, "t": [1.0]}"#,
        r#"{"m": 4, "t": [1.0, 2.5]}"#,
    ] {
        let doc: Value = serde_json::from_str(bad).unwrap();
        let r = std::panic::catch_unwind(|| assert_close("bad", &doc, &base));
        assert!(r.is_err(), "{bad} should have failed against the base document");
    }
}
