//! # bench — the reproduction harness
//!
//! Every paper artefact (each table and figure) is computed one way: as
//! cells of a [`RunPlan`], merged into the artefact's type, which serialises
//! to its JSON and renders its text. The `repro` binary runs the plan; the
//! performance ledger (`src/bin/ledger/`) times `repro` end to end and layer
//! by layer.
//!
//! | artefact | merged into |
//! |---|---|
//! | Fig 1 | [`Fig1`] |
//! | Fig 2(a)/(b) | [`Fig2`] |
//! | Table 1 / 2 | text: [`table1_render`] / [`table2_render`] |
//! | Fig 3 / 4 | [`Fig34`] |
//! | Fig 5 | [`Fig5`] |
//! | Fig 6 | [`Fig6`] |
//! | Fig 7 | [`Fig7`] |
//! | Table 3 / 4 | text: [`table3_render`] / [`table4_render`] |
//! | §4 HPL headline | [`HplHeadline`] |
//! | §4.1 latency penalty | text: [`latency_penalty_render`] |
//! | §6.3 resilience | [`ResilienceStudy`] |
//! | network-model ablation | [`AblateNet`] (`repro --ablate-net`) |
//! | datacenter replay | [`DcStudy`] (`repro --headline datacenter`) |

#![warn(missing_docs)]

//!
//! The [`plan`]/[`supervisor`] pair is the one plan executor, the code both
//! `repro` and the in-process tests run: [`RunPlan::from_items`] decomposes
//! a run into independent scenario cells, and [`run_plan`] settles the
//! artefacts in canonical order, fanning each one's cells out over a rayon
//! pool ([`run_cells`]), so `repro --jobs N` output is byte-identical to
//! `--serial`. The executor runs each cell once, quarantines a cell that
//! panics (capturing payload and backtrace) or returns an error, and bounds
//! each cell with a wall-clock watchdog plus the DES event budget. With
//! [`journal`] and [`artifact`], `repro` journals every settled
//! artefact to an fsync'd `_journal.jsonl` and persists JSON through the
//! atomic, checksummed [`artifact::write_json_atomic`] writer — the
//! machinery behind `repro --resume` and `repro --fsck`.
//!
//! The [`mc`] module is the bounded model checker behind `repro --mc`: each
//! scenario closes a resilience protocol over a small world and exhaustively
//! explores its delivery orderings, adversarial message drops and crash
//! timings within budgets, emitting replayable counterexamples on violation.

pub mod ablate;
pub mod artifact;
pub mod datacenter;
mod extensions;
mod fig12;
mod fig345;
mod fig67;
pub mod journal;
pub mod mc;
pub mod plan;
mod resilience;
pub mod supervisor;
pub mod table;
pub mod trace;

pub use ablate::{ablate_merge, ablate_side, AblateFigure, AblateNet, AblateRow, AblateSide};
pub use artifact::{write_json_atomic, ArtifactIoError, WriteOutcome};
pub use datacenter::{
    datacenter_cell, datacenter_study_from, datacenter_validation, DcCase, DcStudy, DcValidation,
    DATACENTER_CASES,
};
pub use extensions::{ecc_risk_render, eee_render, imb_render, roofline_render};
pub use fig12::{fig1, fig2a, fig2b, Fig1, Fig2};
pub use fig345::{
    fig5_efficiency_summary, table1_render, table2_render, Fig34, Fig5, SweepPoint, SweepSeries,
};
pub use fig67::{
    hpl_headline, latency_penalty, latency_penalty_render, table3_render, table4_render, Fig6,
    Fig7, Fig7Panel, HplHeadline,
};
pub use journal::{read_journal, run_fingerprint, Journal, JsonlWriter, ResumeState};
pub use mc::{
    counterexample_json, mc_scenario, mc_scenarios, parse_counterexample, McOverrides, McScenario,
    ParsedCounterexample,
};
pub use plan::{run_plan, ArtefactOut, ArtefactOutcome, RunPlan, RunScales, SupervisedArtefact};
pub use resilience::{
    resilience_cell, resilience_contrast, resilience_grid, resilience_study_from, ResilienceCell,
    ResilienceContrast, ResilienceStudy, INCIDENCE_GRID,
};
pub use supervisor::{
    run_cells, Cell, CellFailure, CellOutcome, CellReport, CellTiming, SupervisorStats, SweepStats,
    WatchdogMargin,
};
pub use trace::{
    fold_spans, parse_trace, read_trace, render_rank_table, write_trace, FoldedSpans, ParsedTrace,
    SpanEdge,
};
