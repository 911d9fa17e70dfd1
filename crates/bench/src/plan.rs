//! Run planning: decompose a `repro` invocation into scenario cells, execute
//! them on the sweep executor, and merge per-artefact results in canonical
//! paper order.
//!
//! The contract that makes `--jobs N` byte-identical to `--serial`:
//!
//! 1. [`RunPlan::from_items`] enumerates cells in a fixed order that depends
//!    only on the requested items and scales — never on the host.
//! 2. [`run_plan`] executes each artefact's cells on [`run_cells`], which
//!    returns outputs in enumeration order regardless of scheduling.
//! 3. Each artefact's merge closure sees exactly its own cells, in order, and
//!    produces the same rendered blocks and JSON the old serial generators
//!    produced.
//!
//! [`run_plan`] is the one plan executor: `repro` runs it, and so does every
//! in-process test, so the bytes the tests pin are the bytes users get.
//! Wall-clock timings and cache counters are nondeterministic and live only
//! in [`SweepStats`] — they never enter an artefact.
//!
//! Every simulating cell runs its jobs under the plan's [`RunOpts`] (network
//! model, event budget, tracer): the caller decides them once and the plan
//! hands a copy to each cell's driver.
//!
//! Fig 6's HPL points, the HPL headline, the resilience baselines and the
//! network ablation all report fault-free HPL runs, often of the same job.
//! A plan owns one [`HplShare`] that those cells read, so each distinct job
//! simulates once per plan; a cell reads it only on its first execution, so
//! a supervisor retry or verification re-run simulates afresh.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hpc_apps::hpl::HplShare;
use hpc_apps::{AppId, ScalingMeasurement};
use simmpi::RunOpts;
use soc_arch::{cache_counters, Platform};

use crate::ablate::{ablate_merge, ablate_side, AblateSide, ABLATE_FIGURES};
use crate::artifact::fnv1a64;
use crate::datacenter::{
    datacenter_cell, datacenter_study_from, datacenter_validation, DcValidation, DATACENTER_CASES,
};
use crate::fig345::{fig34_base_energy, fig34_series_for, fig5_rows_for, SweepSeries};
use crate::fig67::{fig7_cases, fig7_panel, hpl_headline, Fig6, Fig7, Fig7Panel, HplHeadline};
use crate::resilience::{
    resilience_cell, resilience_contrast, resilience_grid, resilience_study_from, ResilienceCell,
    ResilienceContrast,
};
use crate::supervisor::{
    run_cells, stats_from_reports, Cell, CellReport, CellTiming, SupervisorConfig, SupervisorStats,
    SweepStats,
};
use crate::{Fig1, Fig2, Fig34, Fig5};

/// Problem scales for the scale-dependent artefacts (Fig 6, HPL, resilience).
#[derive(Clone, Debug)]
pub struct RunScales {
    /// Fig 6 node counts.
    pub fig6_nodes: Vec<u32>,
    /// Node count for the §4 HPL headline.
    pub hpl_nodes: u32,
    /// Cluster sizes for the resilience sweep.
    pub resilience_sizes: Vec<u32>,
    /// Jobs per replayed stream in the `datacenter` artefact.
    pub datacenter_jobs: u64,
    /// Width of the datacenter model-validation simulation.
    pub datacenter_validation_nodes: u32,
}

impl RunScales {
    /// The paper's full scales (Fig 6 to 96 nodes — minutes of wall time).
    pub fn full() -> Self {
        RunScales {
            fig6_nodes: hpc_apps::FIG6_NODES.to_vec(),
            hpl_nodes: 96,
            resilience_sizes: vec![8, 16, 32],
            datacenter_jobs: 1_000_000,
            datacenter_validation_nodes: 16,
        }
    }

    /// The `--quick` scales.
    pub fn quick() -> Self {
        RunScales {
            fig6_nodes: vec![4, 8, 16, 32],
            hpl_nodes: 16,
            resilience_sizes: vec![4, 8],
            datacenter_jobs: 100_000,
            datacenter_validation_nodes: 8,
        }
    }

    /// The `--golden` scales: small enough that a full-artefact run finishes
    /// in seconds even in debug builds, so the golden-figure regression tests
    /// and the CI determinism gate can regenerate everything from scratch.
    pub fn golden() -> Self {
        RunScales {
            fig6_nodes: vec![4, 8],
            hpl_nodes: 4,
            resilience_sizes: vec![2],
            datacenter_jobs: 10_000,
            datacenter_validation_nodes: 4,
        }
    }
}

/// Output of one cell. The variants mirror the cell kinds of the paper's
/// artefacts; each artefact's merge closure unwraps the variants it created.
/// `Failed` carries a typed in-simulation fault (e.g. an exhausted DES event
/// budget) — the supervisor intercepts it before any merge runs.
enum CellOutput {
    Fig1(Fig1),
    Fig2(Fig2),
    Series34(SweepSeries),
    StreamRows(Vec<kernels::stream::StreamResult>),
    Scaling(ScalingMeasurement),
    Panel7(Box<Fig7Panel>),
    Hpl(Box<HplHeadline>),
    Text(String),
    ResCell(Box<ResilienceCell>),
    Contrast(Box<ResilienceContrast>),
    Ablate(Box<AblateSide>),
    Dc(Box<sched::DcReport>),
    DcVal(Box<DcValidation>),
    Failed(String),
}

/// `Some(message)` when the cell carries a typed failure: the supervisor
/// treats it exactly like a panic (retry, then quarantine) but with the
/// fault's own rendering instead of a panic payload.
fn classify_cell(o: &CellOutput) -> Option<String> {
    match o {
        CellOutput::Failed(m) => Some(m.clone()),
        _ => None,
    }
}

/// Deterministic fingerprint of a cell output, used by the supervisor to
/// verify that a recovered cell reproduced its bytes. Serialisable payloads
/// hash their JSON rendering — the same bytes that would enter an artefact.
fn digest_cell(o: &CellOutput) -> u64 {
    let json = |v: &dyn serde::Serialize| {
        fnv1a64(serde_json::to_string(&v.to_value()).expect("cell digest").as_bytes())
    };
    match o {
        CellOutput::Fig1(f) => json(f),
        CellOutput::Fig2(f) => json(f),
        CellOutput::Series34(s) => json(s),
        CellOutput::StreamRows(r) => json(r),
        CellOutput::Scaling(m) => json(m),
        CellOutput::Panel7(p) => json(p.as_ref()),
        CellOutput::Hpl(h) => json(h.as_ref()),
        CellOutput::Text(t) => fnv1a64(t.as_bytes()),
        CellOutput::ResCell(c) => json(c.as_ref()),
        CellOutput::Contrast(c) => json(c.as_ref()),
        CellOutput::Ablate(s) => json(s.as_ref()),
        CellOutput::Dc(r) => json(r.as_ref()),
        CellOutput::DcVal(v) => json(v.as_ref()),
        CellOutput::Failed(m) => fnv1a64(m.as_bytes()),
    }
}

/// One merged artefact, ready for the CLI: rendered text blocks (printed in
/// order, one `println!` each — exactly the old serial output) and an
/// optional JSON payload `(file stem, pretty text)`.
pub struct ArtefactOut {
    /// Stable artefact key (`fig1` … `resilience`).
    pub key: &'static str,
    /// Rendered text blocks in print order.
    pub blocks: Vec<String>,
    /// JSON payload: file stem and serialized content.
    pub json: Option<(&'static str, String)>,
}

type MergeFn = Box<dyn FnOnce(Vec<CellOutput>) -> ArtefactOut + Send>;

/// One cell's access to its plan's [`HplShare`]. The cell's first execution
/// reads the share; any re-execution — a supervisor retry, or the
/// determinism re-run of a recovered cell — gets a fresh, empty share and
/// simulates its jobs itself, so a shared result never stands in for a run
/// the supervisor asked to repeat.
struct HplTicket {
    share: Arc<HplShare>,
    used: AtomicBool,
}

impl HplTicket {
    fn new(share: &Arc<HplShare>) -> HplTicket {
        HplTicket { share: Arc::clone(share), used: AtomicBool::new(false) }
    }

    fn with<R>(&self, f: impl FnOnce(&HplShare) -> R) -> R {
        if self.used.swap(true, Ordering::Relaxed) {
            f(&HplShare::default())
        } else {
            f(&self.share)
        }
    }
}

struct ArtefactSpec {
    key: &'static str,
    /// JSON file stem this artefact persists under `--json` (statically
    /// known so `--resume`/`--fsck` can map keys to files without running
    /// any merge). `None` for text-only artefacts.
    json_stem: Option<&'static str>,
    cells: Vec<Cell<CellOutput>>,
    merge: MergeFn,
}

/// A fully-enumerated run: every cell of every requested artefact, in
/// canonical paper order.
pub struct RunPlan {
    artefacts: Vec<ArtefactSpec>,
    hpl: Arc<HplShare>,
}

fn json_of<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("artefact serialization")
}

/// A single-cell artefact holding one rendered text block.
fn text_artefact(
    key: &'static str,
    gen: impl Fn() -> String + Send + Sync + 'static,
) -> ArtefactSpec {
    ArtefactSpec {
        key,
        json_stem: None,
        cells: vec![Cell::new(key, move || CellOutput::Text(gen()))],
        merge: Box::new(move |outs| {
            let blocks = outs
                .into_iter()
                .map(|o| match o {
                    CellOutput::Text(t) => t,
                    _ => unreachable!("text artefact produced a non-text cell"),
                })
                .collect();
            ArtefactOut { key, blocks, json: None }
        }),
    }
}

fn fig34_artefact(figure: &'static str, serial: bool) -> ArtefactSpec {
    let key = if serial { "fig3" } else { "fig4" };
    let cells = Platform::table1()
        .into_iter()
        .map(|p| {
            Cell::new(format!("{key}/{}", p.id), move || {
                // Every cell recomputes the Tegra2@1GHz normaliser; after the
                // first evaluation the timing cache answers it, and the value
                // is bit-identical on every path.
                CellOutput::Series34(fig34_series_for(&p, serial, fig34_base_energy()))
            })
        })
        .collect();
    ArtefactSpec {
        key,
        json_stem: Some(key),
        cells,
        merge: Box::new(move |outs| {
            let series = outs
                .into_iter()
                .map(|o| match o {
                    CellOutput::Series34(s) => s,
                    _ => unreachable!("fig3/4 produced a non-series cell"),
                })
                .collect();
            let fg = Fig34 { figure, series };
            ArtefactOut { key, blocks: vec![fg.render()], json: Some((key, json_of(&fg))) }
        }),
    }
}

fn fig5_artefact() -> ArtefactSpec {
    let cells = Platform::table1()
        .into_iter()
        .map(|p| {
            Cell::new(format!("fig5/{}", p.id), move || CellOutput::StreamRows(fig5_rows_for(&p)))
        })
        .collect();
    ArtefactSpec {
        key: "fig5",
        json_stem: Some("fig5"),
        cells,
        merge: Box::new(|outs| {
            let mut rows = Vec::new();
            for o in outs {
                match o {
                    CellOutput::StreamRows(r) => rows.extend(r),
                    _ => unreachable!("fig5 produced a non-stream cell"),
                }
            }
            let fg = Fig5 { rows };
            ArtefactOut {
                key: "fig5",
                blocks: vec![fg.render(), crate::fig5_efficiency_summary()],
                json: Some(("fig5", json_of(&fg))),
            }
        }),
    }
}

fn fig6_artefact(nodes: Vec<u32>, opts: &RunOpts, hpl: &Arc<HplShare>) -> ArtefactSpec {
    // One cell per (application, runnable node count): the grid the paper's
    // Fig 6 wall time is actually spent on, so it parallelises across both
    // axes. The merge regroups by application in Table 3 order.
    let apps: Vec<(AppId, Vec<u32>)> =
        hpc_apps::table3().iter().map(|a| (a.id, hpc_apps::runnable_nodes(a.id, &nodes))).collect();
    let mut cells = Vec::new();
    for (app, counts) in &apps {
        let app = *app;
        for &n in counts {
            let ticket = HplTicket::new(hpl);
            let opts = opts.clone();
            cells.push(Cell::new(format!("fig6/{app:?}/n={n}"), move || {
                let machine = cluster::Machine::tibidabo();
                match ticket.with(|h| hpc_apps::measure_scaling_cell(&machine, app, n, &opts, h)) {
                    Ok(m) => CellOutput::Scaling(m),
                    Err(e) => CellOutput::Failed(e.to_string()),
                }
            }));
        }
    }
    ArtefactSpec {
        key: "fig6",
        json_stem: Some("fig6"),
        cells,
        merge: Box::new(move |outs| {
            let mut it = outs.into_iter();
            let series = apps
                .iter()
                .map(|(app, counts)| {
                    let ms: Vec<ScalingMeasurement> = counts
                        .iter()
                        .map(|_| match it.next() {
                            Some(CellOutput::Scaling(m)) => m,
                            _ => unreachable!("fig6 cell mismatch"),
                        })
                        .collect();
                    hpc_apps::series_from_measurements(*app, &ms)
                })
                .collect();
            let fg = Fig6 { nodes, series };
            ArtefactOut {
                key: "fig6",
                blocks: vec![fg.render()],
                json: Some(("fig6", json_of(&fg))),
            }
        }),
    }
}

fn fig7_artefact(opts: &RunOpts) -> ArtefactSpec {
    let cells = fig7_cases()
        .into_iter()
        .map(|(label, plat, freq, proto)| {
            let opts = opts.clone();
            Cell::new(format!("fig7/{label}"), move || {
                match fig7_panel(label, plat.clone(), freq, proto, &opts) {
                    Ok(p) => CellOutput::Panel7(Box::new(p)),
                    Err(e) => CellOutput::Failed(e.to_string()),
                }
            })
        })
        .collect();
    ArtefactSpec {
        key: "fig7",
        json_stem: Some("fig7"),
        cells,
        merge: Box::new(|outs| {
            let panels = outs
                .into_iter()
                .map(|o| match o {
                    CellOutput::Panel7(p) => *p,
                    _ => unreachable!("fig7 produced a non-panel cell"),
                })
                .collect();
            let fg = Fig7 { panels };
            ArtefactOut {
                key: "fig7",
                blocks: vec![fg.render()],
                json: Some(("fig7", json_of(&fg))),
            }
        }),
    }
}

fn hpl_artefact(nodes: u32, opts: &RunOpts, hpl: &Arc<HplShare>) -> ArtefactSpec {
    let ticket = HplTicket::new(hpl);
    let opts = opts.clone();
    ArtefactSpec {
        key: "hpl",
        json_stem: Some("hpl_headline"),
        cells: vec![Cell::new(format!("hpl/n={nodes}"), move || {
            match ticket.with(|h| hpl_headline(nodes, &opts, h)) {
                Ok(h) => CellOutput::Hpl(Box::new(h)),
                Err(e) => CellOutput::Failed(e.to_string()),
            }
        })],
        merge: Box::new(|mut outs| {
            let h = match outs.pop() {
                Some(CellOutput::Hpl(h)) => *h,
                _ => unreachable!("hpl produced a non-headline cell"),
            };
            ArtefactOut {
                key: "hpl",
                blocks: vec![h.render()],
                json: Some(("hpl_headline", json_of(&h))),
            }
        }),
    }
}

fn resilience_artefact(sizes: Vec<u32>, opts: &RunOpts, hpl: &Arc<HplShare>) -> ArtefactSpec {
    let mut cells: Vec<Cell<CellOutput>> = resilience_grid(&sizes)
        .into_iter()
        .map(|(nodes, incidence, seed)| {
            let ticket = HplTicket::new(hpl);
            let opts = opts.clone();
            Cell::new(format!("resilience/n={nodes}/i={incidence}"), move || {
                match ticket.with(|h| resilience_cell(nodes, incidence, seed, &opts, h)) {
                    Ok(c) => CellOutput::ResCell(Box::new(c)),
                    Err(e) => CellOutput::Failed(e.to_string()),
                }
            })
        })
        .collect();
    let opts = opts.clone();
    cells.push(Cell::new("resilience/contrast", move || match resilience_contrast(&opts) {
        Ok(c) => CellOutput::Contrast(Box::new(c)),
        Err(e) => CellOutput::Failed(e.to_string()),
    }));
    ArtefactSpec {
        key: "resilience",
        json_stem: Some("resilience"),
        cells,
        merge: Box::new(|mut outs| {
            let contrast = match outs.pop() {
                Some(CellOutput::Contrast(c)) => *c,
                _ => unreachable!("resilience grid lost its contrast cell"),
            };
            let grid = outs
                .into_iter()
                .map(|o| match o {
                    CellOutput::ResCell(c) => *c,
                    _ => unreachable!("resilience produced a non-grid cell"),
                })
                .collect();
            let s = resilience_study_from(grid, contrast);
            ArtefactOut {
                key: "resilience",
                blocks: vec![s.render()],
                json: Some(("resilience", json_of(&s))),
            }
        }),
    }
}

fn ablate_net_artefact(scales: &RunScales, opts: &RunOpts, hpl: &Arc<HplShare>) -> ArtefactSpec {
    // One cell per (figure, model): six independent regenerations, each
    // overriding the network model of the run's options, merged into the
    // accuracy table.
    let mut cells = Vec::new();
    for figure in ABLATE_FIGURES {
        for model in [netsim::NetModel::Event, netsim::NetModel::Flow] {
            let fig6_nodes = scales.fig6_nodes.clone();
            let hpl_nodes = scales.hpl_nodes;
            let ticket = HplTicket::new(hpl);
            let opts = opts.clone();
            cells.push(Cell::new(format!("ablate-net/{figure}/{}", model.name()), move || {
                match ticket.with(|h| ablate_side(figure, model, &fig6_nodes, hpl_nodes, &opts, h))
                {
                    Ok(s) => CellOutput::Ablate(Box::new(s)),
                    Err(e) => CellOutput::Failed(e.to_string()),
                }
            }));
        }
    }
    ArtefactSpec {
        key: "ablate-net",
        json_stem: Some("ablate_net"),
        cells,
        merge: Box::new(|outs| {
            let sides = outs
                .into_iter()
                .map(|o| match o {
                    CellOutput::Ablate(s) => *s,
                    _ => unreachable!("ablate-net produced a non-ablation cell"),
                })
                .collect();
            let merged = ablate_merge(sides);
            ArtefactOut {
                key: "ablate-net",
                blocks: vec![merged.render()],
                json: Some(("ablate_net", json_of(&merged))),
            }
        }),
    }
}

fn datacenter_artefact(jobs: u64, validation_nodes: u32, opts: &RunOpts) -> ArtefactSpec {
    let mut cells: Vec<Cell<CellOutput>> = DATACENTER_CASES
        .iter()
        .map(|case| {
            Cell::new(format!("datacenter/{}", case.label), move || {
                CellOutput::Dc(Box::new(datacenter_cell(case, jobs)))
            })
        })
        .collect();
    let opts = opts.clone();
    cells.push(Cell::new(format!("datacenter/validation/n={validation_nodes}"), move || {
        match datacenter_validation(validation_nodes, &opts) {
            Ok(v) => CellOutput::DcVal(Box::new(v)),
            Err(e) => CellOutput::Failed(e.to_string()),
        }
    }));
    ArtefactSpec {
        key: "datacenter",
        json_stem: Some("datacenter"),
        cells,
        merge: Box::new(move |mut outs| {
            let validation = match outs.pop() {
                Some(CellOutput::DcVal(v)) => *v,
                _ => unreachable!("datacenter grid lost its validation cell"),
            };
            let reports = outs
                .into_iter()
                .map(|o| match o {
                    CellOutput::Dc(r) => *r,
                    _ => unreachable!("datacenter produced a non-replay cell"),
                })
                .collect();
            let study = datacenter_study_from(jobs, reports, validation);
            ArtefactOut {
                key: "datacenter",
                blocks: vec![study.render()],
                json: Some(("datacenter", json_of(&study))),
            }
        }),
    }
}

impl RunPlan {
    /// Enumerate the cells for the requested `items` (the `repro` item keys,
    /// where `all` selects everything) at the given scales, in canonical
    /// paper order. Every simulating cell runs its jobs under `opts`.
    pub fn from_items(items: &[String], scales: &RunScales, opts: &RunOpts) -> RunPlan {
        let want = |k: &str| items.iter().any(|i| i == "all" || i == k);
        let mut artefacts = Vec::new();
        let hpl = Arc::new(HplShare::default());

        if want("fig1") {
            artefacts.push(ArtefactSpec {
                key: "fig1",
                json_stem: Some("fig1"),
                cells: vec![Cell::new("fig1", || CellOutput::Fig1(crate::fig1()))],
                merge: Box::new(|mut outs| {
                    let fg = match outs.pop() {
                        Some(CellOutput::Fig1(f)) => f,
                        _ => unreachable!("fig1 cell mismatch"),
                    };
                    ArtefactOut {
                        key: "fig1",
                        blocks: vec![fg.render()],
                        json: Some(("fig1", json_of(&fg))),
                    }
                }),
            });
        }
        for (key, gen) in
            [("fig2a", crate::fig2a as fn() -> Fig2), ("fig2b", crate::fig2b as fn() -> Fig2)]
        {
            if want(key) || want("fig2") {
                artefacts.push(ArtefactSpec {
                    key,
                    json_stem: Some(key),
                    cells: vec![Cell::new(key, move || CellOutput::Fig2(gen()))],
                    merge: Box::new(move |mut outs| {
                        let fg = match outs.pop() {
                            Some(CellOutput::Fig2(f)) => f,
                            _ => unreachable!("fig2 cell mismatch"),
                        };
                        ArtefactOut {
                            key,
                            blocks: vec![fg.render()],
                            json: Some((key, json_of(&fg))),
                        }
                    }),
                });
            }
        }
        if want("table1") {
            artefacts.push(text_artefact("table1", crate::table1_render));
        }
        if want("table2") {
            artefacts.push(text_artefact("table2", crate::table2_render));
        }
        if want("fig3") {
            artefacts.push(fig34_artefact("3", true));
        }
        if want("fig4") {
            artefacts.push(fig34_artefact("4", false));
        }
        if want("fig5") {
            artefacts.push(fig5_artefact());
        }
        if want("table3") {
            artefacts.push(text_artefact("table3", crate::table3_render));
        }
        if want("fig6") {
            artefacts.push(fig6_artefact(scales.fig6_nodes.clone(), opts, &hpl));
        }
        if want("fig7") {
            artefacts.push(fig7_artefact(opts));
        }
        if want("table4") {
            artefacts.push(text_artefact("table4", crate::table4_render));
        }
        if want("hpl") {
            artefacts.push(hpl_artefact(scales.hpl_nodes, opts, &hpl));
        }
        if want("latency-penalty") {
            artefacts.push(text_artefact("latency-penalty", crate::latency_penalty_render));
        }
        if want("extensions") {
            let opts = opts.clone();
            artefacts.push(ArtefactSpec {
                key: "extensions",
                json_stem: None,
                cells: vec![
                    Cell::new("extensions/ecc", || CellOutput::Text(crate::ecc_risk_render())),
                    Cell::new("extensions/eee", || CellOutput::Text(crate::eee_render())),
                    Cell::new("extensions/roofline", || CellOutput::Text(crate::roofline_render())),
                    Cell::new("extensions/imb", move || match crate::imb_render(&opts) {
                        Ok(t) => CellOutput::Text(t),
                        Err(e) => CellOutput::Failed(e.to_string()),
                    }),
                ],
                merge: Box::new(|outs| {
                    let blocks = outs
                        .into_iter()
                        .map(|o| match o {
                            CellOutput::Text(t) => t,
                            _ => unreachable!("extensions produced a non-text cell"),
                        })
                        .collect();
                    ArtefactOut { key: "extensions", blocks, json: None }
                }),
            });
        }
        if want("resilience") {
            artefacts.push(resilience_artefact(scales.resilience_sizes.clone(), opts, &hpl));
        }
        if want("ablate-net") {
            artefacts.push(ablate_net_artefact(scales, opts, &hpl));
        }
        if want("datacenter") {
            artefacts.push(datacenter_artefact(
                scales.datacenter_jobs,
                scales.datacenter_validation_nodes,
                opts,
            ));
        }
        RunPlan { artefacts, hpl }
    }

    /// The plan's shared fault-free HPL runs (see [`HplShare`]); its
    /// counters tell how many jobs the plan's cells requested and how many
    /// it simulated.
    pub fn hpl_share(&self) -> Arc<HplShare> {
        Arc::clone(&self.hpl)
    }

    /// Total number of scenario cells this plan will execute.
    pub fn cell_count(&self) -> usize {
        self.artefacts.iter().map(|a| a.cells.len()).sum()
    }

    /// The artefact keys of this plan, in output order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.artefacts.iter().map(|a| a.key).collect()
    }

    /// `(key, json file stem)` for every artefact of the plan, in output
    /// order — the static map `--resume`/`--fsck` use to pair journal
    /// records with files on disk.
    pub fn artefact_stems(&self) -> Vec<(&'static str, Option<&'static str>)> {
        self.artefacts.iter().map(|a| (a.key, a.json_stem)).collect()
    }

    /// Replace the body of every cell whose label contains `needle` with one
    /// that panics — the supervisor acceptance probe (`repro
    /// --inject-panic`). Returns how many cells were sabotaged.
    pub fn inject_panic(&mut self, needle: &str) -> usize {
        let mut hit = 0;
        for a in &mut self.artefacts {
            for c in &mut a.cells {
                if c.label.contains(needle) {
                    let label = c.label.clone();
                    c.run = Arc::new(move || -> CellOutput {
                        panic!("injected panic in cell {label} (via --inject-panic)")
                    });
                    hit += 1;
                }
            }
        }
        hit
    }
}

/// One artefact's outcome under [`run_plan`].
pub enum ArtefactOutcome {
    /// Every cell produced a trustworthy output and the merge ran.
    Completed(ArtefactOut),
    /// Skipped by `--resume`: the journal + on-disk checksum verified.
    Skipped,
    /// At least one cell was quarantined; no artefact was produced. The
    /// evidence is in the sibling [`SupervisedArtefact::cells`] reports.
    Failed,
}

/// Result of one artefact under [`run_plan`].
pub struct SupervisedArtefact {
    /// Stable artefact key.
    pub key: &'static str,
    /// JSON file stem the artefact persists under `--json`, if any.
    pub json_stem: Option<&'static str>,
    /// What happened.
    pub outcome: ArtefactOutcome,
    /// Per-cell supervisor reports (empty when skipped).
    pub cells: Vec<CellReport>,
}

impl SupervisedArtefact {
    /// The quarantined cells' labels and failure briefs.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .filter(|r| !r.succeeded())
            .map(|r| {
                let brief = match &r.outcome {
                    crate::supervisor::CellOutcome::Quarantined { failure } => failure.brief(),
                    _ => unreachable!("non-quarantined cell in failed filter"),
                };
                (r.label.clone(), brief)
            })
            .collect()
    }
}

/// Execute a plan on the sweep executor with `jobs` workers (`0` is clamped
/// to 1).
///
/// Artefacts run sequentially in canonical paper order (cells within an
/// artefact fan out over the workers), and `on_artefact` fires as soon as
/// each artefact settles — the `repro` binary prints, persists, and
/// journals incrementally, so an interrupted run leaves every finished
/// artefact durably on disk. `skip` marks artefacts to resume past; a
/// quarantined cell fails only its own artefact, every other artefact
/// completes, and the merged artefacts (text blocks and JSON) are
/// byte-identical for any worker count; only the stats vary.
///
/// ```
/// use bench::{run_plan, RunPlan, RunScales, SupervisorConfig};
/// use simmpi::RunOpts;
///
/// let plan = RunPlan::from_items(&["table3".to_string()], &RunScales::golden(), &RunOpts::default());
/// let (artefacts, stats) = run_plan(
///     plan,
///     1,
///     &SupervisorConfig::single_attempt(),
///     &|_key| false, // nothing to resume past
///     |art| assert_eq!(art.key, "table3"),
/// );
/// assert_eq!(artefacts.len(), 1);
/// assert_eq!(stats.supervisor.quarantined, 0);
/// ```
pub fn run_plan(
    plan: RunPlan,
    jobs: usize,
    sup: &SupervisorConfig,
    skip: &dyn Fn(&'static str) -> bool,
    mut on_artefact: impl FnMut(&SupervisedArtefact),
) -> (Vec<SupervisedArtefact>, SweepStats) {
    let jobs = jobs.max(1);
    let started = Instant::now();
    let cache_before = cache_counters();
    let mut results = Vec::with_capacity(plan.artefacts.len());
    let mut cell_timings = Vec::new();
    let mut sup_stats = SupervisorStats::default();
    let mut executed = 0;

    for a in plan.artefacts {
        if skip(a.key) {
            sup_stats.resumed_skipped += 1;
            let art = SupervisedArtefact {
                key: a.key,
                json_stem: a.json_stem,
                outcome: ArtefactOutcome::Skipped,
                cells: Vec::new(),
            };
            on_artefact(&art);
            results.push(art);
            continue;
        }
        executed += a.cells.len();
        let (outs, reports) = run_cells(a.cells, jobs, sup, classify_cell, digest_cell);
        cell_timings.extend(
            reports.iter().map(|r| CellTiming { label: r.label.clone(), wall_ms: r.wall_ms }),
        );
        sup_stats.absorb(stats_from_reports(&reports, sup));
        let outcome = if outs.iter().all(Option::is_some) {
            let outs: Vec<CellOutput> = outs.into_iter().flatten().collect();
            ArtefactOutcome::Completed((a.merge)(outs))
        } else {
            ArtefactOutcome::Failed
        };
        let art =
            SupervisedArtefact { key: a.key, json_stem: a.json_stem, outcome, cells: reports };
        on_artefact(&art);
        results.push(art);
    }

    let stats = SweepStats {
        jobs,
        cells: executed,
        wall_s: started.elapsed().as_secs_f64(),
        timing_cache: cache_before.delta_to(&cache_counters()),
        cell_timings,
        supervisor: sup_stats,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_plan(keys: &[&str]) -> RunPlan {
        let items: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
        RunPlan::from_items(&items, &RunScales::golden(), &RunOpts::default())
    }

    /// Run `plan` on `jobs` workers, one attempt per cell; every artefact
    /// must complete.
    fn completed(plan: RunPlan, jobs: usize) -> (Vec<ArtefactOut>, SweepStats) {
        let (arts, stats) =
            run_plan(plan, jobs, &SupervisorConfig::single_attempt(), &|_| false, |_| {});
        let outs = arts
            .into_iter()
            .map(|a| match a.outcome {
                ArtefactOutcome::Completed(out) => out,
                _ => panic!("{} did not complete: {:?}", a.key, a.quarantined()),
            })
            .collect();
        (outs, stats)
    }

    #[test]
    fn plan_orders_artefacts_canonically() {
        let plan = golden_plan(&["all"]);
        assert_eq!(
            plan.keys(),
            vec![
                "fig1",
                "fig2a",
                "fig2b",
                "table1",
                "table2",
                "fig3",
                "fig4",
                "fig5",
                "table3",
                "fig6",
                "fig7",
                "table4",
                "hpl",
                "latency-penalty",
                "extensions",
                "resilience",
                "ablate-net",
                "datacenter",
            ]
        );
        // Scenario grid: the plan decomposes well past the artefact count.
        assert!(plan.cell_count() > 30, "only {} cells", plan.cell_count());
    }

    #[test]
    fn single_item_plans_are_minimal() {
        let plan = golden_plan(&["fig2"]);
        assert_eq!(plan.keys(), vec!["fig2a", "fig2b"]);
        let plan = golden_plan(&["table4"]);
        assert_eq!(plan.cell_count(), 1);
    }

    #[test]
    fn parallel_run_matches_serial_bytes() {
        // The tentpole invariant on a cheap subset: renders and JSON from a
        // multi-worker run are byte-identical to the serial schedule.
        let mk = || golden_plan(&["fig3", "fig5", "fig7"]);
        let (serial, s1) = completed(mk(), 1);
        let (parallel, s8) = completed(mk(), 8);
        assert_eq!(s1.cells, s8.cells);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.blocks, b.blocks, "{} render diverged", a.key);
            assert_eq!(a.json, b.json, "{} JSON diverged", a.key);
        }
    }

    #[test]
    fn only_a_cells_first_execution_reads_the_plan_share() {
        // A supervisor retry or the determinism re-run of a recovered cell
        // must simulate again, not read back the result it is checking.
        let share = Arc::new(HplShare::default());
        let ticket = HplTicket::new(&share);
        let cfg = hpc_apps::hpl::HplConfig::tibidabo_weak(2);
        let job = || cluster::Machine::tibidabo().job(2);
        let first = ticket.with(|h| h.run(job(), cfg).unwrap());
        let again = ticket.with(|h| h.run(job(), cfg).unwrap());
        assert_eq!((share.requests(), share.simulated()), (1, 1));
        assert!(!Arc::ptr_eq(&first, &again), "the re-execution reused the shared run");
        assert_eq!(first.result.seconds.to_bits(), again.result.seconds.to_bits());
        // The plan's share still answers other cells from its one run.
        assert!(Arc::ptr_eq(&first, &share.run(job(), cfg).unwrap()));
        assert_eq!((share.requests(), share.simulated()), (2, 1));
    }

    #[test]
    fn fig34_plan_output_matches_direct_generator() {
        let (arts, _) = completed(golden_plan(&["fig4"]), 4);
        assert_eq!(arts.len(), 1);
        assert_eq!(arts[0].blocks, vec![crate::fig4().render()]);
    }

    #[test]
    fn zero_workers_clamp_to_one_and_the_summary_says_so() {
        let (_, stats) = completed(golden_plan(&["fig1", "table1", "table2"]), 0);
        assert_eq!((stats.jobs, stats.cells, stats.cell_timings.len()), (1, 3, 3));
        let s = stats.summary();
        assert!(s.contains("3 cells on 1 worker in"), "{s}");
        assert!(s.contains("hit rate"), "{s}");
    }
}
