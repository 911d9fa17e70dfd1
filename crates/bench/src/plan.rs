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
//! 3. Each artefact's merge sees exactly its own cells' values, in order,
//!    and takes each back at the type its cell produced; a cell's value is
//!    a pure function of the cell, so the merged blocks and JSON are too.
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
//! simulates once per plan.

use std::any::Any;
use std::convert::Infallible;
use std::fmt::Display;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpc_apps::hpl::HplShare;
use hpc_apps::{AppId, ScalingMeasurement};
use kernels::stream::StreamResult;
use serde::Serialize;
use simmpi::{NetModel, RunOpts};
use soc_arch::{cache_counters, Platform};

use crate::ablate::{
    ablate_figure, fig6_points, fig7_points, hpl_points, AblateFigure, AblateNet, AblatePoint,
};
use crate::datacenter::{
    datacenter_cell, datacenter_study_from, datacenter_validation, DcStudy, DcValidation,
    DATACENTER_CASES,
};
use crate::fig345::{fig34_base_energy, fig34_series_for, fig5_rows_for};
use crate::fig67::{fig7_cases, fig7_panel, hpl_headline, Fig6, Fig7, HplHeadline};
use crate::resilience::{
    resilience_cell, resilience_contrast, resilience_grid, resilience_study_from,
    ResilienceContrast, ResilienceStudy,
};
use crate::supervisor::{
    run_cells, stats_from_reports, Cell, CellOutcome, CellReport, CellTiming, SupervisorStats,
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

/// A cell's value on its way to its artefact's merge: the typed value
/// behind `dyn Any`.
type CellValue = Box<dyn Any + Send>;

/// The value, at the type its cell produced.
fn take<T: 'static>(value: CellValue) -> T {
    *value.downcast::<T>().expect("cell taken at a type it did not produce")
}

/// A plan cell labelled `label` whose body yields a `T` or a typed fault.
/// The supervisor quarantines an `Err` as it does a panic, but with the
/// fault's own message, so a merge only ever sees values.
fn cell<T, E>(
    label: impl Into<String>,
    run: impl FnOnce() -> Result<T, E> + Send + 'static,
) -> Cell<CellValue>
where
    T: Send + 'static,
    E: Display,
{
    Cell::new(label, move || match run() {
        Ok(value) => Ok(Box::new(value) as CellValue),
        Err(e) => Err(e.to_string()),
    })
}

/// The result of a cell that cannot fail.
fn ok<T>(value: T) -> Result<T, Infallible> {
    Ok(value)
}

/// One artefact's cell values, in enumeration order; the merge takes each
/// back at the type its cell produced.
struct Cells(std::vec::IntoIter<CellValue>);

const TOO_FEW_CELLS: &str = "merge took more cells than its artefact enumerated";

impl Cells {
    /// The next cell's value.
    fn take<T: 'static>(&mut self) -> T {
        take(self.0.next().expect(TOO_FEW_CELLS))
    }

    /// The last cell's value.
    fn take_last<T: 'static>(&mut self) -> T {
        take(self.0.next_back().expect(TOO_FEW_CELLS))
    }

    /// Every remaining cell's value.
    fn rest<T: 'static>(self) -> Vec<T> {
        self.0.map(take).collect()
    }

    /// The next `n` cells, for the merge of the figure that enumerated them.
    fn split(&mut self, n: usize) -> Cells {
        Cells(self.0.by_ref().take(n).collect::<Vec<_>>().into_iter())
    }
}

/// A figure's cells and the typed merge that takes their values, in
/// enumeration order, back as the figure. A figure's artefact runs it once;
/// the network ablation runs it once per network model.
struct Figure<V> {
    cells: Vec<Cell<CellValue>>,
    merge: Box<dyn FnOnce(Cells) -> V + Send>,
}

impl<V: 'static> Figure<V> {
    /// The figures' cells, in order, merged into their values, in order.
    fn concat(figures: Vec<Figure<V>>) -> Figure<Vec<V>> {
        let mut cells = Vec::new();
        let mut merges = Vec::new();
        for f in figures {
            merges.push((f.cells.len(), f.merge));
            cells.extend(f.cells);
        }
        let merge = move |mut c: Cells| merges.into_iter().map(|(n, m)| m(c.split(n))).collect();
        Figure { cells, merge: Box::new(merge) }
    }

    /// The same cells, their merged value passed through `f`.
    fn map<W>(self, f: impl FnOnce(V) -> W + Send + 'static) -> Figure<W> {
        let merge = self.merge;
        Figure { cells: self.cells, merge: Box::new(move |c| f(merge(c))) }
    }

    /// The figure as an artefact, printed by `render` and persisted as JSON
    /// under `stem`.
    fn artefact(
        self,
        key: &'static str,
        stem: &'static str,
        render: fn(&V) -> String,
    ) -> ArtefactSpec
    where
        V: Serialize,
    {
        ArtefactSpec::merged(key, stem, self.cells, self.merge, render)
    }
}

/// One merged artefact, ready for the CLI: rendered text blocks (printed in
/// order, one `println!` each) and an optional JSON payload `(file stem,
/// pretty text)`.
pub struct ArtefactOut {
    /// Stable artefact key (`fig1` … `resilience`).
    pub key: &'static str,
    /// Rendered text blocks in print order.
    pub blocks: Vec<String>,
    /// JSON payload: file stem and serialized content.
    pub json: Option<(&'static str, String)>,
}

/// Merges an artefact's cells into its printed blocks and, for an artefact
/// with a JSON stem, the JSON text persisted under it.
type MergeFn = Box<dyn FnOnce(Cells) -> (Vec<String>, Option<String>) + Send>;

struct ArtefactSpec {
    key: &'static str,
    /// JSON file stem this artefact persists under `--json` (statically
    /// known so `--resume`/`--fsck` can map keys to files without running
    /// any merge). `None` for text-only artefacts.
    json_stem: Option<&'static str>,
    cells: Vec<Cell<CellValue>>,
    merge: MergeFn,
}

impl ArtefactSpec {
    /// The common shape: the cells merge into one value, printed as
    /// `render`'s block and persisted as JSON under `stem`.
    fn merged<V: Serialize + 'static>(
        key: &'static str,
        stem: &'static str,
        cells: Vec<Cell<CellValue>>,
        merge: impl FnOnce(Cells) -> V + Send + 'static,
        render: fn(&V) -> String,
    ) -> ArtefactSpec {
        let merge = move |cells| {
            let value = merge(cells);
            let json = serde_json::to_string_pretty(&value).expect("artefact serialization");
            (vec![render(&value)], Some(json))
        };
        ArtefactSpec { key, json_stem: Some(stem), cells, merge: Box::new(merge) }
    }

    /// A text-only artefact: each cell yields one printed block.
    fn text(key: &'static str, cells: Vec<Cell<CellValue>>) -> ArtefactSpec {
        ArtefactSpec { key, json_stem: None, cells, merge: Box::new(|c| (c.rest(), None)) }
    }
}

/// A fully-enumerated run: every cell of every requested artefact, in
/// canonical paper order.
pub struct RunPlan {
    artefacts: Vec<ArtefactSpec>,
    hpl: Arc<HplShare>,
}

fn fig34_artefact(figure: &'static str, serial: bool) -> ArtefactSpec {
    let key = if serial { "fig3" } else { "fig4" };
    let cells = Platform::table1()
        .into_iter()
        .map(|p| {
            // Every cell recomputes the Tegra2@1GHz normaliser; after the
            // first evaluation the timing cache answers it, and the value is
            // bit-identical on every path.
            cell(format!("{key}/{}", p.id), move || {
                ok(fig34_series_for(&p, serial, fig34_base_energy()))
            })
        })
        .collect();
    ArtefactSpec::merged(
        key,
        key,
        cells,
        move |c| Fig34 { figure, series: c.rest() },
        Fig34::render,
    )
}

fn fig5_artefact() -> ArtefactSpec {
    let cells = Platform::table1()
        .into_iter()
        .map(|p| cell(format!("fig5/{}", p.id), move || ok(fig5_rows_for(&p))))
        .collect();
    let merge = |c: Cells| Fig5 { rows: c.rest::<Vec<StreamResult>>().concat() };
    // The STREAM table, then the §3.2 efficiency sentence.
    let render = |f: &Fig5| format!("{}\n{}", f.render(), crate::fig5_efficiency_summary());
    ArtefactSpec::merged("fig5", "fig5", cells, merge, render)
}

fn fig6_figure(nodes: Vec<u32>, opts: &RunOpts, hpl: &Arc<HplShare>) -> Figure<Fig6> {
    // One cell per (application, runnable node count): the grid the paper's
    // Fig 6 wall time is actually spent on, so it parallelises across both
    // axes. The merge regroups by application in Table 3 order.
    let apps: Vec<(AppId, Vec<u32>)> =
        hpc_apps::table3().iter().map(|a| (a.id, hpc_apps::runnable_nodes(a.id, &nodes))).collect();
    let mut cells = Vec::new();
    for (app, counts) in &apps {
        let app = *app;
        for &n in counts {
            let (opts, hpl) = (opts.clone(), Arc::clone(hpl));
            cells.push(cell(format!("fig6/{app:?}/n={n}"), move || {
                let machine = cluster::Machine::tibidabo();
                hpc_apps::measure_scaling_cell(&machine, app, n, &opts, &hpl)
            }));
        }
    }
    let merge = move |mut c: Cells| {
        let series = apps
            .iter()
            .map(|(app, counts)| {
                let ms: Vec<ScalingMeasurement> = counts.iter().map(|_| c.take()).collect();
                hpc_apps::series_from_measurements(*app, &ms)
            })
            .collect();
        Fig6 { nodes, series }
    };
    Figure { cells, merge: Box::new(merge) }
}

fn fig7_figure(opts: &RunOpts) -> Figure<Fig7> {
    let cells = fig7_cases()
        .into_iter()
        .map(|(label, plat, freq, proto)| {
            let opts = opts.clone();
            cell(format!("fig7/{label}"), move || fig7_panel(label, plat, freq, proto, &opts))
        })
        .collect();
    Figure { cells, merge: Box::new(|c| Fig7 { panels: c.rest() }) }
}

fn hpl_figure(nodes: u32, opts: &RunOpts, hpl: &Arc<HplShare>) -> Figure<HplHeadline> {
    let (opts, hpl) = (opts.clone(), Arc::clone(hpl));
    let cells = vec![cell(format!("hpl/n={nodes}"), move || hpl_headline(nodes, &opts, &hpl))];
    Figure { cells, merge: Box::new(|mut c| c.take()) }
}

fn resilience_artefact(sizes: Vec<u32>, opts: &RunOpts, hpl: &Arc<HplShare>) -> ArtefactSpec {
    let mut cells: Vec<Cell<CellValue>> = resilience_grid(&sizes)
        .into_iter()
        .map(|(nodes, incidence, seed)| {
            let (opts, hpl) = (opts.clone(), Arc::clone(hpl));
            cell(format!("resilience/n={nodes}/i={incidence}"), move || {
                resilience_cell(nodes, incidence, seed, &opts, &hpl)
            })
        })
        .collect();
    let opts = opts.clone();
    cells.push(cell("resilience/contrast", move || resilience_contrast(&opts)));
    let merge = |mut c: Cells| {
        let contrast = c.take_last::<ResilienceContrast>();
        resilience_study_from(c.rest(), contrast)
    };
    ArtefactSpec::merged("resilience", "resilience", cells, merge, ResilienceStudy::render)
}

/// `build` run once per network model, each cell relabelled
/// `ablate-net/<cell>/<model>`, and the two values compared point by point
/// as `figure`'s rows of the accuracy table.
fn ablated<V: 'static>(
    figure: &'static str,
    opts: &RunOpts,
    build: impl Fn(&RunOpts) -> Figure<V>,
    points: fn(&V) -> Vec<AblatePoint>,
) -> Figure<AblateFigure> {
    let sides = [NetModel::Event, NetModel::Flow].map(|net_model| {
        let mut side = build(&RunOpts { net_model, ..opts.clone() });
        for c in &mut side.cells {
            c.label = format!("ablate-net/{}/{}", c.label, net_model.name());
        }
        side
    });
    Figure::concat(sides.into()).map(move |values| {
        let [event, flow] = [&values[0], &values[1]].map(points);
        ablate_figure(figure, &event, &flow)
    })
}

fn ablate_net_artefact(scales: &RunScales, opts: &RunOpts, hpl: &Arc<HplShare>) -> ArtefactSpec {
    let figures = vec![
        ablated("fig6", opts, |o| fig6_figure(scales.fig6_nodes.clone(), o, hpl), fig6_points),
        ablated("fig7", opts, fig7_figure, fig7_points),
        ablated("hpl", opts, |o| hpl_figure(scales.hpl_nodes, o, hpl), hpl_points),
    ];
    Figure::concat(figures).map(AblateNet::from_figures).artefact(
        "ablate-net",
        "ablate_net",
        AblateNet::render,
    )
}

fn datacenter_artefact(jobs: u64, validation_nodes: u32, opts: &RunOpts) -> ArtefactSpec {
    let mut cells: Vec<Cell<CellValue>> = DATACENTER_CASES
        .iter()
        .map(|case| {
            cell(format!("datacenter/{}", case.label), move || ok(datacenter_cell(case, jobs)))
        })
        .collect();
    let opts = opts.clone();
    cells.push(cell(format!("datacenter/validation/n={validation_nodes}"), move || {
        datacenter_validation(validation_nodes, &opts)
    }));
    let merge = move |mut c: Cells| {
        let validation = c.take_last::<DcValidation>();
        datacenter_study_from(jobs, c.rest(), validation)
    };
    ArtefactSpec::merged("datacenter", "datacenter", cells, merge, DcStudy::render)
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
            let cells = vec![cell("fig1", || ok(crate::fig1()))];
            artefacts.push(ArtefactSpec::merged(
                "fig1",
                "fig1",
                cells,
                |mut c| c.take(),
                Fig1::render,
            ));
        }
        for (key, gen) in
            [("fig2a", crate::fig2a as fn() -> Fig2), ("fig2b", crate::fig2b as fn() -> Fig2)]
        {
            if want(key) || want("fig2") {
                let cells = vec![cell(key, move || ok(gen()))];
                artefacts.push(ArtefactSpec::merged(
                    key,
                    key,
                    cells,
                    |mut c| c.take(),
                    Fig2::render,
                ));
            }
        }
        let text = |key: &'static str, render: fn() -> String| {
            ArtefactSpec::text(key, vec![cell(key, move || ok(render()))])
        };
        if want("table1") {
            artefacts.push(text("table1", crate::table1_render));
        }
        if want("table2") {
            artefacts.push(text("table2", crate::table2_render));
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
            artefacts.push(text("table3", crate::table3_render));
        }
        if want("fig6") {
            let fig6 = fig6_figure(scales.fig6_nodes.clone(), opts, &hpl);
            artefacts.push(fig6.artefact("fig6", "fig6", Fig6::render));
        }
        if want("fig7") {
            artefacts.push(fig7_figure(opts).artefact("fig7", "fig7", Fig7::render));
        }
        if want("table4") {
            artefacts.push(text("table4", crate::table4_render));
        }
        if want("hpl") {
            let headline = hpl_figure(scales.hpl_nodes, opts, &hpl);
            artefacts.push(headline.artefact("hpl", "hpl_headline", HplHeadline::render));
        }
        if want("latency-penalty") {
            artefacts.push(text("latency-penalty", crate::latency_penalty_render));
        }
        if want("extensions") {
            let opts = opts.clone();
            let cells = vec![
                cell("extensions/ecc", || ok(crate::ecc_risk_render())),
                cell("extensions/eee", || ok(crate::eee_render())),
                cell("extensions/roofline", || ok(crate::roofline_render())),
                cell("extensions/imb", move || crate::imb_render(&opts)),
            ];
            artefacts.push(ArtefactSpec::text("extensions", cells));
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

    /// Replace the body of every cell whose label contains `needle` with one
    /// that panics — the supervisor acceptance probe (`repro
    /// --inject-panic`). Returns how many cells were sabotaged.
    pub fn inject_panic(&mut self, needle: &str) -> usize {
        let mut hit = 0;
        for a in &mut self.artefacts {
            for c in &mut a.cells {
                if c.label.contains(needle) {
                    let label = c.label.clone();
                    c.run = Box::new(move || {
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
            .filter_map(|r| match &r.outcome {
                CellOutcome::Quarantined { failure } => Some((r.label.clone(), failure.brief())),
                CellOutcome::Completed => None,
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
/// use bench::{run_plan, RunPlan, RunScales};
/// use simmpi::{NetModel, RunOpts};
///
/// let plan = RunPlan::from_items(&["table3".to_string()], &RunScales::golden(), &RunOpts::default());
/// let (artefacts, stats) = run_plan(
///     plan,
///     1,
///     None,          // no wall-clock limit per cell
///     &|_key| false, // nothing to resume past
///     |art| assert_eq!(art.key, "table3"),
/// );
/// assert_eq!(artefacts.len(), 1);
/// assert_eq!(stats.supervisor.quarantined, 0);
/// ```
pub fn run_plan(
    plan: RunPlan,
    jobs: usize,
    wall_limit: Option<Duration>,
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
        let (outs, reports) = run_cells(a.cells, jobs, wall_limit);
        cell_timings.extend(
            reports.iter().map(|r| CellTiming { label: r.label.clone(), wall_ms: r.wall_ms }),
        );
        sup_stats.absorb(stats_from_reports(&reports, wall_limit));
        let outcome = if outs.iter().all(Option::is_some) {
            let values: Vec<CellValue> = outs.into_iter().flatten().collect();
            let (blocks, json) = (a.merge)(Cells(values.into_iter()));
            ArtefactOutcome::Completed(ArtefactOut {
                key: a.key,
                blocks,
                json: a.json_stem.zip(json),
            })
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

    /// Run `plan` on `jobs` workers; every artefact must complete.
    fn completed(plan: RunPlan, jobs: usize) -> (Vec<ArtefactOut>, SweepStats) {
        let (arts, stats) = run_plan(plan, jobs, None, &|_| false, |_| {});
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
    fn ablation_runs_each_figure_cell_once_per_network_model() {
        let plan = golden_plan(&["fig6", "fig7", "hpl", "ablate-net"]);
        let labels = |key: &str| -> Vec<String> {
            let a = plan.artefacts.iter().find(|a| a.key == key).expect("artefact planned");
            a.cells.iter().map(|c| c.label.clone()).collect()
        };
        let mut want = Vec::new();
        for key in ["fig6", "fig7", "hpl"] {
            for model in ["event", "flow"] {
                want.extend(labels(key).iter().map(|l| format!("ablate-net/{l}/{model}")));
            }
        }
        let got = labels("ablate-net");
        assert_eq!(got, want);
        // The performance ledger attributes an ablation cell to a network
        // model by this suffix.
        assert!(got.iter().all(|l| l.ends_with("/event") || l.ends_with("/flow")), "{got:?}");
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

    /// The one artefact of a one-item golden plan: its printed blocks and
    /// the array `field` of its JSON.
    fn golden_artefact(key: &str, field: &str) -> (Vec<String>, Vec<serde::Value>) {
        let (mut arts, _) = completed(golden_plan(&[key]), 2);
        assert_eq!(arts.len(), 1);
        let art = arts.pop().unwrap();
        let json = serde_json::from_str(&art.json.expect("a JSON artefact").1).unwrap();
        match crate::journal::get(&json, field) {
            Some(serde::Value::Array(items)) => (art.blocks, items.clone()),
            other => panic!("{key}.json has no array {field}: {other:?}"),
        }
    }

    #[test]
    fn small_fig6_runs_quickly_and_sanely() {
        let (blocks, series) = golden_artefact("fig6", "series");
        assert_eq!(series.len(), 5);
        assert!(blocks[0].contains("HPL"));
        assert!(blocks[0].contains("HYDRO"));
    }

    #[test]
    fn tiny_sweep_produces_full_grid_and_renders() {
        let (blocks, cells) = golden_artefact("resilience", "cells");
        assert_eq!(cells.len(), crate::INCIDENCE_GRID.len());
        for c in &cells {
            let clean = crate::journal::get(c, "clean_secs");
            assert!(matches!(clean, Some(serde::Value::Float(s)) if *s > 0.0), "{clean:?}");
        }
        assert!(blocks[0].contains("inflation"));
        assert!(blocks[0].contains("with checkpoints"));
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
