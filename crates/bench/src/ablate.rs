//! The `--ablate-net` model-equivalence harness: every golden figure that
//! exercises the interconnect (Fig 6, Fig 7 — the paper's Fig 12 ping-pong
//! curves — and the §4 HPL headline) is regenerated under both the
//! per-message event model and the fair-sharing flow model, and the deltas
//! are condensed into a per-figure accuracy table (max relative error plus a
//! per-app / per-panel breakdown). The artefact is journaled and persisted
//! like any other (`repro --ablate-net --json DIR`), pinned as a golden
//! (`tests/goldens/ablate_net.json`), and gated by the `net-ablation-smoke`
//! stage of `ci.sh`.
//!
//! Each cell overrides only the network model of the run's options, so
//! ablation cells stay deterministic under any `--jobs` schedule. These
//! cells are the one place a `repro` run chooses a network model: every
//! other simulation runs under [`RunOpts`]'s default, the event model.

use cluster::Machine;
use hpc_apps::hpl::HplShare;
use serde::Serialize;
use simmpi::{NetModel, RunOpts};

use crate::fig67::{fig7_cases, fig7_panel, hpl_headline};
use crate::table::render_table;

/// The figures the ablation compares, in artefact order.
pub const ABLATE_FIGURES: [&str; 3] = ["fig6", "fig7", "hpl"];

/// One labelled scalar observable (a figure data point) measured under one
/// network model.
#[derive(Clone, Debug, Serialize)]
pub struct AblatePoint {
    /// `group|qualifier` label; the group (application, panel, headline —
    /// which may itself contain `/`) is the breakdown key of the merged
    /// table.
    pub label: String,
    /// The observable (seconds, µs, or MB/s — units are per-figure).
    pub value: f64,
}

/// One figure regenerated under one network model: the flattened points of
/// every series/panel, in deterministic order.
#[derive(Clone, Debug, Serialize)]
pub struct AblateSide {
    /// Which figure (`fig6` | `fig7` | `hpl`).
    pub figure: &'static str,
    /// Which model produced the points (`event` | `flow`).
    pub model: &'static str,
    /// The labelled observables.
    pub points: Vec<AblatePoint>,
}

/// Per-group (application / panel / headline) accuracy row.
#[derive(Clone, Debug, Serialize)]
pub struct AblateRow {
    /// Breakdown key: the Fig 6 application, the Fig 7 panel, or `HPL`.
    pub group: String,
    /// Points compared in this group.
    pub points: usize,
    /// Max relative error across the group's points.
    pub max_rel_err: f64,
    /// The point label where the max occurs.
    pub worst_point: String,
    /// Event-model value at the worst point.
    pub event: f64,
    /// Flow-model value at the worst point.
    pub flow: f64,
}

/// One figure's accuracy summary.
#[derive(Clone, Debug, Serialize)]
pub struct AblateFigure {
    /// Which figure.
    pub figure: String,
    /// Points compared.
    pub points: usize,
    /// Max relative error across every point of the figure.
    pub max_rel_err: f64,
    /// Per-group breakdown.
    pub rows: Vec<AblateRow>,
}

/// The `--ablate-net` artefact: per-figure accuracy deltas between the event
/// and flow network models. The three `max_rel_err_*` fields duplicate the
/// per-figure maxima at the top level so `ci.sh` can gate them with a grep.
#[derive(Clone, Debug, Serialize)]
pub struct AblateNet {
    /// Fig 6 max relative error.
    pub max_rel_err_fig6: f64,
    /// Fig 7 (the paper's Fig 12 ping-pong curves) max relative error.
    pub max_rel_err_fig7: f64,
    /// HPL headline max relative error.
    pub max_rel_err_hpl: f64,
    /// The full per-figure tables.
    pub figures: Vec<AblateFigure>,
}

/// Regenerate one figure's observables under `opts` with its network model
/// replaced by `model`. Fig 6 and HPL run at the invocation's scales, taking
/// their HPL runs from `hpl`; Fig 7 always runs its six full panels.
pub fn ablate_side(
    figure: &'static str,
    model: NetModel,
    fig6_nodes: &[u32],
    hpl_nodes: u32,
    opts: &RunOpts,
    hpl: &HplShare,
) -> Result<AblateSide, simmpi::MpiFault> {
    let opts = RunOpts { net_model: model, ..opts.clone() };
    let points = match figure {
        "fig6" => hpc_apps::fig6(&Machine::tibidabo(), fig6_nodes, &opts, hpl)?
            .iter()
            .flat_map(|s| {
                s.points.iter().map(move |p| AblatePoint {
                    label: format!("{}|n={}/t", s.app, p.nodes),
                    value: p.seconds,
                })
            })
            .collect(),
        "fig7" => {
            let mut points = Vec::new();
            for (label, plat, freq, proto) in fig7_cases() {
                let p = fig7_panel(label, plat, freq, proto, &opts)?;
                points.extend(p.latency.iter().map(|x| AblatePoint {
                    label: format!("{label}|lat/{}B", x.bytes),
                    value: x.latency_us,
                }));
                points.extend(p.bandwidth.iter().map(|x| AblatePoint {
                    label: format!("{label}|bw/{}B", x.bytes),
                    value: x.bandwidth_mbs,
                }));
            }
            points
        }
        "hpl" => {
            let h = hpl_headline(hpl_nodes, &opts, hpl)?;
            vec![
                AblatePoint { label: format!("HPL|n={}/t", h.nodes), value: h.seconds },
                AblatePoint { label: format!("HPL|n={}/gflops", h.nodes), value: h.gflops },
            ]
        }
        other => unreachable!("unknown ablation figure {other}"),
    };
    Ok(AblateSide { figure, model: model.name(), points })
}

/// `|flow - event| / max(|event|, tiny)` — relative to the event model, the
/// reference the goldens pin.
fn rel_err(event: f64, flow: f64) -> f64 {
    (flow - event).abs() / event.abs().max(1e-12)
}

/// The group key of a point label: everything before the `|` separator
/// (panel labels legitimately contain `/`).
fn group_of(label: &str) -> &str {
    label.split('|').next().unwrap_or(label)
}

/// Merge the six sides (event + flow per figure, in [`ABLATE_FIGURES`]
/// order) into the accuracy-delta artefact.
pub fn ablate_merge(sides: Vec<AblateSide>) -> AblateNet {
    assert_eq!(sides.len(), 2 * ABLATE_FIGURES.len(), "one event + one flow side per figure");
    let mut figures = Vec::new();
    for pair in sides.chunks(2) {
        let (ev, fl) = (&pair[0], &pair[1]);
        assert_eq!(ev.figure, fl.figure, "ablation sides out of order");
        assert_eq!((ev.model, fl.model), ("event", "flow"), "ablation models out of order");
        assert_eq!(ev.points.len(), fl.points.len(), "{}: point counts differ", ev.figure);
        let mut rows: Vec<AblateRow> = Vec::new();
        for (e, f) in ev.points.iter().zip(&fl.points) {
            assert_eq!(e.label, f.label, "{}: point labels diverged", ev.figure);
            let err = rel_err(e.value, f.value);
            let group = group_of(&e.label).to_string();
            match rows.last_mut() {
                Some(r) if r.group == group => {
                    r.points += 1;
                    if err > r.max_rel_err {
                        r.max_rel_err = err;
                        r.worst_point = e.label.clone();
                        r.event = e.value;
                        r.flow = f.value;
                    }
                }
                _ => rows.push(AblateRow {
                    group,
                    points: 1,
                    max_rel_err: err,
                    worst_point: e.label.clone(),
                    event: e.value,
                    flow: f.value,
                }),
            }
        }
        let max_rel_err = rows.iter().map(|r| r.max_rel_err).fold(0.0, f64::max);
        figures.push(AblateFigure {
            figure: ev.figure.to_string(),
            points: ev.points.len(),
            max_rel_err,
            rows,
        });
    }
    let by = |f: &str| figures.iter().find(|x| x.figure == f).map_or(0.0, |x| x.max_rel_err);
    AblateNet {
        max_rel_err_fig6: by("fig6"),
        max_rel_err_fig7: by("fig7"),
        max_rel_err_hpl: by("hpl"),
        figures,
    }
}

impl AblateNet {
    /// Text rendering: one breakdown row per application/panel, plus a
    /// per-figure summary line.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for fig in &self.figures {
            for r in &fig.rows {
                rows.push(vec![
                    fig.figure.clone(),
                    r.group.clone(),
                    r.points.to_string(),
                    format!("{:.3}%", 100.0 * r.max_rel_err),
                    r.worst_point.clone(),
                    format!("{:.6}", r.event),
                    format!("{:.6}", r.flow),
                ]);
            }
        }
        let mut out = render_table(
            "Ablation: flow-level network model vs per-message event model",
            &["figure", "group", "points", "max rel err", "worst point", "event", "flow"],
            &rows,
        );
        for fig in &self.figures {
            out.push_str(&format!(
                "{}: max relative error {:.4}% over {} points\n",
                fig.figure,
                100.0 * fig.max_rel_err,
                fig.points
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(figure: &'static str, model: &'static str, vals: &[(&str, f64)]) -> AblateSide {
        AblateSide {
            figure,
            model,
            points: vals
                .iter()
                .map(|(l, v)| AblatePoint { label: l.to_string(), value: *v })
                .collect(),
        }
    }

    #[test]
    fn merge_computes_per_group_and_per_figure_maxima() {
        let sides = vec![
            side("fig6", "event", &[("A|n=4/t", 1.0), ("A|n=8/t", 2.0), ("B|n=4/t", 4.0)]),
            side("fig6", "flow", &[("A|n=4/t", 1.1), ("A|n=8/t", 2.0), ("B|n=4/t", 4.0)]),
            side("fig7", "event", &[("P|lat/0B", 10.0)]),
            side("fig7", "flow", &[("P|lat/0B", 10.5)]),
            side("hpl", "event", &[("HPL|n=4/t", 100.0)]),
            side("hpl", "flow", &[("HPL|n=4/t", 100.0)]),
        ];
        let merged = ablate_merge(sides);
        assert!((merged.max_rel_err_fig6 - 0.1).abs() < 1e-12);
        assert!((merged.max_rel_err_fig7 - 0.05).abs() < 1e-12);
        assert_eq!(merged.max_rel_err_hpl, 0.0);
        let fig6 = &merged.figures[0];
        assert_eq!(fig6.rows.len(), 2, "two groups: A and B");
        assert_eq!(fig6.rows[0].worst_point, "A|n=4/t");
        assert_eq!(fig6.rows[0].points, 2);
        let rendered = merged.render();
        assert!(rendered.contains("max rel err"));
        assert!(rendered.contains("fig7: max relative error 5.0000% over 1 points"));
    }

    #[test]
    fn ablate_side_small_hpl_runs_under_both_models() {
        let hpl = HplShare::default();
        let opts = RunOpts::default();
        let ev = ablate_side("hpl", NetModel::Event, &[], 2, &opts, &hpl).unwrap();
        let fl = ablate_side("hpl", NetModel::Flow, &[], 2, &opts, &hpl).unwrap();
        assert_eq!(ev.points.len(), fl.points.len());
        // One job per model: the overridden models key distinct runs.
        assert_eq!((hpl.requests(), hpl.simulated()), (2, 2));
        // The two models agree on the headline to a few percent even at a
        // toy scale — the merged artefact quantifies the exact gap.
        let merged = ablate_merge(vec![
            side("fig6", "event", &[]),
            side("fig6", "flow", &[]),
            side("fig7", "event", &[]),
            side("fig7", "flow", &[]),
            ev,
            fl,
        ]);
        assert!(merged.max_rel_err_hpl < 0.10, "hpl drift {}", merged.max_rel_err_hpl);
    }
}
