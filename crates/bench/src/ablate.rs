//! The `--ablate-net` model-equivalence table. The plan (`plan.rs`) runs
//! every figure that exercises the interconnect (Fig 6, Fig 7 — the paper's
//! Fig 12 ping-pong curves — and the §4 HPL headline) twice, from the same
//! cells its own artefact runs: once under the per-message event model and
//! once under the fair-sharing flow model. This module flattens each
//! figure's two values into labelled points and condenses their deltas into
//! a per-figure accuracy table (max relative error plus a per-app /
//! per-panel breakdown). The artefact is journaled and persisted like any
//! other (`repro --ablate-net --json DIR`), pinned as a golden
//! (`tests/goldens/ablate_net.json`), and gated by the `net-ablation-smoke`
//! stage of `ci.sh`.
//!
//! Each ablation cell overrides only the network model of the run's
//! options, so the ablation stays deterministic under any `--jobs`
//! schedule. These cells are the flow model's one user in `repro`: every
//! other simulation runs under [`RunOpts`](simmpi::RunOpts)'s default, the
//! event model.

use serde::Serialize;

use crate::fig67::{Fig6, Fig7, HplHeadline};
use crate::table::render_table;

/// One labelled scalar observable (a figure data point) measured under one
/// network model.
#[derive(Debug)]
pub(crate) struct AblatePoint {
    /// `group|qualifier` label; the group (application, panel, headline —
    /// which may itself contain `/`) is the breakdown key of the merged
    /// table.
    pub label: String,
    /// The observable (seconds, µs, or MB/s — units are per-figure).
    pub value: f64,
}

/// Fig 6's points: each series' elapsed seconds per node count.
pub(crate) fn fig6_points(fig: &Fig6) -> Vec<AblatePoint> {
    fig.series
        .iter()
        .flat_map(|s| {
            s.points.iter().map(move |p| AblatePoint {
                label: format!("{}|n={}/t", s.app, p.nodes),
                value: p.seconds,
            })
        })
        .collect()
}

/// Fig 7's points: each panel's latencies (µs), then its bandwidths (MB/s).
pub(crate) fn fig7_points(fig: &Fig7) -> Vec<AblatePoint> {
    let mut points = Vec::new();
    for p in &fig.panels {
        let label = &p.label;
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

/// The HPL headline's points: its seconds and its GFLOPS.
pub(crate) fn hpl_points(h: &HplHeadline) -> Vec<AblatePoint> {
    vec![
        AblatePoint { label: format!("HPL|n={}/t", h.nodes), value: h.seconds },
        AblatePoint { label: format!("HPL|n={}/gflops", h.nodes), value: h.gflops },
    ]
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

/// Compare one figure's event-model and flow-model points, which label the
/// same observables in the same order: one row per group, with its worst
/// point, and the figure's maximum.
pub(crate) fn ablate_figure(
    figure: &str,
    event: &[AblatePoint],
    flow: &[AblatePoint],
) -> AblateFigure {
    assert_eq!(event.len(), flow.len(), "{figure}: point counts differ");
    let mut rows: Vec<AblateRow> = Vec::new();
    for (e, f) in event.iter().zip(flow) {
        assert_eq!(e.label, f.label, "{figure}: point labels diverged");
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
    AblateFigure { figure: figure.to_string(), points: event.len(), max_rel_err, rows }
}

impl AblateNet {
    /// The artefact over the compared figures, in artefact order.
    pub(crate) fn from_figures(figures: Vec<AblateFigure>) -> AblateNet {
        let by = |f: &str| figures.iter().find(|x| x.figure == f).map_or(0.0, |x| x.max_rel_err);
        AblateNet {
            max_rel_err_fig6: by("fig6"),
            max_rel_err_fig7: by("fig7"),
            max_rel_err_hpl: by("hpl"),
            figures,
        }
    }

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
    use hpc_apps::hpl::HplShare;
    use simmpi::{NetModel, RunOpts};

    fn points(vals: &[(&str, f64)]) -> Vec<AblatePoint> {
        vals.iter().map(|(l, v)| AblatePoint { label: l.to_string(), value: *v }).collect()
    }

    #[test]
    fn merge_computes_per_group_and_per_figure_maxima() {
        let fig6 = ablate_figure(
            "fig6",
            &points(&[("A|n=4/t", 1.0), ("A|n=8/t", 2.0), ("B|n=4/t", 4.0)]),
            &points(&[("A|n=4/t", 1.1), ("A|n=8/t", 2.0), ("B|n=4/t", 4.0)]),
        );
        let fig7 =
            ablate_figure("fig7", &points(&[("P|lat/0B", 10.0)]), &points(&[("P|lat/0B", 10.5)]));
        let hpl = ablate_figure(
            "hpl",
            &points(&[("HPL|n=4/t", 100.0)]),
            &points(&[("HPL|n=4/t", 100.0)]),
        );
        let merged = AblateNet::from_figures(vec![fig6, fig7, hpl]);
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
    fn small_hpl_headline_runs_under_both_models() {
        let hpl = HplShare::default();
        let [ev, fl] = [NetModel::Event, NetModel::Flow].map(|net_model| {
            let opts = RunOpts { net_model, ..RunOpts::default() };
            hpl_points(&crate::hpl_headline(2, &opts, &hpl).unwrap())
        });
        // One job per model: the overridden models key distinct runs.
        assert_eq!((hpl.requests(), hpl.simulated()), (2, 2));
        // The two models agree on the headline to a few percent even at a
        // toy scale — the merged artefact quantifies the exact gap.
        let merged = AblateNet::from_figures(vec![ablate_figure("hpl", &ev, &fl)]);
        assert!(merged.max_rel_err_hpl < 0.10, "hpl drift {}", merged.max_rel_err_hpl);
    }
}
