//! The run options reach every simulating cell. Under an event budget of
//! one, every `simmpi` job fails at its first event, so exactly the cells
//! that simulate a job are quarantined — each as a typed failure, not a
//! panic — and every other cell completes. A cell that built its own job
//! spec without the plan's options would run unbudgeted and complete.

use bench::{run_plan, CellFailure, CellOutcome, RunPlan, RunScales};
use simmpi::RunOpts;

/// The golden-scale Fig 6, Fig 7 and HPL headline cells, in plan order.
/// Each simulates a `simmpi` job, and the network ablation runs each again
/// once per network model.
const FIGURE_CELLS: [&str; 16] = [
    "fig6/Hpl/n=4",
    "fig6/Hpl/n=8",
    "fig6/Pepc/n=24",
    "fig6/Hydro/n=4",
    "fig6/Hydro/n=8",
    "fig6/Gromacs/n=4",
    "fig6/Gromacs/n=8",
    "fig6/Specfem3d/n=4",
    "fig6/Specfem3d/n=8",
    "fig7/Tegra2 TCP/IP @1.0GHz",
    "fig7/Tegra2 Open-MX @1.0GHz",
    "fig7/Exynos5 TCP/IP @1.0GHz",
    "fig7/Exynos5 Open-MX @1.0GHz",
    "fig7/Exynos5 TCP/IP @1.4GHz",
    "fig7/Exynos5 Open-MX @1.4GHz",
    "hpl/n=4",
];

/// Every golden-scale cell that simulates a `simmpi` job, in plan order.
fn simulating_cells() -> Vec<String> {
    let mut cells: Vec<String> = FIGURE_CELLS.map(String::from).into();
    cells.extend(
        [
            "extensions/imb",
            "resilience/n=2/i=0.04",
            "resilience/n=2/i=0.12",
            "resilience/n=2/i=0.2",
            "resilience/contrast",
        ]
        .map(String::from),
    );
    for figure in ["fig6/", "fig7/", "hpl/"] {
        for model in ["event", "flow"] {
            let ablated = FIGURE_CELLS.iter().filter(|c| c.starts_with(figure));
            cells.extend(ablated.map(|c| format!("ablate-net/{c}/{model}")));
        }
    }
    cells.push("datacenter/validation/n=4".into());
    cells
}

#[test]
fn an_event_budget_reaches_every_simulating_cell() {
    let opts = RunOpts { event_budget: Some(1), ..RunOpts::default() };
    let plan = RunPlan::from_items(&["all".to_string()], &RunScales::golden(), &opts);
    let cells = plan.cell_count();
    let (arts, _) = run_plan(plan, 2, None, &|_| false, |_| {});
    let mut quarantined = Vec::new();
    let mut completed = 0;
    for cell in arts.iter().flat_map(|a| &a.cells) {
        match &cell.outcome {
            CellOutcome::Completed => completed += 1,
            CellOutcome::Quarantined { failure } => {
                assert!(
                    matches!(failure, CellFailure::Error { message }
                        if message.contains("event budget exhausted")),
                    "{} failed other than by a typed budget fault: {}",
                    cell.label,
                    failure.brief()
                );
                quarantined.push(cell.label.as_str());
            }
        }
    }
    let want = simulating_cells();
    assert_eq!(quarantined, want);
    assert_eq!(completed, cells - want.len());
}
