//! Per-layer host time from the `_sweep_stats.json` every `repro --json`
//! run writes: its per-cell wall times, mapped to layers by cell label,
//! plus the sweep's scheduling bounds. Reading them costs the measured run
//! nothing.

use serde_json::Value;

/// The fields of one `_sweep_stats.json` the ledger uses.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepStats {
    /// Worker threads of the sweep.
    pub jobs: u64,
    /// Sweep wall time, seconds.
    pub wall_s: f64,
    /// `(label, seconds)` per executed cell, in plan order.
    pub cells: Vec<(String, f64)>,
    /// Cells with no usable output.
    pub quarantined: u64,
    /// Artefacts a `--resume` run verified and skipped.
    pub resumed_skipped: u64,
    /// Timing-cache hits and misses during the sweep.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
}

/// `v[key]`, for objects.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(x) => Some(x),
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        _ => None,
    }
}

/// The number at `path` (object keys, outermost first).
pub fn num_at(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| get(v, k)).and_then(num)
}

impl SweepStats {
    /// Parse the text of a `_sweep_stats.json`.
    pub fn parse(text: &str) -> Result<SweepStats, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let field = |path: &[&str]| {
            num_at(&v, path).ok_or_else(|| format!("_sweep_stats.json lacks {}", path.join(".")))
        };
        let cells = match get(&v, "cell_timings") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|c| match (get(c, "label"), get(c, "wall_ms").and_then(num)) {
                    (Some(Value::String(l)), Some(ms)) => Ok((l.clone(), ms / 1e3)),
                    _ => Err("malformed cell_timings entry".to_string()),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("_sweep_stats.json lacks cell_timings".into()),
        };
        Ok(SweepStats {
            jobs: field(&["jobs"])? as u64,
            wall_s: field(&["wall_s"])?,
            cells,
            quarantined: field(&["supervisor", "quarantined"])? as u64,
            resumed_skipped: field(&["supervisor", "resumed_skipped"])? as u64,
            cache_hits: field(&["timing_cache", "hits"])? as u64,
            cache_misses: field(&["timing_cache", "misses"])? as u64,
        })
    }

    /// The bench-layer metrics and the timing-cache counters:
    ///
    /// * `bench.idle_s` — worker time no cell used: jobs × sweep − Σ cells;
    /// * `bench.plan_bound_s` — the fastest the plan could run on `jobs`
    ///   workers if every cell were free to start: max(longest cell, Σ / jobs);
    /// * `bench.artefact_bound_s` — the same bound when artefacts settle one
    ///   at a time, as `repro` does: Σ over artefacts of max(longest cell of
    ///   the artefact, its Σ / jobs).
    pub fn bench_metrics(&self) -> Vec<(&'static str, f64)> {
        let jobs = self.jobs.max(1) as f64;
        let sum: f64 = self.cells.iter().map(|c| c.1).sum();
        let longest = self.cells.iter().map(|c| c.1).fold(0.0, f64::max);
        let mut artefact_bound = 0.0;
        let mut i = 0;
        while i < self.cells.len() {
            let key = artefact_of(&self.cells[i].0);
            let group: Vec<f64> = self.cells[i..]
                .iter()
                .take_while(|c| artefact_of(&c.0) == key)
                .map(|c| c.1)
                .collect();
            i += group.len();
            let group_sum: f64 = group.iter().sum();
            artefact_bound += group.iter().copied().fold(group_sum / jobs, f64::max);
        }
        let lookups = (self.cache_hits + self.cache_misses).max(1) as f64;
        vec![
            ("bench.sweep_s", self.wall_s),
            ("bench.cell_sum_s", sum),
            ("bench.idle_s", jobs * self.wall_s - sum),
            ("bench.artefact_bound_s", artefact_bound),
            ("bench.plan_bound_s", longest.max(sum / jobs)),
            ("soc_arch.cache_hits", self.cache_hits as f64),
            ("soc_arch.cache_misses", self.cache_misses as f64),
            ("soc_arch.hit_rate", self.cache_hits as f64 / lookups),
        ]
    }

    /// Cell seconds per layer, for the layers this run's cells exercise
    /// (cells of no listed layer take under 0.2 % of any workload), plus
    /// `netsim.flow_over_event` when both network models ran.
    pub fn layer_cells(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (label, s) in &self.cells {
            let Some(name) = layer_of(label) else { continue };
            match out.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += s,
                None => out.push((name, *s)),
            }
        }
        let total = |n: &str| out.iter().find(|(m, _)| *m == n).map(|p| p.1);
        if let (Some(flow), Some(event)) =
            (total("netsim.flow_cells_s"), total("netsim.event_cells_s"))
        {
            out.push(("netsim.flow_over_event", flow / event));
        }
        out
    }
}

/// The artefact a cell belongs to: its label up to the first `/`.
fn artefact_of(label: &str) -> &str {
    label.split_once('/').map_or(label, |(a, _)| a)
}

/// The per-layer metric a cell's wall time counts towards.
pub fn layer_of(label: &str) -> Option<&'static str> {
    let rest = label.split_once('/').map_or("", |(_, r)| r);
    Some(match artefact_of(label) {
        "fig6" if rest.starts_with("Hpl/") => "hpc_apps.fig6_hpl_cells_s",
        "fig6" => "hpc_apps.fig6_apps_cells_s",
        "hpl" => "hpc_apps.hpl_cells_s",
        "resilience" => "hpc_apps.resilience_cells_s",
        "ablate-net" if rest.ends_with("/flow") => "netsim.flow_cells_s",
        "ablate-net" if rest.ends_with("/event") => "netsim.event_cells_s",
        "datacenter" if rest.starts_with("validation/") => "sched.validation_cells_s",
        "datacenter" => "sched.replay_cells_s",
        _ => return None,
    })
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A `_sweep_stats.json` in the shape `repro` writes, cut down to a few
    /// cells of each layer, on 2 workers.
    pub const FIXTURE: &str = r#"{
  "jobs": 2,
  "cells": 9,
  "wall_s": 5.0,
  "timing_cache": {"hits": 300, "misses": 100},
  "cell_timings": [
    {"label": "fig1", "wall_ms": 0.5},
    {"label": "fig6/Hpl/n=4", "wall_ms": 1000.0},
    {"label": "fig6/Hydro/n=4", "wall_ms": 500.0},
    {"label": "hpl/n=16", "wall_ms": 250.0},
    {"label": "resilience/n=4/i=0.04", "wall_ms": 40.0},
    {"label": "ablate-net/fig6/event", "wall_ms": 1000.0},
    {"label": "ablate-net/fig6/flow", "wall_ms": 4000.0},
    {"label": "datacenter/easy/tibidabo", "wall_ms": 200.0},
    {"label": "datacenter/validation/n=8", "wall_ms": 9.5}
  ],
  "supervisor": {"quarantined": 0, "retried": 0, "nondeterministic": 0, "timeouts": 0,
                 "resumed_skipped": 0, "watchdog_margins": []},
  "ckpt": {"condemned_runs": 0}
}"#;

    fn value(pairs: &[(&'static str, f64)], name: &str) -> f64 {
        pairs.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("no {name}")).1
    }

    #[test]
    fn labels_map_to_layers() {
        assert_eq!(layer_of("fig6/Hpl/n=96"), Some("hpc_apps.fig6_hpl_cells_s"));
        assert_eq!(layer_of("fig6/Pepc/n=32"), Some("hpc_apps.fig6_apps_cells_s"));
        assert_eq!(layer_of("hpl/n=96"), Some("hpc_apps.hpl_cells_s"));
        assert_eq!(layer_of("resilience/contrast"), Some("hpc_apps.resilience_cells_s"));
        assert_eq!(layer_of("ablate-net/hpl/flow"), Some("netsim.flow_cells_s"));
        assert_eq!(layer_of("ablate-net/fig7/event"), Some("netsim.event_cells_s"));
        assert_eq!(layer_of("datacenter/easy/tibidabo-1024"), Some("sched.replay_cells_s"));
        assert_eq!(layer_of("datacenter/validation/n=16"), Some("sched.validation_cells_s"));
        assert_eq!(layer_of("fig3/tegra2"), None);
        assert_eq!(layer_of("table4"), None);
    }

    #[test]
    fn fixture_layer_sums_and_bounds() {
        let st = SweepStats::parse(FIXTURE).expect("fixture parses");
        assert_eq!((st.jobs, st.cells.len(), st.quarantined), (2, 9, 0));
        let cells = st.layer_cells();
        assert_eq!(value(&cells, "hpc_apps.fig6_hpl_cells_s"), 1.0);
        assert_eq!(value(&cells, "netsim.flow_cells_s"), 4.0);
        assert_eq!(value(&cells, "netsim.flow_over_event"), 4.0);
        assert_eq!(value(&cells, "sched.validation_cells_s"), 0.0095);

        let b = st.bench_metrics();
        assert!((value(&b, "bench.cell_sum_s") - 7.0).abs() < 1e-12);
        // 2 workers x 5 s, minus the 7 cell seconds.
        assert!((value(&b, "bench.idle_s") - 3.0).abs() < 1e-12);
        // The 4 s flow cell is longer than the 3.5 s half of the plan.
        assert_eq!(value(&b, "bench.plan_bound_s"), 4.0);
        // Per artefact, max(longest cell, sum / 2): fig1 0.0005, fig6 1.0,
        // hpl 0.25, resilience 0.04, ablate-net 4.0, datacenter 0.2.
        let want = 0.0005 + 1.0 + 0.25 + 0.04 + 4.0 + 0.2;
        assert!((value(&b, "bench.artefact_bound_s") - want).abs() < 1e-12);
        assert_eq!(value(&b, "soc_arch.hit_rate"), 0.75);
    }

    #[test]
    fn malformed_stats_are_errors() {
        assert!(SweepStats::parse("{}").is_err());
        assert!(SweepStats::parse("not json").is_err());
    }
}
