//! The metric registry and the order statistics every report uses.

/// How `ledger compare` judges a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory, judged against its bound in `BENCHMARK.json`.
    Bounded,
    /// Deterministic (a model error, a failure share, a simulated count):
    /// any difference between two ledgers is a regression.
    Exact,
    /// Per-layer host time or a host-dependent count: reported, not judged.
    Info,
}

/// One metric the ledger can report.
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How `ledger compare` judges it.
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric { name, unit, kind }
}

/// Every metric, end-to-end first, then per layer in crate order. README.md
/// gives each one's source and the end-to-end metric it should move.
pub const METRICS: &[Metric] = &[
    m("wall_s", "s", Kind::Bounded),
    m("setup_s", "s", Kind::Bounded),
    m("peak_rss_mb", "MB", Kind::Bounded),
    m("fail_frac", "fraction", Kind::Exact),
    m("flow_fig7_err_pct", "%", Kind::Exact),
    m("dc_model_err_pct", "%", Kind::Exact),
    m("hpl_gflops_err_pct", "%", Kind::Exact),
    m("hpl_mflops_w_err_pct", "%", Kind::Exact),
    m("bench.sweep_s", "s", Kind::Info),
    m("bench.cell_sum_s", "s", Kind::Info),
    m("bench.idle_s", "s", Kind::Info),
    m("bench.artefact_bound_s", "s", Kind::Info),
    m("bench.plan_bound_s", "s", Kind::Info),
    m("bench.write_ms", "ms", Kind::Info),
    m("bench.journal_ms", "ms", Kind::Info),
    m("hpc_apps.fig6_hpl_cells_s", "s", Kind::Info),
    m("hpc_apps.fig6_apps_cells_s", "s", Kind::Info),
    m("hpc_apps.hpl_cells_s", "s", Kind::Info),
    m("hpc_apps.resilience_cells_s", "s", Kind::Info),
    m("des.events", "count", Kind::Exact),
    m("des.ns_per_event", "ns", Kind::Info),
    m("simmpi.msgs", "count", Kind::Exact),
    m("simmpi.events", "count", Kind::Exact),
    m("simmpi.ns_per_msg", "ns", Kind::Info),
    m("netsim.flow_cells_s", "s", Kind::Info),
    m("netsim.event_cells_s", "s", Kind::Info),
    m("netsim.flow_over_event", "ratio", Kind::Info),
    m("netsim.flow_events", "count", Kind::Exact),
    m("netsim.flow_ns_per_msg", "ns", Kind::Info),
    // Under --jobs 2 two workers may both miss one key, so the cache
    // counters are host-dependent there.
    m("soc_arch.cache_hits", "count", Kind::Info),
    m("soc_arch.cache_misses", "count", Kind::Info),
    m("soc_arch.hit_rate", "ratio", Kind::Info),
    m("soc_arch.ns_per_hit", "ns", Kind::Info),
    m("soc_arch.ns_per_hit_2t", "ns", Kind::Info),
    m("soc_arch.ns_per_miss", "ns", Kind::Info),
    m("sched.replay_cells_s", "s", Kind::Info),
    m("sched.validation_cells_s", "s", Kind::Info),
    m("sched.gen_s", "s", Kind::Info),
    m("sched.replay_s.fcfs", "s", Kind::Info),
    m("sched.replay_s.easy", "s", Kind::Info),
    m("sched.replay_s.fair", "s", Kind::Info),
    m("sched.replay_s.easy1024", "s", Kind::Info),
    m("sched.jobs_per_s", "1/s", Kind::Info),
];

/// The registry entry for `name`.
pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// ledger's spreads match the ones the benchmark contract is checked with.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, a) in METRICS.iter().enumerate() {
            assert!(METRICS[i + 1..].iter().all(|b| b.name != a.name), "{} twice", a.name);
        }
    }
}
