//! `ledger compare BASE NEW`: a verdict for every (workload, metric) pair.

use crate::metrics::{median, metric, quartiles, Kind};
use crate::results::{BenchSpec, Results};

/// The judgement on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// New is better than base by more than the bound.
    Better,
    /// Within the bound (or, for an exact metric, identical).
    Same,
    /// New is worse than base by more than the bound (or an exact metric
    /// changed).
    Worse,
    /// Base's own quartile spread exceeds the bound, so the samples cannot
    /// tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A deterministic metric: every sample of both sides must be identical.
pub fn judge_exact(base: &[f64], new: &[f64]) -> Verdict {
    let first = base[0];
    if base.iter().chain(new).all(|&x| x == first) {
        Verdict::Same
    } else {
        Verdict::Worse
    }
}

/// A bounded metric: compare medians against `bound` (a share of base's
/// median). When base's quartile spread, as a share of its median, exceeds
/// the bound the pair is unresolved, unless every new sample beats every
/// base sample.
pub fn judge_bounded(bound: f64, lower_is_better: bool, base: &[f64], new: &[f64]) -> Verdict {
    let mb = median(base);
    let (q1, q3) = quartiles(base);
    // Positive = worse, as a share of base's median.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let change = sign * (median(new) - mb) / mb.abs();
    let beats = |n: f64, b: f64| sign * (b - n) > 0.0;
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    if (q3 - q1) / mb.abs() > bound {
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Print the comparison; returns whether any pair is worse.
pub fn compare(spec: &BenchSpec, base: &Results, new: &Results) -> Result<bool, String> {
    println!(
        "base {} ({}, {} rounds)  new {} ({}, {} rounds)",
        base.commit, base.date, base.repeats, new.commit, new.date, new.repeats
    );
    println!(
        "{:<16} {:<30} {:>8} {:>14} {:>14}  verdict",
        "workload", "metric", "unit", "base median", "new median"
    );
    let mut any_worse = false;
    let mut changed = Vec::new();
    for bg in &base.groups {
        let Some(ng) = new.groups.iter().find(|g| g.name == bg.name) else {
            println!("{:<16} missing from NEW", bg.name);
            any_worse = true;
            continue;
        };
        for (name, bs) in &bg.metrics {
            let Some(ns) = ng.samples(name) else {
                println!("{:<16} {name:<30} missing from NEW", bg.name);
                any_worse = true;
                continue;
            };
            let m = metric(name).ok_or_else(|| format!("unknown metric {name} in BASE"))?;
            let verdict = match m.kind {
                Kind::Exact => Some(judge_exact(bs, ns)),
                Kind::Bounded => {
                    let (_, bound, lower) = spec
                        .end_to_end
                        .iter()
                        .find(|e| e.0 == *name)
                        .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
                    Some(judge_bounded(*bound, *lower, bs, ns))
                }
                Kind::Info => None,
            };
            any_worse |= verdict == Some(Verdict::Worse);
            println!(
                "{:<16} {name:<30} {:>8} {:>14.6} {:>14.6}  {}",
                bg.name,
                m.unit,
                median(bs),
                median(ns),
                verdict.map_or("info", Verdict::label)
            );
        }
        for (file, digest) in &bg.artefacts {
            if ng.artefacts.iter().find(|(f, _)| f == file).map(|(_, d)| d) != Some(digest) {
                changed.push(format!("{}: {file}", bg.name));
            }
        }
    }
    if changed.is_empty() {
        println!("artefact bytes: all identical");
    } else {
        println!("artefacts whose bytes changed:");
        for c in &changed {
            println!("  {c}");
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_must_repeat() {
        assert_eq!(judge_exact(&[0.19, 0.19], &[0.19, 0.19, 0.19]), Verdict::Same);
        assert_eq!(judge_exact(&[0.19, 0.19], &[0.19, 0.2]), Verdict::Worse);
        assert_eq!(judge_exact(&[0.0], &[0.01]), Verdict::Worse);
    }

    #[test]
    fn bounded_verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within 8 %: same; beyond it either way: worse / better.
        assert_eq!(judge_bounded(0.08, true, &base, &[10.5, 10.6, 10.4]), Verdict::Same);
        assert_eq!(judge_bounded(0.08, true, &base, &[11.0, 11.2, 10.9]), Verdict::Worse);
        assert_eq!(judge_bounded(0.08, true, &base, &[9.0, 9.1, 8.9]), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(judge_bounded(0.08, false, &base, &[11.0, 11.2, 10.9]), Verdict::Better);
    }

    #[test]
    fn wide_base_spread_is_unresolved_unless_new_always_wins() {
        // Base quartiles 9.5 .. 13.5 around a median of 11: spread 36 %.
        let base = [9.0, 10.0, 11.0, 13.0, 14.0];
        assert_eq!(judge_bounded(0.08, true, &base, &[12.0, 15.0, 16.0]), Verdict::Unresolved);
        assert_eq!(judge_bounded(0.08, true, &base, &[10.0, 10.5, 11.0]), Verdict::Unresolved);
        // Every new sample below every base sample.
        assert_eq!(judge_bounded(0.08, true, &base, &[8.0, 8.5, 7.9]), Verdict::Better);
    }
}
