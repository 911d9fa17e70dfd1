//! The ledger's files: `BENCHMARK.json` (metric names, units and bounds)
//! and `results.json` (every sample of every metric, per workload).

use serde_json::Value;

use crate::metrics::{median, metric, quartiles};
use crate::stats::{get, num};

/// What the ledger needs from `BENCHMARK.json`.
pub struct BenchSpec {
    /// `(name, bound, lower_is_better)` of each end-to-end metric.
    pub end_to_end: Vec<(String, f64, bool)>,
    /// Names of the per-layer metrics.
    pub per_layer: Vec<String>,
}

fn str_of<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match get(v, key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(format!("missing string field '{key}'")),
    }
}

fn array_of<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match get(v, key) {
        Some(Value::Array(a)) => Ok(a),
        _ => Err(format!("missing array field '{key}'")),
    }
}

impl BenchSpec {
    /// Parse `BENCHMARK.json`, checking every metric against the registry.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let checked = |m: &Value| -> Result<String, String> {
            let name = str_of(m, "name")?;
            let unit = str_of(m, "unit")?;
            match metric(name) {
                Some(r) if r.unit == unit => Ok(name.to_string()),
                Some(r) => {
                    Err(format!("BENCHMARK.json gives {name} unit {unit}, ledger {}", r.unit))
                }
                None => Err(format!("BENCHMARK.json names unknown metric {name}")),
            }
        };
        let end_to_end = array_of(&v, "end_to_end")?
            .iter()
            .map(|m| {
                let bound =
                    get(m, "bound").and_then(num).ok_or("end_to_end metric lacks a bound")?;
                Ok((checked(m)?, bound, str_of(m, "better")? == "lower"))
            })
            .collect::<Result<_, String>>()?;
        let per_layer = array_of(&v, "per_layer")?.iter().map(checked).collect::<Result<_, _>>()?;
        Ok(BenchSpec { end_to_end, per_layer })
    }

    /// `BENCHMARK.json` in the current directory (the repository root).
    pub fn load() -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run from the repository root): {e}")
        })?;
        BenchSpec::parse(&text)
    }
}

/// Every sample of one workload's metrics (or of the probe pass).
#[derive(Debug, Default, PartialEq)]
pub struct Group {
    /// Workload name, or `probes`.
    pub name: String,
    /// The `repro` arguments (empty for the probes).
    pub args: Vec<String>,
    /// Cells attempted and failed over every timed child.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// `(file, FNV-1a 64)` of the outputs every child had to reproduce.
    pub artefacts: Vec<(String, String)>,
    /// `(metric, samples)`, one sample per round.
    pub metrics: Vec<(String, Vec<f64>)>,
}

impl Group {
    /// Append one sample of `name`.
    pub fn push(&mut self, name: &str, x: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(x),
            None => self.metrics.push((name.to_string(), vec![x])),
        }
    }

    /// The samples of `name`.
    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_slice())
    }
}

/// A whole `results.json`.
#[derive(Debug, PartialEq)]
pub struct Results {
    /// Commit the ledger measured (`git rev-parse HEAD`, or `unknown`).
    pub commit: String,
    /// UTC date of the run.
    pub date: String,
    /// CPUs available to the ledger.
    pub host_cpus: u64,
    /// Rounds over every workload.
    pub repeats: u64,
    /// Seed of the `sched` probe's stream.
    pub seed: u64,
    /// One group per workload, then `probes`.
    pub groups: Vec<Group>,
}

fn strings(pairs: &[(String, String)]) -> Value {
    Value::Object(pairs.iter().map(|(k, v)| (k.clone(), Value::String(v.clone()))).collect())
}

impl Results {
    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        let group = |g: &Group| {
            let metrics = g
                .metrics
                .iter()
                .map(|(name, xs)| {
                    let (q1, q3) = quartiles(xs);
                    let unit = metric(name).map_or("", |m| m.unit);
                    let obj = Value::Object(vec![
                        ("unit".into(), Value::String(unit.into())),
                        ("median".into(), Value::Float(median(xs))),
                        ("q1".into(), Value::Float(q1)),
                        ("q3".into(), Value::Float(q3)),
                        (
                            "samples".into(),
                            Value::Array(xs.iter().map(|&x| Value::Float(x)).collect()),
                        ),
                    ]);
                    (name.clone(), obj)
                })
                .collect();
            Value::Object(vec![
                ("name".into(), Value::String(g.name.clone())),
                (
                    "args".into(),
                    Value::Array(g.args.iter().map(|a| Value::String(a.clone())).collect()),
                ),
                ("attempted".into(), Value::UInt(g.attempted)),
                ("failed".into(), Value::UInt(g.failed)),
                ("artefacts".into(), strings(&g.artefacts)),
                ("metrics".into(), Value::Object(metrics)),
            ])
        };
        let v = Value::Object(vec![
            ("schema".into(), Value::String("ledger-results/1".into())),
            ("commit".into(), Value::String(self.commit.clone())),
            ("date".into(), Value::String(self.date.clone())),
            ("host_cpus".into(), Value::UInt(self.host_cpus)),
            ("repeats".into(), Value::UInt(self.repeats)),
            ("seed".into(), Value::UInt(self.seed)),
            ("groups".into(), Value::Array(self.groups.iter().map(group).collect())),
        ]);
        serde_json::to_string_pretty(&v).expect("results serialise")
    }

    /// Parse a `results.json` written by [`Results::to_json`].
    pub fn parse(text: &str) -> Result<Results, String> {
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if str_of(&v, "schema")? != "ledger-results/1" {
            return Err("not a ledger-results/1 file".into());
        }
        let uint = |v: &Value, k: &str| {
            get(v, k).and_then(num).map(|x| x as u64).ok_or(format!("missing {k}"))
        };
        fn pairs(v: Option<&Value>) -> Result<&[(String, Value)], String> {
            match v {
                Some(Value::Object(p)) => Ok(p),
                _ => Err("expected an object".into()),
            }
        }
        let groups = array_of(&v, "groups")?
            .iter()
            .map(|g| {
                let artefacts = pairs(get(g, "artefacts"))?
                    .iter()
                    .map(|(k, d)| match d {
                        Value::String(s) => Ok((k.clone(), s.clone())),
                        _ => Err(format!("digest of {k} is not a string")),
                    })
                    .collect::<Result<_, String>>()?;
                let metrics = pairs(get(g, "metrics"))?
                    .iter()
                    .map(|(k, m)| {
                        let xs = array_of(m, "samples")?
                            .iter()
                            .map(|x| num(x).ok_or(format!("non-numeric sample of {k}")))
                            .collect::<Result<Vec<f64>, String>>()?;
                        if xs.is_empty() {
                            return Err(format!("{k} has no samples"));
                        }
                        Ok((k.clone(), xs))
                    })
                    .collect::<Result<_, String>>()?;
                let args = array_of(g, "args")?
                    .iter()
                    .map(|a| match a {
                        Value::String(s) => Ok(s.clone()),
                        _ => Err("non-string argument".to_string()),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Group {
                    name: str_of(g, "name")?.to_string(),
                    args,
                    attempted: uint(g, "attempted")?,
                    failed: uint(g, "failed")?,
                    artefacts,
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            commit: str_of(&v, "commit")?.to_string(),
            date: str_of(&v, "date")?.to_string(),
            host_cpus: uint(&v, "host_cpus")?,
            repeats: uint(&v, "repeats")?,
            seed: uint(&v, "seed")?,
            groups,
        })
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// The repository's `BENCHMARK.json`.
    pub fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let spec = BenchSpec::parse(&benchmark_json()).expect("BENCHMARK.json is valid");
        let names: Vec<&str> = spec.end_to_end.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, ["wall_s", "setup_s", "peak_rss_mb"]);
        for (name, bound, lower) in &spec.end_to_end {
            assert!(*bound > 0.0 && *bound <= 0.25 && *lower, "{name}");
            assert_eq!(metric(name).map(|m| m.kind), Some(crate::metrics::Kind::Bounded));
        }
        assert!(!spec.per_layer.is_empty());
    }

    #[test]
    fn results_round_trip() {
        let r = Results {
            commit: "f558312".into(),
            date: "2026-10-16".into(),
            host_cpus: 2,
            repeats: 2,
            seed: 2013,
            groups: vec![Group {
                name: "quick".into(),
                args: vec!["--quick".into()],
                attempted: 132,
                failed: 0,
                artefacts: vec![("fig1.json".into(), "00ff".into())],
                metrics: vec![
                    ("wall_s".into(), vec![9.5, 9.25]),
                    ("fail_frac".into(), vec![0.0, 0.0]),
                ],
            }],
        };
        assert_eq!(Results::parse(&r.to_json()).expect("parses"), r);
    }
}
