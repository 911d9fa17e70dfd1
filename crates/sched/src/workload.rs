//! Job streams: what the scheduler replays.
//!
//! [`SyntheticSpec::generate`] produces the [`Job`] records (field-by-field
//! spec in `docs/WORKLOAD_FORMAT.md`): a seeded multi-tenant arrival process
//! (Poisson arrivals, geometric job widths, per-tenant QoS mixes) built on
//! the same splittable [`SimRng`] the fault injector uses, so a spec is a
//! complete, reproducible description of a campaign.

use des::{SimRng, SimTime};
use serde::Serialize;

/// Stable job identity within one stream.
pub type JobId = u64;

/// Service class of a job: what latency the tenant bought.
///
/// The class sets the job's *bounded-slowdown* SLO — the threshold on
/// `(wait + run) / max(run, 10 s)` above which the job counts as an SLO
/// violation in the campaign report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum QosClass {
    /// Throughput-oriented work; generous slowdown budget.
    Batch,
    /// The default class.
    Standard,
    /// Latency-sensitive work; tight slowdown budget.
    Interactive,
}

impl QosClass {
    /// All classes, in stable order.
    pub const ALL: [QosClass; 3] = [QosClass::Batch, QosClass::Standard, QosClass::Interactive];

    /// The bounded-slowdown threshold that counts as an SLO violation.
    pub fn slo_slowdown(self) -> f64 {
        match self {
            QosClass::Batch => 32.0,
            QosClass::Standard => 8.0,
            QosClass::Interactive => 2.0,
        }
    }

    /// Stable lowercase name (report keys, docs).
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Batch => "batch",
            QosClass::Standard => "standard",
            QosClass::Interactive => "interactive",
        }
    }
}

/// Coarse application class, used by the analytic runtime model to pick its
/// scaling law. The classes mirror the repo's Fig 6 applications so model
/// validation can dispatch a representative real job per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum JobKind {
    /// Dense linear algebra, weak-scaled (HPL-like).
    Solver,
    /// Halo-exchange stencil, strong-scaled (HYDRO-like).
    Stencil,
    /// Tree-walk N-body, strong-scaled (PEPC-like).
    Tree,
    /// Spectral-element wave propagation (SEM-like).
    Spectral,
}

impl JobKind {
    /// All kinds, in stable order.
    pub const ALL: [JobKind; 4] =
        [JobKind::Solver, JobKind::Stencil, JobKind::Tree, JobKind::Spectral];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Solver => "solver",
            JobKind::Stencil => "stencil",
            JobKind::Tree => "tree",
            JobKind::Spectral => "spectral",
        }
    }
}

/// One job of a stream: everything the scheduler knows at submit time plus
/// the hidden true runtime scale (`work`) the runtime model consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Stream-unique id (submission order for synthetic streams).
    pub id: JobId,
    /// Owning tenant index (into the campaign's tenant table).
    pub tenant: u32,
    /// Service class.
    pub qos: QosClass,
    /// Application class (picks the runtime-model scaling law).
    pub kind: JobKind,
    /// Submission (arrival) time.
    pub submit: SimTime,
    /// Nodes requested — one rank per node, like every job in this repo.
    pub nodes: u32,
    /// Problem-scale multiplier: 1.0 is the reference problem of the job's
    /// kind; the analytic model scales its runtime terms by this factor.
    pub work: f64,
    /// The tenant's wall-limit estimate, seconds. Backfill trusts it; the
    /// simulator kills the job if the true runtime exceeds it (standard
    /// batch-system semantics).
    pub est_secs: f64,
}

/// One tenant of a synthetic campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Display name (report rows).
    pub name: &'static str,
    /// Fair-share entitlement weight (normalised across tenants by the
    /// fair-share policy; the weights themselves need not sum to 1).
    pub share: f64,
    /// Fraction of the arrival stream this tenant submits, in `[0, 1]`;
    /// the fractions of all tenants must sum to ~1.
    pub arrival_weight: f64,
    /// The tenant's service class (all its jobs inherit it).
    pub qos: QosClass,
    /// Mean true runtime of the tenant's jobs at the reference scale,
    /// virtual seconds (exponentially distributed).
    pub mean_runtime_s: f64,
}

/// A seeded synthetic job-stream description. `generate` is a pure function
/// of this struct — same spec, same stream, byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticSpec {
    /// Number of jobs to generate.
    pub jobs: u64,
    /// Root RNG seed.
    pub seed: u64,
    /// Mean arrival rate, jobs per virtual second (Poisson process).
    pub arrival_rate_hz: f64,
    /// Widest job the stream may request, nodes (clamped to a power of two).
    pub max_nodes: u32,
    /// The tenant mix.
    pub tenants: Vec<TenantSpec>,
}

impl SyntheticSpec {
    /// The standard three-tenant mix used by the `datacenter` artefact: half
    /// the stream is batch throughput work, a third is standard simulation
    /// campaigns, the rest is an interactive debugging tenant with short
    /// jobs and a tight SLO.
    pub fn standard_mix(jobs: u64, seed: u64, arrival_rate_hz: f64, max_nodes: u32) -> Self {
        SyntheticSpec {
            jobs,
            seed,
            arrival_rate_hz,
            max_nodes,
            tenants: vec![
                TenantSpec {
                    name: "hpc-batch",
                    share: 0.5,
                    arrival_weight: 0.5,
                    qos: QosClass::Batch,
                    mean_runtime_s: 600.0,
                },
                TenantSpec {
                    name: "sim-campaign",
                    share: 0.3,
                    arrival_weight: 0.3,
                    qos: QosClass::Standard,
                    mean_runtime_s: 240.0,
                },
                TenantSpec {
                    name: "interactive-dev",
                    share: 0.2,
                    arrival_weight: 0.2,
                    qos: QosClass::Interactive,
                    mean_runtime_s: 60.0,
                },
            ],
        }
    }

    /// Expected node-seconds one job of this mix consumes under `model`:
    /// the expectation of `nodes × run_secs` over the tenant mix, the
    /// geometric width distribution, and the uniform kind draw. This is the
    /// number that turns an arrival rate into an offered load.
    pub fn mean_node_secs(&self, model: &crate::model::RuntimeModel) -> f64 {
        let total_w: f64 = self.tenants.iter().map(|t| t.arrival_weight).sum();
        let max_pow = self.max_nodes.max(1).ilog2();
        // Width probabilities: p(2^k) = 0.5^(k+1), with the cap absorbing
        // the tail: p(2^max_pow) = 0.5^max_pow.
        let width_p = |k: u32| {
            if k < max_pow {
                0.5f64.powi(k as i32 + 1)
            } else {
                0.5f64.powi(max_pow as i32)
            }
        };
        let mut e = 0.0;
        for t in &self.tenants {
            let w = t.arrival_weight / total_w.max(1e-12);
            for kind in JobKind::ALL {
                for k in 0..=max_pow {
                    let n = 1u32 << k;
                    e += w
                        * 0.25
                        * width_p(k)
                        * n as f64
                        * model.run_secs(kind, n, t.mean_runtime_s);
                }
            }
        }
        e
    }

    /// The arrival rate (jobs/s) that offers `target` × the capacity of a
    /// `nodes`-node machine under `model` — e.g. `target = 0.9` keeps the
    /// queue bounded while the machine stays busy; `target > 1` overloads
    /// it and the queue grows for the whole campaign.
    pub fn rate_for_load(
        &self,
        model: &crate::model::RuntimeModel,
        nodes: u32,
        target: f64,
    ) -> f64 {
        target * nodes as f64 / self.mean_node_secs(model).max(1e-12)
    }

    /// Generate the stream: `jobs` records sorted by submit time with ids in
    /// arrival order. Deterministic in the spec alone; every random draw
    /// comes from a tagged substream of `seed`, so reordering draws in one
    /// component never perturbs another.
    ///
    /// ```
    /// use sched::SyntheticSpec;
    ///
    /// let spec = SyntheticSpec::standard_mix(1000, 42, 2.0, 64);
    /// let a = spec.generate();
    /// let b = spec.generate();
    /// assert_eq!(a, b);
    /// assert_eq!(a.len(), 1000);
    /// assert!(a.windows(2).all(|w| w[0].submit <= w[1].submit));
    /// ```
    pub fn generate(&self) -> Vec<Job> {
        assert!(!self.tenants.is_empty(), "a synthetic stream needs at least one tenant");
        let root = SimRng::new(self.seed);
        let mut arrivals = root.substream(1);
        let mut mix = root.substream(2);
        let mut widths = root.substream(3);
        let mut runtimes = root.substream(4);
        let mut estimates = root.substream(5);
        let mut kinds = root.substream(6);

        let max_pow = self.max_nodes.max(1).ilog2();
        let mut t = SimTime::ZERO;
        let mut jobs = Vec::with_capacity(self.jobs as usize);
        for id in 0..self.jobs {
            t += SimTime::from_secs_f64(arrivals.exp_secs(self.arrival_rate_hz));
            // Tenant by arrival weight (cumulative scan; the mix is tiny).
            let draw = mix.next_f64();
            let total: f64 = self.tenants.iter().map(|t| t.arrival_weight).sum();
            let mut acc = 0.0;
            let mut tenant = self.tenants.len() - 1;
            for (i, ts) in self.tenants.iter().enumerate() {
                acc += ts.arrival_weight / total;
                if draw < acc {
                    tenant = i;
                    break;
                }
            }
            let ts = &self.tenants[tenant];
            // Geometric width over powers of two: half the jobs are single
            // node, and each doubling is half as likely, capped at max_nodes.
            let mut pow = 0;
            while pow < max_pow && widths.next_f64() < 0.5 {
                pow += 1;
            }
            let nodes = 1u32 << pow;
            // True runtime scale: exponential around the tenant's mean. The
            // reference runtime of each kind is folded in by the model; the
            // job's `work` is the tenant mean times the draw, normalised to
            // the model's reference second.
            let runtime_s = runtimes.exp_secs(1.0 / ts.mean_runtime_s).min(ts.mean_runtime_s * 8.0);
            // Tenants overestimate: a uniform 1x-3x padding over the true
            // runtime, so backfill has slack and nothing is wall-killed.
            let pad = 1.0 + 2.0 * estimates.next_f64();
            let kind = JobKind::ALL[(kinds.next_u64() % JobKind::ALL.len() as u64) as usize];
            jobs.push(Job {
                id,
                tenant: tenant as u32,
                qos: ts.qos,
                kind,
                submit: t,
                nodes,
                work: runtime_s,
                est_secs: runtime_s * pad,
            });
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stream_is_deterministic_and_sorted() {
        let spec = SyntheticSpec::standard_mix(5000, 7, 4.0, 128);
        let a = spec.generate();
        assert_eq!(a, spec.generate());
        assert_eq!(a.len(), 5000);
        assert!(a.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(a.iter().all(|j| j.nodes.is_power_of_two() && j.nodes <= 128));
        assert!(a.iter().all(|j| j.est_secs >= j.work));
        // All three tenants actually submit.
        for t in 0..3 {
            assert!(a.iter().any(|j| j.tenant == t), "tenant {t} never arrived");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = SyntheticSpec::standard_mix(100, 1, 4.0, 64).generate();
        let b = SyntheticSpec::standard_mix(100, 2, 4.0, 64).generate();
        assert_ne!(a, b);
    }
}
