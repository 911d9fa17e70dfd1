//! Layer probes: timed calls into each crate's public functions, made from
//! the ledger's own code (see the stable-surface rule in `main.rs`), each
//! wrapped in a span of an in-memory [`Trace`].

use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cluster::Machine;
use des::{Engine, FaultPlan, FaultRates, Pid, SimTime};
use sched::{
    DcConfig, DcSim, EasyBackfill, FairShare, Fcfs, Policy, RuntimeModel, SyntheticSpec, Tenant,
};
use serde_json::Value;
use simmpi::{run_mpi, Msg, NetModel};
use soc_arch::{
    cache_counters, cached_kernel_time, kernel_time, AccessPattern, Platform, WorkProfile,
};

use crate::metrics::median;

/// One timed probe call.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Spans kept in memory until the probe pass ends, then written as JSONL.
pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    fn begin(&mut self, name: impl Into<String>) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
            counts: vec![],
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (the innermost open one); its duration in seconds.
    fn end(&mut self, id: usize, counts: Vec<(&'static str, u64)>) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.counts = counts;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Time `f` in a span named `name`; its result and duration in seconds.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id, vec![]))
    }

    /// A span's duration minus the time its child spans cover.
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 =
            self.spans.iter().filter(|c| c.parent == Some(id)).map(|c| c.end_ns - c.start_ns).sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// One JSON object per span, in start order (`ledger_trace.jsonl`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let obj = Value::Object(vec![
                ("id".into(), Value::UInt(id as u64)),
                ("name".into(), Value::String(s.name.clone())),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                ("self_ns".into(), Value::UInt(self.self_ns(id))),
                (
                    "counts".into(),
                    Value::Object(
                        s.counts.iter().map(|(k, v)| (k.to_string(), Value::UInt(*v))).collect(),
                    ),
                ),
            ]);
            out.push_str(&serde_json::to_string(&obj).expect("span serialises"));
            out.push('\n');
        }
        out
    }
}

/// Repeats of each cheap probe; its metric is the median.
const REPEATS: usize = 3;

/// Processes and laps of the `des` token ring.
const RING_PROCS: u32 = 1024;
const RING_LAPS: u32 = 512;

/// The `simmpi` probe job: ranks on Tibidabo, rounds of an HPL-shaped
/// pipelined panel broadcast plus a neighbour exchange.
const MPI_RANKS: u32 = 64;
const MPI_ROUNDS: u32 = 64;
const PANEL_BYTES: u64 = 256 << 10;
const SEGMENT_BYTES: u64 = 32 << 10;
const HALO_BYTES: u64 = 8 << 10;

/// Timing-cache lookups per probe, and distinct keys they cycle through.
const CACHE_LOOKUPS: u32 = 1 << 17;
const CACHE_KEYS: u32 = 64;
const MODEL_CALLS: u32 = 1 << 20;

/// Jobs per replayed stream of the `sched` probe.
const SCHED_JOBS: u64 = 1_000_000;

/// The `datacenter` artefact's replay recipe (`bench::datacenter_cell`):
/// offered load, expected crashes per campaign, and the fault-plan seed.
const OFFERED_LOAD: f64 = 0.9;
const TARGET_CRASHES: f64 = 6.0;
const FAULT_SEED: u64 = 13;

/// `bench` layer: fsync'd artefact writes and journal records, in ms each.
fn probe_bench(
    tr: &mut Trace,
    artefacts: &[(String, String)],
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    assert!(!artefacts.is_empty(), "the write probe needs artefacts to write");
    let dir = scratch.join("write_probe");
    // At least 24 writes, in whole passes over the artefacts.
    let passes = 24usize.div_ceil(artefacts.len());
    let id = tr.begin("bench.write");
    for _ in 0..passes {
        // A fresh directory each pass: every write really writes.
        let _ = std::fs::remove_dir_all(&dir);
        for (stem, content) in artefacts {
            let w = tr.begin("bench.write_json_atomic");
            bench::write_json_atomic(&dir, stem, content).expect("probe artefact write");
            tr.end(w, vec![("bytes", content.len() as u64)]);
        }
    }
    let writes = (passes * artefacts.len()) as u64;
    let write_s = tr.end(id, vec![("writes", writes)]);

    let records = 64u64;
    let id = tr.begin("bench.journal");
    let items = vec!["all".to_string()];
    let mut j = bench::Journal::create(&scratch.join("journal_probe"), &items, "quick")
        .expect("probe journal create");
    let first = tr.now_ns();
    for i in 0..records {
        j.cell("fig6", &format!("fig6/Hpl/n={i}"), "ok", 1, 12.5, None).expect("journal record");
    }
    let journal_s = (tr.now_ns() - first) as f64 / 1e9;
    tr.end(id, vec![("records", records)]);
    vec![
        ("bench.write_ms", 1e3 * write_s / writes as f64),
        ("bench.journal_ms", 1e3 * journal_s / records as f64),
    ]
}

/// One token ring on event-driven processes: events dispatched.
fn token_ring(procs: u32, laps: u32) -> u64 {
    let mut engine = Engine::new();
    let pids: Arc<Mutex<Vec<Pid>>> = Arc::new(Mutex::new(Vec::with_capacity(procs as usize)));
    for i in 0..procs {
        let ring = Arc::clone(&pids);
        let pid = engine.spawn_process(format!("ring{i}"), move |ctx| async move {
            for lap in 0..laps {
                if !(lap == 0 && i == 0) {
                    ctx.park().await;
                }
                ctx.advance(SimTime::from_micros(1)).await;
                if !(lap == laps - 1 && i == procs - 1) {
                    let next = ring.lock().expect("ring pids")[((i + 1) % procs) as usize];
                    ctx.wake_at(next, ctx.now());
                }
            }
        });
        pids.lock().expect("ring pids").push(pid);
    }
    engine.run().expect("token ring completes").events
}

/// `des` layer: engine dispatch cost on a pure-scheduling token ring.
fn probe_des(tr: &mut Trace) -> Vec<(&'static str, f64)> {
    let mut events = 0;
    let mut ns = Vec::new();
    for _ in 0..REPEATS {
        let id = tr.begin("des.token_ring");
        events = token_ring(RING_PROCS, RING_LAPS);
        let s = tr.end(id, vec![("events", events)]);
        ns.push(1e9 * s / events as f64);
    }
    vec![("des.events", events as f64), ("des.ns_per_event", median(&ns))]
}

/// The HPL-shaped job under `model`: (messages, engine events).
fn hpl_shaped(model: NetModel) -> (u64, u64) {
    let spec = Machine::tibidabo().job(MPI_RANKS).with_net_model(Some(model));
    let run = run_mpi(spec, |mut r| async move {
        let (me, p) = (r.rank(), r.size());
        let mut acc = 0u64;
        for round in 0..MPI_ROUNDS {
            let root = round % p;
            let panel = (me == root).then(|| Msg::from_u64s(&[u64::from(round) + 1]));
            acc += r.bcast_pipelined(root, panel, PANEL_BYTES, SEGMENT_BYTES).await.to_u64s()[0];
            // Halo to the right neighbour; even ranks send first so the ring
            // of rendezvous sends cannot deadlock.
            let (right, left) = ((me + 1) % p, (me + p - 1) % p);
            let halo = Msg::size_only(HALO_BYTES);
            if me % 2 == 0 {
                r.send(right, round, halo).await;
                r.recv(left, round).await;
            } else {
                r.recv(left, round).await;
                r.send(right, round, halo).await;
            }
        }
        acc
    })
    .expect("HPL-shaped probe job completes");
    let want = u64::from(MPI_ROUNDS) * (u64::from(MPI_ROUNDS) + 1) / 2;
    assert!(run.results.iter().all(|&a| a == want), "every rank received every panel");
    (run.net.messages, run.events)
}

/// `simmpi` (event model) and `netsim` (flow model) layers: host cost per
/// simulated message of the same job.
fn probe_mpi(tr: &mut Trace) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (model, span) in
        [(NetModel::Event, "simmpi.hpl_shaped"), (NetModel::Flow, "netsim.hpl_shaped_flow")]
    {
        let mut ns = Vec::new();
        let (mut msgs, mut events) = (0, 0);
        for _ in 0..REPEATS {
            let id = tr.begin(span);
            (msgs, events) = hpl_shaped(model);
            let s = tr.end(id, vec![("msgs", msgs), ("events", events)]);
            ns.push(1e9 * s / msgs as f64);
        }
        match model {
            NetModel::Event => out.extend([
                ("simmpi.msgs", msgs as f64),
                ("simmpi.events", events as f64),
                ("simmpi.ns_per_msg", median(&ns)),
            ]),
            NetModel::Flow => out.extend([
                ("netsim.flow_events", events as f64),
                ("netsim.flow_ns_per_msg", median(&ns)),
            ]),
        }
    }
    out
}

/// `soc-arch` layer: a timing-cache hit on one and on two threads, and the
/// uncached timing model a miss runs.
fn probe_soc(tr: &mut Trace) -> Vec<(&'static str, f64)> {
    let soc = Platform::tegra2().soc;
    let f = soc.fmax_ghz;
    let works: Vec<WorkProfile> = (1..=CACHE_KEYS)
        .map(|i| {
            WorkProfile::new(
                "ledger",
                1e6 * f64::from(i),
                1e5 * f64::from(i),
                AccessPattern::Streaming,
            )
        })
        .collect();
    // Fill the cache, so every timed lookup below is a hit.
    for w in &works {
        black_box(cached_kernel_time(&soc, f, 2, w));
    }
    let lookups = |n: u32| {
        for i in 0..n {
            let w = black_box(&works[(i % CACHE_KEYS) as usize]);
            black_box(cached_kernel_time(black_box(&soc), black_box(f), 2, w));
        }
    };
    let before = cache_counters();
    let (_, one) = tr.time("soc_arch.cache_hits", || lookups(CACHE_LOOKUPS));
    let (_, two) = tr.time("soc_arch.cache_hits_2t", || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| lookups(CACHE_LOOKUPS));
            }
        })
    });
    let after = cache_counters();
    assert_eq!(after.hits - before.hits, 3 * u64::from(CACHE_LOOKUPS), "every timed lookup hits");
    let (_, model) = tr.time("soc_arch.kernel_time", || {
        for i in 0..MODEL_CALLS {
            let w = black_box(&works[(i % CACHE_KEYS) as usize]);
            black_box(kernel_time(black_box(&soc), black_box(f), 2, w));
        }
    });
    vec![
        ("soc_arch.ns_per_hit", 1e9 * one / f64::from(CACHE_LOOKUPS)),
        ("soc_arch.ns_per_hit_2t", 1e9 * two / f64::from(CACHE_LOOKUPS)),
        ("soc_arch.ns_per_miss", 1e9 * model / f64::from(MODEL_CALLS)),
    ]
}

/// `sched` layer: generate a `seed` stream and replay it under each policy
/// of the `datacenter` artefact, with its fault recipe.
fn probe_sched(tr: &mut Trace, seed: u64) -> Vec<(&'static str, f64)> {
    let cases: [(&str, Box<dyn Policy>, Option<u32>); 4] = [
        ("sched.replay_s.fcfs", Box::new(Fcfs), None),
        ("sched.replay_s.easy", Box::new(EasyBackfill), None),
        ("sched.replay_s.fair", Box::new(FairShare::preempting()), None),
        ("sched.replay_s.easy1024", Box::new(EasyBackfill), Some(1024)),
    ];
    let streams = cases.len() as f64;
    let mut out = Vec::new();
    let mut replay_total = 0.0;
    let mut gen_s = None;
    for (metric, policy, scaled) in cases {
        let machine = scaled.map_or_else(Machine::tibidabo, Machine::tibidabo_scaled);
        let model = RuntimeModel::for_machine(&machine);
        let mut spec = SyntheticSpec::standard_mix(SCHED_JOBS, seed, 1.0, 64);
        spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), OFFERED_LOAD);
        let tenants: Vec<Tenant> = spec
            .tenants
            .iter()
            .map(|t| Tenant { name: t.name.to_string(), share: t.share })
            .collect();
        let horizon_s = 1.2 * SCHED_JOBS as f64 / spec.arrival_rate_hz;
        let rates = FaultRates {
            crash_per_node_sec: TARGET_CRASHES / (f64::from(machine.nodes()) * horizon_s),
            ..FaultRates::none()
        };
        let faults = FaultPlan::generate(
            FAULT_SEED,
            machine.nodes(),
            SimTime::from_secs_f64(horizon_s),
            &rates,
        );
        let (stream, g) = tr.time(&format!("sched.gen.{}", machine.nodes()), || spec.generate());
        gen_s.get_or_insert(g);
        let id = tr.begin(metric);
        let report = DcSim::new(machine, model, policy, tenants, DcConfig::default())
            .run(&stream, &faults)
            .report;
        let s = tr.end(id, vec![("jobs", report.jobs), ("completed", report.completed)]);
        assert_eq!(
            report.completed + report.wall_killed + report.fault_failed + report.unplaceable,
            SCHED_JOBS,
            "every job departs exactly once"
        );
        replay_total += s;
        out.push((metric, s));
    }
    out.push(("sched.gen_s", gen_s.expect("a stream was generated")));
    out.push(("sched.jobs_per_s", streams * SCHED_JOBS as f64 / replay_total));
    out
}

/// Run every probe inside one root span. `artefacts` are `(stem, JSON)`
/// pairs for the write probe; `scratch` is a directory the probes may fill.
pub fn run_probes(
    tr: &mut Trace,
    seed: u64,
    artefacts: &[(String, String)],
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let root = tr.begin("probes");
    let mut out = probe_bench(tr, artefacts, scratch);
    out.extend(probe_des(tr));
    out.extend(probe_mpi(tr));
    out.extend(probe_soc(tr));
    out.extend(probe_sched(tr, seed));
    tr.end(root, vec![]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Trace::new();
        let root = tr.begin("root");
        let a = tr.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(20));
        tr.end(a, vec![("n", 1)]);
        std::thread::sleep(std::time::Duration::from_millis(10));
        tr.end(root, vec![]);
        let (r, c) = (&tr.spans[root], &tr.spans[a]);
        assert_eq!(c.parent, Some(root));
        assert_eq!(tr.self_ns(root), (r.end_ns - r.start_ns) - (c.end_ns - c.start_ns));
        assert!(tr.self_ns(root) >= 10_000_000);
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"counts\":{\"n\":1}"));
    }

    #[test]
    fn probe_jobs_are_deterministic() {
        assert_eq!(token_ring(16, 4), token_ring(16, 4));
        assert_eq!(hpl_shaped(NetModel::Event), hpl_shaped(NetModel::Event));
    }
}
