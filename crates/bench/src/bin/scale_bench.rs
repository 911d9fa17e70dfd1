//! Scale benchmark for the event-driven process model: writes
//! `BENCH_scale.json` (events/sec of a 1024-process DES token ring, a
//! 4096-rank simmpi ping-ring as the peak-ranks datum, the overhead of an
//! installed [`NullTracer`] over the zero-tracer path, the model checker's
//! exploration rate in distinct states/sec on the `retry-lossy` scenario,
//! and the datacenter scheduler's replay rate in jobs/sec at 10⁵ and 10⁶
//! jobs (`sched_throughput`, best of 3 — `ci.sh` gates the 10⁵-job rate at
//! >= 10⁴ jobs/s)).
//!
//! It also records its own peak resident set over all of that
//! (`peak_rss_kb`, `VmHWM` from `/proc/self/status`; `ci.sh` gates it under
//! 4 GiB).
//!
//! ```text
//! cargo run --release -p bench --bin scale_bench -- [out.json]
//! ```
//!
//! The ring workload is a token ring at the `des` level — each process
//! parks until the token arrives, advances virtual time one microsecond,
//! and wakes its successor. Events/sec is scheduler events dispatched over
//! wall-clock seconds.
//!
//! The trace-overhead measurement alternates untraced, NullTracer, and
//! recording-RingRecorder rings and keeps the best wall time of each, so
//! scheduler noise cannot inflate (or hide) the comparisons; `ci.sh` gates
//! `trace_overhead_pct < 2` (the NullTracer residual — one cached-mask
//! branch per emission site). The RingRecorder number is informational: it
//! is the real price of capturing every proc-class event.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use des::{Engine, NullTracer, Pid, RingRecorder, SimTime, Tracer};
use serde::Serialize;
use simmpi::{run_mpi, JobSpec, Msg, RunOpts};
use soc_arch::Platform;

/// One measurement on the DES token ring.
#[derive(Serialize)]
struct RingResult {
    model: &'static str,
    processes: u32,
    laps: u32,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

/// Cost of the trace layer on the event ring, in two configurations: an
/// installed `NullTracer` (interest mask empty, so every emission site is
/// one cached-mask branch — this is what ci.sh gates below 2%) and a
/// recording `RingRecorder` sized to hold the whole trace (the real price
/// of capturing every proc-class event; informational, not gated).
#[derive(Serialize)]
struct TraceOverhead {
    /// Best-of-N wall seconds of the untraced event ring.
    untraced_wall_secs: f64,
    /// Best-of-N wall seconds of the same ring with a `NullTracer`.
    nulltracer_wall_secs: f64,
    /// `(nulltracer - untraced) / untraced`, in percent, clamped at 0.
    trace_overhead_pct: f64,
    /// Best-of-N wall seconds with a full-capacity recording `RingRecorder`.
    recording_wall_secs: f64,
    /// `(recording - untraced) / untraced`, in percent, clamped at 0.
    recording_overhead_pct: f64,
}

/// One stream length's measurement on the datacenter-replay workload.
#[derive(Serialize)]
struct SchedRun {
    /// Jobs in the replayed stream.
    jobs: u64,
    /// Wall seconds (best of 3).
    wall_secs: f64,
    /// Jobs departed per wall second.
    jobs_per_sec: f64,
    /// End-of-run utilisation of the replay (sanity: the stream really
    /// loaded the machine).
    utilisation: f64,
}

/// Scheduler replay throughput: the `sched` crate's EASY-backfill replay of
/// the three-tenant synthetic mix on Tibidabo at 90% offered load, at 10⁵
/// and 10⁶ jobs, best-of-3 wall each. The `datacenter` artefact gates
/// correctness; this records how far the 10⁵–10⁷-job design target is from
/// the wall clock, and `ci.sh` fails when the 10⁵-job replay drops below
/// 10⁴ jobs/s.
#[derive(Serialize)]
struct SchedThroughput {
    /// The runs, in stream-length order.
    runs: Vec<SchedRun>,
}

/// Replay `jobs` synthetic jobs under EASY backfill, best-of-`rounds` wall.
fn sched_replay(jobs: u64, rounds: u32) -> SchedRun {
    use sched::{DcConfig, DcSim, EasyBackfill, RuntimeModel, SyntheticSpec, Tenant};
    let machine = cluster::Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let mut spec = SyntheticSpec::standard_mix(jobs, 42, 1.0, 64);
    spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), 0.9);
    let tenants: Vec<Tenant> =
        spec.tenants.iter().map(|t| Tenant { name: t.name.to_string(), share: t.share }).collect();
    let stream = spec.generate();
    let mut wall = f64::INFINITY;
    let mut util = 0.0;
    for _ in 0..rounds {
        let mut sim = DcSim::new(
            machine.clone(),
            model.clone(),
            Box::new(EasyBackfill),
            tenants.clone(),
            DcConfig::default(),
        );
        let t0 = Instant::now();
        let out = sim.run(&stream, &des::FaultPlan::none());
        wall = wall.min(t0.elapsed().as_secs_f64());
        util = out.report.utilisation;
        assert_eq!(
            out.report.completed + out.report.wall_killed,
            jobs,
            "replay must drain the stream"
        );
    }
    SchedRun { jobs, wall_secs: wall, jobs_per_sec: jobs as f64 / wall, utilisation: util }
}

/// Throughput of the bounded model checker on the `retry-lossy` scenario:
/// how fast `repro --mc` burns through its state space. Informational — the
/// run is truncated by its budgets, so only the rate is meaningful.
#[derive(Serialize)]
struct McThroughput {
    /// Scenario explored (`repro --mc <scenario>`).
    scenario: &'static str,
    /// Executions performed within the budgets.
    runs: u64,
    /// Distinct state hashes observed.
    distinct_states: u64,
    /// Fraction of state observations deduplicated, in percent.
    dedup_hit_pct: f64,
    /// Wall seconds of the bounded search.
    wall_secs: f64,
    /// Distinct states discovered per wall second.
    states_per_sec: f64,
}

/// The artefact: the perf trajectory entry this PR starts.
#[derive(Serialize)]
struct ScaleBench {
    /// DES token ring at 1024 processes.
    ring_1024: Vec<RingResult>,
    /// The largest simmpi job exercised (ranks in one engine).
    peak_ranks: u32,
    /// Wall seconds of the peak-rank ping-ring.
    peak_wall_secs: f64,
    /// Messages delivered by the peak-rank ping-ring.
    peak_messages: u64,
    /// NullTracer cost on the event ring (must stay < 2%).
    trace_overhead: TraceOverhead,
    /// Model-checker exploration rate on the lossy-ring scenario.
    mc_throughput: McThroughput,
    /// Datacenter-scheduler replay rate at 10⁵ and 10⁶ jobs.
    sched_throughput: SchedThroughput,
    /// Peak resident set of this process over every measurement above, KiB
    /// (must stay under 4 GiB: no thread-per-rank stacks).
    peak_rss_kb: u64,
}

/// This process's peak resident set so far, KiB: the `VmHWM` line of
/// `/proc/self/status` (Linux).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB")
}

/// Token ring on event-driven processes: `procs` coroutines, `laps` full
/// circulations of the token.
fn ring_event(procs: u32, laps: u32) -> RingResult {
    ring_event_with(procs, laps, None)
}

/// [`ring_event`] with an optional tracer installed on the engine.
fn ring_event_with(procs: u32, laps: u32, tracer: Option<Arc<dyn Tracer>>) -> RingResult {
    let mut engine = Engine::new();
    if let Some(t) = tracer {
        engine.set_tracer(t);
    }
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
                    let next = ring.lock().unwrap()[((i + 1) % procs) as usize];
                    ctx.wake_at(next, ctx.now());
                }
            }
        });
        pids.lock().unwrap().push(pid);
    }
    let t0 = Instant::now();
    let report = engine.run().expect("event ring must complete");
    let wall = t0.elapsed().as_secs_f64();
    RingResult {
        model: "event",
        processes: procs,
        laps,
        events: report.events,
        wall_secs: wall,
        events_per_sec: report.events as f64 / wall,
    }
}

/// Measure the trace layer's cost on the event ring. Runs alternate between
/// the three configurations, best-of-`rounds` wall each, so one noisy run
/// cannot skew the ratios either way. The gated NullTracer residual is
/// ~1% of a ~0.1 s ring — a couple of milliseconds — so single-core CI
/// boxes with sustained background load need enough rounds that at least
/// one of each configuration lands on a quiet slice; 21 rounds keeps the
/// stage under ~8 s and was picked after best-of-9 measured 2–8 % on a
/// busy 1-CPU host where a quiet run measures ~1 %.
fn trace_overhead(procs: u32, laps: u32, rounds: u32) -> TraceOverhead {
    // Roomy enough that the recording run never drops (a full ring would
    // make later emissions artificially cheap): each hop costs a resume,
    // a sleep, a timer resume, a park, and a wake.
    let ring_capacity = 8 * (procs as usize) * (laps as usize);
    let mut untraced = f64::INFINITY;
    let mut nulled = f64::INFINITY;
    let mut recording = f64::INFINITY;
    for _ in 0..rounds {
        untraced = untraced.min(ring_event_with(procs, laps, None).wall_secs);
        nulled = nulled.min(ring_event_with(procs, laps, Some(Arc::new(NullTracer))).wall_secs);
        let rec = Arc::new(RingRecorder::with_capacity(ring_capacity));
        let run = ring_event_with(procs, laps, Some(rec.clone()));
        assert_eq!(rec.dropped(), 0, "recording ring must be sized for the whole trace");
        recording = recording.min(run.wall_secs);
    }
    TraceOverhead {
        untraced_wall_secs: untraced,
        nulltracer_wall_secs: nulled,
        trace_overhead_pct: (100.0 * (nulled - untraced) / untraced).max(0.0),
        recording_wall_secs: recording,
        recording_overhead_pct: (100.0 * (recording - untraced) / untraced).max(0.0),
    }
}

/// Bounded search over the `retry-lossy` scenario at its default budgets:
/// the model checker's replay-based exploration rate, states/sec.
fn mc_throughput() -> McThroughput {
    let sc = bench::mc_scenario("retry-lossy").expect("scenario registered");
    let cfg = sc.config(&bench::McOverrides::default());
    let report = sc.explore(&cfg, &RunOpts::default());
    assert!(report.violation.is_none(), "retry-lossy must satisfy its predicates");
    let wall = report.wall.as_secs_f64();
    McThroughput {
        scenario: sc.name,
        runs: report.runs,
        distinct_states: report.distinct_states,
        dedup_hit_pct: 100.0 * report.dedup_hit_rate(),
        wall_secs: wall,
        states_per_sec: report.distinct_states as f64 / wall.max(1e-9),
    }
}

/// 4096-rank simmpi ping-ring: the peak-ranks datum.
fn peak_ring(ranks: u32) -> (f64, u64) {
    let spec = JobSpec::new(Platform::tegra2(), ranks);
    let t0 = Instant::now();
    let run = run_mpi(spec, |mut r| async move {
        let p = r.size();
        if r.rank() == 0 {
            r.send(1, 0, Msg::from_u64s(&[1])).await;
            r.recv(p - 1, 0).await.to_u64s()[0]
        } else {
            let hops = r.recv(r.rank() - 1, 0).await.to_u64s()[0];
            r.send((r.rank() + 1) % p, 0, Msg::from_u64s(&[hops + 1])).await;
            hops
        }
    })
    .expect("peak ping-ring failed");
    assert_eq!(run.results[0], ranks as u64);
    (t0.elapsed().as_secs_f64(), run.net.messages)
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_scale.json".into());
    let procs = 1024;

    eprintln!("ring: {procs} event-driven processes ...");
    let event = ring_event(procs, 64);
    eprintln!(
        "  {:>9.0} events/s ({} events in {:.2}s)",
        event.events_per_sec, event.events, event.wall_secs
    );

    let peak_ranks = 4096;
    eprintln!("simmpi: {peak_ranks}-rank ping-ring ...");
    let (peak_wall_secs, peak_messages) = peak_ring(peak_ranks);
    eprintln!("  {peak_messages} messages in {peak_wall_secs:.2}s wall");

    eprintln!("ring: trace-layer overhead (best of 21, alternating) ...");
    let overhead = trace_overhead(procs, 512, 21);
    eprintln!(
        "  untraced {:.3}s, NullTracer {:.3}s -> {:.2}% overhead",
        overhead.untraced_wall_secs, overhead.nulltracer_wall_secs, overhead.trace_overhead_pct
    );
    eprintln!(
        "  recording RingRecorder {:.3}s -> {:.2}% overhead",
        overhead.recording_wall_secs, overhead.recording_overhead_pct
    );

    eprintln!("mc: bounded search over retry-lossy at default budgets ...");
    let mc = mc_throughput();
    eprintln!(
        "  {} runs, {} distinct states in {:.2}s -> {:.0} states/s ({:.1}% dedup hits)",
        mc.runs, mc.distinct_states, mc.wall_secs, mc.states_per_sec, mc.dedup_hit_pct
    );

    eprintln!("sched: EASY-backfill replay at 1e5 and 1e6 jobs (best of 3) ...");
    let mut sched_runs = Vec::new();
    for jobs in [100_000u64, 1_000_000] {
        let run = sched_replay(jobs, 3);
        eprintln!(
            "  {} jobs in {:.2}s ({:.0} jobs/s, util {:.1}%)",
            run.jobs,
            run.wall_secs,
            run.jobs_per_sec,
            100.0 * run.utilisation
        );
        sched_runs.push(run);
    }
    let sched_throughput = SchedThroughput { runs: sched_runs };

    let bench = ScaleBench {
        ring_1024: vec![event],
        peak_ranks,
        peak_wall_secs,
        peak_messages,
        trace_overhead: overhead,
        mc_throughput: mc,
        sched_throughput,
        peak_rss_kb: peak_rss_kb(),
    };
    eprintln!("peak RSS: {} kB", bench.peak_rss_kb);
    std::fs::write(&out, serde_json::to_string_pretty(&bench).unwrap()).expect("write artefact");
    eprintln!("wrote {out}");
}
