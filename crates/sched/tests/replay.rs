//! End-to-end replay tests: determinism, fault behaviour, wall-limit kills,
//! policy sanity on full streams, the order a pass applies its actions, and
//! a streamed replay against a materialised one.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use cluster::Machine;
use des::{FaultEvent, FaultKind, FaultPlan, SimTime, TraceEvent, TraceRecord, Tracer};
use proptest::prelude::*;
use sched::{
    Action, DcConfig, DcOutcome, DcSim, DistSummary, EasyBackfill, FairShare, Fcfs, Job, JobId,
    JobKind, PassBuf, Policy, QosClass, RuntimeMode, RuntimeModel, SchedView, SyntheticSpec,
    Tenant,
};

fn tenants_of(spec: &SyntheticSpec) -> Vec<Tenant> {
    spec.tenants.iter().map(|t| Tenant { name: t.name.to_string(), share: t.share }).collect()
}

fn replay(policy: Box<dyn Policy>, spec: &SyntheticSpec, faults: &FaultPlan) -> DcOutcome {
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let cfg = DcConfig { audit: true, ..DcConfig::default() };
    DcSim::new(machine, model, policy, tenants_of(spec), cfg).run(spec.jobs(), faults)
}

#[test]
fn replays_are_deterministic() {
    let spec = SyntheticSpec::standard_mix(3_000, 11, 2.0, 64);
    let a = replay(Box::new(EasyBackfill), &spec, &FaultPlan::none());
    let b = replay(Box::new(EasyBackfill), &spec, &FaultPlan::none());
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.completed, 3_000);
    assert_eq!(a.report.jobs, 3_000);
    assert!(a.report.utilisation > 0.0 && a.report.utilisation <= 1.0);
    assert!(a.report.makespan_s > 0.0);
    assert_eq!(a.audit.head_bound_violations, 0, "EASY must never delay the head");
    assert!(a.audit.max_busy_nodes <= 192);
}

#[test]
fn every_policy_drains_a_fault_free_stream() {
    let spec = SyntheticSpec::standard_mix(1_500, 5, 1.5, 64);
    for policy in [
        Box::new(Fcfs) as Box<dyn Policy>,
        Box::new(EasyBackfill),
        Box::new(FairShare::new()),
        Box::new(FairShare::preempting()),
    ] {
        let name = policy.name();
        let out = replay(policy, &spec, &FaultPlan::none());
        assert_eq!(
            out.report.completed + out.report.wall_killed,
            1_500,
            "{name}: every job must depart"
        );
        assert_eq!(out.report.fault_failed, 0, "{name}");
        assert_eq!(out.report.unplaceable, 0, "{name}");
    }
}

#[test]
fn backfilling_beats_fcfs_on_mean_wait() {
    // Heavier load so the queue actually forms.
    let spec = SyntheticSpec::standard_mix(4_000, 23, 3.0, 128);
    let fcfs = replay(Box::new(Fcfs), &spec, &FaultPlan::none());
    let easy = replay(Box::new(EasyBackfill), &spec, &FaultPlan::none());
    assert!(
        easy.report.wait_s.mean <= fcfs.report.wait_s.mean,
        "EASY {} vs FCFS {}",
        easy.report.wait_s.mean,
        fcfs.report.wait_s.mean
    );
    assert!(easy.report.utilisation >= fcfs.report.utilisation - 1e-9);
}

#[test]
fn node_crashes_shrink_the_pool_and_requeue_victims() {
    let spec = SyntheticSpec::standard_mix(2_000, 9, 2.0, 64);
    // Deterministic targeted crashes while the machine is saturated.
    let faults = FaultPlan::from_events(
        (0..8)
            .map(|i| FaultEvent {
                at: SimTime::from_secs_f64(200.0 + 50.0 * i as f64),
                kind: FaultKind::NodeCrash { node: i * 3 },
            })
            .collect(),
    );
    let out = replay(Box::new(EasyBackfill), &spec, &faults);
    assert_eq!(out.report.crashes, 8);
    assert_eq!(out.report.nodes_alive_end, 192 - 8);
    assert!(out.report.resubmits > 0, "a saturated machine must lose jobs to crashes");
    let departed = out.report.completed
        + out.report.wall_killed
        + out.report.fault_failed
        + out.report.unplaceable;
    assert_eq!(departed, 2_000, "every job departs exactly once");
}

#[test]
fn a_dead_machine_rejects_everything_left() {
    let spec = SyntheticSpec::standard_mix(200, 3, 5.0, 16);
    let faults = FaultPlan::from_events(
        (0..192)
            .map(|n| FaultEvent {
                at: SimTime::from_secs_f64(10.0),
                kind: FaultKind::NodeCrash { node: n },
            })
            .collect(),
    );
    let out = replay(Box::new(EasyBackfill), &spec, &faults);
    assert_eq!(out.report.nodes_alive_end, 0);
    let departed = out.report.completed
        + out.report.wall_killed
        + out.report.fault_failed
        + out.report.unplaceable;
    assert_eq!(departed, 200);
    assert!(out.report.unplaceable > 0, "jobs arriving after the massacre are unplaceable");
}

#[test]
fn recorded_runtimes_and_wall_limits() {
    // Two hand-built jobs: one whose recorded runtime fits its estimate,
    // one that blows through it and is killed at the limit.
    let jobs = vec![
        Job {
            id: 0,
            tenant: 0,
            qos: QosClass::Standard,
            kind: JobKind::Stencil,
            submit: SimTime::ZERO,
            nodes: 4,
            work: 100.0,
            est_secs: 200.0,
        },
        Job {
            id: 1,
            tenant: 0,
            qos: QosClass::Standard,
            kind: JobKind::Stencil,
            submit: SimTime::from_secs_f64(1.0),
            nodes: 4,
            work: 500.0,
            est_secs: 50.0,
        },
    ];
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let cfg = DcConfig { runtime: RuntimeMode::Recorded, ..DcConfig::default() };
    let out = DcSim::new(
        machine,
        model,
        Box::new(Fcfs),
        vec![Tenant { name: "t0".into(), share: 1.0 }],
        cfg,
    )
    .run(&jobs, &FaultPlan::none());
    assert_eq!(out.report.completed, 1);
    assert_eq!(out.report.wall_killed, 1, "job 1 exceeds its 50s estimate and dies");
    assert_eq!(out.report.slo_violations, 1, "the kill counts as an SLO violation");
    // Makespan: job 1 starts at t=1 and is killed at t=51.
    assert!((out.report.makespan_s - 100.0).abs() < 1e-6, "{}", out.report.makespan_s);
}

#[test]
fn a_restarted_job_keeps_its_submitted_wall_limit() {
    // The recorded runtime equals the estimate, so the job fits its wall
    // limit exactly. A crash restarts it, and the restart must resubmit the
    // estimate the job came with: rounded to whole nanoseconds it is 1 s,
    // and the work would overrun it.
    let secs = 1.000_000_000_1;
    let job = Job {
        id: 0,
        tenant: 0,
        qos: QosClass::Standard,
        kind: JobKind::Stencil,
        submit: SimTime::ZERO,
        nodes: 4,
        work: secs,
        est_secs: secs,
    };
    let crash =
        FaultEvent { at: SimTime::from_millis(500), kind: FaultKind::NodeCrash { node: 0 } };
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let cfg = DcConfig { runtime: RuntimeMode::Recorded, ..DcConfig::default() };
    let out = DcSim::new(
        machine,
        model,
        Box::new(Fcfs),
        vec![Tenant { name: "t0".into(), share: 1.0 }],
        cfg,
    )
    .run(&[job], &FaultPlan::from_events(vec![crash]));
    assert_eq!(out.report.resubmits, 1, "the crash on node 0 restarts the job");
    assert_eq!((out.report.completed, out.report.wall_killed), (1, 0));
}

#[test]
fn fair_share_tracks_entitlements() {
    // Overloaded machine, equal arrival pressure from all three tenants is
    // not the spec default — use it as-is and check consumption ordering
    // follows the share weights under the fair policy.
    let spec = SyntheticSpec::standard_mix(4_000, 17, 4.0, 64);
    let out = replay(Box::new(FairShare::new()), &spec, &FaultPlan::none());
    let t = &out.report.tenants;
    assert_eq!(t.len(), 3);
    // hpc-batch (share .5, arrivals .5) consumes more than interactive-dev
    // (share .2, arrivals .2, short jobs).
    assert!(t[0].node_secs > t[2].node_secs, "{:?}", t);
    let frac_sum: f64 = t.iter().map(|r| r.used_frac).sum();
    assert!((frac_sum - 1.0).abs() < 1e-9);
}

#[test]
fn preemption_fires_under_tenant_starvation() {
    // One giant-share tenant floods the machine with long jobs; a tiny
    // tenant with a huge entitlement shows up later and must preempt.
    let mut jobs: Vec<Job> = (0..64u64)
        .map(|i| Job {
            id: i,
            tenant: 0,
            qos: QosClass::Batch,
            kind: JobKind::Solver,
            submit: SimTime::from_secs_f64(i as f64 * 0.1),
            nodes: 16,
            work: 40_000.0,
            est_secs: 50_000.0,
        })
        .collect();
    jobs.push(Job {
        id: 64,
        tenant: 1,
        qos: QosClass::Interactive,
        kind: JobKind::Stencil,
        submit: SimTime::from_secs_f64(10.0),
        nodes: 64,
        work: 100.0,
        est_secs: 300.0,
    });
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let tenants = vec![
        Tenant { name: "flood".into(), share: 0.1 },
        Tenant { name: "vip".into(), share: 0.9 },
    ];
    let out =
        DcSim::new(machine, model, Box::new(FairShare::preempting()), tenants, DcConfig::default())
            .run(&jobs, &FaultPlan::none());
    assert!(out.report.preemptions > 0, "the starved VIP job must evict flood jobs");
    let departed = out.report.completed + out.report.wall_killed + out.report.fault_failed;
    assert_eq!(departed, 65, "preempted jobs still finish eventually");
}

/// Replays one scripted action list per scheduling pass, then proposes
/// nothing.
struct Scripted(VecDeque<Vec<Action>>);

impl Policy for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn decide(&mut self, _view: &SchedView<'_>, pass: &mut PassBuf) {
        pass.actions.extend(self.0.pop_front().unwrap_or_default());
    }
}

/// Records the order jobs start in.
#[derive(Default)]
struct Starts(Mutex<Vec<JobId>>);

impl Tracer for Starts {
    fn record(&self, rec: TraceRecord) {
        if let TraceEvent::JobStart { job, .. } = rec.event {
            self.0.lock().unwrap().push(job);
        }
    }
}

#[test]
fn a_preemption_does_not_shift_the_starts_of_its_own_pass() {
    // V holds half the machine. W (every node) heads the queue and N (the
    // other half) sits behind it. One pass preempts V and starts queue
    // index 1, which is N on the queue the policy saw. Requeueing V before
    // that start resolved would make index 1 W instead.
    let machine = Machine::tibidabo();
    let half = machine.nodes() / 2;
    let job = |id, submit_s, nodes| Job {
        id,
        tenant: 0,
        qos: QosClass::Batch,
        kind: JobKind::Solver,
        submit: SimTime::from_secs_f64(submit_s),
        nodes,
        work: 1_000.0,
        est_secs: 2_000.0,
    };
    let (v, w, n) = (0, 1, 2);
    let stream = vec![job(v, 0.0, half), job(w, 1.0, machine.nodes()), job(n, 1.0, half)];
    let script =
        VecDeque::from([vec![Action::Start(0)], vec![Action::Preempt(v), Action::Start(1)]]);
    let starts = Arc::new(Starts::default());
    let model = RuntimeModel::for_machine(&machine);
    let cfg = DcConfig { runtime: RuntimeMode::Recorded, ..DcConfig::default() };
    let out = DcSim::new(
        machine,
        model,
        Box::new(Scripted(script)),
        vec![Tenant { name: "t0".into(), share: 1.0 }],
        cfg,
    )
    .with_tracer(starts.clone())
    .run(&stream, &FaultPlan::none());
    assert_eq!(*starts.0.lock().unwrap(), vec![v, n]);
    assert_eq!(out.report.preemptions, 1);
}

/// A policy that proposes random but valid passes: starts of queued jobs
/// that fit the free nodes, with a preemption of a running job now and then
/// at a random place among them. It records the job each `Start` names on
/// the queue it was shown.
struct RandomPasses {
    rng: u64,
    named: Arc<Mutex<Vec<JobId>>>,
}

impl RandomPasses {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Policy for RandomPasses {
    fn name(&self) -> &'static str {
        "random"
    }

    fn decide(&mut self, view: &SchedView<'_>, pass: &mut PassBuf) {
        // Preempted nodes are not counted as free, so every start fits
        // wherever the preemption lands.
        let mut free = view.free_nodes;
        for (i, q) in view.queue.iter().enumerate().take(16) {
            if q.job.nodes <= free && self.next().is_multiple_of(2) {
                free -= q.job.nodes;
                pass.actions.push(Action::Start(i));
                self.named.lock().unwrap().push(q.job.id);
            }
        }
        if !view.running.is_empty() && self.next().is_multiple_of(4) {
            let victim = view.running[(self.next() % view.running.len() as u64) as usize].id;
            let at = (self.next() % (pass.actions.len() as u64 + 1)) as usize;
            pass.actions.insert(at, Action::Preempt(victim));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every job the replay starts is the job the policy named, in the
    /// order it named them: a `Start` index resolves against the queue the
    /// policy saw, wherever the pass's preemptions fall, and node crashes
    /// requeue their victims between passes.
    #[test]
    fn every_applied_start_is_the_job_the_policy_named(
        seed in 0u64..1000,
        crashes in proptest::collection::vec((0u32..192, 100u64..20_000), 0..6),
    ) {
        let machine = Machine::tibidabo();
        let model = RuntimeModel::for_machine(&machine);
        let mut spec = SyntheticSpec::standard_mix(300, seed, 1.0, 64);
        spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), 1.5);
        let faults = FaultPlan::from_events(
            crashes
                .iter()
                .map(|&(node, at_s)| FaultEvent {
                    at: SimTime::from_secs_f64(at_s as f64),
                    kind: FaultKind::NodeCrash { node },
                })
                .collect(),
        );
        let named = Arc::new(Mutex::new(Vec::new()));
        let policy = RandomPasses { rng: seed | 1, named: named.clone() };
        let starts = Arc::new(Starts::default());
        let out = DcSim::new(machine, model, Box::new(policy), tenants_of(&spec), DcConfig::default())
            .with_tracer(starts.clone())
            .run(spec.jobs(), &faults);
        prop_assert!(out.report.preemptions > 0, "no pass preempted");
        prop_assert_eq!(&*starts.0.lock().unwrap(), &*named.lock().unwrap());
    }
}

/// Every record the replay emits, in order.
#[derive(Default)]
struct Records(Mutex<Vec<TraceRecord>>);

impl Tracer for Records {
    fn record(&self, rec: TraceRecord) {
        self.0.lock().unwrap().push(rec);
    }
}

#[test]
fn a_streamed_replay_equals_a_materialised_one() {
    let spec = SyntheticSpec::standard_mix(2_000, 9, 2.0, 64);
    assert_eq!(spec.jobs().collect::<Vec<Job>>(), spec.generate());
    // Crashes while the machine is saturated, so victims are requeued.
    let faults = FaultPlan::from_events(
        (0..8)
            .map(|i| FaultEvent {
                at: SimTime::from_secs_f64(200.0 + 50.0 * i as f64),
                kind: FaultKind::NodeCrash { node: i * 3 },
            })
            .collect(),
    );
    let policies: [fn() -> Box<dyn Policy>; 3] =
        [|| Box::new(Fcfs), || Box::new(EasyBackfill), || Box::new(FairShare::preempting())];
    for policy in policies {
        let replay = |streamed: bool| {
            let machine = Machine::tibidabo();
            let model = RuntimeModel::for_machine(&machine);
            let cfg = DcConfig { audit: true, ..DcConfig::default() };
            let records = Arc::new(Records::default());
            let mut sim = DcSim::new(machine, model, policy(), tenants_of(&spec), cfg)
                .with_tracer(records.clone());
            let out = if streamed {
                sim.run(spec.jobs(), &faults)
            } else {
                let stream: Vec<Job> = spec.generate();
                sim.run(&stream, &faults)
            };
            let records = std::mem::take(&mut *records.0.lock().unwrap());
            (out, records)
        };
        let (streamed, streamed_records) = replay(true);
        let (materialised, materialised_records) = replay(false);
        let name = &streamed.report.policy;
        assert_eq!(streamed.report, materialised.report, "{name}");
        assert_eq!(streamed.audit, materialised.audit, "{name}");
        assert_eq!(streamed_records, materialised_records, "{name}");
        assert_eq!(streamed.report.jobs, 2_000, "{name}");
        assert_eq!(streamed.report.crashes, 8, "{name}");
        assert!(streamed.report.resubmits > 0, "{name}: no crash struck a running job");
        let submits = streamed_records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::JobSubmit { .. }))
            .count();
        assert_eq!(submits, 2_000, "{name}");
    }
}

/// The fields of [`DistSummary::of`], computed after a stable sort: the
/// reference the unstable sort must match bit for bit.
fn stable_summary(values: &mut [f64]) -> [f64; 5] {
    if values.is_empty() {
        return [0.0; 5];
    }
    values.sort_by(f64::total_cmp);
    let q = |frac: f64| values[((values.len() - 1) as f64 * frac).round() as usize];
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    [mean, q(0.50), q(0.95), q(0.99), *values.last().unwrap()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sorting without a scratch buffer moves no summary bit: values that
    /// `total_cmp` calls equal are bit-equal, so either sort yields the same
    /// sequence. Draws from a small pool, so duplicates are common, with
    /// both zeros, both infinities and both NaN signs in it.
    #[test]
    fn unstable_sort_summaries_match_a_stable_sort_bit_for_bit(
        picks in proptest::collection::vec(0usize..12, 0..300),
    ) {
        const POOL: [f64; 12] =
            [0.0, -0.0, 1.5, -1.5, 2.0, 1e-300, -7.25, 1e300, f64::INFINITY, f64::NEG_INFINITY,
             f64::NAN, -f64::NAN];
        let values: Vec<f64> = picks.iter().map(|&i| POOL[i]).collect();
        let d = DistSummary::of(&mut values.clone());
        let want = stable_summary(&mut values.clone());
        let got = [d.mean, d.p50, d.p95, d.p99, d.max];
        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
    }
}
