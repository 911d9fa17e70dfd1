//! `DcSim`'s replay loop against a plain reference loop.
//!
//! The reference keeps every pending event (arrivals included) in one
//! `Vec` and takes the least `(at, rank, seq)` by a linear scan, keeps the
//! running jobs in an unordered list it scans linearly, finds free nodes
//! by scanning the machine and hands each start a fresh grant `Vec`, and
//! summarises the per-job outputs after a stable sort. It drives the same
//! `Policy` objects `DcSim` does, so the two must emit the same trace
//! records and report the same `DcReport`, bit for bit, on any stream.
//!
//! The streams are small and submit on whole seconds, so arrivals,
//! departures and crashes often share an instant, and they carry crash
//! plans and wall-limit kills.

use std::sync::{Arc, Mutex};

use cluster::Machine;
use des::{FaultEvent, FaultKind, FaultPlan, SimTime, TraceEvent, TraceRecord, Tracer};
use sched::{
    job_energy_j, Action, ClassSlo, DcConfig, DcReport, DcSim, DistSummary, EasyBackfill,
    FairShare, Fcfs, Job, JobId, JobKind, PassBuf, Policy, QosClass, QueuedJob, RunningJob,
    RuntimeMode, RuntimeModel, SchedView, Tenant, TenantUsage,
};

/// A pending event of the reference loop.
#[derive(Clone, Copy, Debug)]
enum RefEv {
    /// Job `i` of the stream arrives.
    Arrive(usize),
    /// A running job departs, unless it was restarted since (`epoch`).
    Finish { job: JobId, epoch: u64 },
    /// A node crashes.
    NodeFail { node: u32 },
}

/// A running job of the reference loop.
struct RefRunning {
    id: JobId,
    epoch: u64,
    tenant: u32,
    qos: QosClass,
    kind: JobKind,
    nodes: u32,
    granted: Vec<u32>,
    submit: SimTime,
    start: SimTime,
    est_end: SimTime,
    work: f64,
    est_secs: f64,
    wall_killed: bool,
    resubmits: u32,
    busy_frac: f64,
}

/// The reference replay: one struct of plain state, read top to bottom.
struct RefSim {
    machine: Machine,
    model: RuntimeModel,
    runtime: RuntimeMode,
    policy: Box<dyn Policy>,
    tenants: Vec<Tenant>,
    now: SimTime,
    /// `(at, rank, seq, event)`: same-instant departures (rank 0) before
    /// crashes (1) before arrivals (2), then in push order.
    pending: Vec<(SimTime, u8, u64, RefEv)>,
    seq: u64,
    /// Per node: its running job, if any.
    owner: Vec<Option<JobId>>,
    dead: Vec<bool>,
    queue: Vec<QueuedJob>,
    running: Vec<RefRunning>,
    next_epoch: u64,
    pass_needed: bool,
    records: Vec<TraceRecord>,
    // Accounting, in `DcReport` terms.
    busy_node_secs: f64,
    capacity_node_secs: f64,
    last_capacity_at: SimTime,
    tenant_node_secs: Vec<f64>,
    tenant_jobs: Vec<u64>,
    waits: Vec<f64>,
    slowdowns: Vec<f64>,
    energies_kj: Vec<f64>,
    energy_total_j: f64,
    submitted: u64,
    completed: u64,
    wall_killed: u64,
    fault_failed: u64,
    unplaceable: u64,
    resubmits: u64,
    preemptions: u64,
    crashes: u64,
    class_jobs: [u64; 3],
    class_violations: [u64; 3],
}

fn class_idx(qos: QosClass) -> usize {
    QosClass::ALL.iter().position(|&c| c == qos).unwrap()
}

/// The five-number summary after a stable `total_cmp` sort.
fn stable_summary(mut values: Vec<f64>) -> DistSummary {
    if values.is_empty() {
        return DistSummary { mean: 0.0, p50: 0.0, p95: 0.0, p99: 0.0, max: 0.0 };
    }
    values.sort_by(f64::total_cmp);
    let q = |frac: f64| values[((values.len() - 1) as f64 * frac).round() as usize];
    DistSummary {
        mean: values.iter().sum::<f64>() / values.len() as f64,
        p50: q(0.50),
        p95: q(0.95),
        p99: q(0.99),
        max: *values.last().unwrap(),
    }
}

impl RefSim {
    fn new(
        machine: Machine,
        policy: Box<dyn Policy>,
        tenants: Vec<Tenant>,
        runtime: RuntimeMode,
    ) -> RefSim {
        let nodes = machine.nodes() as usize;
        let n_tenants = tenants.len();
        RefSim {
            model: RuntimeModel::for_machine(&machine),
            machine,
            runtime,
            policy,
            tenants,
            now: SimTime::ZERO,
            pending: Vec::new(),
            seq: 0,
            owner: vec![None; nodes],
            dead: vec![false; nodes],
            queue: Vec::new(),
            running: Vec::new(),
            next_epoch: 0,
            pass_needed: false,
            records: Vec::new(),
            busy_node_secs: 0.0,
            capacity_node_secs: 0.0,
            last_capacity_at: SimTime::ZERO,
            tenant_node_secs: vec![0.0; n_tenants],
            tenant_jobs: vec![0; n_tenants],
            waits: Vec::new(),
            slowdowns: Vec::new(),
            energies_kj: Vec::new(),
            energy_total_j: 0.0,
            submitted: 0,
            completed: 0,
            wall_killed: 0,
            fault_failed: 0,
            unplaceable: 0,
            resubmits: 0,
            preemptions: 0,
            crashes: 0,
            class_jobs: [0; 3],
            class_violations: [0; 3],
        }
    }

    fn push(&mut self, at: SimTime, ev: RefEv) {
        let rank = match ev {
            RefEv::Finish { .. } => 0,
            RefEv::NodeFail { .. } => 1,
            RefEv::Arrive(_) => 2,
        };
        self.pending.push((at, rank, self.seq, ev));
        self.seq += 1;
    }

    fn emit(&mut self, event: TraceEvent) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord { at: self.now, seq, event });
    }

    fn alive(&self) -> u32 {
        self.dead.iter().filter(|&&d| !d).count() as u32
    }

    fn free(&self) -> u32 {
        (0..self.dead.len()).filter(|&n| !self.dead[n] && self.owner[n].is_none()).count() as u32
    }

    fn run(mut self, stream: &[Job], faults: &FaultPlan) -> (DcReport, Vec<TraceRecord>) {
        for e in faults.events() {
            if let FaultKind::NodeCrash { node } = e.kind {
                if node < self.machine.nodes() {
                    self.push(e.at, RefEv::NodeFail { node });
                }
            }
        }
        for (i, job) in stream.iter().enumerate() {
            self.push(job.submit, RefEv::Arrive(i));
        }
        while let Some(least) = (0..self.pending.len()).min_by_key(|&i| {
            let (at, rank, seq, _) = self.pending[i];
            (at, rank, seq)
        }) {
            let (at, _, _, ev) = self.pending.remove(least);
            self.now = at;
            match ev {
                RefEv::Arrive(i) => self.on_arrive(stream[i].clone()),
                RefEv::Finish { job, epoch } => self.on_finish(job, epoch),
                RefEv::NodeFail { node } => self.on_node_fail(node),
            }
            let boundary = self.pending.iter().all(|e| e.0 > self.now);
            if boundary && self.pass_needed {
                self.pass_needed = false;
                self.pass();
            }
            let arrivals_left = self.pending.iter().any(|e| matches!(e.3, RefEv::Arrive(_)));
            if boundary && !arrivals_left && self.running.is_empty() && self.queue.is_empty() {
                break;
            }
        }
        for q in std::mem::take(&mut self.queue) {
            self.depart_unplaceable(&q.job);
        }
        self.settle_capacity();
        let report = self.report();
        (report, self.records)
    }

    fn settle_capacity(&mut self) {
        let dt = (self.now - self.last_capacity_at).as_secs_f64();
        self.capacity_node_secs += self.alive() as f64 * dt;
        self.last_capacity_at = self.now;
    }

    fn on_arrive(&mut self, job: Job) {
        self.submitted += 1;
        self.emit(TraceEvent::JobSubmit { job: job.id, tenant: job.tenant, nodes: job.nodes });
        if let Some(j) = self.tenant_jobs.get_mut(job.tenant as usize) {
            *j += 1;
        }
        if job.nodes > self.alive() {
            self.depart_unplaceable(&job);
            return;
        }
        self.queue.push(QueuedJob { job, resubmits: 0 });
        if self.free() > 0 {
            self.pass_needed = true;
        }
    }

    fn depart_unplaceable(&mut self, job: &Job) {
        let class = class_idx(job.qos);
        self.class_jobs[class] += 1;
        self.class_violations[class] += 1;
        self.unplaceable += 1;
        self.emit(TraceEvent::JobFinish { job: job.id, outcome: "unplaceable" });
    }

    /// Take a job off the running list and free its surviving nodes;
    /// returns it and how long it ran.
    fn retire(&mut self, job: JobId) -> (RefRunning, f64) {
        let pos = self.running.iter().position(|r| r.id == job).unwrap();
        let rec = self.running.remove(pos);
        for &n in &rec.granted {
            if !self.dead[n as usize] {
                assert_eq!(self.owner[n as usize], Some(job));
                self.owner[n as usize] = None;
            }
        }
        let elapsed = (self.now - rec.start).as_secs_f64();
        let node_secs = rec.nodes as f64 * elapsed;
        self.busy_node_secs += node_secs;
        if let Some(u) = self.tenant_node_secs.get_mut(rec.tenant as usize) {
            *u += node_secs;
        }
        (rec, elapsed)
    }

    fn on_finish(&mut self, job: JobId, epoch: u64) {
        if !self.running.iter().any(|r| r.id == job && r.epoch == epoch) {
            return;
        }
        let (rec, elapsed) = self.retire(job);
        let energy_j = job_energy_j(&self.machine, rec.nodes, elapsed, rec.busy_frac);
        self.energy_total_j += energy_j;
        let class = class_idx(rec.qos);
        self.class_jobs[class] += 1;
        if rec.wall_killed {
            self.wall_killed += 1;
            self.class_violations[class] += 1;
            self.emit(TraceEvent::JobFinish { job, outcome: "wall_killed" });
        } else {
            self.completed += 1;
            let slowdown = (self.now - rec.submit).as_secs_f64() / elapsed.max(10.0);
            if slowdown > rec.qos.slo_slowdown() {
                self.class_violations[class] += 1;
            }
            self.waits.push((rec.start - rec.submit).as_secs_f64());
            self.slowdowns.push(slowdown);
            self.energies_kj.push(energy_j / 1e3);
            self.emit(TraceEvent::JobFinish { job, outcome: "completed" });
        }
        self.pass_needed = true;
    }

    fn on_node_fail(&mut self, node: u32) {
        self.settle_capacity();
        let n = node as usize;
        if self.dead[n] {
            return;
        }
        self.dead[n] = true;
        self.crashes += 1;
        if let Some(victim) = self.owner[n].take() {
            if let Some(requeued) = self.kill(victim, true) {
                self.queue.insert(0, requeued);
            }
        }
        self.emit(TraceEvent::Fault { kind: "node_crash", node });
        let alive = self.alive();
        let (keep, gone): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.queue).into_iter().partition(|q| q.job.nodes <= alive);
        self.queue = keep;
        for q in gone {
            self.depart_unplaceable(&q.job);
        }
        self.pass_needed = true;
    }

    fn kill(&mut self, job: JobId, from_crash: bool) -> Option<QueuedJob> {
        let (rec, elapsed) = self.retire(job);
        self.energy_total_j += job_energy_j(&self.machine, rec.nodes, elapsed, rec.busy_frac);
        let resubmits = rec.resubmits + u32::from(from_crash);
        if from_crash && resubmits > 3 {
            self.fault_failed += 1;
            self.class_jobs[class_idx(rec.qos)] += 1;
            self.class_violations[class_idx(rec.qos)] += 1;
            self.emit(TraceEvent::JobFinish { job, outcome: "fault_failed" });
            return None;
        }
        if from_crash {
            self.resubmits += 1;
        } else {
            self.preemptions += 1;
        }
        let job = Job {
            id: job,
            tenant: rec.tenant,
            qos: rec.qos,
            kind: rec.kind,
            submit: rec.submit,
            nodes: rec.nodes,
            work: rec.work,
            est_secs: rec.est_secs,
        };
        Some(QueuedJob { job, resubmits })
    }

    fn pass(&mut self) {
        for _round in 0..4 {
            if self.queue.is_empty() {
                break;
            }
            let mut view_running: Vec<RunningJob> = self
                .running
                .iter()
                .map(|r| RunningJob {
                    id: r.id,
                    tenant: r.tenant,
                    nodes: r.nodes,
                    start: r.start,
                    est_end: r.est_end,
                })
                .collect();
            view_running.sort_by_key(|r| (r.est_end, r.id));
            let mut usage = Vec::new();
            if self.policy.needs_usage() {
                usage = self.tenant_node_secs.clone();
                for r in &view_running {
                    if let Some(t) = usage.get_mut(r.tenant as usize) {
                        *t += r.nodes as f64 * (self.now - r.start).as_secs_f64();
                    }
                }
            }
            let shares: Vec<f64> = self.tenants.iter().map(|t| t.share).collect();
            let mut buf = PassBuf::default();
            let view = SchedView {
                now: self.now,
                free_nodes: self.free(),
                alive_nodes: self.alive(),
                queue: &self.queue,
                running: &view_running,
                tenant_shares: &shares,
                tenant_usage: &usage,
            };
            self.policy.decide(&view, &mut buf);
            if buf.actions.is_empty() {
                break;
            }
            let mut started = Vec::new();
            let mut victims = Vec::new();
            for action in buf.actions {
                match action {
                    Action::Start(i) => {
                        if !started.contains(&i) && self.start(i) {
                            started.push(i);
                        }
                    }
                    Action::Preempt(id) => {
                        if self.running.iter().any(|r| r.id == id) {
                            victims.extend(self.kill(id, false));
                        }
                    }
                }
            }
            let mut i = 0;
            self.queue.retain(|_| {
                i += 1;
                !started.contains(&(i - 1))
            });
            if victims.is_empty() {
                break;
            }
            for v in victims {
                self.queue.insert(0, v);
            }
        }
    }

    fn start(&mut self, i: usize) -> bool {
        let job = self.queue[i].job.clone();
        let granted: Vec<u32> = (0..self.dead.len() as u32)
            .filter(|&n| !self.dead[n as usize] && self.owner[n as usize].is_none())
            .take(job.nodes as usize)
            .collect();
        if job.nodes == 0 || granted.len() < job.nodes as usize {
            return false;
        }
        for &n in &granted {
            self.owner[n as usize] = Some(job.id);
        }
        let run_secs = match self.runtime {
            RuntimeMode::Analytic => self.model.job_secs(&job),
            RuntimeMode::Recorded => job.work,
        };
        let est_end = self.now + SimTime::from_secs_f64(job.est_secs);
        let duration = SimTime::from_secs_f64(run_secs.min(job.est_secs));
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.push(
            self.now + duration.max(SimTime::from_nanos(1)),
            RefEv::Finish { job: job.id, epoch },
        );
        self.emit(TraceEvent::JobStart {
            job: job.id,
            nodes: job.nodes,
            wait: self.now - job.submit,
        });
        self.running.push(RefRunning {
            id: job.id,
            epoch,
            tenant: job.tenant,
            qos: job.qos,
            kind: job.kind,
            nodes: job.nodes,
            granted,
            submit: job.submit,
            start: self.now,
            est_end,
            work: job.work,
            est_secs: job.est_secs,
            wall_killed: run_secs > job.est_secs,
            resubmits: self.queue[i].resubmits,
            busy_frac: self.model.busy_frac(job.kind, job.nodes, job.work),
        });
        true
    }

    fn report(&self) -> DcReport {
        let total: f64 = self.tenant_node_secs.iter().sum();
        DcReport {
            policy: self.policy.name().to_string(),
            machine: self.machine.name.to_string(),
            nodes: self.machine.nodes(),
            jobs: self.submitted,
            completed: self.completed,
            wall_killed: self.wall_killed,
            fault_failed: self.fault_failed,
            unplaceable: self.unplaceable,
            resubmits: self.resubmits,
            preemptions: self.preemptions,
            crashes: self.crashes,
            nodes_alive_end: self.alive(),
            makespan_s: self.now.as_secs_f64(),
            utilisation: if self.capacity_node_secs > 0.0 {
                self.busy_node_secs / self.capacity_node_secs
            } else {
                0.0
            },
            wait_s: stable_summary(self.waits.clone()),
            slowdown: stable_summary(self.slowdowns.clone()),
            energy_per_job_kj: stable_summary(self.energies_kj.clone()),
            energy_total_mj: self.energy_total_j / 1e6,
            slo_violations: self.class_violations.iter().sum(),
            slo_by_class: QosClass::ALL
                .iter()
                .enumerate()
                .map(|(i, c)| ClassSlo {
                    class: c.name().to_string(),
                    slo_slowdown: c.slo_slowdown(),
                    jobs: self.class_jobs[i],
                    violations: self.class_violations[i],
                })
                .collect(),
            tenants: self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| TenantUsage {
                    name: t.name.clone(),
                    share: t.share,
                    jobs: self.tenant_jobs[i],
                    node_secs: self.tenant_node_secs[i],
                    used_frac: if total > 0.0 { self.tenant_node_secs[i] / total } else { 0.0 },
                })
                .collect(),
        }
    }
}

/// Every record a replay emits, in order.
#[derive(Default)]
struct Records(Mutex<Vec<TraceRecord>>);

impl Tracer for Records {
    fn record(&self, rec: TraceRecord) {
        self.0.lock().unwrap().push(rec);
    }
}

/// xorshift64*: the streams' only source of randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// A small random campaign on a 16-node machine: whole-second submits a
/// few seconds apart, widths up to the whole machine, runs and estimates
/// of whole seconds (an estimate below the run means a wall kill), and a
/// few whole-second crashes, some on the same node.
fn campaign(seed: u64) -> (Vec<Job>, FaultPlan) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut submit = 0;
    let jobs = (0..20 + rng.below(60))
        .map(|id| {
            submit += rng.below(4);
            let work = 1 + rng.below(900);
            Job {
                id,
                tenant: rng.below(4) as u32, // tenant 3 is not in the table
                qos: QosClass::ALL[rng.below(3) as usize],
                kind: JobKind::ALL[rng.below(4) as usize],
                submit: SimTime::from_secs(submit),
                nodes: 1 << rng.below(5),
                work: work as f64,
                est_secs: (work + rng.below(600)).saturating_sub(150).max(1) as f64,
            }
        })
        .collect();
    let faults = FaultPlan::from_events(
        (0..rng.below(8))
            .map(|_| FaultEvent {
                at: SimTime::from_secs(rng.below(submit + 600)),
                kind: FaultKind::NodeCrash { node: rng.below(16) as u32 },
            })
            .collect(),
    );
    (jobs, faults)
}

#[test]
fn dcsim_matches_the_reference_loop_on_small_random_streams() {
    let tenants = vec![
        Tenant { name: "a".into(), share: 0.5 },
        Tenant { name: "b".into(), share: 0.3 },
        Tenant { name: "c".into(), share: 0.2 },
    ];
    let policies: [fn() -> Box<dyn Policy>; 3] =
        [|| Box::new(Fcfs), || Box::new(EasyBackfill), || Box::new(FairShare::preempting())];
    // What the campaigns reached, summed: each path must have been taken.
    let (mut ties, mut kills, mut resubmits, mut failed, mut unplaceable, mut preempted) =
        (0, 0, 0, 0, 0, 0);
    for seed in 0..40 {
        let (jobs, faults) = campaign(seed);
        let runtime = if seed % 4 == 3 { RuntimeMode::Analytic } else { RuntimeMode::Recorded };
        for policy in policies {
            let machine = Machine::arndale_cluster(16);
            let model = RuntimeModel::for_machine(&machine);
            let records = Arc::new(Records::default());
            let cfg = DcConfig { runtime, ..DcConfig::default() };
            let out = DcSim::new(machine.clone(), model, policy(), tenants.clone(), cfg)
                .with_tracer(records.clone())
                .run(&jobs, &faults);
            let got = std::mem::take(&mut *records.0.lock().unwrap());
            let (want_report, want) =
                RefSim::new(machine, policy(), tenants.clone(), runtime).run(&jobs, &faults);
            let name = want_report.policy.clone();
            assert_eq!(got, want, "seed {seed} {name}: trace records differ");
            assert_eq!(out.report, want_report, "seed {seed} {name}: reports differ");
            // A departure or crash at the very instant of a submit.
            ties += got
                .windows(2)
                .filter(|w| {
                    w[0].at == w[1].at
                        && matches!(
                            w[0].event,
                            TraceEvent::JobFinish { outcome: "completed" | "wall_killed", .. }
                                | TraceEvent::Fault { .. }
                        )
                        && matches!(w[1].event, TraceEvent::JobSubmit { .. })
                })
                .count();
            kills += out.report.wall_killed;
            resubmits += out.report.resubmits;
            failed += out.report.fault_failed;
            unplaceable += out.report.unplaceable;
            preempted += out.report.preemptions;
        }
    }
    assert!(ties > 0, "no departure shared an instant with an arrival");
    assert!(kills > 0 && resubmits > 0 && unplaceable > 0 && preempted > 0);
    assert!(failed > 0, "no job ran out of crash resubmissions");
}
