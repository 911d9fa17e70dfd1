//! The datacenter replay loop.
//!
//! [`DcSim`] is a single-threaded discrete-event simulator one level above
//! the per-job `des` engine: its events are job arrivals, job departures,
//! and node crashes, and its "execution" of a job is the closed-form
//! [`RuntimeModel`] rather than a full MPI simulation — which is what makes
//! 10⁵–10⁷-job streams affordable. Determinism falls out of the design:
//! events are totally ordered by `(time, kind, sequence)` (departures and
//! crashes in a heap, the stream's next arrival held beside it), the stream
//! and fault plan are pure data, and every policy is deterministic, so the
//! same inputs produce the same [`DcReport`] byte for byte.
//!
//! Faults come from the same [`FaultPlan`] machinery the MPI layer uses
//! (PR 1): a node crash permanently shrinks the allocatable pool, kills the
//! job running there, and the victim is resubmitted at the head of the
//! queue until its crash budget runs out.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use cluster::Machine;
use des::{FaultKind, FaultPlan, SimTime, TraceEvent, TraceRecord, Tracer};

use crate::metrics::{ClassSlo, DcReport, DistSummary, TenantUsage};
use crate::model::{JobPower, RuntimeModel};
use crate::placement::{NodeFate, PlacementStore};
use crate::policy::{shadow_time, Action, PassBuf, Policy, QueuedJob, RunningJob, SchedView};
use crate::workload::{Job, JobId, JobKind, QosClass};

/// How a job's run length is determined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RuntimeMode {
    /// Price the job with the machine's [`RuntimeModel`] scaling laws
    /// (synthetic streams, what-if machines).
    #[default]
    Analytic,
    /// Take [`Job::work`] as the job's run length in seconds verbatim, so a
    /// test can script exact run lengths.
    Recorded,
}

/// One tenant of the campaign: the scheduler-side view (fair-share weight),
/// detached from the synthetic generator's arrival parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Tenant {
    /// Display name.
    pub name: String,
    /// Fair-share weight.
    pub share: f64,
}

/// How many crash-triggered resubmissions a job gets before it is declared
/// failed.
const RESUBMIT_LIMIT: u32 = 3;

/// Replay knobs.
#[derive(Clone, Debug, Default)]
pub struct DcConfig {
    /// Runtime pricing mode.
    pub runtime: RuntimeMode,
    /// Track scheduling invariants (head-of-queue bounds, peak occupancy).
    /// Costs extra work per pass; meant for tests, not campaigns.
    pub audit: bool,
}

/// Invariant observations from an audited run (all zeros unless
/// [`DcConfig::audit`] was set).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DcAudit {
    /// Peak concurrently-busy nodes.
    pub max_busy_nodes: u32,
    /// Times a head-of-queue job started *after* the shadow-time bound
    /// recorded when it first became the blocked head. Always zero for a
    /// correct EASY policy on a fault-free run.
    pub head_bound_violations: u64,
    /// Peak concurrently-held nodes per tenant.
    pub max_tenant_nodes: Vec<u32>,
}

/// A finished replay: the serialisable report plus audit observations.
#[derive(Clone, Debug)]
pub struct DcOutcome {
    /// The campaign report (what `repro` serialises).
    pub report: DcReport,
    /// Invariant observations (empty unless auditing).
    pub audit: DcAudit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// A running job departs (epoch guards against stale events after a
    /// crash or preemption restarted the job).
    Finish { job: JobId, epoch: u64 },
    /// A node crashes.
    NodeFail { node: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapEv {
    at: SimTime,
    /// Same-instant order: departures free nodes first, then crashes
    /// strike. Arrivals, which `DcSim::run` keeps out of the heap, come
    /// last and see the settled cluster.
    rank: u8,
    seq: u64,
    ev: Ev,
}

impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.rank, self.seq).cmp(&(other.at, other.rank, other.seq))
    }
}

impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The running set's hasher: one multiply by 2⁶⁴ over the golden ratio,
/// rotated so the best-mixed bits pick the bucket. Job ids are not input
/// an adversary chooses, and nothing iterates the set, so it needs neither
/// collision resistance nor a stable order.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Bookkeeping for a running job.
#[derive(Clone, Debug)]
struct RunningRec {
    epoch: u64,
    tenant: u32,
    qos: QosClass,
    nodes: u32,
    /// The nodes placement granted, which `release` frees. The buffer goes
    /// back to `DcSim::spare_grants` when the job leaves.
    granted: Vec<u32>,
    submit: SimTime,
    start: SimTime,
    est_end: SimTime,
    /// True if the analytic runtime exceeded the wall-limit estimate: the
    /// departure at `est_end` is a kill, not a completion.
    wall_killed: bool,
    resubmits: u32,
    busy_frac: f64,
    /// What a restart needs to rebuild the job record: its kind and work.
    kind_back: (JobKind, f64),
    /// The wall-limit estimate the job was submitted with. A restart
    /// resubmits it as it was: `est_end - start` is rounded to whole
    /// nanoseconds, and work that fits the estimate can overrun that.
    est_secs: f64,
}

/// The datacenter simulator. Build one per `(machine, policy)` cell and
/// [`DcSim::run`] a stream through it.
pub struct DcSim {
    machine: Machine,
    model: RuntimeModel,
    power: JobPower,
    policy: Box<dyn Policy>,
    tenants: Vec<Tenant>,
    /// The tenants' fair-share weights, as every pass's view shows them.
    shares: Vec<f64>,
    cfg: DcConfig,
    tracer: Option<Arc<dyn Tracer>>,

    // Run state (reset by `run`).
    now: SimTime,
    heap: BinaryHeap<Reverse<HeapEv>>,
    heap_seq: u64,
    placement: PlacementStore,
    /// Wait queue: live entries are `queue[qhead..]`.
    queue: Vec<QueuedJob>,
    qhead: usize,
    running: HashMap<JobId, RunningRec, BuildHasherDefault<IdHasher>>,
    /// Grant buffers of departed jobs, for the next starts to refill.
    spare_grants: Vec<Vec<u32>>,
    /// Running jobs sorted by `(est_end, id)` — the order shadow-time
    /// reservations consume them in.
    running_view: Vec<RunningJob>,
    next_epoch: u64,
    trace_seq: u64,
    pass_needed: bool,

    // Per-pass buffers, reused so a pass allocates nothing once grown.
    /// Per-tenant usage projected to `now` (fair-share passes only).
    usage: Vec<f64>,
    /// The policy's actions and scratch.
    pass: PassBuf,
    /// Absolute queue indices started in the current round.
    started: Vec<usize>,
    /// The current round's preempted jobs, in kill order, waiting to be
    /// requeued once the round's starts are applied.
    victims: Vec<QueuedJob>,

    // Accounting.
    busy_node_secs: f64,
    capacity_node_secs: f64,
    last_capacity_at: SimTime,
    tenant_node_secs: Vec<f64>,
    tenant_jobs: Vec<u64>,
    waits: Vec<f64>,
    slowdowns: Vec<f64>,
    energies_kj: Vec<f64>,
    energy_total_j: f64,
    completed: u64,
    wall_killed: u64,
    fault_failed: u64,
    unplaceable: u64,
    resubmits: u64,
    preemptions: u64,
    crashes: u64,
    class_jobs: [u64; 3],
    class_violations: [u64; 3],
    audit: DcAudit,
    head_bounds: BTreeMap<JobId, SimTime>,
}

impl DcSim {
    /// A simulator for `machine` under `policy`, with the campaign's tenant
    /// table (fair-share weights and report rows).
    pub fn new(
        machine: Machine,
        model: RuntimeModel,
        policy: Box<dyn Policy>,
        tenants: Vec<Tenant>,
        cfg: DcConfig,
    ) -> DcSim {
        let nodes = machine.nodes();
        let n_tenants = tenants.len();
        DcSim {
            power: JobPower::of(&machine),
            machine,
            model,
            policy,
            shares: tenants.iter().map(|t| t.share).collect(),
            tenants,
            cfg,
            tracer: None,
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            heap_seq: 0,
            placement: PlacementStore::new(nodes),
            queue: Vec::new(),
            qhead: 0,
            // Every running job holds a node, so sized for the machine the
            // set never grows, and never reallocates mid-replay.
            running: HashMap::with_capacity_and_hasher(nodes as usize, Default::default()),
            spare_grants: Vec::new(),
            running_view: Vec::new(),
            next_epoch: 0,
            trace_seq: 0,
            pass_needed: false,
            usage: Vec::new(),
            pass: PassBuf::default(),
            started: Vec::new(),
            victims: Vec::new(),
            busy_node_secs: 0.0,
            capacity_node_secs: 0.0,
            last_capacity_at: SimTime::ZERO,
            tenant_node_secs: vec![0.0; n_tenants],
            tenant_jobs: vec![0; n_tenants],
            waits: Vec::new(),
            slowdowns: Vec::new(),
            energies_kj: Vec::new(),
            energy_total_j: 0.0,
            completed: 0,
            wall_killed: 0,
            fault_failed: 0,
            unplaceable: 0,
            resubmits: 0,
            preemptions: 0,
            crashes: 0,
            class_jobs: [0; 3],
            class_violations: [0; 3],
            audit: DcAudit { max_tenant_nodes: vec![0; n_tenants], ..DcAudit::default() },
            head_bounds: BTreeMap::new(),
        }
    }

    /// Install a tracer; the sim emits `job_submit` / `job_start` /
    /// `job_finish` records through it.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> DcSim {
        self.tracer = Some(tracer);
        self
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(TraceRecord { at: self.now, seq: self.trace_seq, event });
            self.trace_seq += 1;
        }
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        let rank = match ev {
            Ev::Finish { .. } => 0,
            Ev::NodeFail { .. } => 1,
        };
        self.heap.push(Reverse(HeapEv { at, rank, seq: self.heap_seq, ev }));
        self.heap_seq += 1;
    }

    /// Integrate alive capacity up to `now` (call before `alive` changes
    /// and once at the end of the run).
    fn settle_capacity(&mut self) {
        let dt = (self.now - self.last_capacity_at).as_secs_f64();
        self.capacity_node_secs += self.placement.alive_nodes() as f64 * dt;
        self.last_capacity_at = self.now;
    }

    /// Replay `stream` (sorted by submit time) against `faults`. Returns the
    /// campaign report; the simulator is consumed-per-run (state resets are
    /// not supported — build a fresh one per cell).
    ///
    /// The stream is read lazily, one record per arrival, and never kept:
    /// fed [`SyntheticSpec::jobs`](crate::SyntheticSpec::jobs), a replay
    /// holds O(queue + running jobs + per-job outputs) memory however long
    /// the stream is. A `&Vec<Job>` or `&[Job]` replays the same records the
    /// same way.
    pub fn run(
        &mut self,
        stream: impl IntoIterator<Item: Borrow<Job>>,
        faults: &FaultPlan,
    ) -> DcOutcome {
        for e in faults.events() {
            if let FaultKind::NodeCrash { node } = e.kind {
                if node < self.machine.nodes() {
                    self.push_event(e.at, Ev::NodeFail { node });
                }
            }
        }
        let mut stream = stream.into_iter().map(|j| Borrow::<Job>::borrow(&j).clone());
        // The next arrival waits here, not in the heap: it ranks after
        // every departure and crash of its instant, so it is due once the
        // heap holds nothing at or before its submit time.
        let mut arrival = stream.next();
        let mut submitted = 0u64;
        loop {
            let heap_at = self.heap.peek().map(|Reverse(ev)| ev.at);
            if let Some(job) = arrival.take_if(|j| heap_at.is_none_or(|at| j.submit < at)) {
                self.now = job.submit;
                submitted += 1;
                arrival = stream.next();
                debug_assert!(
                    arrival.as_ref().is_none_or(|after| job.submit <= after.submit),
                    "stream not sorted by submit time"
                );
                self.on_arrive(job);
            } else if let Some(Reverse(ev)) = self.heap.pop() {
                self.now = ev.at;
                match ev.ev {
                    Ev::Finish { job, epoch } => self.on_finish(job, epoch),
                    Ev::NodeFail { node } => self.on_node_fail(node),
                }
            } else {
                break;
            }
            let boundary = self.heap.peek().is_none_or(|Reverse(n)| n.at > self.now)
                && arrival.as_ref().is_none_or(|j| j.submit > self.now);
            if boundary && self.pass_needed {
                self.pass_needed = false;
                self.scheduling_pass();
            }
            // Once the stream is drained and nothing runs or waits, stop:
            // the fault plan may schedule crashes long past the last job,
            // and draining them would only inflate the makespan.
            if boundary
                && arrival.is_none()
                && self.running.is_empty()
                && self.qhead == self.queue.len()
            {
                break;
            }
        }
        // Defensive: no events left with queued work means every remaining
        // job is unplaceable on what is left of the machine.
        let stranded: Vec<QueuedJob> = self.queue.split_off(self.qhead);
        for q in stranded {
            self.depart_unplaceable(&q.job);
        }
        self.settle_capacity();
        self.finish_report(submitted)
    }

    fn on_arrive(&mut self, job: Job) {
        self.emit(TraceEvent::JobSubmit { job: job.id, tenant: job.tenant, nodes: job.nodes });
        if let Some(j) = self.tenant_jobs.get_mut(job.tenant as usize) {
            *j += 1;
        }
        if job.nodes > self.placement.alive_nodes() {
            self.depart_unplaceable(&job);
            return;
        }
        self.queue.push(QueuedJob { job, resubmits: 0 });
        // An arrival can only start something if nodes are free (no policy
        // shipped here preempts on arrival alone).
        if self.placement.free_nodes() > 0 {
            self.pass_needed = true;
        }
    }

    fn on_finish(&mut self, job: JobId, epoch: u64) {
        let Entry::Occupied(entry) = self.running.entry(job) else { return };
        if entry.get().epoch != epoch {
            return; // stale departure from before a crash/preemption restart
        }
        let mut rec = entry.remove();
        self.remove_running_view(job, rec.est_end);
        let released = self.placement.release(job, &rec.granted);
        debug_assert_eq!(released, rec.nodes);
        self.spare_grants.push(std::mem::take(&mut rec.granted));
        let elapsed = (self.now - rec.start).as_secs_f64();
        self.account_usage(&rec, elapsed);
        let energy_j = self.power.energy_j(rec.nodes, elapsed, rec.busy_frac);
        self.energy_total_j += energy_j;
        let class = Self::class_idx(rec.qos);
        self.class_jobs[class] += 1;
        if rec.wall_killed {
            self.wall_killed += 1;
            self.class_violations[class] += 1;
            self.emit(TraceEvent::JobFinish { job, outcome: "wall_killed" });
        } else {
            self.completed += 1;
            let wait = (rec.start - rec.submit).as_secs_f64();
            let slowdown = (self.now - rec.submit).as_secs_f64() / elapsed.max(10.0);
            if slowdown > rec.qos.slo_slowdown() {
                self.class_violations[class] += 1;
            }
            self.waits.push(wait);
            self.slowdowns.push(slowdown);
            self.energies_kj.push(energy_j / 1e3);
            self.emit(TraceEvent::JobFinish { job, outcome: "completed" });
        }
        self.pass_needed = true;
    }

    fn on_node_fail(&mut self, node: u32) {
        self.settle_capacity();
        match self.placement.fail_node(node) {
            NodeFate::AlreadyDead => return,
            NodeFate::WasIdle => {
                self.crashes += 1;
            }
            NodeFate::WasRunning(victim) => {
                self.crashes += 1;
                if let Some(requeued) = self.kill_running(victim, true) {
                    self.queue.insert(self.qhead, requeued);
                }
            }
        }
        self.emit(TraceEvent::Fault { kind: "node_crash", node });
        // The pool shrank: queued jobs wider than what is left can never
        // start and would wedge the head of the queue.
        let alive = self.placement.alive_nodes();
        let mut i = self.qhead;
        while i < self.queue.len() {
            if self.queue[i].job.nodes > alive {
                let q = self.queue.remove(i);
                self.depart_unplaceable(&q.job);
            } else {
                i += 1;
            }
        }
        self.pass_needed = true;
    }

    /// Kill a running job (crash or preemption); `from_crash` decides
    /// whether the resubmission budget is charged. Returns the queue entry
    /// to put back at the head of the queue, or `None` if the job used up
    /// its resubmissions and failed.
    fn kill_running(&mut self, job: JobId, from_crash: bool) -> Option<QueuedJob> {
        let mut rec = self.running.remove(&job).expect("victim is running");
        self.remove_running_view(job, rec.est_end);
        self.placement.release(job, &rec.granted); // survivors; the dead one is gone
        self.spare_grants.push(std::mem::take(&mut rec.granted));
        let elapsed = (self.now - rec.start).as_secs_f64();
        self.account_usage(&rec, elapsed);
        self.energy_total_j += self.power.energy_j(rec.nodes, elapsed, rec.busy_frac);
        let resubmits = rec.resubmits + u32::from(from_crash);
        if from_crash && resubmits > RESUBMIT_LIMIT {
            self.fault_failed += 1;
            self.class_jobs[Self::class_idx(rec.qos)] += 1;
            self.class_violations[Self::class_idx(rec.qos)] += 1;
            self.emit(TraceEvent::JobFinish { job, outcome: "fault_failed" });
            return None;
        }
        if from_crash {
            self.resubmits += 1;
        } else {
            self.preemptions += 1;
        }
        // Back to the queue with its original submit time, so its eventual
        // wait/slowdown reflect the whole ordeal.
        Some(QueuedJob { job: Job { nodes: rec.nodes, ..self.job_template(&rec, job) }, resubmits })
    }

    /// Rebuild the immutable `Job` record for a restart from its running
    /// bookkeeping (the stream record itself is gone once started).
    fn job_template(&self, rec: &RunningRec, id: JobId) -> Job {
        Job {
            id,
            tenant: rec.tenant,
            qos: rec.qos,
            kind: rec.kind_back.0,
            submit: rec.submit,
            nodes: rec.nodes,
            work: rec.kind_back.1,
            est_secs: rec.est_secs,
        }
    }

    fn account_usage(&mut self, rec: &RunningRec, elapsed: f64) {
        let node_secs = rec.nodes as f64 * elapsed;
        self.busy_node_secs += node_secs;
        if let Some(u) = self.tenant_node_secs.get_mut(rec.tenant as usize) {
            *u += node_secs;
        }
    }

    fn depart_unplaceable(&mut self, job: &Job) {
        let class = Self::class_idx(job.qos);
        self.class_jobs[class] += 1;
        self.class_violations[class] += 1;
        self.unplaceable += 1;
        self.emit(TraceEvent::JobFinish { job: job.id, outcome: "unplaceable" });
    }

    fn class_idx(qos: QosClass) -> usize {
        QosClass::ALL.iter().position(|&c| c == qos).expect("class in ALL")
    }

    fn remove_running_view(&mut self, id: JobId, est_end: SimTime) {
        let pos = self
            .running_view
            .binary_search_by(|r| (r.est_end, r.id).cmp(&(est_end, id)))
            .expect("running job is in the view");
        self.running_view.remove(pos);
    }

    fn insert_running_view(&mut self, r: RunningJob) {
        let pos =
            match self.running_view.binary_search_by(|e| (e.est_end, e.id).cmp(&(r.est_end, r.id)))
            {
                Ok(p) | Err(p) => p,
            };
        self.running_view.insert(pos, r);
    }

    fn scheduling_pass(&mut self) {
        // Bounded rerun: a preemption round frees nodes for a start round.
        for _round in 0..4 {
            if self.qhead == self.queue.len() {
                break;
            }
            self.usage.clear();
            if self.policy.needs_usage() {
                self.usage.extend_from_slice(&self.tenant_node_secs);
                for r in &self.running_view {
                    if let Some(t) = self.usage.get_mut(r.tenant as usize) {
                        *t += r.nodes as f64 * (self.now - r.start).as_secs_f64();
                    }
                }
            }
            self.pass.actions.clear();
            let view = SchedView {
                now: self.now,
                free_nodes: self.placement.free_nodes(),
                alive_nodes: self.placement.alive_nodes(),
                queue: &self.queue[self.qhead..],
                running: &self.running_view,
                tenant_shares: &self.shares,
                tenant_usage: &self.usage,
            };
            self.policy.decide(&view, &mut self.pass);
            if self.pass.actions.is_empty() {
                break;
            }
            self.started.clear();
            for k in 0..self.pass.actions.len() {
                match self.pass.actions[k] {
                    Action::Start(i) => {
                        let idx = self.qhead + i;
                        if self.started.contains(&idx) {
                            continue; // defensive against a buggy policy
                        }
                        if self.start_job(idx) {
                            self.started.push(idx);
                        }
                    }
                    Action::Preempt(id) => {
                        if self.running.contains_key(&id) {
                            let victim = self.kill_running(id, false);
                            self.victims.extend(victim);
                        }
                    }
                }
            }
            self.compact_queue();
            if self.victims.is_empty() {
                break;
            }
            // The victims go back to the head only now, so no start of this
            // round resolved its index against a queue the policy never saw;
            // the last one killed heads the queue.
            self.queue.splice(self.qhead..self.qhead, self.victims.drain(..).rev());
        }
        if self.cfg.audit {
            self.audit_pass();
        }
    }

    /// Start the queued job at absolute queue index `idx`. Returns false if
    /// it does not fit (a policy overcommit; the job stays queued).
    fn start_job(&mut self, idx: usize) -> bool {
        let q = &self.queue[idx];
        let job = &q.job;
        let mut granted = self.spare_grants.pop().unwrap_or_default();
        if !self.placement.place(job.nodes, job.id, &mut granted) {
            self.spare_grants.push(granted);
            return false;
        }
        let run_secs = match self.cfg.runtime {
            RuntimeMode::Analytic => self.model.job_secs(job),
            RuntimeMode::Recorded => job.work,
        };
        let duration = run_secs.min(job.est_secs);
        let est_end = self.now + SimTime::from_secs_f64(job.est_secs);
        let finish_at = self.now + SimTime::from_secs_f64(duration).max(SimTime::from_nanos(1));
        let rec = RunningRec {
            epoch: self.next_epoch,
            tenant: job.tenant,
            qos: job.qos,
            nodes: job.nodes,
            granted,
            submit: job.submit,
            start: self.now,
            est_end,
            wall_killed: run_secs > job.est_secs,
            resubmits: q.resubmits,
            busy_frac: self.model.busy_frac(job.kind, job.nodes, job.work),
            kind_back: (job.kind, job.work),
            est_secs: job.est_secs,
        };
        let (id, wait) = (job.id, self.now - job.submit);
        self.next_epoch += 1;
        self.insert_running_view(RunningJob {
            id,
            tenant: rec.tenant,
            nodes: rec.nodes,
            start: self.now,
            est_end,
        });
        self.push_event(finish_at, Ev::Finish { job: id, epoch: rec.epoch });
        self.emit(TraceEvent::JobStart { job: id, nodes: rec.nodes, wait });
        self.running.insert(id, rec);
        if self.cfg.audit {
            if let Some(bound) = self.head_bounds.remove(&id) {
                if self.now > bound {
                    self.audit.head_bound_violations += 1;
                }
            }
        }
        true
    }

    /// Drop this round's started entries from the live queue. The survivors
    /// between the head and the last started entry shift back over them, so
    /// the started entries collect at the front, where the head offset
    /// skips them. Only that window moves, however long the queue behind
    /// it; a pure FCFS prefix moves nothing.
    fn compact_queue(&mut self) {
        self.started.sort_unstable();
        let Some(&last) = self.started.last() else { return };
        let mut unpassed = self.started.len();
        let mut write = last;
        for read in (self.qhead..=last).rev() {
            if unpassed > 0 && self.started[unpassed - 1] == read {
                unpassed -= 1;
            } else {
                self.queue.swap(read, write);
                write -= 1;
            }
        }
        self.qhead += self.started.len();
        // Reclaim the dead prefix once it dominates the buffer.
        if self.qhead > 64 && self.qhead * 2 > self.queue.len() {
            self.queue.drain(..self.qhead);
            self.qhead = 0;
        }
    }

    fn audit_pass(&mut self) {
        let busy = self.placement.busy_nodes();
        self.audit.max_busy_nodes = self.audit.max_busy_nodes.max(busy);
        let mut per_tenant = vec![0u32; self.tenants.len()];
        for r in &self.running_view {
            if let Some(t) = per_tenant.get_mut(r.tenant as usize) {
                *t += r.nodes;
            }
        }
        for (mx, t) in self.audit.max_tenant_nodes.iter_mut().zip(&per_tenant) {
            *mx = (*mx).max(*t);
        }
        // Record the blocked head's shadow bound the first time we see it.
        if let Some(head) = self.queue.get(self.qhead) {
            if !self.head_bounds.contains_key(&head.job.id) {
                if let Some((shadow, _)) = shadow_time(
                    head.job.nodes,
                    self.placement.free_nodes(),
                    &self.running_view,
                    &[],
                ) {
                    self.head_bounds.insert(head.job.id, self.now.max(shadow));
                }
            }
        }
    }

    fn finish_report(&mut self, submitted: u64) -> DcOutcome {
        let total_node_secs: f64 = self.tenant_node_secs.iter().sum();
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantUsage {
                name: t.name.clone(),
                share: t.share,
                jobs: self.tenant_jobs[i],
                node_secs: self.tenant_node_secs[i],
                used_frac: if total_node_secs > 0.0 {
                    self.tenant_node_secs[i] / total_node_secs
                } else {
                    0.0
                },
            })
            .collect();
        let slo_by_class = QosClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| ClassSlo {
                class: c.name().to_string(),
                slo_slowdown: c.slo_slowdown(),
                jobs: self.class_jobs[i],
                violations: self.class_violations[i],
            })
            .collect();
        let report = DcReport {
            policy: self.policy.name().to_string(),
            machine: self.machine.name.to_string(),
            nodes: self.machine.nodes(),
            jobs: submitted,
            completed: self.completed,
            wall_killed: self.wall_killed,
            fault_failed: self.fault_failed,
            unplaceable: self.unplaceable,
            resubmits: self.resubmits,
            preemptions: self.preemptions,
            crashes: self.crashes,
            nodes_alive_end: self.placement.alive_nodes(),
            makespan_s: self.now.as_secs_f64(),
            utilisation: if self.capacity_node_secs > 0.0 {
                self.busy_node_secs / self.capacity_node_secs
            } else {
                0.0
            },
            wait_s: DistSummary::of(&mut self.waits),
            slowdown: DistSummary::of(&mut self.slowdowns),
            energy_per_job_kj: DistSummary::of(&mut self.energies_kj),
            energy_total_mj: self.energy_total_j / 1e6,
            slo_violations: self.class_violations.iter().sum(),
            slo_by_class,
            tenants,
        };
        DcOutcome { report, audit: std::mem::take(&mut self.audit) }
    }
}
