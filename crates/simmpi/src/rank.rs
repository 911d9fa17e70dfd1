//! The per-rank API: point-to-point messaging, modelled compute, and the job
//! runner.
//!
//! ## Execution model
//!
//! Every rank is an **event-driven des process**: the rank body is an `async`
//! future polled inline by the engine, so a 4096-rank job runs in a single
//! OS thread. All blocking primitives (`send`, `recv`, collectives, modelled
//! compute) are `async fn`s whose only suspension points are the engine's
//! deterministic leaf futures — the event order, and therefore every virtual
//! time and RNG draw, is identical to the historical thread-per-rank model.
//!
//! ## Fault semantics
//!
//! Faults come from the job's [`FaultPlan`](des::FaultPlan) and surface as a
//! typed [`MpiFault`] from [`run_mpi`] instead of a hang or a panic message:
//!
//! * **Node crash** — every rank caches its node's crash time up front; every
//!   virtual-time advance (compute, backoff, wire waits) is split at that
//!   instant and every park carries it as a deadline, so the rank detects its
//!   own death at *exactly* the crash's virtual time, records
//!   [`MpiFault::RankDied`] in the world, and unwinds. There is no injector
//!   process: the schedule is static, so self-checks are both sufficient and
//!   immune to stale-wakeup races.
//! * **Lossy links** — senders consult the network's loss windows per
//!   transmission attempt and draw from the world's deterministic RNG;
//!   dropped frames cost an exponential backoff (`retrans_base * 2^n`,
//!   capped) and exhaust into [`MpiFault::Timeout`]. The rendezvous RTS/CTS
//!   handshake is assumed reliable (control frames are tiny and would be
//!   protected in a real transport); loss applies to eager payloads and the
//!   rendezvous bulk transfer.
//! * **Receive timeout** — when the retry policy sets one, a receive that
//!   finds no matching message by its deadline fails the run with
//!   [`MpiFault::Timeout`] rather than deadlocking.
//!
//! The first fault to strike wins; the engine aborts the run at that virtual
//! instant and `run_mpi` reports it.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{ready, Context, Poll};

use des::{Advance, Engine, ProcCtx, SimTime, TraceEvent};
use netsim::{FlowStatus, NetModel};
use soc_arch::WorkProfile;

use crate::error::MpiFault;
use crate::payload::Msg;
use crate::world::{matches, Delivery, InMsg, JobSpec, NetStats, World};

/// A rank's handle to the simulated job. Passed by value to the rank body
/// closure by [`run_mpi`]; the body moves it into its `async` block.
pub struct Rank {
    ctx: ProcCtx,
    rank: u32,
    world: Rc<World>,
    /// Physical node hosting this rank.
    node: u32,
    /// When this rank's node crashes, per the fault plan.
    crash_at: Option<SimTime>,
    /// Scheduled DRAM bit-flips on this node, sorted ascending.
    flips: Vec<SimTime>,
    /// Flips already consumed by [`Rank::poll_bit_flip`].
    flips_seen: usize,
}

/// Result of a completed job.
#[derive(Debug)]
pub struct MpiRun<R> {
    /// Virtual wall-clock time of the job (last rank to finish).
    pub elapsed: SimTime,
    /// Per-rank return values, in rank order.
    pub results: Vec<R>,
    /// Per-rank modelled compute-busy time.
    pub compute_busy: Vec<SimTime>,
    /// Per-rank communication (protocol CPU) busy time.
    pub comm_busy: Vec<SimTime>,
    /// Network statistics.
    pub net: NetStats,
    /// Engine events dispatched by the run: the scheduler work the
    /// simulation cost, which `tests/probe_counts.rs` pins under both
    /// network models.
    pub events: u64,
}

impl<R> MpiRun<R> {
    /// Average fraction of wall-clock the ranks spent in modelled compute.
    pub fn compute_utilisation(&self) -> f64 {
        if self.elapsed == SimTime::ZERO || self.compute_busy.is_empty() {
            return 0.0;
        }
        let total: f64 = self.compute_busy.iter().map(|t| t.as_secs_f64()).sum();
        total / (self.compute_busy.len() as f64 * self.elapsed.as_secs_f64())
    }
}

/// Run an MPI job: every rank executes `body` on its own simulated process.
///
/// `body` is called once per rank with that rank's [`Rank`] handle and must
/// return the future that *is* the rank program — typically an
/// `async move` block:
///
/// ```
/// use simmpi::{run_mpi, JobSpec};
/// use soc_arch::Platform;
///
/// let spec = JobSpec::new(Platform::tegra2(), 4);
/// let run = run_mpi(spec, |mut r| async move {
///     r.barrier().await;
///     r.rank()
/// })
/// .unwrap();
/// assert_eq!(run.results, vec![0, 1, 2, 3]);
/// ```
///
/// Ranks are event-driven des processes: the whole job, at any rank count,
/// executes on the calling thread.
///
/// Communication costs come from the job's protocol/topology models; compute
/// costs from [`Rank::compute`]. The run is bit-deterministic, including
/// under fault injection: identical `(spec, fault_plan)` pairs produce
/// identical virtual times, results, and failure reports.
///
/// # Errors
///
/// * [`MpiFault::InvalidSpec`] — the spec failed validation; nothing ran.
/// * [`MpiFault::RankDied`] — a node crash from the fault plan killed a
///   participating rank, at the crash's virtual time.
/// * [`MpiFault::Timeout`] — retransmissions were exhausted on a lossy link,
///   or a receive timed out under the retry policy.
/// * [`MpiFault::Engine`] — simulator-level failure (deadlock, rank panic)
///   unrelated to injected faults.
pub fn run_mpi<R, F, Fut>(spec: JobSpec, body: F) -> Result<MpiRun<R>, MpiFault>
where
    R: 'static,
    F: Fn(Rank) -> Fut,
    Fut: Future<Output = R> + 'static,
{
    spec.validate().map_err(MpiFault::InvalidSpec)?;
    let world = Rc::new(World::new(spec));
    let nranks = world.spec.ranks;
    let results: Rc<RefCell<Vec<Option<R>>>> =
        Rc::new(RefCell::new((0..nranks).map(|_| None).collect()));

    let opts = &world.spec.opts;
    let mut engine = Engine::new();
    engine.set_event_budget(opts.event_budget);
    if let Some(tracer) = &opts.tracer {
        engine.set_tracer(Arc::clone(tracer));
    }
    // Under model checking (see `des::mc`) the job's controller arbitrates
    // delivery orderings and message drops, and hashes the world's message
    // state for deduplication.
    if let Some(ctl) = &opts.mc {
        engine.set_mc(Arc::clone(ctl));
        let world_for_probe = Rc::clone(&world);
        engine.set_state_probe(move |now| world_for_probe.mc_state_hash(now));
    }
    for r in 0..nranks {
        let pid = engine.spawn_process(format!("rank{r}"), |ctx| {
            let world_for_rank = Rc::clone(&world);
            let results = Rc::clone(&results);
            let node = world_for_rank.spec.node_of(r);
            let plan = &world_for_rank.spec.fault_plan;
            let crash_at = plan.crash_time(node);
            let flips: Vec<SimTime> = plan.bit_flips(node).collect();
            let rank =
                Rank { ctx, rank: r, world: world_for_rank, node, crash_at, flips, flips_seen: 0 };
            let fut = body(rank);
            async move {
                let out = fut.await;
                results.borrow_mut()[r as usize] = Some(out);
            }
        });
        world.state.borrow_mut().ranks[r as usize].pid = Some(pid);
    }
    let report = match engine.run() {
        Ok(report) => report,
        Err(e) => {
            // A rank that died on purpose recorded why before unwinding.
            let recorded = world.state.borrow_mut().fault.take();
            return Err(recorded.unwrap_or(MpiFault::Engine(e)));
        }
    };
    let compute_busy = world.busy.iter().map(|b| b.compute.get()).collect();
    let comm_busy = world.busy.iter().map(|b| b.comm.get()).collect();
    let net = std::mem::take(&mut world.state.borrow_mut().stats);
    let results = Rc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("results still shared"))
        .into_inner()
        .into_iter()
        .map(|o| o.expect("rank did not produce a result"))
        .collect();
    Ok(MpiRun {
        elapsed: report.end_time,
        results,
        compute_busy,
        comm_busy,
        net,
        events: report.events,
    })
}

impl Rank {
    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> u32 {
        self.world.spec.ranks
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The job specification.
    pub fn spec(&self) -> &JobSpec {
        &self.world.spec
    }

    /// Whether the engine this rank runs on has a tracer installed. Guard
    /// any work done *only* to build trace events behind this, so untraced
    /// runs pay nothing.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.ctx.tracing()
    }

    /// Open a named phase span on this rank (traced runs only; a no-op
    /// otherwise). Spans on one rank must nest strictly — close them in
    /// reverse order with [`Rank::phase_end`]. Built-in primitives emit their
    /// own spans (`compute`, `send`, `recv`, each collective by name), which
    /// nest inside application phases; `trace2flame` folds the nesting into
    /// flamegraph stacks. Dotted names (`"hpl.panel"`) read well there.
    #[inline]
    pub fn phase_begin(&self, name: &str) {
        if self.ctx.tracing() {
            self.trace_span(true, name);
        }
    }

    /// Close the innermost open phase span; `name` must match the
    /// [`Rank::phase_begin`] it pairs with.
    #[inline]
    pub fn phase_end(&self, name: &str) {
        if self.ctx.tracing() {
            self.trace_span(false, name);
        }
    }

    #[cold]
    #[inline(never)]
    fn trace_span(&self, begin: bool, name: &str) {
        let (rank, name) = (self.rank, name.to_string());
        self.ctx.emit_trace(if begin {
            TraceEvent::SpanBegin { rank, name }
        } else {
            TraceEvent::SpanEnd { rank, name }
        });
    }

    /// Emit a message/fault trace event (traced runs only). Internal helper
    /// for the messaging layer; applications use [`Rank::phase_begin`].
    #[inline]
    pub(crate) fn emit_trace(&self, event: TraceEvent) {
        self.ctx.emit_trace(event);
    }

    /// Model the execution of `work` on this rank's share of the node
    /// (advances virtual time by the roofline estimate).
    pub async fn compute(&mut self, work: &WorkProfile) {
        let spec = &self.world.spec;
        // Memoized: identical work profiles recur across ranks, iterations,
        // and (in the sweep harness) across scenario cells of the same job.
        let t = soc_arch::cached_kernel_time_fp(
            self.world.soc_fp,
            &spec.platform.soc,
            spec.freq_ghz,
            spec.cores_per_rank(),
            work,
        );
        self.compute_secs(t.total_s).await;
    }

    /// Model `seconds` of computation. If the node crashes mid-computation,
    /// the rank dies at exactly the crash instant.
    pub async fn compute_secs(&mut self, seconds: f64) {
        self.phase_begin("compute");
        let dt = SimTime::from_secs_f64(seconds);
        let end = self.ctx.now() + dt;
        if let Some(crash) = self.crash_at {
            if crash <= end {
                let done = crash - self.ctx.now();
                self.ctx.advance_to(crash).await;
                self.world.busy[self.rank as usize].compute.add(done);
                self.die_crashed();
            }
        }
        self.ctx.advance(dt).await;
        self.world.busy[self.rank as usize].compute.add(dt);
        self.phase_end("compute");
    }

    /// Consume the earliest scheduled DRAM bit-flip on this rank's node that
    /// has already struck (`at <= now`). Applications model silent data
    /// corruption by polling this between phases and corrupting their own
    /// state when it fires.
    pub fn poll_bit_flip(&mut self) -> Option<SimTime> {
        let next = *self.flips.get(self.flips_seen)?;
        if next <= self.ctx.now() {
            self.flips_seen += 1;
            self.emit_trace(TraceEvent::Fault { kind: "bit_flip", node: self.node });
            Some(next)
        } else {
            None
        }
    }

    fn tally_comm(&self, dt: SimTime) {
        self.world.busy[self.rank as usize].comm.add(dt);
    }

    /// Record `fault` as the run's outcome (first one wins) and unwind this
    /// rank's process. The engine aborts the run; `run_mpi` reports the
    /// recorded fault. Must not be called while the world state is borrowed.
    fn die(&self, fault: MpiFault) -> ! {
        {
            let mut st = self.world.state.borrow_mut();
            if st.fault.is_none() {
                st.fault = Some(fault);
            }
        }
        // resume_unwind skips the panic hook: the failure is reported
        // through MpiFault, not stderr. The unwind crosses the rank's
        // future's `poll` and is caught by the engine.
        std::panic::resume_unwind(Box::new("simmpi rank fault (see MpiFault)"));
    }

    #[cold]
    #[inline(never)]
    fn die_crashed(&self) -> ! {
        let at = self.crash_at.expect("die_crashed without a crash time");
        self.emit_trace(TraceEvent::Fault { kind: "node_crash", node: self.node });
        self.die(MpiFault::RankDied { rank: self.rank, node: self.node, at });
    }

    /// Die if this rank's node has already crashed.
    #[inline]
    fn check_crashed(&self) {
        if self.crash_at.is_some_and(|c| c <= self.ctx.now()) {
            self.die_crashed();
        }
    }

    /// Advance to `at`, dying at the crash instant if it lands first.
    #[inline]
    fn advance_to_or_die(&self, at: SimTime) -> AdvanceOrDie<'_> {
        self.advance_or_die(at, SimTime::ZERO)
    }

    /// Advance by `dt` of protocol CPU time, dying at the crash instant if
    /// it lands inside the interval.
    #[inline]
    fn advance_comm_or_die(&self, dt: SimTime) -> AdvanceOrDie<'_> {
        self.advance_or_die(self.ctx.now() + dt, dt)
    }

    /// Advance to `to` and tally `comm` of protocol CPU time there; or, if
    /// the crash instant comes first, advance to it and die.
    #[inline]
    fn advance_or_die(&self, to: SimTime, comm: SimTime) -> AdvanceOrDie<'_> {
        let (to, dies) = match self.crash_at {
            Some(crash) if crash <= to => (crash, true),
            _ => (to, false),
        };
        // Awaited at once, so the clock the delay is taken from is the
        // clock the sleep starts at; a past `to` is no sleep at all.
        AdvanceOrDie { rank: self, advance: self.ctx.advance(to - self.ctx.now()), dies, comm }
    }

    /// Park awaiting a peer, bounded by the crash instant and an optional
    /// absolute timeout. On timeout the rank dies with the appropriate
    /// fault; on a peer wake it simply returns.
    async fn park_or_die(&self, timeout_at: Option<SimTime>, peer: Option<u32>) {
        let deadline = match (self.crash_at, timeout_at) {
            (None, None) => {
                self.ctx.park().await;
                return;
            }
            (Some(c), None) => c,
            (None, Some(t)) => t,
            (Some(c), Some(t)) => c.min(t),
        };
        if !self.ctx.park_until(deadline).await {
            self.check_crashed();
            self.die(MpiFault::Timeout { rank: self.rank, peer, at: self.ctx.now(), attempts: 0 });
        }
    }

    /// Deadline for the current receive, from the retry policy.
    fn recv_deadline(&self) -> Option<SimTime> {
        self.world.spec.retry.recv_timeout.map(|t| self.ctx.now() + t)
    }

    /// Under model checking, fold a cross-rank delivery into the current
    /// execution segment's footprint so the commute reducer knows this step
    /// touched the destination rank and both link endpoints.
    fn mc_touch_delivery(&self, dst: u32, src_node: u32, dst_node: u32) {
        if let Some(ctl) = &self.world.spec.opts.mc {
            ctl.touch(
                des::mc::pid_bit(dst as usize)
                    | des::mc::node_bit(src_node)
                    | des::mc::node_bit(dst_node),
            );
        }
    }

    /// Push an eager payload through any active loss window on its path: a
    /// dropped frame costs an exponential backoff and a retransmission, and
    /// exhausting the retry budget fails the run. Only lossy jobs call this.
    async fn retransmit_through_loss(&self, dst: u32, src_node: u32, dst_node: u32) {
        let retry = self.world.spec.retry;
        let mc = self.world.spec.opts.mc.as_deref();
        let mut attempts = 0u32;
        loop {
            let depart = self.ctx.now();
            if !self.world.state.borrow_mut().drops(src_node, dst_node, depart, mc) {
                break;
            }
            attempts += 1;
            self.emit_trace(TraceEvent::MsgDrop { src: self.rank, dst, attempt: attempts });
            if attempts > retry.max_retries {
                self.die(MpiFault::Timeout {
                    rank: self.rank,
                    peer: Some(dst),
                    at: depart,
                    attempts,
                });
            }
            self.advance_comm_or_die(backoff(retry.retrans_base, attempts)).await;
        }
    }

    /// Blocking send of `msg` to rank `dst` with `tag`.
    ///
    /// Eager messages return once the payload has been injected; rendezvous
    /// messages (Open-MX above 32 KiB) block until the receiver has cleared
    /// the transfer, like `MPI_Send` beyond the eager threshold.
    pub async fn send(&mut self, dst: u32, tag: u32, msg: Msg) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        assert!(dst != self.rank, "self-sends are not supported; restructure the algorithm");
        self.check_crashed();
        self.phase_begin("send");
        let world = &self.world;
        let proto = world.spec.proto;
        self.advance_comm_or_die(world.send_overhead).await;

        let bytes = msg.bytes;
        let src_node = self.node;
        let dst_node = world.spec.node_of(dst);

        if proto.needs_rendezvous(bytes) {
            // RTS: a minimal frame to the receiver.
            let wake = {
                let mut st = world.state.borrow_mut();
                let depart = self.ctx.now();
                let rts_arrival = st.net.transmit(depart, src_node, dst_node, 128);
                st.stats.messages += 1;
                st.stats.payload_bytes += bytes;
                let my_pid = st.ranks[self.rank as usize].pid.unwrap();
                let dst_state = &mut st.ranks[dst as usize];
                dst_state.mailbox.push_back(InMsg {
                    src: self.rank,
                    tag,
                    msg,
                    delivery: Delivery::Rendezvous { sender_pid: my_pid, rts_arrival },
                });
                match dst_state.pending {
                    Some(f) if matches(&f, self.rank, tag) => {
                        dst_state.pending = None;
                        Some((dst_state.pid.unwrap(), self.ctx.now().max(rts_arrival)))
                    }
                    _ => None,
                }
            };
            self.emit_trace(TraceEvent::MsgEnqueue { src: self.rank, dst, tag, bytes });
            self.mc_touch_delivery(dst, src_node, dst_node);
            if let Some((pid, at)) = wake {
                self.ctx.wake_at(pid, at);
            }
            // Wait until the receiver completes the transfer and wakes us
            // (bounded by our own crash and the per-message timeout).
            self.park_or_die(self.recv_deadline(), Some(dst)).await;
            self.phase_end("send");
            return;
        }

        // Eager path: get the payload through any active loss window first
        // (a lossless job draws nothing).
        if world.lossy {
            self.retransmit_through_loss(dst, src_node, dst_node).await;
        }

        let injection;
        let flow_started;
        {
            let mut st = world.state.borrow_mut();
            let depart = self.ctx.now();
            let wire = world.framed(bytes);
            st.stats.messages += 1;
            st.stats.payload_bytes += bytes;
            // Under the flow model a cross-node payload rides a fluid flow:
            // its arrival time emerges from fair sharing as the receiver
            // polls, so the receiver is woken immediately to start polling.
            // Same-node transfers never cross a link and keep the event
            // path's (reservation-free) timing under both models.
            let use_flow = world.spec.opts.net_model == NetModel::Flow && src_node != dst_node;
            let delivery = if use_flow {
                let extra =
                    st.net.path_latency(src_node, dst_node) + world.endpoint_extra_serial(bytes);
                let id = st
                    .flows
                    .as_mut()
                    .expect("flow model without flow net")
                    .start(depart, depart, src_node, dst_node, wire);
                Delivery::Flow { id, extra }
            } else {
                let arrival = st.net.transmit(depart, src_node, dst_node, wire)
                    + world.endpoint_extra_serial(bytes);
                Delivery::Eager { available_at: arrival }
            };
            let wake_floor = match delivery {
                Delivery::Eager { available_at } => available_at,
                _ => depart,
            };
            let dst_state = &mut st.ranks[dst as usize];
            dst_state.mailbox.push_back(InMsg { src: self.rank, tag, msg, delivery });
            let wake = if let Some(f) = dst_state.pending {
                if matches(&f, self.rank, tag) {
                    dst_state.pending = None;
                    Some((dst_state.pid.unwrap(), self.ctx.now().max(wake_floor)))
                } else {
                    None
                }
            } else {
                None
            };
            drop(st);
            self.emit_trace(TraceEvent::MsgEnqueue { src: self.rank, dst, tag, bytes });
            flow_started = use_flow;
            self.mc_touch_delivery(dst, src_node, dst_node);
            if let Some((pid, at)) = wake {
                self.ctx.wake_at(pid, at);
            }
            injection = world.injection(bytes);
        }
        if flow_started && self.tracing() {
            self.emit_trace(TraceEvent::FlowStart { src: self.rank, dst, bytes });
        }
        // The sender's CPU is busy injecting the payload.
        self.ctx.advance(injection).await;
        self.tally_comm(injection);
        self.phase_end("send");
    }

    /// Blocking receive matching exactly `(src, tag)`.
    pub fn recv(&mut self, src: u32, tag: u32) -> impl Future<Output = Msg> + '_ {
        self.receive((Some(src), Some(tag)), |_, _, msg| msg)
    }

    /// Blocking receive from any source with a given tag. Returns
    /// `(src, tag, msg)`.
    pub fn recv_any(&mut self, tag: u32) -> impl Future<Output = (u32, u32, Msg)> + '_ {
        self.receive((None, Some(tag)), |src, tag, msg| (src, tag, msg))
    }

    /// Blocking receive with optional source/tag filters.
    pub fn recv_filtered(
        &mut self,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> impl Future<Output = (u32, u32, Msg)> + '_ {
        self.receive((src, tag), |src, tag, msg| (src, tag, msg))
    }

    /// The receive behind [`Rank::recv`], [`Rank::recv_any`] and
    /// [`Rank::recv_filtered`]: each is this future, with `out` picking
    /// what it returns from the matched `(src, tag, msg)`.
    async fn receive<T>(
        &mut self,
        filter: crate::world::RecvFilter,
        out: impl FnOnce(u32, u32, Msg) -> T,
    ) -> T {
        self.check_crashed();
        self.phase_begin("recv");
        let world = &self.world;
        // The timeout (when the retry policy sets one) is absolute from the
        // moment the receive was posted, not re-armed per park.
        let timeout_at = self.recv_deadline();
        loop {
            let found = self.scan_mailbox(&filter);
            match found {
                Scan::Deliver(m) => match m.delivery {
                    Delivery::Eager { .. } | Delivery::Flow { .. } => {
                        if matches!(m.delivery, Delivery::Flow { .. }) && self.tracing() {
                            self.emit_trace(TraceEvent::FlowFinish {
                                src: m.src,
                                dst: self.rank,
                                bytes: m.msg.bytes,
                            });
                        }
                        self.advance_comm_or_die(world.recv_overhead).await;
                        self.emit_trace(TraceEvent::MsgDeliver {
                            src: m.src,
                            dst: self.rank,
                            tag: m.tag,
                            bytes: m.msg.bytes,
                        });
                        self.phase_end("recv");
                        return out(m.src, m.tag, m.msg);
                    }
                    Delivery::Rendezvous { sender_pid, rts_arrival } => {
                        let (src, tag, msg) = self
                            .complete_rendezvous(m.src, m.tag, m.msg, sender_pid, rts_arrival)
                            .await;
                        self.phase_end("recv");
                        return out(src, tag, msg);
                    }
                },
                Scan::WaitWire(at) => self.advance_to_or_die(at).await,
                Scan::WaitFlow(at, flows) => {
                    // Advance to the network's next flow transition, then
                    // re-poll: our flow's rate may have been re-shared.
                    self.advance_to_or_die(at).await;
                    if self.tracing() {
                        self.emit_trace(TraceEvent::FlowReshare { rank: self.rank, flows });
                    }
                }
                Scan::Park => {
                    // Park until a sender delivers a matching message, our
                    // node crashes, or the receive times out.
                    self.park_or_die(timeout_at, filter.0).await;
                }
            }
        }
    }

    /// One mailbox scan under one world-state borrow: find the first message
    /// matching `filter` and decide how the receive proceeds. Flow
    /// deliveries poll the fluid network here (settling it to `now`), which
    /// is why this returns [`Scan`] rather than awaiting in place — the
    /// borrow must end first.
    fn scan_mailbox(&self, filter: &crate::world::RecvFilter) -> Scan {
        let mut st = self.world.state.borrow_mut();
        let st = &mut *st;
        let now = self.ctx.now();
        let me_idx = self.rank as usize;
        st.ranks[me_idx].pending = None;
        let pos = st.ranks[me_idx].mailbox.iter().position(|m| matches(filter, m.src, m.tag));
        match pos {
            Some(idx) => match st.ranks[me_idx].mailbox[idx].delivery {
                Delivery::Eager { available_at } if available_at > now => {
                    // Wait for the wire, then re-scan.
                    Scan::WaitWire(available_at)
                }
                Delivery::Flow { id, extra } => {
                    let flows = st.flows.as_mut().expect("flow delivery without flow net");
                    match flows.poll(now, id) {
                        FlowStatus::Done { at } if at + extra <= now => {
                            flows.consume(id);
                            Scan::Deliver(st.ranks[me_idx].mailbox.remove(idx).unwrap())
                        }
                        // Last byte is through the network; endpoint latency
                        // and serialisation still have to play out.
                        FlowStatus::Done { at } => Scan::WaitWire(at + extra),
                        FlowStatus::InFlight { wake, flows } => Scan::WaitFlow(wake, flows as u64),
                    }
                }
                _ => Scan::Deliver(st.ranks[me_idx].mailbox.remove(idx).unwrap()),
            },
            None => {
                st.ranks[me_idx].pending = Some(*filter);
                Scan::Park
            }
        }
    }

    /// Poll flow `id` to completion: advance to each flow transition as the
    /// network re-shares bandwidth, then to the flow's arrival (network
    /// completion plus `extra` endpoint time), consuming the flow record.
    ///
    /// This converges exactly: adding a flow never *raises* another flow's
    /// rate (a property-tested allocator invariant), so a completion estimate
    /// can only move later while we sleep — advancing to the estimate and
    /// re-polling therefore observes the true completion time.
    async fn await_flow(&self, id: netsim::FlowId, extra: SimTime) {
        loop {
            let now = self.ctx.now();
            // One world-state borrow per poll: a finished flow is consumed
            // under the borrow that saw it finish. Consuming drops only the flow's slab
            // record, which no other flow's progress reads.
            let status = {
                let mut st = self.world.state.borrow_mut();
                let flows = st.flows.as_mut().expect("flow model without flow net");
                let status = flows.poll(now, id);
                if let FlowStatus::Done { .. } = status {
                    flows.consume(id);
                }
                status
            };
            match status {
                FlowStatus::Done { at } => {
                    let arrival = at + extra;
                    if arrival > now {
                        self.advance_to_or_die(arrival).await;
                    }
                    return;
                }
                FlowStatus::InFlight { wake, flows } => {
                    self.advance_to_or_die(wake).await;
                    if self.tracing() {
                        self.emit_trace(TraceEvent::FlowReshare {
                            rank: self.rank,
                            flows: flows as u64,
                        });
                    }
                }
            }
        }
    }

    /// Receiver side of the rendezvous protocol: process the RTS, return a
    /// CTS, clear the bulk transfer, wake the sender.
    async fn complete_rendezvous(
        &mut self,
        src: u32,
        tag: u32,
        msg: Msg,
        sender_pid: des::Pid,
        rts_arrival: SimTime,
    ) -> (u32, u32, Msg) {
        let world = &self.world;
        let retry = world.spec.retry;
        // Process the RTS once it has arrived.
        self.advance_to_or_die(rts_arrival).await;
        self.advance_comm_or_die(world.recv_overhead).await;

        let src_node = world.spec.node_of(src);
        let dst_node = self.node;
        // As on the eager path, cross-node bulk data rides a fluid flow under
        // the flow model; its arrival emerges from fair sharing below.
        let use_flow = world.spec.opts.net_model == NetModel::Flow && src_node != dst_node;
        let (data_arrival, sender_done, bulk_drops) = {
            let mut st = world.state.borrow_mut();
            let now = self.ctx.now();
            // CTS travels back; the sender starts the bulk transfer on its
            // arrival. The RTS/CTS control frames are assumed reliable; loss
            // applies to the bulk transfer below.
            let cts_arrival = st.net.transmit(now, dst_node, src_node, 128)
                + world.send_overhead
                + world.recv_overhead;
            let wire = world.framed(msg.bytes);
            // Push the bulk transfer through any loss window: each drop
            // delays the (remote) sender's departure by the backoff.
            let mut bulk_depart = cts_arrival;
            let mut attempts = 0u32;
            let mc = world.spec.opts.mc.as_deref();
            while st.drops(src_node, dst_node, bulk_depart, mc) {
                attempts += 1;
                if attempts > retry.max_retries {
                    drop(st);
                    self.die(MpiFault::Timeout {
                        rank: self.rank,
                        peer: Some(src),
                        at: bulk_depart,
                        attempts,
                    });
                }
                bulk_depart += backoff(retry.retrans_base, attempts);
            }
            let data_arrival: Result<SimTime, (netsim::FlowId, SimTime)> = if use_flow {
                let extra = st.net.path_latency(src_node, dst_node)
                    + world.endpoint_extra_serial(msg.bytes);
                let id = st.flows.as_mut().expect("flow model without flow net").start(
                    now,
                    bulk_depart,
                    src_node,
                    dst_node,
                    wire,
                );
                Err((id, extra))
            } else {
                Ok(st.net.transmit(bulk_depart, src_node, dst_node, wire)
                    + world.endpoint_extra_serial(msg.bytes))
            };
            let injection = world.injection(msg.bytes);
            let sender_done = (bulk_depart + injection).max(now);
            (data_arrival, sender_done, attempts)
        };
        if self.tracing() {
            for attempt in 1..=bulk_drops {
                self.emit_trace(TraceEvent::MsgDrop { src, dst: self.rank, attempt });
            }
        }
        self.ctx.wake_at(sender_pid, sender_done);
        match data_arrival {
            Ok(at) => self.advance_to_or_die(at).await,
            Err((id, extra)) => {
                if self.tracing() {
                    self.emit_trace(TraceEvent::FlowStart {
                        src,
                        dst: self.rank,
                        bytes: msg.bytes,
                    });
                }
                self.await_flow(id, extra).await;
                if self.tracing() {
                    self.emit_trace(TraceEvent::FlowFinish {
                        src,
                        dst: self.rank,
                        bytes: msg.bytes,
                    });
                }
            }
        }
        self.advance_comm_or_die(world.recv_overhead).await;
        self.emit_trace(TraceEvent::MsgDeliver { src, dst: self.rank, tag, bytes: msg.bytes });
        (src, tag, msg)
    }

    /// Combined send-then-receive (deadlock-free pairwise exchange): sends to
    /// `dst` and receives the matching message from `from`.
    ///
    /// Eager sends never block, so everyone sends first and the exchange is
    /// fully parallel. A rendezvous-sized send *does* block until the
    /// receiver clears it, so there the lower rank sends first and the
    /// higher rank receives first (a chain that always resolves).
    pub async fn sendrecv(
        &mut self,
        dst: u32,
        send_tag: u32,
        msg: Msg,
        from: u32,
        recv_tag: u32,
    ) -> Msg {
        let rendezvous = self.world.spec.proto.needs_rendezvous(msg.bytes);
        if !rendezvous || self.rank < from {
            self.send(dst, send_tag, msg).await;
            self.recv(from, recv_tag).await
        } else {
            let m = self.recv(from, recv_tag).await;
            self.send(dst, send_tag, msg).await;
            m
        }
    }
}

/// Outcome of one mailbox scan ([`Rank::scan_mailbox`]); the world-state
/// borrow ends before any of the (awaiting) follow-ups run.
enum Scan {
    /// A matched message whose data has arrived: consume it.
    Deliver(InMsg),
    /// A matched message still on the wire: advance to its arrival, re-scan.
    WaitWire(SimTime),
    /// A matched flow still transferring: advance to the network's next flow
    /// transition (carrying the concurrent-flow count for the re-share trace
    /// event), re-poll.
    WaitFlow(SimTime, u64),
    /// Nothing matched: park until a sender wakes us.
    Park,
}

/// Future of [`Rank::advance_or_die`].
struct AdvanceOrDie<'a> {
    rank: &'a Rank,
    advance: Advance<'a>,
    /// The advance ends at the crash instant: die there.
    dies: bool,
    /// Protocol CPU time to tally once the advance ends.
    comm: SimTime,
}

impl Future for AdvanceOrDie<'_> {
    type Output = ();
    #[inline]
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        ready!(Pin::new(&mut self.advance).poll(cx));
        if self.dies {
            self.rank.die_crashed();
        }
        self.rank.tally_comm(self.comm);
        Poll::Ready(())
    }
}

/// Bounded exponential backoff: `base * 2^(attempt-1)`, capped at `base * 64`.
fn backoff(base: SimTime, attempt: u32) -> SimTime {
    base * (1u64 << (attempt.saturating_sub(1)).min(6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{RetryPolicy, RunOpts};
    use des::{FaultEvent, FaultKind, FaultPlan, SimError};
    use soc_arch::Platform;

    fn spec(n: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), n)
    }

    #[test]
    fn two_ranks_exchange_a_message() {
        let run = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 0 {
                r.send(1, 7, Msg::from_f64s(&[1.0, 2.0, 3.0])).await;
                0.0
            } else {
                let m = r.recv(0, 7).await;
                m.to_f64s().iter().sum::<f64>()
            }
        })
        .unwrap();
        assert_eq!(run.results, vec![0.0, 6.0]);
        assert!(run.elapsed > SimTime::ZERO);
        assert_eq!(run.net.messages, 1);
        assert_eq!(run.net.payload_bytes, 24);
    }

    #[test]
    fn small_message_latency_matches_protocol_model() {
        // One-way 0-byte message on Tegra 2 + TCP should land near 100 µs.
        let run = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 0 {
                r.send(1, 0, Msg::empty()).await;
            } else {
                r.recv(0, 0).await;
            }
            r.now().as_micros_f64()
        })
        .unwrap();
        let recv_done = run.results[1];
        assert!((85.0..115.0).contains(&recv_done), "latency {recv_done} us");
    }

    #[test]
    fn recv_posted_before_send_works() {
        // Receiver arrives first and parks.
        let run = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 1 {
                let m = r.recv(0, 3).await;
                m.bytes
            } else {
                r.compute_secs(0.01).await; // make the receiver wait
                r.send(1, 3, Msg::size_only(1024)).await;
                0
            }
        })
        .unwrap();
        assert_eq!(run.results, vec![0, 1024]);
    }

    #[test]
    fn messages_from_same_sender_arrive_in_order() {
        let run = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 0 {
                for i in 0..5u64 {
                    r.send(1, 9, Msg::from_u64s(&[i])).await;
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..5 {
                    got.push(r.recv(0, 9).await.to_u64s()[0]);
                }
                got
            }
        })
        .unwrap();
        assert_eq!(run.results[1], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tag_matching_selects_correct_message() {
        let run = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 0 {
                r.send(1, 1, Msg::from_u64s(&[111])).await;
                r.send(1, 2, Msg::from_u64s(&[222])).await;
                0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = r.recv(0, 2).await.to_u64s()[0];
                let a = r.recv(0, 1).await.to_u64s()[0];
                assert_eq!((a, b), (111, 222));
                1
            }
        })
        .unwrap();
        assert_eq!(run.results[1], 1);
    }

    #[test]
    fn recv_any_reports_source() {
        let run = run_mpi(spec(3), |mut r| async move {
            if r.rank() == 0 {
                let (s1, _, _) = r.recv_any(5).await;
                let (s2, _, _) = r.recv_any(5).await;
                (s1 + s2) as u64
            } else {
                r.send(0, 5, Msg::empty()).await;
                0
            }
        })
        .unwrap();
        assert_eq!(run.results[0], 3); // sources 1 and 2 in some order
    }

    #[test]
    fn rendezvous_large_message_round_trips() {
        let spec = JobSpec::new(Platform::tegra2(), 2).with_proto(netsim::ProtocolModel::open_mx());
        let payload: Vec<f64> = (0..10_000).map(|i| i as f64).collect(); // 80 KB > 32 KiB threshold
        let expect_sum: f64 = payload.iter().sum();
        let run = run_mpi(spec, move |mut r| {
            let payload = payload.clone();
            async move {
                if r.rank() == 0 {
                    r.send(1, 0, Msg::from_f64s(&payload)).await;
                    0.0
                } else {
                    r.recv(0, 0).await.to_f64s().iter().sum::<f64>()
                }
            }
        })
        .unwrap();
        assert_eq!(run.results[1], expect_sum);
    }

    #[test]
    fn rendezvous_blocks_sender_until_receiver_posts() {
        let spec = JobSpec::new(Platform::tegra2(), 2).with_proto(netsim::ProtocolModel::open_mx());
        let run = run_mpi(spec, |mut r| async move {
            if r.rank() == 0 {
                r.send(1, 0, Msg::size_only(1 << 20)).await;
                r.now().as_secs_f64()
            } else {
                r.compute_secs(0.5).await; // receiver is late
                r.recv(0, 0).await;
                r.now().as_secs_f64()
            }
        })
        .unwrap();
        // The sender cannot have finished before the receiver posted at 0.5s.
        assert!(run.results[0] > 0.5, "sender returned at {}", run.results[0]);
    }

    #[test]
    fn eager_send_does_not_block_on_receiver() {
        let run = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 0 {
                r.send(1, 0, Msg::size_only(512)).await;
                r.now().as_secs_f64()
            } else {
                r.compute_secs(1.0).await;
                r.recv(0, 0).await;
                0.0
            }
        })
        .unwrap();
        assert!(run.results[0] < 0.01, "eager sender blocked: {}", run.results[0]);
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        let run = run_mpi(spec(2), |mut r| async move {
            let partner = 1 - r.rank();
            let m = r.sendrecv(partner, 4, Msg::from_u64s(&[r.rank() as u64]), partner, 4).await;
            m.to_u64s()[0]
        })
        .unwrap();
        assert_eq!(run.results, vec![1, 0]);
    }

    #[test]
    fn compute_accumulates_busy_time() {
        let run = run_mpi(spec(2), |mut r| async move {
            r.compute_secs(0.25).await;
            r.rank()
        })
        .unwrap();
        for busy in &run.compute_busy {
            assert_eq!(*busy, SimTime::from_millis(250));
        }
        assert!(run.compute_utilisation() > 0.99);
    }

    #[test]
    fn unmatched_recv_deadlocks_with_diagnostic() {
        let err = run_mpi(spec(2), |mut r| async move {
            if r.rank() == 1 {
                r.recv(0, 99).await; // never sent
            }
        })
        .unwrap_err();
        match err {
            MpiFault::Engine(SimError::Deadlock { parked, .. }) => {
                assert_eq!(parked, vec!["rank1".to_string()])
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    fn crash_plan(node: u32, at: SimTime) -> FaultPlan {
        FaultPlan::from_events(vec![FaultEvent { at, kind: FaultKind::NodeCrash { node } }])
    }

    fn degrade_plan(node: u32, loss: f64, until: SimTime) -> FaultPlan {
        FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkDegrade { node, loss, duration: until },
        }])
    }

    #[test]
    fn invalid_spec_is_a_typed_error() {
        let mut bad = spec(8);
        bad.topology = netsim::TopologySpec::Star { nodes: 4 };
        match run_mpi(bad, |_| async {}) {
            Err(MpiFault::InvalidSpec(crate::JobSpecError::TooManyNodes {
                needed: 8,
                available: 4,
            })) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn crash_mid_compute_returns_rank_died_at_crash_time() {
        let crash = SimTime::from_millis(3);
        let s = spec(2).with_fault_plan(crash_plan(1, crash));
        let err = run_mpi(s, |mut r| async move {
            r.compute_secs(0.010).await; // rank 1 dies 3ms in
            r.rank()
        })
        .unwrap_err();
        assert_eq!(err, MpiFault::RankDied { rank: 1, node: 1, at: crash });
    }

    #[test]
    fn crash_while_peer_waits_kills_run_not_just_the_peer() {
        // Rank 1 crashes before sending; rank 0 is parked in recv. The run
        // must end with RankDied at the crash instant — no hang, and no
        // deadlock diagnostic.
        let crash = SimTime::from_millis(1);
        let s = spec(2).with_fault_plan(crash_plan(1, crash));
        let err = run_mpi(s, |mut r| async move {
            if r.rank() == 0 {
                r.recv(1, 0).await;
            } else {
                r.compute_secs(0.005).await; // never gets there
                r.send(0, 0, Msg::empty()).await;
            }
        })
        .unwrap_err();
        assert_eq!(err, MpiFault::RankDied { rank: 1, node: 1, at: crash });
    }

    #[test]
    fn recv_timeout_turns_missing_message_into_timeout() {
        let mut s = spec(2);
        s.retry.recv_timeout = Some(SimTime::from_millis(2));
        let err = run_mpi(s, |mut r| async move {
            if r.rank() == 1 {
                r.recv(0, 99).await; // never sent
            }
        })
        .unwrap_err();
        match err {
            MpiFault::Timeout { rank: 1, peer: Some(0), at, attempts: 0 } => {
                assert_eq!(at, SimTime::from_millis(2));
            }
            other => panic!("expected recv timeout, got {other:?}"),
        }
    }

    #[test]
    fn lossy_link_delivers_with_retransmits() {
        let s = spec(2).with_fault_plan(degrade_plan(1, 0.5, SimTime::from_secs(100)));
        let run = run_mpi(s, |mut r| async move {
            if r.rank() == 0 {
                for i in 0..8u64 {
                    r.send(1, 1, Msg::from_u64s(&[i])).await;
                }
                0
            } else {
                let mut sum = 0u64;
                for _ in 0..8 {
                    sum += r.recv(0, 1).await.to_u64s()[0];
                }
                sum
            }
        })
        .unwrap();
        assert_eq!(run.results[1], 28); // every payload survived
        assert!(run.net.retransmits > 0, "a 50% lossy link must drop something");
    }

    #[test]
    fn only_jobs_whose_opts_carry_the_controller_are_model_checked() {
        use des::mc::{explore, McConfig, RunOutcome};
        // Three eager messages over a 50 % lossy link: under a controller
        // each transmission is a drop choice; without one, a seeded draw.
        let lossy = |opts: RunOpts| {
            let s = spec(2)
                .with_fault_plan(degrade_plan(1, 0.5, SimTime::from_secs(100)))
                .with_opts(opts);
            let run = run_mpi(s, |mut r| async move {
                for i in 0..3u64 {
                    if r.rank() == 0 {
                        r.send(1, 1, Msg::from_u64s(&[i])).await;
                    } else {
                        r.recv(0, 1).await;
                    }
                }
            });
            match run {
                Ok(_) => RunOutcome::Pass,
                Err(MpiFault::Engine(SimError::Interrupted { .. })) => RunOutcome::Pruned,
                Err(e) => panic!("lossy job failed: {e}"),
            }
        };
        let cfg = McConfig { max_drops: 1, ..McConfig::default() };
        let unscoped = explore(&cfg, &mut |_| lossy(RunOpts::default()));
        assert_eq!((unscoped.runs, unscoped.max_depth_seen), (1, 0));
        assert!(unscoped.exhausted);
        let scoped = explore(&cfg, &mut |ctl| {
            lossy(RunOpts { mc: Some(Arc::clone(ctl)), ..RunOpts::default() })
        });
        assert!(scoped.exhausted);
        assert!(scoped.runs > 1, "the controller must branch on drops: {scoped:?}");
        assert!(scoped.max_depth_seen > 0);
    }

    #[test]
    fn retry_exhaustion_is_a_send_timeout() {
        let s = spec(2)
            .with_fault_plan(degrade_plan(1, 0.99, SimTime::from_secs(100)))
            .with_retry(RetryPolicy { max_retries: 2, ..RetryPolicy::default() });
        let err = run_mpi(s, |mut r| async move {
            if r.rank() == 0 {
                r.send(1, 0, Msg::empty()).await;
            } else {
                r.recv(0, 0).await;
            }
        })
        .unwrap_err();
        match err {
            MpiFault::Timeout { rank: 0, peer: Some(1), attempts: 3, .. } => {}
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }

    #[test]
    fn rendezvous_bulk_survives_lossy_link() {
        let s = spec(2).with_proto(netsim::ProtocolModel::open_mx()).with_fault_plan(degrade_plan(
            0,
            0.5,
            SimTime::from_secs(100),
        ));
        let payload: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let expect: f64 = payload.iter().sum();
        let run = run_mpi(s, move |mut r| {
            let payload = payload.clone();
            async move {
                if r.rank() == 0 {
                    r.send(1, 0, Msg::from_f64s(&payload)).await;
                    0.0
                } else {
                    r.recv(0, 0).await.to_f64s().iter().sum::<f64>()
                }
            }
        })
        .unwrap();
        assert_eq!(run.results[1], expect);
        assert!(run.net.retransmits > 0);
    }

    #[test]
    fn bit_flips_are_polled_in_order() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_millis(1), kind: FaultKind::BitFlip { node: 0 } },
            FaultEvent { at: SimTime::from_millis(2), kind: FaultKind::BitFlip { node: 0 } },
        ]);
        let run = run_mpi(spec(1).with_fault_plan(plan), |mut r| async move {
            assert_eq!(r.poll_bit_flip(), None); // nothing struck yet
            r.compute_secs(0.0015).await;
            let first = r.poll_bit_flip();
            assert_eq!(first, Some(SimTime::from_millis(1)));
            assert_eq!(r.poll_bit_flip(), None); // second flip still pending
            r.compute_secs(0.0010).await;
            let second = r.poll_bit_flip();
            assert_eq!(second, Some(SimTime::from_millis(2)));
            (first.is_some() as u32) + (second.is_some() as u32)
        })
        .unwrap();
        assert_eq!(run.results, vec![2]);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let go = |seed: u64| {
            let plan = FaultPlan::generate(
                seed,
                4,
                SimTime::from_secs(10),
                &des::FaultRates {
                    degrade_per_node_sec: 0.5,
                    degrade_loss: 0.3,
                    degrade_duration: SimTime::from_secs(1),
                    ..des::FaultRates::none()
                },
            );
            run_mpi(spec(4).with_fault_plan(plan), |mut r| async move {
                let next = (r.rank() + 1) % r.size();
                let prev = (r.rank() + r.size() - 1) % r.size();
                for _ in 0..4 {
                    r.sendrecv(next, 1, Msg::size_only(4096), prev, 1).await;
                }
                r.now().as_nanos()
            })
            .unwrap()
        };
        let a = go(7);
        let b = go(7);
        assert_eq!(a.results, b.results);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn node_map_relocates_faults_with_the_physical_node() {
        // Crash physical node 3. With the identity map, ranks 0/1 (nodes
        // 0/1) never touch node 3 and the run completes; remapping rank 1
        // onto physical node 3 puts it in the blast radius.
        let crash = crash_plan(3, SimTime::from_millis(1));
        let base =
            spec(2).with_topology(netsim::TopologySpec::Star { nodes: 4 }).with_fault_plan(crash);
        let ok = run_mpi(base.clone(), |mut r| async move {
            r.compute_secs(0.01).await;
            r.rank()
        })
        .unwrap();
        assert_eq!(ok.results, vec![0, 1]);
        let err = run_mpi(base.with_node_map(vec![0, 3]), |mut r| async move {
            r.compute_secs(0.01).await;
            r.rank()
        })
        .unwrap_err();
        assert_eq!(err, MpiFault::RankDied { rank: 1, node: 3, at: SimTime::from_millis(1) });
    }

    #[test]
    fn event_budget_turns_runaway_job_into_typed_fault() {
        // A ping-pong loop that would run ~forever: the budget aborts it
        // with a typed engine error instead of spinning.
        let s = spec(2).with_event_budget(Some(500));
        let err = run_mpi(s, |mut r| async move {
            let peer = 1 - r.rank();
            loop {
                if r.rank() == 0 {
                    r.send(peer, 0, Msg::empty()).await;
                    r.recv(peer, 0).await;
                } else {
                    r.recv(peer, 0).await;
                    r.send(peer, 0, Msg::empty()).await;
                }
            }
        })
        .unwrap_err();
        match err {
            MpiFault::Engine(SimError::EventBudgetExhausted { events, budget: 500, .. }) => {
                assert_eq!(events, 500);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_leaves_results_identical() {
        let go = |budget: Option<u64>| {
            run_mpi(spec(4).with_event_budget(budget), |mut r| async move {
                let next = (r.rank() + 1) % r.size();
                let prev = (r.rank() + r.size() - 1) % r.size();
                r.sendrecv(next, 1, Msg::size_only(4096), prev, 1).await;
                r.now().as_nanos()
            })
            .unwrap()
        };
        let bounded = go(Some(10_000_000));
        let unbounded = go(None);
        assert_eq!(bounded.results, unbounded.results);
        assert_eq!(bounded.elapsed, unbounded.elapsed);
    }

    #[test]
    fn zero_event_budget_is_rejected_by_validation() {
        let err = run_mpi(spec(2).with_event_budget(Some(0)), |_| async {}).unwrap_err();
        assert_eq!(err, MpiFault::InvalidSpec(crate::JobSpecError::BadEventBudget));
    }

    #[test]
    fn flow_model_uncontended_p2p_matches_event_model_closely() {
        let go = |model: NetModel| {
            run_mpi(spec(2).with_net_model(Some(model)), |mut r| async move {
                if r.rank() == 0 {
                    r.send(1, 7, Msg::size_only(4096)).await;
                } else {
                    r.recv(0, 7).await;
                }
                r.now().as_secs_f64()
            })
            .unwrap()
        };
        let te = go(NetModel::Event).results[1];
        let tf = go(NetModel::Flow).results[1];
        // An uncontended transfer sees the full link under both models; the
        // only differences are nanosecond rounding and reservation none.
        assert!((tf - te).abs() / te < 0.02, "event {te}s vs flow {tf}s");
    }

    #[test]
    fn flow_model_rendezvous_round_trips() {
        let s = spec(2)
            .with_proto(netsim::ProtocolModel::open_mx())
            .with_net_model(Some(NetModel::Flow));
        let payload: Vec<f64> = (0..10_000).map(|i| i as f64).collect(); // 80 KB: rendezvous
        let expect: f64 = payload.iter().sum();
        let run = run_mpi(s, move |mut r| {
            let payload = payload.clone();
            async move {
                if r.rank() == 0 {
                    r.send(1, 0, Msg::from_f64s(&payload)).await;
                    0.0
                } else {
                    r.recv(0, 0).await.to_f64s().iter().sum::<f64>()
                }
            }
        })
        .unwrap();
        assert_eq!(run.results[1], expect);
    }

    #[test]
    fn flow_model_survives_lossy_link() {
        let s = spec(2)
            .with_fault_plan(degrade_plan(1, 0.5, SimTime::from_secs(100)))
            .with_net_model(Some(NetModel::Flow));
        let run = run_mpi(s, |mut r| async move {
            if r.rank() == 0 {
                for i in 0..8u64 {
                    r.send(1, 1, Msg::from_u64s(&[i])).await;
                }
                0
            } else {
                let mut sum = 0u64;
                for _ in 0..8 {
                    sum += r.recv(0, 1).await.to_u64s()[0];
                }
                sum
            }
        })
        .unwrap();
        assert_eq!(run.results[1], 28);
        assert!(run.net.retransmits > 0, "a 50% lossy link must drop something");
    }

    #[test]
    fn flow_model_runs_are_deterministic() {
        let go = || {
            run_mpi(spec(8).with_net_model(Some(NetModel::Flow)), |mut r| async move {
                let next = (r.rank() + 1) % r.size();
                let prev = (r.rank() + r.size() - 1) % r.size();
                for _ in 0..3 {
                    r.sendrecv(next, 1, Msg::size_only(4096), prev, 1).await;
                }
                r.now().as_nanos()
            })
            .unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn determinism_same_run_same_times() {
        let go = || {
            run_mpi(spec(4), |mut r| async move {
                let next = (r.rank() + 1) % r.size();
                let prev = (r.rank() + r.size() - 1) % r.size();
                let m = r.sendrecv(next, 1, Msg::size_only(4096), prev, 1).await;
                (r.now().as_nanos(), m.bytes)
            })
            .unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.results, b.results);
        assert_eq!(a.elapsed, b.elapsed);
    }
}
