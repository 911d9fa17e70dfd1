//! The discrete-event engine and its process model.
//!
//! # Execution model
//!
//! Simulated actors ("processes", [`Engine::spawn_process`]) are stackless
//! coroutines: `async` blocks whose only suspension points are the engine's
//! own leaf primitives ([`ProcCtx::advance`], [`ProcCtx::park`],
//! [`ProcCtx::park_until`]). The engine polls the process's future inline —
//! on the engine's own thread — whenever an event for it dispatches, so a
//! 4096-rank cluster runs in **one** OS thread with no context switches.
//!
//! Processes share one event queue ordered by `(time, insertion sequence)`,
//! and only one process executes at a time, so simulations are
//! **bit-deterministic**: the same program produces the same event trace on
//! every run, regardless of OS scheduling.
//!
//! # One thread by type
//!
//! An engine is built, run and dropped inside one call on one thread, so
//! its state is shared with its processes through an `Rc` and guarded by a
//! `RefCell`, not an `Arc` and a lock: [`Engine`] and [`ProcCtx`] are not
//! `Send`. The engine never holds its state borrow while it polls a
//! process, and a process never holds it across a suspension point.
//!
//! A suspending process's timer (from `advance` or `park_until`) does not
//! go through the queue on its own: it takes part in the very next pop.
//! If the queue's top is earlier, the two swap places with one sift-down;
//! otherwise the timer dispatches without touching the heap. The result is
//! exactly that of pushing the timer and then popping, so the event order,
//! the dispatch count and every budget-abort point are unchanged.
//!
//! Processes must suspend **only** through the engine's leaf futures;
//! awaiting a foreign future that returns `Pending` without scheduling a des
//! event would strand the process, so the engine panics when a poll returns
//! `Pending` without a suspension request.
//!
//! Cross-process signalling is intentionally minimal: [`ProcCtx::wake_at`]
//! schedules a wake-up for a *parked* process.
//! Higher-level abstractions (mailboxes, MPI-style matching, network links)
//! are built on top of this in the `simmpi` and `netsim` crates.
//!
//! Every scheduler action can be observed through the opt-in structured
//! tracing layer (see [`crate::trace`]): install a [`Tracer`] with
//! [`Engine::with_tracer`] and each spawn/resume/sleep/park/wake/finish is
//! reported as a stamped [`crate::TraceRecord`]. Without a tracer the
//! emission sites are a single `Option` check.

use std::cell::{Cell, RefCell};
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context as TaskContext, Poll, Waker};

use crate::mc;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceFilter, TraceRecord, Tracer};

/// Identifier of a simulated process, assigned in spawn order. The default
/// value is the first-spawned process's id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Index form, for addressing per-process tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a simulation ended unsuccessfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while processes were still parked: every
    /// remaining process is waiting for a signal nobody will send.
    Deadlock {
        /// Virtual time at which progress stopped.
        at: SimTime,
        /// Names of the parked processes.
        parked: Vec<String>,
    },
    /// A process panicked; the payload is the process name and panic message.
    ProcessPanic {
        /// Name of the process that panicked.
        process: String,
        /// Best-effort stringified panic payload.
        message: String,
    },
    /// The simulation dispatched more events than its configured budget
    /// (see [`Engine::set_event_budget`]). This is the watchdog that turns a
    /// runaway or livelocked simulation into a typed error instead of an
    /// unbounded spin: the run aborts deterministically at the first event
    /// past the budget.
    EventBudgetExhausted {
        /// Virtual time at which the budget ran out.
        at: SimTime,
        /// Events dispatched when the run was aborted.
        events: u64,
        /// The configured budget.
        budget: u64,
        /// Live (non-finished) processes at abort time, each annotated with
        /// its scheduler status — the same diagnostic deadlock detection
        /// prints, so budget kills in sweeps and model-checking runs are
        /// debuggable.
        parked: Vec<String>,
    },
    /// The run was stopped from outside by the model-checking controller:
    /// the state it just reached was already covered by an explored
    /// schedule (see [`mc`](crate::mc)). Not a failure of the simulated
    /// program.
    Interrupted {
        /// Virtual time at which the run was abandoned.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { at, parked } => {
                write!(f, "simulation deadlock at {at}: parked processes: {}", parked.join(", "))
            }
            SimError::ProcessPanic { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
            SimError::EventBudgetExhausted { at, events, budget, parked } => {
                write!(
                    f,
                    "event budget exhausted at {at}: {events} events dispatched (budget {budget})"
                )?;
                if !parked.is_empty() {
                    write!(f, "; live processes: {}", parked.join(", "))?;
                }
                Ok(())
            }
            SimError::Interrupted { at } => {
                write!(f, "run interrupted at {at} by the model-checking controller")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the last process finished.
    pub end_time: SimTime,
    /// Total number of scheduler events dispatched (including stale ones).
    pub events: u64,
    /// Number of processes that ran to completion.
    pub processes: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Not yet resumed for the first time, or currently runnable and queued.
    Ready,
    /// Currently executing (at most one process at a time).
    Running,
    /// Blocked in `advance` until its timer event fires.
    Sleeping,
    /// Blocked in `park` until another process wakes it.
    Parked,
    /// Closure returned (or panicked).
    Finished,
}

struct Event {
    at: SimTime,
    seq: u64,
    pid: Pid,
    /// Generation the target process had when this event was created; a
    /// mismatch at dispatch time marks the event stale (the process already
    /// resumed for another reason).
    gen: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct ProcSlot {
    name: String,
    status: Status,
    /// Bumped every time the process resumes; used to invalidate stale events.
    gen: u64,
}

struct State {
    seq: u64,
    queue: BinaryHeap<Event>,
    procs: Vec<ProcSlot>,
    live: u32,
    events_dispatched: u64,
    /// Emission counter for trace records (independent of the event-queue
    /// `seq`, which also numbers never-traced internal events).
    trace_seq: u64,
}

impl State {
    /// A new event, numbered with the next insertion sequence.
    fn new_event(&mut self, at: SimTime, pid: Pid, gen: u64) -> Event {
        let seq = self.seq;
        self.seq += 1;
        Event { at, seq, pid, gen }
    }

    fn push_event(&mut self, at: SimTime, pid: Pid, gen: u64) {
        let ev = self.new_event(at, pid, gen);
        self.queue.push(ev);
    }
}

/// How a process suspends: what its leaf primitive asks the scheduler for.
#[derive(Clone, Copy, Debug)]
enum Suspend {
    /// `advance`: sleep until the given absolute time.
    Sleep(SimTime),
    /// `park`: wait for a peer's wake.
    Park,
    /// `park_until`: wait for a peer's wake or the deadline.
    ParkUntil(SimTime),
}

struct Shared {
    state: RefCell<State>,
    /// Current virtual time. Only the dispatcher writes it, between polls;
    /// a process reads it without borrowing the state.
    now: Cell<SimTime>,
    /// The suspension a process requested during the current poll, handed
    /// to the dispatcher instead of being applied from inside the poll.
    suspend: Cell<Option<Suspend>>,
    /// Installed before any spawn and immutable afterwards.
    tracer: Option<Arc<dyn Tracer>>,
    /// The installed tracer's [`Tracer::interest`] mask, cached at install
    /// time ([`TraceFilter::NONE`] with no tracer). Every emission site
    /// branches on this plain bitfield before constructing its event, so an
    /// uninterested class — and in particular a [`crate::NullTracer`] — costs
    /// one predictable branch per site.
    trace_mask: TraceFilter,
    /// Model-checking controller, installed before any spawn like the
    /// tracer. `None` (the overwhelmingly common case) keeps the dispatch
    /// loop on its plain earliest-event path.
    mc: Option<Arc<mc::McCtl>>,
}

impl Shared {
    /// The current virtual time, read without borrowing the state.
    #[inline]
    fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Record the suspension the polled process asks for; the dispatcher
    /// applies it ([`apply_suspend`]) in its next dispatch.
    #[inline]
    fn request_suspend(&self, s: Suspend) {
        self.suspend.set(Some(s));
    }

    /// Stamp and forward one **scheduler** event to the installed tracer.
    /// Takes a closure so event construction (and any allocation in it) is
    /// skipped entirely unless the tracer wants [`TraceClass::Proc`] events
    /// — every event the scheduler itself emits is proc-class.
    #[inline]
    fn trace_with(&self, st: &mut State, event: impl FnOnce() -> TraceEvent) {
        if self.trace_mask.procs {
            self.trace_record(st, event());
        }
    }

    /// Stamp and forward one already-constructed event. Callers must have
    /// checked [`Shared::trace_mask`] for the event's class.
    fn trace_record(&self, st: &mut State, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            let seq = st.trace_seq;
            st.trace_seq += 1;
            t.record(TraceRecord { at: self.now(), seq, event });
        }
    }
}

type ProcFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// The model checker's domain state probe (see [`Engine::set_state_probe`]).
type StateProbe = Box<dyn Fn(SimTime) -> u64>;

/// A deterministic discrete-event simulation.
///
/// Spawn processes with [`Engine::spawn_process`], then drive them to
/// completion with [`Engine::run`]. See the module docs for the execution
/// model.
///
/// ```
/// use des::{Engine, SimTime};
///
/// let mut eng = Engine::new();
/// eng.spawn_process("ticker", |ctx| async move {
///     for _ in 0..3 {
///         ctx.advance(SimTime::from_micros(10)).await;
///     }
/// });
/// let report = eng.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_micros(30));
/// ```
pub struct Engine {
    shared: Rc<Shared>,
    /// Process futures, indexed by pid; `None` once a process finished.
    tasks: Vec<Option<ProcFuture>>,
    /// Abort the run with [`SimError::EventBudgetExhausted`] once this many
    /// events have been dispatched. `None` = unlimited (the default).
    event_budget: Option<u64>,
    /// The suspension the last polled process asked for, applied at the
    /// start of the next dispatch, whose first pop takes its timer event.
    handoff: Option<(Pid, Suspend)>,
    /// Hash of the simulated program's own state, folded into every
    /// model-checking observation. `None` hashes as 0.
    probe: Option<StateProbe>,
}

// Every engine is built and run inside one call on one thread: `run_mpi`,
// the tests, the ledger's token ring. The sweep runs each cell's closure on
// its worker thread, so only the cell's result crosses threads: what a run
// returns must stay `Send`. Compile-time check, so a non-Send field in a
// result breaks the build here, not in a downstream crate.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RunReport>();
    assert_send::<SimError>();
};

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Create an empty simulation at time zero.
    pub fn new() -> Self {
        Engine {
            shared: Rc::new(Shared {
                state: RefCell::new(State {
                    seq: 0,
                    queue: BinaryHeap::new(),
                    procs: Vec::new(),
                    live: 0,
                    events_dispatched: 0,
                    trace_seq: 0,
                }),
                now: Cell::new(SimTime::ZERO),
                suspend: Cell::new(None),
                tracer: None,
                trace_mask: TraceFilter::NONE,
                mc: None,
            }),
            tasks: Vec::new(),
            event_budget: None,
            handoff: None,
            probe: None,
        }
    }

    /// Bound the simulation to at most `budget` dispatched events.
    ///
    /// The count includes stale events (the same counter reported by
    /// [`RunReport::events`]), so the bound is a hard ceiling on scheduler
    /// work regardless of what the processes do. When the budget runs out,
    /// [`Engine::run`] aborts with [`SimError::EventBudgetExhausted`] at a
    /// deterministic point: the same program with the same budget always
    /// stops at the same event and virtual time. `None` removes the bound.
    pub fn set_event_budget(&mut self, budget: Option<u64>) {
        self.event_budget = budget;
    }

    /// Builder-style [`Engine::set_event_budget`].
    pub fn with_event_budget(mut self, budget: Option<u64>) -> Self {
        self.event_budget = budget;
        self
    }

    /// Install a [`Tracer`] that observes every scheduler action (see
    /// [`crate::trace`]). Tracing is purely observational — it never changes
    /// event ordering, virtual timestamps, or any simulation result.
    ///
    /// # Panics
    ///
    /// Must be called **before** any process is spawned (spawning hands out
    /// clones of the engine's shared state); calling it later panics.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        let shared = Rc::get_mut(&mut self.shared)
            .expect("set_tracer must be called before any process is spawned");
        shared.trace_mask = tracer.interest();
        shared.tracer = Some(tracer);
    }

    /// Builder-style [`Engine::set_tracer`].
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Attach a model-checking controller (see [`mc`](crate::mc)). The
    /// dispatch loop then offers the controller every scheduling choice
    /// among simultaneously enabled events, reports each dispatch for
    /// state-hash deduplication, and aborts with [`SimError::Interrupted`]
    /// when the controller prunes the run. Begins a new controller epoch,
    /// so one controller can drive several consecutive engines.
    ///
    /// # Panics
    ///
    /// Like [`Engine::set_tracer`], must be called before any spawn.
    pub fn set_mc(&mut self, ctl: Arc<mc::McCtl>) {
        let shared = Rc::get_mut(&mut self.shared)
            .expect("set_mc must be called before any process is spawned");
        ctl.begin_epoch();
        shared.mc = Some(ctl);
    }

    /// Install the domain state probe for model checking (e.g. a hash of
    /// `simmpi` mailboxes). Each dispatch the controller observes folds in
    /// `f(now)`. The probe runs between polls, so it may borrow the
    /// simulated program's state but must not touch the engine. Without a
    /// controller it is never called.
    pub fn set_state_probe(&mut self, f: impl Fn(SimTime) -> u64 + 'static) {
        self.probe = Some(Box::new(f));
    }

    /// Spawn a process that becomes runnable at time zero.
    ///
    /// `f` is called immediately with the process's [`ProcCtx`] and must
    /// return the future that *is* the process — typically an `async move`
    /// block. The future is polled inline by the engine; it may only suspend
    /// through `ctx`'s leaf primitives (`advance` / `park` / `park_until`).
    /// No OS resources are allocated, so spawning cannot fail and tens of
    /// thousands of processes are cheap.
    ///
    /// Processes spawned before [`Engine::run`] start in spawn order.
    ///
    /// ```
    /// use des::{Engine, SimTime};
    ///
    /// let mut eng = Engine::new();
    /// let mut pids = Vec::new();
    /// for i in 0..3 {
    ///     pids.push(eng.spawn_process(format!("worker{i}"), move |ctx| async move {
    ///         ctx.advance(SimTime::from_micros(10 * (i + 1))).await;
    ///     }));
    /// }
    /// let report = eng.run().unwrap();
    /// assert_eq!(report.processes, 3);
    /// assert_eq!(report.end_time, SimTime::from_micros(30));
    /// ```
    pub fn spawn_process<F, Fut>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let name = name.into();
        let pid = {
            let mut st = self.shared.state.borrow_mut();
            let pid = Pid(st.procs.len() as u32);
            let traced_name = self.shared.trace_mask.procs.then(|| name.clone());
            st.procs.push(ProcSlot { name, status: Status::Ready, gen: 0 });
            st.live += 1;
            st.push_event(self.shared.now(), pid, 0);
            if let Some(name) = traced_name {
                self.shared.trace_with(&mut st, || TraceEvent::ProcSpawn { pid, name });
            }
            pid
        };
        let ctx = ProcCtx { pid, shared: Rc::clone(&self.shared) };
        let fut = f(ctx);
        if self.tasks.len() <= pid.index() {
            self.tasks.resize_with(pid.index() + 1, || None);
        }
        self.tasks[pid.index()] = Some(Box::pin(fut));
        pid
    }

    /// Whether `ev` no longer targets the generation its process is in
    /// (the process already resumed for another reason).
    fn is_stale(st: &State, ev: &Event) -> bool {
        let slot = &st.procs[ev.pid.index()];
        match slot.status {
            Status::Finished | Status::Running => true,
            _ => slot.gen != ev.gen,
        }
    }

    /// Names of every non-finished process, for deadlock reports.
    fn parked_names(st: &State) -> Vec<String> {
        st.procs.iter().filter(|p| p.status != Status::Finished).map(|p| p.name.clone()).collect()
    }

    /// Names of every non-finished process annotated with its scheduler
    /// status — the budget-abort diagnostic.
    fn live_process_diag(st: &State) -> Vec<String> {
        st.procs
            .iter()
            .filter(|p| p.status != Status::Finished)
            .map(|p| {
                let status = match p.status {
                    Status::Ready => "ready",
                    Status::Running => "running",
                    Status::Sleeping => "sleeping",
                    Status::Parked => "parked",
                    Status::Finished => "finished",
                };
                format!("{} ({status})", p.name)
            })
            .collect()
    }

    /// Abort with [`SimError::EventBudgetExhausted`] if the dispatch count
    /// has reached the configured budget.
    fn check_budget(&self, st: &mut State) -> Result<(), SimError> {
        if let Some(budget) = self.event_budget {
            if st.events_dispatched >= budget {
                let events = st.events_dispatched;
                self.shared.trace_with(st, || TraceEvent::BudgetExhausted { events, budget });
                return Err(SimError::EventBudgetExhausted {
                    at: self.shared.now(),
                    events,
                    budget,
                    parked: Self::live_process_diag(st),
                });
            }
        }
        Ok(())
    }

    /// The plain dispatch path: earliest live event wins, stale events are
    /// consumed and counted.
    ///
    /// `incoming` is the timer the process that just suspended asked for.
    /// It takes part in the first pop as if it had been pushed first: when
    /// the queue's top is earlier, the two swap places (one sift-down) and
    /// the old top dispatches; otherwise `incoming` dispatches without
    /// touching the heap.
    fn next_event(&self, st: &mut State, mut incoming: Option<Event>) -> Result<Event, SimError> {
        loop {
            self.check_budget(st)?;
            let ev = match incoming.take() {
                Some(inc) => match st.queue.peek_mut() {
                    // The heap is a max-heap on the inverted order:
                    // `top > inc` means the top is earlier.
                    Some(mut top) if *top > inc => std::mem::replace(&mut *top, inc),
                    _ => inc,
                },
                None => match st.queue.pop() {
                    Some(ev) => ev,
                    None => {
                        let at = self.shared.now();
                        return Err(SimError::Deadlock { at, parked: Self::parked_names(st) });
                    }
                },
            };
            st.events_dispatched += 1;
            if !Self::is_stale(st, &ev) {
                return Ok(ev);
            }
        }
    }

    /// The model-checking dispatch path: collect every live event enabled
    /// within the controller's time slack of the earliest one, let the
    /// controller pick, and push the rest back (their sequence numbers keep
    /// the replayed order stable). Stale events met while draining are
    /// consumed and counted exactly like the plain path; pushed-back events
    /// are not counted until actually dispatched.
    fn next_event_mc(&self, st: &mut State, ctl: &mc::McCtl) -> Result<Event, SimError> {
        let first = loop {
            self.check_budget(st)?;
            match st.queue.pop() {
                Some(ev) => {
                    if Self::is_stale(st, &ev) {
                        st.events_dispatched += 1;
                        continue;
                    }
                    break ev;
                }
                None => {
                    let at = self.shared.now();
                    return Err(SimError::Deadlock { at, parked: Self::parked_names(st) });
                }
            }
        };
        let mut enabled = vec![first];
        if ctl.explore_sched() {
            let bound = enabled[0].at + ctl.time_slack();
            while st.queue.peek().is_some_and(|e| e.at <= bound) {
                let ev = st.queue.pop().expect("peeked event vanished");
                if Self::is_stale(st, &ev) {
                    st.events_dispatched += 1;
                } else {
                    enabled.push(ev);
                }
            }
        }
        let idx = if enabled.len() > 1 {
            let choices: Vec<mc::EnabledChoice> = enabled
                .iter()
                .map(|e| mc::EnabledChoice { at: e.at, seq: e.seq, pid: e.pid.index() })
                .collect();
            ctl.sched_pick(&choices)
        } else {
            0
        };
        let chosen = enabled.swap_remove(idx);
        for ev in enabled {
            st.queue.push(ev);
        }
        st.events_dispatched += 1;
        Ok(chosen)
    }

    /// Run the simulation until every process finishes.
    ///
    /// Returns a [`RunReport`] on success, [`SimError::Deadlock`] if the event
    /// queue drains while processes are parked, or [`SimError::ProcessPanic`]
    /// if any process panicked. Processes still suspended when a run aborts
    /// are dropped with the engine.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        let mc = self.shared.mc.clone();
        loop {
            let pid = {
                let mut st = self.shared.state.borrow_mut();
                let incoming = self
                    .handoff
                    .take()
                    .and_then(|(pid, s)| apply_suspend(&self.shared, &mut st, pid, s));
                if st.live == 0 {
                    return Ok(RunReport {
                        end_time: self.shared.now(),
                        events: st.events_dispatched,
                        processes: st.procs.len() as u32,
                    });
                }
                let ev = match &mc {
                    Some(ctl) => {
                        if let Some(ev) = incoming {
                            st.queue.push(ev);
                        }
                        self.next_event_mc(&mut st, ctl)?
                    }
                    None => self.next_event(&mut st, incoming)?,
                };
                if mc.is_none() {
                    debug_assert!(ev.at >= self.shared.now(), "event queue went backwards in time");
                }
                start_dispatch(&self.shared, &mut st, &ev);
                if let Some(ctl) = &mc {
                    let now = self.shared.now();
                    let hash = mc_engine_hash(&st, now);
                    let probe_hash = self.probe.as_ref().map_or(0, |f| f(now));
                    if !ctl.observe_dispatch(ev.pid.index(), ev.seq, now, hash, probe_hash) {
                        return Err(SimError::Interrupted { at: now });
                    }
                }
                ev.pid
            };
            self.poll_process(pid)?;
        }
    }

    /// Poll the process selected by the dispatch loop until it suspends
    /// again (or finishes, or panics).
    fn poll_process(&mut self, pid: Pid) -> Result<(), SimError> {
        let mut fut =
            self.tasks[pid.index()].take().expect("process resumed without a stored future");
        // The engine is the only scheduler: nothing ever needs to wake a task
        // from outside, so a no-op waker suffices.
        let mut cx = TaskContext::from_waker(Waker::noop());
        let polled = panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        let suspend = self.shared.suspend.take();
        match polled {
            Ok(Poll::Pending) => {
                // The leaf primitive recorded its suspension; the next
                // dispatch applies it.
                assert!(
                    suspend.is_some(),
                    "event process returned Pending without blocking on a des primitive"
                );
                self.handoff = suspend.map(|s| (pid, s));
                self.tasks[pid.index()] = Some(fut);
            }
            Ok(Poll::Ready(())) => {
                let mut st = self.shared.state.borrow_mut();
                if let Some(s) = suspend {
                    if let Some(ev) = apply_suspend(&self.shared, &mut st, pid, s) {
                        st.queue.push(ev);
                    }
                }
                st.procs[pid.index()].status = Status::Finished;
                st.live -= 1;
                self.shared.trace_with(&mut st, || TraceEvent::ProcFinish { pid });
            }
            Err(payload) => {
                let message = panic_payload_to_string(&*payload);
                let mut st = self.shared.state.borrow_mut();
                st.live -= 1;
                let slot = &mut st.procs[pid.index()];
                slot.status = Status::Finished;
                return Err(SimError::ProcessPanic { process: slot.name.clone(), message });
            }
        }
        Ok(())
    }
}

/// Hand the engine to the process owning `ev`: advance the clock to the
/// event, mark the process running in a new generation, trace the resume.
fn start_dispatch(shared: &Shared, st: &mut State, ev: &Event) {
    // `max` semantics: a model-checking controller may dispatch an event
    // that was pushed back behind a slightly later one (bounded timing
    // skew); virtual time still never reverses.
    if ev.at > shared.now() {
        shared.now.set(ev.at);
    }
    let slot = &mut st.procs[ev.pid.index()];
    slot.status = Status::Running;
    slot.gen += 1;
    shared.trace_with(st, || TraceEvent::ProcResume { pid: ev.pid });
}

/// Suspend process `pid` as its leaf primitive asked: the status change,
/// the timer event (if any) and the trace record, in that order. The timer
/// is returned, already numbered, for the caller to queue or dispatch.
fn apply_suspend(shared: &Shared, st: &mut State, pid: Pid, s: Suspend) -> Option<Event> {
    let slot = &mut st.procs[pid.index()];
    let gen = slot.gen;
    match s {
        Suspend::Sleep(until) => {
            slot.status = Status::Sleeping;
            let ev = st.new_event(until, pid, gen);
            shared.trace_with(st, || TraceEvent::ProcSleep { pid, until });
            Some(ev)
        }
        Suspend::Park => {
            slot.status = Status::Parked;
            shared.trace_with(st, || TraceEvent::ProcPark { pid, deadline: None });
            None
        }
        Suspend::ParkUntil(deadline) => {
            slot.status = Status::Parked;
            let ev = st.new_event(deadline.max(shared.now()), pid, gen);
            shared.trace_with(st, || TraceEvent::ProcPark { pid, deadline: Some(deadline) });
            Some(ev)
        }
    }
}

fn panic_payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A process's handle to the simulation: virtual-time queries, time
/// advance, parking, and waking peers.
///
/// A `ProcCtx` is owned, cheap to clone, and `'static`, so it can be moved
/// into the `async` block that implements the process. The async methods ([`ProcCtx::advance`],
/// [`ProcCtx::park`], [`ProcCtx::park_until`]) are the process's only legal
/// suspension points.
///
/// It shares the engine's state through an `Rc`, so it cannot leave the
/// engine's thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<des::ProcCtx>();
/// ```
#[derive(Clone)]
pub struct ProcCtx {
    pid: Pid,
    shared: Rc<Shared>,
}

impl ProcCtx {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Advance this process's virtual time by `dt` (models computation or a
    /// fixed delay). Other processes may run in the interim. A zero `dt`
    /// completes immediately without yielding.
    pub fn advance(&self, dt: SimTime) -> Advance<'_> {
        Advance { ctx: self, dt, suspended: false }
    }

    /// Advance to an absolute virtual time (no-op if already past it).
    pub async fn advance_to(&self, at: SimTime) {
        let now = self.now();
        if at > now {
            self.advance(at - now).await;
        }
    }

    /// Suspend until another process calls `wake_at` targeting this process.
    /// Virtual time does not advance on this process's account while parked;
    /// it resumes at whatever time the waker chose.
    pub fn park(&self) -> Park<'_> {
        Park { ctx: self, suspended: false }
    }

    /// Park with a timeout: suspend until another process wakes this one, or
    /// until virtual time `deadline` — whichever comes first.
    ///
    /// Resolves to `true` if a peer's wake resumed the process **strictly
    /// before** `deadline`, `false` on timeout. A wake landing exactly at
    /// `deadline` counts as a timeout (the self-scheduled timeout event was
    /// enqueued first and wins the tie), which gives retry loops a crisp
    /// "no answer by t" semantic. A `deadline` at or before the current time
    /// resumes immediately with `false`.
    pub fn park_until(&self, deadline: SimTime) -> ParkUntil<'_> {
        ParkUntil { ctx: self, deadline, suspended: false }
    }

    /// Schedule a wake-up for `target` at absolute time `at` (must be `>=`
    /// now). The target must currently be **parked**; waking a running,
    /// sleeping, or finished process is a protocol violation and panics.
    ///
    /// Multiple wakes may target the same parked process; the earliest one
    /// resumes it and the rest are discarded as stale.
    pub fn wake_at(&self, target: Pid, at: SimTime) {
        wake_at_impl(&self.shared, target, at);
    }

    /// Whether the installed [`Tracer`] (if any) is interested in at least
    /// one event class.
    ///
    /// Emission sites in higher layers should guard any allocation needed to
    /// *build* an event behind this check, so untraced runs pay nothing:
    ///
    /// ```ignore
    /// if ctx.tracing() {
    ///     ctx.emit_trace(TraceEvent::SpanBegin { rank, name: "compute".into() });
    /// }
    /// ```
    #[inline]
    pub fn tracing(&self) -> bool {
        self.shared.trace_mask != TraceFilter::NONE
    }

    /// Record a custom trace event (message, fault, or span kinds) stamped
    /// with the current virtual time and the engine's next trace sequence
    /// number. A no-op when no tracer is installed or when the tracer's
    /// [`Tracer::interest`] mask excludes the event's class.
    pub fn emit_trace(&self, event: TraceEvent) {
        if self.shared.trace_mask.accepts_class(event.class()) {
            let mut st = self.shared.state.borrow_mut();
            self.shared.trace_record(&mut st, event);
        }
    }
}

fn wake_at_impl(shared: &Shared, target: Pid, at: SimTime) {
    let now = shared.now();
    assert!(at >= now, "wake_at into the past ({at} < {now})");
    let mut st = shared.state.borrow_mut();
    let gen = {
        let slot = &st.procs[target.index()];
        assert!(
            slot.status == Status::Parked,
            "wake_at target '{}' is {:?}, not Parked",
            slot.name,
            slot.status
        );
        slot.gen
    };
    st.push_event(at, target, gen);
    // Waking a peer writes that peer's schedule: record it in the current
    // execution segment's footprint so the commutation reduction never
    // reorders a waker past something that touches the same process.
    if let Some(ctl) = &shared.mc {
        ctl.touch(mc::pid_bit(target.index()));
    }
    shared.trace_with(&mut st, || TraceEvent::ProcWake { target, at });
}

/// Order-insensitive hash of the scheduler state for model-checking
/// deduplication: per-process status and resume count, plus the live event
/// queue as a multiset of `(time-to-fire, pid)` pairs. Absolute virtual
/// time, sequence numbers and dispatch counters are deliberately excluded
/// so runs reaching the same relative state by different tie orders or at
/// shifted times can merge; resume counts (`gen`) keep successive
/// iterations of a process loop from aliasing.
fn mc_engine_hash(st: &State, now: SimTime) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, p) in st.procs.iter().enumerate() {
        let code = match p.status {
            Status::Ready => 1u64,
            Status::Running => 2,
            Status::Sleeping => 3,
            Status::Parked => 4,
            Status::Finished => 5,
        };
        h = mc::mix(h, (i as u64) << 3 | code);
        h = mc::mix(h, p.gen);
    }
    let now = now.as_nanos();
    let mut qh = 0u64;
    for ev in st.queue.iter() {
        if Engine::is_stale(st, ev) {
            continue;
        }
        let delta = ev.at.as_nanos().wrapping_sub(now);
        qh = qh.wrapping_add(mc::mix(mc::mix(0x9e37_79b9, delta), ev.pid.index() as u64 + 1));
    }
    mc::mix(h, qh)
}

/// Future of [`ProcCtx::advance`].
///
/// First poll: asks the dispatcher to schedule the timer event and suspends.
/// Second poll (when that event dispatches): resolves.
#[must_use = "futures do nothing unless awaited"]
pub struct Advance<'a> {
    ctx: &'a ProcCtx,
    dt: SimTime,
    suspended: bool,
}

impl Future for Advance<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut TaskContext<'_>) -> Poll<()> {
        if self.suspended || self.dt == SimTime::ZERO {
            return Poll::Ready(());
        }
        self.suspended = true;
        let shared = &self.ctx.shared;
        shared.request_suspend(Suspend::Sleep(shared.now() + self.dt));
        Poll::Pending
    }
}

/// Future of [`ProcCtx::park`].
#[must_use = "futures do nothing unless awaited"]
pub struct Park<'a> {
    ctx: &'a ProcCtx,
    suspended: bool,
}

impl Future for Park<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut TaskContext<'_>) -> Poll<()> {
        if self.suspended {
            return Poll::Ready(());
        }
        self.suspended = true;
        self.ctx.shared.request_suspend(Suspend::Park);
        Poll::Pending
    }
}

/// Future of [`ProcCtx::park_until`]; resolves to whether a peer's wake
/// arrived strictly before the deadline.
#[must_use = "futures do nothing unless awaited"]
pub struct ParkUntil<'a> {
    ctx: &'a ProcCtx,
    deadline: SimTime,
    suspended: bool,
}

impl Future for ParkUntil<'_> {
    type Output = bool;
    fn poll(mut self: Pin<&mut Self>, _cx: &mut TaskContext<'_>) -> Poll<bool> {
        let ctx = self.ctx;
        if self.suspended {
            return Poll::Ready(ctx.now() < self.deadline);
        }
        self.suspended = true;
        ctx.shared.request_suspend(Suspend::ParkUntil(self.deadline));
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn single_event_process_advances_time() {
        let mut eng = Engine::new();
        eng.spawn_process("p", |ctx| async move {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimTime::from_micros(5)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(5));
            ctx.advance(SimTime::from_micros(7)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(12));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(12));
        assert_eq!(rep.processes, 1);
    }

    #[test]
    fn end_time_is_latest_finisher() {
        let mut eng = Engine::new();
        eng.spawn_process("short", |ctx| async move { ctx.advance(SimTime::from_micros(1)).await });
        eng.spawn_process(
            "long",
            |ctx| async move { ctx.advance(SimTime::from_micros(100)).await },
        );
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(100));
    }

    #[test]
    fn interleaving_is_time_ordered_and_deterministic() {
        let trace = Arc::new(PMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let trace = Arc::clone(&trace);
            eng.spawn_process(name, move |ctx| async move {
                for i in 0..4u64 {
                    ctx.advance(SimTime::from_micros(step)).await;
                    trace.lock().push((name, step * (i + 1)));
                }
            });
        }
        let rep = eng.run().unwrap();
        // Two start events plus eight advances.
        assert_eq!(rep.events, 10);
        let got = trace.lock().clone();
        // Merged by virtual time; ties broken by event insertion order.
        assert_eq!(
            got,
            vec![
                ("a", 3),
                ("b", 5),
                ("a", 6),
                ("a", 9),
                ("b", 10),
                ("a", 12),
                ("b", 15),
                ("b", 20)
            ]
        );
    }

    #[test]
    fn park_and_wake_handshake() {
        let mut eng = Engine::new();
        let waiter = eng.spawn_process("waiter", |ctx| async move {
            ctx.park().await;
            assert_eq!(ctx.now(), SimTime::from_micros(42));
        });
        eng.spawn_process("waker", move |ctx| async move {
            ctx.advance(SimTime::from_micros(10)).await;
            ctx.wake_at(waiter, SimTime::from_micros(42));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(42));
    }

    #[test]
    fn duplicate_wakes_are_stale_not_fatal() {
        let mut eng = Engine::new();
        let waiter = eng.spawn_process("waiter", |ctx| async move {
            ctx.park().await;
            // Resumed once, at the earliest wake.
            assert_eq!(ctx.now(), SimTime::from_micros(5));
            ctx.advance(SimTime::from_micros(100)).await;
        });
        eng.spawn_process("w1", move |ctx| async move {
            ctx.wake_at(waiter, SimTime::from_micros(5));
        });
        eng.spawn_process("w2", move |ctx| async move {
            ctx.wake_at(waiter, SimTime::from_micros(9));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(105));
    }

    #[test]
    fn deadlock_names_event_driven_processes() {
        let mut eng = Engine::new();
        eng.spawn_process("ev-stuck-a", |ctx| async move {
            ctx.advance(SimTime::from_micros(3)).await;
            ctx.park().await; // nobody will wake us
        });
        eng.spawn_process("ev-stuck-b", |ctx| async move {
            ctx.park().await;
        });
        match eng.run() {
            Err(SimError::Deadlock { at, parked }) => {
                assert_eq!(at, SimTime::from_micros(3));
                assert_eq!(parked, vec!["ev-stuck-a".to_string(), "ev-stuck-b".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn event_process_panic_is_reported() {
        let mut eng = Engine::new();
        eng.spawn_process("boom", |ctx| async move {
            ctx.advance(SimTime::from_micros(1)).await;
            panic!("kaboom");
        });
        // A bystander that would keep running; the run must still abort.
        eng.spawn_process("bystander", |ctx| async move {
            ctx.advance(SimTime::from_secs(10)).await;
        });
        match eng.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "boom");
                assert!(message.contains("kaboom"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn zero_advance_is_noop() {
        let mut eng = Engine::new();
        eng.spawn_process("p", |ctx| async move {
            ctx.advance(SimTime::ZERO).await;
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        assert!(eng.run().is_ok());
    }

    #[test]
    fn advance_to_absolute() {
        let mut eng = Engine::new();
        eng.spawn_process("p", |ctx| async move {
            ctx.advance_to(SimTime::from_micros(9)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(9));
            // Already past: no-op.
            ctx.advance_to(SimTime::from_micros(4)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(9));
        });
        assert!(eng.run().is_ok());
    }

    #[test]
    fn many_event_processes_scale_without_threads() {
        let counter = Arc::new(PMutex::new(0u64));
        let mut eng = Engine::new();
        for i in 0..4096u64 {
            let counter = Arc::clone(&counter);
            eng.spawn_process(format!("p{i}"), move |ctx| async move {
                for _ in 0..4 {
                    ctx.advance(SimTime::from_nanos(100 + i)).await;
                }
                *counter.lock() += 1;
            });
        }
        let rep = eng.run().unwrap();
        assert_eq!(*counter.lock(), 4096);
        assert_eq!(rep.processes, 4096);
    }

    #[test]
    fn park_until_times_out_without_waker() {
        let mut eng = Engine::new();
        eng.spawn_process("waiter", |ctx| async move {
            let woken = ctx.park_until(SimTime::from_micros(30)).await;
            assert!(!woken, "nobody woke us; must report timeout");
            assert_eq!(ctx.now(), SimTime::from_micros(30));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(30));
    }

    #[test]
    fn park_until_woken_early_reports_wake() {
        let mut eng = Engine::new();
        let waiter = eng.spawn_process("waiter", |ctx| async move {
            let woken = ctx.park_until(SimTime::from_micros(100)).await;
            assert!(woken);
            assert_eq!(ctx.now(), SimTime::from_micros(20));
        });
        eng.spawn_process("waker", move |ctx| async move {
            ctx.advance(SimTime::from_micros(5)).await;
            ctx.wake_at(waiter, SimTime::from_micros(20));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(20));
    }

    #[test]
    fn park_until_past_deadline_resumes_immediately() {
        let mut eng = Engine::new();
        eng.spawn_process("late", |ctx| async move {
            ctx.advance(SimTime::from_micros(50)).await;
            assert!(!ctx.park_until(SimTime::from_micros(10)).await);
            assert_eq!(ctx.now(), SimTime::from_micros(50));
        });
        assert!(eng.run().is_ok());
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let trace = Arc::new(PMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for name in ["first", "second", "third"] {
            let trace = Arc::clone(&trace);
            eng.spawn_process(name, move |ctx| async move {
                ctx.advance(SimTime::from_micros(1)).await;
                trace.lock().push(name);
            });
        }
        eng.run().unwrap();
        assert_eq!(*trace.lock(), vec!["first", "second", "third"]);
    }

    #[test]
    fn event_budget_exhaustion_is_typed_and_deterministic() {
        let run_with_budget = |budget: u64| {
            let mut eng = Engine::new();
            eng.set_event_budget(Some(budget));
            eng.spawn_process("spinner", |ctx| async move {
                loop {
                    ctx.advance(SimTime::from_micros(1)).await;
                }
            });
            eng.run()
        };
        // A process that never finishes would spin forever without the
        // budget; with it, the run aborts with a typed error.
        match run_with_budget(100) {
            Err(err @ SimError::EventBudgetExhausted { .. }) => {
                let SimError::EventBudgetExhausted { events, budget, ref parked, .. } = err else {
                    unreachable!()
                };
                assert_eq!(budget, 100);
                assert_eq!(events, 100);
                // The abort carries the same live-process diagnostic that
                // deadlock detection prints, annotated with each process's
                // scheduler status.
                assert_eq!(parked, &vec!["spinner (sleeping)".to_string()]);
                assert!(err.to_string().contains("live processes: spinner (sleeping)"));
                // Identical program + budget → identical abort point.
                assert_eq!(run_with_budget(100).unwrap_err().to_string(), err.to_string());
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn generous_event_budget_changes_nothing() {
        let run = |budget: Option<u64>| {
            let mut eng = Engine::new().with_event_budget(budget);
            eng.spawn_process("p", |ctx| async move {
                for _ in 0..10 {
                    ctx.advance(SimTime::from_micros(3)).await;
                }
            });
            eng.run().unwrap()
        };
        let bounded = run(Some(1_000_000));
        let unbounded = run(None);
        assert_eq!(bounded, unbounded);
        assert_eq!(bounded.end_time, SimTime::from_micros(30));
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        use crate::trace::RingRecorder;
        let run = |tracer: Option<Arc<RingRecorder>>| {
            let mut eng = Engine::new();
            if let Some(t) = &tracer {
                eng.set_tracer(t.clone());
            }
            let waiter = eng.spawn_process("waiter", |ctx| async move {
                ctx.park().await;
                ctx.advance(SimTime::from_micros(3)).await;
            });
            eng.spawn_process("waker", move |ctx| async move {
                ctx.advance(SimTime::from_micros(10)).await;
                ctx.wake_at(waiter, SimTime::from_micros(42));
            });
            eng.run().unwrap()
        };
        let rec = Arc::new(RingRecorder::with_capacity(64));
        let traced = run(Some(Arc::clone(&rec)));
        let untraced = run(None);
        assert_eq!(traced, untraced, "tracing must not perturb the simulation");

        let records = rec.drain();
        assert_eq!(rec.dropped(), 0);
        // Stamps: seq strictly increases, virtual time never goes backwards.
        for w in records.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].at >= w[0].at);
        }
        // Every engine-level lifecycle kind shows up for this program.
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        for kind in
            ["proc_spawn", "proc_resume", "proc_sleep", "proc_park", "proc_wake", "proc_finish"]
        {
            assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
        }
    }

    #[test]
    fn budget_exhaustion_is_traced() {
        use crate::trace::{RingRecorder, TraceEvent};
        let rec = Arc::new(RingRecorder::with_capacity(1024));
        let mut eng = Engine::new().with_tracer(rec.clone());
        eng.set_event_budget(Some(20));
        eng.spawn_process("spinner", |ctx| async move {
            loop {
                ctx.advance(SimTime::from_micros(1)).await;
            }
        });
        assert!(matches!(eng.run(), Err(SimError::EventBudgetExhausted { .. })));
        let records = rec.drain();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::BudgetExhausted { events: 20, budget: 20 })));
    }

    /// Pins the dispatcher's exact proc-class trace — kind, pid, virtual
    /// time, emission sequence and the time each suspension names — for a
    /// program that sleeps, parks, is woken twice (the later wake goes
    /// stale), times out in `park_until`, and advances by zero.
    #[test]
    fn dispatcher_trace_is_pinned() {
        use crate::trace::{RingRecorder, TraceEvent};
        let rec = Arc::new(RingRecorder::with_capacity(64));
        let mut eng = Engine::new().with_tracer(rec.clone());
        let a = eng.spawn_process("a", |ctx| async move {
            ctx.advance(SimTime::from_micros(5)).await;
            ctx.park().await;
            assert_eq!(ctx.now(), SimTime::from_micros(20));
            ctx.advance(SimTime::ZERO).await;
            assert!(!ctx.park_until(SimTime::from_micros(25)).await);
            assert_eq!(ctx.now(), SimTime::from_micros(25));
        });
        eng.spawn_process("b", move |ctx| async move {
            ctx.advance(SimTime::from_micros(10)).await;
            ctx.wake_at(a, SimTime::from_micros(20));
            ctx.wake_at(a, SimTime::from_micros(30));
            ctx.advance(SimTime::from_micros(40)).await;
        });
        let report = eng.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_micros(50));
        // Four dispatches of `a`, three of `b`, and the stale wake.
        assert_eq!(report.events, 8);

        let us = |t: SimTime| t.as_nanos() / 1_000;
        let got: Vec<(&str, u32, u64, u64, Option<u64>)> = rec
            .drain()
            .iter()
            .map(|r| {
                let (pid, t) = match &r.event {
                    TraceEvent::ProcSpawn { pid, .. }
                    | TraceEvent::ProcResume { pid }
                    | TraceEvent::ProcFinish { pid } => (pid.0, None),
                    TraceEvent::ProcSleep { pid, until } => (pid.0, Some(us(*until))),
                    TraceEvent::ProcPark { pid, deadline } => (pid.0, deadline.map(us)),
                    TraceEvent::ProcWake { target, at } => (target.0, Some(us(*at))),
                    other => panic!("unexpected record {other:?}"),
                };
                (r.event.kind(), pid, us(r.at), r.seq, t)
            })
            .collect();
        let want = vec![
            ("proc_spawn", 0, 0, 0, None),
            ("proc_spawn", 1, 0, 1, None),
            ("proc_resume", 0, 0, 2, None),
            ("proc_sleep", 0, 0, 3, Some(5)),
            ("proc_resume", 1, 0, 4, None),
            ("proc_sleep", 1, 0, 5, Some(10)),
            ("proc_resume", 0, 5, 6, None),
            ("proc_park", 0, 5, 7, None),
            ("proc_resume", 1, 10, 8, None),
            ("proc_wake", 0, 10, 9, Some(20)),
            ("proc_wake", 0, 10, 10, Some(30)),
            ("proc_sleep", 1, 10, 11, Some(50)),
            ("proc_resume", 0, 20, 12, None),
            // The zero advance emits nothing; the wake at 30 dispatches stale.
            ("proc_park", 0, 20, 13, Some(25)),
            ("proc_resume", 0, 25, 14, None),
            ("proc_finish", 0, 25, 15, None),
            ("proc_resume", 1, 50, 16, None),
            ("proc_finish", 1, 50, 17, None),
        ];
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "event process returned Pending without blocking on a des primitive")]
    fn pending_without_a_des_primitive_panics() {
        let mut eng = Engine::new();
        eng.spawn_process("stray", |_ctx| std::future::pending::<()>());
        let _ = eng.run();
    }
}
