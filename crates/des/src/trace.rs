//! Opt-in structured tracing for the engine.
//!
//! A [`Tracer`] installed on an [`Engine`](crate::Engine) receives one
//! [`TraceRecord`] per observable scheduler action — process spawn, resume,
//! sleep, park, wake and finish, message lifecycle events emitted by higher
//! layers (the `simmpi` runtime), fault injections, and event-budget
//! exhaustion — each stamped with the virtual time at which it happened and a
//! monotonically increasing sequence number.
//!
//! Emission is gated by an *interest mask*: at install time the engine asks
//! the tracer which [`TraceClass`]es it wants ([`Tracer::interest`]) and
//! caches the answer, so every emission site is a single branch on a cached
//! bitfield — the event is not even constructed for an uninterested class.
//! The zero-tracer path and the default [`NullTracer`] (which declares
//! interest in nothing) therefore cost one predictable branch per site; the
//! `scale_bench` binary measures both that residual and the cost of a real
//! recording [`RingRecorder`] and reports them in `BENCH_scale.json`.
//! Tracing is observational only: installing a tracer never changes event
//! ordering, virtual timestamps, or any simulation output.
//!
//! The standard recorder is [`RingRecorder`]: a fixed-capacity in-memory
//! buffer that **drops new records** (and counts the drops) once full, so a
//! runaway trace can never reallocate or exhaust memory mid-run. The `bench`
//! crate serialises recorded traces to the JSONL format documented in
//! `docs/TRACE_FORMAT.md` and converts them to flamegraph collapsed-stack
//! output (`trace2flame`).
//!
//! ```
//! use des::{Engine, RingRecorder, SimTime, TraceEvent};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(RingRecorder::with_capacity(1024));
//! let mut eng = Engine::new();
//! eng.set_tracer(rec.clone());
//! eng.spawn_process("ticker", |ctx| async move {
//!     ctx.advance(SimTime::from_micros(10)).await;
//! });
//! eng.run().unwrap();
//! let records = rec.drain();
//! assert!(records.iter().any(|r| matches!(r.event, TraceEvent::ProcFinish { .. })));
//! assert_eq!(rec.dropped(), 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::engine::Pid;
use crate::time::SimTime;

/// A typed trace event. Engine-level kinds (`Proc*`, `BudgetExhausted`) are
/// emitted by the scheduler itself; message, fault, and span kinds are emitted
/// by higher layers through [`ProcCtx::emit_trace`](crate::ProcCtx::emit_trace).
///
/// The JSONL serialisation of every variant is documented field-by-field in
/// `docs/TRACE_FORMAT.md`; [`TraceEvent::kind`] returns the `kind` string used
/// there.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A process slot was registered (time-zero start event queued).
    ProcSpawn {
        /// The new process's id.
        pid: Pid,
        /// The process name passed to `spawn`/`spawn_process`.
        name: String,
    },
    /// The scheduler dispatched an event and handed control to the process.
    ProcResume {
        /// The resumed process.
        pid: Pid,
    },
    /// The process suspended in `advance` until the given virtual time.
    ProcSleep {
        /// The sleeping process.
        pid: Pid,
        /// Absolute virtual time at which its timer event fires.
        until: SimTime,
    },
    /// The process parked, waiting for a peer's wake (or a timeout).
    ProcPark {
        /// The parked process.
        pid: Pid,
        /// `Some(t)` for `park_until(t)`, `None` for a plain `park`.
        deadline: Option<SimTime>,
    },
    /// A peer scheduled a wake-up for a parked process.
    ProcWake {
        /// The parked process being woken.
        target: Pid,
        /// Absolute virtual time of the wake-up event.
        at: SimTime,
    },
    /// The process ran to completion.
    ProcFinish {
        /// The finished process.
        pid: Pid,
    },
    /// The run aborted deterministically: the event budget ran out.
    BudgetExhausted {
        /// Events dispatched when the run was aborted.
        events: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A message was enqueued into the destination rank's mailbox.
    MsgEnqueue {
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A receiver matched and consumed a message from its mailbox.
    MsgDeliver {
        /// Source rank.
        src: u32,
        /// Destination (receiving) rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A transmission attempt was lost on a lossy link and will be retried.
    MsgDrop {
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// 1-based transmission attempt number that was lost.
        attempt: u32,
    },
    /// A transfer entered the flow-level network model (`NetModel::Flow`) as
    /// a fluid flow with a max-min fair bandwidth share.
    FlowStart {
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Wire bytes of the flow (payload after framing).
        bytes: u64,
    },
    /// A flow's last byte cleared the network (the receiver observed the
    /// completion; the matching delivery follows as a `msg_deliver`).
    FlowFinish {
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Wire bytes of the flow (payload after framing).
        bytes: u64,
    },
    /// A waiter woke at a bandwidth re-share: some other flow started or
    /// finished, changing the fair shares, so the waiter re-polled before its
    /// own flow completed.
    FlowReshare {
        /// The re-polling rank.
        rank: u32,
        /// Concurrent flows sharing the network after the transition.
        flows: u64,
    },
    /// An injected fault fired (node crash, memory bit flip, ...).
    Fault {
        /// Fault class, e.g. `"node_crash"` or `"bit_flip"`.
        kind: &'static str,
        /// The node the fault hit.
        node: u32,
    },
    /// A named phase began on a rank (compute/send/recv/collective or an
    /// application phase like an HPL panel factorisation).
    SpanBegin {
        /// The rank the span belongs to.
        rank: u32,
        /// Phase name; dotted names (`"hpl.panel"`) group in flamegraphs.
        name: String,
    },
    /// The matching end of a [`TraceEvent::SpanBegin`]. Spans on one rank
    /// nest strictly (last begun, first ended).
    SpanEnd {
        /// The rank the span belongs to.
        rank: u32,
        /// Phase name; must match the open span.
        name: String,
    },
    /// The datacenter scheduler accepted a job into its queue (emitted by
    /// the `sched` crate's replay loop, not by the engine).
    JobSubmit {
        /// Stream-unique job id.
        job: u64,
        /// Owning tenant index.
        tenant: u32,
        /// Nodes requested.
        nodes: u32,
    },
    /// A queued job was placed and began execution on the cluster.
    JobStart {
        /// Stream-unique job id.
        job: u64,
        /// Nodes allocated.
        nodes: u32,
        /// Time the job spent queued before starting.
        wait: SimTime,
    },
    /// A job left the cluster (completed, wall-limit killed, crashed out,
    /// or declared unplaceable).
    JobFinish {
        /// Stream-unique job id.
        job: u64,
        /// Outcome string: `"completed"`, `"wall_killed"`, `"fault_failed"`
        /// or `"unplaceable"`. A crash that leads to a resubmission emits no
        /// `job_finish`; only the job's final departure does.
        outcome: &'static str,
    },
}

/// Coarse event classes, used by [`TraceFilter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceClass {
    /// Scheduler/process lifecycle (`proc_*`, `budget_exhausted`).
    Proc,
    /// Message lifecycle (`msg_*`).
    Msg,
    /// Phase spans (`span_*`).
    Span,
    /// Fault injections (`fault`).
    Fault,
}

impl TraceEvent {
    /// The event's coarse class (what `--trace-filter` selects on).
    #[inline]
    pub fn class(&self) -> TraceClass {
        match self {
            TraceEvent::ProcSpawn { .. }
            | TraceEvent::ProcResume { .. }
            | TraceEvent::ProcSleep { .. }
            | TraceEvent::ProcPark { .. }
            | TraceEvent::ProcWake { .. }
            | TraceEvent::ProcFinish { .. }
            | TraceEvent::BudgetExhausted { .. }
            | TraceEvent::JobSubmit { .. }
            | TraceEvent::JobStart { .. }
            | TraceEvent::JobFinish { .. } => TraceClass::Proc,
            TraceEvent::MsgEnqueue { .. }
            | TraceEvent::MsgDeliver { .. }
            | TraceEvent::MsgDrop { .. }
            | TraceEvent::FlowStart { .. }
            | TraceEvent::FlowFinish { .. }
            | TraceEvent::FlowReshare { .. } => TraceClass::Msg,
            TraceEvent::Fault { .. } => TraceClass::Fault,
            TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. } => TraceClass::Span,
        }
    }

    /// The `kind` string used in the JSONL serialisation
    /// (see `docs/TRACE_FORMAT.md`).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ProcSpawn { .. } => "proc_spawn",
            TraceEvent::ProcResume { .. } => "proc_resume",
            TraceEvent::ProcSleep { .. } => "proc_sleep",
            TraceEvent::ProcPark { .. } => "proc_park",
            TraceEvent::ProcWake { .. } => "proc_wake",
            TraceEvent::ProcFinish { .. } => "proc_finish",
            TraceEvent::BudgetExhausted { .. } => "budget_exhausted",
            TraceEvent::MsgEnqueue { .. } => "msg_enqueue",
            TraceEvent::MsgDeliver { .. } => "msg_deliver",
            TraceEvent::MsgDrop { .. } => "msg_drop",
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowFinish { .. } => "flow_finish",
            TraceEvent::FlowReshare { .. } => "flow_reshare",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::SpanBegin { .. } => "span_begin",
            TraceEvent::SpanEnd { .. } => "span_end",
            TraceEvent::JobSubmit { .. } => "job_submit",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobFinish { .. } => "job_finish",
        }
    }
}

/// A stamped trace event: the virtual time at which it happened plus a
/// per-engine sequence number that totally orders records (several records can
/// share one virtual timestamp).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Per-engine emission sequence number, starting at 0. Consecutive only
    /// while no recorder-side filtering drops records.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// Receives trace records from a running engine.
///
/// Implementations must be cheap and non-blocking: `record` is called from
/// the engine's hot dispatch path (with scheduler state borrowed, so it
/// must not call back into the engine), so a slow tracer slows the
/// simulation — it can never alter its outcome.
pub trait Tracer: Send + Sync {
    /// Observe one stamped event.
    fn record(&self, rec: TraceRecord);

    /// Which event classes this tracer wants. Queried **once**, when the
    /// tracer is installed; the engine caches the answer and skips event
    /// construction and dispatch entirely for classes outside it. The
    /// default is everything.
    fn interest(&self) -> TraceFilter {
        TraceFilter::ALL
    }
}

/// The do-nothing tracer: it declares interest in no event class
/// ([`TraceFilter::NONE`]), so installing one reduces every emission site to
/// the same single cached-mask branch as the zero-tracer path. `scale_bench`
/// measures exactly that residual and gates it below 2%.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&self, _rec: TraceRecord) {}

    fn interest(&self) -> TraceFilter {
        TraceFilter::NONE
    }
}

/// Which event classes a recorder keeps; everything else is discarded
/// *without* counting as a drop (filtered events are intentional, drops are
/// capacity losses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep [`TraceClass::Proc`] events.
    pub procs: bool,
    /// Keep [`TraceClass::Msg`] events.
    pub msgs: bool,
    /// Keep [`TraceClass::Span`] events.
    pub spans: bool,
    /// Keep [`TraceClass::Fault`] events.
    pub faults: bool,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::ALL
    }
}

impl TraceFilter {
    /// Keep every event class.
    pub const ALL: TraceFilter = TraceFilter { procs: true, msgs: true, spans: true, faults: true };

    /// Keep no event class at all. Not expressible through
    /// [`TraceFilter::parse`] (an empty `--trace-filter` is a usage error);
    /// this is the interest mask of [`NullTracer`] and of an engine with no
    /// tracer installed.
    pub const NONE: TraceFilter =
        TraceFilter { procs: false, msgs: false, spans: false, faults: false };

    /// Parse a comma-separated class list (`"span,msg"`); the accepted class
    /// names are `proc`, `msg`, `span`, and `fault`. This is the grammar of
    /// the `--trace-filter` flag.
    pub fn parse(s: &str) -> Result<TraceFilter, String> {
        let mut f = TraceFilter { procs: false, msgs: false, spans: false, faults: false };
        for part in s.split(',') {
            match part.trim() {
                "proc" => f.procs = true,
                "msg" => f.msgs = true,
                "span" => f.spans = true,
                "fault" => f.faults = true,
                "" => {}
                other => {
                    return Err(format!(
                        "unknown trace class '{other}' (expected proc, msg, span, fault)"
                    ))
                }
            }
        }
        if f == TraceFilter::NONE {
            return Err("trace filter selects no event classes".to_string());
        }
        Ok(f)
    }

    /// Whether a class passes this filter.
    #[inline]
    pub fn accepts_class(&self, class: TraceClass) -> bool {
        match class {
            TraceClass::Proc => self.procs,
            TraceClass::Msg => self.msgs,
            TraceClass::Span => self.spans,
            TraceClass::Fault => self.faults,
        }
    }

    /// Whether an event passes this filter.
    pub fn accepts(&self, event: &TraceEvent) -> bool {
        self.accepts_class(event.class())
    }
}

/// A bounded in-memory trace recorder.
///
/// Records are appended to a pre-allocated buffer of fixed capacity; once the
/// buffer is full, **new records are dropped** and counted — the buffer never
/// reallocates, so tracing a run that emits billions of events costs a fixed
/// amount of memory and keeps the *earliest* records (which contain the
/// process table and the start of every rank's timeline). A non-zero
/// [`RingRecorder::dropped`] therefore means the recorded trace is truncated
/// at the tail; `trace2flame` and the JSONL sink surface that count.
pub struct RingRecorder {
    filter: TraceFilter,
    capacity: usize,
    buf: Mutex<Vec<TraceRecord>>,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// A recorder that keeps at most `capacity` records (all classes).
    pub fn with_capacity(capacity: usize) -> Self {
        RingRecorder {
            filter: TraceFilter::ALL,
            capacity,
            buf: Mutex::new(Vec::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Builder-style class filter (see [`TraceFilter`]).
    pub fn with_filter(mut self, filter: TraceFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records lost to the capacity bound (filtered-out events are
    /// not counted).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take all held records, leaving the recorder empty (capacity and drop
    /// count are preserved).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut buf = self.buf.lock();
        let mut out = Vec::with_capacity(self.capacity);
        std::mem::swap(&mut *buf, &mut out);
        out
    }
}

impl Tracer for RingRecorder {
    fn record(&self, rec: TraceRecord) {
        // The engine pre-filters through `interest`, but `record` may also be
        // called directly (tests, custom drivers), so the filter is enforced
        // here too.
        if !self.filter.accepts(&rec.event) {
            return;
        }
        let mut buf = self.buf.lock();
        if buf.len() < self.capacity {
            buf.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The recorder's class filter doubles as its interest mask, so filtered
    /// classes are never even constructed by the engine.
    fn interest(&self) -> TraceFilter {
        self.filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { at: SimTime::from_nanos(seq * 10), seq, event }
    }

    #[test]
    fn ring_overflow_drops_and_counts_instead_of_reallocating() {
        let ring = RingRecorder::with_capacity(4);
        let heap_cap_before = ring.buf.lock().capacity();
        for i in 0..10u64 {
            ring.record(rec(i, TraceEvent::ProcResume { pid: Pid(i as u32) }));
        }
        assert_eq!(ring.len(), 4, "buffer holds exactly its capacity");
        assert_eq!(ring.dropped(), 6, "overflow records are counted, not stored");
        assert_eq!(
            ring.buf.lock().capacity(),
            heap_cap_before,
            "overflow must never grow the allocation"
        );
        // The survivors are the earliest records.
        let kept = ring.drain();
        assert_eq!(kept.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Drop count survives a drain.
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn filtered_events_are_discarded_without_counting_as_drops() {
        let ring = RingRecorder::with_capacity(8)
            .with_filter(TraceFilter::parse("span").expect("valid filter"));
        ring.record(rec(0, TraceEvent::ProcResume { pid: Pid(0) }));
        ring.record(rec(1, TraceEvent::SpanBegin { rank: 0, name: "compute".into() }));
        ring.record(rec(2, TraceEvent::MsgDrop { src: 0, dst: 1, attempt: 1 }));
        ring.record(rec(3, TraceEvent::SpanEnd { rank: 0, name: "compute".into() }));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn filter_parsing_round_trips_the_grammar() {
        assert_eq!(TraceFilter::parse("proc,msg,span,fault").unwrap(), TraceFilter::ALL);
        let spans_only = TraceFilter::parse("span").unwrap();
        assert!(spans_only.accepts(&TraceEvent::SpanBegin { rank: 0, name: "x".into() }));
        assert!(!spans_only.accepts(&TraceEvent::ProcResume { pid: Pid(0) }));
        assert!(!spans_only.accepts(&TraceEvent::Fault { kind: "node_crash", node: 0 }));
        assert!(TraceFilter::parse("bogus").is_err());
        assert!(TraceFilter::parse("").is_err(), "empty filter selects nothing and is an error");
    }

    #[test]
    fn every_event_kind_maps_to_a_distinct_kind_string() {
        let events = [
            TraceEvent::ProcSpawn { pid: Pid(0), name: "p".into() },
            TraceEvent::ProcResume { pid: Pid(0) },
            TraceEvent::ProcSleep { pid: Pid(0), until: SimTime::ZERO },
            TraceEvent::ProcPark { pid: Pid(0), deadline: None },
            TraceEvent::ProcWake { target: Pid(0), at: SimTime::ZERO },
            TraceEvent::ProcFinish { pid: Pid(0) },
            TraceEvent::BudgetExhausted { events: 1, budget: 1 },
            TraceEvent::MsgEnqueue { src: 0, dst: 1, tag: 0, bytes: 8 },
            TraceEvent::MsgDeliver { src: 0, dst: 1, tag: 0, bytes: 8 },
            TraceEvent::MsgDrop { src: 0, dst: 1, attempt: 1 },
            TraceEvent::FlowStart { src: 0, dst: 1, bytes: 8 },
            TraceEvent::FlowFinish { src: 0, dst: 1, bytes: 8 },
            TraceEvent::FlowReshare { rank: 1, flows: 2 },
            TraceEvent::Fault { kind: "node_crash", node: 0 },
            TraceEvent::SpanBegin { rank: 0, name: "x".into() },
            TraceEvent::SpanEnd { rank: 0, name: "x".into() },
            TraceEvent::JobSubmit { job: 0, tenant: 0, nodes: 4 },
            TraceEvent::JobStart { job: 0, nodes: 4, wait: SimTime::ZERO },
            TraceEvent::JobFinish { job: 0, outcome: "completed" },
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }
}
