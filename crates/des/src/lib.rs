//! # des — deterministic discrete-event simulation core
//!
//! This crate is the foundation of the SC'13 "mobile SoCs for HPC"
//! reproduction: every simulated cluster run (network transfers, MPI ranks,
//! power sampling) is driven by this engine.
//!
//! Two ideas keep it small and reproducible:
//!
//! 1. **Virtual time is integer nanoseconds** ([`SimTime`]), so event order is
//!    exact and never depends on floating-point rounding.
//! 2. **Processes are stackless coroutines polled inline by the engine, and
//!    only one runs at a time.** The engine resumes the process owning the
//!    earliest event and polls it until it suspends again. Simulations are
//!    therefore bit-deterministic while still letting simulated actors be
//!    written as straight-line Rust (real loops, real data, real control
//!    flow, `async`/`.await` at the timing points) instead of hand-rolled
//!    state machines — and thousands of ranks fit in a single OS thread.
//!
//! An engine lives on the thread that runs it: its state is shared with
//! its processes through `Rc` and `RefCell`, with no lock or atomic on the
//! dispatch path, and [`Engine`] and [`ProcCtx`] are not `Send`. Several
//! engines can run at once on different threads (the sweep harness does);
//! only their results cross between them.
//!
//! ## Example: two actors exchanging a timed signal
//!
//! ```
//! use des::{Engine, SimTime};
//!
//! let mut eng = Engine::new();
//! let consumer = eng.spawn_process("consumer", |ctx| async move {
//!     ctx.park().await; // wait for the producer
//!     assert_eq!(ctx.now(), SimTime::from_micros(65)); // network delivery time
//! });
//! eng.spawn_process("producer", move |ctx| async move {
//!     ctx.advance(SimTime::from_micros(15)).await; // compute something
//!     // Model a 50us transfer, then hand over.
//!     ctx.wake_at(consumer, ctx.now() + SimTime::from_micros(50));
//! });
//! eng.run().unwrap();
//! ```
//!
//! ## Observability
//!
//! The [`trace`] module adds opt-in structured tracing: install a [`Tracer`]
//! (typically a bounded [`RingRecorder`]) with [`Engine::with_tracer`] and
//! every scheduler action arrives as a [`TraceRecord`] stamped with virtual
//! time and a sequence number. The zero-tracer path costs one `Option` check
//! per site, and tracing never changes simulation results. The on-disk JSONL
//! form is documented in `docs/TRACE_FORMAT.md`.

#![warn(missing_docs)]

mod engine;
mod faults;
pub mod mc;
mod time;
pub mod trace;

pub use engine::{Advance, Engine, Park, ParkUntil, Pid, ProcCtx, RunReport, SimError};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultRates, SimRng};
pub use time::SimTime;
pub use trace::{
    NullTracer, RingRecorder, TraceClass, TraceEvent, TraceFilter, TraceRecord, Tracer,
};
