//! The sweep executor: crash-isolated, watchdogged, parallel and
//! deterministic cell execution.
//!
//! Every paper artefact decomposes into independent *cells* — one DES run,
//! one DVFS series, one ping-pong panel, one fault-injection grid point.
//! [`run_cells`] fans cells out over a rayon thread pool and writes each
//! result into its pre-assigned slot, so callers always see results in
//! specification order no matter which worker finished first: output on any
//! worker count is byte-identical to the serial schedule.
//!
//! Each cell runs exactly once, under `catch_unwind` with a chained panic
//! hook that captures the payload, location, and a backtrace. A cell that
//! panics, returns an error or overruns its wall-clock limit is
//! *quarantined* on the spot (its report carries the evidence) while every
//! other cell completes. A cell's output is a pure function of the cell, so
//! running a failed cell again would fail it the same way. The wall-clock
//! watchdog, when configured, runs the cell on a sacrificial thread and
//! abandons it on deadline (the simulated workload itself is bounded by the
//! DES event budget, see `des::SimError::EventBudgetExhausted`, so a leaked
//! cell cannot spin forever).
//!
//! All nondeterministic observations (wall clocks, watchdog margins,
//! timing-cache counters) live in [`CellReport`], [`SupervisorStats`] and
//! [`SweepStats`], which callers must never mix into byte-compared
//! artefacts; cell outputs remain deterministic.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use serde::Serialize;
use soc_arch::CacheCounters;

/// A cell body: runs once and yields the cell's output, or the rendering
/// of the typed fault (e.g. an exhausted DES event budget) that stopped it.
pub type CellBody<O> = Box<dyn FnOnce() -> Result<O, String> + Send>;

/// One schedulable unit of work: a label for the stats report plus the
/// closure that computes the cell's output.
pub struct Cell<O> {
    /// Human-readable cell identity, e.g. `fig6/HPL/n=96`.
    pub label: String,
    /// The cell body, a pure function of its captures.
    pub run: CellBody<O>,
}

impl<O> Cell<O> {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<O, String> + Send + 'static,
    ) -> Self {
        Cell { label: label.into(), run: Box::new(run) }
    }
}

/// Wall-clock timing of one executed cell (reporting only — never part of
/// the deterministic artefact bytes).
#[derive(Clone, Debug, Serialize)]
pub struct CellTiming {
    /// The cell's label.
    pub label: String,
    /// Wall-clock milliseconds the cell took.
    pub wall_ms: f64,
}

/// Execution report of one run, serialized as `_sweep_stats.json`: worker
/// count, wall clock, per-cell timings, the timing-cache counter movement
/// over the run, and the supervisor's outcomes. The performance ledger
/// parses this file, so its keys and their order are fixed.
#[derive(Clone, Debug, Serialize)]
pub struct SweepStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Number of cells executed.
    pub cells: usize,
    /// Total wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Timing-cache hits/misses incurred by this run.
    pub timing_cache: CacheCounters,
    /// Per-cell wall-clock timings, in specification order.
    pub cell_timings: Vec<CellTiming>,
    /// Supervisor outcomes (quarantines, timeouts, resume skips, watchdog
    /// margins).
    pub supervisor: SupervisorStats,
}

impl SweepStats {
    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "sweep: {} cells on {} worker{} in {:.2}s; timing cache {} hits / {} misses ({:.0}% hit rate)",
            self.cells,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.wall_s,
            self.timing_cache.hits,
            self.timing_cache.misses,
            100.0 * self.timing_cache.hit_rate(),
        )
    }
}

/// Why a cell failed.
#[derive(Clone, Debug, Serialize)]
pub enum CellFailure {
    /// The cell body panicked; payload and capture-time backtrace included.
    Panic {
        /// The panic payload rendered as text, plus `@ file:line` when known.
        message: String,
        /// Backtrace captured inside the panic hook.
        backtrace: String,
    },
    /// The cell reported a typed error (e.g. a DES event-budget fault).
    Error {
        /// The error's display rendering.
        message: String,
    },
    /// The cell took longer than the wall-clock limit: the watchdog
    /// abandoned its thread, or its result came in too late to keep.
    Timeout {
        /// The configured limit, in seconds.
        limit_s: f64,
    },
}

impl CellFailure {
    /// One-line rendering for reports and the journal.
    pub fn brief(&self) -> String {
        match self {
            CellFailure::Panic { message, .. } => format!("panic: {message}"),
            CellFailure::Error { message } => format!("error: {message}"),
            CellFailure::Timeout { limit_s } => format!("timeout: exceeded {limit_s}s wall limit"),
        }
    }
}

/// Final status of one supervised cell.
#[derive(Clone, Debug, Serialize)]
pub enum CellOutcome {
    /// The cell produced its output.
    Completed,
    /// No output; the failure is attached.
    Quarantined {
        /// Why the cell failed.
        failure: CellFailure,
    },
}

/// Everything the supervisor observed about one cell.
#[derive(Clone, Debug, Serialize)]
pub struct CellReport {
    /// The cell's label.
    pub label: String,
    /// Final status.
    pub outcome: CellOutcome,
    /// Wall-clock milliseconds the cell took.
    pub wall_ms: f64,
}

/// How close a cell came to its wall-clock watchdog limit.
#[derive(Clone, Debug, Serialize)]
pub struct WatchdogMargin {
    /// The cell's label.
    pub label: String,
    /// The cell's wall-clock time, milliseconds.
    pub attempt_ms: f64,
    /// The configured limit, milliseconds.
    pub limit_ms: f64,
    /// `1 - attempt_ms / limit_ms`: 1.0 = instant, 0.0 = at the deadline.
    pub margin: f64,
}

/// Aggregate supervisor outcomes for one run, serialized into
/// `_sweep_stats.json`.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SupervisorStats {
    /// Cells with no usable output.
    pub quarantined: u64,
    /// Cells quarantined by the wall-clock watchdog.
    pub timeouts: u64,
    /// Artefacts skipped by `--resume` after checksum verification.
    pub resumed_skipped: u64,
    /// Per-cell wall-clock margins, present when a wall limit was set.
    pub watchdog_margins: Vec<WatchdogMargin>,
}

impl SupervisorStats {
    /// Fold another stats block into this one.
    pub fn absorb(&mut self, other: SupervisorStats) {
        self.quarantined += other.quarantined;
        self.timeouts += other.timeouts;
        self.resumed_skipped += other.resumed_skipped;
        self.watchdog_margins.extend(other.watchdog_margins);
    }

    /// One-line human summary, or `None` when nothing noteworthy happened.
    pub fn summary(&self) -> Option<String> {
        if self.quarantined == 0 && self.resumed_skipped == 0 {
            return None;
        }
        Some(format!(
            "supervisor: {} quarantined, {} watchdog timeouts, {} artefacts resumed",
            self.quarantined, self.timeouts, self.resumed_skipped,
        ))
    }
}

// ---------------------------------------------------------------------------
// Panic capture: a process-global hook, installed once, that records the
// panic's message/location/backtrace into a thread-local slot while a
// supervised cell is running on that thread, and defers to the previous
// hook (normal noisy behaviour) everywhere else — `cargo test` panics still
// print.

thread_local! {
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static CAPTURE: std::cell::RefCell<Option<(String, String)>> =
        const { std::cell::RefCell::new(None) };
}

fn install_capture_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if ACTIVE.with(|a| a.get()) {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let located = match info.location() {
                    Some(l) => format!("{msg} @ {}:{}", l.file(), l.line()),
                    None => msg,
                };
                let bt = std::backtrace::Backtrace::force_capture().to_string();
                CAPTURE.with(|c| *c.borrow_mut() = Some((located, bt)));
            } else {
                prev(info);
            }
        }));
    });
}

/// Run `body` under `catch_unwind` with panic capture; an `Err` it returns
/// is a typed cell error.
fn guarded<O>(body: CellBody<O>) -> Result<O, CellFailure> {
    install_capture_hook();
    ACTIVE.with(|a| a.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(body));
    ACTIVE.with(|a| a.set(false));
    match out {
        Ok(Ok(o)) => Ok(o),
        Ok(Err(message)) => Err(CellFailure::Error { message }),
        Err(payload) => {
            let (message, backtrace) =
                CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_else(|| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    (msg, "<no backtrace captured>".into())
                });
            Err(CellFailure::Panic { message, backtrace })
        }
    }
}

/// Run one cell once, optionally bounded by the wall-clock watchdog. The
/// limit counts from before the cell's thread is spawned, and a result that
/// arrives after it is a `Timeout` like one that never arrives; on timeout
/// the cell's thread is abandoned (it parks no locks the caller needs; the
/// DES event budget bounds its remaining work).
fn supervise_cell<O: Send + 'static>(
    cell: Cell<O>,
    wall_limit: Option<Duration>,
) -> (Option<O>, CellReport) {
    let t0 = Instant::now();
    let result = match wall_limit {
        None => guarded(cell.run),
        Some(limit) => {
            let (tx, rx) = mpsc::sync_channel(1);
            let body = cell.run;
            std::thread::Builder::new()
                .name(format!("cell-{}", cell.label))
                .spawn(move || {
                    let _ = tx.send(guarded(body));
                })
                .expect("spawn watchdog cell thread");
            match rx.recv_timeout(limit.saturating_sub(t0.elapsed())) {
                Ok(r) if t0.elapsed() <= limit => r,
                _ => Err(CellFailure::Timeout { limit_s: limit.as_secs_f64() }),
            }
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (out, outcome) = match result {
        Ok(out) => (Some(out), CellOutcome::Completed),
        Err(failure) => (None, CellOutcome::Quarantined { failure }),
    };
    (out, CellReport { label: cell.label, outcome, wall_ms })
}

/// Execute `cells` under supervision on `jobs` workers (`0` is clamped to
/// 1; `1` runs the cells front-to-back, the reference serial schedule),
/// each once, bounded by `wall_limit` when one is given.
///
/// Returns per-cell outputs in specification order (`None` = quarantined)
/// plus one [`CellReport`] per cell, also in order.
pub fn run_cells<O: Send + 'static>(
    cells: Vec<Cell<O>>,
    jobs: usize,
    wall_limit: Option<Duration>,
) -> (Vec<Option<O>>, Vec<CellReport>) {
    type Slot<O> = Mutex<Option<(Option<O>, CellReport)>>;
    let jobs = jobs.max(1);
    let n = cells.len();
    let slots: Vec<Slot<O>> = (0..n).map(|_| Mutex::new(None)).collect();
    let queue = Mutex::new(cells.into_iter().enumerate());

    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("supervisor thread pool");
    pool.scope(|s| {
        for _ in 0..jobs.min(n.max(1)) {
            s.spawn(|_| loop {
                let next = queue.lock().expect("cell queue lock poisoned").next();
                let Some((i, cell)) = next else { break };
                let out = supervise_cell(cell, wall_limit);
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
            });
        }
    });

    let mut outputs = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for slot in slots {
        let (out, rep) =
            slot.into_inner().unwrap_or_else(|p| p.into_inner()).expect("cell never supervised");
        outputs.push(out);
        reports.push(rep);
    }
    (outputs, reports)
}

/// Fold a slice of cell reports into aggregate stats, attaching watchdog
/// margins when a wall limit was configured.
pub fn stats_from_reports(reports: &[CellReport], wall_limit: Option<Duration>) -> SupervisorStats {
    let mut st = SupervisorStats::default();
    for r in reports {
        if let CellOutcome::Quarantined { failure } = &r.outcome {
            st.quarantined += 1;
            st.timeouts += matches!(failure, CellFailure::Timeout { .. }) as u64;
        }
        if let Some(limit) = wall_limit {
            let limit_ms = limit.as_secs_f64() * 1e3;
            st.watchdog_margins.push(WatchdogMargin {
                label: r.label.clone(),
                attempt_ms: r.wall_ms,
                limit_ms,
                margin: (1.0 - r.wall_ms / limit_ms).max(0.0),
            });
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn squares(n: u64) -> Vec<Cell<u64>> {
        (0..n).map(|i| Cell::new(format!("sq{i}"), move || Ok(i * i))).collect()
    }

    /// A cell whose body counts its executions in `runs`, then does `body`.
    fn counted(
        label: &str,
        runs: &Arc<AtomicU32>,
        body: impl FnOnce() -> Result<u64, String> + Send + 'static,
    ) -> Cell<u64> {
        let runs = Arc::clone(runs);
        Cell::new(label, move || {
            runs.fetch_add(1, Ordering::SeqCst);
            body()
        })
    }

    #[test]
    fn outputs_are_in_spec_order_serial_and_parallel() {
        let expect: Vec<Option<u64>> = (0..64).map(|i| Some(i * i)).collect();
        let (serial, r1) = run_cells(squares(64), 1, None);
        let (parallel, r8) = run_cells(squares(64), 8, None);
        assert_eq!(serial, expect);
        assert_eq!(parallel, expect);
        for reports in [&r1, &r8] {
            let labels: Vec<&str> = reports.iter().map(|r| r.label.as_str()).collect();
            let want: Vec<String> = (0..64).map(|i| format!("sq{i}")).collect();
            assert_eq!(labels, want);
        }
    }

    #[test]
    fn empty_sweep_is_fine_on_zero_workers() {
        let (out, reports) = run_cells(Vec::<Cell<u64>>::new(), 0, None);
        assert!(out.is_empty());
        assert!(reports.is_empty());
    }

    #[test]
    fn a_panicking_cell_runs_once_and_is_quarantined_while_others_complete() {
        let runs = Arc::new(AtomicU32::new(0));
        let cells: Vec<Cell<u64>> = vec![
            Cell::new("ok/0", || Ok(10)),
            counted("boom", &runs, || panic!("injected failure {}", 42)),
            Cell::new("ok/2", || Ok(30)),
        ];
        let (outs, reports) = run_cells(cells, 2, None);
        assert_eq!(outs, [Some(10), None, Some(30)]);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "a failed cell must not run again");
        match &reports[1].outcome {
            CellOutcome::Quarantined { failure: CellFailure::Panic { message, backtrace } } => {
                assert!(message.contains("injected failure 42"), "{message}");
                assert!(message.contains("supervisor.rs"), "location missing: {message}");
                assert!(!backtrace.is_empty());
            }
            o => panic!("expected panic quarantine, got {o:?}"),
        }
        let st = stats_from_reports(&reports, None);
        assert_eq!((st.quarantined, st.timeouts), (1, 0));
    }

    #[test]
    fn an_err_cell_runs_once_and_is_quarantined_as_a_typed_error() {
        let runs = Arc::new(AtomicU32::new(0));
        let cells = vec![counted("budget", &runs, || Err("event budget exhausted".into()))];
        let (outs, reports) = run_cells(cells, 1, None);
        assert_eq!(outs, [None]);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "a failed cell must not run again");
        match &reports[0].outcome {
            CellOutcome::Quarantined { failure: CellFailure::Error { message } } => {
                assert_eq!(message, "event budget exhausted");
            }
            o => panic!("expected typed error, got {o:?}"),
        }
    }

    #[test]
    fn wall_watchdog_abandons_stuck_cells() {
        let cells: Vec<Cell<u64>> = vec![
            Cell::new("stuck", || {
                std::thread::sleep(Duration::from_secs(5));
                Ok(1)
            }),
            Cell::new("fast", || Ok(2)),
        ];
        let limit = Some(Duration::from_millis(40));
        let t0 = Instant::now();
        let (outs, reports) = run_cells(cells, 2, limit);
        assert!(t0.elapsed() < Duration::from_secs(4), "watchdog failed to fire");
        assert_eq!(outs, [None, Some(2)]);
        assert!(matches!(
            reports[0].outcome,
            CellOutcome::Quarantined { failure: CellFailure::Timeout { .. } }
        ));
        let st = stats_from_reports(&reports, limit);
        assert_eq!(st.timeouts, 1);
        assert_eq!(st.watchdog_margins.len(), 2);
        let fast = &st.watchdog_margins[1];
        assert!(fast.margin > 0.5, "fast cell should have headroom: {fast:?}");
        assert_eq!(fast.attempt_ms, reports[1].wall_ms);
    }

    #[test]
    fn a_result_that_arrives_after_the_limit_is_a_timeout() {
        // No cell finishes within a nanosecond of its thread being spawned,
        // so even an instant cell is over the limit when its result is read.
        let runs = Arc::new(AtomicU32::new(0));
        let cells = vec![counted("instant", &runs, || Ok(1))];
        let limit = Some(Duration::from_nanos(1));
        let (outs, reports) = run_cells(cells, 1, limit);
        assert_eq!(outs, [None]);
        assert!(matches!(
            reports[0].outcome,
            CellOutcome::Quarantined { failure: CellFailure::Timeout { .. } }
        ));
        let st = stats_from_reports(&reports, limit);
        assert_eq!((st.quarantined, st.timeouts), (1, 1));
        assert_eq!(st.watchdog_margins[0].margin, 0.0);
        assert!(runs.load(Ordering::SeqCst) <= 1, "a timed-out cell must not run again");
    }

    #[test]
    fn panics_outside_supervision_still_reach_the_default_hook() {
        // The chained hook must defer when no supervised cell is running: a
        // plain catch_unwind still sees the payload.
        install_capture_hook();
        let r = panic::catch_unwind(|| panic!("unsupervised"));
        assert!(r.is_err());
        assert!(CAPTURE.with(|c| c.borrow().is_none()), "hook captured outside supervision");
    }
}
