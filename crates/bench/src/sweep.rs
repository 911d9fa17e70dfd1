//! The parallel deterministic sweep executor.
//!
//! Every paper artefact decomposes into independent *cells* — one DES run,
//! one DVFS series, one ping-pong panel, one fault-injection grid point.
//! [`run_cells`] fans the cells of a whole run out over a rayon thread pool
//! and writes each result into its pre-assigned slot, so downstream merges
//! always see results in specification order no matter which worker finished
//! first. Parallel output is therefore byte-identical to serial output: the
//! only nondeterminism (wall-clock timings, cache hit counters) is kept in
//! [`SweepStats`], which callers must never mix into byte-compared artefacts.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Serialize;
use soc_arch::{cache_counters, CacheCounters};

use crate::supervisor::SupervisorStats;

/// How many workers execute the sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Worker threads. `1` executes cells on the calling thread in
    /// specification order (the reference serial schedule).
    pub jobs: usize,
}

impl SweepConfig {
    /// The reference serial schedule.
    pub fn serial() -> Self {
        SweepConfig { jobs: 1 }
    }

    /// A fixed worker count (`0` is clamped to 1).
    pub fn with_jobs(jobs: usize) -> Self {
        SweepConfig { jobs: jobs.max(1) }
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepConfig { jobs: n }
    }
}

/// One schedulable unit of work: a label for the stats report plus the
/// closure that computes the cell's output.
///
/// The body is a re-runnable `Fn` (shared via `Arc`) rather than a `FnOnce`:
/// the sweep supervisor retries failed cells and re-executes recovered ones
/// to verify determinism, so a cell must produce the same output however
/// many times it runs.
pub struct Cell<O> {
    /// Human-readable cell identity, e.g. `fig6/HPL/n=96`.
    pub label: String,
    /// The cell body. May run more than once (retry, determinism check); it
    /// must be a pure function of its captures.
    pub run: Arc<dyn Fn() -> O + Send + Sync>,
}

impl<O> Cell<O> {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, run: impl Fn() -> O + Send + Sync + 'static) -> Self {
        Cell { label: label.into(), run: Arc::new(run) }
    }
}

/// Wall-clock timing of one executed cell (reporting only — never part of
/// the deterministic artefact bytes).
#[derive(Clone, Debug, Serialize)]
pub struct CellTiming {
    /// The cell's label.
    pub label: String,
    /// Wall-clock milliseconds the cell body took.
    pub wall_ms: f64,
}

/// Execution report of one sweep: worker count, wall clock, per-cell
/// timings, and the timing-cache counter movement over the run.
#[derive(Clone, Debug, Serialize)]
pub struct SweepStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Number of cells executed.
    pub cells: usize,
    /// Total wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Timing-cache hits/misses incurred by this sweep.
    pub timing_cache: CacheCounters,
    /// Per-cell wall-clock timings, in specification order.
    pub cell_timings: Vec<CellTiming>,
    /// Supervisor outcomes (quarantines, retries, resume skips, watchdog
    /// margins). All-zero for unsupervised [`run_cells`] runs.
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

/// Execute `cells` on `cfg.jobs` workers and return their outputs **in input
/// order**, plus the run's [`SweepStats`].
///
/// With `jobs == 1` the cells run on the calling thread front-to-back — the
/// reference schedule. With more workers, cells are claimed from a shared
/// queue in an arbitrary order; because every cell is independent and each
/// result lands in its own slot, the returned vector is identical either
/// way. A panicking cell propagates after the scope unwinds.
pub fn run_cells<O: Send>(cells: Vec<Cell<O>>, cfg: &SweepConfig) -> (Vec<O>, SweepStats) {
    let jobs = cfg.jobs.max(1);
    let n = cells.len();
    let started = Instant::now();
    let cache_before = cache_counters();

    let slots: Vec<Mutex<Option<(O, f64)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();

    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("sweep thread pool");
    pool.scope(|s| {
        for (i, cell) in cells.into_iter().enumerate() {
            let slot = &slots[i];
            s.spawn(move |_| {
                let t0 = Instant::now();
                let out = (cell.run)();
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                *slot.lock().unwrap() = Some((out, ms));
            });
        }
    });

    let mut outputs = Vec::with_capacity(n);
    let mut cell_timings = Vec::with_capacity(n);
    for (slot, label) in slots.into_iter().zip(labels) {
        let (out, wall_ms) = slot.into_inner().unwrap().expect("cell never ran");
        outputs.push(out);
        cell_timings.push(CellTiming { label, wall_ms });
    }

    let stats = SweepStats {
        jobs,
        cells: n,
        wall_s: started.elapsed().as_secs_f64(),
        timing_cache: cache_before.delta_to(&cache_counters()),
        cell_timings,
        supervisor: SupervisorStats::default(),
    };
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<Cell<usize>> {
        (0..n).map(|i| Cell::new(format!("sq{i}"), move || i * i)).collect()
    }

    #[test]
    fn outputs_are_in_spec_order_serial_and_parallel() {
        let expect: Vec<usize> = (0..64).map(|i| i * i).collect();
        let (serial, s1) = run_cells(squares(64), &SweepConfig::serial());
        let (parallel, s8) = run_cells(squares(64), &SweepConfig::with_jobs(8));
        assert_eq!(serial, expect);
        assert_eq!(parallel, expect);
        assert_eq!(s1.cells, 64);
        assert_eq!(s8.jobs, 8);
        assert_eq!(s8.cell_timings.len(), 64);
        assert_eq!(s8.cell_timings[3].label, "sq3");
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (out, stats) = run_cells(Vec::<Cell<u8>>::new(), &SweepConfig::auto());
        assert!(out.is_empty());
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn with_jobs_clamps_zero() {
        assert_eq!(SweepConfig::with_jobs(0).jobs, 1);
        assert!(SweepConfig::auto().jobs >= 1);
    }

    #[test]
    fn stats_summary_mentions_cache_and_cells() {
        let (_, stats) = run_cells(squares(3), &SweepConfig::serial());
        let s = stats.summary();
        assert!(s.contains("3 cells"));
        assert!(s.contains("hit rate"));
    }
}
