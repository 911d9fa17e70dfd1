//! Memory bounds, counted by a global allocator rather than read from the
//! operating system: the peak live heap of a simulation, and the number and
//! bytes of its allocations. The counters are per thread, so each test sees
//! only its own simulation and the tests of this binary may run in
//! parallel.
//!
//! * A Model-mode HPL rank keeps no pivot history, so its heap does not grow
//!   with the matrix order.
//! * The datacenter replay reads its job stream lazily, so a replay fed
//!   `SyntheticSpec::jobs()` never holds the whole stream.
//! * An installed `NullTracer` costs not a single allocation.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use common::{hpl_shaped, hpl_spec};
use socready::apps::hpl::{run_hpl, HplConfig};
use socready::apps::Mode;
use socready::cluster::Machine;
use socready::des::{FaultEvent, FaultKind, FaultPlan, NullTracer, SimTime};
use socready::mpi::RunOpts;
use socready::sched::{DcConfig, DcSim, EasyBackfill, Job, RuntimeModel, SyntheticSpec, Tenant};

/// This thread's allocation counters. Live bytes are signed: a thread may
/// free memory another thread allocated.
struct Counters {
    live: Cell<isize>,
    peak: Cell<isize>,
    allocs: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            live: Cell::new(0),
            peak: Cell::new(0),
            allocs: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
}

fn note_alloc(size: usize) {
    // `try_with`: allocations made while this thread's locals are torn
    // down go uncounted instead of panicking.
    let _ = COUNTERS.try_with(|c| {
        let live = c.live.get().wrapping_add(size as isize);
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
        c.allocs.set(c.allocs.get().wrapping_add(1));
        c.bytes.set(c.bytes.get().wrapping_add(size as u64));
    });
}

fn note_free(size: usize) {
    let _ = COUNTERS.try_with(|c| c.live.set(c.live.get().wrapping_sub(size as isize)));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only record sizes and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` was allocated by `System` (every method here
        // forwards to it) with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` asked of the heap on this thread.
#[derive(Debug, PartialEq)]
struct HeapUse {
    /// Peak live bytes above the level `f` started at.
    peak: usize,
    /// Allocations made (a reallocation counts as one).
    allocs: u64,
    /// Bytes those allocations asked for.
    bytes: u64,
}

fn measured<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    let (live, allocs, bytes) = COUNTERS.with(|c| {
        c.peak.set(c.live.get());
        (c.live.get(), c.allocs.get(), c.bytes.get())
    });
    let out = f();
    let used = COUNTERS.with(|c| HeapUse {
        peak: c.peak.get().wrapping_sub(live).max(0) as usize,
        allocs: c.allocs.get().wrapping_sub(allocs),
        bytes: c.bytes.get().wrapping_sub(bytes),
    });
    (out, used)
}

/// Peak live heap of a 16-rank Model-mode HPL of order `n` on Tibidabo.
fn model_hpl_peak(n: usize) -> usize {
    let cfg = HplConfig { n, nb: 128, mode: Mode::Model };
    let (run, used) = measured(|| run_hpl(Machine::tibidabo().job(16), cfg));
    assert!(run.expect("Model-mode HPL completes").result.gflops > 0.0);
    used.peak
}

#[test]
fn model_mode_hpl_heap_does_not_grow_with_the_matrix_order() {
    let small = model_hpl_peak(4096);
    let large = model_hpl_peak(16384);
    assert!(large < 256 << 10, "n = 16384 peaks at {large} B of live heap (bound 256 KiB)");
    assert!(
        (large as f64) < 1.5 * small as f64,
        "n = 16384 peaks at {large} B, n = 4096 at {small} B: the heap grows with n"
    );
}

#[test]
fn a_streamed_replay_never_holds_its_stream() {
    const JOBS: u64 = 20_000;
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let mut spec = SyntheticSpec::standard_mix(JOBS, 42, 1.0, 64);
    spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), 0.9);
    let tenants: Vec<Tenant> =
        spec.tenants.iter().map(|t| Tenant { name: t.name.to_string(), share: t.share }).collect();
    let sim = || {
        DcSim::new(
            machine.clone(),
            model.clone(),
            Box::new(EasyBackfill),
            tenants.clone(),
            DcConfig::default(),
        )
    };
    let faults = FaultPlan::none();
    let (streamed, lazy) = measured(|| sim().run(spec.jobs(), &faults).report);
    let (materialised, eager) = measured(|| {
        let stream: Vec<Job> = spec.generate();
        sim().run(&stream, &faults).report
    });
    assert_eq!(streamed, materialised);
    assert_eq!(streamed.completed, JOBS);
    let stream_bytes = JOBS as f64 * size_of::<Job>() as f64;
    assert!(
        eager.peak as f64 - lazy.peak as f64 >= 0.9 * stream_bytes,
        "streamed replay peaks at {} B, materialised at {} B; the stream is {stream_bytes} B",
        lazy.peak,
        eager.peak
    );
}

#[test]
fn a_replay_with_nothing_queued_or_running_holds_constant_memory() {
    // Every node crashes at t = 0, so each arrival departs unplaceable: the
    // replay keeps no queue, no running job and no per-job output, and its
    // peak must not depend on how long the stream it reads is.
    let peak = |jobs: u64| {
        let machine = Machine::tibidabo();
        let model = RuntimeModel::for_machine(&machine);
        let spec = SyntheticSpec::standard_mix(jobs, 42, 1.0, 64);
        let tenants: Vec<Tenant> = spec
            .tenants
            .iter()
            .map(|t| Tenant { name: t.name.to_string(), share: t.share })
            .collect();
        let faults = FaultPlan::from_events(
            (0..machine.nodes())
                .map(|node| FaultEvent { at: SimTime::ZERO, kind: FaultKind::NodeCrash { node } })
                .collect(),
        );
        let sim = DcSim::new(machine, model, Box::new(EasyBackfill), tenants, DcConfig::default());
        let (report, used) = measured(move || {
            let mut sim = sim;
            sim.run(spec.jobs(), &faults).report
        });
        assert_eq!(report.unplaceable, jobs);
        used.peak
    };
    let (short, long) = (peak(2_000), peak(20_000));
    assert_eq!(short, long, "a 10x longer stream moved the peak from {short} B to {long} B");
}

#[test]
fn an_installed_null_tracer_allocates_nothing() {
    // Both option sets are built outside the measured runs: only what the
    // simulation does with them counts.
    let plain = hpl_spec(RunOpts::default());
    let null = hpl_spec(RunOpts { tracer: Some(Arc::new(NullTracer)), ..RunOpts::default() });
    let (counts, untraced) = measured(|| hpl_shaped(plain, 16).unwrap());
    let (traced_counts, traced) = measured(|| hpl_shaped(null, 16).unwrap());
    assert_eq!(counts, traced_counts);
    assert!(untraced.allocs > 0);
    assert_eq!(traced, untraced);
}
