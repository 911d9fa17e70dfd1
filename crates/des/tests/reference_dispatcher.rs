//! Reference-dispatcher oracle for [`des::Engine`].
//!
//! Random programs of `advance`, `park`, `park_until` and `wake_at` run on
//! a set of spawned processes twice: on the engine, with a tracer recording
//! every resume, and on a plain reference dispatcher written here. The
//! reference keeps its events in a `Vec` and scans it for the least
//! `(time, insertion sequence)` on every pop: no fused timer dispatch, no
//! lanes, no heap. The two must agree on
//!
//! * the dispatch order (every `ProcResume`, with its virtual time);
//! * [`RunReport`] (end time, dispatched events, processes);
//! * the error and the abort point under every event budget from 1 to the
//!   event count, live-process diagnostic included;
//! * `Deadlock` reports.
//!
//! Delays are drawn mostly from a small set, so that many events share an
//! instant and a few delays recur often enough to keep FIFO lanes busy,
//! plus random ones that no lane holds. `crates/des/tests/fused_pop.rs`
//! pins two edge cases by hand; this covers the rest of the space.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use des::{Engine, Pid, RunReport, SimError, SimRng, SimTime, TraceEvent, TraceRecord, Tracer};

/// One step of a process's program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `advance(delay)`; a zero delay completes without yielding.
    Advance(u64),
    /// `park()`: only a peer's wake resumes it.
    Park,
    /// `park_until(deadline)`. A wake strictly before the deadline skips
    /// the next op, so the outcome steers the rest of the program.
    ParkUntil(Deadline),
    /// `wake_at(target, now + delay)`, where `target` is the `k`-th parked
    /// process (in pid order, `k` taken modulo their number); nothing when
    /// none is parked.
    Wake(usize, u64),
}

/// The deadline of a `park_until`.
#[derive(Clone, Copy, Debug)]
enum Deadline {
    /// `now + delay`.
    After(u64),
    /// An absolute time, which may already have passed.
    At(u64),
}

impl Deadline {
    fn resolve(self, now: SimTime) -> SimTime {
        match self {
            Deadline::After(d) => now + ns(d),
            Deadline::At(t) => ns(t),
        }
    }
}

type Program = Vec<Vec<Op>>;

/// The delays most ops draw from: more of them than an engine has lanes,
/// so lanes fill, overflow into the heap and get reclaimed.
const COMMON_DELAYS: [u64; 7] = [0, 1, 2, 3, 5, 8, 13];

fn below(rng: &mut SimRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn delay(rng: &mut SimRng) -> u64 {
    if below(rng, 4) == 0 {
        below(rng, 60)
    } else {
        COMMON_DELAYS[below(rng, COMMON_DELAYS.len() as u64) as usize]
    }
}

fn program(rng: &mut SimRng) -> Program {
    let procs = 1 + below(rng, 10) as usize;
    (0..procs)
        .map(|_| {
            let len = below(rng, 30);
            (0..len)
                .map(|_| match below(rng, 20) {
                    0..=7 => Op::Advance(delay(rng)),
                    8 => Op::Park,
                    9..=11 => Op::ParkUntil(Deadline::After(delay(rng))),
                    12 => Op::ParkUntil(Deadline::At(below(rng, 40))),
                    _ => Op::Wake(below(rng, procs as u64) as usize, delay(rng)),
                })
                .collect()
        })
        .collect()
}

/// The `k`-th set entry of `parked`, counting modulo the number set.
fn kth_parked(parked: &[bool], k: usize) -> Option<usize> {
    let count = parked.iter().filter(|&&p| p).count();
    (count > 0).then(|| parked.iter().enumerate().filter(|(_, &p)| p).nth(k % count).unwrap().0)
}

fn ns(t: u64) -> SimTime {
    SimTime::from_nanos(t)
}

/// What a run shows: `(pid, ns)` of every resume in dispatch order, and
/// how the run ended.
type Outcome = (Vec<(usize, u64)>, Result<RunReport, SimError>);

/// Records the resumes the engine reports.
#[derive(Default)]
struct Resumes(Mutex<Vec<(usize, u64)>>);

impl Tracer for Resumes {
    fn record(&self, rec: TraceRecord) {
        if let TraceEvent::ProcResume { pid } = rec.event {
            self.0.lock().unwrap().push((pid.index(), rec.at.as_nanos()));
        }
    }
}

/// Run `prog` on the engine. Each process keeps its own entry of a shared
/// parked table current, so a waker can tell whether its target may be
/// woken without asking the engine.
fn run_engine(prog: &Program, budget: Option<u64>) -> Outcome {
    let tracer = Arc::new(Resumes::default());
    let mut eng = Engine::new();
    eng.set_tracer(tracer.clone());
    eng.set_event_budget(budget);
    let parked = Rc::new(RefCell::new(vec![false; prog.len()]));
    let pids: Rc<RefCell<Vec<Pid>>> = Rc::new(RefCell::new(Vec::new()));
    for (me, ops) in prog.iter().enumerate() {
        let ops = ops.clone();
        let parked = Rc::clone(&parked);
        let table = Rc::clone(&pids);
        let pid = eng.spawn_process(format!("p{me}"), move |ctx| async move {
            let mut pc = 0;
            while pc < ops.len() {
                let op = ops[pc];
                pc += 1;
                match op {
                    Op::Advance(d) => ctx.advance(ns(d)).await,
                    Op::Park => {
                        parked.borrow_mut()[me] = true;
                        ctx.park().await;
                        parked.borrow_mut()[me] = false;
                    }
                    Op::ParkUntil(deadline) => {
                        parked.borrow_mut()[me] = true;
                        let woken = ctx.park_until(deadline.resolve(ctx.now())).await;
                        parked.borrow_mut()[me] = false;
                        if woken {
                            pc += 1;
                        }
                    }
                    Op::Wake(k, d) => {
                        if let Some(target) = kth_parked(&parked.borrow(), k) {
                            let target = table.borrow()[target];
                            ctx.wake_at(target, ctx.now() + ns(d));
                        }
                    }
                }
            }
        });
        pids.borrow_mut().push(pid);
    }
    let result = eng.run();
    let resumes = std::mem::take(&mut *tracer.0.lock().unwrap());
    (resumes, result)
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    Ready,
    Running,
    Sleeping,
    Parked,
    Finished,
}

struct RefProc {
    ops: Vec<Op>,
    pc: usize,
    status: Status,
    gen: u64,
    /// The deadline of the `park_until` the process is suspended in.
    deadline: Option<SimTime>,
}

/// `(time, insertion sequence, pid, generation)`.
type RefEvent = (SimTime, u64, usize, u64);

/// The reference dispatcher: the engine's documented semantics, written
/// as plainly as possible.
struct Reference {
    procs: Vec<RefProc>,
    events: Vec<RefEvent>,
    seq: u64,
    now: SimTime,
    live: u32,
    dispatched: u64,
    resumes: Vec<(usize, u64)>,
}

impl Reference {
    fn push(&mut self, at: SimTime, pid: usize) {
        self.events.push((at, self.seq, pid, self.procs[pid].gen));
        self.seq += 1;
    }

    /// Remove and return the least `(time, seq)` event.
    fn pop(&mut self) -> Option<RefEvent> {
        let least = (0..self.events.len()).min_by_key(|&i| (self.events[i].0, self.events[i].1))?;
        Some(self.events.swap_remove(least))
    }

    fn names(&self, with_status: bool) -> Vec<String> {
        let status = |s: Status| match s {
            Status::Ready => "ready",
            Status::Running => "running",
            Status::Sleeping => "sleeping",
            Status::Parked => "parked",
            Status::Finished => "finished",
        };
        (0..self.procs.len())
            .filter(|&i| self.procs[i].status != Status::Finished)
            .map(|i| match with_status {
                true => format!("p{i} ({})", status(self.procs[i].status)),
                false => format!("p{i}"),
            })
            .collect()
    }

    /// Run process `pid` from where it stopped until it suspends or ends.
    fn poll(&mut self, pid: usize) {
        let now = self.now;
        if let Some(deadline) = self.procs[pid].deadline.take() {
            if now < deadline {
                self.procs[pid].pc += 1;
            }
        }
        loop {
            let p = &mut self.procs[pid];
            let Some(&op) = p.ops.get(p.pc) else {
                p.status = Status::Finished;
                self.live -= 1;
                return;
            };
            p.pc += 1;
            match op {
                Op::Advance(0) => {}
                Op::Advance(d) => {
                    p.status = Status::Sleeping;
                    self.push(now + ns(d), pid);
                    return;
                }
                Op::Park => {
                    p.status = Status::Parked;
                    return;
                }
                Op::ParkUntil(deadline) => {
                    let deadline = deadline.resolve(now);
                    p.status = Status::Parked;
                    p.deadline = Some(deadline);
                    self.push(deadline.max(now), pid);
                    return;
                }
                Op::Wake(k, d) => {
                    let parked: Vec<bool> =
                        self.procs.iter().map(|p| p.status == Status::Parked).collect();
                    if let Some(target) = kth_parked(&parked, k) {
                        self.push(now + ns(d), target);
                    }
                }
            }
        }
    }

    /// Run `prog` under `budget`: the outcome, and the events dispatched
    /// before the run ended, however it ended.
    fn run(prog: &Program, budget: Option<u64>) -> (Outcome, u64) {
        let mut r = Reference {
            procs: prog
                .iter()
                .map(|ops| RefProc {
                    ops: ops.clone(),
                    pc: 0,
                    status: Status::Ready,
                    gen: 0,
                    deadline: None,
                })
                .collect(),
            events: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            live: prog.len() as u32,
            dispatched: 0,
            resumes: Vec::new(),
        };
        for pid in 0..prog.len() {
            r.push(SimTime::ZERO, pid);
        }
        let result = loop {
            if r.live == 0 {
                break Ok(RunReport {
                    end_time: r.now,
                    events: r.dispatched,
                    processes: prog.len() as u32,
                });
            }
            let ev = loop {
                if let Some(budget) = budget.filter(|&b| r.dispatched >= b) {
                    break Err(SimError::EventBudgetExhausted {
                        at: r.now,
                        events: r.dispatched,
                        budget,
                        parked: r.names(true),
                    });
                }
                let Some(ev) = r.pop() else {
                    break Err(SimError::Deadlock { at: r.now, parked: r.names(false) });
                };
                r.dispatched += 1;
                let p = &r.procs[ev.2];
                let stale = matches!(p.status, Status::Finished | Status::Running) || p.gen != ev.3;
                if !stale {
                    break Ok(ev);
                }
            };
            let (at, _, pid, _) = match ev {
                Ok(ev) => ev,
                Err(e) => break Err(e),
            };
            r.now = r.now.max(at);
            r.procs[pid].status = Status::Running;
            r.procs[pid].gen += 1;
            r.resumes.push((pid, r.now.as_nanos()));
            r.poll(pid);
        };
        ((r.resumes, result), r.dispatched)
    }
}

#[test]
fn engine_dispatches_like_the_reference_on_random_programs() {
    let mut rng = SimRng::new(0x0d15_9a7c);
    let (mut completed, mut deadlocked, mut total_events) = (0, 0, 0);
    for case in 0..300 {
        let prog = program(&mut rng);
        let (want, events) = Reference::run(&prog, None);
        let got = run_engine(&prog, None);
        assert_eq!(got, want, "case {case}: program {prog:?}");
        match &want.1 {
            Ok(_) => completed += 1,
            Err(SimError::Deadlock { .. }) => deadlocked += 1,
            Err(e) => panic!("case {case}: unexpected {e}"),
        }
        // Every budget up to the events the run dispatched stops it, a
        // deadlocking run included: the budget is checked before each pop.
        total_events += events;
        for budget in 1..=events {
            let want = Reference::run(&prog, Some(budget)).0;
            let got = run_engine(&prog, Some(budget));
            assert_eq!(got, want, "case {case}, budget {budget}: program {prog:?}");
        }
    }
    // The generator reaches both endings, and enough events to matter.
    assert!(completed >= 50 && deadlocked >= 50, "{completed} completed, {deadlocked} deadlocked");
    assert!(total_events >= 10_000, "{total_events} events");
}
