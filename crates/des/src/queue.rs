//! The engine's event queue: the order of one binary heap on `(time,
//! insertion sequence)`, at a fraction of its cost.
//!
//! Nearly every event a simulation pushes repeats one of a few delays: an
//! MPI rank's send overhead, its receive overhead, the injection time of
//! its usual message size. Events pushed with one delay `at − now` arrive
//! already sorted by `(at, seq)`, because the clock never goes back and
//! sequence numbers only grow. So the queue keeps them in FIFO lanes, one
//! delay per lane, pushed at the back and popped at the front; a lane is
//! reclaimed for another delay once it is empty. `park_until` deadlines go
//! to a heap of their own: most of them go stale without being popped,
//! and there they neither hold a lane nor deepen the general heap. The
//! general heap takes everything else: delays no lane holds, and the
//! events the model checker pushes back, which may lie before the clock.
//!
//! A pop takes the least `(at, seq)` among the parts' heads. Sequence
//! numbers are unique, so that order is total and is exactly the order a
//! single heap of every event gives: which part holds an event changes
//! neither the dispatch order, nor the dispatch count, nor any
//! budget-abort point. Nothing is dropped early: a stale event is popped
//! in its `(at, seq)` place like any other.

use std::collections::{BinaryHeap, VecDeque};

use crate::engine::Pid;
use crate::time::SimTime;

/// FIFO lanes in the queue. Four lanes hold 91 % of the events a 64-node
/// Tibidabo HPL run pushes and 88 % at 96 nodes: its send overhead,
/// receive overhead and segment injection time. Five, six and eight hold
/// 97 %, 99.9 % and 100 % at 96 nodes, but `repro --figure 6 --headline
/// hpl --headline resilience --serial` ran no faster with them (medians of
/// three runs of a build that counted pushes, on a 2-CPU host: 3.75, 3.81
/// and 3.80 s against 3.75 s), since every pop and push scans every lane.
const LANES: usize = 4;

pub(crate) struct Event {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) pid: Pid,
    /// Generation the target process had when this event was created; a
    /// mismatch at dispatch time marks the event stale (the process already
    /// resumed for another reason).
    pub(crate) gen: u64,
    /// A `park_until` deadline, queued in the deadline heap.
    pub(crate) deadline: bool,
}

impl Event {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// Events pushed with one delay, in `(at, seq)` order.
#[derive(Default)]
struct Lane {
    /// The delay `at − now` every queued event was pushed with.
    delay: SimTime,
    events: VecDeque<Event>,
}

/// The part of the queue a head is in.
#[derive(Clone, Copy)]
enum Part {
    Lane(usize),
    Deadlines,
    Heap,
}

#[derive(Default)]
pub(crate) struct EventQueue {
    lanes: [Lane; LANES],
    deadlines: BinaryHeap<Event>,
    heap: BinaryHeap<Event>,
}

impl EventQueue {
    /// Queue `ev`, pushed at time `now`: a deadline into the deadline heap;
    /// any other event into the lane holding its delay, else into an empty
    /// lane it claims, else into the general heap.
    #[inline]
    pub(crate) fn push(&mut self, ev: Event, now: SimTime) {
        if ev.deadline {
            self.deadlines.push(ev);
            return;
        }
        let delay = ev.at - now;
        let mut free = None;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if lane.events.is_empty() {
                free = free.or(Some(i));
            } else if lane.delay == delay {
                lane.events.push_back(ev);
                return;
            }
        }
        match free {
            Some(i) => {
                let lane = &mut self.lanes[i];
                lane.delay = delay;
                lane.events.push_back(ev);
            }
            None => self.heap.push(ev),
        }
    }

    /// Queue an event the model checker did not pick. It may lie before
    /// the clock, so only the general heap can take it.
    pub(crate) fn push_back(&mut self, ev: Event) {
        self.heap.push(ev);
    }

    /// The part whose head is the least `(at, seq)`, with that key.
    #[inline]
    fn least(&self) -> Option<(Part, (SimTime, u64))> {
        let mut best = self.heap.peek().map(|ev| (Part::Heap, ev.key()));
        let mut offer = |part: Part, ev: Option<&Event>| {
            if let Some(key) = ev.map(Event::key) {
                if best.is_none_or(|(_, least)| key < least) {
                    best = Some((part, key));
                }
            }
        };
        offer(Part::Deadlines, self.deadlines.peek());
        for (i, lane) in self.lanes.iter().enumerate() {
            offer(Part::Lane(i), lane.events.front());
        }
        best
    }

    #[inline]
    fn take(&mut self, part: Part) -> Event {
        match part {
            Part::Lane(i) => self.lanes[i].events.pop_front(),
            Part::Deadlines => self.deadlines.pop(),
            Part::Heap => self.heap.pop(),
        }
        .expect("queue head vanished")
    }

    /// Remove and return the least event.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let (part, _) = self.least()?;
        Some(self.take(part))
    }

    /// Push `ev` (as [`EventQueue::push`] would, at `now`), then pop the
    /// least event. When `ev` comes before every head it is returned at
    /// once and the queue is not touched.
    #[inline]
    pub(crate) fn push_pop(&mut self, ev: Event, now: SimTime) -> Event {
        match self.least() {
            Some((part, least)) if least < ev.key() => {
                // `ev` comes after the head of `part`, so pushing it
                // leaves that head in place.
                self.push(ev, now);
                self.take(part)
            }
            _ => ev,
        }
    }

    /// Time of the least event.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        self.least().map(|(_, (at, _))| at)
    }

    /// Every queued event, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.lanes
            .iter()
            .flat_map(|lane| &lane.events)
            .chain(self.deadlines.iter())
            .chain(self.heap.iter())
    }
}
