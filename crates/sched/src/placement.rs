//! Two-phase node placement: reserve → commit (or cancel).
//!
//! Scheduling passes make several tentative decisions per pass (the head
//! job's reservation, then backfill candidates). Each decision *reserves*
//! concrete nodes first and only then *commits* them to the job, so a later
//! decision in the same pass physically cannot be handed a node an earlier
//! one already took — the dslab-iaas discipline that makes double-booking a
//! type error rather than a bug class. Reservations never outlive a pass:
//! [`PlacementStore::fail_node`] asserts none are outstanding.

use crate::workload::JobId;

/// Per-node allocation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeState {
    /// Idle and alive.
    Free,
    /// Physically held by an in-flight reservation.
    Reserved(u64),
    /// Committed to a running job.
    Busy(JobId),
    /// Crashed; never allocatable again.
    Dead,
}

/// A set of nodes physically held for one pending placement decision.
///
/// The holder must consume it with [`PlacementStore::commit`] or
/// [`PlacementStore::cancel`] before the scheduling pass ends; the type is
/// deliberately not `Clone`, so one reservation maps to exactly one decision.
#[derive(Debug)]
pub struct Reservation {
    id: u64,
    nodes: Vec<u32>,
}

impl Reservation {
    /// The nodes held by this reservation, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }
}

/// What [`PlacementStore::fail_node`] found when the crash struck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFate {
    /// The node was already dead (duplicate crash events are ignored).
    AlreadyDead,
    /// The node was idle; the pool just shrank.
    WasIdle,
    /// The node was running this job, which loses a node and dies with it.
    WasRunning(JobId),
}

/// The allocatable-node bookkeeping for one machine.
///
/// Every operation costs time in the nodes it touches, not in the machine's
/// size: free nodes are found through a bitset (one bit per node, set while
/// the node is free), and a job's nodes are released from the list
/// [`PlacementStore::commit`] handed back, so the per-node `state` is only
/// ever indexed, never scanned.
#[derive(Clone, Debug)]
pub struct PlacementStore {
    state: Vec<NodeState>,
    /// Bit `n % 64` of word `n / 64` is set iff node `n` is free.
    free_bits: Vec<u64>,
    free: u32,
    alive: u32,
    /// Nodes held by outstanding reservations.
    reserved: u32,
    next_reservation: u64,
    outstanding: u32,
}

impl PlacementStore {
    /// A store with `nodes` free, alive nodes.
    pub fn new(nodes: u32) -> PlacementStore {
        // Every word full, except the last holds only the nodes left over.
        let free_bits =
            (0..nodes.div_ceil(64)).map(|w| u64::MAX >> (64 - (nodes - 64 * w).min(64))).collect();
        PlacementStore {
            state: vec![NodeState::Free; nodes as usize],
            free_bits,
            free: nodes,
            alive: nodes,
            reserved: 0,
            next_reservation: 0,
            outstanding: 0,
        }
    }

    /// Nodes currently free (alive and unheld).
    pub fn free_nodes(&self) -> u32 {
        self.free
    }

    /// Nodes currently alive (free, reserved or busy).
    pub fn alive_nodes(&self) -> u32 {
        self.alive
    }

    /// The job a node is committed to, if any.
    pub fn owner(&self, node: u32) -> Option<JobId> {
        match self.state.get(node as usize) {
            Some(NodeState::Busy(job)) => Some(*job),
            _ => None,
        }
    }

    fn set_free(&mut self, node: u32) {
        self.state[node as usize] = NodeState::Free;
        self.free_bits[node as usize / 64] |= 1 << (node % 64);
    }

    /// Phase one: physically hold the `count` lowest-indexed free nodes.
    /// Returns `None` (holding nothing) if fewer than `count` are free.
    pub fn reserve(&mut self, count: u32) -> Option<Reservation> {
        if count == 0 || count > self.free {
            return None;
        }
        let id = self.next_reservation;
        self.next_reservation += 1;
        let mut nodes = Vec::with_capacity(count as usize);
        for (w, word) in self.free_bits.iter_mut().enumerate() {
            while *word != 0 && nodes.len() < count as usize {
                let node = w as u32 * 64 + word.trailing_zeros();
                *word &= *word - 1;
                self.state[node as usize] = NodeState::Reserved(id);
                nodes.push(node);
            }
            if nodes.len() == count as usize {
                break;
            }
        }
        debug_assert_eq!(nodes.len(), count as usize);
        self.free -= count;
        self.reserved += count;
        self.outstanding += 1;
        Some(Reservation { id, nodes })
    }

    /// Phase two: commit a reservation to `job`. Returns the nodes granted,
    /// ascending; hand them back to [`PlacementStore::release`].
    pub fn commit(&mut self, r: Reservation, job: JobId) -> Vec<u32> {
        for &n in &r.nodes {
            debug_assert_eq!(self.state[n as usize], NodeState::Reserved(r.id));
            self.state[n as usize] = NodeState::Busy(job);
        }
        self.reserved -= r.nodes.len() as u32;
        self.outstanding -= 1;
        r.nodes
    }

    /// Abandon a reservation, returning its nodes to the free pool.
    pub fn cancel(&mut self, r: Reservation) {
        for &n in &r.nodes {
            debug_assert_eq!(self.state[n as usize], NodeState::Reserved(r.id));
            self.set_free(n);
        }
        self.free += r.nodes.len() as u32;
        self.reserved -= r.nodes.len() as u32;
        self.outstanding -= 1;
    }

    /// Free the nodes [`PlacementStore::commit`] granted `job` (it finished
    /// or was killed); returns how many were released. Dead nodes the job
    /// held stay dead.
    pub fn release(&mut self, job: JobId, granted: &[u32]) -> u32 {
        let mut released = 0;
        for &n in granted {
            match self.state[n as usize] {
                NodeState::Busy(owner) if owner == job => {
                    self.set_free(n);
                    released += 1;
                }
                NodeState::Dead => {}
                other => panic!("node {n} of job {job} is {other:?} at release"),
            }
        }
        self.free += released;
        released
    }

    /// A node crashed: remove it from the pool forever and report what it
    /// was doing. The caller is responsible for killing the returned job
    /// (its *other* nodes stay busy until [`PlacementStore::release`]).
    pub fn fail_node(&mut self, node: u32) -> NodeFate {
        assert_eq!(self.outstanding, 0, "a crash struck inside a scheduling pass");
        match self.state[node as usize] {
            NodeState::Dead => NodeFate::AlreadyDead,
            NodeState::Free => {
                self.state[node as usize] = NodeState::Dead;
                self.free_bits[node as usize / 64] &= !(1 << (node % 64));
                self.free -= 1;
                self.alive -= 1;
                NodeFate::WasIdle
            }
            NodeState::Busy(job) => {
                self.state[node as usize] = NodeState::Dead;
                self.alive -= 1;
                NodeFate::WasRunning(job)
            }
            NodeState::Reserved(_) => unreachable!("reservations never outlive a pass"),
        }
    }

    /// Nodes committed to jobs right now (for audits).
    pub fn busy_nodes(&self) -> u32 {
        self.alive - self.free - self.reserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_commit_release_round_trip() {
        let mut p = PlacementStore::new(8);
        let r = p.reserve(3).expect("3 of 8 free");
        assert_eq!(r.nodes(), &[0, 1, 2]);
        assert_eq!(p.free_nodes(), 5);
        let granted = p.commit(r, 42);
        assert_eq!(granted, vec![0, 1, 2]);
        assert_eq!(p.owner(1), Some(42));
        assert_eq!(p.release(42, &granted), 3);
        assert_eq!(p.free_nodes(), 8);
        assert_eq!(p.owner(1), None);
    }

    #[test]
    fn concurrent_reservations_cannot_overlap() {
        let mut p = PlacementStore::new(6);
        let a = p.reserve(4).unwrap();
        let b = p.reserve(2).unwrap();
        assert!(a.nodes().iter().all(|n| !b.nodes().contains(n)));
        assert!(p.reserve(1).is_none(), "nothing left while both are held");
        p.cancel(a);
        assert_eq!(p.free_nodes(), 4);
        p.commit(b, 7);
        assert_eq!(p.busy_nodes(), 2);
    }

    #[test]
    fn failed_nodes_leave_the_pool_forever() {
        let mut p = PlacementStore::new(4);
        let r = p.reserve(2).unwrap();
        let granted = p.commit(r, 1);
        assert_eq!(p.fail_node(0), NodeFate::WasRunning(1));
        assert_eq!(p.fail_node(0), NodeFate::AlreadyDead);
        assert_eq!(p.fail_node(3), NodeFate::WasIdle);
        assert_eq!(p.alive_nodes(), 2);
        // The job still holds node 1 until released; node 0 stays dead.
        assert_eq!(p.release(1, &granted), 1);
        assert_eq!(p.free_nodes(), 2);
        let r = p.reserve(2).expect("the two survivors");
        assert_eq!(r.nodes(), &[1, 2], "dead nodes are never allocated");
        p.cancel(r);
    }

    #[test]
    fn oversized_requests_hold_nothing() {
        let mut p = PlacementStore::new(4);
        assert!(p.reserve(5).is_none());
        assert!(p.reserve(0).is_none());
        assert_eq!(p.free_nodes(), 4, "a failed reserve must not leak holds");
    }
}
