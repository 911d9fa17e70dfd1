//! Node placement: [`PlacementStore::place`] hands a job the lowest-indexed
//! free nodes and marks them busy in one step, so no later decision of the
//! same scheduling pass can be handed a node an earlier one took.

use crate::workload::JobId;

/// Per-node allocation state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeState {
    /// Idle and alive.
    Free,
    /// Placed under a running job.
    Busy(JobId),
    /// Crashed; never allocatable again.
    Dead,
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
/// [`PlacementStore::place`] handed back, so the per-node `state` is only
/// ever indexed, never scanned.
#[derive(Clone, Debug)]
pub struct PlacementStore {
    state: Vec<NodeState>,
    /// Bit `n % 64` of word `n / 64` is set iff node `n` is free.
    free_bits: Vec<u64>,
    free: u32,
    alive: u32,
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
        }
    }

    /// Nodes currently free (alive and idle).
    pub fn free_nodes(&self) -> u32 {
        self.free
    }

    /// Nodes currently alive (free or busy).
    pub fn alive_nodes(&self) -> u32 {
        self.alive
    }

    /// The job a node is placed under, if any.
    pub fn owner(&self, node: u32) -> Option<JobId> {
        match self.state.get(node as usize) {
            Some(NodeState::Busy(job)) => Some(*job),
            _ => None,
        }
    }

    /// Place `job` on the `count` lowest-indexed free nodes, marking them
    /// busy, and write the nodes, ascending, into `granted` in place of its
    /// contents, so a caller can recycle one buffer per running job. Hand
    /// them back to [`PlacementStore::release`]. Returns false, placing
    /// nothing and leaving `granted` empty, if fewer than `count` are free.
    pub fn place(&mut self, count: u32, job: JobId, granted: &mut Vec<u32>) -> bool {
        granted.clear();
        if count == 0 || count > self.free {
            return false;
        }
        granted.reserve(count as usize);
        for (w, word) in self.free_bits.iter_mut().enumerate() {
            while *word != 0 && granted.len() < count as usize {
                let node = w as u32 * 64 + word.trailing_zeros();
                *word &= *word - 1;
                self.state[node as usize] = NodeState::Busy(job);
                granted.push(node);
            }
            if granted.len() == count as usize {
                break;
            }
        }
        debug_assert_eq!(granted.len(), count as usize);
        self.free -= count;
        true
    }

    /// Free the nodes [`PlacementStore::place`] gave `job` (it finished or
    /// was killed); returns how many were released. Dead nodes the job held
    /// stay dead.
    pub fn release(&mut self, job: JobId, granted: &[u32]) -> u32 {
        let mut released = 0;
        for &n in granted {
            match self.state[n as usize] {
                NodeState::Busy(owner) if owner == job => {
                    self.state[n as usize] = NodeState::Free;
                    self.free_bits[n as usize / 64] |= 1 << (n % 64);
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
        }
    }

    /// Nodes placed under jobs right now (for audits).
    pub fn busy_nodes(&self) -> u32 {
        self.alive - self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_release_round_trip() {
        let mut p = PlacementStore::new(8);
        let mut granted = vec![7, 7, 7, 7];
        assert!(p.place(3, 42, &mut granted), "3 of 8 free");
        assert_eq!(granted, vec![0, 1, 2], "the buffer's old contents are gone");
        assert_eq!(p.free_nodes(), 5);
        assert_eq!(p.owner(1), Some(42));
        assert_eq!(p.release(42, &granted), 3);
        assert_eq!(p.free_nodes(), 8);
        assert_eq!(p.owner(1), None);
    }

    #[test]
    fn failed_nodes_leave_the_pool_forever() {
        let mut p = PlacementStore::new(4);
        let mut granted = Vec::new();
        assert!(p.place(2, 1, &mut granted));
        assert_eq!(p.fail_node(0), NodeFate::WasRunning(1));
        assert_eq!(p.fail_node(0), NodeFate::AlreadyDead);
        assert_eq!(p.fail_node(3), NodeFate::WasIdle);
        assert_eq!(p.alive_nodes(), 2);
        // The job still holds node 1 until released; node 0 stays dead.
        assert_eq!(p.release(1, &granted), 1);
        assert_eq!(p.free_nodes(), 2);
        assert!(p.place(2, 2, &mut granted));
        assert_eq!(granted, vec![1, 2], "dead nodes are never allocated");
    }

    #[test]
    fn oversized_requests_place_nothing() {
        let mut p = PlacementStore::new(4);
        let mut granted = vec![3];
        assert!(!p.place(5, 1, &mut granted));
        assert!(granted.is_empty());
        assert!(!p.place(0, 1, &mut granted));
        assert_eq!(p.free_nodes(), 4, "a failed place must not leak nodes");
    }
}
