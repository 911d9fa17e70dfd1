//! Pluggable scheduling policies.
//!
//! A [`Policy`] is consulted once per scheduling pass (after every arrival,
//! completion, or node failure) with a read-only [`SchedView`] of the queue
//! and cluster, and answers with an ordered list of [`Action`]s. The
//! simulator executes them through its placement store, so a policy can
//! only *propose*; it can never hand out nodes itself.
//!
//! Three policies ship: plain [`Fcfs`], [`EasyBackfill`] (the classic EASY
//! algorithm: strict FCFS for the head of queue plus backfilling that may
//! never delay the head's shadow-time reservation), and a weighted
//! [`FairShare`] with optional preemption.

use des::SimTime;

use crate::metrics::total_order_bits;
use crate::workload::{Job, JobId};

/// A queued job plus its scheduler-side bookkeeping.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// The job record.
    pub job: Job,
    /// How many times a node crash has already sent it back to the queue.
    pub resubmits: u32,
}

/// A running job as policies see it.
#[derive(Clone, Debug)]
pub struct RunningJob {
    /// The job's id.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: u32,
    /// Nodes held.
    pub nodes: u32,
    /// When it started.
    pub start: SimTime,
    /// Upper bound on its completion: start + the tenant's wall-limit
    /// estimate. The simulator kills jobs at this time, so policies may
    /// treat it as a hard guarantee.
    pub est_end: SimTime,
}

/// Read-only cluster snapshot handed to [`Policy::decide`].
#[derive(Debug)]
pub struct SchedView<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Free (alive, unallocated) nodes.
    pub free_nodes: u32,
    /// Alive nodes (free + busy): the pool faults have left us.
    pub alive_nodes: u32,
    /// The wait queue in queue order (head first).
    pub queue: &'a [QueuedJob],
    /// Currently running jobs, sorted by `(est_end, id)`: the order
    /// [`shadow_time`] consumes them in.
    pub running: &'a [RunningJob],
    /// Per-tenant fair-share weights (not necessarily normalised).
    pub tenant_shares: &'a [f64],
    /// Per-tenant node-seconds consumed so far.
    pub tenant_usage: &'a [f64],
}

/// One scheduling decision, executed by the simulator in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Start the queued job at this index of [`SchedView::queue`].
    Start(usize),
    /// Kill this running job and resubmit it at the head of the queue,
    /// charging a preemption. Only meaningful from preempting policies.
    Preempt(JobId),
}

/// The buffers one scheduling pass fills. The simulator owns them and
/// lends them to every [`Policy::decide`], so once they have grown a pass
/// allocates nothing, and a policy needs no state of its own to reuse them.
#[derive(Debug, Default)]
pub struct PassBuf {
    /// The pass's actions, in the order the simulator applies them. Empty
    /// when `decide` is called.
    pub actions: Vec<Action>,
    /// `(est_end, nodes)` of the jobs an EASY pass starts, for its shadow.
    ends: Vec<(SimTime, u32)>,
    /// A fair-share pass's distinct window deficits, as their
    /// order-preserving bits, ascending.
    deficits: Vec<u64>,
    /// Per scan-window entry: its deficit's bits, then that deficit's rank
    /// in `deficits`.
    ranks: Vec<u64>,
    /// The counting sort's next free slot per rank.
    slots: Vec<usize>,
    /// The scan window's queue indices in `(deficit, position)` order.
    order: Vec<usize>,
}

/// A scheduling policy.
pub trait Policy {
    /// Stable policy name (report rows, artefact keys).
    fn name(&self) -> &'static str;

    /// Propose this pass's actions by pushing them onto `pass.actions`.
    /// `Start` indices refer to the queue *before* any action is applied,
    /// whatever their order relative to `Preempt`s: the simulator applies
    /// the actions in the given order, starts indexed jobs on the queue the
    /// policy saw, and requeues the pass's victims at its head only after
    /// the last start. It ignores a start that no longer fits (which a
    /// correct policy never produces).
    fn decide(&mut self, view: &SchedView<'_>, pass: &mut PassBuf);

    /// Whether the policy reads [`SchedView::tenant_usage`]. When `false`
    /// (the default) the simulator skips the per-pass usage projection,
    /// which walks every running job.
    fn needs_usage(&self) -> bool {
        false
    }
}

/// How many queued jobs a backfill or fair-share pass may examine. Bounds
/// the per-pass cost at datacenter scale (queues reach 10⁵ entries under
/// overload; scanning them all on every event would be quadratic).
pub const SCAN_DEPTH: usize = 128;

/// When the head job cannot start now, the earliest time it is *guaranteed*
/// to fit, assuming running jobs end at their wall-limit bounds and nothing
/// else starts: release jobs by ascending `(est_end, nodes)`, accumulating
/// freed nodes until `need` fits. Returns `(shadow_time, extra)` where
/// `extra` is how many nodes beyond `need` will be free at that instant —
/// the headroom a backfill job may hold past the shadow time without
/// delaying the head.
///
/// `running` must be sorted by `(est_end, id)`, as [`SchedView::running`]
/// is, and `starts` (jobs starting in this pass but not yet in `running`,
/// as `(est_end, nodes)`) must be sorted. The two are merged in one walk
/// that stops at the first `est_end` where `need` fits, so the cost is the
/// prefix walked, not the running set. Within that last instant the jobs
/// are released narrowest first, which fixes `extra`.
///
/// Returns `None` when `need` exceeds free plus every running job's nodes
/// (the pool is too small; the caller handles unplaceable jobs).
pub fn shadow_time(
    need: u32,
    free: u32,
    running: &[RunningJob],
    starts: &[(SimTime, u32)],
) -> Option<(SimTime, u32)> {
    debug_assert!(
        running.windows(2).all(|w| (w[0].est_end, w[0].id) < (w[1].est_end, w[1].id)),
        "running jobs out of (est_end, id) order"
    );
    debug_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "pass starts out of order");
    if need <= free {
        return Some((SimTime::ZERO, free - need));
    }
    let (mut r, mut s) = (0, 0);
    let mut avail = free;
    loop {
        let at = match (running.get(r), starts.get(s)) {
            (Some(j), Some(&(end, _))) => j.est_end.min(end),
            (Some(j), None) => j.est_end,
            (None, Some(&(end, _))) => end,
            (None, None) => return None,
        };
        let r_end = r + running[r..].iter().take_while(|j| j.est_end == at).count();
        let s_end = s + starts[s..].iter().take_while(|e| e.0 == at).count();
        let group = &running[r..r_end];
        let group_starts = &starts[s..s_end];
        let freed: u32 = group.iter().map(|j| j.nodes).sum::<u32>()
            + group_starts.iter().map(|e| e.1).sum::<u32>();
        if avail + freed >= need {
            return Some((at, narrowest_first_extra(need - avail, group, group_starts)));
        }
        avail += freed;
        (r, s) = (r_end, s_end);
    }
}

/// Release one instant's jobs narrowest first until `short` more nodes are
/// free; return the overshoot. Walks the distinct widths upwards, so it
/// needs no sorted copy of the group.
fn narrowest_first_extra(short: u32, running: &[RunningJob], starts: &[(SimTime, u32)]) -> u32 {
    let widths = || running.iter().map(|j| j.nodes).chain(starts.iter().map(|e| e.1));
    let mut freed = 0;
    let mut below = 0;
    loop {
        let width =
            widths().filter(|&w| w > below).min().expect("the instant's jobs cover the shortfall");
        let count = widths().filter(|&w| w == width).count() as u32;
        freed += width * count.min((short - freed).div_ceil(width));
        if freed >= short {
            return freed - short;
        }
        below = width;
    }
}

/// First-come first-served, no backfilling: start jobs strictly in queue
/// order until the head no longer fits.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn decide(&mut self, view: &SchedView<'_>, pass: &mut PassBuf) {
        let mut free = view.free_nodes;
        for (i, q) in view.queue.iter().enumerate() {
            if q.job.nodes > free {
                break;
            }
            free -= q.job.nodes;
            pass.actions.push(Action::Start(i));
        }
    }
}

/// EASY backfilling: FCFS for the head of queue, with a shadow-time
/// reservation for a blocked head. Later jobs may start out of order only if
/// they fit right now **and** either finish (by their wall-limit bound)
/// before the head's shadow time or fit inside the extra nodes the shadow
/// reservation leaves over — so backfilling can never delay the head.
#[derive(Clone, Copy, Debug, Default)]
pub struct EasyBackfill;

impl Policy for EasyBackfill {
    fn name(&self) -> &'static str {
        "easy"
    }

    fn decide(&mut self, view: &SchedView<'_>, pass: &mut PassBuf) {
        let mut free = view.free_nodes;
        // FCFS prefix: start in order while the head fits.
        let mut head = 0;
        while head < view.queue.len() && view.queue[head].job.nodes <= free {
            free -= view.queue[head].job.nodes;
            pass.actions.push(Action::Start(head));
            head += 1;
        }
        if free == 0 {
            return; // nothing can backfill; skip the shadow work
        }
        let Some(blocked) = view.queue.get(head) else {
            return; // queue drained
        };
        // Shadow reservation for the blocked head, counting the jobs this
        // pass just started (their est_end bounds their wall-limit kills).
        pass.ends.clear();
        pass.ends.extend(
            view.queue[..head]
                .iter()
                .map(|q| (view.now + SimTime::from_secs_f64(q.job.est_secs), q.job.nodes)),
        );
        pass.ends.sort_unstable();
        let Some((shadow, extra)) = shadow_time(blocked.job.nodes, free, view.running, &pass.ends)
        else {
            return; // head is unplaceable; the simulator rejects it
        };
        let shadow = view.now.max(shadow);
        let mut extra = extra;
        // Backfill: bounded scan behind the head.
        for (i, q) in view.queue.iter().enumerate().skip(head + 1).take(SCAN_DEPTH) {
            if free == 0 {
                break;
            }
            if q.job.nodes > free {
                continue;
            }
            let est_end = view.now + SimTime::from_secs_f64(q.job.est_secs);
            let fits_before_shadow = est_end <= shadow;
            let fits_in_extra = q.job.nodes <= extra;
            if fits_before_shadow || fits_in_extra {
                free -= q.job.nodes;
                if !fits_before_shadow {
                    extra -= q.job.nodes;
                }
                pass.actions.push(Action::Start(i));
            }
        }
    }
}

/// Weighted fair sharing across tenants, optionally with preemption.
///
/// Each pass ranks tenants by *deficit* — accumulated node-seconds divided
/// by share weight, lowest (most underserved) first — and starts the most
/// underserved tenants' jobs (FCFS within a tenant) while they fit. With
/// [`FairShare::preempting`], a starved head job (queued longer than
/// `starvation_s`) may evict the most recently started job of the most
/// overserved tenant to make room; the victim goes back to the head of the
/// queue and re-runs from scratch.
#[derive(Clone, Copy, Debug)]
pub struct FairShare {
    /// Allow evictions.
    pub preempt: bool,
    /// How long the most-underserved tenant's head job must have waited
    /// before preemption triggers, seconds.
    pub starvation_s: f64,
    /// At most this many evictions per scheduling pass.
    pub max_preempts_per_pass: u32,
}

impl FairShare {
    /// Fair sharing without preemption.
    pub fn new() -> FairShare {
        FairShare { preempt: false, starvation_s: 600.0, max_preempts_per_pass: 2 }
    }

    /// Fair sharing with preemption enabled.
    pub fn preempting() -> FairShare {
        FairShare { preempt: true, ..FairShare::new() }
    }

    /// Tenant deficit: usage per unit share. Tenants with zero share sort
    /// last (they only run on leftover capacity).
    fn deficit(shares: &[f64], usage: &[f64], tenant: u32) -> f64 {
        let share = shares.get(tenant as usize).copied().unwrap_or(0.0);
        let used = usage.get(tenant as usize).copied().unwrap_or(0.0);
        if share <= 0.0 {
            f64::INFINITY
        } else {
            used / share
        }
    }
}

impl Default for FairShare {
    fn default() -> Self {
        FairShare::new()
    }
}

impl Policy for FairShare {
    fn name(&self) -> &'static str {
        if self.preempt {
            "fair-preempt"
        } else {
            "fair"
        }
    }

    fn needs_usage(&self) -> bool {
        true
    }

    fn decide(&mut self, view: &SchedView<'_>, pass: &mut PassBuf) {
        // Order the scan window by (tenant deficit, queue position): the
        // most underserved tenant's oldest job first. Each deficit is
        // computed once, and the window holds only a few distinct ones (one
        // per tenant), so a stable counting sort on each entry's rank among
        // them gives the order. Deficits of one rank are bit-equal, so it
        // is exactly the (total_cmp deficit, position) order.
        let window = &view.queue[..view.queue.len().min(SCAN_DEPTH)];
        let PassBuf { deficits, ranks, slots, order, .. } = pass;
        deficits.clear();
        ranks.clear();
        for q in window {
            let deficit = Self::deficit(view.tenant_shares, view.tenant_usage, q.job.tenant);
            let bits = total_order_bits(deficit);
            if let Err(at) = deficits.binary_search(&bits) {
                deficits.insert(at, bits);
            }
            ranks.push(bits);
        }
        // Count each rank into the slot above it, so the prefix sums give
        // each rank its first place in `order`.
        slots.clear();
        slots.resize(deficits.len() + 1, 0);
        for key in ranks.iter_mut() {
            *key = deficits.binary_search(key).expect("every deficit was collected") as u64;
            slots[*key as usize + 1] += 1;
        }
        for r in 1..slots.len() {
            slots[r] += slots[r - 1];
        }
        order.clear();
        order.resize(window.len(), 0);
        for (i, &rank) in ranks.iter().enumerate() {
            order[slots[rank as usize]] = i;
            slots[rank as usize] += 1;
        }
        let mut free = view.free_nodes;
        let mut head_started = false;
        for &i in &pass.order {
            let q = &view.queue[i];
            if q.job.nodes <= free {
                free -= q.job.nodes;
                pass.actions.push(Action::Start(i));
                head_started |= i == 0;
            }
        }
        if !self.preempt || head_started {
            return;
        }
        // The head (oldest job of the pass's most underserved tenant among
        // the unstartable) may preempt if it has starved.
        let Some(head) = view.queue.first() else { return };
        let waited = (view.now - head.job.submit).as_secs_f64();
        if waited < self.starvation_s {
            return;
        }
        let head_deficit = Self::deficit(view.tenant_shares, view.tenant_usage, head.job.tenant);
        // Victims: most recently started jobs of tenants more served than
        // the head's tenant, newest first, never the head's own tenant.
        // Each round picks the newest `(start, id)` older than the last
        // victim.
        let started = pass.actions.len();
        let mut reclaimed = free;
        let mut newer_than: Option<(SimTime, JobId)> = None;
        for _ in 0..self.max_preempts_per_pass {
            if reclaimed >= head.job.nodes {
                break;
            }
            let Some(v) = view
                .running
                .iter()
                .filter(|r| newer_than.is_none_or(|bound| (r.start, r.id) < bound))
                .filter(|r| {
                    r.tenant != head.job.tenant
                        && Self::deficit(view.tenant_shares, view.tenant_usage, r.tenant)
                            > head_deficit
                })
                .max_by_key(|r| (r.start, r.id))
            else {
                break;
            };
            reclaimed += v.nodes;
            newer_than = Some((v.start, v.id));
            pass.actions.push(Action::Preempt(v.id));
        }
        let evicted = pass.actions.len() - started;
        if reclaimed >= head.job.nodes && evicted > 0 {
            // Evictions first; the freed nodes let the next pass start the
            // head (the simulator reruns a pass after applying preemptions).
            pass.actions.rotate_right(evicted);
        } else {
            pass.actions.truncate(started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{JobKind, QosClass};

    fn job(id: u64, tenant: u32, nodes: u32, submit_s: f64, est_secs: f64) -> QueuedJob {
        QueuedJob {
            job: Job {
                id,
                tenant,
                qos: QosClass::Standard,
                kind: JobKind::Stencil,
                submit: SimTime::from_secs_f64(submit_s),
                nodes,
                work: est_secs / 2.0,
                est_secs,
            },
            resubmits: 0,
        }
    }

    fn running(id: u64, tenant: u32, nodes: u32, est_end_s: f64) -> RunningJob {
        RunningJob {
            id,
            tenant,
            nodes,
            start: SimTime::ZERO,
            est_end: SimTime::from_secs_f64(est_end_s),
        }
    }

    /// One pass of `policy` over `view`, on fresh buffers.
    fn decide(policy: &mut impl Policy, view: &SchedView<'_>) -> Vec<Action> {
        let mut pass = PassBuf::default();
        policy.decide(view, &mut pass);
        pass.actions
    }

    fn view<'a>(
        free: u32,
        alive: u32,
        queue: &'a [QueuedJob],
        run: &'a [RunningJob],
        shares: &'a [f64],
        usage: &'a [f64],
    ) -> SchedView<'a> {
        SchedView {
            now: SimTime::from_secs_f64(1000.0),
            free_nodes: free,
            alive_nodes: alive,
            queue,
            running: run,
            tenant_shares: shares,
            tenant_usage: usage,
        }
    }

    #[test]
    fn fcfs_stops_at_the_first_blocked_job() {
        let q = vec![job(0, 0, 2, 0.0, 10.0), job(1, 0, 8, 1.0, 10.0), job(2, 0, 1, 2.0, 10.0)];
        let v = view(4, 8, &q, &[], &[1.0], &[0.0]);
        assert_eq!(decide(&mut Fcfs, &v), vec![Action::Start(0)], "job 2 fits but FCFS won't jump");
    }

    #[test]
    fn easy_backfills_only_jobs_that_cannot_delay_the_head() {
        // 8 nodes: 4 running until t=2000 (est), head needs 8.
        // Shadow time = 2000; extra = 0. A short job (ends 1500 < 2000) on
        // the 4 free nodes backfills; a long one (ends 3000) must not.
        let run = vec![running(100, 0, 4, 2000.0)];
        let long = vec![job(0, 0, 8, 0.0, 1e6), job(1, 0, 4, 1.0, 2000.0)];
        let v = view(4, 8, &long, &run, &[1.0], &[0.0]);
        assert_eq!(decide(&mut EasyBackfill, &v), vec![], "a 2000s backfill would delay the head");
        let short = vec![job(0, 0, 8, 0.0, 1e6), job(1, 0, 4, 1.0, 500.0)];
        let v = view(4, 8, &short, &run, &[1.0], &[0.0]);
        assert_eq!(decide(&mut EasyBackfill, &v), vec![Action::Start(1)]);
    }

    #[test]
    fn easy_backfills_into_shadow_extra_nodes() {
        // 10 nodes: 6 running until t=2000, head needs 8 → shadow frees
        // 6+4=10, extra=2. A 2-node job of any length may start.
        let run = vec![running(100, 0, 6, 2000.0)];
        let q = vec![job(0, 0, 8, 0.0, 1e6), job(1, 0, 2, 1.0, 1e9)];
        let v = view(4, 10, &q, &run, &[1.0], &[0.0]);
        assert_eq!(decide(&mut EasyBackfill, &v), vec![Action::Start(1)]);
    }

    #[test]
    fn fair_share_prefers_the_underserved_tenant() {
        let q = vec![job(0, 0, 4, 0.0, 10.0), job(1, 1, 4, 1.0, 10.0)];
        // Tenant 0 has consumed far more than its share.
        let v = view(4, 8, &q, &[], &[0.5, 0.5], &[1e6, 0.0]);
        let acts = decide(&mut FairShare::new(), &v);
        assert_eq!(acts, vec![Action::Start(1)], "tenant 1 is owed capacity");
    }

    #[test]
    fn preemption_evicts_the_overserved_tenants_newest_job() {
        // All 8 nodes held by tenant 1 (overserved); tenant 0's head starved.
        let run = vec![running(100, 1, 4, 5000.0), running(101, 1, 4, 6000.0)];
        let q = vec![job(0, 0, 8, 0.0, 10.0)]; // waited 1000s > 600s
        let v = view(0, 8, &q, &run, &[0.5, 0.5], &[0.0, 1e6]);
        let acts = decide(&mut FairShare::preempting(), &v);
        assert_eq!(acts, vec![Action::Preempt(101), Action::Preempt(100)]);
        // Without preemption: nothing to do.
        assert_eq!(decide(&mut FairShare::new(), &v), vec![]);
    }

    #[test]
    fn shadow_time_accumulates_wall_limit_releases() {
        let run = vec![running(1, 0, 2, 100.0), running(2, 0, 4, 200.0)];
        // need 5, free 1: after t=100 → 3 free; after t=200 → 7 free.
        let (t, extra) = shadow_time(5, 1, &run, &[]).unwrap();
        assert_eq!(t, SimTime::from_secs_f64(200.0));
        assert_eq!(extra, 2);
        assert_eq!(shadow_time(8, 1, &run, &[]), None, "wider than the whole pool");
        assert_eq!(shadow_time(1, 1, &run, &[]), Some((SimTime::ZERO, 0)));
    }
}
