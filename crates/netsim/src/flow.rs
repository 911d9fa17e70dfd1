//! Flow-level fair-sharing network model.
//!
//! The event-level model in [`topology`](crate::Network) charges every
//! message a store-and-forward reservation on each link of its route. This
//! module models the same link graph as a **fluid network**: each in-flight
//! transfer is a *flow* with a bandwidth share computed by
//! progressive-filling **max-min fairness** over the links it crosses, and
//! the only state transitions are flow starts, flow finishes, and the rate
//! re-shares they trigger. A receiver waiting on a flow wakes at every
//! transition, so sparse traffic gains no events: on an HPL-shaped 64-rank
//! job this model dispatches 133,716 engine events against the event
//! model's 111,808 (DESIGN.md §4.8).
//!
//! The allocator is the textbook water-filling algorithm: repeatedly find
//! the most-contended link (smallest `capacity / flows-crossing-it`), freeze
//! every flow through it at that fair share, subtract the frozen bandwidth,
//! and repeat until every flow is frozen. The result is the unique max-min
//! fair allocation: no flow can gain rate without taking it from a flow of
//! equal or smaller rate, and every flow is bottlenecked by at least one
//! saturated link (`tests/properties.rs` pins these invariants).
//!
//! A re-share does not refill the whole link graph. [`FlowNet`] keeps a
//! per-link count of started flows, so a flow that is alone on every link of
//! its route — a component of its own, which the global fill would freeze at
//! exactly the link capacity — gets that rate directly, and the fill runs
//! only over the remaining flows and the links they touch, in reusable
//! scratch. Progressive filling never couples disjoint components (a round
//! freezes a flow only when one of its own links sits at the round's share),
//! so the restricted fill produces the global fill's rates bit for bit.
//!
//! Everything is deterministic: flows live in id order, the allocator
//! iterates in fixed order, and all times are rounded up to the engine's
//! integer nanoseconds, so flow-model runs are bit-reproducible.
//!
//! Which model a simulation uses is chosen per job through [`NetModel`]
//! (`simmpi::RunOpts::net_model`); the `simmpi` runtime keeps both
//! transports behind one rank-facing API, and `repro --ablate-net`, the one
//! `repro` run that selects this model, quantifies the accuracy trade.

use std::collections::VecDeque;

use des::SimTime;

use crate::topology::{Network, TopologySpec};

/// Which network model a simulation uses for data transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NetModel {
    /// Per-message store-and-forward events with link reservations
    /// ([`Network::transmit`]). The reference model; the default.
    #[default]
    Event,
    /// Flow-level max-min fair sharing ([`FlowNet`]): whole transfers
    /// advance as fluid flows, trading per-message contention detail for
    /// O(flow transitions) simulation cost.
    Flow,
}

impl NetModel {
    /// The model's name (`"event"` / `"flow"`), as it appears in the
    /// ablation's cell labels, `ablate_net.json` and `BENCH_scale.json`.
    pub fn name(self) -> &'static str {
        match self {
            NetModel::Event => "event",
            NetModel::Flow => "flow",
        }
    }
}

/// Identifier of one flow inside a [`FlowNet`], unique per network instance.
pub type FlowId = u64;

/// What [`FlowNet::poll`] reports about a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowStatus {
    /// The flow's last byte cleared the network at `at` (`at <= now`). The
    /// record stays until [`FlowNet::consume`] removes it.
    Done {
        /// Completion time of the transfer.
        at: SimTime,
    },
    /// Still transferring (or not yet started). Nothing about this flow can
    /// change before `wake`: it is the earliest transition (any flow's start
    /// or finish) in the whole network, so a waiter that re-polls at `wake`
    /// observes every re-share exactly.
    InFlight {
        /// Earliest next flow transition anywhere in the network
        /// (strictly after the poll's `now`).
        wake: SimTime,
        /// Concurrent flows currently sharing the network (diagnostic, for
        /// re-share trace events).
        flows: usize,
    },
}

/// A flow's completion-threshold slack in bytes: transitions are rounded up
/// to whole nanoseconds, so a "finished" flow's residual is at most one
/// nanosecond of its rate below zero plus float noise.
const DONE_EPS_BYTES: f64 = 1e-6;

/// A flow's route stored inline: at most 4 link indices (see
/// [`Network::route_arr`]), so starting a flow allocates nothing.
#[derive(Clone, Copy, Debug)]
struct Route {
    links: [u32; 4],
    len: u8,
}

impl Route {
    fn as_slice(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }
}

impl AsRef<[u32]> for Route {
    fn as_ref(&self) -> &[u32] {
        self.as_slice()
    }
}

/// How many started flows cross each link, kept up to date as flows start
/// and drain so a re-share can tell alone flows from shared ones without
/// scanning the link graph.
#[derive(Clone, Debug)]
struct LinkLoad {
    flows: Vec<u32>,
    /// Links crossed by two or more started flows.
    shared: usize,
}

impl LinkLoad {
    fn new(num_links: usize) -> LinkLoad {
        LinkLoad { flows: vec![0; num_links], shared: 0 }
    }

    fn add(&mut self, route: &Route) {
        for &l in route.as_slice() {
            let n = &mut self.flows[l as usize];
            *n += 1;
            if *n == 2 {
                self.shared += 1;
            }
        }
    }

    fn remove(&mut self, route: &Route) {
        for &l in route.as_slice() {
            let n = &mut self.flows[l as usize];
            if *n == 2 {
                self.shared -= 1;
            }
            *n -= 1;
        }
    }

    /// Whether a started flow on `route` is the only flow on all its links.
    fn alone(&self, route: &Route) -> bool {
        self.shared == 0 || route.as_slice().iter().all(|&l| self.flows[l as usize] == 1)
    }
}

#[derive(Clone, Debug)]
struct Flow {
    route: Route,
    remaining: f64,
    rate: f64,
    /// The flow transfers no bytes before this instant (a rendezvous bulk
    /// transfer is registered by the receiver before its departure time).
    starts_at: SimTime,
}

/// One slab entry of the flow table, indexed by `FlowId - base`.
#[derive(Clone, Debug)]
enum Slot {
    /// Registered (pending or transferring).
    InFlight(Flow),
    /// Last byte cleared the network at the recorded instant; the record
    /// stays until [`FlowNet::consume`].
    Done(SimTime),
    /// Consumed; the slab trims these off its front.
    Consumed,
}

/// The fluid network: the same topology and link capacities as the
/// event-level [`Network`], advancing whole flows under max-min fair
/// bandwidth sharing.
///
/// State only ever moves forward: every operation takes the caller's current
/// virtual time and first *settles* the network — processing all flow starts
/// and finishes up to that instant, re-sharing bandwidth at each — so rates
/// are exact piecewise constants between transitions.
#[derive(Clone, Debug)]
pub struct FlowNet {
    net: Network,
    now: SimTime,
    /// Flow id of `slots[0]`; ids are issued sequentially and the slab's
    /// consumed prefix is trimmed, so lookups are O(1) array indexing and
    /// memory is bounded by the unconsumed window, not flow history.
    base: FlowId,
    slots: VecDeque<Slot>,
    /// Ids of the [`Slot::InFlight`] flows, ascending (iteration order for
    /// every fluid pass — identical to the id-ordered map it replaces).
    live: Vec<FlowId>,
    /// Rates are stale: flows were added at the current instant without
    /// re-sharing. Recomputed lazily ([`FlowNet::flush_rates`]) before any
    /// fluid advance or wake estimate, so a batch of N starts at one instant
    /// costs one allocation pass instead of N.
    dirty: bool,
    /// Memoized [`FlowNet::next_transition`]: the network is piecewise
    /// constant between mutations, so every poll at a settled state sees the
    /// same earliest transition. `None` = stale (recompute on next use).
    next_memo: Option<Option<SimTime>>,
    /// Started flows per link: a flow counts from its start instant until it
    /// drains.
    load: LinkLoad,
    /// Re-share scratch: the started flows that share a link, and their
    /// routes, in id order.
    shared_ids: Vec<FlowId>,
    shared_routes: Vec<Route>,
    fill: MaxMinFill,
}

impl FlowNet {
    /// Build a fluid network over the same link graph as
    /// [`Network::new`]`(spec, link_bw_bytes, link_latency)`.
    pub fn new(spec: TopologySpec, link_bw_bytes: f64, link_latency: SimTime) -> FlowNet {
        let net = Network::new(spec, link_bw_bytes, link_latency);
        let num_links = net.num_links();
        FlowNet {
            net,
            now: SimTime::ZERO,
            base: 0,
            slots: VecDeque::new(),
            live: Vec::new(),
            dirty: false,
            next_memo: None,
            load: LinkLoad::new(num_links),
            shared_ids: Vec::new(),
            shared_routes: Vec::new(),
            fill: MaxMinFill::new(num_links),
        }
    }

    /// Total path latency between two nodes (same as the event model's).
    pub fn path_latency(&self, src: u32, dst: u32) -> SimTime {
        self.net.path_latency(src, dst)
    }

    /// Number of flows currently registered (in flight or not yet started).
    pub fn active(&self) -> usize {
        self.live.len()
    }

    /// Slab index of `id`, asserting the flow is known (registered and not
    /// yet consumed).
    fn index(&self, id: FlowId) -> usize {
        assert!(
            id >= self.base && id - self.base < self.slots.len() as u64,
            "poll of unknown flow {id}"
        );
        (id - self.base) as usize
    }

    /// Register a transfer of `wire_bytes` from node `src` to node `dst`,
    /// departing at `depart` (`>= now`; the transfer consumes no bandwidth
    /// before then). Returns the flow's id; track it with [`FlowNet::poll`].
    ///
    /// `src == dst` never crosses a link — callers model loopback
    /// themselves, as with [`Network::transmit`].
    pub fn start(
        &mut self,
        now: SimTime,
        depart: SimTime,
        src: u32,
        dst: u32,
        wire_bytes: u64,
    ) -> FlowId {
        assert!(src != dst, "loopback transfers do not use the flow network");
        self.settle(now);
        let id = self.base + self.slots.len() as u64;
        let (links, len) = self.net.route_arr(src, dst);
        let route = Route { links, len };
        let starts_at = depart.max(self.now);
        self.slots.push_back(Slot::InFlight(Flow {
            route,
            remaining: (wire_bytes as f64).max(1.0),
            rate: 0.0,
            starts_at,
        }));
        self.live.push(id);
        self.next_memo = None;
        if starts_at <= self.now {
            self.load.add(&route);
            // Re-share lazily: no simulated time can pass before the next
            // settle/poll flushes, and a dense collective starts thousands of
            // flows at one instant.
            self.dirty = true;
        }
        id
    }

    /// Advance the network to `now` and report the flow's status.
    pub fn poll(&mut self, now: SimTime, id: FlowId) -> FlowStatus {
        self.settle(now);
        match self.slots[self.index(id)] {
            Slot::Done(at) => FlowStatus::Done { at },
            Slot::Consumed => panic!("poll of consumed flow {id}"),
            Slot::InFlight(_) => {
                self.flush_rates();
                let wake =
                    self.next_transition().expect("in-flight flow implies a next transition");
                debug_assert!(wake > self.now);
                FlowStatus::InFlight { wake, flows: self.live.len() }
            }
        }
    }

    /// Drop a completed flow's record (after its delivery is consumed).
    /// Panics if the flow has not finished: dropping an in-flight flow would
    /// leave it in the fluid passes and its route in the link loads.
    pub fn consume(&mut self, id: FlowId) {
        let idx = self.index(id);
        assert!(matches!(self.slots[idx], Slot::Done(_)), "consume of unfinished flow {id}");
        self.slots[idx] = Slot::Consumed;
        while matches!(self.slots.front(), Some(Slot::Consumed)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Earliest future transition: the first flow start or estimated finish.
    /// O(flows) on a stale memo, O(1) on every re-poll of a settled state.
    fn next_transition(&mut self) -> Option<SimTime> {
        if let Some(memo) = self.next_memo {
            return memo;
        }
        let now = self.now;
        let base = self.base;
        let next = self
            .live
            .iter()
            .map(|&id| {
                let Slot::InFlight(f) = &self.slots[(id - base) as usize] else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at > now {
                    f.starts_at
                } else {
                    eta(now, f.remaining, f.rate)
                }
            })
            .min();
        self.next_memo = Some(next);
        next
    }

    /// Process every transition up to `to`, re-sharing bandwidth at each,
    /// then advance the fluid state to exactly `to`.
    fn settle(&mut self, to: SimTime) {
        if to <= self.now {
            // Settles are driven by engine-ordered events; a caller can at
            // most be concurrent with the last settle, never earlier. At the
            // current instant there is nothing to do: every transition (a
            // pending start or a finish eta) is strictly in the future.
            debug_assert!(to == self.now, "flow network settled backwards");
            return;
        }
        // Fluid time is about to advance: stale rates must be re-shared
        // first so the interval drains at the true allocation.
        self.flush_rates();
        while let Some(t) = self.next_transition() {
            if t > to {
                break;
            }
            self.advance_fluid(t);
            // Finishes move drained flows out; pending flows whose start is
            // this instant join the link loads (transitions are processed in
            // time order, so no pending start lies before `now`). Several
            // transitions at one instant re-share once, not once each.
            let FlowNet { ref mut live, ref mut slots, ref mut load, base, now, .. } = *self;
            live.retain(|&id| {
                let slot = &mut slots[(id - base) as usize];
                let Slot::InFlight(f) = slot else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at <= now && f.remaining <= DONE_EPS_BYTES {
                    load.remove(&f.route);
                    *slot = Slot::Done(now);
                    false
                } else {
                    if f.starts_at == now {
                        load.add(&f.route);
                    }
                    true
                }
            });
            self.reallocate();
        }
        self.advance_fluid(to);
    }

    /// Drain bytes at the current rates up to `to` (no transitions inside).
    fn advance_fluid(&mut self, to: SimTime) {
        let dt = (to - self.now).as_secs_f64();
        if dt > 0.0 {
            let FlowNet { ref live, ref mut slots, base, now, .. } = *self;
            for &id in live {
                let Slot::InFlight(f) = &mut slots[(id - base) as usize] else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at <= now {
                    f.remaining -= f.rate * dt;
                }
            }
            self.next_memo = None;
        }
        self.now = to;
    }

    /// Re-share if rates are stale ([`FlowNet::dirty`]).
    fn flush_rates(&mut self) {
        if self.dirty {
            self.reallocate();
        }
    }

    /// Recompute the max-min fair rate of every started flow: alone flows
    /// take the full link rate, the rest share through one fill over the
    /// links they touch.
    fn reallocate(&mut self) {
        self.dirty = false;
        self.next_memo = None;
        let FlowNet {
            ref net,
            ref live,
            ref mut slots,
            ref load,
            ref mut shared_ids,
            ref mut shared_routes,
            ref mut fill,
            base,
            now,
            ..
        } = *self;
        let link_bw = net.link_bw_bytes;
        shared_ids.clear();
        shared_routes.clear();
        for &id in live {
            let Slot::InFlight(f) = &mut slots[(id - base) as usize] else {
                unreachable!("live list holds only in-flight flows")
            };
            if f.starts_at > now {
                continue;
            }
            if load.alone(&f.route) {
                f.rate = link_bw;
            } else {
                shared_ids.push(id);
                shared_routes.push(f.route);
            }
        }
        if shared_ids.is_empty() {
            return;
        }
        let rates = fill.run(|_| link_bw, shared_routes);
        for (&id, &rate) in shared_ids.iter().zip(rates) {
            let Slot::InFlight(f) = &mut slots[(id - base) as usize] else {
                unreachable!("started flow is in flight")
            };
            f.rate = rate;
        }
    }
}

/// Estimated finish of a flow at constant `rate`, rounded **up** to the next
/// nanosecond so the fluid state never observes a flow before its last byte.
fn eta(now: SimTime, remaining: f64, rate: f64) -> SimTime {
    if rate <= 0.0 {
        return SimTime::MAX;
    }
    let ns = (remaining / rate * 1e9).ceil();
    if !ns.is_finite() || ns >= u64::MAX as f64 {
        return SimTime::MAX;
    }
    now + SimTime::from_nanos((ns as u64).max(1))
}

/// Progressive-filling max-min fair allocation.
///
/// `caps[l]` is link `l`'s capacity (bytes/s); `routes[f]` lists the links
/// flow `f` crosses (non-empty). Returns one fair rate per flow. Invariants
/// (property-tested in `tests/properties.rs`): no link's capacity is
/// exceeded, every flow is bottlenecked by at least one saturated link, each
/// saturated link's capacity is fully handed out, and adding a flow never
/// raises another flow's rate.
pub fn max_min_rates(caps: &[f64], routes: &[Vec<usize>]) -> Vec<f64> {
    let routes32: Vec<Vec<u32>> =
        routes.iter().map(|r| r.iter().map(|&l| l as u32).collect()).collect();
    MaxMinFill::new(caps.len()).run(|l| caps[l], &routes32).to_vec()
}

/// Progressive-filling state reused across fills, so that
/// [`FlowNet::reallocate`] allocates nothing once warm. Each fill touches
/// only the links its flows cross; between fills every `crossing` count is
/// zero.
#[derive(Clone, Debug)]
struct MaxMinFill {
    /// Capacity left per link; meaningful only on `touched` links.
    cap_left: Vec<f64>,
    /// Unfrozen flows crossing each link.
    crossing: Vec<u32>,
    /// Links with unfrozen flows.
    touched: Vec<u32>,
    /// Indices of the unfrozen flows, ascending.
    unfrozen: Vec<u32>,
    rates: Vec<f64>,
}

impl MaxMinFill {
    fn new(num_links: usize) -> MaxMinFill {
        MaxMinFill {
            cap_left: vec![0.0; num_links],
            crossing: vec![0; num_links],
            touched: Vec::new(),
            unfrozen: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// The max-min fair rate of each of `routes` (non-empty link lists)
    /// under link capacities `cap(l)`, as [`max_min_rates`] documents.
    fn run<R: AsRef<[u32]>>(&mut self, cap: impl Fn(usize) -> f64, routes: &[R]) -> &[f64] {
        let MaxMinFill { cap_left, crossing, touched, unfrozen, rates } = self;
        rates.clear();
        rates.resize(routes.len(), 0.0);
        unfrozen.clear();
        unfrozen.extend(0..routes.len() as u32);
        touched.clear();
        for r in routes {
            let r = r.as_ref();
            debug_assert!(!r.is_empty(), "flows must cross at least one link");
            for &l in r {
                if crossing[l as usize] == 0 {
                    touched.push(l);
                    cap_left[l as usize] = cap(l as usize);
                }
                crossing[l as usize] += 1;
            }
        }
        while !unfrozen.is_empty() {
            // The most contended link sets this round's fair share. `min`
            // over these finite values is exact, so visiting links in touch
            // order rather than index order yields the same bits.
            let mut share = f64::INFINITY;
            touched.retain(|&l| {
                let n = crossing[l as usize];
                if n > 0 {
                    share = share.min(cap_left[l as usize].max(0.0) / n as f64);
                }
                n > 0
            });
            // Freeze every flow crossing a link at that share. At least the
            // arg-min link's flows freeze (its computed share equals `share`
            // bit-for-bit), so each round strictly shrinks the unfrozen set.
            unfrozen.retain(|&f| {
                let route = routes[f as usize].as_ref();
                let bottlenecked = route
                    .iter()
                    .any(|&l| cap_left[l as usize].max(0.0) / crossing[l as usize] as f64 <= share);
                if bottlenecked {
                    rates[f as usize] = share;
                    for &l in route {
                        cap_left[l as usize] -= share;
                        crossing[l as usize] -= 1;
                    }
                }
                !bottlenecked
            });
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBE: f64 = 125e6;
    const LAT: SimTime = SimTime::from_micros(1);

    fn star(nodes: u32) -> FlowNet {
        FlowNet::new(TopologySpec::Star { nodes }, GBE, LAT)
    }

    fn finish(net: &mut FlowNet, id: FlowId) -> SimTime {
        let mut now = net.now;
        loop {
            match net.poll(now, id) {
                FlowStatus::Done { at } => {
                    net.consume(id);
                    return at;
                }
                FlowStatus::InFlight { wake, .. } => now = wake,
            }
        }
    }

    #[test]
    fn single_flow_gets_the_full_link() {
        let mut net = star(2);
        let id = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 125_000_000);
        let at = finish(&mut net, id);
        // 1 s of wire at full rate.
        assert_eq!(at, SimTime::from_secs(1));
        assert_eq!(net.active(), 0);
    }

    #[test]
    fn two_flows_through_one_uplink_halve_their_rates() {
        // Node 0 sends to 1 and 2 concurrently: both flows share 0's uplink.
        let mut net = star(3);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000);
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 0, 2, 12_500_000);
        // 0.1 s of wire each, at half rate => 0.2 s.
        assert_eq!(finish(&mut net, a), SimTime::from_millis(200));
        assert_eq!(finish(&mut net, b), SimTime::from_millis(200));
    }

    #[test]
    fn finishing_flow_reshapes_the_survivor() {
        // Flow A is 0→1 (short), flow B is 0→2 (long): B runs at half rate
        // until A drains, then at full rate.
        let mut net = star(3);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000); // 0.1 s of wire
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 0, 2, 25_000_000); // 0.2 s of wire
        assert_eq!(finish(&mut net, a), SimTime::from_millis(200));
        // B: 0.2 s at half rate drains 0.1 s of wire; the rest at full rate.
        assert_eq!(finish(&mut net, b), SimTime::from_millis(300));
    }

    #[test]
    fn disjoint_pairs_do_not_share() {
        let mut net = star(4);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000);
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 2, 3, 12_500_000);
        assert_eq!(finish(&mut net, a), SimTime::from_millis(100));
        assert_eq!(finish(&mut net, b), SimTime::from_millis(100));
    }

    #[test]
    fn deferred_start_consumes_no_bandwidth_early() {
        let mut net = star(3);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000); // 0.1 s of wire
                                                                           // Registered now, departs at 0.2 s — after A is gone.
        let b = net.start(SimTime::ZERO, SimTime::from_millis(200), 0, 2, 12_500_000);
        assert_eq!(finish(&mut net, a), SimTime::from_millis(100));
        assert_eq!(finish(&mut net, b), SimTime::from_millis(300));
    }

    #[test]
    fn poll_wake_is_the_next_transition() {
        let mut net = star(3);
        let _a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000);
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 2, 0, 125_000_000);
        match net.poll(SimTime::ZERO, b) {
            FlowStatus::InFlight { wake, flows } => {
                // The earliest transition is A's finish at 0.1 s, not B's own.
                assert_eq!(wake, SimTime::from_millis(100));
                assert_eq!(flows, 2);
            }
            other => panic!("expected in-flight, got {other:?}"),
        }
    }

    #[test]
    fn tree_trunk_is_the_shared_bottleneck() {
        // 8 cross-edge flows from edge 0 to edge 1 share 4 uplinks: these
        // pairs land 2 flows on each trunk member under the deterministic
        // `(src ^ dst) % uplinks` spread — the flow-model analogue of the
        // event model's `trunk_contention_limits_cross_bisection_flows`.
        let mut net = FlowNet::new(TopologySpec::tibidabo(), GBE, LAT);
        let bytes = 125_000_000; // 1 s of wire at full rate
        let pairs = [(0, 48), (1, 52), (2, 56), (3, 60), (4, 49), (5, 53), (6, 57), (7, 61)];
        let ids: Vec<FlowId> = pairs
            .iter()
            .map(|&(s, d)| net.start(SimTime::ZERO, SimTime::ZERO, s, d, bytes))
            .collect();
        for id in ids {
            // Two flows per trunk link => half rate => 2 s.
            assert_eq!(finish(&mut net, id), SimTime::from_secs(2));
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let run = || {
            let mut net = FlowNet::new(TopologySpec::tibidabo(), GBE, LAT);
            let ids: Vec<FlowId> = (0..32u32)
                .map(|i| {
                    net.start(
                        SimTime::from_micros(i as u64),
                        SimTime::from_micros(i as u64),
                        i,
                        (i * 37 + 11) % 192,
                        (i as u64 + 1) * 100_000,
                    )
                })
                .collect();
            ids.into_iter().map(|id| finish(&mut net, id).as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Every started flow's rate, bit for bit, against one global
    /// [`max_min_rates`] over all started routes. Returns how many started
    /// flows are alone on their route and how many share a link.
    fn assert_rates_match_global_fill(net: &mut FlowNet) -> (usize, usize) {
        net.flush_rates();
        let started: Vec<&Flow> = net
            .live
            .iter()
            .map(|&id| match &net.slots[(id - net.base) as usize] {
                Slot::InFlight(f) => f,
                _ => unreachable!("live list holds only in-flight flows"),
            })
            .filter(|f| f.starts_at <= net.now)
            .collect();
        let routes: Vec<Vec<usize>> = started
            .iter()
            .map(|f| f.route.as_slice().iter().map(|&l| l as usize).collect())
            .collect();
        let caps = vec![net.net.link_bw_bytes; net.net.num_links()];
        let want = max_min_rates(&caps, &routes);
        for (f, w) in started.iter().zip(want) {
            assert_eq!(f.rate.to_bits(), w.to_bits(), "route {:?} at {:?}", f.route, net.now);
        }
        let alone = started.iter().filter(|f| net.load.alone(&f.route)).count();
        (alone, started.len() - alone)
    }

    #[test]
    fn reshare_matches_the_global_fill_bit_for_bit() {
        // A seeded schedule over the Tibidabo tree: bursts of flows at one
        // instant, some departing later (rendezvous-style), between the
        // nodes of two edge switches so node links and trunk members are
        // shared. Polls land on transitions and between them.
        let mut net = FlowNet::new(TopologySpec::tibidabo(), GBE, LAT);
        let mut draw = {
            let mut i = 0u64;
            move |n: u64| {
                i += 1;
                des::mc::mix(0x5eed, i) % n
            }
        };
        let mut outstanding: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut saw_mixed = false;
        for step in 0.. {
            if step < 500 && draw(4) == 0 {
                for _ in 0..1 + draw(4) {
                    let src = draw(96) as u32;
                    let dst = (src + 1 + draw(95) as u32) % 96;
                    let depart = if draw(3) == 0 {
                        now + SimTime::from_micros(1 + draw(1_000))
                    } else {
                        now
                    };
                    outstanding.push(net.start(now, depart, src, dst, 1_000 + draw(100_000)));
                }
            } else if step >= 500 && outstanding.is_empty() {
                break;
            }
            let mut wake = SimTime::MAX;
            let mut i = 0;
            while i < outstanding.len() {
                match net.poll(now, outstanding[i]) {
                    FlowStatus::Done { .. } => net.consume(outstanding.remove(i)),
                    FlowStatus::InFlight { wake: w, .. } => {
                        wake = wake.min(w);
                        i += 1;
                    }
                }
                let (alone, shared) = assert_rates_match_global_fill(&mut net);
                saw_mixed |= alone > 0 && shared > 0;
            }
            // Next instant: the next transition, or an arbitrary earlier one.
            now = if wake == SimTime::MAX {
                now + SimTime::from_micros(1 + draw(500))
            } else {
                wake.min(now + SimTime::from_micros(1 + draw(400)))
            };
        }
        assert!(saw_mixed, "some re-share must mix alone and shared flows");
        assert_eq!(net.active(), 0);
        assert!(net.load.flows.iter().all(|&n| n == 0), "link loads leak after drain");
        assert_eq!(net.load.shared, 0);
    }

    #[test]
    #[should_panic(expected = "consume of unfinished flow")]
    fn consuming_an_unfinished_flow_panics() {
        let mut net = star(2);
        let id = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 125_000_000);
        net.consume(id);
    }
}
