//! Cluster interconnect topologies and the contention-aware transfer model.
//!
//! Links are full duplex (one [`Link`] per direction) and carry a
//! `next_free` reservation time; a transfer reserves every link on its route
//! for its serialisation time, which is how head-of-line contention and the
//! limited bisection of the Tibidabo tree emerge in application runs.
//!
//! Transfers are modelled cut-through: the head of the message pays each
//! link's latency in sequence, and the serialisation time of the bottleneck
//! link is paid once.

use des::SimTime;
use serde::{Deserialize, Serialize};

/// A unidirectional link.
#[derive(Clone, Debug)]
pub struct Link {
    /// Bandwidth in bytes/second.
    pub bw_bytes: f64,
    /// Per-traversal latency (propagation + switch port).
    pub latency: SimTime,
    /// Earliest time the link is free for a new transfer.
    next_free: SimTime,
}

impl Link {
    fn new(bw_bytes: f64, latency: SimTime) -> Link {
        Link { bw_bytes, latency, next_free: SimTime::ZERO }
    }
}

/// Topology of the cluster interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// All nodes on one non-blocking switch.
    Star {
        /// Number of nodes.
        nodes: u32,
    },
    /// Hierarchical tree (Tibidabo, §4): `edges` edge switches, each serving
    /// `nodes_per_edge` nodes, each trunked to a core switch with
    /// `uplinks_per_edge` parallel node-rate links. With 4 edge switches of
    /// 48 nodes and 4-link trunks this gives 192 nodes, a bisection of
    /// 8 Gbit/s and a 3-switch-hop maximum — the paper's cluster.
    Tree {
        /// Number of edge switches.
        edges: u32,
        /// Nodes attached to each edge switch.
        nodes_per_edge: u32,
        /// Parallel links in each edge-to-core trunk.
        uplinks_per_edge: u32,
    },
}

impl TopologySpec {
    /// The Tibidabo interconnect: 192 nodes, 48-port GbE edge switches,
    /// 8 Gbit/s bisection, at most 3 switch hops.
    pub fn tibidabo() -> TopologySpec {
        TopologySpec::Tree { edges: 4, nodes_per_edge: 48, uplinks_per_edge: 4 }
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        match *self {
            TopologySpec::Star { nodes } => nodes,
            TopologySpec::Tree { edges, nodes_per_edge, .. } => edges * nodes_per_edge,
        }
    }
}

/// A contiguous assignment of the first `end` nodes to engine shards, used
/// by the sharded job runner: shard `s` owns the node range
/// `[starts[s], starts[s+1])` (the last shard ends at `end`). Nodes at or
/// beyond `end` host no ranks and belong to no shard.
///
/// Contiguity is what makes the shard-safety analysis tractable: a shard's
/// intra-shard routes stay on links its own nodes (and, on the tree, its own
/// whole districts) reach, so concurrent shards never race on a link
/// reservation — see [`Network::partition_isolates_links`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First node of each shard, ascending, `starts[0] == 0`.
    starts: Vec<u32>,
    /// One past the last partitioned node.
    end: u32,
}

impl Partition {
    /// Split nodes `0..used_nodes` into `shards` contiguous ranges of
    /// near-equal size (earlier shards take the remainder). Returns `None`
    /// when fewer than 2 shards are requested or there are not enough nodes
    /// to give every shard at least one.
    pub fn contiguous(used_nodes: u32, shards: u32) -> Option<Partition> {
        if shards < 2 || shards > used_nodes {
            return None;
        }
        let base = used_nodes / shards;
        let rem = used_nodes % shards;
        let mut starts = Vec::with_capacity(shards as usize);
        let mut at = 0;
        for s in 0..shards {
            starts.push(at);
            at += base + u32::from(s < rem);
        }
        debug_assert_eq!(at, used_nodes);
        Some(Partition { starts, end: used_nodes })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.starts.len() as u32
    }

    /// One past the last partitioned node.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Shard owning `node` (which must be `< end()`).
    pub fn shard_of(&self, node: u32) -> u32 {
        debug_assert!(node < self.end);
        // partition_point: number of starts <= node; the owning shard is one
        // less than that.
        (self.starts.partition_point(|&s| s <= node) - 1) as u32
    }

    /// Node range `[first, one_past_last)` of a shard.
    pub fn bounds(&self, shard: u32) -> (u32, u32) {
        let s = shard as usize;
        let first = self.starts[s];
        let last = self.starts.get(s + 1).copied().unwrap_or(self.end);
        (first, last)
    }
}

/// A time window during which one node's links drop frames.
///
/// Fault-injection layers (the `simmpi` crate's `FaultPlan`) register these
/// so the network owns the "how lossy is this path right now" question;
/// retransmission policy stays with the protocol layer above.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossWindow {
    /// Affected node (both its up and down links).
    pub node: u32,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-transmission drop probability in `[0, 1)` while active.
    pub loss: f64,
}

/// Why the reservation-order guard condemned a windowed schedule (see
/// [`Network::guard_reservations`]). Surfaced through
/// [`Network::guard_condemn_reason`] so condemned runs are diagnosable from
/// a trace or a run report instead of opaque.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondemnReason {
    /// An in-window reservation touched a link out of departure order (or in
    /// an ambiguous departure tie with another source stream): the windowed
    /// schedule is not provably identical to the serial one.
    LinkOrder,
    /// A barrier-replayed reservation (source tagged with
    /// [`GUARD_REPLAY_SOURCE`]) conflicted with an in-window one — the
    /// tightly-cascading cross-boundary case where a replay lands after a
    /// reservation the serial engine would have ordered later.
    Cascade,
    /// A wildcard receive observed mailbox arrival order, which a windowed
    /// run does not reproduce. Tripped explicitly by the MPI layer via
    /// [`Network::guard_trip`].
    WildcardRecv,
    /// Condemnation was injected on purpose ([`Network::guard_trip`] from a
    /// validation knob such as `JobSpec::condemn_at_window`), to exercise
    /// the recovery path.
    Forced,
}

impl CondemnReason {
    /// Stable snake_case name, used as the trace `reason` field.
    pub fn as_str(self) -> &'static str {
        match self {
            CondemnReason::LinkOrder => "link_order",
            CondemnReason::Cascade => "cascade",
            CondemnReason::WildcardRecv => "wildcard_recv",
            CondemnReason::Forced => "forced",
        }
    }
}

impl std::fmt::Display for CondemnReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Source-tag bit marking barrier-replay reservation streams (the sharded
/// MPI runner replays cross-shard packets at window barriers under
/// `GUARD_REPLAY_SOURCE | shard`). The guard classifies a trip caused by a
/// replay-tagged reservation as [`CondemnReason::Cascade`] rather than
/// [`CondemnReason::LinkOrder`].
pub const GUARD_REPLAY_SOURCE: u32 = 1 << 16;

/// Reservation-order guard for sharded runs. The serial engine reserves
/// links in virtual-time order of the `transmit` calls; a windowed run
/// reserves intra-shard traffic mid-window and cross-shard traffic at
/// barriers, which reproduces that order *except* when one link is touched
/// by both streams within a lookahead of each other. The guard checks the
/// property directly: every link must see non-decreasing departure times,
/// and a departure-time tie is only unambiguous within one source stream.
/// A violation means the windowed schedule is not provably identical to the
/// serial one — the caller discards the run and redoes it serially.
#[derive(Clone, Debug)]
struct ResGuard {
    /// Per-link `(depart, source)` of the most recent reservation.
    last: Vec<Option<(SimTime, u32)>>,
    /// Source tag stamped on subsequent reservations.
    source: u32,
    /// Sticky: why the first condemning reservation condemned the schedule
    /// (`None` while the schedule is still provably serial-identical).
    tripped: Option<CondemnReason>,
}

/// The interconnect: topology + per-link reservation state.
#[derive(Clone, Debug)]
pub struct Network {
    spec: TopologySpec,
    /// Wire bandwidth of a node link, bytes/s.
    pub link_bw_bytes: f64,
    links: Vec<Link>,
    loss_windows: Vec<LossWindow>,
    /// Armed only for sharded runs; `None` costs one branch per link.
    guard: Option<ResGuard>,
}

/// Index layout within `links`:
/// * node links: `2*i` = node→switch (up), `2*i + 1` = switch→node (down);
/// * trunk links (Tree only): after all node links, per edge switch
///   `uplinks_per_edge` up then `uplinks_per_edge` down.
const NODE_UP: usize = 0;
const NODE_DOWN: usize = 1;

impl Network {
    /// Build a network with `link_bw_bytes` node links and `link_latency` per
    /// traversal (switch port + cable).
    pub fn new(spec: TopologySpec, link_bw_bytes: f64, link_latency: SimTime) -> Network {
        let n = spec.nodes() as usize;
        let mut links = Vec::new();
        for _ in 0..n {
            links.push(Link::new(link_bw_bytes, link_latency)); // up
            links.push(Link::new(link_bw_bytes, link_latency)); // down
        }
        if let TopologySpec::Tree { edges, uplinks_per_edge, .. } = spec {
            for _ in 0..edges {
                for _ in 0..(2 * uplinks_per_edge) {
                    links.push(Link::new(link_bw_bytes, link_latency));
                }
            }
        }
        Network { spec, link_bw_bytes, links, loss_windows: Vec::new(), guard: None }
    }

    /// Arm the reservation-order guard (sharded runs only): from here on
    /// every [`Network::transmit`] checks that each link on the route is
    /// reserved in non-decreasing departure order, with departure ties
    /// allowed only within one [`Network::guard_source`] stream — the
    /// property that makes a windowed schedule provably identical to the
    /// serial engine's. [`Network::guard_tripped`] reports a violation.
    pub fn guard_reservations(&mut self) {
        self.guard =
            Some(ResGuard { last: vec![None; self.links.len()], source: 0, tripped: None });
    }

    /// Stamp the source stream (e.g. the shard index, or a barrier-replay
    /// tag) on subsequent reservations. No-op while the guard is unarmed.
    pub fn guard_source(&mut self, source: u32) {
        if let Some(g) = &mut self.guard {
            g.source = source;
        }
    }

    /// Condemn the schedule explicitly — for order dependences the link
    /// guard cannot see, such as wildcard receives observing mailbox
    /// arrival order ([`CondemnReason::WildcardRecv`]) or deliberate fault
    /// injection ([`CondemnReason::Forced`]). The first trip's reason wins;
    /// no-op while the guard is unarmed.
    pub fn guard_trip(&mut self, reason: CondemnReason) {
        if let Some(g) = &mut self.guard {
            g.tripped.get_or_insert(reason);
        }
    }

    /// Whether the guard saw any reservation the serial engine might have
    /// ordered differently (sticky until the guard is re-armed).
    pub fn guard_tripped(&self) -> bool {
        self.guard.as_ref().is_some_and(|g| g.tripped.is_some())
    }

    /// Why the guard condemned the schedule: the first trip's
    /// [`CondemnReason`], or `None` while clean (or unarmed).
    pub fn guard_condemn_reason(&self) -> Option<CondemnReason> {
        self.guard.as_ref().and_then(|g| g.tripped)
    }

    /// Order-insensitive fingerprint of the per-link reservation state
    /// (each link's next-free time): the part of the network that shapes
    /// every *future* transfer's timing. Window checkpoints fold this in so
    /// a recovered run can certify that its replayed link state matches the
    /// verified prefix (see `des::ckpt`).
    pub fn reservation_fingerprint(&self) -> u64 {
        let mut h = 0x7265_7356_6670u64;
        for (i, l) in self.links.iter().enumerate() {
            h = h.wrapping_add(des::mc::mix(i as u64 + 1, l.next_free.as_nanos()));
        }
        h
    }

    /// Gigabit-Ethernet network (125 MB/s links, 1.25 µs per traversal).
    pub fn gbe(spec: TopologySpec) -> Network {
        Network::new(spec, 125e6, SimTime::from_micros_f64(1.25))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.spec.nodes()
    }

    /// The topology.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Number of switch hops between two nodes (0 for self-sends).
    pub fn hops(&self, src: u32, dst: u32) -> u32 {
        if src == dst {
            return 0;
        }
        match self.spec {
            TopologySpec::Star { .. } => 1,
            TopologySpec::Tree { nodes_per_edge, .. } => {
                if src / nodes_per_edge == dst / nodes_per_edge {
                    1
                } else {
                    3
                }
            }
        }
    }

    /// Route from `src` to `dst`: the link indices inline in a fixed array
    /// plus the route length (no allocation). Every topology's routes fit
    /// in 4 links (node up, optional trunk up/down, node down) — the flow
    /// model stores one of these per flow.
    pub(crate) fn route_arr(&self, src: u32, dst: u32) -> ([u32; 4], u8) {
        debug_assert!(src < self.nodes() && dst < self.nodes());
        if src == dst {
            return ([0; 4], 0);
        }
        let up = (2 * src + NODE_UP as u32, 2 * dst + NODE_DOWN as u32);
        match self.spec {
            TopologySpec::Star { .. } => ([up.0, up.1, 0, 0], 2),
            TopologySpec::Tree { edges, nodes_per_edge, uplinks_per_edge } => {
                let se = src / nodes_per_edge;
                let de = dst / nodes_per_edge;
                if se == de {
                    return ([up.0, up.1, 0, 0], 2);
                }
                let trunk_base = 2 * (edges * nodes_per_edge);
                let per_edge = 2 * uplinks_per_edge;
                // Deterministic spread of flows across trunk members.
                let pick = (src ^ dst) % uplinks_per_edge;
                let trunk_up = trunk_base + se * per_edge + pick;
                let trunk_down = trunk_base + de * per_edge + uplinks_per_edge + pick;
                ([up.0, trunk_up, trunk_down, up.1], 4)
            }
        }
    }

    /// Number of links in the graph (node up/down links plus trunk members).
    pub(crate) fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Whether any lossy-link windows are installed (at any time). Fast
    /// paths that skip per-message loss draws must check this first.
    pub fn has_loss_windows(&self) -> bool {
        !self.loss_windows.is_empty()
    }

    /// Total path latency (no queueing, no serialisation) between two nodes.
    pub fn path_latency(&self, src: u32, dst: u32) -> SimTime {
        let (links, len) = self.route_arr(src, dst);
        links[..len as usize].iter().map(|&l| self.links[l as usize].latency).sum()
    }

    /// Transmit `wire_bytes` from `src` to `dst`, departing the source NIC at
    /// `depart`. Reserves every link on the route and returns the arrival
    /// time of the last byte at the destination NIC.
    ///
    /// `wire_bytes` should already include protocol framing (i.e. divide the
    /// payload by the protocol's wire efficiency).
    pub fn transmit(&mut self, depart: SimTime, src: u32, dst: u32, wire_bytes: u64) -> SimTime {
        if src == dst {
            return depart;
        }
        let (route, len) = self.route_arr(src, dst);
        let mut head = depart;
        let mut bottleneck = SimTime::ZERO;
        for &li in &route[..len as usize] {
            let li = li as usize;
            if let Some(g) = &mut self.guard {
                match g.last[li] {
                    Some((d, s)) if depart < d || (depart == d && s != g.source) => {
                        // Replay-tagged streams mean the conflict came from a
                        // barrier replay of cascading cross-boundary traffic.
                        let reason = if g.source & GUARD_REPLAY_SOURCE != 0 {
                            CondemnReason::Cascade
                        } else {
                            CondemnReason::LinkOrder
                        };
                        g.tripped.get_or_insert(reason);
                    }
                    _ => g.last[li] = Some((depart, g.source)),
                }
            }
            let link = &mut self.links[li];
            let serial = SimTime::from_secs_f64(wire_bytes as f64 / link.bw_bytes);
            let start = head.max(link.next_free);
            link.next_free = start + serial;
            head = start + link.latency;
            bottleneck = bottleneck.max(serial);
        }
        head + bottleneck
    }

    /// Minimum [`Network::path_latency`] over every pair of nodes in
    /// *different* shards of `p` — the conservative lookahead bound for
    /// time-windowed parallel simulation: no message emitted by one shard at
    /// time `t` can affect another shard before `t + L`, so all shards may
    /// safely simulate `L` beyond the globally earliest pending event.
    ///
    /// Exact by exhaustive scan for small node counts; for larger networks a
    /// structural shortcut picks a representative minimal pair (valid because
    /// the constructor gives every link the same latency, so path latency is
    /// a function of hop count alone — asserted in debug builds). The
    /// property test in `tests/properties.rs` pins both paths against each
    /// other and against the lower-bound property.
    ///
    /// # Panics
    ///
    /// The partition must have at least two shards and lie within this
    /// network (`p.end() <= nodes()`).
    pub fn min_cross_partition_latency(&self, p: &Partition) -> SimTime {
        assert!(p.shards() >= 2, "lookahead needs at least two shards");
        assert!(p.end() <= self.nodes(), "partition exceeds the network");
        // No pair of distinct nodes routes over fewer than two links (one up,
        // one down), so any two-link cross pair is globally minimal and the
        // scan can stop early.
        let two_hop_floor = self.links[NODE_UP].latency + self.links[NODE_DOWN].latency;
        if p.end() <= 512 {
            let mut best: Option<SimTime> = None;
            'scan: for a in 0..p.end() {
                let sa = p.shard_of(a);
                for b in 0..p.end() {
                    if a == b || p.shard_of(b) == sa {
                        continue;
                    }
                    let l = self.path_latency(a, b);
                    best = Some(best.map_or(l, |x| x.min(l)));
                    if best == Some(two_hop_floor) {
                        break 'scan;
                    }
                }
            }
            return best.expect("a >=2-shard partition always has a cross pair");
        }
        // Structural shortcut (uniform link latency): the minimum is achieved
        // by an adjacent pair across a shard boundary, preferring a boundary
        // that splits a tree district (2-hop route) over one between
        // districts (4-hop route).
        debug_assert!(
            self.links.iter().all(|l| l.latency == self.links[0].latency),
            "structural lookahead shortcut assumes uniform link latency"
        );
        let mut best: Option<SimTime> = None;
        for s in 1..p.shards() {
            // The first node of shard s and its left neighbour (shard s-1)
            // form a genuine adjacent cross pair.
            let boundary = p.bounds(s).0;
            let l = self.path_latency(boundary - 1, boundary);
            best = Some(best.map_or(l, |x| x.min(l)));
        }
        best.expect("a >=2-shard partition always has a boundary")
    }

    /// Whether `p` isolates intra-shard link reservations: no link is ever
    /// reserved by in-window transmits of two different shards, so shards may
    /// run concurrently between barriers without racing on `next_free` state.
    ///
    /// * Star: always true — an intra-shard route touches only the up/down
    ///   links of its own (shard-owned) endpoints.
    /// * Tree: a route inside one district touches only endpoint links; a
    ///   cross-district route additionally reserves trunk links of both
    ///   districts. So the partition is safe iff every district is either
    ///   owned outright by one shard, or shared only by shards that lie
    ///   entirely inside it (whose routes then never reach a trunk).
    pub fn partition_isolates_links(&self, p: &Partition) -> bool {
        let TopologySpec::Tree { nodes_per_edge, .. } = self.spec else {
            return true;
        };
        let npe = nodes_per_edge;
        let districts = p.end().div_ceil(npe);
        for d in 0..districts {
            let lo = d * npe;
            let hi = ((d + 1) * npe).min(p.end());
            let s0 = p.shard_of(lo);
            let s1 = p.shard_of(hi - 1);
            if s0 == s1 {
                continue; // district owned by (at most) one shard
            }
            // Shared district: every toucher must live entirely inside it.
            for s in s0..=s1 {
                let (a, b) = p.bounds(s);
                if a < lo || b > hi {
                    return false;
                }
            }
        }
        true
    }

    /// Register a loss window: `node`'s links drop frames with probability
    /// `loss` for `from <= t < until`.
    pub fn add_loss_window(&mut self, window: LossWindow) {
        debug_assert!(window.node < self.nodes());
        debug_assert!((0.0..1.0).contains(&window.loss));
        self.loss_windows.push(window);
    }

    /// Drop probability for a frame departing at `at` on the `src -> dst`
    /// path: the worst loss window active on either endpoint (0.0 when the
    /// path is clean). Self-sends never traverse a link and never lose.
    pub fn loss_probability(&self, src: u32, dst: u32, at: SimTime) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.loss_windows
            .iter()
            .filter(|w| (w.node == src || w.node == dst) && w.from <= at && at < w.until)
            .map(|w| w.loss)
            .fold(0.0, f64::max)
    }

    /// Reset all link reservations (between independent experiments).
    /// Loss windows are part of the experiment definition and persist.
    pub fn reset(&mut self) {
        for l in &mut self.links {
            l.next_free = SimTime::ZERO;
        }
    }

    /// Bisection bandwidth in bytes/s (sum of link rates crossing the
    /// narrowest cut splitting the nodes in half).
    pub fn bisection_bytes(&self) -> f64 {
        match self.spec {
            TopologySpec::Star { nodes } => (nodes / 2) as f64 * self.link_bw_bytes,
            TopologySpec::Tree { edges, uplinks_per_edge, .. } => {
                (edges / 2) as f64 * uplinks_per_edge as f64 * self.link_bw_bytes
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tibidabo_spec_matches_section_4() {
        let spec = TopologySpec::tibidabo();
        assert_eq!(spec.nodes(), 192);
        let net = Network::gbe(spec);
        // "a bisection bandwidth of 8 Gb/s"
        assert!((net.bisection_bytes() - 8e9 / 8.0).abs() < 1.0);
        // "a maximum latency of three hops"
        let mut max_hops = 0;
        for (s, d) in [(0u32, 1u32), (0, 47), (0, 48), (0, 191)] {
            max_hops = max_hops.max(net.hops(s, d));
        }
        assert_eq!(max_hops, 3);
        assert_eq!(net.hops(5, 5), 0);
        assert_eq!(net.hops(0, 47), 1); // same edge switch
    }

    #[test]
    fn self_send_is_free() {
        let mut net = Network::gbe(TopologySpec::Star { nodes: 4 });
        let t0 = SimTime::from_micros(10);
        assert_eq!(net.transmit(t0, 2, 2, 1 << 20), t0);
    }

    #[test]
    fn uncontended_transfer_time_is_latency_plus_serialisation() {
        let mut net = Network::gbe(TopologySpec::Star { nodes: 2 });
        let arrival = net.transmit(SimTime::ZERO, 0, 1, 125_000); // 1 ms of wire
                                                                  // 2 × 1.25 µs latency + 1 ms serialisation.
        let expect = SimTime::from_micros_f64(2.5) + SimTime::from_millis(1);
        assert_eq!(arrival, expect);
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_up_link() {
        let mut net = Network::gbe(TopologySpec::Star { nodes: 3 });
        let a1 = net.transmit(SimTime::ZERO, 0, 1, 125_000);
        // Second message from the same source departs at t=0 too: it must
        // wait for the first to clear the up link.
        let a2 = net.transmit(SimTime::ZERO, 0, 2, 125_000);
        assert!(a2 > a1);
        assert!(a2 >= SimTime::from_millis(2));
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut net = Network::gbe(TopologySpec::Star { nodes: 4 });
        let a1 = net.transmit(SimTime::ZERO, 0, 1, 125_000);
        let a2 = net.transmit(SimTime::ZERO, 2, 3, 125_000);
        assert_eq!(a1, a2);
    }

    #[test]
    fn cross_edge_routes_pay_more_latency() {
        let net = Network::gbe(TopologySpec::tibidabo());
        let near = net.path_latency(0, 1);
        let far = net.path_latency(0, 100);
        assert!(far > near);
        // 4 link traversals vs 2.
        assert_eq!(far.as_nanos(), 2 * near.as_nanos());
    }

    #[test]
    fn trunk_contention_limits_cross_bisection_flows() {
        // 8 concurrent cross-edge flows from edge 0 to edge 1 share 4 uplinks.
        let mut net = Network::gbe(TopologySpec::tibidabo());
        let bytes = 1_250_000u64; // 10 ms serialisation each
        let mut last = SimTime::ZERO;
        for i in 0..8u32 {
            let arr = net.transmit(SimTime::ZERO, i, 48 + i, bytes);
            last = last.max(arr);
        }
        // With 4 uplinks, 8 flows need at least two serialisation rounds.
        assert!(last >= SimTime::from_millis(20), "{last}");
        net.reset();
        // After reset, a single flow is fast again.
        let arr = net.transmit(SimTime::ZERO, 0, 48, bytes);
        assert!(arr < SimTime::from_millis(11));
    }

    #[test]
    fn loss_windows_cover_either_endpoint_within_their_span() {
        let mut net = Network::gbe(TopologySpec::Star { nodes: 4 });
        assert_eq!(net.loss_probability(0, 1, SimTime::ZERO), 0.0);
        net.add_loss_window(LossWindow {
            node: 1,
            from: SimTime::from_millis(10),
            until: SimTime::from_millis(20),
            loss: 0.25,
        });
        // Active only inside the window, on paths touching node 1.
        assert_eq!(net.loss_probability(0, 1, SimTime::from_millis(9)), 0.0);
        assert_eq!(net.loss_probability(0, 1, SimTime::from_millis(10)), 0.25);
        assert_eq!(net.loss_probability(1, 3, SimTime::from_millis(15)), 0.25);
        assert_eq!(net.loss_probability(0, 1, SimTime::from_millis(20)), 0.0);
        assert_eq!(net.loss_probability(0, 2, SimTime::from_millis(15)), 0.0);
        // Self-sends never lose, and overlapping windows take the max.
        assert_eq!(net.loss_probability(1, 1, SimTime::from_millis(15)), 0.0);
        net.add_loss_window(LossWindow {
            node: 1,
            from: SimTime::from_millis(12),
            until: SimTime::from_millis(18),
            loss: 0.75,
        });
        assert_eq!(net.loss_probability(0, 1, SimTime::from_millis(15)), 0.75);
    }

    #[test]
    fn partition_contiguous_splits_evenly() {
        let p = Partition::contiguous(10, 4).unwrap();
        assert_eq!(p.shards(), 4);
        assert_eq!(p.bounds(0), (0, 3));
        assert_eq!(p.bounds(1), (3, 6));
        assert_eq!(p.bounds(2), (6, 8));
        assert_eq!(p.bounds(3), (8, 10));
        for n in 0..10 {
            let s = p.shard_of(n);
            let (a, b) = p.bounds(s);
            assert!(a <= n && n < b, "node {n} misplaced in shard {s}");
        }
        assert!(Partition::contiguous(4, 1).is_none());
        assert!(Partition::contiguous(3, 4).is_none());
    }

    #[test]
    fn lookahead_is_two_hops_on_a_star() {
        let net = Network::gbe(TopologySpec::Star { nodes: 64 });
        let p = Partition::contiguous(64, 4).unwrap();
        assert_eq!(net.min_cross_partition_latency(&p), SimTime::from_micros_f64(2.5));
    }

    #[test]
    fn lookahead_matches_partition_shape_on_the_tree() {
        let net = Network::gbe(TopologySpec::tibidabo());
        // District-aligned halves: every cross pair is cross-district, 4 hops.
        let aligned = Partition::contiguous(192, 2).unwrap();
        assert_eq!(net.min_cross_partition_latency(&aligned), SimTime::from_micros_f64(5.0));
        assert!(net.partition_isolates_links(&aligned));
        // A split inside district 0: the boundary pair shares an edge switch.
        let split = Partition::contiguous(4, 2).unwrap();
        assert_eq!(net.min_cross_partition_latency(&split), SimTime::from_micros_f64(2.5));
        assert!(net.partition_isolates_links(&split));
        // 3 shards over 192 nodes put boundaries mid-district while other
        // shards also touch those districts: not link-isolated.
        let skew = Partition::contiguous(192, 3).unwrap();
        assert!(!net.partition_isolates_links(&skew));
    }

    #[test]
    fn lookahead_is_a_lower_bound_on_cross_pairs() {
        for (spec, used, shards) in [
            (TopologySpec::Star { nodes: 16 }, 16u32, 3u32),
            (TopologySpec::tibidabo(), 100, 2),
            (TopologySpec::tibidabo(), 192, 4),
        ] {
            let net = Network::gbe(spec);
            let p = Partition::contiguous(used, shards).unwrap();
            let la = net.min_cross_partition_latency(&p);
            let mut seen_equal = false;
            for a in 0..used {
                for b in 0..used {
                    if a != b && p.shard_of(a) != p.shard_of(b) {
                        let l = net.path_latency(a, b);
                        assert!(la <= l, "lookahead {la} exceeds path {a}->{b} = {l}");
                        seen_equal |= l == la;
                    }
                }
            }
            assert!(seen_equal, "lookahead must be attained by some cross pair");
        }
    }

    #[test]
    fn transfers_never_arrive_before_departure() {
        let mut net = Network::gbe(TopologySpec::tibidabo());
        let mut t = SimTime::ZERO;
        for i in 0..50u32 {
            let src = i % 192;
            let dst = (i * 37 + 11) % 192;
            let arr = net.transmit(t, src, dst, (i as u64 + 1) * 1000);
            if src != dst {
                assert!(arr > t);
            }
            t += SimTime::from_micros(10);
        }
    }
}
