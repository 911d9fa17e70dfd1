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

/// The interconnect: topology + per-link reservation state.
#[derive(Clone, Debug)]
pub struct Network {
    spec: TopologySpec,
    /// Wire bandwidth of a node link, bytes/s.
    pub link_bw_bytes: f64,
    links: Vec<Link>,
    /// Loss windows indexed by node, so a path's check scans only its two
    /// endpoints' windows. Empty until the first window is added.
    loss_windows: Vec<Vec<LossWindow>>,
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
        Network { spec, link_bw_bytes, links, loss_windows: Vec::new() }
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
            let link = &mut self.links[li as usize];
            let serial = SimTime::from_secs_f64(wire_bytes as f64 / link.bw_bytes);
            let start = head.max(link.next_free);
            link.next_free = start + serial;
            head = start + link.latency;
            bottleneck = bottleneck.max(serial);
        }
        head + bottleneck
    }

    /// Register a loss window: `node`'s links drop frames with probability
    /// `loss` for `from <= t < until`.
    pub fn add_loss_window(&mut self, window: LossWindow) {
        debug_assert!(window.node < self.nodes());
        debug_assert!((0.0..1.0).contains(&window.loss));
        if self.loss_windows.is_empty() {
            self.loss_windows.resize_with(self.nodes() as usize, Vec::new);
        }
        self.loss_windows[window.node as usize].push(window);
    }

    /// Drop probability for a frame departing at `at` on the `src -> dst`
    /// path: the worst loss window active on either endpoint (0.0 when the
    /// path is clean). Self-sends never traverse a link and never lose.
    pub fn loss_probability(&self, src: u32, dst: u32, at: SimTime) -> f64 {
        if src == dst || self.loss_windows.is_empty() {
            return 0.0;
        }
        let windows = &self.loss_windows;
        windows[src as usize]
            .iter()
            .chain(&windows[dst as usize])
            .filter(|w| w.from <= at && at < w.until)
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
