//! `Network::loss_probability` looks only at the windows of a path's two
//! endpoints. Over random windows — overlapping ones, zero-length ones,
//! several per node — it must return exactly what a scan of every window
//! returns, at every window's `from` and `until` edge, and 0 on a path
//! from a node to itself.

use des::SimTime;
use netsim::{LossWindow, Network, TopologySpec};
use proptest::prelude::*;

fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// The worst window active on either endpoint, found by scanning them all.
fn scan_all(windows: &[LossWindow], src: u32, dst: u32, at: SimTime) -> f64 {
    if src == dst {
        return 0.0;
    }
    windows
        .iter()
        .filter(|w| (w.node == src || w.node == dst) && w.from <= at && at < w.until)
        .map(|w| w.loss)
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn per_node_lookup_matches_a_scan_of_every_window(
        nodes in 3u32..7,
        raw in proptest::collection::vec((0u32..64, 0u64..40, 0u64..20, 0.0..1.0f64), 0..24),
        probes in proptest::collection::vec((0u32..64, 0u32..64, 0u64..70), 1..16),
    ) {
        let windows: Vec<LossWindow> = raw
            .iter()
            .map(|&(node, from, len, loss)| LossWindow {
                node: node % nodes,
                from: us(from),
                until: us(from + len),
                loss,
            })
            .collect();
        let mut net = Network::gbe(TopologySpec::Star { nodes });
        for w in &windows {
            net.add_loss_window(*w);
        }
        prop_assert_eq!(net.has_loss_windows(), !windows.is_empty());
        let mut instants: Vec<SimTime> = probes.iter().map(|&(_, _, t)| us(t)).collect();
        for w in &windows {
            instants.extend([w.from, w.until]);
        }
        for &(s, d, _) in &probes {
            let (src, dst) = (s % nodes, d % nodes);
            for &at in &instants {
                prop_assert_eq!(net.loss_probability(src, dst, at), scan_all(&windows, src, dst, at));
                prop_assert_eq!(net.loss_probability(dst, src, at), scan_all(&windows, dst, src, at));
                prop_assert_eq!(net.loss_probability(src, src, at), 0.0);
            }
        }
    }
}
