//! Cluster machine models: the Tibidabo prototype (§4) and what-if variants.

use netsim::{ProtocolModel, TopologySpec};
use simmpi::JobSpec;
use soc_arch::Platform;
use soc_power::PowerModel;

/// A complete cluster: homogeneous nodes + interconnect + power model.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Machine name.
    pub name: &'static str,
    /// Node platform.
    pub platform: Platform,
    /// Per-node wall power model.
    pub node_power: PowerModel,
    /// Interconnect topology.
    pub topology: TopologySpec,
    /// Default protocol stack.
    pub proto: ProtocolModel,
    /// Number of Ethernet switches.
    pub switches: u32,
    /// Power per switch, watts.
    pub switch_power_w: f64,
}

impl Machine {
    /// Tibidabo (§4): "the first large-scale cluster to be deployed using
    /// multi-core ARM-based SoCs. Tibidabo has 192 nodes, each with an
    /// Nvidia Tegra 2 SoC on a SECO Q7 module... a hierarchical 1 GbE
    /// network built with 48-port 1 GbE switches, giving a bisection
    /// bandwidth of 8 Gb/s and a maximum latency of three hops."
    pub fn tibidabo() -> Machine {
        Machine {
            name: "Tibidabo",
            platform: Platform::tegra2(),
            node_power: PowerModel::tibidabo_node(),
            topology: TopologySpec::tibidabo(),
            proto: ProtocolModel::tcp_ip(),
            switches: 5, // 4 edge + 1 core
            switch_power_w: 25.0,
        }
    }

    /// A Tibidabo-like machine scaled past the prototype's 192 nodes: the
    /// same Tegra-2 node, TCP/IP stack, and hierarchical 48-port GbE tree,
    /// with enough edge switches for `nodes` (rounded up to a full edge).
    /// This is the §7 thought experiment — "what if Tibidabo were bigger" —
    /// and what `tibidabo_hpl --ranks N` uses for N > 192.
    pub fn tibidabo_scaled(nodes: u32) -> Machine {
        let edges = nodes.div_ceil(48).max(1);
        Machine {
            name: "Tibidabo (scaled)",
            platform: Platform::tegra2(),
            node_power: PowerModel::tibidabo_node(),
            topology: TopologySpec::Tree { edges, nodes_per_edge: 48, uplinks_per_edge: 4 },
            proto: ProtocolModel::tcp_ip(),
            switches: edges + 1,
            switch_power_w: 25.0,
        }
    }

    /// A hypothetical Tibidabo successor built from Arndale-class nodes
    /// (Exynos 5250), as §3's results invite.
    pub fn arndale_cluster(nodes: u32) -> Machine {
        Machine {
            name: "Arndale cluster (what-if)",
            platform: Platform::exynos5250(),
            node_power: PowerModel::exynos5250_devkit(),
            topology: TopologySpec::Star { nodes },
            proto: ProtocolModel::open_mx(),
            switches: nodes.div_ceil(48),
            switch_power_w: 25.0,
        }
    }

    /// A projected ARMv8 cluster (§6.3 / §7: the "descendants of today's
    /// mobile SoCs").
    pub fn armv8_cluster(nodes: u32) -> Machine {
        Machine {
            name: "ARMv8 cluster (projected)",
            platform: Platform::armv8_projection(),
            node_power: PowerModel::exynos5250_devkit(),
            topology: TopologySpec::Star { nodes },
            proto: ProtocolModel::open_mx(),
            switches: nodes.div_ceil(48),
            switch_power_w: 25.0,
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.topology.nodes()
    }

    /// A `simmpi` job spec for `ranks` ranks on this machine at the node's
    /// maximum frequency, with default run options.
    pub fn job(&self, ranks: u32) -> JobSpec {
        JobSpec::new(self.platform.clone(), ranks)
            .with_proto(self.proto)
            .with_topology(self.topology)
    }

    /// Peak FP64 GFLOPS of `n` nodes at fmax.
    pub fn peak_gflops(&self, n: u32) -> f64 {
        self.platform.soc.peak_gflops_max() * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tibidabo_matches_section_4() {
        let m = Machine::tibidabo();
        assert_eq!(m.nodes(), 192);
        assert_eq!(m.platform.id, "tegra2");
        // Peak of 96 nodes = 192 GFLOPS (the 51%-of-peak denominator).
        assert!((m.peak_gflops(96) - 192.0).abs() < 1e-9);
    }

    #[test]
    fn job_spec_uses_machine_defaults() {
        let m = Machine::tibidabo();
        let j = m.job(96);
        assert_eq!(j.ranks, 96);
        assert_eq!(j.proto.name, "TCP/IP");
        assert_eq!(j.topology, TopologySpec::tibidabo());
        assert!(j.validate().is_ok());
        // A machine describes hardware: its jobs run with default options.
        assert_eq!(j.opts.net_model, netsim::NetModel::Event);
        assert!(j.opts.event_budget.is_none() && j.opts.tracer.is_none());
    }

    #[test]
    fn scaled_tibidabo_covers_requested_nodes() {
        let m = Machine::tibidabo_scaled(1024);
        assert!(m.nodes() >= 1024);
        assert_eq!(m.platform.id, "tegra2");
        assert_eq!(m.proto.name, "TCP/IP");
        assert!(m.job(1024).validate().is_ok());
        // At exactly the prototype's size the topology matches the real one.
        assert_eq!(Machine::tibidabo_scaled(192).topology, TopologySpec::tibidabo());
    }

    #[test]
    fn what_if_machines_are_buildable() {
        assert_eq!(Machine::arndale_cluster(64).nodes(), 64);
        assert_eq!(Machine::armv8_cluster(32).platform.id, "armv8-4c-2ghz");
    }
}
