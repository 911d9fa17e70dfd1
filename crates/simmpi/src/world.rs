//! The shared state of a simulated MPI job: rank mailboxes, the network, and
//! message-matching/rendezvous machinery.
//!
//! Borrow discipline: the world lives on the engine's one thread, shared by
//! `Rc`, and its state is a `RefCell` borrowed only between two yields of
//! the same process (never across `advance`/`park`). Because the DES engine
//! runs exactly one process at a time the mailbox protocol is race-free —
//! e.g. a receiver that publishes a pending-receive and then parks cannot
//! be observed "pending but not yet parked" by any sender.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use des::{FaultKind, FaultPlan, Pid, SimRng, SimTime, Tracer};
use netsim::{EndpointModel, FlowNet, LossWindow, NetModel, Network, ProtocolModel, TopologySpec};
use soc_arch::Platform;

use crate::error::{JobSpecError, MpiFault};
use crate::payload::Msg;

/// Per-frame overhead added to every wire transfer (Ethernet header + FCS +
/// IFG, amortised).
const FRAME_BYTES: u64 = 64;

/// Specification of a simulated MPI job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Node platform (homogeneous cluster).
    pub platform: Platform,
    /// CPU frequency of every node, GHz.
    pub freq_ghz: f64,
    /// Protocol stack (TCP/IP or Open-MX).
    pub proto: ProtocolModel,
    /// Interconnect topology.
    pub topology: TopologySpec,
    /// Number of MPI ranks.
    pub ranks: u32,
    /// Ranks placed on each node (1 = one rank per node using all cores).
    pub ranks_per_node: u32,
    /// Scheduled faults injected into this run ([`FaultPlan::none`] = clean).
    pub fault_plan: FaultPlan,
    /// Retransmission and timeout policy for lossy/dead links.
    pub retry: RetryPolicy,
    /// Optional logical→physical node mapping. Lets a checkpoint/restart
    /// driver re-run a job on surviving nodes plus spares without changing
    /// rank numbering. `None` = identity.
    pub node_map: Option<Vec<u32>>,
    /// How the job runs: network model, event budget and tracer.
    pub opts: RunOpts,
}

/// How a job is run, as opposed to what it runs: the network model its
/// transfers use, a watchdog budget on dispatched engine events, and the
/// tracer its engine reports to. `repro` builds one from its flags
/// (`--net-model`, `--max-cell-events`, `--trace`) and every job of the run
/// carries a copy on its [`JobSpec`]. The default is the event model, no
/// budget and no tracer.
#[derive(Clone, Default)]
pub struct RunOpts {
    /// Which network model transfers use.
    pub net_model: NetModel,
    /// Watchdog budget on dispatched engine events; exhaustion surfaces as
    /// [`MpiFault::Engine`]`(`[`SimError::EventBudgetExhausted`]`)`.
    /// `None` is unlimited.
    ///
    /// [`SimError::EventBudgetExhausted`]: des::SimError::EventBudgetExhausted
    pub event_budget: Option<u64>,
    /// Observer installed on the job's engine. Tracing never changes a
    /// result.
    pub tracer: Option<Arc<dyn Tracer>>,
}

/// Prints the tracer as its presence alone: a tracer has no `Debug`, and
/// tracing changes no result, so two specs that differ only in their
/// tracer's identity describe the same job.
impl std::fmt::Debug for RunOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOpts")
            .field("net_model", &self.net_model)
            .field("event_budget", &self.event_budget)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

/// Message retransmission and receive-timeout policy.
///
/// On a lossy link a transmission may be dropped; the sender backs off
/// `retrans_base * 2^min(attempt-1, 6)` and retries, giving up (and failing
/// the run with [`MpiFault::Timeout`]) after `max_retries` retransmissions.
/// `recv_timeout`, when set, bounds how long a receive waits for a matching
/// message before failing the run — this is what turns a dead peer into a
/// typed error instead of a deadlock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Base retransmission delay (doubled each attempt, capped at 64x).
    pub retrans_base: SimTime,
    /// Maximum retransmissions per message before giving up.
    pub max_retries: u32,
    /// Receive-side timeout; `None` waits forever (seed behaviour).
    pub recv_timeout: Option<SimTime>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { retrans_base: SimTime::from_micros(200), max_retries: 12, recv_timeout: None }
    }
}

impl JobSpec {
    /// A job of `ranks` single-rank nodes on a star-switched network with
    /// the platform's defaults (fmax, TCP/IP).
    pub fn new(platform: Platform, ranks: u32) -> JobSpec {
        let freq = platform.soc.fmax_ghz;
        JobSpec {
            platform,
            freq_ghz: freq,
            proto: ProtocolModel::tcp_ip(),
            topology: TopologySpec::Star { nodes: ranks },
            ranks,
            ranks_per_node: 1,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            node_map: None,
            opts: RunOpts::default(),
        }
    }

    /// Builder: set the protocol.
    pub fn with_proto(mut self, proto: ProtocolModel) -> JobSpec {
        self.proto = proto;
        self
    }

    /// Builder: set the CPU frequency (GHz).
    pub fn with_freq(mut self, f: f64) -> JobSpec {
        self.freq_ghz = f;
        self
    }

    /// Builder: set the topology.
    pub fn with_topology(mut self, t: TopologySpec) -> JobSpec {
        self.topology = t;
        self
    }

    /// Builder: set ranks per node.
    pub fn with_ranks_per_node(mut self, rpn: u32) -> JobSpec {
        assert!(rpn >= 1);
        self.ranks_per_node = rpn;
        self
    }

    /// Builder: set the fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> JobSpec {
        self.fault_plan = plan;
        self
    }

    /// Builder: set the retry/timeout policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> JobSpec {
        self.retry = retry;
        self
    }

    /// Builder: set a logical→physical node mapping (for restarting on
    /// spare nodes after a crash).
    pub fn with_node_map(mut self, map: Vec<u32>) -> JobSpec {
        self.node_map = Some(map);
        self
    }

    /// Builder: set how the job runs.
    pub fn with_opts(mut self, opts: RunOpts) -> JobSpec {
        self.opts = opts;
        self
    }

    /// Builder: bound this job to at most `budget` dispatched engine events
    /// (a simulated-event watchdog; `validate` rejects `Some(0)`).
    pub fn with_event_budget(mut self, budget: Option<u64>) -> JobSpec {
        self.opts.event_budget = budget;
        self
    }

    /// Builder: set the network model (`None` is the event model).
    pub fn with_net_model(mut self, model: Option<NetModel>) -> JobSpec {
        self.opts.net_model = model.unwrap_or_default();
        self
    }

    /// Logical node hosting a rank (before any `node_map` remapping).
    pub fn logical_node_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_node
    }

    /// Physical node hosting a rank: the logical node pushed through
    /// `node_map` when one is set. Fault plans and the network address
    /// physical nodes.
    pub fn node_of(&self, rank: u32) -> u32 {
        let logical = self.logical_node_of(rank);
        match &self.node_map {
            Some(map) => map.get(logical as usize).copied().unwrap_or(logical),
            None => logical,
        }
    }

    /// Cores available to each rank.
    pub fn cores_per_rank(&self) -> u32 {
        (self.platform.soc.cores / self.ranks_per_node).max(1)
    }

    /// Validate the spec: enough nodes, a coherent node map, and a sane
    /// retry policy.
    pub fn validate(&self) -> Result<(), JobSpecError> {
        if self.ranks == 0 {
            return Err(JobSpecError::NoRanks);
        }
        if self.ranks_per_node == 0 {
            return Err(JobSpecError::NoRanksPerNode);
        }
        let nodes_needed = self.ranks.div_ceil(self.ranks_per_node);
        let available = self.topology.nodes();
        if self.node_map.is_none() && nodes_needed > available {
            return Err(JobSpecError::TooManyNodes { needed: nodes_needed, available });
        }
        if let Some(map) = &self.node_map {
            if map.len() != nodes_needed as usize {
                return Err(JobSpecError::NodeMapLength {
                    got: map.len(),
                    expected: nodes_needed as usize,
                });
            }
            let mut seen = vec![false; available as usize];
            for &node in map {
                if node >= available {
                    return Err(JobSpecError::NodeMapOutOfRange { node, available });
                }
                if std::mem::replace(&mut seen[node as usize], true) {
                    return Err(JobSpecError::NodeMapDuplicate { node });
                }
            }
        }
        if self.retry.max_retries > 0 && self.retry.retrans_base == SimTime::ZERO {
            return Err(JobSpecError::BadRetryPolicy {
                reason: "retrans_base must be positive when retries are enabled",
            });
        }
        if self.retry.recv_timeout == Some(SimTime::ZERO) {
            return Err(JobSpecError::BadRetryPolicy {
                reason: "recv_timeout must be positive when set",
            });
        }
        if self.opts.event_budget == Some(0) {
            return Err(JobSpecError::BadEventBudget);
        }
        Ok(())
    }
}

/// How an in-flight message is delivered.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Delivery {
    /// Eager: data is on the wire; consumable once `available_at` passes.
    Eager {
        /// Arrival time of the last byte at the destination NIC.
        available_at: SimTime,
    },
    /// Rendezvous: only the RTS has been sent; the sender is parked waiting
    /// for the receiver to clear the transfer.
    Rendezvous {
        /// Parked sender to wake when the transfer completes.
        sender_pid: Pid,
        /// Arrival time of the RTS at the receiver.
        rts_arrival: SimTime,
    },
    /// Flow model: the data rides a fluid flow in [`WorldState::flows`];
    /// consumable once the flow completes (the receiver polls it).
    Flow {
        /// The flow's id in the job's [`FlowNet`].
        id: netsim::FlowId,
        /// Endpoint time past the flow's network completion: path latency
        /// plus any endpoint serialisation slower than the wire.
        extra: SimTime,
    },
}

/// An in-flight or delivered message in a rank's mailbox.
#[derive(Debug)]
pub(crate) struct InMsg {
    pub src: u32,
    pub tag: u32,
    pub msg: Msg,
    pub delivery: Delivery,
}

/// Receive filter: `None` matches any source/tag.
pub(crate) type RecvFilter = (Option<u32>, Option<u32>);

pub(crate) fn matches(filter: &RecvFilter, src: u32, tag: u32) -> bool {
    filter.0.is_none_or(|s| s == src) && filter.1.is_none_or(|t| t == tag)
}

#[derive(Debug, Default)]
pub(crate) struct RankState {
    pub pid: Option<Pid>,
    pub mailbox: VecDeque<InMsg>,
    /// Set while the rank is parked inside `recv` waiting for a match.
    pub pending: Option<RecvFilter>,
}

/// One rank's accumulated busy time, kept out of the world state: only the
/// rank's own process adds to it, and it is read only once every process
/// has finished, when the run is collected.
#[derive(Debug, Default)]
pub(crate) struct BusyTally(Cell<SimTime>);

impl BusyTally {
    pub(crate) fn add(&self, dt: SimTime) {
        self.0.set(self.0.get() + dt);
    }

    pub(crate) fn get(&self) -> SimTime {
        self.0.get()
    }
}

/// A rank's busy-time tallies.
#[derive(Debug, Default)]
pub(crate) struct RankBusy {
    /// Accumulated modelled compute time.
    pub compute: BusyTally,
    /// Accumulated communication (protocol CPU) time.
    pub comm: BusyTally,
}

/// Aggregate job statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub payload_bytes: u64,
    /// Transmissions repeated because a lossy link dropped the frame.
    pub retransmits: u64,
}

pub(crate) struct WorldState {
    pub net: Network,
    /// The fluid network, present iff the job runs under [`NetModel::Flow`].
    pub flows: Option<FlowNet>,
    pub ranks: Vec<RankState>,
    pub stats: NetStats,
    /// First injected fault that surfaced; `run_mpi` reports this instead of
    /// the engine's generic unwind error.
    pub fault: Option<MpiFault>,
    /// Deterministic stream for loss draws (one per run, seeded from the
    /// fault plan so clean plans share no state with faulty ones).
    pub rng: SimRng,
}

/// The shared world of one job.
pub struct World {
    pub(crate) spec: JobSpec,
    /// Timing-cache fingerprint of the job's SoC, computed once so the hot
    /// per-rank `compute` path avoids re-fingerprinting the platform model.
    pub(crate) soc_fp: u64,
    /// Per-job protocol constants, computed once instead of per message:
    /// sender and receiver per-message CPU time, the endpoint per-byte
    /// injection/retirement rate (bytes/s: the CPU copy stage and the attach
    /// path in series with the DMA pipeline), and the per-byte serialisation
    /// the endpoint stages add beyond the wire's own (`None` when the wire
    /// is the bottleneck).
    pub(crate) send_overhead: SimTime,
    pub(crate) recv_overhead: SimTime,
    cpu_stage_rate: f64,
    extra_secs_per_byte: Option<f64>,
    /// Whether the fault plan installed any loss windows. They are only ever
    /// added here, so senders can skip the per-message loss check (which
    /// borrows the world state) on lossless jobs.
    pub(crate) lossy: bool,
    /// Per-rank busy-time tallies, indexed by rank.
    pub(crate) busy: Vec<RankBusy>,
    pub(crate) state: RefCell<WorldState>,
}

impl World {
    pub(crate) fn new(spec: JobSpec) -> World {
        spec.validate().expect("invalid job spec");
        let soc_fp = soc_arch::soc_fingerprint(&spec.platform.soc);
        let ep = EndpointModel::for_platform(&spec.platform, spec.freq_ghz);
        let link_bw = spec.platform.eth_mbit.max(1000) as f64 / 8.0 * 1e6; // cluster NICs are 1GbE
        let link_latency = SimTime::from_micros_f64(1.25);
        let flows = (spec.opts.net_model == NetModel::Flow)
            .then(|| FlowNet::new(spec.topology, link_bw, link_latency));
        let mut net = Network::new(spec.topology, link_bw, link_latency);
        // Link-degradation faults live in the network layer as loss windows;
        // senders consult them per transmission attempt.
        for ev in spec.fault_plan.events() {
            if let FaultKind::LinkDegrade { node, loss, duration } = ev.kind {
                if node < spec.topology.nodes() {
                    net.add_loss_window(LossWindow {
                        node,
                        from: ev.at,
                        until: ev.at + duration,
                        loss,
                    });
                }
            }
        }
        let proto = &spec.proto;
        let cpu = if proto.per_byte_cpu_ns > 0.0 {
            ep.scalar_speed * 1e9 / proto.per_byte_cpu_ns
        } else {
            f64::INFINITY
        };
        let cpu_stage_rate = cpu.min(ep.attach.rate_bytes(ep.scalar_speed));
        let stream_rate = proto.stream_rate_bytes(&ep, &ep, link_bw);
        let wire_rate = link_bw * proto.wire_efficiency;
        let extra_secs_per_byte =
            (stream_rate < wire_rate).then(|| 1.0 / stream_rate - 1.0 / wire_rate);
        let ranks = (0..spec.ranks).map(|_| RankState::default()).collect();
        // Tag chosen arbitrarily; it only has to differ from the substreams
        // FaultPlan::generate uses for event scheduling.
        let rng = SimRng::new(spec.fault_plan.seed()).substream(0x1055_d4a3);
        World {
            send_overhead: proto.send_overhead(&ep),
            recv_overhead: proto.recv_overhead(&ep),
            cpu_stage_rate,
            extra_secs_per_byte,
            lossy: net.has_loss_windows(),
            busy: (0..spec.ranks).map(|_| RankBusy::default()).collect(),
            spec,
            soc_fp,
            state: RefCell::new(WorldState {
                net,
                flows,
                ranks,
                stats: NetStats::default(),
                fault: None,
                rng,
            }),
        }
    }

    /// Wire bytes for a payload including framing and protocol headers.
    pub(crate) fn framed(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.spec.proto.wire_efficiency) as u64 + FRAME_BYTES
    }

    /// CPU time to inject (or retire) a `bytes` payload at the endpoint's
    /// per-byte rate.
    pub(crate) fn injection(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.cpu_stage_rate)
    }

    /// Extra serialisation of a `bytes` payload beyond the wire's own,
    /// accounting for endpoint stages slower than the wire.
    pub(crate) fn endpoint_extra_serial(&self, bytes: u64) -> SimTime {
        match self.extra_secs_per_byte {
            Some(k) => SimTime::from_secs_f64(bytes as f64 * k),
            None => SimTime::ZERO,
        }
    }

    /// Order-insensitive digest of the message-visible world state for the
    /// model checker's state deduplication (see `des::mc`).
    ///
    /// Hashes each rank's mailbox contents, posted receive filter, liveness
    /// and any surfaced fault. Wire times are folded in relative to `now` so
    /// states differing only by an absolute-time shift still collide, while
    /// statistics counters and the RNG are deliberately excluded: they do not
    /// influence future protocol behaviour under the controller (drops come
    /// from the controller, not the RNG).
    pub(crate) fn mc_state_hash(&self, now: SimTime) -> u64 {
        let st = self.state.borrow();
        let now_ns = now.as_nanos();
        let mut h = 0x6d63_776f_726c_6421u64;
        for (i, r) in st.ranks.iter().enumerate() {
            let mut rh = des::mc::mix(0x5b21, i as u64);
            rh = des::mc::mix(rh, r.pid.is_some() as u64);
            rh = des::mc::mix(
                rh,
                match r.pending {
                    None => 0,
                    Some((s, t)) => {
                        1 | (s.map_or(0, |s| (s as u64 + 1) << 1))
                            | (t.map_or(0, |t| (t as u64 + 1) << 33))
                    }
                },
            );
            // The mailbox is FIFO per rank, so hash it in order.
            for m in &r.mailbox {
                rh = des::mc::mix(rh, (m.src as u64) << 32 | m.tag as u64);
                rh = des::mc::mix(rh, m.msg.bytes);
                rh = des::mc::mix(
                    rh,
                    match m.delivery {
                        Delivery::Eager { available_at } => {
                            des::mc::mix(1, available_at.as_nanos().saturating_sub(now_ns))
                        }
                        Delivery::Rendezvous { sender_pid, rts_arrival } => des::mc::mix(
                            2 | (sender_pid.index() as u64) << 2,
                            rts_arrival.as_nanos().saturating_sub(now_ns),
                        ),
                        Delivery::Flow { id, extra } => {
                            des::mc::mix(3 | (id << 2), extra.as_nanos())
                        }
                    },
                );
            }
            h = des::mc::mix(h, rh);
        }
        des::mc::mix(h, st.fault.is_some() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_defaults_and_builders() {
        let spec = JobSpec::new(Platform::tegra2(), 4)
            .with_proto(ProtocolModel::open_mx())
            .with_freq(0.912)
            .with_ranks_per_node(2);
        assert_eq!(spec.proto.name, "Open-MX");
        assert_eq!(spec.freq_ghz, 0.912);
        assert_eq!(spec.node_of(0), 0);
        assert_eq!(spec.node_of(3), 1);
        assert_eq!(spec.cores_per_rank(), 1);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_rejects_overcommit() {
        let mut spec = JobSpec::new(Platform::tegra2(), 8);
        spec.topology = TopologySpec::Star { nodes: 4 };
        assert!(spec.validate().is_err());
        spec.ranks_per_node = 2;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_checks_node_map() {
        let base =
            JobSpec::new(Platform::tegra2(), 4).with_topology(TopologySpec::Star { nodes: 6 });
        assert!(base.clone().with_node_map(vec![5, 4, 3, 2]).validate().is_ok());
        assert_eq!(
            base.clone().with_node_map(vec![0, 1]).validate(),
            Err(JobSpecError::NodeMapLength { got: 2, expected: 4 })
        );
        assert_eq!(
            base.clone().with_node_map(vec![0, 1, 2, 6]).validate(),
            Err(JobSpecError::NodeMapOutOfRange { node: 6, available: 6 })
        );
        assert_eq!(
            base.clone().with_node_map(vec![0, 1, 2, 1]).validate(),
            Err(JobSpecError::NodeMapDuplicate { node: 1 })
        );
        // The map redirects physical placement without renumbering ranks.
        let spec = base.with_node_map(vec![5, 4, 3, 2]);
        assert_eq!(spec.logical_node_of(2), 2);
        assert_eq!(spec.node_of(2), 3);
    }

    #[test]
    fn validation_checks_retry_policy() {
        let mut spec = JobSpec::new(Platform::tegra2(), 2);
        spec.retry.retrans_base = SimTime::ZERO;
        assert!(matches!(spec.validate(), Err(JobSpecError::BadRetryPolicy { .. })));
        spec.retry.max_retries = 0; // no retries -> zero base is fine
        assert!(spec.validate().is_ok());
        spec.retry.recv_timeout = Some(SimTime::ZERO);
        assert!(matches!(spec.validate(), Err(JobSpecError::BadRetryPolicy { .. })));
    }

    #[test]
    fn fault_plan_degrade_windows_reach_the_network() {
        use des::FaultEvent;
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_millis(1),
            kind: FaultKind::LinkDegrade { node: 1, loss: 0.5, duration: SimTime::from_millis(2) },
        }]);
        let w = World::new(JobSpec::new(Platform::tegra2(), 4).with_fault_plan(plan));
        let st = w.state.borrow();
        assert_eq!(st.net.loss_probability(0, 1, SimTime::from_millis(2)), 0.5);
        assert_eq!(st.net.loss_probability(0, 1, SimTime::from_millis(4)), 0.0);
    }

    #[test]
    fn filter_matching() {
        assert!(matches(&(None, None), 3, 7));
        assert!(matches(&(Some(3), None), 3, 7));
        assert!(!matches(&(Some(4), None), 3, 7));
        assert!(matches(&(None, Some(7)), 3, 7));
        assert!(!matches(&(Some(3), Some(8)), 3, 7));
    }

    #[test]
    fn framed_adds_overhead() {
        let w = World::new(JobSpec::new(Platform::tegra2(), 2));
        assert!(w.framed(1000) > 1000);
        assert_eq!(w.framed(0), FRAME_BYTES);
    }

    #[test]
    fn endpoint_extra_serial_positive_when_cpu_bound() {
        // Tegra 2 + TCP is CPU-bound at ~65 MB/s < 119 MB/s wire.
        let w = World::new(JobSpec::new(Platform::tegra2(), 2));
        let extra = w.endpoint_extra_serial(1 << 20);
        assert!(extra > SimTime::ZERO);
        // Open-MX is wire-bound: no extra.
        let w2 =
            World::new(JobSpec::new(Platform::tegra2(), 2).with_proto(ProtocolModel::open_mx()));
        assert_eq!(w2.endpoint_extra_serial(1 << 20), SimTime::ZERO);
    }
}
