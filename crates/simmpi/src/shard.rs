//! Cross-shard message routing for sharded runs (see `des::ShardedEngine`).
//!
//! Under a sharded run the ranks of one job are partitioned across N DES
//! engines. A rank that talks to a peer on another shard cannot touch that
//! peer's mailbox or wake its process mid-window — the peer's engine is
//! running concurrently. Instead the interaction is captured as a
//! [`Packet`] in the sending shard's outbox, and
//! [`apply_cross_packets`] replays all buffered packets sequentially at the
//! window barrier, in the canonical order `(time, source shard, per-shard
//! sequence)`, mirroring the exact lock-section the serial engine would have
//! executed inline. The conservative window bound (every packet's effect
//! lands at or after the window end, because it rides at least one
//! cross-partition link) guarantees no shard has advanced past the times
//! being written, so the replay is indistinguishable from the serial
//! schedule — byte-identical results.
//!
//! Timing-sensitive network state (link reservations via
//! `Network::transmit`) is only mutated here for cross-shard traffic;
//! intra-shard traffic reserves inline as always. The shard planner only
//! accepts partitions whose intra-shard routes use disjoint links
//! (`Network::partition_isolates_links`), which is what makes the two
//! reservation streams commute — *except* on the links a cross-shard route
//! shares with its endpoints' local traffic, where a barrier replay can
//! land after an in-window reservation that the serial engine would have
//! ordered later. `Network::guard_reservations` (armed by
//! `run_mpi_sharded`) detects exactly that case — any link reserved out of
//! departure order, or an ambiguous departure tie across streams — and
//! condemns the run, which is then discarded and redone on the serial
//! engine. Sharded results are therefore byte-identical to serial ones by
//! construction: exact windowed schedules keep the speedup, inexact ones
//! silently pay the serial rerun.

use des::{ExchangeOutcome, Pid, ShardWakers, SimTime};
use netsim::GUARD_REPLAY_SOURCE;
use parking_lot::Mutex;

use crate::payload::Msg;
use crate::world::{matches, Delivery, InMsg, World, WorldState};

/// One deferred cross-shard interaction, replayed at the window barrier.
#[derive(Debug)]
pub(crate) enum Packet {
    /// An eager payload: the serial path's enqueue + wire reservation +
    /// pending-receive wake.
    Eager {
        /// Sender's virtual time at the (deferred) wire reservation.
        depart: SimTime,
        /// Sending rank.
        src: u32,
        /// Receiving rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// The payload.
        msg: Msg,
    },
    /// A rendezvous request-to-send frame.
    Rts {
        /// Sender's virtual time at the (deferred) RTS reservation.
        depart: SimTime,
        /// Sending rank.
        src: u32,
        /// Receiving rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// The payload (delivered later by the bulk transfer).
        msg: Msg,
        /// The parked sender, woken when the receiver clears the transfer.
        sender_pid: Pid,
    },
    /// The receiver's half of a cross-shard rendezvous: CTS + bulk-transfer
    /// timing, resolved at the barrier because the CTS rides the reverse
    /// path (the sender's shard's links).
    RdvComplete {
        /// Receiver's virtual time after processing the RTS.
        at: SimTime,
        /// Sending rank (bulk-transfer source).
        src: u32,
        /// Receiving rank.
        dst: u32,
        /// Payload size.
        bytes: u64,
        /// The parked sender, woken at its injection-complete time.
        sender_pid: Pid,
        /// The parked receiver, woken at the bulk data's arrival.
        receiver_pid: Pid,
    },
}

impl Packet {
    /// The packet's canonical timestamp (primary merge key).
    fn time(&self) -> SimTime {
        match self {
            Packet::Eager { depart, .. } | Packet::Rts { depart, .. } => *depart,
            Packet::RdvComplete { at, .. } => *at,
        }
    }
}

/// Shared routing state of one sharded run: which shard hosts each rank,
/// and one packet outbox per shard.
pub(crate) struct ShardCtx {
    /// Owning shard of every rank.
    pub(crate) shard_of_rank: Vec<u16>,
    /// Per-source-shard outboxes; drained at each window barrier. Push
    /// order within an outbox is the emitting shard's deterministic
    /// execution order (one engine, one thread), which serves as the
    /// per-shard sequence number of the merge key.
    outboxes: Vec<Mutex<Vec<Packet>>>,
}

impl ShardCtx {
    pub(crate) fn new(shard_of_rank: Vec<u16>, shards: usize) -> ShardCtx {
        ShardCtx { shard_of_rank, outboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Buffer a packet emitted by `shard` for the next barrier replay.
    pub(crate) fn push(&self, shard: u16, packet: Packet) {
        self.outboxes[shard as usize].lock().push(packet);
    }
}

/// Drain every shard's outbox and replay the packets against the world in
/// canonical `(time, source shard, per-shard sequence)` order, reporting the
/// [`ExchangeOutcome`] the sharded runner acts on: how many packets were
/// applied (a zero with empty queues is its deadlock criterion), or an abort
/// when the reservation-order guard has condemned the schedule — whether
/// before this barrier (a wildcard receive or in-window trip) or during the
/// replay itself (a cascade).
///
/// `winddown` selects the legacy condemnation behaviour kept for the
/// `scale_bench` recovery ablation: instead of aborting, a condemned run
/// stops feeding cross-shard wakes (packets are dropped) and the windowed
/// schedule is simulated to its wound-down end before the serial rerun —
/// the full-cost path checkpoint rollback replaces.
pub(crate) fn apply_cross_packets(
    world: &World,
    ctx: &ShardCtx,
    wakers: &ShardWakers,
    winddown: bool,
) -> ExchangeOutcome {
    let mut merged: Vec<(SimTime, u16, u32, Packet)> = Vec::new();
    for (shard, outbox) in ctx.outboxes.iter().enumerate() {
        let drained = std::mem::take(&mut *outbox.lock());
        for (seq, packet) in drained.into_iter().enumerate() {
            merged.push((packet.time(), shard as u16, seq as u32, packet));
        }
    }
    merged.sort_by_key(|&(time, shard, seq, _)| (time, shard, seq));
    let applied = merged.len();
    let mut st = world.state.lock();
    if let Some(reason) = st.net.guard_condemn_reason() {
        if winddown {
            // Legacy: the condemned schedule winds down (no more cross-shard
            // wakes, buffered packets dropped) until it stalls or finishes,
            // and only then is the job rerun serially from scratch.
            return ExchangeOutcome::Applied(0);
        }
        return ExchangeOutcome::Abort { reason: reason.as_str() };
    }
    for (_, shard, _, packet) in merged {
        // Barrier replay is its own reservation stream per source shard: a
        // replayed reservation that ties with an in-window one (or with a
        // replay from another shard) has no provable serial order, and the
        // guard must trip on it.
        st.net.guard_source(GUARD_REPLAY_SOURCE | shard as u32);
        apply_one(world, &mut st, ctx, wakers, packet);
    }
    if !winddown {
        if let Some(reason) = st.net.guard_condemn_reason() {
            // A replayed reservation cascaded into a trip at this barrier:
            // the window just executed is unverified, so abort before the
            // coordinator checkpoints it.
            return ExchangeOutcome::Abort { reason: reason.as_str() };
        }
    }
    ExchangeOutcome::Applied(applied)
}

/// Replay one packet: the exact arithmetic of the serial path's lock
/// section, with the wake routed through the destination rank's shard.
/// Sharded runs are planned only for clean (lossless, untraced, un-model-
/// checked) jobs, so the serial path's loss draws, trace emissions, and MC
/// footprints are structurally absent here — not skipped.
fn apply_one(world: &World, st: &mut WorldState, ctx: &ShardCtx, wakers: &ShardWakers, p: Packet) {
    match p {
        Packet::Eager { depart, src, dst, tag, msg } => {
            let src_node = world.spec.node_of(src);
            let dst_node = world.spec.node_of(dst);
            let bytes = msg.bytes;
            let wire = world.framed(bytes);
            st.stats.messages += 1;
            st.stats.payload_bytes += bytes;
            let arrival = st.net.transmit(depart, src_node, dst_node, wire)
                + world.endpoint_extra_serial(bytes);
            let dst_state = &mut st.ranks[dst as usize];
            dst_state.mailbox.push_back(InMsg {
                src,
                tag,
                msg,
                delivery: Delivery::Eager { available_at: arrival },
            });
            if let Some(f) = dst_state.pending {
                if matches(&f, src, tag) {
                    dst_state.pending = None;
                    let pid = dst_state.pid.unwrap();
                    wakers.wake_at(
                        ctx.shard_of_rank[dst as usize] as usize,
                        pid,
                        depart.max(arrival),
                    );
                }
            }
        }
        Packet::Rts { depart, src, dst, tag, msg, sender_pid } => {
            let src_node = world.spec.node_of(src);
            let dst_node = world.spec.node_of(dst);
            let rts_arrival = st.net.transmit(depart, src_node, dst_node, 128);
            st.stats.messages += 1;
            st.stats.payload_bytes += msg.bytes;
            let dst_state = &mut st.ranks[dst as usize];
            dst_state.mailbox.push_back(InMsg {
                src,
                tag,
                msg,
                delivery: Delivery::Rendezvous { sender_pid, rts_arrival },
            });
            if let Some(f) = dst_state.pending {
                if matches(&f, src, tag) {
                    dst_state.pending = None;
                    let pid = dst_state.pid.unwrap();
                    wakers.wake_at(
                        ctx.shard_of_rank[dst as usize] as usize,
                        pid,
                        depart.max(rts_arrival),
                    );
                }
            }
        }
        Packet::RdvComplete { at, src, dst, bytes, sender_pid, receiver_pid } => {
            let src_node = world.spec.node_of(src);
            let dst_node = world.spec.node_of(dst);
            // CTS travels back; the sender starts the bulk transfer on its
            // arrival (control frames assumed reliable, as on the serial
            // path; no loss windows exist on an eligible run).
            let cts_arrival = st.net.transmit(at, dst_node, src_node, 128)
                + world.send_overhead
                + world.recv_overhead;
            let wire = world.framed(bytes);
            let bulk_depart = cts_arrival;
            let data_arrival = st.net.transmit(bulk_depart, src_node, dst_node, wire)
                + world.endpoint_extra_serial(bytes);
            let injection = world.injection(bytes);
            let sender_done = (bulk_depart + injection).max(at);
            wakers.wake_at(ctx.shard_of_rank[src as usize] as usize, sender_pid, sender_done);
            wakers.wake_at(ctx.shard_of_rank[dst as usize] as usize, receiver_pid, data_arrival);
        }
    }
}
