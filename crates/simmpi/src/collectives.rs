//! Collective operations built from point-to-point messages, with the
//! classic algorithms whose communication structure gives applications their
//! `log P` scaling terms: binomial-tree broadcast/reduce, dissemination
//! barrier, ring allgather, pairwise all-to-all.
//!
//! Tags at and above [`COLL_TAG_BASE`] are reserved for collectives.

use crate::payload::Msg;
use crate::rank::Rank;

/// First tag reserved for collective internals.
pub const COLL_TAG_BASE: u32 = 0xFFFF_0000;

const TAG_BARRIER: u32 = COLL_TAG_BASE;
const TAG_BCAST: u32 = COLL_TAG_BASE + 0x100;
const TAG_REDUCE: u32 = COLL_TAG_BASE + 0x200;
const TAG_GATHER: u32 = COLL_TAG_BASE + 0x300;
const TAG_ALLGATHER: u32 = COLL_TAG_BASE + 0x400;
const TAG_SCATTER: u32 = COLL_TAG_BASE + 0x500;
const TAG_ALLTOALL: u32 = COLL_TAG_BASE + 0x600;

/// Reduction operators over `f64` vectors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                ReduceOp::Sum => *a + b,
                ReduceOp::Max => a.max(*b),
                ReduceOp::Min => a.min(*b),
            };
        }
    }
}

impl Rank {
    /// Dissemination barrier: `ceil(log2 P)` rounds of pairwise signals.
    pub async fn barrier(&mut self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        self.phase_begin("barrier");
        let me = self.rank();
        let mut round = 0u32;
        let mut dist = 1u32;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            let tag = TAG_BARRIER + round;
            // Everyone sends then receives; 0-byte eager messages cannot
            // block, so this is deadlock-free.
            self.send(to, tag, Msg::empty()).await;
            self.recv(from, tag).await;
            dist <<= 1;
            round += 1;
        }
        self.phase_end("barrier");
    }

    /// Binomial-tree broadcast from `root`. Every rank returns the message.
    pub async fn bcast(&mut self, root: u32, msg: Option<Msg>) -> Msg {
        let p = self.size();
        if p == 1 {
            return msg.expect("root must supply the broadcast payload");
        }
        self.phase_begin("bcast");
        let me = self.rank();
        // Rotate so the root is virtual rank 0.
        let vrank = (me + p - root) % p;
        let mut have = if me == root {
            Some(msg.expect("root must supply the broadcast payload"))
        } else {
            None
        };
        // Highest power of two >= p.
        let mut mask = p.next_power_of_two();
        // Receive phase: find the round in which we get the data.
        if vrank != 0 {
            let lowbit = vrank & vrank.wrapping_neg();
            let vsrc = vrank - lowbit;
            let src = (vsrc + root) % p;
            have = Some(self.recv(src, TAG_BCAST).await.clone());
        }
        // Send phase: forward to virtual ranks vrank + m for each m below our
        // low bit (root: below mask).
        let lowbit = if vrank == 0 { mask } else { vrank & vrank.wrapping_neg() };
        mask = lowbit >> 1;
        while mask > 0 {
            let vdst = vrank + mask;
            if vdst < p {
                let dst = (vdst + root) % p;
                let m = have.as_ref().expect("no payload to forward").clone();
                self.send(dst, TAG_BCAST, m).await;
            }
            mask >>= 1;
        }
        self.phase_end("bcast");
        have.unwrap()
    }

    /// Pipelined (segmented ring) broadcast from `root` — the algorithm HPL
    /// uses for large panel broadcasts: the payload is cut into `segment`-
    /// byte pieces that flow down a ring rooted at `root`, so the total time
    /// is `O(P·lat + bytes/BW)` instead of the binomial tree's
    /// `O(log P · bytes/BW)`.
    ///
    /// `total_bytes` must be the same on every rank (in HPL the panel
    /// geometry is globally known). The last segment carries the full
    /// payload data; earlier segments are wire filler of the right size, so
    /// the *timing* is exactly the segmented stream and the *data* is
    /// complete precisely when the last segment lands.
    pub async fn bcast_pipelined(
        &mut self,
        root: u32,
        msg: Option<Msg>,
        total_bytes: u64,
        segment: u64,
    ) -> Msg {
        let p = self.size();
        assert!(segment > 0, "segment size must be positive");
        if p == 1 {
            return msg.expect("root must supply the broadcast payload");
        }
        let nseg = total_bytes.div_ceil(segment).max(1);
        if nseg == 1 || p == 2 {
            return self.bcast(root, msg).await;
        }
        self.phase_begin("bcast_pipelined");
        let me = self.rank();
        let vrank = (me + p - root) % p;
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let last_len = total_bytes - (nseg - 1) * segment;

        let out = if me == root {
            let full = msg.expect("root must supply the broadcast payload");
            for s in 0..nseg {
                let m = if s + 1 == nseg {
                    Msg { bytes: last_len.max(1), data: full.data.clone() }
                } else {
                    Msg::size_only(segment)
                };
                self.send(next, TAG_BCAST + (s % 0xE0) as u32, m).await;
            }
            full
        } else {
            let mut data = None;
            for s in 0..nseg {
                let m = self.recv(prev, TAG_BCAST + (s % 0xE0) as u32).await;
                let is_last = s + 1 == nseg;
                // Forward unless we are the tail of the ring.
                if vrank + 1 < p {
                    self.send(next, TAG_BCAST + (s % 0xE0) as u32, m.clone()).await;
                }
                if is_last {
                    data = Some(m);
                }
            }
            let m = data.unwrap();
            Msg { bytes: total_bytes, data: m.data }
        };
        self.phase_end("bcast_pipelined");
        out
    }

    /// Binomial-tree reduction of an `f64` vector to `root`; returns the
    /// reduced vector on the root and `None` elsewhere.
    pub async fn reduce(
        &mut self,
        root: u32,
        op: ReduceOp,
        mut values: Vec<f64>,
    ) -> Option<Vec<f64>> {
        let p = self.size();
        if p == 1 {
            return Some(values);
        }
        self.phase_begin("reduce");
        let me = self.rank();
        let vrank = (me + p - root) % p;
        let mut mask = 1u32;
        while mask < p {
            if vrank & mask != 0 {
                // Send our partial to the partner below and exit.
                let vdst = vrank & !mask;
                let dst = (vdst + root) % p;
                self.send(dst, TAG_REDUCE, Msg::from_f64s(&values)).await;
                self.phase_end("reduce");
                return None;
            }
            let vsrc = vrank | mask;
            if vsrc < p {
                let src = (vsrc + root) % p;
                let m = self.recv(src, TAG_REDUCE).await;
                op.apply(&mut values, &m.to_f64s());
            }
            mask <<= 1;
        }
        self.phase_end("reduce");
        Some(values)
    }

    /// Allreduce = reduce to rank 0 + broadcast.
    pub async fn allreduce(&mut self, op: ReduceOp, values: Vec<f64>) -> Vec<f64> {
        self.phase_begin("allreduce");
        let reduced = self.reduce(0, op, values).await;
        let msg = reduced.map(|v| Msg::from_f64s(&v));
        let out = self.bcast(0, msg).await.to_f64s();
        self.phase_end("allreduce");
        out
    }

    /// Gather every rank's message to `root`; returns all messages in rank order
    /// on the root, `None` elsewhere.
    pub async fn gather(&mut self, root: u32, msg: Msg) -> Option<Vec<Msg>> {
        let p = self.size();
        let me = self.rank();
        self.phase_begin("gather");
        let result = if me == root {
            let mut out: Vec<Option<Msg>> = (0..p).map(|_| None).collect();
            out[me as usize] = Some(msg);
            for _ in 0..p - 1 {
                let (src, _, m) = self.recv_filtered(None, Some(TAG_GATHER)).await;
                out[src as usize] = Some(m);
            }
            Some(out.into_iter().map(|m| m.unwrap()).collect())
        } else {
            self.send(root, TAG_GATHER, msg).await;
            None
        };
        self.phase_end("gather");
        result
    }

    /// Ring allgather: every rank contributes a message and receives all `P`
    /// contributions in rank order. Bandwidth-optimal `P-1` ring steps.
    pub async fn allgather(&mut self, msg: Msg) -> Vec<Msg> {
        let p = self.size();
        let me = self.rank();
        let mut slots: Vec<Option<Msg>> = (0..p).map(|_| None).collect();
        slots[me as usize] = Some(msg);
        if p == 1 {
            return slots.into_iter().map(|m| m.unwrap()).collect();
        }
        self.phase_begin("allgather");
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        // In step s we forward the block that originated at rank me - s.
        let mut carry = slots[me as usize].clone().unwrap();
        for s in 0..p - 1 {
            let incoming_origin = (me + p - 1 - s) % p;
            let m = self.sendrecv(next, TAG_ALLGATHER + s, carry, prev, TAG_ALLGATHER + s).await;
            slots[incoming_origin as usize] = Some(m.clone());
            carry = m;
        }
        self.phase_end("allgather");
        slots.into_iter().map(|m| m.unwrap()).collect()
    }

    /// Scatter from `root`: the root supplies one message per rank; every
    /// rank returns its own.
    pub async fn scatter(&mut self, root: u32, msgs: Option<Vec<Msg>>) -> Msg {
        let p = self.size();
        let me = self.rank();
        self.phase_begin("scatter");
        let out = if me == root {
            let msgs = msgs.expect("root must supply scatter payloads");
            assert_eq!(msgs.len(), p as usize, "scatter needs one message per rank");
            let mut mine = None;
            for (dst, m) in msgs.into_iter().enumerate() {
                if dst as u32 == me {
                    mine = Some(m);
                } else {
                    self.send(dst as u32, TAG_SCATTER, m).await;
                }
            }
            mine.unwrap()
        } else {
            self.recv(root, TAG_SCATTER).await
        };
        self.phase_end("scatter");
        out
    }

    /// Pairwise-exchange all-to-all: rank `i` sends `msgs[j]` to rank `j`.
    /// Returns the messages received, indexed by source.
    ///
    /// The XOR schedule (`partner = me ^ step` over the power-of-two ceiling
    /// of `P`) pairs every two ranks exactly once and every exchange is a
    /// true pairwise `sendrecv`, so it is deadlock-free even with rendezvous
    /// messages; off-range steps are idle rounds for that rank.
    pub async fn alltoall(&mut self, msgs: Vec<Msg>) -> Vec<Msg> {
        let p = self.size();
        let me = self.rank();
        assert_eq!(msgs.len(), p as usize, "alltoall needs one message per rank");
        if self.flow_alltoall_ok(&msgs) {
            return self.alltoall_flow(msgs).await;
        }
        let mut out: Vec<Option<Msg>> = (0..p).map(|_| None).collect();
        let mut msgs: Vec<Option<Msg>> = msgs.into_iter().map(Some).collect();
        out[me as usize] = msgs[me as usize].take();
        self.phase_begin("alltoall");
        let rounds = p.next_power_of_two();
        for step in 1..rounds {
            let partner = me ^ step;
            if partner >= p {
                continue;
            }
            let m = msgs[partner as usize].take().unwrap();
            let got =
                self.sendrecv(partner, TAG_ALLTOALL + step, m, partner, TAG_ALLTOALL + step).await;
            out[partner as usize] = Some(got);
        }
        self.phase_end("alltoall");
        out.into_iter().map(|m| m.unwrap()).collect()
    }

    /// Flow-mode all-to-all fast path (see [`Rank::flow_alltoall_ok`] for the
    /// preconditions): the whole fan-out is one batched send-overhead
    /// advance, `P-1` concurrent flows whose arrival times emerge from
    /// max-min fair sharing, per-peer receives that wait only for flow
    /// transitions, and one batched receive-overhead advance, where the
    /// pairwise exchange costs O(P) per-message event chains.
    async fn alltoall_flow(&mut self, msgs: Vec<Msg>) -> Vec<Msg> {
        let p = self.size();
        let me = self.rank();
        self.phase_begin("alltoall");
        let mut out: Vec<Option<Msg>> = (0..p).map(|_| None).collect();
        let mut outgoing = Vec::with_capacity(p as usize - 1);
        for (j, m) in msgs.into_iter().enumerate() {
            if j as u32 == me {
                out[j] = Some(m);
            } else {
                outgoing.push((j as u32, m));
            }
        }
        self.send_flows_batched(TAG_ALLTOALL, outgoing).await;
        for src in 0..p {
            if src != me {
                out[src as usize] = Some(self.recv_wire(src, TAG_ALLTOALL).await);
            }
        }
        self.batch_recv_overhead(p as u64 - 1).await;
        self.phase_end("alltoall");
        out.into_iter().map(|m| m.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::run_mpi;
    use crate::world::JobSpec;
    use soc_arch::Platform;

    fn spec(n: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), n)
    }

    #[test]
    fn barrier_synchronises_all_ranks() {
        let run = run_mpi(spec(7), |mut r| async move {
            if r.rank() == 3 {
                r.compute_secs(0.2).await; // straggler
            }
            r.barrier().await;
            r.now().as_secs_f64()
        })
        .unwrap();
        // Nobody exits the barrier before the straggler reached it.
        for (i, &t) in run.results.iter().enumerate() {
            assert!(t >= 0.2, "rank {i} left barrier at {t}");
        }
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for root in [0u32, 2, 4] {
            let run = run_mpi(spec(5), move |mut r| async move {
                let msg = (r.rank() == root).then(|| Msg::from_f64s(&[42.0, root as f64]));
                r.bcast(root, msg).await.to_f64s()
            })
            .unwrap();
            for v in run.results {
                assert_eq!(v, vec![42.0, root as f64]);
            }
        }
    }

    #[test]
    fn reduce_sums_over_all_ranks() {
        let run = run_mpi(spec(6), |mut r| async move {
            let mine = vec![r.rank() as f64, 1.0];
            r.reduce(0, ReduceOp::Sum, mine).await
        })
        .unwrap();
        assert_eq!(run.results[0], Some(vec![15.0, 6.0])); // 0+1+..+5, count
        for r in &run.results[1..] {
            assert!(r.is_none());
        }
    }

    #[test]
    fn reduce_max_and_min() {
        let run = run_mpi(spec(4), |mut r| async move {
            let mine = vec![r.rank() as f64];
            let mx = r.allreduce(ReduceOp::Max, mine.clone()).await;
            let mn = r.allreduce(ReduceOp::Min, mine).await;
            (mx[0], mn[0])
        })
        .unwrap();
        for &(mx, mn) in &run.results {
            assert_eq!((mx, mn), (3.0, 0.0));
        }
    }

    #[test]
    fn allreduce_gives_same_answer_everywhere() {
        let run = run_mpi(spec(9), |mut r| async move {
            r.allreduce(ReduceOp::Sum, vec![1.0, r.rank() as f64]).await
        })
        .unwrap();
        for v in run.results {
            assert_eq!(v, vec![9.0, 36.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let run = run_mpi(spec(5), |mut r| async move {
            let out = r.gather(2, Msg::from_u64s(&[r.rank() as u64 * 10])).await;
            out.map(|msgs| msgs.iter().map(|m| m.to_u64s()[0]).collect::<Vec<_>>())
        })
        .unwrap();
        assert_eq!(run.results[2], Some(vec![0, 10, 20, 30, 40]));
    }

    #[test]
    fn allgather_everyone_gets_everything() {
        let run = run_mpi(spec(4), |mut r| async move {
            let got = r.allgather(Msg::from_u64s(&[r.rank() as u64 + 100])).await;
            got.iter().map(|m| m.to_u64s()[0]).collect::<Vec<_>>()
        })
        .unwrap();
        for v in run.results {
            assert_eq!(v, vec![100, 101, 102, 103]);
        }
    }

    #[test]
    fn scatter_distributes_root_payloads() {
        let run = run_mpi(spec(4), |mut r| async move {
            let payload = (r.rank() == 1)
                .then(|| (0..4).map(|i| Msg::from_u64s(&[i as u64 * 7])).collect::<Vec<_>>());
            r.scatter(1, payload).await.to_u64s()[0]
        })
        .unwrap();
        assert_eq!(run.results, vec![0, 7, 14, 21]);
    }

    #[test]
    fn alltoall_transposes_power_of_two() {
        let run = run_mpi(spec(4), |mut r| async move {
            let me = r.rank() as u64;
            let msgs = (0..4).map(|j| Msg::from_u64s(&[me * 10 + j as u64])).collect();
            r.alltoall(msgs).await.iter().map(|m| m.to_u64s()[0]).collect::<Vec<_>>()
        })
        .unwrap();
        // Rank i receives j*10 + i from every j.
        for (i, v) in run.results.iter().enumerate() {
            let expect: Vec<u64> = (0..4).map(|j| (j * 10 + i) as u64).collect();
            assert_eq!(v, &expect, "rank {i}");
        }
    }

    #[test]
    fn alltoall_transposes_non_power_of_two() {
        let run = run_mpi(spec(5), |mut r| async move {
            let me = r.rank() as u64;
            let msgs = (0..5).map(|j| Msg::from_u64s(&[me * 10 + j as u64])).collect();
            r.alltoall(msgs).await.iter().map(|m| m.to_u64s()[0]).collect::<Vec<_>>()
        })
        .unwrap();
        for (i, v) in run.results.iter().enumerate() {
            let expect: Vec<u64> = (0..5).map(|j| (j * 10 + i) as u64).collect();
            assert_eq!(v, &expect, "rank {i}");
        }
    }

    #[test]
    fn alltoall_flow_fast_path_transposes() {
        use netsim::NetModel;
        for n in [4u32, 5] {
            let run =
                run_mpi(spec(n).with_net_model(Some(NetModel::Flow)), move |mut r| async move {
                    let me = r.rank() as u64;
                    let msgs = (0..n).map(|j| Msg::from_u64s(&[me * 10 + j as u64])).collect();
                    r.alltoall(msgs).await.iter().map(|m| m.to_u64s()[0]).collect::<Vec<_>>()
                })
                .unwrap();
            for (i, v) in run.results.iter().enumerate() {
                let expect: Vec<u64> = (0..n).map(|j| (j * 10) as u64 + i as u64).collect();
                assert_eq!(v, &expect, "rank {i} of {n} (flow fast path)");
            }
        }
    }

    #[test]
    fn alltoall_flow_fast_path_cuts_engine_events() {
        use netsim::NetModel;
        let go = |model: NetModel| {
            run_mpi(spec(16).with_net_model(Some(model)), |mut r| async move {
                let msgs: Vec<Msg> = (0..r.size()).map(|_| Msg::size_only(4096)).collect();
                for _ in 0..4 {
                    r.alltoall(msgs_clone(&msgs)).await;
                }
                r.now().as_nanos()
            })
            .unwrap()
        };
        fn msgs_clone(msgs: &[Msg]) -> Vec<Msg> {
            msgs.to_vec()
        }
        let ev = go(NetModel::Event);
        let fl = go(NetModel::Flow);
        assert!(
            fl.events * 3 < ev.events,
            "flow fast path must collapse the event count: event {} vs flow {}",
            ev.events,
            fl.events
        );
        // The fluid approximation stays in the same ballpark as the
        // reservation model on a symmetric dense exchange.
        let (te, tf) = (ev.elapsed.as_secs_f64(), fl.elapsed.as_secs_f64());
        assert!((tf - te).abs() / te < 0.35, "event {te}s vs flow {tf}s");
    }

    #[test]
    fn tracing_leaves_a_flow_alltoall_with_uneven_sizes_unchanged() {
        // Uneven per-destination sizes (0.5–28.5 kB) on a tree make the
        // fan-in's flows finish at many distinct instants. Tracing must not
        // change a single number of the run, engine events included: an
        // event budget between two counts would stop one run and not the
        // other.
        use crate::world::RunOpts;
        use des::{RingRecorder, Tracer};
        use netsim::{NetModel, TopologySpec};
        use std::sync::Arc;
        let go = |tracer: Option<Arc<dyn Tracer>>| {
            let opts = RunOpts { net_model: NetModel::Flow, tracer, ..RunOpts::default() };
            let topology = TopologySpec::Tree { edges: 4, nodes_per_edge: 4, uplinks_per_edge: 2 };
            let spec = spec(16).with_topology(topology).with_opts(opts);
            run_mpi(spec, |mut r| async move {
                let me = r.rank() as u64;
                for round in 0..3u64 {
                    let msgs = (0..r.size() as u64)
                        .map(|j| Msg::size_only(512 + (me * 7 + j * 13 + round * 5) % 57 * 500))
                        .collect();
                    r.alltoall(msgs).await;
                }
                r.now().as_nanos()
            })
            .unwrap()
        };
        let plain = go(None);
        let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
        let traced = go(Some(rec.clone()));
        assert!(!rec.drain().is_empty(), "the traced run recorded nothing");
        assert_eq!(plain.elapsed, traced.elapsed);
        assert_eq!(plain.results, traced.results, "per-rank finish times");
        assert_eq!(plain.net, traced.net);
        assert_eq!(plain.events, traced.events, "engine events");
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let run = run_mpi(spec(1), |mut r| async move {
            r.barrier().await;
            let b = r.bcast(0, Some(Msg::from_f64s(&[5.0]))).await;
            let red = r.reduce(0, ReduceOp::Sum, vec![3.0]).await;
            let ag = r.allgather(Msg::from_u64s(&[9])).await;
            (b.to_f64s()[0], red.unwrap()[0], ag.len())
        })
        .unwrap();
        assert_eq!(run.results[0], (5.0, 3.0, 1));
    }

    #[test]
    fn pipelined_bcast_delivers_payload_from_any_root() {
        for root in [0u32, 3] {
            let run = run_mpi(spec(6), move |mut r| async move {
                let payload: Vec<f64> = (0..10_000).map(|i| i as f64 + root as f64).collect();
                let total = (payload.len() * 8) as u64;
                let msg = (r.rank() == root).then(|| Msg::from_f64s(&payload));
                let got = r.bcast_pipelined(root, msg, total, 16 * 1024).await;
                let v = got.to_f64s();
                (v.len(), v[777])
            })
            .unwrap();
            for &(len, v) in &run.results {
                assert_eq!(len, 10_000);
                assert_eq!(v, 777.0 + root as f64);
            }
        }
    }

    #[test]
    fn pipelined_bcast_beats_tree_for_large_messages() {
        let total: u64 = 8 << 20; // 8 MiB
        let tree = run_mpi(spec(12), move |mut r| async move {
            let msg = (r.rank() == 0).then(|| Msg::size_only(total));
            r.bcast(0, msg).await;
            r.now().as_secs_f64()
        })
        .unwrap();
        let ring = run_mpi(spec(12), move |mut r| async move {
            let msg = (r.rank() == 0).then(|| Msg::size_only(total));
            r.bcast_pipelined(0, msg, total, 256 * 1024).await;
            r.now().as_secs_f64()
        })
        .unwrap();
        let t_tree = tree.results.iter().cloned().fold(0.0, f64::max);
        let t_ring = ring.results.iter().cloned().fold(0.0, f64::max);
        assert!(t_ring < t_tree * 0.7, "ring {t_ring} vs tree {t_tree}");
    }

    #[test]
    fn pipelined_bcast_small_message_falls_back_to_tree() {
        let run = run_mpi(spec(5), |mut r| async move {
            let msg = (r.rank() == 2).then(|| Msg::from_u64s(&[99]));
            r.bcast_pipelined(2, msg, 8, 64 * 1024).await.to_u64s()[0]
        })
        .unwrap();
        assert!(run.results.iter().all(|&v| v == 99));
    }

    #[test]
    fn bcast_scales_logarithmically() {
        // Broadcast on 16 ranks must take far less than 15 sequential sends.
        let one_hop = run_mpi(spec(2), |mut r| async move {
            let msg = (r.rank() == 0).then(|| Msg::size_only(64));
            r.bcast(0, msg).await;
            r.now().as_micros_f64()
        })
        .unwrap();
        let sixteen = run_mpi(spec(16), |mut r| async move {
            let msg = (r.rank() == 0).then(|| Msg::size_only(64));
            r.bcast(0, msg).await;
            r.now().as_micros_f64()
        })
        .unwrap();
        let t2 = one_hop.results.iter().cloned().fold(0.0, f64::max);
        let t16 = sixteen.results.iter().cloned().fold(0.0, f64::max);
        // log2(16) = 4 levels; allow slack for overheads but far below 15x.
        assert!(t16 < 6.5 * t2, "bcast16 {t16} vs bcast2 {t2}");
    }
}
