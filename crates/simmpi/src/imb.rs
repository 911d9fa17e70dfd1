//! More of the Intel MPI Benchmarks suite [21] beyond ping-pong: the
//! collective benchmarks (Allreduce, Bcast, Barrier) and the Exchange
//! pattern, used to characterise the simulated interconnect the same way
//! the paper's toolchain would characterise the real one.

use serde::{Deserialize, Serialize};

use crate::error::MpiFault;
use crate::payload::Msg;
use crate::rank::run_mpi;
use crate::world::JobSpec;
use crate::ReduceOp;

/// One measurement: operation time at a rank count and message size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ImbPoint {
    /// Ranks participating.
    pub ranks: u32,
    /// Payload bytes per rank.
    pub bytes: u64,
    /// Mean per-operation time, µs.
    pub time_us: f64,
}

/// Which IMB collective to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ImbOp {
    /// `MPI_Allreduce` on f64 vectors.
    Allreduce,
    /// `MPI_Bcast` from rank 0.
    Bcast,
    /// `MPI_Barrier` (bytes ignored).
    Barrier,
    /// The Exchange pattern: simultaneous sendrecv with both ring
    /// neighbours (the halo pattern of HYDRO/MD).
    Exchange,
}

impl ImbOp {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ImbOp::Allreduce => "Allreduce",
            ImbOp::Bcast => "Bcast",
            ImbOp::Barrier => "Barrier",
            ImbOp::Exchange => "Exchange",
        }
    }
}

/// Run one IMB collective benchmark: `reps` operations of `op` at `bytes`
/// payload on the given job, reporting the mean time per operation, or the
/// fault that stopped the job.
pub fn imb_collective(
    spec: JobSpec,
    op: ImbOp,
    bytes: u64,
    reps: u32,
) -> Result<ImbPoint, MpiFault> {
    assert!(reps >= 1);
    let ranks = spec.ranks;
    let run = run_mpi(spec, move |mut r| async move {
        let n_f64 = (bytes as usize / 8).max(1);
        r.barrier().await;
        let t0 = r.now();
        for rep in 0..reps {
            match op {
                ImbOp::Allreduce => {
                    let v = vec![rep as f64; n_f64];
                    let _ = r.allreduce(ReduceOp::Sum, v).await;
                }
                ImbOp::Bcast => {
                    let msg = (r.rank() == 0).then(|| Msg::size_only(bytes));
                    let _ = r.bcast(0, msg).await;
                }
                ImbOp::Barrier => r.barrier().await,
                ImbOp::Exchange => {
                    let p = r.size();
                    if p > 1 {
                        let next = (r.rank() + 1) % p;
                        let prev = (r.rank() + p - 1) % p;
                        let tag = 0x7000 + rep;
                        r.sendrecv(next, tag, Msg::size_only(bytes), prev, tag).await;
                        r.sendrecv(prev, tag + 1, Msg::size_only(bytes), next, tag + 1).await;
                    }
                }
            }
        }
        (r.now() - t0).as_micros_f64() / reps as f64
    })?;
    let time_us = run.results.iter().cloned().fold(0.0, f64::max);
    Ok(ImbPoint { ranks, bytes, time_us })
}

/// Sweep a collective over rank counts at a fixed size.
pub fn imb_rank_sweep(
    mk_spec: impl Fn(u32) -> JobSpec,
    op: ImbOp,
    ranks: &[u32],
    bytes: u64,
    reps: u32,
) -> Result<Vec<ImbPoint>, MpiFault> {
    ranks.iter().map(|&p| imb_collective(mk_spec(p), op, bytes, reps)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_arch::Platform;

    fn spec(p: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), p)
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let pts = imb_rank_sweep(spec, ImbOp::Barrier, &[2, 4, 16], 0, 2).unwrap();
        // 16 ranks need 4 dissemination rounds vs 1 for 2 ranks: the ratio
        // must be near 4, far from the linear 8.
        let ratio = pts[2].time_us / pts[0].time_us;
        assert!((2.0..6.5).contains(&ratio), "barrier 16/2 ratio {ratio}");
    }

    #[test]
    fn allreduce_time_grows_with_size_and_ranks() {
        let small = imb_collective(spec(4), ImbOp::Allreduce, 64, 2).unwrap();
        let big = imb_collective(spec(4), ImbOp::Allreduce, 64 * 1024, 2).unwrap();
        assert!(big.time_us > small.time_us);
        let more_ranks = imb_collective(spec(16), ImbOp::Allreduce, 64, 2).unwrap();
        assert!(more_ranks.time_us > small.time_us);
    }

    #[test]
    fn bcast_is_cheaper_than_allreduce() {
        // Allreduce = reduce + bcast in this implementation.
        let b = imb_collective(spec(8), ImbOp::Bcast, 4096, 2).unwrap();
        let a = imb_collective(spec(8), ImbOp::Allreduce, 4096, 2).unwrap();
        assert!(b.time_us < a.time_us, "bcast {} !< allreduce {}", b.time_us, a.time_us);
    }

    #[test]
    fn exchange_is_rank_count_insensitive() {
        // Nearest-neighbour exchange does constant work per rank.
        let p4 = imb_collective(spec(4), ImbOp::Exchange, 8192, 2).unwrap();
        let p16 = imb_collective(spec(16), ImbOp::Exchange, 8192, 2).unwrap();
        let ratio = p16.time_us / p4.time_us;
        assert!(ratio < 1.6, "exchange should not blow up with ranks: {ratio}");
    }

    #[test]
    fn single_rank_collectives_cost_nothing_on_the_wire() {
        let b = imb_collective(spec(1), ImbOp::Barrier, 0, 3).unwrap();
        assert_eq!(b.time_us, 0.0);
    }
}
