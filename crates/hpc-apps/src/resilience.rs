//! Coordinated checkpoint/restart and silent-data-corruption detection for
//! HPL — the application-level answer to §6.3's reliability limitation.
//!
//! The paper argues that a large unprotected-DRAM cluster sees memory errors
//! daily, so a mobile-SoC machine is only usable with fault tolerance in
//! software. This module supplies exactly that, on top of the deterministic
//! fault injection in `des`/`simmpi`:
//!
//! * **Coordinated checkpoints** — every `k` panels, all ranks synchronise
//!   and write their local block-columns (and pivot history) to a snapshot
//!   store at a modelled node-local write bandwidth. A checkpoint counts
//!   only when *every* rank's snapshot for that panel landed, so a crash
//!   mid-checkpoint rolls back to the previous complete one.
//! * **Restart with spares** — when [`run_hpl_resilient`] sees
//!   [`MpiFault::RankDied`], it maps the dead physical node out via the
//!   job's `node_map`, substitutes the next spare node in the topology,
//!   rebases the fault plan ([`FaultPlan::shifted`] /
//!   [`FaultPlan::without_node`]) and re-runs from the last complete
//!   checkpoint.
//! * **SDC detection** — in Execute mode, scheduled DRAM bit-flips corrupt
//!   real matrix entries ([`Rank::poll_bit_flip`](simmpi::Rank::poll_bit_flip)); the standard HPL scaled
//!   residual at the end of the run is the detector, and a detection also
//!   triggers a rollback. A flip that lands *before* the last checkpoint is
//!   captured inside the snapshots and cannot be recovered from — the same
//!   blind spot real checkpointed HPL has.
//!
//! The [`ResilienceReport`] carries the headline numbers of the resilience
//! experiment: time-to-solution inflation versus a fault-free run, and the
//! fraction of time spent writing checkpoints.

use std::sync::{Arc, Mutex};

use des::{FaultPlan, SimTime};
use simmpi::{run_mpi, JobSpec, MpiFault, ReduceOp};

use crate::hpl::{hpl_rank_ckpt, HplConfig};

/// One rank's saved state at a checkpoint: everything needed to resume the
/// factorisation from that panel.
#[derive(Clone, Debug, Default)]
pub struct RankSnapshot {
    /// Local block-columns (empty in Model mode).
    pub blocks: Vec<Vec<f64>>,
    /// Pivot history for panels before the checkpoint (empty in Model
    /// mode, which records no pivots).
    pub pivot_log: Vec<u64>,
}

/// Cross-attempt snapshot storage for coordinated checkpoints.
///
/// Lives outside the simulated world (it models stable storage that
/// survives node crashes). A slot for panel `k` is *complete* — usable for
/// restart — only when all ranks have written it.
#[derive(Debug)]
pub struct CkptStore {
    ranks: usize,
    /// `(panel, per-rank snapshots)`, most recent last.
    slots: Vec<(usize, Vec<Option<RankSnapshot>>)>,
    /// Checkpoint rounds started (rank 0 writes), across all attempts.
    rounds: usize,
}

impl CkptStore {
    /// An empty store for a job of `ranks` ranks.
    pub fn new(ranks: usize) -> CkptStore {
        CkptStore { ranks, slots: Vec::new(), rounds: 0 }
    }

    /// Record `rank`'s snapshot for panel `k`.
    pub fn save(&mut self, k: usize, rank: usize, snap: RankSnapshot) {
        if rank == 0 {
            self.rounds += 1;
        }
        let slot = match self.slots.iter_mut().find(|(panel, _)| *panel == k) {
            Some((_, s)) => s,
            None => {
                self.slots.push((k, vec![None; self.ranks]));
                &mut self.slots.last_mut().unwrap().1
            }
        };
        slot[rank] = Some(snap);
    }

    /// `rank`'s snapshot for panel `k`, if present.
    pub fn load(&self, k: usize, rank: usize) -> Option<RankSnapshot> {
        self.slots.iter().find(|(panel, _)| *panel == k).and_then(|(_, s)| s[rank].clone())
    }

    /// The most recent panel with a snapshot from *every* rank (0 = no
    /// complete checkpoint, restart from scratch).
    pub fn last_complete(&self) -> usize {
        self.slots
            .iter()
            .filter(|(_, s)| s.iter().all(Option::is_some))
            .map(|(k, _)| *k)
            .max()
            .unwrap_or(0)
    }

    /// Checkpoint rounds started across all attempts.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// Checkpoint hooks threaded into the HPL panel loop by the resilient
/// driver (see [`hpl_rank_ckpt`]).
#[derive(Clone)]
pub struct CkptHooks {
    /// Checkpoint every this many panels (0 disables checkpointing).
    pub every: usize,
    /// Node-local checkpoint write bandwidth, bytes/s.
    pub write_bw_bytes: f64,
    /// Panel to resume from; snapshots for it must be in the store.
    pub start_k: usize,
    /// Snapshot storage shared across attempts.
    pub store: Arc<Mutex<CkptStore>>,
    /// Corrupt live matrix data when the fault plan's bit-flips strike
    /// (Execute mode only; the residual then detects the SDC).
    pub apply_bit_flips: bool,
}

/// Flip the top mantissa bit of one deterministic-pseudorandomly chosen
/// local matrix entry — the simulated effect of an uncorrected DRAM
/// bit-flip. An O(1) relative perturbation is detected by the scaled
/// residual with enormous margin (its fault-free scale is O(1), not
/// O(1/eps)); flipping an exponent bit instead could produce inf/NaN, which
/// models a *different*, noisier failure than silent corruption.
///
/// The choice is derived from the flip's virtual time, so identical runs
/// corrupt identical entries. Padded columns past the matrix edge are
/// avoided (corruption there would be invisible to verification).
pub(crate) fn corrupt_block(
    blocks: &mut [Vec<f64>],
    block_global: &[usize],
    at: SimTime,
    n: usize,
    nb: usize,
) {
    if blocks.is_empty() {
        return;
    }
    let h = at.as_nanos();
    let li = (h as usize) % blocks.len();
    let j = block_global[li];
    let width = nb.min(n - j * nb);
    let c = ((h >> 8) as usize) % width;
    let row = ((h >> 24) as usize) % n;
    let idx = c * n + row;
    let bits = blocks[li][idx].to_bits() ^ (1u64 << 51);
    blocks[li][idx] = f64::from_bits(bits);
}

/// Configuration of the resilient HPL driver.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Coordinated checkpoint period in panels (0 = no checkpoints: a crash
    /// always restarts the factorisation from scratch).
    pub ckpt_every_panels: usize,
    /// Node-local checkpoint write bandwidth, bytes/s (eMMC/SD class
    /// storage on the paper's boards).
    pub write_bw_bytes: f64,
    /// Fixed virtual-time cost of detecting a failure, reallocating nodes
    /// and relaunching (job-launch latency on the real machine).
    pub restart_overhead: SimTime,
    /// Give up after this many attempts.
    pub max_attempts: u32,
    /// Apply scheduled bit-flips to live data (Execute mode).
    pub apply_bit_flips: bool,
    /// Scaled-residual acceptance threshold (reference HPL uses 16).
    pub residual_limit: f64,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            ckpt_every_panels: 4,
            write_bw_bytes: 20e6,
            restart_overhead: SimTime::from_millis(500),
            max_attempts: 8,
            apply_bit_flips: true,
            residual_limit: 16.0,
        }
    }
}

/// Outcome of a resilient HPL campaign.
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Whether the factorisation eventually completed with an acceptable
    /// residual (Model mode: completed at all).
    pub completed: bool,
    /// Attempts launched (1 = clean first try).
    pub attempts: u32,
    /// Node crashes survived.
    pub crashes: u32,
    /// Communication timeouts survived.
    pub timeouts: u32,
    /// Runs whose residual exposed silent data corruption.
    pub sdc_detected: u32,
    /// Spare nodes consumed by crash recovery.
    pub spares_used: u32,
    /// Total virtual time to solution, including failed attempts, restart
    /// overheads and checkpoint writes.
    pub total_secs: f64,
    /// Fault-free, checkpoint-free baseline time for the same job.
    pub clean_secs: f64,
    /// Modelled time spent writing checkpoints (sum over rounds of the
    /// slowest rank's write).
    pub checkpoint_secs: f64,
    /// `total_secs / clean_secs` — the headline inflation number.
    pub inflation: f64,
    /// Final residual (Execute mode, successful run).
    pub residual: Option<f64>,
    /// The fault that ended the campaign, when it did not complete.
    pub fatal: Option<MpiFault>,
}

impl ResilienceReport {
    /// Check the protocol-level invariants a campaign outcome must satisfy,
    /// independent of timing: the model checker's safety predicate.
    ///
    /// Returns `Err` with a human-readable description on the first violated
    /// invariant:
    /// - attempts never exceed the configured budget;
    /// - a completed campaign carries no fatal fault and never accepted a
    ///   residual at or above the limit (no silent-data-corruption
    ///   acceptance; NaN residuals are violations);
    /// - an abandoned campaign says why (a fatal fault is recorded);
    /// - crash recovery never consumes more spares than `spares` provided.
    pub fn check_invariants(&self, rc: &ResilienceConfig, spares: u32) -> Result<(), String> {
        if self.attempts > rc.max_attempts {
            return Err(format!(
                "attempt budget exceeded: {} attempts > max_attempts {}",
                self.attempts, rc.max_attempts
            ));
        }
        if self.completed {
            if let Some(f) = &self.fatal {
                return Err(format!("completed run carries a fatal fault: {f}"));
            }
            if let Some(r) = self.residual {
                // A NaN residual must be rejected too, hence no plain `<`.
                if r.is_nan() || r >= rc.residual_limit {
                    return Err(format!(
                        "SDC accepted: completed with residual {r} >= limit {}",
                        rc.residual_limit
                    ));
                }
            }
        } else if self.fatal.is_none() {
            return Err("abandoned campaign records no fatal fault".to_string());
        }
        if self.spares_used > spares {
            return Err(format!(
                "spare over-consumption: used {} of {} spares",
                self.spares_used, spares
            ));
        }
        Ok(())
    }
}

/// Run HPL to completion under a fault plan, surviving node crashes, lossy
/// links and detected SDC by checkpoint/restart with spare nodes.
///
/// `base.topology` must contain the job's nodes *plus* any spares; ranks are
/// initially mapped onto physical nodes `0..L` and crashes promote spares
/// `L..` into the map one at a time. The fault plan addresses physical
/// nodes, so faults scheduled on spare nodes strike only once the spare is
/// in service (and faults on dead nodes die with them).
///
/// The inflation baseline is simulated here first, fault-free and without
/// checkpoints, through the attempts' own job body (the model checker's
/// scenarios call this, and their state counts include that engine run);
/// the fault that stops the baseline, if any, is returned instead of a
/// report. [`run_hpl_resilient_with_baseline`] takes the baseline from the
/// caller instead.
pub fn run_hpl_resilient(
    base: JobSpec,
    cfg: HplConfig,
    rc: &ResilienceConfig,
    plan: &FaultPlan,
) -> Result<ResilienceReport, MpiFault> {
    let spec = base.clone().with_fault_plan(FaultPlan::none());
    let clean = run_mpi(spec, move |mut r| async move {
        let t0 = r.now();
        hpl_rank_ckpt(&mut r, &cfg, None).await;
        let dt = (r.now() - t0).as_secs_f64();
        r.allreduce(ReduceOp::Max, vec![dt]).await[0]
    })?;
    Ok(run_hpl_resilient_with_baseline(base, cfg, rc, plan, clean.results[0]))
}

/// [`run_hpl_resilient`] against a fault-free baseline time the caller
/// already has — in `repro`, the Fig 6 HPL run of the same job, shared
/// through an [`HplShare`](crate::hpl::HplShare).
pub fn run_hpl_resilient_with_baseline(
    base: JobSpec,
    cfg: HplConfig,
    rc: &ResilienceConfig,
    plan: &FaultPlan,
    clean_secs: f64,
) -> ResilienceReport {
    let logical = base.ranks.div_ceil(base.ranks_per_node);
    let physical = base.topology.nodes();
    assert!(logical <= physical, "topology must hold the job (+ spares)");

    let store = Arc::new(Mutex::new(CkptStore::new(base.ranks as usize)));
    let mut plan = plan.clone();
    let mut map: Vec<u32> = (0..logical).collect();
    let mut next_spare = logical;
    let overhead = rc.restart_overhead.as_secs_f64();

    let mut report = ResilienceReport {
        completed: false,
        attempts: 0,
        crashes: 0,
        timeouts: 0,
        sdc_detected: 0,
        spares_used: 0,
        total_secs: 0.0,
        clean_secs,
        checkpoint_secs: 0.0,
        inflation: f64::INFINITY,
        residual: None,
        fatal: None,
    };

    while report.attempts < rc.max_attempts {
        report.attempts += 1;
        let start_k = store.lock().unwrap().last_complete();
        let hooks = (rc.ckpt_every_panels > 0).then(|| CkptHooks {
            every: rc.ckpt_every_panels,
            write_bw_bytes: rc.write_bw_bytes,
            start_k,
            store: Arc::clone(&store),
            apply_bit_flips: rc.apply_bit_flips,
        });
        let spec = base.clone().with_fault_plan(plan.clone()).with_node_map(map.clone());
        let run = run_mpi(spec, move |mut r| {
            let hooks = hooks.clone();
            async move {
                let t0 = r.now();
                let residual = hpl_rank_ckpt(&mut r, &cfg, hooks.as_ref()).await;
                let dt = (r.now() - t0).as_secs_f64();
                (r.allreduce(ReduceOp::Max, vec![dt]).await[0], residual)
            }
        });
        match run {
            Ok(done) => {
                let (elapsed, residual) = done.results[0];
                report.total_secs += elapsed;
                if let Some(x) = residual {
                    // NaN-safe: anything not provably below the limit
                    // (including NaN from corrupted arithmetic) is SDC.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    if !(x < rc.residual_limit) {
                        // The residual caught silent corruption: roll back.
                        report.sdc_detected += 1;
                        report.total_secs += overhead;
                        plan = plan.shifted(SimTime::from_secs_f64(elapsed) + rc.restart_overhead);
                        continue;
                    }
                }
                report.completed = true;
                report.residual = residual;
                break;
            }
            Err(MpiFault::RankDied { node, at, .. }) => {
                report.crashes += 1;
                report.total_secs += at.as_secs_f64() + overhead;
                plan = plan.without_node(node).shifted(at + rc.restart_overhead);
                if next_spare >= physical {
                    report.fatal = Some(MpiFault::RankDied { node, at, rank: u32::MAX });
                    break; // out of spares
                }
                let li = map.iter().position(|&p| p == node).expect("crashed node must be mapped");
                map[li] = next_spare;
                next_spare += 1;
                report.spares_used += 1;
            }
            Err(MpiFault::Timeout { at, .. }) => {
                // The node survives; retry from the last checkpoint once the
                // network recovers.
                report.timeouts += 1;
                report.total_secs += at.as_secs_f64() + overhead;
                plan = plan.shifted(at + rc.restart_overhead);
            }
            Err(other) => {
                report.fatal = Some(other);
                break;
            }
        }
    }

    // Modelled checkpoint write time: rounds × the slowest rank's write.
    let nblk = cfg.n.div_ceil(cfg.nb);
    let max_rank_blocks = nblk.div_ceil(base.ranks as usize);
    let per_round = (max_rank_blocks * cfg.n * cfg.nb * 8) as f64 / rc.write_bw_bytes;
    report.checkpoint_secs = store.lock().unwrap().rounds() as f64 * per_round;
    if report.completed && clean_secs > 0.0 {
        report.inflation = report.total_secs / clean_secs;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::Mode;
    use des::{FaultEvent, FaultKind};
    use netsim::TopologySpec;
    use soc_arch::Platform;

    fn base(ranks: u32, physical: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), ranks)
            .with_topology(TopologySpec::Star { nodes: physical })
    }

    // Execute-mode HPL advances virtual time for *communication only*, so
    // the small test jobs last about a millisecond of virtual time
    // (n=32: ~0.72 ms, n=48: ~1.07 ms, n=64: ~1.50 ms for 2 ranks;
    // checkpoint writes add blocks*n*nb*8/write_bw each). Fault times are
    // therefore scheduled in microseconds.
    fn crash(node: u32, us: u64) -> FaultEvent {
        FaultEvent { at: SimTime::from_micros(us), kind: FaultKind::NodeCrash { node } }
    }

    #[test]
    fn clean_plan_completes_first_try() {
        let rep = run_hpl_resilient(
            base(2, 2),
            HplConfig::small(32, 8),
            &ResilienceConfig::default(),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(rep.completed);
        assert_eq!(rep.attempts, 1);
        assert_eq!((rep.crashes, rep.timeouts, rep.spares_used), (0, 0, 0));
        assert!(rep.residual.unwrap() < 16.0);
        assert!(rep.inflation >= 1.0);
    }

    #[test]
    fn crash_recovers_on_spare_and_still_verifies() {
        // 2 ranks on nodes {0,1}, node 2 spare. Node 1 dies mid-run; the
        // job must finish on {0,2} with a correct answer.
        let plan = FaultPlan::from_events(vec![crash(1, 600)]);
        let rep = run_hpl_resilient(
            base(2, 3),
            HplConfig::small(48, 8),
            &ResilienceConfig::default(),
            &plan,
        )
        .unwrap();
        assert!(rep.completed, "fatal: {:?}", rep.fatal);
        assert_eq!(rep.crashes, 1);
        assert_eq!(rep.spares_used, 1);
        assert_eq!(rep.attempts, 2);
        assert!(rep.residual.unwrap() < 16.0, "residual {:?}", rep.residual);
        assert!(rep.inflation > 1.0);
    }

    #[test]
    fn invariant_checks_accept_real_outcomes_and_reject_forged_ones() {
        let rc = ResilienceConfig::default();
        let rep = run_hpl_resilient(base(2, 3), HplConfig::small(32, 8), &rc, &FaultPlan::none())
            .unwrap();
        assert_eq!(rep.check_invariants(&rc, 1), Ok(()));

        // Forged outcomes each trip exactly the invariant they violate.
        let mut over = rep.clone();
        over.attempts = rc.max_attempts + 1;
        assert!(over.check_invariants(&rc, 1).unwrap_err().contains("attempt budget"));

        let mut sdc = rep.clone();
        sdc.residual = Some(f64::NAN);
        assert!(sdc.check_invariants(&rc, 1).unwrap_err().contains("SDC accepted"));

        let mut silent = rep.clone();
        silent.completed = false;
        silent.fatal = None;
        assert!(silent.check_invariants(&rc, 1).unwrap_err().contains("no fatal fault"));

        let mut greedy = rep.clone();
        greedy.spares_used = 2;
        assert!(greedy.check_invariants(&rc, 1).unwrap_err().contains("spare over-consumption"));
    }

    #[test]
    fn out_of_spares_is_fatal() {
        // One spare (nodes {0,1} + spare 2). Attempt 1 loses node 0 at
        // 300 µs and promotes the spare; after the plan shifts by
        // 300 µs + 100 µs overhead, the node-1 crash lands at 500 µs into
        // attempt 2 and there is no spare left.
        let plan = FaultPlan::from_events(vec![crash(0, 300), crash(1, 900)]);
        let rep = run_hpl_resilient(
            base(2, 3),
            HplConfig::small(32, 8),
            &ResilienceConfig {
                restart_overhead: SimTime::from_micros(100),
                ..ResilienceConfig::default()
            },
            &plan,
        )
        .unwrap();
        assert!(!rep.completed);
        assert_eq!(rep.crashes, 2);
        assert_eq!(rep.spares_used, 1);
        assert!(matches!(rep.fatal, Some(MpiFault::RankDied { .. })));
    }

    #[test]
    fn checkpoint_restart_completes_where_scratch_restart_fails() {
        // The same fault plan, two policies. A fresh crash lands roughly a
        // millisecond into every attempt window, so restarting from scratch
        // (every = 0, full run ~1.5 ms) never gets a long-enough crash-free
        // window and exhausts its attempts. With checkpoints every two
        // panels the job ratchets past the crashes and completes.
        let plan = FaultPlan::from_events(vec![crash(1, 1000), crash(2, 2100), crash(3, 3200)]);
        let cfg = HplConfig::small(64, 8);
        let rc = ResilienceConfig {
            ckpt_every_panels: 2,
            write_bw_bytes: 200e6,
            restart_overhead: SimTime::from_micros(100),
            max_attempts: 3,
            ..ResilienceConfig::default()
        };
        let with = run_hpl_resilient(base(2, 8), cfg, &rc, &plan).unwrap();
        assert!(with.completed, "checkpointing run failed: {:?}", with.fatal);
        assert!(with.crashes >= 1, "{with:?}");
        assert!(with.checkpoint_secs > 0.0);
        assert!(with.residual.unwrap() < 16.0);
        assert!(with.inflation > 1.0);

        let without = run_hpl_resilient(
            base(2, 8),
            cfg,
            &ResilienceConfig { ckpt_every_panels: 0, ..rc },
            &plan,
        )
        .unwrap();
        assert!(!without.completed, "{without:?}");
        assert_eq!(without.attempts, rc.max_attempts);
    }

    #[test]
    fn bit_flip_is_detected_and_recovered() {
        // One flip after the (only) checkpoint: the first pass produces a
        // wrong answer, the residual flags it, and the rollback completes
        // cleanly because the shifted plan no longer contains the flip.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_micros(1800),
            kind: FaultKind::BitFlip { node: 0 },
        }]);
        let rep = run_hpl_resilient(
            base(2, 2),
            HplConfig::small(48, 8),
            &ResilienceConfig { ckpt_every_panels: 2, ..ResilienceConfig::default() },
            &plan,
        )
        .unwrap();
        assert!(rep.completed, "fatal: {:?}", rep.fatal);
        assert_eq!(rep.sdc_detected, 1, "the flip must be caught: {rep:?}");
        assert!(rep.residual.unwrap() < 16.0);
        assert!(rep.attempts >= 2);
    }

    #[test]
    fn model_mode_campaign_reports_inflation() {
        // The Model-mode job lasts ~65 ms of virtual time; crash mid-run.
        let plan = FaultPlan::from_events(vec![crash(1, 30_000)]);
        let rep = run_hpl_resilient(
            base(4, 6),
            HplConfig { n: 512, nb: 64, mode: Mode::Model },
            &ResilienceConfig { apply_bit_flips: false, ..ResilienceConfig::default() },
            &plan,
        )
        .unwrap();
        assert!(rep.completed, "fatal: {:?}", rep.fatal);
        assert!(rep.residual.is_none());
        assert!(rep.inflation > 1.0);
        assert!(rep.total_secs > rep.clean_secs);
    }
}
