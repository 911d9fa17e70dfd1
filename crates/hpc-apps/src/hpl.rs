//! High-Performance Linpack (§4, Table 3): "solves a random dense linear
//! system of equations in double precision, and is widely known as the
//! single benchmark used in the TOP500 list."
//!
//! This is a real distributed LU factorisation with partial pivoting on a
//! 1-D block-column-cyclic layout: block column `j` lives on rank
//! `j mod P`. Each iteration factorises one panel on its owner, broadcasts
//! the factored panel and pivot rows, and updates the trailing matrix on all
//! ranks (triangular solve of the `U12` strip + rank-`nb` GEMM update).
//!
//! In Execute mode the whole factorisation runs on real data and the result
//! is verified with the standard HPL residual. In Model mode the identical
//! communication structure runs with size-only payloads and roofline-timed
//! compute — that is what reproduces the 96-node weak-scaling numbers
//! (97 GFLOPS, 51% efficiency). Model mode keeps no matrix data and no pivot
//! history (only Execute-mode verification reads pivots), so a Model-mode
//! rank's heap stays bounded as the matrix order grows: a checkpoint
//! snapshot of it is empty, and a 96-node run holds no O(P·N) pivot log.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use simmpi::{JobSpec, MpiFault, MpiRun, Msg, Rank};
use soc_arch::{AccessPattern, WorkProfile};

use crate::mode::Mode;
use crate::resilience::{corrupt_block, CkptHooks, RankSnapshot};

/// HPL problem configuration.
#[derive(Clone, Copy, Debug)]
pub struct HplConfig {
    /// Matrix order.
    pub n: usize,
    /// Panel width (block size).
    pub nb: usize,
    /// Execution mode.
    pub mode: Mode,
}

impl HplConfig {
    /// A small Execute-mode problem for functional tests.
    pub fn small(n: usize, nb: usize) -> HplConfig {
        HplConfig { n, nb, mode: Mode::Execute }
    }

    /// A Model-mode problem sized for `nodes` Tibidabo nodes under weak
    /// scaling: the per-node share of the matrix uses ~60% of the node's
    /// 1 GiB (the usual HPL memory discipline).
    pub fn tibidabo_weak(nodes: u32) -> HplConfig {
        let per_node = 0.6 * 1.0e9 / 8.0; // elements per node
        let n = ((per_node * nodes as f64).sqrt() as usize) / 128 * 128;
        HplConfig { n, nb: 128, mode: Mode::Model }
    }

    fn nblocks(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// FP64 operation count of the factorisation + solve (HPL convention).
    pub fn flops(&self) -> f64 {
        let n = self.n as f64;
        2.0 / 3.0 * n * n * n + 2.0 * n * n
    }
}

/// Result of an HPL run.
#[derive(Clone, Copy, Debug)]
pub struct HplResult {
    /// Virtual wall-clock seconds of the factorisation (+ solve checks).
    pub seconds: f64,
    /// Sustained GFLOPS.
    pub gflops: f64,
    /// The scaled HPL residual, when Execute mode verified the solution
    /// (must be < 16 to pass, like the reference HPL).
    pub residual: Option<f64>,
}

/// Deterministic matrix entry generator (the "random dense linear system").
#[inline]
fn a_entry(n: usize, row: usize, col: usize) -> f64 {
    let mut x = (row * n + col) as u64;
    x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xDEADBEEF);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 32;
    let v = (x % 2_000_000) as f64 / 1_000_000.0 - 1.0;
    // Diagonal dominance keeps the test matrices comfortably non-singular
    // while pivoting still gets exercised by the off-diagonal noise.
    if row == col {
        v + 4.0
    } else {
        v
    }
}

/// Deterministic right-hand side.
#[inline]
fn b_entry(row: usize) -> f64 {
    ((row % 97) as f64) * 0.125 - 6.0
}

/// The per-rank HPL program, with optional coordinated-checkpoint hooks:
/// resume from a stored snapshot, write new snapshots every `hooks.every`
/// panels, and (Execute mode) apply scheduled DRAM bit-flips to live data.
/// Returns the scaled residual on rank 0 in Execute mode, `None` elsewhere.
/// [`run_hpl`] runs it without hooks,
/// [`run_hpl_resilient`](crate::resilience::run_hpl_resilient) with them.
pub async fn hpl_rank_ckpt(
    r: &mut Rank,
    cfg: &HplConfig,
    hooks: Option<&CkptHooks>,
) -> Option<f64> {
    let p = r.size() as usize;
    let me = r.rank() as usize;
    let n = cfg.n;
    let nb = cfg.nb;
    let nblk = cfg.nblocks();

    // Local block-columns (column-major n × nb each), Execute mode only.
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    let mut block_global: Vec<usize> = Vec::new();
    for j in (me..nblk).step_by(p) {
        block_global.push(j);
        if cfg.mode.carries_data() {
            let mut data = vec![0.0; n * nb];
            for c in 0..nb {
                let col = j * nb + c;
                if col < n {
                    for row in 0..n {
                        data[c * n + row] = a_entry(n, row, col);
                    }
                }
            }
            blocks.push(data);
        }
    }
    let local_of = |j: usize| (j - me) / p;

    // Pivot history for verification: the row chosen for each column, in
    // order. Execute mode only: Model mode has no pivots to record.
    let mut pivot_log: Vec<u64> = Vec::new();

    // Resuming from a checkpoint: load this rank's snapshot (matrix state
    // and pivot history as of panel `start_k`) instead of starting fresh.
    let start_k = hooks.map_or(0, |h| h.start_k);
    if let Some(h) = hooks {
        if h.start_k > 0 {
            let snap = h
                .store
                .lock()
                .unwrap()
                .load(h.start_k, me)
                .expect("resume requested without a complete checkpoint");
            if cfg.mode.carries_data() {
                blocks = snap.blocks;
            }
            pivot_log = snap.pivot_log;
        }
    }

    for k in start_k..nblk {
        // Coordinated checkpoint: synchronise, write local state at the
        // node-local storage bandwidth, snapshot to stable storage.
        if let Some(h) = hooks {
            if h.every > 0 && k > start_k && k % h.every == 0 {
                r.phase_begin("hpl.checkpoint");
                r.barrier().await;
                let local_bytes = if cfg.mode.carries_data() {
                    blocks.iter().map(|b| b.len() * 8).sum::<usize>() as f64
                } else {
                    (block_global.len() * n * nb * 8) as f64
                };
                r.compute_secs(local_bytes / h.write_bw_bytes).await;
                h.store.lock().unwrap().save(
                    k,
                    me,
                    RankSnapshot { blocks: blocks.clone(), pivot_log: pivot_log.clone() },
                );
                r.phase_end("hpl.checkpoint");
            }
        }
        let owner = (k % p) as u32;
        let kb = k * nb;
        let width = nb.min(n - kb);
        let m = n - kb; // panel height
        let panel_bytes = (m * width * 8 + width * 8) as u64;

        // --- Panel factorisation on the owner: the message is the panel's
        // pivots followed by its factored rows kb..n ----------------------
        let msg = if me == owner as usize {
            r.phase_begin("hpl.panel");
            let msg = if cfg.mode.carries_data() {
                let blk = &mut blocks[local_of(k)];
                let mut payload = Vec::with_capacity(width + m * width);
                for c in 0..width {
                    let col = kb + c;
                    // Pivot search in column c, rows col..n.
                    let mut best = col;
                    let mut best_abs = blk[c * n + col].abs();
                    for row in col + 1..n {
                        let a = blk[c * n + row].abs();
                        if a > best_abs {
                            best_abs = a;
                            best = row;
                        }
                    }
                    payload.push(best as f64);
                    if best != col {
                        for cc in 0..width {
                            blk.swap(cc * n + col, cc * n + best);
                        }
                    }
                    let pv = blk[c * n + col];
                    assert!(pv.abs() > 1e-300, "HPL: singular pivot at column {col}");
                    let inv = 1.0 / pv;
                    for row in col + 1..n {
                        blk[c * n + row] *= inv;
                    }
                    for cc in c + 1..width {
                        let mult = blk[cc * n + col];
                        if mult != 0.0 {
                            for row in col + 1..n {
                                blk[cc * n + row] -= blk[c * n + row] * mult;
                            }
                        }
                    }
                }
                for c in 0..width {
                    payload.extend_from_slice(&blk[c * n + kb..c * n + n]);
                }
                Msg::from_f64s(&payload)
            } else {
                // Model mode: the panel's cost only. Its pivots would be the
                // identity, and nothing reads them.
                let work = WorkProfile::new(
                    "hpl-panel",
                    (m * width * width) as f64,
                    (3 * m * width * 8) as f64,
                    AccessPattern::Streaming,
                )
                .with_parallel_fraction(0.9);
                r.compute(&work).await;
                Msg::size_only(panel_bytes)
            };
            r.phase_end("hpl.panel");
            Some(msg)
        } else {
            None
        };

        // --- Broadcast pivots + panel (segmented ring, like HPL's
        // pipelined panel broadcast) ---------------------------------------
        r.phase_begin("hpl.bcast");
        let received = r.bcast_pipelined(owner, msg, panel_bytes, 256 * 1024).await;
        r.phase_end("hpl.bcast");

        // --- Apply row swaps + trailing update ---------------------------
        r.phase_begin("hpl.update");
        if cfg.mode.carries_data() {
            let v = received.to_f64s();
            let (piv, panel_packed) = v.split_at(width);
            pivot_log.extend(piv.iter().map(|&x| x as u64));
            // Swaps apply to every local block except the panel itself
            // (already swapped during factorisation).
            for (li, &j) in block_global.iter().enumerate() {
                if j == k {
                    continue;
                }
                let blk = &mut blocks[li];
                for (c, &pv) in piv.iter().enumerate() {
                    let row = kb + c;
                    let pv = pv as usize;
                    if pv != row {
                        for cc in 0..nb {
                            blk.swap(cc * n + row, cc * n + pv);
                        }
                    }
                }
            }
            // Trailing blocks: U12 strip solve + GEMM update.
            let l = |row: usize, c: usize| panel_packed[c * m + (row - kb)];
            for (li, &j) in block_global.iter().enumerate() {
                if j <= k {
                    continue;
                }
                let blk = &mut blocks[li];
                let wj = nb.min(n - j * nb);
                for cc in 0..wj {
                    // Unit-lower triangular solve on rows kb..kb+width.
                    for c in 1..width {
                        let mut acc = blk[cc * n + kb + c];
                        for rr in 0..c {
                            acc -= l(kb + c, rr) * blk[cc * n + kb + rr];
                        }
                        blk[cc * n + kb + c] = acc;
                    }
                    // GEMM: rows kb+width..n.
                    for row in kb + width..n {
                        let mut acc = blk[cc * n + row];
                        for c in 0..width {
                            acc -= l(row, c) * blk[cc * n + kb + c];
                        }
                        blk[cc * n + row] = acc;
                    }
                }
            }
        } else {
            // Model mode: time the update on this rank's trailing blocks.
            let trailing: usize = block_global.iter().filter(|&&j| j > k).count();
            if trailing > 0 {
                let cols = trailing * nb;
                let m2 = n - kb - width;
                let flops =
                    2.0 * m2 as f64 * width as f64 * cols as f64 + (width * width * cols) as f64;
                let bytes = 4.0 * 8.0 * (m2 as f64 * cols as f64);
                let work =
                    WorkProfile::new("hpl-update", flops, bytes, AccessPattern::LocalityRich);
                r.compute(&work).await;
            }
        }
        r.phase_end("hpl.update");

        // Any DRAM bit-flip that struck this node during the panel corrupts
        // live matrix data; the end-of-run residual is the detector.
        if let Some(h) = hooks {
            if h.apply_bit_flips && cfg.mode.carries_data() {
                while let Some(at) = r.poll_bit_flip() {
                    corrupt_block(&mut blocks, &block_global, at, n, nb);
                }
            }
        }
    }

    // Synchronise before stopping the clock (every rank reports the same
    // factorisation span).
    r.barrier().await;

    // --- Verification (Execute mode): gather to rank 0 and solve ---------
    if cfg.mode.carries_data() {
        r.phase_begin("hpl.verify");
        let residual = verify(r, cfg, &blocks, &block_global, &pivot_log).await;
        r.phase_end("hpl.verify");
        residual
    } else {
        None
    }
}

/// Gather the factored matrix on rank 0, solve, and compute the scaled HPL
/// residual `||Ax-b||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * n)`.
async fn verify(
    r: &mut Rank,
    cfg: &HplConfig,
    blocks: &[Vec<f64>],
    block_global: &[usize],
    pivot_log: &[u64],
) -> Option<f64> {
    let n = cfg.n;
    let nb = cfg.nb;
    // Flatten local blocks into one payload: [global_index, data...] each.
    let mut flat = Vec::new();
    for (li, &j) in block_global.iter().enumerate() {
        flat.push(j as f64);
        flat.extend_from_slice(&blocks[li]);
    }
    let gathered = r.gather(0, Msg::from_f64s(&flat)).await;
    if r.rank() != 0 {
        return None;
    }
    // Reassemble the full factored matrix (column-major n×n).
    let mut lu = vec![0.0; n * n];
    for msg in gathered.unwrap() {
        let v = msg.to_f64s();
        let mut pos = 0;
        while pos < v.len() {
            let j = v[pos] as usize;
            pos += 1;
            let chunk = &v[pos..pos + n * nb];
            pos += n * nb;
            for c in 0..nb {
                let col = j * nb + c;
                if col < n {
                    lu[col * n..(col + 1) * n].copy_from_slice(&chunk[c * n..(c + 1) * n]);
                }
            }
        }
    }
    // Right-hand side with the pivot history applied in order.
    let mut b: Vec<f64> = (0..n).map(b_entry).collect();
    for (col, &pv) in pivot_log.iter().enumerate() {
        if col < n {
            b.swap(col, pv as usize);
        }
    }
    // Forward substitution (unit lower).
    for col in 0..n {
        let bi = b[col];
        if bi != 0.0 {
            for row in col + 1..n {
                b[row] -= lu[col * n + row] * bi;
            }
        }
    }
    // Back substitution (upper).
    for col in (0..n).rev() {
        b[col] /= lu[col * n + col];
        let bi = b[col];
        if bi != 0.0 {
            for row in 0..col {
                b[row] -= lu[col * n + row] * bi;
            }
        }
    }
    let x = b;
    // Residual against the original matrix.
    let mut r_inf: f64 = 0.0;
    let mut a_inf: f64 = 0.0;
    for row in 0..n {
        let mut acc = -b_entry(row);
        let mut arow: f64 = 0.0;
        for col in 0..n {
            let a = a_entry(n, row, col);
            acc += a * x[col];
            arow += a.abs();
        }
        r_inf = r_inf.max(acc.abs());
        a_inf = a_inf.max(arow);
    }
    let x_inf = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let b_inf = (0..n).map(b_entry).fold(0.0f64, |m, v| m.max(v.abs()));
    let eps = f64::EPSILON;
    Some(r_inf / (eps * (a_inf * x_inf + b_inf) * n as f64))
}

/// A finished HPL job: the aggregate result plus the simulated run behind
/// it, whose per-rank busy tallies energy accounting reads. Each rank's
/// result is its factorisation time and (rank 0, Execute mode) residual.
#[derive(Debug)]
pub struct HplRun {
    /// The aggregate result.
    pub result: HplResult,
    /// The simulated job.
    pub run: MpiRun<(f64, Option<f64>)>,
}

/// Run HPL on a job spec: every rank runs [`hpl_rank_ckpt`] without hooks
/// and reports its factorisation time, and the job's time is the slowest
/// rank's. Returns the run, or the fault (node crash, timeout, watchdog
/// budget, engine failure) that stopped it.
pub fn run_hpl(spec: JobSpec, cfg: HplConfig) -> Result<HplRun, MpiFault> {
    let run = simmpi::run_mpi(spec, move |mut r| async move {
        let t0 = r.now();
        let residual = hpl_rank_ckpt(&mut r, &cfg, None).await;
        ((r.now() - t0).as_secs_f64(), residual)
    })?;
    let seconds = run.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let residual = run.results[0].1;
    Ok(HplRun { result: HplResult { seconds, gflops: cfg.flops() / seconds / 1e9, residual }, run })
}

/// Fault-free HPL runs shared by the consumers of one scope — in `repro`,
/// one run plan — so each distinct job simulates once however many figures
/// report it. A run is keyed by everything that decides its result: the job
/// spec, run options included, and the HPL configuration. Concurrent
/// requests for one key wait for a single run; a failed run is shared like a
/// finished one (the simulation is deterministic, so a rerun would fail the
/// same way). A fresh, empty share simulates every request.
#[derive(Default)]
pub struct HplShare {
    runs: Mutex<HashMap<String, Arc<HplSlot>>>,
    requests: AtomicUsize,
    simulated: AtomicUsize,
}

type HplSlot = OnceLock<Result<Arc<HplRun>, MpiFault>>;

impl HplShare {
    /// The run of `cfg` on `spec`, simulated by the first request for it.
    pub fn run(&self, spec: JobSpec, cfg: HplConfig) -> Result<Arc<HplRun>, MpiFault> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = format!("{spec:?} {cfg:?}");
        let slot = Arc::clone(self.runs.lock().unwrap().entry(key).or_default());
        slot.get_or_init(|| {
            self.simulated.fetch_add(1, Ordering::Relaxed);
            run_hpl(spec, cfg).map(Arc::new)
        })
        .clone()
    }

    /// Requests answered so far.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Simulations run so far (one per distinct job requested).
    pub fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_arch::Platform;

    fn spec(p: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), p)
    }

    #[test]
    fn single_rank_execute_solves_correctly() {
        let res = run_hpl(spec(1), HplConfig::small(32, 8)).unwrap().result;
        let r = res.residual.expect("rank 0 must verify");
        assert!(r < 16.0, "HPL residual {r}");
    }

    #[test]
    fn four_ranks_execute_solves_correctly() {
        let res = run_hpl(spec(4), HplConfig::small(64, 8)).unwrap().result;
        let r = res.residual.expect("rank 0 must verify");
        assert!(r < 16.0, "HPL residual {r}");
        assert!(res.gflops > 0.0);
    }

    #[test]
    fn uneven_blocks_and_ranks_still_solve() {
        // n not divisible by nb*p: exercises edge blocks.
        let res = run_hpl(spec(3), HplConfig::small(56, 8)).unwrap().result;
        assert!(res.residual.unwrap() < 16.0);
    }

    #[test]
    fn pivoting_is_actually_exercised() {
        // With random off-diagonal entries some pivots must differ from the
        // diagonal; the residual staying small proves the swap bookkeeping.
        let res = run_hpl(spec(2), HplConfig::small(48, 8)).unwrap().result;
        assert!(res.residual.unwrap() < 16.0);
    }

    #[test]
    fn model_mode_runs_and_reports_time() {
        let cfg = HplConfig { n: 512, nb: 64, mode: Mode::Model };
        let res = run_hpl(spec(4), cfg).unwrap().result;
        assert!(res.seconds > 0.0);
        assert!(res.residual.is_none());
        assert!(res.gflops > 0.0);
    }

    #[test]
    fn model_mode_efficiency_is_plausible_fraction_of_peak() {
        let cfg = HplConfig { n: 1024, nb: 128, mode: Mode::Model };
        let res = run_hpl(spec(2), cfg).unwrap().result;
        let peak = Platform::tegra2().soc.peak_gflops_max() * 2.0;
        let eff = res.gflops / peak;
        assert!(eff > 0.2 && eff < 0.8, "efficiency {eff}");
    }

    #[test]
    fn weak_scaling_config_grows_n_with_sqrt_nodes() {
        let n4 = HplConfig::tibidabo_weak(4).n;
        let n16 = HplConfig::tibidabo_weak(16).n;
        let ratio = n16 as f64 / n4 as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
        assert_eq!(n4 % 128, 0);
    }
}
