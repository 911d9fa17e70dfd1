//! GROMACS (Table 3): "a versatile package for molecular dynamics
//! simulations". Implemented as a real Lennard-Jones molecular dynamics code
//! with cell lists and a 1-D slab domain decomposition: each step the ranks
//! exchange one slab of ghost atoms with each neighbour, compute short-range
//! LJ forces with a cutoff, and integrate with velocity Verlet.
//!
//! The Fig 6 behaviour ("its scalability improves as the input size is
//! increased" — the run uses "an input that fits in the memory of two
//! nodes") comes from the ghost-exchange surface term staying constant while
//! the per-rank volume work shrinks.

use simmpi::{JobSpec, Msg, Rank, ReduceOp};
use soc_arch::{AccessPattern, WorkProfile};

use crate::mode::Mode;

/// An atom: position and velocity in a periodic box (z-slab decomposition).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Atom {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
}

/// MD configuration.
#[derive(Clone, Copy, Debug)]
pub struct MdConfig {
    /// Total number of atoms.
    pub n: usize,
    /// Cubic box edge length.
    pub box_len: f64,
    /// LJ cutoff radius.
    pub cutoff: f64,
    /// Time step.
    pub dt: f64,
    /// Number of steps.
    pub steps: usize,
    /// Execution mode.
    pub mode: Mode,
}

impl MdConfig {
    /// Small Execute-mode configuration (modest density, stable dt).
    pub fn small() -> MdConfig {
        MdConfig { n: 500, box_len: 10.0, cutoff: 2.5, dt: 1e-3, steps: 10, mode: Mode::Execute }
    }

    /// The Fig 6 strong-scaling input: sized to fit two Tibidabo nodes.
    pub fn fig6() -> MdConfig {
        MdConfig { n: 60_000, box_len: 47.6, cutoff: 2.5, dt: 1e-3, steps: 10, mode: Mode::Model }
    }
}

/// Deterministic FCC-ish lattice with small velocity perturbations.
pub fn make_atoms(cfg: &MdConfig) -> Vec<Atom> {
    let per_edge = (cfg.n as f64).cbrt().ceil() as usize;
    let a = cfg.box_len / per_edge as f64;
    let mut atoms = Vec::with_capacity(cfg.n);
    'outer: for i in 0..per_edge {
        for j in 0..per_edge {
            for k in 0..per_edge {
                if atoms.len() >= cfg.n {
                    break 'outer;
                }
                let id = atoms.len() as u64;
                let h = |s: u64| {
                    let mut x = id.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
                    x ^= x >> 30;
                    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
                    x ^= x >> 31;
                    ((x % 1000) as f64 / 1000.0 - 0.5) * 0.05
                };
                atoms.push(Atom {
                    pos: [
                        (i as f64 + 0.5) * a + h(1) * a,
                        (j as f64 + 0.5) * a + h(2) * a,
                        (k as f64 + 0.5) * a + h(3) * a,
                    ],
                    vel: [h(4), h(5), h(6)],
                });
            }
        }
    }
    atoms
}

#[inline]
fn min_image(mut d: f64, box_len: f64) -> f64 {
    if d > box_len / 2.0 {
        d -= box_len;
    } else if d < -box_len / 2.0 {
        d += box_len;
    }
    d
}

/// LJ force magnitude over distance (f/r) and potential at squared distance
/// `r2` (ε = σ = 1, shifted at the cutoff).
#[inline]
fn lj(r2: f64) -> (f64, f64) {
    let inv_r2 = 1.0 / r2;
    let s6 = inv_r2 * inv_r2 * inv_r2;
    let f_over_r = 24.0 * inv_r2 * s6 * (2.0 * s6 - 1.0);
    let pot = 4.0 * s6 * (s6 - 1.0);
    (f_over_r, pot)
}

/// Compute forces on `targets` from all `sources` within the cutoff using a
/// cell-listed neighbour search; returns (forces, potential energy counted
/// once per pair among targets, 0.5 per target-ghost pair).
pub fn forces_cell_list(
    targets: &[Atom],
    sources: &[Atom],
    cfg: &MdConfig,
) -> (Vec<[f64; 3]>, f64) {
    let ncell = (cfg.box_len / cfg.cutoff).floor().max(1.0) as usize;
    let cell_len = cfg.box_len / ncell as f64;
    let cell_of = |p: &[f64; 3]| -> (usize, usize, usize) {
        let c = |x: f64| (((x / cell_len) as isize).rem_euclid(ncell as isize)) as usize;
        (c(p[0]), c(p[1]), c(p[2]))
    };
    // Bin sources into cells.
    let mut cells: Vec<Vec<usize>> = vec![Vec::new(); ncell * ncell * ncell];
    for (i, s) in sources.iter().enumerate() {
        let (cx, cy, cz) = cell_of(&s.pos);
        cells[(cz * ncell + cy) * ncell + cx].push(i);
    }
    let cut2 = cfg.cutoff * cfg.cutoff;
    let mut forces = vec![[0.0; 3]; targets.len()];
    let mut pot = 0.0;
    for (ti, t) in targets.iter().enumerate() {
        let (cx, cy, cz) = cell_of(&t.pos);
        for dz in -1isize..=1 {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let nx = (cx as isize + dx).rem_euclid(ncell as isize) as usize;
                    let ny = (cy as isize + dy).rem_euclid(ncell as isize) as usize;
                    let nz = (cz as isize + dz).rem_euclid(ncell as isize) as usize;
                    for &si in &cells[(nz * ncell + ny) * ncell + nx] {
                        let s = &sources[si];
                        let rx = min_image(t.pos[0] - s.pos[0], cfg.box_len);
                        let ry = min_image(t.pos[1] - s.pos[1], cfg.box_len);
                        let rz = min_image(t.pos[2] - s.pos[2], cfg.box_len);
                        let r2 = rx * rx + ry * ry + rz * rz;
                        if r2 > cut2 || r2 < 1e-12 {
                            continue;
                        }
                        let (f_over_r, p) = lj(r2);
                        forces[ti][0] += f_over_r * rx;
                        forces[ti][1] += f_over_r * ry;
                        forces[ti][2] += f_over_r * rz;
                        pot += 0.5 * p;
                    }
                }
            }
        }
    }
    (forces, pot)
}

/// Kinetic energy of a set of atoms (unit mass).
pub fn kinetic(atoms: &[Atom]) -> f64 {
    atoms
        .iter()
        .map(|a| 0.5 * (a.vel[0] * a.vel[0] + a.vel[1] * a.vel[1] + a.vel[2] * a.vel[2]))
        .sum()
}

const TAG_GHOST: u32 = 11;

/// The per-rank MD program; returns (kinetic, potential) of the local atoms
/// after the run (Execute mode) or (0,0) in Model mode.
///
/// Decomposition: the *global* atom array is partitioned by index block —
/// with the lattice generator this is a z-ordered slab-ish split; ghost
/// exchange ships the full neighbouring partitions (an upper bound on the
/// slab surface; documented simplification: PEPC-style halo trimming is a
/// refinement, the comm-scaling term is what matters for Fig 6).
pub async fn md_rank(r: &mut Rank, cfg: &MdConfig) -> (f64, f64) {
    let p = r.size() as usize;
    let me = r.rank() as usize;
    let n = cfg.n;
    let lo = me * n / p;
    let hi = (me + 1) * n / p;
    let nlocal = hi - lo;

    let mut local: Option<Vec<Atom>> =
        cfg.mode.carries_data().then(|| make_atoms(cfg)[lo..hi].to_vec());
    // Ghost region size in Model mode: two neighbour surface shells —
    // ~(cutoff / slab_thickness) of each neighbour's atoms, capped at all.
    let slab_frac = (cfg.cutoff * p as f64 / cfg.box_len).min(1.0);
    let ghost_bytes_model = ((n / p) as f64 * slab_frac * 48.0) as u64 + 64;

    let mut pot = 0.0;
    for _ in 0..cfg.steps {
        // --- Ghost exchange ----------------------------------------------
        let sources: Vec<Atom> = if let Some(atoms) = &local {
            // Execute mode at small scale: exchange full partitions via
            // allgather (correctness reference; the surface-trimmed version
            // is what Model mode prices).
            let mut v = Vec::with_capacity(atoms.len() * 6);
            for a in atoms {
                v.extend_from_slice(&a.pos);
                v.extend_from_slice(&a.vel);
            }
            let gathered = r.allgather(Msg::from_f64s(&v)).await;
            let mut all = Vec::with_capacity(n);
            for m in &gathered {
                for c in m.to_f64s().chunks_exact(6) {
                    all.push(Atom { pos: [c[0], c[1], c[2]], vel: [c[3], c[4], c[5]] });
                }
            }
            all
        } else {
            // Model mode: two neighbour exchanges (periodic slab ring) plus
            // the PME-style long-range term real GROMACS pays — a global
            // reduction of the reciprocal-space contribution. The Execute-
            // mode code is LJ-only (no PME), so this term is priced in the
            // model only; it is the main reason GROMACS's strong scaling is
            // "limited by the input size" in Fig 6.
            if p > 1 {
                let next = ((me + 1) % p) as u32;
                let prev = ((me + p - 1) % p) as u32;
                r.sendrecv(next, TAG_GHOST, Msg::size_only(ghost_bytes_model), prev, TAG_GHOST)
                    .await;
                r.sendrecv(
                    prev,
                    TAG_GHOST + 1,
                    Msg::size_only(ghost_bytes_model),
                    next,
                    TAG_GHOST + 1,
                )
                .await;
                let _ = r.allreduce(ReduceOp::Sum, vec![0.0; 256]).await;
            }
            Vec::new()
        };

        // --- Force computation + integration ------------------------------
        match &mut local {
            Some(atoms) => {
                let (forces, pe) = forces_cell_list(atoms, &sources, cfg);
                pot = pe;
                for (a, f) in atoms.iter_mut().zip(&forces) {
                    for k in 0..3 {
                        a.vel[k] += f[k] * cfg.dt;
                        a.pos[k] = (a.pos[k] + a.vel[k] * cfg.dt).rem_euclid(cfg.box_len);
                    }
                }
            }
            None => {
                // ~55 neighbours in the cutoff sphere at this density; ~45
                // flops per pair + integration.
                let pairs = nlocal as f64 * 55.0;
                let work = WorkProfile::new(
                    "md-forces",
                    pairs * 45.0 + nlocal as f64 * 12.0,
                    pairs * 12.0,
                    AccessPattern::Irregular,
                )
                .with_imbalance(0.08);
                r.compute(&work).await;
            }
        }
    }
    match &local {
        Some(atoms) => (kinetic(atoms), pot),
        None => (0.0, 0.0),
    }
}

/// Run MD; returns `(elapsed_seconds, total_kinetic, total_potential)`, or
/// the fault that stopped the run.
pub fn run_md(spec: JobSpec, cfg: MdConfig) -> Result<(f64, f64, f64), simmpi::MpiFault> {
    let run = simmpi::run_mpi(spec, move |mut r| async move {
        let t0 = r.now();
        let (ke, pe) = md_rank(&mut r, &cfg).await;
        r.barrier().await;
        let dt = (r.now() - t0).as_secs_f64();
        let tot = r.allreduce(ReduceOp::Sum, vec![ke, pe]).await;
        (dt, tot[0], tot[1])
    })?;
    let t = run.results.iter().map(|x| x.0).fold(0.0, f64::max);
    Ok((t, run.results[0].1, run.results[0].2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_arch::Platform;

    fn spec(p: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), p)
    }

    #[test]
    fn lj_force_changes_sign_at_minimum() {
        // The LJ minimum is at r = 2^(1/6): repulsive inside, attractive out.
        let r_min2 = 2.0f64.powf(1.0 / 3.0);
        let (f_in, _) = lj(0.9 * r_min2);
        let (f_out, _) = lj(1.1 * r_min2);
        assert!(f_in > 0.0, "inside: {f_in}");
        assert!(f_out < 0.0, "outside: {f_out}");
    }

    #[test]
    fn cell_list_matches_brute_force() {
        let cfg = MdConfig { n: 200, ..MdConfig::small() };
        let atoms = make_atoms(&cfg);
        let (fast, pot_fast) = forces_cell_list(&atoms, &atoms, &cfg);
        // Brute force reference.
        let cut2 = cfg.cutoff * cfg.cutoff;
        let mut slow = vec![[0.0; 3]; atoms.len()];
        let mut pot_slow = 0.0;
        for i in 0..atoms.len() {
            for j in 0..atoms.len() {
                if i == j {
                    continue;
                }
                let rx = min_image(atoms[i].pos[0] - atoms[j].pos[0], cfg.box_len);
                let ry = min_image(atoms[i].pos[1] - atoms[j].pos[1], cfg.box_len);
                let rz = min_image(atoms[i].pos[2] - atoms[j].pos[2], cfg.box_len);
                let r2 = rx * rx + ry * ry + rz * rz;
                if r2 > cut2 || r2 < 1e-12 {
                    continue;
                }
                let (f, p) = lj(r2);
                slow[i][0] += f * rx;
                slow[i][1] += f * ry;
                slow[i][2] += f * rz;
                pot_slow += 0.5 * p;
            }
        }
        for (a, b) in fast.iter().zip(&slow) {
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() < 1e-9 * (1.0 + b[k].abs()));
            }
        }
        assert!((pot_fast - pot_slow).abs() < 1e-9 * (1.0 + pot_slow.abs()));
    }

    #[test]
    fn momentum_is_conserved_in_serial_run() {
        let cfg = MdConfig::small();
        let run = simmpi::run_mpi(spec(1), move |r| async move {
            let atoms0 = make_atoms(&cfg);
            let p0: [f64; 3] = atoms0.iter().fold([0.0; 3], |mut acc, a| {
                for k in 0..3 {
                    acc[k] += a.vel[k];
                }
                acc
            });
            let _ = r;
            let mut local = atoms0;
            for _ in 0..cfg.steps {
                let src = local.clone();
                let (forces, _) = forces_cell_list(&local, &src, &cfg);
                for (a, f) in local.iter_mut().zip(&forces) {
                    for k in 0..3 {
                        a.vel[k] += f[k] * cfg.dt;
                        a.pos[k] = (a.pos[k] + a.vel[k] * cfg.dt).rem_euclid(cfg.box_len);
                    }
                }
            }
            let p1: [f64; 3] = local.iter().fold([0.0; 3], |mut acc, a| {
                for k in 0..3 {
                    acc[k] += a.vel[k];
                }
                acc
            });
            (0..3).map(|k| (p1[k] - p0[k]).abs()).fold(0.0, f64::max)
        })
        .unwrap();
        assert!(run.results[0] < 1e-9, "momentum drift {}", run.results[0]);
    }

    #[test]
    fn parallel_energies_match_serial() {
        let cfg = MdConfig::small();
        let (_, ke1, pe1) = run_md(spec(1), cfg).unwrap();
        let (_, ke4, pe4) = run_md(spec(4), cfg).unwrap();
        assert!((ke1 - ke4).abs() < 1e-9 * (1.0 + ke1.abs()), "{ke1} vs {ke4}");
        assert!((pe1 - pe4).abs() < 1e-9 * (1.0 + pe1.abs()), "{pe1} vs {pe4}");
    }

    #[test]
    fn energy_stays_bounded_over_short_run() {
        let cfg = MdConfig { steps: 50, ..MdConfig::small() };
        let (_, ke, _) = run_md(spec(2), cfg).unwrap();
        assert!(ke.is_finite() && ke < 1000.0, "kinetic energy blew up: {ke}");
    }

    #[test]
    fn model_mode_scales_strongly_but_sublinearly() {
        let cfg = MdConfig::fig6();
        let cfg = MdConfig { steps: 2, ..cfg };
        let (t4, _, _) = run_md(spec(4), cfg).unwrap();
        let (t16, _, _) = run_md(spec(16), cfg).unwrap();
        let s = t4 / t16;
        assert!(s > 2.0 && s < 4.0, "4->16 speedup {s}");
    }
}
