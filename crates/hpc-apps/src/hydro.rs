//! HYDRO (Table 3): "2D Eulerian code for hydrodynamics based on the RAMSES
//! code". Implemented as a real 2-D finite-volume shallow-water solver
//! (Lax–Friedrichs fluxes) on a strip decomposition with one-row halo
//! exchanges — the same communication structure (nearest-neighbour halos,
//! surface-to-volume comm ratio) that shapes HYDRO's strong scaling in
//! Fig 6.

use simmpi::{JobSpec, Msg, Rank, ReduceOp};
use soc_arch::{AccessPattern, WorkProfile};

use crate::mode::Mode;

/// Shallow-water state on one strip: height `h` and momenta `hu`, `hv`,
/// stored row-major with one halo row above and below.
struct Strip {
    nx: usize,
    rows: usize, // interior rows
    h: Vec<f64>,
    hu: Vec<f64>,
    hv: Vec<f64>,
}

/// HYDRO configuration.
#[derive(Clone, Copy, Debug)]
pub struct HydroConfig {
    /// Global grid width.
    pub nx: usize,
    /// Global grid height (split across ranks).
    pub ny: usize,
    /// Time steps.
    pub steps: usize,
    /// CFL-safe time step.
    pub dt: f64,
    /// Grid spacing.
    pub dx: f64,
    /// Execution mode.
    pub mode: Mode,
}

impl HydroConfig {
    /// Small Execute-mode problem for tests.
    pub fn small() -> HydroConfig {
        HydroConfig { nx: 32, ny: 32, steps: 10, dt: 0.002, dx: 0.1, mode: Mode::Execute }
    }

    /// The Fig 6 strong-scaling input (Model mode): a grid that fits one
    /// node's memory, iterated for a fixed number of steps.
    pub fn fig6() -> HydroConfig {
        HydroConfig { nx: 2048, ny: 2048, steps: 20, dt: 0.001, dx: 0.1, mode: Mode::Model }
    }

    /// Per-step, per-rank work profile for `rows` interior rows.
    fn step_profile(&self, rows: usize) -> WorkProfile {
        let cells = (rows * self.nx) as f64;
        // ~70 flops per cell per step (fluxes in two directions, update).
        WorkProfile::new("hydro-step", 70.0 * cells, 6.0 * 8.0 * cells, AccessPattern::Streaming)
    }
}

const G: f64 = 9.81;

impl Strip {
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.nx + col
    }

    /// Initialise rows `[row0, row0+rows)` of the global dam-break problem:
    /// a central column of raised fluid.
    fn init(cfg: &HydroConfig, row0: usize, rows: usize) -> Strip {
        let nx = cfg.nx;
        let total = (rows + 2) * nx;
        let mut s =
            Strip { nx, rows, h: vec![1.0; total], hu: vec![0.0; total], hv: vec![0.0; total] };
        for r in 0..rows {
            let gr = row0 + r;
            for c in 0..nx {
                let dy = gr as f64 - cfg.ny as f64 / 2.0;
                let dx = c as f64 - nx as f64 / 2.0;
                if dx * dx + dy * dy < (nx as f64 / 8.0).powi(2) {
                    let i = s.idx(r + 1, c);
                    s.h[i] = 2.0;
                }
            }
        }
        s
    }

    fn total_mass(&self) -> f64 {
        let mut m = 0.0;
        for r in 1..=self.rows {
            for c in 0..self.nx {
                m += self.h[self.idx(r, c)];
            }
        }
        m
    }
}

/// One Lax–Friedrichs step on the strip (halo rows must be current).
/// Reflective boundaries on the x edges; halo rows handle y.
fn lf_step(s: &mut Strip, dt: f64, dx: f64) {
    let nx = s.nx;
    let lam = dt / dx;
    let rows = s.rows;
    let n = (rows + 2) * nx;
    let mut nh = vec![0.0; n];
    let mut nhu = vec![0.0; n];
    let mut nhv = vec![0.0; n];

    let flux = |h: f64, hu: f64, hv: f64| -> ([f64; 3], [f64; 3]) {
        let u = hu / h;
        let v = hv / h;
        ([hu, hu * u + 0.5 * G * h * h, hu * v], [hv, hv * u, hv * v + 0.5 * G * h * h])
    };

    for r in 1..=rows {
        for c in 0..nx {
            let i = r * nx + c;
            let cl = if c == 0 { c } else { c - 1 };
            let cr = if c == nx - 1 { c } else { c + 1 };
            let (il, ir, iu, id) = (r * nx + cl, r * nx + cr, (r - 1) * nx + c, (r + 1) * nx + c);
            let (fx_l, _) = flux(s.h[il], s.hu[il], s.hv[il]);
            let (fx_r, _) = flux(s.h[ir], s.hu[ir], s.hv[ir]);
            let (_, fy_u) = flux(s.h[iu], s.hu[iu], s.hv[iu]);
            let (_, fy_d) = flux(s.h[id], s.hu[id], s.hv[id]);
            let avg_h = 0.25 * (s.h[il] + s.h[ir] + s.h[iu] + s.h[id]);
            let avg_hu = 0.25 * (s.hu[il] + s.hu[ir] + s.hu[iu] + s.hu[id]);
            let avg_hv = 0.25 * (s.hv[il] + s.hv[ir] + s.hv[iu] + s.hv[id]);
            nh[i] = avg_h - 0.5 * lam * ((fx_r[0] - fx_l[0]) + (fy_d[0] - fy_u[0]));
            nhu[i] = avg_hu - 0.5 * lam * ((fx_r[1] - fx_l[1]) + (fy_d[1] - fy_u[1]));
            nhv[i] = avg_hv - 0.5 * lam * ((fx_r[2] - fx_l[2]) + (fy_d[2] - fy_u[2]));
        }
    }
    s.h = nh;
    s.hu = nhu;
    s.hv = nhv;
}

/// Copy a row into a message payload (h, hu, hv concatenated).
fn pack_row(s: &Strip, row: usize) -> Msg {
    let nx = s.nx;
    let mut v = Vec::with_capacity(3 * nx);
    v.extend_from_slice(&s.h[row * nx..(row + 1) * nx]);
    v.extend_from_slice(&s.hu[row * nx..(row + 1) * nx]);
    v.extend_from_slice(&s.hv[row * nx..(row + 1) * nx]);
    Msg::from_f64s(&v)
}

fn unpack_row(s: &mut Strip, row: usize, msg: &Msg) {
    let nx = s.nx;
    let v = msg.to_f64s();
    s.h[row * nx..(row + 1) * nx].copy_from_slice(&v[..nx]);
    s.hu[row * nx..(row + 1) * nx].copy_from_slice(&v[nx..2 * nx]);
    s.hv[row * nx..(row + 1) * nx].copy_from_slice(&v[2 * nx..]);
}

fn mirror_row(s: &mut Strip, dst_row: usize, src_row: usize) {
    let nx = s.nx;
    for c in 0..nx {
        s.h[dst_row * nx + c] = s.h[src_row * nx + c];
        s.hu[dst_row * nx + c] = s.hu[src_row * nx + c];
        s.hv[dst_row * nx + c] = -s.hv[src_row * nx + c]; // reflect
    }
}

const TAG_UP: u32 = 1;
const TAG_DOWN: u32 = 2;

/// The per-rank HYDRO program; returns the local strip mass after the run
/// (Execute mode) or 0.0 (Model mode).
pub async fn hydro_rank(r: &mut Rank, cfg: &HydroConfig) -> f64 {
    let p = r.size() as usize;
    let me = r.rank() as usize;
    // Row distribution: near-equal strips.
    let base = cfg.ny / p;
    let extra = cfg.ny % p;
    let rows = base + usize::from(me < extra);
    let row0 = me * base + me.min(extra);
    let halo_bytes = (3 * cfg.nx * 8) as u64;

    let mut strip = if cfg.mode.carries_data() { Some(Strip::init(cfg, row0, rows)) } else { None };
    let profile = cfg.step_profile(rows);

    for _ in 0..cfg.steps {
        // --- Halo exchange ------------------------------------------------
        r.phase_begin("hydro.halo");
        let up = (me > 0).then(|| me as u32 - 1);
        let down = (me < p - 1).then(|| me as u32 + 1);
        // Send up / receive from down, then send down / receive from up.
        // Rank parity ordering keeps pairwise exchanges deadlock-free.
        for phase in 0..2 {
            let (target, tag_out, tag_in, my_edge_row, halo_row) = if phase == 0 {
                (up, TAG_UP, TAG_UP, 1, rows + 1)
            } else {
                (down, TAG_DOWN, TAG_DOWN, rows, 0)
            };
            let partner_for_recv = if phase == 0 { down } else { up };
            // Even ranks send first; odd ranks receive first. The two
            // halves run in rank-parity order to keep the pairwise
            // exchange deadlock-free.
            for half in 0..2 {
                let sending = (half == 0) == me.is_multiple_of(2);
                if sending {
                    if let Some(t) = target {
                        let msg = match &strip {
                            Some(strip) => pack_row(strip, my_edge_row),
                            None => Msg::size_only(halo_bytes),
                        };
                        r.send(t, tag_out, msg).await;
                    }
                } else if let Some(src) = partner_for_recv {
                    let m = r.recv(src, tag_in).await;
                    if let Some(strip) = &mut strip {
                        unpack_row(strip, halo_row, &m);
                    }
                }
            }
        }
        r.phase_end("hydro.halo");
        // Physical boundaries: mirror rows at the global top/bottom.
        if let Some(s) = &mut strip {
            if me == 0 {
                mirror_row(s, 0, 1);
            }
            if me == p - 1 {
                mirror_row(s, rows + 1, rows);
            }
        }

        // --- Step ----------------------------------------------------------
        r.phase_begin("hydro.step");
        match &mut strip {
            Some(s) => lf_step(s, cfg.dt, cfg.dx),
            None => r.compute(&profile).await,
        }
        r.phase_end("hydro.step");
    }
    strip.map_or(0.0, |s| s.total_mass())
}

/// Run HYDRO; returns `(elapsed_seconds, total_mass)`, or the fault that
/// stopped the run.
pub fn run_hydro(spec: JobSpec, cfg: HydroConfig) -> Result<(f64, f64), simmpi::MpiFault> {
    let run = simmpi::run_mpi(spec, move |mut r| async move {
        let t0 = r.now();
        let mass = hydro_rank(&mut r, &cfg).await;
        r.barrier().await;
        let dt = (r.now() - t0).as_secs_f64();
        let total = r.allreduce(ReduceOp::Sum, vec![mass]).await;
        (dt, total[0])
    })?;
    Ok((run.results.iter().map(|x| x.0).fold(0.0, f64::max), run.results[0].1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_arch::Platform;

    fn spec(p: u32) -> JobSpec {
        JobSpec::new(Platform::tegra2(), p)
    }

    #[test]
    fn mass_is_conserved_single_rank() {
        let cfg = HydroConfig::small();
        let (_, mass) = run_hydro(spec(1), cfg).unwrap();
        // Initial mass: 1.0 everywhere + 1.0 extra inside the disc.
        let (_, mass0) = run_hydro(spec(1), HydroConfig { steps: 0, ..cfg }).unwrap();
        assert!((mass - mass0).abs() / mass0 < 1e-9, "{mass} vs {mass0}");
    }

    #[test]
    fn decomposition_matches_single_rank_exactly() {
        let cfg = HydroConfig::small();
        let (_, m1) = run_hydro(spec(1), cfg).unwrap();
        let (_, m4) = run_hydro(spec(4), cfg).unwrap();
        assert!((m1 - m4).abs() < 1e-9, "{m1} vs {m4}");
    }

    #[test]
    fn wave_spreads_from_the_disc() {
        // After steps, some fluid must have moved: max height drops below
        // the initial 2.0 but stays above the ambient 1.0.
        let cfg = HydroConfig { steps: 30, ..HydroConfig::small() };
        let run = simmpi::run_mpi(spec(1), move |r| async move {
            let p = cfg;
            let mut s = Strip::init(&p, 0, p.ny);
            for _ in 0..p.steps {
                mirror_row(&mut s, 0, 1);
                mirror_row(&mut s, p.ny + 1, p.ny);
                lf_step(&mut s, p.dt, p.dx);
            }
            let hmax = s.h.iter().cloned().fold(0.0, f64::max);
            let _ = r;
            hmax
        })
        .unwrap();
        let hmax = run.results[0];
        assert!(hmax < 2.0 && hmax > 1.0, "hmax {hmax}");
    }

    #[test]
    fn model_mode_scales_with_ranks() {
        let cfg = HydroConfig { mode: Mode::Model, nx: 512, ny: 512, steps: 4, dt: 1e-3, dx: 0.1 };
        let (t2, _) = run_hydro(spec(2), cfg).unwrap();
        let (t8, _) = run_hydro(spec(8), cfg).unwrap();
        assert!(t8 < t2, "strong scaling: {t8} !< {t2}");
    }

    #[test]
    fn uneven_row_distribution_covers_grid() {
        // 32 rows over 5 ranks: 7,7,6,6,6.
        let cfg = HydroConfig::small();
        let (_, m5) = run_hydro(spec(5), cfg).unwrap();
        let (_, m1) = run_hydro(spec(1), cfg).unwrap();
        assert!((m5 - m1).abs() < 1e-9);
    }
}
