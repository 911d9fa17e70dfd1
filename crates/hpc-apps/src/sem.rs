//! SPECFEM3D (Table 3): "3D seismic wave propagation (spectral element
//! method)". Implemented as a real 1-D elastic-wave spectral-element code
//! with Gauss–Lobatto–Legendre (GLL) quadrature: degree-4 elements, lumped
//! (diagonal) mass matrix, central-difference time stepping, and a domain
//! decomposition that shares exactly one node between neighbouring ranks.
//!
//! This carries SPECFEM3D's performance signature into the Fig 6 scaling
//! study: dense element-local arithmetic (matrix–vector products per
//! element) against a nearest-neighbour exchange of a *single* value per
//! step — which is why it is the best scaler of the application set
//! ("SPECFEM3D shows good strong scaling").

use simmpi::{JobSpec, Msg, Rank, ReduceOp};
use soc_arch::{AccessPattern, WorkProfile};

use crate::mode::Mode;

/// GLL points per element (degree 4).
pub const NGLL: usize = 5;

/// GLL quadrature points on [-1, 1] for N = 4.
pub fn gll_points() -> [f64; NGLL] {
    let a = (3.0f64 / 7.0).sqrt();
    [-1.0, -a, 0.0, a, 1.0]
}

/// GLL quadrature weights for N = 4.
pub fn gll_weights() -> [f64; NGLL] {
    [1.0 / 10.0, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 1.0 / 10.0]
}

/// Lagrange derivative matrix `D[q][j] = l_j'(ξ_q)` on the GLL points.
pub fn derivative_matrix() -> [[f64; NGLL]; NGLL] {
    let xi = gll_points();
    let mut d = [[0.0; NGLL]; NGLL];
    for q in 0..NGLL {
        for j in 0..NGLL {
            if q == j {
                let mut sum = 0.0;
                for k in 0..NGLL {
                    if k != j {
                        sum += 1.0 / (xi[j] - xi[k]);
                    }
                }
                d[q][j] = sum;
            } else {
                let mut num = 1.0;
                let mut den = 1.0;
                for k in 0..NGLL {
                    if k != j && k != q {
                        num *= xi[q] - xi[k];
                    }
                    if k != j {
                        den *= xi[j] - xi[k];
                    }
                }
                d[q][j] = num / den;
            }
        }
    }
    d
}

/// SEM configuration.
#[derive(Clone, Copy, Debug)]
pub struct SemConfig {
    /// Total number of elements.
    pub elements: usize,
    /// Domain length.
    pub length: f64,
    /// Shear modulus μ.
    pub mu: f64,
    /// Density ρ.
    pub rho: f64,
    /// Time step (must satisfy the CFL bound for the mesh).
    pub dt: f64,
    /// Number of time steps.
    pub steps: usize,
    /// Execution mode.
    pub mode: Mode,
    /// Model-mode flops per element per step. The Execute-mode 1-D elements
    /// cost ~130 flops; the paper's SPECFEM3D runs 3-D elements
    /// (5³ GLL points × 3 displacement components), ~17k flops each — use
    /// that for the Fig 6 reproduction.
    pub model_flops_per_element: f64,
    /// Model-mode halo message size (a 3-D face of GLL points).
    pub model_halo_bytes: u64,
}

impl SemConfig {
    /// Small Execute-mode configuration for tests.
    pub fn small() -> SemConfig {
        SemConfig {
            elements: 64,
            length: 64.0,
            mu: 1.0,
            rho: 1.0,
            dt: 0.02,
            steps: 100,
            mode: Mode::Execute,
            model_flops_per_element: (4 * NGLL * NGLL + 6 * NGLL) as f64,
            model_halo_bytes: 8,
        }
    }

    /// The Fig 6 strong-scaling input ("an input set that fits in the memory
    /// of a single node"), Model mode.
    pub fn fig6() -> SemConfig {
        SemConfig {
            elements: 38_400,
            length: 38_400.0,
            mu: 1.0,
            rho: 1.0,
            dt: 0.02,
            steps: 40,
            mode: Mode::Model,
            model_flops_per_element: 17_000.0,
            model_halo_bytes: 8_192,
        }
    }

    /// Wave speed `c = sqrt(mu / rho)`.
    pub fn wave_speed(&self) -> f64 {
        (self.mu / self.rho).sqrt()
    }
}

/// One rank's share of the mesh: `nel` elements, `nel * (NGLL-1) + 1` nodes,
/// the first/last node shared with the neighbour rank.
struct SemDomain {
    nel: usize,
    /// Global x of the first local node.
    x0: f64,
    h: f64, // element length
    u: Vec<f64>,
    u_old: Vec<f64>,
    /// Assembled diagonal mass (shared nodes include both sides).
    mass: Vec<f64>,
    d: [[f64; NGLL]; NGLL],
    w: [f64; NGLL],
}

impl SemDomain {
    fn nodes(nel: usize) -> usize {
        nel * (NGLL - 1) + 1
    }

    fn node_x(&self, i: usize) -> f64 {
        let xi = gll_points();
        let e = i / (NGLL - 1);
        let l = i % (NGLL - 1);
        self.x0 + e as f64 * self.h + (xi[l] + 1.0) * self.h / 2.0
    }

    fn init(cfg: &SemConfig, el0: usize, nel: usize) -> SemDomain {
        let h = cfg.length / cfg.elements as f64;
        let n = Self::nodes(nel);
        let mut dom = SemDomain {
            nel,
            x0: el0 as f64 * h,
            h,
            u: vec![0.0; n],
            u_old: vec![0.0; n],
            mass: vec![0.0; n],
            d: derivative_matrix(),
            w: gll_weights(),
        };
        // Lumped mass assembly: M_i += w_l * rho * J per element.
        let jac = h / 2.0;
        for e in 0..nel {
            for l in 0..NGLL {
                dom.mass[e * (NGLL - 1) + l] += dom.w[l] * cfg.rho * jac;
            }
        }
        // Initial condition: a Gaussian displacement pulse at the domain
        // centre (both u and u_old, i.e. zero initial velocity).
        let centre = cfg.length / 2.0;
        let sigma = cfg.length / 40.0;
        for i in 0..n {
            let x = dom.node_x(i);
            let g = (-(x - centre) * (x - centre) / (2.0 * sigma * sigma)).exp();
            dom.u[i] = g;
            dom.u_old[i] = g;
        }
        dom
    }

    /// Internal elastic force `f = -K u` (unassembled at the rank
    /// boundaries; the caller exchanges and adds the neighbour parts).
    fn internal_force(&self, cfg: &SemConfig) -> Vec<f64> {
        let n = self.u.len();
        let jac = self.h / 2.0;
        let mut f = vec![0.0; n];
        for e in 0..self.nel {
            let base = e * (NGLL - 1);
            // Strain at each quadrature point: du/dx(ξ_q) = Σ_j D[q][j] u_j / J.
            let mut dudx = [0.0; NGLL];
            for q in 0..NGLL {
                let mut s = 0.0;
                for j in 0..NGLL {
                    s += self.d[q][j] * self.u[base + j];
                }
                dudx[q] = s / jac;
            }
            // f_i -= Σ_q w_q μ u'(ξ_q) l_i'(ξ_q) (J / J) — the J from the
            // integral cancels one 1/J from the test-function derivative.
            for i in 0..NGLL {
                let mut s = 0.0;
                for q in 0..NGLL {
                    s += self.w[q] * cfg.mu * dudx[q] * self.d[q][i];
                }
                f[base + i] -= s;
            }
        }
        f
    }

    /// Elastic + kinetic energy (velocity via central difference).
    /// `skip_first_node` avoids double-counting the node shared with the
    /// left neighbour rank when energies are summed globally.
    fn energy(&self, cfg: &SemConfig, u_new: &[f64], dt: f64, skip_first_node: bool) -> f64 {
        let jac = self.h / 2.0;
        let mut pe = 0.0;
        for e in 0..self.nel {
            let base = e * (NGLL - 1);
            for q in 0..NGLL {
                let mut s = 0.0;
                for j in 0..NGLL {
                    s += self.d[q][j] * self.u[base + j];
                }
                let strain = s / jac;
                pe += 0.5 * self.w[q] * cfg.mu * strain * strain * jac;
            }
        }
        let mut ke = 0.0;
        let start = usize::from(skip_first_node);
        for i in start..self.u.len() {
            let v = (u_new[i] - self.u_old[i]) / (2.0 * dt);
            ke += 0.5 * self.mass[i] * v * v;
        }
        pe + ke
    }
}

const TAG_FORCE: u32 = 21;
const TAG_MASS: u32 = 22;

/// The per-rank SEM program; returns the final (local) energy in Execute
/// mode, 0.0 in Model mode.
pub async fn sem_rank(r: &mut Rank, cfg: &SemConfig) -> f64 {
    let p = r.size() as usize;
    let me = r.rank() as usize;
    let el0 = me * cfg.elements / p;
    let el1 = (me + 1) * cfg.elements / p;
    let nel = el1 - el0;
    let left = (me > 0).then(|| me as u32 - 1);
    let right = (me < p - 1).then(|| me as u32 + 1);

    let mut dom = cfg.mode.carries_data().then(|| SemDomain::init(cfg, el0, nel));

    // Assemble the shared-node mass across rank boundaries once.
    if let Some(d) = &mut dom {
        let last = d.mass.len() - 1;
        if let Some(rr) = right {
            let got = r.sendrecv(rr, TAG_MASS, Msg::from_f64s(&[d.mass[last]]), rr, TAG_MASS).await;
            d.mass[last] += got.to_f64s()[0];
        }
        if let Some(ll) = left {
            let got = r.sendrecv(ll, TAG_MASS, Msg::from_f64s(&[d.mass[0]]), ll, TAG_MASS).await;
            d.mass[0] += got.to_f64s()[0];
        }
    } else if p > 1 {
        if let Some(rr) = right {
            r.sendrecv(rr, TAG_MASS, Msg::size_only(8), rr, TAG_MASS).await;
        }
        if let Some(ll) = left {
            r.sendrecv(ll, TAG_MASS, Msg::size_only(8), ll, TAG_MASS).await;
        }
    }

    // Model-mode per-step cost: two small dense mat-vecs per element.
    let step_profile = WorkProfile::new(
        "sem-step",
        nel as f64 * cfg.model_flops_per_element,
        nel as f64 * cfg.model_flops_per_element * 0.15,
        AccessPattern::LocalityRich,
    );

    let mut energy = 0.0;
    for _ in 0..cfg.steps {
        match &mut dom {
            Some(d) => {
                let mut f = d.internal_force(cfg);
                let last = f.len() - 1;
                // Assemble boundary forces with the neighbours.
                if let Some(rr) = right {
                    let got =
                        r.sendrecv(rr, TAG_FORCE, Msg::from_f64s(&[f[last]]), rr, TAG_FORCE).await;
                    f[last] += got.to_f64s()[0];
                }
                if let Some(ll) = left {
                    let got =
                        r.sendrecv(ll, TAG_FORCE, Msg::from_f64s(&[f[0]]), ll, TAG_FORCE).await;
                    f[0] += got.to_f64s()[0];
                }
                // Central difference update.
                let mut u_new = vec![0.0; f.len()];
                for i in 0..f.len() {
                    u_new[i] = 2.0 * d.u[i] - d.u_old[i] + cfg.dt * cfg.dt * f[i] / d.mass[i];
                }
                energy = d.energy(cfg, &u_new, cfg.dt, left.is_some());
                d.u_old = std::mem::replace(&mut d.u, u_new);
            }
            None => {
                if let Some(rr) = right {
                    r.sendrecv(rr, TAG_FORCE, Msg::size_only(cfg.model_halo_bytes), rr, TAG_FORCE)
                        .await;
                }
                if let Some(ll) = left {
                    r.sendrecv(ll, TAG_FORCE, Msg::size_only(cfg.model_halo_bytes), ll, TAG_FORCE)
                        .await;
                }
                r.compute(&step_profile).await;
            }
        }
    }
    energy
}

/// Run the SEM code; returns `(elapsed_seconds, global_energy)`, or the
/// fault that stopped the run.
pub fn run_sem(spec: JobSpec, cfg: SemConfig) -> Result<(f64, f64), simmpi::MpiFault> {
    let run = simmpi::run_mpi(spec, move |mut r| async move {
        let t0 = r.now();
        let e = sem_rank(&mut r, &cfg).await;
        r.barrier().await;
        let dt = (r.now() - t0).as_secs_f64();
        let tot = r.allreduce(ReduceOp::Sum, vec![e]).await;
        (dt, tot[0])
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
    fn derivative_matrix_differentiates_polynomials_exactly() {
        // D must be exact for polynomials of degree <= 4 at the GLL points.
        let xi = gll_points();
        let d = derivative_matrix();
        // f(x) = x^3 - 2x: f'(x) = 3x^2 - 2.
        for q in 0..NGLL {
            let mut got = 0.0;
            for j in 0..NGLL {
                got += d[q][j] * (xi[j].powi(3) - 2.0 * xi[j]);
            }
            let want = 3.0 * xi[q] * xi[q] - 2.0;
            assert!((got - want).abs() < 1e-12, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn gll_weights_integrate_constants() {
        // Σ w = 2 (length of [-1,1]).
        let s: f64 = gll_weights().iter().sum();
        assert!((s - 2.0).abs() < 1e-14);
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let cfg = SemConfig::small();
        let (_, e_end) = run_sem(spec(1), cfg).unwrap();
        let (_, e_start) = run_sem(spec(1), SemConfig { steps: 1, ..cfg }).unwrap();
        let drift = (e_end - e_start).abs() / e_start;
        assert!(drift < 0.02, "energy drift {drift} ({e_start} -> {e_end})");
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let cfg = SemConfig::small();
        let (_, e1) = run_sem(spec(1), cfg).unwrap();
        let (_, e4) = run_sem(spec(4), cfg).unwrap();
        assert!((e1 - e4).abs() < 1e-12 * e1.abs().max(1.0), "{e1} vs {e4}");
    }

    #[test]
    fn pulse_travels_at_the_wave_speed() {
        // Track the right-going pulse peak: after T steps it should sit near
        // centre + c*T*dt.
        let cfg = SemConfig { steps: 200, ..SemConfig::small() };
        let run = simmpi::run_mpi(spec(1), move |r| async move {
            let _ = r;
            let mut d = SemDomain::init(&cfg, 0, cfg.elements);
            for _ in 0..cfg.steps {
                let f = d.internal_force(&cfg);
                let mut u_new = vec![0.0; f.len()];
                for i in 0..f.len() {
                    u_new[i] = 2.0 * d.u[i] - d.u_old[i] + cfg.dt * cfg.dt * f[i] / d.mass[i];
                }
                d.u_old = std::mem::replace(&mut d.u, u_new);
            }
            // Find the peak right of centre.
            let n = d.u.len();
            let (mut best, mut best_x) = (f64::MIN, 0.0);
            for i in n / 2..n {
                if d.u[i] > best {
                    best = d.u[i];
                    best_x = d.node_x(i);
                }
            }
            best_x
        })
        .unwrap();
        let expect = cfg.length / 2.0 + cfg.wave_speed() * cfg.steps as f64 * cfg.dt;
        let err = (run.results[0] - expect).abs();
        assert!(err < 2.0, "peak at {} expected {expect}", run.results[0]);
    }

    #[test]
    fn model_mode_scales_nearly_ideally() {
        // SPECFEM3D's signature: compute-dense elements + tiny halos.
        let cfg = SemConfig { steps: 5, ..SemConfig::fig6() };
        let (t4, _) = run_sem(spec(4), cfg).unwrap();
        let (t16, _) = run_sem(spec(16), cfg).unwrap();
        let s = t4 / t16;
        assert!(s > 3.0, "4->16 speedup {s} should be near 4");
    }
}
