//! `nbody` — N-body calculation (Table 2: "irregular memory accesses").
//! Direct all-pairs gravitational interactions with Plummer softening,
//! leapfrog time stepping.

use soc_arch::{AccessPattern, WorkProfile};

/// A body's state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// Problem configuration for `nbody`.
#[derive(Clone, Copy, Debug)]
pub struct NbodyConfig {
    /// Number of bodies.
    pub n: usize,
    /// Number of leapfrog steps.
    pub steps: usize,
    /// Time step.
    pub dt: f64,
    /// Softening length squared.
    pub eps2: f64,
}

impl NbodyConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        NbodyConfig { n: 1536, steps: 1, dt: 1e-3, eps2: 1e-4 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        NbodyConfig { n: 128, steps: 3, dt: 1e-3, eps2: 1e-4 }
    }

    /// Work profile: ~20 flops per pair interaction per step (distance,
    /// softened inverse-cube, force accumulation) plus the integration pass.
    /// Body loads are data-dependent — the irregular class.
    pub fn profile(&self) -> WorkProfile {
        let n = self.n as f64;
        let s = self.steps as f64;
        WorkProfile::new(
            "nbody",
            (20.0 * n * n + 12.0 * n) * s,
            64.0 * n * s + 1e6, // bodies mostly cache-resident at this scale
            AccessPattern::Irregular,
        )
    }
}

/// Deterministic initial conditions: a cold, slightly perturbed cube.
pub fn inputs(cfg: &NbodyConfig) -> Vec<Body> {
    (0..cfg.n)
        .map(|i| {
            let h = |k: u64| {
                let mut x = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(k);
                x ^= x >> 31;
                x = x.wrapping_mul(0xbf58476d1ce4e5b9);
                x ^= x >> 27;
                (x % 10_000) as f64 / 10_000.0 - 0.5
            };
            Body {
                pos: [h(1), h(2), h(3)],
                vel: [0.01 * h(4), 0.01 * h(5), 0.01 * h(6)],
                mass: 1.0 / cfg.n as f64,
            }
        })
        .collect()
}

#[inline]
fn accel_on(i: usize, bodies: &[Body], eps2: f64) -> [f64; 3] {
    let pi = bodies[i].pos;
    let mut acc = [0.0f64; 3];
    for (j, bj) in bodies.iter().enumerate() {
        if j == i {
            continue;
        }
        let dx = bj.pos[0] - pi[0];
        let dy = bj.pos[1] - pi[1];
        let dz = bj.pos[2] - pi[2];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let inv_r3 = 1.0 / (r2 * r2.sqrt());
        let s = bj.mass * inv_r3;
        acc[0] += s * dx;
        acc[1] += s * dy;
        acc[2] += s * dz;
    }
    acc
}

fn step(bodies: &mut [Body], accels: &[[f64; 3]], dt: f64) {
    for (b, a) in bodies.iter_mut().zip(accels) {
        for k in 0..3 {
            b.vel[k] += a[k] * dt;
            b.pos[k] += b.vel[k] * dt;
        }
    }
}

/// Leapfrog simulation.
pub fn run(cfg: &NbodyConfig, bodies: &[Body]) -> Vec<Body> {
    let mut bodies = bodies.to_vec();
    for _ in 0..cfg.steps {
        let accels: Vec<[f64; 3]> =
            (0..bodies.len()).map(|i| accel_on(i, &bodies, cfg.eps2)).collect();
        step(&mut bodies, &accels, cfg.dt);
    }
    bodies
}

/// Total momentum (conserved by pairwise forces, a strong correctness probe).
pub fn total_momentum(bodies: &[Body]) -> [f64; 3] {
    let mut p = [0.0; 3];
    for b in bodies {
        for k in 0..3 {
            p[k] += b.mass * b.vel[k];
        }
    }
    p
}

/// Kinetic energy.
pub fn kinetic_energy(bodies: &[Body]) -> f64 {
    bodies
        .iter()
        .map(|b| 0.5 * b.mass * (b.vel[0] * b.vel[0] + b.vel[1] * b.vel[1] + b.vel[2] * b.vel[2]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_body_attraction_is_symmetric() {
        let cfg = NbodyConfig { n: 2, steps: 1, dt: 1e-3, eps2: 0.0 };
        let bodies = vec![
            Body { pos: [-0.5, 0.0, 0.0], vel: [0.0; 3], mass: 1.0 },
            Body { pos: [0.5, 0.0, 0.0], vel: [0.0; 3], mass: 1.0 },
        ];
        let out = run(&cfg, &bodies);
        // They accelerate toward each other equally.
        assert!(out[0].vel[0] > 0.0);
        assert!((out[0].vel[0] + out[1].vel[0]).abs() < 1e-15);
    }

    #[test]
    fn momentum_is_conserved() {
        let cfg = NbodyConfig { n: 64, steps: 10, dt: 1e-3, eps2: 1e-4 };
        let bodies = inputs(&cfg);
        let p0 = total_momentum(&bodies);
        let out = run(&cfg, &bodies);
        let p1 = total_momentum(&out);
        for k in 0..3 {
            assert!((p1[k] - p0[k]).abs() < 1e-12, "axis {k}: {} vs {}", p1[k], p0[k]);
        }
    }

    #[test]
    fn collapse_increases_kinetic_energy() {
        // A cold cluster falls inward: KE grows over the first steps.
        let cfg = NbodyConfig { n: 128, steps: 5, dt: 1e-2, eps2: 1e-3 };
        let bodies: Vec<Body> = inputs(&cfg)
            .into_iter()
            .map(|mut b| {
                b.vel = [0.0; 3];
                b
            })
            .collect();
        let out = run(&cfg, &bodies);
        assert!(kinetic_energy(&out) > kinetic_energy(&bodies));
    }

    #[test]
    fn profile_is_quadratic_in_n() {
        let p1 = NbodyConfig { n: 100, steps: 1, dt: 1e-3, eps2: 1e-4 }.profile();
        let p2 = NbodyConfig { n: 200, steps: 1, dt: 1e-3, eps2: 1e-4 }.profile();
        assert!(p2.flops / p1.flops > 3.8 && p2.flops / p1.flops < 4.1);
    }
}
