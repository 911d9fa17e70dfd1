//! PEPC (Table 3): "tree code for N-body problem" — "computes long-range
//! Coulomb forces for a set of charged particles".
//!
//! Implemented as a real Barnes–Hut octree code: bodies are block-distributed
//! across ranks; each step allgathers the body set (the replicated-essential-
//! tree simplification of PEPC's tree exchange — documented in DESIGN.md),
//! builds a real octree with centres of charge, and evaluates forces on the
//! local bodies with the θ multipole-acceptance criterion.
//!
//! Because the allgather volume scales with the *total* body count while the
//! local work shrinks as `n/P`, strong scaling degrades for small inputs —
//! exactly the behaviour the paper reports for PEPC ("relatively poor strong
//! scalability partly because the input set that we can fit on our cluster
//! is too small").

use simmpi::{JobSpec, Msg, Rank, ReduceOp};
use soc_arch::{AccessPattern, WorkProfile};

use crate::mode::Mode;

/// A charged particle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Particle {
    /// Position.
    pub pos: [f64; 3],
    /// Charge.
    pub charge: f64,
}

/// Tree-code configuration.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    /// Total number of particles.
    pub n: usize,
    /// Multipole acceptance parameter θ (smaller = more accurate).
    pub theta: f64,
    /// Softening length squared.
    pub eps2: f64,
    /// Number of force-evaluation steps.
    pub steps: usize,
    /// Execution mode.
    pub mode: Mode,
}

impl TreeConfig {
    /// Small Execute-mode configuration for tests.
    pub fn small() -> TreeConfig {
        TreeConfig { n: 512, theta: 0.4, eps2: 1e-6, steps: 1, mode: Mode::Execute }
    }

    /// The Fig 6 strong-scaling input (Model mode): the largest set that
    /// fits the cluster ("the input set ... is too small" for good scaling).
    pub fn fig6() -> TreeConfig {
        TreeConfig { n: 300_000, theta: 0.5, eps2: 1e-6, steps: 4, mode: Mode::Model }
    }
}

/// Deterministic particle cloud in the unit cube.
pub fn make_particles(n: usize) -> Vec<Particle> {
    (0..n)
        .map(|i| {
            let h = |k: u64| {
                let mut x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(k * 0x1234567);
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58476D1CE4E5B9);
                x ^= x >> 29;
                (x % 1_000_000) as f64 / 1_000_000.0
            };
            Particle { pos: [h(1), h(2), h(3)], charge: if i % 2 == 0 { 1.0 } else { -1.0 } }
        })
        .collect()
}

// --- The octree -----------------------------------------------------------

struct Node {
    centre: [f64; 3], // cell centre
    half: f64,        // half edge length
    /// Total charge and charge-weighted position (centre of charge uses
    /// absolute charges to stay meaningful for mixed-sign systems).
    q_sum: f64,
    aq_sum: f64,
    aq_pos: [f64; 3],
    children: Option<Box<[Option<Node>; 8]>>,
    body: Option<usize>,
}

impl Node {
    fn leaf(centre: [f64; 3], half: f64) -> Node {
        Node { centre, half, q_sum: 0.0, aq_sum: 0.0, aq_pos: [0.0; 3], children: None, body: None }
    }

    fn octant(&self, p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= self.centre[0]))
            | (usize::from(p[1] >= self.centre[1]) << 1)
            | (usize::from(p[2] >= self.centre[2]) << 2)
    }

    fn child_centre(&self, o: usize) -> [f64; 3] {
        let h = self.half / 2.0;
        [
            self.centre[0] + if o & 1 != 0 { h } else { -h },
            self.centre[1] + if o & 2 != 0 { h } else { -h },
            self.centre[2] + if o & 4 != 0 { h } else { -h },
        ]
    }

    fn insert(&mut self, idx: usize, bodies: &[Particle], depth: u32) {
        const MAX_DEPTH: u32 = 64;
        if self.children.is_none() && self.body.is_none() && self.q_sum == 0.0 && self.aq_sum == 0.0
        {
            self.body = Some(idx);
            self.accumulate(idx, bodies);
            return;
        }
        if self.children.is_none() {
            // Split: push the resident body down.
            let resident = self.body.take();
            self.children = Some(Box::default());
            if let Some(rb) = resident {
                if depth < MAX_DEPTH {
                    self.push_down(rb, bodies, depth);
                }
            }
        }
        if depth < MAX_DEPTH {
            self.push_down(idx, bodies, depth);
        }
        self.accumulate(idx, bodies);
    }

    fn push_down(&mut self, idx: usize, bodies: &[Particle], depth: u32) {
        let o = self.octant(&bodies[idx].pos);
        let cc = self.child_centre(o);
        let half = self.half / 2.0;
        let children = self.children.as_mut().unwrap();
        let child = children[o].get_or_insert_with(|| Node::leaf(cc, half));
        child.insert(idx, bodies, depth + 1);
    }

    fn accumulate(&mut self, idx: usize, bodies: &[Particle]) {
        let b = &bodies[idx];
        let aq = b.charge.abs();
        self.q_sum += b.charge;
        self.aq_sum += aq;
        for k in 0..3 {
            self.aq_pos[k] += aq * b.pos[k];
        }
    }

    fn centre_of_charge(&self) -> [f64; 3] {
        if self.aq_sum == 0.0 {
            return self.centre;
        }
        [self.aq_pos[0] / self.aq_sum, self.aq_pos[1] / self.aq_sum, self.aq_pos[2] / self.aq_sum]
    }
}

/// Build an octree over all bodies.
pub struct Octree {
    root: Node,
}

impl Octree {
    /// Build from a body set (positions must lie in the unit cube).
    pub fn build(bodies: &[Particle]) -> Octree {
        let mut root = Node::leaf([0.5, 0.5, 0.5], 0.5);
        for i in 0..bodies.len() {
            root.insert(i, bodies, 0);
        }
        Octree { root }
    }

    /// Coulomb field at body `i` via the Barnes–Hut traversal; returns the
    /// field vector and the number of interactions evaluated.
    pub fn field_at(
        &self,
        i: usize,
        bodies: &[Particle],
        theta: f64,
        eps2: f64,
    ) -> ([f64; 3], u64) {
        let mut field = [0.0f64; 3];
        let mut interactions = 0u64;
        let target = bodies[i].pos;
        let mut stack: Vec<&Node> = vec![&self.root];
        while let Some(node) = stack.pop() {
            if node.aq_sum == 0.0 {
                continue;
            }
            let coc = node.centre_of_charge();
            let dx = coc[0] - target[0];
            let dy = coc[1] - target[1];
            let dz = coc[2] - target[2];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let size = 2.0 * node.half;
            let is_leaf_body = node.children.is_none();
            if is_leaf_body || size * size < theta * theta * r2 {
                if is_leaf_body && node.body == Some(i) {
                    continue; // self-interaction
                }
                let inv_r3 = 1.0 / (r2 * r2.sqrt());
                let q = node.q_sum;
                field[0] += q * dx * inv_r3;
                field[1] += q * dy * inv_r3;
                field[2] += q * dz * inv_r3;
                interactions += 1;
            } else if let Some(children) = &node.children {
                for c in children.iter().flatten() {
                    stack.push(c);
                }
            }
        }
        (field, interactions)
    }
}

/// Direct O(n²) field for verification.
pub fn direct_field(i: usize, bodies: &[Particle], eps2: f64) -> [f64; 3] {
    let mut f = [0.0; 3];
    let t = bodies[i].pos;
    for (j, b) in bodies.iter().enumerate() {
        if j == i {
            continue;
        }
        let dx = b.pos[0] - t[0];
        let dy = b.pos[1] - t[1];
        let dz = b.pos[2] - t[2];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let inv_r3 = 1.0 / (r2 * r2.sqrt());
        f[0] += b.charge * dx * inv_r3;
        f[1] += b.charge * dy * inv_r3;
        f[2] += b.charge * dz * inv_r3;
    }
    f
}

/// The per-rank tree-code program; returns the sum of |field| over local
/// bodies (Execute) or 0.0 (Model).
pub async fn treecode_rank(r: &mut Rank, cfg: &TreeConfig) -> f64 {
    let p = r.size() as usize;
    let me = r.rank() as usize;
    let n = cfg.n;
    let lo = me * n / p;
    let hi = (me + 1) * n / p;
    let nlocal = hi - lo;

    let all = cfg.mode.carries_data().then(|| make_particles(n));
    let mut field_sum = 0.0;

    for _ in 0..cfg.steps {
        // --- Body exchange: allgather everyone's particles ----------------
        let my_msg = match &all {
            Some(bodies) => {
                let mut v = Vec::with_capacity(nlocal * 4);
                for b in &bodies[lo..hi] {
                    v.extend_from_slice(&b.pos);
                    v.push(b.charge);
                }
                Msg::from_f64s(&v)
            }
            None => Msg::size_only((nlocal * 32) as u64),
        };
        r.phase_begin("pepc.exchange");
        let gathered = r.allgather(my_msg).await;
        r.phase_end("pepc.exchange");

        match &all {
            Some(_) => {
                // Reassemble the global set from the gathered payloads (in
                // rank order the concatenation is exactly `make_particles`).
                let mut bodies = Vec::with_capacity(n);
                for m in &gathered {
                    for c in m.to_f64s().chunks_exact(4) {
                        bodies.push(Particle { pos: [c[0], c[1], c[2]], charge: c[3] });
                    }
                }
                // --- Tree build + local force evaluation ------------------
                r.phase_begin("pepc.build");
                let tree = Octree::build(&bodies);
                r.phase_end("pepc.build");
                r.phase_begin("pepc.walk");
                for i in lo..hi {
                    let (f, _) = tree.field_at(i, &bodies, cfg.theta, cfg.eps2);
                    field_sum += (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
                }
                r.phase_end("pepc.walk");
            }
            None => {
                // Model mode: tree build (~n log n light ops, shared across
                // ranks is replicated => cost n log n per rank) + traversal
                // for the local bodies.
                let lg = (n as f64).log2();
                let build = WorkProfile::new(
                    "pepc-build",
                    6.0 * n as f64 * lg,
                    24.0 * n as f64,
                    AccessPattern::Irregular,
                );
                // ~interactions per body at θ≈0.5 grows ~ log n.
                let inter_per_body = 28.0 * lg;
                let eval = WorkProfile::new(
                    "pepc-eval",
                    nlocal as f64 * inter_per_body * 22.0,
                    nlocal as f64 * inter_per_body * 8.0,
                    AccessPattern::Irregular,
                )
                .with_imbalance(0.1);
                r.phase_begin("pepc.build");
                r.compute(&build).await;
                r.phase_end("pepc.build");
                r.phase_begin("pepc.walk");
                r.compute(&eval).await;
                r.phase_end("pepc.walk");
            }
        }
    }
    field_sum
}

/// Run the tree code; returns `(elapsed_seconds, global_field_sum)`, or the
/// fault that stopped the run.
pub fn run_treecode(spec: JobSpec, cfg: TreeConfig) -> Result<(f64, f64), simmpi::MpiFault> {
    let run = simmpi::run_mpi(spec, move |mut r| async move {
        let t0 = r.now();
        let f = treecode_rank(&mut r, &cfg).await;
        r.barrier().await;
        let dt = (r.now() - t0).as_secs_f64();
        let total = r.allreduce(ReduceOp::Sum, vec![f]).await;
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
    fn barnes_hut_approximates_direct_sum() {
        let bodies = make_particles(400);
        let tree = Octree::build(&bodies);
        let mut max_rel = 0.0f64;
        for i in (0..400).step_by(17) {
            let (bh, _) = tree.field_at(i, &bodies, 0.3, 1e-6);
            let ds = direct_field(i, &bodies, 1e-6);
            let mag = (ds[0] * ds[0] + ds[1] * ds[1] + ds[2] * ds[2]).sqrt().max(1e-12);
            let err = ((bh[0] - ds[0]).powi(2) + (bh[1] - ds[1]).powi(2) + (bh[2] - ds[2]).powi(2))
                .sqrt();
            max_rel = max_rel.max(err / mag);
        }
        assert!(max_rel < 0.09, "BH relative error {max_rel}");
    }

    #[test]
    fn theta_zero_equals_direct_sum() {
        // θ = 0 forces full opening: exact (up to traversal order).
        let bodies = make_particles(100);
        let tree = Octree::build(&bodies);
        let (bh, _) = tree.field_at(7, &bodies, 0.0, 1e-6);
        let ds = direct_field(7, &bodies, 1e-6);
        for k in 0..3 {
            let tol = 1e-9 * (1.0 + ds[k].abs());
            assert!((bh[k] - ds[k]).abs() < tol, "axis {k}: {} vs {}", bh[k], ds[k]);
        }
    }

    #[test]
    fn larger_theta_needs_fewer_interactions() {
        let bodies = make_particles(2000);
        let tree = Octree::build(&bodies);
        let (_, tight) = tree.field_at(0, &bodies, 0.2, 1e-6);
        let (_, loose) = tree.field_at(0, &bodies, 0.9, 1e-6);
        assert!(loose < tight, "{loose} !< {tight}");
        // And far fewer than direct sum.
        assert!(loose < 1999);
    }

    #[test]
    fn parallel_field_sum_matches_single_rank() {
        let cfg = TreeConfig::small();
        let (_, f1) = run_treecode(spec(1), cfg).unwrap();
        let (_, f4) = run_treecode(spec(4), cfg).unwrap();
        assert!((f1 - f4).abs() < 1e-9 * f1.abs().max(1.0), "{f1} vs {f4}");
    }

    #[test]
    fn model_mode_comm_does_not_shrink_with_ranks() {
        // The allgather term is why PEPC scales poorly: doubling ranks does
        // not halve the runtime.
        let cfg = TreeConfig { n: 60_000, steps: 2, mode: Mode::Model, ..TreeConfig::small() };
        let (t8, _) = run_treecode(spec(8), cfg).unwrap();
        let (t16, _) = run_treecode(spec(16), cfg).unwrap();
        let speedup = t8 / t16;
        assert!(speedup > 1.0, "more ranks should still help a bit: {speedup}");
        assert!(speedup < 1.9, "scaling should be clearly sub-linear: {speedup}");
    }

    #[test]
    fn duplicate_position_bodies_do_not_hang_the_tree() {
        let mut bodies = make_particles(16);
        bodies[3].pos = bodies[5].pos; // exact duplicate triggers MAX_DEPTH
        let tree = Octree::build(&bodies);
        let (f, _) = tree.field_at(0, &bodies, 0.5, 1e-6);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
