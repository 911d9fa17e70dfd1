//! `amcd` — Markov Chain Monte Carlo method (Table 2: "embarrassingly
//! parallel: peak compute performance"). Independent Metropolis chains
//! sampling a 1-D Gaussian; the observable is the second moment.

use soc_arch::{AccessPattern, WorkProfile};

/// Problem configuration for `amcd`.
#[derive(Clone, Copy, Debug)]
pub struct AmcdConfig {
    /// Total Metropolis proposals across all chains.
    pub samples: usize,
    /// Number of independent chains (each gets `samples / chains` proposals).
    pub chains: usize,
    /// Proposal step width.
    pub step: f64,
}

impl AmcdConfig {
    /// Paper-scale problem.
    pub fn nominal() -> Self {
        AmcdConfig { samples: 13 << 20, chains: 64, step: 1.0 }
    }

    /// Test-scale problem.
    pub fn small() -> Self {
        AmcdConfig { samples: 200_000, chains: 8, step: 1.0 }
    }

    /// Work profile: ~10 flops per proposal (RNG mix, proposal, exp-free
    /// Metropolis ratio for a Gaussian, accumulation); no DRAM traffic —
    /// pure compute, the suite's peak-FP probe.
    pub fn profile(&self) -> WorkProfile {
        WorkProfile::new("amcd", 10.0 * self.samples as f64, 0.0, AccessPattern::ComputeBound)
    }
}

/// A splittable counter-based RNG step (xorshift64*), deterministic per chain.
#[inline]
fn rng_next(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    ((x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64) / ((1u64 << 53) as f64)
}

/// Run one chain; returns (sum of x², accepted proposals).
fn run_chain(chain_id: usize, proposals: usize, step: f64) -> (f64, u64) {
    let mut state = (chain_id as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut x = 0.0f64;
    let mut sum_x2 = 0.0;
    let mut accepted = 0u64;
    for _ in 0..proposals {
        let u1 = rng_next(&mut state);
        let u2 = rng_next(&mut state);
        let proposal = x + step * (u1 - 0.5) * 2.0;
        // Metropolis for N(0,1): accept with min(1, exp((x²-p²)/2)).
        let log_ratio = 0.5 * (x * x - proposal * proposal);
        if log_ratio >= 0.0 || u2 < log_ratio.exp() {
            x = proposal;
            accepted += 1;
        }
        sum_x2 += x * x;
    }
    (sum_x2, accepted)
}

/// Result of an MCMC run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmcdResult {
    /// Estimated `E[x^2]` (should converge to 1.0 for N(0,1)).
    pub second_moment: f64,
    /// Acceptance rate across all chains.
    pub acceptance: f64,
}

/// Run every chain, in chain order.
pub fn run(cfg: &AmcdConfig) -> AmcdResult {
    let per_chain = cfg.samples / cfg.chains;
    let mut sum = 0.0;
    let mut acc = 0u64;
    for c in 0..cfg.chains {
        let (s, a) = run_chain(c, per_chain, cfg.step);
        sum += s;
        acc += a;
    }
    finalize(cfg, sum, acc)
}

fn finalize(cfg: &AmcdConfig, sum: f64, accepted: u64) -> AmcdResult {
    let total = (cfg.samples / cfg.chains) * cfg.chains;
    AmcdResult { second_moment: sum / total as f64, acceptance: accepted as f64 / total as f64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_moment_converges_to_one() {
        let cfg = AmcdConfig { samples: 2_000_000, chains: 16, step: 1.2 };
        let r = run(&cfg);
        assert!((r.second_moment - 1.0).abs() < 0.05, "E[x^2] = {}", r.second_moment);
    }

    #[test]
    fn acceptance_rate_is_sane() {
        let r = run(&AmcdConfig::small());
        assert!(r.acceptance > 0.3 && r.acceptance < 0.95, "{}", r.acceptance);
    }

    #[test]
    fn wider_steps_lower_acceptance() {
        let narrow = run(&AmcdConfig { samples: 100_000, chains: 4, step: 0.3 });
        let wide = run(&AmcdConfig { samples: 100_000, chains: 4, step: 4.0 });
        assert!(wide.acceptance < narrow.acceptance);
    }

    #[test]
    fn profile_is_compute_bound() {
        let p = AmcdConfig::nominal().profile();
        assert_eq!(p.pattern, AccessPattern::ComputeBound);
        assert_eq!(p.dram_bytes, 0.0);
        assert_eq!(p.parallel_fraction, 1.0);
    }
}
