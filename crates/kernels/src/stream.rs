//! STREAM — the memory-bandwidth benchmark of §3.2 (McCalpin): copy, scale,
//! add, triad. Real array operations plus the per-platform bandwidth model
//! that reproduces Fig 5.

use serde::{Deserialize, Serialize};
use soc_arch::Soc;

/// The four STREAM operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum StreamOp {
    /// `c[i] = a[i]` — 16 B/element, 0 flops.
    Copy,
    /// `b[i] = s·c[i]` — 16 B/element, 1 flop.
    Scale,
    /// `c[i] = a[i] + b[i]` — 24 B/element, 1 flop.
    Add,
    /// `a[i] = b[i] + s·c[i]` — 24 B/element, 2 flops.
    Triad,
}

impl StreamOp {
    /// All four operations in STREAM's canonical order.
    pub const ALL: [StreamOp; 4] =
        [StreamOp::Copy, StreamOp::Scale, StreamOp::Add, StreamOp::Triad];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Scale => "Scale",
            StreamOp::Add => "Add",
            StreamOp::Triad => "Triad",
        }
    }

    /// Relative attained bandwidth vs Copy: the 2-read/1-write kernels use
    /// the DRAM bus slightly better on every platform McCalpin tabulates.
    pub fn efficiency_factor(self) -> f64 {
        match self {
            StreamOp::Copy => 1.0,
            StreamOp::Scale => 0.99,
            StreamOp::Add => 1.04,
            StreamOp::Triad => 1.05,
        }
    }
}

/// STREAM array length (elements). The classic rule: arrays must be much
/// larger than the last-level cache.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Array length per vector.
    pub n: usize,
    /// The scale factor `s`.
    pub scalar: f64,
}

impl StreamConfig {
    /// Paper-scale arrays (3 × 16 MiB — beyond every Table-1 LLC).
    pub fn nominal() -> Self {
        StreamConfig { n: 2 << 20, scalar: 3.0 }
    }

    /// Test-scale arrays.
    pub fn small() -> Self {
        StreamConfig { n: 10_000, scalar: 3.0 }
    }
}

/// The three STREAM arrays.
pub struct StreamArrays {
    /// Array `a`.
    pub a: Vec<f64>,
    /// Array `b`.
    pub b: Vec<f64>,
    /// Array `c`.
    pub c: Vec<f64>,
}

/// Canonical STREAM initial values.
pub fn inputs(cfg: &StreamConfig) -> StreamArrays {
    StreamArrays { a: vec![1.0; cfg.n], b: vec![2.0; cfg.n], c: vec![0.0; cfg.n] }
}

/// Execute one op.
pub fn run(op: StreamOp, s: f64, arr: &mut StreamArrays) {
    match op {
        StreamOp::Copy => {
            for (c, a) in arr.c.iter_mut().zip(&arr.a) {
                *c = *a;
            }
        }
        StreamOp::Scale => {
            for (b, c) in arr.b.iter_mut().zip(&arr.c) {
                *b = s * *c;
            }
        }
        StreamOp::Add => {
            for ((c, a), b) in arr.c.iter_mut().zip(&arr.a).zip(&arr.b) {
                *c = *a + *b;
            }
        }
        StreamOp::Triad => {
            for ((a, b), c) in arr.a.iter_mut().zip(&arr.b).zip(&arr.c) {
                *a = *b + s * *c;
            }
        }
    }
}

/// Modelled STREAM bandwidth in GB/s for `op` on `soc` with `cores` active —
/// the Fig 5 reproduction path.
pub fn modeled_bandwidth_gbs(soc: &Soc, cores: u32, op: StreamOp) -> f64 {
    soc.mem.stream_bw_bytes(cores, soc.cores) * op.efficiency_factor() / 1e9
}

/// One Fig 5 result row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StreamResult {
    /// Platform id.
    pub platform: String,
    /// Operation.
    pub op: &'static str,
    /// Single-core bandwidth, GB/s.
    pub single_gbs: f64,
    /// All-core bandwidth, GB/s.
    pub multi_gbs: f64,
}

/// Produce the full Fig 5 table for one platform.
pub fn fig5_rows(soc: &Soc, platform_id: &str) -> Vec<StreamResult> {
    StreamOp::ALL
        .iter()
        .map(|&op| StreamResult {
            platform: platform_id.to_string(),
            op: op.name(),
            single_gbs: modeled_bandwidth_gbs(soc, 1, op),
            multi_gbs: modeled_bandwidth_gbs(soc, soc.cores, op),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_arch::Platform;

    #[test]
    fn stream_ops_compute_correctly() {
        let cfg = StreamConfig { n: 100, scalar: 3.0 };
        let mut arr = inputs(&cfg);
        run(StreamOp::Copy, cfg.scalar, &mut arr); // c = a = 1
        assert!(arr.c.iter().all(|&v| v == 1.0));
        run(StreamOp::Scale, cfg.scalar, &mut arr); // b = 3c = 3
        assert!(arr.b.iter().all(|&v| v == 3.0));
        run(StreamOp::Add, cfg.scalar, &mut arr); // c = a + b = 4
        assert!(arr.c.iter().all(|&v| v == 4.0));
        run(StreamOp::Triad, cfg.scalar, &mut arr); // a = b + 3c = 15
        assert!(arr.a.iter().all(|&v| v == 15.0));
    }

    #[test]
    fn multicore_efficiency_matches_paper_figures() {
        // §3.2: 62% (Tegra 2), 27% (Tegra 3), 52% (Exynos 5250), 57% (i7).
        for (p, eff) in [
            (Platform::tegra2(), 0.62),
            (Platform::tegra3(), 0.27),
            (Platform::exynos5250(), 0.52),
            (Platform::core_i7_2760qm(), 0.57),
        ] {
            let bw = modeled_bandwidth_gbs(&p.soc, p.soc.cores, StreamOp::Copy);
            let got = bw / p.soc.mem.peak_bw_gbs;
            assert!((got - eff).abs() < 0.03, "{}: {got} vs {eff}", p.id);
        }
    }

    #[test]
    fn a15_improves_on_a9_by_about_4_5x() {
        // §3.2: "a significant improvement in memory bandwidth, of about 4.5
        // times, between the Tegra platforms and the Samsung Exynos 5250".
        let t2 = Platform::tegra2();
        let e5 = Platform::exynos5250();
        let r = modeled_bandwidth_gbs(&e5.soc, 2, StreamOp::Triad)
            / modeled_bandwidth_gbs(&t2.soc, 2, StreamOp::Triad);
        assert!(r > 3.6 && r < 5.2, "ratio {r}");
    }

    #[test]
    fn fig5_rows_cover_all_ops() {
        let p = Platform::tegra2();
        let rows = fig5_rows(&p.soc, p.id);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.multi_gbs >= r.single_gbs));
    }
}
