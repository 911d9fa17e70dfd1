//! The Intel MPI Benchmarks ping-pong test (§4.1): "measures the time and
//! bandwidth to exchange one message between two MPI processes". This is the
//! workload behind every panel of Fig 7.

use serde::{Deserialize, Serialize};

use crate::error::MpiFault;
use crate::payload::Msg;
use crate::rank::run_mpi;
use crate::world::JobSpec;

/// One ping-pong measurement point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Half round-trip time ("latency"), µs.
    pub latency_us: f64,
    /// Effective bandwidth, MB/s (`bytes / latency`).
    pub bandwidth_mbs: f64,
}

/// Run the IMB ping-pong between ranks 0 and 1 of a 2-rank job, for each
/// message size, with `reps` exchanges per size (the reported value is the
/// mean half-RTT). Returns the fault that stopped the job, if one did.
pub fn pingpong(spec: JobSpec, sizes: &[u64], reps: u32) -> Result<Vec<PingPongPoint>, MpiFault> {
    assert!(spec.ranks == 2, "ping-pong needs exactly two ranks");
    assert!(reps >= 1);
    let sizes_owned: Vec<u64> = sizes.to_vec();
    let run = run_mpi(spec, move |mut r| {
        let sizes = sizes_owned.clone();
        async move {
            let mut times_us = Vec::with_capacity(sizes.len());
            for (i, &bytes) in sizes.iter().enumerate() {
                let tag = i as u32;
                r.barrier().await;
                let t0 = r.now();
                for _ in 0..reps {
                    if r.rank() == 0 {
                        r.send(1, tag, Msg::size_only(bytes)).await;
                        r.recv(1, tag).await;
                    } else {
                        r.recv(0, tag).await;
                        r.send(0, tag, Msg::size_only(bytes)).await;
                    }
                }
                let rtt = (r.now() - t0).as_micros_f64() / reps as f64;
                times_us.push(rtt / 2.0);
            }
            times_us
        }
    })?;

    Ok(sizes
        .iter()
        .zip(&run.results[0])
        .map(|(&bytes, &latency_us)| PingPongPoint {
            bytes,
            latency_us,
            bandwidth_mbs: if latency_us > 0.0 { bytes as f64 / latency_us } else { 0.0 },
        })
        .collect())
}

/// The message sizes of Fig 7(a–c): 0–64 bytes.
pub fn small_sizes() -> Vec<u64> {
    (0..=64).step_by(8).collect()
}

/// The message sizes of Fig 7(d–f): powers of two from 1 B to 16 MiB.
pub fn large_sizes() -> Vec<u64> {
    (0..=24).map(|e| 1u64 << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ProtocolModel;
    use soc_arch::Platform;

    fn t2_spec(proto: ProtocolModel) -> JobSpec {
        JobSpec::new(Platform::tegra2(), 2).with_proto(proto)
    }

    #[test]
    fn tegra2_tcp_small_message_latency_near_100us() {
        let pts = pingpong(t2_spec(ProtocolModel::tcp_ip()), &[4], 3).unwrap();
        assert!((90.0..112.0).contains(&pts[0].latency_us), "latency {} us", pts[0].latency_us);
    }

    #[test]
    fn tegra2_openmx_small_message_latency_near_65us() {
        let pts = pingpong(t2_spec(ProtocolModel::open_mx()), &[4], 3).unwrap();
        assert!((58.0..72.0).contains(&pts[0].latency_us), "latency {} us", pts[0].latency_us);
    }

    #[test]
    fn tegra2_bandwidth_saturates_near_protocol_limits() {
        // Fig 7(d): TCP tops out near 65 MB/s, Open-MX near 117 MB/s.
        let tcp = pingpong(t2_spec(ProtocolModel::tcp_ip()), &[16 << 20], 1).unwrap();
        let omx = pingpong(t2_spec(ProtocolModel::open_mx()), &[16 << 20], 1).unwrap();
        assert!((58.0..72.0).contains(&tcp[0].bandwidth_mbs), "TCP {}", tcp[0].bandwidth_mbs);
        assert!((105.0..122.0).contains(&omx[0].bandwidth_mbs), "OMX {}", omx[0].bandwidth_mbs);
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let pts = pingpong(t2_spec(ProtocolModel::tcp_ip()), &[64, 4096, 1 << 20], 1).unwrap();
        assert!(pts[0].bandwidth_mbs < pts[1].bandwidth_mbs);
        assert!(pts[1].bandwidth_mbs < pts[2].bandwidth_mbs);
    }

    #[test]
    fn exynos_usb_is_slower_than_tegra_pcie() {
        // Fig 7(b) vs 7(a): the USB attach path costs latency despite the
        // faster A15 core.
        let e5 = JobSpec::new(Platform::exynos5250(), 2)
            .with_freq(1.0)
            .with_proto(ProtocolModel::tcp_ip());
        let t2 =
            JobSpec::new(Platform::tegra2(), 2).with_freq(1.0).with_proto(ProtocolModel::tcp_ip());
        let le5 = pingpong(e5, &[4], 2).unwrap()[0].latency_us;
        let lt2 = pingpong(t2, &[4], 2).unwrap()[0].latency_us;
        assert!(le5 > lt2, "Exynos {le5} us should exceed Tegra2 {lt2} us");
    }

    #[test]
    fn size_lists_are_sane() {
        assert_eq!(small_sizes().first(), Some(&0));
        assert_eq!(small_sizes().last(), Some(&64));
        assert_eq!(large_sizes().last(), Some(&(16 << 20)));
    }
}
