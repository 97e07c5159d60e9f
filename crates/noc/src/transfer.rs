//! Transfer cost computation.

use std::iter::Sum;
use std::ops::Add;

use serde::{Deserialize, Serialize};

use npu_tensor::{Bytes, Joules, Seconds};

use crate::link::LinkParams;

/// The cost of moving data over the NoP.
///
/// Follows the paper's model (§IV-D): latency is the feature-map
/// serialization time over the link bandwidth plus per-hop router latency;
/// energy is bits × per-bit energy × hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferCost {
    /// Transfer latency.
    pub latency: Seconds,
    /// Transfer energy.
    pub energy: Joules,
    /// Bytes moved (payload, not multiplied by hops).
    pub bytes: Bytes,
    /// Worst-case hop count involved.
    pub hops: u64,
}

impl TransferCost {
    /// A zero transfer.
    pub const ZERO: TransferCost = TransferCost {
        latency: Seconds::ZERO,
        energy: Joules::ZERO,
        bytes: Bytes::ZERO,
        hops: 0,
    };

    /// Point-to-point transfer of `bytes` over `hops` hops.
    ///
    /// Follows the paper's store-and-forward formulation (§IV-D):
    /// latency is the serialization time *multiplied by the hop count*
    /// plus the per-hop router latency; energy is bits × pJ/bit × hops.
    pub fn unicast(bytes: Bytes, hops: u64, link: &LinkParams) -> Self {
        if hops == 0 {
            // Producer and consumer share a chiplet: on-chip, free at NoP
            // granularity.
            return TransferCost {
                bytes,
                ..TransferCost::ZERO
            };
        }
        let serialization = Seconds::new(bytes.as_f64() / link.bandwidth_bytes_per_sec);
        TransferCost {
            latency: (serialization + link.hop_latency) * hops as f64,
            energy: link.energy_per_bit * (bytes.bits() as f64 * hops as f64),
            bytes,
            hops,
        }
    }

    /// Gather of shards into one destination: each remote shard's
    /// store-and-forward time serializes through the destination port
    /// back-to-back (the paper's §IV-D observation that gathers of sharded
    /// outputs raise NoP latency).
    pub fn gather(shards: &[(Bytes, u64)], link: &LinkParams) -> Self {
        let far = shards.iter().map(|&(_, h)| h).max().unwrap_or(0);
        let all: Bytes = shards.iter().map(|&(b, _)| b).sum();
        if far == 0 {
            return TransferCost {
                bytes: all,
                ..TransferCost::ZERO
            };
        }
        let latency: Seconds = shards
            .iter()
            .map(|&(b, h)| {
                (Seconds::new(b.as_f64() / link.bandwidth_bytes_per_sec) + link.hop_latency)
                    * h as f64
            })
            .sum();
        let energy_bits: f64 = shards
            .iter()
            .map(|&(b, h)| b.bits() as f64 * h as f64)
            .sum();
        TransferCost {
            latency,
            energy: link.energy_per_bit * energy_bits,
            bytes: all,
            hops: far,
        }
    }
}

impl Add for TransferCost {
    type Output = TransferCost;
    fn add(self, rhs: TransferCost) -> TransferCost {
        TransferCost {
            latency: self.latency + rhs.latency,
            energy: self.energy + rhs.energy,
            bytes: self.bytes + rhs.bytes,
            hops: self.hops.max(rhs.hops),
        }
    }
}

impl Sum for TransferCost {
    fn sum<I: Iterator<Item = TransferCost>>(iter: I) -> TransferCost {
        iter.fold(TransferCost::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unicast_matches_paper_formula() {
        let link = LinkParams::simba_28nm();
        let bytes = Bytes::new(1_000_000);
        let c = TransferCost::unicast(bytes, 3, &link);
        // Store-and-forward: 3 hops x (1 MB / 100 GB/s + 35 ns).
        let expected_lat = 3.0 * (1e6 / 100e9 + 35e-9);
        assert!((c.latency.as_secs() - expected_lat).abs() < 1e-15);
        // 8 Mbit x 2.04 pJ x 3 hops.
        let expected_e = 8e6 * 2.04e-12 * 3.0;
        assert!((c.energy.as_joules() - expected_e).abs() < 1e-15);
    }

    #[test]
    fn zero_hops_is_free() {
        let c = TransferCost::unicast(Bytes::from_mib(64), 0, &LinkParams::default());
        assert!(c.latency.is_zero());
        assert_eq!(c.energy, Joules::ZERO);
    }

    #[test]
    fn gather_serializes_remote_shards_only() {
        let link = LinkParams::default();
        let shards = [
            (Bytes::new(500), 2),
            (Bytes::new(500), 0),
            (Bytes::new(500), 4),
        ];
        let c = TransferCost::gather(&shards, &link);
        assert_eq!(c.hops, 4);
        assert_eq!(c.bytes, Bytes::new(1500));
        // Remote shards accumulate store-and-forward time: (2+4) hop-loads.
        let per_hop = 500.0 / link.bandwidth_bytes_per_sec + 35e-9;
        let expected = 6.0 * per_hop;
        assert!((c.latency.as_secs() - expected).abs() < 1e-15);
    }

    proptest! {
        /// Energy and serialization latency are linear in bytes.
        #[test]
        fn unicast_linear_in_bytes(b in 1u64..10_000_000, hops in 1u64..12) {
            let link = LinkParams::default();
            let one = TransferCost::unicast(Bytes::new(b), hops, &link);
            let two = TransferCost::unicast(Bytes::new(2 * b), hops, &link);
            prop_assert!((two.energy.as_joules() - 2.0 * one.energy.as_joules()).abs() < 1e-12);
            let hop_part = link.hop_latency * hops as f64;
            let ser1 = one.latency - hop_part;
            let ser2 = two.latency - hop_part;
            prop_assert!((ser2.as_secs() - 2.0 * ser1.as_secs()).abs() < 1e-12);
        }

        /// More hops never cost less.
        #[test]
        fn monotone_in_hops(b in 1u64..1_000_000, h in 0u64..11) {
            let link = LinkParams::default();
            let near = TransferCost::unicast(Bytes::new(b), h, &link);
            let far = TransferCost::unicast(Bytes::new(b), h + 1, &link);
            prop_assert!(far.latency >= near.latency);
            prop_assert!(far.energy >= near.energy);
        }
    }
}
