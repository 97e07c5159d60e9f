//! Transfer cost computation.

use std::ops::Add;

use serde::{Deserialize, Serialize};

use npu_tensor::{Bytes, Joules, Seconds};

use crate::link::LinkParams;

/// The latency and energy of moving data over the NoP.
///
/// A consumer's input transfers are priced one [`TransferCost::unicast`]
/// per producing shard and summed with `+`: remote shards serialize
/// through the consumer's port back to back (the paper's §IV-D
/// observation that gathers of sharded outputs raise NoP latency), and
/// a shard on the consumer's own chiplet adds nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferCost {
    /// Transfer latency.
    pub latency: Seconds,
    /// Transfer energy.
    pub energy: Joules,
}

impl TransferCost {
    /// A zero transfer.
    pub const ZERO: TransferCost = TransferCost {
        latency: Seconds::ZERO,
        energy: Joules::ZERO,
    };

    /// Point-to-point transfer of `bytes` over `hops` hops.
    ///
    /// Follows the paper's store-and-forward formulation (§IV-D):
    /// latency is the serialization time *multiplied by the hop count*
    /// plus the per-hop router latency; energy is bits × pJ/bit × hops.
    /// Producer and consumer on one chiplet (`hops == 0`) move on-chip,
    /// free at NoP granularity.
    pub fn unicast(bytes: Bytes, hops: u64, link: &LinkParams) -> Self {
        if hops == 0 {
            return TransferCost::ZERO;
        }
        let serialization = Seconds::new(bytes.as_f64() / link.bandwidth_bytes_per_sec);
        TransferCost {
            latency: (serialization + link.hop_latency) * hops as f64,
            energy: link.energy_per_bit * (bytes.bits() as f64 * hops as f64),
        }
    }
}

impl Add for TransferCost {
    type Output = TransferCost;
    fn add(self, rhs: TransferCost) -> TransferCost {
        TransferCost {
            latency: self.latency + rhs.latency,
            energy: self.energy + rhs.energy,
        }
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
