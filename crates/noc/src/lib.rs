//! Network-on-Package (NoP) cost model.
//!
//! The paper models inter-chiplet data movement with Simba's
//! microarchitecture parameters scaled to 28 nm (§IV-D):
//!
//! * interconnect bandwidth: 100 GB/s per chiplet,
//! * per-hop latency: 35 ns,
//! * transmission energy: 2.04 pJ/bit,
//!
//! with store-and-forward transmission latency = hops × (feature-map size
//! / bandwidth + hop latency), and energy = bits × pJ/bit × hops. This
//! crate implements that model over a 2-D mesh with XY routing, plus
//! package-edge DRAM ports. [`TransferCost::unicast`] prices one
//! point-to-point move; a consumer fed by several producing shards pays
//! their unicasts summed, so remote shards serialize through its port.
//!
//! # Examples
//!
//! ```
//! use npu_noc::{LinkParams, Mesh2d, TransferCost};
//! use npu_tensor::Bytes;
//!
//! let mesh = Mesh2d::new(6, 6);
//! let (a, b) = (mesh.node(0, 0), mesh.node(3, 2));
//! let hops = mesh.manhattan(a, b);
//! assert_eq!(hops, 5);
//! let cost = TransferCost::unicast(Bytes::from_mib(1), hops, &LinkParams::simba_28nm());
//! assert!(cost.latency.as_micros() > 10.0); // 1 MiB / 100 GB/s ≈ 10.5 us
//! ```

pub mod link;
pub mod package_io;
pub mod topology;
pub mod transfer;

pub use link::LinkParams;
pub use package_io::DramPorts;
pub use topology::{Coord, Mesh2d, NodeId};
pub use transfer::TransferCost;
