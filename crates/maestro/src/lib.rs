//! MAESTRO-style analytical per-layer cost models for dataflow
//! accelerators.
//!
//! The paper evaluates perception layers with MAESTRO, an analytical DNN
//! cost model, on two accelerator templates: a Shidiannao-like
//! *output-stationary* (OS) design and an NVDLA-like *weight-stationary*
//! (WS) design. This crate reproduces that oracle:
//!
//! * [`mapping`] computes *mechanistic* spatial-mapping utilization — how
//!   many PEs a layer's loop extents can occupy on a 2-D array under each
//!   dataflow. Token-shaped operands (`x = 1`) starve the OS output map,
//!   which is the behaviour behind the paper's fusion-stage bottlenecks.
//! * [`profile`] holds the *fitted* per-op-class stall and energy
//!   coefficients that calibrate the model to the paper's published
//!   MAESTRO measurements; each constant's doc names the paper figure it
//!   fits, and [`calib::calibration_table`] checks the per-layer ones.
//! * [`cost`] combines both into [`CostModel`] implementations:
//!   [`FittedMaestro`] (default, paper-calibrated) and
//!   [`FirstPrinciples`] (an independent roofline model for ablations).
//!   Both are closed forms (~44 ns a layer), so every consumer — the
//!   matcher, the sweeps, the evaluator pass that DES flattening reads —
//!   calls them directly: a hashed, locked cache in front would cost
//!   ~400 ns a hit.
//! * [`reconfig`] models mapping-transition spin-up ([`ReconfigModel`]):
//!   the control-plane and weight-reload latency charged when an online
//!   mode switch re-programs chiplets (`npu-sched`'s schedule re-matcher
//!   consumes it).
//!
//! # Examples
//!
//! ```
//! use npu_dnn::{Layer, OpKind};
//! use npu_maestro::{Accelerator, CostModel, FittedMaestro};
//!
//! // S_FUSE QKV projection on one 256-PE Shidiannao-like chiplet:
//! // the paper reports 78.7 ms.
//! let acc = Accelerator::shidiannao_like(256);
//! let layer = Layer::intrinsic(
//!     "s_fuse.qkv",
//!     OpKind::Dense { tokens: 12_800, in_features: 256, out_features: 768 },
//! );
//! let cost = FittedMaestro::default().layer_cost(&layer, &acc);
//! assert!((cost.latency.as_millis() - 78.6).abs() < 1.0);
//! ```

pub mod accelerator;
pub mod calib;
pub mod cost;
pub mod energy;
pub mod mapping;
pub mod pe_array;
pub mod profile;
pub mod reconfig;
pub mod report;

pub use accelerator::{Accelerator, Dataflow};
pub use cost::{CostModel, FirstPrinciples, FittedMaestro, LayerCost};
pub use energy::{breakdown, AccessEnergies, EnergyBreakdown};
pub use pe_array::PeArray;
pub use profile::DataflowProfile;
pub use reconfig::ReconfigModel;
pub use report::{graph_cost, ClassBreakdown, GraphCost};
