//! DNN workload intermediate representation and the autonomous-driving
//! perception model zoo.
//!
//! This crate describes *what* has to be computed; the cost models in
//! `npu-maestro` describe *how fast* a given accelerator computes it.
//!
//! The central types are:
//!
//! * [`OpKind`] / [`Layer`] — a single tensor operator with MAC/byte
//!   accounting and MAESTRO-style mapping dimensions ([`OpDims`]).
//! * [`Graph`] — a DAG of layers with topological iteration and
//!   validation.
//! * [`models`] — builders for every network in the Tesla Autopilot
//!   perception pipeline studied by the paper: ResNet-18-depth feature
//!   extractor, BiFPN, spatial/temporal attention fusion, occupancy
//!   (deconvolution) trunk, lane-prediction trunk and detection heads.
//! * [`pipeline`] — [`PerceptionConfig`]/[`PerceptionPipeline`]: the full
//!   four-stage, eight-camera workload of the paper's Fig. 2.
//!
//! # Examples
//!
//! ```
//! use npu_dnn::pipeline::PerceptionConfig;
//!
//! let pipe = PerceptionConfig::default().build();
//! assert_eq!(pipe.stages().len(), 4);
//! // Stage 1 runs eight concurrent FE+BFPN instances.
//! assert_eq!(pipe.stages()[0].replicas(), 8);
//! ```

pub mod graph;
pub mod layer;
pub mod models;
pub mod op;
pub mod pipeline;
pub mod validate;

pub use graph::{Graph, GraphError, LayerId};
pub use layer::Layer;
pub use op::{OpClass, OpDims, OpKind};
pub use pipeline::{PerceptionConfig, PerceptionPipeline, Stage, StageKind};
pub use validate::{validate, ValidationError};
