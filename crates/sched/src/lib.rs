//! Scheduling perception workloads onto multi-chiplet NPUs.
//!
//! This crate implements the paper's scheduling methodology:
//!
//! * [`shard`] — data-parallel layer sharding (token / frame / spatial
//!   splits) with validity caps.
//! * [`plan`] — the schedule representation: every layer of every model
//!   instance mapped to one or more chiplets.
//! * [`eval`] — the analytical pipeline evaluator: per-chiplet busy time,
//!   stage and end-to-end latency, compute + NoP energy, EDP and PE
//!   utilization.
//! * [`throughput_match`] — **Algorithm 1**, the nested greedy throughput
//!   matcher: allocate quadrants, find bottleneck stages, shard bottleneck
//!   layers, re-allocate surplus chiplets, repeat until the pipelining
//!   latencies match the FE+BFPN base latency.
//! * [`baseline`] — the Table II baselines (1/2/4 monolithic chips,
//!   stagewise and layerwise pipelining).
//! * [`dse`] — brute-force trunks design-space exploration with
//!   heterogeneous OS/WS integration (Table I).
//! * [`context`] — context-aware lane computing sweep (Fig. 11).
//! * [`rematch`] — the priced diff between two matched schedules: which
//!   chiplets an online mode switch re-programs, and the resulting
//!   mapping spin-up latency (`npu-scenario`'s drive timelines charge it
//!   at every segment boundary).
//!
//! # Examples
//!
//! ```
//! use npu_dnn::PerceptionConfig;
//! use npu_maestro::FittedMaestro;
//! use npu_mcm::McmPackage;
//! use npu_sched::{MatcherConfig, ThroughputMatcher};
//!
//! let pipeline = PerceptionConfig::default().build();
//! let pkg = McmPackage::simba_6x6();
//! let model = FittedMaestro::new();
//! let matcher = ThroughputMatcher::new(&model, MatcherConfig::default());
//! let outcome = matcher.match_throughput(&pipeline, &pkg);
//! // The matched pipeline sustains ~12 FPS (pipe latency ~85 ms).
//! assert!(outcome.report.pipe.as_millis() < 100.0);
//! ```

pub mod baseline;
pub mod context;
pub mod dse;
pub mod eval;
pub mod gantt;
pub mod lpt;
pub mod plan;
pub mod rematch;
pub mod shard;
pub mod sweep;
pub mod throughput_match;
pub mod validate;

pub use baseline::{baseline_schedule, Pipelining};
pub use eval::{evaluate, flatten_items, EvalReport, SimItem, StageReport};
pub use plan::{LayerPlan, ModelPlan, Schedule, ShardAssignment, StagePlan};
pub use rematch::{rematch_cost, rematch_cost_against, RematchOutcome};
pub use shard::{shard_cap, shard_layer, ShardError};
pub use throughput_match::{MatchOutcome, MatchStep, MatcherConfig, ThroughputMatcher};
pub use validate::{validate_schedule, ScheduleError};
