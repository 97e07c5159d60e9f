//! Discrete-event simulation of a scheduled perception pipeline.
//!
//! The paper (and `npu-sched`) computes pipelining latency *analytically*
//! as the maximum per-chiplet busy time. This crate executes a schedule as
//! a discrete-event simulation — frames enter under a configurable
//! [`Arrivals`] process (saturation, periodic camera, jittered, bursty,
//! trace replay, or a piecewise timeline of those), every layer shard is
//! a job on its chiplet's FIFO queue, dependencies gate job starts — and
//! measures the steady-state frame interval and latency *empirically*.
//! Agreement between the two is a strong internal consistency check (see
//! `validate`), and `npu-scenario` compiles whole driving scenarios down
//! to these arrival processes.
//!
//! One simulation function, [`simulate`], runs K [`SimPhase`] streams
//! as if sharing one event calendar, each with its own schedule,
//! arrivals, spin-up window and cutoff, and returns one report per
//! stream. A steady-state run is one stream built by
//! [`SimConfig::phase`]; `npu-fleet`'s co-scheduler runs one stream per
//! tenant. Streams linked by shared chiplets run in one engine pass;
//! groups that share none run in passes of their own, bit-identical to
//! the one-calendar run. Malformed streams (an empty schedule, non-finite
//! or decreasing arrivals, a non-finite readiness or cutoff) are refused
//! with a [`SimError`] naming the stream.
//!
//! Two wrappers remain:
//!
//! * [`simulate_phases`] — a time-varying run in which each
//!   [`SimPhase`] swaps in its own compiled schedule at a phase
//!   boundary, charging a mapping spin-up window during which arriving
//!   frames are dropped (`npu-scenario`'s `Drive` timelines compile to
//!   this). Each phase runs in its own [`simulate`] call on an empty
//!   package, so an outgoing backlog never delays the incoming phase and
//!   segment latencies right after a switch are optimistic;
//! * [`simulate_with_stats`] — one [`SimConfig::phase`] stream reported
//!   as a [`SimReport`] and [`EngineStats`], kept only for the
//!   `e2ebench` harness.
//!
//! Recorded camera logs load through [`Arrivals::from_csv_str`] /
//! [`Arrivals::from_jsonl_str`] (string input only — callers do the
//! I/O), with malformed logs rejected via [`TraceError`].
//!
//! # Examples
//!
//! ```
//! use npu_dnn::PerceptionConfig;
//! use npu_maestro::FittedMaestro;
//! use npu_mcm::McmPackage;
//! use npu_pipesim::{simulate, SimConfig};
//! use npu_sched::{MatcherConfig, ThroughputMatcher};
//!
//! let pipeline = PerceptionConfig::default().build();
//! let pkg = McmPackage::simba_6x6();
//! let model = FittedMaestro::new();
//! let outcome = ThroughputMatcher::new(&model, MatcherConfig::default())
//!     .match_throughput(&pipeline, &pkg);
//! let cfg = SimConfig::saturated(20);
//! let streams = [cfg.phase(&outcome.schedule)];
//! let report = &simulate(&streams, &pkg, &model, cfg.dtype).unwrap()[0].report;
//! // The DES inter-departure interval reproduces the analytical pipe
//! // latency within a few percent.
//! let rel = (report.steady_interval.as_secs() / outcome.report.pipe.as_secs() - 1.0).abs();
//! assert!(rel < 0.1, "DES {} vs analytic {}", report.steady_interval, outcome.report.pipe);
//! ```

pub mod arrivals;
pub mod engine;
pub mod quantiles;
pub mod report;
pub mod trace;

pub use arrivals::{ArrivalSegment, Arrivals};
pub use engine::{
    simulate, simulate_phases, simulate_with_stats, EngineStats, PhaseReport, Readiness, SimConfig,
    SimError, SimPhase,
};
pub use quantiles::Quantiles;
pub use report::{LatencyQuantiles, SimReport};
pub use trace::TraceError;
