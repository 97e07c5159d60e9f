//! `mcm-npu` — a multi-chiplet NPU performance simulator for
//! autonomous-driving perception workloads.
//!
//! This is the facade crate of the workspace reproducing *"Performance
//! Implications of Multi-Chiplet Neural Processing Units on Autonomous
//! Driving Perception"* (DATE 2025). It re-exports the component crates
//! and offers [`Platform`], a one-stop API that wires a package, a cost
//! model and the Tesla-Autopilot-style perception workload together.
//!
//! # Quick start
//!
//! ```
//! use npu_core::Platform;
//!
//! // The paper's NPU: a Simba-like 6x6 mesh of 256-PE OS chiplets.
//! let platform = Platform::simba_6x6();
//! let outcome = platform.schedule_default_perception();
//! // Algorithm 1 sustains ~11-12 FPS (pipe latency ~85-90 ms).
//! assert!(outcome.report.throughput_fps() > 10.0);
//! ```
//!
//! # Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | `npu-tensor` | unit newtypes, datatypes, shapes, [`float`] total-order helpers |
//! | `npu-dnn` | layer IR, graphs, the perception model zoo |
//! | `npu-maestro` | per-layer dataflow cost models (OS / WS) |
//! | [`noc`] | Network-on-Package mesh & transfer costs |
//! | `npu-mcm` | chiplet package presets & heterogeneity |
//! | [`sched`] | sharding, Algorithm 1, baselines, trunk DSE |
//! | `npu-pipesim` | discrete-event validation simulator |
//! | [`scenario`] | driving scenarios & drive timelines: rigs, modes, mode switching |
//! | `npu-study` | unified sweep/DSE query surface (axes, grids, objectives) |
//! | [`fleet`] | multi-tenant co-scheduling, admission control, fleet-scale DSE |
//! | [`experiments`] | every paper table & figure, regenerated |
//! | `npu-par` | scoped-thread parallel sweep executor (`par_map`) |
//!
//! The linked crates are re-exported as modules of this facade; the
//! [`prelude`] gathers the items of the others that the examples use.

pub use npu_experiments as experiments;
pub use npu_fleet as fleet;
pub use npu_noc as noc;
pub use npu_scenario as scenario;
pub use npu_sched as sched;
pub use npu_tensor::float;

/// Commonly used items in one import.
pub mod prelude {
    pub use npu_dnn::{PerceptionConfig, StageKind};
    pub use npu_maestro::{FittedMaestro, ReconfigModel};
    pub use npu_mcm::McmPackage;
    pub use npu_scenario::{
        scenario_sweep, simulate_drive, CameraRig, Drive, DriveSegment, OperatingMode, Scenario,
    };
    pub use npu_sched::{
        baseline_schedule, evaluate, MatcherConfig, Pipelining, Schedule, ThroughputMatcher,
    };
    pub use npu_tensor::{Dtype, Seconds};

    pub use crate::Platform;
}

use npu_dnn::{PerceptionConfig, PerceptionPipeline};
use npu_maestro::FittedMaestro;
use npu_mcm::McmPackage;
use npu_pipesim::{simulate, SimConfig, SimReport};
use npu_sched::{evaluate, EvalReport, MatchOutcome, MatcherConfig, Schedule, ThroughputMatcher};
use npu_tensor::Dtype;

/// A ready-to-use simulation platform: package + calibrated cost model.
///
/// # Examples
///
/// ```
/// use npu_core::Platform;
/// use npu_core::prelude::PerceptionConfig;
///
/// let p = Platform::simba_6x6();
/// let pipeline = PerceptionConfig::default().build();
/// let outcome = p.schedule_perception(&pipeline);
/// let des = p.simulate(&outcome.schedule, 12);
/// let drift =
///     (des.steady_interval.as_secs() / outcome.report.pipe.as_secs() - 1.0).abs();
/// assert!(drift < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    package: McmPackage,
    model: FittedMaestro,
    matcher_cfg: MatcherConfig,
}

impl Platform {
    /// A platform over any package with the paper-calibrated cost model.
    pub fn new(package: McmPackage) -> Self {
        Platform {
            package,
            model: FittedMaestro::new(),
            matcher_cfg: MatcherConfig::default(),
        }
    }

    /// The paper's NPU: 36 × 256-PE OS chiplets (9,216 PEs, as the Tesla
    /// FSD NPU).
    pub fn simba_6x6() -> Self {
        Platform::new(McmPackage::simba_6x6())
    }

    /// The two-NPU platform of the paper's §V-B scaling study.
    pub fn dual_npu() -> Self {
        let mut p = Platform::new(McmPackage::dual_npu_12x6());
        p.matcher_cfg.allow_fe_split = true;
        p
    }

    /// The underlying package.
    pub fn package(&self) -> &McmPackage {
        &self.package
    }

    /// Runs Algorithm 1 on a perception pipeline.
    pub fn schedule_perception(&self, pipeline: &PerceptionPipeline) -> MatchOutcome {
        ThroughputMatcher::new(&self.model, self.matcher_cfg.clone())
            .match_throughput(pipeline, &self.package)
    }

    /// Runs the minimizing matcher (keeps sharding while spare chiplets
    /// remain — the two-NPU mode).
    pub fn schedule_minimized(&self, pipeline: &PerceptionPipeline) -> MatchOutcome {
        ThroughputMatcher::new(&self.model, self.matcher_cfg.clone())
            .minimize(pipeline, &self.package)
    }

    /// Schedules the default (paper-calibrated) perception pipeline.
    pub fn schedule_default_perception(&self) -> MatchOutcome {
        self.schedule_perception(&PerceptionConfig::default().build())
    }

    /// Evaluates an arbitrary schedule analytically.
    pub fn evaluate(&self, schedule: &Schedule) -> EvalReport {
        evaluate(schedule, &self.package, &self.model, Dtype::Fp16)
    }

    /// Validates a schedule in the discrete-event simulator (saturation
    /// mode over `frames` frames).
    pub fn simulate(&self, schedule: &Schedule, frames: usize) -> SimReport {
        simulate(
            schedule,
            &self.package,
            &self.model,
            &SimConfig::saturated(frames),
        )
    }

    /// Simulates frame arrivals from the 8-camera source at `fps`.
    pub fn simulate_camera_feed(&self, schedule: &Schedule, frames: usize, fps: f64) -> SimReport {
        simulate(
            schedule,
            &self.package,
            &self.model,
            &SimConfig::camera(frames, fps),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_round_trip() {
        let p = Platform::simba_6x6();
        let outcome = p.schedule_default_perception();
        let report = p.evaluate(&outcome.schedule);
        assert!((report.pipe.as_secs() - outcome.report.pipe.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn dual_npu_platform_allows_fe_split() {
        let p = Platform::dual_npu();
        assert_eq!(p.package().len(), 72);
        assert!(p.matcher_cfg.allow_fe_split);
    }
}
