//! Declarative driving scenarios for the multi-chiplet NPU stack.
//!
//! The paper evaluates one fixed workload: an 8-camera saturated
//! perception pipeline. Its conclusions — chiplet-count knees, NoC
//! contention, throughput matching — only matter if they hold across the
//! workload envelope a real AV fleet sees. This crate models that
//! envelope declaratively:
//!
//! * [`CameraRig`] — camera count, per-camera resolution, frame rate;
//! * [`OperatingMode`] — highway cruise, dense urban, degraded camera
//!   dropout, burst re-localization, drive-log trace replay;
//! * [`Scenario`] — a named (rig, mode) pair that compiles into a
//!   `PerceptionConfig` for the analytic scheduler (`npu-sched`) **and**
//!   a `SimConfig` arrival process for the discrete-event simulator
//!   (`npu-pipesim`), so both sides of the cross-validation stack see
//!   exactly the same workload;
//! * [`scenario_sweep`] — the scenario × package grid runner, fanned out
//!   on the `npu-par` worker pool with deterministic,
//!   input-ordered results;
//! * [`Drive`] — an ordered timeline of `(Scenario, duration)` segments
//!   compiled into **one** continuous phased DES run: every mode switch
//!   re-matches the package (priced by `npu_sched::rematch`), and frames
//!   arriving inside the spin-up window are dropped and accounted
//!   ([`simulate_drive`], [`drive_sweep`]).
//!
//! # Examples
//!
//! ```
//! use npu_maestro::FittedMaestro;
//! use npu_mcm::McmPackage;
//! use npu_scenario::{scenario_sweep, Scenario};
//!
//! let scenarios = Scenario::builtin();
//! assert!(scenarios.len() >= 6);
//! let packages = [McmPackage::simba_6x6()];
//! let model = FittedMaestro::new();
//! let points = scenario_sweep(&scenarios[..1], &packages, &model, 12);
//! // The DES steady interval tracks the analytic prediction.
//! assert!(points[0].drift < 0.10, "drift {}", points[0].drift);
//! ```

pub mod drive;
pub mod rig;
pub mod scenario;
pub mod sweep;

/// The built workload type [`Scenario::workload`] returns, re-exported so
/// crates above this one can name it without depending on `npu-dnn`.
pub use npu_dnn::PerceptionPipeline;

pub use drive::{
    drive_sweep, simulate_drive, Drive, DriveOutcome, DriveSegment, SegmentReport, TransitionReport,
};
pub use rig::CameraRig;
pub use scenario::{OperatingMode, Scenario};
pub use sweep::{
    evaluate_point, match_scenario, scenario_sweep, ScenarioPoint, SWEEP_FRAMES, TAIL_SWEEP_FRAMES,
};
