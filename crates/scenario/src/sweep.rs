//! The scenario × package sweep runner.
//!
//! Every grid point is an independent schedule-simulate-and-score run:
//! build the scenario's workload, match it onto the package with
//! Algorithm 1, evaluate analytically, then drive the discrete-event
//! simulator with the scenario's own arrival process and compare the
//! measured steady interval against the analytic prediction. The grid
//! is a scenario × package [`Study`]: points fan out
//! on the `npu-par` worker pool, each calling the caller's
//! deterministic cost model directly; results come back in input order
//! and are bit-identical to a serial run at any jobs count.

use serde::{Deserialize, Serialize};

use npu_maestro::CostModel;
use npu_mcm::McmPackage;
use npu_pipesim::{simulate, LatencyQuantiles};
use npu_sched::{MatcherConfig, ThroughputMatcher};
use npu_study::{Axis, Grid, Percentile, Study, TailLatency};
use npu_tensor::{Joules, Seconds};

use crate::scenario::Scenario;

/// One evaluated (scenario, package) grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPoint {
    /// Scenario family name.
    pub scenario: String,
    /// Package name.
    pub package: String,
    /// Chiplets in the package.
    pub chiplets: u64,
    /// Cameras actively feeding the pipeline.
    pub cameras: u64,
    /// Analytic matched pipelining latency.
    pub pipe: Seconds,
    /// Predicted steady interval: `max(pipe, mean arrival interval)`.
    pub predicted_interval: Seconds,
    /// DES-measured steady interval under the scenario's arrivals.
    pub des_interval: Seconds,
    /// Relative DES-vs-predicted disagreement (`|des/predicted - 1|`).
    pub drift: f64,
    /// DES mean per-frame latency (arrival → completion).
    pub mean_latency: Seconds,
    /// DES worst per-frame latency.
    pub max_latency: Seconds,
    /// DES tail percentiles (p50/p95/p99/p99.9) of the steady-state
    /// latency stream.
    pub tails: LatencyQuantiles,
    /// Sustained throughput under the scenario's arrivals.
    pub throughput_fps: f64,
    /// Analytic energy per frame.
    pub energy: Joules,
    /// Analytic PE utilization over used chiplets.
    pub utilization: f64,
}

impl TailLatency for ScenarioPoint {
    /// Exposes the DES tails to `npu_study`'s percentile-targeted
    /// constraints (`Constraint::tail_at_most`) and objectives.
    fn tail_latency(&self, p: Percentile) -> f64 {
        match p {
            Percentile::P50 => self.tails.p50,
            Percentile::P95 => self.tails.p95,
            Percentile::P99 => self.tails.p99,
            Percentile::P999 => self.tails.p999,
        }
        .as_secs()
    }
}

/// Frames the DES pushes through each grid point. Long enough that the
/// trimmed steady-state window spans several bursts/trace cycles of the
/// built-in families. The golden artifacts are pinned at this length;
/// tail-resolving contexts use [`TAIL_SWEEP_FRAMES`] instead.
pub const SWEEP_FRAMES: usize = 24;

/// Frames for percentile-resolving sweeps: with the ISSUE 8 engine a
/// long window is cheap, and 512 frames (the exact capacity of the
/// `Quantiles` sketch) gives p99 a real rank — 16 measured frames
/// collapse every upper tail onto the window maximum.
pub const TAIL_SWEEP_FRAMES: usize = 512;

/// Evaluates every scenario on every package.
///
/// The grid fans out via [`npu_par::par_map`]; pin the worker count
/// with [`npu_par::with_jobs`] to reproduce a serial run bit-for-bit.
pub fn scenario_sweep(
    scenarios: &[Scenario],
    packages: &[McmPackage],
    model: &dyn CostModel,
    frames: usize,
) -> Vec<ScenarioPoint> {
    let grid = Grid::of(Axis::new("scenario", scenarios.to_vec()))
        .cross(Axis::new("package", packages.to_vec()));
    Study::new("scenario-grid", grid, model)
        .run(|(scenario, pkg), model| evaluate_point(scenario, pkg, model, frames))
        .into_metrics()
}

/// Matches a scenario's workload onto a package with Algorithm 1 — the
/// shared compilation step of the scenario sweep and the drive timeline
/// runner, so a drive segment's schedule is **the** schedule the
/// standalone sweep would produce for the same (scenario, package) pair.
///
/// FE splitting is enabled on every package (as in
/// `npu_sched::sweep::chiplet_count_sweep`): the matching mode only
/// splits FE when a stage cannot otherwise reach the base latency, so
/// single-NPU packages schedule identically with or without it.
pub fn match_scenario(
    scenario: &Scenario,
    pkg: &McmPackage,
    model: &dyn CostModel,
) -> npu_sched::MatchOutcome {
    let cfg = MatcherConfig {
        allow_fe_split: true,
        ..MatcherConfig::default()
    };
    ThroughputMatcher::new(model, cfg).match_throughput(&scenario.workload(), pkg)
}

/// Schedules, evaluates and simulates one grid point.
pub fn evaluate_point(
    scenario: &Scenario,
    pkg: &McmPackage,
    model: &dyn CostModel,
    frames: usize,
) -> ScenarioPoint {
    let outcome = match_scenario(scenario, pkg, model);
    let predicted = scenario.predicted_interval(outcome.report.pipe);
    let cfg = scenario.sim_config(frames);
    let des = simulate(&[cfg.phase(&outcome.schedule)], pkg, model, cfg.dtype)
        .expect("a matched schedule under scenario arrivals is a valid stream")
        .remove(0)
        .report;
    ScenarioPoint {
        scenario: scenario.name.clone(),
        package: pkg.name().to_string(),
        chiplets: pkg.len() as u64,
        cameras: scenario.active_cameras(),
        pipe: outcome.report.pipe,
        predicted_interval: predicted,
        des_interval: des.steady_interval,
        drift: (des.steady_interval.as_secs() / predicted.as_secs() - 1.0).abs(),
        mean_latency: des.mean_latency,
        max_latency: des.max_latency,
        tails: des.tails,
        throughput_fps: des.throughput_fps,
        energy: outcome.report.energy(),
        utilization: outcome.report.utilization_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_maestro::FittedMaestro;

    #[test]
    fn sweep_covers_the_cross_product_in_order() {
        let scenarios = &Scenario::builtin()[..2];
        let packages = [McmPackage::simba_6x6(), McmPackage::quad_2304()];
        let model = FittedMaestro::new();
        let points = scenario_sweep(scenarios, &packages, &model, 8);
        assert_eq!(points.len(), 4);
        // Input order: scenario-major, package-minor.
        assert_eq!(points[0].scenario, scenarios[0].name);
        assert_eq!(points[0].package, packages[0].name());
        assert_eq!(points[1].package, packages[1].name());
        assert_eq!(points[2].scenario, scenarios[1].name);
    }

    #[test]
    fn every_point_is_finite_and_positive() {
        let scenarios = Scenario::builtin();
        let packages = [McmPackage::simba_6x6()];
        let model = FittedMaestro::new();
        for p in scenario_sweep(&scenarios, &packages, &model, 8) {
            assert!(p.pipe.as_secs() > 0.0, "{}: pipe", p.scenario);
            assert!(p.des_interval.as_secs() > 0.0, "{}: DES", p.scenario);
            assert!(p.drift.is_finite(), "{}: drift", p.scenario);
            assert!(p.mean_latency.as_secs() > 0.0, "{}: latency", p.scenario);
            assert!(
                p.utilization > 0.0 && p.utilization <= 1.0,
                "{}",
                p.scenario
            );
            // Tails are ordered and bracketed by the window extremes.
            assert!(p.tails.p50 > Seconds::ZERO, "{}: p50", p.scenario);
            assert!(p.tails.p50 <= p.tails.p95, "{}", p.scenario);
            assert!(p.tails.p95 <= p.tails.p99, "{}", p.scenario);
            assert!(p.tails.p99 <= p.tails.p999, "{}", p.scenario);
            assert!(p.tails.p999 <= p.max_latency, "{}", p.scenario);
            // And the TailLatency view is the same numbers in seconds.
            assert_eq!(
                p.tail_latency(Percentile::P99).to_bits(),
                p.tails.p99.as_secs().to_bits(),
                "{}",
                p.scenario
            );
        }
    }
}
