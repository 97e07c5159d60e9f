//! Scenario workbench: the built-in driving-scenario families evaluated
//! on the single- and dual-NPU packages.
//!
//! Each grid point runs the full stack — compile the scenario to a
//! workload, match it with Algorithm 1, evaluate analytically, then
//! drive the discrete-event simulator with the scenario's own arrival
//! process — and reports the DES-vs-predicted steady-interval agreement.
//! This is the workload-envelope extension of the paper's single
//! steady-state evaluation (ISSUE 3).

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_maestro::FittedMaestro;
use npu_mcm::McmPackage;
use npu_scenario::{scenario_sweep, Scenario, ScenarioPoint, SWEEP_FRAMES};

use crate::text::{ms, TextTable};

/// The scenario × package grid results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGrid {
    /// Frames simulated per point.
    pub frames: usize,
    /// One row per (scenario, package) pair, scenario-major.
    pub points: Vec<ScenarioPoint>,
}

impl ScenarioGrid {
    /// Points of one scenario family across all packages.
    pub fn family(&self, name: &str) -> Vec<&ScenarioPoint> {
        self.points.iter().filter(|p| p.scenario == name).collect()
    }
}

/// Runs the built-in scenario families on the paper's 6×6 single-NPU
/// package and the 12×6 dual-NPU package.
pub fn run() -> ScenarioGrid {
    let scenarios = Scenario::builtin();
    let packages = [McmPackage::simba_6x6(), McmPackage::dual_npu_12x6()];
    let model = FittedMaestro::new();
    ScenarioGrid {
        frames: SWEEP_FRAMES,
        points: scenario_sweep(&scenarios, &packages, &model, SWEEP_FRAMES),
    }
}

impl fmt::Display for ScenarioGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            format!(
                "Scenario workbench - built-in families x packages ({} DES frames)",
                self.frames
            ),
            &[
                "scenario", "package", "cams", "Pipe[ms]", "Pred[ms]", "DES[ms]", "drift[%]",
                "Lat[ms]", "p99[ms]", "FPS", "Util[%]",
            ],
        );
        for p in &self.points {
            t.row(vec![
                p.scenario.clone(),
                p.package.clone(),
                p.cameras.to_string(),
                ms(p.pipe),
                ms(p.predicted_interval),
                ms(p.des_interval),
                format!("{:+.2}", p.drift * 100.0),
                ms(p.mean_latency),
                ms(p.tails.p99),
                format!("{:.1}", p.throughput_fps),
                format!("{:.1}", p.utilization * 100.0),
            ]);
        }
        t.note(
            "Pred = max(analytic pipe, mean arrival interval): compute-bound \
             families track the pipe, arrival-bound ones the camera rate",
        );
        t.note(
            "drift = |DES / Pred - 1|; the cross-validation suite pins \
             every family within 10% on the 6x6 package",
        );
        t.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_family_on_both_packages() {
        let g = run();
        let families = Scenario::builtin();
        assert_eq!(g.points.len(), families.len() * 2);
        for s in &families {
            assert_eq!(g.family(&s.name).len(), 2, "{}", s.name);
        }
    }

    #[test]
    fn renders_a_row_per_point() {
        let g = run();
        let text = g.to_string();
        assert!(text.contains("Scenario workbench"));
        assert!(text.contains("highway-cruise"));
        assert!(text.contains("burst-relocalization"));
    }
}
