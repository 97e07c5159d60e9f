//! Cross-validation: the discrete-event simulator must reproduce the
//! analytical pipeline model on every schedule family the paper uses.

use npu_core::prelude::*;
use npu_mcm::McmPackage;

fn agreement(schedule: &Schedule, pkg: &McmPackage) -> (f64, Seconds, Seconds) {
    let model = FittedMaestro::new();
    let analytic = evaluate(schedule, pkg, &model, Dtype::Fp16);
    let cfg = npu_pipesim::SimConfig::saturated(16);
    let des = npu_pipesim::simulate(&[cfg.phase(schedule)], pkg, &model, cfg.dtype)
        .expect("a valid stream")
        .remove(0)
        .report;
    let rel = (des.steady_interval.as_secs() / analytic.pipe.as_secs() - 1.0).abs();
    (rel, des.steady_interval, analytic.pipe)
}

#[test]
fn matched_mcm_schedule_agrees() {
    let pipeline = PerceptionConfig::default().build();
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    let outcome =
        ThroughputMatcher::new(&model, MatcherConfig::default()).match_throughput(&pipeline, &pkg);
    let (rel, des, ana) = agreement(&outcome.schedule, &pkg);
    assert!(rel < 0.10, "DES {des} vs analytic {ana}");
}

#[test]
fn monolithic_baseline_agrees_exactly() {
    let pipeline = PerceptionConfig::default().build().bottleneck_stages();
    let pkg = McmPackage::monolithic_9216();
    let model = FittedMaestro::new();
    let schedule = baseline_schedule(&pipeline, &pkg, Pipelining::Stagewise, &model);
    let (rel, des, ana) = agreement(&schedule, &pkg);
    // A single chip serializes everything: the DES must match exactly.
    assert!(rel < 1e-9, "DES {des} vs analytic {ana}");
}

#[test]
fn quad_baseline_agrees() {
    let pipeline = PerceptionConfig::default().build().bottleneck_stages();
    let pkg = McmPackage::quad_2304();
    let model = FittedMaestro::new();
    let schedule = baseline_schedule(&pipeline, &pkg, Pipelining::Layerwise, &model);
    let (rel, des, ana) = agreement(&schedule, &pkg);
    assert!(rel < 0.10, "DES {des} vs analytic {ana}");
}

#[test]
fn dual_npu_schedule_agrees() {
    let pipeline = PerceptionConfig::default().build();
    let pkg = McmPackage::dual_npu_12x6();
    let model = FittedMaestro::new();
    let cfg = MatcherConfig {
        allow_fe_split: true,
        ..MatcherConfig::default()
    };
    let outcome = ThroughputMatcher::new(&model, cfg).minimize(&pipeline, &pkg);
    let (rel, des, ana) = agreement(&outcome.schedule, &pkg);
    assert!(rel < 0.12, "DES {des} vs analytic {ana}");
}

/// Every built-in scenario family: the saturated DES steady interval
/// must reproduce the analytic pipelining latency of that family's
/// matched schedule within 10% (ISSUE 3 acceptance).
#[test]
fn every_scenario_family_agrees_saturated() {
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    for scenario in Scenario::builtin() {
        let pipeline = scenario.workload();
        let outcome = ThroughputMatcher::new(&model, MatcherConfig::default())
            .match_throughput(&pipeline, &pkg);
        let (rel, des, ana) = agreement(&outcome.schedule, &pkg);
        assert!(
            rel < 0.10,
            "{}: DES {des} vs analytic {ana} ({:+.1}%)",
            scenario.name,
            rel * 100.0
        );
    }
}

/// Arrival-aware agreement across the whole scenario × package grid, at
/// both a serial and a parallel worker count: the DES interval under
/// each scenario's own arrival process must land within 10% of the
/// analytic prediction `max(pipe, mean arrival interval)`.
#[test]
fn scenario_sweep_agrees_at_any_worker_count() {
    let scenarios = Scenario::builtin();
    let packages = [McmPackage::simba_6x6(), McmPackage::dual_npu_12x6()];
    let model = FittedMaestro::new();
    for jobs in [1, 8] {
        let points = npu_par::with_jobs(jobs, || {
            scenario_sweep(
                &scenarios,
                &packages,
                &model,
                npu_core::scenario::SWEEP_FRAMES,
            )
        });
        assert_eq!(points.len(), scenarios.len() * packages.len());
        for p in &points {
            assert!(
                p.drift < 0.10,
                "--jobs {jobs}: {} on {}: DES {} vs predicted {} ({:+.1}%)",
                p.scenario,
                p.package,
                p.des_interval,
                p.predicted_interval,
                p.drift * 100.0
            );
        }
    }
}

#[test]
fn des_latency_always_at_least_critical_path() {
    let pipeline = PerceptionConfig::default().build();
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    let outcome =
        ThroughputMatcher::new(&model, MatcherConfig::default()).match_throughput(&pipeline, &pkg);
    let cfg = npu_pipesim::SimConfig::saturated(16);
    let des = npu_pipesim::simulate(&[cfg.phase(&outcome.schedule)], &pkg, &model, cfg.dtype)
        .expect("a valid stream")
        .remove(0)
        .report;
    // Per-frame latency can never beat the dependency critical path.
    assert!(des.mean_latency.as_secs() >= outcome.report.e2e.as_secs() * 0.8);
}
