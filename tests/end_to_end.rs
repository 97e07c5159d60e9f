//! End-to-end integration: build the workload, schedule it, evaluate it,
//! simulate it — across every crate of the workspace.

use npu_core::prelude::*;

#[test]
fn full_pipeline_on_simba_6x6() {
    let platform = Platform::simba_6x6();
    let pipeline = PerceptionConfig::default().build();
    let outcome = platform.schedule_perception(&pipeline);

    // Paper §V-A: the 6x6 solution reaches ~87 ms pipelining latency.
    assert!(
        (80.0..95.0).contains(&outcome.report.pipe.as_millis()),
        "pipe {}",
        outcome.report.pipe
    );
    // All four stages are within ~12% of the FE base.
    let base = outcome
        .report
        .stage(StageKind::FeatureExtraction)
        .unwrap()
        .pipe;
    for s in &outcome.report.per_stage {
        assert!(
            s.pipe.as_secs() <= base.as_secs() * 1.12,
            "{}: {} vs base {}",
            s.kind,
            s.pipe,
            base
        );
    }
    // The chiplet budget is respected.
    assert!(outcome.schedule.chiplets_used().len() <= platform.package().len());
}

#[test]
fn schedule_survives_serde_round_trip() {
    let platform = Platform::simba_6x6();
    let outcome = platform.schedule_default_perception();
    let json = serde_json::to_string(&outcome.schedule).expect("serialize");
    let back: Schedule = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, outcome.schedule);
    // Shared names and graphs write the same JSON back.
    assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
    // The deserialized schedule evaluates identically.
    let r = platform.evaluate(&back);
    assert_eq!(r.pipe, outcome.report.pipe);
}

#[test]
fn camera_feed_at_ten_fps_is_stable() {
    let platform = Platform::simba_6x6();
    let outcome = platform.schedule_default_perception();
    let sim = platform.simulate_camera_feed(&outcome.schedule, 16, 10.0);
    // Arrival-limited: interval = 100 ms, latency bounded (no queue blowup).
    assert!((sim.steady_interval.as_millis() - 100.0).abs() < 1.0);
    assert!(sim.max_latency.as_millis() < 3.0 * outcome.report.e2e.as_millis());
}

#[test]
fn custom_workload_with_fewer_cameras() {
    // A 4-camera variant still schedules and pipelines.
    let mut cfg = PerceptionConfig {
        cameras: 4,
        ..PerceptionConfig::default()
    };
    cfg.s_fuse.proj_tokens = 4 * 1600;
    let pipeline = cfg.build();
    assert_eq!(pipeline.stage(StageKind::FeatureExtraction).replicas(), 4);

    let platform = Platform::simba_6x6();
    let outcome = platform.schedule_perception(&pipeline);
    assert!(outcome.report.pipe.as_millis() < 100.0);
}
