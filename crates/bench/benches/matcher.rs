//! Benchmarks Algorithm 1, the throughput matcher, in four shapes: base
//! matching on the paper's 6x6 package (Figs. 5-8), a scenario match on
//! a large uniform OS-256 mesh (one `Study` grid point of the scenario
//! DSE), the minimizing mode on the two-NPU 12x6 package (Fig. 10), and
//! the fleet co-scheduler's schedule-only band match of a fleet vehicle
//! on a two-column OS-256 band. Every iteration builds a fresh matcher,
//! as a real match does. Medians seed `BENCH_matcher.json`; append one entry per PR that
//! touches the matcher or `evaluate`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use npu_dnn::PerceptionConfig;
use npu_fleet::{os256_package, VehicleProfile};
use npu_maestro::FittedMaestro;
use npu_mcm::McmPackage;
use npu_scenario::{match_scenario, Scenario};
use npu_sched::{MatcherConfig, ThroughputMatcher};

fn bench(c: &mut Criterion) {
    let model = FittedMaestro::new();
    let pipeline = PerceptionConfig::default().build();

    let simba = McmPackage::simba_6x6();
    c.bench_function("matcher/match_throughput_simba_6x6", |b| {
        b.iter(|| {
            let matcher = ThroughputMatcher::new(&model, MatcherConfig::default());
            black_box(matcher.match_throughput(&pipeline, &simba).report.pipe)
        })
    });

    // Urban-dense adds a detector head, so every stage has work to shard.
    let urban = Scenario::builtin()
        .into_iter()
        .find(|s| s.name == "urban-dense")
        .expect("builtin urban-dense scenario");
    let mesh = os256_package(12, 8);
    c.bench_function("matcher/match_scenario_os256_12x8", |b| {
        b.iter(|| black_box(match_scenario(&urban, &mesh, &model).report.pipe))
    });

    let dual = McmPackage::dual_npu_12x6();
    let cfg = MatcherConfig {
        allow_fe_split: true,
        ..MatcherConfig::default()
    };
    c.bench_function("matcher/minimize_dual_npu_12x6", |b| {
        b.iter(|| {
            let matcher = ThroughputMatcher::new(&model, cfg.clone());
            black_box(matcher.minimize(&pipeline, &dual).report.pipe)
        })
    });

    // The fleet's most common vehicle on a two-column band of the 6-high
    // fleet meshes, matched the way `CoScheduler` matches a band.
    let cruise = VehicleProfile::catalog()
        .into_iter()
        .find(|p| p.name == "av-cruise")
        .expect("catalog av-cruise profile")
        .vehicle(0)
        .scenario
        .workload();
    let band = os256_package(2, 6);
    c.bench_function("matcher/band_match_os256_2x6", |b| {
        b.iter(|| {
            let matcher = ThroughputMatcher::new(&model, cfg.clone());
            black_box(matcher.match_schedule(&cruise, &band).1)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
