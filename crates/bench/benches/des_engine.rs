//! Benchmarks the discrete-event engine hot path at fleet-day scale:
//! a long saturated run (pure engine throughput, no arrival gaps), a
//! matched perception schedule under its own overloaded camera arrivals
//! (hundreds of items, hundreds of frames in flight) and a long drive
//! timeline (phased engine + matcher, the shape `repro drive` and the
//! planned fleet artifact pay per vehicle), plus the event calendar's
//! worst case: a saturated schedule replicated across a 96-chiplet
//! package, whose chiplets finish in lockstep so every new completion
//! lands far behind the earliest pending one, and four tenants on
//! disjoint column bands in one `simulate` call, which the
//! engine runs as four passes of one stream each. Medians seed
//! `BENCH_des_engine.json`; append one entry per PR that touches the
//! engine hot path so regressions stay visible PR-over-PR.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use npu_dnn::models::attention::{fusion_block, FusionConfig};
use npu_dnn::StageKind;
use npu_fleet::os256_package;
use npu_maestro::{FittedMaestro, ReconfigModel};
use npu_mcm::{ChipletId, McmPackage};
use npu_pipesim::{simulate, Readiness, SimConfig, SimPhase};
use npu_scenario::{match_scenario, simulate_drive, Drive, Scenario};
use npu_sched::{LayerPlan, ModelPlan, Schedule, StagePlan};
use npu_tensor::{Dtype, Seconds};

/// Frames in the saturated case: enough that per-frame costs dominate
/// setup, small enough that one sample stays sub-second.
const SATURATED_FRAMES: usize = 100_000;

/// Seconds per segment of the long drive: 240 s of 30 FPS video per leg
/// (7 200 frames), three legs — a million-frame day is 120 of these.
const SEGMENT_SECS: f64 = 240.0;

/// Frames in the matched case: 240 s of 30 FPS video.
const MATCHED_FRAMES: usize = 7_200;

/// Frames in the replicated lockstep case.
const LOCKSTEP_FRAMES: usize = 2_000;

/// Frames per tenant in the disjoint-tenants case.
const TENANT_FRAMES: usize = 20_000;

/// A two-chiplet pipelined schedule: qkv on chiplet 0, the rest of the
/// fusion block on chiplet 1, so more than one frame is in flight.
fn pipelined_schedule() -> Schedule {
    let g = fusion_block(&FusionConfig::spatial_default());
    let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(1));
    let qkv = g.find("s_fuse.qkv").expect("fusion block has a qkv layer");
    *mp.layer_plan_mut(qkv) = LayerPlan::single(g.layer(qkv).clone(), ChipletId(0));
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: vec![ChipletId(0), ChipletId(1)],
        }],
    }
}

/// One fusion-block model per chiplet of `pkg`, all in one stage: every
/// chiplet runs the same chain, so with saturated arrivals all of them
/// complete each layer at the same instant.
fn replicated_schedule(pkg: &McmPackage) -> Schedule {
    let g = fusion_block(&FusionConfig::spatial_default());
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: pkg
                .ids()
                .map(|c| ModelPlan::on_single_chiplet(format!("s{}", c.0), g.clone(), c))
                .collect(),
            region: pkg.ids().collect(),
        }],
    }
}

/// The fusion block with its layers dealt round-robin over column
/// `col` of the 6×6 mesh: one tenant's one-column band.
fn band_schedule(col: u32) -> Schedule {
    let g = fusion_block(&FusionConfig::spatial_default());
    let band: Vec<ChipletId> = (0..6).map(|y| ChipletId(y * 6 + col)).collect();
    let mut mp = ModelPlan::on_single_chiplet(format!("t{col}"), g.clone(), band[0]);
    for (i, (id, layer)) in g.iter().enumerate() {
        *mp.layer_plan_mut(id) = LayerPlan::single(layer.clone(), band[i % band.len()]);
    }
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: band,
        }],
    }
}

/// The cruise → urban → degraded timeline stretched to `SEGMENT_SECS`
/// per leg, long enough that the phased DES dominates the per-segment
/// matching.
fn long_drive() -> Drive {
    Drive::cruise_urban_degraded_scaled(Seconds::new(SEGMENT_SECS))
}

fn bench(c: &mut Criterion) {
    let model = FittedMaestro::new();
    let pkg = McmPackage::simba_6x6();

    let mut g = c.benchmark_group("des_engine");
    g.sample_size(10);

    // Pure engine throughput: every frame at t = 0, the pipeline always
    // busy — the per-frame event-calendar cost with zero arrival slack.
    let schedule = pipelined_schedule();
    let cfg = SimConfig::saturated(SATURATED_FRAMES);
    g.bench_function("saturated_100k", |b| {
        b.iter(|| black_box(simulate(&[cfg.phase(&schedule)], &pkg, &model, cfg.dtype)))
    });

    // The real hot path: the matched highway-cruise schedule (721 items
    // over most of the package) at its own 30 FPS arrivals. The package
    // sustains about 11 FPS, so the backlog grows to hundreds of frames
    // in flight and every chiplet queue stays busy.
    let cruise = Scenario::builtin()
        .into_iter()
        .find(|s| s.name == "highway-cruise")
        .expect("highway-cruise is a builtin family");
    let matched = match_scenario(&cruise, &pkg, &model).schedule;
    let cfg = cruise.sim_config(MATCHED_FRAMES);
    g.bench_function("matched_30fps_6x6", |b| {
        b.iter(|| black_box(simulate(&[cfg.phase(&matched)], &pkg, &model, cfg.dtype)))
    });

    // The long-drive case the acceptance bar tracks: three 240 s legs
    // (~21 600 frames), two priced re-matches, phased DES end to end.
    let drive = long_drive();
    g.bench_function("drive_3x240s_6x6", |b| {
        b.iter(|| {
            black_box(simulate_drive(
                &drive,
                &pkg,
                &model,
                &ReconfigModel::default(),
            ))
        })
    });

    // The calendar's worst case: ~96 pending completions, each new one
    // landing behind most of them instead of near the earliest end.
    let mesh = os256_package(12, 8);
    let replicated = replicated_schedule(&mesh);
    let cfg = SimConfig::saturated(LOCKSTEP_FRAMES);
    g.bench_function("replicated_lockstep_12x8", |b| {
        b.iter(|| {
            black_box(simulate(
                &[cfg.phase(&replicated)],
                &mesh,
                &model,
                cfg.dtype,
            ))
        })
    });

    // Four tenants on disjoint one-column bands, saturated, in one
    // `simulate` call: what fleet admission and preemption
    // epochs pay, at a frame count where the engine dominates.
    let bands: Vec<Schedule> = (0..4).map(band_schedule).collect();
    let times = SimConfig::saturated(TENANT_FRAMES)
        .arrivals
        .times(TENANT_FRAMES);
    let tenants: Vec<SimPhase<'_>> = bands
        .iter()
        .map(|s| SimPhase::new(s, times.clone(), Readiness::Barrier(0.0)))
        .collect();
    g.bench_function("disjoint_tenants_6x6", |b| {
        b.iter(|| black_box(simulate(&tenants, &pkg, &model, Dtype::Fp16)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
