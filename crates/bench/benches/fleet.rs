//! Benchmarks of the multi-tenant fleet layer's hot paths: one
//! co-scheduled admission (partition compile + per-placement DES
//! verification), first-fit fleet packing onto one configuration and
//! onto a mixed pool (one loop, each trial shape that failed on a
//! configuration skipped there afterwards, each verified placement
//! served from the co-scheduler's memo), and a full preemption event
//! (two DES epochs + rematch accounting).
//! These bound what `repro fleet` pays per vehicle as fleets grow;
//! medians are recorded in `BENCH_fleet.json` — append one entry per PR
//! that touches the admission or preemption paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use npu_fleet::{
    os256_package, pack_fleet, pack_fleet_mixed, preemption_event, CoScheduler, FleetSpec,
    VehicleProfile,
};
use npu_maestro::{FittedMaestro, ReconfigModel};

fn bench(c: &mut Criterion) {
    let model = FittedMaestro::new();
    let catalog = VehicleProfile::catalog();
    let profile = |name: &str| catalog.iter().find(|p| p.name == name).expect("profile");

    // One admission: two best-effort miners on the paper's 6x6 geometry
    // (the pair the preemption demo starts from). Covers the D'Hondt
    // partition, two band matches and two single-tenant DES runs.
    let pair = vec![profile("mining").vehicle(1), profile("mining").vehicle(2)];
    c.bench_function("fleet_admit_pair_6x6", |b| {
        b.iter(|| {
            let mut sched = CoScheduler::new(os256_package(6, 6), &model).with_verify_frames(16);
            black_box(sched.admit(&pair).admitted())
        })
    });

    // First-fit packing of a 16-vehicle sampled fleet: the per-vehicle
    // instance probing that dominates `repro fleet`, failure-memoized.
    let fleet = FleetSpec::sample(16, 2025);
    c.bench_function("fleet_pack_16_vehicles_6x6", |b| {
        b.iter(|| {
            black_box(pack_fleet(&fleet.vehicles, &os256_package(6, 6), &model, 16).admitted())
        })
    });

    // The same fleet on a mixed 5x5 + 6x6 pool: the first-fit loop
    // over two cost-ordered configurations, one failure memo each.
    c.bench_function("fleet_pack_mixed_16_vehicles", |b| {
        b.iter(|| {
            black_box(pack_fleet_mixed(&fleet.vehicles, &[(6, 6), (5, 5)], &model, 16).admitted)
        })
    });

    // A preemption event end-to-end: epoch-1 DES, re-partition under
    // the safety arrival, per-tenant rematch costs, epoch-2 DES.
    let arriving = profile("av-cruise").vehicle(0);
    let reconfig = ReconfigModel::default();
    c.bench_function("fleet_preemption_event_8x6", |b| {
        b.iter(|| {
            let mut sched = CoScheduler::new(os256_package(8, 6), &model);
            black_box(
                preemption_event(&mut sched, &pair, &arriving, 6.0, 32, &reconfig)
                    .expect("partition exists")
                    .tenants
                    .len(),
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
