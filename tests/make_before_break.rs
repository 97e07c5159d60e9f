//! Make-before-break regression pins (ISSUE 10).
//!
//! Two contracts keep the per-chiplet readiness model honest:
//!
//! * a transition that re-programs **every** chiplet out of a busy
//!   package degenerates to the old single-`ready_at` barrier —
//!   bit-identically, for every built-in scenario family, at any worker
//!   count;
//! * a per-chiplet readiness schedule never drops more frames than the
//!   package-wide barrier raised at its last ready instant.

use std::sync::OnceLock;

use proptest::prelude::*;

use npu_maestro::{FittedMaestro, ReconfigModel};
use npu_mcm::{ChipletId, McmPackage};
use npu_pipesim::{simulate_phases, PhaseReport, Readiness, SimPhase};
use npu_scenario::{match_scenario, Scenario};
use npu_sched::{rematch_cost_against, Schedule};
use npu_tensor::Dtype;

/// Diffing any built-in family's schedule against an empty outgoing
/// mapping with its whole footprint marked occupied is a full-barrier
/// transition; simulating it through `Readiness::make_before_break`
/// must reproduce the explicit scalar barrier to the bit, serial and
/// parallel.
#[test]
fn full_reprogram_reproduces_the_barrier_bit_for_bit() {
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    let reconfig = ReconfigModel::default();
    let empty = Schedule { stages: Vec::new() };
    let at = 1.0;
    let families = Scenario::builtin();
    assert_eq!(families.len(), 7, "the pin covers every built-in family");
    let run_families = || -> Vec<PhaseReport> {
        families
            .iter()
            .map(|scenario| {
                let outcome = match_scenario(scenario, &pkg, &model);
                let occupied = outcome.schedule.chiplets_used();
                let cost = rematch_cost_against(
                    &empty,
                    &outcome.schedule,
                    &occupied,
                    &reconfig,
                    Dtype::Fp16,
                );
                assert!(cost.is_full_barrier(), "{}", scenario.name);
                assert_eq!(cost.stalled(), cost.reprogrammed.len());
                assert_eq!(
                    cost.stall_window().as_secs().to_bits(),
                    cost.latency.as_secs().to_bits(),
                    "{}: the staged schedule must land exactly on the scalar",
                    scenario.name
                );
                let times: Vec<f64> = scenario
                    .arrivals()
                    .times(24)
                    .iter()
                    .map(|t| at + t)
                    .collect();
                let run = |readiness: Readiness| {
                    simulate_phases(
                        &[SimPhase::new(&outcome.schedule, times.clone(), readiness)],
                        &pkg,
                        &model,
                        Dtype::Fp16,
                    )
                    .remove(0)
                };
                let mbb = run(Readiness::make_before_break(&cost, at));
                let barrier = run(Readiness::Barrier(at + cost.latency.as_secs()));
                assert_eq!(mbb, barrier, "{}", scenario.name);
                assert_eq!(
                    mbb.admitted_from.to_bits(),
                    barrier.admitted_from.to_bits(),
                    "{}",
                    scenario.name
                );
                mbb
            })
            .collect()
    };
    let serial = npu_par::with_jobs(1, run_families);
    let parallel = npu_par::with_jobs(8, run_families);
    assert_eq!(serial, parallel, "worker count must not move a bit");
}

/// One matched schedule, compiled once and shared across proptest cases.
fn fixture() -> &'static (McmPackage, FittedMaestro, Schedule, Vec<ChipletId>) {
    static FIXTURE: OnceLock<(McmPackage, FittedMaestro, Schedule, Vec<ChipletId>)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let scenario = Scenario::builtin().remove(0);
        let schedule = match_scenario(&scenario, &pkg, &model).schedule;
        let chiplets: Vec<ChipletId> = schedule.chiplets_used().into_iter().collect();
        (pkg, model, schedule, chiplets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any stalled subset and any staged ready times, the
    /// make-before-break handover never drops more frames than the
    /// package-wide barrier raised at the last ready instant.
    #[test]
    fn per_chiplet_readiness_never_drops_more_than_the_barrier(
        at in 0.0f64..2.0,
        window in 0.01f64..0.5,
        stalls in prop::collection::vec((0usize..64, 0.0f64..1.0), 1..12),
    ) {
        let (pkg, model, schedule, chiplets) = fixture();
        let ready: Vec<(ChipletId, f64)> = stalls
            .iter()
            .map(|&(i, frac)| (chiplets[i % chiplets.len()], at + frac * window))
            .collect();
        let readiness = Readiness::PerChiplet { at, ready };
        let barrier_at = readiness.last_ready();
        // 16 frames straddling the whole [at, last ready] contention
        // window, starting slightly before the switch.
        let times: Vec<f64> = (0..16)
            .map(|i| (at - 0.05).max(0.0) + i as f64 * (barrier_at - at + 0.1) / 16.0)
            .collect();
        let run = |readiness: Readiness| {
            simulate_phases(
                &[SimPhase::new(schedule, times.clone(), readiness)],
                pkg,
                model,
                Dtype::Fp16,
            )
            .remove(0)
        };
        let mbb = run(readiness);
        let barrier = run(Readiness::Barrier(barrier_at));
        prop_assert!(
            mbb.dropped <= barrier.dropped,
            "make-before-break dropped {} vs barrier {}",
            mbb.dropped,
            barrier.dropped
        );
        prop_assert!(mbb.admitted_from <= barrier.admitted_from + 1e-12);
        prop_assert!(mbb.admitted_from >= at);
        prop_assert_eq!(mbb.offered, mbb.served() + mbb.dropped + mbb.flushed);
    }
}
