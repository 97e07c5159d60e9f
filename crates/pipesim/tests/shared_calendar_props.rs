//! Property tests for the shared-calendar engine path: random sets of
//! one to four streams, some sharing chiplets, with random periodic
//! arrivals, admission barriers and boundary cutoffs. The streams run
//! either single-chiplet schedules or real DAG shapes — the fusion
//! block, or the FE+BiFPN model with its duplicated dependency edge —
//! with layers dealt over a random chiplet window. Every stream's frames
//! balance (`offered == served + dropped + flushed`, with the served
//! frames counted in the report itself and the drops recounted from the
//! barrier), and a stream whose chiplets no other stream touches is
//! bit-identical to its standalone run. `simulate` runs such a
//! stream in an engine pass of its own, so that last property holds by
//! construction; `tests/engine_refactor_pin.rs` pins the grouping
//! against an independent reference running every stream on one
//! calendar.

use proptest::prelude::*;

use npu_dnn::models::attention::{fusion_block, FusionConfig};
use npu_dnn::models::{fe_bfpn, BifpnConfig, FeConfig};
use npu_dnn::{Graph, StageKind};
use npu_maestro::FittedMaestro;
use npu_mcm::{ChipletId, McmPackage};
use npu_pipesim::{simulate, simulate_phases, Readiness, SimPhase};
use npu_sched::{LayerPlan, ModelPlan, Schedule, StagePlan};
use npu_tensor::Dtype;

/// Chiplets the streams draw from: few enough that sharing is common.
const CHIPLETS: usize = 3;

fn single_chiplet_schedule(c: ChipletId) -> Schedule {
    let g = fusion_block(&FusionConfig::spatial_default());
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![ModelPlan::on_single_chiplet("s", g, c)],
            region: vec![c],
        }],
    }
}

/// Chiplets the dealt DAG schedules draw their windows from.
const DAG_CHIPLETS: usize = 6;

/// One model whose layers are dealt over chiplets `base..base + width`
/// by a seeded hash, so its dependency edges cross chiplets at random.
fn dealt_schedule(g: &Graph, kind: StageKind, base: usize, width: usize, seed: u64) -> Schedule {
    let chiplet = |l: usize| {
        // splitmix64 of (seed, layer).
        let mut z = seed.wrapping_add((l as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ChipletId((base + (z ^ (z >> 31)) as usize % width) as u32)
    };
    let mut mp = ModelPlan::on_single_chiplet("m", g.clone(), chiplet(0));
    for (id, layer) in g.iter() {
        *mp.layer_plan_mut(id) = LayerPlan::single(layer.clone(), chiplet(id.index()));
    }
    Schedule {
        stages: vec![StagePlan {
            kind,
            region: mp.chiplets().into_iter().collect(),
            models: vec![mp],
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streams_balance_and_disjoint_streams_run_as_if_alone(
        draws in proptest::collection::vec(
            (
                (0..CHIPLETS, 1usize..14, 0.05f64..0.8),
                (0.0f64..0.6, 0.0f64..1.5, 0u8..2, 0.1f64..1.2),
            ),
            1..5,
        ),
    ) {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedules: Vec<Schedule> =
            (0..CHIPLETS).map(|c| single_chiplet_schedule(ChipletId(c as u32))).collect();
        // (chiplet, frames, interval), (offset, barrier, has cutoff,
        // cutoff as a fraction of the arrival span past the offset).
        let streams: Vec<SimPhase<'_>> = draws
            .iter()
            .map(|&((c, frames, interval), (offset, barrier, cut, frac))| {
                let times: Vec<f64> =
                    (0..frames).map(|f| offset + f as f64 * interval).collect();
                let cutoff = (cut == 1).then_some(offset + frac * frames as f64 * interval);
                // No warmup trim: the report measures every served frame.
                SimPhase {
                    warmup: Some(0),
                    cutoff,
                    ..SimPhase::new(&schedules[c], times, Readiness::Barrier(barrier))
                }
            })
            .collect();

        let co = simulate(&streams, &pkg, &model, Dtype::Fp16).expect("valid streams");
        prop_assert_eq!(co.len(), streams.len());
        for (rep, (s, &(_, (_, barrier, _, _)))) in co.iter().zip(streams.iter().zip(&draws)) {
            prop_assert_eq!(rep.offered, s.times.len());
            prop_assert_eq!(rep.dropped, s.times.iter().filter(|&&t| t < barrier).count());
            prop_assert_eq!(rep.report.measured_frames, rep.served());
            prop_assert_eq!(rep.offered, rep.served() + rep.dropped + rep.flushed);
            if s.cutoff.is_none() {
                prop_assert_eq!(rep.flushed, 0);
            }
        }

        for (i, ((c, _, _), _)) in draws.iter().enumerate() {
            let shared = draws
                .iter()
                .enumerate()
                .any(|(j, ((cj, _, _), _))| j != i && cj == c);
            if !shared {
                let alone = simulate_phases(&streams[i..=i], &pkg, &model, Dtype::Fp16);
                prop_assert_eq!(&co[i], &alone[0], "stream {} on chiplet {}", i, c);
            }
        }
    }

    #[test]
    fn dag_streams_balance_and_disjoint_streams_run_as_if_alone(
        draws in proptest::collection::vec(
            (
                (0u8..2, 0..DAG_CHIPLETS, 1usize..4, 0u64..u64::MAX),
                (1usize..10, 0.01f64..0.4, 0.0f64..0.3),
                (0.0f64..0.6, 0u8..2, 0.1f64..1.2),
            ),
            1..5,
        ),
    ) {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let fusion = fusion_block(&FusionConfig::spatial_default());
        let bifpn = fe_bfpn(&FeConfig::default(), &BifpnConfig::default());
        // (model, window base, window width, deal seed), (frames,
        // interval, offset), (barrier, has cutoff, cutoff as a fraction of
        // the arrival span past the offset).
        let schedules: Vec<Schedule> = draws
            .iter()
            .map(|&((m, base, width, seed), _, _)| match m {
                0 => dealt_schedule(&fusion, StageKind::SpatialFusion, base, width, seed),
                _ => dealt_schedule(&bifpn, StageKind::FeatureExtraction, base, width, seed),
            })
            .collect();
        let streams: Vec<SimPhase<'_>> = draws
            .iter()
            .zip(&schedules)
            .map(|(&(_, (frames, interval, offset), (barrier, cut, frac)), schedule)| {
                let times: Vec<f64> =
                    (0..frames).map(|f| offset + f as f64 * interval).collect();
                let cutoff = (cut == 1).then_some(offset + frac * frames as f64 * interval);
                SimPhase {
                    warmup: Some(0),
                    cutoff,
                    ..SimPhase::new(schedule, times, Readiness::Barrier(barrier))
                }
            })
            .collect();

        let co = simulate(&streams, &pkg, &model, Dtype::Fp16).expect("valid streams");
        prop_assert_eq!(co.len(), streams.len());
        for (rep, (s, &(_, _, (barrier, _, _)))) in co.iter().zip(streams.iter().zip(&draws)) {
            prop_assert_eq!(rep.offered, s.times.len());
            prop_assert_eq!(rep.dropped, s.times.iter().filter(|&&t| t < barrier).count());
            prop_assert_eq!(rep.report.measured_frames, rep.served());
            prop_assert_eq!(rep.offered, rep.served() + rep.dropped + rep.flushed);
            if s.cutoff.is_none() {
                prop_assert_eq!(rep.flushed, 0);
            }
        }

        let used: Vec<_> = schedules.iter().map(Schedule::chiplets_used).collect();
        for (i, mine) in used.iter().enumerate() {
            let shared = used
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && !mine.is_disjoint(other));
            if !shared {
                let alone = simulate_phases(&streams[i..=i], &pkg, &model, Dtype::Fp16);
                prop_assert_eq!(&co[i], &alone[0], "stream {} on {:?}", i, mine);
            }
        }
    }
}
