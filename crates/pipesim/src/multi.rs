//! Shared-calendar tests of the engine core: several [`SimPhase`]
//! streams contending for (or sharing none of) one package in a single
//! [`simulate_tenants`] pass.
//!
//! [`SimPhase`]: crate::SimPhase
//! [`simulate_tenants`]: crate::simulate_tenants

mod tests {
    use npu_dnn::models::attention::{fusion_block, FusionConfig};
    use npu_dnn::StageKind;
    use npu_maestro::FittedMaestro;
    use npu_mcm::{ChipletId, McmPackage};
    use npu_sched::{ModelPlan, Schedule, StagePlan};
    use npu_tensor::Dtype;

    use crate::{simulate_phases, simulate_tenants, Readiness, SimPhase};

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

    fn periodic(frames: usize, interval: f64, offset: f64) -> Vec<f64> {
        (0..frames).map(|f| offset + f as f64 * interval).collect()
    }

    /// Tenants on disjoint chiplet regions are bit-identical to their
    /// standalone phased runs: sharing a calendar costs nothing when
    /// nothing is actually shared.
    #[test]
    fn disjoint_regions_match_standalone_runs() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(7));
        let t0 = periodic(16, 0.5, 0.0);
        let t1 = periodic(12, 0.7, 0.1);
        let co = simulate_tenants(
            &[
                SimPhase {
                    schedule: &s0,
                    times: t0.clone(),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
                SimPhase {
                    schedule: &s1,
                    times: t1.clone(),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
            ],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        let alone0 = simulate_phases(
            &[SimPhase {
                schedule: &s0,
                times: t0,
                readiness: Readiness::Barrier(0.0),
                warmup: Some(2),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        let alone1 = simulate_phases(
            &[SimPhase {
                schedule: &s1,
                times: t1,
                readiness: Readiness::Barrier(0.0),
                warmup: Some(2),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        assert_eq!(co[0], alone0[0]);
        assert_eq!(co[1], alone1[0]);
    }

    /// Two tenants contending for one chiplet: the co-run is strictly
    /// slower than either tenant alone, and the higher-priority frames
    /// (earlier global order on ties) still complete.
    #[test]
    fn shared_chiplet_contention_increases_latency() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        // ~366 ms service time; each tenant alone at 0.5 s intervals is
        // arrival-limited, together they oversubscribe the chiplet.
        let t0 = periodic(16, 0.5, 0.0);
        let t1 = periodic(16, 0.5, 0.0);
        let co = simulate_tenants(
            &[
                SimPhase {
                    schedule: &s,
                    times: t0.clone(),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
                SimPhase {
                    schedule: &s,
                    times: t1,
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(2),
                    cutoff: None,
                },
            ],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        let alone = simulate_phases(
            &[SimPhase {
                schedule: &s,
                times: t0,
                readiness: Readiness::Barrier(0.0),
                warmup: Some(2),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        for rep in &co {
            assert!(
                rep.report.mean_latency > alone[0].report.mean_latency,
                "contention must raise latency: co {} vs alone {}",
                rep.report.mean_latency,
                alone[0].report.mean_latency
            );
        }
        // Tenant 0 wins every same-time tie (lower tenant index), so it
        // queues behind at most one tenant-1 frame; tenant 1 waits for
        // tenant 0's whole backlog and runs strictly later.
        assert!(co[0].report.mean_latency < co[1].report.mean_latency);
    }

    /// Per-tenant spin-up windows drop exactly the frames arriving
    /// before that tenant's `ready_at`, and the balance holds.
    #[test]
    fn ready_at_drops_are_per_tenant() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(1));
        let co = simulate_tenants(
            &[
                SimPhase {
                    schedule: &s0,
                    times: periodic(10, 0.5, 0.0),
                    readiness: Readiness::Barrier(0.0),
                    warmup: Some(1),
                    cutoff: None,
                },
                SimPhase {
                    schedule: &s1,
                    times: periodic(10, 0.5, 0.0),
                    readiness: Readiness::Barrier(1.1),
                    warmup: Some(1),
                    cutoff: None,
                },
            ],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        assert_eq!(co[0].dropped, 0);
        assert_eq!(co[1].dropped, 3, "frames at 0.0, 0.5, 1.0 dropped");
        for rep in &co {
            assert_eq!(rep.served() + rep.dropped, rep.offered);
        }
        assert_eq!(co[1].report.measured_frames, 7 - 2);
    }

    /// The co-simulation is deterministic: same inputs, same bits.
    #[test]
    fn co_simulation_is_deterministic() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        let s2 = single_chiplet_schedule(ChipletId(2));
        let run = || {
            simulate_tenants(
                &[
                    SimPhase {
                        schedule: &s,
                        times: periodic(12, 0.4, 0.0),
                        readiness: Readiness::Barrier(0.0),
                        warmup: Some(2),
                        cutoff: None,
                    },
                    SimPhase {
                        schedule: &s2,
                        times: periodic(12, 0.4, 0.0),
                        readiness: Readiness::Barrier(0.0),
                        warmup: Some(2),
                        cutoff: None,
                    },
                ],
                &pkg,
                &model,
                Dtype::Fp16,
            )
        };
        assert_eq!(run(), run());
    }

    /// A single stream through the multi-engine is bit-identical to the
    /// single-class phased engine.
    #[test]
    fn single_stream_matches_phased_engine() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(3));
        let times = periodic(20, 0.45, 0.2);
        let multi = simulate_tenants(
            &[SimPhase {
                schedule: &s,
                times: times.clone(),
                readiness: Readiness::Barrier(0.3),
                warmup: Some(3),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        let phased = simulate_phases(
            &[SimPhase {
                schedule: &s,
                times,
                readiness: Readiness::Barrier(0.3),
                warmup: Some(3),
                cutoff: None,
            }],
            &pkg,
            &model,
            Dtype::Fp16,
        );
        assert_eq!(multi[0], phased[0]);
    }

    #[test]
    fn empty_stream_list_is_empty() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        assert!(simulate_tenants(&[], &pkg, &model, Dtype::Fp16).is_empty());
    }

    /// Both entry points validate readiness alike: a NaN ready time
    /// panics even on a chiplet the stream's schedule never uses, where
    /// the admission gate alone would skip it.
    #[test]
    #[should_panic(expected = "readiness must be finite")]
    fn non_finite_readiness_on_an_unused_chiplet_panics() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s = single_chiplet_schedule(ChipletId(0));
        let readiness = Readiness::PerChiplet {
            at: 0.0,
            ready: vec![(ChipletId(9), f64::NAN)],
        };
        let stream = SimPhase::new(&s, periodic(4, 0.5, 0.0), readiness);
        let _ = simulate_tenants(&[stream], &pkg, &model, Dtype::Fp16);
    }
}
