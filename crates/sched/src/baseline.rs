//! Table II baseline schedulers: few-big-chip packages with stagewise or
//! layerwise pipelining, no sharding.

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_dnn::PerceptionPipeline;
use npu_maestro::CostModel;
use npu_mcm::{ChipletId, McmPackage};
use npu_tensor::float;

use crate::plan::{LayerPlan, ModelPlan, Schedule, StagePlan};

/// Pipelining scheme for the baseline accelerator arrangements (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pipelining {
    /// Whole stages are pipeline units: each stage lives on one chip.
    Stagewise,
    /// Layers/models are pipeline units: concurrent model instances may
    /// spread over chips.
    Layerwise,
}

impl fmt::Display for Pipelining {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pipelining::Stagewise => f.write_str("stagewise"),
            Pipelining::Layerwise => f.write_str("layerwise"),
        }
    }
}

/// Builds a baseline schedule (no sharding).
///
/// * Stagewise: stage `s` is placed entirely on chip `s % chips` — whole
///   stages are the pipeline units.
/// * Layerwise: every *layer* goes to the least-loaded chip (greedy in
///   topological order), letting the 8 concurrent FE+BFPN instances and
///   individual fusion layers pipeline across chips.
pub fn baseline_schedule(
    pipeline: &PerceptionPipeline,
    pkg: &McmPackage,
    pipelining: Pipelining,
    model: &dyn CostModel,
) -> Schedule {
    let chips: Vec<ChipletId> = pkg.ids().collect();
    let mut load: Vec<f64> = vec![0.0; chips.len()];
    let least_loaded = |load: &mut Vec<f64>, time: f64| -> ChipletId {
        let (idx, _) =
            float::total_min_by_key(load.iter().enumerate(), |&(_, &t)| t).expect("non-empty");
        load[idx] += time;
        chips[idx]
    };

    // Stagewise: map whole stages to chips balancing stage totals
    // (longest-processing-time order).
    let ref_acc = pkg.chiplet(chips[0]).accelerator();
    let stage_chip: Vec<ChipletId> = {
        let totals: Vec<f64> = pipeline
            .stages()
            .iter()
            .map(|stage| {
                stage
                    .models()
                    .iter()
                    .map(|sm| {
                        sm.instances() as f64
                            * sm.graph()
                                .iter()
                                .map(|(_, l)| model.layer_cost(l, ref_acc).latency.as_secs())
                                .sum::<f64>()
                    })
                    .sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..totals.len()).collect();
        float::total_sort_desc_by_key(&mut order, |&si| totals[si]);
        let mut chip_load: Vec<f64> = vec![0.0; chips.len()];
        let mut mapping = vec![chips[0]; totals.len()];
        for si in order {
            let (idx, _) = float::total_min_by_key(chip_load.iter().enumerate(), |&(_, &t)| t)
                .expect("non-empty");
            chip_load[idx] += totals[si];
            mapping[si] = chips[idx];
        }
        mapping
    };

    let stages = pipeline
        .stages()
        .iter()
        .enumerate()
        .map(|(si, stage)| {
            let mut models = Vec::new();
            for sm in stage.models() {
                for inst in 0..sm.instances() {
                    let name = format!("{}#{inst}", sm.graph().name());
                    let plan = match pipelining {
                        Pipelining::Stagewise => {
                            let chip = stage_chip[si];
                            ModelPlan::on_single_chiplet(name, sm.graph().clone(), chip)
                        }
                        Pipelining::Layerwise => {
                            let layers = sm
                                .graph()
                                .iter()
                                .map(|(_, l)| {
                                    let t = model
                                        .layer_cost(l, pkg.chiplet(chips[0]).accelerator())
                                        .latency
                                        .as_secs();
                                    LayerPlan::single(l.clone(), least_loaded(&mut load, t))
                                })
                                .collect();
                            ModelPlan {
                                name,
                                graph: sm.graph().clone(),
                                layers,
                            }
                        }
                    };
                    models.push(plan);
                }
            }
            StagePlan {
                kind: stage.kind(),
                models,
                region: chips.clone(),
            }
        })
        .collect();

    Schedule { stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use npu_dnn::{PerceptionConfig, StageKind};
    use npu_maestro::FittedMaestro;
    use npu_tensor::Dtype;

    fn bottleneck_pipeline() -> PerceptionPipeline {
        PerceptionConfig::default().build().bottleneck_stages()
    }

    #[test]
    fn monolithic_pipe_equals_e2e() {
        let pipeline = bottleneck_pipeline();
        let pkg = McmPackage::monolithic_9216();
        let model = FittedMaestro::new();
        let s = baseline_schedule(&pipeline, &pkg, Pipelining::Stagewise, &model);
        let r = evaluate(&s, &pkg, &model, Dtype::Fp16);
        // A single chip serializes the whole pipeline.
        assert!((r.pipe.as_secs() - r.e2e.as_secs()).abs() < 1e-9);
        // Paper Table II: ~1.8 s (ours lands in the same band).
        assert!(
            (1.2..2.2).contains(&r.e2e.as_secs()),
            "monolithic e2e {}",
            r.e2e
        );
    }

    #[test]
    fn layerwise_spreads_fe_instances() {
        let pipeline = bottleneck_pipeline();
        let pkg = McmPackage::quad_2304();
        let model = FittedMaestro::new();
        let s = baseline_schedule(&pipeline, &pkg, Pipelining::Layerwise, &model);
        let fe = s.stage(StageKind::FeatureExtraction).unwrap();
        let chips: std::collections::BTreeSet<_> =
            fe.models.iter().flat_map(|m| m.chiplets()).collect();
        assert_eq!(chips.len(), 4, "8 FE models spread over all 4 chips");
    }

    #[test]
    fn more_chips_never_hurt_pipe() {
        let pipeline = bottleneck_pipeline();
        let model = FittedMaestro::new();
        let mut pipes = Vec::new();
        for pkg in [
            McmPackage::monolithic_9216(),
            McmPackage::dual_4608(),
            McmPackage::quad_2304(),
        ] {
            let s = baseline_schedule(&pipeline, &pkg, Pipelining::Layerwise, &model);
            pipes.push(evaluate(&s, &pkg, &model, Dtype::Fp16).pipe);
        }
        assert!(pipes[1] <= pipes[0]);
        assert!(pipes[2] <= pipes[1]);
    }
}
