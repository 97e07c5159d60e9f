//! Schedule representation: layers → chiplet shards.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use npu_dnn::{Graph, Layer, LayerId, StageKind};
use npu_mcm::ChipletId;

/// One shard of a layer placed on a chiplet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardAssignment {
    /// The (possibly sliced) layer to execute.
    pub layer: Layer,
    /// The chiplet executing it.
    pub chiplet: ChipletId,
}

/// The placement of one source layer: one or more shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// The original (unsharded) layer.
    pub source: Layer,
    /// Shards in slice order; always non-empty.
    pub shards: Vec<ShardAssignment>,
}

impl LayerPlan {
    /// Places the whole layer on one chiplet.
    pub fn single(layer: Layer, chiplet: ChipletId) -> Self {
        LayerPlan {
            shards: vec![ShardAssignment {
                layer: layer.clone(),
                chiplet,
            }],
            source: layer,
        }
    }

    /// Number of shards.
    pub fn parts(&self) -> u64 {
        self.shards.len() as u64
    }

    /// Chiplets hosting this layer.
    pub fn chiplets(&self) -> impl Iterator<Item = ChipletId> + '_ {
        self.shards.iter().map(|s| s.chiplet)
    }
}

/// The placement of one model instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPlan {
    /// Instance name, e.g. `fe_bfpn#3`.
    pub name: String,
    /// The model graph (dependencies between the layer plans).
    pub graph: Graph,
    /// One plan per graph layer, in topological (id) order.
    pub layers: Vec<LayerPlan>,
}

impl ModelPlan {
    /// Places every layer of `graph` on `chiplet`.
    pub fn on_single_chiplet(name: impl Into<String>, graph: Graph, chiplet: ChipletId) -> Self {
        let layers = graph
            .iter()
            .map(|(_, l)| LayerPlan::single(l.clone(), chiplet))
            .collect();
        ModelPlan {
            name: name.into(),
            graph,
            layers,
        }
    }

    /// The plan for a layer id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model's graph.
    pub fn layer_plan(&self, id: LayerId) -> &LayerPlan {
        &self.layers[id.index()]
    }

    /// Mutable plan for a layer id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model's graph.
    pub fn layer_plan_mut(&mut self, id: LayerId) -> &mut LayerPlan {
        &mut self.layers[id.index()]
    }

    /// All chiplets this model touches.
    pub fn chiplets(&self) -> BTreeSet<ChipletId> {
        self.layers.iter().flat_map(|lp| lp.chiplets()).collect()
    }
}

/// The placement of one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// Which stage this is.
    pub kind: StageKind,
    /// Model instance placements.
    pub models: Vec<ModelPlan>,
    /// The chiplet region initially allocated to the stage.
    pub region: Vec<ChipletId>,
}

impl StagePlan {
    /// All chiplets actually used by the stage.
    pub fn chiplets_used(&self) -> BTreeSet<ChipletId> {
        self.models.iter().flat_map(|m| m.chiplets()).collect()
    }
}

/// A complete pipeline schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Stage plans in pipeline order.
    pub stages: Vec<StagePlan>,
}

impl Schedule {
    /// The plan for a stage kind, if present.
    pub fn stage(&self, kind: StageKind) -> Option<&StagePlan> {
        self.stages.iter().find(|s| s.kind == kind)
    }

    /// All chiplets used by any stage.
    pub fn chiplets_used(&self) -> BTreeSet<ChipletId> {
        self.stages.iter().flat_map(|s| s.chiplets_used()).collect()
    }

    /// Total shard count (scheduled work items).
    pub fn items(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|s| &s.models)
            .flat_map(|m| &m.layers)
            .map(|lp| lp.shards.len())
            .sum()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stage in &self.stages {
            writeln!(
                f,
                "{}: {} models, {} chiplets",
                stage.kind,
                stage.models.len(),
                stage.chiplets_used().len()
            )?;
            for m in &stage.models {
                let sharded: Vec<String> = m
                    .layers
                    .iter()
                    .filter(|lp| lp.parts() > 1)
                    .map(|lp| format!("{}x{}", lp.source.name(), lp.parts()))
                    .collect();
                writeln!(
                    f,
                    "  {} on {:?}{}",
                    m.name,
                    m.chiplets().iter().map(|c| c.0).collect::<Vec<_>>(),
                    if sharded.is_empty() {
                        String::new()
                    } else {
                        format!(" [shards: {}]", sharded.join(", "))
                    }
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatcherConfig, ThroughputMatcher};
    use npu_dnn::models::attention::{fusion_block, FusionConfig};
    use npu_dnn::PerceptionConfig;
    use npu_maestro::FittedMaestro;
    use npu_mcm::McmPackage;

    #[test]
    fn single_chiplet_model_plan() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let m = ModelPlan::on_single_chiplet("s_fuse", g.clone(), ChipletId(9));
        assert_eq!(m.layers.len(), g.len());
        assert_eq!(m.chiplets().len(), 1);
        for lp in &m.layers {
            assert_eq!(lp.parts(), 1);
        }
    }

    #[test]
    fn schedule_accounting() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let stage = StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(1))],
            region: vec![ChipletId(1), ChipletId(2)],
        };
        let s = Schedule {
            stages: vec![stage],
        };
        assert_eq!(s.items(), 5);
        assert_eq!(s.chiplets_used().len(), 1);
        assert!(s.stage(StageKind::SpatialFusion).is_some());
        assert!(s.stage(StageKind::Trunks).is_none());
        assert!(s.to_string().contains("S_FUSE"));
    }

    /// A schedule copy shares its graphs and every layer name with the
    /// original instead of copying them.
    #[test]
    fn schedule_clones_share_model_data() {
        let model = FittedMaestro::new();
        let s = ThroughputMatcher::new(&model, MatcherConfig::default())
            .match_throughput(
                &PerceptionConfig::default().build(),
                &McmPackage::simba_6x6(),
            )
            .schedule;
        let copy = s.clone();
        fn models(s: &Schedule) -> impl Iterator<Item = &ModelPlan> {
            s.stages.iter().flat_map(|st| &st.models)
        }
        let same_name = |a: &Layer, b: &Layer| a.name().as_ptr() == b.name().as_ptr();
        let mut shards = 0;
        for (a, b) in models(&s).zip(models(&copy)) {
            for (id, layer) in a.graph.iter() {
                assert!(std::ptr::eq(layer, b.graph.layer(id)));
                let (la, lb) = (a.layer_plan(id), b.layer_plan(id));
                assert!(same_name(&la.source, &lb.source));
                for (sa, sb) in la.shards.iter().zip(&lb.shards) {
                    assert!(same_name(&sa.layer, &sb.layer));
                    shards += 1;
                }
            }
        }
        assert_eq!(shards, s.items());
    }
}
