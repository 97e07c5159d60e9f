//! The four-stage Tesla-Autopilot-style perception pipeline (paper Fig. 2).
//!
//! Stage 1 — FE+BFPN, eight concurrent per-camera instances.
//! Stage 2 — multi-camera spatial fusion (S_FUSE).
//! Stage 3 — temporal fusion over a 12-entry feature queue (T_FUSE).
//! Stage 4 — trunks and heads: occupancy, lane prediction, 3 detectors.

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_tensor::{Bytes, Dtype, MacCount};

use crate::graph::Graph;
use crate::models::{
    attention::{fusion_block, FusionConfig},
    bifpn::BifpnConfig,
    detection::{detection_head, DetectionConfig},
    fe_bfpn,
    lane::{lane_trunk, LaneConfig},
    occupancy::{occupancy_trunk, OccupancyConfig},
    resnet::FeConfig,
};

/// Which perception stage a [`Stage`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// Stage 1: per-camera feature extraction + BiFPN.
    FeatureExtraction,
    /// Stage 2: multi-camera spatial fusion.
    SpatialFusion,
    /// Stage 3: temporal fusion.
    TemporalFusion,
    /// Stage 4: trunks and heads.
    Trunks,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 4] = [
        StageKind::FeatureExtraction,
        StageKind::SpatialFusion,
        StageKind::TemporalFusion,
        StageKind::Trunks,
    ];

    /// Stage index in pipeline order (0-based).
    pub fn index(self) -> usize {
        match self {
            StageKind::FeatureExtraction => 0,
            StageKind::SpatialFusion => 1,
            StageKind::TemporalFusion => 2,
            StageKind::Trunks => 3,
        }
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageKind::FeatureExtraction => "FE+BFPN",
            StageKind::SpatialFusion => "S_FUSE",
            StageKind::TemporalFusion => "T_FUSE",
            StageKind::Trunks => "TRUNKS",
        };
        f.write_str(s)
    }
}

/// A model within a stage, possibly instantiated multiple times
/// (8 FE+BFPN instances, 3 detector heads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageModel {
    graph: Graph,
    instances: u64,
}

impl StageModel {
    /// Creates a stage model with the given instance count.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    pub fn new(graph: Graph, instances: u64) -> Self {
        assert!(instances >= 1, "a stage model needs at least one instance");
        StageModel { graph, instances }
    }

    /// The model graph (shared by all instances).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of concurrent instances.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// MACs over all instances.
    pub fn total_macs(&self) -> MacCount {
        self.graph.total_macs() * self.instances
    }
}

/// One perception stage: a set of concurrent models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    kind: StageKind,
    models: Vec<StageModel>,
    /// Bytes this stage emits downstream per processed frame.
    output_bytes: Bytes,
}

impl Stage {
    /// Creates a stage.
    pub fn new(kind: StageKind, models: Vec<StageModel>, output_bytes: Bytes) -> Self {
        Stage {
            kind,
            models,
            output_bytes,
        }
    }

    /// The stage kind.
    pub fn kind(&self) -> StageKind {
        self.kind
    }

    /// The stage's models.
    pub fn models(&self) -> &[StageModel] {
        &self.models
    }

    /// Total concurrent model instances in the stage.
    pub fn replicas(&self) -> u64 {
        self.models.iter().map(|m| m.instances).sum()
    }

    /// MACs across all instances.
    pub fn total_macs(&self) -> MacCount {
        self.models.iter().map(StageModel::total_macs).sum()
    }

    /// Bytes emitted downstream per frame.
    pub fn output_bytes(&self) -> Bytes {
        self.output_bytes
    }
}

/// Full pipeline configuration with paper-calibrated defaults.
///
/// # Examples
///
/// ```
/// use npu_dnn::PerceptionConfig;
///
/// let cfg = PerceptionConfig::default();
/// assert_eq!(cfg.cameras, 8);
/// assert_eq!(cfg.queue_len, 12);
/// let pipe = cfg.build();
/// assert!(pipe.total_macs().as_gmacs() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerceptionConfig {
    /// Installed cameras (paper: 8).
    pub cameras: u64,
    /// Feature-extractor config.
    pub fe: FeConfig,
    /// BiFPN neck config.
    pub bifpn: BifpnConfig,
    /// Spatial fusion config.
    pub s_fuse: FusionConfig,
    /// Temporal fusion config.
    pub t_fuse: FusionConfig,
    /// Temporal queue length (paper: 12 previous representations).
    pub queue_len: u64,
    /// Occupancy trunk config.
    pub occupancy: OccupancyConfig,
    /// Lane trunk config.
    pub lane: LaneConfig,
    /// Detector head config.
    pub detection: DetectionConfig,
    /// Number of detector heads (traffic / vehicle / pedestrian).
    pub detectors: u64,
    /// Datatype of feature maps moved between stages.
    pub dtype: Dtype,
}

impl Default for PerceptionConfig {
    fn default() -> Self {
        PerceptionConfig {
            cameras: 8,
            fe: FeConfig::default(),
            bifpn: BifpnConfig::default(),
            s_fuse: FusionConfig::spatial_default(),
            t_fuse: FusionConfig::temporal_default(),
            queue_len: 12,
            occupancy: OccupancyConfig::default(),
            lane: LaneConfig::default(),
            detection: DetectionConfig::default(),
            detectors: 3,
            dtype: Dtype::Fp16,
        }
    }
}

impl PerceptionConfig {
    /// Builds the full four-stage pipeline.
    pub fn build(&self) -> PerceptionPipeline {
        let dtype = self.dtype;

        let fe_graph = fe_bfpn(&self.fe, &self.bifpn);
        let fe_out = fe_graph
            .layer(*fe_graph.sinks().last().expect("non-empty"))
            .out();
        let fe_stage = Stage::new(
            StageKind::FeatureExtraction,
            vec![StageModel::new(fe_graph, self.cameras)],
            fe_out.bytes(dtype) * self.cameras,
        );

        let s_graph = fusion_block(&self.s_fuse);
        let s_out = s_graph
            .layer(*s_graph.sinks().last().expect("non-empty"))
            .out();
        let s_stage = Stage::new(
            StageKind::SpatialFusion,
            vec![StageModel::new(s_graph, 1)],
            s_out.bytes(dtype),
        );

        let t_graph = fusion_block(&self.t_fuse);
        let t_out = t_graph
            .layer(*t_graph.sinks().last().expect("non-empty"))
            .out();
        let t_stage = Stage::new(
            StageKind::TemporalFusion,
            vec![StageModel::new(t_graph, 1)],
            t_out.bytes(dtype),
        );

        let occ = occupancy_trunk(&self.occupancy);
        let lane = lane_trunk(&self.lane);
        let det = detection_head("det", &self.detection);
        let trunk_out: Bytes = occ
            .sinks()
            .iter()
            .map(|&s| occ.layer(s).out().bytes(dtype))
            .sum();
        let trunk_stage = Stage::new(
            StageKind::Trunks,
            vec![
                StageModel::new(occ, 1),
                StageModel::new(lane, 1),
                StageModel::new(det, self.detectors),
            ],
            trunk_out,
        );

        PerceptionPipeline {
            config: self.clone(),
            stages: vec![fe_stage, s_stage, t_stage, trunk_stage],
        }
    }
}

/// The built four-stage perception workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerceptionPipeline {
    config: PerceptionConfig,
    stages: Vec<Stage>,
}

impl PerceptionPipeline {
    /// The configuration used to build the pipeline.
    pub fn config(&self) -> &PerceptionConfig {
        &self.config
    }

    /// The four stages in pipeline order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The stage of the given kind.
    pub fn stage(&self, kind: StageKind) -> &Stage {
        &self.stages[kind.index()]
    }

    /// MACs per processed frame across the whole pipeline.
    pub fn total_macs(&self) -> MacCount {
        self.stages.iter().map(Stage::total_macs).sum()
    }

    /// Returns a pipeline restricted to the first three stages (the
    /// "bottleneck stages" on which the paper's Table II compares
    /// baselines).
    pub fn bottleneck_stages(&self) -> PerceptionPipeline {
        PerceptionPipeline {
            config: self.config.clone(),
            stages: self.stages[..3].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_stages_in_order() {
        let pipe = PerceptionConfig::default().build();
        let kinds: Vec<_> = pipe.stages().iter().map(Stage::kind).collect();
        assert_eq!(kinds, StageKind::ALL.to_vec());
    }

    #[test]
    fn fe_stage_has_eight_instances() {
        let pipe = PerceptionConfig::default().build();
        assert_eq!(pipe.stage(StageKind::FeatureExtraction).replicas(), 8);
    }

    #[test]
    fn trunk_stage_has_five_model_instances() {
        let pipe = PerceptionConfig::default().build();
        // occupancy + lane + 3 detectors
        assert_eq!(pipe.stage(StageKind::Trunks).replicas(), 5);
    }

    #[test]
    fn fusion_macs_dominate_single_chiplet_time() {
        // Paper Fig. 3: S_FUSE + T_FUSE are ~78-82% of single-chiplet
        // latency. In MAC terms (all linear-class at the same rate) the
        // fusion stages are ~21 GMAC vs ~4 GMAC of trunk linear work.
        let pipe = PerceptionConfig::default().build();
        let s = pipe.stage(StageKind::SpatialFusion).total_macs().as_gmacs();
        let t = pipe
            .stage(StageKind::TemporalFusion)
            .total_macs()
            .as_gmacs();
        assert!(s > 10.0 && t > 18.0, "s={s:.1} t={t:.1}");
        assert!(t > s, "temporal fusion is the bigger bottleneck");
    }

    #[test]
    fn stage_outputs_are_megabyte_scale() {
        let pipe = PerceptionConfig::default().build();
        for stage in pipe.stages() {
            let mb = stage.output_bytes().as_f64() / (1024.0 * 1024.0);
            assert!(
                mb < 20.0,
                "{}: {mb:.1} MiB is implausibly large",
                stage.kind()
            );
        }
    }

    #[test]
    fn bottleneck_pipeline_drops_trunks() {
        let pipe = PerceptionConfig::default().build();
        let b = pipe.bottleneck_stages();
        assert_eq!(b.stages().len(), 3);
        assert!(b.total_macs() < pipe.total_macs());
    }

    #[test]
    fn stage_kind_display() {
        assert_eq!(StageKind::SpatialFusion.to_string(), "S_FUSE");
        assert_eq!(StageKind::Trunks.to_string(), "TRUNKS");
    }
}
