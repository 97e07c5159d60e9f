//! ResNet-18-depth bottleneck backbone with the paper's feature dims.
//!
//! The paper (§II-B) specifies a "ResNet18 architecture with 4 multiscale
//! features (90×160×256, 45×80×512, 23×40×1024, 12×20×2048)". Those
//! channel counts are bottleneck-style (expansion 4) and the spatial sizes
//! imply a 360×640 input at strides 4/8/16/32, so we build a ResNet with
//! 18-layer depth (2 blocks per stage) and bottleneck blocks.

use serde::{Deserialize, Serialize};

use npu_tensor::TensorShape;

use crate::graph::{Graph, LayerId};
use crate::layer::Layer;
use crate::op::OpKind;

use super::ceil_div;

/// One backbone stage: bottleneck width, output channels, spatial stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Bottleneck (3×3 conv) width.
    pub width: u64,
    /// Stage output channels (after 1×1 expansion).
    pub out_ch: u64,
    /// Stride applied by the stage's first block.
    pub stride: u64,
    /// Number of residual blocks.
    pub blocks: u64,
}

/// Feature-extractor configuration.
///
/// # Examples
///
/// ```
/// use npu_dnn::models::FeConfig;
/// let fe = FeConfig::default();
/// assert_eq!(fe.input_hw, (360, 640));
/// assert_eq!(fe.stages[3].out_ch, 2048);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeConfig {
    /// Input image height/width (after ISP pre-scaling).
    pub input_hw: (u64, u64),
    /// Stem output channels.
    pub stem_ch: u64,
    /// The four residual stages.
    pub stages: [StageSpec; 4],
}

impl Default for FeConfig {
    /// The paper's published feature pyramid.
    fn default() -> Self {
        FeConfig {
            input_hw: (360, 640),
            stem_ch: 64,
            stages: [
                StageSpec {
                    width: 64,
                    out_ch: 256,
                    stride: 1,
                    blocks: 2,
                },
                StageSpec {
                    width: 128,
                    out_ch: 512,
                    stride: 2,
                    blocks: 2,
                },
                StageSpec {
                    width: 256,
                    out_ch: 1024,
                    stride: 2,
                    blocks: 2,
                },
                StageSpec {
                    width: 512,
                    out_ch: 2048,
                    stride: 2,
                    blocks: 2,
                },
            ],
        }
    }
}

impl FeConfig {
    /// The four multiscale tap shapes this config produces.
    pub fn tap_shapes(&self) -> [TensorShape; 4] {
        let (h, w) = self.input_hw;
        let mut div = 4; // stem conv /2 + maxpool /2
        let mut shapes = Vec::with_capacity(4);
        for s in &self.stages {
            div *= s.stride;
            shapes.push(TensorShape::nchw(
                1,
                s.out_ch,
                ceil_div(h, div),
                ceil_div(w, div),
            ));
        }
        [shapes[0], shapes[1], shapes[2], shapes[3]]
    }
}

/// Appends the backbone to `g` and returns the four multiscale tap ids
/// (finest first).
///
/// # Panics
///
/// Panics only on internal invariant violations (predecessor bookkeeping).
pub fn append_backbone(g: &mut Graph, prefix: &str, cfg: &FeConfig) -> [LayerId; 4] {
    let (h, w) = cfg.input_hw;
    let (h2, w2) = (ceil_div(h, 2), ceil_div(w, 2));

    let stem = g
        .add(
            Layer::new(
                format!("{prefix}.stem"),
                OpKind::Conv2d {
                    in_ch: 3,
                    out_ch: cfg.stem_ch,
                    kernel: (7, 7),
                    stride: 2,
                },
                TensorShape::nchw(1, cfg.stem_ch, h2, w2),
            ),
            &[],
        )
        .expect("stem is the first layer");

    let (h4, w4) = (ceil_div(h2, 2), ceil_div(w2, 2));
    let mut cur = g
        .add(
            Layer::new(
                format!("{prefix}.maxpool"),
                OpKind::Pool { kernel: 3 },
                TensorShape::nchw(1, cfg.stem_ch, h4, w4),
            ),
            &[stem],
        )
        .expect("stem exists");

    let mut in_ch = cfg.stem_ch;
    let (mut ch, mut cw) = (h4, w4);
    let mut taps = Vec::with_capacity(4);

    for (si, spec) in cfg.stages.iter().enumerate() {
        for b in 0..spec.blocks {
            let stride = if b == 0 { spec.stride } else { 1 };
            let (oh, ow) = (ceil_div(ch, stride), ceil_div(cw, stride));
            let base = format!("{prefix}.s{}.b{}", si + 1, b + 1);

            // 1x1 reduce at input spatial size.
            let reduce = g
                .add(
                    Layer::new(
                        format!("{base}.conv1"),
                        OpKind::Conv2d {
                            in_ch,
                            out_ch: spec.width,
                            kernel: (1, 1),
                            stride: 1,
                        },
                        TensorShape::nchw(1, spec.width, ch, cw),
                    ),
                    &[cur],
                )
                .expect("cur exists");
            // 3x3 (strided in the first block of a stage).
            let mid = g
                .add(
                    Layer::new(
                        format!("{base}.conv2"),
                        OpKind::Conv2d {
                            in_ch: spec.width,
                            out_ch: spec.width,
                            kernel: (3, 3),
                            stride,
                        },
                        TensorShape::nchw(1, spec.width, oh, ow),
                    ),
                    &[reduce],
                )
                .expect("reduce exists");
            // 1x1 expand.
            let expand = g
                .add(
                    Layer::new(
                        format!("{base}.conv3"),
                        OpKind::Conv2d {
                            in_ch: spec.width,
                            out_ch: spec.out_ch,
                            kernel: (1, 1),
                            stride: 1,
                        },
                        TensorShape::nchw(1, spec.out_ch, oh, ow),
                    ),
                    &[mid],
                )
                .expect("mid exists");

            // Projection shortcut when shape changes.
            let residual = if in_ch != spec.out_ch || stride != 1 {
                g.add(
                    Layer::new(
                        format!("{base}.proj"),
                        OpKind::Conv2d {
                            in_ch,
                            out_ch: spec.out_ch,
                            kernel: (1, 1),
                            stride,
                        },
                        TensorShape::nchw(1, spec.out_ch, oh, ow),
                    ),
                    &[cur],
                )
                .expect("cur exists")
            } else {
                cur
            };

            cur = g
                .add(
                    Layer::new(
                        format!("{base}.out"),
                        OpKind::Eltwise,
                        TensorShape::nchw(1, spec.out_ch, oh, ow),
                    ),
                    &[expand, residual],
                )
                .expect("both arms exist");

            in_ch = spec.out_ch;
            ch = oh;
            cw = ow;
        }
        taps.push(cur);
    }

    [taps[0], taps[1], taps[2], taps[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_taps_match_paper_dims() {
        let shapes = FeConfig::default().tap_shapes();
        assert_eq!(
            shapes.map(|s| (s.h(), s.w(), s.c())),
            [
                (90, 160, 256),
                (45, 80, 512),
                (23, 40, 1024),
                (12, 20, 2048)
            ]
        );
    }

    #[test]
    fn backbone_builds_and_taps_have_expected_shapes() {
        let mut g = Graph::new("fe");
        let taps = append_backbone(&mut g, "fe", &FeConfig::default());
        let expected = FeConfig::default().tap_shapes();
        for (tap, shape) in taps.iter().zip(expected) {
            assert_eq!(g.layer(*tap).out(), shape);
        }
        // 18-layer depth: stem + pool + 8 blocks x (3 conv + optional proj + add).
        assert!(g.len() > 30);
    }

    #[test]
    fn backbone_macs_are_bottleneck_scale() {
        let mut g = Graph::new("fe");
        append_backbone(&mut g, "fe", &FeConfig::default());
        let gmacs = g.total_macs().as_gmacs();
        // Hand count of the default config: ~11 GMAC for the backbone alone.
        assert!((8.0..14.0).contains(&gmacs), "got {gmacs}");
    }

    #[test]
    fn every_block_has_residual_add() {
        let mut g = Graph::new("fe");
        append_backbone(&mut g, "fe", &FeConfig::default());
        let adds = g.iter().filter(|(_, l)| l.name().ends_with(".out")).count();
        assert_eq!(adds, 8); // 4 stages x 2 blocks
    }
}
