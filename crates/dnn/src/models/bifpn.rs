//! Bidirectional feature pyramid network (BiFPN) neck.
//!
//! Two BiFPN blocks follow the feature extractor in the paper's Stage 1
//! (after EfficientDet, the paper's ref. 32). Each block runs a top-down pass (finer scales
//! fused with upsampled coarser ones) and a bottom-up pass, with a 3×3
//! fusion conv per node.

use serde::{Deserialize, Serialize};

use crate::graph::{Graph, LayerId};
use crate::layer::Layer;
use crate::op::OpKind;

/// BiFPN configuration.
///
/// # Examples
///
/// ```
/// use npu_dnn::models::BifpnConfig;
/// let cfg = BifpnConfig::default();
/// assert_eq!(cfg.blocks, 2);
/// assert_eq!(cfg.out_grid, (20, 80));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BifpnConfig {
    /// Pyramid channel width.
    pub ch: u64,
    /// Number of BiFPN blocks.
    pub blocks: u64,
    /// Output grid of the downstream fusion head (camera token grid).
    pub out_grid: (u64, u64),
    /// Channels of the stage output feature.
    pub out_ch: u64,
}

impl Default for BifpnConfig {
    /// Calibrated so FE+BFPN lands near the paper's 82.7 ms on one 256-PE
    /// OS chiplet (the `FE+BFPN e2e` row of
    /// `npu_maestro::calib::calibration_table`).
    fn default() -> Self {
        BifpnConfig {
            ch: 224,
            blocks: 2,
            out_grid: (20, 80),
            out_ch: 256,
        }
    }
}

/// Appends `cfg.blocks` BiFPN blocks fusing the given backbone taps
/// (finest first). Returns the final per-scale output ids (finest first).
///
/// # Panics
///
/// Panics if fewer than two taps are supplied — a pyramid needs at least
/// two scales to fuse.
pub fn append_bifpn(
    g: &mut Graph,
    prefix: &str,
    taps: &[LayerId],
    cfg: &BifpnConfig,
) -> Vec<LayerId> {
    assert!(taps.len() >= 2, "BiFPN needs at least two pyramid scales");

    // Lateral 1x1 projections to the pyramid width.
    let mut levels: Vec<LayerId> = taps
        .iter()
        .enumerate()
        .map(|(i, &tap)| {
            let src = g.layer(tap).out();
            g.add(
                Layer::new(
                    format!("{prefix}.lat{i}"),
                    OpKind::Conv2d {
                        in_ch: src.c(),
                        out_ch: cfg.ch,
                        kernel: (1, 1),
                        stride: 1,
                    },
                    src.with_c(cfg.ch),
                ),
                &[tap],
            )
            .expect("tap exists")
        })
        .collect();

    for b in 0..cfg.blocks {
        levels = append_block(g, &format!("{prefix}.b{b}"), &levels, cfg.ch);
    }
    levels
}

/// One BiFPN block: top-down then bottom-up, fusion conv per node.
fn append_block(g: &mut Graph, prefix: &str, levels: &[LayerId], ch: u64) -> Vec<LayerId> {
    let n = levels.len();
    let shape_of = |g: &Graph, id: LayerId| g.layer(id).out();

    // Top-down: td[n-1] = levels[n-1]; td[i] = conv(levels[i] + up(td[i+1])).
    let mut td: Vec<Option<LayerId>> = vec![None; n];
    td[n - 1] = Some(levels[n - 1]);
    for i in (0..n - 1).rev() {
        let target = shape_of(g, levels[i]);
        let up = g
            .add(
                Layer::new(format!("{prefix}.td{i}.up"), OpKind::Resample, target),
                &[td[i + 1].expect("filled by previous iteration")],
            )
            .expect("td exists");
        let sum = g
            .add(
                Layer::new(format!("{prefix}.td{i}.add"), OpKind::Eltwise, target),
                &[levels[i], up],
            )
            .expect("preds exist");
        td[i] = Some(
            g.add(
                Layer::new(
                    format!("{prefix}.td{i}.conv"),
                    OpKind::Conv2d {
                        in_ch: ch,
                        out_ch: ch,
                        kernel: (3, 3),
                        stride: 1,
                    },
                    target,
                ),
                &[sum],
            )
            .expect("sum exists"),
        );
    }
    let td: Vec<LayerId> = td.into_iter().map(|id| id.expect("all filled")).collect();

    // Bottom-up: out[0] = td[0]; out[i] = conv(levels[i] + td[i] + down(out[i-1])).
    let mut out: Vec<LayerId> = vec![td[0]];
    for i in 1..n {
        let target = shape_of(g, levels[i]);
        let down = g
            .add(
                Layer::new(
                    format!("{prefix}.bu{i}.down"),
                    OpKind::Pool { kernel: 2 },
                    target,
                ),
                &[out[i - 1]],
            )
            .expect("prev out exists");
        let sum = g
            .add(
                Layer::new(format!("{prefix}.bu{i}.add"), OpKind::Eltwise, target),
                &[levels[i], td[i], down],
            )
            .expect("preds exist");
        out.push(
            g.add(
                Layer::new(
                    format!("{prefix}.bu{i}.conv"),
                    OpKind::Conv2d {
                        in_ch: ch,
                        out_ch: ch,
                        kernel: (3, 3),
                        stride: 1,
                    },
                    target,
                ),
                &[sum],
            )
            .expect("sum exists"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::resnet::{append_backbone, FeConfig};
    use npu_tensor::TensorShape;

    fn built() -> (Graph, Vec<LayerId>) {
        let mut g = Graph::new("fe_bfpn");
        let taps = append_backbone(&mut g, "fe", &FeConfig::default());
        let outs = append_bifpn(&mut g, "bfpn", &taps, &BifpnConfig::default());
        (g, outs)
    }

    #[test]
    fn outputs_one_per_scale_at_pyramid_width() {
        let (g, outs) = built();
        assert_eq!(outs.len(), 4);
        for id in &outs {
            assert_eq!(g.layer(*id).out().c(), BifpnConfig::default().ch);
        }
    }

    #[test]
    fn finest_output_keeps_finest_resolution() {
        let (g, outs) = built();
        let o = g.layer(outs[0]).out();
        assert_eq!((o.h(), o.w()), (90, 160));
    }

    #[test]
    fn fusion_conv_count_matches_structure() {
        let (g, _) = built();
        // Per block: (n-1) top-down convs + (n-1) bottom-up convs = 6.
        let fusion_convs = g
            .iter()
            .filter(|(_, l)| l.name().starts_with("bfpn.b") && l.name().ends_with(".conv"))
            .count();
        assert_eq!(fusion_convs, 2 * 6);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_scale() {
        let mut g = Graph::new("g");
        let only = g
            .add(
                Layer::new("t", OpKind::Eltwise, TensorShape::nchw(1, 192, 8, 8)),
                &[],
            )
            .unwrap();
        let _ = append_bifpn(&mut g, "b", &[only], &BifpnConfig::default());
    }
}
