//! Multi-head attention fusion blocks (S_FUSE and T_FUSE).
//!
//! Per the paper (§II-B), each fusion module comprises a QKV projection,
//! an attention stage (two matrix multiplications, `(Q·Kᵀ)·V`) and a
//! feed-forward network. The attention is *windowed* (deformable/local):
//! each grid cell attends to a bounded set of candidate features — this is
//! the only reading consistent with the paper's reported attention
//! latencies, which are far below full quadratic attention
//! (`npu_maestro::calib::calibration_table` checks them within 5%).

use serde::{Deserialize, Serialize};

use npu_tensor::TensorShape;

use crate::graph::Graph;
use crate::layer::Layer;
use crate::op::OpKind;

/// Configuration of one attention fusion module.
///
/// # Examples
///
/// ```
/// use npu_dnn::models::FusionConfig;
///
/// let s = FusionConfig::spatial_default();
/// assert_eq!(s.proj_tokens, 12_800); // 8 cameras x 20x80 tokens
/// let t = FusionConfig::temporal_default();
/// assert_eq!(t.proj_tokens, 19_200); // 12-frame queue x 1600 tokens
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Graph/layer name prefix (`s_fuse` / `t_fuse`).
    pub name: String,
    /// Tokens passed through the QKV projection (source features).
    pub proj_tokens: u64,
    /// Model dimension.
    pub d_model: u64,
    /// Query tokens of the attention stage (BEV grid cells for S_FUSE).
    pub queries: u64,
    /// Keys attended per query (local/deformable window).
    pub window: u64,
    /// Tokens processed by the FFN.
    pub ffn_tokens: u64,
    /// FFN hidden width.
    pub ffn_hidden: u64,
    /// Optional output compression: `(tokens, features)` of a final dense
    /// layer squeezing the fused map into the next stage's input format.
    pub compress: Option<(u64, u64)>,
}

impl FusionConfig {
    /// The paper's S_FUSE: 8 cameras × 1600 tokens projected at d=256,
    /// 200×80 BEV grid queries, FFN over the grid.
    ///
    /// Calibration (pinned by `npu_maestro::calib::calibration_table`):
    /// QKV 2.52 GMAC → 78.6 ms, attention 0.66 GMAC → 20.5 ms, FFN
    /// 8.4 GMAC → 262 ms on one 256-PE OS chiplet.
    pub fn spatial_default() -> Self {
        FusionConfig {
            name: "s_fuse".to_string(),
            proj_tokens: 8 * 1600,
            d_model: 256,
            queries: 200 * 80,
            window: 80,
            ffn_tokens: 200 * 80,
            ffn_hidden: 1024,
            compress: Some((1600, 304)),
        }
    }

    /// The paper's T_FUSE: a 12-entry temporal feature queue of 1600-token
    /// maps at d=304 (paper: 300; 304 = 8 heads × 38).
    ///
    /// Calibration: QKV 5.32 GMAC → 166 ms, attention 1.12 GMAC → 35 ms,
    /// FFN 14.2 GMAC → 444 ms on one 256-PE OS chiplet.
    pub fn temporal_default() -> Self {
        FusionConfig {
            name: "t_fuse".to_string(),
            proj_tokens: 12 * 1600,
            d_model: 304,
            queries: 12 * 1600,
            window: 96,
            ffn_tokens: 12 * 1600,
            ffn_hidden: 4 * 304,
            compress: None,
        }
    }
}

/// Builds a fusion module graph: `qkv → score → context → ffn (→ compress)`.
///
/// Layer names are `{name}.qkv`, `{name}.attn.score`, `{name}.attn.ctx`,
/// `{name}.ffn` and optionally `{name}.compress` — the scheduler's sharding
/// rules and the paper's figures refer to these.
pub fn fusion_block(cfg: &FusionConfig) -> Graph {
    let mut g = Graph::new(cfg.name.clone());
    let qkv = g
        .add(
            Layer::intrinsic(
                format!("{}.qkv", cfg.name),
                OpKind::Dense {
                    tokens: cfg.proj_tokens,
                    in_features: cfg.d_model,
                    out_features: 3 * cfg.d_model,
                },
            ),
            &[],
        )
        .expect("first layer");
    let score = g
        .add(
            Layer::intrinsic(
                format!("{}.attn.score", cfg.name),
                OpKind::AttentionScore {
                    queries: cfg.queries,
                    window: cfg.window,
                    dim: cfg.d_model,
                },
            ),
            &[qkv],
        )
        .expect("qkv exists");
    let ctx = g
        .add(
            Layer::intrinsic(
                format!("{}.attn.ctx", cfg.name),
                OpKind::AttentionContext {
                    queries: cfg.queries,
                    window: cfg.window,
                    dim: cfg.d_model,
                },
            ),
            &[score],
        )
        .expect("score exists");
    let ffn = g
        .add(
            Layer::intrinsic(
                format!("{}.ffn", cfg.name),
                OpKind::Ffn {
                    tokens: cfg.ffn_tokens,
                    d_model: cfg.d_model,
                    hidden: cfg.ffn_hidden,
                },
            ),
            &[ctx],
        )
        .expect("ctx exists");
    if let Some((tokens, features)) = cfg.compress {
        g.add(
            Layer::intrinsic(
                format!("{}.compress", cfg.name),
                OpKind::Dense {
                    tokens,
                    in_features: cfg.d_model,
                    out_features: features,
                },
            ),
            &[ffn],
        )
        .expect("ffn exists");
    } else {
        // Emit the fused spatio-temporal grid for the trunks.
        g.add(
            Layer::new(
                format!("{}.out", cfg.name),
                OpKind::Resample,
                TensorShape::nchw(1, cfg.d_model, 20, 80),
            ),
            &[ffn],
        )
        .expect("ffn exists");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_fusion_macs_match_calibration() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let qkv = g.layer(g.find("s_fuse.qkv").unwrap()).macs().as_gmacs();
        assert!((qkv - 2.516).abs() < 0.01, "qkv {qkv}");
        let ffn = g.layer(g.find("s_fuse.ffn").unwrap()).macs().as_gmacs();
        assert!((ffn - 8.389).abs() < 0.01, "ffn {ffn}");
        let attn = g
            .layer(g.find("s_fuse.attn.score").unwrap())
            .macs()
            .as_gmacs()
            + g.layer(g.find("s_fuse.attn.ctx").unwrap())
                .macs()
                .as_gmacs();
        assert!((attn - 0.655).abs() < 0.01, "attn {attn}");
    }

    #[test]
    fn temporal_fusion_macs_match_calibration() {
        let g = fusion_block(&FusionConfig::temporal_default());
        let qkv = g.layer(g.find("t_fuse.qkv").unwrap()).macs().as_gmacs();
        assert!((qkv - 5.32).abs() < 0.02, "qkv {qkv}");
        let ffn = g.layer(g.find("t_fuse.ffn").unwrap()).macs().as_gmacs();
        assert!((ffn - 14.19).abs() < 0.05, "ffn {ffn}");
    }

    #[test]
    fn fusion_is_a_chain() {
        let g = fusion_block(&FusionConfig::spatial_default());
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.len(), 5); // qkv, score, ctx, ffn, compress
    }

    #[test]
    fn temporal_out_is_bev_grid() {
        let g = fusion_block(&FusionConfig::temporal_default());
        let sink = g.sinks()[0];
        let out = g.layer(sink).out();
        assert_eq!((out.h(), out.w(), out.c()), (20, 80, 304));
    }
}
