//! Paper reference values and the calibration comparison.
//!
//! Every value the paper reports for a single 256-PE OS chiplet
//! (§III–§IV) is recorded here and compared against the model's output;
//! the golden tests in this module are the evidence that the simulator
//! reproduces the paper's per-layer oracle.

use serde::{Deserialize, Serialize};

use npu_dnn::models::attention::{fusion_block, FusionConfig};
use npu_dnn::models::{fe_bfpn, BifpnConfig, FeConfig};
use npu_tensor::Seconds;

use crate::accelerator::Accelerator;
use crate::cost::{CostModel, FittedMaestro};
use crate::report::graph_cost;

/// Paper: S_FUSE QKV projection latency on one chiplet (§IV-B).
pub const PAPER_S_QKV_MS: f64 = 78.7;
/// Paper: S_FUSE self-attention latency on one chiplet (§IV-B).
pub const PAPER_S_ATTN_MS: f64 = 20.5;
/// Paper: S_FUSE FFN latency on one chiplet (§IV-B).
pub const PAPER_S_FFN_MS: f64 = 236.0;
/// Paper: T_FUSE QKV projection latency on one chiplet (§IV-B).
pub const PAPER_T_QKV_MS: f64 = 165.6;
/// Paper: T_FUSE self-attention latency on one chiplet (§IV-B).
pub const PAPER_T_ATTN_MS: f64 = 36.4;
/// Paper: T_FUSE FFN latency on one chiplet (§IV-B).
pub const PAPER_T_FFN_MS: f64 = 490.2;
/// Paper: FE+BFPN per-camera latency, the base pipelining latency (§IV-A).
pub const PAPER_FE_E2E_MS: f64 = 82.69;
/// Paper: average OS-over-WS speedup across workloads (§III-A).
pub const PAPER_OS_WS_SPEEDUP: f64 = 6.85;
/// Paper: WS energy-efficiency gain over OS including fusion (§III-A).
pub const PAPER_WS_ENERGY_GAIN: f64 = 1.2;
/// Paper: WS energy-efficiency gain excluding fusion stages (§III-A).
pub const PAPER_WS_ENERGY_GAIN_NO_FUSION: f64 = 1.55;

/// One calibration comparison row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibRow {
    /// What is being compared.
    pub quantity: String,
    /// The paper's value.
    pub paper: f64,
    /// This model's value.
    pub measured: f64,
}

impl CalibRow {
    /// Relative error `|measured - paper| / paper`.
    pub fn relative_error(&self) -> f64 {
        ((self.measured - self.paper) / self.paper).abs()
    }
}

/// Computes the full calibration table: per-layer latencies on a single
/// 256-PE OS chiplet against the paper's published values.
pub fn calibration_table() -> Vec<CalibRow> {
    let model = FittedMaestro::new();
    let os = Accelerator::shidiannao_like(256);

    let ms = |s: Seconds| s.as_millis();
    let layer_ms = |graph: &npu_dnn::Graph, name: &str| -> f64 {
        let id = graph.find(name).unwrap_or_else(|| panic!("layer {name}"));
        ms(model.layer_cost(graph.layer(id), &os).latency)
    };

    let s = fusion_block(&FusionConfig::spatial_default());
    let t = fusion_block(&FusionConfig::temporal_default());
    let fe = fe_bfpn(&FeConfig::default(), &BifpnConfig::default());
    let fe_ms = ms(graph_cost(&model, &fe, &os).serial_latency());

    let s_attn = layer_ms(&s, "s_fuse.attn.score") + layer_ms(&s, "s_fuse.attn.ctx");
    let t_attn = layer_ms(&t, "t_fuse.attn.score") + layer_ms(&t, "t_fuse.attn.ctx");

    vec![
        CalibRow {
            quantity: "FE+BFPN e2e [ms]".into(),
            paper: PAPER_FE_E2E_MS,
            measured: fe_ms,
        },
        CalibRow {
            quantity: "S_FUSE qkv [ms]".into(),
            paper: PAPER_S_QKV_MS,
            measured: layer_ms(&s, "s_fuse.qkv"),
        },
        CalibRow {
            quantity: "S_FUSE attn [ms]".into(),
            paper: PAPER_S_ATTN_MS,
            measured: s_attn,
        },
        CalibRow {
            quantity: "S_FUSE ffn [ms]".into(),
            paper: PAPER_S_FFN_MS,
            measured: layer_ms(&s, "s_fuse.ffn"),
        },
        CalibRow {
            quantity: "T_FUSE qkv [ms]".into(),
            paper: PAPER_T_QKV_MS,
            measured: layer_ms(&t, "t_fuse.qkv"),
        },
        CalibRow {
            quantity: "T_FUSE attn [ms]".into(),
            paper: PAPER_T_ATTN_MS,
            measured: t_attn,
        },
        CalibRow {
            quantity: "T_FUSE ffn [ms]".into(),
            paper: PAPER_T_FFN_MS,
            measured: layer_ms(&t, "t_fuse.ffn"),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tightly-fitted quantities must sit within a few percent of the
    /// paper; the structurally-derived ones within a looser band.
    #[test]
    fn calibration_within_tolerance() {
        for row in calibration_table() {
            let tol = match row.quantity.as_str() {
                // Directly calibrated via the fusion blocks' token counts.
                "S_FUSE qkv [ms]" | "S_FUSE attn [ms]" | "T_FUSE qkv [ms]" | "T_FUSE attn [ms]" => {
                    0.05
                }
                // Structure-derived: the paper's exact token/hidden sizes
                // for these are not recoverable; shapes hold within ~12%.
                _ => 0.13,
            };
            assert!(
                row.relative_error() <= tol,
                "{}: paper {:.2}, measured {:.2} ({:.1}% off, tol {:.0}%)",
                row.quantity,
                row.paper,
                row.measured,
                row.relative_error() * 100.0,
                tol * 100.0
            );
        }
    }

    /// Fusion stages must dominate single-chiplet latency with the paper's
    /// shares: S_FUSE 25-28%, T_FUSE 52-54% (§III-A).
    #[test]
    fn fusion_shares_match_fig3() {
        let t: f64 = calibration_table()
            .iter()
            .filter(|r| r.quantity.starts_with("T_FUSE"))
            .map(|r| r.measured)
            .sum();
        let s: f64 = calibration_table()
            .iter()
            .filter(|r| r.quantity.starts_with("S_FUSE"))
            .map(|r| r.measured)
            .sum();
        let fe = calibration_table()[0].measured;
        // Fig. 3's breakdown uses the per-camera FE plus trunks (~91 ms).
        let total = fe + s + t + 91.0;
        let s_share = s / total;
        let t_share = t / total;
        assert!((0.22..0.32).contains(&s_share), "S share {s_share:.3}");
        assert!((0.46..0.60).contains(&t_share), "T share {t_share:.3}");
    }
}
