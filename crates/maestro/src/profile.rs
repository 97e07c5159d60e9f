//! Fitted per-op-class cost coefficients.
//!
//! The mechanistic mapping model (`mapping`) explains *where* PEs are busy;
//! the remaining gap to the paper's published MAESTRO measurements is
//! carried by two fitted coefficient sets per dataflow:
//!
//! * `stall` — a latency multiplier ≥ 1 per op class modelling operand
//!   delivery serialization (weight streaming, partial-sum read-modify-
//!   write) that the mapping alone does not capture.
//! * `energy_per_mac` — effective pJ/MAC per op class, including the
//!   memory-hierarchy traffic energy amortized per MAC.
//!
//! Every constant is documented with the paper evidence it was fitted to;
//! swap in your own [`DataflowProfile`] to model different silicon.

use serde::{Deserialize, Serialize};

use npu_dnn::OpClass;
use npu_tensor::Joules;

/// Per-op-class coefficients of one dataflow.
///
/// # Examples
///
/// ```
/// use npu_dnn::OpClass;
/// use npu_maestro::DataflowProfile;
///
/// let ws = DataflowProfile::nvdla_like();
/// // WS pays a ~6.85x serialization penalty on convolutions (paper §III-A).
/// assert!((ws.stall(OpClass::Conv) - 6.85).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowProfile {
    name: String,
    stall_conv: f64,
    stall_deconv: f64,
    stall_linear: f64,
    stall_attention: f64,
    stall_memory: f64,
    epm_conv_pj: f64,
    epm_deconv_pj: f64,
    epm_linear_pj: f64,
    epm_attention_pj: f64,
    epm_memory_pj: f64,
    /// Array-scaling exponent: effective throughput of arrays larger than
    /// the 256-PE reference chiplet scales as `(pes/256)^(1-alpha)`.
    alpha: f64,
}

/// The reference chiplet size all scaling is expressed against.
pub const REFERENCE_PES: u64 = 256;

impl DataflowProfile {
    /// Shidiannao-like (output-stationary) profile.
    ///
    /// Fitted constants (`tests/paper_claims.rs` checks the claims they
    /// reproduce):
    /// * stalls are 1.0 — OS is compute-bound; the token-column starvation
    ///   is modelled mechanistically by the mapping.
    /// * energy: conv 4.0 pJ/MAC, deconv 3.3, linear/attention 3.4 —
    ///   chosen so stage energies land near Figs. 6–8 / Table I and the
    ///   WS-vs-OS ratios of Fig. 3 hold (WS 1.2× better overall, 1.55×
    ///   excluding fusion).
    /// * `alpha = 0.981` — the paper's monolithic 9216-PE baseline shows
    ///   near-zero speedup over the serial chiplet sum (Table II: 1.8 s),
    ///   i.e. 36× the PEs buy only ≈7% throughput.
    pub fn shidiannao_like() -> Self {
        DataflowProfile {
            name: "shidiannao-like".to_string(),
            stall_conv: 1.0,
            stall_deconv: 1.0,
            stall_linear: 1.0,
            stall_attention: 1.0,
            stall_memory: 1.0,
            epm_conv_pj: 4.0,
            epm_deconv_pj: 3.3,
            epm_linear_pj: 3.4,
            epm_attention_pj: 3.4,
            epm_memory_pj: 0.2,
            alpha: 0.981,
        }
    }

    /// NVDLA-like (weight-stationary) profile.
    ///
    /// Fitted constants (`tests/paper_claims.rs` checks the claims they
    /// reproduce):
    /// * conv/deconv stall 6.85 — the paper's §III-A "OS dataflow offers
    ///   6.85× speedups over its WS counterparts".
    /// * linear/attention stall 110 — with the WS mapping keeping the full
    ///   256-PE cross-section busy, 110 yields a ≈6.9× OS advantage on
    ///   token ops (paper Fig. 4: fusion layers strongly OS-affine), and
    ///   drives the WS-only trunk configuration to the ≈6.6× end-to-end
    ///   disadvantage of Table I.
    /// * energy: conv-class = OS/1.55 (paper: 1.55× WS efficiency gain
    ///   excluding fusion; also yields DET_TR's −35% energy on WS),
    ///   linear-class = OS × 1.25 (fusion layers are OS-affine in energy).
    pub fn nvdla_like() -> Self {
        DataflowProfile {
            name: "nvdla-like".to_string(),
            stall_conv: 6.85,
            stall_deconv: 6.85,
            stall_linear: 110.0,
            stall_attention: 110.0,
            stall_memory: 1.0,
            epm_conv_pj: 4.0 / 1.55,
            epm_deconv_pj: 3.3 / 1.55,
            epm_linear_pj: 3.4 * 1.25,
            epm_attention_pj: 3.4 * 1.25,
            epm_memory_pj: 0.2,
            alpha: 0.981,
        }
    }

    /// Eyeriss-like (row-stationary) profile — an extension beyond the
    /// paper, with literature-informed (NOT paper-fitted) coefficients:
    /// row reuse makes it the energy-balanced middle ground, a bit slower
    /// than OS on spatial layers and substantially better than OS on
    /// token-shaped ops (its 1-D row mapping does not starve on `X = 1`).
    pub fn eyeriss_like() -> Self {
        DataflowProfile {
            name: "eyeriss-like".to_string(),
            stall_conv: 1.6,
            stall_deconv: 1.6,
            stall_linear: 8.0,
            stall_attention: 8.0,
            stall_memory: 1.0,
            epm_conv_pj: 3.2,
            epm_deconv_pj: 2.8,
            epm_linear_pj: 3.8,
            epm_attention_pj: 3.8,
            epm_memory_pj: 0.2,
            alpha: 0.981,
        }
    }

    /// Profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Latency multiplier (≥ 1) for the op class.
    pub fn stall(&self, class: OpClass) -> f64 {
        match class {
            OpClass::Conv => self.stall_conv,
            OpClass::Deconv => self.stall_deconv,
            OpClass::Linear => self.stall_linear,
            OpClass::Attention => self.stall_attention,
            OpClass::Memory => self.stall_memory,
        }
    }

    /// Effective energy per MAC for the op class.
    pub fn energy_per_mac(&self, class: OpClass) -> Joules {
        let pj = match class {
            OpClass::Conv => self.epm_conv_pj,
            OpClass::Deconv => self.epm_deconv_pj,
            OpClass::Linear => self.epm_linear_pj,
            OpClass::Attention => self.epm_attention_pj,
            OpClass::Memory => self.epm_memory_pj,
        };
        Joules::from_picojoules(pj)
    }

    /// Array-scaling efficiency for an array of `pes` PEs relative to the
    /// 256-PE reference chiplet: `(pes/256)^(1-alpha) / (pes/256)`.
    ///
    /// Multiplying the reference-chiplet throughput by
    /// `(pes/256) × scaling_efficiency(pes)` gives the large-array
    /// throughput; at `alpha ≈ 0.98` a 9216-PE monolith is only ≈7% faster
    /// than one 256-PE chiplet, matching Table II.
    pub fn scaling_efficiency(&self, pes: u64) -> f64 {
        if pes <= REFERENCE_PES {
            return 1.0;
        }
        let ratio = pes as f64 / REFERENCE_PES as f64;
        ratio.powf(-self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ws_conv_energy_is_55_percent_better() {
        let os = DataflowProfile::shidiannao_like();
        let ws = DataflowProfile::nvdla_like();
        let ratio = os.energy_per_mac(OpClass::Conv) / ws.energy_per_mac(OpClass::Conv);
        assert!((ratio - 1.55).abs() < 1e-9);
    }

    #[test]
    fn ws_linear_energy_is_worse() {
        let os = DataflowProfile::shidiannao_like();
        let ws = DataflowProfile::nvdla_like();
        assert!(ws.energy_per_mac(OpClass::Linear) > os.energy_per_mac(OpClass::Linear));
    }

    #[test]
    fn scaling_efficiency_matches_table2_story() {
        let p = DataflowProfile::shidiannao_like();
        assert_eq!(p.scaling_efficiency(256), 1.0);
        assert_eq!(p.scaling_efficiency(64), 1.0);
        // 36x PEs -> ~7% total speedup.
        let speedup = 36.0 * p.scaling_efficiency(9216);
        assert!((1.0..1.15).contains(&speedup), "got {speedup}");
    }
}
