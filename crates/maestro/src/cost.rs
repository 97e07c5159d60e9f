//! Per-layer cost models.

use serde::{Deserialize, Serialize};

use npu_dnn::Layer;
use npu_tensor::{Dtype, Joules, MacCount, Seconds};

use crate::accelerator::Accelerator;
use crate::mapping;
use crate::pe_array::PeArray;
use crate::profile::REFERENCE_PES;

/// The cost of executing one layer (or layer shard) on one accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Execution latency.
    pub latency: Seconds,
    /// Compute energy.
    pub energy: Joules,
    /// MACs executed.
    pub macs: MacCount,
    /// Average PEs the mapping keeps busy on the *actual* array (the
    /// paper's "PEs utilization" metric numerator).
    pub active_pes: f64,
    /// Total PEs of the array the layer ran on.
    pub peak_pes: u64,
}

impl LayerCost {
    /// Mapping utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.active_pes / self.peak_pes as f64
    }

    /// A zero cost on the given array (used for elided layers).
    pub fn zero(peak_pes: u64) -> Self {
        LayerCost {
            latency: Seconds::ZERO,
            energy: Joules::ZERO,
            macs: MacCount::ZERO,
            active_pes: 0.0,
            peak_pes,
        }
    }
}

/// An analytical per-layer cost oracle.
///
/// Implementations must be deterministic: the schedulers call them
/// repeatedly during search — the same `(accelerator, layer)` many times
/// per match — and rely on every repeat returning the same bits. They
/// must also be `Send + Sync`: the parallel sweep executor (`npu-par`)
/// shares one model across worker threads, so any interior state must
/// be thread-safe. Consumers call the model directly, with no cache in
/// front, so implementations should be cheap: [`FittedMaestro`] answers
/// in ~44 ns.
pub trait CostModel: Send + Sync {
    /// Cost of `layer` on `acc`.
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost;

    /// Model name for reports.
    fn name(&self) -> &str;
}

/// The default, paper-calibrated cost model.
///
/// Latency: `macs / (active_ref / stall × array_scale × f)` where
/// `active_ref` is the mechanistic mapping occupancy on the 256-PE
/// reference chiplet, `stall` the fitted per-class serialization factor,
/// and `array_scale` the fitted large-array scaling `(pes/256)^(1-alpha)`
/// relative to the reference chiplet (see [`DataflowProfile`](crate::DataflowProfile)).
/// Energy: `macs × energy_per_mac(class)`.
///
/// # Examples
///
/// ```
/// use npu_dnn::{Layer, OpKind};
/// use npu_maestro::{Accelerator, CostModel, FittedMaestro};
/// use npu_tensor::TensorShape;
///
/// let model = FittedMaestro::default();
/// let os = Accelerator::shidiannao_like(256);
/// let conv = Layer::new(
///     "conv",
///     OpKind::Conv2d { in_ch: 224, out_ch: 224, kernel: (3, 3), stride: 1 },
///     TensorShape::nchw(1, 224, 90, 160),
/// );
/// let c = model.layer_cost(&conv, &os);
/// assert!(c.utilization() > 0.9); // spatial convs fill the OS chiplet
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FittedMaestro {
    _private: (),
}

impl FittedMaestro {
    /// Creates the calibrated model.
    pub fn new() -> Self {
        FittedMaestro::default()
    }
}

impl CostModel for FittedMaestro {
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost {
        let dims = layer.dims();
        let class = layer.class();
        let macs = layer.macs();
        let array = acc.array();
        let profile = acc.profile();

        // Reference-chiplet occupancy: arrays at or below the reference
        // size are evaluated directly; larger arrays get the reference
        // occupancy scaled by the fitted array-scaling efficiency.
        let pes = array.pes();
        let rate_macs_per_cycle = if pes <= REFERENCE_PES {
            mapping::active_pes(acc.dataflow(), dims, array) / profile.stall(class)
        } else {
            let reference = PeArray::square_ish(REFERENCE_PES).with_frequency(array.frequency());
            let active_ref = mapping::active_pes(acc.dataflow(), dims, &reference);
            active_ref / profile.stall(class)
                * (pes as f64 / REFERENCE_PES as f64)
                * profile.scaling_efficiency(pes)
        };

        let latency =
            Seconds::new(macs.as_f64() / (rate_macs_per_cycle * array.frequency().as_hz()));
        let energy = profile.energy_per_mac(class) * macs.as_f64();

        LayerCost {
            latency,
            energy,
            macs,
            active_pes: mapping::active_pes(acc.dataflow(), dims, array),
            peak_pes: pes,
        }
    }

    fn name(&self) -> &str {
        "fitted-maestro"
    }
}

/// An independent first-principles roofline model, provided for ablation.
///
/// Latency is `max(compute, DRAM traffic / bandwidth)` with compute at the
/// mechanistic mapping occupancy of the *actual* array and no fitted stall
/// factors. It deliberately does **not** reproduce the paper's monolithic
/// baselines (a pure roofline predicts large arrays speed up almost
/// linearly on conv layers) — comparing the two models quantifies how much
/// of the paper's result depends on MAESTRO's dataflow serialization
/// effects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FirstPrinciples {
    /// Off-accelerator memory bandwidth in bytes/second.
    pub dram_bytes_per_sec: f64,
    /// Energy per MAC in pJ.
    pub mac_pj: f64,
    /// Energy per DRAM byte in pJ.
    pub dram_pj_per_byte: f64,
    /// Datatype used for traffic accounting.
    pub dtype: Dtype,
}

impl Default for FirstPrinciples {
    /// LPDDR4-class bandwidth and 28 nm-class energies.
    fn default() -> Self {
        FirstPrinciples {
            dram_bytes_per_sec: 64.0e9,
            mac_pj: 1.2,
            dram_pj_per_byte: 20.0,
            dtype: Dtype::Fp16,
        }
    }
}

impl FirstPrinciples {
    fn traffic_bytes(&self, layer: &Layer) -> f64 {
        let out = layer.output_bytes(self.dtype).as_f64();
        let weights = layer.weight_bytes(self.dtype).as_f64();
        // Input estimate: reduction extent per output element times output
        // count, discounted by typical halo/stream reuse.
        let dims = layer.dims();
        let input_elems = (dims.y * dims.x * dims.c) as f64 * dims.stride as f64;
        let input = input_elems * self.dtype.bytes_per_element() as f64;
        out + weights + input
    }
}

impl CostModel for FirstPrinciples {
    fn layer_cost(&self, layer: &Layer, acc: &Accelerator) -> LayerCost {
        let macs = layer.macs();
        let array = acc.array();
        let active = mapping::active_pes(acc.dataflow(), layer.dims(), array);
        let compute = macs.as_f64() / (active * array.frequency().as_hz());
        let traffic = self.traffic_bytes(layer);
        let mem = traffic / self.dram_bytes_per_sec;
        let latency = Seconds::new(compute.max(mem));
        let energy =
            Joules::from_picojoules(macs.as_f64() * self.mac_pj + traffic * self.dram_pj_per_byte);
        LayerCost {
            latency,
            energy,
            macs,
            active_pes: active,
            peak_pes: array.pes(),
        }
    }

    fn name(&self) -> &str {
        "first-principles"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dnn::OpKind;
    use npu_tensor::TensorShape;

    fn qkv() -> Layer {
        Layer::intrinsic(
            "s_fuse.qkv",
            OpKind::Dense {
                tokens: 12_800,
                in_features: 256,
                out_features: 768,
            },
        )
    }

    fn big_conv() -> Layer {
        Layer::new(
            "conv",
            OpKind::Conv2d {
                in_ch: 224,
                out_ch: 224,
                kernel: (3, 3),
                stride: 1,
            },
            TensorShape::nchw(1, 224, 90, 160),
        )
    }

    #[test]
    fn linear_rate_is_32_gmacs_on_os_chiplet() {
        let c = FittedMaestro::new().layer_cost(&qkv(), &Accelerator::shidiannao_like(256));
        let rate = c.macs.as_f64() / c.latency.as_secs() / 1e9;
        assert!((rate - 32.0).abs() < 0.5, "got {rate} GMAC/s");
        // The paper's S_FUSE QKV latency: 78.7 ms.
        assert!((c.latency.as_millis() - 78.6).abs() < 1.0);
    }

    #[test]
    fn ws_is_much_slower_on_linear_ops() {
        let m = FittedMaestro::new();
        let os = m.layer_cost(&qkv(), &Accelerator::shidiannao_like(256));
        let ws = m.layer_cost(&qkv(), &Accelerator::nvdla_like(256));
        let ratio = ws.latency / os.latency;
        assert!(
            (6.0..8.0).contains(&ratio),
            "fusion layers are strongly OS-affine, got {ratio:.2}"
        );
    }

    #[test]
    fn ws_is_6_85x_slower_on_convs() {
        let m = FittedMaestro::new();
        let os = m.layer_cost(&big_conv(), &Accelerator::shidiannao_like(256));
        let ws = m.layer_cost(&big_conv(), &Accelerator::nvdla_like(256));
        let ratio = ws.latency / os.latency;
        assert!((6.0..7.2).contains(&ratio), "got {ratio:.2}");
        // ...but 1.55x more energy-efficient.
        let e_ratio = os.energy / ws.energy;
        assert!((e_ratio - 1.55).abs() < 1e-6, "got {e_ratio}");
    }

    #[test]
    fn monolithic_array_barely_speeds_up() {
        let m = FittedMaestro::new();
        let chiplet = m.layer_cost(&qkv(), &Accelerator::shidiannao_like(256));
        let mono = m.layer_cost(&qkv(), &Accelerator::shidiannao_like(9216));
        let speedup = chiplet.latency / mono.latency;
        assert!(
            (1.0..1.2).contains(&speedup),
            "Table II: 36x PEs buy ~7% on one layer, got {speedup:.3}"
        );
    }

    #[test]
    fn utilization_metric_uses_actual_array() {
        let m = FittedMaestro::new();
        let mono = m.layer_cost(&qkv(), &Accelerator::shidiannao_like(9216));
        // One 96-PE column of a 96x96 array: ~1% utilization.
        assert!((mono.utilization() - 96.0 / 9216.0).abs() < 1e-9);
        let chiplet = m.layer_cost(&big_conv(), &Accelerator::shidiannao_like(256));
        assert!(chiplet.utilization() > 0.9);
    }

    #[test]
    fn energy_is_array_size_independent() {
        let m = FittedMaestro::new();
        let a = m.layer_cost(&qkv(), &Accelerator::shidiannao_like(256));
        let b = m.layer_cost(&qkv(), &Accelerator::shidiannao_like(9216));
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn first_principles_differs_from_fitted_on_monoliths() {
        let fp = FirstPrinciples::default();
        let chiplet = fp.layer_cost(&big_conv(), &Accelerator::shidiannao_like(256));
        let mono = fp.layer_cost(&big_conv(), &Accelerator::shidiannao_like(9216));
        // Roofline: the monolith is much faster on spatial convs (this is
        // exactly the effect MAESTRO's dataflow modelling removes).
        assert!(mono.latency.as_secs() < chiplet.latency.as_secs() * 0.5);
    }

    #[test]
    fn layer_cost_zero() {
        let z = LayerCost::zero(256);
        assert!(z.latency.is_zero());
        assert_eq!(z.utilization(), 0.0);
    }
}
