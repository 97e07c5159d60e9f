//! Tensor operators with MAC and operand-size accounting.

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_tensor::{Bytes, Dtype, MacCount, TensorShape};

/// The kind of a DNN layer.
///
/// Each variant carries the parameters needed to count multiply-accumulate
/// operations and operand sizes, and to derive the MAESTRO-style mapping
/// dimensions used by the cost models.
///
/// # Examples
///
/// ```
/// use npu_dnn::OpKind;
///
/// // The S_FUSE QKV projection of the paper: 12,800 camera tokens,
/// // d=256 projected to Q,K,V (3x256).
/// let qkv = OpKind::Dense { tokens: 12_800, in_features: 256, out_features: 768 };
/// let out = qkv.intrinsic_out_shape().unwrap();
/// assert_eq!(qkv.macs(out).as_u64(), 12_800 * 256 * 768);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Standard 2-D convolution. `kernel` is `(r, s)`, `stride` applies to
    /// both spatial dims. MACs are counted over the *output* feature map.
    Conv2d {
        /// Input channels.
        in_ch: u64,
        /// Output channels.
        out_ch: u64,
        /// Kernel extents `(r, s)`.
        kernel: (u64, u64),
        /// Spatial stride.
        stride: u64,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DwConv2d {
        /// Channels (input == output).
        ch: u64,
        /// Kernel extents `(r, s)`.
        kernel: (u64, u64),
        /// Spatial stride.
        stride: u64,
    },
    /// Transposed convolution upsampling by `upscale` in each spatial dim.
    ///
    /// MACs are counted on the output map divided by `upscale^2`: each
    /// output pixel receives `r*s / upscale^2` valid taps on average.
    Deconv2d {
        /// Input channels.
        in_ch: u64,
        /// Output channels.
        out_ch: u64,
        /// Kernel extents `(r, s)`.
        kernel: (u64, u64),
        /// Spatial upsampling factor (≥ 1).
        upscale: u64,
    },
    /// Fully-connected layer applied independently to `tokens` tokens
    /// (a.k.a. a token-parallel GEMM: `tokens × in_features × out_features`).
    Dense {
        /// Number of tokens the layer is applied to.
        tokens: u64,
        /// Input feature dimension.
        in_features: u64,
        /// Output feature dimension.
        out_features: u64,
    },
    /// A transformer feed-forward block: two dense layers
    /// `d_model → hidden → d_model`, treated as one shardable unit as in
    /// the paper's scheduling analysis.
    Ffn {
        /// Number of tokens.
        tokens: u64,
        /// Model dimension.
        d_model: u64,
        /// Hidden dimension.
        hidden: u64,
    },
    /// Attention score computation `Q · K^T` with a bounded per-query key
    /// window (the paper's fusion attention is local/deformable: each grid
    /// cell attends to a small set of candidate features).
    AttentionScore {
        /// Number of query tokens.
        queries: u64,
        /// Keys attended per query.
        window: u64,
        /// Head-summed feature dimension.
        dim: u64,
    },
    /// Attention context aggregation `softmax(S) · V` with the same
    /// windowing as [`OpKind::AttentionScore`].
    AttentionContext {
        /// Number of query tokens.
        queries: u64,
        /// Keys attended per query.
        window: u64,
        /// Head-summed feature dimension.
        dim: u64,
    },
    /// Elementwise arithmetic (residual add, scale…). Negligible MACs.
    Eltwise,
    /// Tensor concatenation; pure data movement.
    Concat,
    /// Spatial pooling with the given kernel.
    Pool {
        /// Pooling kernel extent (square).
        kernel: u64,
    },
    /// Nearest/bilinear spatial resampling; negligible compute.
    Resample,
}

impl OpKind {
    /// Number of multiply-accumulate operations, given the layer's output
    /// shape.
    pub fn macs(&self, out: TensorShape) -> MacCount {
        let m = match *self {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                ..
            } => out.n() * out.spatial() * out_ch * in_ch * r * s,
            OpKind::DwConv2d {
                ch, kernel: (r, s), ..
            } => out.n() * out.spatial() * ch * r * s,
            OpKind::Deconv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                upscale,
            } => out.n() * out.spatial() * out_ch * in_ch * r * s / (upscale * upscale),
            OpKind::Dense {
                tokens,
                in_features,
                out_features,
            } => tokens * in_features * out_features,
            OpKind::Ffn {
                tokens,
                d_model,
                hidden,
            } => 2 * tokens * d_model * hidden,
            OpKind::AttentionScore {
                queries,
                window,
                dim,
            }
            | OpKind::AttentionContext {
                queries,
                window,
                dim,
            } => queries * window * dim,
            // Memory-class ops: count one "op" per output element so they
            // are not free, but they never dominate.
            OpKind::Eltwise | OpKind::Concat | OpKind::Resample => out.elements(),
            OpKind::Pool { kernel } => out.elements() * kernel * kernel,
        };
        MacCount::new(m)
    }

    /// Convenience wrapper: MACs for an [`OpKind`] whose output shape can
    /// be derived from its own parameters (token-shaped ops).
    ///
    /// Returns `None` for spatial ops which need an explicit output shape.
    pub fn intrinsic_out_shape(&self) -> Option<TensorShape> {
        match *self {
            OpKind::Dense {
                tokens,
                out_features,
                ..
            } => Some(TensorShape::tokens(tokens, out_features)),
            OpKind::Ffn {
                tokens, d_model, ..
            } => Some(TensorShape::tokens(tokens, d_model)),
            OpKind::AttentionScore {
                queries, window, ..
            } => Some(TensorShape::tokens(queries, window)),
            OpKind::AttentionContext { queries, dim, .. } => {
                Some(TensorShape::tokens(queries, dim))
            }
            _ => None,
        }
    }

    /// Size of the layer's trained parameters.
    pub fn weight_bytes(&self, dtype: Dtype) -> Bytes {
        let elems = match *self {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                ..
            } => in_ch * out_ch * r * s,
            OpKind::DwConv2d {
                ch, kernel: (r, s), ..
            } => ch * r * s,
            OpKind::Deconv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                ..
            } => in_ch * out_ch * r * s,
            OpKind::Dense {
                in_features,
                out_features,
                ..
            } => in_features * out_features,
            OpKind::Ffn {
                d_model, hidden, ..
            } => 2 * d_model * hidden,
            _ => 0,
        };
        dtype.sized(elems)
    }

    /// Coarse operator class used by the per-dataflow cost profiles.
    pub fn class(&self) -> OpClass {
        match self {
            OpKind::Conv2d { .. } | OpKind::DwConv2d { .. } => OpClass::Conv,
            OpKind::Deconv2d { .. } => OpClass::Deconv,
            OpKind::Dense { .. } | OpKind::Ffn { .. } => OpClass::Linear,
            OpKind::AttentionScore { .. } | OpKind::AttentionContext { .. } => OpClass::Attention,
            OpKind::Eltwise | OpKind::Concat | OpKind::Pool { .. } | OpKind::Resample => {
                OpClass::Memory
            }
        }
    }

    /// MAESTRO-style 7-D mapping dimensions for the layer, given its
    /// output shape.
    ///
    /// Convolution-class ops expose their 2-D output map as `(y, x)`;
    /// token-shaped ops (dense / FFN / attention) expose `(tokens, 1)` —
    /// the `x = 1` extent is what starves 2-D output-stationary mappings,
    /// reproducing the behaviour measured by the paper.
    pub fn dims(&self, out: TensorShape) -> OpDims {
        match *self {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                stride,
            } => OpDims {
                y: out.h(),
                x: out.w(),
                k: out_ch,
                c: in_ch,
                r,
                s,
                stride,
            },
            OpKind::DwConv2d {
                ch,
                kernel: (r, s),
                stride,
            } => OpDims {
                y: out.h(),
                x: out.w(),
                k: ch,
                c: 1,
                r,
                s,
                stride,
            },
            OpKind::Deconv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                ..
            } => OpDims {
                y: out.h(),
                x: out.w(),
                k: out_ch,
                c: in_ch,
                r,
                s,
                stride: 1,
            },
            OpKind::Dense {
                tokens,
                in_features,
                out_features,
            } => OpDims {
                y: tokens,
                x: 1,
                k: out_features,
                c: in_features,
                r: 1,
                s: 1,
                stride: 1,
            },
            OpKind::Ffn {
                tokens,
                d_model,
                hidden,
            } => OpDims {
                y: tokens,
                x: 1,
                k: hidden,
                c: d_model,
                r: 1,
                s: 1,
                stride: 1,
            },
            OpKind::AttentionScore {
                queries,
                window,
                dim,
            }
            | OpKind::AttentionContext {
                queries,
                window,
                dim,
            } => OpDims {
                y: queries,
                x: 1,
                k: window,
                c: dim,
                r: 1,
                s: 1,
                stride: 1,
            },
            OpKind::Eltwise | OpKind::Concat | OpKind::Pool { .. } | OpKind::Resample => OpDims {
                y: out.h(),
                x: out.w(),
                k: out.c(),
                c: 1,
                r: 1,
                s: 1,
                stride: 1,
            },
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                stride,
            } => write!(f, "conv{r}x{s}/{stride} {in_ch}->{out_ch}"),
            OpKind::DwConv2d {
                ch,
                kernel: (r, s),
                stride,
            } => write!(f, "dwconv{r}x{s}/{stride} ch{ch}"),
            OpKind::Deconv2d {
                in_ch,
                out_ch,
                kernel: (r, s),
                upscale,
            } => write!(f, "deconv{r}x{s}^{upscale} {in_ch}->{out_ch}"),
            OpKind::Dense {
                tokens,
                in_features,
                out_features,
            } => write!(f, "dense {tokens}t {in_features}->{out_features}"),
            OpKind::Ffn {
                tokens,
                d_model,
                hidden,
            } => write!(f, "ffn {tokens}t {d_model}<->{hidden}"),
            OpKind::AttentionScore {
                queries, window, ..
            } => write!(f, "attn-score {queries}q w{window}"),
            OpKind::AttentionContext {
                queries, window, ..
            } => write!(f, "attn-ctx {queries}q w{window}"),
            OpKind::Eltwise => write!(f, "eltwise"),
            OpKind::Concat => write!(f, "concat"),
            OpKind::Pool { kernel } => write!(f, "pool{kernel}x{kernel}"),
            OpKind::Resample => write!(f, "resample"),
        }
    }
}

/// Coarse operator class used to select cost-profile coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Standard / depthwise convolutions.
    Conv,
    /// Transposed convolutions (occupancy trunk upsampling).
    Deconv,
    /// Dense / FFN token-parallel GEMMs.
    Linear,
    /// Attention score/context matmuls.
    Attention,
    /// Data-movement ops (eltwise, concat, pool, resample).
    Memory,
}

impl OpClass {
    /// All classes, in a stable order (useful for reports).
    pub const ALL: [OpClass; 5] = [
        OpClass::Conv,
        OpClass::Deconv,
        OpClass::Linear,
        OpClass::Attention,
        OpClass::Memory,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Conv => "conv",
            OpClass::Deconv => "deconv",
            OpClass::Linear => "linear",
            OpClass::Attention => "attention",
            OpClass::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// MAESTRO-style 7-D loop-nest extents of an operator.
///
/// `y, x` are output spatial extents (or `(tokens, 1)` for token-shaped
/// ops), `k` output channels, `c` input channels, `r, s` kernel extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpDims {
    /// Output height / token count.
    pub y: u64,
    /// Output width (1 for token-shaped ops).
    pub x: u64,
    /// Output channels (or per-token output extent).
    pub k: u64,
    /// Input channels / reduction extent.
    pub c: u64,
    /// Kernel height.
    pub r: u64,
    /// Kernel width.
    pub s: u64,
    /// Spatial stride.
    pub stride: u64,
}

impl OpDims {
    /// True if the op is token-shaped (`x == 1` with many `y`): the shape
    /// that collapses 2-D output-stationary spatial mappings.
    pub fn is_token_shaped(&self) -> bool {
        self.x == 1 && self.y > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(h: u64, w: u64, c: u64) -> TensorShape {
        TensorShape::nchw(1, c, h, w)
    }

    #[test]
    fn conv_macs_match_hand_count() {
        let op = OpKind::Conv2d {
            in_ch: 256,
            out_ch: 256,
            kernel: (3, 3),
            stride: 1,
        };
        let o = out(90, 160, 256);
        assert_eq!(op.macs(o).as_u64(), 90 * 160 * 256 * 256 * 9);
    }

    #[test]
    fn dw_conv_macs() {
        let op = OpKind::DwConv2d {
            ch: 256,
            kernel: (3, 3),
            stride: 1,
        };
        assert_eq!(op.macs(out(45, 80, 256)).as_u64(), 45 * 80 * 256 * 9);
    }

    #[test]
    fn deconv_macs_divide_by_upscale_squared() {
        let op = OpKind::Deconv2d {
            in_ch: 128,
            out_ch: 128,
            kernel: (4, 4),
            upscale: 2,
        };
        // 40x160 output after 2x upscale of a 20x80 input.
        assert_eq!(
            op.macs(out(40, 160, 128)).as_u64(),
            40 * 160 * 128 * 128 * 16 / 4
        );
    }

    #[test]
    fn dense_macs_are_paper_s_fuse_qkv() {
        let op = OpKind::Dense {
            tokens: 12_800,
            in_features: 256,
            out_features: 768,
        };
        let macs = op.macs(op.intrinsic_out_shape().unwrap());
        // 2.516 GMAC -> 78.6 ms at the calibrated 32 GMAC/s linear rate.
        assert!((macs.as_gmacs() - 2.516).abs() < 1e-2);
    }

    #[test]
    fn ffn_counts_both_linears() {
        let op = OpKind::Ffn {
            tokens: 16_000,
            d_model: 256,
            hidden: 1024,
        };
        let macs = op.macs(op.intrinsic_out_shape().unwrap());
        assert_eq!(macs.as_u64(), 2 * 16_000 * 256 * 1024);
    }

    #[test]
    fn attention_window_bounds_cost() {
        let score = OpKind::AttentionScore {
            queries: 16_000,
            window: 80,
            dim: 256,
        };
        let ctx = OpKind::AttentionContext {
            queries: 16_000,
            window: 80,
            dim: 256,
        };
        let total = score.macs(score.intrinsic_out_shape().unwrap()).as_u64()
            + ctx.macs(ctx.intrinsic_out_shape().unwrap()).as_u64();
        assert_eq!(total, 2 * 16_000 * 80 * 256);
    }

    #[test]
    fn classes() {
        assert_eq!(
            OpKind::Conv2d {
                in_ch: 1,
                out_ch: 1,
                kernel: (1, 1),
                stride: 1
            }
            .class(),
            OpClass::Conv
        );
        assert_eq!(
            OpKind::Deconv2d {
                in_ch: 1,
                out_ch: 1,
                kernel: (4, 4),
                upscale: 2
            }
            .class(),
            OpClass::Deconv
        );
        assert_eq!(
            OpKind::Dense {
                tokens: 1,
                in_features: 1,
                out_features: 1
            }
            .class(),
            OpClass::Linear
        );
        assert_eq!(OpKind::Eltwise.class(), OpClass::Memory);
    }

    #[test]
    fn dense_dims_are_token_shaped() {
        let op = OpKind::Dense {
            tokens: 12_800,
            in_features: 256,
            out_features: 768,
        };
        let d = op.dims(op.intrinsic_out_shape().unwrap());
        assert!(d.is_token_shaped());
        assert_eq!(d.y, 12_800);
        assert_eq!(d.k, 768);
    }

    #[test]
    fn conv_dims_are_spatial() {
        let op = OpKind::Conv2d {
            in_ch: 64,
            out_ch: 128,
            kernel: (3, 3),
            stride: 2,
        };
        let d = op.dims(out(45, 80, 128));
        assert!(!d.is_token_shaped());
        assert_eq!((d.y, d.x, d.k, d.c, d.r, d.s), (45, 80, 128, 64, 3, 3));
    }

    #[test]
    fn weight_bytes() {
        let dense = OpKind::Dense {
            tokens: 100,
            in_features: 256,
            out_features: 768,
        };
        assert_eq!(dense.weight_bytes(Dtype::Fp16).as_u64(), 256 * 768 * 2);
        assert_eq!(OpKind::Eltwise.weight_bytes(Dtype::Fp16).as_u64(), 0);
    }

    #[test]
    fn display_is_compact() {
        let op = OpKind::Conv2d {
            in_ch: 256,
            out_ch: 512,
            kernel: (3, 3),
            stride: 2,
        };
        assert_eq!(op.to_string(), "conv3x3/2 256->512");
    }
}
