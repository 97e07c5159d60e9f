//! A single named layer: operator + output shape.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use npu_tensor::{Bytes, Dtype, MacCount, TensorShape};

use crate::op::{OpClass, OpDims, OpKind};

/// A named DNN layer with a concrete output shape.
///
/// # Examples
///
/// ```
/// use npu_dnn::{Layer, OpKind};
/// use npu_tensor::TensorShape;
///
/// let l = Layer::new(
///     "s_fuse.ffn",
///     OpKind::Ffn { tokens: 16_000, d_model: 256, hidden: 1024 },
///     TensorShape::tokens(16_000, 256),
/// );
/// assert_eq!(l.macs().as_u64(), 2 * 16_000 * 256 * 1024);
/// ```
///
/// The name is shared, not owned: cloning a layer (and every schedule
/// that holds one) bumps a reference count instead of copying the bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Layer {
    name: Arc<str>,
    op: OpKind,
    out: TensorShape,
}

impl Layer {
    /// Creates a layer from a name, operator and explicit output shape.
    pub fn new(name: impl Into<String>, op: OpKind, out: TensorShape) -> Self {
        let name: String = name.into();
        Layer {
            name: name.into(),
            op,
            out,
        }
    }

    /// Creates a token-shaped layer whose output shape is implied by the
    /// operator (dense, FFN, attention).
    ///
    /// # Panics
    ///
    /// Panics if the operator is spatial and therefore has no intrinsic
    /// output shape.
    pub fn intrinsic(name: impl Into<String>, op: OpKind) -> Self {
        let out = op
            .intrinsic_out_shape()
            .expect("operator has no intrinsic output shape; use Layer::new");
        Layer::new(name, op, out)
    }

    /// Layer name (unique within a graph by convention, not enforcement).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator.
    pub fn op(&self) -> OpKind {
        self.op
    }

    /// Output shape.
    pub fn out(&self) -> TensorShape {
        self.out
    }

    /// Multiply-accumulate count.
    pub fn macs(&self) -> MacCount {
        self.op.macs(self.out)
    }

    /// Operator class for cost profiles.
    pub fn class(&self) -> OpClass {
        self.op.class()
    }

    /// MAESTRO-style mapping dims.
    pub fn dims(&self) -> OpDims {
        self.op.dims(self.out)
    }

    /// Output size at the given datatype (what flows over the NoP to
    /// consumers).
    pub fn output_bytes(&self, dtype: Dtype) -> Bytes {
        self.out.bytes(dtype)
    }

    /// Parameter size at the given datatype.
    pub fn weight_bytes(&self, dtype: Dtype) -> Bytes {
        self.op.weight_bytes(dtype)
    }

    /// Returns a renamed copy (used when instantiating template graphs).
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        Layer::new(name, self.op, self.out)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} -> {}]", self.name, self.op, self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsic_shape_for_dense() {
        let l = Layer::intrinsic(
            "qkv",
            OpKind::Dense {
                tokens: 100,
                in_features: 8,
                out_features: 24,
            },
        );
        assert_eq!(l.out(), TensorShape::tokens(100, 24));
        assert_eq!(l.name(), "qkv");
    }

    #[test]
    #[should_panic(expected = "no intrinsic output shape")]
    fn intrinsic_panics_for_spatial() {
        let _ = Layer::intrinsic("e", OpKind::Eltwise);
    }

    #[test]
    fn display_contains_name_and_shape() {
        let l = Layer::new(
            "fe.stem",
            OpKind::Conv2d {
                in_ch: 3,
                out_ch: 64,
                kernel: (7, 7),
                stride: 2,
            },
            TensorShape::nchw(1, 64, 180, 320),
        );
        let s = l.to_string();
        assert!(s.contains("fe.stem"));
        assert!(s.contains("1x64x180x320"));
    }

    #[test]
    fn renamed_preserves_op() {
        let l = Layer::intrinsic(
            "a",
            OpKind::Dense {
                tokens: 10,
                in_features: 4,
                out_features: 4,
            },
        );
        let r = l.renamed("b");
        assert_eq!(r.name(), "b");
        assert_eq!(r.op(), l.op());
    }

    #[test]
    fn clones_share_the_name_bytes() {
        let l = Layer::intrinsic(
            "s_fuse.qkv",
            OpKind::Dense {
                tokens: 10,
                in_features: 4,
                out_features: 4,
            },
        );
        let c = l.clone();
        assert_eq!(c, l);
        assert_eq!(c.name().as_ptr(), l.name().as_ptr());
        // A rename is a new name, even when the text is the same.
        assert_ne!(l.renamed("s_fuse.qkv").name().as_ptr(), l.name().as_ptr());
    }

    #[test]
    fn json_round_trip_writes_the_name_as_a_string() {
        let l = Layer::intrinsic(
            "qkv",
            OpKind::Dense {
                tokens: 10,
                in_features: 4,
                out_features: 4,
            },
        );
        let json = serde_json::to_string(&l).unwrap();
        assert!(json.starts_with(r#"{"name":"qkv","op":"#), "{json}");
        let back: Layer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
