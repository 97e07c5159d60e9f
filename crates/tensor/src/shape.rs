//! Tensor shapes with element and byte accounting.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dtype::Dtype;
use crate::units::Bytes;

/// A 4-D tensor shape in `N × C × H × W` layout.
///
/// All feature maps exchanged between perception-pipeline stages are
/// described by this shape; 2-D token matrices (attention operands) use the
/// [`TensorShape::tokens`] constructor which folds the token count into
/// `H × W = tokens × 1`.
///
/// # Examples
///
/// ```
/// use npu_tensor::{Dtype, TensorShape};
///
/// // One camera's multiscale feature (stride 8): 90x160x256.
/// let p3 = TensorShape::nchw(1, 256, 90, 160);
/// assert_eq!(p3.elements(), 256 * 90 * 160);
///
/// // 12,800 fused camera tokens at d=256.
/// let toks = TensorShape::tokens(12_800, 256);
/// assert_eq!(toks.bytes(Dtype::Fp16).as_u64(), 12_800 * 256 * 2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TensorShape {
    n: u64,
    c: u64,
    h: u64,
    w: u64,
}

impl TensorShape {
    /// Creates a shape from explicit `N, C, H, W` extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero — zero-sized tensors are always a
    /// workload-construction bug (C-VALIDATE).
    pub fn nchw(n: u64, c: u64, h: u64, w: u64) -> Self {
        assert!(
            n > 0 && c > 0 && h > 0 && w > 0,
            "tensor extents must be positive, got {n}x{c}x{h}x{w}"
        );
        TensorShape { n, c, h, w }
    }

    /// Creates a token-matrix shape (`tokens × features`), stored as
    /// `1 × features × tokens × 1`.
    ///
    /// Token-shaped operands are what starves the Shidiannao-style 2-D
    /// output mapping (see `npu-maestro`): their `W` extent is 1.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` or `features` is zero.
    pub fn tokens(tokens: u64, features: u64) -> Self {
        TensorShape::nchw(1, features, tokens, 1)
    }

    /// Creates a flat vector shape (`1 × len × 1 × 1`).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn vector(len: u64) -> Self {
        TensorShape::nchw(1, len, 1, 1)
    }

    /// Batch extent.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Channel / feature extent.
    pub fn c(&self) -> u64 {
        self.c
    }

    /// Height (or token-count) extent.
    pub fn h(&self) -> u64 {
        self.h
    }

    /// Width extent.
    pub fn w(&self) -> u64 {
        self.w
    }

    /// Total number of elements.
    pub fn elements(&self) -> u64 {
        self.n * self.c * self.h * self.w
    }

    /// Total size at the given datatype.
    pub fn bytes(&self, dtype: Dtype) -> Bytes {
        dtype.sized(self.elements())
    }

    /// Spatial extent `H × W`.
    pub fn spatial(&self) -> u64 {
        self.h * self.w
    }

    /// Returns a copy with a different channel extent.
    ///
    /// # Panics
    ///
    /// Panics if `c` is zero.
    pub fn with_c(&self, c: u64) -> Self {
        TensorShape::nchw(self.n, c, self.h, self.w)
    }

    /// Splits the shape into `parts` roughly equal slices along the token /
    /// height axis, returning the per-part heights. Used by the scheduler's
    /// token-split sharding.
    ///
    /// The returned vector has exactly `min(parts, h)` entries that sum to
    /// `h`, each differing by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn split_h(&self, parts: u64) -> Vec<u64> {
        assert!(parts > 0, "cannot split into zero parts");
        let parts = parts.min(self.h);
        let base = self.h / parts;
        let rem = self.h % parts;
        (0..parts)
            .map(|i| if i < rem { base + 1 } else { base })
            .collect()
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn element_and_byte_counts() {
        let s = TensorShape::nchw(8, 256, 20, 80);
        assert_eq!(s.elements(), 8 * 256 * 20 * 80);
        assert_eq!(s.bytes(Dtype::Fp16).as_u64(), s.elements() * 2);
        assert_eq!(s.spatial(), 1600);
    }

    #[test]
    fn token_constructor_folds_into_h() {
        let s = TensorShape::tokens(12_800, 256);
        assert_eq!(s.h(), 12_800);
        assert_eq!(s.w(), 1);
        assert_eq!(s.c(), 256);
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_panics() {
        let _ = TensorShape::nchw(1, 0, 2, 2);
    }

    #[test]
    fn display_format() {
        assert_eq!(TensorShape::nchw(1, 256, 20, 80).to_string(), "1x256x20x80");
    }

    proptest! {
        #[test]
        fn split_h_parts_sum_to_h(h in 1u64..5000, parts in 1u64..64) {
            let s = TensorShape::nchw(1, 4, h, 3);
            let splits = s.split_h(parts);
            prop_assert_eq!(splits.iter().sum::<u64>(), h);
            prop_assert_eq!(splits.len() as u64, parts.min(h));
            let min = splits.iter().min().unwrap();
            let max = splits.iter().max().unwrap();
            prop_assert!(max - min <= 1, "splits must be balanced");
        }

        #[test]
        fn bytes_scale_linearly_with_elements(c in 1u64..512, h in 1u64..256, w in 1u64..256) {
            let s = TensorShape::nchw(1, c, h, w);
            prop_assert_eq!(s.bytes(Dtype::Fp32).as_u64(), 2 * s.bytes(Dtype::Fp16).as_u64());
            prop_assert_eq!(s.bytes(Dtype::Fp16).as_u64(), 2 * s.bytes(Dtype::Int8).as_u64());
        }
    }
}
