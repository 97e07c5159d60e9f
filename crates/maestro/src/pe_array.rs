//! Processing-element array geometry.

use std::fmt;

use serde::{Deserialize, Serialize};

use npu_tensor::Hertz;

/// A 2-D array of processing elements.
///
/// The paper's chiplets are 256-PE (16×16) accelerators at 2 GHz; the
/// monolithic baselines are 9216-PE (96×96), 4608-PE (64×72) and 2304-PE
/// (48×48) arrays with the same total PE budget.
///
/// # Examples
///
/// ```
/// use npu_maestro::PeArray;
///
/// let chiplet = PeArray::square_ish(256);
/// assert_eq!(chiplet.dims(), (16, 16));
/// let fsd = PeArray::square_ish(9216);
/// assert_eq!(fsd.dims(), (96, 96));
/// let half = PeArray::square_ish(4608);
/// assert_eq!(half.dims(), (64, 72));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeArray {
    rows: u64,
    cols: u64,
    frequency: Hertz,
}

impl PeArray {
    /// Creates an array with explicit geometry at the default 2 GHz.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(rows: u64, cols: u64) -> Self {
        assert!(rows > 0 && cols > 0, "PE array extents must be positive");
        PeArray {
            rows,
            cols,
            frequency: Hertz::default(),
        }
    }

    /// Creates the most square factorization of `pes` (rows ≤ cols, rows
    /// maximal).
    ///
    /// # Panics
    ///
    /// Panics if `pes` is zero.
    pub fn square_ish(pes: u64) -> Self {
        assert!(pes > 0, "PE count must be positive");
        let mut rows = (pes as f64).sqrt() as u64;
        while rows > 1 && !pes.is_multiple_of(rows) {
            rows -= 1;
        }
        PeArray::new(rows, pes / rows)
    }

    /// Sets the clock frequency (builder style).
    pub fn with_frequency(mut self, f: Hertz) -> Self {
        self.frequency = f;
        self
    }

    /// Total PE count.
    pub fn pes(&self) -> u64 {
        self.rows * self.cols
    }

    /// `(rows, cols)` geometry.
    pub fn dims(&self) -> (u64, u64) {
        (self.rows, self.cols)
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Clock frequency.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }
}

impl fmt::Display for PeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} PEs @ {}", self.rows, self.cols, self.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_geometries() {
        assert_eq!(PeArray::square_ish(256).dims(), (16, 16));
        assert_eq!(PeArray::square_ish(2304).dims(), (48, 48));
        assert_eq!(PeArray::square_ish(4608).dims(), (64, 72));
        assert_eq!(PeArray::square_ish(9216).dims(), (96, 96));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pes_rejected() {
        let _ = PeArray::square_ish(0);
    }

    #[test]
    fn display() {
        assert_eq!(PeArray::new(16, 16).to_string(), "16x16 PEs @ 2.00 GHz");
    }

    proptest! {
        #[test]
        fn square_ish_preserves_pe_count(pes in 1u64..20_000) {
            let a = PeArray::square_ish(pes);
            prop_assert_eq!(a.pes(), pes);
            prop_assert!(a.rows() <= a.cols());
        }
    }
}
