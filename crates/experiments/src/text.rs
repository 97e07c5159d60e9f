//! Text rendering helpers shared by the experiment modules.

pub(crate) use npu_study::TextTable;

/// Formats a millisecond quantity.
pub(crate) fn ms(s: npu_tensor::Seconds) -> String {
    format!("{:.2}", s.as_millis())
}

/// Formats a relative delta as a signed percentage.
pub(crate) fn pct(ours: f64, reference: f64) -> String {
    format!("{:+.1}%", (ours / reference - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_signs() {
        assert_eq!(pct(110.0, 100.0), "+10.0%");
        assert_eq!(pct(90.0, 100.0), "-10.0%");
    }
}
