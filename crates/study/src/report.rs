//! Rendering: aligned text tables, the text+JSON [`Render`] surface and
//! the [`StudyReport`] carrier pairing a typed result with its table.

use std::fmt;

use serde::Serialize;

/// A column-aligned text table with a title.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a free-text note rendered under the table.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "\n=== {} ===", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, "{cell:>w$}  ", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  * {n}")?;
        }
        Ok(())
    }
}

/// One computed result rendered two ways — human text and machine JSON —
/// without recomputation. Implemented for free by every type that is
/// `Display + Serialize`, which covers all experiment results and
/// [`StudyReport`], so a CLI registry can hold `Box<dyn Render>` and
/// pick the output format after the (expensive) run.
pub trait Render {
    /// The human-readable rendering (aligned tables).
    fn text(&self) -> String;

    /// The machine-readable rendering (pretty-printed JSON).
    fn json(&self) -> String;
}

impl<T: fmt::Display + Serialize> Render for T {
    fn text(&self) -> String {
        self.to_string()
    }

    fn json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }
}

/// A typed study result paired with its rendered [`TextTable`]: one run,
/// both output formats. `Display` prints the table; `Serialize`
/// delegates to the typed result, so JSON consumers see the domain
/// schema, not the table strings.
///
/// # Examples
///
/// ```
/// use npu_study::{Render, StudyReport, TextTable};
/// use serde::Serialize;
///
/// #[derive(Serialize)]
/// struct Best {
///     package: String,
/// }
///
/// let mut table = TextTable::new("Winner", &["package"]);
/// table.row(vec!["6x6".into()]);
/// let report = StudyReport::new(Best { package: "6x6".into() }, table);
/// assert!(report.text().contains("=== Winner ==="));
/// assert!(report.json().contains("\"package\""));
/// ```
#[derive(Debug, Clone)]
pub struct StudyReport<R> {
    result: R,
    table: TextTable,
}

impl<R> StudyReport<R> {
    /// Pairs a computed result with its table rendering.
    pub fn new(result: R, table: TextTable) -> Self {
        StudyReport { result, table }
    }

    /// The typed result.
    pub fn result(&self) -> &R {
        &self.result
    }

    /// The table rendering.
    pub fn table(&self) -> &TextTable {
        &self.table
    }
}

impl<R> fmt::Display for StudyReport<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.table.fmt(f)
    }
}

impl<R: Serialize> Serialize for StudyReport<R> {
    fn to_value(&self) -> serde::Value {
        self.result.to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("Demo", &["a", "metric"]);
        t.row(vec!["x".into(), "1.0".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("=== Demo ==="));
        assert!(s.contains("a note"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        TextTable::new("t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn study_report_splits_text_and_json() {
        #[derive(Serialize)]
        struct R {
            n: u64,
        }
        let mut table = TextTable::new("T", &["n"]);
        table.row(vec!["7".into()]);
        let report = StudyReport::new(R { n: 7 }, table);
        assert!(report.text().contains("=== T ==="));
        // JSON carries the typed result only — no table strings.
        assert_eq!(report.json(), "{\n  \"n\": 7\n}");
        assert_eq!(report.result().n, 7);
        assert_eq!(report.table().len(), 1);
    }
}
