//! The `repro lint` artifact: the workspace determinism & panic-safety
//! report, golden-pinned.
//!
//! Runs the [`npu_lint`] rule engine (D001–D006 plus allow hygiene)
//! over every workspace crate's `src/` tree and renders the result in
//! the standard artifact formats — an aligned text table and a typed
//! JSON document. CI gates on the standalone `npu-lint` binary; this
//! artifact exists so the *content* of the report (the rule table, the
//! audited allow inventory, the zero-findings state) is pinned by the
//! golden-file harness like every other artifact: a new hazard or a
//! new suppression shows up as a golden diff, not just a CI failure.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::text::TextTable;

/// One rule of the engine, as reported.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleRow {
    /// Rule code (`D001`...).
    pub code: String,
    /// Kebab-case rule name.
    pub name: String,
    /// Findings that survived allows, workspace-wide.
    pub findings: usize,
    /// Justified allow directives for this rule, workspace-wide.
    pub allows: usize,
}

/// One surviving finding (empty on a clean workspace).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FindingRow {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// One justified, load-bearing allow directive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllowRow {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub reason: String,
}

/// The full lint report of the workspace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// Source files scanned (every crate's `src/` tree).
    pub files_scanned: usize,
    /// True when `findings` is empty.
    pub clean: bool,
    /// Per-rule finding/allow counts, rule order.
    pub rules: Vec<RuleRow>,
    /// Surviving findings (file, span, message) — empty when clean.
    pub findings: Vec<FindingRow>,
    /// The audited allow inventory.
    pub allows: Vec<AllowRow>,
}

/// Lints the workspace and assembles the artifact.
pub fn run() -> LintReport {
    let report =
        npu_lint::lint_workspace(&npu_lint::workspace_root()).expect("workspace tree readable");
    let rules = npu_lint::RULES
        .iter()
        .map(|r| RuleRow {
            code: r.code.to_string(),
            name: r.name.to_string(),
            findings: report.findings.iter().filter(|f| f.rule == r.code).count(),
            allows: report.allows.iter().filter(|a| a.rule == r.code).count(),
        })
        .collect();
    LintReport {
        files_scanned: report.files.len(),
        clean: report.is_clean(),
        rules,
        findings: report
            .findings
            .iter()
            .map(|f| FindingRow {
                rule: f.rule.to_string(),
                file: f.file.clone(),
                line: f.line,
                col: f.col,
                message: f.message.clone(),
            })
            .collect(),
        allows: report
            .allows
            .iter()
            .map(|a| AllowRow {
                rule: a.rule.clone(),
                file: a.file.clone(),
                line: a.line,
                reason: a.reason.clone(),
            })
            .collect(),
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Static analysis — workspace determinism & panic-safety (npu-lint)",
            &["rule", "name", "findings", "allows"],
        );
        for r in &self.rules {
            t.row(vec![
                r.code.clone(),
                r.name.clone(),
                r.findings.to_string(),
                r.allows.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        for fi in &self.findings {
            writeln!(
                f,
                "FINDING {} {}:{}:{} {}",
                fi.rule, fi.file, fi.line, fi.col, fi.message
            )?;
        }
        for a in &self.allows {
            writeln!(f, "allow {} {}:{} — {}", a.rule, a.file, a.line, a.reason)?;
        }
        writeln!(
            f,
            "{} files scanned; {}",
            self.files_scanned,
            if self.clean {
                "workspace is lint-clean"
            } else {
                "WORKSPACE HAS FINDINGS"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_artifact_is_clean() {
        let r = run();
        assert!(r.clean, "findings: {:?}", r.findings);
        assert!(r.findings.is_empty());
        assert!(
            r.files_scanned > 90,
            "walker lost crates: {}",
            r.files_scanned
        );
    }

    #[test]
    fn rule_counts_are_consistent() {
        let r = run();
        let allows: usize = r.rules.iter().map(|x| x.allows).sum();
        assert_eq!(allows, r.allows.len());
        let findings: usize = r.rules.iter().map(|x| x.findings).sum();
        assert_eq!(findings, r.findings.len());
        // The audited inventory is empty: no hash containers and no env
        // reads (see the workspace_clean meta-test).
        let d001 = r.rules.iter().find(|x| x.code == "D001").unwrap();
        assert_eq!(d001.allows, 0);
        let d005 = r.rules.iter().find(|x| x.code == "D005").unwrap();
        assert_eq!(d005.allows, 0);
    }

    #[test]
    fn text_rendering_names_every_rule() {
        let text = run().to_string();
        for code in ["D001", "D002", "D003", "D004", "D005", "D006"] {
            assert!(text.contains(code), "missing {code}:\n{text}");
        }
        assert!(text.contains("lint-clean"));
    }
}
