//! The meta-test: the workspace itself is lint-clean.
//!
//! This is the static half of the determinism contract. The dynamic
//! half (jobs-1/8 bit-identity, golden files) samples behaviour; this
//! test proves the *absence of the hazard classes* across every crate's
//! `src/` tree. Adding a new `HashMap`, wall-clock read, ambient RNG,
//! env read, NaN-unwrapping comparator or shared-state `par_map`
//! closure fails it, and so does an allow directive that is not in the
//! pinned (empty) inventory.

use npu_lint::{lint_workspace, workspace_root};

#[test]
fn workspace_has_zero_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace walks");
    assert!(
        report.is_clean(),
        "the workspace must be lint-clean:\n{}",
        report.text()
    );
}

#[test]
fn workspace_scan_covers_every_crate() {
    let report = lint_workspace(&workspace_root()).expect("workspace walks");
    // Every workspace crate must contribute files; a walker regression
    // that silently skips a crate would let hazards back in.
    for krate in [
        "crates/bench/",
        "crates/core/",
        "crates/dnn/",
        "crates/experiments/",
        "crates/fleet/",
        "crates/integration/",
        "crates/lint/",
        "crates/maestro/",
        "crates/mcm/",
        "crates/noc/",
        "crates/par/",
        "crates/pipesim/",
        "crates/scenario/",
        "crates/sched/",
        "crates/study/",
        "crates/tensor/",
    ] {
        assert!(
            report.files.iter().any(|f| f.starts_with(krate)),
            "no files scanned under {krate}"
        );
    }
}

#[test]
fn every_allow_is_justified_and_load_bearing() {
    let report = lint_workspace(&workspace_root()).expect("workspace walks");
    // `lint_source` only records allows that are valid AND suppressed a
    // finding; combined with zero findings this means: no unjustified
    // allow, no stale allow, anywhere.
    for a in &report.allows {
        assert!(!a.reason.is_empty(), "unjustified allow: {a:?}");
    }
    // The audited allow inventory is empty. Growing it is a deliberate
    // act: a new site must carry a written justification and be listed
    // here.
    let inventory: Vec<(&str, &str)> = report
        .allows
        .iter()
        .map(|a| (a.file.as_str(), a.rule.as_str()))
        .collect();
    assert_eq!(
        inventory,
        Vec::<(&str, &str)>::new(),
        "allow inventory drifted: {:#?}",
        report.allows
    );
}
