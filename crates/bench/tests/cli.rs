//! End-to-end tests of the `repro` CLI: argument parsing, exit codes and
//! the `--json` output mode.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_artifact_exits_nonzero() {
    let out = repro(&["no_such_artifact"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown artifact `no_such_artifact`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("expected fig3"), "stderr: {stderr}");
}

#[test]
fn unknown_artifact_exits_nonzero_in_json_mode() {
    let out = repro(&["--json", "no_such_artifact"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown artifact `no_such_artifact`"),
        "stderr: {stderr}"
    );
}

#[test]
fn one_bad_artifact_fails_the_whole_invocation() {
    // A valid artifact before the bad one must not mask the failure.
    let out = repro(&["fig3", "no_such_artifact"]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Fig. 3"), "fig3 should still render");
}

#[test]
fn json_mode_emits_valid_json() {
    let out = repro(&["--json", "fig3"]);
    assert!(out.status.success(), "repro --json fig3 failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    assert!(
        value.as_object().is_some(),
        "expected a top-level JSON object"
    );
}

/// `--json all` is every artifact's document (each pinned by its golden
/// file) concatenated in `--list` order: one run path, one order.
#[test]
fn json_all_emits_one_document_per_artifact() {
    let out = repro(&["--list", "--json"]);
    assert!(out.status.success(), "repro --list --json failed");
    let listing: serde_json::Value =
        serde_json::from_str(String::from_utf8(out.stdout).unwrap().trim()).expect("valid JSON");
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected: String = listing
        .as_array()
        .expect("a JSON array")
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(|v| v.as_str()).unwrap();
            std::fs::read_to_string(golden_dir.join(format!("{name}.json")))
                .unwrap_or_else(|e| panic!("golden file for `{name}`: {e}"))
        })
        .collect();

    let out = repro(&["--jobs", "2", "--json", "all"]);
    assert!(out.status.success(), "repro --json all failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout == expected,
        "`repro --json all` is not the golden files concatenated in --list order"
    );
}

#[test]
fn list_prints_the_registry_one_artifact_per_line() {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "repro --list failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 18, "one line per artifact:\n{stdout}");
    assert_eq!(lines[0], "fig3");
    assert!(
        lines.contains(&"fig5to8 (aliases: fig5, fig6, fig7, fig8)"),
        "{stdout}"
    );
    assert!(
        lines.contains(&"scenario-dse (aliases: scenario_dse)"),
        "{stdout}"
    );
    assert!(
        lines.contains(&"drive (aliases: drives, drive-timelines)"),
        "{stdout}"
    );
    assert!(
        lines.contains(&"drive-long (aliases: long-drive, drive_long)"),
        "{stdout}"
    );
    assert!(
        lines.contains(&"tails (aliases: tail, tail-latency)"),
        "{stdout}"
    );
    assert!(
        lines.contains(&"fleet (aliases: fleet-dse, tenants)"),
        "{stdout}"
    );
    assert!(lines.contains(&"lint (aliases: lints, check)"), "{stdout}");
}

#[test]
fn list_json_emits_a_json_array() {
    for args in [&["--list", "--json"][..], &["--json", "--list"]] {
        let out = repro(args);
        assert!(out.status.success(), "repro {args:?} failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
        let entries = value.as_array().expect("a top-level JSON array");
        assert_eq!(entries.len(), 18);
        let names: Vec<&str> = entries
            .iter()
            .map(|e| e.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert!(names.contains(&"scenario-dse"), "{names:?}");
        assert!(names.contains(&"tails"), "{names:?}");
        // Aliases ride along as arrays.
        let panel = entries
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("fig5to8"))
            .expect("fig5to8 listed");
        assert_eq!(
            panel
                .get("aliases")
                .and_then(|v| v.as_array())
                .unwrap()
                .len(),
            4
        );
    }
}

#[test]
fn flags_are_accepted_anywhere_in_argv() {
    // `repro fig3 --json` used to fail with "unknown artifact `--json`".
    let trailing = repro(&["fig3", "--json"]);
    assert!(trailing.status.success(), "repro fig3 --json failed");
    let leading = repro(&["--json", "fig3"]);
    assert_eq!(
        String::from_utf8(trailing.stdout).unwrap(),
        String::from_utf8(leading.stdout).unwrap(),
        "flag position must not change the output"
    );

    let mixed = repro(&["fig3", "--jobs", "2", "--json"]);
    assert!(mixed.status.success(), "repro fig3 --jobs 2 --json failed");
    let stdout = String::from_utf8(mixed.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    assert!(value.as_object().is_some());
}

#[test]
fn list_refuses_artifact_names() {
    let out = repro(&["fig3", "--list"]);
    assert!(!out.status.success(), "mixing --list with names must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--list does not combine"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_flags_exit_nonzero() {
    let out = repro(&["fig3", "--frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
}

#[test]
fn text_mode_renders_the_artifact() {
    let out = repro(&["fig3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Fig. 3"), "stdout: {stdout}");
}

/// `repro tails` reports p50/p95/p99/p99.9 per scenario family and per
/// drive segment, and names the mean-vs-tail winner shift (ISSUE 6).
#[test]
fn tails_artifact_reports_percentiles_and_the_winner_shift() {
    let out = repro(&["--jobs", "2", "tails"]);
    assert!(out.status.success(), "repro tails failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Tail-latency DSE"), "stdout: {stdout}");
    assert!(stdout.contains("Drive-segment tails"), "{stdout}");
    for col in ["p50", "p95", "p99", "p99.9"] {
        assert!(stdout.contains(col), "missing {col}: {stdout}");
    }
    // The headline shift: mean winner 6x6, p99-SLO winner 8x6.
    assert!(
        stdout.contains("cheapest at the mean = os256-6x6"),
        "{stdout}"
    );
    assert!(stdout.contains("= os256-8x6"), "{stdout}");

    // JSON mode carries the typed schema, aliases resolve.
    let json = repro(&["--json", "tail-latency"]);
    assert!(json.status.success(), "repro --json tail-latency failed");
    let stdout = String::from_utf8(json.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    let obj = value.as_object().expect("a top-level JSON object");
    for key in ["cheapest_tail", "family_winners"] {
        assert!(obj.iter().any(|(k, _)| k == key), "missing {key}: {stdout}");
    }
}

/// `repro fleet` packs a 100+ vehicle fleet onto 3+ package
/// configurations, names the cheapest feasible mix, and shows the
/// priority-preemption event (ISSUE 9).
#[test]
fn fleet_artifact_reports_the_package_mix_and_preemption() {
    let out = repro(&["--jobs", "2", "fleet"]);
    assert!(out.status.success(), "repro fleet failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("Fleet package-mix DSE - 120 vehicles"),
        "{stdout}"
    );
    assert!(
        stdout.contains("cheapest feasible uniform pool"),
        "{stdout}"
    );
    assert!(stdout.contains("mixed pool"), "{stdout}");
    assert!(stdout.contains("Priority preemption"), "{stdout}");

    // JSON mode carries the typed schema, aliases resolve.
    let json = repro(&["--json", "fleet-dse"]);
    assert!(json.status.success(), "repro --json fleet-dse failed");
    let stdout = String::from_utf8(json.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    let obj = value.as_object().expect("a top-level JSON object");
    for key in ["cheapest_feasible", "configs", "mixed", "preemption"] {
        assert!(obj.iter().any(|(k, _)| k == key), "missing {key}: {stdout}");
    }
}

/// `repro lint` renders the static-analysis report, resolves its
/// aliases, and exposes the typed schema in JSON mode (ISSUE 7).
#[test]
fn lint_artifact_reports_a_clean_workspace() {
    let out = repro(&["lint"]);
    assert!(out.status.success(), "repro lint failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Static analysis"), "stdout: {stdout}");
    assert!(stdout.contains("workspace is lint-clean"), "{stdout}");
    for code in ["D001", "D002", "D003", "D004", "D005", "D006"] {
        assert!(stdout.contains(code), "missing {code}: {stdout}");
    }

    // Aliases resolve; JSON mode carries the typed schema.
    let json = repro(&["--json", "check"]);
    assert!(json.status.success(), "repro --json check failed");
    let stdout = String::from_utf8(json.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    let obj = value.as_object().expect("a top-level JSON object");
    for key in ["files_scanned", "clean", "rules", "allows"] {
        assert!(obj.iter().any(|(k, _)| k == key), "missing {key}: {stdout}");
    }
}

#[test]
fn jobs_flag_is_accepted_and_output_is_jobs_invariant() {
    let one = repro(&["--jobs", "1", "fig3"]);
    assert!(one.status.success(), "repro --jobs 1 fig3 failed");
    let two = repro(&["--jobs=2", "fig3"]);
    assert!(two.status.success(), "repro --jobs=2 fig3 failed");
    assert_eq!(
        String::from_utf8(one.stdout).unwrap(),
        String::from_utf8(two.stdout).unwrap(),
        "worker count must not change rendered results"
    );
}

#[test]
fn jobs_flag_composes_with_json_in_any_order() {
    let out = repro(&["--jobs", "2", "--json", "fig3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let value: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    assert!(value.as_object().is_some());
}

#[test]
fn malformed_jobs_flag_exits_nonzero() {
    for bad in [&["--jobs", "0"][..], &["--jobs", "x"], &["--jobs"]] {
        let out = repro(bad);
        assert!(!out.status.success(), "args {bad:?} should fail");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("--jobs expects"), "stderr: {stderr}");
    }
}
