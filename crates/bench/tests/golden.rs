//! Golden-file regression tests for the `repro --json` output.
//!
//! Every artifact in the stack is deterministic (analytic evaluation,
//! seeded DES runs, input-ordered parallel sweeps), so the serialized
//! JSON is byte-stable. Pinning it catches both schema drift (renamed
//! or dropped fields breaking downstream consumers) and silent result
//! drift (a cost-model change moving numbers nobody meant to move).
//!
//! On an intentional change, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p repro --test golden
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.json"))
}

/// Runs `repro --json <name>` (with a pinned worker count, which must
/// not matter) and compares the output byte-for-byte with the golden
/// file. `BLESS=1` rewrites the golden instead.
fn check_golden(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--jobs", "2", "--json", name])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro --json {name} failed");
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\n\
             generate it with: BLESS=1 cargo test -p repro --test golden",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "`repro --json {name}` drifted from {}.\n\
         If the change is intentional, regenerate with:\n\
         BLESS=1 cargo test -p repro --test golden\n\
         --- first diverging line ---\n{}",
        path.display(),
        first_diff(&expected, &actual)
    );
}

/// The first line where the two documents diverge, for a readable
/// failure message (full documents are thousands of lines).
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}:\n  golden: {e}\n  actual: {a}", i + 1);
        }
    }
    format!(
        "documents differ in length: golden {} lines, actual {} lines",
        expected.lines().count(),
        actual.lines().count()
    )
}

/// The scenario workbench grid: the new artifact of ISSUE 3.
#[test]
fn scenarios_json_matches_golden() {
    check_golden("scenarios");
}

/// One pre-existing artifact, pinned so the whole `--json` surface —
/// not just the new code — is covered against schema drift.
#[test]
fn fig3_json_matches_golden() {
    check_golden("fig3");
}

/// The scenario-aware package DSE: the new artifact of ISSUE 4. Pinning
/// it byte-for-byte also pins the cheapest-feasible selection, which
/// must be identical at any `--jobs` count (the runner pins 2 workers).
#[test]
fn scenario_dse_json_matches_golden() {
    check_golden("scenario-dse");
}

/// The drive timeline workbench: the new artifact of ISSUE 5. Pinning it
/// byte-for-byte pins every per-segment steady-state figure, every
/// re-match latency and every dropped-frame count of the built-in
/// timelines on both packages.
#[test]
fn drive_json_matches_golden() {
    check_golden("drive");
}

/// The long drive timeline: the new artifact of ISSUE 8. Pinning it
/// byte-for-byte pins the minute-legged phased DES (per-segment steady
/// state and both re-matches) and the short-vs-long-window tail
/// resolution comparison of the rebuilt engine.
#[test]
fn drive_long_json_matches_golden() {
    check_golden("drive-long");
}

/// The tail-latency DSE: the new artifact of ISSUE 6. Pinning it
/// byte-for-byte pins every streamed percentile, the per-family
/// mean-vs-tail winners and the envelope-level p99 winner shift.
#[test]
fn tails_json_matches_golden() {
    check_golden("tails");
}

/// The fleet serving DSE: the new artifact of ISSUE 9. Pinning it
/// byte-for-byte pins the sampled fleet, every uniform pool's packing
/// (instances, admissions, typed rejections, per-class p99s), the
/// cheapest-feasible selection, the mixed-pool comparison and the full
/// preemption trajectory — all independent of the worker count.
#[test]
fn fleet_json_matches_golden() {
    check_golden("fleet");
}

/// The static-analysis report: the new artifact of ISSUE 7. Pinning it
/// byte-for-byte pins the rule table, the zero-findings state and the
/// audited allow inventory — a new hazard or a new suppression shows up
/// as a golden diff, not just a CI failure.
#[test]
fn lint_json_matches_golden() {
    check_golden("lint");
}

/// Fig. 4: the per-layer OS-vs-WS latency and energy deltas of every
/// perception stage.
#[test]
fn fig4_json_matches_golden() {
    check_golden("fig4");
}

/// Figs. 5-8: the throughput-matched stage mapping on the 6x6 package,
/// including the shard configuration Algorithm 1 chose per stage.
#[test]
fn fig5to8_json_matches_golden() {
    check_golden("fig5to8");
}

/// Fig. 9: NoP data-movement latency and energy under the matched
/// schedule.
#[test]
fn fig9_json_matches_golden() {
    check_golden("fig9");
}

/// Fig. 10: Algorithm 1 scaled to two NPUs (72 chiplets).
#[test]
fn fig10_json_matches_golden() {
    check_golden("fig10");
}

/// Fig. 11: lane-trunk latency and energy under context-aware computing.
#[test]
fn fig11_json_matches_golden() {
    check_golden("fig11");
}

/// Table I: the heterogeneous trunk-integration brute force. The
/// document is about half a megabyte; it is pinned whole rather than by
/// digest so a drift shows the line that moved.
#[test]
fn table1_json_matches_golden() {
    check_golden("table1");
}

/// Table II: chiplet arrangements against monolithic baselines at equal
/// PE budget.
#[test]
fn table2_json_matches_golden() {
    check_golden("table2");
}

/// Table III: the occupancy-trunk upsampling ablation.
#[test]
fn table3_json_matches_golden() {
    check_golden("table3");
}

/// The scheduler, dataflow and cost-model ablations.
#[test]
fn ablations_json_matches_golden() {
    check_golden("ablations");
}

/// The chiplet-count scaling and failure-injection sweeps.
#[test]
fn sweeps_json_matches_golden() {
    check_golden("sweeps");
}

/// Every artifact `repro --list` names has a golden file, so a new
/// artifact cannot ship unpinned. (Each file is checked by its own
/// test above; this one only lists.)
#[test]
fn every_listed_artifact_has_a_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--list", "--json"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro --list --json failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let listing: serde_json::Value =
        serde_json::from_str(stdout.trim()).expect("--list --json is valid JSON");
    let entries = listing.as_array().expect("a JSON array");
    assert!(!entries.is_empty(), "the registry lists no artifact");
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(|v| v.as_str())
            .expect("each entry has a name");
        assert!(
            golden_path(name).is_file(),
            "artifact `{name}` has no golden file under {}",
            golden_dir().display()
        );
    }
}
