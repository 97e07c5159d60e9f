//! Drive timeline cross-validation (ISSUE 5).
//!
//! The contract that makes drive results trustworthy: a single-segment
//! drive has no transition, so it must be **bit-identical** to the
//! standalone scenario run of the same (scenario, package) pair — the
//! piecewise arrival stream, the phased engine and the re-matcher may
//! add nothing. And the drive × package study, like every other grid in
//! the workspace, must be bit-identical at any worker count.

use npu_maestro::{FittedMaestro, ReconfigModel};
use npu_mcm::McmPackage;
use npu_pipesim::simulate;
use npu_scenario::{drive_sweep, match_scenario, simulate_drive, Drive, DriveSegment, Scenario};
use npu_tensor::Seconds;

/// A one-segment drive for every built-in scenario family: no
/// transition ⇒ no divergence from the standalone run, to the bit, at
/// `--jobs 1` and `--jobs 8`.
#[test]
fn single_segment_drive_matches_standalone_scenario_bit_for_bit() {
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    for jobs in [1, 8] {
        npu_par::with_jobs(jobs, || {
            for scenario in [
                Scenario::builtin()[0].clone(),
                Scenario::builtin()[3].clone(),
            ] {
                let drive = Drive::new(
                    format!("solo-{}", scenario.name),
                    vec![DriveSegment::new(scenario.clone(), Seconds::new(1.0))],
                );
                let frames = drive.segments[0].frames();
                let out = simulate_drive(&drive, &pkg, &model, &ReconfigModel::default());
                assert_eq!(out.segments.len(), 1);
                assert!(out.transitions.is_empty());
                assert_eq!(out.total_dropped, 0, "no transition, no drops");

                let outcome = match_scenario(&scenario, &pkg, &model);
                let cfg = scenario.sim_config(frames);
                let standalone = simulate(&[cfg.phase(&outcome.schedule)], &pkg, &model, cfg.dtype)
                    .expect("a valid stream")
                    .remove(0)
                    .report;

                let seg = &out.segments[0];
                for (what, drive_v, solo_v) in [
                    (
                        "steady interval",
                        seg.des_interval,
                        standalone.steady_interval,
                    ),
                    ("mean latency", seg.mean_latency, standalone.mean_latency),
                    ("max latency", seg.max_latency, standalone.max_latency),
                    // Per-segment percentiles must equal the whole-run
                    // percentiles on a single-segment drive (ISSUE 6).
                    ("p50", seg.tails.p50, standalone.tails.p50),
                    ("p95", seg.tails.p95, standalone.tails.p95),
                    ("p99", seg.tails.p99, standalone.tails.p99),
                    ("p99.9", seg.tails.p999, standalone.tails.p999),
                ] {
                    assert_eq!(
                        drive_v.as_secs().to_bits(),
                        solo_v.as_secs().to_bits(),
                        "{}/jobs {jobs}: {what} diverged ({drive_v} vs {solo_v})",
                        scenario.name
                    );
                }
                assert_eq!(seg.pipe, outcome.report.pipe, "{}", scenario.name);
            }
        });
    }
}

/// The drive × package study — matching, re-matching and the phased DES
/// inside every point — is bit-identical serial vs parallel.
#[test]
fn drive_sweep_is_identical_serial_and_parallel() {
    let drives = Drive::builtin();
    let packages = [McmPackage::simba_6x6(), McmPackage::dual_npu_12x6()];
    let model = FittedMaestro::new();
    let reconfig = ReconfigModel::default();
    let serial = npu_par::with_jobs(1, || drive_sweep(&drives, &packages, &model, &reconfig));
    let parallel = npu_par::with_jobs(8, || drive_sweep(&drives, &packages, &model, &reconfig));
    // DriveOutcome derives PartialEq over every latency/byte/count field:
    // each must match to the bit.
    assert_eq!(serial, parallel);
    // Input order: drive-major, package-minor.
    assert_eq!(serial.len(), drives.len() * packages.len());
    assert_eq!(serial[0].drive, drives[0].name);
    assert_eq!(serial[0].package, packages[0].name());
    assert_eq!(serial[1].package, packages[1].name());
}

/// Frame accounting balances under make-before-break: every drop is
/// attributed to a transition, `offered == served + dropped + flushed`
/// per segment, and a longer spin-up can only drop more frames.
#[test]
fn dropped_frame_accounting_balances() {
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    let out = simulate_drive(
        &Drive::cruise_urban_degraded(),
        &pkg,
        &model,
        &ReconfigModel::default(),
    );
    assert_eq!(
        out.total_offered,
        out.segments.iter().map(|s| s.offered).sum::<usize>()
    );
    assert_eq!(
        out.total_dropped,
        out.transitions.iter().map(|t| t.dropped).sum::<usize>(),
        "every dropped frame belongs to a transition window"
    );
    for s in &out.segments {
        assert_eq!(
            s.offered,
            s.served + s.dropped + s.flushed,
            "{}: the books must balance",
            s.scenario
        );
        assert!(s.staleness >= Seconds::ZERO && s.staleness <= s.duration);
    }
    for (t, s) in out.transitions.iter().zip(&out.segments[1..]) {
        assert_eq!(t.dropped, s.dropped, "{} -> {}", t.from, t.to);
        assert!(
            t.dropped as f64
                <= (t.rematch_latency.as_secs()
                    / out.segments[0].predicted_interval.as_secs().min(0.04))
                .ceil()
                    + 1.0,
            "drops must be bounded by the barrier spin-up window"
        );
        assert!(t.stalled > 0 && t.stalled <= t.reprogrammed);
    }
    // Both headline switches are partial diffs, and the stalled reloads
    // hide behind the surviving pipeline's wavefront offset: nothing is
    // dropped where the barrier model charged the whole window.
    assert_eq!(out.total_dropped, 0, "make-before-break hides the spin-up");
    assert_eq!(out.total_flushed, 0, "partial handovers drain in flight");
    // A pathologically slow reload can no longer hide behind the
    // wavefront: drops return, and monotonically in the spin-up cost.
    let slow = ReconfigModel::new(Seconds::new(3.0), Seconds::from_micros(500.0), 1e8);
    let slow_out = simulate_drive(&Drive::cruise_urban_degraded(), &pkg, &model, &slow);
    assert!(slow_out.total_dropped > 0, "a 3 s+ stall must cost frames");
    assert!(slow_out.total_dropped >= out.total_dropped);
}
